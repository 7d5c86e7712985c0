"""The cold oracle every answer is checked against, outside timed phases.

A served answer must carry exactly the results a fresh
:class:`~repro.api.MulticastSession` computes on the request's static
scenario — for a trace cell, the cell's materialized ``(group, epoch)``
scenario, i.e. a cold replay of that one cell.  Results are compared
after a JSON round trip on both sides, which is exact for floats, so
"equal" means bit-identical shares, costs and power levels.
"""

from __future__ import annotations

import json

from repro.api import MulticastSession
from repro.api.serialize import result_to_dict
from repro.runner.execute import make_profiles

from inputs import SERVED_MECHANISM


def normalized(results) -> list:
    return json.loads(json.dumps([result_to_dict(r) for r in results]))


def cold_results(cell, mechanism, profiles) -> list:
    """Price ``profiles`` on a session built from nothing."""
    session = MulticastSession(cell)
    return normalized([session.run(mechanism, p) for p in profiles])


def answer_matches(key, profile: dict, data: bytes) -> bool:
    """Whether one 200 body is the cold oracle's answer for its request."""
    try:
        payload = json.loads(data)
    except ValueError:
        return False
    if key.group is not None and (payload.get("group") != key.group
                                  or payload.get("epoch") != key.epoch):
        return False
    return payload.get("results") == cold_results(key.cell, SERVED_MECHANISM, [profile])


def check_served(inputs, outcomes) -> list[tuple]:
    """The requests that failed: non-200 after retries, transport errors,
    and answers that differ from the cold oracle.  Returns
    ``(stream, index, reason)`` triples."""
    failed = []
    for outcome in outcomes:
        if outcome.status != 200:
            failed.append((outcome.stream, outcome.index, f"status {outcome.status}"))
            continue
        key = inputs.keys[outcome.key]
        profile = key.profile(inputs.bids(outcome.stream, outcome.index))
        if not answer_matches(key, profile, outcome.data):
            failed.append((outcome.stream, outcome.index, "differs from cold oracle"))
    return failed


def check_sweep_row(item, row: dict) -> bool:
    """Whether a sweep row carries the cold oracle's results for its item."""
    scenario = item.scenario
    profiles = make_profiles(scenario.build_network(), scenario.source,
                             scenario, item.profiles)
    expected = cold_results(scenario, item.mechanism, profiles)
    return json.loads(json.dumps(row["results"])) == expected
