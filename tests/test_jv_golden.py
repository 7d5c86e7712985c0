"""Golden outputs of the jv mechanism and the KMB Steiner tree.

The fixture ``tests/data/jv_golden.json`` pins, per scenario and utility
profile, the full ``result_to_dict`` of a ``jv`` run (shares, receivers,
cost, power assignment and ``extra["closure_mst_weight"]``) plus the KMB
edge tuples of the final receiver set on both graph backends.  The
scenarios cover every layout family at three seeds, a receiver subset
(terminal-sourced closure) and two tie-heavy inputs: an exact integer
lattice and an integer-valued cost matrix, where equally short witness
paths and equal closure weights abound.  Any change to the Kruskal order
or to the witness-path tie-break shows up here as a diff.

Regenerate (only for a deliberate output change) with::

    PYTHONPATH=src python tests/test_jv_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import MulticastSession, ScenarioSpec, result_to_dict
from repro.geometry.layouts import LAYOUT_FAMILIES
from repro.graphs.steiner import kmb_steiner_tree

FIXTURE = Path(__file__).parent / "data" / "jv_golden.json"
N = 30
SEEDS = (0, 1, 2)


def _scenarios() -> list[tuple[str, ScenarioSpec]]:
    cases = [(f"{layout}-{seed}",
              ScenarioSpec.from_random(n=N, alpha=2.0, seed=seed, side=10.0,
                                       layout=layout))
             for layout in LAYOUT_FAMILIES for seed in SEEDS]
    subset = ScenarioSpec.from_random(n=N, alpha=2.0, seed=0, side=10.0)
    cases.append(("uniform-0-receivers", ScenarioSpec.from_dict(
        {**subset.to_dict(), "receivers": list(range(1, N, 3))})))
    lattice = [(float(x), float(y)) for y in range(5) for x in range(6)]
    cases.append(("int-lattice", ScenarioSpec.from_points(lattice, 2.0, source=14)))
    # Receivers diagonal to each other: every monotone lattice walk
    # between two of them is a shortest path, so only the parent-row
    # tie-break picks the witness.
    diagonal = ScenarioSpec.from_points(lattice, 2.0, source=0)
    cases.append(("int-lattice-diagonal", ScenarioSpec.from_dict(
        {**diagonal.to_dict(), "receivers": [9, 14, 25, 28]})))
    rng = np.random.default_rng(7)
    m = rng.integers(1, 5, size=(N, N)).astype(float)
    m = np.triu(m, 1)
    cases.append(("int-matrix", ScenarioSpec.from_matrix(m + m.T)))
    return cases


def _profiles(spec: ScenarioSpec, key: str) -> list[dict[int, float]]:
    """Everyone served, then two budgets around the mean full-set share,
    so the final receiver sets vary from the full set to a few agents."""
    agents = spec.agents()
    full = MulticastSession(spec).run("jv", {a: 1e9 for a in agents})
    mean = sum(full.shares.values()) / len(agents)
    rng = np.random.default_rng(sum(key.encode()))
    return [{a: 1e9 for a in agents},
            *({a: float(rng.uniform(0.0, scale * mean)) for a in agents}
              for scale in (2.0, 1.0))]


def _edges(tree) -> list[list]:
    return [[u, v, w] for u, v, w in tree.edges]


def _observe(spec: ScenarioSpec, profiles) -> dict:
    session = MulticastSession(spec)
    network = session.network
    out = {"jv": [], "kmb_dense": [], "kmb_dict": []}
    for profile in profiles:
        result = session.run("jv", profile)
        terminals = [spec.source, *sorted(result.receivers)]
        out["jv"].append(json.loads(json.dumps(result_to_dict(result))))
        out["kmb_dense"].append(_edges(kmb_steiner_tree(network.as_dense(), terminals)))
        out["kmb_dict"].append(_edges(kmb_steiner_tree(network.as_graph(), terminals)))
    return out


def _generate() -> dict:
    cases = {}
    for key, spec in _scenarios():
        profiles = _profiles(spec, key)
        cases[key] = {
            "spec": spec.to_dict(),
            "profiles": [{str(a): u for a, u in p.items()} for p in profiles],
            **_observe(spec, profiles),
        }
    return cases


def _load() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("key", [key for key, _ in _scenarios()])
def test_jv_and_kmb_match_the_golden_fixture(key):
    case = _load()[key]
    spec = ScenarioSpec.from_dict(case["spec"])
    profiles = [{int(a): u for a, u in p.items()} for p in case["profiles"]]
    observed = _observe(spec, profiles)
    assert json.loads(json.dumps(observed["kmb_dense"])) == case["kmb_dense"]
    assert json.loads(json.dumps(observed["kmb_dict"])) == case["kmb_dict"]
    assert observed["jv"] == case["jv"]


def test_fixture_exercises_ties_and_partial_service():
    cases = _load()
    served = {len(r["receivers"]) for case in cases.values() for r in case["jv"]}
    assert min(served) < max(served)  # some profiles drop agents
    for key in ("int-lattice", "int-lattice-diagonal", "int-matrix"):
        weights = [w for tree in cases[key]["kmb_dense"] for _, _, w in tree]
        assert len(set(weights)) < len(weights)  # exactly tied edge weights


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_jv_golden.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    cases = _generate()
    FIXTURE.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(cases[key], sort_keys=True)}"
        for key in sorted(cases)) + "\n}\n")
    print(f"wrote {FIXTURE}")
