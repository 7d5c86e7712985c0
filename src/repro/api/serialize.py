"""Wire-format serialization of mechanism outcomes.

:func:`result_to_dict` / :func:`result_from_dict` (and the ``_json``
variants) move a :class:`~repro.mechanism.base.MechanismResult` — including
its :class:`~repro.wireless.PowerAssignment` — across a process boundary.
The wire format addresses agents by station id (int), which is what every
scenario-built mechanism uses; shares and costs round-trip with exact
float equality (Python's JSON uses shortest-repr floats).

``extra`` diagnostics are *sanitized*, not guaranteed round-trippable:
JSON-native values pass through unchanged, sets become sorted lists,
tuples become lists, non-serializable objects (e.g. spider traces) are
dropped.  A result whose ``extra`` is already JSON-native round-trips
exactly.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence

from repro.mechanism.base import MechanismResult

RESULT_SCHEMA = 1

_DROP = object()


def _jsonify(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        out = {}
        for k, v in value.items():
            jv = _jsonify(v)
            if jv is not _DROP:
                out[str(k)] = jv
        return out
    if isinstance(value, (set, frozenset)):
        items = [_jsonify(v) for v in value]
        kept = [v for v in items if v is not _DROP]
        return sorted(kept, key=repr)
    if isinstance(value, Sequence):
        items = [_jsonify(v) for v in value]
        return [v for v in items if v is not _DROP]
    try:  # numpy scalars and anything else that knows how to be a float
        import numpy as np

        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, np.ndarray):
            return [_jsonify(v) for v in value.tolist()]
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        pass
    return _DROP


def sanitize_extra(extra: Mapping) -> dict:
    """The JSON-safe projection of a result's ``extra`` diagnostics."""
    out = _jsonify(dict(extra))
    return out if out is not _DROP else {}


def _agent_key(agent) -> str:
    if not isinstance(agent, int) or isinstance(agent, bool):
        raise TypeError(
            f"wire format addresses agents by station id (int), got {agent!r}; "
            "run scenario-built mechanisms (see repro.api.session) to serialize results"
        )
    return str(agent)


def profile_from_dict(raw: Mapping) -> dict[int, float]:
    """A utility profile from its wire form ``{"<station>": utility}``.

    Keys must be canonical station ids (``str(int(key)) == key``: ``"01"``
    or ``" 1"`` would silently alias station 1) and utilities JSON numbers
    (not strings, not booleans).  Raises :class:`ValueError`."""
    profile = {}
    for key, value in raw.items():
        try:
            station = int(key)
        except (TypeError, ValueError):
            station = None
        if station is None or str(station) != key:
            raise ValueError(f"station key {key!r} is not a canonical "
                             "station id")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"utility of station {key} must be a number, "
                             f"got {value!r}")
        profile[station] = float(value)
    return profile


def result_to_dict(result: MechanismResult) -> dict:
    """Wire dict of a mechanism outcome (station-id agents only)."""
    power = None
    p = result.power
    if p is not None and hasattr(p, "powers"):
        power = [float(x) for x in p.powers]
    return {
        "schema": RESULT_SCHEMA,
        "receivers": sorted(int(_agent_key(i)) for i in result.receivers),
        "shares": {_agent_key(i): float(s) for i, s in sorted(result.shares.items())},
        "cost": float(result.cost),
        "power": power,
        "extra": sanitize_extra(result.extra),
    }


def result_from_dict(data: Mapping) -> MechanismResult:
    """Rebuild a :class:`MechanismResult` from its wire dict."""
    schema = data.get("schema", RESULT_SCHEMA)
    if schema != RESULT_SCHEMA:
        raise ValueError(f"unsupported result schema {schema!r} (this build speaks {RESULT_SCHEMA})")
    stray = sorted(set(data) - {"schema", "receivers", "shares", "cost", "power", "extra"})
    if stray:
        raise ValueError(f"unknown result fields: {stray}")
    power = data.get("power")
    if power is not None:
        from repro.wireless.power import PowerAssignment

        power = PowerAssignment(power)
    return MechanismResult(
        receivers=frozenset(int(i) for i in data["receivers"]),
        shares={int(a): float(s) for a, s in data["shares"].items()},
        cost=float(data["cost"]),
        power=power,
        extra=dict(data.get("extra", {})),
    )


def bb_ratio(charged: float, cost: float) -> float | None:
    """charged/cost, with the degenerate cases pinned: an empty/free
    outcome is perfectly balanced (1.0), revenue over zero cost is
    undefined (None — JSONL stays strict-parseable, no Infinity)."""
    if cost > 1e-12:
        return charged / cost
    return 1.0 if abs(charged) < 1e-9 else None


def summarize_results(results: Sequence[MechanismResult]) -> dict:
    """The per-row summary block of a batch of mechanism outcomes (the
    shape the sweep runner's JSONL rows and the dynamic replay rows
    share; pure function of the results, no timestamps)."""
    charges = [r.total_charged() for r in results]
    costs = [r.cost for r in results]
    ratios = [bb_ratio(charged, cost) for charged, cost in zip(charges, costs)]
    defined = [r for r in ratios if r is not None]
    return {
        "profiles": len(results),
        "mean_receivers": sum(len(r.receivers) for r in results) / len(results),
        "mean_charged": sum(charges) / len(charges),
        "mean_cost": sum(costs) / len(costs),
        "mean_bb": sum(defined) / len(defined) if defined else None,
        "worst_bb": max(defined) if defined else None,
    }


def result_to_json(result: MechanismResult, **dumps_kwargs) -> str:
    dumps_kwargs.setdefault("sort_keys", True)
    return json.dumps(result_to_dict(result), **dumps_kwargs)


def result_from_json(text: str) -> MechanismResult:
    return result_from_dict(json.loads(text))
