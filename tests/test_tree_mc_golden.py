"""Golden outputs of the tree-mc (universal-tree marginal-cost) mechanism.

The fixture ``tests/data/tree_mc_golden.json`` pins, per scenario and
utility profile, the full ``result_to_dict`` of a ``tree-mc`` run:
receivers, shares, cost, power assignment and ``extra["net_worth"]``.
The scenarios cover every layout family at three seeds, a receiver
subset (the efficient-set DP's ``agents=`` relay path), the ``mst`` and
``star`` trees, and tie-heavy inputs: an exact integer lattice and an
integer-valued cost matrix priced with integer bids, zero bids and bids
equal to each agent's own child-edge cost.  There subtree values land on
exactly zero, so the DP's ``abs(cw) <= eps`` and set-size tie-breaks
decide the outcome.  Any change to the DP's float operations or tie rules
shows up here as a diff.

Regenerate (only for a deliberate output change) with::

    PYTHONPATH=src python tests/test_tree_mc_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import MulticastSession, ScenarioSpec, result_to_dict
from repro.geometry.layouts import LAYOUT_FAMILIES

FIXTURE = Path(__file__).parent / "data" / "tree_mc_golden.json"
N = 30
SEEDS = (0, 1, 2)
TIED = ("int-lattice", "int-lattice-mst", "int-lattice-receivers",
        "int-matrix", "int-matrix-mst", "int-matrix-star")


def _with(spec: ScenarioSpec, **fields) -> ScenarioSpec:
    return ScenarioSpec.from_dict({**spec.to_dict(), **fields})


def _scenarios() -> list[tuple[str, ScenarioSpec]]:
    cases = [(f"{layout}-{seed}",
              ScenarioSpec.from_random(n=N, alpha=2.0, seed=seed, side=10.0,
                                       layout=layout))
             for layout in LAYOUT_FAMILIES for seed in SEEDS]
    base = ScenarioSpec.from_random(n=N, alpha=2.0, seed=0, side=10.0)
    cases.append(("uniform-0-receivers", _with(base, receivers=list(range(1, N, 3)))))
    cases.append(("uniform-0-mst", _with(base, tree="mst")))
    cases.append(("uniform-0-star", _with(base, tree="star")))
    lattice = ScenarioSpec.from_points(
        [(float(x), float(y)) for y in range(5) for x in range(6)], 2.0, source=14)
    cases.append(("int-lattice", lattice))
    cases.append(("int-lattice-mst", _with(lattice, tree="mst")))
    cases.append(("int-lattice-receivers", _with(lattice, receivers=[0, 3, 5, 9, 20, 24, 29])))
    rng = np.random.default_rng(7)
    m = rng.integers(1, 5, size=(N, N)).astype(float)
    m = np.triu(m, 1)
    matrix = ScenarioSpec.from_matrix(m + m.T)
    cases.append(("int-matrix", matrix))
    cases.append(("int-matrix-mst", _with(matrix, tree="mst")))
    cases.append(("int-matrix-star", _with(matrix, tree="star")))
    return cases


def _profiles(spec: ScenarioSpec, key: str) -> list[dict[int, float]]:
    """Everyone served, then two budgets around the mean per-agent cost of
    serving everyone; tie-heavy scenarios add integer, zero and
    edge-cost bids."""
    session = MulticastSession(spec)
    tree = session.universal_tree()
    agents = spec.agents()
    mean = tree.cost(agents) / len(agents)
    rng = np.random.default_rng(sum(key.encode()))
    profiles = [{a: 1e9 for a in agents},
                *({a: float(rng.uniform(0.0, scale * mean)) for a in agents}
                  for scale in (2.0, 1.0))]
    if key in TIED:
        edge = {a: float(session.network.cost(tree.parents[a], a)) for a in agents}
        top = max(2, int(2 * mean))
        profiles += [
            {a: float(rng.integers(0, top)) for a in agents},
            {a: 0.0 if a % 2 else float(rng.integers(1, top)) for a in agents},
            edge,
            {a: edge[a] if a % 3 else 0.0 for a in agents},
            {a: 0.0 for a in agents},
        ]
    return profiles


def _observe(spec: ScenarioSpec, profiles) -> list[dict]:
    session = MulticastSession(spec)
    return [json.loads(json.dumps(result_to_dict(session.run("tree-mc", p))))
            for p in profiles]


def _generate() -> dict:
    cases = {}
    for key, spec in _scenarios():
        profiles = _profiles(spec, key)
        cases[key] = {
            "spec": spec.to_dict(),
            "profiles": [{str(a): u for a, u in p.items()} for p in profiles],
            "tree_mc": _observe(spec, profiles),
        }
    return cases


def _load() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("key", [key for key, _ in _scenarios()])
def test_tree_mc_matches_the_golden_fixture(key):
    case = _load()[key]
    spec = ScenarioSpec.from_dict(case["spec"])
    profiles = [{int(a): u for a, u in p.items()} for p in case["profiles"]]
    assert _observe(spec, profiles) == case["tree_mc"]


def test_fixture_exercises_ties_and_partial_service():
    cases = _load()
    served = {len(r["receivers"]) for case in cases.values() for r in case["tree_mc"]}
    assert min(served) == 0 and min(served) < max(served)  # some profiles drop agents
    # A receiver charged its whole (positive) bid adds exactly zero net
    # worth: only the DP's zero-welfare / larger-set tie-break admits it.
    zero_marginal = 0
    for key in TIED:
        case = cases[key]
        for profile, result in zip(case["profiles"], case["tree_mc"]):
            zero_marginal += sum(1 for a, s in result["shares"].items()
                                 if s > 0 and s == profile[a])
    assert zero_marginal > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_tree_mc_golden.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    cases = _generate()
    FIXTURE.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(cases[key], sort_keys=True)}"
        for key in sorted(cases)) + "\n}\n")
    print(f"wrote {FIXTURE}")
