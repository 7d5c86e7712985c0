"""The 2(3^d - 1)-BB Euclidean mechanism (Theorems 3.6 and 3.7).

``EuclideanJVMechanism`` = Moulin-Shenker driver over the Jain-Vazirani
cross-monotonic shares (:mod:`repro.core.jv_steiner`) + the Steiner
heuristic to build the actual power assignment:

* the shares sum to the metric-closure MST weight over ``R + {s}``
  (<= 2 * minimum Steiner tree <= 2(3^d - 1) * C*(R) by Lemma 3.5; <= 12 *
  C*(R) for d = 2 by Ambuehl's bound), giving beta-approximate
  budget balance;
* the built assignment comes from the KMB Steiner tree oriented away from
  the source, whose cost never exceeds the closure MST weight — so the
  charges always cover the built solution (cost recovery);
* cross-monotonicity makes the whole mechanism group strategyproof and
  NPT/VP/CS (Moulin-Shenker, extended to beta-BB by Jain-Vazirani).

The mechanism works on any symmetric cost graph; the *guarantee* ``beta =
2(3^d - 1)`` is the Euclidean one (``alpha >= d``).

The outcome — power assignment, its cost and the closure MST weight — is
a function of the final receiver set ``R`` alone, so each mechanism
instance memoises it per ``frozenset(R)`` (:attr:`EuclideanJVMechanism.outcomes`,
counted in the session's ``cache_info()["builds"]``).  A build runs on
the arrays the shares already use: the Kruskal order of the closure
block is computed once and feeds both the KMB tree and the MST weight,
and witness paths come from the closure's parent rows.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

from repro.api.registry import register_mechanism
from repro.core.jv_steiner import JVSteinerShares
from repro.engine.closure import TerminalClosure, closure_submatrix, kruskal_order
from repro.engine.batch import MethodCache
from repro.engine.moats import kruskal_total
from repro.graphs.mst import kruskal_accept
from repro.graphs.steiner import kmb_steiner_from_closure
from repro.mechanism.base import Agent, CostSharingMechanism, MechanismResult, Profile
from repro.mechanism.moulin_shenker import moulin_shenker
from repro.wireless.cost_graph import CostGraph
from repro.wireless.multicast import steiner_heuristic_power
from repro.wireless.power import PowerAssignment


def jv_bb_bound(d: int) -> float:
    """The proven budget-balance factor: ``2(3^d - 1)``, improved to 12 for
    d = 2 (Thm 3.7 via Ambuehl's MST bound)."""
    if d == 2:
        return 12.0
    return 2.0 * (3.0**d - 1.0)


class JVOutcome(NamedTuple):
    """What the mechanism builds for a final receiver set."""

    cost: float
    power: PowerAssignment
    closure_mst_weight: float


class EuclideanJVMechanism(CostSharingMechanism):
    """Group-strategyproof beta-BB mechanism for Euclidean wireless multicast.

    ``closure`` is a :class:`~repro.engine.closure.TerminalClosure`:
    its distance rows price the shares (see
    :class:`~repro.core.jv_steiner.JVSteinerShares`) and its parent rows
    give the KMB witness paths.  One sourced at every station hands the
    shares its plain ``(n, n)`` matrix.  Without a closure — or with a
    bare distance matrix, which has no parent rows — one all-pairs pass
    builds the paths.
    """

    def __init__(
        self,
        network: CostGraph,
        source: int,
        agent_weights: Mapping[Agent, float] | None = None,
        *,
        closure: TerminalClosure | np.ndarray | None = None,
        agents=None,
    ) -> None:
        if isinstance(closure, TerminalClosure):
            self.paths = closure
            if closure.terminals == tuple(range(network.n)):
                closure = closure.rows
        else:
            self.paths = TerminalClosure.from_network(network, range(network.n))
            if closure is None:
                closure = self.paths.rows
        self.network = network
        self.source = source
        self.jv = JVSteinerShares(network, source, agent_weights, closure=closure)
        self.outcomes = MethodCache(self._outcome, copy=None)
        if agents is None:
            self.agents = [i for i in range(network.n) if i != source]
        else:
            self.agents = sorted(set(agents) - {source})

    def _outcome(self, R: frozenset) -> JVOutcome:
        R = sorted(set(R) - {self.source})
        if not R:
            return JVOutcome(0.0, PowerAssignment.zeros(self.network.n), 0.0)
        pts = [self.source, *R]
        mst = kruskal_accept(len(pts), kruskal_order(closure_submatrix(self.jv.closure, pts), pts))
        tree = kmb_steiner_from_closure(self.network.as_dense(), pts, mst, self.paths.path)
        power = steiner_heuristic_power(
            self.network, [(u, v) for u, v, _ in tree.edges], self.source
        )
        return JVOutcome(power.cost(), power, kruskal_total(len(pts), mst))

    def run(self, profile: Profile, *, method=None) -> MechanismResult:
        """Run the mechanism; ``method`` optionally substitutes a memoised
        wrapper of ``self.jv.shares`` (see
        :class:`repro.engine.batch.MethodCache`)."""
        u = self.validate_profile(profile)
        xi = self.jv.shares if method is None else method
        result = moulin_shenker(self.agents, xi, u, build=lambda R: self.outcomes(R)[:2])
        result.extra["closure_mst_weight"] = self.outcomes(result.receivers).closure_mst_weight
        return result


# -- registry wiring (repro.api) --------------------------------------------

def _build_jv(session, *, agent_weights: Mapping | None = None) -> EuclideanJVMechanism:
    if agent_weights is not None:  # wire params arrive with string keys
        agent_weights = {int(a): float(w) for a, w in agent_weights.items()}
    receivers = session.scenario.receivers
    return EuclideanJVMechanism(
        session.network, session.source, agent_weights,
        # With an explicit receiver subset the terminal-sourced closure
        # prices every reachable coalition bit-identically at O(k n^2)
        # build cost; without one it IS the full matrix.
        closure=session.closure_paths(),
        agents=None if receivers is None else session.agents(),
    )


register_mechanism(
    "jv",
    _build_jv,
    method_of=lambda mech: mech.jv.shares,
    summary="§3.2 Jain-Vazirani cross-monotonic mechanism (2(3^d - 1)-BB, GSP)",
)
