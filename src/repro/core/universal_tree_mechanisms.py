"""Universal-tree mechanisms (paper section 2.1).

Lemma 2.1 makes the universal-tree cost function non-decreasing and
submodular, so two classical constructions apply:

* the **Shapley value mechanism** — group strategyproof, budget balanced,
  NPT/VP/CS.  The paper gives the Shapley value of this game a closed form
  ("water-filling"): at each station ``x`` of ``T(R)`` with children
  ``y_1..y_k`` sorted by edge cost, the power increment
  ``c(x, y_i) - c(x, y_{i-1})`` is split equally among the receivers routed
  through ``y_i .. y_k``.  :func:`universal_tree_shapley_shares` implements
  it in O(|T(R)|) on the flat :mod:`repro.engine.trees` kernel; the
  test-suite proves it equal to the exponential Eq. (4).

* the **marginal-cost (MC) mechanism** — efficient and strategyproof.
  :func:`tree_efficient_set` finds the largest efficient receiver set by a
  bottom-up tree DP (max-welfare, then max-size, both decomposable), giving
  a polynomial MC mechanism; every receiver's leave-one-out net worth
  comes from the same pass by re-evaluating only its root path.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.api.registry import register_mechanism
from repro.engine.trees import (
    efficient_set,
    efficient_set_leave_one_out,
    water_filling_shares,
    water_filling_shares_many,
)
from repro.mechanism.base import Agent, CostSharingMechanism, MechanismResult, Profile
from repro.mechanism.moulin_shenker import moulin_shenker
from repro.wireless.universal_tree import UniversalTree


def universal_tree_shapley_shares(
    tree: UniversalTree, receivers: Iterable[Agent]
) -> dict[Agent, float]:
    """Water-filling Shapley shares of ``C_T`` restricted to ``receivers``.

    Equals the Shapley value (paper Eq. (4)) of the universal-tree cost
    function — see the property tests.  Runs on the flat
    :class:`~repro.engine.trees.TreeIndex` kernel: one bottom-up counting
    sweep plus one top-down accumulation, O(|T(R)|) per call instead of the
    per-node receiver-set unions of the naive formulation.
    """
    return water_filling_shares(tree.index(), receivers)


def tree_efficient_set(
    tree: UniversalTree, profile: Mapping[Agent, float],
    agents: Iterable[Agent] | None = None,
) -> tuple[float, frozenset]:
    """``(max net worth, largest efficient receiver set)`` for the
    universal-tree cost function — bottom-up DP, polynomial.

    For each station the DP keeps the lexicographically maximal
    ``(welfare, size)`` of its subtree given the station is wired in; a
    parent then chooses which children to activate, paying the maximum
    child-edge cost among activated ones.  Maximising welfare (then size)
    decomposes because both add across children.  Runs on the iterative
    set-free kernel of :mod:`repro.engine.trees`.  ``agents`` optionally
    restricts the potential receivers (other stations stay pure relays).
    """
    return efficient_set(tree.index(), profile, agents=agents)


class UniversalTreeShapleyMechanism(CostSharingMechanism):
    """Shapley value mechanism on a universal tree: budget balanced, group
    strategyproof, NPT/VP/CS (section 2.1).

    ``agents`` optionally restricts the potential receiver set (a
    scenario's explicit ``receivers``); default: every non-source station.
    """

    def __init__(self, tree: UniversalTree,
                 agents: Iterable[Agent] | None = None) -> None:
        self.tree = tree
        self.agents = sorted(agents) if agents is not None else tree.agents()

    def _build(self, R: frozenset) -> tuple[float, object]:
        power = self.tree.power_assignment(R)
        return power.cost(), power

    def run(self, profile: Profile, *, method=None) -> MechanismResult:
        """Run the mechanism; ``method`` optionally substitutes a memoised
        wrapper of the Shapley method (see
        :class:`repro.engine.batch.MethodCache`) — same values, shared
        across profiles."""
        u = self.validate_profile(profile)

        if method is None:
            def method(R: frozenset) -> dict[Agent, float]:
                return universal_tree_shapley_shares(self.tree, R)

        return moulin_shenker(self.agents, method, u, build=self._build)

    def run_many(self, profiles: Iterable[Profile], *, method) -> list[MechanismResult]:
        """Price a profile batch with sweep-wide vectorized xi.

        All profiles' drop iterations advance in lockstep and every
        round's cold receiver sets are evaluated in one
        :func:`~repro.engine.trees.water_filling_shares_many` flat-array
        pass, deposited into the shared ``method`` cache
        (:class:`~repro.engine.batch.MethodCache`).  Results are
        bit-identical to looping :meth:`run` — the final replay runs the
        real per-profile driver over the warmed cache.
        """
        from repro.engine.batch import run_profiles_lockstep

        index = self.tree.index()

        def many(sets: list[frozenset]) -> list[dict[Agent, float]]:
            return water_filling_shares_many(index, sets)

        validated = [self.validate_profile(p) for p in profiles]
        return run_profiles_lockstep(self.agents, many, validated,
                                     method=method, build=self._build)


class UniversalTreeMCMechanism(CostSharingMechanism):
    """Marginal-cost mechanism on a universal tree: efficient and
    strategyproof (but not group strategyproof, and may run a deficit).

    Charges each receiver ``u_i - (NW(u) - NW(u^{-i}))`` as the generic
    :class:`~repro.mechanism.vcg.MarginalCostMechanism` does, but takes
    every leave-one-out net worth from one DP pass
    (:func:`~repro.engine.trees.efficient_set_leave_one_out`) instead of
    one full re-solve per receiver.

    ``agents`` optionally restricts the potential receiver set; stations
    outside it stay pure relays for the efficient-set DP."""

    def __init__(self, tree: UniversalTree,
                 agents: Iterable[Agent] | None = None) -> None:
        self.tree = tree
        self.agents = sorted(agents) if agents is not None else tree.agents()
        self._restrict = None if agents is None else self.agents

    def run(self, profile: Profile) -> MechanismResult:
        u = self.validate_profile(profile)
        nw, receivers, nw_without = efficient_set_leave_one_out(
            self.tree.index(), u, agents=self._restrict)
        # i's welfare is its marginal contribution NW(u) - NW(u^{-i}).
        shares = {i: max(0.0, u[i] - (nw - nw_without[i])) for i in receivers}
        power = self.tree.power_assignment(receivers)
        return MechanismResult(
            receivers=receivers,
            shares=shares,
            cost=float(power.cost()),
            power=power,
            extra={"net_worth": nw},
        )


# -- registry wiring (repro.api) --------------------------------------------

def _session_agents(session):
    """The agent restriction a session's scenario implies: its explicit
    ``receivers`` subset, or ``None`` (every non-source station — the
    bit-identical legacy path)."""
    return session.agents() if session.scenario.receivers is not None else None


register_mechanism(
    "tree-shapley",
    lambda session, *, tree=None: UniversalTreeShapleyMechanism(
        session.universal_tree(tree), agents=_session_agents(session)),
    method_of=lambda mech: lambda R: universal_tree_shapley_shares(mech.tree, R),
    summary="§2.1 Shapley value mechanism on a universal tree (BB, GSP)",
)
register_mechanism(
    "tree-mc",
    lambda session, *, tree=None: UniversalTreeMCMechanism(
        session.universal_tree(tree), agents=_session_agents(session)),
    summary="§2.1 marginal-cost mechanism on a universal tree (efficient, SP)",
    guarantees=("npt", "vp"),  # MC runs deficits: no cost recovery (§2.1)
)
