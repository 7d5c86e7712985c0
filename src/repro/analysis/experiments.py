"""Experiment runners (one per DESIGN.md experiment ID).

Every runner is deterministic given its seed, returns plain dict rows
(ready for :func:`repro.analysis.tables.format_table`), and includes the
relevant *paper bound* next to each *measured* value so EXPERIMENTS.md can
quote both.  Benchmarks wrap these runners; the test-suite asserts their
invariants on smaller parameters.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.analysis.bounds import (
    jv_bound,
    mst_euclidean_bound,
    nwst_bb_bound,
    wireless_bb_bound,
)
from repro.api import MulticastSession, make_mechanism
from repro.analysis.instances import (
    fig1_collusion_instance,
    pentagon_instance,
    random_euclidean_suite,
    random_symmetric_suite,
    random_utilities,
)
from repro.core import (
    EuclideanJVMechanism,
    EuclideanMCMechanism,
    EuclideanShapleyMechanism,
    JVSteinerShares,
    NWSTMechanism,
    UniversalTreeMCMechanism,
    UniversalTreeShapleyMechanism,
    WirelessMulticastMechanism,
    euclidean_optimal_cost_function,
)
from repro.graphs.nwst import exact_node_weighted_steiner
from repro.graphs.random_graphs import as_rng, random_node_weighted_instance
from repro.mechanism.core import core_is_empty, least_core_value
from repro.mechanism.cost_function import CostFunction
from repro.mechanism.moulin_shenker import check_cross_monotonicity
from repro.mechanism.properties import (
    bb_factor,
    find_group_deviation,
    find_unilateral_deviation,
)
from repro.mechanism.vcg import brute_force_efficient_set
from repro.wireless.broadcast import mst_broadcast
from repro.wireless.cost_graph import CostGraph
from repro.wireless.memt import optimal_broadcast, optimal_multicast_cost, steiner_multicast
from repro.wireless.universal_tree import UniversalTree


# ---------------------------------------------------------------------------
# EXP-F1 — Fig. 1: the NWST mechanism is not group strategyproof
# ---------------------------------------------------------------------------

def exp_f1_collusion(epsilon: float = 0.3) -> dict:
    """Reproduce the paper's Fig. 1 walk-through numbers exactly."""
    inst = fig1_collusion_instance()
    mech = NWSTMechanism(inst.graph, inst.weights, inst.terminals)

    truthful = mech.run(inst.utilities)
    w_true = truthful.welfare(inst.utilities)

    collusive_profile = dict(inst.utilities)
    collusive_profile[inst.colluder] = inst.utilities[inst.colluder] - epsilon
    collusive = mech.run(collusive_profile)
    w_coll = collusive.welfare(inst.utilities)

    gsp_violated = all(
        w_coll[i] >= w_true[i] - 1e-9 for i in inst.terminals
    ) and any(w_coll[i] > w_true[i] + 1e-9 for i in inst.terminals)

    rows = [
        {
            "scenario": "truthful",
            **{f"w{i}": w_true[i] for i in inst.terminals},
            "receivers": len(truthful.receivers),
            "charged": truthful.total_charged(),
        },
        {
            "scenario": f"v7 = 3/2 - {epsilon}",
            **{f"w{i}": w_coll[i] for i in inst.terminals},
            "receivers": len(collusive.receivers),
            "charged": collusive.total_charged(),
        },
    ]
    return {
        "rows": rows,
        "expected_truthful": inst.expected_truthful_welfare,
        "expected_collusive": inst.expected_collusive_welfare,
        "measured_truthful": w_true,
        "measured_collusive": w_coll,
        "gsp_violated": gsp_violated,
    }


# ---------------------------------------------------------------------------
# EXP-F2 — Fig. 2: the pentagon instance has an empty core (Lemma 3.3)
# ---------------------------------------------------------------------------

def exp_f2_empty_core(m_values: Sequence[float] = (6.0, 8.0, 10.0),
                      alpha: float = 2.0) -> dict:
    """Empty core for alpha > 1, d = 2; non-empty under alpha = 1."""
    rows = []
    for m in m_values:
        inst = pentagon_instance(m=m, alpha=alpha)
        agents = list(inst.external)
        grand = inst.cost_fn(frozenset(agents))
        pair = inst.cost_fn(frozenset(agents[:2]))
        single = inst.cost_fn(frozenset(agents[:1]))
        empty = core_is_empty(agents, inst.cost_fn)
        eps, _ = least_core_value(agents, inst.cost_fn)

        # alpha = 1 control: C* = max distance, submodular => core non-empty.
        def alpha1_cost(R: frozenset, _inst=inst) -> float:
            return max(
                (_inst.points.distance(_inst.source, i) for i in R), default=0.0
            )

        empty_alpha1 = core_is_empty(agents, alpha1_cost)
        rows.append({
            "m": m,
            "n_stations": inst.points.n,
            "C(all5)": grand,
            "C(single)": single,
            "C(adjacent pair)": pair,
            "pair < 2C/5": pair < 2 * grand / 5,
            "single > C/5": single > grand / 5,
            "core_empty": empty,
            "least_core_eps": eps,
            "core_empty_alpha1": empty_alpha1,
        })
    return {"rows": rows}


# ---------------------------------------------------------------------------
# EXP-T1 — universal-tree mechanisms (Lemma 2.1, section 2.1)
# ---------------------------------------------------------------------------

def exp_t1_universal_tree(n_instances: int = 5, n: int = 7, seed: int = 0,
                          tree_kind: str = "spt", layout: str = "uniform",
                          alpha: float = 2.0) -> dict:
    """Universal-tree mechanism invariants over a runner scenario grid.

    The instance suite is the sweep runner's own expansion (one
    :class:`~repro.runner.SweepSpec` scenario axis over ``layout``), so
    the lemma is checked on exactly the replayable scenarios the fleet
    executor serves — pass ``layout="cluster"``/``"grid"``/... to audit
    the other families.
    """
    from repro.runner import SweepSpec

    rng = as_rng(seed)
    grid = SweepSpec(ns=(n,), alphas=(alpha,), layouts=(layout,),
                     seeds=tuple(seed + i for i in range(n_instances)),
                     tree=tree_kind, side=5.0)

    def run_one(scenario) -> dict:
        session = MulticastSession(scenario)
        network, source = session.network, session.source
        tree = session.universal_tree(tree_kind)
        agents = tree.agents()
        cf = CostFunction(agents, lambda R, t=tree: t.cost(R))
        submodular_violations = len(cf.submodularity_violations())
        monotone_violations = len(cf.monotonicity_violations())

        profile = random_utilities(network, source, rng)
        res_s = session.run("tree-shapley", profile, tree=tree_kind)
        shapley_bb = bb_factor(res_s, res_s.cost)

        res_m = session.run("tree-mc", profile, tree=tree_kind)
        nw_opt, _ = brute_force_efficient_set(agents, cf)(dict(profile))
        mc_gap = nw_opt - res_m.extra["net_worth"]
        mc_revenue_ratio = (
            res_m.total_charged() / res_m.cost if res_m.cost > 0 else 1.0
        )

        return {
            "submodularity_violations": submodular_violations,
            "monotonicity_violations": monotone_violations,
            "shapley_bb_factor": shapley_bb,
            "shapley_receivers": len(res_s.receivers),
            "mc_efficiency_gap": mc_gap,
            "mc_revenue_ratio": mc_revenue_ratio,
            "mc_receivers": len(res_m.receivers),
        }

    rows = [{"instance": idx, **run_one(scenario)}
            for idx, scenario in enumerate(grid.scenarios())]
    return {"rows": rows}


def _build_tree(network: CostGraph, source: int, kind: str) -> UniversalTree:
    return UniversalTree.build(network, source, kind)


# ---------------------------------------------------------------------------
# EXP-T2 — the NWST mechanism (Theorems 2.2 and 2.3)
# ---------------------------------------------------------------------------

def exp_t2_nwst(n_instances: int = 5, n: int = 14, k: int = 5, seed: int = 0,
                mode: str = "branch", check_sp: bool = True) -> dict:
    rng = as_rng(seed)
    rows = []
    for idx in range(n_instances):
        graph, weights, terminals = random_node_weighted_instance(
            n, k, rng, extra_edge_prob=0.2, weight_low=1.0, weight_high=5.0
        )
        profile = {t: float(rng.uniform(0.0, 10.0)) for t in terminals}
        mech = NWSTMechanism(graph, weights, terminals, mode=mode)
        result = mech.run(profile)
        charged = result.total_charged()
        if result.receivers:
            opt = exact_node_weighted_steiner(graph, weights, sorted(result.receivers))
        else:
            opt = 0.0
        ratio = charged / opt if opt > 1e-12 else (1.0 if charged < 1e-9 else float("inf"))
        deviation = (
            find_unilateral_deviation(mech, profile) if check_sp else None
        )
        rows.append({
            "instance": idx,
            "receivers": len(result.receivers),
            "charged": charged,
            "tree_cost": result.cost,
            "optimal": opt,
            "bb_ratio": ratio,
            "paper_bound": nwst_bb_bound(max(len(result.receivers), 1)),
            "restarts": result.extra["n_restarts"],
            "profitable_deviation": deviation is not None,
        })
    return {"rows": rows}


# ---------------------------------------------------------------------------
# EXP-T3 — the wireless multicast mechanism (section 2.2.3)
# ---------------------------------------------------------------------------

def exp_t3_wireless(n_instances: int = 4, n: int = 7, seed: int = 0,
                    euclidean: bool = True, check_sp: bool = False) -> dict:
    rng = as_rng(seed)
    if euclidean:
        networks: list[CostGraph] = random_euclidean_suite(n_instances, n, 2, 2.0, rng)
    else:
        networks = random_symmetric_suite(n_instances, n, rng)
    rows = []
    for idx, network in enumerate(networks):
        source = 0
        profile = random_utilities(network, source, rng, scale=2.0)
        mech = make_mechanism("wireless", MulticastSession(network, source=source))
        result = mech.run(profile)
        charged = result.total_charged()
        if result.receivers:
            cstar = optimal_multicast_cost(network, source, result.receivers)
            assert result.power is not None
            feasible = result.power.reaches(network, source, result.receivers)
        else:
            cstar, feasible = 0.0, True
        ratio = charged / cstar if cstar > 1e-12 else (1.0 if charged < 1e-9 else float("inf"))
        deviation = find_unilateral_deviation(mech, profile) if check_sp else None
        rows.append({
            "instance": idx,
            "receivers": len(result.receivers),
            "charged": charged,
            "built_cost": result.cost,
            "C*": cstar,
            "bb_ratio": ratio,
            "paper_bound": wireless_bb_bound(max(len(result.receivers), 1)),
            "feasible": feasible,
            "outer_rounds": result.extra["n_outer_rounds"],
            "profitable_deviation": deviation is not None,
        })
    return {"rows": rows}


# ---------------------------------------------------------------------------
# EXP-T4 — optimal Euclidean mechanisms (Lemma 3.1, Theorem 3.2)
# ---------------------------------------------------------------------------

def exp_t4_euclidean_optimal(n_instances: int = 4, n: int = 7, seed: int = 0) -> dict:
    rng = as_rng(seed)
    rows = []
    cases = [("alpha=1, d=2", 2, 1.0), ("d=1, alpha=2", 1, 2.0)]
    for label, dim, alpha in cases:
        for idx, network in enumerate(
            random_euclidean_suite(n_instances, n, dim, alpha, rng)
        ):
            source = 0
            agents = [i for i in range(n) if i != source]
            cf_opt = euclidean_optimal_cost_function(network, source)

            # Solver exactness against the generic bitmask oracle.
            max_err = 0.0
            for _ in range(6):
                size = int(rng.integers(1, len(agents) + 1))
                R = frozenset(
                    int(x) for x in rng.choice(agents, size=size, replace=False)
                )
                max_err = max(max_err, abs(cf_opt(R) - optimal_multicast_cost(network, source, R)))

            cf = CostFunction(agents, cf_opt)
            submod = len(cf.submodularity_violations())

            profile = random_utilities(network, source, rng)
            shap = EuclideanShapleyMechanism(network, source).run(profile)
            shap_bb = bb_factor(shap, cf_opt(shap.receivers))

            mc_mech = EuclideanMCMechanism(network, source)
            mc = mc_mech.run(profile)
            nw_opt, _ = brute_force_efficient_set(agents, cf_opt)(dict(profile))
            rows.append({
                "case": label,
                "instance": idx,
                "solver_vs_exact_err": max_err,
                "submodularity_violations": submod,
                "shapley_bb_factor": shap_bb,
                "mc_efficiency_gap": nw_opt - mc.extra["net_worth"],
            })
    return {"rows": rows}


# ---------------------------------------------------------------------------
# EXP-T5 — core emptiness frequency (Lemma 3.3 beyond Fig. 2)
# ---------------------------------------------------------------------------

def exp_t5_core_emptiness(n_instances: int = 20, n: int = 6, seed: int = 0) -> dict:
    rng = as_rng(seed)
    rows = []
    for alpha, label in ((2.0, "alpha=2, d=2"), (1.0, "alpha=1, d=2")):
        empty_count = 0
        for network in random_euclidean_suite(n_instances, n, 2, alpha, rng):
            source = 0
            agents = [i for i in range(n) if i != source]

            def cstar(R: frozenset, net=network) -> float:
                return optimal_multicast_cost(net, source, R)

            if core_is_empty(agents, cstar):
                empty_count += 1
        rows.append({
            "case": label,
            "instances": n_instances,
            "empty_cores": empty_count,
            "fraction_empty": empty_count / n_instances,
        })
    return {"rows": rows}


# ---------------------------------------------------------------------------
# EXP-T6 — Steiner/MST approximation bounds (Lemmas 3.4, 3.5)
# ---------------------------------------------------------------------------

def exp_t6_steiner_bounds(n_instances: int = 8, n: int = 8, seed: int = 0,
                          alphas: Sequence[float] = (2.0, 4.0),
                          dims: Sequence[int] = (1, 2, 3)) -> dict:
    rng = as_rng(seed)
    rows = []
    for dim in dims:
        for alpha in alphas:
            if alpha < dim:
                continue  # the theorems require alpha >= d
            worst_multicast = 0.0
            worst_broadcast = 0.0
            for network in random_euclidean_suite(n_instances, n, dim, alpha, rng):
                source = 0
                k = max(2, n // 2)
                receivers = sorted(
                    int(x) for x in rng.choice(range(1, n), size=k, replace=False)
                )
                cstar = optimal_multicast_cost(network, source, receivers)
                if cstar > 1e-9:
                    heur = steiner_multicast(network, source, receivers).cost()
                    worst_multicast = max(worst_multicast, heur / cstar)
                opt_b, _ = optimal_broadcast(network, source)
                if opt_b > 1e-9:
                    mst_b = mst_broadcast(network, source).cost()
                    worst_broadcast = max(worst_broadcast, mst_b / opt_b)
            rows.append({
                "d": dim,
                "alpha": alpha,
                "worst_steiner_multicast_ratio": worst_multicast,
                "worst_mst_broadcast_ratio": worst_broadcast,
                "paper_bound_3d": mst_euclidean_bound(dim),
            })
    return {"rows": rows}


# ---------------------------------------------------------------------------
# EXP-T7 — the Jain-Vazirani mechanism (Theorems 3.6, 3.7)
# ---------------------------------------------------------------------------

def exp_t7_jv(n_instances: int = 5, n: int = 7, seed: int = 0, dim: int = 2,
              alpha: float = 2.0, check_gsp: bool = False) -> dict:
    rng = as_rng(seed)
    rows = []
    for idx, network in enumerate(random_euclidean_suite(n_instances, n, dim, alpha, rng)):
        source = 0
        session = MulticastSession(network, source=source)
        mech = session.mechanism("jv")
        xmono = len(check_cross_monotonicity(mech.agents, mech.jv.shares))
        profile = random_utilities(network, source, rng, scale=2.0)
        result = session.run("jv", profile)
        charged = result.total_charged()
        if result.receivers:
            cstar = optimal_multicast_cost(network, source, result.receivers)
        else:
            cstar = 0.0
        ratio = charged / cstar if cstar > 1e-12 else (1.0 if charged < 1e-9 else float("inf"))
        deviation = (
            find_group_deviation(mech, profile, max_coalition_size=2,
                                 n_samples_per_coalition=25, rng=rng)
            if check_gsp
            else None
        )
        rows.append({
            "instance": idx,
            "receivers": len(result.receivers),
            "charged": charged,
            "built_cost": result.cost,
            "C*": cstar,
            "bb_ratio": ratio,
            "paper_bound": jv_bound(dim),
            "cross_monotonicity_violations": xmono,
            "group_deviation_found": deviation is not None,
        })
    return {"rows": rows}


# ---------------------------------------------------------------------------
# EXP-E1 — Lemma 3.3's consequence at small scale: C* non-submodular, the
# Shapley value of C* not cross-monotonic (alpha > 1, d > 1)
# ---------------------------------------------------------------------------

def exp_e1_nonsubmodularity(n_instances: int = 12, n: int = 6, seed: int = 0) -> dict:
    """How often exact ``C*`` fails submodularity, and whether its Shapley
    value fails cross-monotonicity, on random alpha = 2, d = 2 instances.

    Lemma 3.3 proves such instances *exist* (the pentagon); this shows they
    are not exotic: already small uniform instances routinely violate
    submodularity, killing the Shapley route to budget balance and
    motivating the paper's approximate mechanisms.
    """
    from repro.core.exact_mechanisms import ExactShapleyMechanism

    rng = as_rng(seed)
    rows = []
    for alpha, label in ((2.0, "alpha=2, d=2"), (1.0, "alpha=1, d=2")):
        non_submodular = 0
        shapley_not_xmono = 0
        for network in random_euclidean_suite(n_instances, n, 2, alpha, rng):
            source = 0
            agents = [i for i in range(n) if i != source]

            def cstar(R: frozenset, net=network) -> float:
                return optimal_multicast_cost(net, source, R)

            cf = CostFunction(agents, cstar)
            if not cf.is_submodular():
                non_submodular += 1
            mech = ExactShapleyMechanism(network, source)
            if check_cross_monotonicity(agents, mech.shares):
                shapley_not_xmono += 1
        rows.append({
            "case": label,
            "instances": n_instances,
            "C*_non_submodular": non_submodular,
            "shapley_not_cross_monotonic": shapley_not_xmono,
        })
    return {"rows": rows}


# ---------------------------------------------------------------------------
# EXP-E3 — the properties matrix: every mechanism vs every axiom, measured
# ---------------------------------------------------------------------------

def exp_e3_properties_matrix(seed: int = 0, n: int = 5) -> dict:
    """One row per mechanism: the paper's contribution table, measured.

    Axioms are audited empirically on a fixed small instance with exact
    oracles: NPT/VP/CS, budget-balance factor against C*, efficiency gap,
    and the deviation sweeps (SP: unilateral; GSP: coalitions of size <= 2,
    truth-inclusive grids).  The NWST row uses the paper's own Fig. 1
    instance, where the group deviation *must* be found.
    """
    from repro.analysis.instances import fig1_collusion_instance
    from repro.core.exact_mechanisms import ExactMCMechanism, ExactShapleyMechanism
    from repro.graphs.nwst import exact_node_weighted_steiner
    from repro.mechanism.properties import audit_basic_axioms

    rng = as_rng(seed)
    network = random_euclidean_suite(1, n, 2, 2.0, rng)[0]
    source = 0
    profile = random_utilities(network, source, rng, scale=2.5)
    tree = UniversalTree.from_shortest_paths(network, source)

    def cstar(R: frozenset) -> float:
        return optimal_multicast_cost(network, source, R)

    rows = []

    def audit(name, mech, prof, *, optimum, efficiency_oracle=None,
              expect_group_deviation=None):
        result = mech.run(prof)
        base = audit_basic_axioms(mech, prof, check_consumer_sovereignty=True)
        opt_cost = optimum(frozenset(result.receivers)) if result.receivers else 0.0
        uni = find_unilateral_deviation(mech, prof)
        grp = find_group_deviation(mech, prof, max_coalition_size=2,
                                   n_samples_per_coalition=60, rng=rng)
        row = {
            "mechanism": name,
            "npt": base["npt"],
            "vp": base["vp"],
            "cs": base["cs"],
            "cost_recovery": base["cost_recovery"],
            "bb_factor_vs_C*": bb_factor(result, opt_cost),
            "sp_deviation": uni is not None,
            "gsp_deviation": grp is not None,
        }
        if efficiency_oracle is not None:
            nw_opt, _ = efficiency_oracle(dict(prof))
            row["efficiency_gap"] = nw_opt - result.net_worth(prof)
        rows.append(row)
        if expect_group_deviation is not None:
            row["gsp_expected"] = expect_group_deviation

    agents = [i for i in range(n) if i != source]
    audit("universal-tree Shapley (§2.1)",
          UniversalTreeShapleyMechanism(tree), profile,
          optimum=lambda R: tree.cost(R))
    audit("universal-tree MC (§2.1)",
          UniversalTreeMCMechanism(tree), profile,
          optimum=lambda R: tree.cost(R),
          efficiency_oracle=brute_force_efficient_set(agents, lambda R: tree.cost(R)))
    audit("JV Euclidean (Thm 3.7)",
          EuclideanJVMechanism(network, source), profile, optimum=cstar)
    audit("exact Shapley over C*",
          ExactShapleyMechanism(network, source), profile, optimum=cstar)
    audit("exact MC over C*",
          ExactMCMechanism(network, source), profile, optimum=cstar,
          efficiency_oracle=brute_force_efficient_set(agents, cstar))
    audit("wireless 3ln(k+1)-BB (§2.2.3)",
          WirelessMulticastMechanism(network, source), profile, optimum=cstar)

    # The NWST row runs on the paper's own Fig. 1 counterexample.
    fig1 = fig1_collusion_instance()
    nwst = NWSTMechanism(fig1.graph, fig1.weights, fig1.terminals)

    def nwst_opt(R: frozenset) -> float:
        if not R:
            return 0.0
        return exact_node_weighted_steiner(fig1.graph, fig1.weights, sorted(R))

    audit("NWST 1.5 ln k-BB (Thm 2.2, Fig. 1 instance)",
          nwst, fig1.utilities, optimum=nwst_opt, expect_group_deviation=True)

    return {"rows": rows}


# ---------------------------------------------------------------------------
# EXP-E4 — Moulin-Shenker [38]: Shapley's worst-case efficiency loss is
# lowest among budget-balanced cross-monotonic methods
# ---------------------------------------------------------------------------

def exp_e4_efficiency_loss(n_instances: int = 4, n: int = 7,
                           n_profiles: int = 40, seed: int = 0) -> dict:
    """Compare the efficiency loss of M(Shapley) against M(marginal-vector)
    mechanisms (fixed-permutation marginal methods — also cross-monotonic
    and budget balanced on the submodular universal-tree game).

    The paper adopts the Shapley value "especially because it achieves the
    lowest worst case efficiency loss over all the utility profiles" [38];
    this experiment measures the worst-case and mean welfare loss of each
    method over random profiles.
    """
    from repro.engine.batch import MethodCache
    from repro.mechanism.moulin_shenker import moulin_shenker
    from repro.mechanism.shapley import marginal_vector_method, shapley_method

    rng = as_rng(seed)
    method_losses: dict[str, list[float]] = {}
    for network in random_euclidean_suite(n_instances, n, 2, 2.0, rng):
        source = 0
        tree = _build_tree(network, source, "spt")
        agents = tree.agents()

        def cost_fn(R, t=tree):
            return t.cost(R)

        solver = brute_force_efficient_set(agents, cost_fn)
        # Memoised per network: the exponential Shapley evaluation of a
        # receiver set is shared by every profile that visits it.
        methods = {
            "shapley": MethodCache(shapley_method(cost_fn)),
            "marginal (ascending ids)": MethodCache(
                marginal_vector_method(sorted(agents), cost_fn)),
            "marginal (descending ids)": MethodCache(
                marginal_vector_method(sorted(agents, reverse=True), cost_fn)),
        }
        for _ in range(n_profiles // n_instances):
            profile = random_utilities(network, source, rng)
            nw_opt, _ = solver(dict(profile))
            for name, method in methods.items():
                result = moulin_shenker(agents, method, profile,
                                        build=lambda R, t=tree: (t.cost(R), None))
                loss = nw_opt - result.net_worth(profile)
                method_losses.setdefault(name, []).append(loss)
    rows = [{
        "method": name,
        "worst_loss": float(np.max(losses)),
        "mean_loss": float(np.mean(losses)),
        "profiles": len(losses),
    } for name, losses in method_losses.items()]
    return {"rows": rows}


# ---------------------------------------------------------------------------
# EXP-E2 — the distributed tree protocol (Penna-Ventre [43], §2.1 remark)
# ---------------------------------------------------------------------------

def exp_e2_distributed(sizes: Sequence[int] = (8, 16, 32), seed: int = 0,
                       tree_kind: str = "spt") -> dict:
    """Distributed vs centralized efficient-set computation on trees:
    correctness (identical results) and the protocol's message/round
    complexity (2(n-1) messages; rounds proportional to tree depth)."""
    from repro.core.distributed_tree import DistributedTreeNetWorth
    from repro.core.universal_tree_mechanisms import tree_efficient_set

    rng = as_rng(seed)
    rows = []
    for n in sizes:
        network = random_symmetric_suite(1, n, rng)[0]
        tree = _build_tree(network, 0, tree_kind)
        profile = random_utilities(network, 0, rng)
        nw_c, set_c = tree_efficient_set(tree, profile)
        nw_d, set_d, stats = DistributedTreeNetWorth(tree).run(profile)
        depth = max(len(tree.path_to_root(i)) for i in range(n)) - 1
        rows.append({
            "n": n,
            "identical_result": abs(nw_c - nw_d) < 1e-9 and set_c == set_d,
            "messages": stats.messages,
            "message_bound_2(n-1)": 2 * (n - 1),
            "rounds": stats.rounds,
            "tree_depth": depth,
        })
    return {"rows": rows}


# ---------------------------------------------------------------------------
# EXP-S1 — the fleet sweep: every layout family x mechanism, via the
# process-parallel runner (repro.runner)
# ---------------------------------------------------------------------------

def exp_s1_sweep_fleet(n: int = 7, seeds: Sequence[int] = (0, 1),
                       n_profiles: int = 3, workers: int = 2,
                       alpha: float = 2.0) -> dict:
    """The paper's mechanism families over every scenario layout family,
    executed as one :func:`repro.runner.run_sweep` grid.

    This is the fleet-scale face of the scalability experiment: the grid
    expands deterministically into work items, scenario groups fan out
    over ``workers`` processes (each reusing one session per scenario),
    and the aggregation helper rolls the rows back up into the summary
    table.  Outputs are bit-identical to the serial path — asserted here
    by re-pricing one item from scratch and comparing payloads.
    """
    from repro.geometry.layouts import LAYOUT_FAMILIES
    from repro.runner import ProfileSpec, SweepSpec, run_item, run_sweep, summarize_rows

    spec = SweepSpec(ns=(n,), alphas=(alpha,), seeds=tuple(seeds),
                     layouts=LAYOUT_FAMILIES,
                     mechanisms=("tree-shapley", "tree-mc", "jv", "wireless"),
                     profiles=ProfileSpec(count=n_profiles), side=5.0)
    rows = run_sweep(spec, workers=workers)
    probe = spec.expand()[0]
    if run_item(probe) != rows[0]:
        raise AssertionError(f"sweep row for {probe.item_id} is not replayable")
    return {
        "rows": summarize_rows(rows, by=("layout", "mechanism")),
        "work_items": len(rows),
        "scenarios": len(spec.scenarios()),
        "workers": workers,
        "replayed_item_identical": True,
    }


# ---------------------------------------------------------------------------
# EXP-S2 — the batched mechanism pipeline (repro.engine.batch)
# ---------------------------------------------------------------------------

def exp_s2_batch_pipeline(n: int = 24, n_profiles: int = 60, seed: int = 0) -> dict:
    """Throughput of serving many utility profiles over one network.

    The naive service loop rebuilds the instance artifacts (universal tree /
    metric closure) per profile and re-evaluates every cost-share set; a
    :class:`repro.api.MulticastSession` builds them once and memoises
    ``xi(R)`` across the whole ``run_batch`` stream.  Outcomes are asserted
    identical (the runner raises on divergence — the session caches only
    avoid recomputing pure functions), so the rows report pure speedup.
    """
    rng = as_rng(seed)
    network = random_euclidean_suite(1, n, 2, 2.0, rng)[0]
    source = 0
    profiles = [random_utilities(network, source, rng, scale=2.0)
                for _ in range(n_profiles)]
    session = MulticastSession(network, source=source)

    def same(a, b):
        return (a.receivers == b.receivers and a.shares == b.shares
                and a.cost == b.cost)

    def time_pipeline(label, naive_fn, mechanism_name):
        t0 = time.perf_counter()
        naive = [naive_fn(p) for p in profiles]
        naive_s = time.perf_counter() - t0
        cache = session.method_cache(mechanism_name)
        t0 = time.perf_counter()
        batched = session.run_batch(mechanism_name, profiles)
        batched_s = time.perf_counter() - t0
        identical = all(map(same, naive, batched))
        if not identical:
            raise AssertionError(f"batched {label} diverged from the naive loop")
        return {
            "pipeline": label,
            "profiles": n_profiles,
            "naive_seconds": naive_s,
            "batched_seconds": batched_s,
            "speedup": naive_s / batched_s if batched_s > 0 else float("inf"),
            "cache_hit_rate": cache.hit_rate,
            "identical_results": identical,
        }

    rows = [
        time_pipeline(
            "universal-tree Shapley (§2.1)",
            lambda p: UniversalTreeShapleyMechanism(
                UniversalTree.from_shortest_paths(network, source)
            ).run(p),
            "tree-shapley",
        ),
        time_pipeline(
            "Jain-Vazirani Euclidean (§3.2)",
            lambda p: EuclideanJVMechanism(network, source).run(p),
            "jv",
        ),
    ]
    return {"rows": rows}


# ---------------------------------------------------------------------------
# EXP-D1 — dynamic sessions: cost-share trajectories under churn
# ---------------------------------------------------------------------------

def exp_d1_churn_trajectories(n: int = 10, epochs: int = 6, seed: int = 0,
                              churn_seed: int = 1, n_profiles: int = 3,
                              mechanism: str = "tree-shapley",
                              alpha: float = 2.0) -> dict:
    """Cost-share trajectories of one churning multicast session.

    A :class:`~repro.dynamic.DynamicScenarioSpec` replays ``epochs``
    rounds of seeded join/leave/move churn; the incremental
    :class:`~repro.dynamic.DynamicSession` carries every artifact whose
    inputs did not change across each epoch boundary.  The runner asserts
    the incremental rows are bit-identical to cold per-epoch
    recomputation (a fresh session per epoch) and audits the paper's
    axioms (NPT, VP, cost recovery) at every epoch — then reports the
    per-epoch trajectory: who was active, who got served, what was
    charged, and what the carried caches saved.
    """
    from repro.dynamic import ChurnSpec, DynamicScenarioSpec, DynamicSession, replay_dynamic, trajectory_row
    from repro.runner import ProfileSpec

    spec = DynamicScenarioSpec(
        kind="random", n=n, alpha=alpha, seed=seed, side=5.0, layout="cluster",
        churn=ChurnSpec(epochs=epochs, seed=churn_seed, join_rate=0.3,
                        leave_rate=0.25, move_rate=0.05, move_scale=0.4),
    )
    profile_spec = ProfileSpec(count=n_profiles)
    dyn = DynamicSession(spec)
    t0 = time.perf_counter()
    rows_inc = replay_dynamic(dyn, mechanism, profile_spec, audit=True)
    incremental_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    rows_cold = replay_dynamic(spec, mechanism, profile_spec,
                               incremental=False, audit=True)
    cold_s = time.perf_counter() - t0
    if rows_inc != rows_cold:
        raise AssertionError("incremental epoch replay diverged from cold recomputation")
    violations = sum(len(row["audit"]["violations"]) for row in rows_inc)

    rows = [{**trajectory_row(row), "bb_factor_max": row["audit"]["bb_factor_max"]}
            for row in rows_inc]
    counters = dyn.counters
    return {
        "rows": rows,
        "incremental_equals_cold": True,
        "axiom_violations": violations,
        "sessions_built": counters["sessions_built"],
        "sessions_carried": counters["sessions_carried"],
        "xi_entries_carried": counters["xi_entries_carried"],
        "incremental_seconds": incremental_s,
        "cold_seconds": cold_s,
    }


# ---------------------------------------------------------------------------
# EXP-A4 — baseline comparison: multicast heuristics vs the exact optimum
# ---------------------------------------------------------------------------

def exp_a4_multicast_heuristics(n_instances: int = 6, n: int = 8, seed: int = 0,
                                dim: int = 2, alpha: float = 2.0) -> dict:
    """The Wieselthier-style baseline table the paper's introduction leans
    on: SPT vs MST vs Steiner(KMB) vs BIP multicast, measured against C*."""
    from repro.wireless.memt import bip_multicast, mst_multicast, spt_multicast

    rng = as_rng(seed)
    heuristics = {
        "spt": spt_multicast,
        "mst": mst_multicast,
        "steiner_kmb": steiner_multicast,
        "bip": bip_multicast,
    }
    ratios: dict[str, list[float]] = {name: [] for name in heuristics}
    for network in random_euclidean_suite(n_instances, n, dim, alpha, rng):
        source = 0
        k = max(2, n // 2)
        receivers = sorted(int(x) for x in rng.choice(range(1, n), size=k, replace=False))
        cstar = optimal_multicast_cost(network, source, receivers)
        if cstar <= 1e-9:
            continue
        for name, fn in heuristics.items():
            ratios[name].append(fn(network, source, receivers).cost() / cstar)
    n_cases = min((len(v) for v in ratios.values()), default=0)
    rows = []
    for name, vals in ratios.items():
        if not vals:
            continue
        wins = sum(
            1 for i in range(n_cases)
            if vals[i] <= min(ratios[o][i] for o in ratios) + 1e-12
        )
        rows.append({
            "heuristic": name,
            "mean_ratio": float(np.mean(vals)),
            "max_ratio": float(np.max(vals)),
            "best_on": wins,
        })
    return {"rows": rows}


# ---------------------------------------------------------------------------
# EXP-A1 — ablation: universal-tree choice (the "arbitrarily worse" remark)
# ---------------------------------------------------------------------------

def exp_a1_tree_ablation(n_instances: int = 5, n: int = 7, seed: int = 0) -> dict:
    rng = as_rng(seed)
    rows = []
    networks = random_euclidean_suite(n_instances, n, 2, 2.0, rng)
    for kind in ("spt", "mst", "star"):
        ratios = []
        for network in networks:
            source = 0
            tree = _build_tree(network, source, kind)
            receivers = list(range(1, n))
            cstar = optimal_multicast_cost(network, source, receivers)
            if cstar > 1e-9:
                ratios.append(tree.cost(receivers) / cstar)
        rows.append({
            "tree": kind,
            "mean_cost_ratio": float(np.mean(ratios)),
            "max_cost_ratio": float(np.max(ratios)),
        })
    return {"rows": rows}


# ---------------------------------------------------------------------------
# EXP-A2 — ablation: Klein-Ravi vs Guha-Khuller spiders
# ---------------------------------------------------------------------------

def exp_a2_spider_ablation(n_instances: int = 5, n: int = 14, k: int = 5,
                           seed: int = 0) -> dict:
    rng = as_rng(seed)
    instances = [
        random_node_weighted_instance(n, k, rng, extra_edge_prob=0.2,
                                      weight_low=1.0, weight_high=5.0)
        for _ in range(n_instances)
    ]
    profiles = [
        {t: float(rng.uniform(0.0, 10.0)) for t in terms}
        for _, _, terms in instances
    ]
    rows = []
    for mode in ("branch", "classic"):
        charged_ratios = []
        elapsed = 0.0
        for (graph, weights, terms), profile in zip(instances, profiles):
            mech = NWSTMechanism(graph, weights, terms, mode=mode)
            t0 = time.perf_counter()
            result = mech.run(profile)
            elapsed += time.perf_counter() - t0
            if result.receivers:
                opt = exact_node_weighted_steiner(graph, weights, sorted(result.receivers))
                if opt > 1e-12:
                    charged_ratios.append(result.total_charged() / opt)
        rows.append({
            "mode": mode,
            "mean_bb_ratio": float(np.mean(charged_ratios)) if charged_ratios else 1.0,
            "max_bb_ratio": float(np.max(charged_ratios)) if charged_ratios else 1.0,
            "total_seconds": elapsed,
        })
    return {"rows": rows}


# ---------------------------------------------------------------------------
# EXP-A3 — ablation: the JV family's per-user mappings f_i
# ---------------------------------------------------------------------------

def exp_a3_jv_weights(n: int = 7, seed: int = 0) -> dict:
    rng = as_rng(seed)
    network = random_euclidean_suite(1, n, 2, 2.0, rng)[0]
    source = 0
    agents = [i for i in range(n) if i != source]
    R = frozenset(agents)

    equal = JVSteinerShares(network, source)
    weighted = JVSteinerShares(
        network, source, {i: float(rng.uniform(0.5, 3.0)) for i in agents}
    )
    s_eq, s_w = equal.shares(R), weighted.shares(R)
    rows = [{
        "family_member": name,
        "total": sum(s.values()),
        "closure_mst": equal.closure_mst_weight(R),
        "max_share": max(s.values()),
        "min_share": min(s.values()),
        "cross_monotonicity_violations": len(
            check_cross_monotonicity(agents, shares_fn.shares)
        ),
    } for name, s, shares_fn in (("equal", s_eq, equal), ("weighted", s_w, weighted))]
    l1 = sum(abs(s_eq[i] - s_w[i]) for i in agents)
    return {"rows": rows, "share_l1_distance": l1}
