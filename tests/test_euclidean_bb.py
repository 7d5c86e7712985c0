"""Tests for repro.core.euclidean_bb (Theorems 3.6 / 3.7)."""

import numpy as np
import pytest

from repro.api import result_to_dict
from repro.core.euclidean_bb import EuclideanJVMechanism, jv_bb_bound
from repro.core.jv_steiner import metric_closure_matrix
from repro.engine.closure import TerminalClosure
from repro.geometry.points import uniform_points
from repro.mechanism.properties import (
    check_cs,
    check_npt,
    check_vp,
    find_group_deviation,
)
from repro.wireless.cost_graph import EuclideanCostGraph
from repro.wireless.memt import optimal_multicast_cost


def case(seed, n=6, dim=2, alpha=2.0, scale=2.5):
    net = EuclideanCostGraph(uniform_points(n, dim, rng=seed, side=4.0), alpha)
    rng = np.random.default_rng(seed + 31)
    typical = float(np.median(net.matrix[net.matrix > 0]))
    profile = {i: float(rng.uniform(0, scale * typical)) for i in range(1, n)}
    return net, profile


class TestBounds:
    def test_jv_bb_bound_values(self):
        assert jv_bb_bound(1) == 4.0
        assert jv_bb_bound(2) == 12.0
        assert jv_bb_bound(3) == 52.0


class TestMechanism:
    @pytest.mark.parametrize("seed", range(6))
    def test_axioms_and_cost_recovery(self, seed):
        net, profile = case(seed)
        mech = EuclideanJVMechanism(net, 0)
        result = mech.run(profile)
        assert check_npt(result) and check_vp(result, profile)
        assert result.total_charged() >= result.cost - 1e-9
        if result.receivers:
            assert result.power.reaches(net, 0, result.receivers)

    @pytest.mark.parametrize("seed", range(3))
    def test_every_closure_form_gives_the_same_outcome(self, seed):
        net, profile = case(seed, n=8)
        expected = result_to_dict(EuclideanJVMechanism(net, 0).run(profile))
        shuffled = np.random.default_rng(seed).permutation(net.n)
        for closure in (
            metric_closure_matrix(net),  # bare distances: paths built aside
            TerminalClosure.from_network(net, range(net.n)),
            TerminalClosure.from_network(net, shuffled),  # rows not in station order
        ):
            mech = EuclideanJVMechanism(net, 0, closure=closure)
            assert result_to_dict(mech.run(profile)) == expected

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dim,alpha", [(2, 2.0), (3, 3.0)])
    def test_bb_factor_within_theorem(self, seed, dim, alpha):
        net, profile = case(seed, dim=dim, alpha=alpha)
        result = EuclideanJVMechanism(net, 0).run(profile)
        if not result.receivers:
            return
        cstar = optimal_multicast_cost(net, 0, result.receivers)
        if cstar > 1e-9:
            assert result.total_charged() <= jv_bb_bound(dim) * cstar + 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_group_strategyproof_search(self, seed):
        net, profile = case(seed, n=5)
        mech = EuclideanJVMechanism(net, 0)
        assert find_group_deviation(mech, profile, max_coalition_size=2,
                                    n_samples_per_coalition=25, rng=seed) is None

    def test_consumer_sovereignty(self):
        net, _ = case(1, n=5)
        mech = EuclideanJVMechanism(net, 0)
        assert check_cs(mech, {i: 0.0 for i in range(1, 5)}, 3)

    def test_charged_matches_closure_mst(self):
        net, profile = case(2, scale=10.0)  # high utilities: everyone stays
        result = EuclideanJVMechanism(net, 0).run(profile)
        assert result.receivers == frozenset(range(1, net.n))
        assert result.total_charged() == pytest.approx(
            result.extra["closure_mst_weight"]
        )

    def test_empty_profile(self):
        net, _ = case(0)
        result = EuclideanJVMechanism(net, 0).run({i: 0.0 for i in range(1, 6)})
        assert result.receivers == frozenset()
        assert result.cost == 0.0

    def test_agent_weights_forwarded(self):
        net, profile = case(3, scale=10.0)
        heavy = {i: (5.0 if i == 1 else 1.0) for i in range(1, net.n)}
        r_eq = EuclideanJVMechanism(net, 0).run(profile)
        r_w = EuclideanJVMechanism(net, 0, agent_weights=heavy).run(profile)
        assert r_w.total_charged() == pytest.approx(r_eq.total_charged())
        assert r_w.share(1) >= r_eq.share(1) - 1e-12
