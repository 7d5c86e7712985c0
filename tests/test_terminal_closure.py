"""Tests for repro.engine.closure (terminal-sourced metric closures).

The load-bearing invariant: the terminal-sourced closure's rows are
*bit-identical* to the corresponding rows of the full all-pairs closure —
every Dijkstra variant in the engine computes the same float path sums,
so restricting the source set changes how much work is done, never a
single bit of the answers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import MulticastSession, ScenarioSpec
from repro.core.jv_steiner import JVSteinerShares, metric_closure_matrix
from repro.engine.closure import TerminalClosure, closure_submatrix, kruskal_order
from repro.engine.dense import CSRGraph, DenseGraph, batched_dijkstra
from repro.geometry.points import uniform_points
from repro.graphs.mst import kruskal_accept, kruskal_complete
from repro.graphs.random_graphs import random_cost_matrix
from repro.wireless.cost_graph import CostGraph, EuclideanCostGraph


def euclid(seed, n=12, alpha=2.0):
    return EuclideanCostGraph(uniform_points(n, 2, rng=seed, side=4.0), alpha)


class TestTerminalClosure:
    def test_rows_match_full_closure(self):
        net = euclid(0)
        full = net.as_dense().all_pairs_arrays()
        tc = TerminalClosure.from_network(net, [0, 3, 5, 9])
        for row, t in enumerate(tc.terminals):
            assert np.array_equal(tc.rows[row], full[t])

    def test_submatrix_bit_identical(self):
        net = euclid(1)
        full = net.as_dense().all_pairs_arrays()
        pts = [0, 2, 7, 4]
        tc = TerminalClosure.from_network(net, pts)
        assert np.array_equal(tc.submatrix(pts), full[np.ix_(pts, pts)])

    def test_distance_and_covers(self):
        net = euclid(2)
        tc = TerminalClosure.from_network(net, [0, 1, 2])
        assert tc.covers([0, 1])
        assert not tc.covers([0, 5])
        full = net.as_dense().all_pairs_arrays()
        assert tc.distance(1, 2) == full[1, 2]

    def test_non_terminal_raises(self):
        net = euclid(3)
        tc = TerminalClosure.from_network(net, [0, 1])
        with pytest.raises(ValueError, match="not a closure terminal"):
            tc.submatrix([0, 5])

    def test_closure_submatrix_dispatch(self):
        net = euclid(4)
        full = net.as_dense().all_pairs_arrays()
        pts = [0, 3, 6]
        tc = TerminalClosure.from_network(net, pts)
        a = closure_submatrix(tc, pts)
        b = closure_submatrix(full, pts)
        assert np.array_equal(a, b)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_property_dense_submatrix(self, seed, data):
        n = data.draw(st.integers(4, 14))
        k = data.draw(st.integers(1, n - 1))
        net = CostGraph(random_cost_matrix(n, rng=seed))
        terminals = [0, *data.draw(
            st.lists(st.integers(1, n - 1), min_size=k, max_size=k,
                     unique=True))]
        tc = TerminalClosure.from_network(net, terminals)
        full = net.as_dense().all_pairs_arrays()
        assert np.array_equal(tc.submatrix(terminals),
                              full[np.ix_(terminals, terminals)])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_csr_matches_dense(self, seed):
        net = CostGraph(random_cost_matrix(10, rng=seed))
        terminals = [0, 2, 5, 8]
        dense = TerminalClosure.from_graph(
            DenseGraph.from_cost_graph(net), terminals)
        csr = TerminalClosure.from_graph(
            CSRGraph.from_graph(net.as_graph()), terminals)
        assert np.array_equal(dense.rows, csr.rows)

    def test_jv_shares_bit_identical_on_terminal_closure(self):
        net = euclid(5, n=14)
        recv = [1, 3, 5, 7, 9, 11]
        tc = TerminalClosure.from_network(net, [0, *recv])
        full = metric_closure_matrix(net)
        jv_t = JVSteinerShares(net, 0, closure=tc)
        jv_f = JVSteinerShares(net, 0, closure=full)
        rng = np.random.default_rng(0)
        for _ in range(10):
            size = int(rng.integers(1, len(recv) + 1))
            R = frozenset(int(x) for x in rng.choice(recv, size=size,
                                                     replace=False))
            assert jv_t.shares(R) == jv_f.shares(R)

    def test_jv_rejects_incomplete_closure(self):
        net = euclid(6)
        tc = TerminalClosure.from_network(net, [1, 2])  # source missing
        with pytest.raises(ValueError, match="must include the source"):
            JVSteinerShares(net, 0, closure=tc)

    def test_jv_rejects_size_mismatch(self):
        net = euclid(7)
        other = euclid(7, n=9)
        tc = TerminalClosure.from_network(other, [0, 1])
        with pytest.raises(ValueError, match="closure covers"):
            JVSteinerShares(net, 0, closure=tc)


class TestParentRows:
    """The session's one closure pass keeps parent rows equal to a
    per-call terminal batch's."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_full_closure_rows_and_parents(self, seed, data):
        n = data.draw(st.integers(2, 12))
        spec = ScenarioSpec.from_random(n=n, alpha=2.0, seed=seed, side=4.0)
        session = MulticastSession(spec)
        w = session.network.as_dense().matrix
        assert np.array_equal(session.metric_closure(),
                              metric_closure_matrix(session.network))
        closure = session.closure_paths()
        assert closure.rows is session.metric_closure()
        terminals = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                       unique=True))
        dist, parents = batched_dijkstra(w, terminals, return_parents=True)
        assert np.array_equal(closure.rows[terminals], dist)
        assert np.array_equal(closure.parents[terminals], parents)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_terminal_closure_rows_and_parents(self, seed, data):
        n = data.draw(st.integers(3, 12))
        receivers = data.draw(st.lists(st.integers(1, n - 1), min_size=1,
                                       unique=True))
        spec = ScenarioSpec.from_dict({
            **ScenarioSpec.from_random(n=n, alpha=2.0, seed=seed).to_dict(),
            "receivers": sorted(receivers)})
        session = MulticastSession(spec)
        tc = session.terminal_closure()
        assert session.closure_paths() is tc
        dist, parents = batched_dijkstra(session.network.as_dense().matrix,
                                         tc.terminals, return_parents=True)
        assert np.array_equal(tc.rows, dist)
        assert np.array_equal(tc.parents, parents)
        full = MulticastSession(ScenarioSpec.from_random(
            n=n, alpha=2.0, seed=seed)).closure_paths()
        for u in tc.terminals:
            for v in tc.terminals:
                assert tc.path(u, v) == full.path(u, v)

    def test_path_walks_the_parent_row(self):
        net = euclid(8)
        tc = TerminalClosure.from_network(net, [0, 4])
        path = tc.path(0, 7)
        assert path[0] == 0 and path[-1] == 7
        total = 0.0
        for a, b in zip(path, path[1:]):
            total += net.matrix[a, b]
        assert total == tc.distance(0, 7)
        assert tc.path(4, 4) == [4]

    def test_parents_shape_checked(self):
        with pytest.raises(ValueError, match="parents shape"):
            TerminalClosure(3, [0], np.zeros((1, 3)), np.zeros((1, 2)))


# Distinct stations whose repr order differs from their numeric order.
_STATIONS = st.lists(st.sampled_from([0, 1, 2, 9, 10, 11, 19, 100, 101, 1000]),
                     min_size=0, max_size=8, unique=True)


class TestKruskalOrder:
    @settings(max_examples=100, deadline=None)
    @given(pts=_STATIONS, data=st.data())
    def test_lexsort_equals_python_sort(self, pts, data):
        k = len(pts)
        # Weights from a tiny alphabet: exact ties everywhere.
        block = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.0, np.inf]),
            min_size=k * k, max_size=k * k)), dtype=float).reshape(k, k)
        iu, iv = np.triu_indices(k, 1)
        expected = sorted(
            ((int(i), int(j), float(block[i, j])) for i, j in zip(iu, iv)),
            key=lambda e: (e[2], repr(pts[e[0]]), repr(pts[e[1]])))
        assert kruskal_order(block, pts) == expected

    def test_repr_order_traps(self):
        pts = [9, 10, 100]
        block = np.ones((3, 3))
        # All weights tie: "10" < "100" < "9" decides.
        assert kruskal_order(block, pts) == [(1, 2, 1.0), (0, 1, 1.0), (0, 2, 1.0)]

    @settings(max_examples=50, deadline=None)
    @given(pts=_STATIONS, data=st.data())
    def test_accepted_edges_equal_kruskal_complete(self, pts, data):
        k = len(pts)
        block = np.array(data.draw(st.lists(
            st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=k * k,
            max_size=k * k)), dtype=float).reshape(k, k)
        col = {p: i for i, p in enumerate(pts)}
        reference, _ = kruskal_complete(pts, lambda u, v: block[col[u], col[v]])
        accepted = kruskal_accept(k, kruskal_order(block, pts))
        assert [(pts[a], pts[b], w) for a, b, w in accepted] == \
            [(u, v, float(w)) for u, v, w in reference]
