"""Tests for repro.api.spec — ScenarioSpec / MechanismSpec wire format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.spec import MechanismSpec, ScenarioSpec, freeze_params
from repro.geometry import uniform_points
from repro.wireless import CostGraph, EuclideanCostGraph

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


class TestScenarioSpecValidation:
    def test_points_spec(self):
        spec = ScenarioSpec.from_points([(0.0, 0.0), (1.0, 2.0)], alpha=2.0)
        assert spec.kind == "points" and spec.n_stations == 2 and spec.is_euclidean
        assert spec.agents() == [1]

    def test_points_need_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            ScenarioSpec(kind="points", points=((0.0,), (1.0,)))

    def test_alpha_below_one_rejected(self):
        for alpha in (0.5, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="alpha"):
                ScenarioSpec.from_points([(0.0,), (1.0,)], alpha=alpha)
            with pytest.raises(ValueError, match="alpha"):
                ScenarioSpec.from_random(n=4, seed=0, alpha=alpha)

    def test_non_finite_layout_numbers_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="points entries must be finite"):
                ScenarioSpec.from_points([(0.0, 0.0), (1.0, bad)], alpha=2.0)
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                ScenarioSpec.from_matrix([[0.0, bad], [bad, 0.0]])
            with pytest.raises(ValueError, match="side must be finite"):
                ScenarioSpec.from_random(n=4, seed=0, side=bad)

    def test_matrix_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            ScenarioSpec.from_matrix([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            ScenarioSpec(kind="points", points=((0.0,), (1.0, 2.0)), alpha=2.0)

    def test_random_needs_seed(self):
        with pytest.raises(ValueError, match="seed"):
            ScenarioSpec(kind="random", n=5, alpha=2.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ScenarioSpec(kind="mesh")

    def test_unknown_tree(self):
        with pytest.raises(ValueError, match="tree"):
            ScenarioSpec.from_random(n=4, seed=0, tree="bfs")

    def test_source_out_of_range(self):
        with pytest.raises(ValueError, match="source"):
            ScenarioSpec.from_random(n=4, seed=0, source=4)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown ScenarioSpec fields"):
            ScenarioSpec.from_dict({"kind": "random", "n": 4, "seed": 0,
                                    "alpha": 2.0, "beta": 1.0})

    def test_foreign_layout_fields_rejected(self):
        # Exactly one layout may be populated — contradictory fields must
        # not survive to the wire (or break hashability) unvalidated.
        with pytest.raises(ValueError, match="exactly one layout"):
            ScenarioSpec(kind="points", points=((0.0,), (1.0,)), alpha=2.0,
                         matrix=((0.0, 1.0), (1.0, 0.0)))
        with pytest.raises(ValueError, match="exactly one layout"):
            ScenarioSpec(kind="matrix", matrix=((0.0, 1.0), (1.0, 0.0)), alpha=2.0)
        with pytest.raises(ValueError, match="exactly one layout"):
            ScenarioSpec(kind="random", n=3, seed=0, alpha=2.0,
                         points=((0.0,), (1.0,)))

    def test_points_dim_derived_and_checked(self):
        spec = ScenarioSpec.from_points([(0.0, 0.0), (1.0, 2.0)], alpha=2.0)
        assert spec.dim == 2
        hash(spec)  # fully frozen, no stray mutable fields
        with pytest.raises(ValueError, match="contradicts"):
            ScenarioSpec(kind="points", points=((0.0, 0.0), (1.0, 2.0)),
                         alpha=2.0, dim=3)

    def test_frozen_and_hashable(self):
        spec = ScenarioSpec.from_random(n=4, seed=0)
        with pytest.raises(AttributeError):
            spec.source = 1
        assert spec == ScenarioSpec.from_random(n=4, seed=0)
        assert hash(spec) == hash(ScenarioSpec.from_random(n=4, seed=0))


class TestScenarioSpecBuild:
    def test_points_network_exact(self):
        pts = uniform_points(6, 2, rng=3)
        spec = ScenarioSpec.from_points(pts, alpha=2.0)
        net = spec.build_network()
        assert isinstance(net, EuclideanCostGraph)
        assert np.array_equal(net.matrix, EuclideanCostGraph(pts, 2.0).matrix)

    def test_matrix_network_exact(self):
        base = EuclideanCostGraph(uniform_points(5, 2, rng=1), 2.0)
        spec = ScenarioSpec.from_matrix(base.matrix)
        net = spec.build_network()
        assert type(net) is CostGraph
        assert np.array_equal(net.matrix, base.matrix)

    def test_random_network_deterministic(self):
        spec = ScenarioSpec.from_random(n=7, dim=3, alpha=2.5, seed=11, side=4.0)
        a, b = spec.build_network(), spec.build_network()
        assert isinstance(a, EuclideanCostGraph) and a.dim == 3
        assert np.array_equal(a.matrix, b.matrix)

    def test_from_network_round_trips_euclidean(self):
        base = EuclideanCostGraph(uniform_points(6, 2, rng=5), alpha=3.0)
        spec = ScenarioSpec.from_network(base, source=2, tree="mst")
        assert spec.kind == "points" and spec.alpha == 3.0 and spec.source == 2
        rebuilt = spec.build_network()
        assert isinstance(rebuilt, EuclideanCostGraph)
        assert np.array_equal(rebuilt.matrix, base.matrix)

    def test_from_network_round_trips_general(self):
        m = np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 1.5], [3.0, 1.5, 0.0]])
        spec = ScenarioSpec.from_network(CostGraph(m))
        assert spec.kind == "matrix"
        assert np.array_equal(spec.build_network().matrix, m)


class TestScenarioSpecWireFormat:
    def test_json_round_trip_exact(self):
        pts = uniform_points(5, 2, rng=9)
        spec = ScenarioSpec.from_points(pts, alpha=2.0, source=1, tree="star")
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert np.array_equal(again.build_network().matrix, spec.build_network().matrix)

    def test_none_fields_omitted(self):
        d = ScenarioSpec.from_random(n=4, seed=0).to_dict()
        assert "points" not in d and "matrix" not in d

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.integers(2, 5), dim=st.integers(1, 3),
        alpha=st.floats(min_value=1.0, max_value=8.0, allow_nan=False, width=64),
        data=st.data(),
    )
    def test_points_spec_round_trip_property(self, rows, dim, alpha, data):
        pts = data.draw(st.lists(
            st.lists(coords, min_size=dim, max_size=dim),
            min_size=rows, max_size=rows,
        ))
        source = data.draw(st.integers(0, rows - 1))
        tree = data.draw(st.sampled_from(["spt", "mst", "star"]))
        spec = ScenarioSpec.from_points(pts, alpha=alpha, source=source, tree=tree)
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 40), dim=st.integers(1, 4), seed=st.integers(0, 2**31),
           alpha=st.floats(min_value=1.0, max_value=10.0, allow_nan=False, width=64),
           side=st.floats(min_value=1e-3, max_value=1e4, allow_nan=False, width=64))
    def test_random_spec_round_trip_property(self, n, dim, seed, alpha, side):
        spec = ScenarioSpec.from_random(n=n, dim=dim, alpha=alpha, seed=seed, side=side)
        assert ScenarioSpec.from_json(spec.to_json()) == spec


class TestMechanismSpec:
    def test_round_trip(self):
        spec = MechanismSpec("jv", {"agent_weights": {"1": 2.0, "2": 0.5}})
        assert MechanismSpec.from_json(spec.to_json()) == spec

    def test_default_params(self):
        assert MechanismSpec.from_dict({"name": "tree-mc"}) == MechanismSpec("tree-mc")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MechanismSpec("")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown MechanismSpec fields"):
            MechanismSpec.from_dict({"name": "jv", "mode": "branch"})

    def test_key_is_hashable_and_order_insensitive(self):
        a = MechanismSpec("jv", {"x": 1, "y": [1, 2]})
        b = MechanismSpec("jv", {"y": [1, 2], "x": 1})
        assert a.key() == b.key()
        assert hash(a.key()) == hash(b.key())

    def test_spec_itself_is_hashable_despite_dict_params(self):
        a = MechanismSpec("jv", {"x": {"nested": [1, 2]}})
        b = MechanismSpec("jv", {"x": {"nested": [1, 2]}})
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    @settings(max_examples=50, deadline=None)
    @given(name=st.text(min_size=1, max_size=20),
           params=st.dictionaries(
               st.text(max_size=8),
               st.one_of(st.none(), st.booleans(), st.integers(), finite,
                         st.text(max_size=8), st.lists(finite, max_size=3)),
               max_size=4))
    def test_round_trip_property(self, name, params):
        spec = MechanismSpec(name, params)
        assert MechanismSpec.from_json(spec.to_json()) == spec


def test_freeze_params_nested():
    frozen = freeze_params({"b": [1, {"c": 2}], "a": {3, 1}})
    assert isinstance(frozen, tuple)
    hash(frozen)
