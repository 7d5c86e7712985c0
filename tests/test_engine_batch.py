"""Tests for repro.engine.batch: the memoised xi(R) cache, and the
batched profile stream it serves."""

import numpy as np
import pytest

import repro.engine as engine
from repro.analysis.instances import random_utilities
from repro.api import MulticastSession
from repro.core import EuclideanJVMechanism
from repro.engine.batch import MethodCache
from repro.geometry import uniform_points
from repro.wireless import EuclideanCostGraph


def small_network(n=7, seed=0):
    return EuclideanCostGraph(uniform_points(n, 2, rng=seed, side=5.0), alpha=2.0)


def profile_stream(network, k, seed=0, scale=2.0):
    rng = np.random.default_rng(seed)
    return [random_utilities(network, 0, rng, scale=scale) for _ in range(k)]


class TestMethodCache:
    def test_memoises_and_counts(self):
        calls = []

        def method(R):
            calls.append(R)
            return {i: 1.0 for i in R}

        cache = MethodCache(method)
        R = frozenset({1, 2})
        assert cache(R) == {1: 1.0, 2: 1.0}
        assert cache(R) == {1: 1.0, 2: 1.0}
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_returns_fresh_copies(self):
        cache = MethodCache(lambda R: {i: 1.0 for i in R})
        first = cache(frozenset({1}))
        first[1] = 99.0
        assert cache(frozenset({1})) == {1: 1.0}

    def test_clear(self):
        cache = MethodCache(lambda R: {})
        cache(frozenset())
        cache.clear()
        assert cache.hits == 0 and cache.misses == 0 and cache.hit_rate == 0.0


class TestJVBatch:
    def test_identical_to_per_profile_runs(self):
        network = small_network(7, seed=9)
        profiles = profile_stream(network, 5, seed=4)
        batched = MulticastSession(network, source=0).run_batch("jv", profiles)
        mech = EuclideanJVMechanism(network, 0)
        assert len(batched) == len(profiles)
        for result, profile in zip(batched, profiles):
            solo = mech.run(profile)
            assert result.receivers == solo.receivers
            assert result.shares == solo.shares
            assert result.extra["closure_mst_weight"] == \
                solo.extra["closure_mst_weight"]


class TestLazyPackageExports:
    def test_batch_names_resolve_through_package(self):
        assert engine.MethodCache is MethodCache
        with pytest.raises(AttributeError):
            engine.does_not_exist
