"""Concurrency regression: one MulticastSession hammered from threads.

The service layer executes requests on a thread pool, so a session's lazy
builds (network, trees, closure, mechanism instances, xi caches) must be
safe when several threads race on a *cold* session.  Every result must be
bit-identical to the serial oracle — a fresh session run single-threaded —
because all the caches memoise pure functions.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import MulticastSession, ScenarioSpec, result_to_dict
from repro.engine.batch import MethodCache

MECHANISMS = ["tree-shapley", "tree-mc", "jv", "nwst"]
N_THREADS = 8
N_ROUNDS = 2  # each request is replayed across the pool


def _workload(spec, n_profiles=3):
    rng = np.random.default_rng(1234)
    agents = spec.agents()
    profiles = [
        {a: float(rng.uniform(0.0, 8.0)) for a in agents} for _ in range(n_profiles)
    ]
    return [(MECHANISMS[i % len(MECHANISMS)], profiles[i % len(profiles)])
            for i in range(len(MECHANISMS) * n_profiles)]


@pytest.mark.parametrize("seed", [0])
def test_cold_session_hammered_equals_serial_oracle(seed):
    spec = ScenarioSpec.from_random(n=8, alpha=2.0, seed=seed, side=6.0)
    requests = _workload(spec)

    oracle_session = MulticastSession(spec)
    oracle = [result_to_dict(oracle_session.run(m, p)) for m, p in requests]

    session = MulticastSession(spec)  # cold: threads race on every lazy build
    barrier = threading.Barrier(N_THREADS)

    def worker(worker_id: int):
        barrier.wait()  # maximise contention on the cold builds
        out = []
        for round_no in range(N_ROUNDS):
            # Rotate the start offset so threads collide on different keys.
            for idx in range(len(requests)):
                mech, profile = requests[(idx + worker_id + round_no) % len(requests)]
                out.append(((idx + worker_id + round_no) % len(requests),
                            result_to_dict(session.run(mech, profile))))
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: expose lost updates
    try:
        with ThreadPoolExecutor(N_THREADS) as pool:
            results = [f.result(timeout=120)
                       for f in [pool.submit(worker, i) for i in range(N_THREADS)]]
    finally:
        sys.setswitchinterval(interval)

    for per_thread in results:
        for idx, payload in per_thread:
            assert payload == oracle[idx]

    info = session.cache_info()
    assert info["network_built"] and info["trees"] == ["spt"] and info["closure_built"]
    # Every jv run reads the build memo twice (the build, then its MST
    # weight); each distinct final set is built once however the threads
    # raced.
    builds = info["builds"]["jv"]
    jv_runs = N_THREADS * N_ROUNDS * sum(m == "jv" for m, _ in requests)
    assert builds["hits"] + builds["misses"] == 2 * jv_runs
    assert builds["misses"] == len({frozenset(r["receivers"])
                                    for (m, _), r in zip(requests, oracle) if m == "jv"})


def test_method_cache_concurrent_consistency():
    calls = []
    lock = threading.Lock()

    def xi(R: frozenset) -> dict:
        with lock:
            calls.append(R)
        return {a: float(a) / (len(R) + 1) for a in R}

    cache = MethodCache(xi)
    keys = [frozenset(range(k)) for k in range(1, 6)]
    barrier = threading.Barrier(N_THREADS)

    def worker():
        barrier.wait()
        return [cache(k) for _ in range(50) for k in keys]

    with ThreadPoolExecutor(N_THREADS) as pool:
        outs = [f.result() for f in [pool.submit(worker) for _ in range(N_THREADS)]]

    expected = [xi(k) for k in keys] * 50
    for out in outs:
        assert out == expected
    # Counters stay coherent: every call is either a hit or a miss, and
    # each key was inserted exactly once (misses == distinct keys even if
    # racing threads recomputed a cold key).
    assert cache.hits + cache.misses == N_THREADS * 50 * len(keys)
    assert cache.misses == len(keys)

    # Returned dicts are private copies — mutating one must not poison
    # the cache.
    first = cache(keys[0])
    first[1] = -1.0
    assert cache(keys[0]) == expected[0]
