"""Self-tests of the benchmark itself (not of the program it measures).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from inputs import ServedInputs, sweep_spec  # noqa: E402
from measure import PeakRss, process_tree, tail, vm_hwm_kib  # noqa: E402
from oracle import answer_matches, cold_results  # noqa: E402
from system import Server  # noqa: E402


@pytest.mark.parametrize("workload", ["serve-hot", "serve-trace"])
def test_same_seed_gives_byte_identical_schedule(workload):
    first, second = ServedInputs(workload, 7), ServedInputs(workload, 7)
    for stream in ("warm", "closed", "open"):
        assert ([first.request(stream, i) for i in range(40)]
                == [second.request(stream, i) for i in range(40)])
    assert first.arrivals(20.0, 300).tobytes() == second.arrivals(20.0, 300).tobytes()
    other = ServedInputs(workload, 8)
    assert [first.request("open", i) for i in range(5)] != \
        [other.request("open", i) for i in range(5)]


def test_warmup_never_replays_a_measured_body():
    inputs = ServedInputs("serve-hot", 3)
    warm = {inputs.request("warm", i)[1] for i in range(len(inputs.keys))}
    measured = {inputs.request(stream, i)[1] for stream in ("closed", "open")
                for i in range(500)}
    assert not warm & measured


def test_sweep_grid_is_seeded_and_shaped_as_specified():
    spec = sweep_spec("sweep-jv", 5)
    assert spec.to_json() == sweep_spec("sweep-jv", 5).to_json()
    assert spec.to_json() != sweep_spec("sweep-jv", 6).to_json()
    items = spec.expand()
    assert len(items) == 36 and len(items) * spec.profiles.count == 288


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile, count = tail(list(range(1, 101)))
    assert (value, percentile, count) == (90, 90.0, 100)
    assert sum(x > value for x in range(1, 101)) == 10
    value, percentile, _ = tail([1.0] * 29 + [float("inf")] * 11)
    assert math.isinf(value) and percentile == 75.0
    with pytest.raises(ValueError):
        tail(range(20))


def test_oracle_rejects_an_answer_with_one_share_altered():
    inputs = ServedInputs("serve-hot", 2)
    key = inputs.keys[0]
    profile = key.profile(inputs.bids("closed", 0))
    results = cold_results(key.cell, "tree-shapley", [profile])
    body = json.dumps({"results": results}).encode()
    assert answer_matches(key, profile, body)
    shares = results[0]["shares"]
    assert shares, "the bids must leave somebody served"
    agent = sorted(shares)[0]
    shares[agent] = float(np.nextafter(shares[agent], math.inf))
    assert not answer_matches(key, profile, json.dumps({"results": results}).encode())


def test_peak_rss_sums_every_fleet_process(tmp_path):
    server = Server(HERE.parent, workers=2, log=tmp_path / "fleet.log").start()
    try:
        members = process_tree(server.pid)
        assert len(members) == 3  # the router and its two workers
        rss = PeakRss(server.pid)
        rss.sample()
        assert sorted(rss.peaks) == sorted(members)
        assert rss.total_mb == pytest.approx(
            sum(vm_hwm_kib(pid) for pid in members) / 1024.0, rel=0.05)
        assert rss.total_mb > max(rss.peaks.values()) / 1024.0
    finally:
        server.stop()
    assert all(vm_hwm_kib(pid) is None for pid in members)
