"""The adaptive controller: deterministic decision replay + live binding.

``AdaptiveController.step`` is a pure function of an
:class:`AdaptObservation` plus controller state (no clocks, no
randomness), so a synthetic trace produces one exact decision sequence
— pinned here event by event.  The acceptance criterion rides along: on
a bursty trace the batch window demonstrably converges (geometrically,
without overshoot) to the window the arrival rate warrants.
"""

from __future__ import annotations

import pytest

from repro.observability import AdaptiveController, AdaptObservation, MetricsRegistry


def _obs(arrivals: int, *, interval: float = 0.5, lookups: int = 0,
         hits: int = 0, evictions: int = 0, store_size: int = 0) -> AdaptObservation:
    return AdaptObservation(arrivals=arrivals, interval=interval,
                            lookups=lookups, hits=hits, evictions=evictions,
                            store_size=store_size)


def _controller(**overrides) -> AdaptiveController:
    kwargs = dict(batch_window=0.005, cache_capacity=64,
                  registry=MetricsRegistry())
    kwargs.update(overrides)
    return AdaptiveController(None, **kwargs)


# -- construction -------------------------------------------------------------
def test_needs_service_or_explicit_knobs():
    with pytest.raises(ValueError, match="bind a service"):
        AdaptiveController(None)
    with pytest.raises(ValueError, match="must exceed 1.0"):
        _controller(band=1.0)
    with pytest.raises(ValueError, match="must exceed 1.0"):
        _controller(window_step=0.5)


def test_observe_without_service_raises():
    with pytest.raises(ValueError, match="needs a bound service"):
        _controller().observe()


# -- window control -----------------------------------------------------------
def test_window_converges_geometrically_on_a_burst():
    """The acceptance criterion: under a sustained burst the window walks
    down x(1/1.5) per tick and lands exactly on the clamped target."""
    controller = _controller()  # window 0.005, min 0.0005, step 1.5
    burst = _obs(4000)          # 8000 req/s -> desired 4/8000 = min_window
    windows = []
    for _ in range(10):
        controller.step(burst)
        windows.append(controller.window)
    # Strict geometric descent, never below the clamp, then a fixed point.
    assert windows[0] == pytest.approx(0.005 / 1.5)
    assert all(b <= a for a, b in zip(windows, windows[1:]))
    assert controller.window == pytest.approx(0.0005)  # == min_window
    decisions = controller.decisions()
    assert len(decisions) == 6  # six moves, then hysteresis holds it still
    assert all(d["knob"] == "batch_window" for d in decisions)
    assert all(d["reason"] == "burst" for d in decisions)
    assert [d["tick"] for d in decisions] == [1, 2, 3, 4, 5, 6]
    # Ticks 7-10 produced no decision: the fixed point is stable.
    assert controller.tick == 10


def test_window_grows_toward_max_when_arrivals_are_sparse():
    controller = _controller()
    sparse = _obs(1)  # 2 req/s -> desired 2.0s, clamped to max_window 0.05
    for _ in range(10):
        controller.step(sparse)
    assert controller.window == pytest.approx(0.05)  # == max_window
    assert all(d["reason"] == "sparse arrivals" for d in controller.decisions())


def test_no_arrivals_means_no_window_move():
    controller = _controller()
    before = controller.window
    controller.step(_obs(0))
    controller.step(_obs(5, interval=0.0))
    assert controller.window == before
    assert controller.decisions() == []


def test_window_holds_inside_the_hysteresis_band():
    # rate 1000/s -> desired 0.004; 0.005/1.25 = 0.004 is not strictly
    # below, so the band absorbs the difference.
    controller = _controller()
    controller.step(_obs(500))
    assert controller.window == 0.005
    assert controller.decisions() == []


def test_window_control_disabled_by_zero_window_or_collapsed_bounds():
    frozen = _controller(batch_window=0.0)
    frozen.step(_obs(4000))
    assert frozen.window == 0.0 and frozen.decisions() == []
    pinned = _controller(min_window=0.01, max_window=0.01)
    pinned.step(_obs(4000))
    assert pinned.window == 0.005 and pinned.decisions() == []


# -- capacity control ---------------------------------------------------------
def test_capacity_grows_under_eviction_pressure_with_cooldown():
    controller = _controller(cache_capacity=8, capacity_cooldown=2,
                             max_capacity=64)
    thrash = _obs(0, lookups=32, hits=8, evictions=3, store_size=8)
    capacities = []
    for _ in range(7):
        controller.step(thrash)
        capacities.append(controller.capacity)
    # Doubles on ticks 1, 4, 7 — two cooldown ticks between moves.
    assert capacities == [16, 16, 16, 32, 32, 32, 64]
    grow = controller.decisions()
    assert [d["tick"] for d in grow] == [1, 4, 7]
    assert all(d["knob"] == "store_capacity" for d in grow)
    assert all(d["reason"] == "evicting under low hit rate" for d in grow)
    # Already at max_capacity: pressure can push it no further.
    for _ in range(5):
        controller.step(thrash)
    assert controller.capacity == 64


def test_capacity_shrinks_when_idle_and_overprovisioned():
    controller = _controller(cache_capacity=64, capacity_cooldown=0,
                             min_capacity=4)
    idle = _obs(0, lookups=32, hits=31, evictions=0, store_size=4)
    controller.step(idle)
    assert controller.capacity == 32
    decision, = controller.decisions()
    assert decision["reason"] == "idle over-provision"
    assert decision["hit_rate"] == pytest.approx(31 / 32)
    # Shrinking never drops below the live population or min_capacity.
    controller.step(_obs(0, lookups=32, hits=31, store_size=20))
    assert controller.capacity == 32  # store_size*4 > capacity: no move
    for _ in range(10):
        controller.step(idle)
    # Halving stops once store_size*4 exceeds the next capacity: the
    # store keeps >= 2x headroom over its live population.
    assert controller.capacity == 8


def test_capacity_needs_evidence_and_real_pressure():
    controller = _controller(cache_capacity=8)
    # Too few lookups this tick: no decision either way.
    controller.step(_obs(0, lookups=8, hits=0, evictions=5, store_size=8))
    # Misses without evictions are cold keys, not pressure.
    controller.step(_obs(0, lookups=32, hits=2, evictions=0, store_size=3))
    assert controller.capacity == 8
    assert controller.decisions() == []


# -- exact decision-sequence replay ------------------------------------------
def test_synthetic_trace_replays_an_exact_decision_sequence():
    controller = _controller(batch_window=0.004, cache_capacity=8,
                             min_window=0.001, max_window=0.016,
                             window_step=2.0, capacity_cooldown=1,
                             target_occupancy=4.0)
    trace = [
        _obs(8),                                             # rate 16: grow window
        _obs(8),                                             # grow again, hits max
        _obs(0, lookups=32, hits=8, evictions=2, store_size=8),   # grow capacity
        _obs(0, lookups=32, hits=8, evictions=2, store_size=8),   # cooldown blocks
        _obs(4000, lookups=32, hits=31, store_size=2),       # burst + shrink
    ]
    for obs in trace:
        controller.step(obs)
    assert [(d["tick"], d["knob"], d["previous"], d["value"], d["reason"])
            for d in controller.decisions()] == [
        (1, "batch_window", 0.004, 0.008, "sparse arrivals"),
        (2, "batch_window", 0.008, 0.016, "sparse arrivals"),
        (3, "store_capacity", 8, 16, "evicting under low hit rate"),
        (5, "batch_window", 0.016, 0.008, "burst"),
        (5, "store_capacity", 16, 8, "idle over-provision"),
    ]


def test_decisions_and_ticks_are_counted_in_the_registry():
    registry = MetricsRegistry()
    controller = _controller(registry=registry, capacity_cooldown=0)
    controller.step(_obs(1))                                  # window move
    controller.step(_obs(0, lookups=32, hits=0, evictions=1,  # capacity move
                         store_size=64))
    controller.step(_obs(0))                                  # no move
    snapshot = registry.snapshot()
    ticks, = snapshot["repro_adapt_ticks_total"]["series"]
    assert ticks["value"] == 3
    by_knob = {tuple(s["labels"].items()): s["value"]
               for s in snapshot["repro_adapt_decisions_total"]["series"]}
    assert by_knob == {(("knob", "batch_window"),): 1.0,
                       (("knob", "store_capacity"),): 1.0}
    window, = snapshot["repro_adapt_batch_window_seconds"]["series"]
    assert window["value"] == pytest.approx(controller.window)


# -- live service binding -----------------------------------------------------
def test_bound_controller_reads_deltas_and_moves_the_real_knobs():
    import asyncio

    from repro.api import ScenarioSpec
    from repro.service import CostSharingService, ServiceClient

    service = CostSharingService(cache_size=8, batch_window=0.004)
    spec = ScenarioSpec.from_random(n=6, alpha=2.0, seed=0, side=5.0)
    profiles = [{a: 4.0 for a in spec.agents()}]

    async def go():
        client = ServiceClient(service)
        for _ in range(3):
            status, _ = await client.run(spec, "jv", profiles)
            assert status == 200

    asyncio.run(go())
    controller = AdaptiveController(service, min_window=0.0005,
                                    max_window=0.032)
    assert controller.window == service.batcher.window == 0.004
    assert controller.capacity == service.store.capacity == 8

    first = controller.observe(interval=0.5)
    assert first.arrivals == 3
    assert first.lookups == 3 and first.hits == 2
    assert first.store_size == 1
    # Deltas: a second observation with no traffic in between is all-zero.
    second = controller.observe(interval=0.5)
    assert (second.arrivals, second.lookups, second.hits) == (0, 0, 0)

    # 6 req/s -> desired window 4/6 s, clamped to max: one x1.5 step up,
    # written onto the batcher's live window through the property setter.
    controller.step(first)
    assert service.batcher.window == controller.window == pytest.approx(0.006)

    # A synthetic pressure tick resizes the real store.
    controller.step(AdaptObservation(arrivals=0, interval=0.5, lookups=32,
                                     hits=4, evictions=2, store_size=8))
    assert service.store.capacity == controller.capacity == 16
