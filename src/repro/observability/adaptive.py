"""Closed-loop adaptive control of the micro-batch window and LRU size.

The serving layer ships with fixed knobs (``--batch-window``,
``--cache-size``).  Fixed knobs are wrong twice a day: a window tuned
for a burst wastes latency when traffic is sparse, and a cache sized
for a sweep thrashes under a wide key distribution.  The
:class:`AdaptiveController` closes the loop from *observed* telemetry:

* **Batch window** — pursue ``target_occupancy / arrival_rate``: the
  window just long enough that an average flush holds
  ``target_occupancy`` requests.  Movement is geometric (``×/÷
  window_step`` per tick, never overshooting the target) and
  hysteresis-damped: no decision while the desired window stays within
  ``band×`` of the current one.  Hard-clamped to
  ``[min_window, max_window]``.
* **LRU capacity** — grow ``×2`` when the hit rate is low *and* the
  store is actually evicting (misses without evictions mean cold keys,
  not pressure); shrink ``÷2`` when the hit rate is high and the store
  sits mostly empty.  Bounded by ``[min_capacity, max_capacity]``, with
  ``capacity_cooldown`` ticks between moves so grow/shrink can never
  oscillate within a burst.

Every decision is returned by :meth:`AdaptiveController.step`, kept in a
bounded history (:meth:`AdaptiveController.decisions`) and counted in the
registry, so tests replay exact decision sequences from synthetic traces
and operators can audit every knob move.  The
decision core, :meth:`AdaptiveController.step`, is a pure function of
an :class:`AdaptObservation` plus controller state — no clocks, no
randomness — which is what makes the convergence tests deterministic.
"""

from __future__ import annotations

import dataclasses
from collections import deque

from repro.observability.metrics import MetricsRegistry

__all__ = ["AdaptObservation", "AdaptiveController"]


@dataclasses.dataclass(frozen=True)
class AdaptObservation:
    """One tick's worth of telemetry deltas (and store state)."""

    arrivals: int       # requests submitted to the batcher this tick
    interval: float     # seconds covered by this tick
    lookups: int        # store lookups this tick (hits+misses+coalesced)
    hits: int           # store hits this tick (coalesced waits count too)
    evictions: int      # store evictions this tick
    store_size: int     # sessions currently retained


def _clamp(value: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, value))


class AdaptiveController:
    """Adjusts ``batcher.window`` and ``store`` capacity from telemetry.

    Bind to a :class:`~repro.service.server.CostSharingService` for live
    control, or construct with ``service=None`` plus explicit
    ``batch_window`` / ``cache_capacity`` and drive :meth:`step` with
    synthetic observations for deterministic simulation.
    """

    def __init__(self, service=None, *,
                 batch_window: float | None = None,
                 cache_capacity: int | None = None,
                 interval: float = 0.5,
                 target_occupancy: float = 4.0,
                 min_window: float = 0.0005,
                 max_window: float = 0.05,
                 window_step: float = 1.5,
                 band: float = 1.25,
                 min_capacity: int = 4,
                 max_capacity: int = 1024,
                 low_hit_rate: float = 0.5,
                 high_hit_rate: float = 0.9,
                 min_samples: int = 16,
                 capacity_cooldown: int = 4,
                 registry: MetricsRegistry | None = None) -> None:
        if band <= 1.0 or window_step <= 1.0:
            raise ValueError("band and window_step must exceed 1.0")
        self.service = service
        self.interval = float(interval)
        self.target_occupancy = float(target_occupancy)
        self.min_window = float(min_window)
        self.max_window = float(max_window)
        self.window_step = float(window_step)
        self.band = float(band)
        self.min_capacity = int(min_capacity)
        self.max_capacity = int(max_capacity)
        self.low_hit_rate = float(low_hit_rate)
        self.high_hit_rate = float(high_hit_rate)
        self.min_samples = int(min_samples)
        self.capacity_cooldown = int(capacity_cooldown)
        self._decisions: deque[dict] = deque(maxlen=256)

        if service is not None:
            batch_window = service.batcher.window
            cache_capacity = service.store.capacity
            registry = registry if registry is not None else service.registry
        if batch_window is None or cache_capacity is None:
            raise ValueError(
                "either bind a service or give batch_window and cache_capacity")
        self.window = float(batch_window)
        self.capacity = int(cache_capacity)
        self.tick = 0
        self._cooldown = 0
        self._last = None  # previous cumulative counters, for observe()

        registry = registry if registry is not None else MetricsRegistry()
        self._c_decisions = registry.counter(
            "repro_adapt_decisions_total",
            "Adaptive-controller knob adjustments", labels=("knob",))
        self._c_ticks = registry.counter(
            "repro_adapt_ticks_total", "Adaptive-controller control ticks")
        self._g_window = registry.gauge(
            "repro_adapt_batch_window_seconds",
            "Micro-batch flush window currently in force")
        self._g_capacity = registry.gauge(
            "repro_adapt_store_capacity",
            "Session-store LRU capacity currently in force")
        self._g_window.set(self.window)
        self._g_capacity.set(self.capacity)

    # -- telemetry in --------------------------------------------------------
    def observe(self, interval: float | None = None) -> AdaptObservation:
        """Read one tick of counter deltas from the bound service."""
        if self.service is None:
            raise ValueError("observe() needs a bound service; feed step() "
                             "synthetic AdaptObservations instead")
        store = self.service.store
        current = (self.service.batcher.requests, store.lookups, store.hits,
                   store.evictions)
        previous = self._last if self._last is not None else (0, 0, 0, 0)
        self._last = current
        arrivals, lookups, hits, evictions = (
            c - p for c, p in zip(current, previous))
        return AdaptObservation(
            arrivals=arrivals,
            interval=self.interval if interval is None else float(interval),
            lookups=lookups, hits=hits, evictions=evictions,
            store_size=store.stats()["size"])

    # -- the decision core ---------------------------------------------------
    def step(self, obs: AdaptObservation) -> list[dict]:
        """Apply one control tick; returns the decision events made."""
        self.tick += 1
        self._c_ticks.inc()
        decisions = []

        window = self._step_window(obs)
        if window is not None:
            reason = "sparse arrivals" if window > self.window else "burst"
            decisions.append(self._decide("batch_window", self.window, window,
                                          obs, reason=reason))
            self.window = window
            self._g_window.set(window)
            if self.service is not None:
                self.service.batcher.window = window

        if self._cooldown > 0:
            self._cooldown -= 1
        else:
            capacity = self._step_capacity(obs)
            if capacity is not None:
                reason = ("evicting under low hit rate"
                          if capacity > self.capacity else "idle over-provision")
                decisions.append(self._decide("store_capacity", self.capacity,
                                              capacity, obs, reason=reason))
                self.capacity = capacity
                self._g_capacity.set(capacity)
                self._cooldown = self.capacity_cooldown
                if self.service is not None:
                    self.service.store.resize(capacity)
        return decisions

    def _step_window(self, obs: AdaptObservation) -> float | None:
        if self.max_window <= self.min_window or self.window <= 0:
            return None  # window control disabled (e.g. --batch-window 0)
        if obs.arrivals <= 0 or obs.interval <= 0:
            return None  # nothing arrived: no evidence, no move
        rate = obs.arrivals / obs.interval
        desired = _clamp(self.target_occupancy / rate,
                         self.min_window, self.max_window)
        if desired > self.window * self.band:
            return min(self.window * self.window_step, desired)
        if desired < self.window / self.band:
            return max(self.window / self.window_step, desired)
        return None

    def _step_capacity(self, obs: AdaptObservation) -> int | None:
        if self.max_capacity <= self.min_capacity or self.capacity <= 0:
            return None  # capacity control disabled
        if obs.lookups < self.min_samples:
            return None  # not enough evidence this tick
        hit_rate = obs.hits / obs.lookups
        if (hit_rate < self.low_hit_rate and obs.evictions > 0
                and self.capacity < self.max_capacity):
            return min(self.capacity * 2, self.max_capacity)
        if (hit_rate > self.high_hit_rate and self.capacity > self.min_capacity
                and obs.store_size * 4 <= self.capacity):
            return max(self.capacity // 2, self.min_capacity, obs.store_size)
        return None

    def _decide(self, knob: str, previous, value, obs: AdaptObservation,
                *, reason: str) -> dict:
        self._c_decisions.labels(knob=knob).inc()
        decision = {
            "knob": knob, "tick": self.tick, "previous": previous,
            "value": value, "reason": reason,
            "rate": (round(obs.arrivals / obs.interval, 6)
                     if obs.interval else 0.0),
            "hit_rate": round(obs.hits / obs.lookups, 6) if obs.lookups else None}
        self._decisions.append(decision)
        return decision

    def decisions(self) -> list[dict]:
        """The most recent knob decisions (up to 256), oldest first."""
        return list(self._decisions)
