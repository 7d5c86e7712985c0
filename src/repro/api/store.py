"""Bounded LRU session store with single-flight request coalescing.

Every warm artifact the codebase keeps — network, universal trees,
metric closure, memoised ``xi`` caches — lives in a session, and every
session is a pure function of its scenario.  :class:`SessionStore` is
the one cache of them: a bounded, least-recently-used set keyed by the
scenario's *wire form* (``spec.to_json()``), built through a
caller-supplied ``builder(spec)``.  The service fills one with its
request sessions *and* the substrate sessions multi-group and churn
replays draw per epoch; an offline
:class:`~repro.traces.MultiGroupSession` keeps a private one over
:class:`~repro.api.session.MulticastSession`.

Two properties matter under concurrency:

* **single-flight coalescing** — when several requests race on the same
  *cold* scenario, exactly one thread builds the session; the others
  block on the in-flight build's future and share its result (or its
  exception — after which the key is clean and the next request
  retries).  Cold builds are the expensive path; building the same
  network/trees/closure N times for N concurrent requests is the failure
  mode this prevents.
* **eviction is safe mid-flight** — evicting a key only drops the
  store's *reference*.  A session handed out earlier stays fully usable
  (it is a self-contained cache of pure functions); the next request for
  that scenario simply rebuilds cold.

Counters live in a :class:`~repro.observability.metrics.MetricsRegistry`
(each store defaults to a private one, so per-store stats stay isolated;
the service injects its own so ``/metrics`` sees them).  Every lookup
outcome — hit, miss, coalesced — is recorded *at claim time* in one
atomic compound update under the registry lock, which is what makes
``hits + misses + coalesced == lookups`` hold in every concurrent
snapshot, not just quiescent ones.

``capacity=0`` disables retention entirely (every request builds cold,
coalescing still applies while builds are in flight) — the configuration
the naive baseline in ``benchmarks/bench_service.py`` serves from.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable
from concurrent.futures import Future

from repro.api.spec import ScenarioSpec
from repro.observability import NULL_SPAN_RECORDER, MetricsRegistry, scenario_hash


def scenario_key(spec: ScenarioSpec) -> str:
    """The store key of a scenario: its canonical wire form.  Dynamic
    scenarios embed their churn model (multi-group ones their group and
    move histories), so specs over the same layout never collide."""
    return spec.to_json()


class StoreEntry:
    """One stored session plus its execution lock.

    :class:`~repro.api.session.MulticastSession` is internally
    thread-safe, but epoch-stateful sessions (``DynamicSession`` and the
    per-group sessions inside a ``MultiGroupSession``) mutate epoch state
    across calls — ``exec_lock`` serializes executions on one entry where
    the caller needs that (the micro-batcher takes it for those only).
    """

    __slots__ = ("session", "exec_lock")

    def __init__(self, session) -> None:
        self.session = session
        self.exec_lock = threading.Lock()

    @property
    def is_dynamic(self) -> bool:
        return hasattr(self.session, "run_epoch")


class SessionStore:
    """Thread-safe bounded LRU of scenario sessions with single-flight
    builds and atomic hit/miss/eviction/coalescing counters.

    ``builder(spec)`` makes the session a cold lookup stores; it runs
    outside the store lock, once per claimed miss.
    """

    def __init__(self, capacity: int = 64, *,
                 builder: Callable[[ScenarioSpec], object],
                 registry: MetricsRegistry | None = None,
                 spans=None) -> None:
        capacity = int(capacity)
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._builder = builder
        # Request-span recorder: cold builds are the expensive store path,
        # so the owner of a build records a ``session_build`` span as a
        # child of the requesting trace (lookups without a span context —
        # substrate lookups made mid-execution — record nothing).
        self.spans = spans if spans is not None else NULL_SPAN_RECORDER
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, StoreEntry] = OrderedDict()
        self._building: dict[str, Future] = {}
        self.registry = registry if registry is not None else MetricsRegistry()
        self._c_lookups = self.registry.counter(
            "repro_store_lookups_total",
            "Session-store lookups (hits + misses + coalesced)")
        self._c_hits = self.registry.counter(
            "repro_store_hits_total", "Lookups answered from the warm LRU")
        self._c_misses = self.registry.counter(
            "repro_store_misses_total", "Lookups that claimed a cold build")
        self._c_evictions = self.registry.counter(
            "repro_store_evictions_total", "Sessions dropped by LRU pressure")
        self._c_coalesced = self.registry.counter(
            "repro_store_coalesced_total",
            "Lookups that joined an in-flight build (single-flight)")
        self._g_size = self.registry.gauge(
            "repro_store_size", "Sessions currently retained")
        self._g_capacity = self.registry.gauge(
            "repro_store_capacity", "Session-store LRU capacity")
        self._g_capacity.set(capacity)

    def _record(self, outcome) -> None:
        """One atomic compound counter update: lookups and its outcome
        move together or not at all."""
        with self.registry.lock:
            self._c_lookups.inc()
            outcome.inc()

    def get(self, spec: ScenarioSpec, *, key: str | None = None,
            span_context=None) -> StoreEntry:
        """The entry for ``spec`` — see :meth:`lookup`."""
        return self.lookup(spec, key=key, span_context=span_context)[0]

    def lookup(self, spec: ScenarioSpec, *, key: str | None = None,
               span_context=None) -> tuple[StoreEntry, bool]:
        """``(entry, built)`` for ``spec``: the entry warm from the LRU,
        joined onto an in-flight build, or built here (exactly one builder
        per key); ``built`` is true only for the lookup that ran the
        build.  ``span_context`` parents the cold path's
        ``session_build`` span (hits and coalesced joins record nothing:
        they are cheap)."""
        if key is None:
            key = scenario_key(spec)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._record(self._c_hits)
                return entry, False
            future = self._building.get(key)
            if future is not None:
                # Single-flight: join the in-flight build instead of
                # duplicating it.
                self._record(self._c_coalesced)
                owner = False
            else:
                future = Future()
                self._building[key] = future
                owner = True
                # The miss is counted when the build slot is *claimed*,
                # not when the build finishes — so lookups always equals
                # hits+misses+coalesced, even while builds are in flight.
                self._record(self._c_misses)
        if not owner:
            return future.result(), False
        build_span = (self.spans.span(
            "session_build", parent=span_context,
            attributes={"scenario": scenario_hash(key)})
            if span_context is not None else None)
        try:
            entry = StoreEntry(self._builder(spec))
        except BaseException as exc:
            if build_span is not None:
                build_span.set("error", f"{type(exc).__name__}: {exc}")
                build_span.finish(status="error")
            with self._lock:
                self._building.pop(key, None)
            future.set_exception(exc)
            raise
        if build_span is not None:
            build_span.finish()
        with self._lock:
            evicted = 0
            if self.capacity > 0:
                self._entries[key] = entry
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    evicted += 1
            size = len(self._entries)
            self._building.pop(key, None)
            with self.registry.lock:
                if evicted:
                    self._c_evictions.inc(evicted)
                self._g_size.set(size)
        future.set_result(entry)
        return entry, True

    # -- counters (registry-backed, read as plain ints) ----------------------
    @property
    def lookups(self) -> int:
        return int(self._c_lookups.value)

    @property
    def hits(self) -> int:
        return int(self._c_hits.value)

    @property
    def misses(self) -> int:
        return int(self._c_misses.value)

    @property
    def evictions(self) -> int:
        return int(self._c_evictions.value)

    @property
    def coalesced(self) -> int:
        return int(self._c_coalesced.value)

    # -- inspection / management --------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[str]:
        """Stored keys, least-recently-used first."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop every stored session (counters keep accumulating)."""
        with self._lock:
            self._entries.clear()
            with self.registry.lock:
                self._g_size.set(0)

    def resize(self, capacity: int) -> int:
        """Change the LRU bound in place (the adaptive controller's
        capacity knob), evicting LRU-first if shrinking below the current
        population.  Returns the number of sessions evicted."""
        capacity = int(capacity)
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        with self._lock:
            self.capacity = capacity
            evicted = 0
            while len(self._entries) > capacity:
                self._entries.popitem(last=False)
                evicted += 1
            size = len(self._entries)
            with self.registry.lock:
                self._g_capacity.set(capacity)
                if evicted:
                    self._c_evictions.inc(evicted)
                self._g_size.set(size)
        return evicted

    def stats(self) -> dict:
        """Counter snapshot — one atomic read under the registry lock, so
        ``hits + misses + coalesced == lookups`` in every snapshot."""
        with self._lock:
            size = len(self._entries)
            building = len(self._building)
            with self.registry.lock:
                return {
                    "capacity": self.capacity,
                    "size": size,
                    "building": building,
                    "lookups": int(self._c_lookups.value),
                    "hits": int(self._c_hits.value),
                    "misses": int(self._c_misses.value),
                    "evictions": int(self._c_evictions.value),
                    "coalesced": int(self._c_coalesced.value),
                }

    def __repr__(self) -> str:
        s = self.stats()
        return (f"SessionStore(size={s['size']}/{s['capacity']}, "
                f"hits={s['hits']}, misses={s['misses']}, "
                f"evictions={s['evictions']}, coalesced={s['coalesced']})")
