"""Micro-batched mechanism execution over the session store.

A serving process under concurrent load sees the same scenario many
times in a short interval.  :class:`MicroBatcher` exploits that: run
requests submitted while a flush window is open are collected, grouped
by scenario, and executed per scenario on one warm
:class:`~repro.api.session.MulticastSession` via ``run_batch`` — one
mechanism lookup and one memoised ``xi`` cache shared across every
request of the group, while distinct scenarios execute concurrently on
the worker pool.

Batching changes *when* work runs, never *what* it computes: each
request's results are a pure function of ``(scenario, mechanism,
profiles)`` (the caches only avoid recomputing pure functions), so a
response is bit-identical whether the request flushed alone, rode a
batch, or bypassed the batcher entirely — property-tested in
``tests/test_service_property.py``.

The flush window is the latency the operator trades for throughput
(``window=0`` disables collection: every request flushes immediately,
still through the store's warm sessions).  ``max_batch`` bounds the
collection — a full window flushes early, so the pending queue can never
grow beyond one window's worth of admitted requests.

Telemetry: counters and the flush-occupancy histogram publish into the
store's registry (the service injects one shared registry, so
``/metrics`` sees the whole pipeline).  Each request's
``queue``/``build``/``execute`` legs go to the
:class:`~repro.observability.StageRecorder` it was submitted with, which
fans them out to the stage histogram, the request's spans and its log
line.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Executor

from repro.observability import (
    BATCH_OCCUPANCY_BUCKETS,
    NULL_SPAN_RECORDER,
    StageRecorder,
    stage_histogram,
)
from repro.observability.tracing import SpanContext
from repro.service.protocol import RunRequest
from repro.service.state import SessionStore, StoreEntry

# A submitted request: (request, its future, enqueue time, its stages).
_Pending = tuple[RunRequest, asyncio.Future, float, StageRecorder]


class MicroBatcher:
    """Collects in-flight run requests and executes them per-scenario.

    Must be driven from one asyncio event loop (``submit`` is a
    coroutine); the actual mechanism execution happens on
    ``executor`` (default: the loop's default thread pool), so the loop
    stays responsive while mechanisms run.
    """

    def __init__(self, store: SessionStore, *, window: float = 0.005,
                 max_batch: int = 32, executor: Executor | None = None,
                 spans=None) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.store = store
        self.max_batch = int(max_batch)
        self._executor = executor
        # Request-span recorder (tracing): each flush becomes one span,
        # rooting its own trace — the requests it serves belong to
        # *different* traces.  Their execute spans link to it via
        # flush_trace_id/flush_span_id attributes.
        self.spans = spans if spans is not None else NULL_SPAN_RECORDER
        self._pending: list[_Pending] = []
        self._flush_handle: asyncio.TimerHandle | None = None
        self._tasks: set[asyncio.Task] = set()
        # -- telemetry (in the store's registry, one shared lock) -----------
        self.registry = store.registry
        self._c_requests = self.registry.counter(
            "repro_batch_requests_total", "Run requests submitted for batching")
        self._c_flushes = self.registry.counter(
            "repro_batch_flushes_total", "Micro-batch flushes executed")
        self._c_batched = self.registry.counter(
            "repro_batch_batched_requests_total",
            "Requests that shared their flush with at least one other")
        self._h_occupancy = self.registry.histogram(
            "repro_batch_occupancy", "Requests per micro-batch flush",
            buckets=BATCH_OCCUPANCY_BUCKETS)
        self._g_window = self.registry.gauge(
            "repro_batch_window_seconds", "Micro-batch flush window in force")
        self._g_max_seen = self.registry.gauge(
            "repro_batch_max_size", "Largest flush observed")
        self._h_stage = stage_histogram(self.registry)
        self.window = window  # property setter: clamps and records the gauge

    # -- the flush window (adaptive controller's knob) -----------------------
    @property
    def window(self) -> float:
        return self._window

    @window.setter
    def window(self, value: float) -> None:
        self._window = max(0.0, float(value))
        self._g_window.set(self._window)

    # -- counters (registry-backed, read as plain ints) ----------------------
    @property
    def requests(self) -> int:
        return int(self._c_requests.value)

    # -- submission ----------------------------------------------------------
    async def submit(self, request: RunRequest,
                     stages: StageRecorder | None = None) -> list:
        """Price one request; resolves to its list of
        :class:`~repro.mechanism.base.MechanismResult`.  ``stages``
        (default: an untraced recorder) receives the request's queue,
        build and execute legs."""
        if stages is None:
            stages = StageRecorder(self._h_stage)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((request, future, time.perf_counter(), stages))
        self._c_requests.inc()
        if self._window <= 0.0 or len(self._pending) >= self.max_batch:
            self._flush()
        elif self._flush_handle is None:
            self._flush_handle = loop.call_later(self._window, self._flush)
        return await future

    def pending(self) -> int:
        """Requests collected but not yet flushed."""
        return len(self._pending)

    # -- flushing ------------------------------------------------------------
    def _flush(self) -> None:
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        batch, self._pending = self._pending, []
        if not batch:
            return
        with self.registry.lock:
            self._c_flushes.inc()
            self._g_max_seen.set_max(len(batch))
            self._h_occupancy.observe(len(batch))
            if len(batch) > 1:
                self._c_batched.inc(len(batch))
        groups: dict[str, list[_Pending]] = {}
        for item in batch:
            groups.setdefault(item[0].key, []).append(item)
        # One flush span covers the whole flush (all its scenario groups);
        # it finishes when the last group's work completes.
        flush_span = self.spans.span("flush",
                                     attributes={"requests": len(batch)})
        remaining = [len(groups)]

        def group_done(_task) -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                flush_span.finish()

        for group in groups.values():
            task = asyncio.ensure_future(self._execute_group(
                group, flush_span.context, len(batch)))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
            task.add_done_callback(group_done)

    async def _execute_group(self, group: list[_Pending],
                             flush_context: SpanContext | None,
                             batch_size: int) -> None:
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(
                self._executor, self._run_group, group, flush_context,
                batch_size)
        except BaseException as exc:  # store build failure: fail the group
            for _, future, _, _ in group:
                if not future.cancelled():
                    future.set_exception(exc)
            return
        for (_, future, _, _), outcome in zip(group, outcomes):
            if future.cancelled():
                continue
            if isinstance(outcome, BaseException):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

    def _run_group(self, group: list[_Pending],
                   flush_context: SpanContext | None,
                   batch_size: int) -> list:
        """Synchronous worker body: one store lookup for the whole group,
        then every request priced on the shared session.  Per-request
        failures (e.g. a profile naming stray agents) stay per-request —
        they must not poison the rest of the batch."""
        started = time.perf_counter()
        first, _, _, first_stages = group[0]
        # The group-shared store lookup is one ``build`` leg, timed in the
        # *first* request's trace (it is shared work — duplicating it
        # into every trace would overcount the critical path) and copied
        # into every request's log line.
        with first_stages.stage("build") as build:
            entry = self.store.get(first.scenario, key=first.key,
                                   stages=build)
        link = ({"flush_trace_id": flush_context.trace_id,
                 "flush_span_id": flush_context.span_id}
                if flush_context is not None else {})
        outcomes: list = []
        for request, _, enqueued, stages in group:
            stages.seconds["build"] = first_stages.seconds["build"]
            stages.record("queue", max(0.0, started - enqueued))
            try:
                with stages.stage("execute", batch_size=batch_size, **link):
                    outcomes.append(self._run_one(entry, request))
            except Exception as exc:
                outcomes.append(exc)
        return outcomes

    @staticmethod
    def _run_one(entry: StoreEntry, request: RunRequest) -> list:
        if request.group is not None:
            # MultiGroupSession: the per-group DynamicSessions mutate
            # epoch state, so the entry lock serializes here too.
            with entry.exec_lock:
                return entry.session.run_epoch(
                    request.group, request.epoch, request.mechanism,
                    list(request.profiles))
        if request.is_dynamic:
            # DynamicSession mutates epoch state across calls; its entry
            # lock serializes executions (static sessions need no lock —
            # MulticastSession is internally thread-safe).
            with entry.exec_lock:
                return entry.session.run_epoch(
                    request.epoch, request.mechanism, list(request.profiles))
        return entry.session.run_batch(request.mechanism, list(request.profiles))

    # -- lifecycle -----------------------------------------------------------
    async def drain(self) -> None:
        """Flush anything pending and wait for all in-flight work."""
        self._flush()
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    def stats(self) -> dict:
        """Counter snapshot — one atomic read under the registry lock."""
        with self.registry.lock:
            return {
                "window": self._window,
                "max_batch": self.max_batch,
                "requests": int(self._c_requests.value),
                "batches": int(self._c_flushes.value),
                "batched_requests": int(self._c_batched.value),
                "max_batch_size": int(self._g_max_seen.value),
                "pending": len(self._pending),
            }
