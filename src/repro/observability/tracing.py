"""Distributed request spans: follow one request across the fleet.

``repro.traces`` replays *workload* traces (IGMP-like group/handover
histories).  This module is the other kind of trace — **request spans**
in the OpenTelemetry sense: one priced request crosses a router hop, a
worker's parse, a micro-batch queue, a shared flush, possibly a cold
session build, the mechanism execution and the serialization, and a
span records each leg with enough identity to stitch the journey back
together from per-process JSONL logs.

Three pieces, stdlib-only like the rest of the observability layer:

* the **span model** — :class:`Span` (``trace_id``/``span_id``/
  ``parent_id``, name, wall-clock start, duration, status, and a
  *closed* attribute set: :data:`SPAN_ATTRIBUTE_KEYS` is the schema,
  unknown keys are a programming error, so span logs stay joinable
  across PRs) and :class:`SpanContext` (the propagatable identity pair,
  rendered to/from a W3C ``traceparent``-style header via
  :meth:`SpanContext.traceparent` / :func:`parse_traceparent`).
* the **recorder** — :class:`SpanRecorder`, thread-safe, holding a
  bounded in-memory ring (what ``/v1/stats`` exemplars read) and
  optionally exporting every finished span as one compact JSON line;
  ``repro_spans_exported_total`` / ``repro_spans_dropped_total`` count
  the export story in the injected registry.  The disabled default is
  :data:`NULL_SPAN_RECORDER` — every operation a no-op, so the serving
  path costs nothing when tracing is off and responses stay
  bit-identical either way (tracing watches, it never feeds back).
* the **report** — :func:`load_span_logs` / :func:`span_forest` /
  :func:`span_report` reconstruct trace trees from one or many span
  logs (order-independent: shuffled lines rebuild the same forest) and
  summarize per-stage critical paths and per-shard exemplar traces;
  ``python -m repro spans report`` renders it.

Batch flushes deserve a note: the requests sharing one flush belong to
*different* traces, so the flush span cannot be a tree parent.  It is
recorded as a root span in its own trace, and every batched request's
``execute`` span carries ``flush_trace_id``/``flush_span_id`` link
attributes (OpenTelemetry span links, flattened) — the shared flush
ancestor the property tests assert through.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable

from repro.observability.metrics import MetricsRegistry

__all__ = [
    "NULL_SPAN_RECORDER",
    "SPAN_ATTRIBUTE_KEYS",
    "Span",
    "SpanContext",
    "SpanRecorder",
    "NullSpanRecorder",
    "load_span_logs",
    "parse_traceparent",
    "render_span_report",
    "span_forest",
    "span_report",
]

SPAN_SCHEMA = 1

TRACEPARENT_VERSION = "00"
TRACE_ID_HEX = 32
SPAN_ID_HEX = 16

# The closed attribute schema.  Spans may carry these keys and no
# others — a typo'd key raises instead of silently forking the log
# schema, which is what keeps multi-PR span logs joinable.
SPAN_ATTRIBUTE_KEYS = frozenset({
    "method", "path", "shard",                      # where the span ran
    "scenario", "mechanism", "profiles",            # what it priced
    "epoch", "group",                               # dynamic/multi-group
    "status_code", "error",                         # how it ended
    "requests", "batch_size",                       # flush occupancy
    "flush_trace_id", "flush_span_id",              # span links to the flush
})

# Stage spans a request trace may contain, in pipeline order — the
# report's critical-path breakdown sums these names.
STAGE_SPAN_NAMES = ("parse", "queue", "build", "execute", "serialize",
                    "session_build")


def _random_hex(n_hex: int) -> str:
    return os.urandom(n_hex // 2).hex()


def _check_attributes(attributes: dict | None) -> dict:
    if not attributes:
        return {}
    for key, value in attributes.items():
        if key not in SPAN_ATTRIBUTE_KEYS:
            raise ValueError(
                f"unknown span attribute {key!r} (the schema is closed; "
                f"allowed: {sorted(SPAN_ATTRIBUTE_KEYS)})")
        if value is not None and not isinstance(value, (str, int, float, bool)):
            raise ValueError(
                f"span attribute {key!r} must be a JSON scalar, "
                f"got {type(value).__name__}")
    return dict(attributes)


@dataclass(frozen=True)
class SpanContext:
    """The propagatable identity of a span: what crosses the wire."""

    trace_id: str
    span_id: str

    def traceparent(self) -> str:
        """The W3C-style header value: ``00-<trace>-<span>-01``."""
        return (f"{TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}-01")


def parse_traceparent(text: str | None) -> SpanContext | None:
    """The :class:`SpanContext` a ``traceparent`` header names, or
    ``None`` for a missing/malformed header (an unreadable header must
    degrade to "start a fresh trace", never to an error response)."""
    if not text:
        return None
    parts = text.strip().split("-")
    if len(parts) != 4 or parts[0] != TRACEPARENT_VERSION:
        return None
    _, trace_id, span_id, _flags = parts
    if len(trace_id) != TRACE_ID_HEX or len(span_id) != SPAN_ID_HEX:
        return None
    try:
        int(trace_id, 16), int(span_id, 16)
    except ValueError:
        return None
    if trace_id == "0" * TRACE_ID_HEX or span_id == "0" * SPAN_ID_HEX:
        return None
    return SpanContext(trace_id=trace_id, span_id=span_id)


@dataclass(frozen=True)
class Span:
    """One finished span — the unit a span log holds per line."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start: float          # wall-clock seconds (time.time epoch)
    duration: float       # seconds
    status: str = "ok"    # "ok" | "error"
    attributes: dict = field(default_factory=dict)

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_dict(self) -> dict:
        record = {
            "schema": SPAN_SCHEMA,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "name": self.name,
            "start": round(self.start, 6),
            "duration_ms": round(self.duration * 1e3, 3),
            "status": self.status,
        }
        if self.parent_id is not None:
            record["parent_id"] = self.parent_id
        if self.attributes:
            record["attributes"] = dict(sorted(self.attributes.items()))
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        if not isinstance(record, dict):
            raise ValueError(f"span record must be an object, got "
                             f"{type(record).__name__}")
        try:
            return cls(
                trace_id=str(record["trace_id"]),
                span_id=str(record["span_id"]),
                parent_id=(str(record["parent_id"])
                           if record.get("parent_id") is not None else None),
                name=str(record["name"]),
                start=float(record["start"]),
                duration=float(record["duration_ms"]) / 1e3,
                status=str(record.get("status", "ok")),
                attributes=_check_attributes(record.get("attributes")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed span record: {exc}") from exc


class ActiveSpan:
    """A span being measured: a mutable handle plus context manager.

    ``set`` attaches attributes (validated against the closed schema),
    ``finish`` stops the clock and hands the finished :class:`Span` to
    the recorder — idempotent, so explicit finishes compose with the
    ``with`` form, and an exception inside the block marks the span
    ``status="error"`` with the exception text before re-raising."""

    __slots__ = ("_recorder", "name", "context", "parent_id", "start",
                 "_t0", "attributes", "status", "_finished")

    def __init__(self, recorder: "SpanRecorder", name: str,
                 context: SpanContext, parent_id: str | None,
                 attributes: dict) -> None:
        self._recorder = recorder
        self.name = name
        self.context = context
        self.parent_id = parent_id
        self.attributes = attributes
        self.status = "ok"
        self.start = recorder._clock()
        self._t0 = time.perf_counter()
        self._finished = False

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    def set(self, key: str, value) -> "ActiveSpan":
        _check_attributes({key: value})
        self.attributes[key] = value
        return self

    def finish(self, status: str | None = None, *,
               duration: float | None = None) -> None:
        """Stop the clock (or take ``duration``, measured by the caller)
        and hand the finished span to the recorder."""
        if self._finished:
            return
        self._finished = True
        if status is not None:
            self.status = status
        if duration is None:
            duration = time.perf_counter() - self._t0
        self._recorder.record(Span(
            trace_id=self.context.trace_id, span_id=self.context.span_id,
            parent_id=self.parent_id, name=self.name, start=self.start,
            duration=duration, status=self.status,
            attributes=self.attributes))

    def __enter__(self) -> "ActiveSpan":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc is not None:
            if "error" not in self.attributes:
                try:
                    self.set("error", f"{type(exc).__name__}: {exc}")
                except ValueError:  # pragma: no cover - schema is fixed
                    pass
            self.finish(status="error")
        else:
            self.finish()
        return False


class _NullSpan:
    """The disabled span: context ``None`` (nothing to propagate), every
    mutation a no-op — what :data:`NULL_SPAN_RECORDER` hands out."""

    __slots__ = ()
    context = None
    trace_id = None
    attributes: dict = {}

    def set(self, key: str, value) -> "_NullSpan":
        return self

    def finish(self, status: str | None = None, *,
               duration: float | None = None) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NULL_SPAN = _NullSpan()


class SpanRecorder:
    """Thread-safe span collection: a bounded in-memory ring plus an
    optional write-through JSONL sink.

    The ring (``limit`` most recent spans) backs ``/v1/stats`` exemplars
    and the in-process tests; with no sink attached, spans that fall off
    the ring are *lost* and counted as dropped
    (``repro_spans_dropped_total``).  With a sink every finished span is
    exported immediately (``repro_spans_exported_total``) — ring
    eviction then just bounds memory.  ``ids`` injects the identifier
    source (``(n_hex) -> hex str``) so tests get deterministic
    trace/span ids; the default draws from ``os.urandom``.
    """

    enabled = True

    def __init__(self, stream: IO[str] | None = None, *, limit: int = 2048,
                 registry: MetricsRegistry | None = None,
                 ids: Callable[[int], str] | None = None,
                 clock=time.time, close_stream: bool = False) -> None:
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self._stream = stream
        self._close_stream = close_stream
        self._clock = clock
        self._ids = ids if ids is not None else _random_hex
        self._lock = threading.Lock()
        self._ring: deque[Span] = deque(maxlen=int(limit))
        self._recorded = 0
        self._exported = 0
        self._dropped = 0
        registry = registry if registry is not None else MetricsRegistry()
        self._register(registry)

    def _register(self, registry: MetricsRegistry) -> None:
        self._c_exported = registry.counter(
            "repro_spans_exported_total", "Spans written to the span log")
        self._c_dropped = registry.counter(
            "repro_spans_dropped_total",
            "Spans lost to the bounded ring (no sink attached)")

    def use_registry(self, registry: MetricsRegistry) -> None:
        """Re-home the export counters into ``registry``, carrying the
        counts so far.  The service calls this on an injected recorder
        (which was built before the service owned a registry) so its
        ``/metrics`` scrape includes the span export story."""
        with self._lock:
            self._register(registry)
            if self._exported:
                self._c_exported.inc(self._exported)
            if self._dropped:
                self._c_dropped.inc(self._dropped)

    @classmethod
    def open(cls, path: str, **kwargs) -> "SpanRecorder":
        """``-`` or ``stderr`` export to standard error; anything else
        is appended to as a file (one JSON object per line)."""
        import sys

        if path in ("-", "stderr"):
            return cls(sys.stderr, **kwargs)
        return cls(open(path, "a", encoding="utf-8"), close_stream=True,
                   **kwargs)

    # -- creating spans ------------------------------------------------------
    def span(self, name: str, *, parent: SpanContext | None = None,
             attributes: dict | None = None) -> ActiveSpan:
        """Start measuring a span.  With ``parent`` the span continues
        that trace as a child; without, it roots a fresh trace."""
        if parent is not None:
            context = SpanContext(trace_id=parent.trace_id,
                                  span_id=self._ids(SPAN_ID_HEX))
            parent_id = parent.span_id
        else:
            context = SpanContext(trace_id=self._ids(TRACE_ID_HEX),
                                  span_id=self._ids(SPAN_ID_HEX))
            parent_id = None
        return ActiveSpan(self, name, context, parent_id,
                          _check_attributes(attributes))

    def observe(self, name: str, *, duration: float,
                parent: SpanContext | None = None,
                attributes: dict | None = None) -> Span:
        """Record a span whose duration was measured elsewhere (e.g. the
        queue leg, timed from enqueue to flush): the span ends *now* and
        started ``duration`` seconds ago."""
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = self._ids(TRACE_ID_HEX), None
        span = Span(
            trace_id=trace_id, span_id=self._ids(SPAN_ID_HEX),
            parent_id=parent_id, name=name,
            start=self._clock() - max(0.0, duration),
            duration=max(0.0, duration),
            attributes=_check_attributes(attributes))
        self.record(span)
        return span

    # -- sinking -------------------------------------------------------------
    def record(self, span: Span) -> None:
        line = None
        if self._stream is not None:
            line = json.dumps(span.to_dict(), sort_keys=True,
                              separators=(",", ":"))
        with self._lock:
            self._recorded += 1
            if (self._stream is None and self._ring.maxlen is not None
                    and len(self._ring) == self._ring.maxlen):
                self._dropped += 1
                self._c_dropped.inc()
            self._ring.append(span)
            if line is not None:
                self._stream.write(line + "\n")
                try:
                    self._stream.flush()
                except (OSError, ValueError):  # pragma: no cover - sink gone
                    pass
                self._exported += 1
                self._c_exported.inc()

    # -- reading back --------------------------------------------------------
    def recent(self, name: str | None = None) -> list[Span]:
        """The ring's spans, oldest first (optionally one name only)."""
        with self._lock:
            spans = list(self._ring)
        if name is None:
            return spans
        return [span for span in spans if span.name == name]

    def stats_payload(self) -> dict:
        """The ``/v1/stats`` block: export counters plus exemplar trace
        ids for the p50/p95/max recent request spans — the ids an
        operator greps the span logs for."""
        with self._lock:
            spans = list(self._ring)
            payload = {
                "enabled": True,
                "recorded": self._recorded,
                "exported": self._exported,
                "dropped": self._dropped,
            }
        requests = sorted((span for span in spans if span.name == "request"),
                          key=lambda span: span.duration)
        if requests:
            def pick(quantile: float) -> dict:
                index = min(len(requests) - 1,
                            max(0, round(quantile * (len(requests) - 1))))
                span = requests[index]
                return {"trace_id": span.trace_id,
                        "ms": round(span.duration * 1e3, 3)}

            payload["exemplars"] = {"p50": pick(0.50), "p95": pick(0.95),
                                    "max": pick(1.0)}
        return payload

    def close(self) -> None:
        if self._close_stream and self._stream is not None:
            try:
                self._stream.close()
            except OSError:  # pragma: no cover - teardown best-effort
                pass


class NullSpanRecorder:
    """Tracing disabled: every operation a no-op, every span the
    contextless :data:`NULL_SPAN` — the serving default."""

    enabled = False

    def span(self, name: str, *, parent=None, attributes=None) -> _NullSpan:
        return NULL_SPAN

    def observe(self, name: str, *, duration: float, parent=None,
                attributes=None) -> None:
        return None

    def record(self, span) -> None:
        return None

    def recent(self, name: str | None = None) -> list:
        return []

    def stats_payload(self) -> dict:
        return {"enabled": False}

    def use_registry(self, registry) -> None:
        return None

    def close(self) -> None:
        return None


NULL_SPAN_RECORDER = NullSpanRecorder()


# -- reconstruction: logs -> forest -> report ---------------------------------

def read_span_lines(lines: Iterable[str]) -> tuple[list[Span], int]:
    """Parse JSONL span lines; returns ``(spans, malformed_count)`` —
    a torn tail line (the process died mid-write) must not sink the
    whole report."""
    spans: list[Span] = []
    malformed = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            spans.append(Span.from_dict(json.loads(line)))
        except ValueError:
            malformed += 1
    return spans, malformed


def load_span_logs(paths: Iterable[str]) -> tuple[list[Span], int]:
    """Read one or many span logs into ``(spans, malformed_count)``."""
    spans: list[Span] = []
    malformed = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            part, bad = read_span_lines(handle)
        spans.extend(part)
        malformed += bad
    return spans, malformed


@dataclass
class TraceTree:
    """One reconstructed trace: its spans, the parent->children edges,
    and any parent ids referenced but absent (a broken trace)."""

    trace_id: str
    spans: dict[str, Span] = field(default_factory=dict)
    children: dict[str | None, list[str]] = field(default_factory=dict)
    missing_parents: set = field(default_factory=set)

    @property
    def roots(self) -> list[Span]:
        return [self.spans[span_id]
                for span_id in self.children.get(None, [])]

    @property
    def complete(self) -> bool:
        return not self.missing_parents

    def child_spans(self, span_id: str) -> list[Span]:
        return [self.spans[child] for child in self.children.get(span_id, [])]


def span_forest(spans: Iterable[Span]) -> dict[str, TraceTree]:
    """Group spans into per-trace trees.  The construction is a pure
    function of the span *set* — input order never matters, so shuffled
    or interleaved multi-process logs rebuild the identical forest
    (property-tested).  Duplicate span ids keep the first occurrence."""
    forest: dict[str, TraceTree] = {}
    for span in sorted(spans, key=lambda s: (s.trace_id, s.start, s.span_id)):
        tree = forest.setdefault(span.trace_id, TraceTree(span.trace_id))
        if span.span_id in tree.spans:
            continue
        tree.spans[span.span_id] = span
    for tree in forest.values():
        for span_id in sorted(tree.spans):
            span = tree.spans[span_id]
            parent = span.parent_id
            if parent is not None and parent not in tree.spans:
                tree.missing_parents.add(parent)
            tree.children.setdefault(parent, []).append(span_id)
        for child_ids in tree.children.values():
            child_ids.sort(key=lambda sid: (tree.spans[sid].start, sid))
    return forest


def _percentile_span(ordered: list[Span], quantile: float) -> Span:
    index = min(len(ordered) - 1, max(0, round(quantile * (len(ordered) - 1))))
    return ordered[index]


def span_report(spans: list[Span], *, malformed: int = 0,
                files: int = 0) -> dict:
    """Everything ``spans report`` prints, as data: forest shape,
    per-stage critical-path breakdown over request traces, per-shard
    exemplar traces (p50/p95/max), flush sharing, and well-formedness
    problems (missing parents, dangling flush links)."""
    forest = span_forest(spans)
    request_spans = [span for span in spans if span.name == "request"]

    # -- stage breakdown over request traces --------------------------------
    stage_totals: dict[str, float] = {}
    stage_samples: dict[str, list[float]] = {}
    for span in spans:
        if span.name in STAGE_SPAN_NAMES:
            stage_totals[span.name] = (stage_totals.get(span.name, 0.0)
                                       + span.duration)
            stage_samples.setdefault(span.name, []).append(span.duration)
    stage_sum = sum(stage_totals.values())
    stages = {}
    for name in STAGE_SPAN_NAMES:
        samples = sorted(stage_samples.get(name, []))
        if not samples:
            continue
        stages[name] = {
            "count": len(samples),
            "total_ms": round(stage_totals[name] * 1e3, 3),
            "mean_ms": round(stage_totals[name] / len(samples) * 1e3, 3),
            "p95_ms": round(samples[min(len(samples) - 1,
                                        round(0.95 * (len(samples) - 1)))]
                            * 1e3, 3),
            "share": round(stage_totals[name] / stage_sum, 4)
            if stage_sum > 0 else 0.0,
        }

    # -- per-shard exemplars over request spans ------------------------------
    shards: dict[str, dict] = {}
    by_shard: dict[str, list[Span]] = {}
    for span in request_spans:
        shard = span.attributes.get("shard")
        if isinstance(shard, str):
            by_shard.setdefault(shard, []).append(span)
    for shard, shard_spans in sorted(by_shard.items()):
        ordered = sorted(shard_spans, key=lambda s: s.duration)
        shards[shard] = {
            "requests": len(ordered),
            **{label: {"trace_id": _percentile_span(ordered, q).trace_id,
                       "ms": round(_percentile_span(ordered, q).duration
                                   * 1e3, 3)}
               for label, q in (("p50", 0.50), ("p95", 0.95), ("max", 1.0))},
        }

    # -- cross-process traces (router + worker in one tree) ------------------
    cross_process: dict[str, int] = {}
    for tree in forest.values():
        if not tree.complete:
            continue
        tree_shards = {span.attributes.get("shard")
                       for span in tree.spans.values()
                       if span.name == "request"}
        if "router" not in tree_shards:
            continue
        for shard in tree_shards:
            if isinstance(shard, str) and shard != "router":
                cross_process[shard] = cross_process.get(shard, 0) + 1

    # -- flush sharing (span links across traces) ----------------------------
    flush_spans = {span.span_id: span for span in spans
                   if span.name == "flush"}
    linked = [span for span in spans
              if span.attributes.get("flush_span_id") is not None]
    flush_members: dict[str, int] = {}
    dangling_links = 0
    for span in linked:
        flush_id = span.attributes["flush_span_id"]
        if flush_id in flush_spans:
            flush_members[flush_id] = flush_members.get(flush_id, 0) + 1
        else:
            dangling_links += 1

    # -- well-formedness ------------------------------------------------------
    problems = []
    for trace_id, tree in sorted(forest.items()):
        if tree.missing_parents:
            problems.append(
                f"trace {trace_id}: {len(tree.missing_parents)} referenced "
                f"parent span(s) absent: {sorted(tree.missing_parents)}")
    if dangling_links:
        problems.append(
            f"{dangling_links} span(s) link to flush spans absent from "
            "the given logs")

    broken = [trace_id for trace_id, tree in sorted(forest.items())
              if not tree.complete]
    return {
        "schema": SPAN_SCHEMA,
        "files": files,
        "spans": len(spans),
        "malformed": malformed,
        "traces": len(forest),
        "complete_traces": len(forest) - len(broken),
        "broken_traces": broken,
        "requests": len(request_spans),
        "stages": stages,
        "shards": shards,
        "cross_process_traces": dict(sorted(cross_process.items())),
        "flushes": {
            "spans": len(flush_spans),
            "linked_requests": len(linked) - dangling_links,
            "shared": sum(1 for count in flush_members.values()
                          if count >= 2),
        },
        "problems": problems,
    }


def render_span_report(report: dict) -> list[str]:
    """The human rendering of :func:`span_report`."""
    out = [
        f"spans report: {report['files']} file(s), {report['spans']} spans, "
        f"{report['traces']} traces ({report['complete_traces']} complete)"
        + (f", {report['malformed']} malformed line(s)"
           if report["malformed"] else ""),
    ]
    if report["stages"]:
        out.append("critical path: " + " | ".join(
            f"{name} {stats['share'] * 100:.0f}% "
            f"(mean {stats['mean_ms']:.2f}ms p95 {stats['p95_ms']:.2f}ms "
            f"n={stats['count']})"
            for name, stats in report["stages"].items()))
    for shard, stats in report["shards"].items():
        cross = report["cross_process_traces"].get(shard)
        out.append(
            f"shard {shard}: {stats['requests']} request span(s)"
            + (f", {cross} complete cross-process trace(s)"
               if cross is not None else "")
            + "".join(f", {label} {stats[label]['ms']:.1f}ms "
                      f"[{stats[label]['trace_id']}]"
                      for label in ("p50", "p95", "max")))
    flushes = report["flushes"]
    if flushes["spans"]:
        out.append(f"flushes: {flushes['spans']} flush span(s), "
                   f"{flushes['linked_requests']} linked request(s), "
                   f"{flushes['shared']} shared by >= 2 requests")
    for problem in report["problems"]:
        out.append(f"PROBLEM: {problem}")
    if not report["problems"]:
        out.append("well-formed: every parent resolves, every flush link "
                   "lands")
    return out
