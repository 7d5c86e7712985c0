"""Per-request serving stages, each timed once.

A priced request passes ``parse`` → ``queue`` → ``build`` → ``execute``
→ ``serialize``.  :class:`StageRecorder` measures each leg once and fans
that one duration out to the ``repro_stage_seconds`` histogram, a child
span of the request span (a no-op when the request is untraced) and the
request log's ``stages_ms`` field, so the three cannot disagree.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.observability.tracing import NULL_SPAN, NULL_SPAN_RECORDER

__all__ = ["StageRecorder"]


class StageRecorder:
    """One request's stage timings and the sinks they fan out to.

    ``histogram`` is the :func:`~repro.observability.metrics.stage_histogram`
    family; ``context`` the request span stage spans nest under (``None``:
    untraced); ``seconds`` the legs timed so far, what the log reports.
    """

    __slots__ = ("histogram", "spans", "context", "seconds")

    def __init__(self, histogram, spans=NULL_SPAN_RECORDER, context=None,
                 seconds: dict[str, float] | None = None) -> None:
        self.histogram = histogram
        self.spans = spans if context is not None else NULL_SPAN_RECORDER
        self.context = context
        self.seconds = {} if seconds is None else seconds

    @property
    def trace_id(self) -> str | None:
        return self.context.trace_id if self.context is not None else None

    def fork(self) -> "StageRecorder":
        """A recorder for one entry of a batch request: the same request
        span, and a copy of the legs timed so far (the shared parse)."""
        return StageRecorder(self.histogram, self.spans, self.context,
                             dict(self.seconds))

    def record(self, name: str, seconds: float, **attributes) -> None:
        """Fan out a leg timed elsewhere (the queue wait)."""
        self.histogram.labels(stage=name).observe(seconds)
        self.spans.observe(name, duration=seconds, parent=self.context,
                           attributes=attributes)
        self.seconds[name] = seconds

    @contextmanager
    def stage(self, name: str, *, traced: bool = True, **attributes):
        """Time the block as stage ``name``; ``traced=False`` skips its
        span.  Yields a recorder whose spans nest under this stage's (how
        ``session_build`` lands under ``build``).  A block that raises
        records an ``error`` span, and no histogram sample or log value."""
        span = (self.spans.span(name, parent=self.context,
                                attributes=attributes)
                if traced else NULL_SPAN)
        started = time.perf_counter()
        try:
            yield StageRecorder(self.histogram, self.spans, span.context)
        except Exception as exc:
            span.set("error", f"{type(exc).__name__}: {exc}")
            span.finish(status="error",
                        duration=time.perf_counter() - started)
            raise
        seconds = time.perf_counter() - started
        span.finish(duration=seconds)
        self.histogram.labels(stage=name).observe(seconds)
        self.seconds[name] = seconds

    def span(self, name: str, **attributes):
        """A span-only child of this recorder's span."""
        return self.spans.span(name, parent=self.context,
                               attributes=attributes)

    def ms(self) -> dict[str, float]:
        """The request log's ``stages_ms`` field."""
        return {name: round(seconds * 1e3, 3)
                for name, seconds in self.seconds.items()}
