"""Multi-group trace-driven workloads over one shared substrate.

The package bridges the paper's one-group-at-a-time pricing and the
IGMP reality of wireless multicast (ROADMAP item 3): a frozen JSONL
trace format (:mod:`repro.traces.format`), a deterministic synthetic
generator with RSSI-style handovers (:mod:`repro.traces.generate`),
explicit-event scenario specs (:mod:`repro.traces.spec`), and the
substrate-sharing :class:`MultiGroupSession`
(:mod:`repro.traces.session`).
"""

from repro.traces.format import (
    FORMAT_NAME,
    FORMAT_VERSION,
    Trace,
    TraceError,
    TraceEvent,
)
from repro.traces.generate import generate_trace
from repro.traces.session import (
    MultiGroupSession,
    check_trace_replay,
    group_profile_spec,
    replay_trace,
)
from repro.traces.spec import MultiGroupScenarioSpec, TraceScenarioSpec

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MultiGroupScenarioSpec",
    "MultiGroupSession",
    "Trace",
    "TraceError",
    "TraceEvent",
    "TraceScenarioSpec",
    "check_trace_replay",
    "generate_trace",
    "group_profile_spec",
    "replay_trace",
]
