"""The service's session store: one LRU for every scenario artifact.

The serving layer's warm state is the session.
:class:`~repro.api.store.SessionStore` (single-flight builds, bounded
LRU, registry counters) holds them; this module supplies the builder
that picks the session type a scenario warrants, and wires the epoch
replays to the *same* store: the per-epoch
:class:`~repro.api.session.MulticastSession`\\ s a
:class:`~repro.dynamic.session.DynamicSession` or
:class:`~repro.traces.session.MultiGroupSession` draws are store
lookups too.  Every session a server process holds therefore lives in
one LRU, under the one capacity the adaptive controller resizes, and a
static request for a scenario a trace already materialized is a hit.
"""

from __future__ import annotations

from repro.api import store as api_store
from repro.api.session import MulticastSession
from repro.api.spec import ScenarioSpec
from repro.api.store import StoreEntry, scenario_key
from repro.dynamic.session import DynamicSession
from repro.dynamic.spec import DynamicScenarioSpec
from repro.observability import MetricsRegistry
from repro.traces.session import MultiGroupSession
from repro.traces.spec import MultiGroupScenarioSpec

__all__ = ["SessionStore", "StoreEntry", "build_session", "scenario_key"]


def build_session(spec: ScenarioSpec, *, registry: MetricsRegistry | None = None,
                  store: api_store.SessionStore | None = None):
    """The session type a scenario warrants: multi-group scenarios get the
    substrate-sharing :class:`MultiGroupSession`, churn scenarios the
    incremental :class:`DynamicSession`, static ones the caching
    :class:`MulticastSession`.  With a ``registry`` the session publishes
    its artifact-build timings and cache telemetry into it; with a
    ``store`` the epoch replays draw their per-epoch sessions from it."""
    if isinstance(spec, MultiGroupScenarioSpec):
        return MultiGroupSession(
            spec, registry=registry,
            session_factory=store.lookup if store is not None else None)
    if isinstance(spec, DynamicScenarioSpec):
        return DynamicSession(
            spec, registry=registry,
            session_factory=((lambda scenario: store.get(scenario).session)
                             if store is not None else None))
    return MulticastSession(spec, registry=registry)


class SessionStore(api_store.SessionStore):
    """The service's :class:`~repro.api.store.SessionStore`, building
    with :func:`build_session`.

    With an injected ``registry`` (the service's) the sessions publish
    telemetry into it and draw their epoch substrates from this store; a
    bare store builds with the one-argument ``build_session(spec)``, so a
    one-argument stand-in for it (a test fake) keeps working.
    """

    def __init__(self, capacity: int = 64, *,
                 registry: MetricsRegistry | None = None) -> None:
        super().__init__(capacity, builder=self._build, registry=registry)
        self._session_registry = registry

    def _build(self, spec: ScenarioSpec):
        if self._session_registry is None:
            return build_session(spec)
        return build_session(spec, registry=self._session_registry, store=self)
