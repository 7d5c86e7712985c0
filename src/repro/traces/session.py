"""N concurrent groups, one substrate: shared-artifact trace replay.

A :class:`MultiGroupSession` prices every group of a
:class:`~repro.traces.spec.MultiGroupScenarioSpec` through per-group
:class:`~repro.dynamic.session.DynamicSession` replays — but all groups
draw their :class:`~repro.api.session.MulticastSession` from one
:class:`~repro.api.store.SessionStore`, keyed by the materialized epoch
scenario — a private one offline, the service's own store when served.
Groups on one substrate share the same geometry at every epoch (moves
are substrate-wide), so the network, the universal trees, the metric
closure and the memoised ``xi`` entries are built **once per distinct
substrate**, not once per group; the ``substrate_sessions_built`` /
``substrate_sessions_shared`` counters (the store's lookup outcomes,
mirrored to ``repro_trace_substrate_*_total``) make that sharing
observable and assertable.

Row content is bit-identical to fully independent cold per-group
replays — a fresh ``DynamicSession(spec.group_spec(g), incremental=False)``
per group — because every shared object is a pure function of the
materialized scenario (property-tested in
``tests/test_traces_session.py``; :func:`check_trace_replay` packages
the comparison for the CLI's ``--check``).

Per-group profiles derive from :func:`group_profile_spec`: the group id
is folded into the profile seed, so concurrent groups price
*different* utility draws (as distinct IGMP groups would) while both
the shared and the cold replay derive the identical per-group spec.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from functools import partial

from repro.api.session import MulticastSession
from repro.api.spec import MechanismSpec, ScenarioSpec, seed_from_text
from repro.api.store import SessionStore
from repro.dynamic.session import DynamicSession, epoch_payload
from repro.traces.spec import MultiGroupScenarioSpec

SUBSTRATE_CACHE_LIMIT = 8


def group_profile_spec(profile_spec, group: str):
    """The per-group profile recipe: same generator/count/scale, the
    group id folded into the seed.  Shared by :class:`MultiGroupSession`
    and the cold reference replay, so bit-identity between them is by
    construction — and two groups never price the same draws."""
    from repro.runner.spec import ProfileSpec  # late: avoids an import cycle

    if isinstance(profile_spec, Mapping):
        profile_spec = ProfileSpec.from_dict(profile_spec)
    elif profile_spec is None:
        profile_spec = ProfileSpec()
    return ProfileSpec(
        generator=profile_spec.generator, count=profile_spec.count,
        scale=profile_spec.scale,
        seed=seed_from_text(f"trace-group|{group}|seed:{profile_spec.seed}"))


class MultiGroupSession:
    """Concurrent per-group dynamic replay over one shared substrate.

    Accepts a :class:`MultiGroupScenarioSpec`, its wire mapping, or a
    :class:`~repro.traces.format.Trace`.  Per-group
    :class:`DynamicSession`\\ s are created lazily (a sharded service
    only pays for the groups it is routed), all drawing their epoch
    sessions through one ``session_factory(scenario) -> (entry, built)``
    — a :meth:`SessionStore.lookup <repro.api.store.SessionStore.lookup>`.
    The default is a private store of :data:`SUBSTRATE_CACHE_LIMIT`
    :class:`MulticastSession`\\ s; the service passes its own store's.
    """

    def __init__(self, spec, *, registry=None, session_factory=None) -> None:
        to_spec = getattr(spec, "to_spec", None)
        if to_spec is not None:  # a Trace
            spec = to_spec()
        elif isinstance(spec, Mapping):
            spec = MultiGroupScenarioSpec.from_dict(spec)
        if not isinstance(spec, MultiGroupScenarioSpec):
            raise TypeError(
                "spec must be a MultiGroupScenarioSpec, Trace, or mapping, "
                f"got {type(spec).__name__}")
        self.spec = spec
        self._registry = registry
        # The bound keeps a long handover trace (every move epoch is a new
        # substrate) from pinning dead geometries.
        self._store = None
        if session_factory is None:
            self._store = SessionStore(
                SUBSTRATE_CACHE_LIMIT,
                builder=partial(MulticastSession, registry=registry))
            session_factory = self._store.lookup
        self._lookup = session_factory
        self._lock = threading.Lock()
        self._groups: dict[str, DynamicSession] = {}
        self._counters = {"substrate_sessions_built": 0,
                          "substrate_sessions_shared": 0}
        if registry is not None:
            self._metrics = {
                "substrate_sessions_built": registry.counter(
                    "repro_trace_substrate_built_total",
                    "Substrate MulticastSessions built (one per distinct "
                    "materialized geometry)"),
                "substrate_sessions_shared": registry.counter(
                    "repro_trace_substrate_shared_total",
                    "Substrate session cache hits (a group reusing another "
                    "group's artifacts)"),
            }
            self._epoch_metric = registry.counter(
                "repro_trace_group_epochs_total",
                "Epoch pricings served per trace group", labels=("group",))
        else:
            self._metrics = self._epoch_metric = None

    def _substrate(self, scenario: ScenarioSpec) -> MulticastSession:
        """One substrate lookup, counted by the store's outcome: a lookup
        that ran the build is a build, a hit or coalesced join a share."""
        entry, built = self._lookup(scenario)
        key = ("substrate_sessions_built" if built
               else "substrate_sessions_shared")
        with self._lock:
            self._counters[key] += 1
        if self._metrics is not None:
            self._metrics[key].inc()
        return entry.session

    # -- views ---------------------------------------------------------------
    @property
    def group_ids(self) -> tuple:
        return self.spec.group_ids

    @property
    def n_epochs(self) -> int:
        return self.spec.n_epochs

    def group_session(self, group: str) -> DynamicSession:
        """The group's incremental :class:`DynamicSession` (lazy, shared
        substrate)."""
        found = self._groups.get(group)
        if found is not None:
            return found
        spec = self.spec.group_spec(group)  # raises KeyError on unknown group
        with self._lock:
            found = self._groups.get(group)
            if found is None:
                found = DynamicSession(spec, registry=self._registry,
                                       session_factory=self._substrate)
                self._groups[group] = found
            return found

    # -- pricing -------------------------------------------------------------
    def run_epoch(self, group: str, epoch: int,
                  mechanism: str | MechanismSpec, profiles) -> list:
        """Price ``profiles`` on one ``(group, epoch)`` — bit-identical
        to a cold single-group session built from
        ``spec.group_spec(group).materialize(epoch)``."""
        results = self.group_session(group).run_epoch(epoch, mechanism,
                                                      profiles)
        if self._epoch_metric is not None:
            self._epoch_metric.labels(group=group).inc()
        return results

    def epoch_row(self, group: str, epoch: int,
                  mechanism: str | MechanismSpec, profile_spec=None, *,
                  audit: bool = False) -> dict:
        """One group's epoch rendered as a replay row (wire shape of
        :func:`~repro.dynamic.session.epoch_payload`, plus ``group``)."""
        row = epoch_payload(self.group_session(group), epoch, mechanism,
                            group_profile_spec(profile_spec, group),
                            audit=audit)
        row["group"] = group
        if self._epoch_metric is not None:
            self._epoch_metric.labels(group=group).inc()
        return row

    def replay(self, mechanism: str | MechanismSpec, profiles=None, *,
               audit: bool = False, epoch_order=None) -> dict:
        """Replay every ``(group, epoch)`` cell and return the rows per
        group, each group's list ordered by epoch.

        Default execution order is lockstep — epoch-major, group-minor —
        so all groups share each substrate while it is hot.
        ``epoch_order`` overrides it with explicit ``(group, epoch)``
        pairs (every cell exactly once); row *content* is independent of
        the order (property-tested), only counters move.
        """
        cells = [(group, epoch) for epoch in range(self.n_epochs)
                 for group in self.group_ids]
        if epoch_order is not None:
            epoch_order = [(str(group), int(epoch))
                           for group, epoch in epoch_order]
            if sorted(epoch_order) != sorted(cells):
                raise ValueError(
                    "epoch_order must visit every (group, epoch) cell "
                    "exactly once")
            cells = epoch_order
        rows: dict[str, dict[int, dict]] = {g: {} for g in self.group_ids}
        for group, epoch in cells:
            rows[group][epoch] = self.epoch_row(group, epoch, mechanism,
                                                profiles, audit=audit)
        return {group: [by_epoch[epoch] for epoch in range(self.n_epochs)]
                for group, by_epoch in rows.items()}

    def counters(self) -> dict:
        """Substrate sharing totals plus each group's reuse counters.
        ``substrate_sessions_live`` is the private store's population; on a
        shared store, the distinct substrates the groups currently hold."""
        with self._lock:
            out = dict(self._counters)
        out["substrate_sessions_live"] = (
            len(self._store) if self._store is not None else
            len({id(group.live_session) for group in self._groups.values()
                 if group.live_session is not None}))
        out["groups"] = {group: dict(session.counters)
                         for group, session in sorted(self._groups.items())}
        return out

    def __repr__(self) -> str:
        return (f"MultiGroupSession(groups={len(self.group_ids)}, "
                f"epochs={self.n_epochs}, "
                f"substrates={self.counters()['substrate_sessions_live']})")


def replay_trace(spec, mechanism: str | MechanismSpec, profiles=None, *,
                 audit: bool = False, registry=None,
                 epoch_order=None) -> dict:
    """Replay a trace (or multi-group spec) end to end: per-group rows in
    epoch order plus the session's shared-artifact counters."""
    session = MultiGroupSession(spec, registry=registry)
    rows = session.replay(mechanism, profiles, audit=audit,
                          epoch_order=epoch_order)
    return {"rows": rows, "counters": session.counters()}


def check_trace_replay(spec, mechanism: str | MechanismSpec,
                       profiles=None, *, audit: bool = False) -> dict:
    """Compare shared-substrate replay against independent cold per-group
    sessions, row by row.

    Returns ``{"identical": bool, "mismatches": [(group, epoch), ...],
    "counters": ...}`` — the CLI's ``--check`` exits nonzero on any
    mismatch.  The cold side rebuilds everything per epoch per group
    (``incremental=False``, no substrate store), the strongest reference
    the dynamic layer offers.
    """
    session = MultiGroupSession(spec)
    shared = session.replay(mechanism, profiles, audit=audit)
    mismatches = []
    for group in session.group_ids:
        cold = DynamicSession(session.spec.group_spec(group),
                              incremental=False)
        spec_g = group_profile_spec(profiles, group)
        for epoch in range(session.n_epochs):
            row = epoch_payload(cold, epoch, mechanism, spec_g, audit=audit)
            row["group"] = group
            if row != shared[group][epoch]:
                mismatches.append((group, epoch))
    return {"identical": not mismatches, "mismatches": mismatches,
            "rows": shared, "counters": session.counters()}
