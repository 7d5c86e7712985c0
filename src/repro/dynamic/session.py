"""Incremental epoch replay: one churning scenario, many priced epochs.

A :class:`DynamicSession` replays the epochs of a
:class:`~repro.dynamic.spec.DynamicScenarioSpec` on top of the caching
:class:`~repro.api.session.MulticastSession` facade, invalidating only
what each epoch's event delta actually touches:

* ``join``/``leave`` events change *who reports positive utility* — not
  the network, not the universal trees, not the metric closure, not a
  single memoised ``xi(R)`` entry.  The session (and every artifact and
  cache inside it) is carried to the next epoch untouched.
* ``move`` events change the geometry, hence the cost matrix, hence
  everything derived from it.  The carried session is discarded and a
  fresh one is built from the epoch's materialized scenario.  (The
  invalidation is value-driven: the session is kept exactly when the
  epoch's materialized scenario — float coordinates and all — equals the
  one the session was built from.)
* identical ``(mechanism, profile)`` requests on an unchanged network
  (common under pure membership churn with repeating workloads) reuse
  the previous epoch's :class:`~repro.mechanism.base.MechanismResult`
  outright.

Outputs are bit-identical to cold per-epoch recomputation — a fresh
``MulticastSession`` per epoch over :meth:`DynamicScenarioSpec.materialize`
— because every reuse is of a pure function of unchanged inputs
(property-tested in ``tests/test_dynamic_session.py`` and
``tests/test_engine_equivalence.py``).  The per-epoch reuse counters in
:attr:`DynamicSession.counters` make the avoided work observable;
``benchmarks/bench_dynamic.py`` turns them into a measured speedup.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.api.session import MulticastSession
from repro.api.spec import MechanismSpec, ScenarioSpec, seed_from_text
from repro.dynamic.spec import ChurnSpec, DynamicScenarioSpec
from repro.mechanism.base import MechanismResult, Profile

# Per-generation cap on the (mechanism, profile) -> result memo: a
# long-lived server re-pricing one epoch under never-repeating bids must
# not accumulate a result per request (reuse is an optimisation; outputs
# are identical with or without the memo).
RESULT_MEMO_LIMIT = 4096


def epoch_profile_seed(materialized: ScenarioSpec, epoch: int, profile_spec) -> int:
    """The profile rng seed of one epoch — a pure function of the epoch's
    materialized wire form, the epoch index (fresh draws every epoch even
    when nothing moved) and the profile recipe, never of execution order.
    """
    return seed_from_text(
        f"{materialized.to_json()}|epoch:{epoch}"
        f"|profiles:{profile_spec.generator}:{profile_spec.seed}")


def make_epoch_profiles(network, source: int, materialized: ScenarioSpec,
                        active: Sequence[int], epoch: int,
                        profile_spec) -> list[dict[int, float]]:
    """One epoch's utility profiles: inactive agents report 0 (they have
    left the session), active agents draw from the generator.  Draws are
    made for *every* agent before inactives are zeroed, so an agent's
    utility trajectory does not shift when somebody else churns."""
    agents = [i for i in range(network.n) if i != source]
    active_set = set(active)
    if profile_spec.generator == "constant":
        return [{a: (profile_spec.scale if a in active_set else 0.0) for a in agents}
                for _ in range(profile_spec.count)]
    from repro.analysis.instances import random_utilities

    rng = np.random.default_rng(epoch_profile_seed(materialized, epoch, profile_spec))
    profiles = []
    for _ in range(profile_spec.count):
        drawn = random_utilities(network, source, rng, scale=profile_spec.scale)
        profiles.append({a: (drawn[a] if a in active_set else 0.0) for a in agents})
    return profiles


class DynamicSession:
    """Epoch replay over one :class:`DynamicScenarioSpec`.

    ``incremental=True`` (the default) carries every artifact whose
    inputs did not change across the epoch boundary;
    ``incremental=False`` is the cold reference — a fresh
    :class:`MulticastSession` per epoch, no cross-epoch reuse — which the
    incremental path must (and does) reproduce bit-for-bit.
    """

    def __init__(self, spec: DynamicScenarioSpec | Mapping, *,
                 incremental: bool = True, registry=None,
                 session_factory=None) -> None:
        if isinstance(spec, Mapping):
            spec = DynamicScenarioSpec.from_dict(spec)
        if not isinstance(spec, DynamicScenarioSpec):
            raise TypeError(
                f"spec must be a DynamicScenarioSpec or mapping, got {type(spec).__name__}")
        self.spec = spec
        self.incremental = bool(incremental)
        self._registry = registry
        # session_factory(scenario) -> MulticastSession lets a caller
        # supply substrate-shared sessions (repro.traces) — sessions are
        # pure functions of their scenario, so sharing one across callers
        # changes speed, never row content.
        self._session_factory = session_factory
        self._session: MulticastSession | None = None
        self._session_epoch: int | None = None
        self._max_epoch: int | None = None  # high-water mark of carried credit
        # Two-generation (mechanism, profile) -> result memo: the current
        # epoch's results plus the previous epoch's (the repeat window of
        # a churning subscription workload).  A long horizon of
        # never-repeating uniform profiles costs two epochs of results,
        # not the whole history; RESULT_MEMO_LIMIT additionally caps each
        # generation, because a *serving* workload can re-price one epoch
        # forever with fresh profiles (the rotation only fires on epoch
        # advance) — at the cap fresh results are still computed and
        # returned, just not memoised.
        self._result_memo: dict[tuple, MechanismResult] = {}
        self._result_memo_prev: dict[tuple, MechanismResult] = {}
        # What the carried counters have already credited (so each
        # distinct artifact is counted once, not once per boundary).
        self._counted_trees: set[str] = set()
        self._counted_closure = False
        self._counted_xi = 0
        self.counters = {
            "epochs_replayed": 0,
            "sessions_built": 0,
            "sessions_carried": 0,
            "trees_carried": 0,
            "closures_carried": 0,
            "xi_entries_carried": 0,
            "results_reused": 0,
        }
        # Registry mirror of the reuse counters (one counter family per
        # key); the plain dict stays authoritative either way.
        if registry is not None:
            help_by_key = {
                "epochs_replayed": "Epochs priced (carried or rebuilt)",
                "sessions_built": "Cold session rebuilds forced by moves",
                "sessions_carried": "Sessions carried across an epoch boundary",
                "trees_carried": "Universal trees that survived a boundary",
                "closures_carried": "Metric closures that survived a boundary",
                "xi_entries_carried": "Memoised xi entries that survived a boundary",
                "results_reused": "Exact (mechanism, profile) result reuses",
            }
            self._metrics = {
                key: registry.counter(f"repro_dynamic_{key}_total",
                                      help_by_key[key])
                for key in self.counters
            }
        else:
            self._metrics = None

    def _bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] += amount
        if self._metrics is not None and amount:
            self._metrics[key].inc(amount)

    # -- epoch state --------------------------------------------------------
    @property
    def n_epochs(self) -> int:
        return self.spec.n_epochs

    @property
    def churn(self) -> ChurnSpec:
        return self.spec.churn

    def state(self, epoch: int):
        return self.spec.state(epoch)

    def materialized(self, epoch: int) -> ScenarioSpec:
        return self.spec.materialize(epoch)

    @property
    def live_session(self) -> MulticastSession | None:
        """The session serving the latest epoch priced (None before any)."""
        return self._session

    # -- the incremental core ------------------------------------------------
    def session(self, epoch: int) -> MulticastSession:
        """The :class:`MulticastSession` serving ``epoch``.

        Carried from the previous epoch when the epoch's materialized
        scenario is unchanged (no move events since the session was
        built); rebuilt — and the result memo flushed — otherwise.
        """
        scenario = self.materialized(epoch)
        if (self.incremental and self._session is not None
                and self._session.scenario == scenario):
            # Only a *new* epoch (beyond the high-water mark) is an
            # advance worth crediting; replaying earlier epochs on a
            # shared session (the multi-mechanism pattern) redoes no
            # carry and must not rotate the memo or inflate counters.
            if epoch != self._session_epoch and (
                    self._max_epoch is None or epoch > self._max_epoch):
                self._max_epoch = epoch
                info = self._session.cache_info()
                self._bump("sessions_carried")
                self._bump("epochs_replayed")
                # Credit each distinct artifact the first time it crosses
                # an epoch boundary alive (misses == xi entries created).
                new_trees = set(info["trees"]) - self._counted_trees
                self._bump("trees_carried", len(new_trees))
                self._counted_trees |= new_trees
                if info["closure_built"] and not self._counted_closure:
                    self._bump("closures_carried")
                    self._counted_closure = True
                xi_entries = sum(m["misses"] for m in info["methods"].values())
                self._bump("xi_entries_carried",
                           max(0, xi_entries - self._counted_xi))
                self._counted_xi = max(self._counted_xi, xi_entries)
                # Rotate the result memo: the finished epoch becomes the
                # repeat window, the new epoch starts fresh.
                self._result_memo_prev = self._result_memo
                self._result_memo = {}
            self._session_epoch = epoch
            return self._session
        if self._session is None or epoch != self._session_epoch or (
                self._session.scenario != scenario):
            if self._session_factory is not None:
                self._session = self._session_factory(scenario)
            else:
                self._session = MulticastSession(scenario, registry=self._registry)
            self._session_epoch = epoch
            self._result_memo.clear()
            self._result_memo_prev = {}
            self._counted_trees = set()
            self._counted_closure = False
            self._counted_xi = 0
            self._max_epoch = epoch
            self._bump("sessions_built")
            self._bump("epochs_replayed")
        return self._session

    def epoch_profiles(self, epoch: int, profile_spec) -> list[dict[int, float]]:
        """The epoch's utility profiles (identical for every mechanism,
        every execution schedule, and both replay modes)."""
        session = self.session(epoch)
        return make_epoch_profiles(session.network, session.source,
                                   self.materialized(epoch),
                                   self.state(epoch).active, epoch, profile_spec)

    def run_epoch(self, epoch: int, mechanism: str | MechanismSpec,
                  profiles: Sequence[Profile]) -> list[MechanismResult]:
        """Price ``profiles`` on ``epoch`` (bit-identical to a cold
        session built from the materialized epoch scenario).

        In incremental mode, an exact ``(mechanism, profile)`` repeat on
        an unchanged network returns the memoised previous result —
        mechanisms are pure, so this is reuse, not approximation.
        """
        session = self.session(epoch)
        if not self.incremental:
            return session.run_batch(mechanism, profiles)
        mkey = (mechanism.key() if isinstance(mechanism, MechanismSpec)
                else MechanismSpec(str(mechanism)).key())
        out = []
        for profile in profiles:
            key = (mkey, tuple(sorted(profile.items())))
            found = self._result_memo.get(key)
            if found is None:
                found = self._result_memo_prev.get(key)
                if found is None:
                    found = session.run(mechanism, profile)
                else:
                    self._bump("results_reused")
                if len(self._result_memo) < RESULT_MEMO_LIMIT:
                    self._result_memo[key] = found
            else:
                self._bump("results_reused")
            out.append(found)
        return out

    def reuse_info(self) -> dict:
        """Counter snapshot plus the live session's cache diagnostics."""
        info = dict(self.counters)
        info["session"] = (self._session.cache_info()
                           if self._session is not None else None)
        return info

    def __repr__(self) -> str:
        return (f"DynamicSession(n={self.spec.n_stations}, "
                f"epochs={self.n_epochs}, "
                f"mode={'incremental' if self.incremental else 'cold'})")


def epoch_payload(dyn: DynamicSession, epoch: int,
                  mechanism: str | MechanismSpec, profile_spec, *,
                  profiles: Sequence[Profile] | None = None,
                  audit: bool = False) -> dict:
    """Price one epoch and render it as a row payload (shared by
    :func:`replay_dynamic` and the sweep executor's churn branch).

    Pure function of ``(dyn.spec, epoch, mechanism, profile_spec,
    audit)`` — reuse inside the session changes how fast the payload is
    computed, never its content.  ``profiles`` may carry the epoch's
    already-generated profiles (must equal
    ``dyn.epoch_profiles(epoch, profile_spec)``) so a caller pricing
    several mechanisms on one epoch generates them once.
    """
    from repro.api.serialize import result_to_dict, summarize_results
    from repro.mechanism.properties import audit_profile_results

    mech_spec = (mechanism if isinstance(mechanism, MechanismSpec)
                 else MechanismSpec(str(mechanism)))
    state = dyn.state(epoch)
    if profiles is None:
        profiles = dyn.epoch_profiles(epoch, profile_spec)
    results = dyn.run_epoch(epoch, mech_spec, profiles)
    row = {
        "epoch": epoch,
        "events": [event.to_dict() for event in state.events],
        "event_counts": state.event_counts(),
        "active": list(state.active),
        "carried": bool(epoch > 0 and not any(
            event.kind == "move" for event in state.events)),
        "mechanism": mech_spec.to_dict(),
        "profiles": profile_spec.to_dict(),
        "profile_seed": epoch_profile_seed(dyn.materialized(epoch), epoch, profile_spec),
        "results": [result_to_dict(r) for r in results],
        "summary": summarize_results(results),
    }
    if audit:
        from repro.api.registry import registered

        session = dyn.session(epoch)
        entry = registered(mech_spec.name)
        row["audit"] = audit_profile_results(
            session.mechanism(mech_spec), profiles, results,
            axioms=entry.guarantees, bb_bound=entry.bb_factor)
    return row


def replay_dynamic(spec: DynamicScenarioSpec | Mapping | DynamicSession,
                   mechanism: str | MechanismSpec,
                   profiles=None, *, incremental: bool | None = None,
                   audit: bool = False) -> list[dict]:
    """Replay every epoch of ``spec`` under ``mechanism`` and return one
    row dict per epoch.

    ``profiles`` is a :class:`~repro.runner.spec.ProfileSpec` (or mapping;
    default: 3 uniform profiles per epoch).  Rows carry the epoch's event
    delta, active set, derived profile seed, wire-format results and
    summary — plus, with ``audit=True``, the per-epoch axiom audit
    (:func:`~repro.mechanism.properties.audit_profile_results`).  Row
    content is a pure function of ``(spec, mechanism, profiles, audit)``:
    incremental and cold replays return identical rows.

    ``incremental`` defaults to incremental replay when a spec is given.
    Pass an existing :class:`DynamicSession` to share its caches (and its
    reuse counters) across several mechanisms — the session's own mode
    then governs, and an explicit contradictory ``incremental=`` raises
    (a "cold reference" that silently ran incrementally would vacuously
    pass any equivalence check and time the wrong path).
    """
    from repro.runner.spec import ProfileSpec  # late: avoids an import cycle

    if profiles is None:
        profiles = ProfileSpec()
    elif isinstance(profiles, Mapping):
        profiles = ProfileSpec.from_dict(profiles)
    if isinstance(spec, DynamicSession):
        if incremental is not None and incremental != spec.incremental:
            raise ValueError(
                f"incremental={incremental} contradicts the passed session's "
                f"{'incremental' if spec.incremental else 'cold'} mode")
        dyn = spec
    else:
        dyn = DynamicSession(spec, incremental=incremental is not False)
    return [epoch_payload(dyn, epoch, mechanism, profiles, audit=audit)
            for epoch in range(dyn.n_epochs)]


def trajectory_row(row: Mapping) -> dict:
    """Flatten one replay row into the per-epoch trajectory table shape
    shared by the ``dynamic`` CLI, EXP-D1 and the examples (append any
    caller-specific columns to the returned dict)."""
    return {
        "epoch": row["epoch"],
        "joins": row["event_counts"]["join"],
        "leaves": row["event_counts"]["leave"],
        "moves": row["event_counts"]["move"],
        "active": len(row["active"]),
        "receivers": row["summary"]["mean_receivers"],
        "charged": row["summary"]["mean_charged"],
        "cost": row["summary"]["mean_cost"],
        "carried": row["carried"],
    }
