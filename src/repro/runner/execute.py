"""The sweep executor: expand, chunk, price, sink — serially or across
processes.

Work items sharing a scenario are grouped and dispatched together, so a
worker builds one :class:`~repro.api.session.MulticastSession` (network,
universal trees, metric closure, memoised xi caches) per scenario and
prices every mechanism of the group on it — the same sharing the PR 2
facade gives a single-process service, now fleet-wide.  A churn sweep
(:attr:`SweepSpec.churn` set) pins one
:class:`~repro.dynamic.session.DynamicSession` per scenario group
instead and replays its epochs once for the whole group — every
mechanism prices every epoch on the carried caches, and each work item
emits one row per epoch keyed ``(item, epoch)``.

Determinism is the contract: a row's content is a pure function of its
work item (profiles come from seeds *derived* from the scenario's wire
form, rows carry no timestamps), so ``run_sweep(spec, workers=4)``
produces byte-identical JSONL payloads to the serial path, modulo line
order.  Rows returned from :func:`run_sweep` are always in expansion
order (epochs ascending within an item) regardless of worker scheduling.

``audit=True`` additionally runs the paper's axiom checkers (NPT, VP,
cost recovery + the empirical budget-balance factor — see
:func:`repro.mechanism.properties.audit_profile_results`) on every row's
already-computed results and embeds the report under ``row["audit"]``;
violations are itemized per profile, so a sweep doubles as a
paper-theorem regression net at fleet scale.
"""

from __future__ import annotations

import functools
import multiprocessing
import signal
import time
from collections.abc import Callable, Sequence

import numpy as np

from repro.api.registry import available_mechanisms, registered
from repro.api.serialize import result_to_dict, summarize_results
from repro.api.session import MulticastSession
from repro.api.spec import ScenarioSpec
from repro.dynamic.session import DynamicSession, epoch_payload
from repro.dynamic.spec import DynamicScenarioSpec
from repro.engine.batch import group_consecutive
from repro.mechanism.properties import audit_profile_results
from repro.observability import default_registry
from repro.runner.sink import JSONLSink
from repro.runner.spec import ProfileSpec, SweepItem, SweepSpec

ROW_SCHEMA = 1


def _sweep_metrics():
    """Per-process sweep telemetry in the *process-local* default
    registry (a registry holds a lock, so it is never pickled to pool
    workers — each worker accumulates its own and ``metrics-dump``
    reports the serial in-process view).  Timings are observability
    only: rows never carry them, so parallel output stays byte-identical
    to serial."""
    registry = default_registry()
    return (registry.histogram(
                "repro_sweep_item_seconds",
                "Per-work-item pricing latency (seconds)",
                labels=("mechanism",)),
            registry.counter(
                "repro_sweep_rows_total", "Sweep result rows produced"))


def make_profiles(network, source: int, scenario: ScenarioSpec,
                  profile_spec: ProfileSpec) -> list[dict[int, float]]:
    """The scenario's utility profiles (identical for every mechanism and
    every execution schedule — see :meth:`ProfileSpec.derive_seed`)."""
    agents = scenario.agents()
    if profile_spec.generator == "constant":
        return [{a: profile_spec.scale for a in agents}
                for _ in range(profile_spec.count)]
    from repro.analysis.instances import random_utilities

    rng = np.random.default_rng(profile_spec.derive_seed(scenario))
    # Draw over every non-source station, then restrict: an explicit
    # ``receivers`` subset must not perturb the rng stream, so scenarios
    # without one keep byte-identical profiles across versions.
    keep = set(agents)
    return [{i: u for i, u in
             random_utilities(network, source, rng, scale=profile_spec.scale).items()
             if i in keep}
            for _ in range(profile_spec.count)]


def _item_meta(item: SweepItem) -> dict:
    scenario = item.scenario
    return {
        "schema": ROW_SCHEMA,
        "item": item.item_id,
        "layout": scenario.layout,
        "n": scenario.n_stations,
        "alpha": scenario.alpha,
        "seed": scenario.seed,
        "scenario": scenario.to_dict(),
    }


def _item_row(item: SweepItem, results: Sequence, *,
              session: MulticastSession | None = None,
              profiles: Sequence | None = None,
              audit: bool = False) -> dict:
    row = {
        **_item_meta(item),
        "mechanism": item.mechanism.to_dict(),
        "profiles": item.profiles.to_dict(),
        "profile_seed": item.profiles.derive_seed(item.scenario),
        "results": [result_to_dict(r) for r in results],
        "summary": summarize_results(results),
    }
    if audit:
        entry = registered(item.mechanism.name)
        row["audit"] = audit_profile_results(
            session.mechanism(item.mechanism), profiles, results,
            axioms=entry.guarantees, bb_bound=entry.bb_factor)
    return row


def run_item(item: SweepItem, *, audit: bool = False) -> dict:
    """Price one *static* work item from scratch (its own session) — the
    reference any grouped/parallel execution must reproduce exactly.  For
    churn items (one row per epoch) use :func:`run_dynamic_item`."""
    if isinstance(item.scenario, DynamicScenarioSpec):
        raise ValueError(
            f"{item.item_id!r} is a churn item (one row per epoch); "
            "use run_dynamic_item to replay it")
    return _run_scenario_group((item,), audit=audit)[0]


def run_dynamic_item(item: SweepItem, *, audit: bool = False) -> list[dict]:
    """Replay one churn work item from scratch: its rows in epoch order,
    byte-identical to what any sweep schedule produces for the item."""
    if not isinstance(item.scenario, DynamicScenarioSpec):
        raise ValueError(f"{item.item_id!r} is a static item; use run_item")
    return _run_scenario_group((item,), audit=audit)


def _run_scenario_group(group: tuple[SweepItem, ...], audit: bool = False) -> list[dict]:
    """Price every item of one scenario on a shared session."""
    if isinstance(group[0].scenario, DynamicScenarioSpec):
        return _run_dynamic_group(group, audit)
    h_item, c_rows = _sweep_metrics()
    session = MulticastSession(group[0].scenario, registry=default_registry())
    profiles = make_profiles(session.network, session.source,
                             group[0].scenario, group[0].profiles)
    rows = []
    for item in group:
        t0 = time.perf_counter()
        results = session.run_batch(item.mechanism, profiles)
        rows.append(_item_row(item, results, session=session,
                              profiles=profiles, audit=audit))
        h_item.labels(mechanism=item.mechanism.name).observe(
            time.perf_counter() - t0)
        c_rows.inc()
    return rows


def _run_dynamic_group(group: tuple[SweepItem, ...], audit: bool) -> list[dict]:
    """Replay one churning scenario for every mechanism of the group.

    Epochs advance in the outer loop so the shared
    :class:`DynamicSession` carries its artifacts across each boundary
    exactly once, whatever the group size; rows come back item-major
    after the final sort in :func:`run_sweep`.
    """
    h_item, c_rows = _sweep_metrics()
    dyn = DynamicSession(group[0].scenario, registry=default_registry())
    rows = []
    for epoch in range(dyn.n_epochs):
        # Items of a group share one ProfileSpec (SweepSpec carries a
        # single profile recipe), so the epoch's profiles are drawn once.
        profiles = dyn.epoch_profiles(epoch, group[0].profiles)
        for item in group:
            t0 = time.perf_counter()
            payload = epoch_payload(dyn, epoch, item.mechanism, item.profiles,
                                    profiles=profiles, audit=audit)
            rows.append({**_item_meta(item), **payload})
            h_item.labels(mechanism=item.mechanism.name).observe(
                time.perf_counter() - t0)
            c_rows.inc()
    return rows


def _row_matches(row: dict, item: SweepItem, audit: bool) -> bool:
    """A stored row is reusable only when it was produced by this exact
    work item under the same audit setting.  Item ids embed the *varying*
    axes but not the spec's shared scalars (side/dim/source/tree), the
    profile recipe, or the churn model, so a sink left behind by a
    different spec — e.g. the same grid with a different churn seed —
    could collide on id alone; compare the full embedded wire state
    instead."""
    return (row.get("scenario") == item.scenario.to_dict()
            and row.get("mechanism") == item.mechanism.to_dict()
            and row.get("profiles") == item.profiles.to_dict()
            and ("audit" in row) == audit)


def _check_mechanisms(spec: SweepSpec) -> None:
    known = set(available_mechanisms())
    unknown = sorted({m.name for m in spec.mechanisms} - known)
    if unknown:
        raise ValueError(
            f"unknown mechanisms {unknown}; available: {sorted(known)}")


def _default_sigterm() -> None:
    """Pool-worker initializer: let SIGTERM kill the worker outright.

    A forked worker inherits any Python-level SIGTERM handler of its
    parent.  Python runs such a handler only between bytecodes, so a
    SIGTERM landing as an idle worker enters its blocking wait on the
    task-queue lock is lost — and ``Pool.terminate`` then joins that
    worker forever.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def run_sweep(
    spec: SweepSpec,
    *,
    workers: int = 1,
    out: str | None = None,
    resume: bool = False,
    audit: bool = False,
    progress: Callable[[dict], None] | None = None,
) -> list[dict]:
    """Run the whole grid and return its rows in expansion order.

    ``workers > 1`` distributes scenario groups over a process pool (each
    group keeps its one-session-per-scenario reuse); outputs are
    byte-identical to ``workers=1``.  With ``out`` every row is appended
    to a JSONL sink as it completes; ``resume=True`` additionally skips
    items already present in the sink (after truncating any partial tail
    line) and folds their stored rows into the returned list.  ``audit``
    embeds the per-row axiom audit (and makes rows from audit-less sweeps
    non-reusable on resume, since their bytes differ).

    Churn sweeps emit one row per ``(item, epoch)``.  Resume is
    all-or-nothing per item: an item whose epoch block is complete and
    matching is reused wholesale; a partial block (e.g. a sweep killed
    mid-item, or a truncated tail epoch) is purged from the sink and the
    item replays from epoch 0 — incremental replay needs the carried
    state anyway, and rows are pure functions of the item, so the rerun
    reproduces the purged rows byte-for-byte.

    ``progress`` (if given) is called with each freshly-computed row, in
    completion order.
    """
    _check_mechanisms(spec)
    items = spec.expand()
    epochs = spec.churn.epochs if spec.churn is not None else None
    order = {item.item_id: idx for idx, item in enumerate(items)}
    by_id = {item.item_id: item for item in items}

    def item_keys(item: SweepItem) -> list[tuple]:
        if epochs is None:
            return [(item.item_id, None)]
        return [(item.item_id, epoch) for epoch in range(epochs)]

    sink = JSONLSink(out) if out is not None else None
    completed: dict[tuple, dict] = {}
    try:
        if sink is not None:
            stored = sink.start(resume=resume)
            kept: dict[tuple, dict] = {}
            for row in stored:
                item = by_id.get(row.get("item"))
                if item is None or not _row_matches(row, item, audit):
                    continue
                key = (row["item"], row.get("epoch"))
                if key not in kept:
                    kept[key] = row
            for item in items:
                keys = item_keys(item)
                if all(key in kept for key in keys):
                    for key in keys:
                        completed[key] = kept[key]
            if len(completed) != len(stored):
                # Stale/foreign/partial-epoch rows (another spec's sink, a
                # changed churn seed, or a mid-item crash) must not
                # survive into the final file.
                sink.rewrite(list(completed.values()))
        todo = [item for item in items if item_keys(item)[0] not in completed]
        groups = group_consecutive(todo, key=lambda item: item.scenario)

        fresh: list[dict] = []

        def collect(rows: list[dict]) -> None:
            for row in rows:
                fresh.append(row)
                if sink is not None:
                    sink.write(row)
                if progress is not None:
                    progress(row)

        run_group = functools.partial(_run_scenario_group, audit=audit)
        n_workers = max(1, min(int(workers), len(groups)))
        if n_workers <= 1:
            for group in groups:
                collect(run_group(group))
        else:
            with multiprocessing.Pool(n_workers,
                                      initializer=_default_sigterm) as pool:
                for rows in pool.imap_unordered(run_group, groups):
                    collect(rows)
    finally:
        if sink is not None:
            sink.close()

    merged = list(completed.values()) + fresh
    merged.sort(key=lambda row: (order[row["item"]], row.get("epoch") or 0))
    return merged
