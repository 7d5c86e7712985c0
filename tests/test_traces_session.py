"""MultiGroupSession: shared-substrate replay must be bit-identical to
independent cold per-group sessions — the acceptance property of the
traces layer — while the counters prove artifacts were actually shared."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.api import result_to_dict
from repro.dynamic import DynamicSession
from repro.dynamic.session import epoch_payload
from repro.observability import MetricsRegistry
from repro.runner import ProfileSpec
from repro.traces import (
    MultiGroupSession,
    check_trace_replay,
    generate_trace,
    group_profile_spec,
    replay_trace,
)


def cold_rows(session: MultiGroupSession, group: str, mechanism: str,
              profiles=None) -> list[dict]:
    """The reference replay: a fresh cold session per group, no cache."""
    cold = DynamicSession(session.spec.group_spec(group), incremental=False)
    spec = group_profile_spec(profiles, group)
    out = []
    for epoch in range(session.n_epochs):
        row = epoch_payload(cold, epoch, mechanism, spec)
        row["group"] = group
        out.append(row)
    return out


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=40),
       groups=st.integers(min_value=1, max_value=3),
       epochs=st.integers(min_value=1, max_value=3),
       handover=st.sampled_from([0.0, 0.3]),
       mechanism=st.sampled_from(["tree-shapley", "jv"]))
def test_shared_replay_is_bit_identical_to_cold(seed, groups, epochs,
                                                handover, mechanism):
    trace = generate_trace(n=7, groups=groups, epochs=epochs, seed=seed,
                           handover_rate=handover)
    session = MultiGroupSession(trace)
    shared = session.replay(mechanism)
    for group in session.group_ids:
        assert shared[group] == cold_rows(session, group, mechanism)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=40), data=st.data())
def test_interleaved_epoch_order_changes_nothing(seed, data):
    trace = generate_trace(n=7, groups=2, epochs=3, seed=seed,
                           handover_rate=0.3)
    lockstep = MultiGroupSession(trace)
    baseline = lockstep.replay("tree-shapley")
    cells = [(group, epoch) for group in lockstep.group_ids
             for epoch in range(lockstep.n_epochs)]
    order = data.draw(st.permutations(cells))
    shuffled = MultiGroupSession(trace)
    assert shuffled.replay("tree-shapley", epoch_order=order) == baseline


def test_substrate_is_built_once_and_shared_across_groups():
    # No handovers: one geometry for the whole trace, so exactly one
    # substrate build no matter how many groups and epochs replay on it.
    trace = generate_trace(n=8, groups=3, epochs=3, seed=1,
                           handover_rate=0.0)
    session = MultiGroupSession(trace)
    session.replay("tree-shapley")
    counters = session.counters()
    assert counters["substrate_sessions_built"] == 1
    # 3 groups x 3 epochs = 9 cells; incremental sessions consult the
    # cache once per (group, epoch-with-new-geometry), everything beyond
    # the first build is a share.
    assert counters["substrate_sessions_shared"] >= 2
    assert counters["substrate_sessions_live"] == 1
    assert set(counters["groups"]) == set(session.group_ids)


def test_handovers_build_one_substrate_per_distinct_geometry():
    trace = generate_trace(n=8, groups=2, epochs=4, seed=3,
                           handover_rate=0.5)
    moves_at = [epoch for epoch, events in enumerate(trace.move_events())
                if events]
    assert moves_at, "seed 3 should produce at least one handover"
    session = MultiGroupSession(trace)
    session.replay("jv")
    built = session.counters()["substrate_sessions_built"]
    assert built == 1 + len(moves_at)


def test_replay_trace_and_check_trace_replay_agree():
    trace = generate_trace(n=7, groups=2, epochs=2, seed=5)
    replayed = replay_trace(trace, "tree-shapley")
    checked = check_trace_replay(trace, "tree-shapley")
    assert checked["identical"] is True
    assert checked["mismatches"] == []
    assert checked["rows"] == replayed["rows"]


def test_group_profiles_are_distinct_per_group_and_stable():
    base = ProfileSpec(count=2, seed=9)
    g0 = group_profile_spec(base, "g0")
    g1 = group_profile_spec(base, "g1")
    assert g0.seed != g1.seed
    assert g0.count == g1.count == 2
    assert group_profile_spec(base, "g0") == g0  # pure function
    assert group_profile_spec(base.to_dict(), "g0") == g0
    assert group_profile_spec(None, "g0").count == ProfileSpec().count


def test_session_accepts_trace_spec_and_wire_mapping():
    trace = generate_trace(n=6, groups=2, epochs=2, seed=0)
    spec = trace.to_spec()
    rows = MultiGroupSession(trace).replay("jv")
    assert MultiGroupSession(spec).replay("jv") == rows
    assert MultiGroupSession(spec.to_dict()).replay("jv") == rows
    with pytest.raises(TypeError, match="MultiGroupScenarioSpec"):
        MultiGroupSession(42)


def test_epoch_order_must_cover_every_cell_exactly_once():
    session = MultiGroupSession(generate_trace(n=6, groups=2, epochs=2,
                                               seed=0))
    with pytest.raises(ValueError, match="exactly once"):
        session.replay("jv", epoch_order=[("g0", 0)])


def test_run_epoch_matches_cold_session_run():
    trace = generate_trace(n=7, groups=2, epochs=2, seed=4)
    session = MultiGroupSession(trace)
    profiles = [{a: float(a % 3 + 1)
                 for a in trace.scenario.agents()}]
    got = session.run_epoch("g1", 1, "tree-shapley", profiles)
    cold = DynamicSession(session.spec.group_spec("g1"), incremental=False)
    reference = cold.run_epoch(1, "tree-shapley", profiles)
    assert ([result_to_dict(r) for r in got]
            == [result_to_dict(r) for r in reference])
    with pytest.raises(KeyError):
        session.run_epoch("nope", 0, "tree-shapley", profiles)


def test_substrate_cache_is_a_bounded_lru():
    from repro.api import MulticastSession, ScenarioSpec
    from repro.api.store import SessionStore

    store = SessionStore(2, builder=MulticastSession)
    specs = [ScenarioSpec(kind="random", n=5, alpha=2.0, seed=seed)
             for seed in range(3)]
    outcomes = []

    def session(spec):
        entry, built = store.lookup(spec)
        outcomes.append(built)
        return entry.session

    first = session(specs[0])
    assert session(specs[0]) is first  # hit
    session(specs[1])
    session(specs[2])  # evicts specs[0]
    assert len(store) == 2
    assert session(specs[0]) is not first  # rebuilt after eviction
    assert outcomes.count(True) == 4  # substrate_sessions_built
    assert outcomes.count(False) == 1  # substrate_sessions_shared
    stats = store.stats()
    assert (stats["misses"], stats["hits"], stats["evictions"]) == (4, 1, 2)
    with pytest.raises(ValueError, match="capacity"):
        SessionStore(-1, builder=MulticastSession)


def test_registry_counters_mirror_the_sharing():
    registry = MetricsRegistry()
    trace = generate_trace(n=7, groups=2, epochs=2, seed=2,
                           handover_rate=0.0)
    session = MultiGroupSession(trace, registry=registry)
    session.replay("jv")
    text = registry.render()
    assert "repro_trace_substrate_built_total 1" in text
    assert "repro_trace_substrate_shared_total" in text
    for gid in session.group_ids:
        assert f'repro_trace_group_epochs_total{{group="{gid}"}}' in text
