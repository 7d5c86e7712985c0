"""Multi-group traces through the serving path: ``/v1/run`` with
``(group, epoch)`` must answer bit-identically to a direct
:class:`~repro.traces.session.MultiGroupSession`, one store entry hosts
every group of a scenario (their substrates share that store), and the
fleet router spreads groups over shards by the group-extended route
key."""

from __future__ import annotations

import asyncio
import json

from repro.api import result_to_dict
from repro.service import CostSharingService, ServiceClient
from repro.service.fleet import scenario_route_key
from repro.service.ring import HashRing
from repro.traces import MultiGroupSession, generate_trace

TRACE = generate_trace(n=7, groups=2, epochs=3, seed=0, handover_rate=0.3)
SPEC = TRACE.to_spec()
PROFILES = [{str(a): float(a % 3 + 1) for a in SPEC.agents()}]
INT_PROFILES = [{int(a): v for a, v in p.items()} for p in PROFILES]


def canon(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def direct_wire(group: str, epoch: int, mechanism: str) -> list[dict]:
    session = MultiGroupSession(SPEC)
    return [result_to_dict(r)
            for r in session.run_epoch(group, epoch, mechanism, INT_PROFILES)]


def test_run_endpoint_matches_direct_session_for_every_cell():
    async def go():
        client = ServiceClient(CostSharingService(batch_window=0.0))
        out = {}
        for epoch in range(SPEC.n_epochs):
            for group in SPEC.group_ids:
                status, payload = await client.run(
                    SPEC, "tree-shapley", PROFILES, epoch=epoch, group=group)
                out[(group, epoch)] = (status, payload)
        return out, client.service

    out, service = asyncio.run(go())
    for (group, epoch), (status, payload) in out.items():
        assert status == 200
        assert payload["group"] == group and payload["epoch"] == epoch
        assert canon(payload["results"]) == canon(
            direct_wire(group, epoch, "tree-shapley"))
    # Every group of the scenario lives in ONE store entry — not one
    # entry per group — and the groups' per-epoch substrates share the
    # same store: one entry per distinct materialized geometry.
    substrates = {SPEC.group_spec(group).materialize(epoch).to_json()
                  for group in SPEC.group_ids
                  for epoch in range(SPEC.n_epochs)}
    assert SPEC.to_json() in service.store
    assert all(key in service.store for key in substrates)
    assert service.store.stats()["size"] == 1 + len(substrates)


def test_batch_endpoint_mixes_groups_and_epochs():
    requests = [
        {"scenario": SPEC.to_dict(), "mechanism": "jv",
         "profiles": PROFILES, "epoch": epoch, "group": group}
        for group in SPEC.group_ids for epoch in (0, 1)]

    async def go():
        client = ServiceClient(CostSharingService(batch_window=0.01))
        status, payload = await client.request(
            "POST", "/v1/batch", {"requests": requests})
        await client.service.drain()
        return status, payload

    status, payload = asyncio.run(go())
    assert status == 200
    assert payload["count"] == len(requests)
    for request, response in zip(requests, payload["responses"]):
        assert response["status"] == 200
        body = response["body"]
        assert body["group"] == request["group"]
        assert body["epoch"] == request["epoch"]
        assert canon(body["results"]) == canon(
            direct_wire(request["group"], request["epoch"], "jv"))


def test_repeat_requests_hit_the_warm_store_entry():
    async def go():
        client = ServiceClient(CostSharingService(batch_window=0.0))
        first = await client.run(SPEC, "jv", PROFILES, epoch=1, group="g0")
        second = await client.run(SPEC, "jv", PROFILES, epoch=1, group="g0")
        other = await client.run(SPEC, "jv", PROFILES, epoch=1, group="g1")
        return first, second, other, client.service.store.stats()

    first, second, other, stats = asyncio.run(go())
    assert first[0] == second[0] == other[0] == 200
    assert canon(first[1]) == canon(second[1])
    assert first[1]["group"] == "g0" and other[1]["group"] == "g1"
    assert stats["hits"] >= 2  # the second and the g1 run reuse the entry


def test_missing_group_is_a_400_not_a_500():
    async def go():
        client = ServiceClient(CostSharingService(batch_window=0.0))
        no_group = await client.run(SPEC, "jv", PROFILES, epoch=0)
        bad_group = await client.run(SPEC, "jv", PROFILES, epoch=0,
                                     group="g9")
        return no_group, bad_group

    no_group, bad_group = asyncio.run(go())
    assert no_group[0] == 400 and "group" in no_group[1]["error"]
    assert bad_group[0] == 400 and "g9" in bad_group[1]["error"]


def test_groups_spread_across_fleet_shards():
    # With enough groups, the group-extended route key must not pin the
    # whole trace to one shard — that is the point of extending the key.
    trace = generate_trace(n=6, groups=8, epochs=1, seed=1)
    spec = trace.to_spec()
    ring = HashRing(["w0", "w1", "w2"])
    shards = set()
    for group in spec.group_ids:
        body = json.dumps({"scenario": spec.to_dict(), "mechanism": "jv",
                           "profiles": PROFILES, "group": group,
                           "epoch": 0}).encode("utf-8")
        shards.add(ring.route(scenario_route_key(body)))
    assert len(shards) >= 2


def test_static_request_hits_a_substrate_the_trace_materialized():
    """One LRU per service: the substrate a multi-group request built is
    the warm session a static request for that scenario lands on."""
    substrate = SPEC.group_spec("g0").materialize(1)

    async def go():
        client = ServiceClient(CostSharingService(batch_window=0.0))
        status, _ = await client.run(SPEC, "tree-shapley", PROFILES,
                                     epoch=1, group="g0")
        assert status == 200
        _, before = await client.stats()
        status, payload = await client.run(substrate, "tree-shapley",
                                           PROFILES)
        assert status == 200
        _, after = await client.stats()
        return payload, before["store"], after["store"]

    payload, before, after = asyncio.run(go())
    assert canon(payload["results"]) == canon(direct_wire("g0", 1, "tree-shapley"))
    assert after["hits"] == before["hits"] + 1  # the static lookup: a hit
    assert after["misses"] == before["misses"]
    assert after["substrate_sessions_built"] == 1
    assert after["substrate_sessions_shared"] == 0
    for store in (before, after):
        assert (store["hits"] + store["misses"] + store["coalesced"]
                == store["lookups"])


def test_concurrent_trace_and_static_traffic_share_one_store():
    """Multi-group cells and static requests for their substrates, all in
    flight at once on a 4-thread pool over a 2-slot store: every answer
    stays bit-identical and the lookup identities hold."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    cells = [(group, epoch) for group in SPEC.group_ids
             for epoch in range(SPEC.n_epochs)]

    async def go():
        executor = ThreadPoolExecutor(4)
        service = CostSharingService(batch_window=0.001, cache_size=2,
                                     executor=executor)
        client = ServiceClient(service)
        try:
            calls = []
            for _ in range(3):
                for group, epoch in cells:
                    calls.append(client.run(SPEC, "tree-shapley", PROFILES,
                                            epoch=epoch, group=group))
                    calls.append(client.run(
                        SPEC.group_spec(group).materialize(epoch),
                        "tree-shapley", PROFILES))
            answers = await asyncio.wait_for(asyncio.gather(*calls), 60.0)
            _, stats = await client.stats()
        finally:
            executor.shutdown(wait=True)
        return answers, stats["store"]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        answers, store = asyncio.run(go())
    finally:
        sys.setswitchinterval(interval)
    expected = [canon(direct_wire(group, epoch, "tree-shapley"))
                for group, epoch in cells]
    for i, (status, payload) in enumerate(answers):
        assert status == 200
        assert canon(payload["results"]) == expected[(i // 2) % len(cells)]
    assert (store["hits"] + store["misses"] + store["coalesced"]
            == store["lookups"])
    # Substrate lookups (each one built or shared) are store lookups too,
    # beside at least one lookup per flushed request group.
    substrate = store["substrate_sessions_built"] + store["substrate_sessions_shared"]
    assert 1 <= substrate < store["lookups"]
    assert store["size"] <= 2
