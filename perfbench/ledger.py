"""The traced run: the per-layer ledger of one workload.

Three parts, all measured from outside the program (calls into public
entries, ``/v1/stats`` scrapes), with every call wrapped in a
benchmark-side span:

1. **Replay.**  The workload's own traffic on a fresh system: closed-loop
   windows alternate untraced and traced (``observability.trace_overhead``
   is traced / untraced throughput), then the open-loop phase runs with
   spans on.  ``/v1/stats`` before and after gives the service counters
   and the stage times the open-loop latency breaks into.
2. **Ladder.**  A fixed seeded sample of the workload's requests goes
   through every layer's public entry with identical inputs, one request
   at a time: engine builders, ``mechanism.run``, ``MulticastSession.run``,
   ``MultiGroupSession.run_epoch``, parse and serialize,
   ``CostSharingService.dispatch``, HTTP to one server and HTTP via a
   2-worker router.  Adjacent rung medians differ by that layer's self
   time.
3. **Runner.**  ``run_item`` per mechanism and serial vs 2-worker
   ``run_sweep`` on the workload's geometry family.

``sweep-jv`` has no server of its own, so its service counters come from
the ladder's single server.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import time

import numpy as np

import timed
from inputs import (LEDGER_MECHANISMS, SERVED_MECHANISM, UTILITY_SCALE, Key,
                    ServedInputs, lift, sweep_spec)
from measure import Spans, derive_seed, median
from oracle import check_served, cold_results, normalized
from repro.api import MulticastSession
from repro.core.jv_steiner import metric_closure_matrix
from repro.runner import run_item, run_sweep
from repro.runner.execute import make_profiles
from repro.service import CostSharingService
from repro.service.fleet import scenario_route_key
from repro.service.protocol import parse_body, parse_run_request, run_payload
from repro.traces import MultiGroupSession
from repro.wireless import UniversalTree
from system import Server, drive, post

SAMPLE = 8          # requests in the ladder sample
REPS = 4            # distinct bid profiles per sampled request
RUNNER_ITEMS = 2    # run_item calls per mechanism
XI_REPLAY = 300     # closed-loop requests replayed in-process for the xi memo
OVERHEAD_WINDOWS = 4  # alternating untraced/traced sweep passes
STAGES = ("parse", "queue", "build", "execute", "serialize")


# -- the ladder sample -------------------------------------------------------------
class Sample:
    """One sampled request: its key, mechanism, warm-up bids, the bids of
    each repetition (identical for every rung) and the bids sent straight
    to the owning fleet worker."""

    def __init__(self, key: Key, mechanism: str, warm, reps, direct) -> None:
        self.key, self.mechanism = key, mechanism
        self.warm, self.reps, self.direct = warm, reps, direct

    def body(self, bids) -> bytes:
        return self.key.body(bids, self.mechanism)


def ladder_sample(workload: str, seed: int) -> list[Sample]:
    if workload != "sweep-jv":
        inputs = ServedInputs(workload, seed)
        return [Sample(inputs.keys[inputs.key_index("ledger", i)], SERVED_MECHANISM,
                       inputs.bids("ledger-warm", i),
                       [inputs.bids("ledger", i * REPS + j) for j in range(REPS)],
                       [inputs.bids("ledger-direct", i * REPS + j) for j in range(REPS)])
                for i in range(SAMPLE)]
    items = sweep_spec(workload, seed).expand()
    rng = np.random.default_rng(derive_seed(workload, seed, "ledger"))
    samples = []
    for index in sorted(rng.choice(len(items), SAMPLE, replace=False)):
        item = items[index]
        scenario = item.scenario
        agents = tuple(scenario.agents())
        profiles = make_profiles(scenario.build_network(), scenario.source,
                                 scenario, item.profiles)
        bids = [np.array([p[a] for a in agents]) for p in profiles]
        key = Key(scenario, scenario.to_json(), scenario, agents)
        # Bids beyond the sweep's own profiles are drawn fresh.
        extra = np.random.default_rng([derive_seed(workload, seed, "ledger-direct"),
                                       int(index)])
        direct = [extra.uniform(0.0, UTILITY_SCALE, len(agents)) for _ in range(REPS)]
        samples.append(Sample(key, item.mechanism.name, bids[REPS], bids[:REPS], direct))
    return samples


# -- stats scraping ----------------------------------------------------------------
def _shards(stats: dict) -> list[dict]:
    shards = stats.get("shards")
    return list(shards.values()) if shards else [stats]


def counters(stats: dict) -> dict:
    """The additive service counters of a (single or fleet) stats payload."""
    out = {"store": {}, "batcher": {}, "rejected": 0, "stage": {}, "proxied": {}}
    for shard in _shards(stats):
        for key in ("lookups", "hits", "misses", "evictions", "coalesced",
                    "substrate_sessions_built", "substrate_sessions_shared"):
            out["store"][key] = out["store"].get(key, 0) + shard["store"].get(key, 0)
        for key in ("requests", "batches"):
            out["batcher"][key] = out["batcher"].get(key, 0) + shard["batcher"][key]
        out["rejected"] += shard["http"]["rejected"]
        family = shard.get("metrics", {}).get("repro_stage_seconds", {})
        for series in family.get("series", []):
            stage = series["labels"]["stage"]
            total, count = out["stage"].get(stage, (0.0, 0))
            out["stage"][stage] = (total + series["sum"], count + series["count"])
    out["proxied"] = dict(stats.get("fleet", {}).get("router", {}).get("proxied", {}))
    out["window_ms"] = max(shard["batcher"]["window"] for shard in _shards(stats)) * 1e3
    return out


def delta(after: dict, before: dict) -> dict:
    out = {"store": {k: v - before["store"].get(k, 0) for k, v in after["store"].items()},
           "batcher": {k: v - before["batcher"].get(k, 0)
                       for k, v in after["batcher"].items()},
           "rejected": after["rejected"] - before["rejected"],
           "proxied": {k: v - before["proxied"].get(k, 0)
                       for k, v in after["proxied"].items()},
           "window_ms": after["window_ms"], "stage": {}}
    for stage, (total, count) in after["stage"].items():
        base_total, base_count = before["stage"].get(stage, (0.0, 0))
        out["stage"][stage] = (total - base_total, count - base_count)
    return out


def stage_ms(window: dict, stage: str) -> float:
    total, count = window["stage"].get(stage, (0.0, 0))
    return total / count * 1e3 if count else 0.0


def balance(per_shard: dict) -> float:
    """Max requests per shard over the mean (1.0 = perfectly even)."""
    counts = list(per_shard.values())
    return max(counts) / (sum(counts) / len(counts)) if counts and sum(counts) else 1.0


# -- part 1: replay ------------------------------------------------------------------
def replay_served(root, out_dir, workload, seed, seconds, spans, report) -> dict:
    """Two fresh systems get the timed run's closed-loop phase, the second
    one traced, so both see the same controller dynamics; the traced one
    then serves the open-loop phase with ``/v1/stats`` scraped around it."""
    inputs = ServedInputs(workload, seed)
    closed_s, _ = timed.phase_seconds(seconds)
    offsets = inputs.arrivals(timed.OPEN_RATE[workload], timed.open_count(workload, seconds))
    log = out_dir / f"{workload}-server.log"
    rates, outcomes = {}, []
    for traced in (False, True):
        server, _, warm = timed.launch(root, workload, inputs, log)
        try:
            outcomes += warm
            before = counters(server.stats())
            parent = spans.begin("replay.closed", "closed") if traced else None
            start = time.perf_counter()
            closed, elapsed = drive(server, inputs, "closed", seconds=closed_s,
                                    spans=spans if traced else None, parent=parent)
            rates[traced] = timed.window_rate(closed, start, elapsed)
            outcomes += closed
            if not traced:
                continue
            spans.end(parent)
            middle = counters(server.stats())
            parent = spans.begin("replay.open", "open")
            opened, _ = drive(server, inputs, "open", offsets=offsets, spans=spans,
                              parent=parent)
            spans.end(parent)
            after = counters(server.stats())
        finally:
            server.stop()
    outcomes += opened
    report["attempted"] += len(outcomes)
    report["failed"] += check_served(inputs, outcomes)
    return {"overhead": rates[True] / rates[False],
            "whole": delta(after, before), "open": delta(after, middle),
            "latency": timed.latency_summary(opened),
            "open_mean_ms": float(np.mean([o.latency * 1e3 for o in opened])),
            "late_mean_ms": float(np.mean([o.late * 1e3 for o in opened]))}


def replay_sweep(spec, spans, report) -> dict:
    """Alternating untraced and traced passes (the traced ones inside a
    span); every pass must reproduce the first row for row."""
    walls = {False: [], True: []}
    reference = None
    for window in range(OVERHEAD_WINDOWS):
        traced = window % 2 == 1
        result = timed.sweep_pass(spec, spans=spans if traced else None)
        walls[traced].append(result["wall"])
        texts = [json.dumps(row, sort_keys=True) for row in result["rows"]]
        reference = reference or texts
        report["attempted"] += len(reference)
        report["failed"] += [("row", index, f"pass {window} differs from pass 0")
                             for index, (a, b) in enumerate(zip(reference, texts))
                             if a != b]
    return {"overhead": sum(walls[False]) / sum(walls[True]),
            "parallel_wall": median(walls[False] + walls[True])}


# -- part 2: the ladder --------------------------------------------------------------
def ladder(root, out_dir, workload, samples, spans, report) -> dict:
    rung = {name: [] for name in ("core", "api", "dispatch", "http", "router",
                                  "direct")}
    service = CostSharingService()
    loop = asyncio.new_event_loop()
    # One-at-a-time traffic would only teach an adaptive controller to
    # widen its window, so the ladder's single server runs with the fixed
    # default window, like the fleet's workers and in-process dispatch;
    # the controller's cost shows in the replay's stage breakdown.
    log = out_dir / f"{workload}-ladder.log"
    single = Server(root, flags=("--no-adapt",), log=log).start()
    fleet = Server(root, workers=2, log=log).start()
    conns = {"http": single.connect(), "router": fleet.connect()}
    owners: dict = {}  # shard -> connection straight to that worker
    try:
        ports = {w["shard"]: w["port"] for w in json.loads(fleet.get("/v1/fleet"))["workers"]}
        single_before, fleet_before = counters(single.stats()), counters(fleet.stats())
        # Warm every rung's state with bids no timed call uses.
        warmed, multigroup = [], {}
        for i, sample in enumerate(samples):
            key, warm_profile = sample.key, sample.key.profile(sample.warm)
            sessions = {kind: MulticastSession(key.cell) for kind in ("core", "api")}
            for session in sessions.values():
                for mechanism in LEDGER_MECHANISMS:
                    session.run(mechanism, warm_profile)
            if key.group is None:
                mg, group, epoch = MultiGroupSession(lift(key.cell)), "g0", 0
            else:
                mg = multigroup.setdefault(key.scenario_json, MultiGroupSession(key.scenario))
                group, epoch = key.group, key.epoch
            mg.run_epoch(group, epoch, sample.mechanism, [warm_profile])
            loop.run_until_complete(service.dispatch("POST", "/v1/run",
                                                     sample.body(sample.warm)))
            for conn in conns.values():
                post(conn, sample.body(sample.warm))
            warmed.append((sessions, mg, group, epoch))
        for j in range(REPS):
            for i, (sample, (sessions, mg, group, epoch)) in enumerate(zip(samples, warmed)):
                request = (i, j)
                key, bids = sample.key, sample.reps[j]
                profile, body = key.profile(bids), sample.body(bids)
                net, _ = spans.timed("engine.network", request, key.cell.build_network)
                spans.timed("engine.tree", request,
                            lambda: UniversalTree.build(net, key.cell.source, key.cell.tree))
                spans.timed("engine.closure", request, lambda: metric_closure_matrix(net))
                for mechanism in LEDGER_MECHANISMS:
                    mech = sessions["core"].mechanism(mechanism)
                    cache = sessions["core"].method_cache(mechanism)
                    calls = [
                        ("core", (lambda: mech.run(profile, method=cache))
                         if cache is not None else (lambda: mech.run(profile))),
                        ("api", lambda: sessions["api"].run(mechanism, profile))]
                    timings = {}
                    for name, call in calls[::1 if j % 2 == 0 else -1]:  # alternate order
                        label = (f"core.run.{mechanism}" if name == "core"
                                 else f"api.session_run.{mechanism}")
                        timings[name] = spans.timed(label, request, call)
                    if mechanism == sample.mechanism:
                        results = timings["api"][0]
                        rung["core"].append(timings["core"][1] * 1e3)
                        rung["api"].append(timings["api"][1] * 1e3)
                spans.timed("traces.run_epoch", request,
                            lambda: mg.run_epoch(group, epoch, sample.mechanism, [profile]))
                parsed, _ = spans.timed("service.parse", request,
                                        lambda: parse_run_request(parse_body(body)))
                spans.timed("service.serialize", request, lambda: (json.dumps(
                    run_payload(parsed, [results]), sort_keys=True) + "\n").encode())
                spans.timed("fleet.route_key", request, lambda: scenario_route_key(body))
                (status, payload, _), seconds = spans.timed(
                    "service.dispatch", request,
                    lambda: loop.run_until_complete(service.dispatch("POST", "/v1/run", body)))
                rung["dispatch"].append(seconds * 1e3)
                answers = [("api", 200, normalized([results])),
                           ("dispatch", status, json.loads(json.dumps(
                               payload.get("results")))),]
                for name, conn in conns.items():
                    (status, data, shard, _, conns[name]), seconds = spans.timed(
                        f"{name}.request", request, lambda: post(conn, body))
                    rung[name].append(seconds * 1e3)
                    answers.append((name, status, data and json.loads(data).get("results")))
                # The same layer without the router: straight to the owner,
                # with bids of its own (an exact repeat could be memoised).
                if shard not in owners:
                    owners[shard] = http.client.HTTPConnection(fleet.host, ports[shard],
                                                               timeout=60)
                direct = sample.body(sample.direct[j])
                (status, data, _, _, owners[shard]), seconds = spans.timed(
                    "fleet.direct", request, lambda: post(owners[shard], direct))
                rung["direct"].append(seconds * 1e3)
                expected = cold_results(key.cell, sample.mechanism, [profile])
                expected_direct = cold_results(key.cell, sample.mechanism,
                                               [key.profile(sample.direct[j])])
                answers = [(name, status_, got, expected) for name, status_, got in answers]
                answers.append(("direct", status, data and json.loads(data).get("results"),
                                expected_direct))
                for name, status_, got, want in answers:
                    report["attempted"] += 1
                    if status_ != 200 or got != want:
                        report["failed"].append((f"ladder.{name}", request,
                                                 f"status {status_} or cold-oracle mismatch"))
        fleet_window = delta(counters(fleet.stats()), fleet_before)
        single_window = delta(counters(single.stats()), single_before)
    finally:
        for conn in (*conns.values(), *owners.values()):
            conn.close()
        single.stop()
        fleet.stop()
        loop.run_until_complete(service.drain())
        loop.close()
    return {"rung": {name: median(values) for name, values in rung.items()},
            "fleet_window": fleet_window, "single_window": single_window}


def multigroup_bodies(seed, spans) -> None:
    """Parse and route-key the ~35 KB multi-group request bodies of the
    seed's handover trace, whatever the workload, so the router's re-keying
    and the worker's parse of such bodies are always on the ledger."""
    inputs = ServedInputs("serve-trace", seed)
    for index in range(SAMPLE * REPS):
        _, body = inputs.request("ledger", index)
        spans.timed("service.parse_multigroup", index,
                    lambda: parse_run_request(parse_body(body)))
        spans.timed("fleet.route_key_multigroup", index, lambda: scenario_route_key(body))


# -- part 3: runner and the xi memo ----------------------------------------------------
def runner(workload, seed, spans, parallel_wall=None) -> dict:
    spec = sweep_spec(workload, seed)
    items = spec.expand()
    rng = np.random.default_rng(derive_seed(workload, seed, "runner"))
    item_ms = {}
    for mechanism in LEDGER_MECHANISMS:
        pool = [item for item in items if item.mechanism.name == mechanism]
        chosen = rng.choice(len(pool), RUNNER_ITEMS, replace=False)
        item_ms[mechanism] = median(
            spans.timed(f"runner.item.{mechanism}", pool[k].item_id,
                        lambda k=k: run_item(pool[k]))[1] * 1e3 for k in chosen)
    _, serial = spans.timed("runner.run_sweep.serial", "grid",
                            lambda: run_sweep(spec, workers=1))
    if parallel_wall is None:
        _, parallel_wall = spans.timed("runner.run_sweep.parallel", "grid",
                                       lambda: run_sweep(spec, workers=timed.SWEEP_WORKERS))
    return {"item_ms": item_ms,
            "efficiency": serial / (timed.SWEEP_WORKERS * parallel_wall)}


def xi_memo(workload, seed) -> tuple[float, int]:
    """Hit ratio and entries of the xi memo when the workload's stream is
    priced in-process on one session per scenario (read from
    ``cache_info()``)."""
    sessions = {}
    if workload == "sweep-jv":
        spec = sweep_spec(workload, seed)
        for scenario in spec.scenarios()[:2]:
            session = sessions.setdefault(scenario.to_json(), MulticastSession(scenario))
            profiles = make_profiles(session.network, scenario.source, scenario,
                                     spec.profiles)
            for mechanism in LEDGER_MECHANISMS:
                session.run_batch(mechanism, profiles)
    else:
        inputs = ServedInputs(workload, seed)
        for index in range(XI_REPLAY):
            key = inputs.keys[inputs.key_index("closed", index)]
            session = sessions.get(key.cell.to_json())
            if session is None:
                session = sessions[key.cell.to_json()] = MulticastSession(key.cell)
            session.run(SERVED_MECHANISM, key.profile(inputs.bids("closed", index)))
    hits = misses = 0
    for session in sessions.values():
        for method in session.cache_info()["methods"].values():
            hits, misses = hits + method["hits"], misses + method["misses"]
    return hits / (hits + misses), misses


# -- the whole traced run ----------------------------------------------------------------
def run(root, out_dir, workload: str, seed: int, seconds: float) -> dict:
    spans = Spans()
    report = {"attempted": 0, "failed": []}
    samples = ladder_sample(workload, seed)
    if workload == "sweep-jv":
        replayed = replay_sweep(sweep_spec(workload, seed), spans, report)
    else:
        replayed = replay_served(root, out_dir, workload, seed, seconds, spans, report)
    laddered = ladder(root, out_dir, workload, samples, spans, report)
    multigroup_bodies(seed, spans)
    ran = runner(workload, seed, spans, replayed.get("parallel_wall"))
    xi_ratio, xi_entries = xi_memo(workload, seed)
    spans.write(out_dir / f"spans-{workload}-{seed}.jsonl")

    served = workload != "sweep-jv"
    window = replayed["whole"] if served else laddered["single_window"]
    stages = replayed["open"] if served else laddered["single_window"]
    shards = window["proxied"] if workload == "serve-trace" else laddered["fleet_window"]["proxied"]
    r = laddered["rung"]
    med = {name: median(spans.durations_ms(name))
           for name in {record["name"] for record in spans.records}}
    store = window["store"]
    metrics = {
        "engine.network_ms": (med["engine.network"], "ms"),
        "engine.tree_ms": (med["engine.tree"], "ms"),
        "engine.closure_ms": (med["engine.closure"], "ms"),
        **{f"core.run_ms.{m}": (med[f"core.run.{m}"], "ms") for m in LEDGER_MECHANISMS},
        **{f"api.session_run_ms.{m}": (med[f"api.session_run.{m}"], "ms")
           for m in LEDGER_MECHANISMS},
        "api.xi_hit_ratio": (xi_ratio, "ratio"),
        "api.xi_entries": (xi_entries, "count"),
        "traces.run_epoch_ms": (med["traces.run_epoch"], "ms"),
        "traces.substrate_built": (store["substrate_sessions_built"], "count"),
        "traces.substrate_shared": (store["substrate_sessions_shared"], "count"),
        "service.parse_ms": (med["service.parse"], "ms"),
        "service.serialize_ms": (med["service.serialize"], "ms"),
        "service.parse_multigroup_ms": (med["service.parse_multigroup"], "ms"),
        "service.dispatch_ms": (r["dispatch"], "ms"),
        "service.dispatch_tax_ms": (r["dispatch"] - r["api"], "ms"),
        "service.batch_occupancy": (window["batcher"]["requests"]
                                    / max(1, window["batcher"]["batches"]), "count"),
        **{f"service.stage.{s}_ms": (stage_ms(stages, s), "ms") for s in STAGES},
        "service.store_hit_ratio": (store["hits"] / max(1, store["lookups"]), "ratio"),
        "service.store_evictions": (store["evictions"], "count"),
        "service.store_coalesced": (store["coalesced"], "count"),
        "service.rejected_429": (window["rejected"], "count"),
        "http.request_ms": (r["http"], "ms"),
        "http.overhead_ms": (r["http"] - r["dispatch"], "ms"),
        "fleet.route_key_ms": (med["fleet.route_key"], "ms"),
        "fleet.route_key_multigroup_ms": (med["fleet.route_key_multigroup"], "ms"),
        "fleet.hop_ms": (r["router"] - r["direct"], "ms"),
        "fleet.shard_balance": (balance(shards), "ratio"),
        **{f"runner.item_ms.{m}": (ran["item_ms"][m], "ms") for m in LEDGER_MECHANISMS},
        "runner.parallel_efficiency": (ran["efficiency"], "ratio"),
        "observability.trace_overhead": (replayed["overhead"], "ratio"),
    }
    lines = ledger_lines(workload, r, stages, replayed)
    info = {"ladder_requests": len(samples), "ladder_reps": REPS,
            "spans": len(spans.records)}
    if served:
        latency = replayed["latency"]
        info.update({"service.batch_window_ms": round(window["window_ms"], 3),
                     "loadgen.late_p99_ms": round(latency["late_p99"], 3),
                     "loadgen.retries": latency["retries"],
                     "open_requests": latency["count"]})
    return {"metrics": metrics, "attempted": report["attempted"],
            "failed": report["failed"], "info": info, "ledger": lines}


def ledger_lines(workload, r, stages, replayed) -> list[str]:
    """The rung table (self time = this rung's median minus the one
    below; the self times add up to the top rung) and, for served
    workloads, where the open-loop latency goes."""
    chain = [("core", "mechanism.run"), ("api", "MulticastSession.run"),
             ("dispatch", "CostSharingService.dispatch"), ("http", "HTTP, one server"),
             ("router", "HTTP via 2-worker router")]
    lines = ["ledger: rung                         median_ms    self_ms"]
    below = 0.0
    for name, label in chain:
        lines.append(f"ledger: {label:<28} {r[name]:>10.4f} {r[name] - below:>10.4f}")
        below = r[name]
    total = sum(r[name] - prev for (name, _), prev in
                zip(chain, [0.0] + [r[n] for n, _ in chain[:-1]]))
    lines.append(f"ledger: self times sum to {total:.4f} ms; top rung median "
                 f"{r['router']:.4f} ms; trace overhead "
                 f"{replayed['overhead']:.4f}")
    if workload != "sweep-jv":
        parts = {"generator lateness": replayed["late_mean_ms"],
                 **{s: stage_ms(stages, s) for s in STAGES}}
        parts["http and transport"] = replayed["open_mean_ms"] - sum(parts.values())
        lines.append(f"ledger: open-loop mean {replayed['open_mean_ms']:.3f} ms = "
                     + " + ".join(f"{s} {v:.3f}" for s, v in parts.items())
                     + f" (queue includes the batch window, now "
                     f"{stages['window_ms']:.3f} ms)")
    return lines
