"""Workload inputs, derived from the workload seed alone.

The program under test only ever receives what these functions
generate: scenario wire forms, request bodies with bids, the open-loop
arrival schedule and the sweep grid.  Warm-up, closed-loop and
open-loop bids come from distinct seed streams, so no measured request
replays a body the warm-up sent and the xi memo's hit ratio is the
workload's own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from measure import derive_seed
from repro.api import MechanismSpec, ScenarioSpec
from repro.runner import ProfileSpec, SweepSpec
from repro.traces import MultiGroupScenarioSpec, generate_trace

N_STATIONS = 60
ALPHA = 2.0
SIDE = 8.0
UTILITY_SCALE = 10.0
HOT_KEYS = 8
ZIPF_EXPONENT = 1.1
SERVED_MECHANISM = "tree-shapley"
# The mechanisms the core/api/runner rungs of the ledger price on every
# workload, so all three workloads report the same per-layer keys.
LEDGER_MECHANISMS = ("tree-shapley", "tree-mc", "jv")
SWEEP_LAYOUTS = ("uniform", "cluster", "grid")
SWEEP_SEEDS = 4
SWEEP_PROFILES = 8
TRACE_SHAPE = {"n": N_STATIONS, "groups": 4, "epochs": 16, "handover_rate": 0.1}


@dataclass(frozen=True)
class Key:
    """One warm-able unit of served traffic: a scenario (plus, for trace
    cells, its group and epoch)."""

    scenario: ScenarioSpec   # what the request names (static or multi-group)
    scenario_json: str       # its wire form, serialized once
    cell: ScenarioSpec       # the static scenario the answer is priced on
    agents: tuple
    group: str | None = None
    epoch: int | None = None

    def body(self, bids: np.ndarray, mechanism: str = SERVED_MECHANISM) -> bytes:
        profile = json.dumps({str(a): float(v) for a, v in zip(self.agents, bids)})
        extra = ("" if self.group is None else
                 f', "epoch": {self.epoch}, "group": {json.dumps(self.group)}')
        return (f'{{"scenario": {self.scenario_json}, "mechanism": '
                f'{json.dumps(mechanism)}, "profiles": {profile}{extra}}}').encode()

    def profile(self, bids: np.ndarray) -> dict:
        return {int(a): float(v) for a, v in zip(self.agents, bids)}


class ServedInputs:
    """Keys, per-request key choice and bids for one served workload.

    Request ``index`` of ``stream`` (``"warm"``, ``"closed"``, ``"open"``,
    ``"ledger"``) always maps to the same key and the same bids."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        if workload == "serve-hot":
            self.keys = [self._static_key(ScenarioSpec.from_random(
                n=N_STATIONS, alpha=ALPHA, side=SIDE, layout="uniform",
                seed=derive_seed(workload, seed, "key", k) % (1 << 31)))
                for k in range(HOT_KEYS)]
            weights = np.array([1.0 / (k + 1) ** ZIPF_EXPONENT
                                for k in range(HOT_KEYS)])
            self._cumulative = np.cumsum(weights / weights.sum())
        elif workload == "serve-trace":
            trace = generate_trace(
                **TRACE_SHAPE, alpha=ALPHA, side=SIDE,
                seed=derive_seed(workload, seed, "trace") % (1 << 31))
            spec = trace.to_spec()
            text = spec.to_json()
            agents = tuple(spec.agents())
            # Lockstep order: epoch-major, group-minor, as groups share
            # each epoch's substrate while it is hot.
            self.keys = [Key(spec, text, spec.group_spec(group).materialize(epoch),
                             agents, group, epoch)
                         for epoch in range(spec.n_epochs)
                         for group in spec.group_ids]
            self._cumulative = None
        else:
            raise ValueError(f"{workload!r} is not a served workload")

    @staticmethod
    def _static_key(spec: ScenarioSpec) -> Key:
        return Key(spec, spec.to_json(), spec, tuple(spec.agents()))

    def key_index(self, stream: str, index: int) -> int:
        if stream == "warm" or self._cumulative is None:
            return index % len(self.keys)
        rng = np.random.default_rng([derive_seed(self.workload, self.seed,
                                                 stream, "zipf"), index])
        return min(int(np.searchsorted(self._cumulative, rng.random(), side="right")),
                   len(self.keys) - 1)

    def bids(self, stream: str, index: int) -> np.ndarray:
        rng = np.random.default_rng([derive_seed(self.workload, self.seed,
                                                 stream, "bids"), index])
        return rng.uniform(0.0, UTILITY_SCALE, size=len(self.keys[0].agents))

    def request(self, stream: str, index: int) -> tuple[int, bytes]:
        key = self.key_index(stream, index)
        return key, self.keys[key].body(self.bids(stream, index))

    def arrivals(self, rate: float, count: int) -> np.ndarray:
        """Poisson arrival offsets (seconds from phase start)."""
        rng = np.random.default_rng(derive_seed(self.workload, self.seed, "arrivals"))
        return np.cumsum(rng.exponential(1.0 / rate, size=count))


def lift(cell: ScenarioSpec) -> MultiGroupScenarioSpec:
    """A static scenario as a one-group, one-epoch multi-group spec, so the
    traces layer can price any workload's requests on identical inputs."""
    return MultiGroupScenarioSpec(**cell.to_dict(), groups={"g0": [[]]})


def sweep_spec(workload: str, seed: int) -> SweepSpec:
    """The sweep grid: every workload's geometry family under the three
    ledger mechanisms (``sweep-jv`` times it; the served workloads' ledgers
    time the runner layer on it)."""
    layouts = SWEEP_LAYOUTS if workload == "sweep-jv" else ("uniform",)
    return SweepSpec(
        ns=[N_STATIONS], alphas=[ALPHA], side=SIDE, layouts=layouts,
        seeds=[derive_seed(workload, seed, "sweep", k) % (1 << 31)
               for k in range(SWEEP_SEEDS)],
        mechanisms=[MechanismSpec(m) for m in LEDGER_MECHANISMS],
        profiles=ProfileSpec(count=SWEEP_PROFILES,
                             seed=derive_seed(workload, seed, "profiles") % (1 << 31)))
