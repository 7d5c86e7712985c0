"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 40 --trace 0

Workloads (see README.md for why each exists):

* ``serve-hot``   - ``python -m repro serve`` (default flags), Zipf traffic
  over 8 static n=60 scenarios, tree-shapley, fresh bids per request;
* ``serve-trace`` - ``python -m repro serve --workers 2`` replaying a
  4-group, 16-epoch handover trace in lockstep (run by hand: too noisy on
  a shared 2-core box for ``BENCHMARK.json``'s bounds, see README.md);
* ``sweep-jv``    - ``repro.runner.run_sweep(spec, workers=2)`` over
  n=60 x {uniform, cluster, grid} x 4 seeds x {tree-shapley, tree-mc, jv}
  x 8 profiles.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
traced ledger and prints the per-layer metrics.  Every answer is checked
against a cold oracle; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every checked answer was correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-hot", "serve-trace", "sweep-jv")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def format_value(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _on_sigterm(main_pid: int):
    """A terminated benchmark still unwinds, so every server it started
    stops.  Forked sweep-pool workers inherit the handler; they must die
    at once, as ``Pool.terminate`` expects, not unwind mid-task."""
    def handler(signum, frame):
        if os.getpid() != main_pid:
            os._exit(128 + signum)
        sys.exit(128 + signum)
    return handler


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _on_sigterm(os.getpid()))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from measure import provenance

    out_dir = HERE / "out"
    if args.trace:
        import ledger

        result = ledger.run(ROOT, out_dir, args.workload, args.seed, args.seconds)
    else:
        import timed

        result = timed.run(ROOT, out_dir, args.workload, args.seed, args.seconds)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if sorted(names) != sorted(result["metrics"]):
        raise SystemExit(f"error: measured {sorted(result['metrics'])}, but "
                         f"BENCHMARK.json declares {sorted(names)}")
    metrics = {name: result["metrics"][name] for name in names}
    failed = result["failed"]
    attempted = result["attempted"]
    n_failed = min(len(failed), attempted)
    print(f"== {args.workload} (seed {args.seed}, {args.seconds:g}s, "
          f"trace {args.trace})")
    for key, value in provenance(ROOT, args.workload, args.seed).items():
        print(f"   provenance.{key} = {value}")
    for key, value in result.get("info", {}).items():
        print(f"   {key} = {format_value(value)}")
    for line in result.get("ledger", []):
        print(f"   {line}")
    print(f"   failed_share = {n_failed / attempted:.6g} "
          f"({n_failed} of {attempted} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"   {name:<34} {format_value(value):>14} {unit}")
    for reason in failed[:10]:
        print(f"   FAILED {reason}", file=sys.stderr)
    # A non-finite figure (every open-loop request failed, say) is no
    # measurement: it goes out as null and the run counts as incorrect.
    finite = all(math.isfinite(value) for value, _ in metrics.values())
    correct = not failed and finite
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": n_failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, allow_nan=False))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
