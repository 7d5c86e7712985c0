"""Measurement primitives: order statistics, the tail rule, seeds,
benchmark-side spans, process-tree memory and provenance.

Nothing here imports ``repro``: these helpers are shared by the timed
runs, the traced ledger and the self-tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# The tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def derive_seed(*parts) -> int:
    """A 63-bit seed that is a pure function of ``parts`` (workload name,
    workload seed, stream label, ...).  Streams with different labels are
    independent, so warm-up and measured bids never coincide."""
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def median(values) -> float:
    return float(statistics.median(values))


def tail(samples) -> tuple[float, float, int]:
    """``(value, percentile, count)`` of the highest percentile that still
    has at least :data:`TAIL_BEYOND` samples strictly beyond it.

    With ``count`` samples sorted ascending that is the sample at rank
    ``count - TAIL_BEYOND - 1``; its percentile is
    ``100 * (count - TAIL_BEYOND) / count``.  Failed requests enter as
    ``inf`` (a refusal misses every latency limit).  Raises when the
    sample is too small to support any tail beyond the median."""
    ordered = sorted(samples)
    count = len(ordered)
    if count < 2 * TAIL_BEYOND + 1:
        raise ValueError(f"{count} samples cannot support a tail with "
                         f"{TAIL_BEYOND} beyond it")
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count, count


class Spans:
    """Benchmark-side spans around calls into the program's layers.

    Each span has a name, start, end (``perf_counter`` seconds), a parent
    span id and the request id it belongs to.  Spans stay in memory; call
    :meth:`write` once at the end of the run."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._lock = threading.Lock()

    def begin(self, name: str, request, parent: int | None = None) -> int:
        with self._lock:
            span_id = len(self.records)
            self.records.append({"id": span_id, "name": name,
                                 "request": request, "parent": parent,
                                 "start": time.perf_counter(), "end": None})
        return span_id

    def end(self, span_id: int) -> float:
        record = self.records[span_id]
        record["end"] = time.perf_counter()
        return record["end"] - record["start"]

    def timed(self, name: str, request, call, parent: int | None = None):
        """Run ``call()`` inside a span; returns ``(result, seconds)``."""
        span_id = self.begin(name, request, parent)
        result = call()
        return result, self.end(span_id)

    def durations_ms(self, name: str) -> list[float]:
        return [(r["end"] - r["start"]) * 1e3 for r in self.records
                if r["name"] == name and r["end"] is not None]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


# -- process-tree memory -------------------------------------------------------
def _parent_map() -> dict[int, int]:
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we scanned
        # The command name may contain spaces; fields resume after ')'.
        fields = stat[stat.rindex(")") + 2:].split()
        parents[int(entry)] = int(fields[1])
    return parents


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant (fleet workers, pool workers)."""
    parents = _parent_map()
    tree, frontier = [root], [root]
    while frontier:
        frontier = [pid for pid, ppid in parents.items() if ppid in frontier]
        tree.extend(frontier)
    return tree


def vm_hwm_kib(pid: int) -> int | None:
    """The process's peak resident set (``VmHWM``), or None if it exited."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


class PeakRss:
    """Peak resident memory summed over a process tree.  Each
    :meth:`sample` records every live member's ``VmHWM``; a member's peak
    is its largest reading, so members that exit later still count."""

    def __init__(self, root: int) -> None:
        self.root = root
        self.peaks: dict[int, int] = {}

    def sample(self) -> None:
        for pid in process_tree(self.root):
            kib = vm_hwm_kib(pid)
            if kib is not None and kib > self.peaks.get(pid, 0):
                self.peaks[pid] = kib

    @property
    def total_mb(self) -> float:
        return sum(self.peaks.values()) / 1024.0


# -- provenance ------------------------------------------------------------------
def provenance(root: Path, workload: str, seed: int) -> dict:
    """The machine and code a result was measured on, so a 2-core figure
    is never read as a scaling result."""
    import numpy

    # Never look above the checkout: a checkout that is not a repository
    # records only its source digest.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.resolve().parent)}
    try:
        git = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "workload": workload,
        "seed": seed,
        "platform": sys.platform,
    }

