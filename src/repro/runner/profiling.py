"""cProfile support for the CLI (``--profile`` on ``run`` and ``sweep``).

One :class:`cProfile.Profile` wraps the whole pricing call; the report
then *attributes* time to the pipeline's stages by matching the profiled
function names against per-stage marker sets — build (network/backend
construction), closure (all-pairs / terminal-sourced distances), tree
(Steiner/universal-tree construction) and xi (share evaluation: the
Moulin-Shenker drop loop, or the marginal-cost efficient-set DP).
Attribution through markers rather than explicit stage wrapping keeps
the measured run identical to a normal one: the session's lazy caches
(closure, trees) are built exactly when a mechanism demands them, never
force-warmed just to be timed.

Stage times are the *cumulative* time of the stage's dominant marker
function, so nested stages overlap (xi includes closure work a memoised
method triggers on first touch) and the stages need not sum to the
total — the report says where the time is, not a partition of it.
"""

from __future__ import annotations

import cProfile
import pstats
from contextlib import contextmanager

# funcname fragments per stage; a profiled function belongs to the stage
# whose fragment its name contains.  Cumulative time of the dominant
# match = the stage's headline number.
STAGE_MARKERS: dict[str, tuple[str, ...]] = {
    "build": ("build_network", "from_cost_graph", "power_matrix",
              "as_dense", "from_graph"),
    "closure": ("all_pairs_arrays", "metric_closure", "batched_dijkstra",
                "heap_dijkstra_arrays", "multi_source_arrays",
                "TerminalClosure"),
    "tree": ("universal_tree", "mehlhorn_steiner_tree", "kmb_steiner",
             "mehlhorn_aux_metric", "find_min_ratio_spider", "prim_mst",
             "spanning_mst"),
    "xi": ("moulin_shenker", "water_filling_shares", "moat_shares",
           "run_profiles_lockstep", "shapley", "_aux_shares",
           "efficient_set"),  # also efficient_set_leave_one_out (tree-mc)
}


@contextmanager
def maybe_profile(enabled: bool):
    """Yield an active :class:`StageProfile` (or ``None`` when disabled)."""
    if not enabled:
        yield None
        return
    prof = StageProfile()
    prof.profile.enable()
    try:
        yield prof
    finally:
        prof.profile.disable()


class StageProfile:
    """A cProfile run plus the stage-attribution report."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()

    def stage_rows(self) -> list[dict]:
        """Per-stage ``{stage, function, calls, cumulative_s}`` rows —
        the dominant (highest cumulative time) marker match of each
        stage; stages whose markers never ran are omitted."""
        stats = pstats.Stats(self.profile)
        rows = []
        for stage, markers in STAGE_MARKERS.items():
            best = None
            for (filename, _lineno, funcname), entry in stats.stats.items():
                if not any(m in funcname for m in markers):
                    continue
                cc, _nc, _tt, ct, _callers = entry
                if best is None or ct > best[2]:
                    best = (funcname, cc, ct)
            if best is not None:
                rows.append({"stage": stage, "function": best[0],
                             "calls": best[1],
                             "cumulative_s": round(best[2], 4)})
        return rows

    def report(self, stream, *, top: int = 15) -> None:
        """Human-readable report: the stage table, then the ``top``
        functions by cumulative time."""
        print("profile: stage attribution (cumulative time of the "
              "dominant marker per stage)", file=stream)
        rows = self.stage_rows()
        if not rows:
            print("  (no pipeline stages were exercised)", file=stream)
        for row in rows:
            print(f"  {row['stage']:8s} {row['cumulative_s']:10.4f}s "
                  f"{row['calls']:8d} calls  {row['function']}",
                  file=stream)
        print(f"profile: top {top} functions by cumulative time",
              file=stream)
        stats = pstats.Stats(self.profile, stream=stream)
        stats.sort_stats("cumulative").print_stats(top)
