"""Kruskal moat kernels for the Jain-Vazirani Steiner cost shares.

The seed implementation of :class:`repro.core.jv_steiner.JVSteinerShares`
materialised a dict :class:`~repro.graphs.adjacency.Graph` over the
terminals and snapshotted every merge component as a frozenset — ``O(k^2)``
allocations per evaluation, re-paid on every Moulin-Shenker round.  These
kernels run the same moat process straight off the metric-closure matrix:
edges come from ``triu`` index arrays sorted by one ``np.lexsort``
(:func:`repro.engine.closure.kruskal_order`), components live in an
integer union-find with member lists, and shares accumulate into a flat
vector.

Tie-breaking replicates :func:`repro.graphs.mst.kruskal_mst` exactly
(sort key ``(weight, repr(u), repr(v))`` with ``(u, v)`` oriented by
position in ``pts``), so the merge schedule — and therefore every share
of the default equal-split family — matches the reference formulation
bit-for-bit.  In the weighted family a component's weight total is
accumulated over its members in *sorted station order* (a deterministic
choice; the retired frozenset-based formulation summed in hash order, so
weighted shares may differ from it in the last ulp).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.engine.closure import closure_submatrix, kruskal_order
from repro.graphs.disjoint_set import DisjointSet
from repro.graphs.mst import kruskal_accept


def _sorted_closure_edges(closure, pts: Sequence[int]):
    """Closure edges among ``pts`` in Kruskal order, as index pairs.

    ``closure`` may be the full ``(n, n)`` matrix or a terminal-sourced
    :class:`~repro.engine.closure.TerminalClosure` — the submatrix (and
    therefore the schedule) is bit-identical either way.
    """
    return kruskal_order(closure_submatrix(closure, pts), pts)


def sort_moat_edges(
    pts: Sequence[int], edges: Sequence[tuple[int, int, float]]
) -> list[tuple[int, int, float]]:
    """An explicit edge list (index pairs into ``pts``) in the same Kruskal
    order the closure path uses — the entry for *sparse* metrics (e.g. the
    Mehlhorn auxiliary terminal graph, where only region-adjacent terminal
    pairs carry an edge)."""
    return sorted(
        ((int(a), int(b), float(w)) for a, b, w in edges),
        key=lambda e: (e[2], repr(pts[e[0]]), repr(pts[e[1]])),
    )


def moat_shares(
    closure: np.ndarray,
    source: int,
    members: Sequence[int],
    weight_of: Callable[[int], float] | None = None,
) -> dict[int, float]:
    """``xi(R, .)`` of the JV moat process over ``{source} + members``.

    Kruskal on the metric closure, reading edge weight as time: every
    component not containing the source accrues cost at unit rate between
    its merge events, split among its members (equally, or proportionally
    to ``weight_of`` when given).  An agent stops paying when its
    component absorbs the source.  ``sum(shares) == closure MST weight``
    exactly.
    """
    pts = [source, *members]
    if len(pts) <= 1:
        return {}
    return run_moat_process(pts, _sorted_closure_edges(closure, pts), weight_of)


def moat_shares_sparse(
    source: int,
    members: Sequence[int],
    edges: Sequence[tuple[int, int, float]],
    weight_of: Callable[[int], float] | None = None,
) -> dict[int, float]:
    """The moat process over an explicit sparse metric: ``edges`` are
    ``(a, b, w)`` index pairs into ``[source, *members]``.  Same schedule
    semantics (and tie-breaking) as :func:`moat_shares`; components never
    absorbing the source simply keep paying until the last merge, so the
    shares still sum to the spanning-forest weight."""
    pts = [source, *members]
    if len(pts) <= 1:
        return {}
    return run_moat_process(pts, sort_moat_edges(pts, edges), weight_of)


def run_moat_process(
    pts: Sequence[int],
    sorted_edges: Sequence[tuple[int, int, float]],
    weight_of: Callable[[int], float] | None = None,
) -> dict[int, float]:
    """The shared Kruskal moat loop: ``pts[0]`` is the source; edges must
    already be in Kruskal order (see :func:`sort_moat_edges`)."""
    k = len(pts)
    shares = [0.0] * k
    dsu = DisjointSet(range(k))
    birth = {i: 0.0 for i in range(k)}  # keyed by current component root
    src_root = 0
    for a, b, t in sorted_edges:
        ra, rb = dsu.find(a), dsu.find(b)
        if ra == rb:
            continue
        # The component of the edge's first endpoint pays first (the
        # reference event order), the source's component never pays.
        for root in (ra, rb):
            if root == src_root:
                continue
            span = t - birth[root]
            if span <= 0:
                continue
            side = dsu.members(root)
            if weight_of is None:
                for i in side:
                    shares[i] += span * 1.0 / len(side)
            else:
                total_w = sum(weight_of(pts[i]) for i in sorted(side))
                for i in side:
                    shares[i] += span * weight_of(pts[i]) / total_w
        dsu.union(a, b)
        merged_root = dsu.find(a)
        birth[merged_root] = t  # the merged component is born at time t
        if src_root in (ra, rb):
            src_root = merged_root
        if dsu.n_components == 1:
            break
    return {pts[i]: shares[i] for i in range(1, k)}


def moat_mst_weight(closure, source: int, members: Sequence[int]) -> float:
    """MST weight of the metric closure over ``{source} + members`` (the
    total the moat shares sum to), accumulated in Kruskal acceptance order
    so the float matches the reference sum exactly."""
    pts = [source, *members]
    if len(pts) <= 1:
        return 0.0
    return kruskal_total(len(pts), _sorted_closure_edges(closure, pts))


def kruskal_total(k: int, sorted_edges: Sequence[tuple[int, int, float]]) -> float:
    """Spanning-forest weight of ``sorted_edges`` over ``k`` points,
    accumulated in Kruskal acceptance order."""
    total = 0.0
    for _, _, w in kruskal_accept(k, sorted_edges):
        total += w
    return total
