"""Terminal-sourced metric closures.

The seed pipeline priced every Jain-Vazirani request against the *full*
``(n, n)`` all-pairs closure — ``O(n^3)`` work and ``O(n^2)`` memory even
when only ``k + 1`` stations (``{source} + receivers``) ever appear in a
moat process.  :class:`TerminalClosure` stores just the ``(k, n)`` distance
rows sourced at the terminals — ``O(k n^2)`` to build on the dense kernel,
``O(k (m + n log n))`` on CSR — and serves the same submatrices.

Bit-identity: every closure row in this codebase is a Dijkstra distance
field, and the lockstep rows of
:func:`repro.engine.dense.batched_dijkstra` are arithmetically independent
(each row relaxes only its own sums).  Sourcing the batch at a subset of
nodes therefore reproduces the full closure's rows *exactly*, so any moat
schedule — and any share — computed through a :class:`TerminalClosure` is
bit-identical to the full-closure result (property-tested in
``tests/test_terminal_closure.py``).

Parent rows: the same pass keeps each row's predecessor array, so a
closure also answers witness paths (:meth:`TerminalClosure.path`) without
a second shortest-path run.  Row independence covers the parents too —
a row's predecessors depend only on its own settle order — so a session
sourced at every station and one sourced at ``{source} + receivers``
return the same witness paths.  :func:`kruskal_order` sorts a closure
block into the Kruskal order both the moat process and the KMB Steiner
tree consume.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

import numpy as np


class TerminalClosure:
    """Shortest-path distances and parent rows sourced only at ``terminals``.

    Behaves like the terminal rows of the full all-pairs closure matrix:
    ``submatrix(pts)`` returns the ``(len(pts), len(pts))`` closure block
    for any ``pts`` drawn from the terminal set (raising ``ValueError``
    on foreign stations, where a full matrix would silently answer).
    ``parents`` holds the matching ``(k, n)`` predecessor rows (``-1`` at
    the row's own terminal and at unreached stations).
    """

    __slots__ = ("n", "terminals", "rows", "parents", "_col")

    def __init__(self, n: int, terminals: Sequence[int], rows: np.ndarray,
                 parents: np.ndarray) -> None:
        self.n = int(n)
        self.terminals = tuple(int(t) for t in terminals)
        rows = np.asarray(rows, dtype=float)
        parents = np.asarray(parents, dtype=np.int64)
        for name, arr in (("rows", rows), ("parents", parents)):
            if arr.shape != (len(self.terminals), self.n):
                raise ValueError(
                    f"{name} shape {arr.shape} does not match "
                    f"{len(self.terminals)} terminals over n={self.n}")
        if len(set(self.terminals)) != len(self.terminals):
            raise ValueError("terminals must be distinct")
        self.rows = rows
        self.parents = parents
        self._col = {t: i for i, t in enumerate(self.terminals)}

    @classmethod
    def from_network(cls, network, terminals: Sequence[int]) -> "TerminalClosure":
        """Build from a :class:`~repro.wireless.CostGraph` (dense kernel:
        one lockstep batched Dijkstra over the terminal rows)."""
        return cls.from_graph(network.as_dense(), terminals)

    @classmethod
    def from_graph(cls, graph, terminals: Sequence[int]) -> "TerminalClosure":
        """Build from any array backend (``DenseGraph`` uses the lockstep
        batch; ``CSRGraph`` one heap Dijkstra per terminal)."""
        terminals = [int(t) for t in terminals]
        return cls(graph.n, terminals, *graph.metric_closure_arrays(terminals))

    def covers(self, pts: Sequence[int]) -> bool:
        return all(int(p) in self._col for p in pts)

    def distance(self, u: int, v: int) -> float:
        """``d(u, v)`` for terminal ``u`` (``v`` may be any station)."""
        return float(self.rows[self._require(u), int(v)])

    def submatrix(self, pts: Sequence[int]) -> np.ndarray:
        """The closure block among ``pts`` — bit-identical to
        ``full_closure[np.ix_(pts, pts)]``."""
        rows = [self._require(p) for p in pts]
        cols = [int(p) for p in pts]
        return self.rows[np.ix_(rows, cols)]

    def path(self, u: int, v: int) -> list[int]:
        """The witness shortest path ``u -> v`` read off terminal ``u``'s
        parent row (``v`` may be any station reachable from ``u``)."""
        row = self._require(u)
        if not np.isfinite(self.rows[row, int(v)]):
            raise ValueError(f"station {v} is unreachable from terminal {u}")
        parents = self.parents[row]
        u, path = int(u), [int(v)]
        while path[-1] != u:
            path.append(int(parents[path[-1]]))
        path.reverse()
        return path

    def _require(self, p: int) -> int:
        try:
            return self._col[int(p)]
        except KeyError:
            raise ValueError(
                f"station {p} is not a closure terminal; this closure was "
                f"sourced at {len(self.terminals)} terminals — rebuild it "
                "with the station included (or use the full closure)"
            ) from None

    def __repr__(self) -> str:
        return f"TerminalClosure(n={self.n}, terminals={len(self.terminals)})"


def closure_submatrix(closure, pts: Sequence[int]) -> np.ndarray:
    """The closure block among ``pts`` from either representation: a full
    ``(n, n)`` matrix or a :class:`TerminalClosure`."""
    if isinstance(closure, TerminalClosure):
        return closure.submatrix(pts)
    return closure[np.ix_(list(pts), list(pts))]


def kruskal_order(block: np.ndarray, pts: Sequence[Hashable]) -> list[tuple[int, int, float]]:
    """The closure edges among ``pts`` in Kruskal order, as ``(i, j, w)``
    index pairs with ``i < j`` and ``w = block[i, j]``.

    One ``np.lexsort`` over ``(w, rank(pts[i]), rank(pts[j]))``, where
    ``rank`` orders the points by ``repr`` — the same order (ties
    included) as :func:`repro.graphs.mst.kruskal_mst`'s Python sort by
    ``(w, repr(u), repr(v))`` over a graph whose edges are inserted in
    ``triu`` order.
    """
    k = len(pts)
    iu, iv = np.triu_indices(k, 1)
    w = block[iu, iv]
    reprs = [repr(p) for p in pts]
    position = {r: i for i, r in enumerate(sorted(set(reprs)))}
    rank = np.array([position[r] for r in reprs], dtype=np.int64)
    order = np.lexsort((rank[iv], rank[iu], w))
    return list(zip(iu[order].tolist(), iv[order].tolist(), w[order].tolist()))
