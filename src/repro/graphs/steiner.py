"""Edge-weighted Steiner trees.

Three tools the paper's section 3.2 machinery needs:

* :func:`metric_closure` — shortest-path distances (and paths) between the
  terminals, the space in which both the KMB approximation and the
  Jain-Vazirani cost shares live;
* :func:`kmb_steiner_tree` — the classic Kou-Markowsky-Berman
  2(1-1/k)-approximation [34 in the paper], a thin front end over
  :func:`kmb_steiner_from_closure`, which callers that already hold a
  closure (the jv mechanism's session) call directly;
* :func:`dreyfus_wagner` — the exact O(3^k n) dynamic program, used as the
  optimum oracle when validating the approximation and budget-balance
  factors.

Tie-break (pinned by ``tests/test_jv_golden.py``): the closure MST takes
edges in :func:`repro.engine.closure.kruskal_order` — weight, then the
``repr`` of each endpoint, the order of
:func:`repro.graphs.mst.kruskal_mst`.  A witness path is the one its
source's Dijkstra records: on array graphs the lockstep
:func:`~repro.engine.dense.batched_dijkstra` parent row (each round
settles the smallest-index minimum, and a parent changes only on a
strict improvement), on dict graphs the heap Dijkstra's parent map.
Paths are reconstructed lazily, only for the ``k - 1`` closure edges the
MST accepts (:func:`repro.graphs.mst.kruskal_accept`).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.engine.backend import as_array_backend
from repro.engine.closure import TerminalClosure, kruskal_order
from repro.engine.dense import ArrayGraph
from repro.graphs.adjacency import Graph
from repro.graphs.mst import kruskal_accept, prim_mst
from repro.graphs.shortest_paths import all_pairs_dijkstra, dijkstra, reconstruct_path

Node = Hashable
PathSource = Callable[[Node, Node], list]


def _all_pairs_fast(graph: Graph | ArrayGraph) -> dict[Node, dict[Node, float]]:
    """All-pairs distances, coerced onto the array backend when the node
    labels allow it (``0..n-1`` ints).  Distance-only consumers — the
    Dreyfus-Wagner programs below — get identical floats either way, so
    the coercion is pure speedup with no tie sensitivity."""
    arr = as_array_backend(graph, prefer="auto")
    return all_pairs_dijkstra(graph if arr is None else arr)


@dataclass(frozen=True)
class MetricClosure:
    """Terminal-to-terminal shortest distances and one witness path each."""

    distance: dict[Node, dict[Node, float]]
    path: dict[tuple[Node, Node], list[Node]]

    def dist(self, u: Node, v: Node) -> float:
        return 0.0 if u == v else self.distance[u][v]


def _terminal_closure(graph: Graph | ArrayGraph,
                      terminals: list[Node]) -> tuple[np.ndarray, PathSource]:
    """The ``(k, k)`` closure block among ``terminals`` (row = source) and
    a witness-path source ``path(u, v)``.

    Array graphs with a weight matrix run every terminal's Dijkstra in one
    lockstep sweep that keeps the parent rows; other graphs run one
    early-exit heap Dijkstra per terminal and keep its parent map.
    """
    if isinstance(graph, ArrayGraph) and hasattr(graph, "matrix"):
        closure = TerminalClosure.from_graph(graph, terminals)
        return closure.submatrix(terminals), closure.path
    targets = set(terminals)
    dists, parents = {}, {}
    for t in terminals:
        dists[t], parents[t] = dijkstra(graph, t, targets=targets)
    block = np.array([[dists[t].get(o, np.inf) for o in terminals] for t in terminals],
                     dtype=float).reshape(len(terminals), len(terminals))
    return block, lambda u, v: reconstruct_path(parents[u], v)


def metric_closure(graph: Graph | ArrayGraph, terminals: Sequence[Node]) -> MetricClosure:
    """Shortest-path closure restricted to ``terminals``, with the witness
    path of every ordered terminal pair.

    Array-backed graphs run every terminal's Dijkstra in one lockstep
    sweep (:func:`repro.engine.dense.batched_dijkstra`); dict graphs run
    one early-exit heap Dijkstra per terminal.  Distances agree exactly;
    witness paths follow the tie-break in the module docstring.
    """
    terminals = list(dict.fromkeys(terminals))
    block, path = _terminal_closure(graph, terminals)
    bad = np.argwhere(~np.isfinite(block))
    if len(bad):
        a, b = bad[0]
        raise ValueError(
            f"terminals {terminals[a]!r} and {terminals[b]!r} are disconnected")
    distance = {t: {o: float(block[a, b]) for b, o in enumerate(terminals) if o != t}
                for a, t in enumerate(terminals)}
    paths = {(t, o): path(t, o) for t in terminals for o in terminals if o != t}
    return MetricClosure(distance, paths)


@dataclass(frozen=True)
class SteinerTree:
    """A Steiner tree as an explicit edge set over the original graph."""

    edges: tuple[tuple[Node, Node, float], ...]
    cost: float
    nodes: frozenset

    def as_graph(self) -> Graph:
        g = Graph()
        g.add_nodes(self.nodes)
        for u, v, w in self.edges:
            g.add_edge(u, v, w)
        return g


def kmb_steiner_tree(graph: Graph | ArrayGraph, terminals: Sequence[Node]) -> SteinerTree:
    """Kou-Markowsky-Berman 2-approximate minimum Steiner tree.

    Computes the terminals' closure (one shortest-path pass with parents)
    and hands it to :func:`kmb_steiner_from_closure`.
    """
    terminals = list(dict.fromkeys(terminals))
    if len(terminals) <= 1:
        return SteinerTree((), 0.0, frozenset(terminals))
    block, path = _terminal_closure(graph, terminals)
    mst = kruskal_accept(len(terminals), kruskal_order(block, terminals))
    return kmb_steiner_from_closure(graph, terminals, mst, path)


def kmb_steiner_from_closure(
    graph: Graph | ArrayGraph,
    terminals: Sequence[Node],
    mst: Sequence[tuple[int, int, float]],
    path: PathSource,
) -> SteinerTree:
    """KMB over a closure the caller already holds.

    ``mst`` is the closure MST among the distinct ``terminals`` as
    ``(i, j, w)`` index pairs in Kruskal acceptance order
    (:func:`repro.graphs.mst.kruskal_accept` over
    :func:`repro.engine.closure.kruskal_order`) and ``path(u, v)``
    returns the witness path from ``u`` to ``v``.  Steps: expand only
    the MST edges into their witness paths; MST of the expanded subgraph
    (Prim from ``terminals[0]``); prune non-terminal leaves.
    """
    terminals = list(terminals)
    for a, b, w in mst:
        if math.isinf(w):
            raise ValueError(
                f"terminals {terminals[a]!r} and {terminals[b]!r} are disconnected")
    if len(terminals) <= 1:
        return SteinerTree((), 0.0, frozenset(terminals))
    expanded = Graph()
    expanded.add_nodes(terminals)
    for a, b, _ in mst:
        witness = path(terminals[a], terminals[b])
        for x, y in zip(witness, witness[1:]):
            expanded.add_edge(x, y, graph.weight(x, y))

    tree_edges = prim_mst(expanded, root=terminals[0])
    tree = Graph()
    tree.add_nodes(expanded.nodes())
    for a, b, w in tree_edges:
        tree.add_edge(a, b, w)

    # Prune non-terminal leaves until fixpoint.
    terminal_set = set(terminals)
    changed = True
    while changed:
        changed = False
        for node in list(tree.nodes()):
            if node not in terminal_set and tree.degree(node) <= 1:
                tree.remove_node(node)
                changed = True

    edges = tuple(sorted(tree.edges(), key=lambda e: (repr(e[0]), repr(e[1]))))
    return SteinerTree(edges, sum(w for _, _, w in edges), frozenset(tree.nodes()))


def dreyfus_wagner(graph: Graph, terminals: Sequence[Node]) -> float:
    """Exact minimum Steiner tree cost (Dreyfus-Wagner dynamic program).

    Exponential in ``len(terminals)`` — intended as a small-instance oracle.
    """
    terminals = list(dict.fromkeys(terminals))
    k = len(terminals)
    if k <= 1:
        return 0.0
    if k == 2:
        apsp = _all_pairs_fast(graph)
        return apsp[terminals[0]].get(terminals[1], float("inf"))
    table, index = _dreyfus_wagner_table(graph, terminals[:-1])
    return table[(1 << (k - 1)) - 1][index[terminals[-1]]]


def steiner_costs_all_subsets(
    graph: Graph, terminals: Sequence[Node], root: Node
) -> dict[frozenset, float]:
    """Exact Steiner cost of ``{root} + Q`` for *every* subset ``Q`` of
    ``terminals`` from a single Dreyfus-Wagner table.

    This is the ``C*`` oracle of the Fig. 2 (empty core) experiment: one DP
    run prices all 2^k coalitions.
    """
    terminals = list(dict.fromkeys(terminals))
    if root in terminals:
        raise ValueError("root must not be a terminal")
    table, index = _dreyfus_wagner_table(graph, terminals)
    root_i = index[root]
    out: dict[frozenset, float] = {frozenset(): 0.0}
    for mask in range(1, 1 << len(terminals)):
        Q = frozenset(t for i, t in enumerate(terminals) if mask >> i & 1)
        out[Q] = table[mask][root_i]
    return out


def _dreyfus_wagner_table(
    graph: Graph, base: Sequence[Node]
) -> tuple[list[list[float]], dict[Node, int]]:
    """The DW table ``S[mask][v]`` = min cost tree spanning ``base[mask] + v``."""
    nodes = graph.nodes()
    index = {v: i for i, v in enumerate(nodes)}
    apsp = _all_pairs_fast(graph)
    inf = float("inf")

    def d(u: Node, v: Node) -> float:
        return apsp[u].get(v, inf)

    m = len(base)
    S = [[inf] * len(nodes) for _ in range(1 << m)]
    S[0] = [0.0] * len(nodes)
    for i, t in enumerate(base):
        row = S[1 << i]
        for v in nodes:
            row[index[v]] = d(t, v)

    for mask in range(1, 1 << m):
        if mask & (mask - 1) == 0:
            continue  # singletons already initialised
        row = S[mask]
        # Merge step: split the terminal set at v.
        low = mask & (-mask)
        sub = (mask - 1) & mask
        while sub:
            if sub & low:  # canonical split: the low bit stays in `sub`
                other = mask ^ sub
                rs, ro = S[sub], S[other]
                for vi in range(len(nodes)):
                    cand = rs[vi] + ro[vi]
                    if cand < row[vi]:
                        row[vi] = cand
            sub = (sub - 1) & mask
        # Relax step: move the attachment point along shortest paths.
        # (Dense relaxation via the all-pairs matrix.)
        snapshot = list(row)
        for ui, u in enumerate(nodes):
            su = snapshot[ui]
            if su == inf:
                continue
            du = apsp[u]
            for v, duv in du.items():
                vi = index[v]
                cand = su + duv
                if cand < row[vi]:
                    row[vi] = cand

    return S, index
