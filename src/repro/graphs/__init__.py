"""Graph-algorithm substrate used by every higher layer of :mod:`repro`.

Everything here is implemented from scratch (no networkx inside the
library); the test-suite cross-checks the implementations against networkx
where an oracle exists.

The algorithm entry points (``dijkstra``, ``all_pairs_dijkstra``,
``prim_mst``, ``metric_closure``, and everything built on them) accept any
:class:`~repro.engine.backend.GraphBackend` — the adjacency-map containers
below for arbitrary hashable nodes, or the array-backed
:class:`~repro.engine.dense.DenseGraph` / ``CSRGraph`` for integer-labelled
graphs, which dispatch to vectorised kernels.

Modules
-------
adjacency
    Lightweight undirected/directed adjacency-map graphs.
disjoint_set
    Union-find with union by size and path compression.
addressable_heap
    Binary heap with ``decrease`` (decrease-key) used by Dijkstra/Prim.
traversal
    BFS/DFS orders, parents, numbering, connected components.
shortest_paths
    Edge-weighted Dijkstra (single-source / all-pairs) and path recovery.
node_weighted
    Node-weighted shortest paths (cost = sum of node weights on the path,
    excluding the source), the metric used by node-weighted Steiner.
mst
    Kruskal (with a merge-event trace used by the Jain-Vazirani cost
    shares) and Prim minimum spanning trees.
arborescence
    Chu-Liu/Edmonds minimum spanning arborescence.
steiner
    Metric closure, the Kou-Markowsky-Berman 2-approximate Steiner tree and
    the exact Dreyfus-Wagner dynamic program.
nwst
    Node-weighted Steiner trees: Klein-Ravi spiders, Guha-Khuller
    branch-spiders, the greedy ratio algorithm used by the paper's NWST
    mechanism, and an exact oracle.
random_graphs
    Seeded random instance generators for tests and experiment suites.
"""

from repro.graphs.adjacency import DiGraph, Graph
from repro.graphs.addressable_heap import AddressableHeap
from repro.graphs.arborescence import minimum_arborescence
from repro.graphs.disjoint_set import DisjointSet
from repro.graphs.mst import MergeEvent, kruskal_complete, kruskal_mst, prim_mst
from repro.graphs.node_weighted import node_weighted_arc_matrix, node_weighted_dijkstra
from repro.graphs.nwst import (
    GreedySpiderSolver,
    Spider,
    exact_node_weighted_steiner,
    find_min_ratio_spider,
)
from repro.graphs.shortest_paths import all_pairs_dijkstra, dijkstra, reconstruct_path
from repro.graphs.steiner import dreyfus_wagner, kmb_steiner_tree, metric_closure
from repro.graphs.traversal import (
    bfs_numbering,
    bfs_order,
    bfs_parents,
    connected_components,
    is_connected,
)

__all__ = [
    "AddressableHeap",
    "DiGraph",
    "DisjointSet",
    "Graph",
    "GreedySpiderSolver",
    "MergeEvent",
    "Spider",
    "all_pairs_dijkstra",
    "bfs_numbering",
    "bfs_order",
    "bfs_parents",
    "connected_components",
    "dijkstra",
    "dreyfus_wagner",
    "exact_node_weighted_steiner",
    "find_min_ratio_spider",
    "is_connected",
    "kmb_steiner_tree",
    "kruskal_complete",
    "kruskal_mst",
    "metric_closure",
    "minimum_arborescence",
    "node_weighted_arc_matrix",
    "node_weighted_dijkstra",
    "prim_mst",
    "reconstruct_path",
]
