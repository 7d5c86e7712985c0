"""repro.engine — vectorised array backends and the batched pipeline.

The engine has two halves:

* **substrate** (no dependencies on the higher layers):
  :mod:`repro.engine.dense` — :class:`DenseGraph` / :class:`CSRGraph`
  integer-labelled array graphs with masked-min Dijkstra, Prim MST,
  metric closures and the lockstep :func:`batched_dijkstra` kernel;
  :mod:`repro.engine.backend` — the :class:`GraphBackend` protocol both
  the adjacency-map containers and the array graphs satisfy, plus
  coercions; :mod:`repro.engine.trees` / :mod:`repro.engine.moats` —
  flat-array kernels for the universal-tree mechanisms and the
  Jain-Vazirani moat shares.

* **pipeline** (:mod:`repro.engine.batch`, imported lazily because it
  sits *above* :mod:`repro.core`): the memoised ``xi(R)`` cache and the
  lockstep Moulin-Shenker driver that
  :meth:`repro.api.MulticastSession.run_batch` prices profile batches
  with.

Algorithm entry points in :mod:`repro.graphs` dispatch to the array
kernels automatically when handed an array graph; ``CostGraph.as_dense()``
is the one-call opt-in for the paper's complete wireless cost graphs.
"""

from repro.engine.backend import (
    GraphBackend,
    as_array_backend,
    is_array_backend,
    out_neighbors,
)
from repro.engine.dense import ArrayGraph, CSRGraph, DenseGraph, batched_dijkstra
from repro.engine.moats import moat_mst_weight, moat_shares
from repro.engine.trees import TreeIndex, efficient_set, water_filling_shares

__all__ = [
    "ArrayGraph",
    "CSRGraph",
    "DenseGraph",
    "GraphBackend",
    "MethodCache",
    "TreeIndex",
    "as_array_backend",
    "batched_dijkstra",
    "efficient_set",
    "is_array_backend",
    "moat_mst_weight",
    "moat_shares",
    "out_neighbors",
    "water_filling_shares",
]

_BATCH_NAMES = {"MethodCache"}


def __getattr__(name: str):
    # repro.engine.batch imports repro.core (it orchestrates mechanisms),
    # while repro.core's building blocks import the engine substrate —
    # loading batch lazily keeps that layering cycle-free.
    if name in _BATCH_NAMES:
        from repro.engine import batch

        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
