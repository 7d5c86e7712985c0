"""Declarative instance descriptions — the wire format of the service API.

A :class:`ScenarioSpec` is a frozen, JSON-round-trippable description of
one multicast pricing instance: *what* the network is (an explicit point
layout, an explicit symmetric cost matrix, or a seeded random layout),
which station is the source, and which universal tree the section 2.1
mechanisms should fix.  A :class:`MechanismSpec` names a registered
mechanism plus its parameters.  Both carry ``to_dict``/``from_dict`` and
``to_json``/``from_json`` so requests can cross a process boundary and be
replayed bit-for-bit: rebuilding a network from a spec reproduces the
exact float cost matrix (JSON floats round-trip exactly in Python).

These specs are *descriptions*, not solvers — hand them to
:class:`repro.api.session.MulticastSession` (or
:func:`repro.api.registry.make_mechanism`) to do work.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields
from typing import Any

from repro.geometry.layouts import LAYOUT_FAMILIES
from repro.wireless.universal_tree import UniversalTree

SCENARIO_KINDS = ("points", "matrix", "random")
TREE_KINDS = UniversalTree.KINDS  # the one home of the kind vocabulary


def seed_from_text(text: str) -> int:
    """A 64-bit rng seed derived from ``text`` (SHA-256, first 8 bytes).

    The one home of the derived-seed recipe: sweep profile seeds, churn
    event seeds and per-epoch profile seeds are all pure functions of a
    wire-form identity string through this helper, so they agree across
    processes, schedules and sessions by construction.
    """
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def freeze_params(value: Any) -> Any:
    """Recursively convert ``value`` into a hashable cache key."""
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), freeze_params(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple, set, frozenset)):
        return tuple(freeze_params(v) for v in value)
    return value


def _as_float_rows(rows: Sequence[Sequence[float]], label: str) -> tuple:
    try:
        frozen = tuple(tuple(float(x) for x in row) for row in rows)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{label} must be a sequence of numeric rows: {exc}") from exc
    if not frozen:
        raise ValueError(f"{label} must be non-empty")
    if not all(math.isfinite(x) for row in frozen for x in row):
        raise ValueError(f"{label} entries must be finite")
    widths = {len(row) for row in frozen}
    if len(widths) != 1:
        raise ValueError(f"{label} rows must all have the same length, got lengths {sorted(widths)}")
    return frozen


@dataclass(frozen=True)
class ScenarioSpec:
    """A frozen, serializable description of one wireless multicast instance.

    Exactly one layout is populated, selected by ``kind``:

    * ``"points"`` — an explicit Euclidean layout (``points`` + ``alpha``);
    * ``"matrix"`` — an explicit symmetric cost matrix (general networks);
    * ``"random"`` — a seeded generated layout (``n``/``dim``/``side``/
      ``seed`` + ``alpha``), rebuilt deterministically from the seed.
      ``layout`` selects the point family — one of
      :data:`repro.geometry.layouts.LAYOUT_FAMILIES` (default
      ``"uniform"``, bit-identical to the historical uniform draw).

    ``source`` is the multicast root; ``tree`` fixes the universal-tree
    construction the section 2.1 mechanisms use (``spt``/``mst``/``star``).

    ``receivers`` (valid for every kind) optionally restricts the agent
    set to an explicit station subset — the lever that makes n=10^3..10^4
    instances tractable: sessions then build *terminal-sourced* closures
    over ``{source} + receivers`` instead of all-pairs ones, and
    mechanisms price only the listed agents.  ``None`` keeps the
    historical "every non-source station is an agent" behaviour.
    """

    kind: str
    source: int = 0
    tree: str = "spt"
    alpha: float | None = None
    points: tuple | None = None
    matrix: tuple | None = None
    n: int | None = None
    dim: int | None = None
    side: float | None = None
    seed: int | None = None
    layout: str | None = None
    receivers: tuple | None = None

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r} (want one of {SCENARIO_KINDS})")
        if self.tree not in TREE_KINDS:
            raise ValueError(f"unknown universal tree kind {self.tree!r} (want one of {TREE_KINDS})")
        object.__setattr__(self, "source", int(self.source))
        if self.alpha is not None:
            object.__setattr__(self, "alpha", float(self.alpha))
            if not 1 <= self.alpha < math.inf:
                raise ValueError(
                    f"alpha must be finite and >= 1 (paper's model), got {self.alpha}")

        if self.kind == "points":
            self._reject_foreign_fields(("matrix", "n", "side", "seed", "layout"))
            if self.points is None:
                raise ValueError("kind='points' requires points")
            if self.alpha is None:
                raise ValueError("kind='points' requires alpha")
            object.__setattr__(self, "points", _as_float_rows(self.points, "points"))
            width = len(self.points[0])
            if self.dim is not None and int(self.dim) != width:
                raise ValueError(f"dim={self.dim} contradicts {width}-d points")
            object.__setattr__(self, "dim", width)
        elif self.kind == "matrix":
            self._reject_foreign_fields(
                ("points", "alpha", "n", "dim", "side", "seed", "layout"))
            if self.matrix is None:
                raise ValueError("kind='matrix' requires matrix")
            m = _as_float_rows(self.matrix, "matrix")
            if any(len(row) != len(m) for row in m):
                raise ValueError(f"matrix must be square, got {len(m)} rows of width {len(m[0])}")
            object.__setattr__(self, "matrix", m)
        else:  # random
            self._reject_foreign_fields(("points", "matrix"))
            if self.n is None or self.seed is None:
                raise ValueError("kind='random' requires n and seed")
            if self.alpha is None:
                raise ValueError("kind='random' requires alpha")
            object.__setattr__(self, "n", int(self.n))
            object.__setattr__(self, "dim", int(self.dim if self.dim is not None else 2))
            object.__setattr__(self, "side", float(self.side if self.side is not None else 10.0))
            object.__setattr__(self, "seed", int(self.seed))
            object.__setattr__(
                self, "layout", str(self.layout) if self.layout is not None else "uniform")
            if self.layout not in LAYOUT_FAMILIES:
                raise ValueError(
                    f"unknown layout family {self.layout!r} (want one of {LAYOUT_FAMILIES})")
            if self.n < 1 or self.dim < 1:
                raise ValueError(f"need n >= 1 and dim >= 1, got n={self.n}, dim={self.dim}")
            if not math.isfinite(self.side):
                raise ValueError(f"side must be finite, got {self.side}")

        if not 0 <= self.source < self.n_stations:
            raise ValueError(
                f"source {self.source} out of range for {self.n_stations} stations"
            )

        if self.receivers is not None:
            try:
                recv = sorted({int(r) for r in self.receivers})
            except (TypeError, ValueError) as exc:
                raise ValueError(f"receivers must be station indices: {exc}") from exc
            if not recv:
                raise ValueError("receivers must be non-empty when given (or omit it)")
            if self.source in recv:
                raise ValueError(f"source {self.source} cannot be a receiver")
            out_of_range = [r for r in recv if not 0 <= r < self.n_stations]
            if out_of_range:
                raise ValueError(
                    f"receivers {out_of_range} out of range for "
                    f"{self.n_stations} stations"
                )
            object.__setattr__(self, "receivers", tuple(recv))

    def _reject_foreign_fields(self, foreign: tuple[str, ...]) -> None:
        set_anyway = [f for f in foreign if getattr(self, f) is not None]
        if set_anyway:
            raise ValueError(
                f"kind={self.kind!r} does not use fields {set_anyway} — "
                "exactly one layout may be populated"
            )

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_points(cls, points, alpha: float, *, source: int = 0,
                    tree: str = "spt") -> "ScenarioSpec":
        """Spec for an explicit Euclidean layout (accepts a
        :class:`~repro.geometry.PointSet`, an array, or nested sequences)."""
        coords = getattr(points, "coords", points)
        return cls(kind="points", points=tuple(tuple(float(x) for x in row) for row in coords),
                   alpha=alpha, source=source, tree=tree)

    @classmethod
    def from_matrix(cls, matrix, *, source: int = 0, tree: str = "spt") -> "ScenarioSpec":
        """Spec for an explicit symmetric cost matrix (general networks)."""
        return cls(kind="matrix", matrix=tuple(tuple(float(x) for x in row) for row in matrix),
                   source=source, tree=tree)

    @classmethod
    def from_random(cls, n: int, dim: int = 2, alpha: float = 2.0, seed: int = 0,
                    *, side: float = 10.0, source: int = 0,
                    tree: str = "spt", layout: str = "uniform") -> "ScenarioSpec":
        """Spec for a seeded generated layout in ``[0, side]^dim`` (``layout``
        names a :data:`~repro.geometry.layouts.LAYOUT_FAMILIES` member)."""
        return cls(kind="random", n=n, dim=dim, alpha=alpha, seed=seed,
                   side=side, source=source, tree=tree, layout=layout)

    @classmethod
    def from_network(cls, network, *, source: int = 0, tree: str = "spt") -> "ScenarioSpec":
        """Spec describing an already-built :class:`~repro.wireless.CostGraph`.

        Euclidean networks round-trip through their point layout (keeping
        ``alpha``/``dim`` so the Euclidean-only mechanisms stay available);
        general networks through their cost matrix.  ``build_network`` on
        the result reproduces the exact same costs.
        """
        from repro.wireless.cost_graph import EuclideanCostGraph

        if isinstance(network, EuclideanCostGraph):
            return cls.from_points(network.points, network.alpha, source=source, tree=tree)
        return cls.from_matrix(network.matrix, source=source, tree=tree)

    # -- derived views ------------------------------------------------------
    @property
    def n_stations(self) -> int:
        if self.kind == "points":
            return len(self.points)
        if self.kind == "matrix":
            return len(self.matrix)
        return self.n

    @property
    def is_euclidean(self) -> bool:
        """True when the spec rebuilds an :class:`EuclideanCostGraph`."""
        return self.kind in ("points", "random")

    def agents(self) -> list[int]:
        """Every potential receiver: the explicit ``receivers`` subset when
        given, otherwise all stations but the source."""
        if self.receivers is not None:
            return list(self.receivers)
        return [i for i in range(self.n_stations) if i != self.source]

    def build_network(self):
        """Construct the described network (deterministic, exact floats)."""
        import numpy as np

        from repro.geometry.layouts import layout_points
        from repro.geometry.points import PointSet
        from repro.wireless.cost_graph import CostGraph, EuclideanCostGraph

        if self.kind == "points":
            return EuclideanCostGraph(PointSet(np.array(self.points, dtype=float)), self.alpha)
        if self.kind == "matrix":
            return CostGraph(np.array(self.matrix, dtype=float))
        points = layout_points(self.layout, self.n, self.dim, side=self.side,
                               seed=self.seed)
        return EuclideanCostGraph(points, self.alpha)

    # -- wire format --------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON dict (``None`` fields omitted; tuples become lists)."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.name in ("points", "matrix"):
                value = [list(row) for row in value]
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        known = {f.name for f in fields(cls)}
        stray = sorted(set(data) - known)
        if stray:
            raise ValueError(f"unknown ScenarioSpec fields: {stray}")
        return cls(**dict(data))

    def to_json(self, **dumps_kwargs) -> str:
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class MechanismSpec:
    """A registered mechanism name plus its (JSON-serializable) parameters."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"mechanism name must be a non-empty string, got {self.name!r}")
        object.__setattr__(self, "params", dict(self.params))

    def key(self) -> tuple:
        """Hashable identity (used by session caches)."""
        return (self.name, freeze_params(self.params))

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would choke on the params
        # dict; hash the frozen key instead (consistent with __eq__).
        return hash(self.key())

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "MechanismSpec":
        stray = sorted(set(data) - {"name", "params"})
        if stray:
            raise ValueError(f"unknown MechanismSpec fields: {stray}")
        return cls(name=data["name"], params=dict(data.get("params", {})))

    def to_json(self, **dumps_kwargs) -> str:
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "MechanismSpec":
        return cls.from_dict(json.loads(text))
