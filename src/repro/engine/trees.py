"""Array-form universal-tree kernels (paper section 2.1, vectorised).

The seed implementations of the water-filling Shapley shares and the
efficient-set tree DP materialised per-node *receiver sets* (``O(n^2)`` set
unions per evaluation, ``O(n^3)`` over a Moulin-Shenker run).  These
kernels work on a flat :class:`TreeIndex` — parent array, BFS order, and
per-node child lists pre-sorted by edge cost — and replace the set algebra
with suffix counts and a single top-down accumulation pass, making one
evaluation ``O(n)`` / ``O(sum of children^2)`` with no per-call allocation
of set objects.  The marginal-cost mechanism's leave-one-out net worths
reuse one DP pass, re-evaluating only each receiver's root path.

Both kernels replicate the reference semantics operation-for-operation
(same comparison epsilons, same tie rules, same float accumulation order
in the DP), so mechanism outputs are unchanged.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping

_EPS = 1e-12


class TreeIndex:
    """Flat index of a rooted spanning tree over stations ``0..n-1``.

    ``children[x]`` keeps the order handed in (the universal-tree
    convention: sorted by ``(edge cost, child id)`` — the order the
    water-filling shares are defined over); ``child_cost[x]`` aligns with
    it.  ``order`` is a BFS order from the source, so a reverse sweep is
    bottom-up.
    """

    __slots__ = ("n", "source", "parent", "children", "child_cost", "order")

    def __init__(self, n: int, source: int, parents: Mapping[int, int | None],
                 children: Mapping[int, list[int]],
                 cost: Callable[[int, int], float]) -> None:
        self.n = n
        self.source = source
        self.parent = [-1] * n
        for child, par in parents.items():
            self.parent[child] = -1 if par is None else par
        self.children = [list(children[x]) for x in range(n)]
        self.child_cost = [[cost(x, y) for y in self.children[x]] for x in range(n)]
        order = [source]
        for x in order:  # grows while iterating: BFS without a deque
            order.extend(self.children[x])
        if len(order) != n:
            raise ValueError("parent/children maps do not form a spanning tree")
        self.order = order


def water_filling_shares(tree: TreeIndex, receivers: Iterable[int]) -> dict[int, float]:
    """Water-filling Shapley shares of the universal-tree cost function
    restricted to ``receivers`` (paper Eq. (4) closed form).

    At each station of ``T(R)`` with wired children sorted by edge cost,
    the power increment ``c_i - c_{i-1}`` is split equally among the
    receivers routed through the ``i``-th-or-costlier children.  A
    receiver's share is the sum of those per-head increments along its
    root path, accumulated top-down in one pass.
    """
    R = set(receivers) - {tree.source}
    if not R:
        return {}
    parent = tree.parent
    in_t = bytearray(tree.n)
    in_t[tree.source] = 1
    for r in R:
        x = r
        while not in_t[x]:
            in_t[x] = 1
            x = parent[x]
    # Receivers served through each wired node's subtree.
    cnt = [0] * tree.n
    for i in R:
        cnt[i] = 1
    for x in reversed(tree.order):
        if in_t[x] and x != tree.source:
            cnt[parent[x]] += cnt[x]
    # acc[x] = total per-head payments along the root -> x path.
    acc = [0.0] * tree.n
    for x in tree.order:
        if not in_t[x]:
            continue
        kids = tree.children[x]
        costs = tree.child_cost[x]
        active = [(kids[i], costs[i]) for i in range(len(kids)) if in_t[kids[i]]]
        if not active:
            continue
        suffix = [0] * len(active)
        running = 0
        for idx in range(len(active) - 1, -1, -1):
            running += cnt[active[idx][0]]
            suffix[idx] = running
        prev_cost = 0.0
        pay = 0.0
        for idx, (y, c) in enumerate(active):
            increment = c - prev_cost
            prev_cost = c
            if increment > _EPS and suffix[idx] > 0:
                pay += increment / suffix[idx]
            acc[y] = acc[x] + pay
    return {i: acc[i] for i in R}


def water_filling_shares_many(
    tree: TreeIndex, receiver_sets: Iterable[Iterable[int]]
) -> list[dict[int, float]]:
    """:func:`water_filling_shares` for many receiver sets in one pass.

    All sets advance through the tree together: membership, subtree
    counts and the per-node payment accumulation become ``(node, set)``
    array columns, so one BFS sweep prices the whole batch — the kernel
    behind ``run_many`` / sweep-wide xi batching.

    Floats are **identical** to the serial kernel per set: the same
    ``c_i - c_{i-1}`` subtractions and ``increment / suffix`` divisions
    happen in the same left-to-right order (``np.cumsum`` accumulates
    sequentially, and the inactive positions contribute exact ``0.0``
    terms, which float addition ignores).
    """
    import numpy as np

    sets = [set(R) - {tree.source} for R in receiver_sets]
    n_sets = len(sets)
    if n_sets == 0:
        return []
    n, source, parent = tree.n, tree.source, tree.parent
    in_t = np.zeros((n, n_sets), dtype=bool)
    cnt = np.zeros((n, n_sets), dtype=np.int64)
    in_t[source, :] = True
    for s, R in enumerate(sets):
        for r in R:
            cnt[r, s] = 1
            x = r
            while not in_t[x, s]:
                in_t[x, s] = True
                x = parent[x]
    for x in reversed(tree.order):
        if x != source:
            np.add(cnt[parent[x]], cnt[x], out=cnt[parent[x]], where=in_t[x])
    acc = np.zeros((n, n_sets))
    for x in tree.order:
        kids = tree.children[x]
        if not kids:
            continue
        active = in_t[kids]  # (k, n_sets); child wired => parent wired
        if not active.any():
            continue
        costs = np.asarray(tree.child_cost[x])
        # prev[i] = cost of the last active child before i (costs are
        # sorted ascending, so the running max IS the last active one).
        running = np.maximum.accumulate(
            np.where(active, costs[:, None], -np.inf), axis=0)
        prev = np.vstack([np.full((1, n_sets), -np.inf), running[:-1]])
        prev = np.where(np.isneginf(prev), 0.0, prev)
        increment = costs[:, None] - prev
        suffix = np.cumsum(cnt[kids][::-1], axis=0)[::-1]
        term = np.where(
            active & (increment > _EPS) & (suffix > 0),
            increment / np.maximum(suffix, 1),
            0.0,
        )
        pay = np.cumsum(term, axis=0)
        acc[kids] = np.where(active, acc[x][None, :] + pay, acc[kids])
    return [{i: float(acc[i, s]) for i in R} for s, R in enumerate(sets)]


def _best_configuration(kids: list[int], costs: list[float],
                        val_w: list[float], val_size: list[int]) -> tuple[float, int, int]:
    """``(welfare, size, j)`` of the lexicographically best way to wire a
    station's children (before its own utility): ``j`` indexes the most
    expensive activated child (``-1``: none); cheaper children join
    exactly when their subtree value is non-negative.

    The one home of the DP's per-node float operations: the full pass
    and the leave-one-out path walks both call it, so a re-evaluated
    station gets bit-identical values in the same order.
    """
    best_w, best_size, best_j = 0.0, 0, -1
    for j in range(len(kids)):
        w = val_w[kids[j]] - costs[j]
        size = val_size[kids[j]]
        for i in range(j):
            cw = val_w[kids[i]]
            cs = val_size[kids[i]]
            if cw > _EPS or (abs(cw) <= _EPS and cs > 0):
                w += cw
                size += cs
        if w > best_w + _EPS or (abs(w - best_w) <= _EPS and size > best_size):
            best_w, best_size, best_j = w, size, j
    return best_w, best_size, best_j


class _EfficientSetDP:
    """One bottom-up pass of the efficient-set DP, kept for replays.

    ``val_w[v]`` / ``val_size[v]`` hold the lexicographically maximal
    ``(welfare, size)`` of ``v``'s subtree given ``v`` is wired in,
    ``choice[v]`` the winning configuration's costliest child index, and
    ``util[v]`` the utility ``v`` adds (``0.0`` for relays).
    """

    def __init__(self, tree: TreeIndex, profile: Mapping[int, float],
                 agents: Iterable[int] | None) -> None:
        n = tree.n
        if agents is None:
            is_agent = [True] * n
        else:
            is_agent = [False] * n
            for a in agents:
                is_agent[a] = True
        is_agent[tree.source] = False
        self.tree = tree
        self.is_agent = is_agent
        self.util = [float(profile.get(v, 0.0)) if is_agent[v] else 0.0 for v in range(n)]
        self.val_w = [0.0] * n
        self.val_size = [0] * n
        self.choice = [-1] * n
        for v in reversed(tree.order):
            self.choice[v] = self._evaluate(v)

    def _evaluate(self, v: int) -> int:
        """Recompute ``v`` from its children's stored values, in place;
        returns the winning child index."""
        best_w, best_size, best_j = _best_configuration(
            self.tree.children[v], self.tree.child_cost[v], self.val_w, self.val_size)
        if self.is_agent[v]:
            self.val_w[v] = best_w + self.util[v]
            self.val_size[v] = best_size + 1
        else:
            self.val_w[v], self.val_size[v] = best_w, best_size
        return best_j

    def members(self) -> frozenset:
        """The winning receiver set, rebuilt by replaying the choices."""
        tree, val_w, val_size = self.tree, self.val_w, self.val_size
        members: list[int] = []
        stack = [tree.source]
        while stack:
            v = stack.pop()
            if self.is_agent[v]:
                members.append(v)
            j = self.choice[v]
            if j < 0:
                continue
            kids = tree.children[v]
            stack.append(kids[j])
            for i in range(j):
                cw = val_w[kids[i]]
                if cw > _EPS or (abs(cw) <= _EPS and val_size[kids[i]] > 0):
                    stack.append(kids[i])
        return frozenset(members)

    def net_worth_without(self, r: int) -> float:
        """Max net worth with ``r``'s utility zeroed.

        Only ``r`` and its ancestors can change, so they are re-evaluated
        bottom-up; the walk stops at the first station whose
        ``(welfare, size)`` comes out exactly as stored, since nothing
        above it can change either.  Every overwritten value is restored
        before returning (the choices are never touched), so the pass
        stays reusable for the next receiver.
        """
        parent, val_w, val_size = self.tree.parent, self.val_w, self.val_size
        saved_util, self.util[r] = self.util[r], 0.0
        undo = []
        v = r
        while v >= 0:
            old_w, old_size = val_w[v], val_size[v]
            self._evaluate(v)
            if val_w[v] == old_w and val_size[v] == old_size:
                break
            undo.append((v, old_w, old_size))
            v = parent[v]
        nw = val_w[self.tree.source]
        for v, old_w, old_size in undo:
            val_w[v], val_size[v] = old_w, old_size
        self.util[r] = saved_util
        return nw


def efficient_set(
    tree: TreeIndex, profile: Mapping[int, float],
    agents: Iterable[int] | None = None,
) -> tuple[float, frozenset]:
    """``(max net worth, largest efficient receiver set)`` of the
    universal-tree cost function — the bottom-up DP of
    :func:`repro.core.universal_tree_mechanisms.tree_efficient_set`,
    iterative and set-free.

    For each station the DP keeps the lexicographically maximal
    ``(welfare, size)`` given the station is wired in; the winning child
    configuration is recorded as the index of the most expensive activated
    child (cheaper children join exactly when their subtree value is
    non-negative) and the receiver set is rebuilt in one descent at the
    end.

    ``agents`` optionally restricts who counts as a potential receiver:
    other stations stay pure relays — they contribute no utility and no
    set size, and never appear in the returned set.  ``None`` keeps the
    historical "every non-source station" behaviour bit-identically.
    """
    dp = _EfficientSetDP(tree, profile, agents)
    return dp.val_w[tree.source], dp.members()


def efficient_set_leave_one_out(
    tree: TreeIndex, profile: Mapping[int, float],
    agents: Iterable[int] | None = None,
) -> tuple[float, frozenset, dict[int, float]]:
    """``(NW(u), R*, {i: NW(u^{-i}) for i in R*})`` in one DP pass.

    The marginal-cost mechanism needs every receiver's leave-one-out net
    worth ``NW(u^{-i})`` (``u_i`` set to 0).  Instead of re-solving the
    DP per receiver, each one re-evaluates only its root path on the
    shared pass: ``O(n * D^2 + sum_i depth(i) * D^2)`` for max out-degree
    ``D`` rather than ``O(|R*| * n * D^2)``.  Each value equals
    ``efficient_set(tree, u with u_i = 0, agents)[0]`` bit for bit.
    ``agents`` is as in :func:`efficient_set`.
    """
    dp = _EfficientSetDP(tree, profile, agents)
    receivers = dp.members()
    return (dp.val_w[tree.source], receivers,
            {r: dp.net_worth_without(r) for r in receivers})
