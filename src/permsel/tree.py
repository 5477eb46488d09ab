"""CART-style decision tree used by the random forest learner.

Trees are grown depth-first (left child first) with an explicit stack.
Split search uses midpoint thresholds between consecutive distinct sorted
values; candidate features are drawn per node from the tree's own random
stream. Ties in impurity are broken by lowest feature index, then lowest
threshold, so growth is fully deterministic for a given stream. The
trees of a forest grow in lockstep (``grow_forest``): each step searches
the next node of every tree in one batched call, and every tree comes
out as it would grown alone. A large fit deals its trees to one forked
process per usable CPU, each growing its share in lockstep.

Prediction runs on a ``CompiledForest``: the nodes of any number of trees
in one table. Every traversal is one descent of many (tree, row) walks at
once, each from a given node, that drops the walks which have reached a
leaf every few steps. A ``ForestPaths`` records where the walks from the
roots went, so that the rows with one column shuffled are walked again
only where the column is tested.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from array import array
from typing import NamedTuple

import numpy as np

from .errors import LearnerError

_LEAF = -1


class Tree:
    """Flattened binary tree: parallel arrays indexed by node id."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.value = np.asarray(value, dtype=float)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf value for every row of X."""
        return CompiledForest([self]).leaf_values(X)[0]

    def to_dict(self) -> dict:
        return {name: getattr(self, name).tolist() for name in self.__slots__}

    @classmethod
    def from_dict(cls, d: dict) -> "Tree":
        return cls(*(d[name] for name in cls.__slots__))


class CompiledForest:
    """The nodes of several trees in one table, for batched traversal.

    Node ids are offset per tree, so tree t starts at ``roots[t]``. A leaf
    tests feature 0 and both its children are itself, so a walk that has
    reached a leaf stays there until it is dropped. ``child[2 * i + 1]``
    is the left child of node i (taken when ``x <= threshold``) and
    ``child[2 * i]`` the right one. Every traversal is one ``_descend``.
    """

    __slots__ = ("feature", "threshold", "child", "value", "leaf", "roots")

    def __init__(self, trees: list[Tree]):
        sizes = [t.feature.size for t in trees]
        self.roots = np.cumsum([0] + sizes[:-1]).astype(np.intp)
        feature = np.concatenate([t.feature for t in trees]).astype(np.intp)
        left = np.concatenate([t.left + r for t, r in zip(trees, self.roots)])
        right = np.concatenate([t.right + r for t, r in zip(trees, self.roots)])
        leaf = feature == _LEAF
        left[leaf] = right[leaf] = np.flatnonzero(leaf)
        feature[leaf] = 0
        self.feature = feature
        self.threshold = np.concatenate([t.threshold for t in trees])
        self.child = np.empty(2 * feature.size, dtype=np.intp)
        self.child[0::2] = right
        self.child[1::2] = left
        self.value = np.concatenate([t.value for t in trees])
        self.leaf = leaf

    def _descend(self, X, node, own, out, values, shuffled=None, visit=None):
        """Walk i from ``node[i]`` to a leaf on the row of X at flat index
        ``own[i]`` (on the row at ``moved[i]`` in column ``column[i]``, with
        ``shuffled = (column, moved)``) and return ``values`` with the
        leaf's value at ``out[i]``. Every ``_STEPS_PER_COMPACTION`` steps
        each walk writes its node's value and those at a leaf are dropped.
        ``visit(node, out)`` sees the live walks before each step."""
        flat = X.ravel()
        while out.size:
            for _ in range(_STEPS_PER_COMPACTION):
                if visit is not None:
                    visit(node, out)
                go_left = self._goes_left(flat, node, own, shuffled)
                node = self.child[2 * node + go_left]
            values[out] = self.value[node]
            live = ~self.leaf[node]
            node, own, out = node[live], own[live], out[live]
            if shuffled is not None:
                shuffled = shuffled[0][live], shuffled[1][live]
        return values

    def _goes_left(self, flat, node, own, shuffled):
        """Whether each walk of ``_descend`` goes left from ``node`` (its own
        function, so that its arrays are freed before the child lookup)."""
        feature = self.feature[node]
        base = own if shuffled is None else np.where(feature == shuffled[0], shuffled[1], own)
        return flat[base + feature] <= self.threshold[node]

    def leaf_values(self, X: np.ndarray, visit=None) -> np.ndarray:
        """(trees, rows) matrix: the leaf value each tree gives each row.
        It is one ``_descend`` from the roots, where a walk's ``out`` is its
        pair ``tree * rows + row``; ``visit`` is passed on to it."""
        n, w = X.shape
        T = self.roots.size
        return self._descend(X, np.repeat(self.roots, n), np.tile(np.arange(n) * w, T),
                             np.arange(T * n), np.empty(T * n), visit=visit).reshape(T, n)

    def paths(self, X: np.ndarray) -> "ForestPaths":
        """Walk every tree for every row of X, as ``leaf_values`` does, and
        record, for each feature, the (tree, row) pairs whose path tests it
        and the first node on the path that does."""
        n, w = X.shape
        P = self.roots.size * n
        keys, nodes = [], []

        def visit(node, pair):
            internal = ~self.leaf[node]
            node = node[internal]
            keys.append(self.feature[node] * P + pair[internal])
            nodes.append(node)

        leaf = self.leaf_values(X, visit)
        # each walk is visited in step order, so a key's first occurrence is
        # the shallowest node that tests that feature on that pair's path
        key, first = np.unique(np.concatenate(keys), return_index=True)
        tested = key // P
        return ForestPaths(X, leaf, np.searchsorted(tested, np.arange(w + 1)),
                           key - tested * P, np.concatenate(nodes)[first])

    def shuffled_leaf_values(self, paths: "ForestPaths", features: np.ndarray,
                             row_maps: np.ndarray) -> np.ndarray:
        """(jobs, trees, rows) leaf values of the rows of ``paths`` when job
        j reads column ``features[j]`` through its row map: row i sees
        ``X[row_maps[j, i], features[j]]`` there and its own values in
        every other column.

        A pair whose path does not test the job's column keeps its leaf
        from ``paths``. The others are walked again from the first node
        that tests the column.
        """
        n, w = paths.X.shape
        P = paths.leaf.size
        lo, hi = paths.offsets[features], paths.offsets[features + 1]
        counts = hi - lo
        job = np.repeat(np.arange(features.size), counts)
        entry = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts,
                                                     counts)
        pair = paths.pairs[entry]
        row = pair % n
        moved = row_maps[job, row] * w  # where its shuffled value is
        values = self._descend(paths.X, paths.nodes[entry], row * w, job * P + pair,
                               np.tile(paths.leaf.ravel(), features.size),
                               shuffled=(features[job], moved))
        return values.reshape(features.size, -1, n)


# Steps of a descent between two drops of the walks that have reached a leaf
_STEPS_PER_COMPACTION = 4


class ForestPaths(NamedTuple):
    """Where the walks of one set of rows ``X`` go in a ``CompiledForest``.

    ``leaf`` is the (trees, rows) leaf-value matrix. A pair is
    ``tree * rows + row``; the pairs whose path tests feature f are
    ``pairs[offsets[f]:offsets[f + 1]]``, in ascending order, and
    ``nodes`` holds the first node on each of those paths that tests f.
    """

    X: np.ndarray
    leaf: np.ndarray
    offsets: np.ndarray
    pairs: np.ndarray
    nodes: np.ndarray


# Elements (nodes x candidates x padded width) that one search block may
# hold; a classification block shares it among its class planes.
_BUDGET = 1 << 14


def _rank_table(X):
    """Feature-major int32 dense ranks of the columns of X: equal values
    share a rank and a larger value has a larger one. The last column is
    a sentinel row that ranks above every value. The table is built a
    block of features at a time, so its sort transients stay within the
    search budget."""
    n, w = X.shape
    ranks = np.empty((w, n + 1), dtype=np.int32)
    ranks[:, n] = n
    step = max(1, _BUDGET // n)
    for lo in range(0, w, step):
        V = X[:, lo:lo + step].T
        order = V.argsort(axis=1)
        vs = np.take_along_axis(V, order, axis=1)
        dense = np.zeros(vs.shape, dtype=np.int32)
        np.not_equal(vs[:, 1:], vs[:, :-1], out=dense[:, 1:])
        np.cumsum(dense, axis=1, out=dense)
        np.put_along_axis(ranks[lo:lo + step, :n], order, dense, axis=1)
    return ranks


class _Search:
    """What every split search of one fit reads: the rank table of X, X
    itself (for thresholds), the targets with the sentinel row's (0 in
    regression, ``class_count`` in classification, which counts for no
    class), and scratch arrays that every search block reuses. Fresh
    block-sized arrays would go back to the system after each block and
    be faulted in again for the next."""

    __slots__ = ("ranks", "X", "target", "classification", "class_count", "room",
                 "_block", "_scratch")

    def __init__(self, X, y, classification: bool, class_count: int):
        self.ranks = _rank_table(X)
        self.X = X
        self.target = np.concatenate((y, [class_count if classification else 0]))
        self.classification = classification
        self.class_count = class_count
        # elements of one search block per class plane, and the most a
        # block holds when a node of every row is searched a candidate at
        # a time
        self.room = _BUDGET // max(class_count, 1)
        self._block = max(self.room, X.shape[0])
        self._scratch = {}

    def scratch(self, name, shape, dtype=float):
        """The reused array ``name`` viewed as ``shape``, whose last three
        axes are (nodes, candidates, width) and whose leading axes are
        planes. It is allocated once for the largest block (untouched
        pages cost no memory), so that it is not regrown block by block."""
        size = math.prod(shape)
        flat = self._scratch.get(name)
        if flat is None or flat.size < size:
            planes = size // math.prod(shape[-3:])
            flat = self._scratch[name] = np.empty(max(size, planes * self._block), dtype)
        return flat[:size].reshape(shape)


def _best_splits(search, nodes):
    """Best (feature, threshold) of each (rows, candidates) node, or None
    where a node has no split.

    Every node holds at least two rows and at least one candidate. Each
    is cut into consecutive groups of as many candidates as a block
    of ``_BUDGET`` elements holds. Groups of equal candidate count are
    packed into blocks in order of row count. The counts are taken largest
    first (only a node's last group is smaller), so a node's groups come
    in candidate order, and a later group's split replaces the node's only
    when it is strictly better: the lowest feature still wins ties.
    """
    room = search.room
    by_count = {}
    for i, (rows, candidates) in enumerate(nodes):
        step = max(1, room // rows.size)
        for lo in range(0, candidates.size, step):
            part = candidates[lo:lo + step]
            by_count.setdefault(part.size, []).append((i, rows, part))
    best, found = [np.inf] * len(nodes), [None] * len(nodes)
    for c in sorted(by_count, reverse=True):
        # a stable sort keeps each node's groups in candidate order
        groups = sorted(by_count[c], key=lambda g: g[1].size)
        start = 0
        while start < len(groups):
            # as many of the next groups as fit, padded to the widest of them
            stop = start + 1
            while stop < len(groups) and (stop - start + 1) * c * groups[stop][1].size <= room:
                stop += 1
            block, start = groups[start:stop], stop
            values, splits = _search_block(search, [g[1:] for g in block])
            for (i, _, _), value, split in zip(block, values, splits):
                if value < best[i]:
                    best[i], found[i] = value, split
    return found


def _search_block(search, nodes):
    """Lowest weighted child impurity of each node and its split (None
    where there is none), from one search over all of them.

    Shorter nodes are padded with the sentinel row to the longest one, so
    the search is one (nodes, candidates, width) block. Each element's
    sort key is ``rank << b | position``, the position counted across the
    block: one integer sort orders every feature row by value, with tied
    values in position order, as a stable sort would. The padding sorts
    last, and no split is taken at or past a node's last row. Every
    node's weighted child impurities are the per-node search's, term for
    term: class counts are exact integers, and the regression prefix sums
    add tied targets in position order. The winner is the first minimum
    in (feature, position) order, the lowest-feature-then-lowest-threshold
    tie rule. The threshold is the midpoint of the values in X of the
    rows on either side of the split.
    """
    B = len(nodes)
    ranks, q = search.ranks, search.class_count
    stride = ranks.shape[1]
    sizes = np.array([rows.size for rows, _ in nodes])
    width = int(sizes.max())
    R = np.full((B, width), stride - 1)
    for i, (rows, _) in enumerate(nodes):
        R[i, :rows.size] = rows
    C = np.array([candidates for _, candidates in nodes])
    k = C.shape[1]
    shape = (B, k, width)
    m = sizes[:, None, None].astype(float)
    # the take indices are in range, and mode="wrap" writes into out
    # unbuffered; the ranks are gathered into the memory of pos, unused
    # until the sort is done
    keys = search.scratch("keys", shape, np.int64)
    np.add(C[:, :, None] * stride, R[:, None, :], out=keys)
    pos = search.scratch("pos", shape, np.int64)
    ranked = ranks.take(keys, out=pos.reshape(-1).view(np.int32)[:keys.size]
                        .reshape(shape), mode="wrap")
    b = (B * width - 1).bit_length()
    np.left_shift(ranked, b, out=keys, dtype=np.int64)
    keys |= np.arange(B * width).reshape(B, 1, width)
    keys.sort(axis=-1)
    # the sorted positions in the flattened R, then the sorted ranks in place
    np.bitwise_and(keys, (1 << b) - 1, out=pos)
    keys >>= b
    # tie: no split between sorted positions p and p + 1; the last position
    # of a feature row compares with the next row, and is then set
    tie = search.scratch("tie", shape, bool)
    np.equal(keys.reshape(-1)[1:], keys.reshape(-1)[:-1], out=tie.reshape(-1)[:-1])
    tie[..., -1] = True
    if sizes.min() < width:
        tie |= np.arange(width) >= m - 1
    # [left, right] row counts at each split position; the right count is
    # 0 only after a node's last row, where tie is set
    counts = np.empty((2, B, 1, width))
    counts[0] = np.arange(1, width + 1)
    np.maximum(m - counts[0], 1.0, out=counts[1])
    targets = search.target.take(R)
    if search.classification:
        # [left, right] sums of squared class counts, from one cumsum over
        # the one-hot codes; code q counts nothing
        ys = targets.take(pos, out=keys, mode="wrap")   # over the spent ranks
        sides = search.scratch("sides", (2, q) + shape)
        np.eye(q, q + 1).take(ys, axis=1, out=sides[1], mode="wrap")
        np.cumsum(sides[1], axis=-1, out=sides[0])
        np.subtract(sides[0, ..., -1:], sides[0], out=sides[1])
        sides *= sides
        gini = sides.sum(axis=1, out=search.scratch("gini", (2,) + shape))
        gini /= counts * counts
        np.subtract(1.0, gini, out=gini)
        gini *= counts
        weighted = np.add(gini[0], gini[1], out=gini[0])
    else:
        sums = search.scratch("sums", (2,) + shape)     # [left, right] target sums
        sums2 = search.scratch("sums2", (2,) + shape)   # and sums of squares
        # ys lives in sums2[1] until the right sums of squares replace it
        ys = targets.take(pos, out=sums2[1], mode="wrap")
        np.cumsum(ys, axis=-1, out=sums[0])
        np.subtract(sums[0, ..., -1:], sums[0], out=sums[1])
        np.cumsum(np.multiply(ys, ys, out=ys), axis=-1, out=sums2[0])
        np.subtract(sums2[0, ..., -1:], sums2[0], out=sums2[1])
        # count * max(sum2 / count - (sum / count) ** 2, 0)
        np.divide(sums2, counts, out=sums2)
        np.divide(sums, counts, out=sums)
        np.multiply(sums, sums, out=sums)
        np.subtract(sums2, sums, out=sums2)
        np.maximum(sums2, 0.0, out=sums2)
        np.multiply(sums2, counts, out=sums2)
        weighted = np.add(sums2[0], sums2[1], out=sums2[0])
    weighted /= m
    np.putmask(weighted, tie, np.inf)
    best = weighted.reshape(B, -1).argmin(axis=1)
    flat = best + np.arange(0, B * k * width, k * width)
    value = weighted.reshape(-1)[flat]
    feature = C.reshape(-1)[best // width + np.arange(0, B * k, k)]
    # the rows on either side of each winning split
    rows = R.reshape(-1).take(pos.reshape(-1).take(flat[:, None] + (0, 1)))
    v = search.X[rows, feature[:, None]]
    threshold = 0.5 * np.add(v[:, 0], v[:, 1])
    return value, [(int(feature[i]), float(threshold[i])) if value[i] < np.inf
                   else None for i in range(B)]


def _floyd(v, m):
    """The ascending sets that Floyd's algorithm makes of the rows of v,
    where ``v[:, t]`` was drawn from [0, m - k + t] (k columns).

    Floyd's step t takes ``v[:, t]``, or ``m - k + t`` when that value is
    taken already. A value below m - k can only have been taken as an
    earlier draw. A value ``m - k + u`` (u < t) is taken when an earlier
    draw equals it (only draws u and later can) or when step u took it
    in place of a collision, so ``collided[t] = seen[t] or (collided[u]
    when v[t] = m - k + u, u < t)``. That chain is followed in rounds over
    all rows at once, each round one link deeper, until nothing changes.
    """
    n, k = v.shape
    t = np.arange(k)
    first = np.arange(0, n * k, k)[:, None]   # flat index of each row's draw 0
    # seen[r, t]: draw t of row r repeats an earlier draw of the row (the
    # keys v * k + t sort each row by value, then by draw)
    key = v * k + t
    key.sort(axis=1)
    value, draw = np.divmod(key, k)
    seen = np.zeros(n * k, dtype=bool)
    seen[draw[:, 1:] + first] = value[:, 1:] == value[:, :-1]
    seen = seen.reshape(n, k)
    u = v - (m - k)
    chained = (u >= 0) & (u < t)
    link = np.where(chained, u, 0) + first
    collided = seen
    while True:
        deeper = seen | chained & collided.reshape(-1)[link]
        if np.array_equal(deeper, collided):
            break
        collided = deeper
    return np.sort(np.where(collided, m - k + t, v), axis=1)


def _draw_candidates(growths):
    """Give every growth that draws its candidates in chunks the sorted
    candidate sets of its next ``_CANDIDATE_CHUNK`` nodes, from one
    ``rng.integers`` call per tree.

    They are the sets that as many calls of ``np.sort(rng.choice(m, k,
    replace=False))`` return, and the stream ends where theirs does:
    ``choice`` runs Floyd's algorithm, which draws from [0, j] for
    j = m - k ... m - 1, and then shuffles the k values it took, drawing
    from [0, i] for i = k - 1 ... 1. The shuffle does not change the
    sorted set, so only its draws are taken. The collisions are resolved
    (``_floyd``) for the trees of one (pool size, k) at once, in blocks
    of at most ``_BUDGET`` candidates.
    """
    chunk = _CANDIDATE_CHUNK
    by_shape = {}
    for g in growths:
        if g.chunked:
            by_shape.setdefault((g.pool.size, g.max_features), []).append(g)
    for (m, k), group in by_shape.items():
        bounds = np.tile(np.concatenate((np.arange(m - k + 1, m + 1),
                                         np.arange(k, 1, -1))), chunk)
        step = max(1, _BUDGET // (chunk * k))
        for lo in range(0, len(group), step):
            block = group[lo:lo + step]
            v = np.stack([g.rng.integers(0, bounds).reshape(chunk, -1)[:, :k]
                          for g in block])
            sets = _floyd(v.reshape(-1, k), m).reshape(v.shape)
            for g, s in zip(block, sets):
                g.drawn = g.pool[s]


def _partition(X, split, splits, kept):
    """The rows of all the nodes of a step in one array, and the edges of
    its segments: node i of ``split`` is cut on ``splits[i] = (feature,
    threshold)`` into its right rows, then its left ones (``x <=
    threshold``), each in their order, and each node of ``kept`` follows
    whole. The right child comes first because it is pushed first, so
    that the left subtree grows first."""
    rows = np.concatenate(split + kept)
    edges = np.concatenate(([0], np.cumsum([r.size for r in split + kept])))
    S = len(split)
    if not S:
        return rows, edges
    feature = np.array([f for f, _ in splits])
    threshold = np.array([thr for _, thr in splits])
    seg = np.repeat(np.arange(S, dtype=np.int32), np.diff(edges[:S + 1]))
    ns = seg.size
    goes_left = X[rows[:ns], feature[seg]] <= threshold[seg]
    rows[:ns] = rows[:ns][np.argsort(2 * seg + goes_left, kind="stable")]
    cuts = np.empty(2 * S, dtype=edges.dtype)
    cuts[0::2] = edges[:S]
    cuts[1::2] = edges[1:S + 1] - np.add.reduceat(goes_left, edges[:S], dtype=edges.dtype)
    return rows, np.concatenate((cuts, edges[S:]))


def _settle(search, rows, edges, leaf):
    """Leaf flags and leaf values of the nodes whose rows are
    ``rows[edges[i]:edges[i + 1]]`` (none empty). A node is a leaf where
    ``leaf`` says so or where all its targets are equal; ``values`` holds
    each leaf's value (and any value elsewhere)."""
    y = search.target[rows]
    lo = edges[:-1]
    leaf = leaf | (np.minimum.reduceat(y, lo) == np.maximum.reduceat(y, lo))
    sizes = np.diff(edges)
    if search.classification:
        q = search.class_count
        counts = np.bincount(np.repeat(np.arange(0, q * sizes.size, q), sizes) + y,
                             minlength=q * sizes.size)
        # argmax -> lowest class wins ties
        return leaf, counts.reshape(-1, q).argmax(axis=1).astype(float)
    # np.mean's sum and division: a one-row leaf's is y + 0.0 (the mean of
    # a single -0.0 is 0.0), and numpy sums 3 or more values in another
    # order than a running sum, so each larger leaf takes its own
    values = y[lo] + 0.0
    for i in np.flatnonzero(leaf & (sizes > 1)).tolist():
        values[i] = y[edges[i]:edges[i + 1]].sum() / sizes[i]
    return leaf, values


class _Growth:
    """One tree being grown: its stream, its candidate pool (ascending
    columns of X) and how many candidates a node draws from it, its
    depth-first stack of the (node, rows, depth) that need a split
    search, and its node buffers. A tree whose nodes draw from a part of
    the pool through Floyd's algorithm draws them ``_CANDIDATE_CHUNK``
    nodes at a time (``chunked``; ``drawn`` holds the sets). A split
    appends its two children as leaves to the buffers, and records the
    column of X it tests until ``tree`` maps it into the pool."""

    __slots__ = ("rng", "pool", "max_features", "chunked", "drawn", "stack",
                 "feature", "threshold", "left", "value")

    def __init__(self, rng, pool, max_features):
        self.rng = rng
        self.pool = pool
        self.max_features = k = max_features
        m = pool.size
        # above 10000 columns numpy's choice shuffles the tail of the pool
        # in place of Floyd's algorithm once k > m // 50
        self.chunked = k < m and not (m > 10000 and k > m // 50)
        self.drawn = None
        self.stack = []
        self.feature, self.left = array("i", [_LEAF]), array("i", [_LEAF])
        self.threshold, self.value = array("d", [0.0]), array("d", [0.0])

    def candidates(self, step):
        """The ascending columns of X that the node searched at ``step``
        (counted from the first step of its group) searches."""
        k, m = self.max_features, self.pool.size
        if self.chunked:
            return self.drawn[step % _CANDIDATE_CHUNK]
        if k < m:
            return self.pool[np.sort(self.rng.choice(m, size=k, replace=False))]
        return self.pool

    def split(self, node, feature, threshold) -> int:
        """Make ``node`` internal; returns the id of its new left child,
        the right one being the next id."""
        left = len(self.feature)
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = left
        self.feature.extend((_LEAF, _LEAF))
        self.left.extend((_LEAF, _LEAF))
        self.threshold.extend((0.0, 0.0))
        self.value.extend((0.0, 0.0))
        return left

    def tree(self) -> Tree:
        feature, left = np.array(self.feature), np.array(self.left)
        leaf = feature == _LEAF
        feature[~leaf] = np.searchsorted(self.pool, feature[~leaf])
        right = np.where(leaf, _LEAF, left + 1)
        return Tree(feature, np.array(self.threshold), left, right, np.array(self.value))


# Trees x rows that grow in one lockstep group: the trees of a group
# hold their stacks and node buffers at once
_GROUP_ROWS = 1 << 15
# Nodes whose candidate sets a tree draws at once
_CANDIDATE_CHUNK = 16


def grow_forest(X, y, rngs, pools, max_features, *, bootstrap: bool,
                classification: bool, class_count: int, min_samples_split: int,
                max_depth: int | None) -> list[Tree]:
    """Grow tree t on the rows of (X, y), or on a bootstrap sample of
    them drawn first from ``rngs[t]``, drawing ``max_features[t]``
    candidates per node from the ascending columns ``pools[t]`` of X with
    the same stream; the trees grow in lockstep.

    Tree t is the tree that a one-at-a-time growth on
    ``X[:, pools[t]]`` would give: it keeps its own depth-first stack
    (left child first) and its own stream, and its features index its
    pool. The searches read the rank table of X, built once here; a
    column's ranks do not depend on the other columns.

    The trees are dealt round robin to ``_process_count`` processes: this
    one, which grows the first share, and children made with
    ``os.fork``, which grow the others from the same rank table and send
    their trees back over a pipe, pickled. Each share grows as
    ``_grow_share`` says, so the trees do not depend on the number of
    processes. A share that cannot be forked grows here. The streams of
    the trees grown in a child do not advance in this process (callers
    discard them after the fit). Every child is reaped before this
    returns; when this process's own share raises, the children are
    killed first, and a child that fails makes the fit raise a
    ``LearnerError``.
    """
    search = _Search(X, y, classification, class_count)
    T = len(rngs)

    def grow(share):
        return _grow_share(search, [rngs[t] for t in share], [pools[t] for t in share],
                           [max_features[t] for t in share], bootstrap=bootstrap,
                           min_samples_split=min_samples_split, max_depth=max_depth)

    processes = _process_count(T, X.shape[0] * sum(max_features))
    shares = [range(p, T, processes) for p in range(processes)]
    trees = [None] * T
    children = []   # (pid, read end of its pipe, share) of each child not yet reaped
    try:
        own = list(shares[0])
        for share in shares[1:]:
            try:
                children.append(_fork_share(grow, share))
            except OSError:  # no process to spare: the share grows here
                own += share
        for t, tree in zip(own, grow(own)):
            trees[t] = tree
        while children:
            pid, pipe, share = children[0]
            with pipe:
                sent = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code:
                raise LearnerError(f"the process growing trees {list(share)} of the forest "
                                   f"failed (exit status {code}): "
                                   f"{sent.decode(errors='replace') or 'no message'}")
            for t, tree in zip(share, pickle.loads(sent)):
                trees[t] = tree
    finally:
        if children:
            import signal  # here, since the module adds ~1 ms to every start-up
        for pid, pipe, _ in children:
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)
    return trees


# Rows x candidates per tree, summed over the trees, that each process of
# a fit must grow for the fit to be dealt to more than one process
_SHARE_FLOOR = 1 << 14


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork or
    read its CPU affinity (only Linux does both)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _process_count(trees: int, size: int) -> int:
    """How many processes grow a fit of ``trees`` trees whose rows x
    candidates, summed over the trees, are ``size``: one per usable CPU,
    at most one per tree and at least ``_SHARE_FLOOR`` of the size each.
    It is 1 while another Python thread runs, since a forked child holds
    only the forking thread and whatever locks the others held."""
    if threading.active_count() > 1:
        return 1
    return max(1, min(_usable_cpus(), trees, size // _SHARE_FLOOR))


def _fork_share(grow, share):
    """Fork a child that grows the trees of ``share`` with ``grow`` and
    writes them, pickled, to a pipe, or, if it fails, why, and exits with
    ``os._exit``, so that no exit handler or stdio flush of this process
    runs twice. Only this process reads the pipe, and it unpickles what
    the child sent only after a zero exit status. Returns (pid, read end
    of the pipe as a file, share)."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with open(write, "wb") as out:
                try:
                    out.write(pickle.dumps(grow(share)))
                    code = 0
                except Exception as exc:
                    out.write(f"{type(exc).__name__}: {exc}".encode())
        finally:
            os._exit(code)
    os.close(write)
    return pid, open(read, "rb"), share


def _grow_share(search, rngs, pools, max_features, *, bootstrap: bool,
                min_samples_split: int, max_depth: int | None) -> list[Tree]:
    """Grow the trees of one share of a ``grow_forest`` call, as it says,
    on the rank table of ``search``.

    A step pops the next node of every tree and searches them all in one
    ``_best_splits`` call. The winning splits partition all their rows in
    one stable pass, and their children are settled at once
    (``_settle``), so that a stack holds only nodes that need a search;
    the roots are settled the same way. X itself is read only at the rows
    that place a threshold and when a node is split. The trees grow in
    groups of at most ``_GROUP_ROWS`` rows in all (at least one tree
    each), one group after the other, and a tree is copied out of its
    node buffers as soon as it is done.
    """
    depth_limit = np.inf if max_depth is None else max_depth
    X = search.X
    n = X.shape[0]
    every_row = np.arange(n)
    trees = [None] * len(rngs)

    def settle(items, rows, edges):
        """Settle the nodes ``items[i] = (g, node, depth)`` whose rows are
        ``rows[edges[i]:edges[i + 1]]``: record the value of a leaf and
        push every other node, in order. A node of infinite depth (one
        whose search found no split) is a leaf."""
        depth = np.array([d for _, _, d in items], dtype=float)
        leaf, values = _settle(search, rows, edges, (np.diff(edges) < min_samples_split)
                               | (depth >= depth_limit))
        for (g, node, d), is_leaf, value, a, b in zip(
                items, leaf.tolist(), values.tolist(), edges.tolist(), edges[1:].tolist()):
            if is_leaf:
                g.value[node] = value
            else:  # a copy, so that the step's array goes once its nodes are popped
                g.stack.append((node, rows[a:b].copy(), d))

    group = max(1, _GROUP_ROWS // n)
    for lo in range(0, len(rngs), group):
        live = [(t, _Growth(rngs[t], pools[t], max_features[t]))
                for t in range(lo, min(lo + group, len(rngs)))]
        settle([(g, 0, 0) for _, g in live],
               np.concatenate([g.rng.integers(0, n, size=n) if bootstrap else every_row
                               for _, g in live]),
               np.arange(0, n * len(live) + 1, n))
        step = 0
        while True:
            for t, g in live:
                if not g.stack:  # every node is settled: copy the tree out of its buffers
                    trees[t] = g.tree()
            live = [(t, g) for t, g in live if g.stack]
            if not live:
                break
            if step % _CANDIDATE_CHUNK == 0:
                _draw_candidates([g for _, g in live])
            popped = [(g,) + g.stack.pop() for _, g in live]
            found = _best_splits(search, [(rows, g.candidates(step))
                                          for g, _, rows, _ in popped])
            step += 1
            split = [(it, best) for it, best in zip(popped, found) if best is not None]
            kept = [it for it, best in zip(popped, found) if best is None]
            rows, edges = _partition(X, [rows for (_, _, rows, _), _ in split],
                                     [best for _, best in split],
                                     [rows for _, _, rows, _ in kept])
            children = []
            for (g, node, _, depth), (f, thr) in split:
                left = g.split(node, f, thr)
                children += [(g, left + 1, depth + 1), (g, left, depth + 1)]
            settle(children + [(g, node, math.inf) for g, node, _, _ in kept], rows, edges)
    return trees


def grow_tree(X, y, rng, *, classification: bool, class_count: int,
              max_features: int, min_samples_split: int,
              max_depth: int | None) -> Tree:
    """Grow one tree on the (already resampled) training arrays."""
    return grow_forest(X, y, [rng], [np.arange(X.shape[1])], [max_features],
                       bootstrap=False, classification=classification,
                       class_count=class_count, min_samples_split=min_samples_split,
                       max_depth=max_depth)[0]
