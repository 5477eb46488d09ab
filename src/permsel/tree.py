"""CART-style decision tree used by the random forest learner.

Trees are grown depth-first (left child first) with an explicit stack.
Split search uses midpoint thresholds between consecutive distinct sorted
values; candidate features are drawn per node from the tree's own random
stream. Ties in impurity are broken by lowest feature index, then lowest
threshold, so growth is fully deterministic for a given stream. The
trees of a forest grow in lockstep (``grow_forest``): each step searches
the next node of every tree in one batched call, and every tree comes
out as it would grown alone.

Prediction runs on a ``CompiledForest``: the nodes of any number of trees
in one table, traversed by every tree for every row at once.
"""

from __future__ import annotations

import numpy as np

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
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Tree":
        return cls(d["feature"], d["threshold"], d["left"], d["right"], d["value"])


class CompiledForest:
    """The nodes of several trees in one table, for batched traversal.

    Node ids are offset per tree, so tree t starts at ``roots[t]``. A leaf
    tests feature 0 and both its children are itself, so a row that has
    reached a leaf stays there: ``depth`` steps (the deepest leaf's depth)
    bring every row to its leaf in every tree. ``child[2 * i + 1]`` is the
    left child of node i (taken when ``x <= threshold``) and
    ``child[2 * i]`` the right one.
    """

    __slots__ = ("feature", "threshold", "child", "value", "roots", "depth")

    def __init__(self, trees: list[Tree]):
        sizes = [t.feature.size for t in trees]
        self.roots = np.cumsum([0] + sizes[:-1]).astype(np.intp)
        feature = np.concatenate([t.feature for t in trees]).astype(np.intp)
        left = np.concatenate([t.left + r for t, r in zip(trees, self.roots)])
        right = np.concatenate([t.right + r for t, r in zip(trees, self.roots)])
        leaf = feature == _LEAF
        ids = np.arange(feature.size)
        left[leaf] = right[leaf] = ids[leaf]
        feature[leaf] = 0
        self.feature = feature
        self.threshold = np.concatenate([t.threshold for t in trees])
        self.child = np.empty(2 * feature.size, dtype=np.intp)
        self.child[0::2] = right
        self.child[1::2] = left
        self.value = np.concatenate([t.value for t in trees])
        depth, level = 0, self.roots[~leaf[self.roots]]
        while level.size:
            level = np.concatenate([left[level], right[level]])
            level = level[~leaf[level]]
            depth += 1
        self.depth = depth

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """(trees, rows) matrix: the leaf value each tree gives each row."""
        n, w = X.shape
        flat = X.ravel()
        row_base = np.arange(n) * w
        node = np.broadcast_to(self.roots[:, None], (self.roots.size, n))
        for _ in range(self.depth):
            go_left = flat[row_base + self.feature[node]] <= self.threshold[node]
            node = self.child[2 * node + go_left]
        return self.value[node]


def _leaf_value(y, classification: bool, class_count: int) -> float:
    if classification:
        counts = np.bincount(y.astype(np.int64, copy=False), minlength=class_count)
        return float(np.argmax(counts))  # argmax -> lowest class wins ties
    return float(y.sum() / y.size)  # np.mean's sum and division


def _best_splits(XT, target, nodes, classification, class_count):
    """Best (feature, threshold) of each (rows, candidates) node, or None
    where a node has no split, from one search over all of them.

    ``XT`` is the feature-major matrix whose last column is a sentinel
    row of +inf, and ``target`` gives that row the target 0 (regression)
    or ``class_count``, which counts for no class. Shorter nodes are
    padded with it to the longest one, so the values form one
    (nodes, candidates, width) block sorted along its last axis; the
    padding sorts last and no split is taken at or past a node's last
    row. Every node's weighted child impurities are the per-node
    search's, term for term: class counts are exact integers in any
    order of tied values, and where tied values carry different
    regression targets that feature row is re-sorted stably, so its
    prefix sums add the targets in the same order. The winner is the
    first minimum in (feature, position) order, the
    lowest-feature-then-lowest-threshold tie rule.
    """
    B = len(nodes)
    stride = XT.shape[1]
    sizes = np.array([rows.size for rows, _ in nodes])
    width = int(sizes.max())
    R = np.full((B, width), stride - 1)
    for i, (rows, _) in enumerate(nodes):
        R[i, :rows.size] = rows
    C = np.array([candidates for _, candidates in nodes])
    m = sizes[:, None, None].astype(float)
    last = None if sizes.min() == width else sizes[:, None, None] - 1
    k = C.shape[1]
    V = XT.take(C[:, :, None] * stride + R[:, None, :])      # (B, k, width)
    order = V.argsort(axis=-1)
    vs = V.take(order + np.arange(0, B * k * width, width).reshape(B, k, 1))
    targets = target.take(R)                                 # (B, width)
    ys = targets.take(order + np.arange(0, B * width, width)[:, None, None])
    # tie[i]: no split between flat sorted positions i and i + 1; the last
    # position of each feature row compares with the next row, so it is
    # cleared for the target check and then set
    N = vs.size
    tie = np.empty(N, dtype=bool)
    np.equal(vs.reshape(-1)[1:], vs.reshape(-1)[:-1], out=tie[:-1])
    tie[width - 1::width] = False
    if not classification:
        clash = np.empty(N, dtype=bool)
        np.not_equal(ys.reshape(-1)[1:], ys.reshape(-1)[:-1], out=clash[:-1])
        clash[-1] = False
        clash &= tie
        if clash.any():
            bad = np.zeros(B * k, dtype=bool)
            bad[np.flatnonzero(clash) // width] = True
            bad = bad.reshape(B, k)
            stable = V[bad].argsort(axis=-1, kind="stable")
            ys[bad] = targets.take(stable + (np.nonzero(bad)[0] * width)[:, None])
    tie[width - 1::width] = True
    tie = tie.reshape(V.shape)
    if last is not None:
        tie |= np.arange(width) >= last
    # [left, right] row counts at each split position; the right count is
    # 0 only after a node's last row, where tie is set
    counts = np.empty((2, np.size(m), 1, width))
    counts[0] = np.arange(1, width + 1)
    np.maximum(m - counts[0], 1.0, out=counts[1])
    if classification:
        # [left, right] sums of squared class counts, from one cumsum over
        # the one-hot codes of as many classes as fit the size of one root
        # search (rows x candidates); code class_count counts nothing
        gini = np.zeros((2,) + V.shape)
        group = max(1, (stride - 1) * k // V.size)
        onehot = np.eye(class_count, class_count + 1)
        for lo in range(0, class_count, group):
            codes = onehot[lo:lo + group]
            sides = np.empty((2, codes.shape[0]) + V.shape)
            np.cumsum(codes.take(ys, axis=1), axis=-1, out=sides[0])
            np.subtract(sides[0, ..., -1:], sides[0], out=sides[1])
            sides *= sides
            gini += sides.sum(axis=1)
        gini /= counts * counts
        np.subtract(1.0, gini, out=gini)
        gini *= counts
        weighted = np.add(gini[0], gini[1], out=gini[0])
    else:
        sums = np.empty((2,) + V.shape)          # [left, right] target sums
        np.cumsum(ys, axis=-1, out=sums[0])
        np.subtract(sums[0, ..., -1:], sums[0], out=sums[1])
        sums2 = np.empty_like(sums)              # and sums of squares
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
    np.copyto(weighted, np.inf, where=tie)
    best = weighted.reshape(B, -1).argmin(axis=1)
    flat = best + np.arange(0, B * k * width, k * width)
    found = weighted.reshape(-1)[flat] < np.inf
    vs = vs.reshape(-1)
    threshold = 0.5 * (vs[flat] + vs[flat + 1])
    feature = C.reshape(-1)[best // width + np.arange(0, B * k, k)]
    return [(int(feature[i]), float(threshold[i])) if found[i] else None
            for i in range(B)]


class _Growth:
    """One tree being grown: its stream, its depth-first stack of
    (node, rows, depth) and its node arrays, sized for the most nodes a
    tree on its rows can have (two per row, less one)."""

    __slots__ = ("rng", "stack", "size", "feature", "threshold", "left", "right",
                 "value")

    def __init__(self, rng, rows):
        self.rng = rng
        self.stack = [(0, rows, 0)]
        self.size = 1
        capacity = 2 * rows.size - 1
        self.feature = np.full(capacity, _LEAF, dtype=np.int32)
        self.threshold = np.zeros(capacity)
        self.left = np.full(capacity, _LEAF, dtype=np.int32)
        self.right = np.full(capacity, _LEAF, dtype=np.int32)
        self.value = np.zeros(capacity)

    def split(self, node, feature, threshold) -> int:
        """Make ``node`` internal; returns the id of its new left child,
        the right one being the next id."""
        left = self.size
        self.size += 2
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = left
        self.right[node] = left + 1
        return left

    def tree(self) -> Tree:
        n = self.size
        return Tree(self.feature[:n].copy(), self.threshold[:n].copy(),
                    self.left[:n].copy(), self.right[:n].copy(),
                    self.value[:n].copy())


def grow_forest(X, y, samples, rngs, *, classification: bool, class_count: int,
                max_features: int, min_samples_split: int,
                max_depth: int | None) -> list[Tree]:
    """Grow tree t on the rows ``samples[t]`` of (X, y), drawing its
    candidate features from ``rngs[t]``; all trees in lockstep.

    Each tree keeps its own depth-first stack (left child first) and its
    own stream, so it is the tree a one-at-a-time growth would give. A
    step pops the next node of every tree that needs a split search
    (settling the leaves on the way), and searches all of those nodes
    together, batched by row count rounded up to a power of two. A batch
    holds at most as many rows as X, the size of one root search.
    """
    n, w = X.shape
    depth_limit = np.inf if max_depth is None else max_depth
    XT = np.empty((w, n + 1))
    XT[:, :n] = X.T
    XT[:, n] = np.inf
    target = np.append(y, class_count if classification else 0)
    growths = [_Growth(rng, rows) for rng, rows in zip(rngs, samples)]
    live = growths
    while live:
        buckets: dict[int, list] = {}
        for g in live:
            while g.stack:
                node, rows, depth = g.stack.pop()
                y_node = y[rows]
                if (rows.size < min_samples_split or depth >= depth_limit
                        or (y_node == y_node[0]).all()):
                    g.value[node] = _leaf_value(y_node, classification,
                                                class_count)
                    continue
                if max_features < w:
                    candidates = np.sort(g.rng.choice(w, size=max_features,
                                                      replace=False))
                else:
                    candidates = np.arange(w)
                buckets.setdefault((rows.size - 1).bit_length(), []).append(
                    (g, node, rows, depth, y_node, candidates))
                break
        for bucket, items in buckets.items():
            per_call = max(1, n >> bucket)
            for i in range(0, len(items), per_call):
                chunk = items[i:i + per_call]
                found = _best_splits(XT, target, [(it[2], it[5]) for it in chunk],
                                     classification, class_count)
                for (g, node, rows, depth, y_node, _), best in zip(chunk, found):
                    if best is None:
                        g.value[node] = _leaf_value(y_node, classification,
                                                    class_count)
                        continue
                    f, thr = best
                    mask = XT[f].take(rows) <= thr
                    left = g.split(node, f, thr)
                    # push right first so the left subtree is grown first
                    g.stack.append((left + 1, rows[~mask], depth + 1))
                    g.stack.append((left, rows[mask], depth + 1))
        live = [g for g in live if g.stack]
    return [g.tree() for g in growths]


def grow_tree(X, y, rng, *, classification: bool, class_count: int,
              max_features: int, min_samples_split: int,
              max_depth: int | None) -> Tree:
    """Grow one tree on the (already resampled) training arrays."""
    return grow_forest(X, y, [np.arange(X.shape[0])], [rng],
                       classification=classification, class_count=class_count,
                       max_features=max_features,
                       min_samples_split=min_samples_split,
                       max_depth=max_depth)[0]
