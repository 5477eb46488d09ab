"""CART-style decision tree used by the random forest learner.

Trees are grown depth-first (left child first) with an explicit stack.
Split search uses midpoint thresholds between consecutive distinct sorted
values; candidate features are drawn per node from the tree's own random
stream. Ties in impurity are broken by lowest feature index, then lowest
threshold, so growth is fully deterministic for a given stream.

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
        counts = np.bincount(y.astype(np.int64), minlength=class_count)
        return float(np.argmax(counts))  # argmax -> lowest class wins ties
    return float(np.mean(y))


def _best_split(X, rows, y_node, candidates, classification, class_count):
    """Best (feature, threshold) over all candidate features, or None.

    Evaluates every candidate column at once: columns are sorted together,
    weighted child impurities computed from prefix sums, and the winner is
    the first minimum in (feature, position) order, which realizes the
    lowest-feature-then-lowest-threshold tie rule.
    """
    m = rows.size
    V = X[np.ix_(rows, candidates)]
    order = np.argsort(V, axis=0, kind="stable")
    vs = np.take_along_axis(V, order, axis=0)
    valid = vs[1:] != vs[:-1]                       # (m-1, k) split positions
    if not valid.any():
        return None
    ys = y_node[order]                              # (m, k)
    n_left = np.arange(1, m, dtype=float)[:, None]
    n_right = m - n_left
    if classification:
        sq_left = np.zeros((m - 1, V.shape[1]))
        sq_right = np.zeros((m - 1, V.shape[1]))
        for c in range(class_count):
            cum = np.cumsum(ys == c, axis=0)
            left = cum[:-1].astype(float)
            sq_left += left * left
            right = cum[-1] - cum[:-1]
            sq_right += right * right
        gini_left = 1.0 - sq_left / (n_left * n_left)
        gini_right = 1.0 - sq_right / (n_right * n_right)
        weighted = (n_left * gini_left + n_right * gini_right) / m
    else:
        cy = np.cumsum(ys, axis=0)
        cy2 = np.cumsum(ys * ys, axis=0)
        sum_left, sum2_left = cy[:-1], cy2[:-1]
        sum_right, sum2_right = cy[-1] - sum_left, cy2[-1] - sum2_left
        var_left = np.maximum(sum2_left / n_left - (sum_left / n_left) ** 2, 0.0)
        var_right = np.maximum(sum2_right / n_right - (sum_right / n_right) ** 2, 0.0)
        weighted = (n_left * var_left + n_right * var_right) / m
    weighted[~valid] = np.inf
    flat = int(np.argmin(weighted.T.ravel()))       # feature-major first minimum
    f_idx, pos = divmod(flat, m - 1)
    threshold = 0.5 * (vs[pos, f_idx] + vs[pos + 1, f_idx])
    return int(candidates[f_idx]), float(threshold)


def grow_tree(X, y, rng, *, classification: bool, class_count: int,
              max_features: int, min_samples_split: int,
              max_depth: int | None) -> Tree:
    """Grow one tree on the (already resampled) training arrays."""
    n, w = X.shape
    depth_limit = np.inf if max_depth is None else max_depth
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(_LEAF)
        threshold.append(0.0)
        left.append(_LEAF)
        right.append(_LEAF)
        value.append(0.0)
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(n), 0)]
    while stack:
        node_id, rows, depth = stack.pop()
        y_node = y[rows]
        if (rows.size < min_samples_split or depth >= depth_limit
                or np.all(y_node == y_node[0])):
            value[node_id] = _leaf_value(y_node, classification, class_count)
            continue
        if max_features < w:
            candidates = np.sort(rng.choice(w, size=max_features, replace=False))
        else:
            candidates = np.arange(w)
        best = _best_split(X, rows, y_node, candidates, classification, class_count)
        if best is None:
            value[node_id] = _leaf_value(y_node, classification, class_count)
            continue
        f, thr = best
        mask = X[rows, f] <= thr
        left_id = new_node()
        right_id = new_node()
        feature[node_id] = f
        threshold[node_id] = thr
        left[node_id] = left_id
        right[node_id] = right_id
        # push right first so the left subtree is grown first
        stack.append((right_id, rows[~mask], depth + 1))
        stack.append((left_id, rows[mask], depth + 1))
    return Tree(feature, threshold, left, right, value)
