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
in one table, traversed by every tree for every row at once. A
``ForestPaths`` records where those walks went, so that the rows with one
column shuffled are walked again only where the column is tested.
"""

from __future__ import annotations

import math

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

    __slots__ = ("feature", "threshold", "child", "value", "leaf", "roots", "depth")

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
        self.leaf = leaf
        depth, level = 0, self.roots[~leaf[self.roots]]
        while level.size:
            level = np.concatenate([left[level], right[level]])
            level = level[~leaf[level]]
            depth += 1
        self.depth = depth

    def _walk(self, X: np.ndarray):
        """The (trees, rows) matrix of current nodes before each of the
        ``depth`` steps, and last the leaf each tree gives each row."""
        n, w = X.shape
        flat = X.ravel()
        row_base = np.arange(n) * w
        node = np.broadcast_to(self.roots[:, None], (self.roots.size, n))
        for _ in range(self.depth):
            yield node
            go_left = flat[row_base + self.feature[node]] <= self.threshold[node]
            node = self.child[2 * node + go_left]
        yield node

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """(trees, rows) matrix: the leaf value each tree gives each row."""
        for node in self._walk(X):
            pass
        return self.value[node]

    def paths(self, X: np.ndarray) -> "ForestPaths":
        """Walk every tree for every row of X, as ``leaf_values`` does, and
        record, for each feature, the (tree, row) pairs whose path tests it
        and the first node on the path that does."""
        n, w = X.shape
        P = self.roots.size * n
        pair = np.arange(P).reshape(-1, n)
        keys, nodes = [], []
        for node in self._walk(X):
            internal = ~self.leaf[node]
            keys.append((self.feature[node] * P + pair)[internal])
            nodes.append(node[internal])
        # the walk is in step order, so a key's first occurrence is the
        # shallowest node that tests that feature on that pair's path
        key, first = np.unique(np.concatenate(keys), return_index=True)
        tested = key // P
        return ForestPaths(X, self.value[node], np.searchsorted(tested, np.arange(w + 1)),
                           key - tested * P, np.concatenate(nodes)[first])

    def shuffled_leaf_values(self, paths: "ForestPaths", features: np.ndarray,
                             row_maps: np.ndarray) -> np.ndarray:
        """(jobs, trees, rows) leaf values of the rows of ``paths`` when job
        j reads column ``features[j]`` through its row map: row i sees
        ``X[row_maps[j, i], features[j]]`` there and its own values in
        every other column.

        A pair whose path does not test the job's column keeps its leaf
        from ``paths``. The others are walked again from the first node
        that tests the column, and are dropped every few steps once they
        reach a leaf.
        """
        X = paths.X
        n, w = X.shape
        P = paths.leaf.size
        lo, hi = paths.offsets[features], paths.offsets[features + 1]
        counts = hi - lo
        job = np.repeat(np.arange(features.size), counts)
        entry = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts,
                                                     counts)
        pair = paths.pairs[entry]
        node = paths.nodes[entry]
        row = pair % n
        column = features[job]
        own = row * w                       # the row's own values
        moved = row_maps[job, row].astype(np.intp) * w  # where its shuffled value is
        out = job * P + pair
        values = np.tile(paths.leaf.ravel(), features.size)
        flat = X.ravel()
        while out.size:
            for _ in range(_STEPS_PER_COMPACTION):
                feature = self.feature[node]
                base = np.where(feature == column, moved, own)
                go_left = flat[base + feature] <= self.threshold[node]
                node = self.child[2 * node + go_left]
            done = self.leaf[node]
            values[out[done]] = self.value[node[done]]
            live = ~done
            node, column, own, moved, out = (node[live], column[live], own[live],
                                             moved[live], out[live])
        return values.reshape(features.size, -1, n)


# Re-walk steps between two drops of the pairs that have reached a leaf
_STEPS_PER_COMPACTION = 4


class ForestPaths:
    """Where the walks of one set of rows ``X`` go in a ``CompiledForest``.

    ``leaf`` is the (trees, rows) leaf-value matrix. A pair is
    ``tree * rows + row``; the pairs whose path tests feature f are
    ``pairs[offsets[f]:offsets[f + 1]]``, in ascending order, and
    ``nodes`` holds the first node on each of those paths that tests f.
    """

    __slots__ = ("X", "leaf", "offsets", "pairs", "nodes")

    def __init__(self, X, leaf, offsets, pairs, nodes):
        self.X = X
        self.leaf = leaf
        self.offsets = offsets
        self.pairs = pairs
        self.nodes = nodes


def _leaf_value(y, classification: bool, class_count: int) -> float:
    if classification:
        counts = np.bincount(y.astype(np.int64, copy=False), minlength=class_count)
        return float(np.argmax(counts))  # argmax -> lowest class wins ties
    return float(y.sum() / y.size)  # np.mean's sum and division


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
        self.target = np.append(y, class_count if classification else 0)
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

    Every node holds at least two rows and the same number of candidates.
    The nodes are taken in order of row count and packed into search
    blocks of at most ``_BUDGET`` elements. A node too wide for one block
    is searched alone, in consecutive groups of its candidates; the best
    split carries across the groups only when a later one is strictly
    better, so the lowest feature still wins ties.
    """
    k = nodes[0][1].size
    room = search.room
    order = sorted(range(len(nodes)), key=lambda i: nodes[i][0].size)
    found = [None] * len(nodes)
    i = 0
    while i < len(order):
        # as many of the next nodes as fit, padded to the widest of them
        j = i + 1
        while j < len(order) and (j - i + 1) * k * nodes[order[j]][0].size <= room:
            j += 1
        block, i = order[i:j], j
        rows, candidates = nodes[block[0]]
        group = max(1, room // rows.size)
        if len(block) > 1 or group >= k:
            splits = _search_block(search, [nodes[b] for b in block])[1]
            for b, split in zip(block, splits):
                found[b] = split
            continue
        best = np.inf
        for lo in range(0, k, group):
            (value,), (split,) = _search_block(
                search, [(rows, candidates[lo:lo + group])])
            if value < best:
                best, found[block[0]] = value, split
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
    in one ``_best_splits`` call. The searches read the rank table of X,
    built once here; X itself is read only at the rows that place a
    threshold and when a node is split.
    """
    w = X.shape[1]
    depth_limit = np.inf if max_depth is None else max_depth
    search = _Search(X, y, classification, class_count)
    growths = [_Growth(rng, rows) for rng, rows in zip(rngs, samples)]
    live = growths
    while live:
        items = []
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
                items.append((g, node, rows, depth, y_node, candidates))
                break
        if not items:
            break
        found = _best_splits(search, [(it[2], it[5]) for it in items])
        for (g, node, rows, depth, y_node, _), best in zip(items, found):
            if best is None:
                g.value[node] = _leaf_value(y_node, classification, class_count)
                continue
            f, thr = best
            mask = X[rows, f] <= thr
            left = g.split(node, f, thr)
            # push right first so the left subtree is grown first
            g.stack.append((left + 1, rows[~mask], depth + 1))
            g.stack.append((left, rows[mask], depth + 1))
        live = [g for g in live if g.stack]
    del search  # its arrays go before the trees are copied out
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
