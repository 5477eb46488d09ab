"""Independent reference implementations used to check the real ones.

Everything here is deliberately brute-force: quadratic dominance
classification, inclusion-exclusion and Monte-Carlo areas, full 2^n
sign enumeration for the signed-rank test, column-by-column loops for
the subset shuffle and permutation importance, tree-by-tree forest
prediction, a tree grown one node at a time with a stable sort per
split search, and a CSV loader that reads every row before converting
cell by cell. None of it shares code with the package beyond the
evaluation context or fitted trees it is handed, and the dataset and
error types the loader builds.
"""

import csv
import itertools

import numpy as np

from permsel.dataset import Dataset, Task
from permsel.errors import (
    DatasetError,
    EmptyDataError,
    MissingValueError,
    NonNumericValueError,
    SingleClassError,
)


def brute_force_fronts(objectives):
    """Pareto fronts by repeated O(n^2) scans over the remaining points."""
    def dom(a, b):
        return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))

    remaining = list(range(len(objectives)))
    fronts = []
    while remaining:
        front = [i for i in remaining
                 if not any(dom(objectives[j], objectives[i])
                            for j in remaining if j != i)]
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def hypervolume_inclusion_exclusion(points, reference):
    """Union area of the point-to-reference rectangles, by inclusion-exclusion."""
    rx, ry = reference
    pts = [tuple(p) for p in points]
    total = 0.0
    for size in range(1, len(pts) + 1):
        for combo in itertools.combinations(pts, size):
            x = max(p[0] for p in combo)
            y = max(p[1] for p in combo)
            area = max(0.0, rx - x) * max(0.0, ry - y)
            total += ((-1) ** (size + 1)) * area
    return total


def hypervolume_monte_carlo(points, reference, n_samples, seed):
    """Fraction-of-box estimate of the dominated area."""
    pts = np.asarray(points, dtype=float)
    rx, ry = reference
    lo_x, lo_y = pts[:, 0].min(), pts[:, 1].min()
    box = (rx - lo_x) * (ry - lo_y)
    if box <= 0:
        return 0.0
    rng = np.random.default_rng(seed)
    sx = rng.uniform(lo_x, rx, n_samples)
    sy = rng.uniform(lo_y, ry, n_samples)
    dominated = np.zeros(n_samples, dtype=bool)
    for px, py in pts:
        dominated |= (sx >= px) & (sy >= py)
    return box * dominated.mean()


def merit_reference(ctx, chromosome, rng):
    """Subset merit with one ``rng.permutation`` per selected column, in
    ascending column order, on a copy of the evaluation rows."""
    selected = np.flatnonzero(np.asarray(chromosome))
    if selected.size == 0:
        return 0.0
    Xp = ctx.eval_rows.X.copy()
    for col in selected:
        Xp[:, col] = rng.permutation(Xp[:, col])
    return abs(ctx.baseline_perf - ctx._evaluate(Xp))


def pfi_rank_reference(ctx, repeats, rng):
    """Single-feature permutation importance as an explicit loop.

    One working copy of the evaluation rows; column i is overwritten by
    ``repeats`` permutations of the original column (feature-major draw
    order), the absolute changes are summed left to right, and the column
    is restored before moving on. Returns (scores, ranking), the ranking
    descending with ties to the lower index.
    """
    w = ctx.n_features
    X = ctx.eval_rows.X
    Xp = X.copy()
    scores = np.zeros(w)
    for col in range(w):
        acc = 0.0
        for _ in range(repeats):
            Xp[:, col] = rng.permutation(X[:, col])
            acc += abs(ctx.baseline_perf - ctx._evaluate(Xp))
        Xp[:, col] = X[:, col]
        scores[col] = acc / repeats
    return scores, np.argsort(-scores, kind="stable")


def tree_predict_reference(tree, X):
    """Leaf value per row of one tree, walking only the rows still at an
    internal node, one depth level per pass."""
    node = np.zeros(X.shape[0], dtype=np.int32)
    while True:
        active = tree.feature[node] >= 0
        if not active.any():
            return tree.value[node]
        rows = np.flatnonzero(active)
        cur = node[rows]
        go_left = X[rows, tree.feature[cur]] <= tree.threshold[cur]
        node[rows] = np.where(go_left, tree.left[cur], tree.right[cur])


def forest_predict_reference(model, X):
    """Forest prediction tree by tree: the mean of the trees' values, or a
    vote counted one tree at a time with ties to the lowest class."""
    X = np.asarray(X, dtype=float)
    preds = np.stack([tree_predict_reference(t, X) for t in model.trees])
    if model.class_count is None:
        return preds.mean(axis=0)
    votes = preds.astype(np.int64)
    counts = np.zeros((X.shape[0], model.class_count), dtype=np.int64)
    rows = np.arange(X.shape[0])
    for t in range(votes.shape[0]):
        counts[rows, votes[t]] += 1
    return np.argmax(counts, axis=1)


def _leaf_value_reference(y, classification, class_count):
    if classification:
        counts = np.bincount(y.astype(np.int64), minlength=class_count)
        return float(np.argmax(counts))  # argmax -> lowest class wins ties
    return float(np.mean(y))


def best_split_reference(X, rows, y_node, candidates, classification,
                         class_count):
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
        var_right = np.maximum(
            sum2_right / n_right - (sum_right / n_right) ** 2, 0.0)
        weighted = (n_left * var_left + n_right * var_right) / m
    weighted[~valid] = np.inf
    flat = int(np.argmin(weighted.T.ravel()))       # feature-major first minimum
    f_idx, pos = divmod(flat, m - 1)
    threshold = 0.5 * (vs[pos, f_idx] + vs[pos + 1, f_idx])
    return int(candidates[f_idx]), float(threshold)


def grow_tree_reference(X, y, rng, *, classification, class_count,
                        max_features, min_samples_split, max_depth):
    """One tree grown depth-first (left child first), one node at a time,
    with a stable sort per split search. Returns the node arrays."""
    n, w = X.shape
    depth_limit = np.inf if max_depth is None else max_depth
    feature, threshold, left, right, value = [], [], [], [], []

    def leaf_value(y_node):
        return _leaf_value_reference(y_node, classification, class_count)

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(n), 0)]
    while stack:
        node_id, rows, depth = stack.pop()
        y_node = y[rows]
        if (rows.size < min_samples_split or depth >= depth_limit
                or np.all(y_node == y_node[0])):
            value[node_id] = leaf_value(y_node)
            continue
        if max_features < w:
            candidates = np.sort(rng.choice(w, size=max_features, replace=False))
        else:
            candidates = np.arange(w)
        best = best_split_reference(X, rows, y_node, candidates,
                                    classification, class_count)
        if best is None:
            value[node_id] = leaf_value(y_node)
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
    return {"feature": np.asarray(feature, dtype=np.int32),
            "threshold": np.asarray(threshold, dtype=float),
            "left": np.asarray(left, dtype=np.int32),
            "right": np.asarray(right, dtype=np.int32),
            "value": np.asarray(value, dtype=float)}


def fit_forest_reference(X, y, *, n_trees, seed, bootstrap, **grow_kwargs):
    """Trees of a forest grown one after the other: tree t draws its
    bootstrap rows (if any) and then its candidates from the stream
    ``default_rng([seed, t])``, on a copy of the resampled rows."""
    n = X.shape[0]
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        if bootstrap:
            sample = rng.integers(0, n, size=n)
            Xt, yt = X[sample], y[sample]
        else:
            Xt, yt = X, y
        trees.append(grow_tree_reference(Xt, yt, rng, **grow_kwargs))
    return trees


def wilcoxon_enumeration_p(diffs):
    """Exact two-sided p by enumerating every sign pattern of the ranks."""
    d = np.asarray(diffs, dtype=float)
    d = d[d != 0]
    n = d.size
    ranks = _midranks(np.abs(d))
    w_plus = ranks[d > 0].sum()
    w_minus = ranks[d < 0].sum()
    w_obs = min(w_plus, w_minus)
    total = ranks.sum()
    hits = 0
    for pattern in itertools.product((0, 1), repeat=n):
        wp = sum(r for r, s in zip(ranks, pattern) if s)
        if min(wp, total - wp) <= w_obs + 1e-12:
            hits += 1
    return hits / 2 ** n


def _midranks(values):
    order = np.argsort(values, kind="stable")
    sv = values[order]
    out_sorted = np.empty(values.size)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sv[j + 1] == sv[i]:
            j += 1
        out_sorted[i:j + 1] = 0.5 * (i + j) + 1.0
        i = j + 1
    out = np.empty(values.size)
    out[order] = out_sorted
    return out


def load_csv_reference(path, task, target_col=None):
    """The loader that holds every cell as a string, then converts them
    one by one. It reports a non-numeric regression target at row 0."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataError(f"{path}: empty file") from None
        rows = list(reader)
    if not rows:
        raise EmptyDataError(f"{path}: no data rows")
    n_cols = len(header)
    if n_cols < 2:
        raise DatasetError(f"{path}: need at least one feature column and a target")
    tcol = n_cols - 1 if target_col is None else target_col
    if not (0 <= tcol < n_cols):
        raise DatasetError(f"target column {tcol} out of range")

    feat_cols = [j for j in range(n_cols) if j != tcol]
    X = np.empty((len(rows), len(feat_cols)), dtype=float)
    raw_targets = []
    for i, row in enumerate(rows):
        if len(row) != n_cols:
            raise MissingValueError(i + 2, len(row) + 1)
        for k, j in enumerate(feat_cols):
            cell = row[j].strip()
            if cell == "":
                raise MissingValueError(i + 2, j + 1)
            try:
                X[i, k] = float(cell)
            except ValueError:
                raise NonNumericValueError(i + 2, j + 1, row[j]) from None
        tcell = row[tcol].strip()
        if tcell == "":
            raise MissingValueError(i + 2, tcol + 1)
        raw_targets.append(tcell)

    feature_names = [header[j] for j in feat_cols]
    target_name = header[tcol]
    if task is Task.CLASSIFICATION:
        class_names = []
        index = {}
        y = np.empty(len(raw_targets), dtype=np.int64)
        for i, label in enumerate(raw_targets):
            if label not in index:
                index[label] = len(class_names)
                class_names.append(label)
            y[i] = index[label]
        if len(class_names) < 2:
            raise SingleClassError(f"{path}: classification target has a single class")
        return Dataset(X, y, task, feature_names, class_names, target_name)
    try:
        y = np.array([float(t) for t in raw_targets], dtype=float)
    except ValueError:
        bad = next(t for t in raw_targets if not _is_float(t))
        raise NonNumericValueError(0, tcol + 1, bad) from None
    return Dataset(X, y, task, feature_names, None, target_name)


def _is_float(s):
    try:
        float(s)
        return True
    except ValueError:
        return False
