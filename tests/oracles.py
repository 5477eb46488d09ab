"""Independent reference implementations used to check the real ones.

Everything here is deliberately brute-force: quadratic dominance
classification, inclusion-exclusion and Monte-Carlo areas, full 2^n
sign enumeration for the signed-rank test, a column-by-column
permutation-importance loop, and tree-by-tree forest prediction. None
of it shares code with the package beyond the evaluation context or
fitted trees it is handed.
"""

import itertools

import numpy as np


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
