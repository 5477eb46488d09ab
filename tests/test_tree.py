"""Forest growth against the one-node-at-a-time reference in oracles.py.

Every tree ``fit`` grows in lockstep must equal, array for array, the tree
the reference grows alone from the same stream: same node ids, features,
thresholds, children and leaf values.
"""

import numpy as np
import pytest

from permsel.dataset import RowView, Task
from permsel.learner import LearnerSpec, fit
from permsel.tree import _best_splits, grow_tree

from oracles import best_split_reference, fit_forest_reference, grow_tree_reference

NODE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def _rows(q, n=48, w=7, seed=0):
    """Values rounded to one decimal (many tied values, carrying different
    targets), a few duplicated rows and a constant column; a regression
    target when q is None, else q classes."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.standard_normal((n, w)), 1)
    X[-4:] = X[:4]                       # duplicate rows
    X[:, w // 2] = 0.5                   # constant column
    if q is None:
        y = X[:, 0] - X[:, 1] + 0.3 * rng.standard_normal(n)
        y[-4:] = y[:4]
        return RowView(X, y, Task.REGRESSION)
    score = X[:, 0] + 0.5 * X[:, 1] + 0.3 * rng.standard_normal(n)
    y = np.digitize(score, np.quantile(score, np.linspace(0, 1, q + 1)[1:-1]))
    y[-4:] = y[:4]
    return RowView(X, y, Task.CLASSIFICATION, class_count=q)


def _reference(spec, rows):
    q = rows.class_count
    y = rows.y.astype(np.int64) if q else rows.y.astype(float)
    return fit_forest_reference(
        rows.X, y, n_trees=spec.n_trees, seed=spec.seed, bootstrap=spec.bootstrap,
        classification=q is not None, class_count=q or 0,
        max_features=spec.resolve_max_features(rows.n_features, rows.task),
        min_samples_split=spec.min_samples_split, max_depth=spec.max_depth)


def _assert_same_forest(spec, rows):
    model = fit(spec, rows)
    expected = _reference(spec, rows)
    assert len(model.trees) == len(expected)
    for t, (tree, ref) in enumerate(zip(model.trees, expected)):
        for name in NODE_ARRAYS:
            assert np.array_equal(getattr(tree, name), ref[name]), (t, name)
    return model


class TestForestMatchesReference:
    @pytest.mark.parametrize("q", [None, 2, 4], ids=["reg", "bin", "q4"])
    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("max_depth", [0, 1, 3, None])
    @pytest.mark.parametrize("max_features", ["all", "sqrt", "third", 2])
    def test_grid(self, q, bootstrap, max_depth, max_features):
        _assert_same_forest(
            LearnerSpec(n_trees=4, bootstrap=bootstrap, max_depth=max_depth,
                        max_features=max_features, seed=5), _rows(q))

    @pytest.mark.parametrize("q", [None, 2, 4], ids=["reg", "bin", "q4"])
    @pytest.mark.parametrize("n_trees", [1, 60])
    def test_forest_size(self, q, n_trees):
        model = _assert_same_forest(LearnerSpec(n_trees=n_trees, seed=1),
                                    _rows(q, n=80, w=12, seed=2))
        assert sum(t.feature.size for t in model.trees) > 3 * n_trees

    @pytest.mark.parametrize("q", [None, 4], ids=["reg", "q4"])
    def test_min_samples_split_above_rows(self, q):
        rows = _rows(q)
        model = _assert_same_forest(
            LearnerSpec(n_trees=4, min_samples_split=rows.n_rows + 1), rows)
        assert all(t.feature.tolist() == [-1] for t in model.trees)

    @pytest.mark.parametrize("q", [None, 2], ids=["reg", "bin"])
    def test_more_features_than_rows(self, q):
        _assert_same_forest(LearnerSpec(n_trees=6, seed=3),
                            _rows(q, n=12, w=30, seed=4))

    @pytest.mark.parametrize("q", [None, 2], ids=["reg", "bin"])
    def test_all_rows_identical(self, q):
        rows = _rows(q, n=10, w=3)
        X = np.repeat(rows.X[:1], 10, axis=0)
        y = np.arange(10) % 2 if q else np.arange(10.0)
        rows = RowView(X, y, rows.task, class_count=q)
        model = _assert_same_forest(LearnerSpec(n_trees=3, max_features="all"),
                                    rows)
        assert all(t.feature.tolist() == [-1] for t in model.trees)

    def test_regression_tie_order(self):
        # three columns of four values each, tied across rows with targets
        # of very different magnitudes: a prefix sum that added the tied
        # targets out of row order would round differently and, in some
        # node, pick another split
        rng = np.random.default_rng(0)
        X = rng.integers(0, 4, size=(64, 3)).astype(float)
        y = np.round(rng.standard_normal(64), 1) * 10.0 ** rng.integers(-8, 8, size=64)
        _assert_same_forest(LearnerSpec(n_trees=8, max_features="all", seed=2),
                            RowView(X, y, Task.REGRESSION))


class TestGrowTree:
    @pytest.mark.parametrize("q", [None, 4], ids=["reg", "q4"])
    def test_one_tree_view(self, q):
        rows = _rows(q, seed=6)
        y = rows.y.astype(np.int64) if q else rows.y
        kwargs = dict(classification=q is not None, class_count=q or 0,
                      max_features=3, min_samples_split=2, max_depth=None)
        tree = grow_tree(rows.X, y, np.random.default_rng(9), **kwargs)
        ref = grow_tree_reference(rows.X, y, np.random.default_rng(9), **kwargs)
        for name in NODE_ARRAYS:
            assert np.array_equal(getattr(tree, name), ref[name]), name


class TestBatchedSearch:
    @pytest.mark.parametrize("q", [None, 2, 4], ids=["reg", "bin", "q4"])
    def test_padded_batch_matches_per_node(self, q):
        # nodes of different sizes in one call, padded to the longest
        rows = _rows(q, n=60, w=9, seed=8)
        X, y = rows.X, rows.y
        rng = np.random.default_rng(0)
        XT = np.ascontiguousarray(np.hstack([X.T, np.full((X.shape[1], 1), np.inf)]))
        target = np.append(y, q if q else 0)
        nodes = [(rng.choice(60, size=m, replace=m > 60),
                  np.sort(rng.choice(9, size=4, replace=False)))
                 for m in (2, 3, 5, 8, 8, 13, 30, 60, 90)]
        nodes.append((np.zeros(6, dtype=np.int64), np.arange(4)))  # one row, six times
        found = _best_splits(XT, target, nodes, q is not None, q or 0)
        for (r, c), got in zip(nodes, found):
            assert got == best_split_reference(X, r, y[r], c, q is not None, q or 0)
