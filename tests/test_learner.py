import numpy as np
import pytest

from permsel.dataset import RowView, Task
from permsel.errors import LearnerError
from permsel.learner import LearnerSpec, RandomForestModel, fit
from permsel.tree import Tree

from oracles import forest_predict_reference, tree_predict_reference


def _leaf_tree(value):
    return Tree([-1], [0.0], [-1], [-1], [value])


def _cls_rows(X, y, q=2):
    return RowView(np.asarray(X, dtype=float), np.asarray(y), Task.CLASSIFICATION,
                   class_count=q)


def _reg_rows(X, y):
    return RowView(np.asarray(X, dtype=float), np.asarray(y, dtype=float),
                   Task.REGRESSION)


class TestFit:
    def test_constant_target_predicts_constant(self):
        rows = _cls_rows([[0.0], [1.0], [2.0]], [1, 1, 1], q=2)
        model = fit(LearnerSpec(n_trees=3, seed=0), rows)
        grid = np.linspace(-5, 5, 11).reshape(-1, 1)
        assert np.all(model.predict(grid) == 1)

    def test_constant_regression_target(self):
        rows = _reg_rows([[0.0], [1.0], [2.0]], [4.5, 4.5, 4.5])
        model = fit(LearnerSpec(n_trees=2, seed=1), rows)
        assert np.allclose(model.predict([[0.7], [99.0]]), 4.5)

    def test_two_rows_pure_fit(self):
        rows = _cls_rows([[0.0, 1.0], [1.0, 0.0]], [0, 1])
        model = fit(LearnerSpec(n_trees=1, bootstrap=False, max_features="all",
                                seed=0), rows)
        assert model.predict(rows.X).tolist() == [0, 1]

    def test_deterministic_predictions(self, small_classification):
        ds = small_classification
        rows = ds.rows(np.arange(ds.n_rows))
        spec = LearnerSpec(n_trees=7, seed=11)
        m1 = fit(spec, rows)
        m2 = fit(spec, rows)
        assert np.array_equal(m1.predict(rows.X), m2.predict(rows.X))

    def test_seed_changes_forest(self, small_classification):
        ds = small_classification
        rows = ds.rows(np.arange(ds.n_rows))
        m1 = fit(LearnerSpec(n_trees=5, seed=0), rows)
        m2 = fit(LearnerSpec(n_trees=5, seed=1), rows)
        trees_differ = any(
            not np.array_equal(a.threshold, b.threshold)
            for a, b in zip(m1.trees, m2.trees))
        assert trees_differ

    def test_empty_training_set(self):
        rows = _reg_rows(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(LearnerError):
            fit(LearnerSpec(n_trees=1), rows)

    def test_degenerate_spec(self):
        rows = _reg_rows([[1.0], [2.0]], [1.0, 2.0])
        with pytest.raises(LearnerError):
            fit(LearnerSpec(n_trees=0), rows)
        with pytest.raises(LearnerError):
            fit(LearnerSpec(n_trees=1, max_features=5), rows)

    def test_capacity_no_contradictions(self):
        # depth-unlimited deterministic forest memorizes distinct rows
        rng = np.random.default_rng(8)
        X = rng.standard_normal((40, 3))
        y = rng.integers(0, 3, size=40)
        rows = _cls_rows(X, y, q=3)
        model = fit(LearnerSpec(n_trees=3, bootstrap=False, max_features="all",
                                seed=0), rows)
        assert np.array_equal(model.predict(X), y)

    def test_capacity_regression(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((30, 2))
        y = rng.standard_normal(30)
        model = fit(LearnerSpec(n_trees=2, bootstrap=False, max_features="all",
                                seed=0), _reg_rows(X, y))
        assert np.allclose(model.predict(X), y)

    def test_xor_fits_exactly(self):
        # zero-gain splits must still be taken for full capacity
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        model = fit(LearnerSpec(n_trees=1, bootstrap=False, max_features="all",
                                seed=0), _cls_rows(X, y))
        assert np.array_equal(model.predict(X), y)

    def test_max_depth_limits_tree(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((50, 2))
        y = rng.standard_normal(50)
        model = fit(LearnerSpec(n_trees=1, bootstrap=False, max_features="all",
                                max_depth=1, seed=0), _reg_rows(X, y))
        # a depth-1 tree has at most 3 nodes
        assert model.trees[0].feature.shape[0] <= 3


class TestPredict:
    def test_identical_leaf_trees_vote(self):
        model = RandomForestModel([_leaf_tree(2.0)] * 3, Task.CLASSIFICATION, 1, 3)
        assert model.predict([[0.0]]).tolist() == [2]

    def test_tie_goes_to_lowest_class(self):
        model = RandomForestModel([_leaf_tree(0.0), _leaf_tree(1.0)],
                                  Task.CLASSIFICATION, 1, 2)
        assert model.predict([[0.0]]).tolist() == [0]

    def test_regression_mean(self):
        model = RandomForestModel([_leaf_tree(1.0), _leaf_tree(3.0)],
                                  Task.REGRESSION, 1, None)
        assert model.predict([[0.0]]).tolist() == [2.0]

    def test_width_mismatch(self):
        model = RandomForestModel([_leaf_tree(0.0)], Task.REGRESSION, 2, None)
        with pytest.raises(LearnerError):
            model.predict([[1.0]])

    def test_prediction_purity(self, small_regression, tiny_learner):
        ds = small_regression
        rows = ds.rows(np.arange(ds.n_rows))
        model = fit(tiny_learner, rows)
        p1 = model.predict(rows.X)
        p2 = model.predict(rows.X)
        assert np.array_equal(p1, p2)


def _forest_rows(q, seed=0, n=60, w=5):
    """Rows with repeated values (so thresholds fall on midpoints of ties)
    and a target of the given class count, or regression when q is None."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.standard_normal((n, w)), 1)
    if q is None:
        return _reg_rows(X, X[:, 0] - X[:, 1] + 0.3 * rng.standard_normal(n))
    score = X[:, 0] + 0.5 * X[:, 2] + 0.3 * rng.standard_normal(n)
    y = np.digitize(score, np.quantile(score, np.linspace(0, 1, q + 1)[1:-1]))
    return _cls_rows(X, y, q=q)


def _probe_rows(model, X, seed=1):
    """The training rows, fresh random rows, and rows whose every value is
    one of the forest's thresholds for that column (exact ties at splits)."""
    rng = np.random.default_rng(seed)
    w = X.shape[1]
    on_threshold = rng.standard_normal((40, w))
    for f in range(w):
        thr = np.concatenate([t.threshold[t.feature == f] for t in model.trees])
        if thr.size:
            on_threshold[:, f] = rng.choice(thr, size=40)
    return np.vstack([X, rng.standard_normal((30, w)), on_threshold])


class TestCompiledForest:
    @pytest.mark.parametrize("q", [None, 2, 4])
    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("max_depth", [0, 1, None])
    def test_matches_per_tree_reference(self, q, bootstrap, max_depth):
        rows = _forest_rows(q)
        model = fit(LearnerSpec(n_trees=7, bootstrap=bootstrap,
                                max_depth=max_depth, seed=3), rows)
        X = _probe_rows(model, rows.X)
        assert np.array_equal(model.predict(X), forest_predict_reference(model, X))

    @pytest.mark.parametrize("q", [None, 4])
    def test_single_leaf_trees(self, q):
        rows = _forest_rows(q)
        model = fit(LearnerSpec(n_trees=5, min_samples_split=rows.n_rows + 1,
                                seed=0), rows)
        assert all(t.feature.tolist() == [-1] for t in model.trees)
        X = _probe_rows(model, rows.X)
        assert np.array_equal(model.predict(X), forest_predict_reference(model, X))

    @pytest.mark.parametrize("q", [None, 2, 4])
    def test_json_round_trip_matches_reference(self, q):
        rows = _forest_rows(q, seed=4)
        clone = RandomForestModel.from_json(
            fit(LearnerSpec(n_trees=6, seed=2), rows).to_json())
        X = _probe_rows(clone, rows.X)
        assert np.array_equal(clone.predict(X), forest_predict_reference(clone, X))

    def test_tree_predict_matches_reference(self):
        rows = _forest_rows(None)
        model = fit(LearnerSpec(n_trees=4, seed=1), rows)
        X = _probe_rows(model, rows.X)
        for tree in model.trees:
            assert np.array_equal(tree.predict(X), tree_predict_reference(tree, X))

    def test_leaf_value_outside_classes_rejected(self):
        with pytest.raises(LearnerError):
            RandomForestModel([_leaf_tree(2.0)], Task.CLASSIFICATION, 1, 2)


class TestSerialization:
    def test_round_trip(self, small_classification):
        ds = small_classification
        rows = ds.rows(np.arange(ds.n_rows))
        model = fit(LearnerSpec(n_trees=4, seed=5), rows)
        clone = RandomForestModel.from_json(model.to_json())
        assert np.array_equal(model.predict(rows.X), clone.predict(rows.X))
        assert clone.task is Task.CLASSIFICATION
        assert clone.class_count == 2

    def test_bad_container(self):
        with pytest.raises(LearnerError):
            RandomForestModel.from_json('{"format": "something-else"}')


class TestMaxFeatures:
    def test_resolution(self):
        spec = LearnerSpec()
        assert spec.resolve_max_features(100, Task.CLASSIFICATION) == 10
        assert spec.resolve_max_features(99, Task.REGRESSION) == 33
        assert LearnerSpec(max_features="all").resolve_max_features(7, Task.REGRESSION) == 7
        assert LearnerSpec(max_features=3).resolve_max_features(7, Task.REGRESSION) == 3
        assert LearnerSpec(max_features="third").resolve_max_features(2, Task.REGRESSION) == 1
