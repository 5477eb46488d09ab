import tracemalloc

import numpy as np
import pytest

from permsel import permutation

from permsel.dataset import Dataset, RowView, Task, split
from permsel.errors import PermselError
from permsel.learner import LearnerSpec, RandomForestModel, fit
from permsel.metrics import Metric, accuracy, rmse
from permsel.permutation import (
    EvalContext,
    FeatureScores,
    build_context,
    merit,
    merit_mc,
    pfi_rank,
    select_top_k,
)
from permsel.tree import CompiledForest

from conftest import StubModel
from oracles import merit_reference, pfi_rank_reference


class RecordingModel:
    """Constant-prediction model that keeps a copy of every matrix it sees."""

    def __init__(self, n_features):
        self.n_features = n_features
        self.seen = []

    def predict(self, X):
        self.seen.append(np.array(X, copy=True))
        return np.zeros(X.shape[0])


@pytest.fixture
def stump_ctx(stump_rows, stump_model):
    return EvalContext(stump_model, stump_rows, Metric.ACC)


class TestEvalContext:
    def test_baseline_cached_equals_recomputed(self, stump_ctx):
        assert stump_ctx.baseline_perf == 1.0
        assert stump_ctx.baseline_perf == stump_ctx._evaluate(stump_ctx.eval_rows.X)

    def test_width_mismatch(self, stump_rows):
        wide_model = StubModel(lambda r: 0, n_features=3)
        with pytest.raises(PermselError):
            EvalContext(wide_model, stump_rows, Metric.ACC)

    def test_nrmse_rejected(self, stump_rows, stump_model):
        with pytest.raises(PermselError):
            EvalContext(stump_model, stump_rows, Metric.NRMSE)


class TestMerit:
    def test_empty_selection_is_zero(self, stump_ctx):
        assert merit(stump_ctx, np.zeros(1, dtype=np.uint8),
                     np.random.default_rng(0)) == 0.0

    def test_constant_model_is_zero(self, stump_rows):
        model = StubModel(lambda r: 1, n_features=1)
        ctx = EvalContext(model, stump_rows, Metric.ACC)
        for seed in range(10):
            assert merit(ctx, np.ones(1, dtype=np.uint8),
                         np.random.default_rng(seed)) == 0.0

    def test_seeded_golden_single_feature(self, stump_rows, stump_model, stump_ctx):
        # score the recorded permutation by hand and compare
        rng = np.random.default_rng(7)
        permuted = np.random.default_rng(7).permutation(stump_rows.X[:, 0])
        hand_preds = (permuted > 1.5).astype(int)
        expected = abs(1.0 - accuracy(stump_rows.y, hand_preds))
        got = merit(stump_ctx, np.ones(1, dtype=np.uint8), rng)
        assert got == pytest.approx(expected, abs=1e-15)

    def test_nonnegative_on_random_fixtures(self, small_regression, tiny_learner):
        ds = small_regression
        rows = ds.rows(np.arange(ds.n_rows))
        model = fit(tiny_learner, rows)
        ctx = EvalContext(model, rows, Metric.RMSE)
        rng = np.random.default_rng(1)
        for _ in range(30):
            bits = (rng.random(ds.n_features) < 0.4).astype(np.uint8)
            assert merit(ctx, bits, rng) >= 0.0

    def test_source_rows_unmodified(self, small_regression, tiny_learner):
        ds = small_regression
        rows = ds.rows(np.arange(ds.n_rows))
        snapshot = rows.X.copy()
        model = fit(tiny_learner, rows)
        ctx = EvalContext(model, rows, Metric.RMSE)
        merit(ctx, np.ones(ds.n_features, dtype=np.uint8), np.random.default_rng(2))
        assert np.array_equal(rows.X, snapshot)

    def test_width_mismatch(self, stump_ctx):
        with pytest.raises(PermselError):
            merit(stump_ctx, np.ones(2, dtype=np.uint8), np.random.default_rng(0))

    def test_deterministic_given_stream(self, small_regression, tiny_learner):
        ds = small_regression
        rows = ds.rows(np.arange(ds.n_rows))
        model = fit(tiny_learner, rows)
        ctx = EvalContext(model, rows, Metric.RMSE)
        bits = np.ones(ds.n_features, dtype=np.uint8)
        a = merit(ctx, bits, np.random.default_rng(42))
        b = merit(ctx, bits, np.random.default_rng(42))
        assert a == b

    def test_shuffles_exactly_the_selected_columns(self):
        # the model sees the eval rows with every selected column permuted
        # (one draw per column, ascending) and every other column as is
        rng = np.random.default_rng(11)
        for trial in range(40):
            m, w = int(rng.integers(1, 25)), int(rng.integers(1, 9))
            X = rng.standard_normal((m, w))
            if trial % 4 == 0:
                X[:, 0] = 3.0  # a constant column permutes to itself
            y = rng.standard_normal(m)
            rows = RowView(X.copy(), y.copy(), Task.REGRESSION)
            model = RecordingModel(w)
            ctx = EvalContext(model, rows, Metric.RMSE)
            bits = (rng.random(w) < 0.5).astype(np.uint8)
            seed = int(rng.integers(0, 2**32))
            merit(ctx, bits, np.random.default_rng(seed))
            assert np.array_equal(rows.X, X)
            assert np.array_equal(rows.y, y)
            if not bits.any():
                assert len(model.seen) == 1  # the baseline only
                continue
            seen = model.seen[-1]
            twin = np.random.default_rng(seed)
            for col in range(w):
                if bits[col]:
                    assert np.array_equal(np.sort(seen[:, col]), np.sort(X[:, col]))
                    assert np.array_equal(seen[:, col], twin.permutation(X[:, col]))
                else:
                    assert np.array_equal(seen[:, col], X[:, col])

    @pytest.mark.parametrize("m", [1, 2, 3, 40, 1001])
    def test_matches_column_loop_and_stream_position(self, m):
        # one permuted call over the selected columns gives the matrix a
        # permutation per column gives, and leaves the stream where that
        # loop leaves it
        rng = np.random.default_rng(m)
        for w in (1, 2, 7, 50):
            rows = RowView(rng.standard_normal((m, w)), rng.standard_normal(m),
                           Task.REGRESSION)
            bits = (rng.random(w) < 0.5).astype(np.uint8)
            bits[rng.integers(w)] = 1
            seed = int(rng.integers(2**32))
            got, ref = RecordingModel(w), RecordingModel(w)
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            merit(EvalContext(got, rows, Metric.RMSE), bits, a)
            merit_reference(EvalContext(ref, rows, Metric.RMSE), bits, b)
            assert np.array_equal(got.seen[-1], ref.seen[-1])
            assert a.integers(2**62) == b.integers(2**62)

    def test_null_features_exactly_zero_when_model_ignores_them(self):
        # the model only looks at feature 0, so shuffling the rest is a no-op
        rng = np.random.default_rng(3)
        X = rng.standard_normal((100, 5))
        y = (X[:, 0] > 0).astype(np.int64)
        rows = RowView(X, y, Task.CLASSIFICATION, class_count=2)
        model = StubModel(lambda r: int(r[0] > 0), n_features=5)
        ctx = EvalContext(model, rows, Metric.ACC)
        for seed in range(20):
            bits = np.zeros(5, dtype=np.uint8)
            bits[1 + seed % 4] = 1
            bits[1 + (seed + 1) % 4] = 1
            assert merit(ctx, bits, np.random.default_rng(seed)) == 0.0

    def test_null_features_near_zero_with_forest(self):
        # forest trained where only feature 0 carries signal: the mean
        # merit of pure-noise subsets stays below 0.02
        rng = np.random.default_rng(4)
        X = rng.standard_normal((200, 5))
        y = (X[:, 0] > 0).astype(np.int64)
        rows = RowView(X, y, Task.CLASSIFICATION, class_count=2)
        model = fit(LearnerSpec(n_trees=20, max_features="all", seed=0), rows)
        ctx = EvalContext(model, rows, Metric.ACC)
        values = []
        for seed in range(50):
            bits = np.array([0, 1, 1, 1, 1], dtype=np.uint8)
            values.append(merit(ctx, bits, np.random.default_rng(seed)))
        assert np.mean(values) < 0.02


class TestMeritMc:
    def test_repeats_one_matches_merit(self, stump_ctx):
        bits = np.ones(1, dtype=np.uint8)
        a = merit_mc(stump_ctx, bits, 1, np.random.default_rng(5))
        b = merit(stump_ctx, bits, np.random.default_rng(5))
        assert a == b

    def test_zero_selection_any_repeats(self, stump_ctx):
        assert merit_mc(stump_ctx, np.zeros(1, dtype=np.uint8), 7,
                        np.random.default_rng(0)) == 0.0

    def test_zero_repeats_rejected(self, stump_ctx):
        with pytest.raises(PermselError):
            merit_mc(stump_ctx, np.ones(1, dtype=np.uint8), 0,
                     np.random.default_rng(0))

    def test_variance_shrinks_with_repeats(self, stump_ctx):
        bits = np.ones(1, dtype=np.uint8)
        singles = [merit_mc(stump_ctx, bits, 1, np.random.default_rng(1000 + t))
                   for t in range(100)]
        fives = [merit_mc(stump_ctx, bits, 5, np.random.default_rng(2000 + t))
                 for t in range(100)]
        assert np.var(fives) < np.var(singles)


def _subset(rows, idx):
    return RowView(rows.X[idx], rows.y[idx], rows.task, rows.class_count)


class TestPfiRank:
    def test_constant_column_scores_zero(self):
        X = np.column_stack([np.arange(6.0), np.full(6, 2.0)])
        y = (X[:, 0] > 2.5).astype(np.int64)
        rows = RowView(X, y, Task.CLASSIFICATION, class_count=2)
        model = fit(LearnerSpec(n_trees=3, max_features="all", seed=0), rows)
        scores = pfi_rank(EvalContext(model, rows, Metric.ACC), repeats=3,
                          rng=np.random.default_rng(0))
        assert scores.scores[1] == 0.0

    def test_ignored_feature_scores_zero_and_used_feature_positive(self):
        # depth-1 trees over both columns split on column 0, which alone
        # separates the classes, so no path tests column 1
        rng = np.random.default_rng(6)
        X = rng.standard_normal((40, 2))
        y = (X[:, 0] > 0).astype(np.int64)
        rows = RowView(X, y, Task.CLASSIFICATION, class_count=2)
        model = fit(LearnerSpec(n_trees=5, max_features="all", max_depth=1, seed=0),
                    rows)
        assert all(t.feature[0] == 0 for t in model.trees)
        scores = pfi_rank(EvalContext(model, rows, Metric.ACC), repeats=5,
                          rng=np.random.default_rng(1))
        assert scores.scores[1] == 0.0
        assert scores.scores[0] > 0.0
        assert scores.ranking[0] == 0

    def test_never_mutates_eval_rows(self, small_regression, tiny_learner):
        ds = small_regression
        rows = ds.rows(np.arange(ds.n_rows))
        before_x = rows.X.copy()
        before_y = rows.y.copy()
        model = fit(tiny_learner, rows)
        pfi_rank(EvalContext(model, rows, Metric.RMSE), repeats=2,
                 rng=np.random.default_rng(2))
        assert np.array_equal(rows.X, before_x)
        assert np.array_equal(rows.y, before_y)

    def test_zero_repeats_rejected(self, stump_ctx):
        with pytest.raises(PermselError):
            pfi_rank(stump_ctx, repeats=0)

    def test_singleton_merit_converges_to_pfi_score(self, small_classification):
        ds = small_classification
        rows = ds.rows(np.arange(ds.n_rows))
        model = fit(LearnerSpec(n_trees=10, seed=0), rows)
        ctx = EvalContext(model, rows, Metric.ACC)
        bits = np.zeros(ds.n_features, dtype=np.uint8)
        bits[0] = 1
        mc = merit_mc(ctx, bits, 200, np.random.default_rng(3))
        scores = pfi_rank(ctx, repeats=200, rng=np.random.default_rng(4))
        assert mc == pytest.approx(scores.scores[0], abs=0.02)

    @staticmethod
    def _check(ctx, repeats, seed=0):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        scores, ranking = pfi_rank_reference(ctx, repeats, a)
        got = pfi_rank(ctx, repeats=repeats, rng=b)
        assert got.scores.tolist() == scores.tolist()
        assert got.ranking.tolist() == ranking.tolist()
        assert b.bit_generator.state == a.bit_generator.state
        return got.scores

    @pytest.fixture(scope="class")
    def forest_contexts(self):
        # column 5 is constant, so no tree can split on it; class 3 is in
        # the training rows but not in the evaluation rows
        rng = np.random.default_rng(21)
        X = rng.standard_normal((150, 6)).round(1)
        X[:, 5] = 0.25
        y_reg = X[:, 0] - 2.0 * X[:, 1] + 0.3 * rng.standard_normal(150)
        y_cls = (X[:, 0] > 0).astype(np.int64) + (X[:, 2] > 0.4)
        y_cls[X[:, 3] > 1.2] = 3
        fit_idx = np.arange(100)
        eval_idx = 100 + np.flatnonzero(y_cls[100:] != 3)
        contexts = {}
        for metric in (Metric.RMSE, Metric.ACC, Metric.BA):
            if metric is Metric.RMSE:
                rows = RowView(X, y_reg, Task.REGRESSION)
            else:
                rows = RowView(X, y_cls, Task.CLASSIFICATION, class_count=4)
            model = fit(LearnerSpec(n_trees=7, seed=2), _subset(rows, fit_idx))
            contexts[metric] = EvalContext(model, _subset(rows, eval_idx), metric)
        return contexts

    @pytest.mark.parametrize("repeats", [1, 5, 9])
    def test_matches_reference_loop_bit_for_bit(self, forest_contexts, repeats):
        # nine repeats is where a pairwise (np.mean) sum changes the last bit
        for ctx in forest_contexts.values():
            assert 3 not in ctx.eval_rows.y
            scores = self._check(ctx, repeats, seed=repeats)
            assert scores[5] == 0.0  # no tree tests the constant column
            assert (scores[:5] > 0).any()

    @pytest.mark.parametrize("jobs_per_block", [1, 4, 7])
    @pytest.mark.parametrize("metric", [Metric.RMSE, Metric.BA])
    def test_jobs_span_several_blocks(self, forest_contexts, monkeypatch, metric,
                                      jobs_per_block):
        ctx = forest_contexts[metric]
        pairs = len(ctx.model.trees) * ctx.eval_rows.n_rows
        monkeypatch.setattr(permutation, "_PFI_BLOCK", jobs_per_block * pairs)
        blocks = []
        walk = CompiledForest.shuffled_leaf_values

        def counted(forest, paths, features, row_maps):
            blocks.append(features.tolist())
            return walk(forest, paths, features, row_maps)

        monkeypatch.setattr(CompiledForest, "shuffled_leaf_values", counted)
        self._check(ctx, 5)
        assert [len(b) for b in blocks[:-1]] == [jobs_per_block] * (len(blocks) - 1)
        assert sum(blocks, []) == np.repeat(np.arange(6), 5).tolist()

    def test_no_predict_per_job(self, forest_contexts, monkeypatch):
        ctx = forest_contexts[Metric.ACC]
        calls = []
        predict = RandomForestModel.predict
        monkeypatch.setattr(RandomForestModel, "predict",
                            lambda model, X: calls.append(1) or predict(model, X))
        pfi_rank(ctx, repeats=3, rng=np.random.default_rng(0))
        assert calls == []

    @pytest.mark.parametrize("task", [Task.REGRESSION, Task.CLASSIFICATION])
    def test_single_leaf_trees(self, task):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 3))
        y = (X[:, 0] > 0).astype(np.int64)
        rows = RowView(X, y, task, class_count=2 if task is Task.CLASSIFICATION else None)
        model = fit(LearnerSpec(n_trees=3, max_depth=0, seed=0), rows)
        assert model.compiled.leaf[model.compiled.roots].all()
        metric = Metric.ACC if task is Task.CLASSIFICATION else Metric.RMSE
        scores = self._check(EvalContext(model, rows, metric), 4)
        assert scores.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("metric", [Metric.RMSE, Metric.ACC])
    def test_one_evaluation_row(self, forest_contexts, metric):
        ctx = forest_contexts[metric]
        one = EvalContext(ctx.model, _subset(ctx.eval_rows, np.arange(1)), metric)
        assert self._check(one, 5).tolist() == [0.0] * 6


class TestPfiMemory:
    def test_peak_is_a_small_multiple_of_one_block(self):
        # one block is _PFI_BLOCK float64 leaf values, and the re-walk keeps
        # about nine 8-byte arrays over at most as many touched pairs; all
        # at once, this context's leaf tables alone would take 290 blocks
        rng = np.random.default_rng(9)
        X = rng.standard_normal((160, 2000))
        y = (X[:, 0] + X[:, 1] > 0).astype(np.int64) + (X[:, 2] > 0.5)
        rows = RowView(X, y, Task.CLASSIFICATION, class_count=3)
        model = fit(LearnerSpec(n_trees=8, seed=0), _subset(rows, np.arange(100)))
        ctx = EvalContext(model, _subset(rows, np.arange(100, 160)), Metric.ACC)
        block = 8 * permutation._PFI_BLOCK
        assert 5 * 2000 * 8 * 60 * 8 > 250 * block
        tracemalloc.start()
        try:
            pfi_rank(ctx, repeats=5, rng=np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * block, f"peak {peak / block:.1f} blocks"


class TestBuildContext:
    @pytest.fixture
    def classification4(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((90, 4))
        y = (X[:, 0] > 0).astype(np.int64) + 2 * (X[:, 1] > 0)
        return Dataset(X, y, Task.CLASSIFICATION, [f"f{i}" for i in range(4)],
                       class_names=["a", "b", "c", "d"])

    def test_v1_fits_on_train_and_scores_on_validation(self, small_regression,
                                                       tiny_learner):
        ds = small_regression
        part = split(ds, seed=3)
        ctx = build_context(ds, part, "v1", tiny_learner)
        val = ds.rows(part.val_idx)
        assert np.array_equal(ctx.eval_rows.X, val.X)
        assert np.array_equal(ctx.eval_rows.y, val.y)
        expected = fit(tiny_learner, ds.rows(part.train_idx))
        assert ctx.model.to_json() == expected.to_json()

    def test_v2_fits_and_scores_on_merged_rows(self, small_regression, tiny_learner):
        ds = small_regression
        part = split(ds, seed=3)
        ctx = build_context(ds, part, "v2", tiny_learner)
        merged = ds.rows(part.train_val_idx)
        assert np.array_equal(ctx.eval_rows.X, merged.X)
        assert np.array_equal(ctx.eval_rows.y, merged.y)
        assert ctx.model.to_json() == fit(tiny_learner, merged).to_json()

    def test_metric_follows_task(self, small_regression, classification4,
                                 tiny_learner):
        for ds, metric in ((small_regression, Metric.RMSE),
                           (classification4, Metric.ACC)):
            for variant in ("v1", "v2"):
                ctx = build_context(ds, split(ds, seed=0), variant, tiny_learner)
                assert ctx.metric is metric

    def test_never_reads_test_rows(self, small_regression, classification4,
                                   tiny_learner):
        for ds in (small_regression, classification4):
            part = split(ds, seed=1)
            for variant in ("v1", "v2"):
                ds.row_access_log = set()
                build_context(ds, part, variant, tiny_learner)
                touched, ds.row_access_log = ds.row_access_log, None
                assert touched
                assert not touched & set(part.test_idx.tolist())

    def test_unknown_variant_rejected(self, small_regression, tiny_learner):
        with pytest.raises(PermselError):
            build_context(small_regression, split(small_regression, seed=0),
                          "v3", tiny_learner)


class TestSelectTopK:
    def test_k_equals_w(self):
        scores = FeatureScores(np.array([0.1, 0.5, 0.3]))
        assert select_top_k(scores, 3).tolist() == [0, 1, 2]

    def test_k_one_is_argmax(self):
        scores = FeatureScores(np.array([0.1, 0.5, 0.3]))
        assert select_top_k(scores, 1).tolist() == [1]

    def test_tie_prefers_lower_index(self):
        scores = FeatureScores(np.array([0.3, 0.9, 0.9]))
        assert select_top_k(scores, 2).tolist() == [1, 2]
        assert select_top_k(scores, 1).tolist() == [1]

    def test_k_out_of_range(self):
        scores = FeatureScores(np.array([0.3, 0.9]))
        with pytest.raises(PermselError):
            select_top_k(scores, 0)
        with pytest.raises(PermselError):
            select_top_k(scores, 3)

    def test_ranking_is_descending_with_index_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            vals = rng.integers(0, 4, size=10).astype(float)
            fs = FeatureScores(vals)
            ranked = fs.scores[fs.ranking]
            assert np.all(np.diff(ranked) <= 0)
            for a, b in zip(fs.ranking[:-1], fs.ranking[1:]):
                if fs.scores[a] == fs.scores[b]:
                    assert a < b


class TestEdgeEvaluationRows:
    def test_ba_with_class_absent_from_eval_rows(self):
        # three classes in training, only two in the evaluation rows: BA
        # averages the recall of the two present classes, never 0/0
        rng = np.random.default_rng(3)
        X = rng.standard_normal((90, 4))
        y = np.digitize(X[:, 0] + 0.3 * X[:, 1], [-0.5, 0.5])
        model = fit(LearnerSpec(n_trees=7, seed=1),
                    RowView(X, y, Task.CLASSIFICATION, class_count=3))
        keep = y < 2
        rows = RowView(X[keep], y[keep], Task.CLASSIFICATION, class_count=3)
        ctx = EvalContext(model, rows, Metric.BA)

        def ba(pred):
            return float(np.mean([np.mean(pred[rows.y == c] == c) for c in (0, 1)]))

        assert ctx.baseline_perf == ba(model.predict(rows.X))
        draw = np.random.default_rng(5)
        Xp = rows.X.copy()
        for col in range(4):
            Xp[:, col] = draw.permutation(Xp[:, col])
        got = merit(ctx, np.ones(4, dtype=np.uint8), np.random.default_rng(5))
        assert got == abs(ctx.baseline_perf - ba(model.predict(Xp)))
        scores = pfi_rank(ctx, repeats=2, rng=np.random.default_rng(0)).scores
        assert np.isfinite(scores).all() and (scores >= 0).all()

    def test_constant_target_eval_rows(self, small_regression, tiny_learner):
        # zero target range: RMSE is still defined and the metric range
        # used to normalise diagnostics falls back to 1
        ds = small_regression
        model = fit(tiny_learner, ds.rows(np.arange(60)))
        rows = RowView(ds.X[60:], np.full(20, 1.5), Task.REGRESSION)
        ctx = EvalContext(model, rows, Metric.RMSE)
        assert ctx.baseline_perf == rmse(rows.y, model.predict(rows.X))
        assert ctx.metric_range() == 1.0
        chromosome = np.ones(ds.n_features, dtype=np.uint8)
        assert merit(ctx, chromosome, np.random.default_rng(1)) >= 0.0
        scores = pfi_rank(ctx, repeats=2, rng=np.random.default_rng(0)).scores
        assert np.isfinite(scores).all() and (scores >= 0).all()
