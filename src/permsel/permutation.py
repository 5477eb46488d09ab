"""Permutation-degradation scoring for feature subsets and single features.

The merit of a subset is the absolute change in a model's performance
when every selected column of the evaluation rows is independently
shuffled. Scoring never retrains the model and never mutates the
evaluation rows; all randomness comes from the caller's stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import learner as learner_mod
from .dataset import Dataset, Partition, RowView, Task
from .errors import PermselError
from .learner import LearnerSpec
from .metrics import Metric, score


class EvalContext:
    """A trained model bound to fixed evaluation rows and a metric.

    The baseline performance is computed once at construction and reused
    by every merit call against this context.
    """

    def __init__(self, model, eval_rows: RowView, metric: Metric):
        if eval_rows.n_features != model.n_features:
            raise PermselError(
                f"eval rows width {eval_rows.n_features} != model width {model.n_features}")
        if metric is Metric.NRMSE:
            raise PermselError("nRMSE needs an external reference; use RMSE here")
        self.model = model
        self.eval_rows = eval_rows
        self.metric = metric
        self.baseline_perf = self._evaluate(eval_rows.X)

    @property
    def n_features(self) -> int:
        return self.eval_rows.n_features

    def _evaluate(self, X: np.ndarray) -> float:
        return self._score(self.model.predict(X))

    def _score(self, yhat: np.ndarray) -> float:
        return score(self.metric, self.eval_rows.y, yhat,
                     class_count=self.eval_rows.class_count)

    def metric_range(self) -> float:
        """Upper bound on achievable merit, used to normalize diagnostics."""
        if self.metric in (Metric.ACC, Metric.BA):
            return 1.0
        if self.eval_rows.task is Task.REGRESSION:
            span = float(np.ptp(self.eval_rows.y))
            return span if span > 0 else 1.0
        return 1.0


def build_context(dataset: Dataset, partition: Partition, variant: str,
                  learner_spec: LearnerSpec) -> EvalContext:
    """Fit the baseline model of a variant and bind it to its evaluation rows.

    Variant v1 fits on the train rows and scores on the validation rows;
    v2 fits and scores on the merged train+validation rows. The metric is
    ACC for classification and RMSE for regression. The test rows are
    never touched.
    """
    if variant == "v1":
        fit_rows = dataset.rows(partition.train_idx)
        eval_rows = dataset.rows(partition.val_idx)
    elif variant == "v2":
        fit_rows = eval_rows = dataset.rows(partition.train_val_idx)
    else:
        raise PermselError(f"variant must be 'v1' or 'v2', got {variant!r}")
    model = learner_mod.fit(learner_spec, fit_rows)
    metric = Metric.ACC if dataset.task is Task.CLASSIFICATION else Metric.RMSE
    return EvalContext(model, eval_rows, metric)


@dataclass(frozen=True)
class FeatureScores:
    """Per-feature importance scores with a descending ranking.

    Ties rank the lower feature index first.
    """

    scores: np.ndarray

    @property
    def ranking(self) -> np.ndarray:
        # stable sort on negated scores: ties keep ascending index order
        return np.argsort(-self.scores, kind="stable")


def merit(ctx: EvalContext, chromosome, rng: np.random.Generator) -> float:
    """Absolute performance degradation when the selected columns are shuffled.

    Each selected column gets its own independent permutation, drawn in
    ascending column order from ``rng`` by one ``permuted`` call over the
    selected columns (the draws of a ``permutation`` per column). An
    empty selection leaves the rows untouched, so its merit is exactly
    zero.
    """
    bits = np.asarray(chromosome)
    if bits.shape != (ctx.n_features,):
        raise PermselError(
            f"chromosome length {bits.shape} != feature count {ctx.n_features}")
    selected = np.flatnonzero(bits)
    if selected.size == 0:
        return 0.0
    X = ctx.eval_rows.X
    Xp = X.copy()
    Xp[:, selected] = rng.permuted(X[:, selected], axis=0)
    shuffled_perf = ctx._evaluate(Xp)
    return abs(ctx.baseline_perf - shuffled_perf)


def merit_mc(ctx: EvalContext, chromosome, repeats: int,
             rng: np.random.Generator) -> float:
    """Mean of ``repeats`` independent merit draws, for callers wanting
    lower variance.

    The mean is a sequential sum divided by ``repeats``: numpy's pairwise
    summation would change the last bit for nine or more repeats.
    """
    if repeats < 1:
        raise PermselError("repeats must be at least 1")
    return sum(merit(ctx, chromosome, rng) for _ in range(repeats)) / repeats


def pfi_rank(ctx: EvalContext, repeats: int = 5,
             rng: np.random.Generator | None = None) -> FeatureScores:
    """Single-feature permutation importance over all columns, on a
    context whose model is a ``RandomForestModel``.

    score_i is ``merit_mc`` of the one-hot chromosome selecting only
    column i, with the same draws and floats: draws come from ``rng`` in
    feature-major order (all repeats of feature 0, then feature 1, ...),
    and the forest scores the (feature, repeat) jobs in blocks
    (``_pfi_merits``).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if repeats < 1:
        raise PermselError("repeats must be at least 1")
    w = ctx.n_features
    merits = _pfi_merits(ctx, repeats, rng).reshape(w, repeats)
    # merit_mc's sequential sum over the repeats
    total = np.zeros(w)
    for r in range(repeats):
        total += merits[:, r]
    return FeatureScores(total / repeats)


# Elements of the (jobs, trees, rows) leaf table of one PFI block
_PFI_BLOCK = 1 << 14


def _pfi_merits(ctx: EvalContext, repeats: int,
                rng: np.random.Generator) -> np.ndarray:
    """The merit of each (feature, repeat) job of a forest context, in
    feature-major order.

    Each block of jobs draws its row maps with one ``permuted`` call on
    an int64 (jobs, rows) index array: the draws, in order, of one
    single-column ``merit`` call per job. The forest re-walks only the
    (tree, row) pairs whose path tests a job's column
    (``CompiledForest.shuffled_leaf_values``), and votes or averages as
    ``predict`` does.
    """
    model, rows = ctx.model, ctx.eval_rows
    forest = model.compiled
    paths = forest.paths(np.ascontiguousarray(rows.X, dtype=float))
    n = rows.n_rows
    jobs = ctx.n_features * repeats
    per_block = max(1, _PFI_BLOCK // paths.leaf.size)
    merits = np.empty(jobs)
    for lo in range(0, jobs, per_block):
        block = np.arange(lo, min(lo + per_block, jobs))
        row_maps = rng.permuted(np.broadcast_to(np.arange(n), (block.size, n)), axis=1)
        yhat = model.combine(
            forest.shuffled_leaf_values(paths, block // repeats, row_maps))
        for job, pred in zip(block, yhat):
            merits[job] = abs(ctx.baseline_perf - ctx._score(pred))
    return merits


def select_top_k(scores: FeatureScores, k: int) -> np.ndarray:
    """First k features of the ranking, as a sorted index array."""
    w = scores.scores.shape[0]
    if not (1 <= k <= w):
        raise PermselError(f"k={k} outside [1, {w}]")
    return np.sort(scores.ranking[:k])
