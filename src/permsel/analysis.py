"""Nonparametric comparison of methods over paired per-dataset results.

Provides the Wilcoxon signed-rank test (exact for small samples, normal
approximation with tie and continuity corrections otherwise), win/loss
rankings over all method pairs, and train-vs-test overfitting measures.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError
from .metrics import Metric, Orientation

EXACT_LIMIT = 20  # enumerate the rank-sum distribution up to this n


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float      # W = min(W+, W-)
    p_value: float
    n: int                # nonzero differences used
    decisive: bool        # False when every difference was zero
    w_plus: float = 0.0
    w_minus: float = 0.0


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    ranks_sorted = np.empty(values.size)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks_sorted[i:j + 1] = 0.5 * (i + j) + 1.0
        i = j + 1
    ranks = np.empty(values.size)
    ranks[order] = ranks_sorted
    return ranks


def _exact_two_sided_p(ranks: np.ndarray, w_obs: float) -> float:
    # Condition on the observed |difference| ranks: under the null each
    # difference is independently positive or negative with probability
    # one half, so the positive-rank sum distributes as a convolution.
    doubled = np.rint(ranks * 2).astype(np.int64)  # midranks -> integers
    total = int(doubled.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[:total + 1 - r]
        counts = counts + shifted
    w2 = int(round(2 * w_obs))
    low = counts[:w2 + 1].sum()             # P(W+ <= w)
    high = counts[total - w2:].sum()        # P(W- <= w)
    overlap = 0.0
    if total - w2 <= w2:
        overlap = counts[total - w2:w2 + 1].sum()
    p = (low + high - overlap) / (2.0 ** ranks.size)
    return min(1.0, float(p))


def _approx_two_sided_p(ranks: np.ndarray, w_obs: float, n: int) -> float:
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_sizes = np.unique(ranks, return_counts=True)
    var -= float(np.sum(tie_sizes ** 3 - tie_sizes)) / 48.0
    if var <= 0:
        return 1.0
    z = (w_obs - mean + 0.5) / math.sqrt(var)  # continuity toward the center
    p = 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0))
    return min(1.0, max(p, 0.0))


def wilcoxon_signed_rank(diffs) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired differences.

    Zero differences are dropped. If nothing remains the result is
    flagged indecisive with p = 1 by convention. Exact enumeration is
    used for up to ``EXACT_LIMIT`` differences, the tie-corrected normal
    approximation with continuity correction beyond that.
    """
    d = np.asarray(diffs, dtype=float)
    if d.size == 0:
        raise AnalysisError("need at least one difference")
    d = d[d != 0.0]
    if d.size == 0:
        return WilcoxonResult(0.0, 1.0, 0, False)
    ranks = _midranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    n = int(d.size)
    if n <= EXACT_LIMIT:
        p = _exact_two_sided_p(ranks, w)
    else:
        p = _approx_two_sided_p(ranks, w, n)
    return WilcoxonResult(w, p, n, True, w_plus, w_minus)


@dataclass(frozen=True)
class PairedSample:
    """Per-dataset values of two methods under one metric."""

    method_a: str
    method_b: str
    metric: Metric
    values_a: tuple
    values_b: tuple

    def __post_init__(self):
        if len(self.values_a) != len(self.values_b) or len(self.values_a) == 0:
            raise AnalysisError("paired values must be nonempty and equal-length")


@dataclass(frozen=True)
class PairwiseOutcome:
    method_a: str
    method_b: str
    p_value: float
    mean_diff: float      # oriented: positive means method_a is better
    significant: bool
    winner: str | None


def compare_pair(sample: PairedSample, alpha: float = 0.05) -> PairwiseOutcome:
    """Test one method pair; the winner is set only when p < alpha."""
    a = np.asarray(sample.values_a, dtype=float)
    b = np.asarray(sample.values_b, dtype=float)
    if sample.metric.orientation is Orientation.HIGHER_BETTER:
        oriented = a - b
    else:
        oriented = b - a
    res = wilcoxon_signed_rank(oriented)
    significant = res.decisive and res.p_value < alpha
    winner = None
    if significant:
        winner = sample.method_a if res.w_plus > res.w_minus else sample.method_b
    return PairwiseOutcome(sample.method_a, sample.method_b, res.p_value,
                           float(oriented.mean()), significant, winner)


@dataclass(frozen=True)
class RankingRow:
    method: str
    wins: int
    losses: int

    @property
    def net(self) -> int:
        return self.wins - self.losses


def win_loss_ranking(outcomes: list[PairwiseOutcome]) -> list[RankingRow]:
    """Count the significant wins and losses of every method over the
    ``compare_pair`` outcomes of its pairs.

    Rows are sorted by wins minus losses, descending, with method name as
    the tie-break.
    """
    methods: list[str] = []
    for o in outcomes:
        for m in (o.method_a, o.method_b):
            if m not in methods:
                methods.append(m)
    wins = {m: 0 for m in methods}
    losses = {m: 0 for m in methods}
    for outcome in outcomes:
        if outcome.winner is not None:
            loser = outcome.method_b if outcome.winner == outcome.method_a \
                else outcome.method_a
            wins[outcome.winner] += 1
            losses[loser] += 1
    rows = [RankingRow(m, wins[m], losses[m]) for m in methods]
    rows.sort(key=lambda r: (-r.net, r.method))
    return rows


class OverfitKind(enum.Enum):
    ACC_RATIO = "acc_ratio"       # train / test
    BA_RATIO = "ba_ratio"         # train / test
    NRMSE_RATIO = "nrmse_ratio"   # test / train
    R2_DIFF = "r2_diff"           # train - test


def overfit_ratio(train: float, test: float, kind: OverfitKind) -> float:
    """Train-vs-test overfitting measure.

    Values above 1 for the ratio kinds, or above 0 for the R-squared
    difference, indicate overfitting.
    """
    if kind in (OverfitKind.ACC_RATIO, OverfitKind.BA_RATIO):
        if test == 0:
            raise AnalysisError("test value is zero, ratio undefined")
        return train / test
    if kind is OverfitKind.NRMSE_RATIO:
        if train == 0:
            raise AnalysisError("train value is zero, ratio undefined")
        return test / train
    if kind is OverfitKind.R2_DIFF:
        return train - test
    raise AnalysisError(f"unknown overfit kind {kind}")
