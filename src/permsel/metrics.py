"""Performance metrics: accuracy, balanced accuracy, RMSE, nRMSE, R-squared.

All functions are pure and operate on 1-D numpy arrays (or anything
convertible). Orientation (higher-better vs lower-better) is attached to
each metric kind so downstream comparisons can be written generically.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import MetricError, ZeroRangeError, ZeroVarianceError


class Orientation(enum.Enum):
    HIGHER_BETTER = "higher"
    LOWER_BETTER = "lower"


class Metric(enum.Enum):
    ACC = "acc"
    BA = "ba"
    RMSE = "rmse"
    NRMSE = "nrmse"
    R2 = "r2"

    @property
    def orientation(self) -> Orientation:
        if self in (Metric.ACC, Metric.BA, Metric.R2):
            return Orientation.HIGHER_BETTER
        return Orientation.LOWER_BETTER


def _paired(y, yhat):
    y = np.asarray(y)
    yhat = np.asarray(yhat)
    if y.shape != yhat.shape or y.ndim != 1:
        raise MetricError(f"expected equal-length 1-D arrays, got {y.shape} and {yhat.shape}")
    if y.size == 0:
        raise MetricError("empty input")
    return y, yhat


def accuracy(y, yhat) -> float:
    """Fraction of exact matches between true and predicted labels."""
    y, yhat = _paired(y, yhat)
    return float(np.mean(y == yhat))


def balanced_accuracy(y, yhat, class_count: int) -> float:
    """Unweighted mean of per-class recall.

    Only classes that actually occur in ``y`` contribute a term, so a
    class absent from the evaluation set never produces a 0/0 recall.
    """
    y, yhat = _paired(y, yhat)
    y = y.astype(np.int64)
    yhat = yhat.astype(np.int64)
    if y.min() < 0 or y.max() >= class_count:
        raise MetricError("label outside [0, class_count)")
    recalls = []
    for c in range(class_count):
        mask = y == c
        if not mask.any():
            continue
        recalls.append(float(np.mean(yhat[mask] == c)))
    return float(np.mean(recalls))


def rmse(y, yhat) -> float:
    """Root mean squared error."""
    y, yhat = _paired(y, yhat)
    return float(np.sqrt(np.mean((y.astype(float) - yhat.astype(float)) ** 2)))


def nrmse(rmse_value: float, y_reference) -> float:
    """RMSE divided by the range of the reference target.

    The division by max(y) - min(y) makes error magnitudes comparable
    across datasets whose targets live on different scales.
    """
    y_reference = np.asarray(y_reference, dtype=float)
    if y_reference.size == 0:
        raise MetricError("empty reference target")
    span = float(y_reference.max() - y_reference.min())
    if span <= 0.0:
        raise ZeroRangeError("reference target has zero range")
    return float(rmse_value) / span


def r_squared(y, yhat) -> float:
    """Proportion of target variance explained: 1 - SS_res / SS_tot.

    SS_tot is taken about the mean of ``y`` itself. The value is not
    clamped, so poor out-of-sample predictions can yield negatives. A
    constant ``y``, a single value included, raises ZeroVarianceError.
    """
    y, yhat = _paired(y, yhat)
    y = y.astype(float)
    yhat = yhat.astype(float)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise ZeroVarianceError("target has zero variance")
    ss_res = float(np.sum((y - yhat) ** 2))
    return 1.0 - ss_res / ss_tot


def score(metric: Metric, y, yhat, class_count: int | None = None,
          y_reference=None) -> float:
    """Evaluate ``metric`` on a prediction vector.

    ``class_count`` is required for BA; ``y_reference`` for nRMSE.
    """
    if metric is Metric.ACC:
        return accuracy(y, yhat)
    if metric is Metric.BA:
        if class_count is None:
            raise MetricError("balanced accuracy needs class_count")
        return balanced_accuracy(y, yhat, class_count)
    if metric is Metric.RMSE:
        return rmse(y, yhat)
    if metric is Metric.NRMSE:
        if y_reference is None:
            raise MetricError("nRMSE needs a reference target")
        return nrmse(rmse(y, yhat), y_reference)
    if metric is Metric.R2:
        return r_squared(y, yhat)
    raise MetricError(f"unknown metric {metric}")
