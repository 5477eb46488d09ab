import numpy as np
import pytest

from permsel.errors import MetricError, ZeroRangeError
from permsel.metrics import (
    Metric,
    Orientation,
    accuracy,
    balanced_accuracy,
    nrmse,
    r_squared,
    rmse,
    score,
)

from oracles import balanced_accuracy_reference


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0

    def test_half(self):
        # matches at positions 0 and 2 only
        assert accuracy([1, 0, 1, 0], [1, 1, 1, 1]) == 0.5

    def test_total_mismatch(self):
        assert accuracy([0], [1]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            accuracy([0, 1], [0])

    def test_empty(self):
        with pytest.raises(MetricError):
            accuracy([], [])


class TestBalancedAccuracy:
    def test_perfect(self):
        assert balanced_accuracy([0, 1, 2], [0, 1, 2], 3) == 1.0

    def test_one_sided(self):
        # recall is 1 for the majority class and 0 for the minority
        assert balanced_accuracy([0, 0, 0, 1], [0, 0, 0, 0], 2) == 0.5

    def test_constant_prediction_balanced_target(self):
        y = [0, 0, 1, 1, 2, 2]
        assert balanced_accuracy(y, [0] * 6, 3) == pytest.approx(1 / 3)

    def test_absent_class_ignored(self):
        # class 2 never occurs in y so only two recalls are averaged
        assert balanced_accuracy([0, 1], [0, 1], 3) == 1.0

    @pytest.mark.parametrize("class_count", [2, 3, 8, 11])
    def test_matches_per_class_loop(self, class_count):
        rng = np.random.default_rng(class_count)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            present = int(rng.integers(1, class_count + 1))  # some classes absent
            y = rng.integers(0, present, size=n)
            yhat = rng.integers(0, class_count, size=n)
            got = balanced_accuracy(y, yhat, class_count)
            assert got == balanced_accuracy_reference(y, yhat, class_count)

    def test_matches_accuracy_when_balanced(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = np.repeat([0, 1, 2], 10)
            yhat = rng.integers(0, 3, size=30)
            ba = balanced_accuracy(y, yhat, 3)
            acc = accuracy(y, yhat)
            assert ba == pytest.approx(acc, abs=1e-12)


class TestRmse:
    def test_zero(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        # errors 3 and 4: sqrt((9 + 16) / 2) = sqrt(12.5)
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5), abs=1e-12)

    def test_single_pair(self):
        assert rmse([2.0], [5.0]) == pytest.approx(3.0, abs=1e-12)

    def test_paired_permutation_invariance(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(30)
        yhat = rng.standard_normal(30)
        base = rmse(y, yhat)
        for _ in range(10):
            perm = rng.permutation(30)
            assert rmse(y[perm], yhat[perm]) == pytest.approx(base, abs=1e-12)


class TestNrmse:
    def test_hand_value(self):
        assert nrmse(0.5, [0.0, 2.0]) == pytest.approx(0.25, abs=1e-12)

    def test_zero_rmse(self):
        assert nrmse(0.0, [0.0, 1.0]) == 0.0

    def test_zero_range(self):
        with pytest.raises(ZeroRangeError):
            nrmse(0.5, [3.0, 3.0, 3.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(40)
        yhat = rng.standard_normal(40)
        base = nrmse(rmse(y, yhat), y)
        for c in (0.5, 2.0, 100.0):
            scaled = nrmse(rmse(c * y, c * yhat), c * y)
            assert scaled == pytest.approx(base, rel=1e-12)


class TestRSquared:
    def test_perfect(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_predictor_zero(self):
        assert r_squared([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == pytest.approx(0.0, abs=1e-12)

    def test_negative_for_bad_constant(self):
        # constant far from the mean explains less than the mean does
        assert r_squared([0.0, 1.0], [2.0, 2.0]) < 0.0

    def test_zero_variance_rejected(self):
        with pytest.raises(MetricError):
            r_squared([1.0, 1.0], [1.0, 2.0])

    def test_too_short(self):
        with pytest.raises(MetricError):
            r_squared([1.0], [1.0])


class TestOrientationAndDispatch:
    def test_orientations(self):
        assert Metric.ACC.orientation is Orientation.HIGHER_BETTER
        assert Metric.BA.orientation is Orientation.HIGHER_BETTER
        assert Metric.R2.orientation is Orientation.HIGHER_BETTER
        assert Metric.RMSE.orientation is Orientation.LOWER_BETTER
        assert Metric.NRMSE.orientation is Orientation.LOWER_BETTER

    def test_score_dispatch(self):
        assert score(Metric.ACC, [1, 1], [1, 0]) == 0.5
        assert score(Metric.BA, [0, 1], [0, 1], class_count=2) == 1.0
        assert score(Metric.RMSE, [0.0], [2.0]) == 2.0
        assert score(Metric.NRMSE, [0.0, 2.0], [0.0, 2.0], y_reference=[0.0, 2.0]) == 0.0
        assert score(Metric.R2, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_score_missing_args(self):
        with pytest.raises(MetricError):
            score(Metric.BA, [0, 1], [0, 1])
        with pytest.raises(MetricError):
            score(Metric.NRMSE, [0.0, 1.0], [0.0, 1.0])
