import numpy as np
import pytest

from permsel.analysis import (
    OverfitKind,
    PairedSample,
    _midranks,
    compare_pair,
    overfit_ratio,
    wilcoxon_signed_rank,
    win_loss_ranking,
)
from permsel.errors import AnalysisError
from permsel.metrics import Metric

from oracles import _midranks as midranks_reference
from oracles import wilcoxon_enumeration_p


class TestMidranks:
    def test_hand_value(self):
        assert _midranks(np.array([3.0, 1.0, 3.0, 2.0, 3.0])).tolist() == \
            [4.0, 1.0, 4.0, 2.0, 4.0]

    def test_matches_loop_on_tied_vectors(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            values = rng.integers(0, int(rng.integers(1, 8)), size=n) * 0.1
            if rng.random() < 0.2:
                values[rng.integers(0, n, size=2)] = np.nan
            got, want = _midranks(values), midranks_reference(values)
            nan = np.isnan(values)  # NaNs take the top ranks, one each, in any order
            assert got[~nan].tobytes() == want[~nan].tobytes()
            assert np.sort(got[nan]).tobytes() == np.sort(want[nan]).tobytes()


class TestWilcoxon:
    def test_all_zero_diffs_no_decision(self):
        res = wilcoxon_signed_rank([0.0, 0.0, 0.0])
        assert not res.decisive
        assert res.p_value == 1.0
        assert res.n == 0

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            wilcoxon_signed_rank([])

    def test_all_positive_n6_extreme(self):
        res = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert res.statistic == 0.0
        assert res.p_value == pytest.approx(2.0 / 64.0, abs=1e-15)

    def test_mixed_signs_matches_enumeration(self):
        diffs = [1.0, -2.0, 3.0, 4.0, 5.0]
        res = wilcoxon_signed_rank(diffs)
        want = wilcoxon_enumeration_p(diffs)
        assert res.p_value == pytest.approx(want, abs=1e-12)

    def test_matches_enumeration_on_random_samples(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(1, 11))
            diffs = rng.standard_normal(n)
            res = wilcoxon_signed_rank(diffs)
            want = wilcoxon_enumeration_p(diffs)
            assert res.p_value == pytest.approx(want, abs=1e-12)

    def test_matches_enumeration_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            diffs = rng.integers(-3, 4, size=n).astype(float)
            diffs = diffs[diffs != 0]
            if diffs.size == 0:
                continue
            res = wilcoxon_signed_rank(diffs)
            want = wilcoxon_enumeration_p(diffs)
            assert res.p_value == pytest.approx(want, abs=1e-12)

    def test_sign_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            diffs = rng.standard_normal(int(rng.integers(1, 30)))
            p1 = wilcoxon_signed_rank(diffs).p_value
            p2 = wilcoxon_signed_rank(-diffs).p_value
            assert p1 == pytest.approx(p2, abs=1e-12)

    def test_p_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            diffs = rng.standard_normal(int(rng.integers(1, 40)))
            p = wilcoxon_signed_rank(diffs).p_value
            assert 0.0 < p <= 1.0

    def test_exact_vs_normal_approximation(self):
        # tie-free samples in the range where both paths are trustworthy
        from permsel.analysis import _approx_two_sided_p, _midranks
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = int(rng.integers(12, 21))
            diffs = rng.standard_normal(n)
            res = wilcoxon_signed_rank(diffs)
            ranks = _midranks(np.abs(diffs))
            approx = _approx_two_sided_p(ranks, res.statistic, n)
            assert approx == pytest.approx(res.p_value, abs=0.02)

    def test_large_n_uses_approximation(self):
        rng = np.random.default_rng(5)
        diffs = rng.standard_normal(25) + 0.8
        res = wilcoxon_signed_rank(diffs)
        assert res.n == 25
        assert res.p_value < 0.01


class TestComparePair:
    def test_higher_better_orientation(self):
        s = PairedSample("a", "b", Metric.ACC,
                         (0.9, 0.8, 0.95, 0.85, 0.9, 0.92),
                         (0.5, 0.4, 0.55, 0.45, 0.5, 0.52))
        out = compare_pair(s)
        assert out.significant
        assert out.winner == "a"
        assert out.mean_diff > 0

    def test_lower_better_orientation(self):
        s = PairedSample("a", "b", Metric.NRMSE,
                         (0.1, 0.2, 0.15, 0.12, 0.18, 0.11),
                         (0.5, 0.6, 0.55, 0.52, 0.58, 0.51))
        out = compare_pair(s)
        assert out.significant
        assert out.winner == "a"
        assert out.mean_diff > 0  # oriented: positive favors method_a

    def test_identical_methods_no_decision(self):
        s = PairedSample("a", "b", Metric.ACC, (0.5, 0.6), (0.5, 0.6))
        out = compare_pair(s)
        assert not out.significant
        assert out.winner is None
        assert out.p_value == 1.0


class TestWinLossRanking:
    def test_dominant_method_tops_ranking(self):
        rng = np.random.default_rng(6)
        base = rng.uniform(0.5, 0.7, size=12)
        values = {"best": base + 0.2, "mid": base + 0.1, "worst": base}
        samples = []
        names = list(values)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                samples.append(PairedSample(a, b, Metric.ACC,
                                            tuple(values[a]), tuple(values[b])))
        rows = win_loss_ranking([compare_pair(s, 0.05) for s in samples])
        assert rows[0].method == "best"
        assert rows[-1].method == "worst"
        assert rows[0].net > 0

    def test_identical_methods_zero_rows(self):
        s = PairedSample("a", "b", Metric.ACC, (0.5, 0.5, 0.5), (0.5, 0.5, 0.5))
        rows = win_loss_ranking([compare_pair(s)])
        assert all(r.wins == 0 and r.losses == 0 for r in rows)

    def test_wins_balance_losses(self):
        rng = np.random.default_rng(7)
        names = ["m1", "m2", "m3", "m4"]
        data = {m: rng.uniform(0, 1, size=10) + i * 0.15
                for i, m in enumerate(names)}
        samples = []
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                samples.append(PairedSample(a, b, Metric.R2,
                                            tuple(data[a]), tuple(data[b])))
        rows = win_loss_ranking([compare_pair(s) for s in samples])
        assert sum(r.wins for r in rows) == sum(r.losses for r in rows)

    def test_planted_ordering_matches_pairwise_oracle(self):
        # recompute every pairwise decision directly and rebuild the table
        rng = np.random.default_rng(8)
        names = ["strong", "medium", "weak"]
        shifts = {"strong": 0.3, "medium": 0.15, "weak": 0.0}
        base = rng.uniform(0.2, 0.5, size=14)
        noise = {m: rng.normal(0, 0.01, size=14) for m in names}
        vals = {m: tuple(base + shifts[m] + noise[m]) for m in names}
        samples = [PairedSample(a, b, Metric.ACC, vals[a], vals[b])
                   for i, a in enumerate(names) for b in names[i + 1:]]
        rows = win_loss_ranking([compare_pair(s, 0.05) for s in samples])
        wins = {m: 0 for m in names}
        losses = {m: 0 for m in names}
        for s in samples:
            p = wilcoxon_enumeration_p(np.array(s.values_a) - np.array(s.values_b))
            if p < 0.05:
                better = s.method_a if np.median(np.array(s.values_a)
                                                 - np.array(s.values_b)) > 0 \
                    else s.method_b
                worse = s.method_b if better == s.method_a else s.method_a
                wins[better] += 1
                losses[worse] += 1
        expected = sorted(names, key=lambda m: -(wins[m] - losses[m]))
        assert [r.method for r in rows] == expected
        for r in rows:
            assert r.wins == wins[r.method]
            assert r.losses == losses[r.method]


class TestOverfitRatio:
    def test_equal_train_test_is_one(self):
        assert overfit_ratio(0.9, 0.9, OverfitKind.ACC_RATIO) == 1.0

    def test_acc_hand_value(self):
        assert overfit_ratio(1.0, 0.8, OverfitKind.ACC_RATIO) == pytest.approx(1.25, abs=1e-15)

    def test_ba_ratio(self):
        assert overfit_ratio(0.9, 0.6, OverfitKind.BA_RATIO) == pytest.approx(1.5, abs=1e-15)

    def test_nrmse_ratio_is_test_over_train(self):
        assert overfit_ratio(0.2, 0.5, OverfitKind.NRMSE_RATIO) == pytest.approx(2.5, abs=1e-15)

    def test_r2_difference(self):
        assert overfit_ratio(0.9, 0.3, OverfitKind.R2_DIFF) == pytest.approx(0.6, abs=1e-15)

    def test_zero_denominators(self):
        with pytest.raises(AnalysisError):
            overfit_ratio(1.0, 0.0, OverfitKind.ACC_RATIO)
        with pytest.raises(AnalysisError):
            overfit_ratio(0.0, 1.0, OverfitKind.NRMSE_RATIO)
