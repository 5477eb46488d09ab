import numpy as np
import pytest

from permsel.dataset import (
    Dataset,
    SyntheticSpec,
    Task,
    generate_synthetic,
    load_csv,
    split,
    write_csv,
)
from permsel.errors import (
    DatasetError,
    EmptyDataError,
    MissingValueError,
    NonNumericValueError,
    SingleClassError,
)


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_regression_shape(self, tmp_path):
        p = _write(tmp_path, "a,b,t\n1,2,3\n4,5,6\n7,8,9\n0,1,2\n")
        ds = load_csv(p, Task.REGRESSION)
        assert ds.n_features == 2
        assert ds.n_rows == 4
        assert ds.feature_names == ["a", "b"]
        assert ds.target_name == "t"

    def test_first_appearance_label_mapping(self, tmp_path):
        p = _write(tmp_path, "x,label\n1,b\n2,a\n3,b\n")
        ds = load_csv(p, Task.CLASSIFICATION)
        assert ds.y.tolist() == [0, 1, 0]
        assert ds.class_names == ["b", "a"]
        assert ds.class_count == 2

    def test_missing_cell(self, tmp_path):
        p = _write(tmp_path, "a,b,t\n1,,3\n")
        with pytest.raises(MissingValueError) as err:
            load_csv(p, Task.REGRESSION)
        assert err.value.row == 2
        assert err.value.col == 2

    def test_short_row(self, tmp_path):
        p = _write(tmp_path, "a,b,t\n1,2\n")
        with pytest.raises(MissingValueError):
            load_csv(p, Task.REGRESSION)

    def test_non_numeric_feature(self, tmp_path):
        p = _write(tmp_path, "a,t\nfoo,1\n")
        with pytest.raises(NonNumericValueError):
            load_csv(p, Task.REGRESSION)

    def test_empty_file(self, tmp_path):
        p = _write(tmp_path, "")
        with pytest.raises(EmptyDataError):
            load_csv(p, Task.REGRESSION)

    def test_header_only(self, tmp_path):
        p = _write(tmp_path, "a,t\n")
        with pytest.raises(EmptyDataError):
            load_csv(p, Task.REGRESSION)

    def test_single_class_rejected(self, tmp_path):
        p = _write(tmp_path, "a,label\n1,x\n2,x\n")
        with pytest.raises(SingleClassError):
            load_csv(p, Task.CLASSIFICATION)

    def test_target_col_override(self, tmp_path):
        p = _write(tmp_path, "t,a\n1,10\n2,20\n")
        ds = load_csv(p, Task.REGRESSION, target_col=0)
        assert ds.y.tolist() == [1.0, 2.0]
        assert ds.X[:, 0].tolist() == [10.0, 20.0]

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((20, 4))
        y = rng.standard_normal(20)
        ds = Dataset(X, y, Task.REGRESSION, ["a", "b", "c", "d"])
        out = tmp_path / "round.csv"
        write_csv(ds, out)
        back = load_csv(out, Task.REGRESSION)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)

    def test_round_trip_classification(self, tmp_path):
        p = _write(tmp_path, "x,label\n1.5,b\n2.25,a\n3.0,b\n")
        ds = load_csv(p, Task.CLASSIFICATION)
        out = tmp_path / "round.csv"
        write_csv(ds, out)
        back = load_csv(out, Task.CLASSIFICATION)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)
        assert back.class_names == ds.class_names


class TestSplit:
    def test_sizes_s10(self, small_classification):
        ds = small_classification
        sub = Dataset(ds.X[:10], ds.y[:10], ds.task, ds.feature_names, ds.class_names)
        part = split(sub, seed=0)
        assert (len(part.train_idx), len(part.val_idx), len(part.test_idx)) == (6, 2, 2)

    def test_sizes_s5(self):
        X = np.arange(10.0).reshape(5, 2)
        y = np.arange(5.0)
        ds = Dataset(X, y, Task.REGRESSION, ["a", "b"])
        part = split(ds, seed=1)
        assert (len(part.train_idx), len(part.val_idx), len(part.test_idx)) == (3, 1, 1)

    def test_deterministic(self, small_regression):
        p1 = split(small_regression, seed=9)
        p2 = split(small_regression, seed=9)
        assert np.array_equal(p1.train_idx, p2.train_idx)
        assert np.array_equal(p1.val_idx, p2.val_idx)
        assert np.array_equal(p1.test_idx, p2.test_idx)

    def test_disjoint_covering_many(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            s = int(rng.integers(5, 400))
            seed = int(rng.integers(0, 2**32))
            X = np.zeros((s, 1))
            y = np.arange(float(s))
            ds = Dataset(X, y, Task.REGRESSION, ["a"])
            part = split(ds, seed=seed)
            merged = np.concatenate([part.train_idx, part.val_idx, part.test_idx])
            assert len(merged) == s
            assert len(np.unique(merged)) == s
            assert len(part.train_idx) == int(np.floor(0.6 * s + 0.5))
            assert len(part.val_idx) == int(np.floor(0.2 * s + 0.5))

    def test_merged_is_train_plus_val(self, small_regression):
        part = split(small_regression, seed=4)
        merged = set(part.train_val_idx.tolist())
        assert merged == set(part.train_idx.tolist()) | set(part.val_idx.tolist())

    def test_too_small(self):
        ds = Dataset(np.zeros((4, 1)), np.arange(4.0), Task.REGRESSION, ["a"])
        with pytest.raises(DatasetError):
            split(ds, seed=0)

    def test_stratified_regression_rejected(self, small_regression):
        with pytest.raises(DatasetError):
            split(small_regression, seed=0, stratified=True)

    def test_wide_binary_dataset_partitions_360_120_120(self, tmp_path):
        # 600 rows x 617 features, 2 classes: the 60/20/20 rule gives
        # exactly 360/120/120
        rng = np.random.default_rng(17)
        X = rng.standard_normal((600, 617))
        y = rng.integers(0, 2, size=600)
        ds = Dataset(X, y, Task.CLASSIFICATION,
                     [f"f{i}" for i in range(617)], class_names=["a", "b"])
        path = tmp_path / "wide.csv"
        write_csv(ds, path)
        loaded = load_csv(path, Task.CLASSIFICATION)
        assert loaded.n_rows == 600
        assert loaded.n_features == 617
        assert loaded.class_count == 2
        part = split(loaded, seed=0, stratified=True)
        sizes = (len(part.train_idx), len(part.val_idx), len(part.test_idx))
        assert sizes == (360, 120, 120)

    def test_stratified_proportions(self):
        rng = np.random.default_rng(11)
        for trial in range(300):
            q = int(rng.integers(2, 6))
            counts = rng.integers(1, 40, size=q)
            s = int(counts.sum())
            if s < 5:
                continue
            y = np.repeat(np.arange(q), counts)
            rng.shuffle(y)
            X = np.zeros((s, 1))
            ds = Dataset(X, y, Task.CLASSIFICATION, ["a"],
                         class_names=[str(c) for c in range(q)])
            part = split(ds, seed=trial, stratified=True)
            assert len(part.train_idx) == int(np.floor(0.6 * s + 0.5))
            assert len(part.val_idx) == int(np.floor(0.2 * s + 0.5))
            for c in range(q):
                n_c = counts[c]
                for idx, frac in ((part.train_idx, 0.6), (part.val_idx, 0.2),
                                  (part.test_idx, 0.2)):
                    got = int(np.sum(ds.y[idx] == c))
                    assert abs(got - frac * n_c) <= 1.0 + 1e-9, \
                        f"class {c}: {got} vs {frac * n_c}"


class TestGenerateSynthetic:
    def test_shape_matches_spec(self):
        ds = generate_synthetic(SyntheticSpec(1000, 1000, 500, 0.1, seed=0))
        assert ds.n_rows == 1000
        assert ds.n_features == 1000
        assert ds.task is Task.REGRESSION

    def test_noise_zero_exact_reconstruction(self):
        ds = generate_synthetic(SyntheticSpec(50, 8, 3, 0.0, seed=2))
        rebuilt = ds.X[:, :3] @ ds.coefficients
        assert np.array_equal(rebuilt, ds.y)

    def test_noise_zero_r2_is_one(self):
        from permsel.metrics import r_squared
        ds = generate_synthetic(SyntheticSpec(60, 10, 4, 0.0, seed=3))
        assert r_squared(ds.y, ds.X[:, :4] @ ds.coefficients) == 1.0

    def test_noninformative_columns_ignored(self):
        ds = generate_synthetic(SyntheticSpec(40, 6, 2, 0.3, seed=4))
        rng = np.random.default_rng(0)
        X2 = ds.X.copy()
        X2[:, 5] = rng.permutation(X2[:, 5])
        rebuilt = X2[:, :2] @ ds.coefficients
        baseline = ds.X[:, :2] @ ds.coefficients
        assert np.array_equal(rebuilt, baseline)

    def test_spec_violations(self):
        with pytest.raises(DatasetError):
            generate_synthetic(SyntheticSpec(10, 5, 6, 0.1))
        with pytest.raises(DatasetError):
            generate_synthetic(SyntheticSpec(10, 5, 2, -0.1))


class TestAccessLog:
    def test_rows_records_indices(self, small_regression):
        ds = small_regression
        ds.row_access_log = set()
        ds.rows(np.array([0, 3, 5]))
        assert ds.row_access_log == {0, 3, 5}
