import csv
import tracemalloc

import numpy as np
import pytest

from permsel import dataset as dataset_mod
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

from oracles import load_csv_reference


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestDatasetInit:
    def test_list_target_loads(self):
        ds = Dataset(np.zeros((3, 2)), [1.0, 2.0, 3.0], Task.REGRESSION, ["a", "b"])
        assert ds.y.dtype == float and ds.y.tolist() == [1.0, 2.0, 3.0]

    def test_wrong_length_list_target(self):
        with pytest.raises(DatasetError, match="target length"):
            Dataset(np.zeros((3, 2)), [1.0, 2.0], Task.REGRESSION, ["a", "b"])

    @pytest.mark.parametrize("y", [[0.5, 1.0, 0.0], [0.0, 1.0, np.nan], [0.0, 1.0, np.inf]])
    def test_classification_target_must_be_whole(self, y):
        with pytest.raises(DatasetError, match="not a whole number"):
            Dataset(np.zeros((3, 1)), np.array(y), Task.CLASSIFICATION, ["a"], ["x", "y"])

    @pytest.mark.parametrize("X, y, names, classes, error", [
        (np.zeros((0, 2)), [], ["a", "b"], None, "2-D with at least one row"),
        (np.zeros(3), [1.0, 2.0, 3.0], ["a"], None, "2-D with at least one row"),
        (np.zeros((3, 2)), [1.0, 2.0, 3.0], ["a"], None, "feature_names length"),
        (np.zeros((3, 1)), [0, 0, 0], ["a"], ["x"], "at least two classes"),
        (np.zeros((3, 1)), [0, 1, 2], ["a"], ["x", "y"], "class index outside"),
    ], ids=["no_rows", "one_dim", "name_count", "one_class", "class_index"])
    def test_bad_arguments_rejected(self, X, y, names, classes, error):
        task = Task.REGRESSION if classes is None else Task.CLASSIFICATION
        with pytest.raises(DatasetError, match=error):
            Dataset(X, np.array(y), task, names, classes)

    def test_whole_float_classes_load(self):
        ds = Dataset(np.zeros((3, 1)), np.array([1.0, 0.0, 1.0]), Task.CLASSIFICATION,
                     ["a"], ["x", "y"])
        assert ds.y.dtype == np.int64 and ds.y.tolist() == [1, 0, 1]


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

    def test_non_numeric_target_names_its_row(self, tmp_path):
        p = _write(tmp_path, "a,b,target\n1,2,3.5\n4,5,oops\n")
        with pytest.raises(NonNumericValueError) as err:
            load_csv(p, Task.REGRESSION)
        assert (err.value.row, err.value.col, err.value.value) == (3, 3, "oops")

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


def _repr_floats_csv():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((6, 3)) * 10.0 ** rng.integers(-8, 8, size=(6, 3))
    lines = ["a,b,c,t"] + [",".join(repr(float(v)) for v in row) + f",{i / 3!r}"
                           for i, row in enumerate(X)]
    return "\n".join(lines) + "\n"


# (text, task, target_col); every case loads, or fails, the same way
# through load_csv and load_csv_reference
REG, CLS = Task.REGRESSION, Task.CLASSIFICATION
LOADER_CORPUS = {
    "repr_floats": (_repr_floats_csv(), REG, None),
    "quoted_numbers": ('a,b,t\n"1.5","-2",3\n4,"5e1","6"\n', REG, None),
    "space_padded": ("a,b,t\n 1.5 ,\t2 , 3 \n4,5,6\n", REG, None),
    "nbsp_padded": ("a,t\n\u00a01.5\u00a0,1\n2,2\n", REG, None),
    "underscore": ("a,t\n1_0,1\n2,2_5\n", REG, None),
    "exponent": ("a,t\n1e-3,1E+2\n-2.5e10,3\n", REG, None),
    "crlf": ("a,b,t\r\n1,2,3\r\n4,5,6\r\n", REG, None),
    "blank_line": ("a,t\n1,2\n\n3,4\n", REG, None),
    "hash_line": ("a,t\n# note\n1,2\n", REG, None),
    "hash_cell": ("a,t\n1,2\n#,3\n", REG, None),
    "short_row": ("a,b,t\n1,2,3\n1,2\n", REG, None),
    "long_row": ("a,b,t\n1,2,3,4\n", REG, None),
    "empty_feature": ("a,b,t\n1,2,3\n4,,6\n", REG, None),
    "blank_feature": ("a,b,t\n1,  ,3\n", REG, None),
    "empty_target": ("a,b,t\n1,2,3\n4,5,\n", REG, None),
    "empty_label": ("a,t\n1,x\n2, \n", CLS, None),
    "non_numeric_feature": ("a,b,t\n1,2,3\n4,x5,6\n", REG, None),
    "feature_error_before_target_error": ("a,t\n1,2\n3,bad\n,5\n", REG, None),
    "feature_after_target": ("a,t,b\n1,2,x\n", REG, 1),
    "empty_target_after_features": ("a,t,b\n1,,x\n", REG, 1),
    "non_finite": ("a,t\n1,2\ninf,3\n", REG, None),
    "nan_target": ("a,t\n1,2\n2,nan\n", REG, None),
    "target_col_0": ("t,a,b\n1,2,3\n4,5,6\n", REG, 0),
    "target_col_middle": ("a,t,b\n1,2,3\n4,5,6\n", CLS, 1),
    "target_col_out_of_range": ("a,t\n1,2\n", REG, 2),
    "target_col_negative": ("a,t\n1,2\n", REG, -1),
    "labels": ("x,y,label\n1,2,b\n2,3, a \n3,4,b\n4,5,c\n", CLS, None),
    "numeric_labels": ("x,label\n1,2\n2,1.0\n3,2\n", CLS, None),
    "many_labels": ("x,label\n" + "".join(f"{i},{c}\n" for i, c in
                                          enumerate("hchagcbedfaibgh")), CLS, None),
    "single_class": ("a,label\n1,x\n2,x\n", CLS, None),
    "header_only": ("a,t\n", REG, None),
    "empty_file": ("", REG, None),
    "one_column_no_rows": ("t\n", REG, None),
    "one_column_with_rows": ("t\n1\n2\n", REG, None),
    "one_column_bad_rows": ("t\n1,2\n", CLS, None),
    "whitespace_line": ("a,t\n1,2\n \t\n3,4\n", REG, None),
    "trailing_comma": ("a,b,t\n1,2,3\n4,5,6,\n", REG, None),
    "cr_line_endings": ("a,b,t\r1,2,3\r4,5,6\r", REG, None),
    "no_final_newline": ("a,b,t\n1,2,3\n4,5,6", REG, None),
    "bom_header": ("\ufeffa,t\n1,x\n2,y\n", CLS, None),
    "quoted_label": ('x,label\n1,a\n2,"b"\n3,a\n', CLS, None),
    "long_row_middle_label": ("a,t,b\n1,x,2\n3,y,4,5\n", CLS, 1),
    "underscore_later_row": ("a,t\n1,2\n1_0,3\n", REG, None),
    "unicode_digits_later_row": ("a,t\n1,2\n\u0661\u0662.5,3\n", REG, None),
    "cr_inside_row": ("a,t\n1,2\n3\r,4\n", REG, None),
    "cr_splits_row": ("a,t\n1,2\r3,4\n", REG, None),
    "cr_before_crlf": ("a,t\n1,2\r\r\n3,4\n", REG, None),
    "cr_in_header": ("a\r,t\n1,2\n", REG, None),
    "crlf_no_final_newline": ("a,t\r\n1,x\r\n2,y", CLS, None),
    "utf8_labels": ("x,label\n1,\u00e9\n2,b\n3,\u00e9 \n", CLS, None),
    "quoted_last_row": ('x,t\n1,2\n3,"4"\n', REG, None),
}


class TestLoadCsvMatchesReference:
    @pytest.mark.parametrize("case", sorted(LOADER_CORPUS))
    def test_same_result_or_error(self, tmp_path, case):
        text, task, target_col = LOADER_CORPUS[case]
        p = tmp_path / "case.csv"
        p.write_bytes(text.encode("utf-8"))
        try:
            want = load_csv_reference(p, task, target_col)
        except DatasetError as exc:
            with pytest.raises(type(exc)) as err:
                load_csv(p, task, target_col)
            assert type(err.value) is type(exc)
            assert str(err.value) == str(exc)
            return
        got = load_csv(p, task, target_col)
        assert got.X.dtype == want.X.dtype and got.X.shape == want.X.shape
        assert got.X.tobytes() == want.X.tobytes()
        assert got.y.dtype == want.y.dtype
        assert got.y.tobytes() == want.y.tobytes()
        assert got.task is want.task
        assert got.feature_names == want.feature_names
        assert got.target_name == want.target_name
        assert got.class_names == want.class_names

    def test_non_numeric_target_differs_only_in_row(self, tmp_path):
        p = _write(tmp_path, "a,t\n1,2\n2,x\n")
        with pytest.raises(NonNumericValueError) as want:
            load_csv_reference(p, Task.REGRESSION)
        with pytest.raises(NonNumericValueError) as got:
            load_csv(p, Task.REGRESSION)
        assert (want.value.row, got.value.row) == (0, 3)
        assert (got.value.col, got.value.value) == (want.value.col, want.value.value)


class TestLoadCsvPaths:
    @pytest.fixture
    def loop_raises(self, monkeypatch):
        class Streamed(Exception):
            pass

        def boom(*args):
            raise Streamed
        monkeypatch.setattr(dataset_mod, "_read_rows", boom)
        return Streamed

    def test_plain_csv_skips_the_loop(self, tmp_path, loop_raises):
        p = _write(tmp_path, "a,t,b\n1.5, x ,-2\n3e2,y,4\n")
        ds = load_csv(p, Task.CLASSIFICATION, target_col=1)
        assert ds.X.tolist() == [[1.5, -2.0], [300.0, 4.0]]
        assert ds.class_names == ["x", "y"]

    def test_quoted_csv_takes_the_loop(self, tmp_path, loop_raises):
        p = _write(tmp_path, 'a,t\n1,2\n"3",4\n')
        with pytest.raises(loop_raises):
            load_csv(p, Task.REGRESSION)

    def test_late_quote_never_reaches_the_parser(self, tmp_path, monkeypatch):
        # every row is checked before the C parser reads any, so a quoted
        # label on the last row sends the whole file to the loop alone
        def parser(*args, **kwargs):
            raise AssertionError("the C parser ran")
        monkeypatch.setattr(np, "loadtxt", parser)
        p = _write(tmp_path, "x,label\n" + "".join(f"{i}.5,a\n" for i in range(50))
                   + '50,"b"\n')
        ds = load_csv(p, Task.CLASSIFICATION)
        want = load_csv_reference(p, Task.CLASSIFICATION)
        assert ds.X.tobytes() == want.X.tobytes()
        assert ds.y.tolist() == want.y.tolist() and ds.class_names == ["a", "b"]

    def test_long_lines_of_short_cells_skip_the_loop(self, tmp_path, loop_raises):
        # every line is over the csv field limit, but no cell is
        X = np.random.default_rng(2).standard_normal((3, 8000))
        p = _write(tmp_path, "\n".join(
            [",".join(f"f{j}" for j in range(8000)) + ",t"]
            + [",".join(map(repr, row.tolist())) + f",{i}" for i, row in enumerate(X)]))
        assert len(p.read_text().splitlines()[1]) > csv.field_size_limit()
        ds = load_csv(p, Task.REGRESSION)
        assert ds.X.tobytes() == X.tobytes()

    def test_cell_size_limit_holds_on_every_row(self, tmp_path):
        # cells of 1-12 characters against a limit of 8: a row with a
        # longer cell fails as in csv, wherever the cell is in the line
        rng = np.random.default_rng(4)
        old = csv.field_size_limit(8)
        try:
            for trial in range(60):
                cells = ["1" * int(n) for n in rng.integers(1, 10 + trial % 4, size=12)]
                rows = [",".join(cells[i:i + 4]) for i in range(0, 12, 4)]
                p = _write(tmp_path, "a,b,c,t\n" + "\n".join(rows) + "\n")
                if max(map(len, cells)) > 8:
                    with pytest.raises(DatasetError, match=r"field limit \(8\)"):
                        load_csv(p, Task.REGRESSION)
                else:
                    want = load_csv_reference(p, Task.REGRESSION)
                    assert load_csv(p, Task.REGRESSION).X.tobytes() == want.X.tobytes()
        finally:
            csv.field_size_limit(old)


class TestLoadCsvMemory:
    def test_peak_is_a_small_multiple_of_the_matrix(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((200, 2000))
        names = [f"f{i}" for i in range(2000)]
        path = tmp_path / "wide.csv"
        write_csv(Dataset(X, rng.standard_normal(200), Task.REGRESSION, names), path)
        tracemalloc.start()
        try:
            ds = load_csv(path, Task.REGRESSION)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(ds.X, X)
        assert peak <= 4 * ds.X.nbytes, f"peak {peak / ds.X.nbytes:.1f}x X.nbytes"


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

    def test_rows_with_features_is_one_gather(self, small_regression):
        ds = small_regression
        ds.row_access_log = set()
        view = ds.rows(np.array([5, 0, 3]), np.array([1, 4]))
        assert ds.row_access_log == {0, 3, 5}
        assert np.array_equal(view.X, ds.X[[5, 0, 3]][:, [1, 4]])
        assert view.X.flags["C_CONTIGUOUS"] and view.X.base is None
        assert np.array_equal(view.y, ds.y[[5, 0, 3]])
