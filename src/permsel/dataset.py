"""Tabular dataset loading, partitioning, and synthetic generation.

Datasets are immutable after load: the feature matrix and target vector
are never written to by any operation here. Row subsets are handed out
as fresh ``RowView`` objects, so concurrent evaluations never contend on
shared state.
"""

from __future__ import annotations

import csv
import enum
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (
    DatasetError,
    EmptyDataError,
    MissingValueError,
    NonNumericValueError,
    SingleClassError,
    is_int,
    is_number,
    require,
)


class Task(enum.Enum):
    CLASSIFICATION = "classification"
    REGRESSION = "regression"


class RowView:
    """Rows of a dataset: feature matrix ``X`` (m rows) plus target ``y``.
    A ``Dataset`` is the row view of all its rows."""

    __slots__ = ("X", "y", "task", "class_count")

    def __init__(self, X: np.ndarray, y: np.ndarray, task: Task,
                 class_count: int | None = None):
        self.X = X
        self.y = y
        self.task = task
        self.class_count = class_count

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


class Dataset(RowView):
    """Numeric tabular data with one target column: the row view of all
    its rows, plus the names of its features, target and classes.

    Classification targets are stored as indices 0..q-1 in order of first
    appearance; the original labels are kept in ``class_names``. When
    ``row_access_log`` is set to a ``set``, every ``rows()`` call records
    the indices it touched, which lets tests assert that held-out rows
    were never visible to a selection method.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, task: Task,
                 feature_names: list[str], class_names: list[str] | None = None,
                 target_name: str = "target"):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise DatasetError("feature matrix must be 2-D with at least one row and column")
        if not np.isfinite(X).all():
            raise DatasetError("feature matrix contains non-finite values")
        if len(feature_names) != X.shape[1]:
            raise DatasetError("feature_names length does not match column count")
        y = np.asarray(y)
        if y.shape != (X.shape[0],):
            raise DatasetError("target length does not match row count")
        if task is Task.CLASSIFICATION:
            if y.dtype.kind == "f" and not (np.isfinite(y) & (y == np.trunc(y))).all():
                raise DatasetError(
                    "classification target holds a value that is not a whole number")
            y = np.asarray(y, dtype=np.int64)
            if class_names is None or len(class_names) < 2:
                raise SingleClassError("classification needs at least two classes")
            if y.min() < 0 or y.max() >= len(class_names):
                raise DatasetError("class index outside [0, class_count)")
        else:
            y = np.asarray(y, dtype=float)
            if not np.isfinite(y).all():
                raise DatasetError("regression target contains non-finite values")
        super().__init__(X, y, task, len(class_names) if class_names is not None else None)
        self.feature_names = list(feature_names)
        self.class_names = list(class_names) if class_names is not None else None
        self.target_name = target_name
        self.row_access_log: set[int] | None = None

    def rows(self, indices, features=None) -> RowView:
        """Copy the given rows, restricted to ``features`` when given, into
        a RowView with one fancy index; logs access if enabled."""
        idx = np.asarray(indices, dtype=np.int64)
        if self.row_access_log is not None:
            self.row_access_log.update(int(i) for i in idx)
        X = self.X[idx] if features is None else self.X[np.ix_(idx, features)]
        return RowView(X, self.y[idx], self.task, self.class_count)


@dataclass(frozen=True)
class Partition:
    """Disjoint covering row-index sets: 60% train, 20% validation, 20% test."""

    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray

    @property
    def train_val_idx(self) -> np.ndarray:
        """Union of train and validation indices, in stored order."""
        return np.concatenate([self.train_idx, self.val_idx])


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic linear regression dataset."""

    n_instances: int
    n_features: int
    n_informative: int
    noise: float
    seed: int = 0

    def validate(self, where: str = ""):
        """Raise for a value of the wrong type or range; ``where`` prefixes
        the key names in the message."""
        for name, low in (("n_instances", 1), ("n_features", 1),
                          ("n_informative", 1), ("seed", 0)):
            value = getattr(self, name)
            require(is_int(value) and value >= low, where + name,
                    f"an integer >= {low}", value, DatasetError)
        require(self.n_informative <= self.n_features, f"{where}n_informative",
                "in [1, n_features]", self.n_informative, DatasetError)
        require(is_number(self.noise) and self.noise >= 0, f"{where}noise",
                "a nonnegative number", self.noise, DatasetError)


def load_csv(path, task: Task, target_col: int | None = None) -> Dataset:
    """Load a headered CSV into a Dataset.

    The target column defaults to the last one. The header and the first
    data row are read with ``csv`` and checked. The data rows are then
    read by one of two paths, chosen from the input alone, which give the
    same arrays and the same errors:

    - numpy's C parser (``_read_plain``) parses the feature cells
      straight into the float64 feature matrix, keeping only the target
      cells as strings. It takes plain files only, checked row by row in
      one scan before it parses any: no quote character, one comma per
      column boundary, a non-empty target cell, no carriage return but
      one before a line's final line feed, and no cell over
      ``csv.field_size_limit()``.
    - The streaming loop (``_read_rows``) reads the file whenever a row
      is not plain or the C parser fails on it (``1_0``, Unicode digits,
      a bad cell or a byte that is not UTF-8). It parses each row's
      stripped feature cells with ``float()``, holding one row of cells
      as Python strings at a time, and is the only place a row is
      rejected.

    Feature cells must be numeric; empty cells and short or long rows
    are rejected, naming the 1-based row (the header is row 1) and
    column. Classification labels are mapped to 0..q-1 in
    first-appearance order. Regression targets are parsed after the last
    row, so a bad feature cell on any row is reported before a
    non-numeric target. A byte that is not UTF-8, or a cell over the csv
    module's size limit, raises a DatasetError naming the file.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        # readline, not iteration, so that tell() can mark the first row
        reader = _csv_rows(iter(fh.readline, ""), path)
        header = next(reader, None)
        if header is None:
            raise EmptyDataError(f"{path}: empty file")
        start = fh.tell()
        if next(reader, None) is None:
            raise EmptyDataError(f"{path}: no data rows")
        n_cols = len(header)
        if n_cols < 2:
            raise DatasetError(f"{path}: need at least one feature column and a target")
        tcol = n_cols - 1 if target_col is None else target_col
        if not (0 <= tcol < n_cols):
            raise DatasetError(f"target column {tcol} out of range")

        rows = _read_plain(path, n_cols, tcol)
        if rows is None:
            fh.seek(start)
            rows = _read_rows(_csv_rows(fh, path), n_cols, tcol)
    X, raw_targets = rows

    feature_names = header[:tcol] + header[tcol + 1:]
    target_name = header[tcol]
    if task is Task.CLASSIFICATION:
        index = {label: i for i, label in enumerate(dict.fromkeys(raw_targets))}
        if len(index) < 2:
            raise SingleClassError(f"{path}: classification target has a single class")
        y = np.array([index[label] for label in raw_targets], dtype=np.int64)
        return Dataset(X, y, task, feature_names, list(index), target_name)
    y = np.empty(len(raw_targets), dtype=float)
    for i, t in enumerate(raw_targets):
        try:
            y[i] = float(t)
        except ValueError:
            raise NonNumericValueError(i + 2, tcol + 1, t) from None
    return Dataset(X, y, task, feature_names, None, target_name)


def _read_plain(path, n_cols: int, tcol: int):
    """The feature matrix and the stripped target cells of the data rows
    of the file, read by ``np.loadtxt``; None when a row is not plain
    (see ``load_csv``) or the parser fails.

    The file is read as bytes. Every row is checked, and its target cell
    kept, in one scan before the parser reads any, so a row that is not
    plain costs a scan up to it, never a parse of the rows before it. A
    header or row holding a carriage return anywhere but before its final
    line feed is not plain either, so that a line of bytes is the line
    that ``csv`` reads. A plain row splits into the same cells under
    ``csv`` and under ``loadtxt``, which parses a cell with the same
    ``PyOS_string_to_double`` as ``float()`` or rejects it.
    """
    limit = csv.field_size_limit()
    raw_targets: list[str] = []
    with open(path, "rb") as fh:
        header = fh.readline()
        if b'"' in header or _has_stray_cr(header):
            return None
        start = fh.tell()
        for line in fh:
            if (b'"' in line or line.count(b",") != n_cols - 1 or _has_stray_cr(line)
                    or _has_long_cell(line, limit)):
                return None
            target = line.rpartition(b",")[2] if tcol == n_cols - 1 \
                else line.split(b",", tcol + 1)[tcol]
            try:
                target = target.decode("utf-8").strip()
            except UnicodeDecodeError:
                return None
            if target == "":
                return None
            raw_targets.append(target)
        fh.seek(start)
        try:
            X = np.loadtxt(fh, dtype=float, delimiter=",", comments=None,
                           quotechar=None, ndmin=2, encoding="utf-8",
                           usecols=[j for j in range(n_cols) if j != tcol])
        except ValueError:  # a cell the parser rejects, or a byte that is not UTF-8
            return None
    return X, raw_targets


def _has_stray_cr(line: bytes) -> bool:
    """Whether ``line`` holds a carriage return that does not end it
    before its line feed (where ``csv`` would see a line break)."""
    at = line.find(b"\r")
    return at >= 0 and not (at == len(line) - 2 and line.endswith(b"\n"))


def _has_long_cell(line: bytes, limit: int) -> bool:
    """Whether a comma-free run of ``line`` is over ``limit`` bytes.

    Every such run covers a nonzero multiple of ``limit``, so only the
    runs at those offsets are measured: a couple of C-level searches per
    line in place of a split. The line ending counts towards the last
    cell, and a character outside ASCII counts as its UTF-8 bytes, which
    only sends a cell near the limit (counted in characters by ``csv``)
    to the loop.
    """
    for at in range(limit, len(line), limit):
        end = line.find(b",", at)
        if (len(line) if end < 0 else end) - line.rfind(b",", 0, at) - 1 > limit:
            return True
    return False


def _read_rows(rows, n_cols: int, tcol: int):
    """The streaming loop: the feature matrix and the stripped target
    cells of ``rows``, the csv rows from the first data row on."""
    values = array("d")
    raw_targets: list[str] = []
    for line, row in enumerate(rows, start=2):
        if len(row) != n_cols:
            raise MissingValueError(line, len(row) + 1)
        target = row.pop(tcol).strip()
        try:
            values.extend(map(float, map(str.strip, row)))
        except ValueError:
            raise _cell_error(line, row, tcol) from None
        if target == "":
            raise MissingValueError(line, tcol + 1)
        raw_targets.append(target)
    X = np.frombuffer(values, dtype=float).reshape(len(raw_targets), n_cols - 1)
    return X, raw_targets


def _csv_rows(lines, path):
    """The rows of ``csv.reader``; a decoding or csv fault names the file."""
    try:
        yield from csv.reader(lines)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"{path}: {exc}") from None


def _cell_error(line: int, features: list[str], tcol: int) -> DatasetError:
    """The error for the first feature cell of a row that fails to parse;
    ``features`` is the row without its target cell."""
    for k, raw in enumerate(features):
        col = k + 1 if k < tcol else k + 2
        cell = raw.strip()
        if cell == "":
            return MissingValueError(line, col)
        try:
            float(cell)
        except ValueError:
            return NonNumericValueError(line, col, raw)
    raise AssertionError("no bad cell in a row that failed to parse")


def write_csv(dataset: Dataset, path):
    """Write a Dataset back to CSV. Floats use repr so reloads are bit-exact."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.feature_names + [dataset.target_name])
        for i in range(dataset.n_rows):
            cells = [repr(float(v)) for v in dataset.X[i]]
            if dataset.task is Task.CLASSIFICATION:
                cells.append(dataset.class_names[int(dataset.y[i])])
            else:
                cells.append(repr(float(dataset.y[i])))
            writer.writerow(cells)


def _part_sizes(s: int) -> tuple[int, int, int]:
    n_train = int(np.floor(0.6 * s + 0.5))
    n_val = int(np.floor(0.2 * s + 0.5))
    return n_train, n_val, s - n_train - n_val


def split(dataset: Dataset, seed: int, stratified: bool = False) -> Partition:
    """Partition rows into train/validation/test at 60/20/20.

    Sizes follow floor(fraction * s + 0.5) for train and validation, with
    the remainder going to test. Stratified mode (classification only)
    keeps every class within one row of its proportional share in each
    part while still hitting the global sizes exactly.
    """
    s = dataset.n_rows
    if s < 5:
        raise DatasetError("need at least 5 rows to split")
    if stratified and dataset.task is not Task.CLASSIFICATION:
        raise DatasetError("stratified split requires a classification task")
    n_train, n_val, n_test = _part_sizes(s)  # each >= 1 when s >= 5
    # an unstratified split is one group of every row
    if stratified:
        groups = [np.flatnonzero(dataset.y == c) for c in range(dataset.class_count)]
        alloc = _stratified_allocation(np.array([g.size for g in groups]), n_train, n_val)
    else:
        groups, alloc = [np.arange(s)], [(n_train, n_val, n_test)]
    rng = np.random.default_rng(seed)
    parts = [np.split(g[rng.permutation(g.size)], [a, a + b])
             for g, (a, b, _) in zip(groups, alloc)]
    return Partition(*(np.sort(np.concatenate(p)) for p in zip(*parts)))


def _stratified_allocation(counts: np.ndarray, n_train: int, n_val: int) -> np.ndarray:
    """Per-class (train, val, test) counts.

    Starts from per-class rounding of the 60/80 cumulative quotas, then
    repairs the global totals with single-row moves that are only applied
    when the donor class stays within one row of proportional in every
    part. Availability of such moves follows from the deviations summing
    to the (bounded) global rounding error; each pass moves a cut one row
    toward its total or raises.
    """
    a = np.floor(0.6 * counts + 0.5).astype(np.int64)            # train
    b = np.floor(0.8 * counts + 0.5).astype(np.int64)            # train + val
    a = np.minimum(a, b)
    quotas = np.outer(counts, (0.6, 0.2, 0.2))
    zeros = np.zeros(len(counts), dtype=np.int64)
    # the train cut, then the val/test cut, each moved until it sums to its total
    for cut, total, lo, hi, part, name in ((a, n_train, zeros, b, 0, "train"),
                                           (b, n_train + n_val, a, counts, 1, "val")):
        while delta := total - int(cut.sum()):
            step = 1 if delta > 0 else -1
            devs = np.stack((a, b - a, counts - b), 1) - quotas
            # most under-allocated class first when adding rows, last when
            # removing. numpy's default sort kind is kept on purpose: it is not
            # stable, but a stable order changes some splits and so must come
            # with re-recorded benchmark references (ROADMAP item 1b)
            for c in np.argsort(devs[:, part])[::step]:
                if lo[c] <= cut[c] + step <= hi[c]:
                    cut[c] += step
                    moved = np.array((a[c], b[c] - a[c], counts[c] - b[c])) - quotas[c]
                    if (np.abs(moved) <= 1.0 + 1e-9).all():
                        break
                    cut[c] -= step
            else:
                raise AssertionError(f"stratified allocation: no feasible {name} move")
    return np.stack((a, b - a, counts - b), 1)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Seeded synthetic regression data with a linear signal.

    The target is a linear combination of the first ``n_informative``
    columns with standard-normal coefficients; the remaining columns are
    independent noise. ``spec.noise`` scales additive Gaussian noise
    relative to the standard deviation of the noiseless signal, so 0.1
    means noise at 10% of the signal spread. The generating coefficients
    are stored on the returned dataset as ``coefficients``.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    X = rng.standard_normal((spec.n_instances, spec.n_features))
    coef = rng.standard_normal(spec.n_informative)
    signal = X[:, :spec.n_informative] @ coef
    if spec.noise > 0:
        sigma = float(signal.std())
        y = signal + rng.normal(0.0, spec.noise * sigma, size=spec.n_instances)
    else:
        y = signal
    names = [f"f{i}" for i in range(spec.n_features)]
    ds = Dataset(X, y, Task.REGRESSION, names, None, "target")
    ds.coefficients = coef
    ds.n_informative = spec.n_informative
    return ds
