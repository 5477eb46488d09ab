"""Experiment orchestration: selection, retraining, evaluation, reports.

For every (dataset, seed) the data is split 60/20/20; each selection
method produces a feature set (subset methods) or a ranking evaluated at
several cutoffs. Models are then retrained on the merged train+validation
rows restricted to the chosen features and scored on those rows and on
the held-out test rows, which no selection method ever sees.

One (dataset, seed) cell is one unit of work: it splits the rows, runs
the subset methods and then the other methods in config order, so the
rankers can be cut at the N1/N2 cardinalities picked on the same split.
Cells share no state. They run in a thread pool only when the interpreter
runs without the GIL; under it, their many short numpy calls contend for
the lock and run slower than one after another. Results are identical for
any worker count.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import learner as learner_mod
from . import moea
from .analysis import (
    OverfitKind,
    PairedSample,
    compare_pair,
    overfit_ratio,
    win_loss_ranking,
)
from .baselines import correlation_rank, infogain_rank
from .dataset import (
    Dataset,
    Partition,
    SyntheticSpec,
    Task,
    generate_synthetic,
    load_csv,
    split,
)
from .errors import AnalysisError, PermselError, ZeroVarianceError, is_int, require
from .learner import LearnerSpec
from .metrics import Metric, accuracy, balanced_accuracy, nrmse, r_squared, rmse
from .moea import MoeaConfig, RunTrace
from .moea import evolve  # noqa: F401 (unused; perfbench wraps runner.evolve)
from .permutation import (
    EvalContext,
    FeatureScores,
    build_context,
    pfi_rank,
    select_top_k,
)

log = logging.getLogger("permsel")

SUBSET_METHODS = ("subset-v1", "subset-v2")
PFI_METHODS = ("pfi-v1", "pfi-v2")
RANKING_METHODS = PFI_METHODS + ("corr", "infogain")
ALL_FEATURES = "all"


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    task: Task
    path: str | None = None
    synthetic: SyntheticSpec | None = None

    def validate(self, where: str = ""):
        """Check the entry before any load; ``where`` prefixes key paths."""
        require(isinstance(self.name, str), f"{where}name", "a string", self.name)
        require(isinstance(self.task, Task), f"{where}task", "a Task", self.task)
        # trace files are named after the dataset
        require({os.sep, os.altsep, "\0"}.isdisjoint(self.name), f"{where}name",
                "free of path separators and NUL", self.name)
        require(self.path is None or isinstance(self.path, (str, os.PathLike)),
                f"{where}path", "a string", self.path)
        if (self.path is None) == (self.synthetic is None):
            raise PermselError(f"{where}path and {where}synthetic: give exactly one")
        if self.synthetic is not None:
            if self.task is not Task.REGRESSION:
                raise PermselError(f"{where}task must be regression for synthetic data")
            self.synthetic.validate(f"{where}synthetic.")

    def load(self) -> Dataset:
        if self.path is not None:
            return load_csv(self.path, self.task)
        return generate_synthetic(self.synthetic)


@dataclass(frozen=True)
class MethodSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def validate(self, where: str = ""):
        """Check the kind and its params; ``where`` prefixes key paths."""
        if self.kind not in SUBSET_METHODS + RANKING_METHODS + (ALL_FEATURES,):
            raise PermselError(f"unknown method kind {self.kind!r}")
        if self.kind in SUBSET_METHODS:  # seed and variant come from the cell
            names = {f.name for f in fields(MoeaConfig)} - {"seed", "variant"}
        else:
            names = {"pfi-v1": {"repeats"}, "pfi-v2": {"repeats"},
                     "infogain": {"bins"}}.get(self.kind, set())
        _check_keys(self.params, names, (), where)
        if self.kind in SUBSET_METHODS:
            self.moea_config().validate(where)
        for name, low in (("repeats", 1), ("bins", 2)):
            value = self.params.get(name, low)
            require(is_int(value) and value >= low, where + name,
                    f"an integer >= {low}", value)

    def moea_config(self, seed: int = 0) -> MoeaConfig:
        """The search configuration of a subset kind: its params, this
        seed and its variant; a param that names no field is ignored."""
        return _from_entries(MoeaConfig, self.params, seed=seed, variant=self.variant)

    @property
    def variant(self) -> str:
        """"v1" or "v2" for the subset and PFI kinds."""
        return self.kind.rpartition("-")[2]


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: list[DatasetSpec]
    methods: list[MethodSpec]
    seeds: list[int] = field(default_factory=lambda: list(range(10)))
    k_values: list = field(default_factory=lambda: [10, 100, "N1", "N2"])
    learner: LearnerSpec = field(default_factory=LearnerSpec)
    output_dir: str | None = None
    stratified: bool = True
    workers: int = 1

    def validate(self):
        """Check every value before any dataset loads; a bad one raises,
        naming its key."""
        require(is_int(self.workers) and self.workers >= 1, "workers",
                "an integer >= 1", self.workers)
        require(isinstance(self.seeds, (list, tuple))
                and all(is_int(s) and s >= 0 for s in self.seeds),
                "seeds", "a list of integers >= 0", self.seeds)
        require(isinstance(self.k_values, (list, tuple))
                and all(is_int(k) and k >= 1 or k in ("N1", "N2") for k in self.k_values),
                "k_values", "a list of integers >= 1, 'N1' or 'N2'", self.k_values)
        for name, values in (("seeds", self.seeds), ("k_values", self.k_values)):
            if len(set(values)) < len(values):  # rows are keyed by them
                raise PermselError(f"{name} must not repeat, got {values!r}")
        require(isinstance(self.stratified, bool), "stratified", "true or false",
                self.stratified)
        require(self.output_dir is None or isinstance(self.output_dir, (str, os.PathLike)),
                "output_dir", "null or a path", self.output_dir)
        if not self.datasets or not self.methods or not self.seeds:
            raise PermselError("need at least one dataset, method, and seed")
        for i, d in enumerate(self.datasets):
            d.validate(f"datasets[{i}].")
            if d.name in (e.name for e in self.datasets[:i]):
                # rows and trace files are keyed by dataset name
                raise PermselError(f"dataset name {d.name!r} given more than once")
        self.learner.validate("learner.")
        for i, m in enumerate(self.methods):
            m.validate(f"methods[{i}].")
            if m.kind in (e.kind for e in self.methods[:i]):
                # rows, trace files and summary entries are keyed by kind
                raise PermselError(f"method kind {m.kind!r} given more than once")
        kinds = {m.kind for m in self.methods}
        if kinds & set(RANKING_METHODS):  # else a ranker would write no rows
            require(any(is_int(k) or f"subset-v{k[1]}" in kinds for k in self.k_values),
                    "k_values", "a list holding an integer, or an 'N1' or 'N2' whose "
                    "subset method is configured, when a ranking method is", self.k_values)
        if "infogain" in kinds:
            for d in self.datasets:
                if d.task is Task.REGRESSION:
                    raise PermselError(f"infogain needs classification data; "
                                       f"dataset {d.name} is regression")


@dataclass
class ReportRow:
    dataset: str
    task: str
    method: str
    k_label: str
    seed: int
    selected_count: int | None = None
    acc_train: float | None = None
    ba_train: float | None = None
    rmse_train: float | None = None
    nrmse_train: float | None = None
    r2_train: float | None = None
    acc_test: float | None = None
    ba_test: float | None = None
    rmse_test: float | None = None
    nrmse_test: float | None = None
    r2_test: float | None = None
    runtime_seconds: float | None = None
    status: str = "ok"
    error: str = ""


REPORT_COLUMNS = [f.name for f in fields(ReportRow)]
# column -> (cell type, empty cell means None), from the field types
_COLUMN_KINDS = {
    f.name: ({"str": str, "int": int, "float": float}[f.type.split(" | ")[0]],
             f.type.endswith(" | None"))
    for f in fields(ReportRow)}


@dataclass
class SelectionResult:
    runtime_seconds: float
    features: np.ndarray | None = None        # subset methods
    scores: FeatureScores | None = None       # ranking methods
    trace: RunTrace | None = None


def run_selection(dataset: Dataset, partition: Partition, method: MethodSpec,
                  seed: int, learner_spec: LearnerSpec,
                  contexts: dict[str, tuple[EvalContext, float]] | None = None
                  ) -> SelectionResult:
    """Execute one selection method for one (dataset, seed) cell.

    Only train/validation rows are read; the test rows stay untouched.
    The subset and PFI kinds score against the forest of their variant,
    fitted with ``learner_spec`` as given, seed included, and taken from
    ``contexts`` (variant -> context and the seconds its fit took, filled
    here when missing) so that the methods of one cell fit it once; a map
    must not outlive its cell. The fit seconds count in the runtime of
    every method that uses the context.
    """
    p = method.params
    if method.kind == ALL_FEATURES:
        return SelectionResult(0.0, features=np.arange(dataset.n_features))
    if method.kind in SUBSET_METHODS:
        cfg = method.moea_config(seed)
        cfg.validate()  # before the fit
    fit_s = 0.0
    if method.kind in SUBSET_METHODS + PFI_METHODS:
        contexts = {} if contexts is None else contexts
        if method.variant not in contexts:
            t0 = time.perf_counter()
            ctx = build_context(dataset, partition, method.variant, learner_spec)
            contexts[method.variant] = (ctx, time.perf_counter() - t0)
        ctx, fit_s = contexts[method.variant]
    features = scores = trace = None
    t0 = time.perf_counter()
    if method.kind in SUBSET_METHODS:
        trace = moea.evolve_on_context(ctx, cfg)
        features = trace.selected_features()
        if trace.best.merit == 0:  # every front member has merit 0
            n = ctx.eval_rows.n_rows
            raise PermselError(f"{method.kind} found no subset with nonzero merit "
                               f"on {n} evaluation row{'' if n == 1 else 's'}")
    elif method.kind in PFI_METHODS:
        scores = pfi_rank(ctx, rng=np.random.default_rng([seed, 3]), **p)
    elif method.kind == "corr":
        scores = correlation_rank(dataset.rows(partition.train_val_idx))
    elif method.kind == "infogain":
        scores = infogain_rank(dataset.rows(partition.train_val_idx), **p)
    else:
        raise PermselError(f"unknown method kind {method.kind!r}")
    return SelectionResult(fit_s + time.perf_counter() - t0, features, scores, trace)


def evaluate_subset(dataset: Dataset, partition: Partition, features,
                    learner_spec: LearnerSpec, seed: int, *,
                    model=None) -> dict[str, float | None]:
    """Retrain on train+validation restricted to the features; score both
    that set and the held-out test set. R2 is None on a set whose target
    is constant, where it is undefined. A ``model`` already fitted with
    this learner and seed on exactly those rows and features is used
    instead of the retrain."""
    features = np.asarray(sorted(features), dtype=np.int64)
    if features.size == 0:
        raise PermselError("cannot evaluate an empty feature set")
    fit_rows = dataset.rows(partition.train_val_idx, features)
    test_rows = dataset.rows(partition.test_idx, features)
    if model is None:
        model = learner_mod.fit(replace(learner_spec, seed=seed), fit_rows)
    out: dict[str, float | None] = {}
    for side, rows in (("train", fit_rows), ("test", test_rows)):
        pred = model.predict(rows.X)
        if dataset.task is Task.CLASSIFICATION:
            scores = {"acc": accuracy(rows.y, pred),
                      "ba": balanced_accuracy(rows.y, pred, dataset.class_count)}
        else:
            error = rmse(rows.y, pred)
            # one range per dataset keeps nRMSE comparable
            scores = {"rmse": error, "nrmse": nrmse(error, dataset.y),
                      "r2": _r2_or_none(rows.y, pred)}
        out.update({f"{metric}_{side}": v for metric, v in scores.items()})
    return out


def _r2_or_none(y, yhat) -> float | None:
    try:
        return r_squared(y, yhat)
    except ZeroVarianceError:
        return None


def _clamp_k(k: int, width: int, method: str) -> int:
    if k > width:
        log.warning("k=%d exceeds feature count %d for %s; clamping", k, width, method)
        return width
    return k


def _cell_rows(dataset_spec: DatasetSpec, dataset: Dataset, seed: int,
               cfg: ExperimentConfig
               ) -> tuple[list[ReportRow], dict[tuple[str, str, int], RunTrace]]:
    """All report rows and traces of one (dataset, seed) cell.

    The subset methods run first, so that the rankers can be cut at the
    N1/N2 cardinalities they picked on the same split. Then every pick
    that has no forest yet is retrained in one ``fit_forests`` call, and
    each is scored by ``evaluate_subset`` on its forest. A failing method
    gives an error row, and the other methods of the cell still run; a
    fault of the shared fit fails every method that waited on it.
    """
    name, task = dataset_spec.name, dataset_spec.task.value
    partition = split(dataset, seed,
                      cfg.stratified and dataset.task is Task.CLASSIFICATION)
    learner = replace(cfg.learner, seed=seed)  # every forest of the cell
    counts: dict[str, int] = {}   # subset kind -> selected feature count
    rows: list[ReportRow] = []
    traces: dict[tuple[str, str, int], RunTrace] = {}
    contexts: dict[str, tuple[EvalContext, float]] = {}  # variant -> context
    # (method, selection, picks) of each method that selected; a pick is
    # [label, sorted features, forest], the forest None until it is fitted
    selected: list[tuple[MethodSpec, SelectionResult, list[list]]] = []

    def fail(method, exc):  # in an except block: keep the cell alive, record it
        log.exception("method failed: %s / %s / seed %d", name, method.kind, seed)
        rows.append(ReportRow(name, task, method.kind, "-", seed,
                              status="error", error=str(exc)))

    for method in sorted(cfg.methods, key=lambda m: m.kind not in SUBSET_METHODS):
        try:
            sel = run_selection(dataset, partition, method, seed, learner, contexts)
            picks = []
            if sel.features is not None:
                label = "all" if method.kind == ALL_FEATURES else "subset"
                picks.append((label, sel.features))
            else:
                for k_value in cfg.k_values:
                    if isinstance(k_value, str):
                        source = f"subset-v{k_value[1]}"  # N1 or N2
                        if source not in counts:
                            log.info("skipping k=%s for %s on %s seed %d: no %s run",
                                     k_value, method.kind, name, seed, source)
                            continue
                        k = counts[source]
                    else:
                        k = k_value
                    k = _clamp_k(k, dataset.n_features, method.kind)
                    picks.append((str(k_value), select_top_k(sel.scores, k)))
            # every feature on the train+validation rows: the v2 forest
            model = contexts["v2"][0].model \
                if method.kind == ALL_FEATURES and "v2" in contexts else None
            if model is None:  # a pick the shared fit cannot draw from fails here
                for _, features in picks:
                    learner.resolve_max_features(features.size, dataset.task)
        except Exception as exc:
            fail(method, exc)
            continue
        if method.kind in SUBSET_METHODS:
            counts[method.kind] = int(picks[0][1].size)
        selected.append((method, sel, [[label, np.sort(features), model]
                                       for label, features in picks]))

    pending = [pick for _, _, picks in selected for pick in picks if pick[2] is None]
    if pending:
        union = np.unique(np.concatenate([features for _, features, _ in pending]))
        try:
            models = learner_mod.fit_forests(
                learner, dataset.rows(partition.train_val_idx, union),
                [np.searchsorted(union, features) for _, features, _ in pending])
        except Exception as exc:
            for method, _, picks in selected:
                if any(pick[2] is None for pick in picks):
                    fail(method, exc)
            selected = [entry for entry in selected
                        if all(pick[2] is not None for pick in entry[2])]
        else:
            for pick, model in zip(pending, models):
                pick[2] = model

    for method, sel, picks in selected:
        try:
            method_rows = [
                ReportRow(name, task, method.kind, label, seed,
                          selected_count=int(features.size),
                          runtime_seconds=sel.runtime_seconds,
                          **evaluate_subset(dataset, partition, features, learner,
                                            seed, model=model))
                for label, features, model in picks]
        except Exception as exc:
            fail(method, exc)
            continue
        rows.extend(method_rows)
        if sel.trace is not None:
            traces[(name, method.kind, seed)] = sel.trace
    return rows, traces


def run_experiment(cfg: ExperimentConfig) -> list[ReportRow]:
    """Run the full protocol; returns all report rows, sorted canonically.

    Each (dataset, seed) cell is one task. With ``cfg.workers`` above 1
    on an interpreter whose GIL is off, up to that many cells run at once
    in a thread pool; otherwise they run in the calling thread in job
    order. When ``cfg.output_dir`` is set, reports, traces, and summary
    tables are written beneath it.
    """
    cfg.validate()
    datasets = [(spec, spec.load()) for spec in cfg.datasets]
    jobs = [(spec, ds, seed) for spec, ds in datasets for seed in cfg.seeds]
    if cfg.workers > 1 and not _gil_enabled():
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(lambda job: _cell_rows(*job, cfg), jobs))
    else:
        results = [_cell_rows(*job, cfg) for job in jobs]
    rows: list[ReportRow] = []
    traces: dict[tuple[str, str, int], RunTrace] = {}
    for cell_rows, cell_traces in results:
        rows.extend(cell_rows)
        traces.update(cell_traces)
    rows.sort(key=lambda r: (r.dataset, r.method, r.k_label, r.seed))
    if cfg.output_dir is not None:
        write_outputs(cfg.output_dir, rows, traces)
    return rows


def _gil_enabled() -> bool:
    """Whether the GIL is on now. A free-threaded build can turn it back
    on at run time (an extension that needs it), so ask at each call."""
    return getattr(sys, "_is_gil_enabled", lambda: True)()


def write_outputs(output_dir, rows: list[ReportRow],
                  traces: dict[tuple[str, str, int], RunTrace]):
    reports_dir = os.path.join(output_dir, "reports")
    traces_dir = os.path.join(output_dir, "traces")
    os.makedirs(reports_dir, exist_ok=True)
    os.makedirs(traces_dir, exist_ok=True)
    write_report_csv(os.path.join(reports_dir, "report.csv"), rows)
    for (ds, method, seed), trace in sorted(traces.items()):
        path = os.path.join(traces_dir, f"{ds}__{method}__seed{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trace.to_json_dict(), fh, indent=1)
    tables = aggregate(rows)
    write_summary(os.path.join(output_dir, "summary"), tables)


def write_report_csv(path, rows: list[ReportRow]):
    _write_table(path, map(vars, rows), REPORT_COLUMNS)


def _write_table(path, records, columns: list[str]):
    """A CSV file of the ``columns`` of each record (a dict), one line
    each, under a header line; a missing value is an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_fmt(rec.get(c)) for c in columns])


def read_report_csv(path) -> list[ReportRow]:
    """The rows of a report CSV. A missing column, a short row, a cell of
    the wrong type or an unknown task raises, naming file, line and column."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            return _report_rows(csv.DictReader(fh), path)
        except (UnicodeDecodeError, csv.Error) as exc:  # as load_csv's _csv_rows
            raise PermselError(f"{path}: {exc}") from None


def _report_rows(reader: csv.DictReader, path) -> list[ReportRow]:
    rows = []
    for col in REPORT_COLUMNS:
        if col not in (reader.fieldnames or ()):
            raise PermselError(f"{path}: line 1: no column {col!r}")
    for rec in reader:
        where = f"{path}: line {reader.line_num}"
        kwargs = {}
        for col, (kind, nullable) in _COLUMN_KINDS.items():
            v = rec[col]
            if v is None:  # a short row
                raise PermselError(f"{where}: no cell for column {col!r}")
            if nullable and v == "":
                kwargs[col] = None
                continue
            try:
                kwargs[col] = kind(v)
            except ValueError:
                raise PermselError(f"{where}: column {col!r}: {v!r} is not "
                                   f"a valid {kind.__name__}") from None
        require(kwargs["task"] in _SUMMARY_METRICS, f"{where}: column 'task'",
                "'classification' or 'regression'", kwargs["task"])
        rows.append(ReportRow(**kwargs))
    return rows


def _entry_label(method: str, k_label: str) -> str:
    return method if k_label in ("subset", "all") else f"{method}(k={k_label})"


# task -> [(test-set metric, its overfitting measure)]; metric.value is the column stem
_SUMMARY_METRICS = {
    "classification": [(Metric.ACC, OverfitKind.ACC_RATIO),
                       (Metric.BA, OverfitKind.BA_RATIO)],
    "regression": [(Metric.NRMSE, OverfitKind.NRMSE_RATIO),
                   (Metric.R2, OverfitKind.R2_DIFF)],
}


def aggregate(rows: list[ReportRow]) -> dict[str, list[dict]]:
    """The summary tables, keyed by file stem: per-entry means,
    overfitting measures, win/loss rankings with pairwise tests on
    test-set metrics, and ranked mean runtimes. Each table is its rows,
    and each row's keys are its columns, in order."""
    ok = [r for r in rows if r.status == "ok"]
    groups: dict[tuple[str, str, str], list[ReportRow]] = {}
    for r in ok:
        groups.setdefault((r.task, r.method, r.k_label), []).append(r)
    groups = dict(sorted(groups.items()))
    tables: dict[str, list[dict]] = {}

    # means.csv has its mean columns in name order
    numeric = sorted(c for c, (_, nullable) in _COLUMN_KINDS.items() if nullable)
    for (task, method, k_label), sub in groups.items():
        rec = {"task": task, "method": method, "k_label": k_label,
               "entry": _entry_label(method, k_label), "n_rows": len(sub)}
        counts = [r.selected_count for r in sub if r.selected_count is not None]
        rec["median_selected_count"] = float(np.median(counts)) if counts else None
        for col in numeric:
            vals = [getattr(r, col) for r in sub if getattr(r, col) is not None]
            rec[f"mean_{col}"] = float(np.mean(vals)) if vals else None
        tables.setdefault("means", []).append(rec)
        over = {"task": task, "entry": rec["entry"],
                "mean_selected": rec["mean_selected_count"]}
        for metric, kind in _SUMMARY_METRICS[task]:
            train, test = (rec[f"mean_{metric.value}_{side}"] for side in ("train", "test"))
            over[kind.value] = None  # no mean, or a zero denominator: an empty cell
            if train is not None and test is not None:
                try:
                    over[kind.value] = overfit_ratio(train, test, kind)
                except AnalysisError:
                    pass
        tables.setdefault(f"overfitting_{task}", []).append(over)

    for task, metrics in _SUMMARY_METRICS.items():
        task_groups = [(_entry_label(method, k_label), sub)
                       for (t, method, k_label), sub in groups.items() if t == task]
        for metric, _ in metrics:
            col = f"{metric.value}_test"
            per_entry: dict[str, dict[str, float]] = {}  # label -> dataset -> mean
            for label, sub in task_groups:
                by_ds: dict[str, list[float]] = {}
                for r in sub:
                    if getattr(r, col) is not None:
                        by_ds.setdefault(r.dataset, []).append(getattr(r, col))
                per_entry[label] = {d: float(np.mean(v)) for d, v in by_ds.items()}
            labels = sorted(per_entry)
            outcomes = []
            for i, la in enumerate(labels):
                for lb in labels[i + 1:]:
                    shared = sorted(set(per_entry[la]) & set(per_entry[lb]))
                    if shared:
                        outcomes.append(compare_pair(PairedSample(
                            la, lb, metric, tuple(per_entry[la][d] for d in shared),
                            tuple(per_entry[lb][d] for d in shared))))
            if outcomes:
                tables[f"ranking_{col}"] = [
                    {"method": r.method, "wins": r.wins, "losses": r.losses,
                     "net": r.net} for r in win_loss_ranking(outcomes)]
                tables[f"pairwise_{col}"] = [
                    {"method_a": o.method_a, "method_b": o.method_b,
                     "p_value": o.p_value, "mean_diff": o.mean_diff,
                     "significant": o.significant,
                     "display": _fmt(o.p_value) if o.significant
                     else f"{_fmt(o.p_value)} ({_fmt(o.mean_diff)})"}
                    for o in outcomes]

    # one runtime per (dataset, seed) cell, averaged in first-seen order
    runtimes: dict[tuple[str, str], dict[tuple[str, int], float]] = {}
    for r in ok:
        if r.runtime_seconds is not None:
            runtimes.setdefault((r.task, r.method), {}).setdefault(
                (r.dataset, r.seed), r.runtime_seconds)
    for task in _SUMMARY_METRICS:  # ranked by mean, ties in method order
        means = sorted(((method, float(np.mean(list(seen.values()))))
                        for (t, method), seen in sorted(runtimes.items()) if t == task),
                       key=lambda m: m[1])
        if means:
            tables[f"runtimes_{task}"] = [
                {"task": task, "method": method, "mean_runtime_seconds": mean,
                 "rank": rank} for rank, (method, mean) in enumerate(means, start=1)]
    return tables


def write_summary(summary_dir, tables: dict[str, list[dict]]):
    """One CSV file per ``aggregate`` table, named by its stem."""
    os.makedirs(summary_dir, exist_ok=True)
    for stem, records in tables.items():
        _write_table(os.path.join(summary_dir, f"{stem}.csv"), records, list(records[0]))


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def load_config(path) -> ExperimentConfig:
    """Read an experiment configuration from JSON (schema in the README).

    A file that does not parse raises, naming it. A value of the wrong
    JSON shape, or a key that names no field, at any level, raises with
    its key path; the returned config has passed ``validate``.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise PermselError(f"{path}: {exc}") from None
    _check_fields(ExperimentConfig, raw, "")
    datasets = []
    for i, d in enumerate(_expect(raw["datasets"], list, "datasets")):
        _check_fields(DatasetSpec, d, f"datasets[{i}].")
        synth = d.get("synthetic")
        if synth is not None:
            _check_fields(SyntheticSpec, synth, f"datasets[{i}].synthetic.")
            synth = _from_entries(SyntheticSpec, synth)
        datasets.append(_from_entries(DatasetSpec, d, task=parse_task(d["task"]),
                                      synthetic=synth))
    methods = []
    for i, m in enumerate(_expect(raw["methods"], list, "methods")):
        if "kind" not in _expect(m, dict, f"methods[{i}]"):
            raise PermselError(f"missing config key 'methods[{i}].kind'")
        methods.append(MethodSpec(m["kind"],
                                  {k: v for k, v in m.items() if k != "kind"}))
    learner = _expect(raw.get("learner", {}), dict, "learner")
    # every forest of a cell is seeded with the cell's seed
    _check_keys(learner, {f.name for f in fields(LearnerSpec)} - {"seed"}, (), "learner.")
    cfg = _from_entries(ExperimentConfig, raw, datasets=datasets, methods=methods,
                        learner=_from_entries(LearnerSpec, learner))
    cfg.validate()
    return cfg


def _expect(value, kind: type, key: str):
    """``value`` if it is a JSON object (``dict``) or array (``list``);
    otherwise raise, naming the key path."""
    require(isinstance(value, kind), key, "a JSON object" if kind is dict else "a list",
            value)
    return value


def _check_keys(entries: dict, names, required, where: str):
    """Raise, naming the key path, for an entry not in ``names`` or a
    ``required`` key that is missing."""
    for key in entries:
        if key not in names:
            raise PermselError(f"unknown config key {where + key!r}")
    for key in required:
        if key not in entries:
            raise PermselError(f"missing config key {where + key!r}")


def _check_fields(cls, entries: dict, where: str):
    """``_check_keys`` against the fields of a dataclass, after checking
    that ``entries`` is a JSON object; fields without a default are required."""
    _expect(entries, dict, where[:-1] or "the top level")
    _check_keys(entries, {f.name for f in fields(cls)},
                [f.name for f in fields(cls)
                 if f.default is MISSING and f.default_factory is MISSING], where)


def _from_entries(cls, entries: dict, **overrides):
    """Dataclass built from the entries that name its fields.

    Missing fields take the dataclass defaults, other entries are
    ignored, and ``overrides`` win over both.
    """
    names = {f.name for f in fields(cls)}
    given = {k: v for k, v in entries.items() if k in names}
    return cls(**{**given, **overrides})


def parse_task(text: str) -> Task:
    t = text.lower() if isinstance(text, str) else text
    if t in ("classification", "cls", "c"):
        return Task.CLASSIFICATION
    if t in ("regression", "reg", "r"):
        return Task.REGRESSION
    raise PermselError(f"unknown task {text!r}")
