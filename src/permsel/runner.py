"""Experiment orchestration: selection, retraining, evaluation, reports.

For every (dataset, seed) the data is split 60/20/20; each selection
method produces a feature set (subset methods) or a ranking evaluated at
several cutoffs. Models are then retrained on the merged train+validation
rows restricted to the chosen features and scored on those rows and on
the held-out test rows, which no selection method ever sees. Cells run
independently in a thread pool; results are identical for any pool size.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import learner as learner_mod
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
from .errors import PermselError
from .learner import LearnerSpec
from .metrics import Metric, accuracy, balanced_accuracy, nrmse, r_squared, rmse
from .moea import MoeaConfig, RunTrace, evolve
from .permutation import FeatureScores, build_context, pfi_rank, select_top_k

log = logging.getLogger("permsel")

SUBSET_METHODS = ("subset-v1", "subset-v2")
RANKING_METHODS = ("pfi-v1", "pfi-v2", "corr", "infogain")
ALL_FEATURES = "all"

REPORT_COLUMNS = [
    "dataset", "task", "method", "k_label", "seed", "selected_count",
    "acc_train", "ba_train", "rmse_train", "nrmse_train", "r2_train",
    "acc_test", "ba_test", "rmse_test", "nrmse_test", "r2_test",
    "runtime_seconds", "status", "error",
]
RUNTIME_COLUMNS = ("runtime_seconds",)


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    task: Task
    path: str | None = None
    synthetic: SyntheticSpec | None = None

    def load(self) -> Dataset:
        if (self.path is None) == (self.synthetic is None):
            raise PermselError(f"dataset {self.name}: give exactly one of path or synthetic")
        if self.path is not None:
            return load_csv(self.path, self.task)
        if self.task is not Task.REGRESSION:
            raise PermselError("synthetic datasets are regression-only")
        return generate_synthetic(self.synthetic)


@dataclass(frozen=True)
class MethodSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def validate(self):
        if self.kind not in SUBSET_METHODS + RANKING_METHODS + (ALL_FEATURES,):
            raise PermselError(f"unknown method kind {self.kind!r}")

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
        if not self.datasets or not self.methods or not self.seeds:
            raise PermselError("need at least one dataset, method, and seed")
        kinds = set()
        for m in self.methods:
            m.validate()
            if m.kind in kinds:
                # rows, trace files and summary entries are keyed by kind
                raise PermselError(f"method kind {m.kind!r} given more than once")
            kinds.add(m.kind)
            if m.kind in SUBSET_METHODS:
                _from_entries(MoeaConfig, m.params, variant=m.variant).validate()
        if "infogain" in kinds:
            for d in self.datasets:
                if d.task is Task.REGRESSION:
                    raise PermselError(f"infogain needs classification data; "
                                       f"dataset {d.name} is regression")
        for k in self.k_values:
            if not (isinstance(k, int) and k >= 1) and k not in ("N1", "N2"):
                raise PermselError(f"bad k value {k!r}")


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

    def to_csv_fields(self) -> list[str]:
        out = []
        for col in REPORT_COLUMNS:
            v = getattr(self, col)
            if v is None:
                out.append("")
            elif isinstance(v, float):
                out.append(repr(v))
            else:
                out.append(str(v))
        return out


@dataclass
class SelectionResult:
    kind: str
    runtime_seconds: float
    features: np.ndarray | None = None        # subset methods
    scores: FeatureScores | None = None       # ranking methods
    trace: RunTrace | None = None


def run_selection(dataset: Dataset, partition: Partition, method: MethodSpec,
                  seed: int, learner_spec: LearnerSpec) -> SelectionResult:
    """Execute one selection method for one (dataset, seed) cell.

    Only train/validation rows are read; the test rows stay untouched.
    """
    p = method.params
    seeded_learner = replace(learner_spec, seed=seed)
    t0 = time.perf_counter()
    if method.kind in SUBSET_METHODS:
        cfg = _from_entries(MoeaConfig, p, seed=seed, variant=method.variant)
        trace = evolve(dataset, partition, seeded_learner, cfg)
        return SelectionResult(method.kind, time.perf_counter() - t0,
                               features=trace.selected_features(), trace=trace)
    if method.kind in ("pfi-v1", "pfi-v2"):
        ctx = build_context(dataset, partition, method.variant, seeded_learner)
        scores = pfi_rank(ctx, repeats=p.get("repeats", 5),
                          rng=np.random.default_rng([seed, 3]))
        return SelectionResult(method.kind, time.perf_counter() - t0, scores=scores)
    if method.kind == "corr":
        scores = correlation_rank(dataset.rows(partition.train_val_idx))
        return SelectionResult(method.kind, time.perf_counter() - t0, scores=scores)
    if method.kind == "infogain":
        scores = infogain_rank(dataset.rows(partition.train_val_idx),
                               bins=p.get("bins", 10))
        return SelectionResult(method.kind, time.perf_counter() - t0, scores=scores)
    if method.kind == ALL_FEATURES:
        return SelectionResult(method.kind, 0.0,
                               features=np.arange(dataset.n_features))
    raise PermselError(f"unknown method kind {method.kind!r}")


def evaluate_subset(dataset: Dataset, partition: Partition, features,
                    learner_spec: LearnerSpec, seed: int) -> dict[str, float]:
    """Retrain on train+validation restricted to the features; score both
    that set and the held-out test set."""
    features = np.asarray(sorted(features), dtype=np.int64)
    if features.size == 0:
        raise PermselError("cannot evaluate an empty feature set")
    seeded = replace(learner_spec, seed=seed)
    fit_rows = dataset.rows(partition.train_val_idx).select_features(features)
    test_rows = dataset.rows(partition.test_idx).select_features(features)
    model = learner_mod.fit(seeded, fit_rows)
    pred_train = model.predict(fit_rows.X)
    pred_test = model.predict(test_rows.X)
    out: dict[str, float] = {}
    if dataset.task is Task.CLASSIFICATION:
        q = dataset.class_count
        out["acc_train"] = accuracy(fit_rows.y, pred_train)
        out["ba_train"] = balanced_accuracy(fit_rows.y, pred_train, q)
        out["acc_test"] = accuracy(test_rows.y, pred_test)
        out["ba_test"] = balanced_accuracy(test_rows.y, pred_test, q)
    else:
        y_range = dataset.y  # one range per dataset keeps nRMSE comparable
        out["rmse_train"] = rmse(fit_rows.y, pred_train)
        out["nrmse_train"] = nrmse(out["rmse_train"], y_range)
        out["r2_train"] = r_squared(fit_rows.y, pred_train)
        out["rmse_test"] = rmse(test_rows.y, pred_test)
        out["nrmse_test"] = nrmse(out["rmse_test"], y_range)
        out["r2_test"] = r_squared(test_rows.y, pred_test)
    return out


def _clamp_k(k: int, width: int, method: str) -> int:
    if k > width:
        log.warning("k=%d exceeds feature count %d for %s; clamping", k, width, method)
        return width
    return k


def _cell_rows(dataset_spec: DatasetSpec, dataset: Dataset, partition: Partition,
               method: MethodSpec, seed: int, cfg: ExperimentConfig,
               subset_counts: dict[str, int]) -> tuple[list[ReportRow], RunTrace | None]:
    """All report rows for one (dataset, method, seed) cell."""
    name, task = dataset_spec.name, dataset_spec.task.value
    try:
        sel = run_selection(dataset, partition, method, seed, cfg.learner)
        picks: list[tuple[str, np.ndarray]] = []
        if sel.features is not None:
            label = "all" if method.kind == ALL_FEATURES else "subset"
            picks.append((label, sel.features))
        else:
            for k_value in cfg.k_values:
                if isinstance(k_value, str):
                    source = "subset-v1" if k_value == "N1" else "subset-v2"
                    if source not in subset_counts:
                        log.info("skipping k=%s for %s on %s seed %d: no %s run",
                                 k_value, method.kind, name, seed, source)
                        continue
                    k = subset_counts[source]
                else:
                    k = k_value
                k = _clamp_k(k, dataset.n_features, method.kind)
                picks.append((str(k_value), select_top_k(sel.scores, k)))
        rows = []
        for label, features in picks:
            metrics = evaluate_subset(dataset, partition, features,
                                      cfg.learner, seed)
            rows.append(ReportRow(name, task, method.kind, label, seed,
                                  selected_count=int(features.size),
                                  runtime_seconds=sel.runtime_seconds,
                                  **metrics))
        return rows, sel.trace
    except Exception as exc:  # keep the sweep alive, record the failure
        log.exception("cell failed: %s / %s / seed %d", name, method.kind, seed)
        return [ReportRow(name, task, method.kind, "-", seed,
                          status="error", error=str(exc))], None


def run_experiment(cfg: ExperimentConfig) -> list[ReportRow]:
    """Run the full protocol; returns all report rows, sorted canonically.

    When ``cfg.output_dir`` is set, reports, traces, and summary tables
    are written beneath it.
    """
    cfg.validate()
    datasets = [(spec, spec.load()) for spec in cfg.datasets]
    partitions = {}
    for spec, ds in datasets:
        for seed in cfg.seeds:
            stratified = cfg.stratified and ds.task is Task.CLASSIFICATION
            partitions[(spec.name, seed)] = split(ds, seed, stratified)

    subset_methods = [m for m in cfg.methods if m.kind in SUBSET_METHODS]
    other_methods = [m for m in cfg.methods if m.kind not in SUBSET_METHODS]

    rows: list[ReportRow] = []
    traces: dict[tuple[str, str, int], RunTrace] = {}
    subset_counts: dict[tuple[str, int], dict[str, int]] = {
        (spec.name, seed): {} for spec, _ in datasets for seed in cfg.seeds}

    def run_cells(methods):
        jobs = [(spec, ds, seed, m)
                for spec, ds in datasets for seed in cfg.seeds for m in methods]
        def work(job):
            spec, ds, seed, m = job
            part = partitions[(spec.name, seed)]
            return job, _cell_rows(spec, ds, part, m, seed, cfg,
                                   subset_counts[(spec.name, seed)])
        if cfg.workers > 1:
            with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                results = list(pool.map(work, jobs))
        else:
            results = [work(job) for job in jobs]
        for (spec, _, seed, m), (cell_rows, trace) in results:
            rows.extend(cell_rows)
            if trace is not None:
                traces[(spec.name, m.kind, seed)] = trace
            for r in cell_rows:
                if r.status == "ok" and m.kind in SUBSET_METHODS:
                    subset_counts[(spec.name, seed)][m.kind] = r.selected_count

    run_cells(subset_methods)
    run_cells(other_methods)

    rows.sort(key=lambda r: (r.dataset, r.method, r.k_label, r.seed))
    if cfg.output_dir is not None:
        write_outputs(cfg.output_dir, rows, traces)
    return rows


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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in rows:
            writer.writerow(r.to_csv_fields())


def read_report_csv(path) -> list[ReportRow]:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            kwargs = {}
            for col in REPORT_COLUMNS:
                v = rec[col]
                if col in ("dataset", "task", "method", "k_label", "status", "error"):
                    kwargs[col] = v
                elif col in ("seed", "selected_count"):
                    kwargs[col] = int(v) if v != "" else None
                else:
                    kwargs[col] = float(v) if v != "" else None
            rows.append(ReportRow(**kwargs))
    return rows


def _entry_label(method: str, k_label: str) -> str:
    if k_label in ("subset", "all"):
        return method
    return f"{method}(k={k_label})"


_TEST_METRICS = {
    "classification": [("acc_test", Metric.ACC), ("ba_test", Metric.BA)],
    "regression": [("nrmse_test", Metric.NRMSE), ("r2_test", Metric.R2)],
}
_OVERFIT_SPECS = {
    "classification": [("acc", OverfitKind.ACC_RATIO), ("ba", OverfitKind.BA_RATIO)],
    "regression": [("nrmse", OverfitKind.NRMSE_RATIO), ("r2", OverfitKind.R2_DIFF)],
}


def aggregate(rows: list[ReportRow]) -> dict:
    """Summary tables: per-entry means, win/loss rankings with pairwise
    tests on test-set metrics, overfitting measures, and mean runtimes."""
    ok = [r for r in rows if r.status == "ok"]
    tables: dict = {"means": [], "rankings": {}, "pairwise": {},
                    "overfitting": [], "runtimes": []}

    entries = sorted({(r.task, r.method, r.k_label) for r in ok})
    numeric = [c for c in REPORT_COLUMNS
               if c not in ("dataset", "task", "method", "k_label", "seed",
                            "status", "error")]
    for task, method, k_label in entries:
        sub = [r for r in ok if (r.task, r.method, r.k_label) == (task, method, k_label)]
        rec = {"task": task, "method": method, "k_label": k_label,
               "entry": _entry_label(method, k_label), "n_rows": len(sub)}
        counts = [r.selected_count for r in sub if r.selected_count is not None]
        rec["median_selected_count"] = float(np.median(counts)) if counts else None
        for col in numeric:
            vals = [getattr(r, col) for r in sub if getattr(r, col) is not None]
            rec[f"mean_{col}"] = float(np.mean(vals)) if vals else None
        tables["means"].append(rec)

    for task, metric_specs in _TEST_METRICS.items():
        task_rows = [r for r in ok if r.task == task]
        if not task_rows:
            continue
        task_entries = sorted({(r.method, r.k_label) for r in task_rows})
        for col, metric in metric_specs:
            per_entry: dict[str, dict[str, list[float]]] = {}
            for method, k_label in task_entries:
                label = _entry_label(method, k_label)
                by_ds: dict[str, list[float]] = {}
                for r in task_rows:
                    if (r.method, r.k_label) == (method, k_label) \
                            and getattr(r, col) is not None:
                        by_ds.setdefault(r.dataset, []).append(getattr(r, col))
                per_entry[label] = by_ds
            labels = sorted(per_entry)
            samples = []
            for i, la in enumerate(labels):
                for lb in labels[i + 1:]:
                    shared = sorted(set(per_entry[la]) & set(per_entry[lb]))
                    if not shared:
                        continue
                    va = tuple(float(np.mean(per_entry[la][d])) for d in shared)
                    vb = tuple(float(np.mean(per_entry[lb][d])) for d in shared)
                    samples.append(PairedSample(la, lb, metric, va, vb))
            if len(labels) >= 2 and samples:
                tables["rankings"][col] = win_loss_ranking(samples)
                tables["pairwise"][col] = [compare_pair(s) for s in samples]

    for task, specs in _OVERFIT_SPECS.items():
        task_rows = [r for r in ok if r.task == task]
        for method, k_label in sorted({(r.method, r.k_label) for r in task_rows}):
            sub = [r for r in task_rows if (r.method, r.k_label) == (method, k_label)]
            rec = {"task": task, "entry": _entry_label(method, k_label),
                   "mean_selected": float(np.mean([r.selected_count for r in sub]))}
            for stem, kind in specs:
                tr = [getattr(r, f"{stem}_train") for r in sub
                      if getattr(r, f"{stem}_train") is not None]
                te = [getattr(r, f"{stem}_test") for r in sub
                      if getattr(r, f"{stem}_test") is not None]
                if tr and te:
                    rec[kind.value] = overfit_ratio(float(np.mean(tr)),
                                                    float(np.mean(te)), kind)
            tables["overfitting"].append(rec)

    for task in ("classification", "regression"):
        task_rows = [r for r in ok if r.task == task]
        for method in sorted({r.method for r in task_rows}):
            seen = {}
            for r in task_rows:
                if r.method == method and r.runtime_seconds is not None:
                    seen.setdefault((r.dataset, r.seed), r.runtime_seconds)
            if seen:
                tables["runtimes"].append({
                    "task": task, "method": method,
                    "mean_runtime_seconds": float(np.mean(list(seen.values()))),
                })
    return tables


def write_summary(summary_dir, tables: dict):
    os.makedirs(summary_dir, exist_ok=True)

    def dump(name, records, columns):
        with open(os.path.join(summary_dir, name), "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for rec in records:
                writer.writerow([_fmt(rec.get(c)) for c in columns])

    if tables["means"]:
        cols = ["task", "method", "k_label", "entry", "n_rows",
                "median_selected_count"] + \
            sorted({k for rec in tables["means"] for k in rec if k.startswith("mean_")})
        dump("means.csv", tables["means"], cols)
    for col, ranking in tables["rankings"].items():
        records = [{"method": r.method, "wins": r.wins, "losses": r.losses,
                    "net": r.net} for r in ranking]
        dump(f"ranking_{col}.csv", records, ["method", "wins", "losses", "net"])
    for col, outcomes in tables["pairwise"].items():
        records = []
        for o in outcomes:
            if o.significant:
                display = _fmt(o.p_value)
            else:
                display = f"{_fmt(o.p_value)} ({_fmt(o.mean_diff)})"
            records.append({"method_a": o.method_a, "method_b": o.method_b,
                            "p_value": o.p_value, "mean_diff": o.mean_diff,
                            "significant": o.significant, "display": display})
        dump(f"pairwise_{col}.csv", records,
             ["method_a", "method_b", "p_value", "mean_diff", "significant",
              "display"])
    for task in ("classification", "regression"):
        recs = [r for r in tables["overfitting"] if r["task"] == task]
        if recs:
            extra = [kind.value for _, kind in _OVERFIT_SPECS[task]]
            dump(f"overfitting_{task}.csv", recs,
                 ["task", "entry", "mean_selected"] + extra)
        rt = [r for r in tables["runtimes"] if r["task"] == task]
        if rt:
            rt = sorted(rt, key=lambda r: r["mean_runtime_seconds"])
            for rank, rec in enumerate(rt, start=1):
                rec["rank"] = rank
            dump(f"runtimes_{task}.csv", rt,
                 ["task", "method", "mean_runtime_seconds", "rank"])


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def load_config(path) -> ExperimentConfig:
    """Read an experiment configuration from JSON (schema in the README)."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    datasets = []
    for d in raw["datasets"]:
        task = parse_task(d["task"])
        synth = None
        if "synthetic" in d:
            s = d["synthetic"]
            synth = SyntheticSpec(s["n_instances"], s["n_features"],
                                  s["n_informative"], s["noise"],
                                  s.get("seed", 0))
        datasets.append(DatasetSpec(d["name"], task, d.get("path"), synth))
    methods = [MethodSpec(m["kind"],
                          {k: v for k, v in m.items() if k != "kind"})
               for m in raw["methods"]]
    learner = _from_entries(LearnerSpec, raw.get("learner", {}))
    return _from_entries(ExperimentConfig, raw, datasets=datasets,
                         methods=methods, learner=learner)


def _from_entries(cls, entries: dict, **overrides):
    """Dataclass built from the entries that name its fields.

    Missing fields take the dataclass defaults, other entries are
    ignored, and ``overrides`` win over both.
    """
    names = {f.name for f in fields(cls)}
    given = {k: v for k, v in entries.items() if k in names}
    return cls(**{**given, **overrides})


def parse_task(text: str) -> Task:
    t = text.lower()
    if t in ("classification", "cls", "c"):
        return Task.CLASSIFICATION
    if t in ("regression", "reg", "r"):
        return Task.REGRESSION
    raise PermselError(f"unknown task {text!r}")
