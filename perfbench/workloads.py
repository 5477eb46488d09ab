"""The three workloads: their inputs per seed, set-up and timed section.

desk   moea.evolve (v1) on the acceptance desk-scale fixture, then
       evaluate_subset on the selected set. Merit-bound: every merit
       evaluation is a forest predict on shuffled validation rows.
wide   ``permsel select --variant v2`` through cli.main on a 1000x1000
       CSV, then evaluate_subset. Fit-bound and wide.
sweep  ``permsel run`` through cli.main: two classification CSVs, all
       seven method kinds, two pool workers. Many small forests, each
       predicted a few times; the runner repeats fits.

Sizes are cut down from the paper's budgets so that one job takes
7-16 s on a 2-core machine and two or more jobs fit in one measured run.
Parent-side functions (make_inputs) import numpy only; child-side ones
(setup, run) import permsel.
"""

from __future__ import annotations

import json
import os

import numpy as np

NAMES = ("desk", "wide", "sweep")

DESK = {"rows": 400, "features": 200, "informative": 20, "noise": 0.1,
        "data_seed": 0, "trees": 60, "pop": 30, "gens": 12}
WIDE = {"rows": 1000, "features": 1000, "informative": 50, "noise": 0.1,
        "trees": 16, "pop": 50, "gens": 2}
SWEEP = {"datasets": [("bin30", 300, 30, 2), ("q4w80", 400, 80, 4)],
         "trees": 4, "pop": 20, "gens": 10, "repeats": 5,
         "k_values": [5, 15, "N1", "N2"], "workers": 2}
SWEEP_KINDS = ("subset-v1", "subset-v2", "pfi-v1", "pfi-v2", "corr",
               "infogain", "all")


# ---------------------------------------------------------------- inputs

def _write_csv(path, X, labels, target_name):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"f{i}" for i in range(X.shape[1])]
                          + [target_name]) + "\n")
        for row, label in zip(X.tolist(), labels):
            fh.write(",".join(map(repr, row)) + "," + label + "\n")


def write_regression_csv(path, rows, features, informative, noise, seed):
    """Linear target on the first `informative` columns plus noise."""
    rng = np.random.default_rng([seed, 11])
    X = rng.standard_normal((rows, features))
    signal = X[:, :informative] @ rng.standard_normal(informative)
    y = signal + rng.normal(0.0, noise * float(signal.std()), size=rows)
    _write_csv(path, X, [repr(v) for v in y.tolist()], "target")


def write_classification_csv(path, rows, features, classes, seed):
    """Labels c0..c{q-1} from noisy linear scores on 8 columns."""
    rng = np.random.default_rng([seed, 12, classes])
    X = rng.standard_normal((rows, features))
    k = min(features, 8)
    scores = X[:, :k] @ rng.standard_normal((k, classes)) \
        + 0.5 * rng.standard_normal((rows, classes))
    _write_csv(path, X, [f"c{c}" for c in np.argmax(scores, axis=1)], "label")


def make_inputs(workload: str, seed: int, work_dir: str) -> dict:
    """Write the workload's input files for a seed; return the job spec."""
    os.makedirs(work_dir, exist_ok=True)
    spec = {"workload": workload, "seed": seed, "work_dir": work_dir}
    if workload == "desk":
        spec.update(DESK)
    elif workload == "wide":
        spec.update(WIDE)
        spec["csv"] = os.path.join(work_dir, "wide.csv")
        write_regression_csv(spec["csv"], WIDE["rows"], WIDE["features"],
                             WIDE["informative"], WIDE["noise"], seed)
    elif workload == "sweep":
        spec.update(SWEEP)
        datasets = []
        for name, rows, features, classes in SWEEP["datasets"]:
            path = os.path.join(work_dir, f"{name}.csv")
            write_classification_csv(path, rows, features, classes, seed)
            datasets.append({"name": name, "task": "cls", "path": path})
        methods = []
        for kind in SWEEP_KINDS:
            m = {"kind": kind}
            if kind.startswith("subset"):
                m.update(population_size=SWEEP["pop"], generations=SWEEP["gens"])
            elif kind.startswith("pfi"):
                m["repeats"] = SWEEP["repeats"]
            methods.append(m)
        spec["config"] = os.path.join(work_dir, "sweep.json")
        with open(spec["config"], "w", encoding="utf-8") as fh:
            json.dump({"datasets": datasets, "methods": methods,
                       "seeds": [seed], "k_values": SWEEP["k_values"],
                       "learner": {"n_trees": SWEEP["trees"]},
                       "workers": SWEEP["workers"]}, fh, indent=1)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return spec


# ------------------------------------------------------- child: set-up

def setup(spec: dict) -> dict:
    """Import the program and load or generate what the workload needs."""
    # every module the timed section uses, so that imports count as set-up
    from permsel import cli, dataset, learner, moea, runner  # noqa: F401
    state = {}
    if spec["workload"] == "desk":
        ds = dataset.generate_synthetic(dataset.SyntheticSpec(
            spec["rows"], spec["features"], spec["informative"],
            spec["noise"], seed=spec["data_seed"]))
        state = {"ds": ds, "part": dataset.split(ds, spec["seed"])}
    elif spec["workload"] == "wide":
        ds = dataset.load_csv(spec["csv"], dataset.Task.REGRESSION)
        state = {"ds": ds, "part": dataset.split(ds, spec["seed"])}
    return state


# ---------------------------------------------------- child: timed run

def run(spec: dict, state: dict, job_dir: str) -> dict:
    """The timed section. Returns raw outputs for check_outputs."""
    from permsel import cli, learner, moea, runner
    from check import hex_bits
    w, seed = spec["workload"], spec["seed"]
    if w == "desk":
        ds, part = state["ds"], state["part"]
        cfg = moea.MoeaConfig(population_size=spec["pop"],
                              generations=spec["gens"], seed=seed, variant="v1")
        trace = moea.evolve(ds, part,
                            learner.LearnerSpec(n_trees=spec["trees"], seed=seed),
                            cfg)
        scores = runner.evaluate_subset(ds, part, trace.selected_features(),
                                        learner.LearnerSpec(n_trees=spec["trees"]),
                                        seed)
        return {"trace": trace.to_json_dict(), "r2_test": scores["r2_test"]}
    if w == "wide":
        ds, part = state["ds"], state["part"]
        trace_path = os.path.join(job_dir, "select_trace.json")
        rc = cli.main(["select", "--variant", "v2", "--data", spec["csv"],
                       "--task", "reg", "--pop", str(spec["pop"]),
                       "--gens", str(spec["gens"]), "--seed", str(seed),
                       "--trees", str(spec["trees"]), "--trace-out", trace_path])
        with open(trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        selected = hex_bits(trace["best"]["chromosome_hex"], ds.n_features)
        scores = runner.evaluate_subset(ds, part, selected,
                                        learner.LearnerSpec(n_trees=spec["trees"]),
                                        seed)
        return {"rc": rc, "trace": trace, "r2_test": scores["r2_test"]}
    out_dir = os.path.join(job_dir, "out")
    rc = cli.main(["run", "--config", spec["config"], "--out", out_dir,
                   "--workers", str(spec["workers"])])
    return {"rc": rc, "out_dir": out_dir}


# ----------------------------------------------------- child: outputs

def expected_merit_calls(spec: dict) -> int:
    per_search = spec["pop"] * (spec["gens"] + 1)
    if spec["workload"] == "sweep":
        subset_kinds = sum(k.startswith("subset") for k in SWEEP_KINDS)
        return per_search * len(spec["datasets"]) * subset_kinds
    return per_search


def cells(spec: dict) -> int:
    """(dataset, method, seed) cells in one job."""
    if spec["workload"] == "sweep":
        return len(spec["datasets"]) * len(SWEEP_KINDS)
    return 1


def check_outputs(spec: dict, out: dict) -> dict:
    """Digest, invariant errors, operation counts and the quality figure."""
    from check import (digest, report_without_runtime, selection_outputs,
                       trace_invariants, trace_without_wall)
    errors = []
    if out.get("rc", 0) != 0:
        errors.append(f"command exited with {out['rc']}")
    if spec["workload"] in ("desk", "wide"):
        trace = out["trace"]
        errors += trace_invariants(trace, spec["gens"])
        doc = selection_outputs(trace, spec["features"], out["r2_test"])
        return {"digest": digest(doc), "errors": errors, "attempted": 1,
                "failed": int(bool(errors)), "quality": out["r2_test"]}
    with open(os.path.join(out["out_dir"], "reports", "report.csv"),
              encoding="utf-8") as fh:
        report = report_without_runtime(fh.read())
    traces_dir = os.path.join(out["out_dir"], "traces")
    traces = {}
    for name in sorted(os.listdir(traces_dir)):
        with open(os.path.join(traces_dir, name), encoding="utf-8") as fh:
            trace = json.load(fh)
        errors += [f"{name}: {e}" for e in trace_invariants(trace, spec["gens"])]
        traces[name] = trace_without_wall(trace)
    header, body = report[0], report[1:]
    status = header.index("status")
    ba = [float(r[header.index("ba_test")]) for r in body if r[status] == "ok"]
    bad_rows = sum(r[status] != "ok" for r in body)
    return {"digest": digest({"report": report, "traces": traces}),
            "errors": errors, "attempted": len(body),
            "failed": len(body) if errors else bad_rows,
            "quality": sum(ba) / len(ba) if ba else None}
