"""Acceptance suite: one test per criterion, tolerances pinned here.

Criteria 8 and 9 run a shared desk-scale evolutionary suite (about four
minutes); everything else is fast. The terminal summary prints one
pass/fail line per criterion.
"""

import json
import time

import numpy as np
import pytest

from permsel.analysis import (
    OverfitKind,
    _approx_two_sided_p,
    _midranks,
    overfit_ratio,
    wilcoxon_signed_rank,
)
from permsel.cli import main as cli_main
from permsel.dataset import SyntheticSpec, Task, generate_synthetic, split
from permsel.learner import LearnerSpec, fit
from permsel.metrics import (
    Metric,
    accuracy,
    balanced_accuracy,
    nrmse,
    r_squared,
    rmse,
)
from permsel.moea import MoeaConfig, evolve, fast_nondominated_sort, hux_crossover, hypervolume_2d
from permsel.permutation import EvalContext, merit, pfi_rank, select_top_k
from permsel.runner import evaluate_subset

from oracles import (
    brute_force_fronts,
    hypervolume_inclusion_exclusion,
    hypervolume_monte_carlo,
    wilcoxon_enumeration_p,
)

DESK_LEARNER_TREES = 60


def test_criterion_01_dominance_sort_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(1, 51))
        pts = [tuple(v) for v in rng.uniform(0, 10, size=(n, 2)).tolist()]
        if rng.random() < 0.5:  # mix in tie-heavy integer grids
            pts = [tuple(v) for v in rng.integers(0, 6, size=(n, 2)).tolist()]
        got = fast_nondominated_sort(pts)
        want = brute_force_fronts(pts)
        assert [sorted(f) for f in got] == [sorted(f) for f in want]
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"dominance sort oracle sweep took {elapsed:.2f}s"


def test_criterion_02_hypervolume_oracle():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    for trial in range(50):
        n = int(rng.integers(1, 11))
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        ref = (1.0, 1.0)
        got = hypervolume_2d(pts, ref)
        exact = hypervolume_inclusion_exclusion(pts.tolist(), ref)
        assert got == pytest.approx(exact, abs=1e-9)
        mc = hypervolume_monte_carlo(pts, ref, 100_000, seed=trial)
        assert got == pytest.approx(mc, abs=0.01)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"hypervolume oracle sweep took {elapsed:.2f}s"


def test_criterion_03_merit_degenerate_case():
    rng = np.random.default_rng(303)
    for trial in range(20):
        n = int(rng.integers(20, 60))
        w = int(rng.integers(2, 8))
        X = rng.standard_normal((n, w))
        if trial % 2 == 0:
            y = (X[:, 0] > 0).astype(np.int64)
            if np.unique(y).size < 2:
                y[0] = 1 - y[0]
            from permsel.dataset import RowView
            rows = RowView(X, y, Task.CLASSIFICATION, class_count=2)
            metric = Metric.ACC
        else:
            y = X[:, 0] * 2.0 + rng.standard_normal(n)
            from permsel.dataset import RowView
            rows = RowView(X, y, Task.REGRESSION)
            metric = Metric.RMSE
        model = fit(LearnerSpec(n_trees=3, seed=trial), rows)
        ctx = EvalContext(model, rows, metric)
        value = merit(ctx, np.zeros(w, dtype=np.uint8),
                      np.random.default_rng(trial))
        assert value == 0.0


def test_criterion_04_wilcoxon_exactness():
    rng = np.random.default_rng(404)
    # exact path vs full sign enumeration, n <= 12, ties included
    for _ in range(40):
        n = int(rng.integers(1, 13))
        if rng.random() < 0.5:
            diffs = rng.standard_normal(n)
        else:
            diffs = rng.integers(-3, 4, size=n).astype(float)
        diffs = diffs[diffs != 0]
        if diffs.size == 0:
            continue
        got = wilcoxon_signed_rank(diffs).p_value
        want = wilcoxon_enumeration_p(diffs)
        assert got == pytest.approx(want, abs=1e-12)
    # normal approximation vs exact on tie-free samples, 12 <= n <= 20
    for _ in range(60):
        n = int(rng.integers(12, 21))
        diffs = rng.standard_normal(n)
        res = wilcoxon_signed_rank(diffs)
        approx = _approx_two_sided_p(_midranks(np.abs(diffs)), res.statistic, n)
        assert approx == pytest.approx(res.p_value, abs=0.02)


def test_criterion_05_metric_oracles():
    tol = 1e-12
    assert accuracy([1, 0, 1], [1, 0, 1]) == pytest.approx(1.0, abs=tol)
    assert accuracy([1, 0, 1, 0], [1, 1, 1, 1]) == pytest.approx(0.5, abs=tol)
    assert accuracy([0], [1]) == pytest.approx(0.0, abs=tol)
    # one-sided 3:1 fixture: recalls 1 and 0 average to one half
    assert balanced_accuracy([0, 0, 0, 1], [0, 0, 0, 0], 2) == pytest.approx(0.5, abs=tol)
    assert balanced_accuracy([0, 1, 2], [0, 1, 2], 3) == pytest.approx(1.0, abs=tol)
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5), abs=tol)
    assert rmse([2.0], [5.0]) == pytest.approx(3.0, abs=tol)
    assert nrmse(0.5, [0.0, 2.0]) == pytest.approx(0.25, abs=tol)
    assert r_squared([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == pytest.approx(0.0, abs=tol)
    # worst-constant fixture: SS_res = 5, SS_tot = 0.5, so R2 = -9
    assert r_squared([0.0, 1.0], [2.0, 2.0]) == pytest.approx(-9.0, abs=tol)
    assert r_squared([0.0, 1.0], [2.0, 2.0]) < 0.0


def test_criterion_06_hux_contract():
    rng = np.random.default_rng(606)
    for _ in range(1000):
        w = int(rng.integers(1, 80))
        p1 = (rng.random(w) < rng.uniform(0.1, 0.9)).astype(np.uint8)
        p2 = (rng.random(w) < rng.uniform(0.1, 0.9)).astype(np.uint8)
        c1, c2 = hux_crossover(p1, p2, rng)
        h = int(np.sum(p1 != p2))
        assert int(np.sum(c1 != p1)) == h // 2
        assert int(np.sum(c2 != p2)) == h // 2
        agree = p1 == p2
        assert np.array_equal(c1[agree], p1[agree])
        assert np.array_equal(c2[agree], p2[agree])


def _run_cli_experiment(tmp_path, tag, workers):
    data = tmp_path / "data.csv"
    if not data.exists():
        rc = cli_main(["synth", "--spec", "80,8,3,0.1", "--out", str(data),
                       "--seed", "1"])
        assert rc == 0
    out_dir = tmp_path / f"out_{tag}"
    cfg = {
        "datasets": [{"name": "syn", "task": "reg", "path": str(data)}],
        "methods": [
            {"kind": "subset-v1", "population_size": 8, "generations": 4},
            {"kind": "pfi-v1", "repeats": 2},
            {"kind": "corr"},
            {"kind": "all"},
        ],
        "seeds": [0, 1],
        "k_values": [3, "N1"],
        "learner": {"n_trees": 5},
        "output_dir": str(out_dir),
        "workers": workers,
    }
    cfg_path = tmp_path / f"cfg_{tag}.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli_main(["run", "--config", str(cfg_path)])
    assert rc == 0
    return out_dir / "reports" / "report.csv"


def _strip_runtime(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    drop = header.index("runtime_seconds")
    return ["," .join(c for i, c in enumerate(ln.split(",")) if i != drop)
            for ln in lines]


def test_criterion_07_determinism_across_runs_and_workers(tmp_path):
    reports = [
        _run_cli_experiment(tmp_path, "w1_a", workers=1),
        _run_cli_experiment(tmp_path, "w1_b", workers=1),
        _run_cli_experiment(tmp_path, "w8_a", workers=8),
        _run_cli_experiment(tmp_path, "w8_b", workers=8),
    ]
    stripped = [_strip_runtime(p) for p in reports]
    for other in stripped[1:]:
        assert other == stripped[0]


@pytest.fixture(scope="module")
def desk_scale_suite():
    """Shared fixture for criteria 8 and 9.

    Synthetic regression (400 rows, 200 features, 20 informative, noise
    0.1), subset search with population 30 for 150 generations on three
    seeds, compared against single-feature permutation ranking at the
    same cardinality and against the full feature set.
    """
    t0 = time.perf_counter()
    ds = generate_synthetic(SyntheticSpec(400, 200, 20, 0.1, seed=0))
    informative = frozenset(range(20))
    eval_learner = LearnerSpec(n_trees=DESK_LEARNER_TREES)
    per_seed = []
    for seed in (0, 1, 2):
        part = split(ds, seed=seed)
        sel_learner = LearnerSpec(n_trees=DESK_LEARNER_TREES, seed=seed)
        cfg = MoeaConfig(population_size=30, generations=150, seed=seed,
                         variant="v1")
        trace = evolve(ds, part, sel_learner, cfg)
        selected = trace.selected_features()
        n1 = int(selected.size)

        model = fit(sel_learner, ds.rows(part.train_idx))
        ctx = EvalContext(model, ds.rows(part.val_idx), Metric.RMSE)
        ranking = pfi_rank(ctx, repeats=5, rng=np.random.default_rng([seed, 3]))
        pfi_features = select_top_k(ranking, n1)

        per_seed.append({
            "seed": seed,
            "n1": n1,
            "informative_fraction":
                len(informative & set(selected.tolist())) / max(1, n1),
            "r2_selected": evaluate_subset(ds, part, selected, eval_learner,
                                           seed)["r2_test"],
            "r2_pfi": evaluate_subset(ds, part, pfi_features, eval_learner,
                                      seed)["r2_test"],
            "r2_all": evaluate_subset(ds, part, np.arange(ds.n_features),
                                      eval_learner, seed)["r2_test"],
        })
    return {"per_seed": per_seed, "elapsed": time.perf_counter() - t0}


@pytest.mark.slow
def test_criterion_08_desk_scale_informative_recovery(desk_scale_suite):
    rows = desk_scale_suite["per_seed"]
    base_rate = 0.10
    mean_fraction = float(np.mean([r["informative_fraction"] for r in rows]))
    median_selected = float(np.median([r["r2_selected"] for r in rows]))
    median_all = float(np.median([r["r2_all"] for r in rows]))
    elapsed = desk_scale_suite["elapsed"]
    detail = (f"informative fraction {mean_fraction:.3f} (need >= {2 * base_rate}), "
              f"median test R2 selected {median_selected:.3f} vs all-features "
              f"{median_all:.3f} (need >= all - 0.05), elapsed {elapsed:.0f}s")
    assert elapsed < 600.0, detail
    assert median_selected >= median_all - 0.05, detail
    assert mean_fraction >= 2 * base_rate, detail


@pytest.mark.slow
def test_criterion_09_directional_baseline_comparison(desk_scale_suite):
    rows = desk_scale_suite["per_seed"]
    median_subset = float(np.median([r["r2_selected"] for r in rows]))
    median_pfi = float(np.median([r["r2_pfi"] for r in rows]))
    assert median_subset >= median_pfi, (
        f"median test R2: subset search {median_subset:.4f} vs single-feature "
        f"ranking at the same cardinality {median_pfi:.4f}")


def test_criterion_10_overfitting_table(tmp_path):
    tol = 1e-12
    assert overfit_ratio(0.9, 0.9, OverfitKind.ACC_RATIO) == pytest.approx(1.0, abs=tol)
    assert overfit_ratio(1.0, 0.8, OverfitKind.ACC_RATIO) == pytest.approx(1.25, abs=tol)
    assert overfit_ratio(0.9, 0.3, OverfitKind.R2_DIFF) == pytest.approx(0.6, abs=tol)

    report = _run_cli_experiment(tmp_path, "overfit", workers=1)
    out_dir = report.parent.parent
    table = (out_dir / "summary" / "overfitting_regression.csv")
    assert table.exists()
    lines = table.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["task", "entry", "mean_selected"]
    assert "nrmse_ratio" in header
    assert "r2_diff" in header
    entries = {ln.split(",")[1] for ln in lines[1:]}
    # one row per method entry, like the paper's per-method overfit grids
    assert {"subset-v1", "corr(k=3)", "corr(k=N1)", "pfi-v1(k=3)",
            "pfi-v1(k=N1)", "all"} <= entries
