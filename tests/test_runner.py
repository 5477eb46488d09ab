import csv
import dataclasses
import json
import re

import numpy as np
import pytest

from permsel import moea, permutation, runner, tree
from permsel.dataset import Dataset, SyntheticSpec, Task, split, write_csv
from permsel.errors import PermselError
from permsel.learner import LearnerSpec, fit
from permsel.moea import MoeaConfig
from permsel.runner import (
    DatasetSpec,
    ExperimentConfig,
    MethodSpec,
    ReportRow,
    aggregate,
    evaluate_subset,
    load_config,
    read_report_csv,
    run_experiment,
    run_selection,
    write_report_csv,
    write_summary,
)

MOEA_PARAMS = {"population_size": 8, "generations": 3, "init_prob": 0.5}
SYN = DatasetSpec("syn", Task.REGRESSION,
                  synthetic=SyntheticSpec(60, 6, 2, 0.1, seed=5))


def _mini_config(tmp_path, seeds=(0, 1), methods=None, workers=1, out=None):
    datasets = [SYN]
    if methods is None:
        methods = [
            MethodSpec("subset-v1", dict(MOEA_PARAMS)),
            MethodSpec("pfi-v1", {"repeats": 2}),
            MethodSpec("corr"),
            MethodSpec("all"),
        ]
    return ExperimentConfig(
        datasets=datasets,
        methods=methods,
        seeds=list(seeds),
        k_values=[2, "N1"],
        learner=LearnerSpec(n_trees=5),
        output_dir=str(out) if out is not None else None,
        workers=workers,
    )


@pytest.fixture
def mini_rows(tmp_path):
    return run_experiment(_mini_config(tmp_path))


class TestRunExperiment:
    def test_all_features_row(self, mini_rows):
        rows = [r for r in mini_rows if r.method == "all"]
        assert rows
        for r in rows:
            assert r.selected_count == 6
            assert r.k_label == "all"
            assert r.runtime_seconds == 0.0
            assert r.rmse_test is not None

    @pytest.mark.parametrize("subset_last", [False, True],
                             ids=["subset_first", "subset_last"])
    def test_n1_rows_match_subset_cardinality(self, tmp_path, subset_last):
        # the subset method runs first in its cell wherever it is listed
        methods = [MethodSpec("subset-v1", dict(MOEA_PARAMS)),
                   MethodSpec("pfi-v1", {"repeats": 2}), MethodSpec("corr")]
        if subset_last:
            methods = methods[1:] + methods[:1]
        rows = run_experiment(_mini_config(tmp_path, methods=methods))
        for seed in (0, 1):
            subset_row = [r for r in rows
                          if r.method == "subset-v1" and r.seed == seed][0]
            assert subset_row.selected_count >= 1
            for method in ("pfi-v1", "corr"):
                n1 = [r for r in rows
                      if r.method == method and r.seed == seed and r.k_label == "N1"]
                assert len(n1) == 1
                assert n1[0].selected_count == min(subset_row.selected_count, 6)

    def test_failed_subset_method_skips_its_n1_rows(self, tmp_path, monkeypatch):
        def broken_search(*args):
            raise RuntimeError("search failed")
        monkeypatch.setattr(moea, "evolve_on_context", broken_search)
        methods = [MethodSpec("corr"), MethodSpec("subset-v1", dict(MOEA_PARAMS))]
        rows = run_experiment(_mini_config(tmp_path, methods=methods))
        assert [r.status for r in rows if r.method == "subset-v1"] == ["error"] * 2
        corr = [r for r in rows if r.method == "corr"]
        assert [(r.k_label, r.status) for r in corr] == [("2", "ok")] * 2

    def test_split_error_aborts_run(self, tmp_path, monkeypatch):
        def broken_split(*args):
            raise PermselError("cannot split")
        monkeypatch.setattr(runner, "split", broken_split)
        with pytest.raises(PermselError, match="cannot split"):
            run_experiment(_mini_config(tmp_path, methods=[MethodSpec("corr")],
                                        workers=2))

    def test_n1_skipped_without_subset_method(self, tmp_path):
        cfg = _mini_config(tmp_path, methods=[MethodSpec("corr")])
        rows = run_experiment(cfg)
        assert all(r.k_label != "N1" for r in rows)
        assert any(r.k_label == "2" for r in rows)

    def test_rows_sorted_canonically(self, mini_rows):
        keys = [(r.dataset, r.method, r.k_label, r.seed) for r in mini_rows]
        assert keys == sorted(keys)

    def test_k_clamped_to_width(self, tmp_path):
        cfg = _mini_config(tmp_path, methods=[MethodSpec("corr")])
        cfg = ExperimentConfig(**{**cfg.__dict__, "k_values": [100]})
        rows = run_experiment(cfg)
        assert all(r.selected_count == 6 for r in rows if r.status == "ok")

    def test_failure_isolation(self, tmp_path, monkeypatch):
        # a method that fails mid-run records error rows without taking
        # the rest of the sweep down
        def broken_rank(rows):
            raise RuntimeError("ranker failed")
        monkeypatch.setattr(runner, "correlation_rank", broken_rank)
        methods = [MethodSpec("corr"), MethodSpec("all")]
        rows = run_experiment(_mini_config(tmp_path, methods=methods))
        bad = [r for r in rows if r.method == "corr"]
        good = [r for r in rows if r.method == "all"]
        assert bad and all(r.status == "error" and r.error for r in bad)
        assert good and all(r.status == "ok" for r in good)

    def test_bad_max_features_fails_only_its_method(self, tmp_path):
        # max_features 3 cannot be drawn from corr's 2-feature pick, but it
        # can from all 8 features: corr gets one error row, all stays ok
        ds = DatasetSpec("syn8", Task.REGRESSION,
                         synthetic=SyntheticSpec(60, 8, 2, 0.1, seed=5))
        cfg = ExperimentConfig(datasets=[ds],
                               methods=[MethodSpec("corr"), MethodSpec("all")],
                               seeds=[0], k_values=[2, 5],
                               learner=LearnerSpec(n_trees=3, max_features=3))
        rows = run_experiment(cfg)
        assert [(r.method, r.k_label, r.status, r.selected_count, r.error)
                for r in rows] == [
            ("all", "all", "ok", 8, ""),
            ("corr", "-", "error", None, "max_features=3 outside [1, 2]")]

    def test_shared_fit_fault_fails_the_methods_that_wait_on_it(self, tmp_path,
                                                                 monkeypatch):
        # subset-v2 and corr wait on the cell's shared evaluation fit; all
        # is scored on the v2 context's forest and stays ok
        real_fit = runner.learner_mod.fit_forests

        def fit_forests(spec, rows, sets):
            if len(sets) > 1:
                raise RuntimeError("shared fit failed")
            return real_fit(spec, rows, sets)

        monkeypatch.setattr(runner.learner_mod, "fit_forests", fit_forests)
        methods = [MethodSpec("subset-v2", dict(MOEA_PARAMS)), MethodSpec("corr"),
                   MethodSpec("all")]
        cfg = _mini_config(tmp_path, seeds=(0,), methods=methods, out=tmp_path / "o")
        rows = run_experiment(cfg)
        assert [(r.method, r.k_label, r.status, r.error) for r in rows] == [
            ("all", "all", "ok", ""),
            ("corr", "-", "error", "shared fit failed"),
            ("subset-v2", "-", "error", "shared fit failed")]
        assert not list((tmp_path / "o" / "traces").iterdir())

    def test_failed_evaluation_gives_an_error_row(self, tmp_path, monkeypatch):
        # subset-v1's pick fails in evaluate_subset: one error row and no
        # trace for it, while corr and all are still scored
        picked = {}
        real_select, real_evaluate = runner.run_selection, runner.evaluate_subset

        def run_selection(dataset, partition, method, *args):
            sel = real_select(dataset, partition, method, *args)
            if method.kind == "subset-v1":
                picked["subset-v1"] = sorted(sel.features)
            return sel

        def evaluate_subset(dataset, partition, features, *args, **kwargs):
            if sorted(features) == picked["subset-v1"]:
                raise RuntimeError("evaluation failed")
            return real_evaluate(dataset, partition, features, *args, **kwargs)

        monkeypatch.setattr(runner, "run_selection", run_selection)
        monkeypatch.setattr(runner, "evaluate_subset", evaluate_subset)
        methods = [MethodSpec("corr"), MethodSpec("subset-v1", dict(MOEA_PARAMS)),
                   MethodSpec("all")]
        cfg = dataclasses.replace(
            _mini_config(tmp_path, seeds=(0,), methods=methods, out=tmp_path / "o"),
            k_values=[2])
        rows = run_experiment(cfg)
        assert [(r.method, r.k_label, r.status, r.error) for r in rows] == [
            ("all", "all", "ok", ""),
            ("corr", "2", "ok", ""),
            ("subset-v1", "-", "error", "evaluation failed")]
        assert not list((tmp_path / "o" / "traces").iterdir())

    def test_outputs_written(self, tmp_path):
        out = tmp_path / "results"
        run_experiment(_mini_config(tmp_path, seeds=(0,), out=out))
        assert (out / "reports" / "report.csv").exists()
        traces = list((out / "traces").glob("*.json"))
        assert len(traces) == 1
        with open(traces[0]) as fh:
            trace = json.load(fh)
        assert trace["seed"] == 0
        assert len(trace["hypervolume"]) == 4
        assert (out / "summary" / "means.csv").exists()

    @pytest.mark.parametrize("gil", [True, False], ids=["gil", "free-threaded"])
    @pytest.mark.parametrize("workers", [4, 8])
    def test_reproducible_across_worker_counts(self, tmp_path, monkeypatch,
                                               workers, gil):
        # under the GIL the cells run in the calling thread and no pool is
        # built; without it, one pool task per seed, so every worker has a
        # task to run
        pools = []

        class Pool(runner.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                if gil:
                    raise AssertionError("a pool was built under the GIL")
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(runner, "_gil_enabled", lambda: gil)
        monkeypatch.setattr(runner, "ThreadPoolExecutor", Pool)
        seeds = range(workers)
        out1 = tmp_path / "w1"
        outn = tmp_path / f"w{workers}"
        run_experiment(_mini_config(tmp_path, seeds=seeds, out=out1, workers=1))
        run_experiment(_mini_config(tmp_path, seeds=seeds, out=outn, workers=workers))
        assert pools == ([] if gil else [workers])
        lines1 = (out1 / "reports" / "report.csv").read_text().splitlines()
        linesn = (outn / "reports" / "report.csv").read_text().splitlines()
        header = lines1[0].split(",")
        rt = header.index("runtime_seconds")

        def strip(lines):
            return [",".join(c for i, c in enumerate(ln.split(",")) if i != rt)
                    for ln in lines]
        assert strip(lines1) == strip(linesn)

        def traces(out):
            docs = {}
            for path in sorted((out / "traces").glob("*.json")):
                doc = json.loads(path.read_text())
                del doc["wall_time_seconds"]
                docs[path.name] = doc
            return docs
        assert len(traces(out1)) == workers
        assert traces(out1) == traces(outn)

    def test_fits_in_pool_cells_stay_in_process(self, tmp_path, monkeypatch):
        # a forked child holds only the forking thread: with the GIL off and
        # cells in the pool, no fit forks, however large or many CPUs
        forks = []
        monkeypatch.setattr(runner, "_gil_enabled", lambda: False)
        monkeypatch.setattr(tree, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(tree, "_SHARE_FLOOR", 1)
        monkeypatch.setattr(tree, "_fork_share", lambda *args: forks.append(args))
        run_experiment(_mini_config(tmp_path, workers=2))
        assert forks == []

    def test_classification_dataset_flow(self, tmp_path, small_classification):
        path = tmp_path / "cls.csv"
        write_csv(small_classification, path)
        cfg = ExperimentConfig(
            datasets=[DatasetSpec("cls", Task.CLASSIFICATION, path=str(path))],
            methods=[MethodSpec("subset-v2", dict(MOEA_PARAMS)),
                     MethodSpec("infogain")],
            seeds=[0],
            k_values=[2, "N2"],
            learner=LearnerSpec(n_trees=5),
        )
        rows = run_experiment(cfg)
        ok = [r for r in rows if r.status == "ok"]
        assert ok
        for r in ok:
            assert r.acc_train is not None
            assert r.ba_test is not None
            assert r.rmse_test is None

    def test_config_validation(self):
        with pytest.raises(PermselError):
            ExperimentConfig(datasets=[], methods=[MethodSpec("corr")]).validate()
        with pytest.raises(PermselError):
            MethodSpec("bogus").validate()


class TestConfigFailsFast:
    """Bad configurations raise from run_experiment before any dataset is
    loaded, so no cell spends compute first."""

    @pytest.fixture
    def loads(self, monkeypatch):
        calls = []
        real_load = DatasetSpec.load

        def load(spec):
            calls.append(spec.name)
            return real_load(spec)
        monkeypatch.setattr(DatasetSpec, "load", load)
        return calls

    def test_repeated_method_kind_rejected(self, tmp_path, loads):
        methods = [MethodSpec("subset-v1", dict(MOEA_PARAMS)),
                   MethodSpec("subset-v1", {**MOEA_PARAMS, "init_prob": 0.2})]
        with pytest.raises(PermselError, match="subset-v1"):
            run_experiment(_mini_config(tmp_path, methods=methods))
        assert loads == []

    def test_bad_moea_params_rejected(self, tmp_path, loads):
        methods = [MethodSpec("corr"),
                   MethodSpec("subset-v1", {**MOEA_PARAMS, "population_size": 3})]
        with pytest.raises(PermselError, match="population_size"):
            run_experiment(_mini_config(tmp_path, methods=methods))
        assert loads == []

    def test_infogain_on_regression_rejected(self, tmp_path, loads):
        methods = [MethodSpec("corr"), MethodSpec("infogain")]
        with pytest.raises(PermselError, match="infogain"):
            run_experiment(_mini_config(tmp_path, methods=methods))
        assert loads == []

    @pytest.mark.parametrize("kind, params, message", [
        ("pfi-v1", {"repeats": 0}, "methods[0].repeats"),
        ("pfi-v2", {"repeat": 3}, "methods[0].repeat"),
        ("infogain", {"bins": 1}, "methods[0].bins"),
        ("infogain", {"bins": 2.5}, "methods[0].bins"),
        ("corr", {"bins": 10}, "methods[0].bins"),
        ("all", {"repeats": 1}, "methods[0].repeats"),
        ("subset-v1", {"seed": 3}, "methods[0].seed"),
        ("subset-v2", {"repeats": 3}, "methods[0].repeats"),
        ("subset-v1", {"population_size": 3},
         "methods[0].population_size must be even and >= 4"),
        ("subset-v2", {"generations": "5"},
         "methods[0].generations must be a nonnegative integer"),
        ("subset-v2", {"mutation_prob": 2}, "methods[0].mutation_prob must be in [0, 1]"),
        ("subset-v1", {"init_prob": -0.5},
         "methods[0].init_prob must be null or in [0, 1]"),
    ])
    def test_method_params_checked_per_kind(self, tmp_path, loads,
                                            kind, params, message):
        with pytest.raises(PermselError, match=re.escape(message)):
            run_experiment(_mini_config(tmp_path,
                                        methods=[MethodSpec(kind, params)]))
        assert loads == []

    @pytest.mark.parametrize("learner, message", [
        ({"n_trees": 0}, "learner.n_trees must be an integer >= 1"),
        ({"n_trees": "5"}, "learner.n_trees must be an integer >= 1, got '5'"),
        ({"n_trees": 2.0}, "learner.n_trees"),
        ({"max_features": "half"}, "learner.max_features"),
        ({"max_features": 0}, "learner.max_features"),
        ({"max_depth": -1}, "learner.max_depth"),
        ({"min_samples_split": True}, "learner.min_samples_split"),
        ({"bootstrap": "yes"}, "learner.bootstrap"),
        ({"seed": -1}, "learner.seed"),
    ])
    def test_learner_spec_checked(self, tmp_path, loads, learner, message):
        cfg = dataclasses.replace(_mini_config(tmp_path),
                                  learner=LearnerSpec(**learner))
        with pytest.raises(PermselError, match=re.escape(message)):
            run_experiment(cfg)
        assert loads == []

    @pytest.mark.parametrize("changes, message", [
        ({"workers": "2"}, "workers must be an integer >= 1, got '2'"),
        ({"workers": 0}, "workers"),
        ({"seeds": 3}, "seeds must be a list of integers >= 0, got 3"),
        ({"seeds": [0, 1.5]}, "seeds"),
        ({"seeds": [-1]}, "seeds"),
        ({"k_values": [2, True]}, "k_values"),
        ({"k_values": ["N3"]}, "k_values"),
        ({"k_values": 5}, "k_values"),
        ({"stratified": "no"}, "stratified"),
        ({"output_dir": 7}, "output_dir"),
    ])
    def test_wrong_types_rejected(self, tmp_path, loads, changes, message):
        cfg = dataclasses.replace(_mini_config(tmp_path), **changes)
        with pytest.raises(PermselError, match=re.escape(message)):
            run_experiment(cfg)
        assert loads == []

    @pytest.mark.parametrize("params, message", [
        ({"population_size": "8"}, "population_size"),
        ({"generations": 2.5}, "generations"),
        ({"crossover_prob": "1"}, "crossover_prob"),
        ({"mutation_prob": True}, "mutation_prob"),
        ({"init_prob": "0.5"}, "init_prob"),
    ])
    def test_search_param_types_checked(self, tmp_path, loads, params, message):
        methods = [MethodSpec("subset-v2", {**MOEA_PARAMS, **params})]
        with pytest.raises(PermselError, match=re.escape(message)):
            run_experiment(_mini_config(tmp_path, methods=methods))
        assert loads == []

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw["learner"].update(n_tree=3), "unknown config key 'learner.n_tree'"),
        (lambda raw: raw["learner"].update(seed=7), "unknown config key 'learner.seed'"),
        (lambda raw: raw["datasets"][0]["synthetic"].update(seeed=1),
         "unknown config key 'datasets[0].synthetic.seeed'"),
        (lambda raw: raw["datasets"][0].update(kind="x"),
         "unknown config key 'datasets[0].kind'"),
        (lambda raw: raw.update(worker=2), "unknown config key 'worker'"),
        (lambda raw: raw["methods"][1].update(repeats=0), "methods[1].repeats"),
        (lambda raw: raw["methods"][0].update(generation=10),
         "unknown config key 'methods[0].generation'"),
        (lambda raw: raw["datasets"][0].pop("task"),
         "missing config key 'datasets[0].task'"),
        (lambda raw: raw["methods"][0].pop("kind"),
         "missing config key 'methods[0].kind'"),
        (lambda raw: raw["learner"].update(n_trees=0), "learner.n_trees"),
        (lambda raw: raw["learner"].update(n_trees="5"), "learner.n_trees"),
        (lambda raw: raw.update(workers="2"), "workers"),
        (lambda raw: raw.update(seeds=3), "seeds"),
        (lambda raw: raw["methods"][0].update(generations="5"), "generations"),
        (lambda raw: raw["datasets"][0].update(task=3), "unknown task 3"),
        (lambda raw: raw["datasets"][0]["synthetic"].update(n_instances="50"),
         "datasets[0].synthetic.n_instances must be an integer >= 1, got '50'"),
        (lambda raw: raw["datasets"][0]["synthetic"].update(noise=None),
         "datasets[0].synthetic.noise"),
        ("{", "cfg.json: Expecting property name enclosed in double quotes"),
        ("[]", "the top level must be a JSON object, got []"),
        (lambda raw: raw.update(datasets=5), "datasets must be a list, got 5"),
        (lambda raw: raw["datasets"].append("d"),
         "datasets[1] must be a JSON object, got 'd'"),
        (lambda raw: raw["datasets"][0].update(synthetic=[1]),
         "datasets[0].synthetic must be a JSON object, got [1]"),
        (lambda raw: raw.update(methods=[5]), "methods[0] must be a JSON object, got 5"),
        (lambda raw: raw.update(learner=None), "learner must be a JSON object, got None"),
        (lambda raw: raw["datasets"][0].update(synthetic=None, path=5),
         "datasets[0].path must be a string, got 5"),
        (lambda raw: raw["datasets"][0].update(synthetic=None, path=True),
         "datasets[0].path must be a string, got True"),
        (lambda raw: raw["datasets"][0].update(path=["d.csv"]),
         "datasets[0].path must be a string, got ['d.csv']"),
        (lambda raw: raw["datasets"][0].update(name=7),
         "datasets[0].name must be a string, got 7"),
        (lambda raw: raw["datasets"][0].update(name=None),
         "datasets[0].name must be a string, got None"),
    ])
    def test_load_config_names_bad_key(self, tmp_path, edit, message):
        raw = {
            "datasets": [{"name": "syn", "task": "regression",
                          "synthetic": {"n_instances": 50, "n_features": 5,
                                        "n_informative": 2, "noise": 0.1}}],
            "methods": [{"kind": "subset-v1", "generations": 5},
                        {"kind": "pfi-v1", "repeats": 5}],
            "learner": {"n_trees": 3},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert load_config(path).learner.n_trees == 3
        if isinstance(edit, str):  # the whole file
            path.write_text(edit)
        else:
            edit(raw)
            path.write_text(json.dumps(raw))
        with pytest.raises(PermselError, match=re.escape(message)):
            load_config(path)

    @pytest.mark.parametrize("changes, message", [
        ({"datasets": [SYN, DatasetSpec("d", Task.REGRESSION, path="d.csv",
                                        synthetic=SYN.synthetic)]},
         "datasets[1].path and datasets[1].synthetic: give exactly one"),
        ({"datasets": [SYN, DatasetSpec("d", Task.REGRESSION)]},
         "datasets[1].path and datasets[1].synthetic: give exactly one"),
        ({"datasets": [DatasetSpec("d", Task.CLASSIFICATION,
                                   synthetic=SYN.synthetic)]},
         "datasets[0].task must be regression for synthetic data"),
        ({"datasets": [SYN, dataclasses.replace(SYN, synthetic=None,
                                                path="other.csv")]},
         "dataset name 'syn' given more than once"),
        ({"seeds": [0, 1, 0]}, "seeds must not repeat, got [0, 1, 0]"),
        ({"k_values": [3, 3]}, "k_values must not repeat, got [3, 3]"),
    ])
    def test_dataset_entries_and_seeds_checked(self, tmp_path, loads, changes,
                                               message):
        cfg = dataclasses.replace(_mini_config(tmp_path), **changes)
        with pytest.raises(PermselError, match=re.escape(message)):
            run_experiment(cfg)
        assert loads == []

    def test_rank_checks_method_before_loading(self, tmp_path, monkeypatch, capsys):
        from permsel import cli
        loaded = []
        monkeypatch.setattr(cli, "load_csv", lambda *a, **k: loaded.append(a))
        rc = cli.main(["rank", "--method", "infogain", "--bins", "1",
                       "--data", str(tmp_path / "d.csv"), "--task", "cls"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "permsel: error: --bins must be an integer >= 2"]
        assert loaded == []

    def test_valid_config_loads_datasets(self, tmp_path, loads):
        run_experiment(_mini_config(tmp_path, seeds=(0,),
                                    methods=[MethodSpec("corr")]))
        assert loads == ["syn"]


class TestSelectionIsolation:
    def test_no_selection_method_touches_test_rows(self, small_regression,
                                                   small_classification):
        for ds, methods in (
            (small_regression,
             [MethodSpec("subset-v1", dict(MOEA_PARAMS)),
              MethodSpec("subset-v2", dict(MOEA_PARAMS)),
              MethodSpec("pfi-v1", {"repeats": 1}),
              MethodSpec("pfi-v2", {"repeats": 1}),
              MethodSpec("corr"), MethodSpec("all")]),
            (small_classification,
             [MethodSpec("infogain")]),
        ):
            part = split(ds, seed=0)
            forbidden = set(part.test_idx.tolist())
            for method in methods:
                ds.row_access_log = set()
                run_selection(ds, part, method, seed=0,
                              learner_spec=LearnerSpec(n_trees=3))
                touched = ds.row_access_log
                ds.row_access_log = None
                assert not (touched & forbidden), method.kind


class TestEvaluateSubset:
    def test_empty_subset_rejected(self, small_regression):
        part = split(small_regression, seed=0)
        with pytest.raises(PermselError):
            evaluate_subset(small_regression, part, [], LearnerSpec(n_trees=2), 0)

    def test_regression_metrics_present(self, small_regression):
        part = split(small_regression, seed=0)
        out = evaluate_subset(small_regression, part, [0, 1],
                              LearnerSpec(n_trees=3), 0)
        assert set(out) == {"rmse_train", "nrmse_train", "r2_train",
                            "rmse_test", "nrmse_test", "r2_test"}
        assert out["rmse_train"] >= 0

    def test_constant_test_target_gives_no_r2(self, tmp_path):
        # 56 rows of target 1.0 and 4 of 0.0; some seeds put no 0.0 row in
        # the test split, where R2 is undefined but RMSE is not
        rng = np.random.default_rng(2)
        y = np.ones(60)
        y[:4] = 0.0
        ds = Dataset(rng.standard_normal((60, 3)), y, Task.REGRESSION,
                     ["a", "b", "c"])
        seed = next(s for s in range(100)
                    if np.all(ds.y[split(ds, s).test_idx] == 1.0))
        out = evaluate_subset(ds, split(ds, seed), [0, 1], LearnerSpec(n_trees=3), 0)
        assert out["r2_test"] is None
        assert out["r2_train"] is not None
        assert out["rmse_test"] >= 0 and out["nrmse_test"] >= 0

        path = tmp_path / "const.csv"
        write_csv(ds, path)
        cfg = ExperimentConfig(
            datasets=[DatasetSpec("const", Task.REGRESSION, path=str(path))],
            methods=[MethodSpec("corr"), MethodSpec("all")],
            seeds=[seed], k_values=[2], learner=LearnerSpec(n_trees=3),
            output_dir=str(tmp_path / "out"))
        rows = run_experiment(cfg)
        assert rows and all(r.status == "ok" for r in rows)
        assert all(r.r2_test is None and r.rmse_test is not None for r in rows)
        with open(tmp_path / "out" / "reports" / "report.csv", newline="") as fh:
            report = list(csv.DictReader(fh))
        assert report and all(r["r2_test"] == "" and r["nrmse_test"] != ""
                              for r in report)
        means = aggregate(rows)["means"]
        assert all(m["mean_r2_test"] is None for m in means)

    def test_one_row_test_split_gives_no_r2(self, tmp_path):
        # 5 rows split 3/1/1; R2 of the single test value is undefined
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((5, 3)), rng.standard_normal(5),
                     Task.REGRESSION, ["a", "b", "c"])
        path = tmp_path / "five.csv"
        write_csv(ds, path)
        cfg = ExperimentConfig(
            datasets=[DatasetSpec("five", Task.REGRESSION, path=str(path))],
            methods=[MethodSpec("pfi-v1", {"repeats": 2}),
                     MethodSpec("corr"), MethodSpec("all")],
            seeds=[0], k_values=[2], learner=LearnerSpec(n_trees=3))
        rows = run_experiment(cfg)
        assert len(rows) == 3 and all(r.status == "ok" for r in rows)
        assert all(r.r2_test is None and r.rmse_test is not None
                   and r.r2_train is not None for r in rows)


class TestReportCsv:
    def test_round_trip(self, tmp_path, mini_rows):
        path = tmp_path / "report.csv"
        write_report_csv(path, mini_rows)
        back = read_report_csv(path)
        assert len(back) == len(mini_rows)
        for a, b in zip(mini_rows, back):
            assert a.__dict__ == b.__dict__


class TestAggregate:
    def test_single_method_means_only(self, tmp_path):
        rows = run_experiment(_mini_config(tmp_path, methods=[MethodSpec("corr")]))
        tables = aggregate(rows)
        assert tables["means"]
        assert tables["rankings"] == {}

    def test_identical_methods_no_decisions(self):
        rows = []
        for ds_i in range(6):
            for method in ("m1", "m2"):
                rows.append(ReportRow(f"d{ds_i}", "regression", method, "subset",
                                      0, 3, rmse_test=1.0, nrmse_test=0.5,
                                      r2_test=0.5, rmse_train=0.9,
                                      nrmse_train=0.45, r2_train=0.6))
        tables = aggregate(rows)
        for outcomes in tables["pairwise"].values():
            assert all(not o.significant and o.p_value == 1.0 for o in outcomes)
        for ranking in tables["rankings"].values():
            assert all(r.net == 0 for r in ranking)

    @staticmethod
    def _planted_rows():
        rng = np.random.default_rng(0)
        rows = []
        for ds_i in range(10):
            base = rng.uniform(0.3, 0.5)
            rows.append(ReportRow(f"d{ds_i}", "regression", "good", "subset", 0, 3,
                                  r2_test=base + 0.3, nrmse_test=0.2,
                                  r2_train=base + 0.35, nrmse_train=0.18))
            rows.append(ReportRow(f"d{ds_i}", "regression", "bad", "subset", 0, 3,
                                  r2_test=base, nrmse_test=0.4,
                                  r2_train=base + 0.05, nrmse_train=0.35))
        return rows

    def test_planted_winner_ranks_first(self):
        tables = aggregate(self._planted_rows())
        ranking = tables["rankings"]["r2_test"]
        assert ranking[0].method == "good"
        assert ranking[0].wins == 1

    def test_significant_pair_displays_p_value_alone(self, tmp_path):
        write_summary(tmp_path, aggregate(self._planted_rows()))
        with open(tmp_path / "pairwise_r2_test.csv", newline="") as fh:
            (rec,) = list(csv.DictReader(fh))
        assert rec["significant"] == "True"
        assert rec["p_value"] == repr(2 / 2 ** 10)  # 10 of 10 datasets favour one side
        assert rec["display"] == rec["p_value"]

    def test_overfitting_table_rows(self, mini_rows):
        tables = aggregate(mini_rows)
        entries = {rec["entry"] for rec in tables["overfitting"]}
        assert "subset-v1" in entries
        assert "all" in entries
        for rec in tables["overfitting"]:
            assert "nrmse_ratio" in rec
            assert "r2_diff" in rec

    def test_undefined_overfit_ratio_is_an_empty_cell(self, tmp_path):
        # 10 rows of alternating labels: the forest on all features gets
        # every test row wrong, so the ACC and BA train/test ratios divide
        # by 0; the summary is still written, with those cells empty
        X = np.random.default_rng(1).standard_normal((10, 3))
        path = tmp_path / "ten.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("f0,f1,f2,label\n")
            for i, row in enumerate(X):
                fh.write(",".join(repr(float(v)) for v in row) + f",{'ab'[i % 2]}\n")
        cfg = ExperimentConfig(
            datasets=[DatasetSpec("ten", Task.CLASSIFICATION, path=str(path))],
            methods=[MethodSpec("all")], seeds=[1], k_values=[2],
            learner=LearnerSpec(n_trees=3), output_dir=str(tmp_path / "out"))
        rows = run_experiment(cfg)
        assert [(r.status, r.acc_test, r.ba_test) for r in rows] == [("ok", 0.0, 0.0)]
        with open(tmp_path / "out" / "summary" / "overfitting_classification.csv",
                  newline="") as fh:
            (rec,) = list(csv.DictReader(fh))
        assert rec["acc_ratio"] == rec["ba_ratio"] == ""
        # a regression entry whose mean train nRMSE is 0
        row = ReportRow("d", "regression", "m", "subset", 0, 3, rmse_train=0.0,
                        nrmse_train=0.0, r2_train=1.0, rmse_test=1.0,
                        nrmse_test=0.5, r2_test=0.2)
        (over,) = aggregate([row])["overfitting"]
        assert "nrmse_ratio" not in over and over["r2_diff"] == 0.8

    def test_runtimes_table(self, mini_rows):
        tables = aggregate(mini_rows)
        methods = {rec["method"] for rec in tables["runtimes"]}
        assert {"subset-v1", "pfi-v1", "corr", "all"} <= methods


class TestLoadConfig:
    def test_json_round_trip(self, tmp_path):
        raw = {
            "datasets": [
                {"name": "syn", "task": "regression",
                 "synthetic": {"n_instances": 50, "n_features": 5,
                               "n_informative": 2, "noise": 0.1, "seed": 3}},
            ],
            "methods": [
                {"kind": "subset-v1", "population_size": 10, "generations": 5},
                {"kind": "pfi-v1", "repeats": 5},
            ],
            "seeds": [0, 1, 2],
            "k_values": [10, "N1"],
            "learner": {"n_trees": 20, "max_features": "third"},
            "output_dir": "out",
            "workers": 2,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        cfg = load_config(path)
        cfg.validate()
        assert cfg.datasets[0].synthetic.n_instances == 50
        assert cfg.methods[0].params["population_size"] == 10
        assert cfg.seeds == [0, 1, 2]
        assert cfg.learner.n_trees == 20
        assert cfg.workers == 2

    def test_defaults(self, tmp_path):
        raw = {
            "datasets": [{"name": "d", "task": "reg", "path": "d.csv"}],
            "methods": [{"kind": "corr"}],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        cfg = load_config(path)
        assert cfg.seeds == list(range(10))
        assert cfg.k_values == [10, 100, "N1", "N2"]
        assert cfg.learner.n_trees == 100
        # every omitted key is the dataclass default, stated once there
        defaults = ExperimentConfig(datasets=cfg.datasets, methods=cfg.methods)
        assert cfg == defaults
        assert cfg.learner == LearnerSpec()

    def test_given_values_pass_through(self, tmp_path):
        learner = {"n_trees": 7, "max_features": 3, "min_samples_split": 4,
                   "max_depth": 5, "bootstrap": False}
        top = {"seeds": [4, 2], "k_values": [3, "N2"], "output_dir": "o",
               "stratified": False, "workers": 3}
        raw = {"datasets": [{"name": "d", "task": "cls", "path": "d.csv"}],
               "methods": [{"kind": "all"}], "learner": learner, **top}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        cfg = load_config(path)
        assert cfg.learner == LearnerSpec(**learner)
        for key, value in top.items():
            assert getattr(cfg, key) == value


class TestRunSelection:
    def test_subset_params_default_to_moea_config(self, small_regression):
        part = split(small_regression, seed=0)
        for kind, variant in (("subset-v1", "v1"), ("subset-v2", "v2")):
            # seed and variant always come from the cell, never the params
            method = MethodSpec(kind, {"generations": 1, "seed": 99,
                                       "variant": "v9", "repeats": 3})
            sel = run_selection(small_regression, part, method, seed=2,
                                learner_spec=LearnerSpec(n_trees=2))
            assert sel.trace.config == MoeaConfig(generations=1, seed=2,
                                                  variant=variant)

    def test_fits_with_the_learner_spec_it_is_given(self, small_regression):
        # the cell seed drives the method's own draws, never the forest's
        part = split(small_regression, seed=0)
        contexts = {}
        run_selection(small_regression, part, MethodSpec("pfi-v1"), seed=2,
                      learner_spec=LearnerSpec(n_trees=3), contexts=contexts)
        expected = fit(LearnerSpec(n_trees=3), small_regression.rows(part.train_idx))
        assert contexts["v1"][0].model.to_json() == expected.to_json()

    def test_unknown_kind_raises(self, small_regression):
        # a MethodSpec that never went through validate()
        with pytest.raises(PermselError, match="unknown method kind 'lasso'"):
            run_selection(small_regression, split(small_regression, seed=0),
                          MethodSpec("lasso"), seed=0, learner_spec=LearnerSpec(n_trees=2))

    @staticmethod
    def _six_row_statuses(tmp_path, width):
        # 6 rows split 4/1/1: shuffling one validation row changes nothing,
        # so every v1 merit is 0; v2 scores on 5 rows and stays ok
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((6, width)), rng.standard_normal(6),
                     Task.REGRESSION, [f"f{j}" for j in range(width)])
        path = tmp_path / "six.csv"
        write_csv(ds, path)
        cfg = ExperimentConfig(
            datasets=[DatasetSpec("six", Task.REGRESSION, path=str(path))],
            methods=[MethodSpec("subset-v1", dict(MOEA_PARAMS)),
                     MethodSpec("subset-v2", dict(MOEA_PARAMS))],
            seeds=[0, 1], k_values=[2], learner=LearnerSpec(n_trees=3))
        rows = run_experiment(cfg)
        assert [(r.method, r.status, r.error) for r in rows] == [
            ("subset-v1", "error",
             "subset-v1 found no subset with nonzero merit on 1 evaluation row")] * 2 \
            + [("subset-v2", "ok", "")] * 2

    def test_empty_subset_names_its_cause(self, tmp_path):
        # with 3 columns the empty set's exact 0 wins
        self._six_row_statuses(tmp_path, 3)

    def test_zero_merit_subset_names_its_cause(self, tmp_path):
        # with 12 columns the pick is a nonempty subset whose merit is 0
        self._six_row_statuses(tmp_path, 12)


class TestSharedContext:
    """The subset and PFI methods of one variant score against one forest
    per cell, fitted once."""

    PARAMS = {"subset-v1": MOEA_PARAMS, "subset-v2": MOEA_PARAMS,
              "pfi-v1": {"repeats": 2}, "pfi-v2": {"repeats": 2}, "corr": {},
              "all": {}}

    @pytest.fixture
    def clock(self, monkeypatch):
        """A runner clock that moves only while a context is built, by
        1000 s per build; returns the list of built variants' row counts."""
        now = [0.0]
        builds = []
        real_init = permutation.EvalContext.__init__

        def init(ctx, model, eval_rows, metric):
            builds.append(eval_rows.n_rows)
            now[0] += 1000.0
            real_init(ctx, model, eval_rows, metric)

        class Clock:
            @staticmethod
            def perf_counter():
                return now[0]

        monkeypatch.setattr(permutation.EvalContext, "__init__", init)
        monkeypatch.setattr(runner, "time", Clock)
        return builds

    def _run(self, tmp_path, kinds, seeds=(0, 1)):
        methods = [MethodSpec(k, dict(self.PARAMS[k])) for k in kinds]
        cfg = dataclasses.replace(_mini_config(tmp_path, seeds=seeds, methods=methods),
                                  k_values=[2, 4])
        return run_experiment(cfg)

    def test_one_context_per_variant_and_cell(self, tmp_path, clock):
        rows = self._run(tmp_path, self.PARAMS)
        # two cells of two variants: v1 scores on 12 validation rows, v2 on 48
        assert clock == [12, 48] * 2
        assert all(r.status == "ok" for r in rows)

    def test_pfi_rows_do_not_depend_on_the_subset_methods(self, tmp_path):
        def pfi(rows):
            return [dataclasses.replace(r, runtime_seconds=None)
                    for r in rows if r.method.startswith("pfi")]
        shared = pfi(self._run(tmp_path, self.PARAMS))
        alone = pfi(self._run(tmp_path, ("pfi-v1", "pfi-v2")))
        assert len(alone) == 8 and shared == alone

    def test_every_method_counts_the_shared_fit(self, tmp_path, clock):
        rows = self._run(tmp_path, self.PARAMS, seeds=(0,))
        runtime = {r.method: r.runtime_seconds for r in rows}
        assert runtime == {"subset-v1": 1000.0, "subset-v2": 1000.0,
                           "pfi-v1": 1000.0, "pfi-v2": 1000.0, "corr": 0.0,
                           "all": 0.0}

    def test_all_is_scored_on_the_v2_forest(self, tmp_path, monkeypatch):
        # every feature on the train+validation rows is what the v2 context
        # fitted, so the all rows are scored on that forest without a refit
        def all_rows(rows):
            return [dataclasses.replace(r, runtime_seconds=None)
                    for r in rows if r.method == "all"]
        alone = all_rows(self._run(tmp_path, ("all",)))
        forests = []  # fit is the one-set view of fit_forests
        real_fit = runner.learner_mod.fit_forests
        monkeypatch.setattr(runner.learner_mod, "fit_forests",
                            lambda spec, rows, sets: forests.extend(sets)
                            or real_fit(spec, rows, sets))
        shared = all_rows(self._run(tmp_path, ("subset-v2", "all")))
        # per cell: the v2 context and the subset's evaluation
        assert len(forests) == 4
        assert len(alone) == 2 and shared == alone
