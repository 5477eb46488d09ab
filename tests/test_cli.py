import csv
import json

import numpy as np
import pytest

from permsel import cli, moea, runner
from permsel.cli import main
from permsel.dataset import Dataset, Task, load_csv, split, write_csv
from permsel.learner import LearnerSpec
from permsel.moea import MoeaConfig
from permsel.runner import MethodSpec, ReportRow, run_selection, write_report_csv


def _synth_csv(tmp_path, name="data.csv"):
    path = tmp_path / name
    rc = main(["synth", "--spec", "40,5,2,0.1", "--out", str(path), "--seed", "3"])
    assert rc == 0
    return path


class TestSynth:
    def test_writes_loadable_csv(self, tmp_path):
        path = _synth_csv(tmp_path)
        ds = load_csv(path, Task.REGRESSION)
        assert ds.n_rows == 40
        assert ds.n_features == 5


class TestRank:
    def test_corr_to_file(self, tmp_path):
        data = _synth_csv(tmp_path)
        out = tmp_path / "rank.csv"
        rc = main(["rank", "--method", "corr", "--data", str(data),
                   "--task", "reg", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "feature,name,score"
        assert len(lines) == 6

    def test_pfi_top_k_stdout(self, tmp_path, capsys):
        data = _synth_csv(tmp_path)
        capsys.readouterr()  # drop the synth command's output
        rc = main(["rank", "--method", "pfi-v1", "--data", str(data),
                   "--task", "reg", "--trees", "3", "--k", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "feature,name,score"
        assert len(lines) == 3

    @pytest.mark.parametrize("method", ["pfi-v2", "corr"])
    def test_scores_parse_as_the_ranker_computed_them(self, tmp_path, method):
        data = _synth_csv(tmp_path)
        out = tmp_path / "rank.csv"
        rc = main(["rank", "--method", method, "--data", str(data), "--task", "reg",
                   "--trees", "3", "--seed", "2", "--out", str(out)])
        assert rc == 0
        ds = load_csv(data, Task.REGRESSION)
        sel = run_selection(ds, split(ds, 2, stratified=False), MethodSpec(method),
                            2, LearnerSpec(n_trees=3, seed=2))
        with open(out, newline="", encoding="utf-8") as fh:
            written = {int(r["feature"]): float(r["score"]) for r in csv.DictReader(fh)}
        assert written == dict(enumerate(sel.scores.scores.tolist()))

    @pytest.mark.parametrize("to_file", [False, True])
    def test_names_that_need_quoting_round_trip(self, tmp_path, capsys, to_file):
        names = ["a,b", 'say "hi"', "d"]
        rng = np.random.default_rng(4)
        data = tmp_path / "q.csv"
        with open(data, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(names + ["target"])
            writer.writerows([*rng.random(3).tolist(), i % 2] for i in range(20))
        out = tmp_path / "rank.csv"
        argv = ["rank", "--method", "corr", "--data", str(data), "--task", "cls"]
        assert main(argv + (["--out", str(out)] if to_file else [])) == 0
        text = out.read_text(encoding="utf-8") if to_file else capsys.readouterr().out
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["feature", "name", "score"]
        assert all(len(r) == 3 for r in rows)
        assert {(int(r[0]), r[1]) for r in rows[1:]} == set(enumerate(names))


class TestSelect:
    def test_select_with_trace(self, tmp_path, capsys):
        data = _synth_csv(tmp_path)
        trace_path = tmp_path / "trace.json"
        rc = main(["select", "--variant", "v1", "--data", str(data),
                   "--task", "reg", "--pop", "8", "--gens", "2",
                   "--seed", "1", "--trees", "3",
                   "--trace-out", str(trace_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "selected" in out
        trace = json.loads(trace_path.read_text())
        assert trace["variant"] == "v1"
        assert len(trace["hypervolume"]) == 3

    def test_trace_is_the_search_with_learner_seed_0(self, tmp_path):
        # --seed drives the split and the search; the forest keeps seed 0
        # until the benchmark's wide references are re-recorded (ROADMAP 5)
        data = _synth_csv(tmp_path)
        trace_path = tmp_path / "trace.json"
        rc = main(["select", "--variant", "v2", "--data", str(data), "--task", "reg",
                   "--pop", "8", "--gens", "2", "--seed", "2", "--trees", "3",
                   "--trace-out", str(trace_path)])
        assert rc == 0
        ds = load_csv(data, Task.REGRESSION)
        expected = moea.evolve(ds, split(ds, 2, stratified=False), LearnerSpec(n_trees=3),
                               MoeaConfig(population_size=8, generations=2, seed=2,
                                          variant="v2")).to_json_dict()
        written = json.loads(trace_path.read_text())
        for doc in (written, expected):
            del doc["wall_time_seconds"]
        assert written == json.loads(json.dumps(expected))

    @pytest.mark.parametrize("width", [3, 12])
    def test_zero_merit_pick_fails_as_run_does(self, tmp_path, capsys, width):
        # 6 rows split 4/1/1: shuffling the one v1 validation row changes
        # nothing, so every merit is 0 (the data of test_runner's six-row tests)
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((6, width)), rng.standard_normal(6),
                     Task.REGRESSION, [f"f{j}" for j in range(width)])
        write_csv(ds, tmp_path / "six.csv")
        trace_path = tmp_path / "trace.json"
        rc = main(["select", "--variant", "v1", "--data", str(tmp_path / "six.csv"),
                   "--task", "reg", "--pop", "4", "--gens", "2", "--trees", "3",
                   "--trace-out", str(trace_path)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "permsel: error: subset-v1 found no subset with nonzero merit "
            "on 1 evaluation row"]
        assert not trace_path.exists()


def test_select_and_rank_call_run_selection_on_the_runner(tmp_path, monkeypatch):
    # the benchmark times selection by wrapping runner.run_selection
    data = _synth_csv(tmp_path)
    calls, real = [], runner.run_selection

    def spy(*args, **kwargs):
        calls.append(args[2].kind)
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "run_selection", spy)
    assert main(["select", "--variant", "v1", "--data", str(data), "--task", "reg",
                 "--pop", "4", "--gens", "1", "--trees", "2"]) == 0
    assert main(["rank", "--method", "corr", "--data", str(data), "--task", "reg"]) == 0
    assert calls == ["subset-v1", "corr"]


class TestRunAndReport:
    def test_run_then_report(self, tmp_path, capsys):
        data = _synth_csv(tmp_path)
        out_dir = tmp_path / "results"
        cfg = {
            "datasets": [{"name": "syn", "task": "reg", "path": str(data)}],
            "methods": [
                {"kind": "subset-v1", "population_size": 8, "generations": 2},
                {"kind": "corr"},
            ],
            "seeds": [0],
            "k_values": [2, "N1"],
            "learner": {"n_trees": 3},
            "output_dir": str(out_dir),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 0
        assert (out_dir / "reports" / "report.csv").exists()
        assert (out_dir / "summary" / "means.csv").exists()

        import shutil
        shutil.rmtree(out_dir / "summary")
        rc = main(["report", "--in", str(out_dir)])
        assert rc == 0
        assert (out_dir / "summary" / "means.csv").exists()

    def test_workers_and_out_flags_override_config(self, tmp_path, monkeypatch):
        data = _synth_csv(tmp_path)
        cfg = {
            "datasets": [{"name": "syn", "task": "reg", "path": str(data)}],
            "methods": [{"kind": "corr"}],
            "seeds": [0, 1],
            "learner": {"n_trees": 3},
            "workers": 1,
            "output_dir": str(tmp_path / "from_config"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        seen = []
        real_run = cli.run_experiment
        monkeypatch.setattr(cli, "run_experiment",
                            lambda c: seen.append(c) or real_run(c))
        out_dir = tmp_path / "from_flag"
        rc = main(["run", "--config", str(cfg_path), "--workers", "2",
                   "--out", str(out_dir)])
        assert rc == 0
        assert (seen[0].workers, seen[0].output_dir) == (2, str(out_dir))
        assert (out_dir / "reports" / "report.csv").exists()
        assert not (tmp_path / "from_config").exists()


class TestErrors:
    def test_config_error_is_one_line(self, tmp_path, capsys):
        data = _synth_csv(tmp_path)
        cfg = {
            "datasets": [{"name": "syn", "task": "reg", "path": str(data)}],
            "methods": [{"kind": "subset-v1", "population_size": 3}],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "permsel: error: methods[0].population_size must be even and >= 4, got 3"]
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("changes, message", [
        ({"learner": {"n_trees": 0}}, "learner.n_trees must be an integer >= 1, got 0"),
        ({"learner": {"n_trees": "5"}},
         "learner.n_trees must be an integer >= 1, got '5'"),
        ({"workers": "2"}, "workers must be an integer >= 1, got '2'"),
        ({"seeds": 3}, "seeds must be a list of integers >= 0, got 3"),
        ({"datasets": [{"name": "syn", "task": "reg", "path": True}]},
         "datasets[0].path must be a string, got True"),
        ({"datasets": [{"name": "a/b", "task": "reg", "path": "missing.csv"}]},
         "datasets[0].name must be free of path separators and NUL, got 'a/b'"),
        ({"datasets": [{"name": "a\0b", "task": "reg", "path": "missing.csv"}]},
         "datasets[0].name must be free of path separators and NUL, got 'a\\x00b'"),
    ])
    def test_wrong_value_is_one_line(self, tmp_path, capsys, changes, message):
        data = _synth_csv(tmp_path)
        cfg = {
            "datasets": [{"name": "syn", "task": "reg", "path": str(data)}],
            "methods": [{"kind": "corr"}],
            **changes,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"permsel: error: {message}"]
        assert not (tmp_path / "o").exists()

    def test_config_that_does_not_parse_is_one_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"datasets": [')
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"permsel: error: {cfg_path}: Expecting value")

    @pytest.mark.parametrize("fault, where", [
        ("header", "line 1: no column 'method'"),
        ("seed", "line 3: column 'seed': 'x' is not a valid int"),
        ("short_row", "line 2: no cell for column 'selected_count'"),
        ("task", "line 3: column 'task' must be 'classification' or 'regression', "
                 "got 'cls'"),
    ])
    def test_report_fault_is_one_line(self, tmp_path, capsys, fault, where):
        report = tmp_path / "reports" / "report.csv"
        report.parent.mkdir()
        write_report_csv(report, [ReportRow("d", "regression", "corr", "5", seed)
                                  for seed in (0, 1)])
        lines = report.read_text().splitlines()
        if fault == "header":
            lines[0] = "dataset,task"
        elif fault == "seed":
            lines[2] = lines[2].replace("corr,5,1,", "corr,5,x,")
        elif fault == "task":
            lines[2] = lines[2].replace("d,regression,", "d,cls,")
        else:
            lines[1] = "d,regression,corr,5,0"
        report.write_text("\n".join(lines) + "\n")
        rc = main(["report", "--in", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"permsel: error: {report}: {where}"]
        assert not (tmp_path / "summary").exists()

    @pytest.mark.parametrize("fault", [b"caf\xe9", b"9" * 131073],
                             ids=["latin1", "long_cell"])
    def test_report_bytes_fault_is_one_line(self, tmp_path, capsys, fault):
        # a byte that is not UTF-8, or a cell over the csv field limit
        report = tmp_path / "reports" / "report.csv"
        report.parent.mkdir()
        write_report_csv(report, [ReportRow("d", "regression", "corr", "5", 0)])
        report.write_bytes(report.read_bytes().replace(b"corr", fault))
        rc = main(["report", "--in", str(tmp_path)])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"permsel: error: {report}: ")
        assert not (tmp_path / "summary").exists()

    @pytest.mark.parametrize("fault", ["latin1", "long_cell", "missing",
                                       "latin1_late", "long_cell_late"])
    @pytest.mark.parametrize("command", ["rank", "select", "run"])
    def test_file_fault_is_one_line(self, tmp_path, capsys, command, fault):
        data = tmp_path / "data.csv"
        if fault == "latin1":
            data.write_bytes(b"a,b,target\n1,2,3\n1,2,caf\xe9\n")
        elif fault == "long_cell":
            data.write_text("a,b,target\n1," + "9" * 131073 + ",3\n")
        elif fault == "latin1_late":
            # past the first 8 KiB, which reading the header decodes
            data.write_bytes(b"a,b,target\n" + b"1,2,3\n" * 2000 + b"1,2,caf\xe9\n")
        elif fault == "long_cell_late":
            data.write_text("a,b,target\n1,2,3\n1,2,3\n1," + "9" * 131073 + ",3\n")
        if command == "run":
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({
                "datasets": [{"name": "d", "task": "reg", "path": str(data)}],
                "methods": [{"kind": "corr"}]}))
            argv = ["run", "--config", str(cfg_path)]
        elif command == "rank":
            argv = ["rank", "--method", "corr", "--data", str(data), "--task", "reg"]
        else:
            argv = ["select", "--variant", "v1", "--data", str(data), "--task", "reg"]
        rc = main(argv)
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("permsel: error: ") and str(data) in lines[0]
        if fault.startswith("latin1"):
            assert "can't decode byte 0xe9" in lines[0]
        elif fault.startswith("long_cell"):
            assert "field larger than field limit (131072)" in lines[0]

    @pytest.mark.parametrize("argv, message", [
        (["select", "--variant", "v1", "--pop", "3"],
         "population_size must be even and >= 4, got 3"),
        (["select", "--variant", "v2", "--gens", "-1"],
         "generations must be a nonnegative integer, got -1"),
        (["select", "--variant", "v1", "--mutation", "1.5"],
         "mutation_prob must be in [0, 1], got 1.5"),
        (["select", "--variant", "v1", "--trees", "0"],
         "n_trees must be an integer >= 1, got 0"),
        (["select", "--variant", "v1", "--seed", "-1"],
         "seed must be an integer >= 0, got -1"),
        (["rank", "--method", "pfi-v1", "--trees", "0"],
         "n_trees must be an integer >= 1, got 0"),
        (["rank", "--method", "corr", "--seed", "-1"],
         "seed must be an integer >= 0, got -1"),
        (["rank", "--method", "corr", "--k", "0"], "--k must be an integer >= 1, got 0"),
        (["rank", "--method", "corr", "--repeats", "3"],
         "unknown config key '--repeats'"),
        (["rank", "--method", "pfi-v2", "--bins", "4"], "unknown config key '--bins'"),
        (["rank", "--method", "infogain"],
         "infogain needs classification data; --task is reg"),
    ])
    def test_flags_checked_before_the_csv_is_read(self, tmp_path, capsys, argv,
                                                  message):
        rc = main(argv + ["--data", str(tmp_path / "missing.csv"), "--task", "reg"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"permsel: error: {message}"]

    @pytest.mark.parametrize("spec", ["10,5,x,0.1", "10,5,2"])
    def test_bad_synth_spec_is_one_line(self, tmp_path, capsys, spec):
        rc = main(["synth", "--spec", spec, "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"permsel: error: --spec expects n,features,informative,noise, got {spec!r}"]
        assert not (tmp_path / "s.csv").exists()
