import json

import pytest

from permsel.cli import main
from permsel.dataset import Task, load_csv


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
            "permsel: error: population_size must be even and >= 4"]
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("changes, message", [
        ({"learner": {"n_trees": 0}}, "learner.n_trees must be an integer >= 1, got 0"),
        ({"learner": {"n_trees": "5"}},
         "learner.n_trees must be an integer >= 1, got '5'"),
        ({"workers": "2"}, "workers must be an integer >= 1, got '2'"),
        ({"seeds": 3}, "seeds must be a list of integers >= 0, got 3"),
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
