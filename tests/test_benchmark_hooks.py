"""The traced benchmark wraps program functions by name from outside
(``perfbench/layers.py``). Renaming or deleting one of them, or changing
what a span's attrs function reads, breaks only a traced run. So one test
resolves every target without wrapping it, and one runs each traced entry
point under the benchmark's own tracer."""

import importlib
import json
import os
import sys

from permsel import cli, moea, runner
from permsel.dataset import split, write_csv
from permsel.learner import LearnerSpec

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


class ResolvingTracer:
    """Stands in for the benchmark's tracer: looks each target up, changes
    nothing."""

    def __init__(self):
        self.targets = []

    def wrap(self, owner, attr, name, attrs=None):
        getattr(owner, attr)  # AttributeError names a missing target
        self.targets.append(f"{owner.__name__.rpartition('.')[2]}.{attr}")

    def patch(self, owner, attr, value):
        self.wrap(owner, attr, None)

    def traced_pool(self):
        return None


def _perfbench(monkeypatch, name):
    monkeypatch.syspath_prepend(PERFBENCH)  # layers imports tracer as top level
    for loaded in ("layers", "tracer"):
        monkeypatch.delitem(sys.modules, loaded, raising=False)
    return importlib.import_module(name)


def test_every_traced_target_resolves(monkeypatch):
    layers = _perfbench(monkeypatch, "layers")
    tracer = ResolvingTracer()
    layers.instrument(tracer)
    assert "runner.evaluate_subset" in tracer.targets
    assert "runner.ThreadPoolExecutor" in tracer.targets


def test_traced_entry_points_give_every_metric(monkeypatch, tmp_path,
                                               small_classification):
    layers = _perfbench(monkeypatch, "layers")
    from tracer import ATTRS, NAME, Tracer, nesting_errors

    class RecordingTracer(Tracer):
        """The benchmark's tracer, noting which span names have attrs."""

        def __init__(self):
            super().__init__()
            self.with_attrs = set()

        def wrap(self, owner, attr, name, attrs=None):
            if attrs is not None:
                self.with_attrs.add(name)
            super().wrap(owner, attr, name, attrs)

    ds = small_classification
    data = tmp_path / "d.csv"
    write_csv(ds, data)
    part = split(ds, 0, stratified=True)
    kinds = ["subset-v1", "subset-v2", "pfi-v1", "pfi-v2", "corr", "infogain", "all"]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "datasets": [{"name": "d", "task": "cls", "path": str(data)}],
        "methods": [{"kind": k, **({"population_size": 4, "generations": 1}
                                   if k.startswith("subset") else {})}
                    for k in kinds],
        "seeds": [0, 1], "k_values": [2, "N1", "N2"], "learner": {"n_trees": 2},
        "workers": 2}))
    tracer = RecordingTracer()
    layers.instrument(tracer)
    try:
        trace = moea.evolve(ds, part, LearnerSpec(n_trees=2),
                            moea.MoeaConfig(population_size=4, generations=1))
        runner.evaluate_subset(ds, part, trace.selected_features(),
                               LearnerSpec(n_trees=2), 0)
        assert cli.main(["select", "--variant", "v2", "--data", str(data),
                         "--task", "cls", "--pop", "4", "--gens", "1",
                         "--trees", "2"]) == 0
        assert cli.main(["run", "--config", str(config),
                         "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.restore()
    spans = tracer.spans
    assert nesting_errors(spans) == []
    fired = {s[NAME] for s in spans}
    assert {"learner.predict", "learner.fit", "permutation.merit",
            "runner.evaluate_subset", "dataset.load_csv", "runner.cell"} <= fired
    assert [s[NAME] for s in spans
            if s[NAME] in tracer.with_attrs and s[ATTRS] is None] == []
    metrics = layers.layer_metrics(spans, 1.0, 2)
    assert set(metrics) == set(layers.PER_LAYER) - {"trace.overhead_frac"}
