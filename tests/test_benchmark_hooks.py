"""The traced benchmark wraps program functions by name from outside
(``perfbench/layers.py``). Renaming or deleting one of them breaks only
a traced run, so this test resolves every target without wrapping it."""

import importlib
import os
import sys

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


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)  # layers imports tracer as top level
    for name in ("layers", "tracer"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    layers = importlib.import_module("layers")
    tracer = ResolvingTracer()
    layers.instrument(tracer)
    assert "runner.evaluate_subset" in tracer.targets
    assert "runner.ThreadPoolExecutor" in tracer.targets
