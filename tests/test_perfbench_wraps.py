"""A name that ``src/permsel`` imports only for the benchmark carries a
``perfbench wraps <module>.<name>`` comment. Each such comment must name
a target that ``perfbench/layers.py`` still wraps, so that an import left
behind by a dropped wrap fails here rather than lingering unused."""

import os
import re

from test_benchmark_hooks import ResolvingTracer, _perfbench

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "permsel")
COMMENT = re.compile(r"#.*\bperfbench wraps (\w+)\.(\w+)")


def _wrap_comments():
    """(file, module, name) of every such comment, in file order."""
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                found += [(name,) + m.groups() for m in map(COMMENT.search, fh) if m]
    return found


def test_every_wrap_comment_names_a_wrapped_target(monkeypatch):
    comments = _wrap_comments()
    assert comments  # the pattern still matches the comments' wording
    tracer = ResolvingTracer()
    _perfbench(monkeypatch, "layers").instrument(tracer)
    for file, module, name in comments:
        assert file == f"{module}.py", f"{file} names {module}.{name}"
        assert f"{module}.{name}" in tracer.targets, f"{file}: {module}.{name}"
