import os
import re
import signal

import numpy as np
import pytest

from permsel.dataset import Dataset, RowView, SyntheticSpec, Task, generate_synthetic
from permsel.learner import LearnerSpec


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    found = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            if getattr(rep, "when", None) != "call":
                continue
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            m = re.search(r"criterion_(\d+)", nodeid)
            if m:
                found[int(m.group(1))] = (nodeid.split("::")[-1], rep.outcome)
    if found:
        terminalreporter.write_sep("=", "acceptance criteria")
        for num in sorted(found):
            name, outcome = found[num]
            mark = "PASS" if outcome == "passed" else "FAIL"
            terminalreporter.write_line(f"criterion {num:2d}: {mark}  {name}")


# Seconds a test may run before it fails: far above the slowest test (a
# desk-scale criterion, ~25 s on 2 cores), so that a hang, such as a walk
# that never reaches a leaf, fails its test instead of stalling the suite
TEST_TIMEOUT_S = 300


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail the test, naming it, once it has run ``TEST_TIMEOUT_S``
    seconds (where SIGALRM exists). The alarm is disarmed and the old
    handler restored after the test; a forked child inherits no alarm."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    limit = TEST_TIMEOUT_S

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past its {limit} s limit", pytrace=False)

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(limit)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test reaps the processes it starts, such as the children of a
    fit that forks."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class StubModel:
    """Deterministic stand-in satisfying the trained-model contract."""

    def __init__(self, fn, n_features, task=Task.CLASSIFICATION, class_count=2):
        self.fn = fn
        self.n_features = n_features
        self.task = task
        self.class_count = class_count

    def predict(self, X):
        return np.asarray([self.fn(row) for row in np.asarray(X, dtype=float)])


@pytest.fixture
def stump_rows():
    """Single-feature rows a threshold stump classifies perfectly."""
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    return RowView(X, y, Task.CLASSIFICATION, class_count=2)


@pytest.fixture
def stump_model():
    return StubModel(lambda row: int(row[0] > 1.5), n_features=1)


@pytest.fixture
def small_classification():
    rng = np.random.default_rng(42)
    n = 80
    X = rng.standard_normal((n, 5))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(np.int64)
    if np.unique(y).size < 2:  # pragma: no cover
        y[0] = 1 - y[0]
    return Dataset(X, y, Task.CLASSIFICATION, [f"f{i}" for i in range(5)],
                   class_names=["neg", "pos"])


@pytest.fixture
def small_regression():
    return generate_synthetic(SyntheticSpec(80, 6, 2, 0.05, seed=7))


@pytest.fixture
def tiny_learner():
    return LearnerSpec(n_trees=5, seed=0)
