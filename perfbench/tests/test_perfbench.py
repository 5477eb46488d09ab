"""Tests of the benchmark's own machinery (not of permsel).

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from check import (  # noqa: E402
    digest,
    job_verdicts,
    report_without_runtime,
    selection_outputs,
    trace_invariants,
    trace_without_wall,
)
from layers import PER_LAYER  # noqa: E402
from run import END_TO_END, ROOT, count_operations  # noqa: E402
from tracer import Tracer, nesting_errors, self_times  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------ self time

def test_self_times_on_hand_built_tree():
    # id, parent, thread, name, start, end, attrs
    spans = [
        [0, None, 1, "root", 0.0, 10.0, None],
        [1, 0, 1, "a", 1.0, 4.0, None],
        [2, 1, 1, "b", 2.0, 3.0, None],
        [3, 0, 1, "c", 5.0, 9.0, None],
        [4, 0, 2, "cell", 2.0, 8.0, None],   # submitted to another thread
        [5, 4, 2, "fit", 3.0, 5.0, None],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 4.0, 2.0]
    assert nesting_errors(spans) == []
    # with sound nesting, self times partition the per-thread roots
    assert sum(self_times(spans)) == 10.0 + 6.0


def test_nesting_errors_catch_overlap_and_escape():
    overlapping = [
        [0, None, 1, "root", 0.0, 10.0, None],
        [1, 0, 1, "a", 1.0, 6.0, None],
        [2, 0, 1, "b", 4.0, 9.0, None],      # starts before a ends
    ]
    errors = nesting_errors(overlapping)
    assert any("overlap" in e for e in errors)
    escaping = [
        [0, None, 1, "root", 0.0, 10.0, None],
        [1, 0, 1, "a", 8.0, 12.0, None],     # ends after its parent
        [2, 0, 2, "cell", 5.0, 20.0, None],  # other thread: may outlive it
    ]
    errors = nesting_errors(escaping)
    assert errors == ["span 1 a is not inside its parent 0 root"]
    leaked = [
        [0, None, 1, "root", 0.0, 10.0, None],
        [1, 0, 1, "a", 0.0, 7.0, None],
        [2, 0, 1, "b", 2.0, 9.0, None],
        [3, 0, 1, "c", 3.0, 8.0, None],
    ]
    errors = nesting_errors(leaked)
    assert any("self time" in e for e in errors)


def test_tracer_nests_spans_and_restores():
    class Box:
        @staticmethod
        def inner():
            return 7

        @staticmethod
        def outer():
            return Box.inner() + 1

    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    original = Box.inner
    tracer.wrap(Box, "inner", "inner", lambda a, k, r, s: {"r": r})
    tracer.wrap(Box, "outer", "outer")
    assert Box.outer() == 8
    tracer.restore()
    assert Box.inner is original
    outer, inner = sorted(tracer.spans, key=lambda s: s[3], reverse=True)
    assert inner[1] == outer[0] and inner[6] == {"r": 7}
    # outer spans ticks 0..3, inner 1..2
    assert self_times(tracer.spans) == [2.0, 1.0]


# --------------------------------------------------------------- digest

REPORT = ("dataset,method,k_label,seed,ba_test,runtime_seconds,status,error\n"
          "a,corr,5,0,0.75,{rt},ok,\n")


def _trace(wall=1.5, merit=0.25):
    return {"seed": 0, "hypervolume": [0.1, 0.2],
            "front": [[merit, 2, "c0"], [0.125, 1, "80"]],
            "best": {"merit": merit, "cardinality": 2, "chromosome_hex": "c0"},
            "wall_time_seconds": wall}


def test_digest_ignores_runtime_fields():
    a = digest({"report": report_without_runtime(REPORT.format(rt=0.5)),
                "traces": {"t": trace_without_wall(_trace(wall=1.0))}})
    b = digest({"report": report_without_runtime(REPORT.format(rt=9.25)),
                "traces": {"t": trace_without_wall(_trace(wall=3.0))}})
    assert a == b


def test_digest_changes_with_one_front_entry():
    base = digest(selection_outputs(_trace(), 8, 0.5))
    moved = digest(selection_outputs(_trace(merit=0.26), 8, 0.5))
    assert base != moved
    sweep_a = digest({"traces": {"t": trace_without_wall(_trace())}})
    sweep_b = digest({"traces": {"t": trace_without_wall(_trace(merit=0.26))}})
    assert sweep_a != sweep_b


def test_selection_outputs_reads_hex_msb_first():
    assert selection_outputs(_trace(), 8, 0.5)["selected"] == [0, 1]


def test_trace_invariants():
    assert trace_invariants(_trace(), generations=1) == []
    bad = _trace()
    bad["front"].append([0.5, 1, "80"])          # dominates both entries
    bad["front"].append([0.1, 3, "80"])          # popcount 1, not 3
    errors = trace_invariants(bad, generations=2)
    assert any("dominates entry 0" in e for e in errors)
    assert any("popcount 1 != cardinality 3" in e for e in errors)
    assert any("hypervolume" in e for e in errors)


# ------------------------------------------------------------ reference

def test_corrupted_reference_is_a_failure():
    good = digest({"x": 1})
    corrupted = good[:-1] + ("0" if good[-1] != "0" else "1")
    assert job_verdicts([good, good], good) == [True, True]
    assert job_verdicts([good, good], corrupted) == [False, False]
    jobs = [{"digest": good, "attempted": 38, "failed": 0}] * 2
    assert count_operations(jobs, good) == (76, 0)
    assert count_operations(jobs, corrupted) == (76, 76)


def test_unknown_seed_only_needs_agreement():
    assert job_verdicts(["a", "a"], None) == [True, True]
    assert job_verdicts(["a", "b"], None) == [False, False]
    jobs = [{"digest": "a", "attempted": 1, "failed": 0}, {"crash": "killed"}]
    assert count_operations(jobs, None) == (2, 1)


def test_stored_references_are_sha256():
    with open(os.path.join(os.path.dirname(HERE), "references.json")) as fh:
        refs = json.load(fh)
    assert set(refs) == set(workloads.NAMES)
    for per_seed in refs.values():
        for seed, value in per_seed.items():
            assert int(seed) >= 0 and len(value) == 64
            int(value, 16)


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)


# ----------------------------------------------------------- generators

def _input_bytes(workload, seed, work_dir):
    spec = workloads.make_inputs(workload, seed, str(work_dir))
    files = {}
    for name in sorted(os.listdir(work_dir)):
        with open(os.path.join(work_dir, name), "rb") as fh:
            files[name] = fh.read().replace(str(work_dir).encode(), b"DIR")
    spec = {k: v.replace(str(work_dir), "DIR") if isinstance(v, str) else v
            for k, v in spec.items()}
    return spec, files


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    first = _input_bytes(workload, 3, tmp_path / "a")
    again = _input_bytes(workload, 3, tmp_path / "b")
    other = _input_bytes(workload, 4, tmp_path / "c")
    assert first == again
    assert first != other
