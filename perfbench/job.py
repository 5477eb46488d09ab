"""One job of a workload in a fresh interpreter.

Sets up, runs the timed section once (plain or traced), checks the
outputs and writes a JSON result. With mode "setup" it only sets up.

    python3 perfbench/job.py SPEC_JSON SPAWNED_AT RESULT_JSON

SPAWNED_AT is the parent's time.monotonic() taken just before it started
this process, so setup_s includes interpreter start-up and imports.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def timed_section(spec: dict, state: dict) -> dict:
    from permsel import moea

    import layers
    import workloads
    from tracer import NAME, Tracer, nesting_errors

    traced = spec["mode"] == "traced"
    if traced:
        tracer = Tracer()
        layers.instrument(tracer)
    else:  # count merit calls only, for the invariant
        merit, calls = moea.merit, [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return merit(*args, **kwargs)

        moea.merit = counted
    t0, cpu0 = time.perf_counter(), time.process_time()
    if traced:
        out = tracer.call("bench.job", workloads.run,
                          (spec, state, spec["job_dir"]), {})
    else:
        out = workloads.run(spec, state, spec["job_dir"])
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0

    res = workloads.check_outputs(spec, out)
    res.update(wall_s=wall, cpu_s=cpu, evals=workloads.expected_merit_calls(spec),
               cells=workloads.cells(spec))
    if traced:
        tracer.restore()
        spans = tracer.spans
        n_merit = sum(1 for s in spans if s[NAME] == "permutation.merit")
        res["metrics"] = layers.layer_metrics(spans, wall, spec.get("workers", 1))
        res["errors"] += nesting_errors(spans)
        with open(spec["spans_out"], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "thread", "name", "start",
                                  "end", "attrs"], "spans": spans}, fh)
    else:
        n_merit = calls[0]
    if n_merit != res["evals"]:
        res["errors"].append(f"{n_merit} merit calls, expected {res['evals']}")
    if res["errors"]:
        res["failed"] = res["attempted"]
    return res


def main(argv) -> int:
    spec_path, spawned, result_path = argv[1], float(argv[2]), argv[3]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import workloads
    state = workloads.setup(spec)
    setup_s = time.monotonic() - spawned

    import permsel
    src = os.path.realpath(spec["src"]) + os.sep
    if not os.path.realpath(permsel.__file__).startswith(src):
        raise SystemExit(f"permsel imported from {permsel.__file__}, not {src}")
    result = {"setup_s": setup_s}
    if spec["mode"] != "setup":
        result.update(timed_section(spec, state))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
