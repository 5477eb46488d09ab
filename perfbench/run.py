"""permsel benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload desk|wide|sweep --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Inputs are made from --seed under
.perfbench/ in the checkout. Each job is a fresh interpreter
(perfbench/job.py) that sets up, runs the workload once and checks its
outputs; jobs repeat until the next one would end after --seconds. A
job is a closed loop with one client: it submits one run and waits.

--trace 0 prints the end-to-end metrics, medians over the jobs; set-up
is also sampled by batches of SETUP_BATCH set-up-only processes before
each job and after the last one, so the samples span the whole run.
--trace 1 alternates plain and traced jobs and prints the per-layer
metrics of the traced ones, plus the tracing overhead against the plain
ones. The last line of standard output is the JSON result; the line
before it holds the environment, the quality figures and the per-job
details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCES = os.path.join(HERE, "references.json")

MIN_JOBS = 2
SETUP_BATCH = 4
HARD_LIMIT_S = 165.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "1/s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, or None when it is not a git repository.
    Git does not look above the checkout, so an enclosing repository's
    commit is never reported."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src: str) -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for d, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(SRC),
    }


def host_loop_s() -> float:
    """Seconds a fixed pure-Python loop takes now. The load average only
    shows this machine's own processes; this also rises when the host
    under a virtual machine is busy."""
    t = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i & 7
    return time.perf_counter() - t


def run_job(spec: dict, mode: str, tag: str, deadline: float) -> dict:
    """Run one job process; returns its result, or {"crash": message}."""
    job_dir = os.path.join(spec["work_dir"], tag)
    os.makedirs(job_dir, exist_ok=True)
    job_spec = dict(spec, src=SRC, mode=mode, job_dir=job_dir,
                    spans_out=os.path.join(WORK, f"spans-{spec['workload']}"
                                                 f"-seed{spec['seed']}.json"))
    spec_path = os.path.join(job_dir, "spec.json")
    result_path = os.path.join(job_dir, "result.json")
    log_path = os.path.join(job_dir, "log.txt")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(job_spec, fh)
    timeout = deadline - time.monotonic()
    if timeout <= 1.0:
        return {"crash": "no time left for the job"}
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "job.py"), spec_path,
                 repr(spawned), result_path],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"crash": f"job killed after {timeout:.0f} s"}
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        return {"crash": f"job exited with {proc.returncode}: {tail}"}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["mode"] = mode
    result["elapsed_s"] = time.monotonic() - spawned
    return result


def load_reference(workload: str, seed: int) -> str | None:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def count_operations(jobs: list[dict], reference: str | None) -> tuple[int, int]:
    """(attempted, failed) operations over a run's jobs.

    A job whose outputs fail the check counts all its operations as
    failed; a job that crashed counts as many as a finished one.
    """
    from check import job_verdicts
    done = [j for j in jobs if "crash" not in j]
    verdicts = job_verdicts([j["digest"] for j in done], reference)
    ops_per_job = max((j["attempted"] for j in done), default=1)
    attempted = failed = 0
    for j, ok in zip(done, verdicts):
        attempted += j["attempted"]
        failed += j["failed"] if ok else j["attempted"]
    crashed = len(jobs) - len(done)
    return attempted + crashed * ops_per_job, failed + crashed * ops_per_job


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Make the inputs, run jobs for `seconds`, and return everything."""
    import workloads

    t_start = time.monotonic()
    deadline = t_start + HARD_LIMIT_S
    load_start, loop_start = os.getloadavg()[0], host_loop_s()
    work_dir = os.path.join(WORK, f"run-{os.getpid()}")
    try:
        spec = workloads.make_inputs(workload, seed, work_dir)
        jobs: list[dict] = []
        probes: list[dict] = []

        def probe_batch():
            for _ in range(0 if trace else SETUP_BATCH):
                probes.append(run_job(spec, "setup", f"setup{len(probes)}",
                                      deadline))

        t_loop = time.monotonic()
        while True:
            if len(jobs) >= MIN_JOBS:
                est = statistics.median(j.get("elapsed_s", 0.0) for j in jobs)
                if time.monotonic() - t_loop + est > seconds:
                    break
            probe_batch()
            mode = "traced" if trace and len(jobs) % 2 else "plain"
            jobs.append(run_job(spec, mode, f"job{len(jobs)}", deadline))
            if "crash" in jobs[-1] and time.monotonic() > deadline - 5:
                break
        probe_batch()
        setups = [j["setup_s"] for j in jobs + probes if "setup_s" in j]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    done = [j for j in jobs if "crash" not in j]
    reference = load_reference(workload, seed)
    attempted, failed = count_operations(jobs, reference)
    return {"jobs": jobs, "done": done, "setups": setups,
            "reference": reference, "attempted": attempted, "failed": failed,
            "load_avg_1m": [load_start, os.getloadavg()[0]],
            "host_loop_s": [loop_start, host_loop_s()]}


def end_to_end(m: dict) -> dict:
    done = m["done"]
    med = statistics.median
    values = {
        "setup_s": med(m["setups"]),
        "wall_s": med(j["wall_s"] for j in done),
        "evals_per_s": med(j["evals"] / j["wall_s"] for j in done),
        "cells_per_s": med(j["cells"] / j["wall_s"] for j in done),
        "peak_rss_mb": med(j["peak_rss_mb"] for j in done),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(m: dict) -> dict:
    from layers import PER_LAYER
    traced = [j for j in m["done"] if j["mode"] == "traced"]
    plain = [j for j in m["done"] if j["mode"] == "plain"]
    values = {k: statistics.median(j["metrics"][k] for j in traced)
              for k in PER_LAYER if k != "trace.overhead_frac"}
    values["trace.overhead_frac"] = (
        statistics.median(j["wall_s"] for j in traced)
        / statistics.median(j["wall_s"] for j in plain) - 1.0)
    return {k: {"value": values[k], "unit": unit}
            for k, (unit, _) in PER_LAYER.items()}


def main(argv=None) -> int:
    import workloads
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "permsel", "__init__.py")):
        print(f"perfbench: no program source at {SRC}/permsel", file=sys.stderr)
        return 2

    env = environment()
    m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    crashes = [j["crash"] for j in m["jobs"] if "crash" in j]
    needed = ("traced", "plain") if args.trace else ("plain",)
    if any(not any(j["mode"] == mode for j in m["done"]) for mode in needed):
        print("perfbench: no job finished; " + " | ".join(crashes), file=sys.stderr)
        return 1
    metrics = per_layer(m) if args.trace else end_to_end(m)
    quality = [j["quality"] for j in m["done"]]
    env["load_avg_1m_start"], env["load_avg_1m_end"] = m["load_avg_1m"]
    env["host_loop_s_start"], env["host_loop_s_end"] = m["host_loop_s"]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env,
        "quality": {"r2_test" if args.workload != "sweep" else "ba_test":
                    quality[0] if len(set(quality)) == 1 else quality},
        "fail_frac": m["failed"] / max(1, m["attempted"]),
        "reference": ("none stored" if m["reference"] is None else
                      m["reference"][:16]),
        "jobs": [{k: j.get(k) for k in ("mode", "setup_s", "wall_s", "cpu_s",
                                        "peak_rss_mb", "errors", "crash")}
                 | {"digest": j.get("digest", "")[:16]} for j in m["jobs"]],
        "setup_samples": m["setups"],
    }
    print(json.dumps({"perfbench": info}))
    print(json.dumps({"correct": m["failed"] == 0, "attempted": m["attempted"],
                      "failed": m["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
