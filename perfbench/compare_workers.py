"""One-off traced comparison of the sweep at different pool sizes.

    python3 perfbench/compare_workers.py SEED

Runs one plain and one traced sweep job at workers=1 and at workers=2
and prints a table of wall time and the runner-level layer metrics. It
is not a workload; NOTES.md keeps its output as the baseline for the
thread-pool contention.
"""

from __future__ import annotations

import os
import shutil
import sys
import time

import run
import workloads

POOLS = (1, 2)
SHOWN = ("learner.fit_s", "learner.predict_s", "permutation.pfi_rank_s",
         "runner.select_s", "runner.evaluate_subset_s", "runner.cell_wait_s",
         "runner.pool_busy_frac", "trace.overhead_frac")


def main(argv) -> int:
    seed = int(argv[1])
    rows = {}
    for workers in POOLS:
        work_dir = os.path.join(run.WORK, f"compare-{os.getpid()}")
        try:
            spec = dict(workloads.make_inputs("sweep", seed, work_dir),
                        workers=workers)
            deadline = time.monotonic() + 2 * run.HARD_LIMIT_S
            plain = run.run_job(spec, "plain", "plain", deadline)
            traced = run.run_job(spec, "traced", "traced", deadline)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        for res in (plain, traced):
            if "crash" in res or res["errors"]:
                print(f"workers={workers}: {res}", file=sys.stderr)
                return 1
        m = dict(traced["metrics"])
        m["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
        rows[workers] = {"wall_s (plain)": plain["wall_s"],
                         "cells_per_s (plain)": plain["cells"] / plain["wall_s"],
                         "wall_s (traced)": traced["wall_s"],
                         **{k: m[k] for k in SHOWN}}
    print("| metric | " + " | ".join(f"workers={w}" for w in POOLS) + " |")
    print("| --- |" + " --- |" * len(POOLS))
    for key in rows[POOLS[0]]:
        print(f"| `{key}` | " + " | ".join(f"{rows[w][key]:.4g}" for w in POOLS)
              + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
