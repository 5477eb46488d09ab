"""Record reference digests of the deterministic outputs.

    python3 perfbench/record_refs.py WORKLOAD SEED [SEED ...]

Runs one plain job per seed and stores its digest in references.json.
Run it only on a commit whose outputs are known good, and again when a
workload's inputs or sizes change on purpose.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
import workloads


def main(argv) -> int:
    workload, seeds = argv[1], [int(s) for s in argv[2:]]
    with open(run.REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)
    for seed in seeds:
        work_dir = os.path.join(run.WORK, f"refs-{os.getpid()}")
        try:
            spec = workloads.make_inputs(workload, seed, work_dir)
            res = run.run_job(spec, "plain", "ref",
                              time.monotonic() + run.HARD_LIMIT_S)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        if "crash" in res or res["errors"] or res["failed"]:
            print(f"seed {seed}: not recorded: {res}", file=sys.stderr)
            return 1
        refs.setdefault(workload, {})[str(seed)] = res["digest"]
        print(f"{workload} seed {seed}: {res['digest']}")
        with open(run.REFERENCES, "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
