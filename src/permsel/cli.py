"""Command-line interface.

Subcommands: run (full experiment from a JSON config), synth (generate a
synthetic regression CSV), rank (single-method feature ranking), select
(one evolutionary subset-selection run), report (summaries from an
existing report CSV).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import os
import sys

from . import runner
from .dataset import (
    SyntheticSpec,
    Task,
    generate_synthetic,
    load_csv,
    split,
    write_csv,
)
from .errors import PermselError, require
from .learner import LearnerSpec
from .moea import MoeaConfig
from .moea import evolve  # noqa: F401 (unused; perfbench wraps cli.evolve)
from .runner import (
    RANKING_METHODS,
    MethodSpec,
    aggregate,
    load_config,
    parse_task,
    read_report_csv,
    run_experiment,
    write_summary,
)


def _parse_synth_spec(text: str, seed: int) -> SyntheticSpec:
    try:
        n, width, informative, noise = text.split(",")
        return SyntheticSpec(int(n), int(width), int(informative), float(noise), seed)
    except ValueError:  # also a count of parts other than four
        raise PermselError(f"--spec expects n,features,informative,noise, "
                           f"got {text!r}") from None


def cmd_run(args) -> int:
    from dataclasses import replace
    cfg = load_config(args.config)
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    rows = run_experiment(cfg)
    n_err = sum(1 for r in rows if r.status != "ok")
    print(f"{len(rows)} report rows ({n_err} failures)"
          + (f" written under {cfg.output_dir}" if cfg.output_dir else ""))
    return 0 if n_err == 0 else 1


def cmd_synth(args) -> int:
    spec = _parse_synth_spec(args.spec, args.seed)
    ds = generate_synthetic(spec)
    write_csv(ds, args.out)
    print(f"wrote {ds.n_rows} rows x {ds.n_features} features to {args.out}")
    return 0


def cmd_rank(args) -> int:
    task = parse_task(args.task)
    params = {"repeats": args.repeats, "bins": args.bins}
    method = MethodSpec(args.method, {k: v for k, v in params.items() if v is not None})
    method.validate("--")
    learner = LearnerSpec(n_trees=args.trees, seed=args.seed)  # the seed it fits with
    learner.validate()
    require(args.k is None or args.k >= 1, "--k", "an integer >= 1", args.k)
    if method.kind == "infogain" and task is Task.REGRESSION:
        raise PermselError("infogain needs classification data; --task is reg")
    ds = load_csv(args.data, task, target_col=args.target_col)
    part = split(ds, args.seed, stratified=task is Task.CLASSIFICATION)
    sel = runner.run_selection(ds, part, method, args.seed, learner)
    with (open(args.out, "w", newline="", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        writer = csv.writer(fh, lineterminator="\n")  # quotes a name that needs it
        writer.writerow(("feature", "name", "score"))
        writer.writerows((i, ds.feature_names[i], float(sel.scores.scores[i]))
                         for i in sel.scores.ranking[:args.k])
    return 0


def cmd_select(args) -> int:
    task = parse_task(args.task)
    method = MethodSpec(f"subset-{args.variant}", {
        "population_size": args.pop, "generations": args.gens,
        "crossover_prob": args.crossover, "mutation_prob": args.mutation})
    method.moea_config(args.seed).validate()
    learner = LearnerSpec(n_trees=args.trees)  # fits with seed 0 (ROADMAP item 5)
    learner.validate()
    ds = load_csv(args.data, task, target_col=args.target_col)
    part = split(ds, args.seed, stratified=task is Task.CLASSIFICATION)
    trace = runner.run_selection(ds, part, method, args.seed, learner).trace
    selected = trace.selected_features()
    print(f"selected {selected.size} of {ds.n_features} features "
          f"(merit {trace.best.merit!r})")
    print(",".join(str(i) for i in selected))
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(trace.to_json_dict(), fh, indent=1)
        print(f"trace written to {args.trace_out}")
    return 0


def cmd_report(args) -> int:
    report = os.path.join(args.in_dir, "reports", "report.csv")
    rows = read_report_csv(report)
    tables = aggregate(rows)
    write_summary(os.path.join(args.in_dir, "summary"), tables)
    print(f"summary tables written under {os.path.join(args.in_dir, 'summary')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="permsel",
                                     description="Permutation-based feature subset selection")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default=None, help="override output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("synth", help="generate a synthetic regression CSV")
    p.add_argument("--spec", required=True, metavar="N,W,INFORMATIVE,NOISE")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("rank", help="rank features with one method")
    p.add_argument("--method", required=True, choices=RANKING_METHODS)
    p.add_argument("--data", required=True)
    p.add_argument("--task", required=True, choices=["cls", "reg"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--trees", type=int, default=LearnerSpec.n_trees)
    p.add_argument("--k", type=int, default=None, help="print only the top k")
    p.add_argument("--target-col", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("select", help="evolutionary subset selection")
    p.add_argument("--variant", required=True, choices=["v1", "v2"])
    p.add_argument("--data", required=True)
    p.add_argument("--task", required=True, choices=["cls", "reg"])
    p.add_argument("--pop", type=int, default=MoeaConfig.population_size)
    p.add_argument("--gens", type=int, default=MoeaConfig.generations)
    p.add_argument("--crossover", type=float,
                   default=MoeaConfig.crossover_prob)
    p.add_argument("--mutation", type=float,
                   default=MoeaConfig.mutation_prob)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trees", type=int, default=LearnerSpec.n_trees)
    p.add_argument("--target-col", type=int, default=None)
    p.add_argument("--trace-out", default=None)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("report", help="summaries from an existing run directory")
    p.add_argument("--in", dest="in_dir", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PermselError, OSError) as exc:  # OSError names its file
        print(f"permsel: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
