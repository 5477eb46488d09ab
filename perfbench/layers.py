"""Which program functions are traced, and the per-layer metrics.

Every function is wrapped at the attribute its caller looks up: moea
and runner reach the learner as ``learner_mod.fit``, the runner and the
CLI import ``evolve``, ``load_csv`` and the rankers by name, and so on.
"""

from __future__ import annotations

import hashlib
import statistics

from tracer import ATTRS, NAME, PARENT, START, END, ID, self_times

# name: (unit, better). Metrics of layers that do not run read 0.
PER_LAYER = {
    "tree.predict_s": ("s", "lower"),
    "tree.predict_calls": ("count", "lower"),
    "learner.predict_s": ("s", "lower"),
    "learner.predict_self_s": ("s", "lower"),
    "learner.predict_calls": ("count", "lower"),
    "learner.predict_row_trees": ("count", "lower"),
    "permutation.merit_s": ("s", "lower"),
    "permutation.merit_self_s": ("s", "lower"),
    "permutation.merit_calls": ("count", "lower"),
    "permutation.merit_ms_p50": ("ms", "lower"),
    "permutation.merit_ms_p99": ("ms", "lower"),
    "permutation.cols_shuffled": ("count", "lower"),
    "permutation.copy_mb": ("MB_computed", "lower"),
    "permutation.pfi_rank_s": ("s", "lower"),
    "permutation.pfi_evals": ("count", "lower"),
    "metrics.score_s": ("s", "lower"),
    "metrics.score_calls": ("count", "lower"),
    "tree.grow_s": ("s", "lower"),
    "tree.grow_calls": ("count", "lower"),
    "tree.nodes": ("count", "lower"),
    "learner.fit_s": ("s", "lower"),
    "learner.fit_calls": ("count", "lower"),
    "learner.fit_unique_ratio": ("ratio", "higher"),
    "runner.eval_unique_ratio": ("ratio", "higher"),
    "runner.select_s": ("s", "lower"),
    "runner.evaluate_subset_s": ("s", "lower"),
    "runner.evaluate_subset_calls": ("count", "lower"),
    "runner.write_s": ("s", "lower"),
    "runner.cell_wait_s": ("s", "lower"),
    "runner.pool_busy_frac": ("ratio", "higher"),
    "moea.search_s": ("s", "lower"),
    "moea.search_self_s": ("s", "lower"),
    "moea.sort_s": ("s", "lower"),
    "moea.sort_calls": ("count", "lower"),
    "moea.crowding_s": ("s", "lower"),
    "moea.variation_s": ("s", "lower"),
    "moea.hv_s": ("s", "lower"),
    "dataset.load_csv_s": ("s", "lower"),
    "dataset.load_csv_cells": ("count", "lower"),
    "dataset.split_s": ("s", "lower"),
    "baselines.corr_s": ("s", "lower"),
    "baselines.infogain_s": ("s", "lower"),
    "analysis.s": ("s", "lower"),
    "analysis.calls": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows_key(view) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(view.X.tobytes())
    h.update(view.y.tobytes())
    return h.hexdigest()


def instrument(tracer) -> None:
    """Wrap the program's layer boundaries in spans."""
    from permsel import cli, learner, moea, permutation, runner, tree

    def predict_attrs(args, kwargs, result, start):
        model, X = args[0], _arg(args, kwargs, 1, "X")
        return {"row_trees": len(X) * len(model.trees)}

    def merit_attrs(args, kwargs, result, start):
        ctx = _arg(args, kwargs, 0, "ctx")
        cols = int(sum(1 for b in _arg(args, kwargs, 1, "chromosome") if b))
        return {"cols": cols, "copy_bytes": ctx.eval_rows.X.nbytes if cols else 0}

    def fit_attrs(args, kwargs, result, start):
        spec, data = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "data")
        return {"key": f"{spec!r}/{_rows_key(data)}"}

    def eval_attrs(args, kwargs, result, start):
        ds = _arg(args, kwargs, 0, "dataset")
        feats = sorted(int(f) for f in _arg(args, kwargs, 2, "features"))
        spec = _arg(args, kwargs, 3, "learner_spec")
        seed = _arg(args, kwargs, 4, "seed")
        text = f"{id(ds)}/{seed}/{spec!r}/{feats}"
        return {"key": hashlib.blake2b(text.encode(), digest_size=16).hexdigest()}

    def load_attrs(args, kwargs, result, start):
        return {"cells": result.n_rows * (result.n_features + 1)}

    def grow_attrs(args, kwargs, result, start):
        return {"nodes": len(result.feature)}

    def cell_attrs(args, kwargs, result, start):
        queued = tracer.queued_at()
        return {"wait": start - queued if queued is not None else 0.0}

    wraps = [
        (tree.Tree, "predict", "tree.predict", None),
        (learner.RandomForestModel, "predict", "learner.predict", predict_attrs),
        (learner, "grow_tree", "tree.grow", grow_attrs),
        (learner, "fit", "learner.fit", fit_attrs),
        (permutation, "score", "metrics.score", None),
        (moea, "merit", "permutation.merit", merit_attrs),
        (moea, "evolve", "moea.evolve", None),
        (moea, "evolve_on_context", "moea.search", None),
        (moea, "fast_nondominated_sort", "moea.sort", None),
        (moea, "crowding_distance", "moea.crowding", None),
        (moea, "hux_crossover", "moea.variation", None),
        (moea, "bit_flip_mutation", "moea.variation", None),
        (moea, "hypervolume_2d", "moea.hv", None),
        (runner, "evolve", "moea.evolve", None),
        (runner, "pfi_rank", "permutation.pfi_rank", None),
        (runner, "evaluate_subset", "runner.evaluate_subset", eval_attrs),
        (runner, "correlation_rank", "baselines.corr", None),
        (runner, "infogain_rank", "baselines.infogain", None),
        (runner, "compare_pair", "analysis.compare_pair", None),
        (runner, "win_loss_ranking", "analysis.win_loss_ranking", None),
        (runner, "write_outputs", "runner.write_outputs", None),
        (runner, "run_selection", "runner.run_selection", None),
        (runner, "load_csv", "dataset.load_csv", load_attrs),
        (runner, "split", "dataset.split", None),
        (runner, "_cell_rows", "runner.cell", cell_attrs),
        (cli, "run_experiment", "runner.run_experiment", None),
        (cli, "evolve", "moea.evolve", None),
        (cli, "load_csv", "dataset.load_csv", load_attrs),
        (cli, "split", "dataset.split", None),
    ]
    for owner, attr, name, attrs in wraps:
        tracer.wrap(owner, attr, name, attrs)
    tracer.patch(runner, "ThreadPoolExecutor", tracer.traced_pool())


def layer_metrics(spans, wall_s: float, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced job (overhead is added by the caller)."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, st in zip(spans, selfs):
        total[s[NAME]] = total.get(s[NAME], 0.0) + (s[END] - s[START])
        self_total[s[NAME]] = self_total.get(s[NAME], 0.0) + st
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1

    def named(name):  # spans whose call raised carry no attrs
        return [s for s in spans if s[NAME] == name and s[ATTRS] is not None]

    def attr_sum(name, key):
        return sum(s[ATTRS][key] for s in named(name))

    def unique_ratio(name):
        keys = [s[ATTRS]["key"] for s in named(name)]
        return len(set(keys)) / len(keys) if keys else 0.0

    in_pfi: dict[int, bool] = {}
    for s in spans:  # parents are opened, so listed, before their children
        in_pfi[s[ID]] = s[NAME] == "permutation.pfi_rank" or \
            in_pfi.get(s[PARENT], False)
    merit_ms = sorted((s[END] - s[START]) * 1e3 for s in spans
                      if s[NAME] == "permutation.merit")

    def pct(q):
        if not merit_ms:
            return 0.0
        if len(merit_ms) == 1:
            return merit_ms[0]
        return statistics.quantiles(merit_ms, n=100, method="inclusive")[q - 1]

    m = {
        "tree.predict_s": total.get("tree.predict", 0.0),
        "tree.predict_calls": calls.get("tree.predict", 0),
        "learner.predict_s": total.get("learner.predict", 0.0),
        "learner.predict_self_s": self_total.get("learner.predict", 0.0),
        "learner.predict_calls": calls.get("learner.predict", 0),
        "learner.predict_row_trees": attr_sum("learner.predict", "row_trees"),
        "permutation.merit_s": total.get("permutation.merit", 0.0),
        "permutation.merit_self_s": self_total.get("permutation.merit", 0.0),
        "permutation.merit_calls": calls.get("permutation.merit", 0),
        "permutation.merit_ms_p50": pct(50),
        "permutation.merit_ms_p99": pct(99),
        "permutation.cols_shuffled": attr_sum("permutation.merit", "cols"),
        "permutation.copy_mb": attr_sum("permutation.merit", "copy_bytes") / 1e6,
        "permutation.pfi_rank_s": total.get("permutation.pfi_rank", 0.0),
        "permutation.pfi_evals": sum(1 for s in spans if in_pfi[s[ID]]
                                     and s[NAME] == "learner.predict"),
        "metrics.score_s": total.get("metrics.score", 0.0),
        "metrics.score_calls": calls.get("metrics.score", 0),
        "tree.grow_s": total.get("tree.grow", 0.0),
        "tree.grow_calls": calls.get("tree.grow", 0),
        "tree.nodes": attr_sum("tree.grow", "nodes"),
        "learner.fit_s": total.get("learner.fit", 0.0),
        "learner.fit_calls": calls.get("learner.fit", 0),
        "learner.fit_unique_ratio": unique_ratio("learner.fit"),
        "runner.eval_unique_ratio": unique_ratio("runner.evaluate_subset"),
        "runner.select_s": total.get("runner.run_selection", 0.0),
        "runner.evaluate_subset_s": total.get("runner.evaluate_subset", 0.0),
        "runner.evaluate_subset_calls": calls.get("runner.evaluate_subset", 0),
        "runner.write_s": total.get("runner.write_outputs", 0.0),
        "runner.cell_wait_s": attr_sum("runner.cell", "wait"),
        "runner.pool_busy_frac": total.get("runner.cell", 0.0) / (workers * wall_s),
        "moea.search_s": total.get("moea.search", 0.0),
        "moea.search_self_s": self_total.get("moea.search", 0.0),
        "moea.sort_s": total.get("moea.sort", 0.0),
        "moea.sort_calls": calls.get("moea.sort", 0),
        "moea.crowding_s": total.get("moea.crowding", 0.0),
        "moea.variation_s": total.get("moea.variation", 0.0),
        "moea.hv_s": total.get("moea.hv", 0.0),
        "dataset.load_csv_s": total.get("dataset.load_csv", 0.0),
        "dataset.load_csv_cells": attr_sum("dataset.load_csv", "cells"),
        "dataset.split_s": total.get("dataset.split", 0.0),
        "baselines.corr_s": total.get("baselines.corr", 0.0),
        "baselines.infogain_s": total.get("baselines.infogain", 0.0),
        "analysis.s": total.get("analysis.compare_pair", 0.0)
        + total.get("analysis.win_loss_ranking", 0.0),
        "analysis.calls": calls.get("analysis.compare_pair", 0)
        + calls.get("analysis.win_loss_ranking", 0),
    }
    return {k: float(v) for k, v in m.items()}
