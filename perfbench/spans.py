"""Outside-in tracing of the choicewelfare layers, and per-layer metrics.

`Tracer.install` replaces the public entry points of each module, as the
module that calls them looks them up, with wrappers that record a span:
name, parent span, start and end in nanoseconds, and optional counts. Spans
are kept in memory and written out once the traced command has finished.
Nothing inside the library changes.

`self_times` and `layer_metrics` turn a list of spans into the per-layer
metrics the benchmark reports.
"""

import json
import os
from time import perf_counter_ns

# Span names; the prefix before the dot is the layer.
MAIN = "cli.main"
PARSE = "document.parse_scenario"
SWEEP = "search.sweep_logit"
OPTIMIZE = "search.optimize_choice_set"
POLICY = "welfare.policy_welfare"
CHOICE = "models.choice_probabilities"
REPORT = "treatment.build_report"
CURVE_POINT = "kernels.logit_curve_point"
CURVE_GRID = "kernels.logit_curve_grid"
TALLY = "kernels.argmax_tally"
UTILITY_MATRIX = "scenario.utility_matrix"

LAYERS = ("cli", "document", "scenario", "models", "welfare", "search", "treatment", "kernels")

# Every per-layer metric the benchmark reports, with its unit.
UNITS = {
    "search.evals_per_crossing": "ratio",
    "search.sweep_self_s": "s",
    "search.crossings": "count",
    "search.pairs": "count",
    "kernels.logit_curve_point_s": "s",
    "kernels.logit_curve_point_calls": "count",
    "scenario.utility_matrix_s": "s",
    "scenario.utility_matrix_calls": "count",
    "kernels.logit_curve_grid_s": "s",
    "kernels.logit_curve_points": "count",
    "models.choice_probabilities_self_s": "s",
    "models.choice_probabilities_calls": "count",
    "models.mc_error_draws": "count",
    "kernels.argmax_tally_s": "s",
    "kernels.argmax_tally_rows": "count",
    "welfare.policy_welfare_self_s": "s",
    "search.optimize_self_s": "s",
    "document.parse_s": "s",
    "document.bytes_in": "bytes",
    "treatment.build_report_s": "s",
    "treatment.z_cells": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Records spans of calls made through the wrappers it installs."""

    def __init__(self):
        self.spans = []  # [parent, name, start_ns, end_ns, counts or None]
        self._stack = []
        self._restore = []

    def call(self, name, fn, args, kwargs, counts=None):
        """Run fn(*args, **kwargs) inside a span; `counts(args, kwargs,
        result)` may attach a dict of counts to it."""
        sid = len(self.spans)
        span = [self._stack[-1] if self._stack else -1, name, 0, 0, None]
        self.spans.append(span)
        self._stack.append(sid)
        span[2] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = perf_counter_ns()
            self._stack.pop()
        if counts is not None:
            span[4] = counts(args, kwargs, result)
        return result

    def wrap(self, name, fn, counts=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts)

        return traced

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the entry points where their callers look them up."""
        from choicewelfare import cli, models, search, welfare
        from choicewelfare.scenario import Population

        kernel = search.logit_welfare_curve

        def curve(weights, utilities, q_values):
            name = CURVE_POINT if len(q_values) == 1 else CURVE_GRID
            return self.call(name, kernel, (weights, utilities, q_values), {},
                             lambda a, k, r: {"points": len(q_values)})

        self._patch(search, "logit_welfare_curve", curve)
        self._patch(models, "argmax_tally", self.wrap(
            TALLY, models.argmax_tally,
            lambda a, k, r: {"rows": int(a[1].shape[0])}))
        choice = self.wrap(CHOICE, models.choice_probabilities, _mc_draws)
        self._patch(models, "choice_probabilities", choice)
        self._patch(welfare, "choice_probabilities", choice)
        self._patch(search, "policy_welfare", self.wrap(POLICY, search.policy_welfare))
        self._patch(cli, "parse_scenario", self.wrap(PARSE, cli.parse_scenario, _bytes_in))
        self._patch(cli, "sweep_logit", self.wrap(SWEEP, cli.sweep_logit, _sweep_counts))
        self._patch(cli, "optimize_choice_set",
                    self.wrap(OPTIMIZE, cli.optimize_choice_set))
        self._patch(cli, "build_report", self.wrap(
            REPORT, cli.build_report,
            lambda a, k, r: {"z_cells": sum(len(c.z_cells) for c in a[0].x_cells)}))
        fget = Population.utility_matrix.fget
        self._patch(Population, "utility_matrix", property(
            lambda pop: self.call(UTILITY_MATRIX, fget, (pop,), {})))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _mc_draws(args, kwargs, result):
    from choicewelfare.models import RandomUtilityMC

    model = args[2] if len(args) > 2 else kwargs["model"]
    if isinstance(model, RandomUtilityMC):
        return {"draws": model.samples * len(result.available)}
    return None


def _bytes_in(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _sweep_counts(args, kwargs, result):
    n = len(result.subsets)
    return {"pairs": n * (n - 1) // 2, "crossings": len(result.crossings)}


def load_spans(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def self_times(spans):
    """Self time of every span in seconds, by span index.

    A span's self time is its duration minus the part of its interval that
    its child spans cover; children are clipped to the parent and
    overlapping children are counted once.
    """
    children = {}
    for sid, span in enumerate(spans):
        children.setdefault(span[0], []).append(sid)
    out = []
    for sid, (_, _, start, end, _) in enumerate(spans):
        covered = 0
        cursor = start
        for lo, hi in sorted((spans[c][2], spans[c][3]) for c in children.get(sid, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start - covered) / 1e9)
    return out


def summarize(spans):
    """Per span name: calls, total seconds, self seconds and summed counts."""
    table = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[1], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
        row["calls"] += 1
        row["total_s"] += (span[3] - span[2]) / 1e9
        row["self_s"] += own
        for key, value in (span[4] or {}).items():
            row["counts"][key] = row["counts"].get(key, 0) + value
    return table


def layer_shares(table, wall_s):
    """Self time of each layer as a share of the traced wall time."""
    shares = dict.fromkeys(LAYERS, 0.0)
    for name, row in table.items():
        shares[name.split(".")[0]] += row["self_s"] / wall_s
    return shares


def layer_metrics(table, bytes_out):
    """The benchmark's per-layer metrics from one traced command."""

    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})

    def count(name, key):
        return row(name)["counts"].get(key, 0)

    point, sweep = row(CURVE_POINT), row(SWEEP)
    crossings = count(SWEEP, "crossings")
    return {
        "search.evals_per_crossing": point["calls"] / 2 / crossings if crossings else 0.0,
        "search.sweep_self_s": sweep["self_s"],
        "search.crossings": crossings,
        "search.pairs": count(SWEEP, "pairs"),
        "kernels.logit_curve_point_s": point["total_s"],
        "kernels.logit_curve_point_calls": point["calls"],
        "scenario.utility_matrix_s": row(UTILITY_MATRIX)["total_s"],
        "scenario.utility_matrix_calls": row(UTILITY_MATRIX)["calls"],
        "kernels.logit_curve_grid_s": row(CURVE_GRID)["total_s"],
        "kernels.logit_curve_points": count(CURVE_GRID, "points"),
        "models.choice_probabilities_self_s": row(CHOICE)["self_s"],
        "models.choice_probabilities_calls": row(CHOICE)["calls"],
        "models.mc_error_draws": count(CHOICE, "draws"),
        "kernels.argmax_tally_s": row(TALLY)["total_s"],
        "kernels.argmax_tally_rows": count(TALLY, "rows"),
        "welfare.policy_welfare_self_s": row(POLICY)["self_s"],
        "search.optimize_self_s": row(OPTIMIZE)["self_s"],
        "document.parse_s": row(PARSE)["total_s"],
        "document.bytes_in": count(PARSE, "bytes"),
        "treatment.build_report_s": row(REPORT)["total_s"],
        "treatment.z_cells": count(REPORT, "z_cells"),
        "cli.self_s": row(MAIN)["self_s"],
        "cli.bytes_out": bytes_out,
    }
