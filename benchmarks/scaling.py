"""Cost of the choicewelfare CLI's commands, measured across source trees.

Run from the repository root:

    python3 benchmarks/scaling.py --label startup --repeats 10 \\
        --src parent=/path/to/parent-checkout --src change=.

Each --src is NAME=ROOT, ROOT a checkout with `src/choicewelfare` (default:
this checkout, named "this"). The commands are the four workloads of
perfbench/workloads.py and three size axes on standard normal utilities:
`sweep` on 50 types over the default grid (q = 0...10, step 0.05) at k =
3...9 actions, named sweep_k3 ... sweep_k9; and `optimize` on 100 types at k
= 6...14, with `--model mc` (normal errors, sigma 1, 1,200 samples), named
optimize_mc_k6 ... optimize_mc_k14, and under Logit(q=2), named
optimize_logit_k6 ... optimize_logit_k14. For each command it writes the
scenario for --seed once, then runs the command with perfbench/run.py's
`invoke`, in a fresh interpreter with the tree's `src` first on the path.
The trees are interleaved: every repeat runs each command RUNS_PER_REPEAT
times on every tree, one round of trees after the other, odd repeats in
reverse tree order, and keeps each metric's median of those runs as the
repeat's sample. A command whose runs have taken COMMAND_TIME_CAP_S seconds
in all is not repeated further (sweep_k9 takes about 11 s a run), so a
command can have fewer repeats than --repeats. Each time is scaled as
perfbench/run.py scales it, by the reference task run before the first
command and after each one. Each tree's first run of a command is checked
against the workload's oracle; later runs must write the same bytes. Nothing
under perfbench/ is changed.

`--label L` writes BENCH_L.json at the repository root (or --out). It holds
the environment, numpy's SIMD dispatch included; per tree, its git commit
and a digest of its package sources; and per command: its argv, its sizes,
the number of repeats it ran, where it has actions its number of subsets,
and for a sweep its number of subset pairs; and per tree: for a sweep the
number of crossings it wrote, the median and quartiles of scaled `setup_s`,
`wall_s` and `cpu_s` and of `peak_rss_mb`, with every sample in repeat order
and, for every tree after the first, the number of repeats in which it read
below the first tree; whether the first output passed the workload's oracle;
and each output's sha256. --tiny shrinks every scenario and keeps only the
two ends of each axis, for a quick check of the script itself.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))  # the Monte Carlo oracle runs the library

import envinfo  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY_SIZES = {
    "sweep_crossings": {"types": 4, "actions": 3, "q_step": 0.5},
    "sweep_fine_grid": {"types": 4, "actions": 3, "q_step": 0.25},
    "optimize_mc": {"types": 4, "actions": 3, "samples": 50},
    "treatment_cohort": {"x_cells": 2, "z_cells": 4, "empirical_samples": 10},
}
# Runs of each command and tree per repeat; a repeat keeps their median.
RUNS_PER_REPEAT = 3
# Seconds of runs, over every tree, after which a command is not repeated.
COMMAND_TIME_CAP_S = 180
AXIS_ACTIONS = range(6, 15)
AXIS_SIZES = {"types": 100, "samples": 1200}
TINY_AXIS_ACTIONS = (AXIS_ACTIONS[0], AXIS_ACTIONS[-1])
TINY_AXIS_SIZES = {"types": 4, "samples": 50}
SWEEP_ACTIONS = range(3, 10)
SWEEP_SIZES = {"types": 50, "q_step": 0.05}
TINY_SWEEP_ACTIONS = (SWEEP_ACTIONS[0], SWEEP_ACTIONS[-1])
# One grid point, q = 0: with any bracket on its grid, a k = 9 sweep refines
# tens of thousands of crossings, whatever its size.
TINY_SWEEP_SIZES = {"types": 4, "q_step": 20.0}


@dataclasses.dataclass(frozen=True)
class OptimizeLogitWorkload(workloads.OptimizeMCWorkload):
    """`optimize` under Logit(q=2), on a population drawn as the Monte Carlo
    workload draws its own (seeded by the seed and the command's name)."""

    def scenario(self, seed):
        doc = super().scenario(seed)
        doc["population"]["models"] = {"logit": {"kind": "logit", "q": 2.0}}
        return doc

    def argv(self, scenario_path, out_path):
        return ["optimize", "--scenario", scenario_path, "--model", "logit",
                "--out", out_path]

    def check(self, scenario_path, out_path):
        oracle.check_optimize(scenario_path, out_path, "logit")


def all_commands(tiny=False):
    """Every command to measure, by name: the perfbench workloads, then the
    `sweep` axis, then the `optimize` axes."""
    found = dict(workloads.WORKLOADS)
    if tiny:
        found = {name: dataclasses.replace(w, sizes=TINY_SIZES[name])
                 for name, w in found.items()}
    sizes = TINY_SWEEP_SIZES if tiny else SWEEP_SIZES
    for k in TINY_SWEEP_ACTIONS if tiny else SWEEP_ACTIONS:
        name = f"sweep_k{k}"
        found[name] = workloads.SweepWorkload(name, "sweep axis", {**sizes, "actions": k})
    sizes = TINY_AXIS_SIZES if tiny else AXIS_SIZES
    for kind, cls in (("mc", workloads.OptimizeMCWorkload), ("logit", OptimizeLogitWorkload)):
        for k in TINY_AXIS_ACTIONS if tiny else AXIS_ACTIONS:
            name = f"optimize_{kind}_k{k}"
            found[name] = cls(name, f"optimize axis, {kind}", {**sizes, "actions": k})
    return found


def _tree(text):
    name, sep, root = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected NAME=ROOT, got {text!r}")
    root = os.path.abspath(root)
    if not os.path.isfile(os.path.join(root, "src", "choicewelfare", "cli.py")):
        raise argparse.ArgumentTypeError(f"no src/choicewelfare under {root}")
    return name, root


def numpy_simd():
    """numpy's SIMD baseline and the dispatch targets this CPU enables; they
    decide the last bits of `exp`."""
    from numpy._core import _multiarray_umath as umath
    features = umath.__cpu_features__
    return {
        "baseline": list(umath.__cpu_baseline__),
        "dispatch": [t for t in umath.__cpu_dispatch__ if features.get(t)],
    }


def _digests(run_dir, outputs):
    digests = {}
    for name in outputs:
        with open(os.path.join(run_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _crossing_count(path):
    """Rows of a sweep's crossings CSV file, its header not counted."""
    with open(path, newline="", encoding="utf-8") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def _source_sha256(root):
    """One digest of the package's source files, so a record names exactly
    the code it measured, committed or not."""
    package = os.path.join(root, "src", "choicewelfare")
    h = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _summary(values):
    q1, q3 = run.quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": values}


def _run_child(wname, argv, tname, root, run_dir):
    """One run of the command on one tree, through perfbench's `invoke`; its
    measurements."""
    run.SRC = os.path.join(root, "src")
    run.ROOT = run_dir  # invoke's working directory, which argv's paths are relative to
    sample, _ = run.invoke(argv, run_dir, False, run.INVOKE_TIMEOUT_S)
    if sample.get("rc") != 0:
        with open(os.path.join(run_dir, "stderr.txt"), encoding="utf-8", errors="replace") as fh:
            stderr = fh.read().strip()[-500:]
        raise RuntimeError(f"{wname} on {tname}: exit {sample['exit_code']}, "
                           f"cli status {sample.get('rc')}: {stderr}")
    return sample


def _record_outputs(cell, workload, scenario, outputs, run_dir):
    """Check, digest and count the crossings of a tree's first run of the
    command; mark the tree unstable when a later run writes other bytes."""
    digests = _digests(run_dir, outputs)
    if "outputs_sha256" in cell:
        cell["outputs_stable"] = cell["outputs_stable"] and digests == cell["outputs_sha256"]
        return
    try:
        workload.check(scenario, os.path.join(run_dir, outputs[0]))
        cell["correct"] = True
    except oracle.CheckError:
        cell["correct"] = False
    cell["outputs_sha256"] = digests
    if isinstance(workload, workloads.SweepWorkload):
        cell["crossings"] = _crossing_count(os.path.join(run_dir, outputs[1]))


def measure(trees, commands, seed, repeats, work):
    """Run every command on every tree `repeats` times, interleaved."""
    results, files = {}, {}
    for wname, workload in commands.items():
        os.makedirs(os.path.join(work, wname))
        scenario = os.path.join(work, wname, f"{wname}.scn")
        workloads.write_scenario(scenario, workload.scenario(seed))
        out = workload.output_path(".")
        files[wname] = scenario, [os.path.normpath(p) for p in workload.outputs(out)]
        entry = results[wname] = {
            "argv": workload.argv(os.path.join("..", f"{wname}.scn"), out),
            "sizes": workload.sizes, "repeats": 0, "trees": {}}
        if "actions" in workload.sizes:
            entry["subsets"] = 2 ** workload.sizes["actions"] - 1
        if isinstance(workload, workloads.SweepWorkload):
            entry["pairs"] = entry["subsets"] * (entry["subsets"] - 1) // 2
        for tname, _ in trees:
            os.makedirs(os.path.join(work, wname, tname))
            entry["trees"][tname] = {"outputs_stable": True,
                                     "raw": {name: [] for name in run.END_TO_END_UNITS}}

    before = run.reference_times()
    spent = {wname: 0.0 for wname in results}
    for repeat in range(repeats):
        order = trees if repeat % 2 == 0 else trees[::-1]
        for wname, entry in results.items():
            if spent[wname] >= COMMAND_TIME_CAP_S:
                continue
            entry["repeats"] += 1
            runs = {tname: {name: [] for name in run.END_TO_END_UNITS} for tname, _ in trees}
            for _ in range(RUNS_PER_REPEAT):
                for tname, root in order:
                    run_dir = os.path.join(work, wname, tname)
                    started = time.monotonic()
                    sample = _run_child(wname, entry["argv"], tname, root, run_dir)
                    spent[wname] += time.monotonic() - started
                    after = run.reference_times()
                    for key, factor in run.FACTORS.items():
                        sample[key] = (factor(before) * factor(after)) ** 0.5
                    before = after
                    for name in run.END_TO_END_UNITS:
                        runs[tname][name].append(run.scaled(sample, name))
                    _record_outputs(entry["trees"][tname], commands[wname], *files[wname],
                                    run_dir)
            for tname, _ in trees:
                for name, values in runs[tname].items():
                    entry["trees"][tname]["raw"][name].append(statistics.median(values))

    first = trees[0][0]
    for entry in results.values():
        for tname, cell in entry["trees"].items():
            raw = cell.pop("raw")
            for name, values in raw.items():
                cell[name] = _summary(values)
                if tname != first:
                    base = entry["trees"][first][name]["samples"]
                    cell[name]["below_first_tree"] = sum(v < b for v, b in zip(values, base))
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", action="append", type=_tree,
                        help="NAME=ROOT of a checkout to measure; repeatable")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every scenario")
    parser.add_argument("--out", help="record path (default: BENCH_<label>.json at the root)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    trees = args.src or [("this", ROOT)]
    if len({name for name, _ in trees}) != len(trees):
        parser.error("tree names must differ")

    with tempfile.TemporaryDirectory(prefix="choicewelfare-scaling-") as work:
        results = measure(trees, all_commands(args.tiny), args.seed, args.repeats, work)

    record = {
        "label": args.label,
        "seed": args.seed,
        "repeats": args.repeats,
        "runs_per_repeat": RUNS_PER_REPEAT,
        "tiny": args.tiny,
        "environment": {**envinfo.environment(ROOT, "numpy"), "numpy_simd": numpy_simd()},
        "trees": {name: {"git_commit": envinfo._git_commit(root),
                         "source_sha256": _source_sha256(root)} for name, root in trees},
        "commands": results,
    }
    path = args.out or os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for wname, entry in results.items():
        for tname, cell in entry["trees"].items():
            print(f"{wname:18s} {tname:10s} " + "  ".join(
                f"{name} {cell[name]['median']:.4g}" for name in run.END_TO_END_UNITS))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
