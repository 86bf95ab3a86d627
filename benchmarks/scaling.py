"""Cost of the choicewelfare CLI's commands, measured across source trees.

Run from the repository root:

    python3 benchmarks/scaling.py --label startup --repeats 10 \\
        --src parent=/path/to/parent-checkout --src change=.

Each --src is NAME=ROOT, ROOT a checkout with `src/choicewelfare` (default:
this checkout, named "this"). The commands are the four workloads of
perfbench/workloads.py and two size axes of `optimize` on 100 types of
standard normal utilities, at k = 6...14 actions: `optimize --model mc`
(normal errors, sigma 1, 1,200 samples), named optimize_mc_k6 ...
optimize_mc_k14, and `optimize` under Logit(q=2), named optimize_logit_k6
... optimize_logit_k14. For each command it writes the scenario for --seed
once, then runs the command in a fresh interpreter through
perfbench/child.py. The trees are interleaved: every repeat runs each
command RUNS_PER_REPEAT times on every tree, one round of trees after the
other, odd repeats in reverse tree order, and keeps each metric's median of
those runs as the repeat's sample. As perfbench/run.py does, it runs
perfbench/reference.py before the first command and after each one, and
divides set-up time by the import factor and wall time by the host factor
of the two runs around the command. The command's CPU time (user + system,
of the whole child process, interpreter start-up included, as perfbench/run.py
takes it from os.wait4) is the change in this process's RUSAGE_CHILDREN
around the child, divided by the host factor too. Nothing under perfbench/ is
changed.

`--label L` writes BENCH_L.json at the repository root (or --out). It holds
the environment, numpy's SIMD dispatch included; per tree, its git commit
and a digest of its package sources; and per command: its argv, its sizes
and, where it has actions, its number of subsets; and per tree: the median
and quartiles of scaled `setup_s`, `wall_s` and `cpu_s` and of
`peak_rss_mb`, with every sample in repeat order and, for every tree after
the first, the number of repeats in which it read below the first tree; the
`choicewelfare` modules loaded after `import choicewelfare.cli` and after
the command; whether the first output passed the workload's oracle; and each
output's sha256. --tiny shrinks every scenario and keeps only the two ends
of each axis, for a quick check of the script itself.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))  # the Monte Carlo oracle runs the library

import envinfo  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from reference import host_factor, import_factor  # noqa: E402

CHILD = os.path.join(ROOT, "perfbench", "child.py")
TIMEOUT_S = 120
# Each time is divided by the reference factor that tracks it; memory is not.
SCALED_BY = {"setup_s": import_factor, "wall_s": host_factor, "cpu_s": host_factor,
             "peak_rss_mb": None}
TINY_SIZES = {
    "sweep_crossings": {"types": 4, "actions": 3, "q_step": 0.5},
    "sweep_fine_grid": {"types": 4, "actions": 3, "q_step": 0.25},
    "optimize_mc": {"types": 4, "actions": 3, "samples": 50},
    "treatment_cohort": {"x_cells": 2, "z_cells": 4, "empirical_samples": 10},
}
# Runs of each command and tree per repeat; a repeat keeps their median.
RUNS_PER_REPEAT = 3
AXIS_ACTIONS = range(6, 15)
AXIS_SIZES = {"types": 100, "samples": 1200}
TINY_AXIS_ACTIONS = (AXIS_ACTIONS[0], AXIS_ACTIONS[-1])
TINY_AXIS_SIZES = {"types": 4, "samples": 50}
# Runs `cli.main(argv)` with its stdout discarded and prints the package's
# modules loaded after importing the CLI and after the command.
PROBE = """
import contextlib, io, json, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "choicewelfare")
from choicewelfare import cli
after_import = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"rc": rc, "after_import": after_import, "after_command": loaded()}))
"""


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
    `optimize` axes."""
    found = dict(workloads.WORKLOADS)
    if tiny:
        found = {name: dataclasses.replace(w, sizes=TINY_SIZES[name])
                 for name, w in found.items()}
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
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    return {
        "baseline": list(umath.__cpu_baseline__),
        "dispatch": [t for t in umath.__cpu_dispatch__ if features.get(t)],
    }


def _python(tree_root, args, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree_root, "src"))
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{args[0]} in {cwd} failed: {done.stderr.strip()[-500:]}")
    return done.stdout


def _children_cpu_s():
    """User + system CPU seconds of this process's reaped children so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _digests(run_dir, outputs):
    digests = {}
    for name in outputs:
        with open(os.path.join(run_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


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


def _run_child(wname, entry, tname, root, work):
    """One run of the command on one tree; its measurements, with cpu_s."""
    cell = entry["trees"][tname]
    run_dir = os.path.join(work, wname, tname)
    spec = {"argv": entry["argv"], "result": "child-result.json", "spans": None}
    with open(os.path.join(run_dir, "child-spec.json"), "w") as fh:
        json.dump(spec, fh)
    cpu_before = _children_cpu_s()
    _python(root, [CHILD, "child-spec.json"], run_dir)
    cpu_s = _children_cpu_s() - cpu_before
    with open(os.path.join(run_dir, "child-result.json")) as fh:
        sample = dict(json.load(fh), cpu_s=cpu_s)
    if sample["rc"] != 0:
        raise RuntimeError(f"{wname} on {tname}: exit status {sample['rc']}")
    if _digests(run_dir, cell["outputs_sha256"]) != cell["outputs_sha256"]:
        cell["outputs_stable"] = False
    return sample


def measure(trees, commands, seed, repeats, work):
    """Run every command on every tree `repeats` times, interleaved."""
    results = {}
    for wname, workload in commands.items():
        os.makedirs(os.path.join(work, wname))
        scenario = os.path.join(work, wname, f"{wname}.scn")
        workloads.write_scenario(scenario, workload.scenario(seed))
        out = workload.output_path(".")
        argv = workload.argv(os.path.join("..", f"{wname}.scn"), out)
        outputs = [os.path.normpath(p) for p in workload.outputs(out)]
        entry = results[wname] = {"argv": argv, "sizes": workload.sizes, "trees": {}}
        if "actions" in workload.sizes:
            entry["subsets"] = 2 ** workload.sizes["actions"] - 1
        for tname, root in trees:
            run_dir = os.path.join(work, wname, tname)
            os.makedirs(run_dir)
            probe = json.loads(_python(root, ["-c", PROBE, json.dumps(argv)], run_dir))
            if probe["rc"] != 0:
                raise RuntimeError(f"{wname} on {tname}: exit status {probe['rc']}")
            try:
                workload.check(scenario, os.path.join(run_dir, outputs[0]))
                correct = True
            except oracle.CheckError:
                correct = False
            entry["trees"][tname] = {
                "modules_after_cli_import": probe["after_import"],
                "modules_after_command": probe["after_command"],
                "correct": correct,
                "outputs_sha256": _digests(run_dir, outputs),
                "outputs_stable": True,
                "raw": {name: [] for name in SCALED_BY},
            }

    before = run.reference_times()
    for repeat in range(repeats):
        order = trees if repeat % 2 == 0 else trees[::-1]
        for wname, entry in results.items():
            runs = {tname: {name: [] for name in SCALED_BY} for tname, _ in trees}
            for _ in range(RUNS_PER_REPEAT):
                for tname, root in order:
                    sample = _run_child(wname, entry, tname, root, work)
                    after = run.reference_times()
                    for name, factor in SCALED_BY.items():
                        scale = (factor(before) * factor(after)) ** 0.5 if factor else 1.0
                        runs[tname][name].append(sample[name] / scale)
                    before = after
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
            print(f"{wname:18s} {tname:10s} "
                  + "  ".join(f"{name} {cell[name]['median']:.4g}" for name in SCALED_BY))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
