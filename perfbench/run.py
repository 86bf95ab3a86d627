"""Benchmark of the choicewelfare command line.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

For the chosen workload it writes a seeded scenario file (untimed), then
runs the CLI command on it again and again, each time in a fresh interpreter
and one at a time, until S seconds have passed. The first output is checked
against an independent oracle, later ones must be byte-identical to it.

With --trace 0 it reports the end-to-end metrics, medians over the runs:
wall time of `cli.main`, set-up time (import and warm-up), CPU time and peak
resident memory of the child process. The three times are scaled to a
nominal host speed, gauged by a fixed reference task that runs before the
first command and after each one (see reference.py); the unscaled medians
are in the record. With --trace 1 it alternates untraced and traced
commands and reports per-layer metrics from the traced ones (see spans.py),
their times scaled the same way, and the tracing overhead.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. A fuller record, with the environment
and every sample, goes to .bench_work/results/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import envinfo
import oracle
import reference
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".bench_work"  # relative to ROOT, so outputs do not name the checkout
INVOKE_TIMEOUT_S = 120
RUN_LIMIT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
# Each time is divided by the factor of the reference part that tracks it.
SCALED = {"wall_s": "host_factor", "setup_s": "import_factor", "cpu_s": "host_factor"}
FACTORS = {"host_factor": reference.host_factor, "import_factor": reference.import_factor}


def tail_percentile(values):
    """(p, value) for the highest whole percentile with at least ten samples
    above it (nearest rank), or None when there are ten samples or fewer."""
    n = len(values)
    if n <= 10:
        return None
    p = (100 * (n - 10)) // n
    rank = max(1, -(-p * n // 100))
    return p, sorted(values)[rank - 1]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _wait(proc, timeout_s):
    """Reap `proc` and return (exit code, rusage); kill it after timeout_s.
    Only the CPU times of the rusage are used; see child.peak_rss_mb."""
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def invoke(argv, run_dir, traced, timeout_s):
    """Run one CLI command in a fresh interpreter and return its sample."""
    spec = {
        "argv": argv,
        "result": os.path.join(run_dir, "child-result.json"),
        "spans": os.path.join(run_dir, "spans.json") if traced else None,
    }
    for path in (spec["result"], spec["spans"]):
        if path and os.path.exists(path):
            os.remove(path)
    spec_path = os.path.join(run_dir, "child-spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    with open(os.path.join(run_dir, "stdout.txt"), "wb") as out, open(
        os.path.join(run_dir, "stderr.txt"), "wb"
    ) as err:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), spec_path],
            cwd=ROOT, env=env, stdout=out, stderr=err,
        )
        exit_code, usage = _wait(proc, timeout_s)
    sample = {
        "traced": traced,
        "exit_code": exit_code,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if exit_code == 0 and os.path.exists(spec["result"]):
        with open(spec["result"], "r", encoding="utf-8") as fh:
            sample.update(json.load(fh))
    return sample, spec["spans"]


def reference_times():
    """Run the reference task in a fresh interpreter; returns its part times."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "reference.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=INVOKE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"reference task failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_workload(workload, seed, seconds, trace):
    """Generate, run and check one workload; returns the result record."""
    begun = time.monotonic()
    run_dir = os.path.join(WORK, f"{workload.name}-seed{seed}-trace{trace}")
    shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, run_dir))
    scenario = os.path.join(run_dir, f"{workload.name}.scn")
    bytes_in = workloads.write_scenario(
        os.path.join(ROOT, scenario), workload.scenario(seed))
    out = workload.output_path(run_dir)
    argv = workload.argv(scenario, out)
    outputs = [os.path.join(ROOT, p) for p in workload.outputs(out)]
    stdout_path = os.path.join(ROOT, run_dir, "stdout.txt")

    started = time.monotonic()
    samples, failures, layer_samples = [], [], []
    checked = None
    times_before = reference_times()
    while True:
        traced = bool(trace) and len(samples) % 2 == 1
        budget = RUN_LIMIT_S - (time.monotonic() - begun)
        sample, spans_path = invoke(
            argv, os.path.join(ROOT, run_dir), traced, max(1.0, min(INVOKE_TIMEOUT_S, budget)))
        times_after = reference_times()
        for key, factor in FACTORS.items():
            sample[key] = (factor(times_before) * factor(times_after)) ** 0.5
        sample["reference_s"] = [times_before, times_after]
        times_before = times_after
        samples.append(sample)
        sample["ok"] = False
        if sample.get("rc") != 0:
            failures.append(f"invocation {len(samples)}: exit {sample['exit_code']}, "
                            f"cli status {sample.get('rc')}")
        else:
            try:
                digest = _digest(outputs)
                if digest != checked:
                    workload.check(os.path.join(ROOT, scenario), outputs[0])
                    checked = checked or digest
                sample["ok"] = True
            except (oracle.CheckError, OSError, ValueError, KeyError) as exc:
                failures.append(f"invocation {len(samples)}: {exc}")
        if traced and sample["ok"]:
            bytes_out = sum(os.path.getsize(p) for p in outputs + [stdout_path])
            table = spans.summarize(spans.load_spans(spans_path))
            layer_samples.append({
                "metrics": {name: value / sample["host_factor"]
                            if spans.UNITS[name] == "s" else value
                            for name, value in spans.layer_metrics(table, bytes_out).items()},
                "shares": spans.layer_shares(table, sample["wall_s"]),
                "wall_s": sample["wall_s"] / sample["host_factor"],
            })
        timed = [s for s in samples if "wall_s" in s and not s["traced"]]
        enough = timed and (layer_samples or not trace)
        if (time.monotonic() - started >= seconds and enough
                or time.monotonic() - begun > RUN_LIMIT_S / 2):
            break

    record = {
        "workload": workload.name,
        "why": workload.why,
        "sizes": workload.sizes,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "argv": argv,
        "document.bytes_in": bytes_in,
        "attempted": len(samples),
        "failed": len(failures),
        "failures": failures,
        "samples": samples,
    }
    if trace:
        record["metrics"], record["layer_shares"] = _layer_summary(timed, layer_samples)
    else:
        record["metrics"], record["tails"] = _end_to_end_summary(timed)
    return record


def scaled(sample, name):
    """A sample's metric, divided by its reference factor if it is a time."""
    return sample[name] / sample[SCALED[name]] if name in SCALED else sample[name]


def _end_to_end_summary(timed):
    metrics, tails = {}, {}
    if not timed:
        return metrics, tails
    for name, unit in END_TO_END_UNITS.items():
        values = [scaled(s, name) for s in timed]
        q1, q3 = quartiles(values)
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        tails[name] = {"samples": len(values), "q1": q1, "q3": q3,
                       "tail": tail_percentile(values)}
        if name in SCALED:
            tails[name]["unscaled"] = statistics.median(s[name] for s in timed)
    for key in FACTORS:
        values = [s[key] for s in timed]
        tails[key] = {"median": statistics.median(values), "min": min(values), "max": max(values)}
    return metrics, tails


def _layer_summary(timed, layer_samples):
    if not layer_samples:
        return {}, {}
    names = layer_samples[0]["metrics"]
    metrics = {
        name: {"value": statistics.median(s["metrics"][name] for s in layer_samples),
               "unit": spans.UNITS[name]}
        for name in names
    }
    if timed:
        traced_wall = statistics.median(s["wall_s"] for s in layer_samples)
        untraced_wall = statistics.median(scaled(s, "wall_s") for s in timed)
        metrics["trace.overhead_frac"] = {
            "value": traced_wall / untraced_wall - 1.0,
            "unit": spans.UNITS["trace.overhead_frac"]}
    shares = {
        layer: statistics.median(s["shares"][layer] for s in layer_samples)
        for layer in spans.LAYERS
    }
    return metrics, shares


def print_record(record):
    """Human-readable lines: every metric by name with its unit."""
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"invocations {record['attempted']}  failed {record['failed']}  "
          f"failed_frac {record['failed'] / record['attempted']:.4g} ratio  "
          f"document.bytes_in {record['document.bytes_in']} bytes")
    for reason in record["failures"]:
        print(f"  FAILED {reason}")
    tails = record.get("tails", {})
    for name, metric in record["metrics"].items():
        line = f"  {name:36s} {metric['value']:.6g} {metric['unit']}"
        if name in tails:
            t = tails[name]
            tail = t["tail"]
            line += (f"  (median of {t['samples']}, quartiles {t['q1']:.6g}..{t['q3']:.6g}, "
                     + (f"p{tail[0]} {tail[1]:.6g}" if tail else
                        "no percentile has 10 samples beyond it")
                     + (f", unscaled {t['unscaled']:.6g})" if "unscaled" in t else ")"))
        print(line)
    for key in FACTORS:
        if key in tails:
            h = tails[key]
            print(f"  {key} (reference time / nominal) median {h['median']:.4g}, "
                  f"range {h['min']:.4g}..{h['max']:.4g}")
    for layer, share in record.get("layer_shares", {}).items():
        print(f"  share of traced wall, {layer:10s} self {100 * share:6.2f} %")


def save_record(record):
    """Add the environment and write the record to .bench_work/results/."""
    backend = next((s["backend"] for s in record["samples"] if "backend" in s), None)
    record["environment"] = envinfo.environment(ROOT, backend)
    results = os.path.join(ROOT, WORK, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(
        results, f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "choicewelfare", "cli.py")):
        print(f"error: no choicewelfare sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the Monte Carlo check re-runs policy_welfare

    if args.workload == "all":
        names = list(workloads.WORKLOADS)
    elif args.workload in workloads.WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        record = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds, args.trace)
        path = save_record(record)
        print_record(record)
        print(f"  record: {os.path.relpath(path, ROOT)}")
        prefix = "" if len(names) == 1 else f"{name}."
        summary["correct"] = summary["correct"] and record["failed"] == 0
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
        summary["metrics"].update(
            {prefix + key: value for key, value in record["metrics"].items()})
    if not summary["metrics"]:
        print("error: no invocation produced a measurement", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
