"""Compare two benchmark result records metric by metric.

Usage, from the repository root:

    python3 perfbench/compare.py BEFORE.json AFTER.json

The records are the files run.py writes to .bench_work/results/. Records
measured on different kernel backends are refused with exit code 2.
"""

import json
import sys

import envinfo


def compare(before, after):
    """Lines of `metric before after after/before` for shared metrics."""
    envinfo.require_comparable(before["environment"], after["environment"])
    lines = [f"{before['workload']} seed {before['seed']} vs "
             f"{after['workload']} seed {after['seed']}"]
    for name, metric in before["metrics"].items():
        if name not in after["metrics"]:
            continue
        a, b = metric["value"], after["metrics"][name]["value"]
        ratio = f"{b / a:.4f}" if a else "n/a"
        lines.append(f"  {name:36s} {a:12.6g} {b:12.6g} {metric['unit']:6s} x{ratio}")
    return lines


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    records = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as fh:
            records.append(json.load(fh))
    try:
        print("\n".join(compare(*records)))
    except envinfo.IncomparableResults as exc:
        print(f"refusing to compare: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
