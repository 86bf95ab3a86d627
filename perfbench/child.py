"""One measured `choicewelfare` command, in a fresh interpreter.

Usage: python3 child.py SPEC.json

SPEC holds `argv` (the CLI arguments), `result` (where to write the
measurement) and `spans` (where to write the trace, or null for an untraced
run). Set-up time covers importing `choicewelfare.cli` and `warm_up()`;
wall time covers `cli.main(argv)` and flushing its standard output.
"""

import json
import resource
import sys
import time


def peak_rss_mb():
    """Peak resident memory of this process since it started, in MiB.

    Read from VmHWM rather than ru_maxrss: when the parent spawns this
    process with vfork, ru_maxrss also counts the parent's own peak.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(spec_path):
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)

    start = time.perf_counter()
    from choicewelfare import cli
    from choicewelfare._kernels import active_backend, warm_up

    warm_up()
    setup_s = time.perf_counter() - start

    tracer = None
    if spec["spans"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    start = time.perf_counter()
    if tracer is None:
        rc = cli.main(spec["argv"])
    else:
        rc = tracer.call(spans.MAIN, cli.main, (spec["argv"],), {})
    sys.stdout.flush()
    wall_s = time.perf_counter() - start
    result = {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "backend": active_backend(),
    }

    if tracer is not None:
        tracer.dump(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
