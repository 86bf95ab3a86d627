"""A fixed reference task that gauges how fast the host runs right now.

Usage: python3 reference.py

Prints one JSON object: the seconds each part of the task took. The task
does not touch `choicewelfare`. Its first part, `imports`, imports numpy
and scipy.special, the bulk of what the CLI imports at set-up. Each other
part is a small stand-in, written with plain numpy and json, for the hot
loop of one workload:

- `kernel`: logit welfare of 50 types x 6 actions, one q at a time
  (`sweep_crossings` refines crossings this way);
- `grid`: logit welfare of 200 types x 4 actions over 2,001 q at once
  (`sweep_fine_grid`);
- `draws`: normal error draws and argmax tallies (`optimize_mc`);
- `parse`: parsing a JSON document of belief samples (`treatment_cohort`).

On a shared host the speed of a core drifts by ±25% over minutes, and
different code slows by different amounts; imports, which map and link
shared libraries, drift on their own. run.py runs this task in its own
interpreter before the first command of a run and after each command. It
divides the command's set-up time by the `import_factor`, and its wall and
CPU times by the `host_factor`, of the tasks on either side of it.
"""

import json
import math
import sys
import time

# Median part times, in seconds, over 10 to 20 runs of this task on the host
# that measured the figures in README.md (2 vCPUs of an Intel Xeon, Python
# 3.11, numpy 2.4). A scaled time reads in seconds at that speed.
NOMINAL_S = {"imports": 0.44, "kernel": 0.0282, "grid": 0.0382, "draws": 0.048,
             "parse": 0.0407}
COMPUTE_PARTS = ("kernel", "grid", "draws", "parse")


def _kernel():
    import numpy as np

    utilities = np.linspace(-1.0, 1.0, 300).reshape(50, 6)
    weights = np.full(50, 1.0 / 50)
    total = 0.0
    for q in np.linspace(0.0, 10.0, 1500):
        z = np.exp(q * (utilities - utilities.max(axis=1, keepdims=True)))
        p = z / z.sum(axis=1, keepdims=True)
        total += float(weights @ (p * utilities).sum(axis=1))
    return total


def _grid():
    import numpy as np

    utilities = np.linspace(-1.0, 1.0, 800).reshape(200, 4)
    weights = np.full(200, 1.0 / 200)
    q = np.linspace(0.0, 10.0, 2001)[:, None, None]
    z = q * (utilities - utilities.max(axis=1, keepdims=True))[None, :, :]
    e = np.exp(z)
    return ((e * utilities).sum(axis=2) / e.sum(axis=2)) @ weights


def _draws():
    import numpy as np

    rng = np.random.default_rng(0)
    utilities = np.linspace(-1.0, 1.0, 6)
    counts = np.zeros(6, dtype=np.int64)
    for _ in range(60):
        noisy = utilities + rng.standard_normal((5000, 6))
        counts += np.bincount(noisy.argmax(axis=1), minlength=6)
    return counts


def _document():
    import numpy as np

    rng = np.random.default_rng(0)
    cells = [{"label": f"z{j}", "belief": {"kind": "empirical",
                                           "samples": [float(v) for v in rng.random(100)]}}
             for j in range(1000)]
    return json.dumps(cells)


def _parse(text):
    return len(json.loads(text))


def measure():
    """Seconds each part of the task takes, in a fixed order. The parts
    import numpy themselves, so that `imports` times a cold import."""
    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.special  # noqa: F401

    times = {"imports": time.perf_counter() - start}
    text = _document()
    for name, part, args in (("kernel", _kernel, ()), ("grid", _grid, ()),
                             ("draws", _draws, ()), ("parse", _parse, (text,))):
        start = time.perf_counter()
        part(*args)
        times[name] = time.perf_counter() - start
    return times


def host_factor(times):
    """How much slower than nominal the host ran the compute parts: the
    geometric mean over them of measured / nominal time. 1.2 means 20%
    slower."""
    ratios = [times[name] / NOMINAL_S[name] for name in COMPUTE_PARTS]
    return math.prod(ratios) ** (1.0 / len(ratios))


def import_factor(times):
    """How much slower than nominal the host ran the imports."""
    return times["imports"] / NOMINAL_S["imports"]


if __name__ == "__main__":
    json.dump(measure(), sys.stdout)
    sys.stdout.write("\n")
