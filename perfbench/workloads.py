"""The benchmark workloads: seeded scenario generators, CLI arguments and
output checks.

Each workload writes one scenario file from its seed (untimed), names the
`choicewelfare` command line that processes it, and checks what the command
wrote. The program under test sees only the written files. The same seed and
sizes always give byte-identical scenario files.
"""

import json
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

import oracle


def _rng(seed, name):
    # One independent stream per (seed, workload); crc32 keeps it stable
    # across interpreter runs, unlike hash().
    return np.random.default_rng([int(seed), zlib.crc32(name.encode())])


def write_scenario(path, doc):
    """Write a scenario document as compact JSON; returns its size in bytes."""
    text = json.dumps(doc, separators=(",", ":")) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return len(text.encode("utf-8"))


def population_doc(utilities, *, sweep=None, models=None):
    """Population scenario with uniform type weights over actions a0..a{k-1}."""
    n_types, k = utilities.shape
    section = {
        "actions": [f"a{i}" for i in range(k)],
        "types": [
            {"utilities": [float(v) for v in row], "weight": 1.0 / n_types}
            for row in utilities
        ],
    }
    if models is not None:
        section["models"] = models
    doc = {"schema_version": 1, "population": section}
    if sweep is not None:
        doc["sweep"] = sweep
    return doc


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict = field(default_factory=dict)
    suffix = ".json"

    def output_path(self, out_dir):
        """Where the command writes its main output."""
        return os.path.join(out_dir, self.name + self.suffix)

    def scenario(self, seed):
        """The scenario document for `seed`."""
        raise NotImplementedError

    def argv(self, scenario_path, out_path):
        raise NotImplementedError

    def outputs(self, out_path):
        """Files the command writes."""
        return [out_path]

    def check(self, scenario_path, out_path):
        """Raise oracle.CheckError on a wrong output."""
        raise NotImplementedError


@dataclass(frozen=True)
class SweepWorkload(Workload):
    """`sweep` over a population with standard normal utilities.

    With `crossings` = (lo, hi) set, candidate populations are drawn from the
    seeded stream until the oracle's grid sign-change count lies in [lo, hi].
    Refinement time is proportional to that count, which otherwise varies
    by about 25% from seed to seed and would drown run-to-run comparisons.
    """

    suffix = ".csv"

    def scenario(self, seed):
        s = self.sizes
        rng = _rng(seed, self.name)
        sweep = {"q_min": 0.0, "q_max": 10.0, "q_step": s["q_step"]}
        window = s.get("crossings")
        for _ in range(s.get("max_draws", 1)):
            utilities = rng.standard_normal((s["types"], s["actions"]))
            if window is None or window[0] <= self._grid_crossings(utilities, sweep) <= window[1]:
                return population_doc(utilities, sweep=sweep)
        raise RuntimeError(
            f"{self.name}: no population with {window} grid crossings in "
            f"{s['max_draws']} draws"
        )

    @staticmethod
    def _grid_crossings(utilities, sweep):
        n_types, k = utilities.shape
        q_values = oracle.grid_from_range(sweep["q_min"], sweep["q_max"], sweep["q_step"])
        weights = np.full(n_types, 1.0 / n_types)
        curves = oracle.subset_curves(
            weights, utilities, oracle.enumerate_subsets(k), q_values
        )
        return oracle.grid_crossing_count(curves)

    def argv(self, scenario_path, out_path):
        return ["sweep", "--scenario", scenario_path, "--out", out_path]

    def outputs(self, out_path):
        return [out_path, oracle.crossings_path(out_path)]

    def check(self, scenario_path, out_path):
        oracle.check_sweep(scenario_path, out_path)


@dataclass(frozen=True)
class OptimizeMCWorkload(Workload):
    """`optimize --model mc` with normal-error random-utility choice."""

    def scenario(self, seed):
        s = self.sizes
        utilities = _rng(seed, self.name).standard_normal((s["types"], s["actions"]))
        mc = {
            "kind": "random_utility_mc",
            "error": {"kind": "normal", "sigma": 1.0},
            "samples": s["samples"],
            "seed": 0,
        }
        return population_doc(utilities, models={"mc": mc})

    def argv(self, scenario_path, out_path):
        return [
            "optimize", "--scenario", scenario_path, "--model", "mc",
            "--out", out_path,
        ]

    def check(self, scenario_path, out_path):
        oracle.check_optimize(scenario_path, out_path, "mc")


def _normalized(values):
    values = np.asarray(values, dtype=np.float64)
    return values / values.sum()


@dataclass(frozen=True)
class TreatmentWorkload(Workload):
    """`treatment` on x-cells x z-cells whose beliefs cycle through
    empirical, beta, mixture and uniform."""

    def scenario(self, seed):
        s = self.sizes
        rng = _rng(seed, self.name)
        x_weights = _normalized(rng.uniform(0.5, 1.5, s["x_cells"]))
        x_cells = []
        for i, weight in enumerate(x_weights):
            # Opposed treatments (A best when y = 0, B best when y = 1), so
            # every cell has an interior threshold and beliefs matter.
            u0_b, u1_a = rng.uniform(-1.0, 0.0, 2)
            u0_a, u1_b = rng.uniform(0.0, 1.0, 2)
            p_z = _normalized(rng.uniform(0.5, 1.5, s["z_cells"]))
            p_y = rng.uniform(0.02, 0.98, s["z_cells"])
            z_cells = [
                {
                    "label": f"z{j}",
                    "p_z_given_x": float(p_z[j]),
                    "p_xz": float(p_y[j]),
                    "belief": self._belief(rng, j),
                }
                for j in range(s["z_cells"])
            ]
            x_cells.append(
                {
                    "label": f"x{i}",
                    "weight": float(weight),
                    "utilities": {
                        "u0_a": float(u0_a), "u1_a": float(u1_a),
                        "u0_b": float(u0_b), "u1_b": float(u1_b),
                    },
                    "z_cells": z_cells,
                }
            )
        return {"schema_version": 1, "treatment": {"x_cells": x_cells}}

    def _belief(self, rng, j):
        kind = j % 4
        if kind == 0:
            a, b = rng.uniform(0.5, 5.0, 2)
            samples = rng.beta(a, b, self.sizes["empirical_samples"])
            return {"kind": "empirical", "samples": [float(v) for v in samples]}
        if kind == 1:
            a, b = rng.uniform(0.5, 5.0, 2)
            return {"kind": "beta", "a": float(a), "b": float(b)}
        if kind == 2:
            lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
            a, b = rng.uniform(0.5, 5.0, 2)
            weights = _normalized(rng.uniform(0.5, 1.5, 3))
            return {
                "kind": "mixture",
                "components": [
                    {"kind": "point_mass", "pi": float(rng.uniform())},
                    {"kind": "uniform", "lo": float(lo), "hi": float(hi)},
                    {"kind": "beta", "a": float(a), "b": float(b)},
                ],
                "weights": [float(w) for w in weights],
            }
        lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
        return {"kind": "uniform", "lo": float(lo), "hi": float(hi)}

    def argv(self, scenario_path, out_path):
        return ["treatment", "--scenario", scenario_path, "--out", out_path]

    def check(self, scenario_path, out_path):
        oracle.check_treatment(scenario_path, out_path)


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            "sweep_crossings",
            "all-pairs crossing refinement dominates; the grid kernel is a bystander",
            {"types": 50, "actions": 5, "q_step": 0.05,
             "crossings": (205, 215), "max_draws": 400},
        ),
        SweepWorkload(
            "sweep_fine_grid",
            "whole-grid logit kernel and CSV writing dominate; refinement barely runs",
            {"types": 150, "actions": 4, "q_step": 0.005},
        ),
        OptimizeMCWorkload(
            "optimize_mc",
            "Monte Carlo error draws and argmax tallies; no refinement, no logit kernel",
            {"types": 100, "actions": 6, "samples": 1200},
        ),
        TreatmentWorkload(
            "treatment_cohort",
            "parsing a large scenario file and the treatment report dominate",
            {"x_cells": 60, "z_cells": 40, "empirical_samples": 500},
        ),
    )
}

