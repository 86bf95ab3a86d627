"""Tests of the benchmark's scenario generator, output checks and trace
arithmetic, on small sizes.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
for _path in (os.path.join(os.path.dirname(HERE), "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import compare  # noqa: E402
import envinfo  # noqa: E402
import oracle  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from choicewelfare import cli  # noqa: E402

SMALL = {
    "sweep_crossings": {"types": 8, "actions": 4, "q_step": 0.05,
                        "crossings": (3, 40), "max_draws": 200},
    "sweep_fine_grid": {"types": 20, "actions": 3, "q_step": 0.01},
    "optimize_mc": {"types": 6, "actions": 3, "samples": 200},
    "treatment_cohort": {"x_cells": 3, "z_cells": 5, "empirical_samples": 7},
}


def small(name):
    return dataclasses.replace(workloads.WORKLOADS[name], sizes=SMALL[name])


def run_cli(tmp_path, workload, seed=0):
    scenario = str(tmp_path / "in.scn")
    workloads.write_scenario(scenario, workload.scenario(seed))
    out = workload.output_path(str(tmp_path))
    assert cli.main(workload.argv(scenario, out)) == 0
    return scenario, out


def test_benchmark_json_matches_the_workloads_and_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert set(spans.layer_metrics({}, 0)) | {"trace.overhead_frac"} == set(spans.UNITS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generator_is_byte_identical_for_a_seed(tmp_path, name):
    workload = small(name)
    paths = [tmp_path / f"{i}.scn" for i in range(3)]
    for path, seed in zip(paths, (7, 7, 8)):
        workloads.write_scenario(path, workload.scenario(seed))
    first, again, other = (p.read_bytes() for p in paths)
    assert first == again
    assert first != other


def test_sweep_generator_holds_the_crossing_count_in_its_window(tmp_path):
    workload = small("sweep_crossings")
    doc = workload.scenario(3)
    _, weights, utilities = oracle.population_arrays(doc)
    q_values = oracle.grid_from_range(0.0, 10.0, 0.05)
    curves = oracle.subset_curves(
        weights, utilities, oracle.enumerate_subsets(utilities.shape[1]), q_values)
    lo, hi = SMALL["sweep_crossings"]["crossings"]
    assert lo <= oracle.grid_crossing_count(curves) <= hi


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checker_accepts_the_program_output(tmp_path, name):
    workload = small(name)
    scenario, out = run_cli(tmp_path, workload)
    workload.check(scenario, out)


def test_checker_rejects_a_dropped_row(tmp_path):
    scenario, out = run_cli(tmp_path, small("sweep_fine_grid"))
    with open(out, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:5] + lines[6:])
    with pytest.raises(oracle.CheckError, match="rows"):
        oracle.check_sweep(scenario, out)


def test_checker_rejects_a_crossing_moved_by_1e_3(tmp_path):
    scenario, out = run_cli(tmp_path, small("sweep_crossings"))
    path = oracle.crossings_path(out)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    a, b, q = lines[1].split(",")
    lines[1] = f"{a},{b},{float(q) + 1e-3:.12g}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(oracle.CheckError, match="crossings"):
        oracle.check_sweep(scenario, out)


def test_crossing_gap_is_the_smallest_within_the_csv_rounding_of_q():
    # A root whose gap is just above the tolerance at the printed q but
    # closes below it within the printed q's 12-digit rounding.
    q_star = np.array([0.386752414703])

    def gap_at(q):
        return oracle.CROSSING_VALUE_TOL + 1.2e-14 - 0.24 * (q - q_star)

    assert gap_at(q_star)[0] > oracle.CROSSING_VALUE_TOL
    assert oracle.smallest_gap_within_rounding(gap_at, q_star)[0] < oracle.CROSSING_VALUE_TOL
    assert oracle.smallest_gap_within_rounding(lambda q: 1e-9 * (q - q_star), q_star)[0] == 0.0
    flat = oracle.smallest_gap_within_rounding(lambda q: np.full_like(q, -2e-8), q_star)
    assert flat[0] == 2e-8


def test_checker_rejects_a_dropped_crossing(tmp_path):
    scenario, out = run_cli(tmp_path, small("sweep_crossings"))
    path = oracle.crossings_path(out)
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    with pytest.raises(oracle.CheckError, match="grid sign changes"):
        oracle.check_sweep(scenario, out)


def test_checker_rejects_a_tampered_mc_welfare(tmp_path):
    scenario, out = run_cli(tmp_path, small("optimize_mc"))
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    report["welfare"] = float(np.nextafter(report["welfare"], np.inf))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    with pytest.raises(oracle.CheckError, match="policy_welfare"):
        oracle.check_optimize(scenario, out, "mc")


def test_checker_rejects_a_tampered_value_of_information(tmp_path):
    scenario, out = run_cli(tmp_path, small("treatment_cohort"))
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    report["per_x"][1]["value_of_information"]["voi"] += 1e-9
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    with pytest.raises(oracle.CheckError, match="voi"):
        oracle.check_treatment(scenario, out)


# Synthetic tree, times in ns: main [0, 100] holds parse [10, 30] and sweep
# [40, 90]; sweep holds two overlapping children [50, 60] and [55, 70] and
# one that runs past its end, [85, 95].
SYNTHETIC = [
    [-1, spans.MAIN, 0, 100, None],
    [0, spans.PARSE, 10, 30, {"bytes": 5}],
    [0, spans.SWEEP, 40, 90, {"pairs": 3, "crossings": 2}],
    [2, spans.CURVE_POINT, 50, 60, {"points": 1}],
    [2, spans.UTILITY_MATRIX, 55, 70, None],
    [2, spans.CURVE_POINT, 85, 95, {"points": 1}],
]


def test_self_time_subtracts_the_union_of_clipped_children():
    got = spans.self_times(SYNTHETIC)
    assert got == pytest.approx([e * 1e-9 for e in (30, 20, 25, 10, 15, 10)])


def test_layer_metrics_on_the_synthetic_tree():
    table = spans.summarize(SYNTHETIC)
    metrics = spans.layer_metrics(table, bytes_out=11)
    assert metrics["search.evals_per_crossing"] == 2 / 2 / 2
    assert metrics["kernels.logit_curve_point_calls"] == 2
    assert metrics["kernels.logit_curve_point_s"] == pytest.approx(20e-9)
    assert metrics["search.sweep_self_s"] == pytest.approx(25e-9)
    assert metrics["cli.self_s"] == pytest.approx(30e-9)
    assert metrics["document.bytes_in"] == 5
    assert metrics["cli.bytes_out"] == 11
    shares = spans.layer_shares(table, wall_s=100e-9)
    assert shares["search"] == pytest.approx(0.25)
    assert shares["kernels"] == pytest.approx(0.20)


def test_tracer_counts_a_real_sweep_and_uninstalls(tmp_path):
    from choicewelfare import search

    workload = small("sweep_crossings")
    scenario = str(tmp_path / "in.scn")
    workloads.write_scenario(scenario, workload.scenario(0))
    out = workload.output_path(str(tmp_path))
    kernel = search.logit_welfare_curve
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = tracer.call(spans.MAIN, cli.main, (workload.argv(scenario, out),), {})
    finally:
        tracer.uninstall()
    assert rc == 0
    assert search.logit_welfare_curve is kernel
    crossings = oracle.check_sweep(scenario, out)
    metrics = spans.layer_metrics(spans.summarize(tracer.spans), bytes_out=0)
    assert metrics["search.crossings"] == crossings > 0
    assert metrics["search.pairs"] == 15 * 14 // 2
    assert metrics["kernels.logit_curve_points"] == 15 * 201
    assert metrics["search.evals_per_crossing"] > 1
    root = tracer.spans[0]
    assert sum(spans.self_times(tracer.spans)) == pytest.approx((root[3] - root[2]) / 1e9)


def test_results_with_different_backends_are_not_compared():
    def record(backend):
        return {"workload": "w", "seed": 0, "environment": {"backend": backend},
                "metrics": {"wall_s": {"value": 2.0, "unit": "s"}}}

    assert compare.compare(record("numpy"), record("numpy"))[1].endswith("x1.0000")
    with pytest.raises(envinfo.IncomparableResults):
        compare.compare(record("numpy"), record("numba"))


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(20))) == (50, 9)
    assert run.tail_percentile(list(range(100, 0, -1))) == (90, 90)


def test_host_factor_is_the_geometric_mean_of_part_ratios():
    nominal = reference.NOMINAL_S
    assert reference.host_factor(dict(nominal)) == pytest.approx(1.0)
    assert reference.host_factor({k: 1.2 * t for k, t in nominal.items()}) == pytest.approx(1.2)
    mixed = {"kernel": 2 * nominal["kernel"], "grid": nominal["grid"] / 2,
             "draws": 3 * nominal["draws"], "parse": nominal["parse"] / 3}
    assert reference.host_factor(dict(mixed, imports=9.0)) == pytest.approx(1.0)
    assert reference.import_factor({"imports": 1.5 * nominal["imports"]}) == pytest.approx(1.5)
    assert set(reference.measure()) == set(nominal)


def test_end_to_end_times_are_scaled_by_their_factors_and_memory_is_not():
    samples = [{"wall_s": 2.0, "setup_s": 0.5, "cpu_s": 3.0, "peak_rss_mb": 50.0,
                "host_factor": 2.0, "import_factor": 0.5},
               {"wall_s": 4.0, "setup_s": 1.0, "cpu_s": 5.0, "peak_rss_mb": 60.0,
                "host_factor": 0.5, "import_factor": 1.0}]
    metrics, tails = run._end_to_end_summary(samples)
    assert metrics["wall_s"]["value"] == pytest.approx((1.0 + 8.0) / 2)
    assert metrics["cpu_s"]["value"] == pytest.approx((1.5 + 10.0) / 2)
    assert metrics["setup_s"]["value"] == pytest.approx((1.0 + 1.0) / 2)
    assert metrics["peak_rss_mb"]["value"] == 55.0
    assert tails["wall_s"]["unscaled"] == 3.0
    assert tails["host_factor"]["median"] == pytest.approx(1.25)
