"""Smoke test of benchmarks/scaling.py: one repeat on tiny scenarios."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_scaling_script_writes_a_record_of_the_documented_shape(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "scaling.py"), "--label", "smoke",
         "--tiny", "--repeats", "1", "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text(encoding="utf-8"))

    assert (record["label"], record["repeats"], record["tiny"]) == ("smoke", 1, True)
    assert record["runs_per_repeat"] == 3
    assert set(record["environment"]["numpy_simd"]) == {"baseline", "dispatch"}
    assert list(record["trees"]) == ["this"]
    assert re.fullmatch("[0-9a-f]{64}", record["trees"]["this"]["source_sha256"])
    # --tiny keeps the ends of the k = 6...14 axes.
    axes = {f"optimize_{kind}_k{k}" for kind in ("mc", "logit") for k in (6, 14)}
    assert set(record["commands"]) == {
        "sweep_crossings", "sweep_fine_grid", "optimize_mc", "treatment_cohort"
    } | axes
    for name in axes:
        command = record["commands"][name]
        k = command["sizes"]["actions"]
        assert name.endswith(f"_k{k}") and command["subsets"] == 2**k - 1
        assert command["argv"][:4] == [
            "optimize", "--scenario", f"../{name}.scn", "--model"]
        assert command["argv"][4] == name.split("_")[1]
    for name, command in record["commands"].items():
        cell = command["trees"]["this"]
        assert cell["correct"] is True and cell["outputs_stable"] is True
        assert cell["outputs_sha256"]
        assert all(re.fullmatch("[0-9a-f]{64}", d) for d in cell["outputs_sha256"].values())
        for metric in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb"):
            summary = cell[metric]
            assert set(summary) == {"median", "q1", "q3", "samples"}
            assert len(summary["samples"]) == 1 and summary["median"] > 0
        assert "choicewelfare.cli" in cell["modules_after_cli_import"]
        assert "choicewelfare.treatment" not in cell["modules_after_cli_import"]
        loads_treatment = "choicewelfare.treatment" in cell["modules_after_command"]
        assert loads_treatment == (name == "treatment_cohort")
