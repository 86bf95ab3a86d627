"""Smoke test of benchmarks/scaling.py: one repeat on tiny scenarios."""

import json
import os
import re
import shutil
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
    # --tiny keeps the ends of the k = 3...9 sweep axis and the k = 6...14
    # optimize axes.
    sweeps = {"sweep_k3", "sweep_k9"}
    axes = {f"optimize_{kind}_k{k}" for kind in ("mc", "logit") for k in (6, 14)}
    assert set(record["commands"]) == {
        "sweep_crossings", "sweep_fine_grid", "optimize_mc", "treatment_cohort"
    } | sweeps | axes
    for name in sweeps | {"sweep_crossings", "sweep_fine_grid"}:
        command = record["commands"][name]
        subsets = 2 ** command["sizes"]["actions"] - 1
        assert command["subsets"] == subsets
        assert command["pairs"] == subsets * (subsets - 1) // 2
        assert command["trees"]["this"]["crossings"] >= 0
    for name in sweeps:
        command = record["commands"][name]
        k = command["sizes"]["actions"]
        assert name.endswith(f"_k{k}") and command["sizes"]["types"] == 4
        assert command["argv"][:3] == ["sweep", "--scenario", f"../{name}.scn"]
    assert record["commands"]["sweep_k9"]["pairs"] == 130_305
    for name in axes:
        command = record["commands"][name]
        k = command["sizes"]["actions"]
        assert name.endswith(f"_k{k}") and command["subsets"] == 2**k - 1
        assert command["argv"][:4] == [
            "optimize", "--scenario", f"../{name}.scn", "--model"]
        assert command["argv"][4] == name.split("_")[1]
    for name, command in record["commands"].items():
        assert command["repeats"] == 1
        cell = command["trees"]["this"]
        assert cell["correct"] is True and cell["outputs_stable"] is True
        assert cell["outputs_sha256"]
        assert all(re.fullmatch("[0-9a-f]{64}", d) for d in cell["outputs_sha256"].values())
        for metric in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb"):
            summary = cell[metric]
            assert set(summary) == {"median", "q1", "q3", "samples"}
            assert len(summary["samples"]) == 1 and summary["median"] > 0


def test_each_tree_runs_its_own_sources(tmp_path):
    # A copy of the package whose CLI exits 3: the script must run it from
    # that tree and name the tree, after this checkout's run passed.
    package = tmp_path / "broken" / "src" / "choicewelfare"
    shutil.copytree(ROOT / "src" / "choicewelfare", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "cli.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef main(argv=None):\n    return 3\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "scaling.py"), "--label", "broken",
         "--tiny", "--repeats", "1", "--src", f"this={ROOT}",
         "--src", f"broken={tmp_path / 'broken'}", "--out", str(tmp_path / "record.json")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode != 0
    assert "RuntimeError: sweep_crossings on broken: exit 0, cli status 3" in done.stderr
    assert not (tmp_path / "record.json").exists()
