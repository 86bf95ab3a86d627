"""End-to-end command-line tests driven through main(argv)."""

import csv
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from choicewelfare import cli
from choicewelfare.cli import main
from choicewelfare.document import parse_scenario
from choicewelfare.search import SweepConfig, sweep_logit


def _write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def population_file(tmp_path):
    return _write(
        tmp_path,
        "pop.scn",
        {
            "schema_version": 1,
            "population": {
                "actions": ["a", "b"],
                "types": [
                    {"utilities": [1.0, 0.0], "weight": 0.5},
                    {"utilities": [0.0, 1.0], "weight": 0.5},
                ],
                "models": {
                    "rational": {"kind": "rational_max"},
                    "soft": {"kind": "logit", "q": 2.0},
                    "mc": {
                        "kind": "random_utility_mc",
                        "error": {"kind": "gumbel"},
                        "samples": 2000,
                        "seed": 0,
                    },
                    "nudge": {
                        "kind": "default_nudge",
                        "default_action": "a",
                        "gamma": 0.4,
                        "base": {"kind": "logit", "q": 2.0},
                    },
                },
            },
        },
    )


@pytest.fixture
def treatment_file(tmp_path):
    return _write(
        tmp_path,
        "treat.scn",
        {
            "schema_version": 1,
            "treatment": {
                "x_cells": [
                    {
                        "label": "x1",
                        "weight": 1.0,
                        "utilities": {
                            "u0_a": 1.0,
                            "u1_a": 0.0,
                            "u0_b": 0.5,
                            "u1_b": 1.0,
                        },
                        "z_cells": [
                            {
                                "label": "z1",
                                "p_z_given_x": 0.6,
                                "p_xz": 0.1,
                                "belief": {"kind": "point_mass", "pi": 0.1},
                            },
                            {
                                "label": "z2",
                                "p_z_given_x": 0.4,
                                "p_xz": 0.5,
                                "belief": {"kind": "point_mass", "pi": 0.5},
                            },
                        ],
                    }
                ]
            },
        },
    )


@pytest.fixture
def hotelling_file(tmp_path):
    return _write(
        tmp_path,
        "line.scn",
        {
            "schema_version": 1,
            "hotelling": {
                "store_locations": [0.5, 1.0, 1.6],
                "person_locations": [-0.5, 1.0, 2.0],
            },
            "sweep": {"q_min": 0.0, "q_max": 1.0, "q_step": 0.5},
        },
    )


# --- evaluate ---


def test_evaluate_rational_zero_regret(population_file, capsys):
    assert main(["evaluate", "--scenario", population_file, "--model", "rational"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["regret"] == 0.0
    assert payload["welfare"] == 1.0
    assert payload["available"] == ["a", "b"]
    assert payload["per_type"][0]["probs"] == {"a": 1.0, "b": 0.0}


def test_evaluate_restricted_choice_set(population_file, capsys):
    assert (
        main(
            [
                "evaluate",
                "--scenario",
                population_file,
                "--model",
                "rational",
                "--available",
                " a ",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["available"] == ["a"]
    assert payload["welfare"] == 0.5


def test_evaluate_eta_charges_nudge_cost(population_file, capsys):
    def welfare_at(eta):
        assert (
            main(
                [
                    "evaluate",
                    "--scenario",
                    population_file,
                    "--model",
                    "nudge",
                    "--eta",
                    eta,
                ]
            )
            == 0
        )
        return json.loads(capsys.readouterr().out)["welfare"]

    assert welfare_at("1.0") < welfare_at("0.0")


def test_evaluate_writes_out_file(population_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert (
        main(
            [
                "evaluate",
                "--scenario",
                population_file,
                "--model",
                "soft",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert abs(payload["welfare"] - 0.8807970779778823) < 1e-12


# --- optimize ---


def test_optimize_reports_best_subset(population_file, capsys):
    assert main(["optimize", "--scenario", population_file, "--model", "soft"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["subset"] == ["a", "b"]
    assert abs(payload["welfare"] - 0.8807970779778823) < 1e-12


def test_optimize_mc_seed_override(population_file, capsys):
    def run(seed):
        assert (
            main(
                [
                    "optimize",
                    "--scenario",
                    population_file,
                    "--model",
                    "mc",
                    "--seed",
                    seed,
                    "--samples",
                    "2000",
                ]
            )
            == 0
        )
        return capsys.readouterr().out

    first = run("1")
    assert run("1") == first  # same seed, byte-identical report
    assert run("2") != first


# --- sweep and hotelling ---


def test_sweep_population_csv(population_file, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert (
        main(
            [
                "sweep",
                "--scenario",
                population_file,
                "--out",
                str(out),
                "--q-min",
                "0",
                "--q-max",
                "1",
                "--q-step",
                "0.5",
            ]
        )
        == 0
    )
    stdout = capsys.readouterr().out
    assert "wrote 9 sweep rows" in stdout
    raw = out.read_bytes()
    assert b"\r\n" in raw  # CSV rows end with CRLF
    lines = raw.decode("utf-8").strip().splitlines()
    assert lines[0] == "subset_label,q,welfare,is_envelope"
    assert len(lines) == 10
    assert lines[1].startswith("a,0,0.5,")
    crossings = tmp_path / "rows.crossings.csv"
    assert crossings.exists()
    assert crossings.read_text(encoding="utf-8").splitlines()[0] == "subset_a,subset_b,q"


def test_sweep_accepts_hotelling_scenario(hotelling_file, tmp_path, capsys):
    out = tmp_path / "line.csv"
    assert main(["sweep", "--scenario", hotelling_file, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    # 7 subsets x 3 grid points from the file's own sweep section
    assert "wrote 21 sweep rows" in stdout
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[1] == "1,0,-1.16666666667,false"  # 12 significant digits


def test_hotelling_defaults_to_bundled_scenario(tmp_path, capsys):
    out = tmp_path / "bundle.csv"
    assert main(["hotelling", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "wrote 1407 sweep rows" in stdout  # 7 subsets x 201 grid points
    assert "wrote 12 crossings" in stdout
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[1] == "1,0,-1.16666666667,false"


def test_hotelling_output_is_reproducible(tmp_path):
    args = ["hotelling", "--q-min", "0", "--q-max", "5", "--q-step", "0.25"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert (tmp_path / "a.crossings.csv").read_bytes() == (
        tmp_path / "b.crossings.csv"
    ).read_bytes()


# sha256 of (rows file, crossings file) for each sweep command and format.
# Sweep files are plot data that other tools read: a change to any byte must
# be deliberate. The CSV floats carry 12 significant digits, JSON floats all
# 17, and numpy's float64 exp differs in the last bit between its AVX-512
# and its AVX2/baseline code on x86-64, which shows in the hotelling JSON
# files only; those list both digests.
_SWEEP_SHA256 = {
    ("sweep", "csv"): {
        (
            "3edb567475788abdd4cac1b890f530105765d7784a88af6a5603f48a342f60f5",
            "2f3fb4f0045ab9b3f0e4c40f312e5aa4b4b2f331bb10dbc825a9a7f95c25f44c",
        ),
    },
    ("sweep", "json"): {
        (
            "a8217d5d1a39f0001725ebeb31940e6c292451ef4defdbe35beb5db695b9690c",
            "d8a74ecddd3cd7fe523765aa91f297f94e002e38f764c9ed02d2fc4cac90adde",
        ),
    },
    ("hotelling", "csv"): {
        (
            "5cc6ddc223fbbc6b2ea9d0e963034755c74bbe4dd6828e298eb15852940bb2a9",
            "55c667a39e89a20de2f6dd5018fcb0eda9aaf527c2978121b628666e73364cbd",
        ),
    },
    ("hotelling", "json"): {
        (  # AVX-512
            "e9253cacf3b0af598ace56d3d1924607ff7f1be0e91e02f4ffd4db0214395446",
            "80484045d8eb39d119d2ae71c5237a4ef0fd224f10dbe70233be07fa05b2193b",
        ),
        (  # AVX2 or baseline
            "54528c2226bbd5dcd881ece7693be16dc27d7f86fc7e01ca4ece9df7239dd463",
            "00a348c2cbfe694be450e142b9ba5a4fcc5f7b0f03bddcbf53a09248a53b95c2",
        ),
    },
}


@pytest.mark.parametrize("command, fmt", sorted(_SWEEP_SHA256))
def test_sweep_output_bytes_are_pinned(command, fmt, population_file, tmp_path, capsys):
    if command == "sweep":
        argv = ["sweep", "--scenario", population_file]  # default grid
    else:
        argv = ["hotelling", "--q-min", "0", "--q-max", "5", "--q-step", "0.25"]
    out = tmp_path / f"rows.{fmt}"
    assert main(argv + ["--out", str(out), "--format", fmt]) == 0
    capsys.readouterr()
    digests = tuple(
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (out, tmp_path / f"rows.crossings.{fmt}")
    )
    assert digests in _SWEEP_SHA256[command, fmt]


def test_sweep_csv_quotes_labels_as_csv_writer_does(tmp_path, capsys):
    # The parser and ActionSet accept any distinct strings as labels, the
    # empty one and line breaks included.
    labels = ["a,b", 'say "hi"', " lead", "\u00e9t\u00e9", "", "two\r\nlines"]
    rng = np.random.default_rng(3)
    scenario = _write(
        tmp_path,
        "quoted.scn",
        {
            "schema_version": 1,
            "population": {
                "actions": labels,
                "types": [
                    {"utilities": row.tolist(), "weight": 0.125}
                    for row in rng.normal(size=(8, len(labels)))
                ],
            },
        },
    )
    out = tmp_path / "rows.csv"
    argv = ["sweep", "--scenario", scenario, "--out", str(out)]
    assert main(argv + ["--q-min", "0", "--q-max", "4", "--q-step", "0.5"]) == 0
    capsys.readouterr()

    pop = parse_scenario(scenario).population.population
    result = sweep_logit(pop, SweepConfig(q_min=0.0, q_max=4.0, q_step=0.5).grid())

    def label(subset):
        return "+".join(labels[i] for i in subset)

    def csv_bytes(header, rows):
        sio = io.StringIO()
        writer = csv.writer(sio)
        writer.writerow(header)
        writer.writerows(rows)
        return sio.getvalue().encode("utf-8")

    rows = [
        (
            label(subset),
            format(float(q), ".12g"),
            format(float(w), ".12g"),
            "true" if best == si else "false",
        )
        for si, subset in enumerate(result.subsets)
        for q, w, best in zip(result.grid.q_values, result.welfare[si], result.envelope)
    ]
    assert len(rows) == 63 * 9
    assert out.read_bytes() == csv_bytes(("subset_label", "q", "welfare", "is_envelope"), rows)
    crossings = [
        (label(c.subset_a), label(c.subset_b), format(c.q_star, ".12g"))
        for c in result.crossings
    ]
    assert crossings
    assert (tmp_path / "rows.crossings.csv").read_bytes() == csv_bytes(
        ("subset_a", "subset_b", "q"), crossings
    )


# Runs `cli.main` on each argv in a fresh interpreter, first pinned to one
# CPU when a CPU is given, and prints the kernel's worker count and the
# number of threads started.
_CLI_ON_CPUS = """
import _thread, json, os, sys
cpu = json.loads(sys.argv[1])
if cpu is not None:
    os.sched_setaffinity(0, {cpu})
started = []
start_new_thread = _thread.start_new_thread
def counting(*args):
    started.append(args)
    return start_new_thread(*args)
_thread.start_new_thread = counting
from choicewelfare import _kernels, cli
for argv in json.loads(sys.argv[2]):
    if cli.main(argv) != 0:
        sys.exit(1)
print(_kernels.WORKERS, len(started))
"""

_needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.sched_setaffinity and two usable CPUs, or the unpinned run "
           "would not split either",
)


def _outputs_on_one_and_all_cpus(tmp_path, argvs):
    """The files the argvs write in a fresh interpreter pinned to one CPU
    and in one on every usable CPU, after checking that only the second
    started threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    outputs = {}
    for name, cpu in (("one", min(os.sched_getaffinity(0))), ("all", None)):
        run_dir = tmp_path / name
        run_dir.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", _CLI_ON_CPUS, json.dumps(cpu), json.dumps(argvs)],
            cwd=run_dir, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        workers, started = map(int, done.stdout.splitlines()[-1].split())
        assert workers == (1 if cpu is not None else len(os.sched_getaffinity(0)))
        assert (started > 0) == (cpu is None)
        outputs[name] = {f.name: f.read_bytes() for f in sorted(run_dir.iterdir())}
    return outputs


@_needs_two_cpus
def test_sweep_outputs_are_the_same_on_one_cpu(tmp_path):
    # 100 types x 3 actions on a 1,001-point grid: the two- and three-action
    # curve calls hold 7 and 10 chunks, so on two or more CPUs they
    # split. The JSON output holds every bit of each welfare value; the CSV
    # 12 digits.
    rng = np.random.default_rng(18)
    scenario = _write(tmp_path, "wide.scn", {
        "schema_version": 1,
        "population": {
            "actions": ["a", "b", "c"],
            "types": [{"utilities": [float(u) for u in row], "weight": 0.01}
                      for row in rng.normal(scale=2.0, size=(100, 3))],
        },
    })
    argvs = [["sweep", "--scenario", scenario, "--out", f"rows.{fmt}", "--q-step", "0.01",
              "--format", fmt] for fmt in ("csv", "json")]
    outputs = _outputs_on_one_and_all_cpus(tmp_path, argvs)
    assert sorted(outputs["one"]) == [
        "rows.crossings.csv", "rows.crossings.json", "rows.csv", "rows.json"]
    assert len(json.loads(outputs["one"]["rows.json"])["rows"]) == 7 * 1001
    assert outputs["one"] == outputs["all"]


@_needs_two_cpus
def test_optimize_outputs_are_the_same_on_one_cpu(tmp_path):
    # 100 types x 6 actions with 1,200 normal-error draws each, the
    # optimize_mc benchmark's size: on two or more CPUs the type blocks
    # split. The JSON report holds every bit of the welfare.
    rng = np.random.default_rng(21)
    scenario = _write(tmp_path, "mc.scn", {
        "schema_version": 1,
        "population": {
            "actions": list("abcdef"),
            "types": [{"utilities": [float(u) for u in row], "weight": 0.01}
                      for row in rng.normal(size=(100, 6))],
            "models": {"mc": {"kind": "random_utility_mc", "error": {"kind": "normal", "sigma": 1.0},
                              "samples": 1200, "seed": 0}},
        },
    })
    argvs = [["optimize", "--scenario", scenario, "--model", "mc", "--out", "best.json"]]
    outputs = _outputs_on_one_and_all_cpus(tmp_path, argvs)
    assert sorted(outputs["one"]) == ["best.json"]
    assert json.loads(outputs["one"]["best.json"])["welfare"] > 0.0
    assert outputs["one"] == outputs["all"]


def test_sweep_json_format(hotelling_file, tmp_path, capsys):
    out = tmp_path / "rows.json"
    assert (
        main(
            [
                "sweep",
                "--scenario",
                hotelling_file,
                "--out",
                str(out),
                "--format",
                "json",
            ]
        )
        == 0
    )
    capsys.readouterr()
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    assert len(rows) == 21
    assert rows[0]["subset_label"] == "1"
    assert rows[0]["q"] == 0.0
    crossings = json.loads(
        (tmp_path / "rows.crossings.json").read_text(encoding="utf-8")
    )["crossings"]
    assert isinstance(crossings, list)


def test_crossings_path_without_extension(tmp_path, capsys):
    out = tmp_path / "plain"
    assert (
        main(
            [
                "hotelling",
                "--out",
                str(out),
                "--q-min",
                "0",
                "--q-max",
                "1",
                "--q-step",
                "0.5",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert out.exists()
    assert (tmp_path / "plain.crossings.csv").exists()


# --- treatment ---


def test_treatment_reference_report(treatment_file, capsys):
    assert main(["treatment", "--scenario", treatment_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["aggregate_welfare"] == 0.8400000000000001
    per_x = payload["per_x"][0]
    assert per_x["mandate_treatment"] == "A"
    assert per_x["mandate_welfare"] == 0.74
    assert per_x["value_of_information"]["voi"] == 0.1
    assert per_x["z_b"] == ["z2"]
    assert per_x["q_by_z"] == {"z1": 1.0, "z2": 1.0}
    assert per_x["recommendation"] == "decentralize"


def test_treatment_requires_beliefs(treatment_file, tmp_path, capsys):
    doc = json.loads(open(treatment_file, encoding="utf-8").read())
    del doc["treatment"]["x_cells"][0]["z_cells"][1]["belief"]
    path = _write(tmp_path, "nobelief.scn", doc)
    assert main(["treatment", "--scenario", path]) == 2
    err = capsys.readouterr().err
    assert "x_cells[0].z_cells[1]" in err
    assert "belief required" in err


# --- exit codes and failure modes ---


def test_missing_required_flag_is_usage_error(population_file, capsys):
    assert main(["evaluate", "--scenario", population_file]) == 1
    assert "--model" in capsys.readouterr().err


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_unknown_model_is_scenario_error(population_file, capsys):
    assert main(["evaluate", "--scenario", population_file, "--model", "zzz"]) == 2
    err = capsys.readouterr().err
    assert "unknown model 'zzz'" in err
    assert "rational" in err  # lists what is defined


def test_missing_scenario_file_is_scenario_error(tmp_path, capsys):
    assert main(["evaluate", "--scenario", str(tmp_path / "gone.scn"), "--model", "m"]) == 2
    assert "cannot read scenario file" in capsys.readouterr().err


def test_a_scenario_file_that_is_not_utf8_is_scenario_error(tmp_path, capsys):
    path = tmp_path / "latin1.scn"
    path.write_bytes(b'{"schema_version": 1, "population": {"actions": ["caf\xe9"]}}')
    assert main(["evaluate", "--scenario", str(path), "--model", "m"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: cannot read scenario file: 'utf-8' codec can't decode")


def test_syntax_error_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.scn"
    path.write_text('{"schema_version": 1,,}', encoding="utf-8")
    assert main(["evaluate", "--scenario", str(path), "--model", "m"]) == 2
    assert "line 1" in capsys.readouterr().err


def test_kind_mismatch_is_scenario_error(treatment_file, population_file, capsys):
    assert main(["evaluate", "--scenario", treatment_file, "--model", "m"]) == 2
    assert "does not match command 'evaluate'" in capsys.readouterr().err
    assert main(["hotelling", "--scenario", population_file, "--out", "x.csv"]) == 2
    capsys.readouterr()
    assert main(["sweep", "--scenario", treatment_file, "--out", "x.csv"]) == 2
    assert "'population' or 'hotelling'" in capsys.readouterr().err


def test_a_sweep_over_utilities_further_apart_than_floats_is_scenario_error(tmp_path, capsys):
    path = tmp_path / "wide.scn"
    path.write_text(json.dumps({"schema_version": 1, "population": {
        "actions": ["a", "b"],
        "types": [{"utilities": [1e308, -1e308], "weight": 1.0}]}}), encoding="utf-8")
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: type 0: utilities 1e+308 (action 'a') and -1e+308")
    assert not out.exists()


def test_a_sweep_whose_q_times_a_gap_overflows_prints_nothing_to_stderr(tmp_path):
    # Run as a user runs it, under Python's default warning filters: numpy's
    # overflow warning would be printed to stderr.
    path = _write(tmp_path, "wide.scn", {"schema_version": 1, "population": {
        "actions": ["a", "b", "c"],
        "types": [{"utilities": [1e308, 0.0, 5e307], "weight": 0.5},
                  {"utilities": [0.0, 1e308, 0.2], "weight": 0.5}]}})
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run(
        [sys.executable, "-m", "choicewelfare.cli", "sweep", "--scenario", path, "--out", "rows.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0 and done.stderr == ""
    assert (tmp_path / "rows.crossings.csv").read_text(encoding="utf-8").count("\n") > 1


@pytest.mark.parametrize("command", ["optimize", "evaluate"])
def test_a_table_that_does_not_fit_its_actions_is_scenario_error(tmp_path, capsys, command):
    path = _write(tmp_path, "table.scn", {"schema_version": 1, "population": {
        "actions": ["a", "b", "c"],
        "types": [{"utilities": [1.0, 0.0, 0.5], "weight": 1.0}],
        "models": {"table": {"kind": "independent_table", "probs": [0.5, 0.5]}}}})
    assert main([command, "--scenario", path, "--model", "table"]) == 2
    assert capsys.readouterr().err == (
        "error: population.models.table: probs must hold one entry per action (3), got 2\n"
    )


@pytest.mark.parametrize("command", ["sweep", "hotelling"])
def test_locations_whose_squared_distance_overflows_are_scenario_error(
    tmp_path, capsys, command
):
    # Refused when parsed, before numpy could warn of the overflow (the
    # suite turns a RuntimeWarning into an error).
    path = _write(tmp_path, "far.scn", {"schema_version": 1, "hotelling": {
        "store_locations": [1e200, 0.0], "person_locations": [0.0, 1.0]}})
    out = tmp_path / "rows.csv"
    assert main([command, "--scenario", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: hotelling: store_locations and person_locations must lie close enough "
        "that every squared distance is finite, got a distance of 1e+200\n"
    )
    assert not out.exists()


def test_unknown_available_label_is_scenario_error(population_file, capsys):
    assert (
        main(
            [
                "evaluate",
                "--scenario",
                population_file,
                "--model",
                "rational",
                "--available",
                "a,zzz",
            ]
        )
        == 2
    )
    assert "unknown action label 'zzz'" in capsys.readouterr().err


def test_repeated_available_label_is_scenario_error(population_file, capsys):
    argv = ["evaluate", "--scenario", population_file, "--model", "rational"]
    assert main(argv + ["--available", "a, b,a"]) == 2
    assert capsys.readouterr().err == (
        "error: --available: action labels must be distinct, got 'a' more than once\n"
    )


def test_csv_format_rejected_for_reports(population_file, treatment_file, capsys):
    assert (
        main(
            [
                "evaluate",
                "--scenario",
                population_file,
                "--model",
                "rational",
                "--format",
                "csv",
            ]
        )
        == 1
    )
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err
    assert main(["treatment", "--scenario", treatment_file, "--format", "csv"]) == 1
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


def test_bad_eta_is_usage_error(population_file, capsys):
    assert (
        main(
            [
                "evaluate",
                "--scenario",
                population_file,
                "--model",
                "rational",
                "--eta",
                "1.5",
            ]
        )
        == 1
    )
    assert "--eta" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "optimize"])
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_bad_samples_is_usage_error(population_file, capsys, command, samples):
    argv = [command, "--scenario", population_file, "--model", "mc"]
    assert main(argv + ["--samples", samples]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: samples must be >= 1\n"
    assert captured.out == ""


def test_bad_grid_step_is_usage_error(hotelling_file, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert (
        main(
            [
                "sweep",
                "--scenario",
                hotelling_file,
                "--out",
                str(out),
                "--q-step",
                "0",
            ]
        )
        == 1
    )
    assert "q_step" in capsys.readouterr().err


BAD_Q_RANGES = [
    (float("nan"), 10.0, 0.1, "q_min must be a finite number >= 0, got nan"),
    (0.0, float("inf"), 0.1, "q_max must be a finite number, got inf"),
    (float("-inf"), 1.0, 0.1, "q_min must be a finite number >= 0, got -inf"),
    (0.0, 1.0, float("inf"), "q_step must be a finite number > 0, got inf"),
    (0.0, 1.0, 0.0, "q_step must be a finite number > 0, got 0.0"),
    (0.0, 1.0, -0.5, "q_step must be a finite number > 0, got -0.5"),
    (1.0, 0.5, 0.1, "q_max must be >= q_min"),
    (-0.5, 1.0, 0.1, "q_min must be a finite number >= 0, got -0.5"),
    # (q_max - q_min) / q_step is inf, past intp, then past a float64 array.
    (0.0, 10.0, 1e-320,
     "q_min 0.0 to q_max 10.0 in steps of q_step 1e-320 makes too many grid points to hold"),
    (0.0, 1e300, 1e-3,
     "q_min 0.0 to q_max 1e+300 in steps of q_step 0.001 makes too many grid points to hold"),
    (0.0, 5e18, 1.0,
     "q_min 0.0 to q_max 5e+18 in steps of q_step 1.0 makes too many grid points to hold"),
]


@pytest.mark.parametrize(
    "q_min, q_max, q_step, message",
    BAD_Q_RANGES,
    ids=[f"{q_min}-{q_max}-{q_step}" for q_min, q_max, q_step, _ in BAD_Q_RANGES],
)
def test_bad_q_range_is_one_rule(
    hotelling_file, tmp_path, capsys, q_min, q_max, q_step, message
):
    with pytest.raises(ValueError) as config_error:
        SweepConfig(q_min, q_max, q_step)
    assert str(config_error.value) == message
    flags = [f"--q-min={q_min!r}", f"--q-max={q_max!r}", f"--q-step={q_step!r}"]
    out = str(tmp_path / "x.csv")
    assert main(["sweep", "--scenario", hotelling_file, "--out", out, *flags]) == 1
    assert capsys.readouterr().err == f"error: {config_error.value}\n"


def test_unwritable_out_is_runtime_error(population_file, tmp_path, capsys):
    target = tmp_path / "missing-dir" / "report.json"
    assert (
        main(
            [
                "evaluate",
                "--scenario",
                population_file,
                "--model",
                "rational",
                "--out",
                str(target),
            ]
        )
        == 3
    )
    assert "error:" in capsys.readouterr().err


def test_out_files_get_the_mode_of_a_new_file(population_file, hotelling_file, tmp_path, capsys):
    # A new file gets 0o666 less the umask, as open(path, "w") would give it.
    rows, report = tmp_path / "rows.csv", tmp_path / "report.json"
    old_umask = os.umask(0o027)
    try:
        assert main(["sweep", "--scenario", hotelling_file, "--out", str(rows)]) == 0
        argv = ["evaluate", "--scenario", population_file, "--model", "soft", "--out", str(report)]
        assert main(argv) == 0
    finally:
        os.umask(old_umask)
    capsys.readouterr()
    files = (rows, tmp_path / "rows.crossings.csv", report)
    assert [stat.S_IMODE(os.stat(p).st_mode) for p in files] == [0o640] * 3


@pytest.mark.parametrize("where", ["missing-dir/rows.csv", "a-dir"])
def test_a_write_error_names_the_out_path_and_leaves_no_temp_file(
    hotelling_file, tmp_path, capsys, where
):
    (tmp_path / "a-dir").mkdir()
    out = str(tmp_path / where)
    assert main(["sweep", "--scenario", hotelling_file, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.endswith(f": {out!r}\n")
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".part")]


def test_a_failed_sweep_write_leaves_both_files_as_they_were(hotelling_file, tmp_path, capsys):
    # The crossings path is a directory: the rows file must not be replaced
    # either, and neither temp file may stay behind.
    rows = tmp_path / "rows.csv"
    rows.write_text("old rows\n", encoding="utf-8")
    (tmp_path / "rows.crossings.csv").mkdir()
    assert main(["hotelling", "--out", str(rows)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ")
    assert err.endswith(f": {str(tmp_path / 'rows.crossings.csv')!r}\n")
    assert rows.read_text(encoding="utf-8") == "old rows\n"
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".part")]


@pytest.mark.parametrize(
    "error, message",
    [
        (
            MemoryError("Unable to allocate 72.8 TiB for an array"),
            "error: out of memory: Unable to allocate 72.8 TiB for an array\n",
        ),
        (MemoryError(), "error: out of memory\n"),
    ],
    ids=["numpy", "bare"],
)
def test_out_of_memory_is_runtime_error(
    hotelling_file, tmp_path, capsys, monkeypatch, error, message
):
    def exhausted(pop, grid):
        raise error

    monkeypatch.setattr(cli, "sweep_logit", exhausted)
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--scenario", hotelling_file, "--out", str(out)]) == 3
    assert capsys.readouterr().err == message
    assert not out.exists()
