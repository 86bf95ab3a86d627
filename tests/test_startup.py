"""What a fresh interpreter loads: each command imports only the modules it
runs, and the package's exports resolve on first use."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Optional

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_json(code: str, *args: str, openblas_threads: Optional[str] = None):
    """Run `code` in a fresh interpreter and return the JSON it prints.

    The child gets OPENBLAS_NUM_THREADS=`openblas_threads`, or no such
    variable when it is None: this process has imported the CLI, which sets
    it, and would otherwise pass it on.
    """
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


_POPULATION = {
    "schema_version": 1,
    "population": {
        "actions": ["a", "b"],
        "types": [{"utilities": [1.0, 0.0], "weight": 1.0}],
        "models": {"soft": {"kind": "logit", "q": 2.0}},
    },
}
_TREATMENT = {
    "schema_version": 1,
    "treatment": {
        "x_cells": [
            {
                "label": "x1",
                "weight": 1.0,
                "utilities": {"u0_a": 1.0, "u1_a": 0.0, "u0_b": 0.0, "u1_b": 1.0},
                "z_cells": [
                    {
                        "label": "z1",
                        "p_z_given_x": 1.0,
                        "p_xz": 0.3,
                        "belief": {"kind": "point_mass", "pi": 0.2},
                    }
                ],
            }
        ]
    },
}


def test_the_cli_loads_the_treatment_module_only_for_treatment_scenarios():
    loaded = _run_json(
        """
        import json, sys
        import choicewelfare.cli
        from choicewelfare.document import load_bundled_scenario, parse_scenario_text

        def treatment_loaded():
            return "choicewelfare.treatment" in sys.modules

        seen = {"cli": treatment_loaded()}
        parse_scenario_text(sys.argv[1])
        seen["population"] = treatment_loaded()
        load_bundled_scenario()
        seen["hotelling"] = treatment_loaded()
        parse_scenario_text(sys.argv[2])
        seen["treatment"] = treatment_loaded()
        print(json.dumps(seen))
        """,
        json.dumps(_POPULATION),
        json.dumps(_TREATMENT),
    )
    assert loaded == {
        "cli": False,
        "population": False,
        "hotelling": False,
        "treatment": True,
    }


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task"
)
def test_importing_the_cli_starts_no_blas_thread():
    # numpy's bundled OpenBLAS starts a spinning worker per extra CPU unless
    # the CLI asks for one thread before numpy loads.
    found = _run_json(
        """
        import json, os, sys
        import choicewelfare.cli
        print(json.dumps({
            "numpy": "numpy" in sys.modules,
            "threads": len(os.listdir("/proc/self/task")),
            "setting": os.environ.get("OPENBLAS_NUM_THREADS"),
        }))
        """
    )
    assert found == {"numpy": True, "threads": 1, "setting": "1"}


def test_a_blas_thread_count_the_user_set_wins():
    found = _run_json(
        """
        import json, os
        import choicewelfare.cli
        print(json.dumps(os.environ.get("OPENBLAS_NUM_THREADS")))
        """,
        openblas_threads="2",
    )
    assert found == "2"


def test_the_library_leaves_the_blas_thread_setting_alone():
    found = _run_json(
        """
        import json, os, sys
        import choicewelfare.search
        print(json.dumps({
            "numpy": "numpy" in sys.modules,
            "set": "OPENBLAS_NUM_THREADS" in os.environ,
        }))
        """
    )
    assert found == {"numpy": True, "set": False}


def test_exports_resolve_on_first_use_to_their_modules():
    found = _run_json(
        """
        import importlib, json, sys
        import choicewelfare

        out = {"loaded_by_import": sorted(
            m for m in sys.modules if m.startswith("choicewelfare.")
        )}
        out["all"] = choicewelfare.__all__
        out["listed_by_dir"] = sorted(set(choicewelfare.__all__) & set(dir(choicewelfare)))
        out["not_the_module_attribute"] = [
            name for name in choicewelfare.__all__
            if getattr(choicewelfare, name) is not getattr(
                importlib.import_module(
                    "choicewelfare." + choicewelfare._MODULE_OF[name]
                ),
                name,
            )
        ]
        try:
            choicewelfare.no_such_name
        except AttributeError as exc:
            out["unknown"] = str(exc)
        from choicewelfare import cli, search
        out["submodules"] = [cli.__name__, search.__name__]
        print(json.dumps(out))
        """
    )
    assert found["loaded_by_import"] == []
    names = found["all"]
    assert len(names) == len(set(names)) == 87
    assert {"build_report", "sweep_logit", "warm_up", "TreatmentScenario"} <= set(names)
    assert found["listed_by_dir"] == sorted(names)
    assert found["not_the_module_attribute"] == []
    assert found["unknown"] == (
        "module 'choicewelfare' has no attribute 'no_such_name'"
    )
    assert found["submodules"] == ["choicewelfare.cli", "choicewelfare.search"]


def test_a_treatment_document_built_in_code_serializes_before_any_parse():
    # The belief record kinds are built on first use; serializing must build
    # them too, not only parsing.
    result = _run_json(
        """
        import json
        import numpy as np
        from choicewelfare import (
            BetaBelief, CovariateCell, EmpiricalBelief, MixtureBelief,
            OutcomeUtilities, PointMassBelief, ScenarioDocument,
            TreatmentScenario, UniformBelief, XCell, parse_scenario_text,
            serialize_scenario,
        )

        beliefs = [
            PointMassBelief(pi=0.2),
            UniformBelief(lo=0.1, hi=0.7),
            BetaBelief(a=2.0, b=5.0),
            EmpiricalBelief(samples=np.array([0.1, 0.4, 0.4, 0.9])),
            MixtureBelief(
                components=(PointMassBelief(pi=0.9), BetaBelief(a=0.5, b=2.0)),
                weights=(0.25, 0.75),
            ),
        ]
        cells = tuple(
            CovariateCell(
                z_label=f"z{j}", p_z_given_x=1 / len(beliefs), p_xz=0.3, belief=b
            )
            for j, b in enumerate(beliefs)
        )
        utilities = OutcomeUtilities.from_components(
            u0_a=1.0, u1_a=0.0, u0_b=0.0, u1_b=1.0
        )
        doc = ScenarioDocument(
            schema_version=1,
            treatment=TreatmentScenario(
                x_cells=(XCell(x_label="x1", weight=1.0, utilities=utilities,
                               z_cells=cells),)
            ),
        )
        text = serialize_scenario(doc)
        parsed = parse_scenario_text(text)
        cells_out = json.loads(text)["treatment"]["x_cells"][0]["z_cells"]
        print(json.dumps({
            "equal": parsed == doc,
            "same_text": serialize_scenario(parsed) == text,
            "kinds": [z["belief"]["kind"] for z in cells_out],
        }))
        """
    )
    assert result == {
        "equal": True,
        "same_text": True,
        "kinds": ["point_mass", "uniform", "beta", "empirical", "mixture"],
    }
