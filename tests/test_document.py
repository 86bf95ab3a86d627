"""Scenario file parsing, validation error paths, and serialization."""

import copy
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choicewelfare import (
    ActionSet,
    AlphaRational,
    BetaBelief,
    CovariateCell,
    DefaultNudge,
    EmpiricalBelief,
    GumbelIID,
    HotellingScenario,
    IndependentTable,
    Logit,
    MCConfig,
    MixtureBelief,
    NormalIID,
    OutcomeUtilities,
    PointMassBelief,
    Population,
    PopulationSection,
    RandomUtilityMC,
    RationalMax,
    ScenarioDocument,
    ScenarioError,
    SweepConfig,
    TreatmentScenario,
    UniformBelief,
    UniformBoundedIID,
    UtilityType,
    XCell,
    bundled_scenario_text,
    document_to_json_dict,
    load_bundled_scenario,
    optimize_choice_set,
    parse_scenario,
    parse_scenario_text,
    policy_welfare,
    serialize_scenario,
)


def _population_doc(**overrides):
    doc = {
        "schema_version": 1,
        "population": {
            "actions": ["a", "b"],
            "types": [
                {"utilities": [1.0, 0.0], "weight": 0.5},
                {"utilities": [0.0, 1.0], "weight": 0.5},
            ],
        },
    }
    doc.update(overrides)
    return doc


def _treatment_doc():
    return {
        "schema_version": 1,
        "treatment": {
            "x_cells": [
                {
                    "label": "x1",
                    "weight": 1.0,
                    "utilities": {"u0_a": 1.0, "u1_a": 0.0, "u0_b": 0.5, "u1_b": 1.0},
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
                            "belief": {
                                "kind": "mixture",
                                "components": [
                                    {"kind": "uniform", "lo": 0.0, "hi": 1.0},
                                    {"kind": "beta", "a": 2.0, "b": 3.0},
                                ],
                                "weights": [0.5, 0.5],
                            },
                        },
                    ],
                }
            ]
        },
    }


def _parse(doc_dict):
    return parse_scenario_text(json.dumps(doc_dict))


# --- happy paths ---


def test_bundled_scenario_parses():
    doc = load_bundled_scenario()
    assert doc.kind == "hotelling"
    assert doc.schema_version == 1
    assert list(doc.hotelling.store_locations) == [0.5, 1.0, 1.6]
    assert list(doc.hotelling.person_locations) == [-0.5, 1.0, 2.0]
    assert doc.sweep is not None
    assert (doc.sweep.q_min, doc.sweep.q_max, doc.sweep.q_step) == (0.0, 10.0, 0.05)
    assert bundled_scenario_text().endswith("\n")


def test_population_document_roundtrip():
    doc = _parse(
        _population_doc(
            sweep={"q_min": 0.0, "q_max": 2.0, "q_step": 0.5},
            mc={"samples": 500, "seed": 9},
        )
    )
    assert doc.kind == "population"
    text1 = serialize_scenario(doc)
    text2 = serialize_scenario(parse_scenario_text(text1))
    assert text1 == text2
    assert text1.endswith("\n")


def test_treatment_document_roundtrip():
    text1 = serialize_scenario(_parse(_treatment_doc()))
    assert text1 == serialize_scenario(parse_scenario_text(text1))


def test_hotelling_document_roundtrip():
    text1 = serialize_scenario(load_bundled_scenario())
    assert text1 == serialize_scenario(parse_scenario_text(text1))


def test_models_built_from_numpy_scalars_roundtrip():
    # The constructors store Python numbers, so the serializer never meets a
    # numpy scalar that json cannot write.
    f, i = np.float32, np.int64
    models = {
        "gumbel": RandomUtilityMC(error=GumbelIID(scale=f(0.5)), samples=i(10), seed=i(3)),
        "uniform": RandomUtilityMC(error=UniformBoundedIID(delta=f(1.5)), samples=i(10)),
        "normal": RandomUtilityMC(error=NormalIID(sigma=f(0.5)), samples=i(10)),
        "alpha": AlphaRational(alpha=f(0.5), background=np.array([0.5, 0.5], dtype=f)),
        "nudge": DefaultNudge(default_action=i(1), gamma=f(0.25), base=Logit(q=f(2.0))),
    }
    doc = ScenarioDocument(
        schema_version=1,
        population=PopulationSection(
            population=_parse(_population_doc()).population.population, models=models
        ),
        mc=MCConfig(samples=i(500), seed=i(9)),
    )
    assert parse_scenario_text(serialize_scenario(doc)) == doc


def test_a_section_built_in_code_refuses_a_table_that_does_not_fit():
    # Its text would not parse back, so the section refuses the model as the
    # parser does, with the same message.
    population = _parse(_population_doc()).population.population
    message = "population.models.m: probs must hold one entry per action (2), got 3"
    with pytest.raises(ScenarioError) as built:
        PopulationSection(population, {"m": IndependentTable([0.2, 0.3, 0.5])})
    assert str(built.value) == message
    spec = {"kind": "independent_table", "probs": [0.2, 0.3, 0.5]}
    doc = _population_doc()
    doc["population"]["models"] = {"m": spec}
    with pytest.raises(ScenarioError) as parsed:
        _parse(doc)
    assert str(parsed.value) == message


def test_a_section_built_in_code_refuses_a_default_past_its_actions():
    # The serializer writes a nudge's default as its action's label, which
    # index 2 of two actions does not have.
    population = _parse(_population_doc()).population.population
    nudge = DefaultNudge(default_action=2, gamma=0.1, base=RationalMax())
    with pytest.raises(ScenarioError) as info:
        PopulationSection(population, {"m": nudge})
    assert str(info.value) == "population.models.m: default_action must be in [0, 2), got 2"


# --- round-trip property: parse(serialize(d)) == d for generated documents ---

_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_positive = st.floats(1e-3, 1e3)
_unit = st.floats(0.0, 1.0)


@st.composite
def _distribution(draw, n):
    """n positive weights that sum to 1 within floating-point rounding."""
    raw = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    return [r / sum(raw) for r in raw]


@st.composite
def _distributions(draw, min_size=1):
    n = draw(st.integers(min_size, 4))
    return draw(_distribution(n))


_error_specs = st.one_of(
    st.builds(GumbelIID, scale=_positive),
    st.builds(UniformBoundedIID, delta=_positive),
    st.builds(NormalIID, sigma=_positive),
)


def _base_models(k):
    return st.one_of(
        st.just(RationalMax()),
        st.builds(IndependentTable, probs=_distribution(k)),
        st.builds(AlphaRational, alpha=_unit, background=_distribution(k)),
        st.builds(Logit, q=st.floats(0.0, 1e3)),
        st.builds(
            RandomUtilityMC,
            error=_error_specs,
            samples=st.integers(1, 10**6),
            seed=st.integers(0, 2**63),
        ),
    )


def _models(k):
    return st.one_of(
        _base_models(k),
        st.builds(
            DefaultNudge,
            default_action=st.integers(0, k - 1),
            gamma=st.floats(0.0, 1e3),
            base=_base_models(k),
        ),
    )


@st.composite
def _population_sections(draw):
    labels = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
    k = len(labels)
    utilities = st.lists(_finite, min_size=k, max_size=k).map(np.array)
    types = tuple(
        UtilityType(utilities=draw(utilities), weight=w)
        for w in draw(_distributions())
    )
    models = draw(st.dictionaries(st.text(max_size=5), _models(k), max_size=4))
    return PopulationSection(
        population=Population(actions=ActionSet(labels=tuple(labels)), types=types),
        models=models,
    )


@st.composite
def _hotelling_scenarios(draw):
    persons = draw(st.lists(_finite, min_size=1, max_size=4))
    weights = draw(st.none() | _distribution(len(persons)).map(np.array))
    return HotellingScenario(
        store_locations=np.array(draw(st.lists(_finite, min_size=1, max_size=4))),
        person_locations=np.array(persons),
        person_weights=weights,
    )


@st.composite
def _uniform_beliefs(draw):
    lo, hi = sorted(draw(st.lists(_unit, min_size=2, max_size=2, unique=True)))
    return UniformBelief(lo=lo, hi=hi)


_simple_beliefs = st.one_of(
    st.builds(PointMassBelief, pi=_unit),
    _uniform_beliefs(),
    st.builds(BetaBelief, a=_positive, b=_positive),
)


@st.composite
def _mixture_beliefs(draw):
    weights = draw(_distributions())
    components = draw(
        st.lists(_simple_beliefs, min_size=len(weights), max_size=len(weights))
    )
    return MixtureBelief(components=tuple(components), weights=tuple(weights))


_beliefs = st.one_of(
    _simple_beliefs,
    _mixture_beliefs(),
    st.builds(
        EmpiricalBelief, samples=st.lists(_unit, min_size=1, max_size=5).map(np.array)
    ),
)


@st.composite
def _x_cells(draw, label, weight):
    z_cells = tuple(
        CovariateCell(
            z_label=f"z{j}",
            p_z_given_x=p,
            p_xz=draw(_unit),
            belief=draw(st.none() | _beliefs),
        )
        for j, p in enumerate(draw(_distributions()))
    )
    u = draw(st.lists(_finite, min_size=4, max_size=4))
    return XCell(
        x_label=label,
        weight=weight,
        utilities=OutcomeUtilities.from_components(
            u0_a=u[0], u1_a=u[1], u0_b=u[2], u1_b=u[3]
        ),
        z_cells=z_cells,
    )


@st.composite
def _treatment_scenarios(draw):
    weights = draw(_distributions())
    return TreatmentScenario(
        x_cells=tuple(draw(_x_cells(f"x{i}", w)) for i, w in enumerate(weights))
    )


@st.composite
def _sweep_configs(draw):
    q_min, q_max = sorted(draw(st.lists(st.floats(0.0, 1e3), min_size=2, max_size=2)))
    return SweepConfig(q_min=q_min, q_max=q_max, q_step=draw(_positive))


@st.composite
def _documents(draw):
    kind = draw(st.sampled_from(["population", "hotelling", "treatment"]))
    scenario = {
        "population": _population_sections,
        "hotelling": _hotelling_scenarios,
        "treatment": _treatment_scenarios,
    }[kind]
    return ScenarioDocument(
        schema_version=1,
        sweep=draw(st.none() | _sweep_configs()),
        mc=draw(
            st.none()
            | st.builds(MCConfig, samples=st.integers(1, 10**6), seed=st.integers(0, 2**63))
        ),
        **{kind: draw(scenario())},
    )


# One z cell, or equal p_xz across z, is valid and merely warns.
@pytest.mark.filterwarnings("ignore:.*private information is worthless:UserWarning")
@settings(max_examples=150, deadline=None)
@given(_documents())
def test_parse_inverts_serialize(doc):
    text = serialize_scenario(doc)
    again = parse_scenario_text(text)
    assert again == doc
    assert serialize_scenario(again) == text


@st.composite
def _table_documents(draw):
    """A population of k actions with one model whose probability table,
    bare, inside an alpha mixture or under a nudge, has m entries."""
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    labels = [f"a{i}" for i in range(k)]
    table = [1.0 / m] * m
    model = draw(st.sampled_from([
        {"kind": "independent_table", "probs": table},
        {"kind": "alpha_rational", "alpha": 0.5, "background": table},
        {"kind": "default_nudge", "default_action": labels[-1], "gamma": 0.25,
         "base": {"kind": "independent_table", "probs": table}},
    ]))
    utilities = st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k)
    types = [{"utilities": u, "weight": 0.5} for u in draw(st.tuples(utilities, utilities))]
    name = draw(st.sampled_from(["m", "table", "nudged table"]))
    return k == m, name, {"schema_version": 1, "population": {
        "actions": labels, "types": types, "models": {name: model}}}


@settings(max_examples=100, deadline=None)
@given(_table_documents())
def test_a_parsed_model_fits_its_actions(case):
    # A table that does not fit its actions is refused, behind the model's
    # path, when the file is parsed; one that is parsed runs every command.
    fits, name, doc = case
    if not fits:
        with pytest.raises(ScenarioError, match=f"^population\\.models\\.{name}: "):
            _parse(doc)
        return
    section = _parse(doc).population
    for model in section.models.values():
        optimize_choice_set(section.population, model)
        policy_welfare(section.population, None, model)


def test_models_parse_all_kinds():
    doc_dict = _population_doc()
    doc_dict["population"]["models"] = {
        "rat": {"kind": "rational_max"},
        "tab": {"kind": "independent_table", "probs": [0.3, 0.7]},
        "mix": {
            "kind": "alpha_rational",
            "alpha": 0.25,
            "background": [0.5, 0.5],
        },
        "soft": {"kind": "logit", "q": 2.0},
        "mc": {
            "kind": "random_utility_mc",
            "error": {"kind": "gumbel", "scale": 0.5},
        },
        "nudge": {
            "kind": "default_nudge",
            "default_action": "b",
            "gamma": 0.2,
            "base": {"kind": "logit", "q": 1.0},
        },
    }
    doc = _parse(doc_dict)
    models = doc.population.models
    assert set(models) == {"rat", "tab", "mix", "soft", "mc", "nudge"}
    assert isinstance(models["soft"], Logit) and models["soft"].q == 2.0
    assert isinstance(models["nudge"], DefaultNudge)
    assert models["nudge"].default_action == 1  # label resolved to index
    assert np.allclose(models["tab"].probs, [0.3, 0.7])


def test_mc_section_provides_sampler_defaults():
    doc_dict = _population_doc(mc={"samples": 500, "seed": 9})
    doc_dict["population"]["models"] = {
        "plain": {"kind": "random_utility_mc", "error": {"kind": "normal", "sigma": 1.0}},
        "pinned": {
            "kind": "random_utility_mc",
            "error": {"kind": "uniform_bounded", "delta": 0.5},
            "samples": 77,
            "seed": 1,
        },
    }
    models = _parse(doc_dict).population.models
    assert (models["plain"].samples, models["plain"].seed) == (500, 9)
    assert (models["pinned"].samples, models["pinned"].seed) == (77, 1)


def test_mc_defaults_without_section():
    doc_dict = _population_doc()
    doc_dict["population"]["models"] = {
        "plain": {"kind": "random_utility_mc", "error": {"kind": "gumbel"}},
    }
    model = _parse(doc_dict).population.models["plain"]
    assert model == RandomUtilityMC(error=GumbelIID())
    assert (model.samples, model.seed) == (100_000, 0)
    assert model.error.scale == 1.0


def test_serializer_writes_explicit_sampler_settings():
    doc_dict = _population_doc()
    doc_dict["population"]["models"] = {
        "mc": {"kind": "random_utility_mc", "error": {"kind": "gumbel"}},
    }
    out = document_to_json_dict(_parse(doc_dict))
    model_out = out["population"]["models"]["mc"]
    assert model_out["samples"] == 100_000
    assert model_out["seed"] == 0
    assert out["population"]["models"]["mc"]["error"] == {
        "kind": "gumbel",
        "scale": 1.0,
    }


def test_serializer_uses_action_labels_for_nudge():
    doc_dict = _population_doc()
    doc_dict["population"]["models"] = {
        "nudge": {
            "kind": "default_nudge",
            "default_action": "b",
            "gamma": 0.2,
            "base": {"kind": "rational_max"},
        },
    }
    out = document_to_json_dict(_parse(doc_dict))
    assert out["population"]["models"]["nudge"]["default_action"] == "b"


def test_treatment_beliefs_parse():
    doc = _parse(_treatment_doc())
    assert doc.kind == "treatment"
    cell = doc.treatment.x_cells[0]
    assert cell.z_cells[0].belief.pi == 0.1
    assert isinstance(cell.z_cells[1].belief, MixtureBelief)


# --- error paths ---


def test_syntax_error_reports_line_and_column():
    with pytest.raises(ScenarioError, match=r"<scenario>: line 2, column"):
        parse_scenario_text('{\n  "schema_version": }')


def test_unknown_top_level_field():
    with pytest.raises(ScenarioError, match=r"document: unknown field 'bogus'"):
        _parse(_population_doc(bogus=1))


def test_unsupported_schema_version():
    with pytest.raises(ScenarioError, match=r"unsupported version 7"):
        _parse(_population_doc(schema_version=7))


def test_missing_schema_version():
    with pytest.raises(ScenarioError, match=r"missing required field 'schema_version'"):
        parse_scenario_text('{"population": {"actions": [], "types": []}}')


def test_exactly_one_scenario_kind():
    doc = _population_doc()
    doc["hotelling"] = {"store_locations": [0.0], "person_locations": [0.0]}
    with pytest.raises(ScenarioError, match=r"exactly one of"):
        _parse(doc)
    with pytest.raises(ScenarioError, match=r"exactly one of"):
        parse_scenario_text('{"schema_version": 1}')


def test_missing_required_field_names_path():
    doc = _population_doc()
    del doc["population"]["actions"]
    with pytest.raises(
        ScenarioError, match=r"population: missing required field 'actions'"
    ):
        _parse(doc)


def test_wrong_types_name_paths():
    doc = _population_doc()
    doc["population"]["actions"] = "ab"
    with pytest.raises(ScenarioError, match=r"population\.actions: expected an array"):
        _parse(doc)

    doc = _population_doc()
    doc["population"]["types"][1]["weight"] = "0.5"
    with pytest.raises(
        ScenarioError,
        match=r"^population\.types\[1\]: weight must be a finite number > 0, got '0\.5'$",
    ):
        _parse(doc)

    doc = _population_doc()
    doc["population"]["types"][0]["weight"] = True
    with pytest.raises(
        ScenarioError,
        match=r"^population\.types\[0\]: weight must be a finite number > 0, got True$",
    ):
        _parse(doc)


def test_non_finite_numbers_rejected():
    doc = _population_doc()
    doc["population"]["types"][0]["weight"] = 10**400  # arbitrary-precision int
    with pytest.raises(
        ScenarioError,
        match=r"^population\.types\[0\]: weight must be a finite number > 0, got 10{400}$",
    ):
        _parse(doc)
    with pytest.raises(
        ScenarioError,
        match=r"^population\.types\[0\]: utilities\[0\] must be a finite number, got inf$",
    ):
        parse_scenario_text(
            json.dumps(_population_doc()).replace("1.0, 0.0", "Infinity, 0.0")
        )


def test_weight_invariant_names_types_section():
    doc = _population_doc()
    doc["population"]["types"][0]["weight"] = 0.4
    with pytest.raises(
        ScenarioError, match=r"population\.types: type weights must sum to 1"
    ):
        _parse(doc)


def test_utility_length_mismatch():
    doc = _population_doc()
    doc["population"]["types"][0]["utilities"] = [1.0, 0.0, 0.5]
    with pytest.raises(ScenarioError, match=r"population\.types"):
        _parse(doc)


def test_unknown_model_kind():
    doc = _population_doc()
    doc["population"]["models"] = {"m": {"kind": "quantal"}}
    with pytest.raises(
        ScenarioError, match=r"population\.models\.m\.kind: unknown model kind 'quantal'"
    ):
        _parse(doc)


def test_unknown_error_distribution():
    doc = _population_doc()
    doc["population"]["models"] = {
        "m": {"kind": "random_utility_mc", "error": {"kind": "cauchy"}}
    }
    with pytest.raises(
        ScenarioError,
        match=r"population\.models\.m\.error\.kind: unknown error distribution",
    ):
        _parse(doc)


def test_unknown_model_field_rejected():
    doc = _population_doc()
    doc["population"]["models"] = {"m": {"kind": "logit", "q": 1.0, "tau": 2.0}}
    with pytest.raises(
        ScenarioError, match=r"population\.models\.m: unknown field 'tau'"
    ):
        _parse(doc)


def test_nudge_unknown_default_label():
    doc = _population_doc()
    doc["population"]["models"] = {
        "m": {
            "kind": "default_nudge",
            "default_action": "zzz",
            "gamma": 0.1,
            "base": {"kind": "rational_max"},
        }
    }
    with pytest.raises(
        ScenarioError,
        match=r"population\.models\.m\.default_action: unknown action label 'zzz'",
    ):
        _parse(doc)


def test_model_parameter_invariants_carry_path():
    doc = _population_doc()
    doc["population"]["models"] = {"m": {"kind": "logit", "q": -1.0}}
    with pytest.raises(ScenarioError, match=r"population\.models\.m"):
        _parse(doc)


def test_unknown_belief_kind():
    doc = _treatment_doc()
    doc["treatment"]["x_cells"][0]["z_cells"][0]["belief"] = {"kind": "dirichlet"}
    with pytest.raises(
        ScenarioError,
        match=r"z_cells\[0\]\.belief\.kind: unknown belief kind 'dirichlet'",
    ):
        _parse(doc)


def test_nested_mixture_rejected_with_path():
    doc = _treatment_doc()
    doc["treatment"]["x_cells"][0]["z_cells"][0]["belief"] = {
        "kind": "mixture",
        "components": [
            {
                "kind": "mixture",
                "components": [{"kind": "point_mass", "pi": 0.5}],
                "weights": [1.0],
            }
        ],
        "weights": [1.0],
    }
    with pytest.raises(
        ScenarioError,
        match=r"z_cells\[0\]\.belief: mixture components must be point-mass",
    ):
        _parse(doc)


def test_z_cell_probability_sum_checked():
    doc = _treatment_doc()
    doc["treatment"]["x_cells"][0]["z_cells"][0]["p_z_given_x"] = 0.5
    with pytest.raises(
        ScenarioError, match=r"treatment\.x_cells\[0\]: .*must sum to 1"
    ):
        _parse(doc)


def test_duplicate_z_labels_rejected():
    doc = _treatment_doc()
    doc["treatment"]["x_cells"][0]["z_cells"][1]["label"] = "z1"
    with pytest.raises(
        ScenarioError,
        match=r"^treatment\.x_cells\[0\]: z labels must be distinct, got 'z1' more than once$",
    ):
        _parse(doc)


def test_hotelling_field_validation():
    with pytest.raises(ScenarioError, match=r"hotelling: missing required field"):
        parse_scenario_text(
            json.dumps(
                {"schema_version": 1, "hotelling": {"store_locations": [0.0]}}
            )
        )
    with pytest.raises(ScenarioError, match=r"hotelling"):
        parse_scenario_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "hotelling": {
                        "store_locations": [0.0],
                        "person_locations": [0.0],
                        "person_weights": [0.5, 0.5],
                    },
                }
            )
        )


def test_sweep_section_validation():
    with pytest.raises(ScenarioError, match=r"sweep"):
        _parse(
            _population_doc(sweep={"q_min": 0.0, "q_max": 1.0, "q_step": 0.0})
        )
    with pytest.raises(ScenarioError, match=r"sweep: unknown field"):
        _parse(_population_doc(sweep={"q_grid": [0.0, 1.0]}))


def test_mc_section_validation():
    with pytest.raises(ScenarioError, match=r"^mc: samples must be a whole number, got 1\.5$"):
        _parse(_population_doc(mc={"samples": 1.5}))
    with pytest.raises(ScenarioError, match=r"mc"):
        _parse(_population_doc(mc={"samples": 0}))


_DELETE = object()
_MODEL = ("population", "models", "m")
_X = ("treatment", "x_cells", 0)
_XP = "treatment.x_cells[0]"
_Z = _X + ("z_cells", 0)
_ZP = f"{_XP}.z_cells[0]"
_BELIEF = _Z + ("belief",)
_B = f"{_ZP}.belief"


def _with_model(spec):
    doc = _population_doc()
    doc["population"]["models"] = {"m": spec}
    return doc


def _with_belief(spec):
    doc = _treatment_doc()
    doc["treatment"]["x_cells"][0]["z_cells"][0]["belief"] = spec
    return doc


def _hotelling_doc():
    return {
        "schema_version": 1,
        "hotelling": {
            "store_locations": [0.0, 1.0],
            "person_locations": [0.0, 0.5],
            "person_weights": [0.5, 0.5],
        },
    }


_MC = {"kind": "random_utility_mc", "error": {"kind": "gumbel"}}
_NUDGE = {"kind": "default_nudge", "default_action": "a", "gamma": 0.1}
_MIXTURE = {
    "kind": "mixture",
    "components": [{"kind": "point_mass", "pi": 0.5}, {"kind": "beta", "a": 1.0, "b": 2.0}],
    "weights": [0.5, 0.5],
}


def _mixture(**edits):
    return {**_MIXTURE, **edits}


# (document, path to edit, new value or _DELETE, full ScenarioError text)
_PINNED_ERRORS = {
    # model kinds
    "model-unknown-kind": (
        _with_model({"kind": "quantal"}), (), None,
        "population.models.m.kind: unknown model kind 'quantal'",
    ),
    "model-kind-not-string": (
        _with_model({"kind": 3}), (), None,
        "population.models.m.kind: expected a string",
    ),
    "model-missing-kind": (
        _with_model({"q": 1.0}), (), None,
        "population.models.m: missing required field 'kind'",
    ),
    "model-not-object": (
        _with_model("logit"), (), None, "population.models.m: expected an object"
    ),
    "model-unknown-key": (
        _with_model({"kind": "rational_max", "q": 1.0}), (), None,
        "population.models.m: unknown field 'q'",
    ),
    "model-missing-key": (
        _with_model({"kind": "alpha_rational", "alpha": 0.5}), (), None,
        "population.models.m: missing required field 'background'",
    ),
    "model-wrong-type": (
        _with_model({"kind": "logit", "q": "1"}), (), None,
        "population.models.m: q must be a finite number >= 0, got '1'",
    ),
    "model-nested-wrong-type": (
        _with_model({**_NUDGE, "base": {**_MC, "error": {"kind": "gumbel", "scale": "x"}}}),
        (), None, "population.models.m.base.error: scale must be a finite number > 0, got 'x'",
    ),
    "model-wrong-int": (
        _with_model({**_MC, "samples": 1.5}), (), None,
        "population.models.m: samples must be a whole number, got 1.5",
    ),
    "model-array-entry": (
        _with_model({"kind": "independent_table", "probs": [0.5, None]}), (), None,
        "population.models.m: probs[1] must be a finite number >= 0, got None",
    ),
    "model-constructor": (
        _with_model({"kind": "logit", "q": -1.0}), (), None,
        "population.models.m: q must be a finite number >= 0, got -1.0",
    ),
    "model-constructor-nested": (
        _with_model({**_NUDGE, "base": {**_NUDGE, "base": {"kind": "rational_max"}}}),
        (), None, "population.models.m: nudge base must not itself be a DefaultNudge",
    ),
    "model-constructor-alpha": (
        _with_model({"kind": "alpha_rational", "alpha": 0.5, "background": [0.5, 0.6]}),
        (), None,
        "population.models.m: background must sum to 1 within 1e-12, got 1.1",
    ),
    # The only message the table-driven parser changed: the parent prefixed
    # it with "population.models.m.probs", unlike every other kind.
    "model-constructor-table": (
        _with_model({"kind": "independent_table", "probs": [0.5, 0.6]}), (), None,
        "population.models.m: probs must sum to 1 within 1e-12, got 1.1",
    ),
    # A model is checked against the actions when it is parsed, not when a
    # command first uses it.
    "model-table-length": (
        _with_model({"kind": "independent_table", "probs": [0.25, 0.25, 0.5]}), (), None,
        "population.models.m: probs must hold one entry per action (2), got 3",
    ),
    "model-alpha-length": (
        _with_model({"kind": "alpha_rational", "alpha": 0.5, "background": [1.0]}), (),
        None, "population.models.m: background must hold one entry per action (2), got 1",
    ),
    "model-nudge-base-length": (
        _with_model({**_NUDGE, "base": {"kind": "independent_table", "probs": [1.0]}}),
        (), None, "population.models.m: base.probs must hold one entry per action (2), got 1",
    ),
    "model-unknown-label": (
        _with_model({**_NUDGE, "default_action": "zzz", "base": {"kind": "rational_max"}}),
        (), None, "population.models.m.default_action: unknown action label 'zzz'",
    ),
    "model-label-not-string": (
        _with_model({**_NUDGE, "default_action": 0, "base": {"kind": "rational_max"}}),
        (), None, "population.models.m.default_action: expected a string",
    ),
    # error distributions
    "error-unknown-kind": (
        _with_model({**_MC, "error": {"kind": "cauchy"}}), (), None,
        "population.models.m.error.kind: unknown error distribution 'cauchy'",
    ),
    "error-unknown-key": (
        _with_model({**_MC, "error": {"kind": "normal", "sigma": 1.0, "mu": 0.0}}), (), None,
        "population.models.m.error: unknown field 'mu'",
    ),
    "error-missing-key": (
        _with_model({**_MC, "error": {"kind": "uniform_bounded"}}), (), None,
        "population.models.m.error: missing required field 'delta'",
    ),
    "error-missing": (
        _with_model({"kind": "random_utility_mc"}), (), None,
        "population.models.m: missing required field 'error'",
    ),
    "error-constructor": (
        _with_model({**_MC, "error": {"kind": "normal", "sigma": -1.0}}), (), None,
        "population.models.m.error: sigma must be a finite number > 0, got -1.0",
    ),
    # belief kinds
    "belief-unknown-kind": (
        _with_belief({"kind": "dirichlet"}), (), None,
        f"{_B}.kind: unknown belief kind 'dirichlet'",
    ),
    "belief-unknown-key": (
        _with_belief({"kind": "point_mass", "pi": 0.1, "mu": 0.0}), (), None,
        f"{_B}: unknown field 'mu'",
    ),
    "belief-missing-key": (
        _with_belief({"kind": "beta", "a": 2.0}), (), None,
        f"{_B}: missing required field 'b'",
    ),
    "belief-component-wrong-type": (
        _with_belief(_mixture()), _BELIEF + ("components", 1, "a"), "x",
        f"{_B}.components[1]: a must be a finite number > 0, got 'x'",
    ),
    "belief-weight-wrong-type": (
        _with_belief(_mixture()), _BELIEF + ("weights", 0), "x",
        f"{_B}: weights[0] must be a finite number > 0, got 'x'",
    ),
    "belief-components-not-array": (
        _with_belief(_mixture(components={})), (), None,
        f"{_B}.components: expected an array",
    ),
    "belief-component-unknown-kind": (
        _with_belief(_mixture()), _BELIEF + ("components", 0, "kind"), "delta",
        f"{_B}.components[0].kind: unknown belief kind 'delta'",
    ),
    "belief-constructor": (
        _with_belief({"kind": "uniform", "lo": 0.6, "hi": 0.5}), (), None,
        f"{_B}: need 0 <= lo < hi <= 1",
    ),
    "belief-constructor-mixture": (
        _with_belief(_mixture(weights=[0.5, 0.25])), (), None,
        f"{_B}: mixture weights must sum to 1 within 1e-12, got 0.75",
    ),
    "belief-constructor-empirical": (
        _with_belief({"kind": "empirical", "samples": [0.5, 1.5]}), (), None,
        f"{_B}: samples[1] must be a number in [0, 1], got 1.5",
    ),
    # flat sections
    "sweep-not-object": (
        _population_doc(sweep=[0.0]), (), None, "sweep: expected an object"
    ),
    "sweep-unknown-key": (
        _population_doc(sweep={"q_grid": [0.0]}), (), None, "sweep: unknown field 'q_grid'"
    ),
    "sweep-wrong-type": (
        _population_doc(sweep={"q_max": "1"}), (), None,
        "sweep: q_max must be a finite number, got '1'",
    ),
    "sweep-constructor": (
        _population_doc(sweep={"q_step": 0.0}), (), None,
        "sweep: q_step must be a finite number > 0, got 0.0",
    ),
    "sweep-constructor-point-count": (
        _population_doc(sweep={"q_step": 1e-320}), (), None,
        "sweep: q_min 0.0 to q_max 10.0 in steps of q_step 1e-320 makes too many "
        "grid points to hold",
    ),
    "mc-unknown-key": (
        _population_doc(mc={"n": 1}), (), None, "mc: unknown field 'n'"
    ),
    "mc-wrong-type": (
        _population_doc(mc={"seed": 1.5}), (), None,
        "mc: seed must be a whole number, got 1.5",
    ),
    "mc-constructor": (
        _population_doc(mc={"samples": 0}), (), None, "mc: samples must be >= 1"
    ),
    "hotelling-unknown-key": (
        _hotelling_doc(), ("hotelling", "labels"), ["a"], "hotelling: unknown field 'labels'"
    ),
    "hotelling-missing-key": (
        _hotelling_doc(), ("hotelling", "person_locations"), _DELETE,
        "hotelling: missing required field 'person_locations'",
    ),
    "hotelling-wrong-type": (
        _hotelling_doc(), ("hotelling", "person_weights", 1), True,
        "hotelling: person_weights[1] must be a finite number > 0, got True",
    ),
    "hotelling-constructor": (
        _hotelling_doc(), ("hotelling", "person_weights"), [1.0],
        "hotelling: person_weights must hold one entry per person location (2), got 1",
    ),
    "hotelling-overflow": (
        _hotelling_doc(), ("hotelling", "store_locations"), [1e200, 0.0],
        "hotelling: store_locations and person_locations must lie close enough that "
        "every squared distance is finite, got a distance of 1e+200",
    ),
    "type-unknown-key": (
        _population_doc(), ("population", "types", 0, "label"), "t",
        "population.types[0]: unknown field 'label'",
    ),
    "type-missing-key": (
        _population_doc(), ("population", "types", 1, "weight"), _DELETE,
        "population.types[1]: missing required field 'weight'",
    ),
    "type-wrong-type": (
        _population_doc(), ("population", "types", 0, "utilities", 1), "0",
        "population.types[0]: utilities[1] must be a finite number, got '0'",
    ),
    "type-constructor": (
        _population_doc(), ("population", "types", 0, "weight"), -0.5,
        "population.types[0]: weight must be a finite number > 0, got -0.5",
    ),
    "type-not-object": (
        _population_doc(), ("population", "types", 1), [0.0, 1.0],
        "population.types[1]: expected an object",
    ),
    # The structural rules of scenario.py, behind the path of their record.
    "actions-empty": (
        _population_doc(), ("population", "actions"), [],
        "population.actions: labels must be non-empty",
    ),
    "actions-repeated": (
        _population_doc(), ("population", "actions"), ["a", "a"],
        "population.actions: labels must be distinct, got 'a' more than once",
    ),
    "types-empty": (
        _population_doc(), ("population", "types"), [],
        "population.types: types must be non-empty",
    ),
    "type-length": (
        _population_doc(), ("population", "types", 1, "utilities"), [0.0],
        "population.types: types[1].utilities must hold one entry per action (2), got 1",
    ),
    # treatment cells
    "x-cells-not-array": (
        _treatment_doc(), ("treatment", "x_cells"), {},
        "treatment.x_cells: expected an array",
    ),
    "x-cell-missing-label": (
        _treatment_doc(), _X + ("label",), _DELETE,
        f"{_XP}: missing required field 'label'",
    ),
    "x-cell-label-not-string": (
        _treatment_doc(), _X + ("label",), 1, f"{_XP}.label: expected a string"
    ),
    "utilities-unknown-key": (
        _treatment_doc(), _X + ("utilities", "u2_a"), 0.0,
        f"{_XP}.utilities: unknown field 'u2_a'",
    ),
    "utilities-missing-key": (
        _treatment_doc(), _X + ("utilities", "u1_b"), _DELETE,
        f"{_XP}.utilities: missing required field 'u1_b'",
    ),
    "z-cells-not-array": (
        _treatment_doc(), _X + ("z_cells",), "z1", f"{_XP}.z_cells: expected an array"
    ),
    "x-cells-empty": (
        _treatment_doc(), ("treatment", "x_cells"), [],
        "treatment.x_cells: x_cells must be non-empty",
    ),
    "z-cells-empty": (
        _treatment_doc(), _X + ("z_cells",), [], f"{_XP}: z_cells must be non-empty"
    ),
    "mixture-components-empty": (
        _with_belief(_mixture(components=[], weights=[])), (), None,
        f"{_B}: components must be non-empty",
    ),
    "mixture-weights-length": (
        _with_belief(_mixture(weights=[1.0])), (), None,
        f"{_B}: weights must hold one entry per component (2), got 1",
    ),
    # Of a bad belief and a missing label, the belief is read first.
    "z-cell-belief-before-label": (
        _with_belief({"kind": "dirichlet"}), _Z + ("label",), _DELETE,
        f"{_B}.kind: unknown belief kind 'dirichlet'",
    ),
    "z-cell-constructor": (
        _treatment_doc(), _Z + ("p_xz",), 2,
        f"{_ZP}: p_xz must be a number in [0, 1], got 2",
    ),
    "x-cell-constructor": (
        _treatment_doc(), _Z + ("p_z_given_x",), 0.5,
        f"{_XP}: x cell 'x1': P(z|x) must sum to 1 within 1e-12, got 0.9",
    ),
    "treatment-constructor": (
        _treatment_doc(), _X + ("weight",), 0.5,
        "treatment.x_cells: P(x) weights must sum to 1 within 1e-12, got 0.5",
    ),
}


@pytest.mark.parametrize("case", sorted(_PINNED_ERRORS))
def test_error_messages_are_pinned(case):
    doc, path, value, message = _PINNED_ERRORS[case]
    doc = copy.deepcopy(doc)
    if path:
        *head, last = path
        target = doc
        for key in head:
            target = target[key]
        if value is _DELETE:
            del target[last]
        else:
            target[last] = value
    with pytest.raises(ScenarioError) as info:
        _parse(doc)
    assert str(info.value) == message


# --- number arrays: the one-pass check and its per-element fallback ---

_N = 500
_SHARE = 1.0 / _N


def _wide_population(models=None):
    section = {
        "actions": [f"a{i}" for i in range(_N)],
        "types": [{"utilities": [0.0] * _N, "weight": 1.0}],
    }
    if models is not None:
        section["models"] = models
    return {"schema_version": 1, "population": section}


def _wide_hotelling():
    return {
        "schema_version": 1,
        "hotelling": {
            "store_locations": [float(i) for i in range(_N)],
            "person_locations": [0.5] * _N,
            "person_weights": [_SHARE] * _N,
        },
    }


# field -> (a valid document whose field holds _N numbers, path to the list,
# the record's path and the field's name in error messages, the rule the
# field's entries keep)
_LONG_ARRAYS = {
    "types.utilities": (
        _wide_population(), ("population", "types", 0, "utilities"),
        "population.types[0]: utilities", "a finite number",
    ),
    "empirical.samples": (
        _with_belief({"kind": "empirical", "samples": [0.5] * _N}),
        _BELIEF + ("samples",), f"{_B}: samples", "a number in [0, 1]",
    ),
    "mixture.weights": (
        _with_belief(
            {
                "kind": "mixture",
                "components": [{"kind": "point_mass", "pi": 0.5}] * _N,
                "weights": [_SHARE] * _N,
            }
        ),
        _BELIEF + ("weights",), f"{_B}: weights", "a finite number > 0",
    ),
    "independent_table.probs": (
        _wide_population({"m": {"kind": "independent_table", "probs": [_SHARE] * _N}}),
        _MODEL + ("probs",), "population.models.m: probs",
        "a finite number >= 0",
    ),
    "alpha_rational.background": (
        _wide_population(
            {"m": {"kind": "alpha_rational", "alpha": 0.5, "background": [_SHARE] * _N}}
        ),
        _MODEL + ("background",), "population.models.m: background",
        "a finite number >= 0",
    ),
    "hotelling.store_locations": (
        _wide_hotelling(), ("hotelling", "store_locations"),
        "hotelling: store_locations", "a finite number",
    ),
    "hotelling.person_weights": (
        _wide_hotelling(), ("hotelling", "person_weights"), "hotelling: person_weights",
        "a finite number > 0",
    ),
}

# A stand-in for the JSON literal 1e400, which json.dumps cannot write
# (json.loads reads it as inf).
_RAW_1E400 = "<1e400>"

# name -> (element, how the message shows it)
_BAD_NUMBERS = {
    "true": (True, "True"),
    "string": ("0.5", "'0.5'"),
    "null": (None, "None"),
    "nested-list": ([0.5], "[0.5]"),
    "NaN": (float("nan"), "nan"),
    "Infinity": (float("inf"), "inf"),
    "-Infinity": (float("-inf"), "-inf"),
    "1e400": (_RAW_1E400, "inf"),
    "10**400": (10**400, str(10**400)),
}


def _parse_raw(doc):
    text = json.dumps(doc).replace(json.dumps(_RAW_1E400), "1e400")
    return parse_scenario_text(text)


def _long_array_doc(field, edits):
    doc, path, prefix, rule = _LONG_ARRAYS[field]
    doc = copy.deepcopy(doc)
    target = doc
    for key in path:
        target = target[key]
    for index, value in edits.items():
        target[index] = value
    return doc, prefix, rule


@pytest.mark.parametrize("field", sorted(_LONG_ARRAYS))
def test_long_array_documents_are_valid(field):
    doc = _long_array_doc(field, {})[0]
    assert _parse_raw(doc) == _parse(doc)


@pytest.mark.parametrize("bad", sorted(_BAD_NUMBERS))
@pytest.mark.parametrize("field", sorted(_LONG_ARRAYS))
def test_bad_array_element_message_is_pinned(field, bad):
    value, shown = _BAD_NUMBERS[bad]
    doc, prefix, rule = _long_array_doc(field, {250: value})
    with pytest.raises(ScenarioError) as info:
        _parse_raw(doc)
    assert str(info.value) == f"{prefix}[250] must be {rule}, got {shown}"


@pytest.mark.parametrize(
    "first, later",
    [("NaN", "string"), ("string", "NaN"), ("10**400", "true"), ("1e400", "10**400")],
)
@pytest.mark.parametrize("field", sorted(_LONG_ARRAYS))
def test_first_bad_array_element_is_named(field, first, later):
    doc, prefix, rule = _long_array_doc(
        field, {250: _BAD_NUMBERS[first][0], 400: _BAD_NUMBERS[later][0]}
    )
    with pytest.raises(ScenarioError) as info:
        _parse_raw(doc)
    assert str(info.value) == f"{prefix}[250] must be {rule}, got {_BAD_NUMBERS[first][1]}"


_EDGE_INTS = [2**53 + 1, 2**63, 2**64 + 1, 10**300, -(2**63) - 1, 2**1024 - 2**970 - 1]
_json_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(),
    st.integers(-(2**1023), 2**1023),
    st.sampled_from(_EDGE_INTS),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_json_numbers, max_size=40))
@example([])
@example(_EDGE_INTS)
def test_number_array_matches_per_element_floats(items):
    # What json.loads hands the parser, number for number. The file and the
    # constructor store what float() gives entry by entry, or both refuse.
    items = json.loads(json.dumps(items))
    if not items:
        doc = {"schema_version": 1, "hotelling": {
            "store_locations": items, "person_locations": [0.0]}}
        rule = "store_locations must be a non-empty 1-d vector"
        with pytest.raises(ValueError, match=f"^{rule}$"):
            HotellingScenario(items, [0.0])
        with pytest.raises(ScenarioError, match=f"^hotelling: {rule}$"):
            _parse(doc)
        return
    # Non-empty arrays are read as a type's utilities, which take any finite
    # numbers: hotelling locations must also keep their squared distances
    # finite, and the edge ints such as 10**300 do not.
    doc = {"schema_version": 1, "population": {
        "actions": [str(i) for i in range(len(items))],
        "types": [{"utilities": items, "weight": 1.0}]}}
    expected = np.array([float(v) for v in items], dtype=np.float64)
    for stored in (
        _parse(doc).population.population.types[0].utilities,
        UtilityType(items, 1.0).utilities,
    ):
        assert stored.dtype == np.float64 and stored.tobytes() == expected.tobytes()


def _with_utilities(utilities):
    doc = _population_doc()
    doc["population"]["types"][0]["utilities"] = utilities
    return doc


# A file and the constructor it calls take the same value alike: the
# document, how to read the parsed object, and how to build it directly.
_AGREEMENTS = {
    "mc-samples-2.0": (
        _population_doc(mc={"samples": 2.0}),
        lambda d: d.mc,
        lambda: MCConfig(samples=2.0),
    ),
    "utilities-2**64": (
        _with_utilities([2**64, 0]),
        lambda d: d.population.population.types[0],
        lambda: UtilityType([2**64, 0], 0.5),
    ),
}


@pytest.mark.parametrize("case", sorted(_AGREEMENTS))
def test_files_and_constructors_agree(case):
    doc, read, build = _AGREEMENTS[case]
    assert read(_parse(doc)) == build()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=8))
def test_mixture_weights_are_a_tuple_of_python_floats(counts):
    # One component gives the JSON int 1; more give floats.
    weights = [1] if len(counts) == 1 else [c / sum(counts) for c in counts]
    doc = _with_belief(
        {
            "kind": "mixture",
            "components": [{"kind": "point_mass", "pi": 0.5}] * len(weights),
            "weights": weights,
        }
    )
    parsed = _parse(doc).treatment.x_cells[0].z_cells[0].belief.weights
    assert type(parsed) is tuple
    assert all(type(w) is float for w in parsed)
    assert parsed == tuple(float(w) for w in weights)


def test_unreadable_file_raises_scenario_error(tmp_path):
    missing = tmp_path / "nope.scn"
    with pytest.raises(ScenarioError, match=r"cannot read scenario file"):
        parse_scenario(missing)


def test_parse_scenario_reads_files(tmp_path):
    path = tmp_path / "pop.scn"
    path.write_text(json.dumps(_population_doc()), encoding="utf-8")
    assert parse_scenario(path).kind == "population"
