"""Scenario document parsing, validation, and serialization.

Scenario files are JSON (UTF-8) with an explicit schema_version. A document
holds exactly one scenario kind:

* ``population``: explicit action labels, utility types, and a named map of
  choice models,
* ``hotelling``: store and person locations on a line, expanded to a
  quadratic-loss population,
* ``treatment``: binary-treatment cells with outcome probabilities, outcome
  utilities, and optional subjective-belief models,

plus optional ``sweep`` (q grid) and ``mc`` (Monte Carlo sample count and
seed defaults) sections.

The tables below are the schema, and both the parser and the serializer read
them. ``_TAGGED`` maps each family of tagged objects (error distributions,
choice models, beliefs) and each ``kind`` value to its class and fields;
``_SWEEP``, ``_MC``, ``_HOTELLING`` and ``_TYPE`` (a population type) are the
untagged records. A field's key is its constructor argument's name, and a
key is required unless the class gives it a default. The optional keys are:
every key of ``sweep`` (q_min 0, q_max 10, q_step 0.05) and ``mc`` (samples
100000, seed 0); ``gumbel.scale`` (1); ``random_utility_mc.samples`` and
``.seed`` (the document's ``mc`` section); ``hotelling.person_weights``
(uniform); a population's ``models`` (none); and a z cell's ``belief``
(none). Action labels and treatment x and z cells are read by hand, because
their keys differ from the attribute names.

Parsing is strict: unknown fields, wrong types, unresolved labels, and
violated invariants all raise ScenarioError naming the path of the offending
field (e.g. ``population.types[2].weight``); syntax errors carry the line and
column reported by the JSON parser. A number array (utilities, samples,
probabilities, locations) is checked in one vectorised pass over the whole
list; the per-element pass runs only when that check fails, to name the first
bad element. parse -> serialize -> parse is an identity on documents.
"""

import dataclasses
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from .models import (
    AlphaRational,
    ChoiceModel,
    DefaultNudge,
    GumbelIID,
    IndependentTable,
    Logit,
    NormalIID,
    RandomUtilityMC,
    RationalMax,
    UniformBoundedIID,
)
from .scenario import ActionSet, HotellingScenario, Population, UtilityType
from .treatment import (
    BetaBelief,
    CovariateCell,
    EmpiricalBelief,
    MixtureBelief,
    OutcomeUtilities,
    PointMassBelief,
    TreatmentScenario,
    UniformBelief,
    XCell,
)

SCHEMA_VERSION = 1

_SCENARIO_KINDS = ("population", "hotelling", "treatment")


class ScenarioError(Exception):
    """Syntax, schema, or invariant violation in a scenario document."""


@dataclass(frozen=True)
class SweepConfig:
    """Rationality-scale grid bounds for sweep-style commands."""

    q_min: float = 0.0
    q_max: float = 10.0
    q_step: float = 0.05

    def __post_init__(self):
        q_min, q_max = float(self.q_min), float(self.q_max)
        q_step = float(self.q_step)
        if not all(np.isfinite(v) for v in (q_min, q_max, q_step)):
            raise ValueError("sweep bounds must be finite")
        if q_min < 0.0:
            raise ValueError("q_min must be >= 0")
        if q_max < q_min:
            raise ValueError("q_max must be >= q_min")
        if q_step <= 0.0:
            raise ValueError("q_step must be > 0")
        object.__setattr__(self, "q_min", q_min)
        object.__setattr__(self, "q_max", q_max)
        object.__setattr__(self, "q_step", q_step)


@dataclass(frozen=True)
class MCConfig:
    """Default sample count and seed for Monte Carlo choice models."""

    samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        samples = int(self.samples)
        if samples < 1:
            raise ValueError("samples must be >= 1")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class PopulationSection:
    """Explicit population plus its named choice models."""

    population: Population
    models: dict[str, ChoiceModel]


@dataclass(frozen=True)
class ScenarioDocument:
    """Validated scenario file contents; exactly one scenario kind is set."""

    schema_version: int
    population: Optional[PopulationSection] = None
    hotelling: Optional[HotellingScenario] = None
    treatment: Optional[TreatmentScenario] = None
    sweep: Optional[SweepConfig] = None
    mc: Optional[MCConfig] = None

    def __post_init__(self):
        present = [
            kind for kind in _SCENARIO_KINDS if getattr(self, kind) is not None
        ]
        if len(present) != 1:
            raise ValueError(
                "exactly one of population, hotelling, treatment must be set"
            )

    @property
    def kind(self) -> str:
        for kind in _SCENARIO_KINDS:
            if getattr(self, kind) is not None:
                return kind
        raise AssertionError("unreachable: validated at construction")


# --- strict field access helpers ---


def _require_object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected an object")
    return value


def _check_keys(obj: dict, allowed: set, path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ScenarioError(f"{path}: unknown field {unknown[0]!r}")


def _get(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise ScenarioError(f"{path}: missing required field {key!r}")
    return obj[key]


def _as_number(value: Any, path: str) -> float:
    # bool is an int subclass; reject it explicitly.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: expected a number")
    try:
        value = float(value)
    except OverflowError:
        raise ScenarioError(f"{path}: number must be finite") from None
    if not math.isfinite(value):
        raise ScenarioError(f"{path}: number must be finite")
    return value


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}: expected an integer")
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{path}: expected a string")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{path}: expected an array")
    return value


def _as_number_array(value: Any, path: str) -> np.ndarray:
    items = _as_list(value, path)
    # One pass over the whole array. The type set excludes bool, str, None and
    # nested lists; np.array raises OverflowError on an int beyond float range,
    # and isfinite catches NaN and the infinities (json reads 1e400 as inf).
    if set(map(type, items)) <= {float, int}:
        try:
            arr = np.array(items, dtype=np.float64)
        except OverflowError:
            pass
        else:
            if np.isfinite(arr).all():
                return arr
    # Some element is bad: check one at a time to name the first of them.
    return np.array([_as_number(v, f"{path}[{i}]") for i, v in enumerate(items)])


def _build(path: str, ctor, *args, **kwargs):
    # Domain validators raise ValueError; re-raise with the document path.
    try:
        return ctor(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


# --- the format: one table read by both the parser and the serializer ---


class _Context(NamedTuple):
    """What a record's fields may refer to outside the record itself."""

    actions: Optional[ActionSet] = None
    mc: MCConfig = MCConfig()


class _Codec(NamedTuple):
    """How one field is read from JSON (value, path, context) and written back
    (value, context). `absent` gives the value of an omitted key from the
    context; without it an omitted key takes the class default, if any."""

    read: Callable[[Any, str, _Context], Any]
    write: Callable[[Any, _Context], Any]
    absent: Optional[Callable[[_Context, str], Any]] = None


def _has_default(cls, key: str) -> bool:
    field = next(f for f in dataclasses.fields(cls) if f.name == key)
    return field.default is not dataclasses.MISSING


def _read_fields(obj: dict, path: str, record, ctx: _Context):
    # The caller has checked that obj is an object with no unknown keys.
    cls, fields = record
    kwargs = {}
    for key, codec in fields.items():
        if key in obj:
            kwargs[key] = codec.read(obj[key], f"{path}.{key}", ctx)
        elif codec.absent is not None:
            kwargs[key] = codec.absent(ctx, key)
        elif not _has_default(cls, key):
            raise ScenarioError(f"{path}: missing required field {key!r}")
    return _build(path, cls, **kwargs)


def _parse_record(value: Any, path: str, record, ctx: _Context = _Context()):
    obj = _require_object(value, path)
    _check_keys(obj, record[1].keys(), path)
    return _read_fields(obj, path, record, ctx)


def _parse_tagged(family: str, value: Any, path: str, ctx: _Context = _Context()):
    obj = _require_object(value, path)
    kind = _as_str(_get(obj, "kind", path), f"{path}.kind")
    record = _TAGGED[family].get(kind)
    if record is None:
        raise ScenarioError(f"{path}.kind: unknown {family} {kind!r}")
    _check_keys(obj, record[1].keys() | {"kind"}, path)
    return _read_fields(obj, path, record, ctx)


def _record_to_json(obj, record, ctx: _Context = _Context()) -> dict:
    out = {}
    for key, codec in record[1].items():
        value = getattr(obj, key)
        if value is not None:
            out[key] = codec.write(value, ctx)
    return out


def _tagged_to_json(obj, ctx: _Context = _Context()) -> dict:
    tag = _KIND_OF.get(type(obj))
    if tag is None:
        raise ValueError(f"cannot serialize {obj!r}")
    kind, record = tag
    return {"kind": kind, **_record_to_json(obj, record, ctx)}


_NUMBER = _Codec(lambda v, path, ctx: _as_number(v, path), lambda v, ctx: v)
_INT = _Codec(lambda v, path, ctx: _as_int(v, path), lambda v, ctx: v)
_NUMBER_ARRAY = _Codec(
    lambda v, path, ctx: _as_number_array(v, path),
    lambda v, ctx: [float(x) for x in v],
)
_NUMBER_TUPLE = _Codec(
    lambda v, path, ctx: tuple(_as_number_array(v, path).tolist()),
    lambda v, ctx: list(v),
)
_ACTION_LABEL = _Codec(
    lambda v, path, ctx: _build(path, ctx.actions.index_of, _as_str(v, path)),
    lambda v, ctx: ctx.actions.labels[v],
)
# Sampler settings a model omits come from the document's mc section.
_MC_INT = _INT._replace(absent=lambda ctx, key: getattr(ctx.mc, key))


def _one_of(family: str) -> _Codec:
    return _Codec(
        lambda v, path, ctx: _parse_tagged(family, v, path, ctx), _tagged_to_json
    )


def _list_of(family: str) -> _Codec:
    return _Codec(
        lambda v, path, ctx: tuple(
            _parse_tagged(family, item, f"{path}[{i}]", ctx)
            for i, item in enumerate(_as_list(v, path))
        ),
        lambda v, ctx: [_tagged_to_json(item, ctx) for item in v],
    )


# family noun -> "kind" value -> (class, {key: codec}); the keys are the
# constructor's argument names.
_TAGGED = {
    "error distribution": {
        "gumbel": (GumbelIID, {"scale": _NUMBER}),
        "uniform_bounded": (UniformBoundedIID, {"delta": _NUMBER}),
        "normal": (NormalIID, {"sigma": _NUMBER}),
    },
    "model kind": {
        "rational_max": (RationalMax, {}),
        "independent_table": (IndependentTable, {"probs": _NUMBER_ARRAY}),
        "alpha_rational": (
            AlphaRational,
            {"alpha": _NUMBER, "background": _NUMBER_ARRAY},
        ),
        "logit": (Logit, {"q": _NUMBER}),
        "random_utility_mc": (
            RandomUtilityMC,
            {
                "error": _one_of("error distribution"),
                "samples": _MC_INT,
                "seed": _MC_INT,
            },
        ),
        "default_nudge": (
            DefaultNudge,
            {
                "default_action": _ACTION_LABEL,
                "gamma": _NUMBER,
                "base": _one_of("model kind"),
            },
        ),
    },
    "belief kind": {
        "point_mass": (PointMassBelief, {"pi": _NUMBER}),
        "uniform": (UniformBelief, {"lo": _NUMBER, "hi": _NUMBER}),
        "beta": (BetaBelief, {"a": _NUMBER, "b": _NUMBER}),
        "mixture": (
            MixtureBelief,
            {"components": _list_of("belief kind"), "weights": _NUMBER_TUPLE},
        ),
        "empirical": (EmpiricalBelief, {"samples": _NUMBER_ARRAY}),
    },
}
_KIND_OF = {
    record[0]: (kind, record)
    for family in _TAGGED.values()
    for kind, record in family.items()
}

# Untagged records: (class, {key: codec}).
_SWEEP = (SweepConfig, {"q_min": _NUMBER, "q_max": _NUMBER, "q_step": _NUMBER})
_MC = (MCConfig, {"samples": _INT, "seed": _INT})
_HOTELLING = (
    HotellingScenario,
    {
        "store_locations": _NUMBER_ARRAY,
        "person_locations": _NUMBER_ARRAY,
        "person_weights": _NUMBER_ARRAY,
    },
)
_TYPE = (UtilityType, {"utilities": _NUMBER_ARRAY, "weight": _NUMBER})


# --- section parsers ---


def _parse_population(value: Any, path: str, mc: MCConfig) -> PopulationSection:
    obj = _require_object(value, path)
    _check_keys(obj, {"actions", "types", "models"}, path)

    labels_raw = _as_list(_get(obj, "actions", path), f"{path}.actions")
    labels = tuple(
        _as_str(lab, f"{path}.actions[{i}]") for i, lab in enumerate(labels_raw)
    )
    actions = _build(f"{path}.actions", ActionSet, labels)

    types_raw = _as_list(_get(obj, "types", path), f"{path}.types")
    types = tuple(
        _parse_record(item, f"{path}.types[{i}]", _TYPE)
        for i, item in enumerate(types_raw)
    )
    population = _build(f"{path}.types", Population, actions=actions, types=types)

    ctx = _Context(actions=actions, mc=mc)
    models: dict[str, ChoiceModel] = {}
    if "models" in obj:
        models_obj = _require_object(obj["models"], f"{path}.models")
        for name, spec in models_obj.items():
            models[name] = _parse_tagged(
                "model kind", spec, f"{path}.models.{name}", ctx
            )
    return PopulationSection(population=population, models=models)


def _parse_treatment(value: Any, path: str) -> TreatmentScenario:
    obj = _require_object(value, path)
    _check_keys(obj, {"x_cells"}, path)
    cells_raw = _as_list(_get(obj, "x_cells", path), f"{path}.x_cells")
    x_cells = []
    for i, item in enumerate(cells_raw):
        xpath = f"{path}.x_cells[{i}]"
        xobj = _require_object(item, xpath)
        _check_keys(xobj, {"label", "weight", "utilities", "z_cells"}, xpath)
        label = _as_str(_get(xobj, "label", xpath), f"{xpath}.label")
        weight = _as_number(_get(xobj, "weight", xpath), f"{xpath}.weight")

        upath = f"{xpath}.utilities"
        uobj = _require_object(_get(xobj, "utilities", xpath), upath)
        _check_keys(uobj, {"u0_a", "u1_a", "u0_b", "u1_b"}, upath)
        utilities = _build(
            upath,
            OutcomeUtilities.from_components,
            u0_a=_as_number(_get(uobj, "u0_a", upath), f"{upath}.u0_a"),
            u1_a=_as_number(_get(uobj, "u1_a", upath), f"{upath}.u1_a"),
            u0_b=_as_number(_get(uobj, "u0_b", upath), f"{upath}.u0_b"),
            u1_b=_as_number(_get(uobj, "u1_b", upath), f"{upath}.u1_b"),
        )

        z_raw = _as_list(_get(xobj, "z_cells", xpath), f"{xpath}.z_cells")
        z_cells = []
        for j, zitem in enumerate(z_raw):
            zpath = f"{xpath}.z_cells[{j}]"
            zobj = _require_object(zitem, zpath)
            _check_keys(zobj, {"label", "p_z_given_x", "p_xz", "belief"}, zpath)
            belief = None
            if "belief" in zobj:
                belief = _parse_tagged("belief kind", zobj["belief"], f"{zpath}.belief")
            z_cells.append(
                _build(
                    zpath,
                    CovariateCell,
                    z_label=_as_str(_get(zobj, "label", zpath), f"{zpath}.label"),
                    p_z_given_x=_as_number(
                        _get(zobj, "p_z_given_x", zpath), f"{zpath}.p_z_given_x"
                    ),
                    p_xz=_as_number(_get(zobj, "p_xz", zpath), f"{zpath}.p_xz"),
                    belief=belief,
                )
            )
        x_cells.append(
            _build(
                xpath,
                XCell,
                x_label=label,
                weight=weight,
                utilities=utilities,
                z_cells=tuple(z_cells),
            )
        )
    return _build(f"{path}.x_cells", TreatmentScenario, x_cells=tuple(x_cells))


# --- entry points ---


def parse_scenario_text(text: str, source: str = "<scenario>") -> ScenarioDocument:
    """Parse and validate a scenario document from a JSON string."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    obj = _require_object(raw, "document")
    _check_keys(
        obj,
        {"schema_version", "population", "hotelling", "treatment", "sweep", "mc"},
        "document",
    )
    version = _as_int(_get(obj, "schema_version", "document"), "schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"schema_version: unsupported version {version} (expected {SCHEMA_VERSION})"
        )
    present = [kind for kind in _SCENARIO_KINDS if kind in obj]
    if len(present) != 1:
        raise ScenarioError(
            "document: exactly one of 'population', 'hotelling', 'treatment' "
            f"must be present, got {present!r}"
        )

    sweep = _parse_record(obj["sweep"], "sweep", _SWEEP) if "sweep" in obj else None
    mc = _parse_record(obj["mc"], "mc", _MC) if "mc" in obj else None
    mc_defaults = mc if mc is not None else MCConfig()

    population = hotelling = treatment = None
    if "population" in obj:
        population = _parse_population(obj["population"], "population", mc_defaults)
    elif "hotelling" in obj:
        hotelling = _parse_record(obj["hotelling"], "hotelling", _HOTELLING)
    else:
        treatment = _parse_treatment(obj["treatment"], "treatment")

    return ScenarioDocument(
        schema_version=version,
        population=population,
        hotelling=hotelling,
        treatment=treatment,
        sweep=sweep,
        mc=mc,
    )


def parse_scenario(path) -> ScenarioDocument:
    """Parse and validate the scenario file at `path`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read scenario file: {exc}") from None
    return parse_scenario_text(text, source=str(path))


def bundled_scenario_text(name: str = "hotelling.scn") -> str:
    """Raw text of a scenario file shipped inside the package."""
    return (
        resources.files("choicewelfare").joinpath("data").joinpath(name)
    ).read_text(encoding="utf-8")


def load_bundled_scenario(name: str = "hotelling.scn") -> ScenarioDocument:
    """Parse a scenario file shipped inside the package."""
    return parse_scenario_text(bundled_scenario_text(name), source=name)


# --- serialization ---


def _population_to_json(section: PopulationSection) -> dict:
    pop = section.population
    ctx = _Context(actions=pop.actions)
    return {
        "actions": list(pop.actions.labels),
        "types": [_record_to_json(t, _TYPE) for t in pop.types],
        "models": {
            name: _tagged_to_json(model, ctx) for name, model in section.models.items()
        },
    }


def _treatment_to_json(scenario: TreatmentScenario) -> dict:
    x_cells = []
    for cell in scenario.x_cells:
        u = cell.utilities.values
        z_cells = []
        for z in cell.z_cells:
            zout = {
                "label": z.z_label,
                "p_z_given_x": z.p_z_given_x,
                "p_xz": z.p_xz,
            }
            if z.belief is not None:
                zout["belief"] = _tagged_to_json(z.belief)
            z_cells.append(zout)
        x_cells.append(
            {
                "label": cell.x_label,
                "weight": cell.weight,
                "utilities": {
                    "u0_a": float(u[0, 0]),
                    "u0_b": float(u[0, 1]),
                    "u1_a": float(u[1, 0]),
                    "u1_b": float(u[1, 1]),
                },
                "z_cells": z_cells,
            }
        )
    return {"x_cells": x_cells}


def document_to_json_dict(doc: ScenarioDocument) -> dict:
    """Plain-dict form of a document, ready for json.dump."""
    out: dict = {"schema_version": doc.schema_version}
    if doc.population is not None:
        out["population"] = _population_to_json(doc.population)
    if doc.hotelling is not None:
        out["hotelling"] = _record_to_json(doc.hotelling, _HOTELLING)
    if doc.treatment is not None:
        out["treatment"] = _treatment_to_json(doc.treatment)
    if doc.sweep is not None:
        out["sweep"] = _record_to_json(doc.sweep, _SWEEP)
    if doc.mc is not None:
        out["mc"] = _record_to_json(doc.mc, _MC)
    return out


def serialize_scenario(doc: ScenarioDocument) -> str:
    """Canonical JSON text; parse(serialize(doc)) == doc."""
    return json.dumps(document_to_json_dict(doc), indent=2, sort_keys=True) + "\n"
