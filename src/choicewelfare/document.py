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
them. A record kind holds its class, its fields and the set of JSON keys its
objects may hold; the fields and the key set are built once, with the
tables, so parsing an object checks its keys against a ready set.
``_TAGGED`` maps each family of tagged objects (error distributions, choice
models, beliefs) and each ``kind`` value to its record kind, whose key set
includes ``kind``. ``_SWEEP``, ``_MC``, ``_HOTELLING``, ``_OUTCOME`` (an x
cell's outcome utilities), ``_Z_CELL`` and ``_X_CELL`` are untagged record
kinds; ``_TYPES`` (a population's utility types) and ``_X_CELLS`` are lists
of untagged records. A field's key is its constructor argument's name unless
the field names another (an x or z cell's ``label``), and a key is required
unless the constructor gives it a default.
The optional keys are: every key of ``sweep`` (q_min 0, q_max 10, q_step
0.05) and ``mc`` (samples 100000, seed 0); ``gumbel.scale`` (1);
``random_utility_mc.samples`` and ``.seed`` (the document's ``mc`` section);
``hotelling.person_weights`` (uniform); a population's ``models`` (none); and
a z cell's ``belief`` (none). A population's action labels and named models
are read by hand, because the models refer to the labels.

Parsing is strict: unknown fields, wrong types, unresolved labels, and
violated invariants all raise ScenarioError naming the path of the offending
field (e.g. ``population.types[2].weight``); syntax errors carry the line and
column reported by the JSON parser. A number array (utilities, samples,
probabilities, locations) is checked in one vectorised pass over the whole
list; the per-element pass runs only when that check fails, to name the first
bad element. parse -> serialize -> parse is an identity on documents.
"""

import inspect
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import AbstractSet, Any, Callable, NamedTuple, Optional

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


def _check_keys(obj: dict, allowed: AbstractSet[str], path: str) -> None:
    if not allowed.issuperset(obj):
        unknown = sorted(set(obj) - allowed)
        raise ScenarioError(f"{path}: unknown field {unknown[0]!r}")


def _get(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise ScenarioError(f"{path}: missing required field {key!r}")
    return obj[key]


def _as_number(value: Any, path: str) -> float:
    # The common case: json reads a number with a fraction or exponent as float.
    if type(value) is float and math.isfinite(value):
        return value
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
    (value, context). `key` is the JSON key when it differs from the
    constructor argument. `absent` gives the value of an omitted key from the
    context; without it an omitted key takes the constructor's default, if
    any."""

    read: Callable[[Any, str, _Context], Any]
    write: Callable[[Any, _Context], Any]
    key: Optional[str] = None
    absent: Optional[Callable[[_Context, str], Any]] = None


class _Record(NamedTuple):
    """One record kind: its constructor, its fields in reading order as
    (argument name, JSON key, codec), and the JSON keys its objects may
    hold. Built once, with the table."""

    ctor: Callable
    fields: tuple
    keys: frozenset


def _record_kind(ctor, fields: dict, tagged: bool = False) -> _Record:
    """`fields` maps each constructor argument to its codec; the objects of a
    tagged record kind also hold their "kind"."""
    fields = tuple((name, codec.key or name, codec) for name, codec in fields.items())
    keys = {key for _, key, _ in fields} | ({"kind"} if tagged else set())
    return _Record(ctor, fields, frozenset(keys))


def _tagged(ctor, fields: dict) -> _Record:
    return _record_kind(ctor, fields, tagged=True)


def _has_default(ctor, name: str) -> bool:
    param = inspect.signature(ctor).parameters[name]
    return param.default is not inspect.Parameter.empty


def _read_fields(obj: dict, path: str, record: _Record, ctx: _Context):
    # The caller has checked that obj is an object with no unknown keys.
    kwargs = {}
    for name, key, codec in record.fields:
        if key in obj:
            kwargs[name] = codec.read(obj[key], f"{path}.{key}", ctx)
        elif codec.absent is not None:
            kwargs[name] = codec.absent(ctx, name)
        elif not _has_default(record.ctor, name):
            raise ScenarioError(f"{path}: missing required field {key!r}")
    return _build(path, record.ctor, **kwargs)


def _parse_record(value: Any, path: str, record: _Record, ctx: _Context = _Context()):
    obj = _require_object(value, path)
    _check_keys(obj, record.keys, path)
    return _read_fields(obj, path, record, ctx)


def _parse_tagged(family: str, value: Any, path: str, ctx: _Context = _Context()):
    obj = _require_object(value, path)
    kind = _as_str(_get(obj, "kind", path), f"{path}.kind")
    record = _TAGGED[family].get(kind)
    if record is None:
        raise ScenarioError(f"{path}.kind: unknown {family} {kind!r}")
    _check_keys(obj, record.keys, path)
    return _read_fields(obj, path, record, ctx)


def _record_to_json(obj, record: _Record, ctx: _Context = _Context()) -> dict:
    out = {}
    for name, key, codec in record.fields:
        value = getattr(obj, name)
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
_LABEL = _Codec(lambda v, path, ctx: _as_str(v, path), lambda v, ctx: v, key="label")
_NUMBER_ARRAY = _Codec(
    lambda v, path, ctx: _as_number_array(v, path),
    lambda v, ctx: [float(x) for x in v],
)
_ACTION_LABEL = _Codec(
    lambda v, path, ctx: _build(path, ctx.actions.index_of, _as_str(v, path)),
    lambda v, ctx: ctx.actions.labels[v],
)
# Sampler settings a model omits come from the document's mc section.
_MC_INT = _INT._replace(absent=lambda ctx, name: getattr(ctx.mc, name))


def _one_of(family: str) -> _Codec:
    return _Codec(
        lambda v, path, ctx: _parse_tagged(family, v, path, ctx), _tagged_to_json
    )


def _record(record) -> _Codec:
    return _Codec(
        lambda v, path, ctx: _parse_record(v, path, record, ctx),
        lambda v, ctx: _record_to_json(v, record, ctx),
    )


def _list_of(item: _Codec) -> _Codec:
    return _Codec(
        lambda v, path, ctx: tuple(
            item.read(x, f"{path}[{i}]", ctx) for i, x in enumerate(_as_list(v, path))
        ),
        lambda v, ctx: [item.write(x, ctx) for x in v],
    )


# family noun -> "kind" value -> record kind.
_TAGGED = {
    "error distribution": {
        "gumbel": _tagged(GumbelIID, {"scale": _NUMBER}),
        "uniform_bounded": _tagged(UniformBoundedIID, {"delta": _NUMBER}),
        "normal": _tagged(NormalIID, {"sigma": _NUMBER}),
    },
    "model kind": {
        "rational_max": _tagged(RationalMax, {}),
        "independent_table": _tagged(IndependentTable, {"probs": _NUMBER_ARRAY}),
        "alpha_rational": _tagged(
            AlphaRational,
            {"alpha": _NUMBER, "background": _NUMBER_ARRAY},
        ),
        "logit": _tagged(Logit, {"q": _NUMBER}),
        "random_utility_mc": _tagged(
            RandomUtilityMC,
            {
                "error": _one_of("error distribution"),
                "samples": _MC_INT,
                "seed": _MC_INT,
            },
        ),
        "default_nudge": _tagged(
            DefaultNudge,
            {
                "default_action": _ACTION_LABEL,
                "gamma": _NUMBER,
                "base": _one_of("model kind"),
            },
        ),
    },
    "belief kind": {
        "point_mass": _tagged(PointMassBelief, {"pi": _NUMBER}),
        "uniform": _tagged(UniformBelief, {"lo": _NUMBER, "hi": _NUMBER}),
        "beta": _tagged(BetaBelief, {"a": _NUMBER, "b": _NUMBER}),
        "mixture": _tagged(
            MixtureBelief,
            {
                "components": _list_of(_one_of("belief kind")),
                "weights": _list_of(_NUMBER),
            },
        ),
        "empirical": _tagged(EmpiricalBelief, {"samples": _NUMBER_ARRAY}),
    },
}
_KIND_OF = {
    record.ctor: (kind, record)
    for family in _TAGGED.values()
    for kind, record in family.items()
}

# Untagged records.
_SWEEP = _record_kind(
    SweepConfig, {"q_min": _NUMBER, "q_max": _NUMBER, "q_step": _NUMBER}
)
_MC = _record_kind(MCConfig, {"samples": _INT, "seed": _INT})
_HOTELLING = _record_kind(
    HotellingScenario,
    {
        "store_locations": _NUMBER_ARRAY,
        "person_locations": _NUMBER_ARRAY,
        "person_weights": _NUMBER_ARRAY,
    },
)
_TYPES = _list_of(
    _record(
        _record_kind(UtilityType, {"utilities": _NUMBER_ARRAY, "weight": _NUMBER})
    )
)
# Outcome utility u{y}_{a|b} is values[y, 0|1]: OutcomeUtilities.values is
# laid out [y][treatment].
_OUTCOME = _record_kind(
    OutcomeUtilities.from_components,
    {"u0_a": _NUMBER, "u1_a": _NUMBER, "u0_b": _NUMBER, "u1_b": _NUMBER},
)
_OUTCOME_UTILITIES = _Codec(
    lambda v, path, ctx: _parse_record(v, path, _OUTCOME),
    lambda u, ctx: {
        f"u{y}_{t}": float(u.values[y, col])
        for y in (0, 1)
        for col, t in enumerate("ab")
    },
)
# A z cell reads its belief before its label, so of two bad fields the
# belief's error is the one reported.
_Z_CELL = _record_kind(
    CovariateCell,
    {
        "belief": _one_of("belief kind"),
        "z_label": _LABEL,
        "p_z_given_x": _NUMBER,
        "p_xz": _NUMBER,
    },
)
_X_CELL = _record_kind(
    XCell,
    {
        "x_label": _LABEL,
        "weight": _NUMBER,
        "utilities": _OUTCOME_UTILITIES,
        "z_cells": _list_of(_record(_Z_CELL)),
    },
)
_X_CELLS = _list_of(_record(_X_CELL))


# --- section parsers ---


def _parse_population(value: Any, path: str, mc: MCConfig) -> PopulationSection:
    obj = _require_object(value, path)
    _check_keys(obj, {"actions", "types", "models"}, path)

    labels_raw = _as_list(_get(obj, "actions", path), f"{path}.actions")
    labels = tuple(
        _as_str(lab, f"{path}.actions[{i}]") for i, lab in enumerate(labels_raw)
    )
    actions = _build(f"{path}.actions", ActionSet, labels)

    ctx = _Context(actions=actions, mc=mc)
    types_path = f"{path}.types"
    types = _TYPES.read(_get(obj, "types", path), types_path, ctx)
    population = _build(types_path, Population, actions=actions, types=types)

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
    cells_path = f"{path}.x_cells"
    x_cells = _X_CELLS.read(_get(obj, "x_cells", path), cells_path, _Context())
    return _build(cells_path, TreatmentScenario, x_cells=x_cells)


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
        "types": _TYPES.write(pop.types, ctx),
        "models": {
            name: _tagged_to_json(model, ctx) for name, model in section.models.items()
        },
    }


def document_to_json_dict(doc: ScenarioDocument) -> dict:
    """Plain-dict form of a document, ready for json.dump."""
    out: dict = {"schema_version": doc.schema_version}
    if doc.population is not None:
        out["population"] = _population_to_json(doc.population)
    if doc.hotelling is not None:
        out["hotelling"] = _record_to_json(doc.hotelling, _HOTELLING)
    if doc.treatment is not None:
        x_cells = _X_CELLS.write(doc.treatment.x_cells, _Context())
        out["treatment"] = {"x_cells": x_cells}
    if doc.sweep is not None:
        out["sweep"] = _record_to_json(doc.sweep, _SWEEP)
    if doc.mc is not None:
        out["mc"] = _record_to_json(doc.mc, _MC)
    return out


def serialize_scenario(doc: ScenarioDocument) -> str:
    """Canonical JSON text; parse(serialize(doc)) == doc."""
    return json.dumps(document_to_json_dict(doc), indent=2, sort_keys=True) + "\n"
