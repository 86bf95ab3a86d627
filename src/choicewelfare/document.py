"""Scenario document parsing, validation, and serialization.

Scenario files are JSON (UTF-8) with an explicit schema_version. A document
holds exactly one scenario kind:

* ``population``: explicit action labels, utility types, and a named map of
  choice models,
* ``hotelling``: store and person locations on a line, expanded to a
  quadratic-loss population,
* ``treatment``: binary-treatment cells with outcome probabilities, outcome
  utilities, and optional subjective-belief models,

plus optional ``sweep`` (the q grid, a ``search.SweepConfig``) and ``mc``
(the sample count and seed a Monte Carlo model takes when it omits them, a
``models.MCConfig``) sections.

The tables below are the schema, and both the parser and the serializer read
them. A record kind holds its class, its fields and the set of JSON keys its
objects may hold; the fields and the key set are built once, with the
tables, so parsing an object checks its keys against a ready set.
``_TAGGED`` maps each family of tagged objects (error distributions, choice
models, beliefs) and each ``kind`` value to its record kind, whose key set
includes ``kind``. ``_SWEEP``, ``_MC`` and ``_HOTELLING`` are untagged
record kinds, and ``_TYPES`` (a population's utility types) is a list of
them. The treatment section's record kinds (an x cell, its outcome
utilities, a z cell) and the belief family are built by
``_treatment_cells()`` the first time a treatment document is parsed or
serialized, so that other documents never load the treatment module. A
field's key is its constructor argument's name unless
the field names another (an x or z cell's ``label``), and a key is required
unless the constructor gives it a default.
The optional keys are: every key of ``sweep`` and ``mc`` (the defaults of
``SweepConfig`` and ``MCConfig``); ``gumbel.scale`` (1);
``random_utility_mc.samples`` and ``.seed`` (the document's ``mc`` section);
``hotelling.person_weights`` (uniform); a population's ``models`` (none); and
a z cell's ``belief`` (none). A population's action labels and named models
are read by hand, because the models refer to the labels. `PopulationSection`
checks each model against the actions (``models._check_fit``), so a table
that is not one entry per action is refused at parse time, behind its path.

Parsing is strict: unknown fields, wrong types, unresolved labels, and
violated invariants all raise ScenarioError naming the path of the offending
field (e.g. ``population.types[2].weight``); syntax errors carry the line and
column reported by the JSON parser. A number or number array is handed to its
constructor as JSON gave it, so the number rules of ``scenario`` are the only
check, and their message follows the record's path
(``population.types[2]: utilities[4] must be a finite number, got '1'``).
parse -> serialize -> parse is an identity on documents.
"""

import functools
import inspect
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Any, Callable, NamedTuple, Optional

from .models import (
    AlphaRational,
    ChoiceModel,
    DefaultNudge,
    GumbelIID,
    IndependentTable,
    Logit,
    MCConfig,
    NormalIID,
    RandomUtilityMC,
    RationalMax,
    UniformBoundedIID,
    _check_fit,
)
from .scenario import ActionSet, HotellingScenario, Population, UtilityType
from .search import SweepConfig

if TYPE_CHECKING:
    from .treatment import TreatmentScenario

SCHEMA_VERSION = 1

_SCENARIO_KINDS = ("population", "hotelling", "treatment")


class ScenarioError(Exception):
    """Syntax, schema, or invariant violation in a scenario document."""


@dataclass(frozen=True)
class PopulationSection:
    """Explicit population plus its named choice models. A model that does
    not fit the actions (`models._check_fit`) raises ScenarioError behind its
    path ``population.models.<name>``, whether parsed or built in code."""

    population: Population
    models: dict[str, ChoiceModel]

    def __post_init__(self):
        n_actions = len(self.population.actions)
        for name, model in self.models.items():
            _build(f"population.models.{name}", _check_fit, model, n_actions)


@dataclass(frozen=True)
class ScenarioDocument:
    """Validated scenario file contents; exactly one scenario kind is set."""

    schema_version: int
    population: Optional[PopulationSection] = None
    hotelling: Optional[HotellingScenario] = None
    treatment: Optional["TreatmentScenario"] = None
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


def _as_int(value: Any, path: str) -> int:
    # Only for schema_version: a format tag, not a number the library stores.
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


# A number, or a number array, goes to its constructor unchanged.
_NUMBER = _Codec(lambda v, path, ctx: v, lambda v, ctx: v)
_NUMBER_ARRAY = _NUMBER._replace(write=lambda v, ctx: v.tolist())
_LABEL = _Codec(lambda v, path, ctx: _as_str(v, path), lambda v, ctx: v, key="label")
_ACTION_LABEL = _Codec(
    lambda v, path, ctx: _build(path, ctx.actions.index_of, _as_str(v, path)),
    lambda v, ctx: ctx.actions.labels[v],
)
# Sampler settings a model omits come from the document's mc section.
_MC_NUMBER = _NUMBER._replace(absent=lambda ctx, name: getattr(ctx.mc, name))


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
                "samples": _MC_NUMBER,
                "seed": _MC_NUMBER,
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
    # "belief kind" is added by _treatment_cells().
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
_MC = _record_kind(MCConfig, {"samples": _NUMBER, "seed": _NUMBER})
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


@functools.cache
def _treatment_cells() -> _Codec:
    """The codec of a treatment section's x cells. It and the belief family
    of `_TAGGED` and `_KIND_OF` are built on first use, so that only
    treatment documents load the treatment module."""
    from .treatment import (
        BetaBelief,
        CovariateCell,
        EmpiricalBelief,
        MixtureBelief,
        OutcomeUtilities,
        PointMassBelief,
        UniformBelief,
        XCell,
    )

    beliefs = {
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
    }
    _TAGGED["belief kind"] = beliefs
    _KIND_OF.update((record.ctor, (kind, record)) for kind, record in beliefs.items())

    # Outcome utility u{y}_{a|b} is values[y, 0|1]: OutcomeUtilities.values is
    # laid out [y][treatment].
    outcome = _record_kind(
        OutcomeUtilities.from_components,
        {"u0_a": _NUMBER, "u1_a": _NUMBER, "u0_b": _NUMBER, "u1_b": _NUMBER},
    )
    outcome_utilities = _Codec(
        lambda v, path, ctx: _parse_record(v, path, outcome),
        lambda u, ctx: {
            f"u{y}_{t}": float(u.values[y, col])
            for y in (0, 1)
            for col, t in enumerate("ab")
        },
    )
    # A z cell reads its belief before its label, so of two bad fields the
    # belief's error is the one reported.
    z_cell = _record_kind(
        CovariateCell,
        {
            "belief": _one_of("belief kind"),
            "z_label": _LABEL,
            "p_z_given_x": _NUMBER,
            "p_xz": _NUMBER,
        },
    )
    x_cell = _record_kind(
        XCell,
        {
            "x_label": _LABEL,
            "weight": _NUMBER,
            "utilities": outcome_utilities,
            "z_cells": _list_of(_record(z_cell)),
        },
    )
    return _list_of(_record(x_cell))


# --- section parsers ---


def _parse_population(value: Any, path: str, mc: MCConfig) -> PopulationSection:
    obj = _require_object(value, path)
    _check_keys(obj, {"actions", "types", "models"}, path)

    actions_path = f"{path}.actions"
    labels = _list_of(_LABEL).read(_get(obj, "actions", path), actions_path, _Context())
    actions = _build(actions_path, ActionSet, labels)

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


def _parse_treatment(value: Any, path: str) -> "TreatmentScenario":
    from .treatment import TreatmentScenario

    obj = _require_object(value, path)
    _check_keys(obj, {"x_cells"}, path)
    cells_path = f"{path}.x_cells"
    x_cells = _treatment_cells().read(
        _get(obj, "x_cells", path), cells_path, _Context()
    )
    return _build(cells_path, TreatmentScenario, x_cells=x_cells)


# --- entry points ---


def _decode(text: str, source: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def _parse_document(raw: Any) -> ScenarioDocument:
    """Validate decoded JSON as a scenario document."""
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
    kind = present[0]
    if kind == "population":
        section = _parse_population(obj[kind], kind, mc or MCConfig())
    elif kind == "hotelling":
        section = _parse_record(obj[kind], kind, _HOTELLING)
    else:
        section = _parse_treatment(obj[kind], kind)
    return ScenarioDocument(
        schema_version=version, sweep=sweep, mc=mc, **{kind: section})


def parse_scenario_text(text: str, source: str = "<scenario>") -> ScenarioDocument:
    """Parse and validate a scenario document from a JSON string."""
    return _parse_document(_decode(text, source))


def parse_scenario(path) -> ScenarioDocument:
    """Parse and validate the scenario file at `path`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: cannot read scenario file: {exc}") from None
    raw = _decode(text, str(path))
    # The records are read from the decoded JSON alone: the file's text
    # goes first, so it does not add to the peak while they are built.
    del text
    return _parse_document(raw)


def bundled_scenario_text(name: str = "hotelling.scn") -> str:
    """Raw text of a scenario file shipped inside the package."""
    from importlib import resources

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
        x_cells = _treatment_cells().write(doc.treatment.x_cells, _Context())
        out["treatment"] = {"x_cells": x_cells}
    if doc.sweep is not None:
        out["sweep"] = _record_to_json(doc.sweep, _SWEEP)
    if doc.mc is not None:
        out["mc"] = _record_to_json(doc.mc, _MC)
    return out


def serialize_scenario(doc: ScenarioDocument) -> str:
    """Canonical JSON text; parse(serialize(doc)) == doc."""
    return json.dumps(document_to_json_dict(doc), indent=2, sort_keys=True) + "\n"
