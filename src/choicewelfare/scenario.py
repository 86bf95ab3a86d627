"""Population and scenario data model.

A policy problem is described by a finite action set and a finite weighted
mixture of utility types: each type is one utility function over the actions
together with its population mass. Continuous populations are handled
upstream by sampling them into a finite mixture; every downstream formula
reduces to weighted sums on finite support.

Includes the line-location builder in which each person's utility for an
action falls with the squared distance between the person's location and the
action's location (single-peaked preferences).

This module is also the one place where the library checks a number, an
array or a collection it is given, from a caller or from a scenario file.
Each rule raises ValueError("<name> must be <rule>, got <value>") or the
like. The number rules refuse text, booleans, NaN and the infinities: `_real`
(one real number within a bound), `_whole_number` (an integer) and
`_frozen_array` (an array whose entries lie within a bound; it names the first
bad entry <name>[i], or <name>[i][j] in 2-d). The structural rules are
`_vector` ("must be a non-empty 1-d vector"), `_unit_sum` ("must sum to 1
within 1e-12, got <total>"), `_non_empty` ("must be non-empty"), `_distinct`
("must be distinct, got <entry> more than once", the first repeat), `_one_per`
("must hold one entry per <item> (<count>), got <length>") and `_index`
("must be in [0, <n>), got <value>").
"""

import math
import sys
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

# How far a probability or weight vector's sum may be from 1.
PROB_SUM_TOL = 1e-12


# What float() and int() would take but no number rule does.
_NOT_NUMBERS = (str, bytes, bool, np.bool_)

# The bounds of _real: the rule its messages state and the closed float
# interval [lo, hi] that holds exactly the floats the rule admits (x > 0 is
# x >= the least subnormal). NaN lies in no interval.
_LARGEST = sys.float_info.max
_REAL_BOUNDS = {
    "finite": ("a finite number", -_LARGEST, _LARGEST),
    ">= 0": ("a finite number >= 0", 0.0, _LARGEST),
    "> 0": ("a finite number > 0", math.ulp(0.0), _LARGEST),
    "[0, 1]": ("a number in [0, 1]", 0.0, 1.0),
}


def _real(value, name: str, bound: str) -> float:
    """`value` as a Python float within `bound`, one of "finite", ">= 0",
    "> 0" and "[0, 1]"."""
    rule, lo, hi = _REAL_BOUNDS[bound]
    real = value
    if type(real) is not float:  # a parsed scenario's numbers skip this
        try:
            real = math.nan if isinstance(value, _NOT_NUMBERS) else float(value)
        except (TypeError, ValueError, OverflowError):
            real = math.nan
    if not lo <= real <= hi:
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return real


def _whole_number(value, name: str) -> int:
    """`value` as a Python int, refusing what int() would parse (a string) or
    truncate (a number with a fractional part)."""
    try:
        whole = None if isinstance(value, _NOT_NUMBERS) else int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return whole


def _is_row(entry) -> bool:
    # A 0-d array is one number, as numpy reads it.
    return isinstance(entry, (list, tuple)) or getattr(entry, "ndim", 0) > 0


def _entries(values, name: str, bound: str, rows: bool = True):
    """Each entry of `values` through `_real` under its index, so that the
    first bad one raises; a list of rows, each as long as the first, when the
    first entry is itself a sequence."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if not isinstance(values, (list, tuple)):
        return _real(values, name, bound)
    if rows and values and _is_row(values[0]):
        width = len(values[0])
        for i, row in enumerate(values):
            if not _is_row(row) or len(row) != width:
                raise ValueError(
                    f"{name}[{i}] must be a row of length {width}, got {row!r}"
                )
        return [_entries(r, f"{name}[{i}]", bound, False) for i, r in enumerate(values)]
    return [_real(v, f"{name}[{i}]", bound) for i, v in enumerate(values)]


def _frozen_array(values, name: str, bound: str = "finite") -> NDArray[np.float64]:
    """A new read-only float64 copy of `values`, each of whose entries `_real`
    must accept within `bound`. A numeric array, or a list or tuple of floats
    and ints, is converted and checked whole; only when that fails are the
    entries walked one by one, to name the first bad one."""
    _, lo, hi = _REAL_BOUNDS[bound]
    arr = None
    if not isinstance(values, (list, tuple)):
        values = np.asarray(values)
        if values.dtype.kind in "iuf":
            arr = values.astype(np.float64)
    elif set(map(type, values)) <= {float, int}:
        try:  # numpy reads an int beyond int64 as float() does
            arr = np.array(values, dtype=np.float64)
        except OverflowError:
            pass
    if arr is None or not ((lo <= arr) & (arr <= hi)).all():
        arr = np.array(_entries(values, name, bound), dtype=np.float64)
    arr.setflags(write=False)
    return arr


def _vector(values, name: str, bound: str = "finite") -> NDArray[np.float64]:
    """`_frozen_array(values, name, bound)`, which must be non-empty and 1-d."""
    arr = _frozen_array(values, name, bound)
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty 1-d vector")
    return arr


def _unit_sum(values, name: str) -> None:
    """Refuse weights whose sum is more than PROB_SUM_TOL from 1. math.fsum
    rounds the exact sum once, so the verdict does not depend on the order
    of the entries."""
    total = math.fsum(values)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"{name} must sum to 1 within {PROB_SUM_TOL}, got {total!r}")


def _non_empty(values, name: str) -> tuple:
    """`values` as a tuple, which must hold at least one entry."""
    values = tuple(values)
    if not values:
        raise ValueError(f"{name} must be non-empty")
    return values


def _distinct(values, name: str) -> None:
    """Refuse a sequence that holds an entry twice, naming the first repeat."""
    if len(set(values)) != len(values):
        repeat = next(v for i, v in enumerate(values) if v in values[:i])
        raise ValueError(f"{name} must be distinct, got {repeat!r} more than once")


def _one_per(values, name: str, count: int, per: str) -> None:
    """Refuse a sequence whose length is not `count`, one entry per `per`."""
    if len(values) != count:
        raise ValueError(
            f"{name} must hold one entry per {per} ({count}), got {len(values)}")


def _index(value, name: str, n: int) -> int:
    """`value` as a whole number in [0, n): a position among n entries."""
    index = _whole_number(value, name)
    if not 0 <= index < n:
        raise ValueError(f"{name} must be in [0, {n}), got {value!r}")
    return index


def _fields_equal(self, other):
    """``__eq__`` for frozen dataclasses that hold numpy arrays.

    Compares field by field: when either side is an array, with
    np.array_equal (shape and values; an array never equals None), and
    otherwise with ``==``. Another class gives NotImplemented. A class that
    sets ``__eq__`` to this and no ``__hash__`` is unhashable.
    """
    if other.__class__ is not self.__class__:
        return NotImplemented
    for f in fields(self):
        a, b = getattr(self, f.name), getattr(other, f.name)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            if not np.array_equal(a, b):
                return False
        elif a != b:
            return False
    return True


@dataclass(frozen=True)
class ActionSet:
    """Ordered, labeled set of actions; indices 0..n-1 are positional.

    Attributes:
        labels: unique identifiers, one per action, in index order.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.labels, (str, bytes)):
            raise ValueError(
                f"labels must be a sequence of labels, got {self.labels!r}"
            )
        labels = _non_empty((str(lab) for lab in self.labels), "labels")
        _distinct(labels, "labels")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown action label {label!r}") from None


@dataclass(frozen=True, eq=False)
class UtilityType:
    """One utility function and its population mass.

    Attributes:
        utilities: cardinal, interpersonally comparable utility per action
            (finite; length must match the population's action count).
        weight: probability mass of this type; strictly positive.
    """

    utilities: NDArray[np.float64]
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "utilities", _vector(self.utilities, "utilities"))
        object.__setattr__(self, "weight", _real(self.weight, "weight", "> 0"))

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class Population:
    """Finite weighted mixture of utility types over a common action set.

    Attributes:
        actions: the shared action set.
        types: the utility types; weights must sum to 1 within 1e-12.
    """

    actions: ActionSet
    types: tuple[UtilityType, ...]

    def __post_init__(self):
        types = _non_empty(self.types, "types")
        n = len(self.actions)
        for i, typ in enumerate(types):
            _one_per(typ.utilities, f"types[{i}].utilities", n, "action")
        weights = [typ.weight for typ in types]
        _unit_sum(weights, "type weights")
        object.__setattr__(self, "types", types)
        # Built once: every sweep, welfare and search path reads these, and
        # both are immutable, so all accesses share the same arrays.
        utility_matrix = np.stack([typ.utilities for typ in types])
        utility_matrix.setflags(write=False)
        object.__setattr__(self, "_weights", _frozen_array(weights, "type weights"))
        object.__setattr__(self, "_utility_matrix", utility_matrix)

    __eq__ = _fields_equal

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def n_types(self) -> int:
        return len(self.types)

    @property
    def weights(self) -> NDArray[np.float64]:
        """(n_types,) read-only type masses; the same array on every access."""
        return self._weights

    @property
    def utility_matrix(self) -> NDArray[np.float64]:
        """(n_types, n_actions) read-only matrix; row t is type t's utility
        vector. The same array on every access."""
        return self._utility_matrix


@dataclass(frozen=True, eq=False)
class HotellingScenario:
    """Line-location scenario: actions and persons both live on a line.

    Attributes:
        store_locations: one coordinate per action.
        person_locations: one coordinate per utility type.
        person_weights: optional masses (must sum to 1); uniform when omitted.
    """

    store_locations: NDArray[np.float64]
    person_locations: NDArray[np.float64]
    person_weights: Optional[NDArray[np.float64]] = None

    def __post_init__(self):
        stores = _vector(self.store_locations, "store_locations")
        persons = _vector(self.person_locations, "person_locations")
        # Rounding is monotone, so the widest gap is between extremes; Python
        # floats overflow to inf where numpy would warn.
        gap = max(float(stores.max()) - float(persons.min()),
                  float(persons.max()) - float(stores.min()))
        if math.isinf(gap * gap):
            raise ValueError(
                "store_locations and person_locations must lie close enough that "
                f"every squared distance is finite, got a distance of {gap!r}")
        object.__setattr__(self, "store_locations", stores)
        object.__setattr__(self, "person_locations", persons)
        if self.person_weights is not None:
            w = _vector(self.person_weights, "person_weights", "> 0")
            _one_per(w, "person_weights", persons.shape[0], "person location")
            _unit_sum(w, "person_weights")
            object.__setattr__(self, "person_weights", w)

    __eq__ = _fields_equal


def build_population(
    actions: ActionSet, types: Sequence[UtilityType]
) -> Population:
    """Assemble a population, renormalizing type weights to sum to 1.

    Type order is preserved. Raises on empty input, utility-length mismatch,
    non-finite utilities, or non-positive weights (all via the type and
    population validators).
    """
    types = tuple(types)
    total = float(np.sum([typ.weight for typ in types]))
    rescaled = tuple(
        UtilityType(utilities=typ.utilities, weight=typ.weight / total)
        for typ in types
    )
    return Population(actions=actions, types=rescaled)


def hotelling_population(scenario: HotellingScenario) -> Population:
    """Quadratic-loss population from line locations.

    utilities[i] = -(store_locations[i] - person_location)**2 for each person;
    weights are the scenario's person_weights, uniform when absent. Utilities
    are therefore <= 0, with 0 exactly when a person sits on a store.
    """
    stores = scenario.store_locations
    persons = scenario.person_locations
    if scenario.person_weights is not None:
        weights = scenario.person_weights
    else:
        weights = np.full(persons.shape[0], 1.0 / persons.shape[0])
    actions = ActionSet(labels=tuple(str(i + 1) for i in range(stores.shape[0])))
    types = tuple(
        UtilityType(utilities=-((stores - theta) ** 2), weight=w)
        for theta, w in zip(persons, weights)
    )
    return Population(actions=actions, types=types)
