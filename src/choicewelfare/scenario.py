"""Population and scenario data model.

A policy problem is described by a finite action set and a finite weighted
mixture of utility types: each type is one utility function over the actions
together with its population mass. Continuous populations are handled
upstream by sampling them into a finite mixture; every downstream formula
reduces to weighted sums on finite support.

Includes the line-location builder in which each person's utility for an
action falls with the squared distance between the person's location and the
action's location (single-peaked preferences).
"""

from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

# How far a probability or weight vector's sum may be from 1.
PROB_SUM_TOL = 1e-12


def _frozen_array(values, dtype=np.float64) -> NDArray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


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
        if len(self.labels) == 0:
            raise ValueError("action set must be non-empty")
        labels = tuple(str(lab) for lab in self.labels)
        if len(set(labels)) != len(labels):
            raise ValueError("action labels must be unique")
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
        utilities = _frozen_array(self.utilities)
        if utilities.ndim != 1:
            raise ValueError("utilities must be a 1-d vector")
        if not np.all(np.isfinite(utilities)):
            raise ValueError("utilities must be finite")
        weight = float(self.weight)
        if not np.isfinite(weight) or weight <= 0.0:
            raise ValueError("type weight must be positive and finite")
        object.__setattr__(self, "utilities", utilities)
        object.__setattr__(self, "weight", weight)

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
        types = tuple(self.types)
        if len(types) == 0:
            raise ValueError("population must contain at least one type")
        n = len(self.actions)
        for idx, typ in enumerate(types):
            if typ.utilities.shape[0] != n:
                raise ValueError(
                    f"type {idx}: utilities length {typ.utilities.shape[0]} "
                    f"does not match action count {n}"
                )
        total = float(np.sum([typ.weight for typ in types]))
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(
                f"type weights must sum to 1 within {PROB_SUM_TOL}, got {total!r}"
            )
        object.__setattr__(self, "types", types)
        # Built once: every sweep, welfare and search path reads these, and
        # both are immutable, so all accesses share the same arrays.
        object.__setattr__(
            self, "_weights", _frozen_array([typ.weight for typ in types])
        )
        object.__setattr__(
            self,
            "_utility_matrix",
            _frozen_array(np.stack([typ.utilities for typ in types])),
        )

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
        stores = _frozen_array(self.store_locations)
        persons = _frozen_array(self.person_locations)
        if stores.ndim != 1 or stores.shape[0] == 0:
            raise ValueError("store_locations must be a non-empty vector")
        if persons.ndim != 1 or persons.shape[0] == 0:
            raise ValueError("person_locations must be a non-empty vector")
        if not (np.all(np.isfinite(stores)) and np.all(np.isfinite(persons))):
            raise ValueError("locations must be finite")
        object.__setattr__(self, "store_locations", stores)
        object.__setattr__(self, "person_locations", persons)
        if self.person_weights is not None:
            w = _frozen_array(self.person_weights)
            if w.shape != persons.shape:
                raise ValueError(
                    "person_weights length must match person_locations"
                )
            if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
                raise ValueError("person_weights must be positive and finite")
            if abs(float(w.sum()) - 1.0) > PROB_SUM_TOL:
                raise ValueError("person_weights must sum to 1")
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
        UtilityType(utilities=-((stores - theta) ** 2), weight=float(w))
        for theta, w in zip(persons, weights)
    )
    return Population(actions=actions, types=types)
