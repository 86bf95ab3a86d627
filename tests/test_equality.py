"""Value equality of the frozen dataclasses that hold numpy arrays.

Each class compares field by field (arrays by shape and contents), refuses
to compare with other types, and is unhashable because its arrays are.
"""

import numpy as np
import pytest

from choicewelfare import (
    ActionSet,
    AlphaRational,
    BetaBelief,
    ChoiceProbabilities,
    EmpiricalBelief,
    HotellingScenario,
    IndependentTable,
    MixtureBelief,
    OutcomeUtilities,
    PointMassBelief,
    Population,
    SweepGrid,
    UniformBelief,
    UtilityType,
)


def _population(labels=("a", "b"), first=(1.0, 0.0)):
    return Population(
        actions=ActionSet(labels=labels),
        types=(
            UtilityType(utilities=np.array(first), weight=0.25),
            UtilityType(utilities=np.array([0.0, 2.0]), weight=0.75),
        ),
    )


# Per class: a factory of fresh equal values, then one value per field that
# differs from the factory's in that field alone.
CASES = {
    "UtilityType": (
        lambda: UtilityType(utilities=np.array([1.0, 2.0]), weight=0.5),
        [
            UtilityType(utilities=np.array([1.0, 3.0]), weight=0.5),
            UtilityType(utilities=np.array([1.0, 2.0]), weight=0.25),
        ],
    ),
    "Population": (
        _population,
        [
            _population(labels=("a", "c")),
            _population(first=(1.0, 0.5)),
        ],
    ),
    "HotellingScenario": (
        lambda: HotellingScenario(
            store_locations=np.array([0.5, 1.0]),
            person_locations=np.array([0.0, 2.0]),
        ),
        [
            HotellingScenario(
                store_locations=np.array([0.5, 1.1]),
                person_locations=np.array([0.0, 2.0]),
            ),
            HotellingScenario(
                store_locations=np.array([0.5, 1.0]),
                person_locations=np.array([0.0, 2.5]),
            ),
            HotellingScenario(
                store_locations=np.array([0.5, 1.0]),
                person_locations=np.array([0.0, 2.0]),
                person_weights=np.array([0.5, 0.5]),
            ),
        ],
    ),
    "HotellingScenario(weights)": (
        lambda: HotellingScenario(
            store_locations=np.array([0.5, 1.0]),
            person_locations=np.array([0.0, 2.0]),
            person_weights=np.array([0.25, 0.75]),
        ),
        [
            HotellingScenario(
                store_locations=np.array([0.5, 1.0]),
                person_locations=np.array([0.0, 2.0]),
                person_weights=np.array([0.75, 0.25]),
            ),
            HotellingScenario(
                store_locations=np.array([0.5, 1.0]),
                person_locations=np.array([0.0, 2.0]),
            ),
        ],
    ),
    "IndependentTable": (
        lambda: IndependentTable(probs=np.array([0.25, 0.75])),
        [IndependentTable(probs=np.array([0.75, 0.25]))],
    ),
    "AlphaRational": (
        lambda: AlphaRational(alpha=0.5, background=np.array([0.25, 0.75])),
        [
            AlphaRational(alpha=0.25, background=np.array([0.25, 0.75])),
            AlphaRational(alpha=0.5, background=np.array([0.75, 0.25])),
        ],
    ),
    "ChoiceProbabilities": (
        lambda: ChoiceProbabilities(available=(0, 2), probs=np.array([0.25, 0.75])),
        [
            ChoiceProbabilities(available=(0, 1), probs=np.array([0.25, 0.75])),
            ChoiceProbabilities(available=(0, 2), probs=np.array([0.75, 0.25])),
        ],
    ),
    "OutcomeUtilities": (
        lambda: OutcomeUtilities.from_components(1.0, 0.0, 0.5, 1.0),
        [OutcomeUtilities.from_components(1.0, 0.0, 0.5, 0.9)],
    ),
    "MixtureBelief": (
        lambda: MixtureBelief(
            components=(PointMassBelief(pi=0.2), UniformBelief(lo=0.0, hi=1.0)),
            weights=(0.25, 0.75),
        ),
        [
            MixtureBelief(
                components=(PointMassBelief(pi=0.2), BetaBelief(a=1.0, b=1.0)),
                weights=(0.25, 0.75),
            ),
            MixtureBelief(
                components=(PointMassBelief(pi=0.2), UniformBelief(lo=0.0, hi=1.0)),
                weights=(0.75, 0.25),
            ),
        ],
    ),
    "EmpiricalBelief": (
        lambda: EmpiricalBelief(samples=np.array([0.1, 0.4, 0.4])),
        [
            EmpiricalBelief(samples=np.array([0.1, 0.4, 0.5])),
            EmpiricalBelief(samples=np.array([0.1, 0.4])),
        ],
    ),
    "SweepGrid": (
        lambda: SweepGrid(q_values=np.array([0.0, 0.5, 1.0])),
        [SweepGrid(q_values=np.array([0.0, 0.5, 2.0]))],
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_array_dataclass_value_equality(name):
    make, changed = CASES[name]
    value = make()
    twin = make()
    assert value is not twin
    assert value == twin and not (value != twin)
    for other in changed:
        assert type(other) is type(value)
        assert value != other and other != value
        assert not (value == other)
    assert value.__eq__(object()) is NotImplemented
    assert value != object()
    assert value != (value,)
    with pytest.raises(TypeError):
        hash(value)
