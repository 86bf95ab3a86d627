"""Population and line-location scenario construction and validation."""

import dataclasses

import numpy as np
import pytest

from choicewelfare import (
    ActionSet,
    HotellingScenario,
    Population,
    UtilityType,
    build_population,
    hotelling_population,
)


def test_action_set_basics():
    actions = ActionSet(labels=("a", "b", "c"))
    assert len(actions) == 3
    assert actions.index_of("b") == 1


def test_action_set_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        ActionSet(labels=())
    with pytest.raises(ValueError):
        ActionSet(labels=("a", "a"))
    # One string is one label's text, not a sequence of one-letter labels.
    for labels in ("abc", b"abc"):
        with pytest.raises(ValueError) as info:
            ActionSet(labels=labels)
        assert str(info.value) == f"labels must be a sequence of labels, got {labels!r}"


def test_action_set_unknown_label():
    actions = ActionSet(labels=("a", "b"))
    with pytest.raises(ValueError, match="unknown action label"):
        actions.index_of("z")


def test_utility_type_validation():
    with pytest.raises(ValueError):
        UtilityType(utilities=np.array([1.0, np.inf]), weight=1.0)
    with pytest.raises(ValueError):
        UtilityType(utilities=np.array([[1.0, 2.0]]), weight=1.0)
    with pytest.raises(ValueError):
        UtilityType(utilities=np.array([1.0, 2.0]), weight=0.0)
    with pytest.raises(ValueError):
        UtilityType(utilities=np.array([1.0, 2.0]), weight=-0.5)


def test_population_weight_sum_enforced():
    actions = ActionSet(labels=("a", "b"))
    t = lambda w: UtilityType(utilities=np.array([1.0, 0.0]), weight=w)
    Population(actions=actions, types=(t(0.3), t(0.7)))
    with pytest.raises(ValueError, match="weights must sum to 1"):
        Population(actions=actions, types=(t(0.3), t(0.69)))


def test_population_length_mismatch_names_type():
    actions = ActionSet(labels=("a", "b", "c"))
    good = UtilityType(utilities=np.array([1.0, 0.0, 2.0]), weight=0.5)
    bad = UtilityType(utilities=np.array([1.0, 0.0]), weight=0.5)
    with pytest.raises(ValueError) as info:
        Population(actions=actions, types=(good, bad))
    assert str(info.value) == "types[1].utilities must hold one entry per action (3), got 2"


def test_population_requires_types():
    with pytest.raises(ValueError):
        Population(actions=ActionSet(labels=("a",)), types=())
    with pytest.raises(ValueError, match="^types must be non-empty$"):
        build_population(ActionSet(labels=("a",)), [])


def test_population_matrix_and_weights():
    actions = ActionSet(labels=("a", "b"))
    pop = Population(
        actions=actions,
        types=(
            UtilityType(utilities=np.array([1.0, 0.0]), weight=0.25),
            UtilityType(utilities=np.array([0.0, 2.0]), weight=0.75),
        ),
    )
    assert pop.n_actions == 2
    assert pop.n_types == 2
    assert np.array_equal(pop.weights, [0.25, 0.75])
    assert np.array_equal(pop.utility_matrix, [[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError):
        pop.utility_matrix[0, 0] = 5.0  # read-only view


def test_population_matrix_and_weights_are_built_once():
    actions = ActionSet(labels=("a", "b", "c"))
    types = (
        UtilityType(utilities=np.array([1.0, 0.0, -1.0]), weight=0.5),
        UtilityType(utilities=np.array([0.0, 2.0, 0.5]), weight=0.5),
    )
    pop = Population(actions=actions, types=types)
    assert pop.utility_matrix is pop.utility_matrix
    assert pop.weights is pop.weights
    for arr in (pop.utility_matrix, pop.weights):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        pop.weights[0] = 1.0

    flipped = UtilityType(utilities=np.array([-1.0, 0.0, 1.0]), weight=0.5)
    replaced = dataclasses.replace(pop, types=(types[0], flipped))
    assert np.array_equal(
        replaced.utility_matrix, [[1.0, 0.0, -1.0], [-1.0, 0.0, 1.0]]
    )
    assert np.array_equal(pop.utility_matrix, [[1.0, 0.0, -1.0], [0.0, 2.0, 0.5]])

    built = build_population(
        actions,
        [
            UtilityType(utilities=np.array([1.0, 0.0, -1.0]), weight=1.0),
            UtilityType(utilities=np.array([0.0, 2.0, 0.5]), weight=3.0),
        ],
    )
    assert np.array_equal(built.utility_matrix, pop.utility_matrix)
    assert np.array_equal(built.weights, [0.25, 0.75])
    assert not built.utility_matrix.flags.writeable


def test_build_population_renormalizes():
    actions = ActionSet(labels=("a", "b"))
    pop = build_population(
        actions,
        [
            UtilityType(utilities=np.array([1.0, 0.0]), weight=2.0),
            UtilityType(utilities=np.array([0.0, 1.0]), weight=3.0),
        ],
    )
    assert np.allclose(pop.weights, [0.4, 0.6])
    assert abs(float(pop.weights.sum()) - 1.0) <= 1e-12


def test_line_scenario_reference_utilities(line_population):
    # Quadratic loss at stores (0.5, 1, 1.6) for persons (-0.5, 1, 2).
    expected = np.array(
        [
            [-1.0, -2.25, -4.41],
            [-0.25, 0.0, -0.36],
            [-2.25, -1.0, -0.16],
        ]
    )
    assert np.allclose(line_population.utility_matrix, expected, atol=1e-15)
    assert line_population.actions.labels == ("1", "2", "3")
    assert np.allclose(line_population.weights, 1.0 / 3.0)


def test_line_scenario_person_on_store_gets_zero():
    scenario = HotellingScenario(
        store_locations=np.array([0.0, 2.0]),
        person_locations=np.array([2.0]),
    )
    pop = hotelling_population(scenario)
    assert pop.types[0].utilities[1] == 0.0
    assert pop.types[0].utilities[0] == -4.0


def test_line_scenario_explicit_weights():
    scenario = HotellingScenario(
        store_locations=np.array([0.0]),
        person_locations=np.array([1.0, 3.0]),
        person_weights=np.array([0.9, 0.1]),
    )
    pop = hotelling_population(scenario)
    assert np.array_equal(pop.weights, [0.9, 0.1])


def test_line_scenario_weight_validation():
    with pytest.raises(ValueError):
        HotellingScenario(
            store_locations=np.array([0.0]),
            person_locations=np.array([1.0, 3.0]),
            person_weights=np.array([0.9, 0.2]),
        )
    with pytest.raises(ValueError):
        HotellingScenario(
            store_locations=np.array([0.0]),
            person_locations=np.array([1.0, 3.0]),
            person_weights=np.array([1.0]),
        )
    with pytest.raises(ValueError):
        HotellingScenario(
            store_locations=np.array([np.nan]),
            person_locations=np.array([1.0]),
        )


def test_scenario_equality():
    make = lambda: HotellingScenario(
        store_locations=np.array([0.5, 1.0]),
        person_locations=np.array([0.0]),
    )
    assert make() == make()
    other = HotellingScenario(
        store_locations=np.array([0.5, 1.1]),
        person_locations=np.array([0.0]),
    )
    assert make() != other
