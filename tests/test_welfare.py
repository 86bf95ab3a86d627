"""Welfare engine: evaluation, closed forms, bounds, sensitivities, Pareto."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choicewelfare import (
    ActionSet,
    AlphaRational,
    ChoiceProbabilities,
    DefaultNudge,
    GumbelIID,
    IndependentTable,
    Logit,
    ParetoVerdict,
    Population,
    RandomUtilityMC,
    RationalMax,
    UniformBoundedIID,
    UtilityType,
    alpha_welfare_closed_form,
    bounded_error_welfare_bound,
    choice_probabilities,
    expected_utilities,
    idealized_optimum,
    logit_sensitivities,
    mean_utility_bound,
    optimal_mandate,
    policy_welfare,
    stochastic_pareto_compare_binary,
)
from choicewelfare._kernels import logit_welfare_curve
from choicewelfare.welfare import expected_value


def _random_population(rng, n_actions=None, n_types=None) -> Population:
    k = n_actions if n_actions is not None else int(rng.integers(2, 6))
    t = n_types if n_types is not None else int(rng.integers(1, 5))
    actions = ActionSet(labels=tuple(f"a{i}" for i in range(k)))
    weights = rng.dirichlet(np.ones(t))
    types = tuple(
        UtilityType(utilities=rng.normal(size=k), weight=float(w)) for w in weights
    )
    return Population(actions=actions, types=types)


_utility = st.floats(-10.0, 10.0)


@st.composite
def _distributions(draw, n):
    counts = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    return np.array([c / sum(counts) for c in counts])


@st.composite
def _populations(draw, max_actions=5):
    k = draw(st.integers(1, max_actions))
    actions = ActionSet(labels=tuple(f"a{i}" for i in range(k)))
    types = tuple(
        UtilityType(
            utilities=np.array(draw(st.lists(_utility, min_size=k, max_size=k))),
            weight=float(w),
        )
        for w in draw(_distributions(draw(st.integers(1, 4))))
    )
    return Population(actions=actions, types=types)


def _subsets(k):
    return st.sets(st.integers(0, k - 1), min_size=1).map(sorted).map(tuple)


def _models(k):
    return st.one_of(
        st.just(RationalMax()),
        st.builds(Logit, q=st.floats(0.0, 1e3)),
        st.builds(
            AlphaRational, alpha=st.floats(0.0, 1.0), background=_distributions(k)
        ),
        st.builds(IndependentTable, probs=_distributions(k)),
    )


# --- reference values on the line scenario ---


def test_idealized_optimum_reference(line_population):
    assert abs(idealized_optimum(line_population) - (-0.3866666666666666)) < 1e-15


def test_expected_utilities_reference(line_population):
    expected = [-1.1666666666666667, -1.0833333333333333, -1.6433333333333333]
    assert np.allclose(expected_utilities(line_population), expected, atol=1e-15)


def test_optimal_mandate_reference(line_population):
    result = optimal_mandate(line_population)
    assert result.action == 1
    assert abs(result.welfare - (-1.0833333333333333)) < 1e-15
    assert abs(result.mandate_regret - 0.6966666666666666) < 1e-12


def test_optimal_mandate_tie_to_lowest_index():
    actions = ActionSet(labels=("a", "b"))
    pop = Population(
        actions=actions,
        types=(UtilityType(utilities=np.array([1.0, 1.0]), weight=1.0),),
    )
    assert optimal_mandate(pop).action == 0


def test_optimal_mandate_over_subset(line_population):
    result = optimal_mandate(line_population, available=(0, 2))
    assert result.action == 0


# --- policy evaluation ---


def test_rational_full_set_has_zero_regret(line_population):
    result = policy_welfare(line_population, None, RationalMax())
    assert result.welfare == idealized_optimum(line_population)
    assert result.regret == 0.0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_regret_is_nonnegative_for_any_population_and_subset(data):
    pop = data.draw(_populations())
    available = data.draw(_subsets(pop.n_actions))
    model = data.draw(_models(pop.n_actions))
    assert policy_welfare(pop, available, model).regret >= -1e-12


def test_uniform_table_welfare_reference(line_population):
    table = IndependentTable(probs=np.full(3, 1.0 / 3.0))
    result = policy_welfare(line_population, None, table)
    assert abs(result.welfare - (-1.2977777777777777)) < 1e-12


def test_mandate_dominates_independent_table():
    # Best single action beats any utility-blind table (it averages them).
    rng = np.random.default_rng(21)
    for _ in range(100):
        pop = _random_population(rng)
        probs = rng.dirichlet(np.ones(pop.n_actions))
        table_welfare = policy_welfare(pop, None, IndependentTable(probs)).welfare
        assert optimal_mandate(pop).welfare >= table_welfare - 1e-12


def test_logit_welfare_reference_points(line_population):
    # Frozen values computed from an independent softmax implementation.
    cases = [
        ((0, 2), 1.0, -0.6003655074596781),
        ((0, 1), 0.25, -1.059118869368239),
        ((0, 1, 2), 10.0, -0.39585248086128466),
    ]
    for available, q, expected in cases:
        got = policy_welfare(line_population, available, Logit(q=q)).welfare
        assert abs(got - expected) < 1e-12


def test_logit_q_zero_equals_uniform_table(line_population):
    logit = policy_welfare(line_population, None, Logit(q=0.0)).welfare
    table = policy_welfare(
        line_population, None, IndependentTable(np.full(3, 1.0 / 3.0))
    ).welfare
    assert abs(logit - table) < 1e-12


def test_logit_large_q_approaches_idealized(line_population):
    welfare = policy_welfare(line_population, None, Logit(q=200.0)).welfare
    assert abs(welfare - idealized_optimum(line_population)) < 1e-5


@pytest.mark.parametrize("n_rows", [1, 9, 1000])
def test_expected_value_rows_are_bitwise_the_per_row_values(n_rows):
    # optimize_choice_set evaluates a block of types in one 2-D call and must
    # reproduce policy_welfare's 1-D per-type values bit for bit.
    rng = np.random.default_rng(n_rows)
    for m in range(1, 21):
        probs = rng.dirichlet(np.ones(m), size=n_rows)
        realized = rng.normal(scale=10.0, size=(n_rows, m))
        rows = expected_value(probs, realized)
        one_by_one = [expected_value(p.copy(), r.copy()) for p, r in zip(probs, realized)]
        assert rows.tobytes() == np.array(one_by_one).tobytes(), m


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_policy_welfare_matches_kernel_curve(data):
    # The sweep's curve kernel and policy_welfare agree bit for bit on every
    # choice set, so the sweep's envelope and optimize_choice_set can agree.
    # From 8 actions on, both sum over actions in numpy's 8-partial order.
    pop = data.draw(_populations(max_actions=12))
    q_values = np.array(data.draw(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=6)))
    for subset in data.draw(st.lists(_subsets(pop.n_actions), min_size=1, max_size=4)):
        matrix = np.ascontiguousarray(pop.utility_matrix[:, list(subset)])
        curve = logit_welfare_curve(pop.weights, matrix, q_values)
        for qi, q in enumerate(q_values):
            got = policy_welfare(pop, subset, Logit(q=float(q))).welfare
            assert got == curve[qi], (subset, q)


_MC = RandomUtilityMC(error=GumbelIID(scale=0.5), samples=300, seed=5)


@pytest.mark.parametrize(
    "model",
    [
        DefaultNudge(default_action=1, gamma=0.3, base=Logit(q=2.0)),
        DefaultNudge(default_action=2, gamma=0.3, base=_MC),
        DefaultNudge(default_action=0, gamma=0.3, base=RationalMax()),
        AlphaRational(alpha=0.4, background=np.arange(1.0, 11.0) / 55.0),
        Logit(q=1e6),
        _MC,
    ],
    ids=["nudge-logit", "nudge-mc", "nudge-rational", "alpha", "logit", "mc"],
)
def test_policy_welfare_is_bitwise_a_per_type_loop(model):
    # One block call for all types must give each type the bits of its own
    # choice_probabilities row valued by expected_value, eta included.
    # Ten actions: rows of 8 or more are summed pairwise, not left to right.
    pop = _random_population(np.random.default_rng(21), n_actions=10, n_types=40)
    eta = 0.6
    for available in (None, (0, 2, 3, 4, 5, 6, 7, 9), (1, 2, 3), (3,)):
        result = policy_welfare(pop, available, model, eta=eta)
        cols = list(result.available)
        values = []
        for t, typ in enumerate(pop.types):
            probs = choice_probabilities(typ.utilities, cols, model, stream=t)
            realized = typ.utilities[cols].copy()
            if isinstance(model, DefaultNudge):
                realized[np.array(cols) != model.default_action] -= eta * model.gamma
            values.append(float(expected_value(probs.probs, realized)))
            assert result.per_type[t].type_index == t
            assert result.per_type[t].probs == probs
            assert result.per_type[t].value == values[-1]
        assert result.welfare == float(np.sum(pop.weights * np.array(values)))


def test_mc_evaluation_of_one_subset_builds_no_count_table():
    # One subset is tallied on the type's draws; the count table of every
    # subset (14 x 2^14 float64, 1.8 MB here) is for the optimizer only.
    pop = _random_population(np.random.default_rng(22), n_actions=14, n_types=2)
    model = RandomUtilityMC(error=GumbelIID(scale=1.0), samples=100, seed=0)
    tracemalloc.start()
    try:
        policy_welfare(pop, None, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2**14 * 8 // 4


def test_per_type_values_compose_welfare(line_population):
    result = policy_welfare(line_population, (0, 1), Logit(q=1.0))
    manual = sum(
        t.weight * e.value
        for t, e in zip(line_population.types, result.per_type)
    )
    assert abs(result.welfare - manual) < 1e-12


# --- nudges and the normative share ---


def test_nudge_eta_charges_non_default_mass():
    actions = ActionSet(labels=("a", "b"))
    pop = Population(
        actions=actions,
        types=(
            UtilityType(utilities=np.array([0.0, 1.0]), weight=0.5),
            UtilityType(utilities=np.array([0.3, 0.0]), weight=0.5),
        ),
    )
    gamma = 0.4
    model = DefaultNudge(default_action=0, gamma=gamma, base=Logit(q=2.0))
    mistake_only = policy_welfare(pop, None, model, eta=0.0)
    real_cost = policy_welfare(pop, None, model, eta=1.0)
    non_default_mass = sum(
        t.weight * float(e.probs.probs[1])
        for t, e in zip(pop.types, mistake_only.per_type)
    )
    expected_drop = gamma * non_default_mass
    assert abs((mistake_only.welfare - real_cost.welfare) - expected_drop) < 1e-12


def test_eta_ignored_for_non_nudge_models(line_population):
    a = policy_welfare(line_population, None, Logit(q=1.0), eta=0.0).welfare
    b = policy_welfare(line_population, None, Logit(q=1.0), eta=1.0).welfare
    assert a == b


def test_eta_validation(line_population):
    with pytest.raises(ValueError):
        policy_welfare(line_population, None, RationalMax(), eta=1.5)
    with pytest.raises(ValueError):
        policy_welfare(line_population, None, RationalMax(), eta=-0.1)


# --- closed forms and bounds ---


def test_alpha_closed_form_matches_evaluation():
    rng = np.random.default_rng(22)
    for _ in range(50):
        pop = _random_population(rng)
        alpha = float(rng.uniform(0.0, 1.0))
        background = rng.dirichlet(np.ones(pop.n_actions))
        model = AlphaRational(alpha=alpha, background=background)
        direct = policy_welfare(pop, None, model).welfare
        closed = alpha_welfare_closed_form(pop, alpha, background)
        assert abs(direct - closed) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_alpha_closed_form_matches_evaluation_property(data):
    pop = data.draw(_populations())
    alpha = data.draw(st.floats(0.0, 1.0))
    background = data.draw(_distributions(pop.n_actions))
    model = AlphaRational(alpha=alpha, background=background)
    direct = policy_welfare(pop, None, model).welfare
    assert abs(direct - alpha_welfare_closed_form(pop, alpha, background)) <= 1e-12


def test_bounded_error_welfare_bound_value(line_population):
    bound = bounded_error_welfare_bound(line_population, delta=0.3)
    assert abs(bound - (idealized_optimum(line_population) - 0.6)) < 1e-15
    with pytest.raises(ValueError):
        bounded_error_welfare_bound(line_population, delta=0.0)


@pytest.mark.parametrize(
    "closed_form, args, message",
    [
        (alpha_welfare_closed_form, (1.5, [0.2, 0.3, 0.5]), "alpha must lie in [0, 1]"),
        (alpha_welfare_closed_form, (0.5, [0.5, 0.6, 0.0]),
         "background probs must sum to 1 within 1e-12"),
        (alpha_welfare_closed_form, (0.5, [0.5, 0.5]),
         "background probs must cover the full action set"),
        (bounded_error_welfare_bound, (float("inf"),),
         "delta must be strictly positive and finite"),
    ],
)
def test_closed_forms_reject_what_their_models_reject(
    line_population, closed_form, args, message
):
    with pytest.raises(ValueError) as info:
        closed_form(line_population, *args)
    assert str(info.value) == message


def test_sensitivities_reject_the_q_logit_rejects():
    for q in (-0.5, float("nan")):
        with pytest.raises(ValueError, match=r"^q must be finite and >= 0$"):
            logit_sensitivities([1.0, 0.0], [0, 1], q)


def test_bounded_error_bound_respected_by_mc(line_population):
    delta = 0.3
    model = RandomUtilityMC(
        error=UniformBoundedIID(delta=delta), samples=100_000, seed=17
    )
    welfare = policy_welfare(line_population, None, model).welfare
    matrix = line_population.utility_matrix
    spread = float((matrix.max(axis=1) - matrix.min(axis=1)).max())
    se_cap = spread / 2.0 / np.sqrt(100_000)
    assert welfare >= bounded_error_welfare_bound(line_population, delta) - 5 * se_cap


def test_mean_utility_bound_floors_logit():
    rng = np.random.default_rng(23)
    for _ in range(50):
        pop = _random_population(rng)
        q = float(rng.uniform(0.0, 8.0))
        welfare = policy_welfare(pop, None, Logit(q=q)).welfare
        assert welfare >= mean_utility_bound(pop) - 1e-12


def test_mean_utility_bound_on_subset(line_population):
    bound = mean_utility_bound(line_population, available=(0, 1))
    expected = float(
        np.sum(
            line_population.weights
            * line_population.utility_matrix[:, [0, 1]].mean(axis=1)
        )
    )
    assert abs(bound - expected) < 1e-15


# --- logit sensitivities ---


def test_sensitivities_match_equivalent_forms():
    rng = np.random.default_rng(24)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        u = rng.normal(size=k)
        q = float(rng.uniform(0.0, 5.0))
        sens = logit_sensitivities(u, range(k), q)
        z = q * u - (q * u).max()
        p = np.exp(z) / np.exp(z).sum()
        v = float(np.dot(p, u))
        variance = float(np.dot(p, u**2) - v**2)
        assert abs(sens.welfare_deriv - variance) < 1e-12
        assert np.allclose(sens.prob_derivs, p * (u - v), atol=1e-12)
        assert abs(sens.prob_derivs.sum()) < 1e-12
        assert sens.welfare_deriv >= 0.0


def test_sensitivities_read_a_one_pass_available_iterable_once():
    u = np.array([0.3, -1.0, 2.0, 0.5])
    expected = logit_sensitivities(u, (3, 0, 2), 1.5)
    got = logit_sensitivities(u, iter([3, 0, 2]), 1.5)
    assert np.array_equal(got.prob_derivs, expected.prob_derivs)
    assert got.welfare_deriv == expected.welfare_deriv


def test_sensitivities_match_finite_difference():
    rng = np.random.default_rng(25)
    h = 1e-4
    for _ in range(25):
        k = int(rng.integers(2, 6))
        u = rng.normal(size=k)
        q = float(rng.uniform(h, 4.0))

        def value_at(qq):
            z = qq * u - (qq * u).max()
            p = np.exp(z) / np.exp(z).sum()
            return float(np.dot(p, u))

        fd = (value_at(q + h) - value_at(q - h)) / (2 * h)
        assert abs(logit_sensitivities(u, range(k), q).welfare_deriv - fd) < 1e-6


def test_sensitivities_zero_for_constant_utilities():
    sens = logit_sensitivities(np.array([0.7, 0.7, 0.7]), (0, 1, 2), q=3.0)
    assert sens.welfare_deriv == 0.0
    assert np.array_equal(sens.prob_derivs, np.zeros(3))


# --- stochastic Pareto comparison ---


def _binary_pop():
    actions = ActionSet(labels=("a", "b"))
    return Population(
        actions=actions,
        types=(
            UtilityType(utilities=np.array([1.0, 0.0]), weight=0.4),
            UtilityType(utilities=np.array([0.0, 1.0]), weight=0.4),
            UtilityType(utilities=np.array([0.5, 0.5]), weight=0.2),
        ),
    )


def _cp(p0: float) -> ChoiceProbabilities:
    return ChoiceProbabilities(available=(0, 1), probs=np.array([p0, 1.0 - p0]))


def test_pareto_superior_and_inferior():
    pop = _binary_pop()
    s = [_cp(0.9), _cp(0.1), _cp(0.5)]
    s_prime = [_cp(0.8), _cp(0.2), _cp(0.5)]
    assert stochastic_pareto_compare_binary(pop, s, s_prime) is ParetoVerdict.S_SUPERIOR
    assert (
        stochastic_pareto_compare_binary(pop, s_prime, s)
        is ParetoVerdict.S_PRIME_SUPERIOR
    )


def test_pareto_equivalent_ignores_indifferent_types():
    pop = _binary_pop()
    s = [_cp(0.9), _cp(0.1), _cp(0.5)]
    s_prime = [_cp(0.9), _cp(0.1), _cp(0.99)]  # differs only on the indifferent type
    assert stochastic_pareto_compare_binary(pop, s, s_prime) is ParetoVerdict.EQUIVALENT


def test_pareto_incomparable():
    pop = _binary_pop()
    s = [_cp(0.9), _cp(0.3), _cp(0.5)]
    s_prime = [_cp(0.8), _cp(0.1), _cp(0.5)]
    assert (
        stochastic_pareto_compare_binary(pop, s, s_prime) is ParetoVerdict.INCOMPARABLE
    )


def test_pareto_validation(line_population):
    pop = _binary_pop()
    with pytest.raises(ValueError):
        stochastic_pareto_compare_binary(line_population, [], [])
    with pytest.raises(ValueError):
        stochastic_pareto_compare_binary(pop, [_cp(0.5)], [_cp(0.5)])


def test_rational_weakly_pareto_dominates_logit():
    # Exact maximization gives every decided type its better action with
    # probability 1, so it is never the inferior side.
    pop = _binary_pop()
    rational = [
        ChoiceProbabilities(
            available=(0, 1),
            probs=(np.array([1.0, 0.0]) if t.utilities[0] >= t.utilities[1]
                   else np.array([0.0, 1.0])),
        )
        for t in pop.types
    ]
    logit = [
        # probabilities under Logit(q=2) for each type
        _cp(float(np.exp(2 * t.utilities[0])
                  / (np.exp(2 * t.utilities[0]) + np.exp(2 * t.utilities[1]))))
        for t in pop.types
    ]
    verdict = stochastic_pareto_compare_binary(pop, rational, logit)
    assert verdict is ParetoVerdict.S_SUPERIOR
