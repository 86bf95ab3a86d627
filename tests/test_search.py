"""Choice-set sweep, upper envelope, crossings, and discrete optimization."""

import gc
import itertools
import math
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choicewelfare import (
    ActionSet,
    AlphaRational,
    Crossing,
    DefaultNudge,
    GumbelIID,
    IndependentTable,
    Logit,
    NormalIID,
    Population,
    RandomUtilityMC,
    RationalMax,
    RefinementError,
    SweepConfig,
    SweepGrid,
    UniformBoundedIID,
    UtilitySpreadError,
    UtilityType,
    build_population,
    choice_probabilities,
    enumerate_choice_sets,
    expected_utilities,
    find_crossings,
    idealized_optimum,
    optimize_choice_set,
    policy_welfare,
    sweep_logit,
)
from choicewelfare import _kernels, search
from choicewelfare.models import _beaten_tally, _subset_sums
from choicewelfare.search import (
    REFINE_VALUE_TOL,
    TALLY_CHUNK_ELEMENTS,
    TOUCH_TOL,
    _illinois,
    _sign_change_brackets,
    _subset_welfare,
)

# Roots frozen from an independent bracketing root finder (xtol 1e-13) on the
# welfare difference of each subset pair for the line scenario. Eleven of the
# 21 pairs cross; one pair crosses twice.
LINE_CROSSINGS = {
    ((0,), (0, 2)): [0.18344309687870833],
    ((0,), (1, 2)): [0.4587674688657642],
    ((0,), (0, 1, 2)): [0.14868105319205424],
    ((1,), (0, 1)): [0.1573586311878192],
    ((1,), (0, 2)): [0.25334741391045584],
    ((1,), (1, 2)): [0.7086189533389813],
    ((1,), (0, 1, 2)): [0.2517456433494602],
    ((0, 1), (0, 2)): [0.2821265814414745],
    ((0, 1), (0, 1, 2)): [0.3013726277907517],
    ((0, 2), (1, 2)): [0.0476983707483408],
    ((0, 2), (0, 1, 2)): [0.2566359043952906, 2.429591990245669],
}


# --- grids ---

# test_from_range_* check the grids SweepConfig builds from a q range.


def test_from_range_defaults():
    grid = SweepConfig().grid()
    assert grid.q_values.shape == (201,)
    assert grid.q_values[0] == 0.0
    assert grid.q_values[-1] == 10.0
    assert np.allclose(np.diff(grid.q_values), 0.05, atol=1e-12)


def test_from_range_partial_last_step():
    grid = SweepConfig(0.0, 1.0, 0.3).grid()
    assert np.allclose(grid.q_values, [0.0, 0.3, 0.6, 0.9], atol=1e-12)


def test_from_range_degenerate_single_point():
    grid = SweepConfig(2.0, 2.0, 0.5).grid()
    assert np.array_equal(grid.q_values, [2.0])


def test_from_range_validation():
    with pytest.raises(ValueError):
        SweepConfig(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        SweepConfig(1.0, 0.5, 0.1)
    with pytest.raises(ValueError):
        SweepConfig(-0.5, 1.0, 0.1)


@pytest.mark.parametrize(
    "bounds", [(float("nan"), 10.0), (0.0, float("inf")), (float("-inf"), 1.0)]
)
def test_from_range_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError, match="^q_m(in|ax) must be a finite number"):
        SweepConfig(*bounds, 0.1)


def test_grid_requires_increasing_nonnegative_values():
    with pytest.raises(ValueError):
        SweepGrid(q_values=np.array([0.0, 0.5, 0.5]))
    with pytest.raises(ValueError):
        SweepGrid(q_values=np.array([-0.1, 0.5]))
    with pytest.raises(ValueError):
        SweepGrid(q_values=np.array([]))


# --- subset enumeration ---


def test_enumerate_choice_sets_order():
    actions = ActionSet(labels=("a", "b", "c"))
    assert enumerate_choice_sets(actions) == [
        (0,),
        (1,),
        (2,),
        (0, 1),
        (0, 2),
        (1, 2),
        (0, 1, 2),
    ]


def test_enumerate_choice_sets_size_cap():
    actions = ActionSet(labels=tuple(str(i) for i in range(21)))
    with pytest.raises(ValueError):
        enumerate_choice_sets(actions)


# --- sweep over the line scenario ---


def test_sweep_envelope_boundaries(line_population):
    result = sweep_logit(line_population)
    idx = {s: i for i, s in enumerate(result.subsets)}
    qs = result.grid.q_values

    def env_at(q):
        return result.subsets[result.envelope[int(np.argmin(np.abs(qs - q)))]]

    assert env_at(0.0) == (1,)
    assert env_at(0.15) == (1,)
    assert env_at(0.20) == (0, 1)
    assert env_at(0.25) == (0, 1)
    assert env_at(0.30) == (0, 2)
    assert env_at(2.40) == (0, 2)
    assert env_at(2.45) == (0, 1, 2)
    assert env_at(10.0) == (0, 1, 2)
    assert idx[(0,)] == 0  # canonical ordering carried through


def test_sweep_q_zero_row_is_subset_mean(line_population):
    result = sweep_logit(line_population)
    eu = expected_utilities(line_population)
    for si, subset in enumerate(result.subsets):
        assert abs(result.welfare[si, 0] - eu[list(subset)].mean()) < 1e-12


def test_sweep_rows_are_nondecreasing(line_population):
    result = sweep_logit(line_population)
    assert (np.diff(result.welfare, axis=1) >= -1e-12).all()


def test_sweep_rows_bounded_by_idealized(line_population):
    result = sweep_logit(line_population)
    assert (result.welfare <= idealized_optimum(line_population) + 1e-12).all()


def test_sweep_crossings_match_reference(line_population):
    result = sweep_logit(line_population)
    found: dict[tuple, list[float]] = {}
    for crossing in result.crossings:
        assert isinstance(crossing, Crossing)
        found.setdefault((crossing.subset_a, crossing.subset_b), []).append(
            crossing.q_star
        )
    assert set(found) == set(LINE_CROSSINGS)
    total = 0
    for pair, roots in LINE_CROSSINGS.items():
        got = sorted(found[pair])
        assert len(got) == len(roots)
        for g, r in zip(got, roots):
            assert abs(g - r) < 2e-6
        total += len(roots)
    assert total == 12


def test_crossing_points_equalize_welfare(line_population):
    result = sweep_logit(line_population)
    for crossing in result.crossings:
        wa = policy_welfare(
            line_population, crossing.subset_a, Logit(q=crossing.q_star)
        ).welfare
        wb = policy_welfare(
            line_population, crossing.subset_b, Logit(q=crossing.q_star)
        ).welfare
        assert abs(wa - wb) <= 1e-8


def test_removing_an_action_can_help_at_moderate_q(line_population):
    # The pair behind the double crossing: the two-store subset beats the
    # full set strictly between its two roots and loses outside them.
    def diff(q):
        return (
            policy_welfare(line_population, (0, 2), Logit(q=q)).welfare
            - policy_welfare(line_population, (0, 1, 2), Logit(q=q)).welfare
        )

    assert diff(0.1) < 0.0
    assert diff(1.0) > 0.0
    assert diff(5.0) < 0.0


def test_find_crossings_agrees_with_sweep(line_population):
    for pair, roots in LINE_CROSSINGS.items():
        got = find_crossings(line_population, pair[0], pair[1])
        assert len(got) == len(roots)
        for g, r in zip(sorted(got), roots):
            assert abs(g - r) < 2e-6


def test_find_crossings_orientation_symmetry(line_population):
    ab = find_crossings(line_population, (0, 2), (0, 1, 2))
    ba = find_crossings(line_population, (0, 1, 2), (0, 2))
    assert len(ab) == len(ba) == 2
    assert np.allclose(sorted(ab), sorted(ba), atol=2e-6)


def test_coarse_grid_misses_double_crossing(line_population):
    # Both roots of the (0,2) vs (0,1,2) pair lie between 0 and 5, so the
    # difference has equal signs at all three grid points: invisible here.
    grid = SweepGrid(q_values=np.array([0.0, 5.0, 10.0]))
    assert find_crossings(line_population, (0, 2), (0, 1, 2), grid=grid) == []


def test_singleton_pair_never_crosses(line_population):
    assert find_crossings(line_population, (0,), (1,)) == []


@pytest.mark.parametrize("subset", [(0, 0), (3,), (-1, 2)])
def test_find_crossings_rejects_a_bad_subset(line_population, subset):
    message = r"available must be distinct|action index must be in \[0, 3\)"
    with pytest.raises(ValueError, match=message):
        find_crossings(line_population, subset, (0, 1))
    with pytest.raises(ValueError, match=message):
        find_crossings(line_population, (0, 1), subset)


def test_subset_paired_with_itself_never_crosses(line_population):
    assert find_crossings(line_population, (0, 2), (2, 0)) == []


# --- refinement contract ---


def _softmax_welfare(weights, utilities, q):
    z = q * utilities
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    return float(weights @ (p * utilities).sum(axis=1))


def _grid_sign_changes(diff):
    signs = [s for s in np.sign(np.where(np.abs(diff) <= 1e-12, 0.0, diff)) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@st.composite
def small_populations(draw, max_actions=4):
    n_types = draw(st.integers(1, 8))
    k = draw(st.integers(2, max_actions))
    utility = st.floats(-3.0, 3.0, allow_nan=False)
    types = [
        UtilityType(
            utilities=np.array(draw(st.lists(utility, min_size=k, max_size=k))),
            weight=draw(st.floats(0.1, 1.0)),
        )
        for _ in range(n_types)
    ]
    return build_population(ActionSet(labels=tuple(f"a{i}" for i in range(k))), types)


@settings(max_examples=60, deadline=None)
@given(small_populations())
def test_refined_crossings_meet_the_contract(pop):
    result = sweep_logit(pop)
    weights, matrix = pop.weights, pop.utility_matrix

    def gap(pair, q):
        a, b = (matrix[:, list(s)] for s in pair)
        return _softmax_welfare(weights, a, q) - _softmax_welfare(weights, b, q)

    found: dict[tuple, list[float]] = {}
    for crossing in result.crossings:
        pair = (crossing.subset_a, crossing.subset_b)
        q_star = crossing.q_star
        found.setdefault(pair, []).append(q_star)
        assert abs(gap(pair, q_star)) <= 1e-8
        around = [gap(pair, q) for q in np.linspace(q_star - 1e-6, q_star + 1e-6, 9)]
        assert min(around) <= 0.0 <= max(around)
    qs = result.grid.q_values
    curves = {
        s: np.array([_softmax_welfare(weights, matrix[:, list(s)], q) for q in qs])
        for s in result.subsets
    }
    for a, b in itertools.combinations(result.subsets, 2):
        assert len(found.get((a, b), [])) == _grid_sign_changes(curves[a] - curves[b])


def _brackets_row_by_row(diff):
    """Sign-change brackets of each row, one row at a time: entries within
    TOUCH_TOL of 0 are touching and skipped, and consecutive remaining
    entries of opposite sign make a bracket."""
    out = []
    for row, values in enumerate(diff.tolist()):
        nonzero = [(i, v > 0.0) for i, v in enumerate(values) if abs(v) > TOUCH_TOL]
        for (left, positive), (right, next_positive) in zip(nonzero, nonzero[1:]):
            if positive != next_positive:
                out.append((row, left, right))
    return out


@st.composite
def diff_blocks(draw):
    rows = draw(st.integers(1, 5))
    n_q = draw(st.integers(1, 12))
    value = st.sampled_from([1.0, -1.0, 1e-12, -1e-12, 2e-12, -2e-12, 0.0])
    row = st.lists(value, min_size=n_q, max_size=n_q)
    return np.array(draw(st.lists(row, min_size=rows, max_size=rows)))


@given(diff_blocks())
@example(np.zeros((3, 7)))  # all touching
@example(np.array([[1.0], [-1.0], [0.0]]))  # one grid point
@example(  # touching runs between equal and between opposite signs
    np.array(
        [
            [1.0, 0.0, 1e-12, -1e-12, 1.0, -2e-12, 0.0, 0.0, 2e-12],
            [-1.0, 1e-12, 0.0, -1.0, 0.0, 0.0, 0.0, -2e-12, -1.0],
        ]
    )
)
def test_sign_change_brackets_match_a_row_by_row_scan(diff):
    rows, lefts, rights = _sign_change_brackets(diff)
    got = list(zip(rows.tolist(), lefts.tolist(), rights.tolist()))
    assert got == _brackets_row_by_row(diff)


@settings(max_examples=30, deadline=None)
@given(small_populations())
def test_sweep_crossings_are_the_per_pair_roots(pop):
    grid = SweepConfig(0.0, 5.0, 0.1).grid()
    result = sweep_logit(pop, grid)
    per_pair = [
        (a, b, q_star)
        for a, b in itertools.combinations(result.subsets, 2)
        for q_star in find_crossings(pop, a, b, grid=grid)
    ]
    # Same roots bit for bit, in the same order.
    assert [(c.subset_a, c.subset_b, c.q_star) for c in result.crossings] == per_pair


def test_sweep_and_find_crossings_pass_through_each_stage_once(line_population):
    expected = sweep_logit(line_population)
    pair = ((0, 2), (0, 1, 2))
    expected_roots = find_crossings(line_population, *pair)
    calls = []

    def counting(name):
        stage = getattr(search, name)

        def wrapper(*args):
            calls.append(name)
            return stage(*args)
        return wrapper

    with mock.patch.object(search, "_grid_curves", counting("_grid_curves")), \
            mock.patch.object(search, "_refine_crossings", counting("_refine_crossings")):
        result = sweep_logit(line_population)
        assert calls == ["_grid_curves", "_refine_crossings"]
        roots = find_crossings(line_population, *pair)
        assert calls == ["_grid_curves", "_refine_crossings"] * 2
    assert result.welfare.tobytes() == expected.welfare.tobytes()
    assert result.crossings == expected.crossings
    assert roots == expected_roots
    assert len(roots) == len(LINE_CROSSINGS[pair]) == 2


def test_one_action_sweep_has_no_pairs():
    pop = build_population(
        ActionSet(labels=("only",)),
        [UtilityType(utilities=np.array([1.5]), weight=1.0)],
    )
    result = sweep_logit(pop)
    assert result.subsets == ((0,),)
    assert result.crossings == ()
    assert np.all(result.welfare == 1.5)


def test_refinement_that_cannot_converge_names_its_bracket():
    # A gap with noise up to 1e-6 whose magnitude never drops below ten times
    # the value tolerance, however narrow the bracket gets.
    rng = np.random.default_rng(7)

    def noisy_gap(q):
        value = (q - 0.3) + rng.uniform(-1e-6, 1e-6)
        return math.copysign(max(abs(value), 10 * REFINE_VALUE_TOL), value)

    with pytest.raises(RefinementError, match=r"\[0\.25, 0\.35\]"):
        _illinois(noisy_gap, 0.25, 0.35, noisy_gap(0.25), noisy_gap(0.35))


def test_a_sweep_refuses_utility_gaps_beyond_the_float_range():
    # u - max u of type 1 is 1e308 - (-1e308), which overflows to -inf; at
    # q = 0 that would be 0 * -inf = NaN welfare.
    actions = ActionSet(labels=("a", "b", "c"))
    pop = build_population(actions, [
        UtilityType(utilities=np.array([0.0, 1.0, 2.0]), weight=1.0),
        UtilityType(utilities=np.array([1e308, 0.0, -1e308]), weight=1.0),
    ])
    message = r"type 1: utilities 1e\+308 \(action 'a'\) and -1e\+308 \(action 'c'\)"
    with pytest.raises(UtilitySpreadError, match=message):
        sweep_logit(pop)
    with pytest.raises(UtilitySpreadError, match=message):
        find_crossings(pop, (0, 2), (1,))
    # The check is per subset: single actions have no gap, wherever they lie.
    assert find_crossings(pop, (0,), (2,)) == []


def test_a_sweep_whose_q_times_a_gap_overflows_warns_nothing(monkeypatch):
    # Every gap is finite, but 10 x 1e308 is not: exp(q x gap) = exp(-inf)
    # = 0 is the right weight, so the sweep sets numpy's overflow warning
    # aside. A sweep that cannot overflow, such as the same population up to
    # q = 1, and its one-q refinement calls keep the caller's setting.
    actions = ActionSet(labels=("a", "b", "c"))
    pop = build_population(actions, [
        UtilityType(utilities=np.array([1e308, 0.0, 5e307]), weight=1.0),
        UtilityType(utilities=np.array([0.0, 1e308, 0.2]), weight=1.0),
    ])
    over = []
    curve = search.logit_welfare_curve

    def recording(weights, utilities, q_values):
        over.append(np.geterr()["over"])
        return curve(weights, utilities, q_values)

    monkeypatch.setattr(search, "logit_welfare_curve", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise"):
            wide = sweep_logit(pop)
            assert set(over) == {"ignore"}
            over.clear()
            narrow = sweep_logit(pop, SweepConfig(q_max=1.0).grid())
    assert set(over) == {"raise"} and len(over) > 7  # 7 grid curves, then refinement
    assert wide.crossings and np.isfinite(wide.welfare).all()
    assert np.array_equal(wide.welfare[:, :21], narrow.welfare)


# --- discrete optimization ---


def _brute_force(pop, model):
    best_subset = None
    best_welfare = -np.inf
    for size in range(1, pop.n_actions + 1):
        for subset in itertools.combinations(range(pop.n_actions), size):
            welfare = 0.0
            for t_index, utype in enumerate(pop.types):
                cp = choice_probabilities(
                    utype.utilities, subset, model, stream=t_index
                )
                welfare += utype.weight * float(
                    np.dot(cp.probs, utype.utilities[list(subset)])
                )
            if welfare > best_welfare:
                best_welfare = welfare
                best_subset = subset
    return best_subset, best_welfare


def test_optimize_rational_attains_idealized(line_population):
    result = optimize_choice_set(line_population, RationalMax())
    assert result.welfare == idealized_optimum(line_population)


def test_optimize_uniform_table_prefers_singleton():
    actions = ActionSet(labels=("a", "b", "c"))
    pop = Population(
        actions=actions,
        types=(UtilityType(utilities=np.array([1.0, 0.0, 0.0]), weight=1.0),),
    )
    result = optimize_choice_set(pop, Logit(q=0.0))
    assert result.subset == (0,)
    assert result.welfare == 1.0


def test_optimize_all_indifferent_keeps_first_subset():
    actions = ActionSet(labels=("a", "b"))
    pop = Population(
        actions=actions,
        types=(UtilityType(utilities=np.array([0.5, 0.5]), weight=1.0),),
    )
    assert optimize_choice_set(pop, Logit(q=1.0)).subset == (0,)


def test_optimize_matches_brute_force():
    rng = np.random.default_rng(31)
    for trial in range(30):
        k = int(rng.integers(2, 6))
        t = int(rng.integers(1, 4))
        actions = ActionSet(labels=tuple(f"a{i}" for i in range(k)))
        weights = rng.dirichlet(np.ones(t))
        pop = Population(
            actions=actions,
            types=tuple(
                UtilityType(utilities=rng.normal(size=k), weight=float(w))
                for w in weights
            ),
        )
        if trial % 3 == 0:
            model = Logit(q=float(rng.uniform(0.0, 5.0)))
        elif trial % 3 == 1:
            model = AlphaRational(
                alpha=float(rng.uniform(0.0, 1.0)),
                background=rng.dirichlet(np.ones(k)),
            )
        else:
            model = DefaultNudge(
                default_action=int(rng.integers(k)),
                gamma=float(rng.uniform(0.0, 1.0)),
                base=Logit(q=float(rng.uniform(0.0, 5.0))),
            )
        expected_subset, expected_welfare = _brute_force(pop, model)
        result = optimize_choice_set(pop, model)
        assert result.subset == expected_subset
        assert abs(result.welfare - expected_welfare) < 1e-12


def test_optimize_table_matches_brute_force(line_population):
    model = IndependentTable(probs=np.array([0.2, 0.3, 0.5]))
    expected_subset, expected_welfare = _brute_force(line_population, model)
    result = optimize_choice_set(line_population, model)
    assert result.subset == expected_subset
    assert abs(result.welfare - expected_welfare) < 1e-12


@st.composite
def optimize_problems(draw):
    n_types = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    # Coarse utilities and narrow errors make exact welfare ties common.
    utility = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-3.0, 3.0)
    types = [
        UtilityType(
            utilities=np.array(draw(st.lists(utility, min_size=k, max_size=k))),
            weight=draw(st.floats(0.1, 1.0)),
        )
        for _ in range(n_types)
    ]
    pop = build_population(ActionSet(labels=tuple(f"a{i}" for i in range(k))), types)
    scale = draw(st.floats(0.01, 2.0))
    error = draw(
        st.sampled_from(
            [
                GumbelIID(scale=scale),
                UniformBoundedIID(delta=scale),
                NormalIID(sigma=scale),
            ]
        )
    )
    background = st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k).map(
        lambda mass: np.array(mass) / sum(mass)
    )
    model = draw(
        st.one_of(
            st.builds(
                RandomUtilityMC,
                error=st.just(error),
                samples=st.integers(1, 200),
                seed=st.integers(0, 2**32 - 1),
            ),
            st.just(RationalMax()),
            st.builds(IndependentTable, probs=background),
            st.builds(AlphaRational, alpha=st.floats(0.0, 1.0), background=background),
            st.builds(Logit, q=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 50.0)),
        )
    )
    if draw(st.booleans()) and isinstance(model, (RandomUtilityMC, Logit)):
        model = DefaultNudge(
            default_action=draw(st.integers(0, k - 1)),
            gamma=draw(st.floats(0.0, 1.0)),
            base=model,
        )
    return pop, model


@settings(max_examples=20, deadline=None)
@given(small_populations(max_actions=6))
def test_optimize_logit_is_the_sweep_envelope(pop):
    # Both value every subset with the same bits and break ties toward the
    # first subset, so at each grid q they name the same subset and welfare.
    result = sweep_logit(pop, SweepConfig(0.0, 4.0, 0.5).grid())
    for qi, q in enumerate(result.grid.q_values):
        best = result.envelope[qi]
        got = optimize_choice_set(pop, Logit(q=float(q)))
        assert got.subset == result.subsets[best]
        assert got.welfare == result.welfare[best, qi]


@settings(max_examples=200, deadline=None)
@given(optimize_problems())
def test_optimize_matches_exhaustive_policy_welfare(problem):
    pop, model = problem
    best_subset, best_welfare = None, -np.inf
    # Strict improvement in (size, lexicographic) order: the first subset
    # wins an exact tie.
    for subset in enumerate_choice_sets(pop.actions):
        welfare = policy_welfare(pop, subset, model).welfare
        if welfare > best_welfare:
            best_subset, best_welfare = subset, welfare
    result = optimize_choice_set(pop, model)
    assert result.subset == best_subset
    assert result.welfare == best_welfare


@pytest.mark.parametrize(
    "model",
    [
        RandomUtilityMC(error=NormalIID(sigma=0.5), samples=40, seed=3),
        DefaultNudge(default_action=4, gamma=0.3, base=Logit(q=2.0)),
    ],
    ids=["mc", "nudge-logit"],
)
def test_optimize_at_eleven_actions_is_policy_welfare_on_every_subset(model):
    # At 11 actions a block holds two types, so three types make one full
    # block and one block of a single type. Every one of the 2,047 subset
    # welfares must be policy_welfare's, bit for bit.
    k, n_types = 11, 3
    assert TALLY_CHUNK_ELEMENTS // (k << k) == 2
    rng = np.random.default_rng(11)
    pop = build_population(
        ActionSet(labels=tuple(f"a{i}" for i in range(k))),
        [
            UtilityType(utilities=u, weight=float(w))
            for u, w in zip(rng.normal(size=(n_types, k)),
                            rng.uniform(0.1, 1.0, n_types))
        ],
    )
    subsets, welfare = _subset_welfare(pop, model)
    assert len(subsets) == 2**k - 1
    for subset, value in zip(subsets, welfare):
        assert value == policy_welfare(pop, subset, model).welfare, subset
    result = optimize_choice_set(pop, model)
    assert result.subset == subsets[int(np.argmax(welfare))]
    assert result.welfare == np.max(welfare)


@pytest.mark.parametrize(
    "model",
    [
        IndependentTable(probs=np.array([0.5, 0.5, 0.0])),
        AlphaRational(alpha=0.5, background=np.array([0.5, 0.5, 0.0])),
    ],
    ids=["table", "alpha"],
)
def test_optimize_ranks_only_subsets_where_choice_is_defined(model):
    # The table puts no mass on c, so it leaves choice from {c} undefined;
    # c is everyone's best action, so {c} would otherwise be a candidate.
    pop = build_population(
        ActionSet(labels=("a", "b", "c")),
        [
            UtilityType(utilities=np.array([0.0, 0.3, 1.0]), weight=0.5),
            UtilityType(utilities=np.array([0.4, 0.0, 2.0]), weight=0.5),
        ],
    )
    with pytest.raises(ValueError, match="zero probability mass"):
        policy_welfare(pop, (2,), model)
    with pytest.raises(ValueError, match="zero probability mass"):
        choice_probabilities(pop.types[0].utilities, (2,), model)
    best_subset, best_welfare = None, -np.inf
    for subset in enumerate_choice_sets(pop.actions):
        if subset == (2,):
            continue
        welfare = policy_welfare(pop, subset, model).welfare
        if welfare > best_welfare:
            best_subset, best_welfare = subset, welfare
    result = optimize_choice_set(pop, model)
    assert result.subset != (2,)
    assert result.subset == best_subset
    assert result.welfare == policy_welfare(pop, result.subset, model).welfare


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_count_table_matches_argmax_of_every_subset(k, rows, seed):
    # Scores in {0, 1, 2} tie often; each subset must count the first argmax
    # over its columns, as np.argmax (and the models' tally) does.
    scores = np.random.default_rng(seed).integers(0, 3, size=(rows, k)).astype(float)
    full = (1 << k) - 1
    table = _subset_sums(_beaten_tally(scores))
    assert table.shape == (k, 1 << k)
    for subset in enumerate_choice_sets(ActionSet(labels=tuple(map(str, range(k))))):
        cols = list(subset)
        expected = np.bincount(np.argmax(scores[:, cols], 1), minlength=len(cols))
        assert np.array_equal(table[cols, full ^ sum(1 << i for i in cols)], expected)


def _optimize_mc_peak_bytes(n_types, workers):
    rng = np.random.default_rng(3)
    pop = build_population(
        ActionSet(labels=tuple("abcd")),
        [UtilityType(utilities=u, weight=1.0) for u in rng.normal(size=(n_types, 4))],
    )
    model = RandomUtilityMC(error=NormalIID(sigma=1.0), samples=4000, seed=1)
    # The blocks still run on every thread, but one at a time, so the peak
    # does not depend on how the threads' blocks overlap.
    one_block_at_a_time = threading.Lock()
    probabilities = search.block_choice_probabilities

    def serialized(*args):
        with one_block_at_a_time:
            return probabilities(*args)

    tracemalloc.start()
    try:
        with mock.patch.object(_kernels, "WORKERS", workers), \
                mock.patch.object(search, "block_choice_probabilities", serialized):
            optimize_choice_set(pop, model)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_optimize_mc_memory_does_not_grow_with_the_types():
    # One type's draws (4000 x 4 doubles, 125 KiB) are released before the
    # next type's are made; with the cyclic collector off, anything kept
    # alive by a reference cycle would pile up with the number of types.
    # The peaks compared are taken on one thread count: 4 and 40 types on
    # one thread, and 40 and 400 types split across two, whose blocks take
    # turns.
    gc.disable()
    try:
        few, many = _optimize_mc_peak_bytes(4, 1), _optimize_mc_peak_bytes(40, 1)
        split_few, split_many = _optimize_mc_peak_bytes(40, 2), _optimize_mc_peak_bytes(400, 2)
    finally:
        gc.enable()
    assert many < 1.5 * few
    assert split_many < 1.5 * split_few


def _optimize_mc_table_peak_bytes(n_types, workers):
    rng = np.random.default_rng(4)
    actions = ActionSet(labels=tuple(f"a{i}" for i in range(10)))
    pop = build_population(
        actions,
        [UtilityType(utilities=u, weight=1.0) for u in rng.normal(size=(n_types, 10))],
    )
    model = RandomUtilityMC(error=NormalIID(sigma=1.0), samples=50, seed=2)
    tracemalloc.start()
    try:
        with mock.patch.object(_kernels, "WORKERS", workers):
            optimize_choice_set(pop, model)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_optimize_mc_count_tables_stay_bounded():
    # At 10 actions each type's count table is 10 x 1024 float64 (80 KiB):
    # unblocked, 180 more types would add about 14.7 MB, against 1.47 MB for
    # the 1,023 x 180 welfare values the optimizer must hold. Each thread
    # has one block in flight, so the peaks compared are taken on one thread
    # count: 20 and 200 types on one thread, and 40 and 400 types (blocks of
    # the same size) split across two.
    def growth(few, many, workers):
        return (_optimize_mc_table_peak_bytes(many, workers)
                - _optimize_mc_table_peak_bytes(few, workers))

    assert growth(20, 200, 1) <= 1.25 * 1023 * (200 - 20) * 8
    assert growth(40, 400, 2) <= 1.25 * 1023 * (400 - 40) * 8


# --- optimize's type blocks split across threads ---


def _normal_population(n_types, k, seed=21):
    rng = np.random.default_rng(seed)
    return build_population(
        ActionSet(labels=tuple(f"a{i}" for i in range(k))),
        [UtilityType(utilities=u, weight=float(w))
         for u, w in zip(rng.normal(size=(n_types, k)), rng.uniform(0.1, 1.0, n_types))],
    )


def _count_thread_starts(monkeypatch):
    starts = []
    start_new_thread = _kernels._thread.start_new_thread

    def counting(*args):
        starts.append(args)
        return start_new_thread(*args)

    monkeypatch.setattr(_kernels._thread, "start_new_thread", counting)
    return starts


_MC_500 = dict(samples=500, seed=9)


@pytest.mark.parametrize(
    "model, n_types, k",
    [
        (RandomUtilityMC(error=GumbelIID(scale=0.7), **_MC_500), 53, 5),
        (RandomUtilityMC(error=NormalIID(sigma=1.0), **_MC_500), 53, 5),
        (RandomUtilityMC(error=UniformBoundedIID(delta=0.8), **_MC_500), 53, 5),
        (DefaultNudge(default_action=2, gamma=0.3,
                      base=RandomUtilityMC(error=NormalIID(sigma=0.5), **_MC_500)), 53, 5),
        (Logit(q=2.0), 53, 10),
        (AlphaRational(alpha=0.6, background=np.full(10, 0.1)), 53, 10),
    ],
    ids=["mc-gumbel", "mc-normal", "mc-uniform", "nudge-mc", "logit", "alpha"],
)
def test_optimize_is_the_same_on_any_worker_count(model, n_types, k, monkeypatch):
    # 53 types split into blocks of 13 on two workers and of 8 on three, so
    # the last block is partial; one worker keeps today's single-thread
    # blocks. Every subset's welfare must keep its bits.
    pop = _normal_population(n_types, k)
    starts = _count_thread_starts(monkeypatch)
    results = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(_kernels, "WORKERS", workers)
        before = len(starts)
        subsets, welfare = _subset_welfare(pop, model)
        assert len(starts) - before == workers - 1
        results[workers] = (optimize_choice_set(pop, model), welfare.tobytes())
    assert results[1] == results[2] == results[3]
    assert not np.isnan(np.frombuffer(results[1][1])).all()


@pytest.mark.parametrize("workers", [2, 3, 64])
def test_small_optimizer_problems_stay_on_the_calling_thread(workers, monkeypatch):
    # Hypothesis-sized problems and one action (whose tally perfbench traces
    # on the calling thread) start no thread, however many CPUs there are.
    monkeypatch.setattr(_kernels, "WORKERS", workers)
    monkeypatch.setattr(_kernels._thread, "start_new_thread", _no_thread)
    mc = RandomUtilityMC(error=NormalIID(sigma=1.0), samples=200, seed=0)
    small = _normal_population(6, 4)
    assert 6 * 4 * 200 < _kernels.SPLIT_ELEMENTS
    one_action = _normal_population(2000, 1)
    big_mc = RandomUtilityMC(error=NormalIID(sigma=1.0), samples=2000, seed=0)
    assert 2000 * 2000 >= _kernels.SPLIT_ELEMENTS
    for pop, model in ((small, mc), (small, Logit(q=1.0)), (one_action, big_mc),
                       (_normal_population(3, 14), Logit(q=1.0))):
        optimize_choice_set(pop, model)
    monkeypatch.undo()
    monkeypatch.setattr(_kernels, "WORKERS", workers)
    starts = _count_thread_starts(monkeypatch)
    optimize_choice_set(_normal_population(100, 6), big_mc)
    assert len(starts) == min(workers, 50) - 1


def _no_thread(*args, **kwargs):
    raise AssertionError("the call started a thread")
