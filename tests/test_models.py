"""Choice models: probabilities, validation, and Monte Carlo reproducibility."""

import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choicewelfare import (
    ActionSet,
    AlphaRational,
    BetaBelief,
    ChoiceProbabilities,
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
    RandomUtilityMC,
    RationalMax,
    SweepConfig,
    SweepGrid,
    TreatmentScenario,
    UniformBelief,
    UniformBoundedIID,
    UtilityType,
    XCell,
    binary_scaled_choice_prob,
    build_population,
    choice_probabilities,
    find_crossings,
    logit_sensitivities,
    optimize_choice_set,
    policy_welfare,
    sample_errors,
)
from choicewelfare.models import block_choice_probabilities

U3 = np.array([0.0, 0.5, 1.0])


# --- deterministic models ---


def test_rational_max_picks_argmax():
    cp = choice_probabilities(U3, (0, 1, 2), RationalMax())
    assert cp.available == (0, 1, 2)
    assert np.array_equal(cp.probs, [0.0, 0.0, 1.0])


def test_rational_max_tie_goes_to_lowest_index():
    cp = choice_probabilities(np.array([2.0, 2.0, 1.0]), (0, 1, 2), RationalMax())
    assert np.array_equal(cp.probs, [1.0, 0.0, 0.0])


def test_available_subset_sorted_and_validated():
    cp = choice_probabilities(U3, (2, 0), RationalMax())
    assert cp.available == (0, 2)
    assert np.array_equal(cp.probs, [0.0, 1.0])
    with pytest.raises(ValueError):
        choice_probabilities(U3, (), RationalMax())
    with pytest.raises(ValueError):
        choice_probabilities(U3, (0, 0), RationalMax())
    with pytest.raises(ValueError):
        choice_probabilities(U3, (0, 3), RationalMax())


def test_independent_table_renormalizes():
    table = IndependentTable(probs=np.array([0.5, 0.3, 0.2]))
    cp = choice_probabilities(U3, (1, 2), table)
    assert np.allclose(cp.probs, [0.6, 0.4])
    full = choice_probabilities(U3, (0, 1, 2), table)
    assert np.allclose(full.probs, [0.5, 0.3, 0.2])


def test_independent_table_ignores_utilities():
    table = IndependentTable(probs=np.array([0.5, 0.3, 0.2]))
    a = choice_probabilities(U3, (0, 1, 2), table)
    b = choice_probabilities(U3[::-1].copy(), (0, 1, 2), table)
    assert a == b


def test_independent_table_zero_mass_on_available():
    table = IndependentTable(probs=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="zero probability mass"):
        choice_probabilities(U3, (1, 2), table)


def test_table_probs_validated():
    with pytest.raises(ValueError):
        IndependentTable(probs=np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        IndependentTable(probs=np.array([1.1, -0.1]))


def test_alpha_rational_mixes():
    background = np.array([0.5, 0.3, 0.2])
    model = AlphaRational(alpha=0.25, background=background)
    cp = choice_probabilities(U3, (0, 1, 2), model)
    expected = 0.25 * np.array([0.0, 0.0, 1.0]) + 0.75 * background
    assert np.allclose(cp.probs, expected, atol=1e-15)


def test_alpha_rational_endpoints():
    background = np.array([0.2, 0.2, 0.6])
    rational = choice_probabilities(U3, (0, 1, 2), AlphaRational(1.0, background))
    table = choice_probabilities(U3, (0, 1, 2), AlphaRational(0.0, background))
    assert np.array_equal(rational.probs, [0.0, 0.0, 1.0])
    assert np.allclose(table.probs, background, atol=1e-15)
    with pytest.raises(ValueError):
        AlphaRational(alpha=1.5, background=background)


def test_logit_reference_probabilities():
    # softmax of q*u for u = (0, 0.5, 1), q = 2.
    cp = choice_probabilities(U3, (0, 1, 2), Logit(q=2.0))
    expected = [0.09003057317038046, 0.24472847105479764, 0.6652409557748218]
    assert np.allclose(cp.probs, expected, atol=1e-15)


def test_logit_zero_q_is_uniform():
    cp = choice_probabilities(U3, (0, 1, 2), Logit(q=0.0))
    assert np.allclose(cp.probs, 1.0 / 3.0, atol=1e-15)


@st.composite
def _utilities_and_subset(draw):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    u = draw(st.lists(finite, min_size=1, max_size=8))
    subset = draw(st.sets(st.integers(0, len(u) - 1), min_size=1))
    return np.array(u), tuple(sorted(subset))


@settings(max_examples=200, deadline=None)
@given(_utilities_and_subset())
@example((np.array([1e308, -1e308]), (0, 1)))  # u - max u overflows to -inf
def test_logit_zero_q_is_uniform_property(case):
    utilities, available = case
    cp = choice_probabilities(utilities, available, Logit(q=0.0))
    assert cp.available == available
    assert np.all(cp.probs == 1.0 / len(available))


@st.composite
def _unique_max_and_q(draw):
    """Utilities with a unique maximum that beats the runner-up by a gap g,
    and a q with q * g >= 40."""
    k = draw(st.integers(2, 20))
    others = draw(st.lists(st.floats(-100.0, 100.0), min_size=k - 1, max_size=k - 1))
    best = draw(st.integers(0, k - 1))
    runner_up = max(others)
    top = runner_up + draw(st.floats(1e-3, 100.0))
    gap = top - runner_up
    q = 40.0 / gap * draw(st.floats(1.0, 1e3))
    if q * gap < 40.0:
        q = float(np.nextafter(q, np.inf))
    utilities = np.array(others[:best] + [top] + others[best:])
    return utilities, best, q


@settings(max_examples=300, deadline=None)
@given(_unique_max_and_q())
@example((U3, 2, 200.0))
def test_logit_large_q_approaches_argmax(case):
    # 1 - p_best <= (k - 1) * exp(-q * g) <= 19 * exp(-40), about 8e-17.
    utilities, best, q = case
    cp = choice_probabilities(utilities, range(utilities.shape[0]), Logit(q=q))
    assert cp.probs[best] >= 1.0 - 1e-12


def test_logit_overflow_safe_at_extreme_q():
    cp = choice_probabilities(np.array([0.0, 1000.0]), (0, 1), Logit(q=1e6))
    assert np.all(np.isfinite(cp.probs))
    assert cp.probs[1] == 1.0


@pytest.mark.parametrize("utilities, q", [
    ([1e308, -1e308], 0.5),  # u - max u overflows to -inf
    ([1e308, -7e307], 2.0),  # u - max u is finite, q * (u - max u) is not
])
def test_logit_gap_past_float_range_warns_nothing(utilities, q):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cp = choice_probabilities(np.array(utilities), (0, 1), Logit(q=q))
    assert cp.probs.tolist() == [1.0, 0.0]


def test_logit_rejects_negative_q():
    with pytest.raises(ValueError):
        Logit(q=-0.1)
    with pytest.raises(ValueError):
        Logit(q=np.inf)


def test_choice_probabilities_validation():
    with pytest.raises(ValueError):
        ChoiceProbabilities(available=(0, 1), probs=np.array([0.5, 0.5 + 3e-9]))
    ChoiceProbabilities(available=(0, 1), probs=np.array([0.5, 0.5 + 5e-10]))
    with pytest.raises(ValueError):
        ChoiceProbabilities(available=(0, 1), probs=np.array([1.2, -0.2]))
    with pytest.raises(ValueError):
        ChoiceProbabilities(available=(0, 1), probs=np.array([1.0]))


def test_to_full_scatters():
    cp = ChoiceProbabilities(available=(0, 2), probs=np.array([0.25, 0.75]))
    assert np.array_equal(cp.to_full(4), [0.25, 0.0, 0.75, 0.0])


# --- error draws ---


def test_sample_errors_deterministic_and_shaped():
    a = sample_errors(NormalIID(sigma=2.0), 100, 3, seed=42)
    b = sample_errors(NormalIID(sigma=2.0), 100, 3, seed=42)
    c = sample_errors(NormalIID(sigma=2.0), 100, 3, seed=43)
    assert a.shape == (100, 3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_errors_uniform_support():
    draws = sample_errors(UniformBoundedIID(delta=0.25), 5000, 2, seed=0)
    assert np.all(draws >= -0.25)
    assert np.all(draws <= 0.25)


def test_sample_errors_gumbel_finite_and_centered():
    draws = sample_errors(GumbelIID(scale=1.0), 200_000, 1, seed=1)
    assert np.all(np.isfinite(draws))
    # Mean of a standard Gumbel is the Euler-Mascheroni constant.
    assert abs(draws.mean() - np.euler_gamma) < 0.01


def test_sample_errors_normal_scale():
    draws = sample_errors(NormalIID(sigma=3.0), 100_000, 1, seed=2)
    assert abs(draws.std() - 3.0) < 0.05


def test_sample_errors_negative_seed_wraps():
    a = sample_errors(NormalIID(sigma=1.0), 10, 2, seed=-1)
    b = sample_errors(NormalIID(sigma=1.0), 10, 2, seed=(1 << 64) - 1)
    assert np.array_equal(a, b)


def test_error_spec_validation():
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            GumbelIID(scale=bad)
        with pytest.raises(ValueError):
            UniformBoundedIID(delta=bad)
        with pytest.raises(ValueError):
            NormalIID(sigma=bad)


# The rule each number-checking message states.
FINITE = "a finite number"
NON_NEGATIVE = "a finite number >= 0"
POSITIVE = "a finite number > 0"
UNIT = "a number in [0, 1]"
WHOLE = "a whole number"

_U = OutcomeUtilities.from_components(1.0, 0.0, 0.0, 1.0)

# Each numeric field, keyed by the name its messages use (after a class name
# where two classes share it), with a way to build its object from one value
# and read the stored value back, and the rule the value must meet. A float
# field is stored as a Python float and an integer field as a Python int,
# whatever number type it was given.
NUMERIC_FIELDS = {
    "scale": (lambda v: GumbelIID(scale=v).scale, POSITIVE),
    "delta": (lambda v: UniformBoundedIID(delta=v).delta, POSITIVE),
    "sigma": (lambda v: NormalIID(sigma=v).sigma, POSITIVE),
    "q": (lambda v: Logit(q=v).q, NON_NEGATIVE),
    "alpha": (lambda v: AlphaRational(alpha=v, background=[0.5, 0.5]).alpha, UNIT),
    "gamma": (
        lambda v: DefaultNudge(default_action=0, gamma=v, base=RationalMax()).gamma,
        NON_NEGATIVE,
    ),
    "samples": (lambda v: MCConfig(samples=v).samples, WHOLE),
    "seed": (lambda v: MCConfig(seed=v).seed, WHOLE),
    "default_action": (
        lambda v: DefaultNudge(default_action=v, gamma=0.1, base=RationalMax()).default_action,
        WHOLE,
    ),
    "q_min": (lambda v: SweepConfig(q_min=v).q_min, NON_NEGATIVE),
    "q_max": (lambda v: SweepConfig(q_max=v).q_max, FINITE),
    "q_step": (lambda v: SweepConfig(q_step=v).q_step, POSITIVE),
    "UtilityType.weight": (lambda v: UtilityType([0.0], weight=v).weight, POSITIVE),
    "pi": (lambda v: PointMassBelief(pi=v).pi, UNIT),
    "lo": (lambda v: UniformBelief(lo=v, hi=1.0).lo, UNIT),
    "hi": (lambda v: UniformBelief(lo=0.0, hi=v).hi, UNIT),
    "a": (lambda v: BetaBelief(a=v, b=1.0).a, POSITIVE),
    "b": (lambda v: BetaBelief(a=1.0, b=v).b, POSITIVE),
    "weights[0]": (
        lambda v: MixtureBelief((PointMassBelief(0.5),), weights=(v,)).weights[0],
        POSITIVE,
    ),
    "p_z_given_x": (lambda v: CovariateCell("z", v, 0.5).p_z_given_x, POSITIVE),
    "p_xz": (lambda v: CovariateCell("z", 1.0, v).p_xz, UNIT),
    "XCell.weight": (
        lambda v: XCell("x", v, _U, (CovariateCell("z", 1.0, 0.5),)).weight, POSITIVE
    ),
}
# A valid value other than 1, where 1 is not valid.
_VALID = {"lo": 0}


@pytest.mark.parametrize("field", NUMERIC_FIELDS)
def test_numeric_fields_store_python_numbers_and_refuse_the_rest(field):
    build, rule = NUMERIC_FIELDS[field]
    name = field.rpartition(".")[2]
    valid = _VALID.get(field, 1)
    for value in (valid, np.float32(valid), np.int64(valid)):
        stored = build(value)
        assert type(stored) is (int if rule == WHOLE else float) and stored == valid
    bad_values = ["1", b"1", True, np.bool_(True), float("nan"), float("inf"), None]
    if rule == WHOLE:
        bad_values.append(1.5)
    for bad in bad_values:
        with pytest.raises(ValueError) as info:
            build(bad)
        assert str(info.value) == f"{name} must be {rule}, got {bad!r}"


_POP2 = build_population(
    ActionSet(labels=("a", "b", "c")),
    [UtilityType([0.0, 1.0, 2.0], 1.0), UtilityType([2.0, 1.0, 0.0], 1.0)],
)
_MC2 = RandomUtilityMC(error=NormalIID(sigma=1.0), samples=100, seed=0)


# Integer and real arguments of functions, each with a call that passes a
# bad one and the message it raises.
ARGUMENT_CASES = {
    "index-fraction": (
        lambda: policy_welfare(_POP2, (0.9, 2), Logit(2.0)),
        "action index must be a whole number, got 0.9",
    ),
    "index-text": (
        lambda: policy_welfare(_POP2, (0, "2"), Logit(2.0)),
        "action index must be a whole number, got '2'",
    ),
    "index-bool": (
        lambda: choice_probabilities(U3, (0, True), RationalMax()),
        "action index must be a whole number, got True",
    ),
    "index-crossings": (
        lambda: find_crossings(_POP2, (0, 1.5), (2,), SweepConfig().grid()),
        "action index must be a whole number, got 1.5",
    ),
    "index-available": (
        lambda: ChoiceProbabilities(available=(np.float64(0.5),), probs=[1.0]),
        "action index must be a whole number, got np.float64(0.5)",
    ),
    "count-fraction": (
        lambda: sample_errors(NormalIID(sigma=1.0), 2.7, 2, seed=0),
        "count must be a whole number, got 2.7",
    ),
    "count-text": (
        lambda: sample_errors(NormalIID(sigma=1.0), "3", 2, seed=0),
        "count must be a whole number, got '3'",
    ),
    "n_actions-fraction": (
        lambda: sample_errors(NormalIID(sigma=1.0), 3, 2.5, seed=0),
        "n_actions must be a whole number, got 2.5",
    ),
    "count-zero": (
        lambda: sample_errors(NormalIID(sigma=1.0), 0, 2, seed=0),
        "count must be a whole number >= 1, got 0",
    ),
    "n_actions-zero": (
        lambda: sample_errors(NormalIID(sigma=1.0), 3, 0, seed=0),
        "n_actions must be a whole number >= 1, got 0",
    ),
    "seed-fraction": (
        lambda: sample_errors(NormalIID(sigma=1.0), 3, 2, seed=1.9),
        "seed must be a whole number, got 1.9",
    ),
    "stream-text": (
        lambda: choice_probabilities(U3, (0, 1), _MC2, stream="3"),
        "stream must be a whole number, got '3'",
    ),
    "stream-fraction": (
        lambda: choice_probabilities(U3, (0, 1), _MC2, stream=0.5),
        "stream must be a whole number, got 0.5",
    ),
    # Negative seeds wrap (see sample_errors); a negative stream is refused
    # whatever the model, before numpy's SeedSequence could refuse it unnamed.
    "stream-negative": (
        lambda: choice_probabilities(U3, (0, 1), _MC2, stream=-1),
        "stream must be a whole number >= 0, got -1",
    ),
    "stream-negative-analytic": (
        lambda: choice_probabilities(U3, (0, 1), RationalMax(), stream=-1),
        "stream must be a whole number >= 0, got -1",
    ),
    "eta-text": (
        lambda: policy_welfare(_POP2, None, RationalMax(), eta="0.5"),
        "eta must be a number in [0, 1], got '0.5'",
    ),
    "eta-bool": (
        lambda: policy_welfare(_POP2, None, RationalMax(), eta=True),
        "eta must be a number in [0, 1], got True",
    ),
    "binary-q": (
        lambda: binary_scaled_choice_prob([0.0, 1.0], np.zeros((4, 2)), "2"),
        "q must be a finite number > 0, got '2'",
    ),
}


@pytest.mark.parametrize("case", ARGUMENT_CASES)
def test_number_arguments_are_whole_or_real_as_their_rule_says(case):
    call, message = ARGUMENT_CASES[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# Each array field with a way to build its object from a pair of entries and
# read the stored array back, the rule its entries keep, and whether it must
# be a non-empty 1-d vector.
ARRAY_FIELDS = {
    "utilities": (lambda v: UtilityType(v, weight=1.0).utilities, FINITE, True),
    "store_locations": (
        lambda v: HotellingScenario(v, [0.0]).store_locations, FINITE, True
    ),
    "person_locations": (
        lambda v: HotellingScenario([0.0], v).person_locations, FINITE, True
    ),
    "person_weights": (
        lambda v: HotellingScenario([0.0], [0.0, 1.0], v).person_weights, POSITIVE, True
    ),
    "q_values": (lambda v: SweepGrid(v).q_values, NON_NEGATIVE, True),
    "outcome utilities": (
        lambda v: OutcomeUtilities([v, v]).values[0], FINITE, False
    ),
    "background probs": (lambda v: IndependentTable(v).probs, NON_NEGATIVE, True),
    "background": (lambda v: AlphaRational(0.5, v).background, NON_NEGATIVE, True),
    "probs": (lambda v: ChoiceProbabilities((0, 1), v).probs, NON_NEGATIVE, True),
    "samples": (lambda v: EmpiricalBelief(v).samples, UNIT, True),
}
# The outcome utilities are built from [v, v], whose first row holds v.
_ROW_OF_V = {"outcome utilities": "[0]"}
# The table's background probs are named probs in its messages, as are the
# choice probabilities.
_NAME_OF = {"background probs": "probs"}

# A finite number outside each bounded rule.
_OUTSIDE = {NON_NEGATIVE: -0.25, POSITIVE: 0.0, UNIT: 1.25}


@pytest.mark.parametrize("field", ARRAY_FIELDS)
def test_array_fields_store_finite_float64_and_refuse_the_rest(field):
    build, rule, vector = ARRAY_FIELDS[field]
    for valid in ([0.25, 0.75], np.array([0.25, 0.75], dtype=np.float32)):
        stored = build(valid)
        assert stored.dtype == np.float64 and not stored.flags.writeable
        assert np.array_equal(stored, [0.25, 0.75])
    # Each bad pair with the index of its first bad entry.
    bad_entries = [
        ([0.5, "0.5"], 1),
        ([True, False], 0),
        ([0.5, True], 1),
        ((0.5, np.bool_(False)), 1),
        ([0.5, None], 1),
        ([0.5, np.nan], 1),
        ([np.inf, 0.5], 0),
    ]
    if rule in _OUTSIDE:
        bad_entries.append(([_OUTSIDE[rule], 0.75], 0))
    name = _NAME_OF.get(field, field)
    row = name + _ROW_OF_V.get(field, "")
    for bad, i in bad_entries:
        with pytest.raises(ValueError) as info:
            build(bad)
        assert str(info.value) == f"{row}[{i}] must be {rule}, got {bad[i]!r}"
    for bad in ([], [[0.25, 0.75]]) if vector else ():
        with pytest.raises(ValueError) as info:
            build(bad)
        assert str(info.value) == f"{name} must be a non-empty 1-d vector"


def test_ragged_nesting_names_the_field():
    for build, message in (
        (
            lambda: UtilityType([[1.0], [1.0, 2.0]], 1.0),
            "utilities[1] must be a row of length 1, got [1.0, 2.0]",
        ),
        (
            lambda: EmpiricalBelief([0.5, [0.5]]),
            "samples[1] must be a number in [0, 1], got [0.5]",
        ),
    ):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


_OPPOSED = OutcomeUtilities([[1.0, 0.0], [0.0, 1.0]])


def _x_cell(weights):
    # p_xz varies across z, so the cell gives no constant-p_xz warning.
    n = len(weights)
    z_cells = [CovariateCell(f"z{i}", w, i / n) for i, w in enumerate(weights)]
    return XCell("x1", 1.0, _OPPOSED, z_cells)


def _population(weights):
    # One type object per distinct weight: 100,000 would take seconds.
    types = {w: UtilityType([0.0], w) for w in set(weights)}
    return Population(ActionSet(("a",)), [types[w] for w in weights])


def _treatment(weights):
    z_cells = (CovariateCell("z1", 1.0, 0.5),)
    x_cells = [XCell(f"x{i}", w, _OPPOSED, z_cells) for i, w in enumerate(weights)]
    return TreatmentScenario(x_cells)


# Each sum-to-one site: the name its message gives the weights, and a way to
# build its object from a sequence of weights.
UNIT_SUM_SITES = {
    "table": ("probs", IndependentTable),
    "alpha": ("background", lambda w: AlphaRational(0.5, w)),
    "population": ("type weights", _population),
    "hotelling": (
        "person_weights", lambda w: HotellingScenario([0.0], np.zeros(len(w)), w)
    ),
    "mixture": (
        "mixture weights", lambda w: MixtureBelief([PointMassBelief(0.5)] * len(w), w)
    ),
    "x cell": ("x cell 'x1': P(z|x)", _x_cell),
    "treatment": ("P(x) weights", _treatment),
}

_MANY = 100_000


@pytest.mark.parametrize("site", UNIT_SUM_SITES)
def test_weights_sum_to_one_whatever_their_count_and_order(site):
    name, build = UNIT_SUM_SITES[site]
    with pytest.raises(ValueError) as info:
        build([0.5, 0.25])
    assert str(info.value) == f"{name} must sum to 1 within 1e-12, got 0.75"
    # Left to right, 100,000 weights of 1e-5 sum to 1 - 1.9e-12, and so do
    # 0.5 then 99,999 equal weights, which in reverse order sum to 1 - 7.9e-13.
    skewed = [0.5] + [0.5 / (_MANY - 1)] * (_MANY - 1)
    for weights in ([1.0 / _MANY] * _MANY, skewed, skewed[::-1]):
        build(weights)


def test_choice_functions_refuse_non_finite_utilities():
    for call in (
        lambda u: choice_probabilities(u, (0, 1), RationalMax()),
        lambda u: binary_scaled_choice_prob(u, np.zeros((4, 2)), 1.0),
        lambda u: logit_sensitivities(u, (0, 1), 1.0),
    ):
        for bad, i in (([0.0, np.nan], 1), (["0", "1"], 0), ([False, True], 0), ([0.0, True], 1)):
            with pytest.raises(ValueError) as info:
                call(bad)
            assert str(info.value) == f"utilities[{i}] must be a finite number, got {bad[i]!r}"
    for bad, message in (
        ([[0.0, 1.0], [np.nan, 0.0]], "base_errors[1][0] must be a finite number, got nan"),
        ([["0.5", "1"], [0.0, 0.0]], "base_errors[0][0] must be a finite number, got '0.5'"),
        ([[0.0, True]], "base_errors[0][1] must be a finite number, got True"),
    ):
        with pytest.raises(ValueError) as info:
            binary_scaled_choice_prob([0.0, 1.0], bad, 1.0)
        assert str(info.value) == message


# --- Monte Carlo random-utility model ---


def test_mc_reproducible_and_seed_sensitive():
    model = RandomUtilityMC(error=NormalIID(sigma=1.0), samples=20_000, seed=5)
    a = choice_probabilities(U3, (0, 1, 2), model)
    b = choice_probabilities(U3, (0, 1, 2), model)
    assert a == b
    other = RandomUtilityMC(error=NormalIID(sigma=1.0), samples=20_000, seed=6)
    c = choice_probabilities(U3, (0, 1, 2), other)
    assert a != c


def test_mc_stream_changes_draws():
    model = RandomUtilityMC(error=NormalIID(sigma=1.0), samples=20_000, seed=5)
    a = choice_probabilities(U3, (0, 1, 2), model, stream=0)
    b = choice_probabilities(U3, (0, 1, 2), model, stream=1)
    assert a != b


# Draws per Monte Carlo estimate, and the standard errors it may stray.
_GUMBEL_SAMPLES = 20_000
_GUMBEL_Z = 6.0


@st.composite
def _gumbel_case(draw):
    """Utilities in [-1, 1] on k = 2..6 actions, a non-empty subset, q in
    [0.05, 3] and a seed. q times the utility range is at most 6, so every
    logit probability is at least exp(-6) / 6, about 4e-4, and each action
    expects at least 8 of the draws."""
    k = draw(st.integers(2, 6))
    utilities = np.array(
        draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k))
    )
    available = tuple(
        sorted(draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=k)))
    )
    q = draw(st.floats(0.05, 3.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return utilities, available, q, seed


@settings(max_examples=60, deadline=None)
@given(_gumbel_case())
@example((U3, (0, 1, 2), 2.0, 11))
def test_mc_gumbel_matches_analytic_logit(case):
    # Gumbel errors with scale 1/q reproduce the logit model. Each Monte
    # Carlo share is a binomial proportion of n draws, so it lies within z
    # standard errors sqrt(p (1 - p) / n) of the logit probability p. At
    # z = 6 an action fails by chance with probability 2e-9 at p = 1/2, and
    # 6e-7 (the binomial's upper tail) at the smallest p the strategy allows.
    utilities, available, q, seed = case
    model = RandomUtilityMC(
        error=GumbelIID(scale=1.0 / q), samples=_GUMBEL_SAMPLES, seed=seed
    )
    mc = choice_probabilities(utilities, available, model).probs
    p = choice_probabilities(utilities, available, Logit(q=q)).probs
    standard_error = np.sqrt(p * (1.0 - p) / _GUMBEL_SAMPLES)
    assert np.all(np.abs(mc - p) <= _GUMBEL_Z * standard_error)


def test_mc_probs_sum_to_one_exactly():
    model = RandomUtilityMC(error=UniformBoundedIID(delta=2.0), samples=9_999, seed=3)
    cp = choice_probabilities(U3, (0, 2), model)
    assert abs(float(cp.probs.sum()) - 1.0) < 1e-12


def test_mc_validation():
    with pytest.raises(ValueError):
        RandomUtilityMC(error=NormalIID(sigma=1.0), samples=0)
    with pytest.raises(ValueError):
        RandomUtilityMC(error="gumbel")  # type: ignore[arg-type]


# --- common random numbers across subsets ---

CRN_SPECS = (GumbelIID(scale=0.7), UniformBoundedIID(delta=1.5), NormalIID(sigma=1.0))


def _stream_errors(spec, samples, n_actions, seed, stream):
    # The stream's full-set draw, derived independently of the library: one
    # generator per (seed, stream), filled as a (samples x n_actions) matrix.
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    )
    shape = (samples, n_actions)
    if isinstance(spec, GumbelIID):
        uniforms = np.clip(rng.random(shape), np.finfo(np.float64).tiny, None)
        return spec.scale * -np.log(-np.log(uniforms))
    if isinstance(spec, UniformBoundedIID):
        return rng.uniform(-spec.delta, spec.delta, shape)
    return spec.sigma * rng.standard_normal(shape)


def _subsets(n):
    for size in range(1, n + 1):
        yield from itertools.combinations(range(n), size)


@pytest.mark.parametrize("spec", CRN_SPECS, ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("samples", [1, 500])
def test_mc_subsets_tally_the_columns_of_one_full_draw(spec, samples):
    u = np.array([0.3, -0.2, 0.9, 0.1])
    model = RandomUtilityMC(error=spec, samples=samples, seed=41)
    errors = _stream_errors(spec, samples, 4, seed=41, stream=3)
    for subset in _subsets(4):
        cols = list(subset)
        choices = np.argmax(u[cols] + errors[:, cols], axis=1)
        expected = np.bincount(choices, minlength=len(cols)) / samples
        cp = choice_probabilities(u, subset, model, stream=3)
        assert np.array_equal(cp.probs, expected), subset


@pytest.mark.parametrize("spec", CRN_SPECS, ids=lambda s: type(s).__name__)
def test_mc_removing_actions_never_lowers_a_kept_action_count(spec):
    u = np.array([0.0, 0.4, -0.3, 0.2, 0.1])
    mc = RandomUtilityMC(error=spec, samples=400, seed=8)
    for model in (mc, DefaultNudge(default_action=2, gamma=0.3, base=mc)):
        full = {
            s: choice_probabilities(u, s, model, stream=1).to_full(5)
            for s in _subsets(5)
        }
        for small, large in itertools.permutations(full, 2):
            if set(small) < set(large):
                kept = list(small)
                assert np.all(full[small][kept] >= full[large][kept]), (small, large)


def test_mc_action_no_draw_picks_changes_nothing_and_loses_ties():
    dud = 1  # an action whose utility is far below every error's reach
    rng = np.random.default_rng(12)
    utilities = rng.normal(size=(5, 4))
    utilities[:, dud] = -1e6
    model = RandomUtilityMC(error=NormalIID(sigma=1.0), samples=300, seed=2)
    for u in utilities:
        for subset in _subsets(4):
            if dud in subset:
                continue
            with_dud = tuple(sorted(subset + (dud,)))
            assert np.array_equal(
                choice_probabilities(u, with_dud, model, stream=4).to_full(4),
                choice_probabilities(u, subset, model, stream=4).to_full(4),
            )
    pop = build_population(
        ActionSet(labels=("a", "dud", "b", "c")),
        [UtilityType(utilities=u, weight=1.0) for u in utilities],
    )
    result = optimize_choice_set(pop, model)
    assert dud not in result.subset
    tied = tuple(sorted(result.subset + (dud,)))
    assert policy_welfare(pop, tied, model).welfare == result.welfare


def test_mc_single_action_and_single_sample():
    one = RandomUtilityMC(error=NormalIID(sigma=1.0), samples=1, seed=9)
    assert choice_probabilities(np.array([0.3]), (0,), one).probs.tolist() == [1.0]
    pop = build_population(
        ActionSet(labels=("only",)),
        [UtilityType(utilities=np.array([0.3]), weight=2.0)],
    )
    result = optimize_choice_set(pop, one)
    assert result.subset == (0,)
    assert result.welfare == 0.3
    u = np.array([0.0, 0.1, 0.2])
    errors = _stream_errors(one.error, 1, 3, seed=9, stream=0)[0]
    for subset in _subsets(3):
        cols = list(subset)
        expected = np.zeros(len(cols))
        expected[int(np.argmax(u[cols] + errors[cols]))] = 1.0
        assert np.array_equal(choice_probabilities(u, subset, one).probs, expected)


# --- default-option nudge ---


def test_nudge_raises_default_probability():
    base = Logit(q=2.0)
    nudged = DefaultNudge(default_action=0, gamma=0.5, base=base)
    plain = choice_probabilities(U3, (0, 1, 2), base)
    shifted = choice_probabilities(U3, (0, 1, 2), nudged)
    assert shifted.probs[0] > plain.probs[0]


def test_nudge_with_rational_base_flips_choice_only_past_gap():
    # Best non-default action leads action 0 by 1.0; gamma below the gap
    # leaves the choice alone, gamma above it flips to the default.
    u = np.array([0.0, 1.0])
    small = DefaultNudge(default_action=0, gamma=0.5, base=RationalMax())
    large = DefaultNudge(default_action=0, gamma=1.5, base=RationalMax())
    assert np.array_equal(choice_probabilities(u, (0, 1), small).probs, [0.0, 1.0])
    assert np.array_equal(choice_probabilities(u, (0, 1), large).probs, [1.0, 0.0])


def test_nudge_default_outside_available_is_noop():
    # With the default unavailable every option carries the same as-if cost,
    # a uniform shift that no maximizing model reacts to.
    rational = DefaultNudge(default_action=0, gamma=0.7, base=RationalMax())
    cp = choice_probabilities(U3, (1, 2), rational)
    assert np.array_equal(cp.probs, choice_probabilities(U3, (1, 2), RationalMax()).probs)
    logit = DefaultNudge(default_action=0, gamma=0.7, base=Logit(q=3.0))
    cp2 = choice_probabilities(U3, (1, 2), logit)
    assert np.allclose(
        cp2.probs, choice_probabilities(U3, (1, 2), Logit(q=3.0)).probs, atol=1e-12
    )


def test_nudge_table_base_unaffected():
    table = IndependentTable(probs=np.array([0.5, 0.3, 0.2]))
    nudged = DefaultNudge(default_action=2, gamma=5.0, base=table)
    assert choice_probabilities(U3, (0, 1, 2), nudged) == choice_probabilities(
        U3, (0, 1, 2), table
    )


def test_nudge_validation():
    with pytest.raises(ValueError):
        DefaultNudge(default_action=0, gamma=-0.1, base=RationalMax())
    with pytest.raises(ValueError, match="must not itself"):
        DefaultNudge(
            default_action=0,
            gamma=0.1,
            base=DefaultNudge(default_action=1, gamma=0.1, base=RationalMax()),
        )
    with pytest.raises(ValueError, match="^base must be a ChoiceModel$"):
        DefaultNudge(default_action=0, gamma=0.1, base=NormalIID(sigma=1.0))
    with pytest.raises(ValueError, match="^error must be an ErrorSpec instance$"):
        RandomUtilityMC(error=Logit(q=1.0))


@pytest.mark.parametrize("default_action", [2, -1])
@pytest.mark.parametrize(
    "base",
    [Logit(q=1.0), RandomUtilityMC(error=NormalIID(sigma=1.0), samples=10, seed=0)],
    ids=["logit", "mc"],
)
def test_nudge_default_out_of_range_is_rejected(default_action, base):
    # Out of range, the default used to be no action at all: gamma was
    # charged to every action and the choice was the un-nudged one.
    model = DefaultNudge(default_action=default_action, gamma=0.5, base=base)
    u = np.array([1.0, 0.0])
    message = re.escape(f"default_action must be in [0, 2), got {default_action}")
    with pytest.raises(ValueError, match=message):
        choice_probabilities(u, (0, 1), model)
    pop = build_population(
        ActionSet(labels=("a", "b")), [UtilityType(utilities=u, weight=1.0)]
    )
    with pytest.raises(ValueError, match=message):
        optimize_choice_set(pop, model)


# --- the block path ---


@st.composite
def block_problems(draw):
    # From 8 actions on, a row sum is no longer a plain left-to-right sum, so
    # its bits depend on how the block is laid out.
    k = draw(st.integers(1, 10))
    n_types = draw(st.integers(1, 4))
    # Coarse utilities tie often; the first maximum must win in every shape.
    utility = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-3.0, 3.0)
    row = st.lists(utility, min_size=k, max_size=k)
    utilities = np.array(draw(st.lists(row, min_size=n_types, max_size=n_types)))
    subsets = [
        subset
        for size in range(1, k + 1)
        for subset in itertools.combinations(range(k), size)
    ]
    chosen = draw(
        st.lists(st.sampled_from(subsets), min_size=1, max_size=40, unique=True)
    )
    groups = [
        np.array(list(group))
        for _, group in itertools.groupby(sorted(chosen, key=len), len)
    ]
    # Zero entries leave choice undefined on the subsets they cover.
    background = (
        st.lists(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.0),
                 min_size=k, max_size=k)
        .filter(lambda mass: sum(mass) > 0.0)
        .map(lambda mass: np.array(mass) / sum(mass))
    )
    error = st.sampled_from(
        [GumbelIID(scale=0.5), UniformBoundedIID(delta=0.5), NormalIID(sigma=0.5)]
    )
    mc = st.builds(
        RandomUtilityMC, error=error, samples=st.integers(1, 100),
        seed=st.integers(0, 2**32 - 1),
    )
    logit = st.builds(Logit, q=st.sampled_from([0.0, 1e6]) | st.floats(0.0, 50.0))
    base = st.one_of(
        st.just(RationalMax()),
        st.builds(IndependentTable, probs=background),
        st.builds(AlphaRational, alpha=st.floats(0.0, 1.0), background=background),
        logit,
        mc,
    )
    model = draw(base)
    if isinstance(model, (Logit, RandomUtilityMC)) and draw(st.booleans()):
        model = DefaultNudge(
            default_action=draw(st.integers(0, k - 1)),
            gamma=draw(st.floats(0.0, 1.0)),
            base=model,
        )
    first = draw(st.integers(0, 50))
    return utilities, groups, model, range(first, first + n_types)


@settings(max_examples=300, deadline=None)
@given(block_problems())
def test_block_rows_are_bitwise_the_one_row_probabilities(problem):
    utilities, groups, model, streams = problem
    blocks = block_choice_probabilities(utilities, groups, model, streams)
    assert len(blocks) == len(groups)
    for cols, probs in zip(groups, blocks):
        assert probs.shape == (len(streams),) + cols.shape
        for b, stream in enumerate(streams):
            for g, subset in enumerate(cols):
                try:
                    expected = choice_probabilities(
                        utilities[b], subset, model, stream=stream
                    ).probs
                except ValueError as exc:
                    assert "zero probability mass" in str(exc)
                    assert np.isnan(probs[b, g]).all()
                else:
                    assert np.array_equal(probs[b, g], expected)


@pytest.mark.parametrize(
    "model",
    [
        Logit(q=1.5),
        DefaultNudge(default_action=3, gamma=0.4, base=Logit(q=1.5)),
        AlphaRational(alpha=0.3, background=np.arange(1.0, 11.0) / 55.0),
        RandomUtilityMC(error=GumbelIID(scale=0.5), samples=50, seed=9),
    ],
    ids=["logit", "nudge-logit", "alpha", "mc"],
)
def test_block_rows_of_eight_or_more_actions_are_the_one_row_probabilities(model):
    # Rows of 8 or more are summed pairwise: a block laid out with the types
    # innermost (as a plain utilities[:, cols] gather is) would sum them in
    # another order and change the last bits.
    utilities = np.random.default_rng(10).normal(size=(5, 10))
    groups = [
        np.array(list(itertools.combinations(range(10), size))) for size in (8, 9, 10)
    ]
    blocks = block_choice_probabilities(utilities, groups, model, range(5))
    for cols, probs in zip(groups, blocks):
        for b in range(5):
            for g, subset in enumerate(cols):
                expected = choice_probabilities(utilities[b], subset, model, stream=b)
                assert np.array_equal(probs[b, g], expected.probs)


# --- common-random-number binary scaling ---


def test_binary_scaled_prob_monotone_in_q():
    rng = np.random.default_rng(8)
    q_grid = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
    specs = [GumbelIID(scale=1.0), NormalIID(sigma=1.0), UniformBoundedIID(delta=2.0)]
    for trial in range(10):
        u = rng.normal(size=2)
        spec = specs[trial % len(specs)]
        errors = sample_errors(spec, 10_000, 2, seed=trial)
        probs = [binary_scaled_choice_prob(u, errors, q) for q in q_grid]
        assert all(b >= a for a, b in zip(probs, probs[1:]))


def test_binary_scaled_prob_matches_direct_argmax():
    rng = np.random.default_rng(9)
    for trial in range(5):
        u = rng.normal(size=2)
        errors = sample_errors(NormalIID(sigma=1.0), 10_000, 2, seed=100 + trial)
        q = float(rng.uniform(0.2, 5.0))
        p = binary_scaled_choice_prob(u, errors, q)
        better = 0 if u[0] >= u[1] else 1
        scores = u[np.newaxis, :] + errors / q
        direct = np.mean(np.argmax(scores, axis=1) == better)
        assert abs(p - direct) <= 5.0 / errors.shape[0]


def test_binary_scaled_prob_tie_prefers_lower_index():
    u = np.array([1.0, 1.0])
    errors = np.zeros((4, 2))
    # Equal utilities and equal scores: index 0 wins every draw.
    assert binary_scaled_choice_prob(u, errors, 1.0) == 1.0
    # Index 1 is better, and the mismeasured scores 0 + 1 and 1 + 0 tie
    # exactly on every draw: index 0 still wins, so the better action never is.
    assert binary_scaled_choice_prob([0.0, 1.0], [[1.0, 0.0]] * 4, 1.0) == 0.0


def test_binary_scaled_prob_validation():
    errors = np.zeros((4, 2))
    with pytest.raises(ValueError):
        binary_scaled_choice_prob(np.array([1.0, 2.0, 3.0]), errors, 1.0)
    with pytest.raises(ValueError):
        binary_scaled_choice_prob(np.array([1.0, 2.0]), errors, 0.0)
    with pytest.raises(ValueError):
        binary_scaled_choice_prob(np.array([1.0, 2.0]), np.zeros((4, 3)), 1.0)
