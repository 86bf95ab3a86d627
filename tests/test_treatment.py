"""Binary-treatment policy analysis: beliefs, mandates, VOI, guideline use."""

import hashlib
import json
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from choicewelfare import (
    GUIDELINE_RISK_THRESHOLD,
    TREATMENT_A,
    TREATMENT_B,
    BetaBelief,
    CovariateCell,
    EmpiricalBelief,
    MixtureBelief,
    OutcomeUtilities,
    PointMassBelief,
    TreatmentScenario,
    UniformBelief,
    XCell,
    aggregate_outcome_prob,
    belief_choice_prob,
    belief_q_map,
    bounded_rational_welfare_x,
    build_report,
    compare_policies_x,
    expected_outcome_utility,
    optimal_decentralized_x,
    optimal_mandate_x,
    subjective_choice,
    threshold_probability,
    value_of_information,
)
from choicewelfare import treatment
from choicewelfare.cli import main
from choicewelfare.treatment import BETA_PARAM_MAX, _beta_cdf
from conftest import make_reference_cell

SRC = Path(__file__).resolve().parents[1] / "src"


def _random_opposed_utilities(rng) -> OutcomeUtilities:
    # u(0,A) > u(0,B) and u(1,B) > u(1,A): each treatment wins one outcome.
    u0_b = float(rng.uniform(0.0, 1.0))
    u0_a = u0_b + float(rng.uniform(0.05, 1.0))
    u1_a = float(rng.uniform(0.0, 1.0))
    u1_b = u1_a + float(rng.uniform(0.05, 1.0))
    return OutcomeUtilities.from_components(u0_a=u0_a, u1_a=u1_a, u0_b=u0_b, u1_b=u1_b)


def _random_cell(rng, with_beliefs=False) -> XCell:
    n_z = int(rng.integers(1, 4))
    shares = rng.dirichlet(np.ones(n_z))
    z_cells = tuple(
        CovariateCell(
            z_label=f"z{j}",
            p_z_given_x=float(shares[j]),
            p_xz=float(rng.uniform(0.0, 1.0)),
            belief=PointMassBelief(pi=float(rng.uniform(0.0, 1.0)))
            if with_beliefs
            else None,
        )
        for j in range(n_z)
    )
    return XCell(
        x_label="x",
        weight=1.0,
        utilities=_random_opposed_utilities(rng),
        z_cells=z_cells,
    )


# --- outcome utilities ---


def test_from_components_layout():
    u = OutcomeUtilities.from_components(u0_a=1.0, u1_a=0.0, u0_b=0.5, u1_b=1.0)
    assert u.u(0, TREATMENT_A) == 1.0
    assert u.u(1, TREATMENT_A) == 0.0
    assert u.u(0, TREATMENT_B) == 0.5
    assert u.u(1, TREATMENT_B) == 1.0
    assert u.values.shape == (2, 2)
    assert u.treatments_opposed


def test_outcome_utilities_validation():
    with pytest.raises(ValueError):
        OutcomeUtilities(values=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        OutcomeUtilities(values=np.array([[0.0, np.nan], [0.0, 0.0]]))
    u = OutcomeUtilities.from_components(u0_a=1.0, u1_a=2.0, u0_b=0.5, u1_b=1.0)
    assert not u.treatments_opposed
    with pytest.raises(ValueError):
        u.u(2, TREATMENT_A)
    with pytest.raises(ValueError):
        u.u(0, "C")


def test_expected_outcome_utility_linear_in_p():
    u = OutcomeUtilities.from_components(u0_a=1.0, u1_a=0.0, u0_b=0.5, u1_b=1.0)
    assert expected_outcome_utility(0.0, u, TREATMENT_A) == 1.0
    assert expected_outcome_utility(1.0, u, TREATMENT_A) == 0.0
    assert abs(expected_outcome_utility(0.1, u, TREATMENT_B) - 0.55) < 1e-15
    with pytest.raises(ValueError):
        expected_outcome_utility(1.5, u, TREATMENT_A)


# --- belief models ---


def test_point_mass_cdf_atoms():
    belief = PointMassBelief(pi=0.4)
    assert belief.prob_le(0.4) == 1.0
    assert belief.prob_lt(0.4) == 0.0
    assert belief.prob_le(0.39) == 0.0
    assert belief.prob_lt(0.41) == 1.0
    with pytest.raises(ValueError):
        PointMassBelief(pi=1.2)


def test_uniform_belief_cdf():
    belief = UniformBelief(lo=0.2, hi=0.6)
    assert belief.prob_le(0.1) == 0.0
    assert belief.prob_le(0.7) == 1.0
    assert abs(belief.prob_le(0.4) - 0.5) < 1e-15
    assert belief.prob_lt(0.4) == belief.prob_le(0.4)
    with pytest.raises(ValueError):
        UniformBelief(lo=0.5, hi=0.5)
    with pytest.raises(ValueError):
        UniformBelief(lo=-0.1, hi=0.5)


def test_beta_belief_closed_forms():
    # Beta(2,1) cdf is t^2; Beta(1,3) cdf is 1-(1-t)^3; Beta(2,2) symmetric.
    assert abs(BetaBelief(a=2.0, b=1.0).prob_le(0.3) - 0.09) < 1e-12
    assert abs(BetaBelief(a=1.0, b=3.0).prob_le(0.4) - 0.784) < 1e-12
    assert abs(BetaBelief(a=2.0, b=2.0).prob_le(0.5) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        BetaBelief(a=0.0, b=1.0)


@st.composite
def _beta_args(draw, max_param: float):
    """(a, b, x): a and b log-uniform on [0.05, max_param]; half the x values
    lie within four standard deviations of the mean a / (a + b), where the
    prefactor's logs cancel most."""
    log_param = st.floats(math.log(0.05), math.log(max_param))
    a, b = math.exp(draw(log_param)), math.exp(draw(log_param))
    if draw(st.booleans()):
        sd = math.sqrt(a * b / (a + b + 1.0)) / (a + b)
        x = a / (a + b) + sd * draw(st.floats(-4.0, 4.0))
        return a, b, min(max(x, 0.0), 1.0)
    return a, b, draw(st.floats(0.0, 1.0))


@pytest.mark.parametrize("max_param, tol", [(50.0, 1e-13), (1e4, 1e-12)])
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_beta_cdf_matches_scipy(max_param, tol, data):
    a, b, x = data.draw(_beta_args(max_param))
    assert abs(_beta_cdf(a, b, x) - float(betainc(a, b, x))) <= tol


def test_beta_cdf_is_exact_at_and_beyond_the_ends():
    for a, b in ((0.05, 0.05), (2.0, 5.0), (1e4, 3.0), (1e300, 1e300)):
        for x in (-math.inf, -0.5, 0.0):
            assert _beta_cdf(a, b, x) == 0.0
        for x in (1.0, 1.5, math.inf):
            assert _beta_cdf(a, b, x) == 1.0
    belief = BetaBelief(a=2.0, b=5.0)
    assert belief.prob_le(-math.inf) == 0.0 and belief.prob_lt(math.inf) == 1.0


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_beta_cdf_is_monotone_in_x(data):
    a, b, _ = data.draw(_beta_args(1e4))
    # Rounding makes any floating-point CDF wobble by an ulp or so between
    # neighbouring floats near the mean; the grids are coarser than that.
    sd = math.sqrt(a * b / (a + b + 1.0)) / (a + b)
    xs = np.sort(
        np.concatenate(
            [
                np.linspace(0.0, 1.0, 1001),
                np.clip(a / (a + b) + sd * np.linspace(-6.0, 6.0, 241), 0.0, 1.0),
            ]
        )
    )
    values = np.array([_beta_cdf(a, b, float(x)) for x in xs])
    assert values[0] == 0.0 and values[-1] == 1.0
    assert np.all(np.diff(values) >= 0.0)


@settings(max_examples=300, deadline=None)
@given(args=_beta_args(50.0))
@example(args=(37.5, 37.5, 0.5))
@example(args=(0.05, 50.0, 0.02))
def test_beta_cdf_mirror_identity(args):
    a, b, x = args
    # Snap x so that x and 1 - x are exact complements of each other. Then
    # one side runs the fraction and the other its mirror image, and the
    # identity holds to rounding, except at the mirror point itself
    # (a = b, x = 1/2), where both sides take the same branch and the sum
    # is off by twice the fraction's error: 1.02e-14 at a = b = 500.39,
    # hence the range [0.05, 50].
    x = 1.0 - (1.0 - x)
    assert abs(_beta_cdf(a, b, x) + _beta_cdf(b, a, 1.0 - x) - 1.0) <= 1e-14


def test_beta_cdf_raises_instead_of_returning_a_silent_value(monkeypatch):
    with pytest.raises(ArithmeticError, match=r"a=1e\+300, b=1e\+300, x=0\.5"):
        _beta_cdf(1e300, 1e300, 0.5)
    with pytest.raises(ArithmeticError, match="outside"):
        BetaBelief(a=2.0, b=BETA_PARAM_MAX * 1.5).prob_le(1e-10)
    with pytest.raises(ArithmeticError, match="x=nan"):
        _beta_cdf(2.0, 3.0, math.nan)
    # At the bound it still answers: I_{1/2}(a, a) = 1/2 by symmetry.
    assert abs(_beta_cdf(BETA_PARAM_MAX, BETA_PARAM_MAX, 0.5) - 0.5) < 1e-10
    # A fraction that runs out of iterations names the original a, b and x,
    # also when it was evaluated on the mirror image.
    monkeypatch.setattr(treatment, "_beta_max_iter", lambda a, b: 1)
    with pytest.raises(
        ArithmeticError, match=r"a=2\.0, b=3\.0, x=0\.9: .* within 1 iterations"
    ):
        _beta_cdf(2.0, 3.0, 0.9)


def test_mixture_belief_is_weighted_sum():
    mixture = MixtureBelief(
        components=(UniformBelief(lo=0.0, hi=1.0), PointMassBelief(pi=0.9)),
        weights=(0.75, 0.25),
    )
    assert abs(mixture.prob_le(0.5) - 0.75 * 0.5) < 1e-15
    assert abs(mixture.prob_le(0.9) - (0.675 + 0.25)) < 1e-15
    assert abs(mixture.prob_lt(0.9) - 0.675) < 1e-15


def test_mixture_cdf_stays_a_probability_when_weights_round_above_one():
    weights = (0.7075074456958989, 0.2924925543041013)
    assert sum(weights) > 1.0  # by one ulp, within PROB_SUM_TOL
    mixture = MixtureBelief(
        components=(PointMassBelief(pi=0.0), UniformBelief(lo=0.0, hi=0.5)),
        weights=weights,
    )
    assert mixture.prob_le(0.5) == 1.0 and mixture.prob_lt(1.0) == 1.0
    # B is optimal at p_xz = 0, and A is chosen only at pi >= 1: q was
    # 1 + 2.2e-16, which bounded_rational_welfare_x rejected.
    u = OutcomeUtilities.from_components(u0_a=0.0, u1_a=0.0, u0_b=1.0, u1_b=0.0)
    cell = XCell(
        x_label="x",
        weight=1.0,
        utilities=u,
        z_cells=(
            CovariateCell(z_label="z", p_z_given_x=1.0, p_xz=0.0, belief=mixture),
        ),
    )
    assert belief_q_map(cell) == {"z": 1.0}
    assert build_report(TreatmentScenario(x_cells=(cell,))).aggregate_welfare == 1.0


def test_mixture_belief_validation():
    with pytest.raises(ValueError):
        MixtureBelief(components=(PointMassBelief(pi=0.5),), weights=(0.9,))
    inner = MixtureBelief(
        components=(PointMassBelief(pi=0.5), PointMassBelief(pi=0.6)),
        weights=(0.5, 0.5),
    )
    with pytest.raises(ValueError):
        MixtureBelief(components=(inner, PointMassBelief(pi=0.1)), weights=(0.5, 0.5))
    for weights in ((float("nan"),), (float("nan"), 1.0)):
        with pytest.raises(ValueError, match="mixture weights must be positive"):
            MixtureBelief(
                components=(PointMassBelief(pi=0.5),) * len(weights), weights=weights
            )


def test_empirical_belief_counts_exactly():
    belief = EmpiricalBelief(samples=np.array([0.1, 0.3, 0.3, 0.8]))
    assert belief.prob_le(0.3) == 0.75
    assert belief.prob_lt(0.3) == 0.25
    assert belief.prob_le(0.05) == 0.0
    assert belief.prob_le(0.9) == 1.0
    with pytest.raises(ValueError):
        EmpiricalBelief(samples=np.array([0.1, 1.4]))
    with pytest.raises(ValueError):
        EmpiricalBelief(samples=np.array([]))
    for bad in ([0.2, np.nan], [np.nan]):
        with pytest.raises(ValueError, match=r"samples must lie in \[0, 1\]"):
            EmpiricalBelief(samples=bad)


def _draw(belief, rng, n: int) -> np.ndarray:
    """n subjective probabilities drawn from `belief` with numpy alone."""
    if isinstance(belief, PointMassBelief):
        return np.full(n, belief.pi)
    if isinstance(belief, UniformBelief):
        return rng.uniform(belief.lo, belief.hi, n)
    if isinstance(belief, BetaBelief):
        return rng.beta(belief.a, belief.b, n)
    if isinstance(belief, EmpiricalBelief):
        return rng.choice(belief.samples, size=n, replace=True)
    picks = rng.choice(len(belief.components), size=n, p=np.array(belief.weights))
    out = np.empty(n)
    for idx, comp in enumerate(belief.components):
        mask = picks == idx
        out[mask] = _draw(comp, rng, int(mask.sum()))
    return out


def test_belief_sampling_tracks_cdf():
    rng = np.random.default_rng(41)
    for belief in (
        UniformBelief(lo=0.2, hi=0.8),
        BetaBelief(a=2.0, b=5.0),
        MixtureBelief(
            components=(PointMassBelief(pi=0.3), UniformBelief(lo=0.5, hi=1.0)),
            weights=(0.4, 0.6),
        ),
    ):
        draws = _draw(belief, rng, 200_000)
        assert draws.min() >= 0.0 and draws.max() <= 1.0
        for t in (0.3, 0.55, 0.7):
            p = belief.prob_le(t)
            se = np.sqrt(max(p * (1 - p), 1e-9) / 200_000)
            assert abs(np.mean(draws <= t) - p) < 5 * se + 1e-3


# --- scenario containers ---


def test_cell_validation():
    u = OutcomeUtilities.from_components(u0_a=1.0, u1_a=0.0, u0_b=0.5, u1_b=1.0)
    with pytest.raises(ValueError):
        CovariateCell(z_label="z1", p_z_given_x=0.0, p_xz=0.5)
    with pytest.raises(ValueError):
        CovariateCell(z_label="z1", p_z_given_x=0.5, p_xz=1.5)
    with pytest.raises(ValueError):
        XCell(
            x_label="x",
            weight=1.0,
            utilities=u,
            z_cells=(
                CovariateCell(z_label="z1", p_z_given_x=0.5, p_xz=0.1),
                CovariateCell(z_label="z1", p_z_given_x=0.5, p_xz=0.2),
            ),
        )
    with pytest.raises(ValueError):
        XCell(
            x_label="x",
            weight=1.0,
            utilities=u,
            z_cells=(CovariateCell(z_label="z1", p_z_given_x=0.7, p_xz=0.1),),
        )


def test_uninformative_signal_warns():
    u = OutcomeUtilities.from_components(u0_a=1.0, u1_a=0.0, u0_b=0.5, u1_b=1.0)
    with pytest.warns(UserWarning) as record:
        XCell(
            x_label="x",
            weight=1.0,
            utilities=u,
            z_cells=(
                CovariateCell(z_label="z1", p_z_given_x=0.5, p_xz=0.3),
                CovariateCell(z_label="z2", p_z_given_x=0.5, p_xz=0.3),
            ),
        )
    # Reported where the cell was built, not in the dataclass's __init__.
    assert [w.filename for w in record] == [__file__]


def test_scenario_weights_must_sum_to_one(reference_cell):
    with pytest.raises(ValueError):
        TreatmentScenario(x_cells=(reference_cell,) * 2)


@pytest.mark.filterwarnings("ignore:.*private information is worthless:UserWarning")
def test_aggregate_outcome_prob_stays_a_probability():
    # These shares pass the P(z|x) sum check, but their sum with every
    # p_xz = 1 rounds to 1.0000000000000002.
    shares = (0.5620508766294069, 0.2215529554843712, 0.21639616788622199)
    assert sum(shares) > 1.0
    cell = XCell(
        x_label="x",
        weight=1.0,
        utilities=OutcomeUtilities.from_components(-1.0, -1.0, -1.0, -1.0),
        z_cells=tuple(
            CovariateCell(z_label=f"z{j}", p_z_given_x=share, p_xz=1.0)
            for j, share in enumerate(shares)
        ),
    )
    assert aggregate_outcome_prob(cell) == 1.0
    mandate = optimal_mandate_x(cell)
    assert (mandate.treatment, mandate.welfare) == (TREATMENT_A, -1.0)


# --- reference cell: frozen values ---


def test_reference_cell_policies(reference_cell):
    assert abs(aggregate_outcome_prob(reference_cell) - 0.26) < 1e-15

    mandate = optimal_mandate_x(reference_cell)
    assert mandate.treatment == TREATMENT_A
    assert abs(mandate.welfare - 0.74) < 1e-15

    decentralized = optimal_decentralized_x(reference_cell)
    assert decentralized.welfare == 0.8400000000000001
    assert decentralized.z_a == ("z1",)
    assert decentralized.z_b == ("z2",)

    info = value_of_information(reference_cell)
    assert info.voi == 0.1
    assert info.p_better == 0.4
    assert abs(info.mean_gain - 0.25) < 1e-15
    assert abs(info.voi - (decentralized.welfare - mandate.welfare)) < 1e-12

    assert threshold_probability(reference_cell.utilities) == 1.0 / 3.0


def test_voi_identity_on_random_cells():
    rng = np.random.default_rng(42)
    for _ in range(50):
        cell = _random_cell(rng)
        info = value_of_information(cell)
        gap = (
            optimal_decentralized_x(cell).welfare - optimal_mandate_x(cell).welfare
        )
        assert abs(info.voi - gap) < 1e-12
        assert info.voi >= -1e-12


def test_voi_zero_when_no_signal_flips_choice():
    u = OutcomeUtilities.from_components(u0_a=1.0, u1_a=0.0, u0_b=0.5, u1_b=1.0)
    cell = XCell(
        x_label="x",
        weight=1.0,
        utilities=u,
        z_cells=(
            CovariateCell(z_label="z1", p_z_given_x=0.6, p_xz=0.1),
            CovariateCell(z_label="z2", p_z_given_x=0.4, p_xz=0.2),
        ),
    )
    info = value_of_information(cell)
    assert info.voi == 0.0
    assert info.p_better == 0.0
    assert info.mean_gain == 0.0
    assert optimal_decentralized_x(cell).z_b == ()


def test_mandate_tie_prefers_a():
    u = OutcomeUtilities.from_components(u0_a=1.0, u1_a=0.0, u0_b=0.0, u1_b=1.0)
    cell = XCell(
        x_label="x",
        weight=1.0,
        utilities=u,
        z_cells=(CovariateCell(z_label="z1", p_z_given_x=1.0, p_xz=0.5),),
    )
    assert optimal_mandate_x(cell).treatment == TREATMENT_A


def test_mandate_b_swaps_decentralized_roles():
    # Make B optimal on aggregate; the strict-improvement set is then the
    # cells where A is strictly better.
    u = OutcomeUtilities.from_components(u0_a=1.0, u1_a=0.0, u0_b=0.5, u1_b=1.0)
    cell = XCell(
        x_label="x",
        weight=1.0,
        utilities=u,
        z_cells=(
            CovariateCell(z_label="z1", p_z_given_x=0.5, p_xz=0.1),
            CovariateCell(z_label="z2", p_z_given_x=0.5, p_xz=0.9),
        ),
    )
    assert optimal_mandate_x(cell).treatment == TREATMENT_B
    decentralized = optimal_decentralized_x(cell)
    assert decentralized.z_a == ("z1",)
    info = value_of_information(cell)
    assert abs(
        info.voi - (decentralized.welfare - optimal_mandate_x(cell).welfare)
    ) < 1e-12


# --- threshold and subjective choice ---


def test_threshold_requires_opposed_treatments():
    u = OutcomeUtilities.from_components(u0_a=1.0, u1_a=2.0, u0_b=0.5, u1_b=1.0)
    with pytest.raises(ValueError, match="threshold undefined"):
        threshold_probability(u)


def test_threshold_matches_guideline_calibration():
    u = OutcomeUtilities.from_components(u0_a=0.017, u1_a=0.0, u0_b=0.0, u1_b=0.983)
    assert threshold_probability(u) == 0.017
    assert threshold_probability(u) == GUIDELINE_RISK_THRESHOLD


def test_subjective_choice_threshold_rule():
    rng = np.random.default_rng(43)
    for _ in range(20):
        u = _random_opposed_utilities(rng)
        p_star = threshold_probability(u)
        for pi in np.linspace(0.0, 1.0, 21):
            expected = TREATMENT_A if pi <= p_star else TREATMENT_B
            assert subjective_choice(float(pi), u) == expected


def test_subjective_choice_tie_prefers_a():
    u = OutcomeUtilities.from_components(u0_a=1.0, u1_a=0.0, u0_b=0.5, u1_b=1.0)
    assert subjective_choice(1.0 / 3.0, u) == TREATMENT_A


# --- belief-driven choice probabilities ---


def test_rational_point_beliefs_give_certainty(reference_cell):
    for z_cell in reference_cell.z_cells:
        assert belief_choice_prob(z_cell, reference_cell.utilities) == 1.0


def test_uniform_belief_choice_prob_closed_form(reference_cell):
    # p* = 1/3 and B is objectively optimal at p_xz = 0.5, so the chance of
    # choosing B under a uniform belief is P(pi > 1/3) = 1 - 1/3. In floats
    # that is 0.6666666666666667, one ulp above the double nearest to 2/3.
    cell = CovariateCell(
        z_label="z",
        p_z_given_x=1.0,
        p_xz=0.5,
        belief=UniformBelief(lo=0.0, hi=1.0),
    )
    q = belief_choice_prob(cell, reference_cell.utilities)
    assert q == 1.0 - 1.0 / 3.0
    assert abs(q - 2.0 / 3.0) <= 1e-15


def test_belief_atom_at_threshold_counts_for_a(reference_cell):
    u = reference_cell.utilities
    p_star = threshold_probability(u)
    at_threshold = PointMassBelief(pi=p_star)
    # A-optimal cell: the atom agrees with A, so q = 1.
    cell_a = CovariateCell(z_label="z", p_z_given_x=1.0, p_xz=0.1, belief=at_threshold)
    assert belief_choice_prob(cell_a, u) == 1.0
    # B-optimal cell: the atom still picks A, so q = 0.
    cell_b = CovariateCell(z_label="z", p_z_given_x=1.0, p_xz=0.9, belief=at_threshold)
    assert belief_choice_prob(cell_b, u) == 0.0


def test_objective_indifference_counts_as_optimal():
    u = OutcomeUtilities.from_components(u0_a=1.0, u1_a=0.0, u0_b=0.0, u1_b=1.0)
    cell = CovariateCell(
        z_label="z",
        p_z_given_x=1.0,
        p_xz=0.5,
        belief=UniformBelief(lo=0.0, hi=1.0),
    )
    assert belief_choice_prob(cell, u) == 1.0


def test_flat_objective_gap_counts_as_optimal():
    u = OutcomeUtilities.from_components(u0_a=1.0, u1_a=0.6, u0_b=0.4, u1_b=0.0)
    # A dominates at every p, so any belief picks the optimum.
    cell = CovariateCell(
        z_label="z",
        p_z_given_x=1.0,
        p_xz=0.3,
        belief=UniformBelief(lo=0.0, hi=1.0),
    )
    assert belief_choice_prob(cell, u) == 1.0


def test_rounded_objective_tie_counts_as_optimal():
    # The exact gap at p_xz = 6.5e-97 favours B by 6.5e-97, but both expected
    # utilities round to -1: optimal_decentralized_x puts the cell in z_a, a
    # tie, so every choice is optimal and q must be 1, not the 0 the exact
    # gap gave the point mass at pi = 0 (which picks A).
    u = OutcomeUtilities.from_components(u0_a=-1.0, u1_a=-1.0, u0_b=-1.0, u1_b=0.0)
    z_cell = CovariateCell(
        z_label="z", p_z_given_x=1.0, p_xz=6.5e-97, belief=PointMassBelief(pi=0.0)
    )
    cell = XCell(x_label="x", weight=1.0, utilities=u, z_cells=(z_cell,))
    assert optimal_decentralized_x(cell).z_a == ("z",)
    assert belief_choice_prob(z_cell, u) == 1.0
    (x_report,) = build_report(TreatmentScenario(x_cells=(cell,))).per_x
    assert x_report.q_by_z == (("z", 1.0),)


def test_belief_position_not_distance_drives_choice(reference_cell):
    u = reference_cell.utilities  # p* = 1/3, B optimal at p_xz = 0.9
    for pi in (0.35, 0.9):
        cell = CovariateCell(
            z_label="z", p_z_given_x=1.0, p_xz=0.9, belief=PointMassBelief(pi=pi)
        )
        assert belief_choice_prob(cell, u) == 1.0
    cell = CovariateCell(
        z_label="z", p_z_given_x=1.0, p_xz=0.9, belief=PointMassBelief(pi=0.3)
    )
    assert belief_choice_prob(cell, u) == 0.0


def test_belief_choice_prob_requires_belief(reference_cell):
    cell = CovariateCell(z_label="naked", p_z_given_x=1.0, p_xz=0.5)
    with pytest.raises(ValueError, match="no belief"):
        belief_choice_prob(cell, reference_cell.utilities)


def test_belief_choice_prob_mc_consistency(reference_cell):
    # Simulate: draw pi from the belief, apply the subjective rule, compare
    # the optimal-pick rate against the analytic probability.
    rng = np.random.default_rng(44)
    u = reference_cell.utilities
    belief = BetaBelief(a=2.0, b=3.0)
    for p_xz in (0.1, 0.5):
        cell = CovariateCell(z_label="z", p_z_given_x=1.0, p_xz=p_xz, belief=belief)
        q = belief_choice_prob(cell, u)
        draws = rng.beta(belief.a, belief.b, 1_000_000)
        picks_a = draws <= threshold_probability(u)
        optimal_is_a = (
            expected_outcome_utility(p_xz, u, TREATMENT_A)
            >= expected_outcome_utility(p_xz, u, TREATMENT_B)
        )
        q_hat = np.mean(picks_a == optimal_is_a)
        se = np.sqrt(max(q * (1 - q), 1e-9) / 1_000_000)
        assert abs(q_hat - q) < 3 * se + 1e-4


_unit = st.floats(0.0, 1.0)
_point_mass = _unit.map(lambda pi: PointMassBelief(pi=pi))
_uniform = st.tuples(_unit, _unit).filter(lambda t: t[0] != t[1]).map(
    lambda t: UniformBelief(lo=min(t), hi=max(t))
)
_beta = st.tuples(st.floats(0.05, 20.0), st.floats(0.05, 20.0)).map(
    lambda t: BetaBelief(a=t[0], b=t[1])
)
_empirical = st.lists(_unit, min_size=1, max_size=30).map(
    lambda v: EmpiricalBelief(samples=np.array(v))
)


@st.composite
def _mixture(draw):
    components = draw(
        st.lists(st.one_of(_point_mass, _uniform, _beta), min_size=1, max_size=4)
    )
    n = len(components)
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
    return MixtureBelief(
        components=tuple(components), weights=tuple(w / sum(raw) for w in raw)
    )


@settings(max_examples=150, deadline=None)
@given(
    belief=st.one_of(_point_mass, _uniform, _beta, _empirical, _mixture()),
    utilities=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    p_xz=_unit,
    seed=st.integers(0, 2**32 - 1),
)
# Half of this sample sits within 1e-16 of the indifference point p = 0, where
# the two rounded expected utilities tie although B is better.
@example(
    belief=EmpiricalBelief(samples=np.array([1.0, 2.346185342789181e-195])),
    utilities=[1.0, 0.0, 1.0, 1.0],
    p_xz=1.0,
    seed=0,
)
@example(
    belief=PointMassBelief(pi=5e-324),
    utilities=[1.0, 0.0, 1.0, 1.0],
    p_xz=1.0,
    seed=0,
)
def test_belief_choice_prob_is_the_rate_of_optimal_subjective_choices(
    belief, utilities, p_xz, seed
):
    u = OutcomeUtilities.from_components(*utilities)

    def gap(p):  # EU_A(p) - EU_B(p), linear in p
        return expected_outcome_utility(p, u, TREATMENT_A) - expected_outcome_utility(
            p, u, TREATMENT_B
        )

    slope = gap(1.0) - gap(0.0)
    assume(abs(slope) >= 1e-3)
    root = -gap(0.0) / slope
    # The objective optimum compares two rounded expected utilities, so
    # within about 1e-16 / |slope| of the indifference point it may call a
    # tie where the exact gap is not zero. Keep p_xz off that band.
    assume(abs(p_xz - root) > 1e-9)
    optimal = TREATMENT_A if gap(p_xz) > 0.0 else TREATMENT_B
    cell = CovariateCell(z_label="z", p_z_given_x=1.0, p_xz=p_xz, belief=belief)
    q = belief_choice_prob(cell, u)
    if isinstance(belief, PointMassBelief):
        # Both rules read the same rounded indifference point, so the whole
        # cell makes the one subjective choice, however close pi is to it.
        assert q == float(subjective_choice(belief.pi, u) == optimal)
        return
    # numpy's samplers round some draws onto the indifference point (about 1%
    # of Beta(1, 0.125) draws land on a root of 1.0), so belief mass near it
    # may go either way.
    band = belief.prob_le(root + 1e-9) - belief.prob_lt(root - 1e-9)
    n = 2_000
    draws = _draw(belief, np.random.default_rng(seed), n)
    rate = sum(subjective_choice(float(pi), u) == optimal for pi in draws) / n
    assert abs(rate - q) <= 5.0 * math.sqrt(q * (1.0 - q) / n) + 1.0 / n + band


@pytest.mark.parametrize(
    "components, p_star",
    [
        # A is best when y = 0 (choose A for pi <= p*) ...
        ((1.0, 0.0, 0.0, 1.0), 0.5),
        ((0.75, -0.25, 0.0, 0.0), 0.75),
        ((0.125, 0.0, 0.0, 0.875), 0.125),
        # ... or when y = 1 (choose A for pi >= p*).
        ((0.0, 1.0, 1.0, 0.0), 0.5),
        ((-0.25, 0.75, 0.0, 0.0), 0.25),
    ],
)
def test_point_mass_on_the_indifference_point_goes_to_a(components, p_star):
    u = OutcomeUtilities.from_components(*components)
    # Dyadic utilities: both expected utilities are exact at p*, and tie.
    assert expected_outcome_utility(p_star, u, TREATMENT_A) == (
        expected_outcome_utility(p_star, u, TREATMENT_B)
    )
    assert subjective_choice(p_star, u) == TREATMENT_A
    for p_xz in (0.0, 1.0):
        eu_a = expected_outcome_utility(p_xz, u, TREATMENT_A)
        eu_b = expected_outcome_utility(p_xz, u, TREATMENT_B)
        cell = CovariateCell(
            z_label="z", p_z_given_x=1.0, p_xz=p_xz, belief=PointMassBelief(pi=p_star)
        )
        assert belief_choice_prob(cell, u) == (1.0 if eu_a > eu_b else 0.0)


# --- bounded-rational welfare ---


def test_bounded_rational_welfare_reference(reference_cell):
    half = {z.z_label: 0.5 for z in reference_cell.z_cells}
    assert abs(bounded_rational_welfare_x(reference_cell, half) - 0.685) < 1e-15
    ones = {z.z_label: 1.0 for z in reference_cell.z_cells}
    assert abs(
        bounded_rational_welfare_x(reference_cell, ones)
        - optimal_decentralized_x(reference_cell).welfare
    ) < 1e-12
    zeros = {z.z_label: 0.0 for z in reference_cell.z_cells}
    assert abs(bounded_rational_welfare_x(reference_cell, zeros) - 0.53) < 1e-15


def test_bounded_rational_welfare_by_primitive_events(reference_cell):
    # Independent accounting over (signal, coin flip, outcome) triples.
    u = reference_cell.utilities
    total = 0.0
    for z_cell in reference_cell.z_cells:
        eu_a = expected_outcome_utility(z_cell.p_xz, u, TREATMENT_A)
        eu_b = expected_outcome_utility(z_cell.p_xz, u, TREATMENT_B)
        eu_opt, eu_other = (eu_a, eu_b) if eu_a >= eu_b else (eu_b, eu_a)
        total += z_cell.p_z_given_x * (0.5 * eu_opt + 0.5 * eu_other)
    q_half = {z.z_label: 0.5 for z in reference_cell.z_cells}
    assert abs(bounded_rational_welfare_x(reference_cell, q_half) - total) < 1e-12


def test_bounded_rational_welfare_validation(reference_cell):
    with pytest.raises(ValueError, match="q_map missing"):
        bounded_rational_welfare_x(reference_cell, {"z1": 0.5})
    bad = {"z1": 0.5, "z2": 1.5}
    with pytest.raises(ValueError):
        bounded_rational_welfare_x(reference_cell, bad)


def test_belief_q_map_reference(reference_cell):
    q_map = belief_q_map(reference_cell)
    assert q_map == {"z1": 1.0, "z2": 1.0}


def test_compare_policies(reference_cell):
    assert compare_policies_x(reference_cell) == "decentralize"
    # Swap the two beliefs so every signal is read backwards: welfare drops
    # to 0.53, below the 0.74 mandate.
    swapped = XCell(
        x_label=reference_cell.x_label,
        weight=reference_cell.weight,
        utilities=reference_cell.utilities,
        z_cells=(
            CovariateCell(
                z_label="z1",
                p_z_given_x=0.6,
                p_xz=0.1,
                belief=PointMassBelief(pi=0.5),
            ),
            CovariateCell(
                z_label="z2",
                p_z_given_x=0.4,
                p_xz=0.5,
                belief=PointMassBelief(pi=0.1),
            ),
        ),
    )
    assert compare_policies_x(swapped) == "mandate"


# --- scenario-level report ---


def test_build_report_aggregates(reference_treatment_scenario):
    report = build_report(reference_treatment_scenario)
    assert len(report.per_x) == 1
    x_report = report.per_x[0]
    assert x_report.x_label == "x1"
    assert x_report.mandate_treatment == TREATMENT_A
    assert abs(x_report.mandate_welfare - 0.74) < 1e-15
    assert x_report.decentralized_welfare == 0.8400000000000001
    assert x_report.z_b == ("z2",)
    assert x_report.information_value.voi == 0.1
    assert dict(x_report.q_by_z) == {"z1": 1.0, "z2": 1.0}
    assert x_report.recommendation == "decentralize"
    assert abs(report.aggregate_welfare - x_report.bounded_rational_welfare) < 1e-15


def test_build_report_two_cells():
    u = OutcomeUtilities.from_components(u0_a=1.0, u1_a=0.0, u0_b=0.5, u1_b=1.0)
    good = XCell(
        x_label="informed",
        weight=0.5,
        utilities=u,
        z_cells=(
            CovariateCell(
                z_label="z1",
                p_z_given_x=1.0,
                p_xz=0.9,
                belief=PointMassBelief(pi=0.9),
            ),
        ),
    )
    confused = XCell(
        x_label="confused",
        weight=0.5,
        utilities=u,
        z_cells=(
            CovariateCell(
                z_label="z1",
                p_z_given_x=1.0,
                p_xz=0.9,
                belief=PointMassBelief(pi=0.1),
            ),
        ),
    )
    report = build_report(TreatmentScenario(x_cells=(good, confused)))
    by_label = {r.x_label: r for r in report.per_x}
    assert by_label["informed"].recommendation == "decentralize"
    assert by_label["confused"].recommendation == "mandate"
    expected = 0.5 * by_label["informed"].bounded_rational_welfare + 0.5 * (
        by_label["confused"].mandate_welfare
    )
    assert abs(report.aggregate_welfare - expected) < 1e-15


def test_build_report_requires_beliefs():
    cell = make_reference_cell(with_beliefs=False)
    with pytest.raises(ValueError, match="z1"):
        build_report(TreatmentScenario(x_cells=(cell,)))


def _swapped_beliefs(cell: XCell, x_label: str) -> XCell:
    # Each z cell takes the other's belief, so every signal is read backwards.
    beliefs = [z.belief for z in cell.z_cells][::-1]
    return XCell(
        x_label=x_label,
        weight=cell.weight,
        utilities=cell.utilities,
        z_cells=tuple(
            CovariateCell(
                z_label=z.z_label,
                p_z_given_x=z.p_z_given_x,
                p_xz=z.p_xz,
                belief=belief,
            )
            for z, belief in zip(cell.z_cells, beliefs)
        ),
    )


def _fixture_and_swapped_scenario() -> TreatmentScenario:
    reference = make_reference_cell()
    cells = (reference, _swapped_beliefs(reference, "x2"))
    return TreatmentScenario(
        x_cells=tuple(
            XCell(x_label=c.x_label, weight=0.5, utilities=c.utilities, z_cells=c.z_cells)
            for c in cells
        )
    )


def _exact_tie_scenario() -> TreatmentScenario:
    # One z cell and a point-mass belief at its own p_xz, off the 1/3
    # threshold: the belief picks the optimal treatment with q = 1, so
    # bounded-rational welfare equals the mandate's exactly.
    u = OutcomeUtilities.from_components(u0_a=1.0, u1_a=0.0, u0_b=0.5, u1_b=1.0)
    cell = XCell(
        x_label="tie",
        weight=1.0,
        utilities=u,
        z_cells=(
            CovariateCell(
                z_label="z1",
                p_z_given_x=1.0,
                p_xz=0.2,
                belief=PointMassBelief(pi=0.2),
            ),
        ),
    )
    return TreatmentScenario(x_cells=(cell,))


@pytest.mark.parametrize(
    "make_scenario, expected",
    [
        (_fixture_and_swapped_scenario, ("decentralize", "mandate")),
        (_exact_tie_scenario, ("decentralize",)),
    ],
)
def test_report_and_comparison_share_one_recommendation_rule(make_scenario, expected):
    scenario = make_scenario()
    report = build_report(scenario)
    for cell, x_report in zip(scenario.x_cells, report.per_x):
        assert x_report.recommendation == compare_policies_x(cell)
    assert tuple(r.recommendation for r in report.per_x) == expected
    if make_scenario is _exact_tie_scenario:
        (x_report,) = report.per_x
        assert x_report.mandate_welfare == x_report.bounded_rational_welfare


# --- the CLI on beta beliefs, without scipy ---


def _write_beta_scenario(path: Path, a: float, b: float) -> str:
    u = {"u0_a": 1.0, "u1_a": 0.0, "u0_b": 0.0, "u1_b": 1.0}  # p* = 1/2
    beta = {"kind": "beta", "a": a, "b": b}
    mixture = {
        "kind": "mixture",
        "components": [beta, {"kind": "beta", "a": 0.5, "b": 2.0}],
        "weights": [0.25, 0.75],
    }
    doc = {
        "schema_version": 1,
        "treatment": {
            "x_cells": [
                {
                    "label": "x1",
                    "weight": 1.0,
                    "utilities": u,
                    "z_cells": [
                        {"label": "z1", "p_z_given_x": 0.5, "p_xz": 0.3,
                         "belief": beta},
                        {"label": "z2", "p_z_given_x": 0.5, "p_xz": 0.8,
                         "belief": mixture},
                    ],
                }
            ]
        },
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_importing_the_cli_loads_no_scipy():
    done = _run_python(
        "import sys, choicewelfare.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_treatment_runs_with_scipy_blocked(tmp_path):
    scenario = _write_beta_scenario(tmp_path / "beta.scn", 2.0, 5.0)
    out = tmp_path / "report.json"
    # A None entry in sys.modules makes every import of scipy fail.
    done = _run_python(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from choicewelfare.cli import main\n"
        "sys.exit(main(sys.argv[1:]))",
        "treatment", "--scenario", scenario, "--out", str(out),
    )
    assert done.returncode == 0, done.stderr
    q_by_z = json.loads(out.read_text(encoding="utf-8"))["per_x"][0]["q_by_z"]
    # z1 is A-optimal: q = I_{1/2}(2, 5) = 57/64. z2 is B-optimal: q is the
    # mixture's mass above 1/2, 0.25 * 7/64 + 0.75 * I_{1/2}(2, 1/2).
    assert abs(q_by_z["z1"] - 57.0 / 64.0) < 1e-15
    z2 = 0.25 * 7.0 / 64.0 + 0.75 * (1.0 - float(betainc(0.5, 2.0, 0.5)))
    assert abs(q_by_z["z2"] - z2) < 1e-14


def test_treatment_exits_3_when_the_incomplete_beta_cannot_answer(tmp_path, capsys):
    scenario = _write_beta_scenario(tmp_path / "huge.scn", 1e300, 1e300)
    assert main(["treatment", "--scenario", scenario]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: regularized incomplete beta")
    assert "a=1e+300, b=1e+300" in captured.err


# --- the report's bytes, pinned ---


def _a_region_root(u0_a: float, u1_a: float, u0_b: float, u1_b: float) -> float:
    """The subjective probability at which both treatments tie, computed as
    belief_choice_prob computes it, so a sample placed here ties exactly."""
    d0 = u0_a - u0_b
    return -d0 / ((u1_a - u1_b) - d0)


def _pinned_belief(rng, kind: int, root: float) -> dict:
    if kind == 0:
        # Every other point mass sits on the indifference point.
        pi = root if rng.random() < 0.5 else rng.random()
        return {"kind": "point_mass", "pi": pi}
    if kind == 1:
        lo, hi = sorted((rng.random(), rng.random()))
        return {"kind": "uniform", "lo": lo, "hi": hi}
    if kind == 2:
        return {"kind": "beta", "a": rng.uniform(0.3, 6.0), "b": rng.uniform(0.3, 6.0)}
    if kind == 3:
        # Both parameters at least 8: the prefactor's Stirling branch.
        a, b = rng.uniform(8.0, 400.0), rng.uniform(8.0, 400.0)
        return {"kind": "beta", "a": a, "b": b}
    if kind == 4:
        lo, hi = sorted((rng.random(), rng.random()))
        weights = [rng.uniform(0.5, 1.5) for _ in range(3)]
        return {
            "kind": "mixture",
            "components": [
                {"kind": "point_mass", "pi": rng.random()},
                {"kind": "uniform", "lo": lo, "hi": hi},
                {"kind": "beta", "a": rng.uniform(0.5, 20.0), "b": rng.uniform(0.5, 20.0)},
            ],
            "weights": [w / sum(weights) for w in weights],
        }
    # Samples that tie at the threshold, where prob_le and prob_lt differ.
    samples = [rng.random() for _ in range(rng.randint(1, 40))]
    samples += [root] * rng.randint(1, 4)
    rng.shuffle(samples)
    return {"kind": "empirical", "samples": samples}


def _pinned_report_scenario() -> dict:
    """A treatment scenario from random.Random(0), independent of numpy: all
    five belief kinds, opposed and reversed utilities (so both the prob_le
    and the prob_lt side of the threshold are read), mandates of A and B."""
    rng = random.Random(0)
    n_x = 18
    x_weights = [rng.uniform(0.5, 1.5) for _ in range(n_x)]
    x_cells = []
    for i, x_weight in enumerate(x_weights):
        wins, loses = rng.uniform(0.0, 1.0), rng.uniform(-1.0, 0.0)
        other_wins, other_loses = rng.uniform(0.0, 1.0), rng.uniform(-1.0, 0.0)
        if i % 3 == 2:
            # A is best when y = 1: the threshold's A side lies above it.
            u = {"u0_a": loses, "u1_a": wins, "u0_b": other_wins, "u1_b": other_loses}
        else:
            u = {"u0_a": wins, "u1_a": loses, "u0_b": other_loses, "u1_b": other_wins}
        root = _a_region_root(u["u0_a"], u["u1_a"], u["u0_b"], u["u1_b"])
        n_z = rng.randint(2, 9)
        shares = [rng.uniform(0.2, 1.8) for _ in range(n_z)]
        z_cells = [
            {
                "label": f"z{j}",
                "p_z_given_x": share / sum(shares),
                "p_xz": rng.uniform(0.0, 1.0),
                "belief": _pinned_belief(rng, (i + j) % 6, root),
            }
            for j, share in enumerate(shares)
        ]
        x_cells.append(
            {
                "label": f"x{i}",
                "weight": x_weight / sum(x_weights),
                "utilities": u,
                "z_cells": z_cells,
            }
        )
    return {"schema_version": 1, "treatment": {"x_cells": x_cells}}


# sha256 of the `treatment` JSON report on _pinned_report_scenario(). Its
# floats come from Python float arithmetic and libm (the Beta CDF's log,
# exp and lgamma), not from numpy's SIMD code.
_REPORT_SHA256 = "b821954776c43d86ac74ec371a0991c452c86f1a5840cdf244be5125807c7925"


def test_pinned_report_scenario_covers_what_it_claims():
    doc = json.loads(json.dumps(_pinned_report_scenario()))
    beliefs = [
        z["belief"] for x in doc["treatment"]["x_cells"] for z in x["z_cells"]
    ]
    kinds = {b["kind"] for b in beliefs}
    assert kinds == {"point_mass", "uniform", "beta", "mixture", "empirical"}
    assert any(b["kind"] == "beta" and min(b["a"], b["b"]) >= 8.0 for b in beliefs)
    ties = 0
    for x in doc["treatment"]["x_cells"]:
        root = _a_region_root(**x["utilities"])
        for z in x["z_cells"]:
            if z["belief"]["kind"] == "empirical":
                belief = EmpiricalBelief(samples=np.array(z["belief"]["samples"]))
                ties += belief.prob_le(root) > belief.prob_lt(root)
    assert ties > 0


def test_treatment_report_bytes_are_pinned(tmp_path):
    scenario = tmp_path / "pinned.scn"
    scenario.write_text(json.dumps(_pinned_report_scenario()), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["treatment", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _REPORT_SHA256


# --- the report's fast paths are the plain forms, bit for bit ---


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


_EDGE_XS = (0.0, -0.0, math.inf, -math.inf, math.nan)


@st.composite
def _samples_and_x(draw):
    sample = st.floats(0.0, 1.0) | st.sampled_from((-0.0, 0.25, 0.5))
    samples = draw(st.lists(sample, min_size=1, max_size=60))
    x = draw(
        st.sampled_from(samples) | st.sampled_from(_EDGE_XS) | st.floats(-0.5, 1.5)
    )
    return samples, x


@settings(max_examples=300, deadline=None)
@given(_samples_and_x())
@example(([0.0, 0.5, 0.5, 1.0], 0.5))
@example(([-0.0, 0.0, 0.3], -0.0))
def test_empirical_cdf_is_the_mean_of_the_indicator(case):
    samples, x = case
    belief = EmpiricalBelief(samples=np.array(samples))
    arr = np.array(samples)
    assert _bits(belief.prob_le(x)) == _bits(float(np.mean(arr <= x)))
    assert _bits(belief.prob_lt(x)) == _bits(float(np.mean(arr < x)))


@st.composite
def _uniform_and_x(draw):
    lo = draw(st.floats(0.0, 0.99) | st.sampled_from((0.0, -0.0)))
    hi = draw(st.floats(lo, 1.0).filter(lambda hi: hi > lo))
    x = draw(
        st.sampled_from((lo, hi))
        | st.sampled_from(_EDGE_XS[:4])
        | st.floats(-1.0, 2.0)
        | st.floats(lo, hi)
    )
    return lo, hi, x


@settings(max_examples=300, deadline=None)
@given(_uniform_and_x())
@example((0.0, 0.5, -0.0))
@example((0.25, 0.5, 0.0))
@example((0.25, 0.5, 1.5))
def test_uniform_cdf_is_the_clipped_ramp(case):
    # Below lo the ramp is negative and above hi beyond 1; at x = -0.0 on
    # lo = 0.0 it is -0.0, which np.clip keeps.
    lo, hi, x = case
    belief = UniformBelief(lo=lo, hi=hi)
    expected = float(np.clip((x - lo) / (hi - lo), 0.0, 1.0))
    assert _bits(belief.prob_le(x)) == _bits(expected)
    assert _bits(belief.prob_lt(x)) == _bits(expected)


@st.composite
def _any_belief(draw):
    kinds = ("point_mass", "uniform", "beta", "mixture", "empirical")
    kind = draw(st.sampled_from(kinds))
    if kind == "point_mass":
        return PointMassBelief(pi=draw(st.floats(0.0, 1.0)))
    if kind == "uniform":
        lo = draw(st.floats(0.0, 0.9))
        return UniformBelief(lo=lo, hi=draw(st.floats(lo + 0.05, 1.0)))
    if kind == "beta":
        return BetaBelief(a=draw(st.floats(0.1, 60.0)), b=draw(st.floats(0.1, 60.0)))
    if kind == "empirical":
        samples = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
        return EmpiricalBelief(samples=np.array(samples))
    parts = draw(st.lists(st.floats(0.5, 1.5), min_size=1, max_size=3))
    components = tuple(
        PointMassBelief(pi=draw(st.floats(0.0, 1.0)))
        if i % 2 == 0
        else BetaBelief(a=draw(st.floats(0.1, 20.0)), b=draw(st.floats(0.1, 20.0)))
        for i in range(len(parts))
    )
    weights = [w / sum(parts) for w in parts]
    return MixtureBelief(components=components, weights=weights)


@st.composite
def _x_cell_with_beliefs(draw, label):
    # Utilities of either sign: opposed, reversed, dominated and flat gaps.
    value = st.sampled_from((-1.0, 0.0, 0.5, 1.0)) | st.floats(-2.0, 2.0)
    u = draw(st.lists(value, min_size=4, max_size=4))
    shares = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=6))
    z_cells = tuple(
        CovariateCell(
            z_label=f"z{j}",
            p_z_given_x=share / sum(shares),
            p_xz=draw(st.floats(0.0, 1.0) | st.sampled_from((0.0, 0.5, 1.0))),
            belief=draw(_any_belief()),
        )
        for j, share in enumerate(shares)
    )
    return XCell(
        x_label=label,
        weight=1.0,
        utilities=OutcomeUtilities.from_components(*u),
        z_cells=z_cells,
    )


@pytest.mark.filterwarnings("ignore:.*private information is worthless:UserWarning")
@settings(max_examples=200, deadline=None)
@given(_x_cell_with_beliefs("x"))
def test_build_report_fields_are_the_public_functions(cell):
    report = build_report(TreatmentScenario(x_cells=(cell,)))
    x = report.per_x[0]
    mandate = optimal_mandate_x(cell)
    decentralized = optimal_decentralized_x(cell)
    info = value_of_information(cell)
    q_map = belief_q_map(cell)
    assert x.mandate_treatment == mandate.treatment
    assert _bits(x.mandate_welfare) == _bits(mandate.welfare)
    assert _bits(x.decentralized_welfare) == _bits(decentralized.welfare)
    assert (x.z_a, x.z_b) == (decentralized.z_a, decentralized.z_b)
    assert [_bits(v) for v in (info.voi, info.p_better, info.mean_gain)] == [
        _bits(v)
        for v in (
            x.information_value.voi,
            x.information_value.p_better,
            x.information_value.mean_gain,
        )
    ]
    # belief_choice_prob reads the expected utilities through
    # expected_outcome_utility; the report reads the x cell's stored pairs.
    by_z = {z.z_label: belief_choice_prob(z, cell.utilities) for z in cell.z_cells}
    assert [(k, _bits(v)) for k, v in x.q_by_z] == [
        (k, _bits(v)) for k, v in sorted(q_map.items())
    ]
    assert {k: _bits(v) for k, v in by_z.items()} == {
        k: _bits(v) for k, v in q_map.items()
    }
    bounded = bounded_rational_welfare_x(cell, q_map)
    assert _bits(x.bounded_rational_welfare) == _bits(bounded)
    for z, (eu_a, eu_b) in zip(cell.z_cells, cell._eu_pairs):
        assert _bits(eu_a) == _bits(
            expected_outcome_utility(z.p_xz, cell.utilities, TREATMENT_A)
        )
        assert _bits(eu_b) == _bits(
            expected_outcome_utility(z.p_xz, cell.utilities, TREATMENT_B)
        )
