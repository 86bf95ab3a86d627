"""Binary-treatment policy analysis: beliefs, mandates, VOI, guideline use."""

import numpy as np
import pytest

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
from conftest import make_reference_cell


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


def test_mixture_belief_is_weighted_sum():
    mixture = MixtureBelief(
        components=(UniformBelief(lo=0.0, hi=1.0), PointMassBelief(pi=0.9)),
        weights=(0.75, 0.25),
    )
    assert abs(mixture.prob_le(0.5) - 0.75 * 0.5) < 1e-15
    assert abs(mixture.prob_le(0.9) - (0.675 + 0.25)) < 1e-15
    assert abs(mixture.prob_lt(0.9) - 0.675) < 1e-15


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
        draws = belief.sample(rng, 200_000)
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
    with pytest.warns(UserWarning):
        XCell(
            x_label="x",
            weight=1.0,
            utilities=u,
            z_cells=(
                CovariateCell(z_label="z1", p_z_given_x=0.5, p_xz=0.3),
                CovariateCell(z_label="z2", p_z_given_x=0.5, p_xz=0.3),
            ),
        )


def test_scenario_weights_must_sum_to_one(reference_cell):
    with pytest.raises(ValueError):
        TreatmentScenario(x_cells=(reference_cell,) * 2)


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
        draws = belief.sample(rng, 1_000_000)
        picks_a = draws <= threshold_probability(u)
        optimal_is_a = (
            expected_outcome_utility(p_xz, u, TREATMENT_A)
            >= expected_outcome_utility(p_xz, u, TREATMENT_B)
        )
        q_hat = np.mean(picks_a == optimal_is_a)
        se = np.sqrt(max(q * (1 - q), 1e-9) / 1_000_000)
        assert abs(q_hat - q) < 3 * se + 1e-4


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
