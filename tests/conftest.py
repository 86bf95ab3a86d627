import numpy as np
import pytest
from hypothesis import settings

from choicewelfare import (
    CovariateCell,
    HotellingScenario,
    OutcomeUtilities,
    PointMassBelief,
    TreatmentScenario,
    XCell,
    hotelling_population,
)

# CI runs the suite with --hypothesis-profile=ci: the examples are derived
# from each test's name, so a red run replays exactly, and a failure prints
# the blob that reproduces it. Local runs keep the random default profile.
settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture(scope="session")
def line_population():
    """Three stores at (0.5, 1, 1.6), three persons at (-0.5, 1, 2), uniform
    weights; quadratic loss. Exact utility matrix:
    [[-1, -2.25, -4.41], [-0.25, 0, -0.36], [-2.25, -1, -0.16]]."""
    scenario = HotellingScenario(
        store_locations=np.array([0.5, 1.0, 1.6]),
        person_locations=np.array([-0.5, 1.0, 2.0]),
    )
    return hotelling_population(scenario)


def make_reference_cell(with_beliefs: bool = True) -> XCell:
    """Binary-treatment reference cell.

    Derived quantities (exact): p_x = 0.26, optimal mandate A with welfare
    0.74, decentralized welfare 0.84 with z2 switched to B, value of
    information 0.10 = 0.4 * 0.25, threshold probability 1/3.
    """
    u = OutcomeUtilities.from_components(u0_a=1.0, u1_a=0.0, u0_b=0.5, u1_b=1.0)
    beliefs = (
        {"z1": PointMassBelief(pi=0.1), "z2": PointMassBelief(pi=0.5)}
        if with_beliefs
        else {"z1": None, "z2": None}
    )
    return XCell(
        x_label="x1",
        weight=1.0,
        utilities=u,
        z_cells=(
            CovariateCell(
                z_label="z1", p_z_given_x=0.6, p_xz=0.1, belief=beliefs["z1"]
            ),
            CovariateCell(
                z_label="z2", p_z_given_x=0.4, p_xz=0.5, belief=beliefs["z2"]
            ),
        ),
    )


@pytest.fixture
def reference_cell():
    return make_reference_cell()


@pytest.fixture
def reference_treatment_scenario():
    return TreatmentScenario(x_cells=(make_reference_cell(),))
