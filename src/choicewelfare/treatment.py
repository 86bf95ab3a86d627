"""Binary treatment choice with public and private covariates.

A planner observes covariates x for each person; each person additionally
observes private covariates z. An uncertain binary outcome y (say, whether an
illness event occurs) has probability p_xz given (x, z), and utility depends
on the outcome and on which of two treatments (A or B) was taken, through an
outcome-utility table that varies with x only.

The planner can mandate one treatment per x cell, or decentralize and let
people condition on z. Decentralization by fully rational agents is worth the
"value of information": the probability-weighted mean gain over the cells
where the non-mandated treatment is strictly better. Real people choose by
subjective outcome probabilities pi drawn from a belief distribution per
(x, z) cell; the probability q_xz that a person's subjective choice matches
the objectively optimal one determines how much of that value survives.

All weak-preference ties resolve to treatment A, and belief mass sitting
exactly on the indifference threshold is likewise attributed to A.
"""

import warnings
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np
from numpy.typing import NDArray
from scipy.special import betainc

from .models import PROB_SUM_TOL
from .scenario import _fields_equal, _frozen_array

TREATMENT_A = "A"
TREATMENT_B = "B"

# Risk threshold at which a published preventive-treatment guideline flips
# its recommendation; outcome utilities with loss ratio 0.017 / 0.983
# calibrate the indifference threshold to exactly this value.
GUIDELINE_RISK_THRESHOLD = 0.017


def _col(treatment: str) -> int:
    if treatment == TREATMENT_A:
        return 0
    if treatment == TREATMENT_B:
        return 1
    raise ValueError(f"treatment must be {TREATMENT_A!r} or {TREATMENT_B!r}")


@dataclass(frozen=True, eq=False)
class OutcomeUtilities:
    """Expected-utility table u(y, t): rows are outcomes y in {0, 1}, columns
    are treatments (A, B).

    Attributes:
        values: 2x2 finite matrix, [y][treatment-column] layout.
    """

    values: NDArray[np.float64]

    def __post_init__(self):
        values = _frozen_array(self.values)
        if values.shape != (2, 2):
            raise ValueError("outcome utilities must form a 2x2 matrix")
        if not np.all(np.isfinite(values)):
            raise ValueError("outcome utilities must be finite")
        object.__setattr__(self, "values", values)

    __eq__ = _fields_equal

    @classmethod
    def from_components(
        cls, u0_a: float, u1_a: float, u0_b: float, u1_b: float
    ) -> "OutcomeUtilities":
        return cls(values=np.array([[u0_a, u0_b], [u1_a, u1_b]], dtype=np.float64))

    def u(self, y: int, treatment: str) -> float:
        if y not in (0, 1):
            raise ValueError("outcome y must be 0 or 1")
        return float(self.values[y, _col(treatment)])

    @property
    def treatments_opposed(self) -> bool:
        """True when each treatment is strictly best for one outcome:
        u(0,A) > u(0,B) and u(1,B) > u(1,A). Exactly then an interior
        indifference threshold in outcome probability exists."""
        return (
            self.values[0, 0] > self.values[0, 1]
            and self.values[1, 1] > self.values[1, 0]
        )


# --- belief models over the subjective outcome probability pi ---


@dataclass(frozen=True)
class PointMassBelief:
    """Everyone in the cell holds the same subjective probability."""

    pi: float

    def __post_init__(self):
        pi = float(self.pi)
        if not (0.0 <= pi <= 1.0):
            raise ValueError("pi must lie in [0, 1]")
        object.__setattr__(self, "pi", pi)

    def prob_le(self, x: float) -> float:
        return 1.0 if self.pi <= x else 0.0

    def prob_lt(self, x: float) -> float:
        return 1.0 if self.pi < x else 0.0

    def sample(self, rng: np.random.Generator, n: int) -> NDArray[np.float64]:
        return np.full(n, self.pi)


@dataclass(frozen=True)
class UniformBelief:
    """Subjective probabilities uniform on [lo, hi] within [0, 1]."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if not (0.0 <= lo < hi <= 1.0):
            raise ValueError("need 0 <= lo < hi <= 1")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def prob_le(self, x: float) -> float:
        return float(np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0))

    prob_lt = prob_le  # continuous distribution: no atoms

    def sample(self, rng: np.random.Generator, n: int) -> NDArray[np.float64]:
        return rng.uniform(self.lo, self.hi, n)


@dataclass(frozen=True)
class BetaBelief:
    """Beta(a, b) subjective probabilities."""

    a: float
    b: float

    def __post_init__(self):
        a, b = float(self.a), float(self.b)
        if not (np.isfinite(a) and np.isfinite(b) and a > 0.0 and b > 0.0):
            raise ValueError("beta parameters must be positive and finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def prob_le(self, x: float) -> float:
        # Regularized incomplete beta function.
        return float(betainc(self.a, self.b, np.clip(x, 0.0, 1.0)))

    prob_lt = prob_le

    def sample(self, rng: np.random.Generator, n: int) -> NDArray[np.float64]:
        return rng.beta(self.a, self.b, n)


@dataclass(frozen=True, eq=False)
class MixtureBelief:
    """Finite mixture of point-mass, uniform, and beta components."""

    components: tuple
    weights: tuple[float, ...]

    def __post_init__(self):
        components = tuple(self.components)
        weights = tuple(float(w) for w in self.weights)
        if len(components) == 0 or len(components) != len(weights):
            raise ValueError("components and weights must be non-empty and aligned")
        for comp in components:
            if not isinstance(comp, (PointMassBelief, UniformBelief, BetaBelief)):
                raise ValueError(
                    "mixture components must be point-mass, uniform, or beta"
                )
        # Written so that NaN, which fails every comparison, is rejected.
        if not all(w > 0.0 for w in weights):
            raise ValueError("mixture weights must be positive")
        if abs(sum(weights) - 1.0) > PROB_SUM_TOL:
            raise ValueError("mixture weights must sum to 1")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "weights", weights)

    __eq__ = _fields_equal

    def prob_le(self, x: float) -> float:
        return float(
            sum(w * c.prob_le(x) for w, c in zip(self.weights, self.components))
        )

    def prob_lt(self, x: float) -> float:
        return float(
            sum(w * c.prob_lt(x) for w, c in zip(self.weights, self.components))
        )

    def sample(self, rng: np.random.Generator, n: int) -> NDArray[np.float64]:
        picks = rng.choice(len(self.components), size=n, p=np.array(self.weights))
        out = np.empty(n)
        for idx, comp in enumerate(self.components):
            mask = picks == idx
            count = int(mask.sum())
            if count:
                out[mask] = comp.sample(rng, count)
        return out


@dataclass(frozen=True, eq=False)
class EmpiricalBelief:
    """Belief distribution given by an observed sample of pi values."""

    samples: NDArray[np.float64]

    def __post_init__(self):
        samples = _frozen_array(self.samples)
        if samples.ndim != 1 or samples.shape[0] == 0:
            raise ValueError("samples must be a non-empty vector")
        if not np.all((samples >= 0.0) & (samples <= 1.0)):  # NaN fails too
            raise ValueError("samples must lie in [0, 1]")
        object.__setattr__(self, "samples", samples)

    __eq__ = _fields_equal

    def prob_le(self, x: float) -> float:
        return float(np.mean(self.samples <= x))

    def prob_lt(self, x: float) -> float:
        return float(np.mean(self.samples < x))

    def sample(self, rng: np.random.Generator, n: int) -> NDArray[np.float64]:
        return rng.choice(self.samples, size=n, replace=True)


BeliefModel = Union[
    PointMassBelief, UniformBelief, BetaBelief, MixtureBelief, EmpiricalBelief
]


# --- scenario cells ---


@dataclass(frozen=True)
class CovariateCell:
    """One private-covariate cell within a public cell.

    Attributes:
        z_label: identifier of the private-covariate value.
        p_z_given_x: P(z | x), strictly positive.
        p_xz: outcome probability P(y=1 | x, z).
        belief: distribution of subjective probabilities in the cell, when
            modeling boundedly rational choice (optional for the purely
            objective operations).
    """

    z_label: str
    p_z_given_x: float
    p_xz: float
    belief: Optional[BeliefModel] = None

    def __post_init__(self):
        p_z = float(self.p_z_given_x)
        p = float(self.p_xz)
        if not (np.isfinite(p_z) and p_z > 0.0):
            raise ValueError("p_z_given_x must be strictly positive")
        if not (0.0 <= p <= 1.0):
            raise ValueError("p_xz must lie in [0, 1]")
        object.__setattr__(self, "z_label", str(self.z_label))
        object.__setattr__(self, "p_z_given_x", p_z)
        object.__setattr__(self, "p_xz", p)


@dataclass(frozen=True)
class XCell:
    """One public-covariate cell: outcome utilities plus its z cells."""

    x_label: str
    weight: float
    utilities: OutcomeUtilities
    z_cells: tuple[CovariateCell, ...]

    def __post_init__(self):
        weight = float(self.weight)
        if not (np.isfinite(weight) and weight > 0.0):
            raise ValueError("x-cell weight must be strictly positive")
        z_cells = tuple(self.z_cells)
        if len(z_cells) == 0:
            raise ValueError("x cell must contain at least one z cell")
        labels = [c.z_label for c in z_cells]
        if len(set(labels)) != len(labels):
            raise ValueError("z labels must be unique within an x cell")
        total = sum(c.p_z_given_x for c in z_cells)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(
                f"x cell {self.x_label!r}: P(z|x) must sum to 1, got {total!r}"
            )
        if len({c.p_xz for c in z_cells}) == 1 and len(z_cells) > 1:
            warnings.warn(
                f"x cell {self.x_label!r}: p_xz is constant across z; private "
                "information is worthless here",
                stacklevel=2,
            )
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "x_label", str(self.x_label))
        object.__setattr__(self, "z_cells", z_cells)


@dataclass(frozen=True)
class TreatmentScenario:
    """Population partitioned by public covariate cells."""

    x_cells: tuple[XCell, ...]

    def __post_init__(self):
        x_cells = tuple(self.x_cells)
        if len(x_cells) == 0:
            raise ValueError("scenario must contain at least one x cell")
        labels = [c.x_label for c in x_cells]
        if len(set(labels)) != len(labels):
            raise ValueError("x labels must be unique")
        total = sum(c.weight for c in x_cells)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"P(x) weights must sum to 1, got {total!r}")
        object.__setattr__(self, "x_cells", x_cells)


# --- operations ---


def expected_outcome_utility(p: float, u: OutcomeUtilities, treatment: str) -> float:
    """p * u(1, t) + (1 - p) * u(0, t)."""
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    col = _col(treatment)
    return p * float(u.values[1, col]) + (1.0 - p) * float(u.values[0, col])


def aggregate_outcome_prob(cell: XCell) -> float:
    """P(y=1 | x): the z-mixture of the cell's outcome probabilities."""
    return float(sum(z.p_z_given_x * z.p_xz for z in cell.z_cells))


@dataclass(frozen=True)
class MandateOutcome:
    treatment: str
    welfare: float


def optimal_mandate_x(cell: XCell) -> MandateOutcome:
    """Best single treatment for the whole x cell (tie goes to A), evaluated
    at the aggregated outcome probability."""
    p_x = aggregate_outcome_prob(cell)
    eu_a = expected_outcome_utility(p_x, cell.utilities, TREATMENT_A)
    eu_b = expected_outcome_utility(p_x, cell.utilities, TREATMENT_B)
    if eu_a >= eu_b:
        return MandateOutcome(treatment=TREATMENT_A, welfare=eu_a)
    return MandateOutcome(treatment=TREATMENT_B, welfare=eu_b)


@dataclass(frozen=True)
class DecentralizedOutcome:
    welfare: float
    z_a: tuple[str, ...]
    z_b: tuple[str, ...]


def optimal_decentralized_x(cell: XCell) -> DecentralizedOutcome:
    """Welfare when each z cell gets its objectively best treatment.

    z_a collects cells where A is weakly best (ties included, per the shared
    tie-break); z_b collects cells where B is strictly better.
    """
    welfare = 0.0
    z_a: list[str] = []
    z_b: list[str] = []
    for z in cell.z_cells:
        eu_a = expected_outcome_utility(z.p_xz, cell.utilities, TREATMENT_A)
        eu_b = expected_outcome_utility(z.p_xz, cell.utilities, TREATMENT_B)
        if eu_a >= eu_b:
            z_a.append(z.z_label)
            welfare += z.p_z_given_x * eu_a
        else:
            z_b.append(z.z_label)
            welfare += z.p_z_given_x * eu_b
    return DecentralizedOutcome(welfare=welfare, z_a=tuple(z_a), z_b=tuple(z_b))


@dataclass(frozen=True)
class InformationValue:
    """Decomposed welfare gain of rational decentralization over the mandate.

    voi = p_better * mean_gain where p_better is the probability mass of z
    cells in which the non-mandated treatment is strictly better and
    mean_gain is the mean expected-utility gain over those cells.
    """

    voi: float
    p_better: float
    mean_gain: float


def value_of_information(cell: XCell) -> InformationValue:
    """Product-form welfare gain of (x, z)-conditional rational choice over
    the optimal x mandate. When the mandate is B the treatment roles swap
    symmetrically; when no cell beats the mandate, all components are 0."""
    mandated = optimal_mandate_x(cell).treatment
    other = TREATMENT_B if mandated == TREATMENT_A else TREATMENT_A
    p_better = 0.0
    weighted_gain = 0.0
    for z in cell.z_cells:
        eu_m = expected_outcome_utility(z.p_xz, cell.utilities, mandated)
        eu_o = expected_outcome_utility(z.p_xz, cell.utilities, other)
        if eu_o > eu_m:
            p_better += z.p_z_given_x
            weighted_gain += z.p_z_given_x * (eu_o - eu_m)
    if p_better == 0.0:
        return InformationValue(voi=0.0, p_better=0.0, mean_gain=0.0)
    mean_gain = weighted_gain / p_better
    return InformationValue(
        voi=p_better * mean_gain, p_better=p_better, mean_gain=mean_gain
    )


def threshold_probability(u: OutcomeUtilities) -> float:
    """Outcome probability at which both treatments have equal expected
    utility, defined when each treatment is strictly best for one outcome:

        p* = [u(0,A) - u(0,B)] / ([u(0,A) - u(0,B)] + [u(1,B) - u(1,A)])

    Guaranteed interior: 0 < p* < 1. A is optimal iff p <= p*, B iff p >= p*.
    """
    if not u.treatments_opposed:
        raise ValueError(
            "threshold undefined: need u(0,A) > u(0,B) and u(1,B) > u(1,A)"
        )
    d0 = float(u.values[0, 0] - u.values[0, 1])
    d1 = float(u.values[1, 1] - u.values[1, 0])
    return d0 / (d0 + d1)


def subjective_choice(pi: float, u: OutcomeUtilities) -> str:
    """Treatment maximizing expected utility under subjective probability pi
    (tie goes to A)."""
    pi = float(pi)
    if not (0.0 <= pi <= 1.0):
        raise ValueError("pi must lie in [0, 1]")
    eu_a = expected_outcome_utility(pi, u, TREATMENT_A)
    eu_b = expected_outcome_utility(pi, u, TREATMENT_B)
    return TREATMENT_A if eu_a >= eu_b else TREATMENT_B


def belief_choice_prob(cell: CovariateCell, u: OutcomeUtilities) -> float:
    """Probability q that a subjective-expected-utility choice drawn from the
    cell's belief distribution matches the objectively optimal treatment.

    Uses closed-form CDF evaluation (the subjective A-region is an interval
    because subjective expected utility is linear in pi); belief mass exactly
    on the indifference point is attributed to A. When the cell's objective
    probability sits exactly on the indifference point both treatments are
    optimal and q = 1 by definition.
    """
    if cell.belief is None:
        raise ValueError(f"z cell {cell.z_label!r} has no belief model")
    d0 = float(u.values[0, 0] - u.values[0, 1])  # u(0,A) - u(0,B)
    d1 = float(u.values[1, 0] - u.values[1, 1])  # u(1,A) - u(1,B)

    # EU_A(p) - EU_B(p) is linear in p: d0 + p * (d1 - d0).
    gap_objective = d0 + cell.p_xz * (d1 - d0)
    if gap_objective == 0.0:
        return 1.0
    optimal_is_a = gap_objective > 0.0

    slope = d1 - d0
    if slope == 0.0:
        # Subjective choice ignores pi entirely and matches the objective
        # sign, so it is always optimal.
        return 1.0
    root = -d0 / slope
    if slope < 0.0:
        p_choose_a = cell.belief.prob_le(root)
    else:
        p_choose_a = 1.0 - cell.belief.prob_lt(root)
    return p_choose_a if optimal_is_a else 1.0 - p_choose_a


def bounded_rational_welfare_x(cell: XCell, q_map: Mapping[str, float]) -> float:
    """Decentralized welfare when a fraction q_xz of each z cell makes the
    objectively optimal choice and the rest take the other treatment."""
    welfare = 0.0
    for z in cell.z_cells:
        try:
            q = float(q_map[z.z_label])
        except KeyError:
            raise ValueError(f"q_map missing z cell {z.z_label!r}") from None
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"q for z cell {z.z_label!r} must lie in [0, 1]")
        eu_a = expected_outcome_utility(z.p_xz, cell.utilities, TREATMENT_A)
        eu_b = expected_outcome_utility(z.p_xz, cell.utilities, TREATMENT_B)
        eu_opt, eu_other = (eu_a, eu_b) if eu_a >= eu_b else (eu_b, eu_a)
        welfare += z.p_z_given_x * (q * eu_opt + (1.0 - q) * eu_other)
    return welfare


def belief_q_map(cell: XCell) -> dict[str, float]:
    """belief_choice_prob for every z cell, keyed by z label."""
    return {
        z.z_label: belief_choice_prob(z, cell.utilities) for z in cell.z_cells
    }


def _recommendation(mandate_welfare: float, bounded_welfare: float) -> str:
    """'mandate' only when the mandate strictly beats bounded-rational
    decentralization; a tie goes to 'decentralize', the less restrictive
    policy."""
    return "mandate" if mandate_welfare > bounded_welfare else "decentralize"


def compare_policies_x(cell: XCell) -> str:
    """'mandate' when the optimal mandate strictly beats bounded-rational
    decentralization (with q from the cell's beliefs); 'decentralize'
    otherwise, including ties (the less restrictive policy)."""
    mandate_welfare = optimal_mandate_x(cell).welfare
    decentralized = bounded_rational_welfare_x(cell, belief_q_map(cell))
    return _recommendation(mandate_welfare, decentralized)


@dataclass(frozen=True)
class XReport:
    """Full analysis of one public cell."""

    x_label: str
    weight: float
    mandate_treatment: str
    mandate_welfare: float
    decentralized_welfare: float
    z_a: tuple[str, ...]
    z_b: tuple[str, ...]
    information_value: InformationValue
    q_by_z: tuple[tuple[str, float], ...]
    bounded_rational_welfare: float
    recommendation: str


@dataclass(frozen=True)
class TreatmentReport:
    """Per-x analyses plus the welfare of following each cell's
    recommendation, aggregated over x."""

    per_x: tuple[XReport, ...]
    aggregate_welfare: float


def build_report(scenario: TreatmentScenario) -> TreatmentReport:
    """Analyze every x cell; requires beliefs on every z cell."""
    reports = []
    aggregate = 0.0
    for cell in scenario.x_cells:
        mandate = optimal_mandate_x(cell)
        decentralized = optimal_decentralized_x(cell)
        info = value_of_information(cell)
        q_map = belief_q_map(cell)
        bounded = bounded_rational_welfare_x(cell, q_map)
        recommendation = _recommendation(mandate.welfare, bounded)
        reports.append(
            XReport(
                x_label=cell.x_label,
                weight=cell.weight,
                mandate_treatment=mandate.treatment,
                mandate_welfare=mandate.welfare,
                decentralized_welfare=decentralized.welfare,
                z_a=decentralized.z_a,
                z_b=decentralized.z_b,
                information_value=info,
                q_by_z=tuple(sorted(q_map.items())),
                bounded_rational_welfare=bounded,
                recommendation=recommendation,
            )
        )
        aggregate += cell.weight * (
            mandate.welfare if recommendation == "mandate" else bounded
        )
    return TreatmentReport(per_x=tuple(reports), aggregate_welfare=aggregate)
