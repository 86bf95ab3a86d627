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

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np
from numpy.typing import NDArray

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


# --- regularized incomplete beta I_x(a, b), the CDF of a Beta(a, b) belief ---

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# B_2n / (2n (2n - 1)) for n = 1..8: the Stirling series of lgamma's remainder.
_STIRLING = (
    1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
    1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0,
)
# From this argument up the truncated series is exact to double precision.
_STIRLING_MIN = 8.0
# Near the mean the fraction's error grows like 1e-15 * sqrt(max(a, b)),
# 6e-11 at 1e10; from about 1e16, where a + 1 == a, it converges to wrong
# values (0.34 for I_x(1e30, 1e30) one ulp below 1/2, against 0.44), so
# larger parameters raise instead.
BETA_PARAM_MAX = 1e10
# Lentz's stand-in for a zero denominator, and its stopping rule: a step
# that changes the fraction by an ulp or two.
_LENTZ_TINY = 1e-300
_LENTZ_TOL = 3e-16


def _stirling_remainder(t: float) -> float:
    """lgamma(t) - ((t - 1/2) log t - t + log(2 pi) / 2), for t >= 8."""
    w = 1.0 / (t * t)
    s = 0.0
    for c in reversed(_STIRLING):
        s = s * w + c
    return s / t


def _log_beta_front(a: float, b: float, x: float, y: float) -> float:
    """log(x^a y^b / B(a, b)) with y = 1 - x.

    The smaller of x and y is exact, the other its rounded complement, so
    each log is taken from the exact one. When both parameters are at least
    8 the form is DiDonato & Morris's (TOMS 708, brcomp): with
    lam = a - (a + b) x, the two large logs collapse into
    a log1p(-lam / a) + b log1p(lam / b), and lgamma enters only through its
    Stirling remainder, so nothing of size a or b cancels.
    """
    if x <= y:
        log_x, log_y = math.log(x), math.log1p(-x)
    else:
        log_x, log_y = math.log1p(-y), math.log(y)
    lo, hi = min(a, b), max(a, b)
    if lo >= _STIRLING_MIN:
        total = a + b
        lam = a - total * x if x <= y else total * y - b
        # log(x / x0) and log(y / y0) about the mean x0 = a / (a + b); far
        # below it log1p would approach log1p(-1), so take the logs apart.
        e = -lam / a
        ax = a * (math.log1p(e) if e > -0.5 else log_x + math.log1p(b / a))
        e = lam / b
        by = b * (math.log1p(e) if e > -0.5 else log_y + math.log1p(a / b))
        return (
            ax + by + 0.5 * math.log(a / total * b) - _HALF_LOG_2PI
            - _stirling_remainder(a) - _stirling_remainder(b)
            + _stirling_remainder(total)
        )
    if hi >= _STIRLING_MIN:
        # lgamma(lo + hi) - lgamma(hi) from the Stirling form, exactly.
        total = lo + hi
        lgamma_ratio = (
            (hi - 0.5) * math.log1p(lo / hi) + lo * math.log(total) - lo
            + _stirling_remainder(total) - _stirling_remainder(hi)
        )
        return a * log_x + b * log_y + lgamma_ratio - math.lgamma(lo)
    return (
        a * log_x + b * log_y
        + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    )


def _beta_max_iter(a: float, b: float) -> int:
    # Near the mean the fraction needs about 5.6 * max(a, b) ** (1/3) terms,
    # and up to 63 for parameters below 100.
    return 200 + int(2.0 * math.sqrt(max(a, b)))


def _beta_fraction(a: float, b: float, x: float, y: float) -> Optional[float]:
    """I_x(a, b) from its continued fraction by the modified Lentz method
    (Press et al., Numerical Recipes, 3rd ed., 6.4), for
    x < (a + 1) / (a + b + 2); None when it does not converge."""
    total = a + b
    c = 1.0
    d = 1.0 - total * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _LENTZ_TINY else _LENTZ_TINY)
    h = d
    for m in range(1, _beta_max_iter(a, b) + 1):
        m2 = 2 * m
        for num in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (total + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _LENTZ_TINY else _LENTZ_TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _LENTZ_TINY else _LENTZ_TINY
            step = d * c
            h *= step
        if abs(step - 1.0) < _LENTZ_TOL:
            # x^a y^b / (a B(a, b)): dividing by a in the log keeps a
            # subnormal a from flushing the prefactor to zero.
            return math.exp(_log_beta_front(a, b, x, y) - math.log(a)) * h
    return None


def _beta_cdf_error(a: float, b: float, x: float, why: str) -> ArithmeticError:
    return ArithmeticError(
        f"regularized incomplete beta I_x(a, b) at a={a!r}, b={b!r}, x={x!r}: {why}"
    )


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b): P(pi <= x) for pi ~ Beta(a, b).

    Exactly 0 for x <= 0 and exactly 1 for x >= 1, infinities included.
    Above the mean the fraction runs on the mirror image,
    I_x(a, b) = 1 - I_{1-x}(b, a). Raises ArithmeticError, naming a, b and x,
    when a parameter exceeds BETA_PARAM_MAX or the fraction does not
    converge to a probability.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if max(a, b) > BETA_PARAM_MAX:
        raise _beta_cdf_error(
            a, b, x, f"parameters above {BETA_PARAM_MAX:g} lie outside the "
            "continued fraction's convergence domain"
        )
    y = 1.0 - x
    mirrored = x >= (a + 1.0) / (a + b + 2.0)
    value = _beta_fraction(b, a, y, x) if mirrored else _beta_fraction(a, b, x, y)
    # NaN fails the range test too.
    if value is None or not 0.0 <= value <= 1.0:
        raise _beta_cdf_error(
            a, b, x, "the continued fraction did not converge to a probability "
            f"within {_beta_max_iter(a, b)} iterations"
        )
    return 1.0 - value if mirrored else value


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
        # min and max give np.clip's bits, -0.0 and NaN included.
        return float(min(max((x - self.lo) / (self.hi - self.lo), 0.0), 1.0))

    prob_lt = prob_le  # continuous distribution: no atoms


@dataclass(frozen=True)
class BetaBelief:
    """Beta(a, b) subjective probabilities.

    prob_le is the regularized incomplete beta I_x(a, b), computed in plain
    floating point (`_beta_cdf`): the continued fraction of Numerical Recipes
    (Press et al., 3rd ed., 6.4) by the modified Lentz method, applied to
    I_{1-x}(b, a) above the mean, with the prefactor x^a (1-x)^b / B(a, b)
    in the Stirling-corrected form of DiDonato & Morris (ACM TOMS 708,
    1992) once both parameters reach 8. Against scipy.special.betainc it
    agrees to 1e-13 absolute for a, b in [0.05, 50] and to 1e-12 for a, b
    in [0.05, 1e4]; near the mean the error grows like
    1e-15 * sqrt(max(a, b)). prob_le raises ArithmeticError, naming a, b
    and x, when a parameter exceeds BETA_PARAM_MAX (1e10) or the fraction
    does not converge.
    """

    a: float
    b: float

    def __post_init__(self):
        a, b = float(self.a), float(self.b)
        if not (math.isfinite(a) and math.isfinite(b) and a > 0.0 and b > 0.0):
            raise ValueError("beta parameters must be positive and finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def prob_le(self, x: float) -> float:
        return _beta_cdf(self.a, self.b, float(x))

    prob_lt = prob_le


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

    # The weights sum to 1 only within PROB_SUM_TOL, so the weighted sum can
    # pass 1 (by 2.2e-16 for weights 0.7075074456958989, 0.2924925543041013),
    # and a choice probability 1 - P would then fall below 0.
    def prob_le(self, x: float) -> float:
        return min(
            1.0, sum(w * c.prob_le(x) for w, c in zip(self.weights, self.components))
        )

    def prob_lt(self, x: float) -> float:
        return min(
            1.0, sum(w * c.prob_lt(x) for w, c in zip(self.weights, self.components))
        )


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

    # Both counts are exact and the division rounds once, as in np.mean.
    def prob_le(self, x: float) -> float:
        return np.count_nonzero(self.samples <= x) / self.samples.shape[0]

    def prob_lt(self, x: float) -> float:
        return np.count_nonzero(self.samples < x) / self.samples.shape[0]


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
        if not (math.isfinite(p_z) and p_z > 0.0):
            raise ValueError("p_z_given_x must be strictly positive")
        if not (0.0 <= p <= 1.0):
            raise ValueError("p_xz must lie in [0, 1]")
        object.__setattr__(self, "z_label", str(self.z_label))
        object.__setattr__(self, "p_z_given_x", p_z)
        object.__setattr__(self, "p_xz", p)


@dataclass(frozen=True)
class XCell:
    """One public-covariate cell: outcome utilities plus its z cells.

    `_eu_pairs` holds (EU_A, EU_B) at each z cell's outcome probability, in
    z order, for the per-x operations to read.
    """

    x_label: str
    weight: float
    utilities: OutcomeUtilities
    z_cells: tuple[CovariateCell, ...]

    def __post_init__(self):
        weight = float(self.weight)
        if not (math.isfinite(weight) and weight > 0.0):
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
                # Past __post_init__ and the dataclass's generated __init__,
                # to the code that built the cell.
                stacklevel=3,
            )
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "x_label", str(self.x_label))
        object.__setattr__(self, "z_cells", z_cells)
        # expected_outcome_utility's expression on Python floats: its bits.
        (u0_a, u0_b), (u1_a, u1_b) = self.utilities.values.tolist()
        eus = tuple((z.p_xz * u1_a + (1.0 - z.p_xz) * u0_a,
                     z.p_xz * u1_b + (1.0 - z.p_xz) * u0_b) for z in z_cells)
        object.__setattr__(self, "_eu_pairs", eus)


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
    # P(z|x) sums to 1 only within PROB_SUM_TOL, so with every p_xz = 1 the
    # sum can round above 1 (to 1.0000000000000002 for shares 0.562..,
    # 0.221.., 0.216..), which no treatment's expected utility accepts.
    return min(1.0, float(sum(z.p_z_given_x * z.p_xz for z in cell.z_cells)))


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
    for z, (eu_a, eu_b) in zip(cell.z_cells, cell._eu_pairs):
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
    p_better = 0.0
    weighted_gain = 0.0
    for z, (eu_a, eu_b) in zip(cell.z_cells, cell._eu_pairs):
        eu_m, eu_o = (eu_a, eu_b) if mandated == TREATMENT_A else (eu_b, eu_a)
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
    return _indifference(u)[1]


def _indifference(u: OutcomeUtilities) -> tuple[float, float]:
    """(slope, root) of the gap EU_A(p) - EU_B(p) = d0 + slope * p, with
    d0 = u(0,A) - u(0,B).

    A is weakly better where p <= root when slope < 0, and where p >= root
    otherwise. For opposed treatments root is threshold_probability's p*,
    rounded once. A zero slope leaves the gap constant at d0; root is then
    -inf when A is weakly better everywhere and +inf when B is better.
    """
    (u0_a, u0_b), (u1_a, u1_b) = u.values.tolist()
    d0 = u0_a - u0_b
    slope = (u1_a - u1_b) - d0
    if slope == 0.0:
        return slope, -math.inf if d0 >= 0.0 else math.inf
    return slope, -d0 / slope


def subjective_choice(pi: float, u: OutcomeUtilities) -> str:
    """Treatment maximizing expected utility under subjective probability pi
    (tie goes to A).

    pi is compared with the indifference point of _indifference, the same
    once-rounded root belief_choice_prob reads, so the two agree on every pi
    however close it is to the root.
    """
    pi = float(pi)
    if not (0.0 <= pi <= 1.0):
        raise ValueError("pi must lie in [0, 1]")
    slope, root = _indifference(u)
    choose_a = pi <= root if slope < 0.0 else pi >= root
    return TREATMENT_A if choose_a else TREATMENT_B


def belief_choice_prob(cell: CovariateCell, u: OutcomeUtilities) -> float:
    """Probability q that a subjective-expected-utility choice drawn from the
    cell's belief distribution matches the objectively optimal treatment.

    Uses closed-form CDF evaluation (the subjective A-region is an interval
    because subjective expected utility is linear in pi); belief mass exactly
    on the indifference point is attributed to A. The objectively optimal
    treatment is decided as optimal_decentralized_x decides it, by comparing
    the two expected utilities at the cell's objective probability; when
    they are equal both treatments are optimal and q = 1 by definition.
    """
    eu_a = expected_outcome_utility(cell.p_xz, u, TREATMENT_A)
    eu_b = expected_outcome_utility(cell.p_xz, u, TREATMENT_B)
    return _choice_prob(cell, eu_a, eu_b, *_indifference(u))


def _choice_prob(
    cell: CovariateCell, eu_a: float, eu_b: float, slope: float, root: float
) -> float:
    # (slope, root) is _indifference of the cell's outcome utilities.
    if cell.belief is None:
        raise ValueError(f"z cell {cell.z_label!r} has no belief model")
    if eu_a == eu_b:
        return 1.0
    if slope == 0.0:
        # Subjective choice ignores pi entirely and matches the objective
        # sign, so it is always optimal.
        return 1.0
    if slope < 0.0:
        p_choose_a = cell.belief.prob_le(root)
    else:
        p_choose_a = 1.0 - cell.belief.prob_lt(root)
    return p_choose_a if eu_a > eu_b else 1.0 - p_choose_a


def bounded_rational_welfare_x(cell: XCell, q_map: Mapping[str, float]) -> float:
    """Decentralized welfare when a fraction q_xz of each z cell makes the
    objectively optimal choice and the rest take the other treatment."""
    welfare = 0.0
    for z, (eu_a, eu_b) in zip(cell.z_cells, cell._eu_pairs):
        try:
            q = float(q_map[z.z_label])
        except KeyError:
            raise ValueError(f"q_map missing z cell {z.z_label!r}") from None
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"q for z cell {z.z_label!r} must lie in [0, 1]")
        eu_opt, eu_other = (eu_a, eu_b) if eu_a >= eu_b else (eu_b, eu_a)
        welfare += z.p_z_given_x * (q * eu_opt + (1.0 - q) * eu_other)
    return welfare


def belief_q_map(cell: XCell) -> dict[str, float]:
    """belief_choice_prob for every z cell, keyed by z label."""
    slope, root = _indifference(cell.utilities)
    return {
        z.z_label: _choice_prob(z, eu_a, eu_b, slope, root)
        for z, (eu_a, eu_b) in zip(cell.z_cells, cell._eu_pairs)
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
    """Analyze every x cell; requires beliefs on every z cell.

    Each field is what its public function (optimal_mandate_x,
    optimal_decentralized_x, value_of_information, belief_q_map,
    bounded_rational_welfare_x) returns; each reads the (EU_A, EU_B) pairs
    that the x cell built when it was constructed.
    """
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
