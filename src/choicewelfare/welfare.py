"""Welfare evaluation engine.

Utilitarian welfare of a policy is the population-weighted mean of realized
utility: for each utility type, the choice-probability-weighted expected
utility of what gets chosen from the available set. Regret is the shortfall
from the idealized optimum (every person getting their personal best action
from the full set). The module also provides the closed forms and bounds
that hold for special behavior models, the analytic logit sensitivity
identities, and stochastic Pareto comparison for binary action sets.
"""

import enum
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .models import (
    AlphaRational,
    ChoiceModel,
    ChoiceProbabilities,
    DefaultNudge,
    Logit,
    UniformBoundedIID,
    _defined,
    _validate_available,
    block_choice_probabilities,
    choice_probabilities,
)
from .scenario import Population


@dataclass(frozen=True)
class PerTypeEvaluation:
    """Per-type slice of a policy evaluation.

    `value` is the type's conditional expected realized utility: choice
    probabilities dotted with realized utilities (net of any normative-share
    nudge penalty).
    """

    type_index: int
    probs: ChoiceProbabilities
    value: float


@dataclass(frozen=True)
class PolicyEvaluation:
    """Welfare, regret, and per-type breakdown for one (choice set, model)."""

    available: tuple[int, ...]
    welfare: float
    regret: float
    per_type: tuple[PerTypeEvaluation, ...]


@dataclass(frozen=True)
class MandateResult:
    """Best single mandated action within an available subset."""

    action: int
    welfare: float
    mandate_regret: float


@dataclass(frozen=True)
class LogitSensitivities:
    """Analytic q-derivatives for one type under logit choice.

    prob_derivs[i] = P_i * (u_i - v) with v the conditional expected chosen
    utility; welfare_deriv is the variance of chosen utility, hence >= 0.
    """

    prob_derivs: NDArray[np.float64]
    welfare_deriv: float


class ParetoVerdict(enum.Enum):
    S_SUPERIOR = "s_superior"
    S_PRIME_SUPERIOR = "s_prime_superior"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


def idealized_optimum(pop: Population) -> float:
    """E of the per-type maximal utility over the full action set."""
    matrix = pop.utility_matrix
    return float(np.sum(pop.weights * matrix.max(axis=1)))


def expected_utilities(pop: Population) -> NDArray[np.float64]:
    """Population-mean utility of each action (vector over the full set)."""
    matrix = pop.utility_matrix
    return np.sum(pop.weights[:, np.newaxis] * matrix, axis=0)


def optimal_mandate(
    pop: Population, available: Optional[Iterable[int]] = None
) -> MandateResult:
    """Best single action by population-mean utility; ties to lowest index.

    mandate_regret is measured against the full-set idealized optimum, so it
    equals the mandate-regret quantity when `available` is the full set.
    """
    avail = _resolve_available(pop, available)
    eu = expected_utilities(pop)
    sub = eu[list(avail)]
    pos = int(np.argmax(sub))
    welfare = float(sub[pos])
    return MandateResult(
        action=avail[pos],
        welfare=welfare,
        mandate_regret=idealized_optimum(pop) - welfare,
    )


def expected_value(probs, realized) -> NDArray[np.float64]:
    """Choice-probability-weighted realized utility over the last axis.

    One product, laid out in C order whatever the operands' layout, and one
    sum along each row, rather than a BLAS dot: each row of a block gets the
    bits of a 1-D call on that row, so block and per-type callers agree.
    """
    return np.multiply(probs, realized, order="C").sum(axis=-1)


def policy_welfare(
    pop: Population,
    available: Optional[Iterable[int]],
    model: ChoiceModel,
    eta: float = 0.0,
) -> PolicyEvaluation:
    """Evaluate a (choice set, behavior model) policy.

    welfare = sum over types of weight * sum_i realized_utility[i] * P[c=i].
    `eta` in [0, 1] applies only when `model` is a DefaultNudge: a fraction
    eta of the as-if cost gamma is treated as a real utility loss for every
    non-default choice (eta = 0, the default, makes gamma purely a mistake).
    """
    eta = float(eta)
    if not (0.0 <= eta <= 1.0):
        raise ValueError("eta must lie in [0, 1]")
    avail = _resolve_available(pop, available)
    cols = np.array(avail)
    matrix = pop.utility_matrix
    block = block_choice_probabilities(matrix, [cols[None]], model, range(pop.n_types))
    probs = _defined(block[0][:, 0])
    realized = matrix[:, cols]
    if eta > 0.0 and isinstance(model, DefaultNudge):
        realized[:, cols != model.default_action] -= eta * model.gamma
    values = expected_value(probs, realized)
    per_type = tuple(
        PerTypeEvaluation(t, ChoiceProbabilities(avail, row), float(value))
        for t, (row, value) in enumerate(zip(probs, values))
    )
    welfare = float(np.sum(pop.weights * values))
    return PolicyEvaluation(
        available=avail,
        welfare=welfare,
        regret=idealized_optimum(pop) - welfare,
        per_type=per_type,
    )


def alpha_welfare_closed_form(
    pop: Population, alpha: float, background
) -> float:
    """Closed form for the alpha-rational model over the full action set:
    alpha * E(max utility) + (1 - alpha) * sum_i p_i * E[u(i)].

    alpha and background are checked as AlphaRational checks them, and the
    background must also cover the full action set."""
    model = AlphaRational(alpha, background)
    if model.background.shape[0] != pop.n_actions:
        raise ValueError("background probs must cover the full action set")
    table_welfare = float(np.dot(model.background, expected_utilities(pop)))
    return model.alpha * idealized_optimum(pop) + (1.0 - model.alpha) * table_welfare


def bounded_error_welfare_bound(pop: Population, delta: float) -> float:
    """Welfare floor for decentralized choice when mismeasurement errors have
    support within [-delta, +delta]: idealized optimum minus 2*delta.

    delta is checked as UniformBoundedIID checks it."""
    delta = UniformBoundedIID(float(delta)).delta
    return idealized_optimum(pop) - 2.0 * delta


def mean_utility_bound(
    pop: Population, available: Optional[Iterable[int]] = None
) -> float:
    """Welfare floor under any IID-error random-utility model: the population
    mean of the unweighted average utility over the available set."""
    avail = _resolve_available(pop, available)
    matrix = pop.utility_matrix[:, list(avail)]
    return float(np.sum(pop.weights * matrix.mean(axis=1)))


def logit_sensitivities(
    utilities, available: Iterable[int], q: float
) -> LogitSensitivities:
    """Analytic q-derivatives of logit choice probabilities and of one type's
    conditional expected utility.

    The welfare derivative is computed in centered form
    sum_i P_i * (u_i - v)^2, which is algebraically the stated
    sum_i u_i^2 P_i - v^2 but cannot go negative in floating point. q is
    checked as Logit checks it.
    """
    utilities = np.asarray(utilities, dtype=np.float64)
    chosen = choice_probabilities(utilities, available, Logit(q=q))
    probs, u_sub = chosen.probs, utilities[list(chosen.available)]
    v = float(np.dot(probs, u_sub))
    centered = u_sub - v
    return LogitSensitivities(
        prob_derivs=probs * centered,
        welfare_deriv=float(np.dot(probs, centered**2)),
    )


def stochastic_pareto_compare_binary(
    pop: Population,
    probs_s: Sequence[ChoiceProbabilities],
    probs_s_prime: Sequence[ChoiceProbabilities],
) -> ParetoVerdict:
    """Stochastic Pareto comparison of two policies on a binary action set.

    Policy s is superior when, for every type that strictly prefers one
    action, s gives the preferred action at least as much probability as
    s-prime, strictly more for at least one type. Types indifferent between
    the two actions are ignored. (Every stored type has positive weight, so
    the positive-weight qualifier is automatic.)
    """
    if pop.n_actions != 2:
        raise ValueError("pareto comparison requires exactly 2 actions")
    if len(probs_s) != pop.n_types or len(probs_s_prime) != pop.n_types:
        raise ValueError("probability lists must align with population types")
    ge = True
    le = True
    strict_s = False
    strict_sp = False
    for typ, cp_s, cp_sp in zip(pop.types, probs_s, probs_s_prime):
        u = typ.utilities
        if u[0] == u[1]:
            continue
        better = 0 if u[0] > u[1] else 1
        p_s = float(cp_s.to_full(2)[better])
        p_sp = float(cp_sp.to_full(2)[better])
        if p_s > p_sp:
            strict_s = True
            le = False
        elif p_s < p_sp:
            strict_sp = True
            ge = False
    if ge and le:
        return ParetoVerdict.EQUIVALENT
    if ge and strict_s:
        return ParetoVerdict.S_SUPERIOR
    if le and strict_sp:
        return ParetoVerdict.S_PRIME_SUPERIOR
    return ParetoVerdict.INCOMPARABLE


def _resolve_available(
    pop: Population, available: Optional[Iterable[int]]
) -> tuple[int, ...]:
    if available is None:
        return tuple(range(pop.n_actions))
    return _validate_available(available, pop.n_actions)
