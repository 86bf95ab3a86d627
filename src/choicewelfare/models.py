"""Behavior models producing conditional choice probabilities.

Each model maps (utility vector, available action subset) to a probability
vector over the available actions: deterministic maximization, utility-blind
probability tables, the alpha mixture of the two, analytic multinomial logit,
an additive-error random-utility model estimated by seeded Monte Carlo, and a
default-option wrapper that subtracts an as-if cost from every non-default
action before delegating to its base model.

Ties in maximization (exact score equality) always resolve to the lowest
action index, both analytically and inside Monte Carlo draws, so results are
reproducible.

Monte Carlo draws are common random numbers. For each (seed, stream) the
random-utility model draws one (samples x n_actions) error matrix over the
full action set, and column i is action i's error in every draw. A subset's
choice in draw r is the first argmax of u + E[r] over the subset's columns,
so an action keeps its error whichever other actions are available, and
removing an action can only move its wins to the others. `mc_scores` returns
the per-type score matrix u + E, from which a caller can tally every subset.
"""

from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np
from numpy.typing import NDArray

from ._kernels import argmax_tally
from .scenario import _fields_equal, _frozen_array

PROB_SUM_TOL = 1e-12


def _validate_prob_vector(probs, name: str) -> NDArray[np.float64]:
    probs = _frozen_array(probs)
    if probs.ndim != 1 or probs.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty 1-d vector")
    if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
        raise ValueError(f"{name} entries must be finite and non-negative")
    if abs(float(probs.sum()) - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"{name} must sum to 1 within {PROB_SUM_TOL}")
    return probs


# --- error distributions for the random-utility model ---


@dataclass(frozen=True)
class GumbelIID:
    """Standard type-1 extreme value errors scaled by `scale` (= 1/q).

    With these errors the random-utility model coincides analytically with
    Logit(q=1/scale); the Monte Carlo path exists to validate that identity
    and to mirror the general mechanism.
    """

    scale: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError("scale must be strictly positive and finite")


@dataclass(frozen=True)
class UniformBoundedIID:
    """Errors uniform on [-delta, +delta] (bounded support half-width delta)."""

    delta: float

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError("delta must be strictly positive and finite")


@dataclass(frozen=True)
class NormalIID:
    """Mean-zero normal errors with standard deviation sigma."""

    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be strictly positive and finite")


ErrorSpec = Union[GumbelIID, UniformBoundedIID, NormalIID]


# --- choice models ---


@dataclass(frozen=True)
class RationalMax:
    """Deterministic maximization of true utility."""


@dataclass(frozen=True, eq=False)
class IndependentTable:
    """Choice statistically independent of utility: fixed background probs
    over the full action set, renormalized over whatever is available."""

    probs: NDArray[np.float64]

    def __post_init__(self):
        object.__setattr__(
            self, "probs", _validate_prob_vector(self.probs, "background probs")
        )

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class AlphaRational:
    """Maximizes utility with probability alpha, otherwise chooses from a
    utility-independent background table."""

    alpha: float
    background: NDArray[np.float64]

    def __post_init__(self):
        alpha = float(self.alpha)
        if not (np.isfinite(alpha) and 0.0 <= alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(
            self,
            "background",
            _validate_prob_vector(self.background, "background probs"),
        )

    __eq__ = _fields_equal


@dataclass(frozen=True)
class Logit:
    """Multinomial logit with degree-of-rationality q >= 0.

    q = 0 is uniform choice over the available set; q -> infinity approaches
    exact maximization.
    """

    q: float

    def __post_init__(self):
        q = float(self.q)
        if not (np.isfinite(q) and q >= 0.0):
            raise ValueError("q must be finite and >= 0")
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class RandomUtilityMC:
    """Choice maximizes utility plus IID additive error, estimated from
    `samples` seeded draws.

    The draws are common random numbers: for stream t (the type index in
    population evaluation) the model draws one (samples x n_actions) error
    matrix over the full action set, and every available subset is tallied
    on the columns of its own actions. Full-set probabilities use that matrix
    whole.
    """

    error: ErrorSpec
    samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.error, (GumbelIID, UniformBoundedIID, NormalIID)):
            raise ValueError("error must be an ErrorSpec instance")
        samples = int(self.samples)
        if samples < 1:
            raise ValueError("samples must be >= 1")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class DefaultNudge:
    """Default-option policy: every non-default action is charged an as-if
    cost gamma before the base model chooses. Whether any part of gamma is a
    real utility loss is a welfare-side question (see the evaluation op's
    normative-share parameter), not a choice-side one."""

    default_action: int
    gamma: float
    base: "ChoiceModel"

    def __post_init__(self):
        gamma = float(self.gamma)
        if not (np.isfinite(gamma) and gamma >= 0.0):
            raise ValueError("gamma must be finite and >= 0")
        if isinstance(self.base, DefaultNudge):
            raise ValueError("nudge base must not itself be a DefaultNudge")
        if not isinstance(
            self.base,
            (RationalMax, IndependentTable, AlphaRational, Logit, RandomUtilityMC),
        ):
            raise ValueError("base must be a ChoiceModel")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "default_action", int(self.default_action))


ChoiceModel = Union[
    RationalMax, IndependentTable, AlphaRational, Logit, RandomUtilityMC, DefaultNudge
]


@dataclass(frozen=True, eq=False)
class ChoiceProbabilities:
    """Probability vector aligned with an ordered available-action subset."""

    available: tuple[int, ...]
    probs: NDArray[np.float64]

    def __post_init__(self):
        probs = _frozen_array(self.probs)
        available = tuple(int(i) for i in self.available)
        if probs.ndim != 1 or probs.shape[0] != len(available):
            raise ValueError("probs length must match available")
        if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
            raise ValueError("probs must be finite and non-negative")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError("probs must sum to 1 within 1e-9")
        object.__setattr__(self, "available", available)
        object.__setattr__(self, "probs", probs)

    __eq__ = _fields_equal

    def to_full(self, n_actions: int) -> NDArray[np.float64]:
        """Length-n_actions vector with zeros on unavailable actions."""
        full = np.zeros(n_actions)
        full[list(self.available)] = self.probs
        return full


def _validate_available(available: Iterable[int], n_actions: int) -> tuple[int, ...]:
    indices = tuple(int(i) for i in available)
    if len(indices) == 0:
        raise ValueError("available action subset must be non-empty")
    if len(set(indices)) != len(indices):
        raise ValueError("available action indices must be unique")
    for i in indices:
        if i < 0 or i >= n_actions:
            raise ValueError(
                f"action index {i} out of range for {n_actions} actions"
            )
    return tuple(sorted(indices))


def _normalize_seed(seed: int) -> int:
    # 64-bit contract; negative seeds wrap like two's complement.
    return int(seed) & 0xFFFFFFFFFFFFFFFF


def _draw_errors(
    spec: ErrorSpec, count: int, n_actions: int, rng: np.random.Generator
) -> NDArray[np.float64]:
    shape = (count, n_actions)
    if isinstance(spec, GumbelIID):
        # Inverse-CDF transform of uniforms; the clip guards the measure-zero
        # U=0 draw that would produce -inf.
        u = rng.random(shape)
        np.clip(u, np.finfo(np.float64).tiny, None, out=u)
        return spec.scale * -np.log(-np.log(u))
    if isinstance(spec, UniformBoundedIID):
        return rng.uniform(-spec.delta, spec.delta, shape)
    if isinstance(spec, NormalIID):
        return spec.sigma * rng.standard_normal(shape)
    raise ValueError(f"unknown error spec {spec!r}")


def sample_errors(
    spec: ErrorSpec, count: int, n_actions: int, seed: int
) -> NDArray[np.float64]:
    """Deterministic (count x n_actions) error draws for a given seed.

    Entries are IID across rows and columns. Gumbel draws use the inverse CDF
    -log(-log(U)).
    """
    if int(count) < 1:
        raise ValueError("count must be >= 1")
    if int(n_actions) < 1:
        raise ValueError("n_actions must be >= 1")
    rng = np.random.default_rng(_normalize_seed(seed))
    return _draw_errors(spec, int(count), int(n_actions), rng)


def _mc_stream_rng(seed: int, stream: int) -> np.random.Generator:
    # Stream derivation keeps per-type draws independent of evaluation order:
    # (seed, type index) fully determines the draws.
    ss = np.random.SeedSequence(entropy=_normalize_seed(seed), spawn_key=(int(stream),))
    return np.random.default_rng(ss)


def choice_probabilities(
    utilities,
    available: Iterable[int],
    model: ChoiceModel,
    *,
    stream: int = 0,
) -> ChoiceProbabilities:
    """Conditional choice probabilities over the available actions.

    `utilities` covers the full action set; `available` selects a non-empty
    subset (returned in ascending index order). `stream` is a reproducibility
    sub-key for Monte Carlo models: population evaluation passes the type
    index so per-type draws do not depend on scheduling. A Monte Carlo model
    draws the stream's (samples x n_actions) errors over the full action set
    and tallies the argmax of utility plus error over the available columns
    only, so each error belongs to an action, not to a position in the
    subset.
    """
    utilities = np.asarray(utilities, dtype=np.float64)
    if utilities.ndim != 1:
        raise ValueError("utilities must be a 1-d vector")
    if not np.all(np.isfinite(utilities)):
        raise ValueError("utilities must be finite")
    avail = _validate_available(available, utilities.shape[0])
    u_sub = utilities[list(avail)]
    k = len(avail)

    if isinstance(model, RationalMax):
        probs = np.zeros(k)
        probs[int(np.argmax(u_sub))] = 1.0
        return ChoiceProbabilities(available=avail, probs=probs)

    if isinstance(model, IndependentTable):
        return ChoiceProbabilities(
            available=avail, probs=_renormalized_table(model.probs, avail, utilities)
        )

    if isinstance(model, AlphaRational):
        rational = np.zeros(k)
        rational[int(np.argmax(u_sub))] = 1.0
        table = _renormalized_table(model.background, avail, utilities)
        probs = model.alpha * rational + (1.0 - model.alpha) * table
        return ChoiceProbabilities(available=avail, probs=probs)

    if isinstance(model, Logit):
        z = model.q * u_sub
        z = z - z.max()  # max-subtraction: no overflow even at q = 1e6
        e = np.exp(z)
        return ChoiceProbabilities(available=avail, probs=e / e.sum())

    if isinstance(model, DefaultNudge):
        return choice_probabilities(
            _nudged(utilities, model), avail, model.base, stream=stream
        )

    if isinstance(model, RandomUtilityMC):
        errors = _mc_errors(model, utilities.shape[0], stream)
        counts = argmax_tally(u_sub, errors[:, list(avail)])
        return ChoiceProbabilities(available=avail, probs=counts / model.samples)

    raise ValueError(f"unknown choice model {model!r}")


def mc_scores(
    utilities: NDArray[np.float64], model: ChoiceModel, *, stream: int = 0
) -> Optional[NDArray[np.float64]]:
    """The (samples x n_actions) scores u + E a Monte Carlo model maximizes
    for one type, or None when `model` does not choose by Monte Carlo.

    `utilities` is the type's finite full-set vector. A DefaultNudge over a
    random-utility model scores the nudge-shifted utilities. For every
    available subset S, the first argmax of each row over S's columns is the
    choice `choice_probabilities(utilities, S, model, stream=stream)`
    tallies, so one score matrix serves every subset.
    """
    if isinstance(model, DefaultNudge):
        return mc_scores(_nudged(utilities, model), model.base, stream=stream)
    if isinstance(model, RandomUtilityMC):
        return utilities + _mc_errors(model, utilities.shape[0], stream)
    return None


def _nudged(utilities, model: DefaultNudge) -> NDArray[np.float64]:
    # The utilities the base model chooses by: gamma off every non-default.
    shifted = np.array(utilities, dtype=np.float64)
    if not 0 <= model.default_action < shifted.shape[0]:
        raise ValueError(
            f"default action index {model.default_action} out of range for "
            f"{shifted.shape[0]} actions"
        )
    shifted[np.arange(shifted.shape[0]) != model.default_action] -= model.gamma
    return shifted


def _mc_errors(
    model: RandomUtilityMC, n_actions: int, stream: int
) -> NDArray[np.float64]:
    # The stream's common random numbers; column i is action i's error.
    rng = _mc_stream_rng(model.seed, stream)
    return _draw_errors(model.error, model.samples, n_actions, rng)


def _renormalized_table(background, avail, utilities) -> NDArray[np.float64]:
    background = np.asarray(background, dtype=np.float64)
    if background.shape != utilities.shape:
        raise ValueError(
            "background probability vector must cover the full action set"
        )
    mass = background[list(avail)]
    total = float(mass.sum())
    if total <= 0.0:
        raise ValueError(
            "background table has zero probability mass on the available set"
        )
    return mass / total


def binary_scaled_choice_prob(utilities, base_errors, q: float) -> float:
    """Probability that the better of two actions is chosen when utility is
    mismeasured as u + error/q, on fixed common-random-number draws.

    Because the draws are fixed, the returned probability is non-decreasing
    in q sample-by-sample: each draw's better-action indicator is a threshold
    comparison against q * (utility gap), and the threshold is monotone in q.
    Ties in both true utility and mismeasured score go to the lower index.
    """
    utilities = np.asarray(utilities, dtype=np.float64)
    if utilities.shape != (2,):
        raise ValueError("exactly 2 actions required")
    if not np.all(np.isfinite(utilities)):
        raise ValueError("utilities must be finite")
    base_errors = np.asarray(base_errors, dtype=np.float64)
    if base_errors.ndim != 2 or base_errors.shape[1] != 2:
        raise ValueError("base_errors must have exactly 2 columns")
    q = float(q)
    if not (np.isfinite(q) and q > 0.0):
        raise ValueError("q must be finite and > 0")

    better = 0 if utilities[0] >= utilities[1] else 1
    other = 1 - better
    diffs = base_errors[:, other] - base_errors[:, better]
    threshold = q * (utilities[better] - utilities[other])
    # Better action wins a mismeasured tie only when it has the lower index.
    wins = diffs < threshold if better == 1 else diffs <= threshold
    return np.count_nonzero(wins) / base_errors.shape[0]
