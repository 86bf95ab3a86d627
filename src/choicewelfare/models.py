"""Behavior models producing conditional choice probabilities.

Each model maps (utility vector, available action subset) to a probability
vector over the available actions: deterministic maximization, utility-blind
probability tables, the alpha mixture of the two, analytic multinomial logit,
an additive-error random-utility model estimated by seeded Monte Carlo, and a
default-option wrapper that subtracts an as-if cost from every non-default
action before delegating to its base model.

Each model's arithmetic is written once, in `block_choice_probabilities`,
for a block of types and groups of equal-size subsets at once;
`choice_probabilities` is one type and one subset of it.

Ties in maximization (exact score equality) always resolve to the lowest
action index, both analytically and inside Monte Carlo draws, so results are
reproducible.

Monte Carlo draws are common random numbers. For each (seed, stream) the
random-utility model draws one (samples x n_actions) error matrix over the
full action set, and column i is action i's error in every draw. A subset's
choice in draw r is the first argmax of u + E[r] over the subset's columns,
so an action keeps its error whichever other actions are available, and
removing an action can only move its wins to the others, which lets one
count table per type give every subset's choices.
"""

from dataclasses import dataclass
from typing import Iterable, Optional, Union, get_args

import numpy as np
from numpy.typing import NDArray

from ._kernels import argmax_tally
from .scenario import (
    _distinct, _fields_equal, _frozen_array, _index, _non_empty, _one_per, _real,
    _unit_sum, _vector, _whole_number,
)


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
        object.__setattr__(self, "scale", _real(self.scale, "scale", "> 0"))


@dataclass(frozen=True)
class UniformBoundedIID:
    """Errors uniform on [-delta, +delta] (bounded support half-width delta)."""

    delta: float

    def __post_init__(self):
        object.__setattr__(self, "delta", _real(self.delta, "delta", "> 0"))


@dataclass(frozen=True)
class NormalIID:
    """Mean-zero normal errors with standard deviation sigma."""

    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "sigma", _real(self.sigma, "sigma", "> 0"))


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
        probs = _vector(self.probs, "probs", ">= 0")
        _unit_sum(probs, "probs")
        object.__setattr__(self, "probs", probs)

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class AlphaRational:
    """Maximizes utility with probability alpha, otherwise chooses from a
    utility-independent background table."""

    alpha: float
    background: NDArray[np.float64]

    def __post_init__(self):
        object.__setattr__(self, "alpha", _real(self.alpha, "alpha", "[0, 1]"))
        background = _vector(self.background, "background", ">= 0")
        _unit_sum(background, "background")
        object.__setattr__(self, "background", background)

    __eq__ = _fields_equal


@dataclass(frozen=True)
class Logit:
    """Multinomial logit with degree-of-rationality q >= 0.

    q = 0 is uniform choice over the available set; q -> infinity approaches
    exact maximization.
    """

    q: float

    def __post_init__(self):
        object.__setattr__(self, "q", _real(self.q, "q", ">= 0"))


@dataclass(frozen=True)
class MCConfig:
    """Sample count and seed of a Monte Carlo choice model. A scenario's mc
    section holds the values its models take when they omit them."""

    samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        samples = _whole_number(self.samples, "samples")
        if samples < 1:
            raise ValueError("samples must be >= 1")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", _whole_number(self.seed, "seed"))


@dataclass(frozen=True)
class RandomUtilityMC:
    """Choice maximizes utility plus IID additive error, estimated from
    `samples` seeded draws; `samples` and `seed` follow MCConfig's defaults
    and rules.

    The draws are common random numbers: one (samples x n_actions) error
    matrix per stream (the type index), as the module docstring describes.
    """

    error: ErrorSpec
    samples: int = MCConfig.samples
    seed: int = MCConfig.seed

    def __post_init__(self):
        if not isinstance(self.error, get_args(ErrorSpec)):
            raise ValueError("error must be an ErrorSpec instance")
        config = MCConfig(self.samples, self.seed)
        object.__setattr__(self, "samples", config.samples)
        object.__setattr__(self, "seed", config.seed)


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
        gamma = _real(self.gamma, "gamma", ">= 0")
        if isinstance(self.base, DefaultNudge):
            raise ValueError("nudge base must not itself be a DefaultNudge")
        if not isinstance(self.base, get_args(ChoiceModel)):
            raise ValueError("base must be a ChoiceModel")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(
            self, "default_action", _whole_number(self.default_action, "default_action")
        )


ChoiceModel = Union[
    RationalMax, IndependentTable, AlphaRational, Logit, RandomUtilityMC, DefaultNudge
]


@dataclass(frozen=True, eq=False)
class ChoiceProbabilities:
    """Probability vector aligned with an ordered available-action subset."""

    available: tuple[int, ...]
    probs: NDArray[np.float64]

    def __post_init__(self):
        probs = _vector(self.probs, "probs", ">= 0")
        available = tuple(_whole_number(i, "action index") for i in self.available)
        _one_per(probs, "probs", len(available), "available action")
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


def _validate_available(
    available: Optional[Iterable[int]], n_actions: int
) -> tuple[int, ...]:
    """`available` as ascending indices; None stands for every action."""
    if available is None:
        return tuple(range(n_actions))
    indices = _non_empty(
        (_index(i, "action index", n_actions) for i in available), "available"
    )
    _distinct(indices, "available")
    return tuple(sorted(indices))


def _check_fit(model: ChoiceModel, n_actions: int) -> None:
    """Refuse a model that does not fit n_actions actions: a table needs one
    entry per action, a nudge's default an index in [0, n_actions)."""
    prefix = ""
    if isinstance(model, DefaultNudge):
        _index(model.default_action, "default_action", n_actions)
        model, prefix = model.base, "base."
    if isinstance(model, IndependentTable):
        _one_per(model.probs, f"{prefix}probs", n_actions, "action")
    elif isinstance(model, AlphaRational):
        _one_per(model.background, f"{prefix}background", n_actions, "action")


def _normalize_seed(seed: int) -> int:
    # 64-bit contract; negative seeds wrap like two's complement.
    return _whole_number(seed, "seed") & 0xFFFFFFFFFFFFFFFF


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
    count = _whole_number(count, "count")
    n_actions = _whole_number(n_actions, "n_actions")
    if count < 1:
        raise ValueError("count must be >= 1")
    if n_actions < 1:
        raise ValueError("n_actions must be >= 1")
    rng = np.random.default_rng(_normalize_seed(seed))
    return _draw_errors(spec, count, n_actions, rng)


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
    index so per-type draws do not depend on scheduling (the module docstring
    describes the draws). A subset on which the model leaves choice undefined
    raises ValueError.
    """
    utilities = _vector(utilities, "utilities")
    avail = _validate_available(available, utilities.shape[0])
    one_subset = [np.array([avail])]
    stream = _whole_number(stream, "stream")
    if stream < 0:
        raise ValueError(f"stream must be >= 0, got {stream!r}")
    streams = [stream]
    block = block_choice_probabilities(utilities[None], one_subset, model, streams)
    return ChoiceProbabilities(available=avail, probs=_defined(block[0][0, 0]))


def block_choice_probabilities(utilities, groups, model: ChoiceModel, streams):
    """One (B, G, s) probability array per (G, s) group of ascending subsets
    (rows of action indices), for the (B, k) full-set `utilities` of B types
    with Monte Carlo `streams`. [b, g, j] is type b's probability of choosing
    cols[g, j] from cols[g]; NaN where the model leaves choice undefined (a
    table with no mass on the subset). A Monte Carlo model tallies one subset
    on each type's draws, and more from each type's table of 2^k subsets.
    """
    _check_fit(model, utilities.shape[-1])
    if isinstance(model, DefaultNudge):
        # The utilities the base model chooses by: gamma off every non-default.
        charged = np.arange(utilities.shape[-1]) != model.default_action
        utilities = np.array(utilities, dtype=np.float64)
        utilities[..., charged] -= model.gamma
        model = model.base
    if isinstance(model, RandomUtilityMC):
        return _mc_block(utilities, groups, model, streams)
    out = []
    # Under Logit a gap u - max u past the float range rounds to -inf, whose
    # exponential is the 0 it stands for, so that overflow is no error. The
    # errstate is entered once per call, not per size group: optimize calls
    # this once per block of a few types.
    with np.errstate(over="ignore"):
        for cols in groups:
            # C order, unlike utilities[:, cols]: each row sums as a 1-D row does.
            u = np.take(utilities, cols, axis=-1)
            if isinstance(model, RationalMax):
                probs = _first_max(u)
            elif isinstance(model, IndependentTable):
                table = _renormalized_table(model.probs, cols)
                probs = np.broadcast_to(table, u.shape)
            elif isinstance(model, AlphaRational):
                table = _renormalized_table(model.background, cols)
                probs = model.alpha * _first_max(u) + (1.0 - model.alpha) * table
            elif isinstance(model, Logit) and model.q == 0.0:
                # exp(0 * gap) = 1 for every action, even where u - max u
                # overflows to -inf (0 * -inf would be NaN): the kernel's bits.
                probs = np.full(u.shape, 1.0 / u.shape[-1])
            elif isinstance(model, Logit):
                # The curve kernel's shift, q * (u - max u): its exponent is
                # at most 0 at any q, and each row has the kernel's bits.
                z = u - u.max(axis=-1, keepdims=True)
                z *= model.q
                np.exp(z, out=z)
                probs = z / z.sum(axis=-1, keepdims=True)
            else:
                raise ValueError(f"unknown choice model {model!r}")
            out.append(probs)
    return out


def _defined(probs: NDArray[np.float64]) -> NDArray[np.float64]:
    if np.isnan(probs).any():  # the block path's mark of an undefined choice
        raise ValueError("background table has zero probability mass on the "
                         "available set")
    return probs


def _first_max(u: NDArray[np.float64]) -> NDArray[np.float64]:
    # One-hot of the first maximum on the last axis: the lowest-index tie-break.
    return (np.arange(u.shape[-1]) == np.argmax(u, axis=-1)[..., None]).astype(float)


def _mc_errors(model: RandomUtilityMC, n_actions: int, stream: int):
    # The stream's common random numbers; column i is action i's error.
    # (seed, type index) fully determines them, whatever the evaluation order.
    rng = np.random.default_rng(
        np.random.SeedSequence(_normalize_seed(model.seed), spawn_key=(int(stream),))
    )
    return _draw_errors(model.error, model.samples, n_actions, rng)


def _mc_block(utilities, groups, model: RandomUtilityMC, streams):
    n = utilities.shape[1]
    if sum(len(cols) for cols in groups) == 1:
        cols = groups[0][0]
        counts = [
            argmax_tally(u[cols], _mc_errors(model, n, t)[:, cols])
            for u, t in zip(utilities, streams)
        ]
        return [(np.array(counts) / model.samples)[:, np.newaxis]]
    # One type's draws at a time: only the block's count tables are kept.
    shares = np.empty(utilities.shape + (1 << n,))
    for b, t in enumerate(streams):
        shares[b] = _beaten_tally(utilities[b] + _mc_errors(model, n, t))
    np.divide(_subset_sums(shares), model.samples, out=shares)
    full = (1 << n) - 1
    # Subset S chooses i in shares[:, i, full ^ mask(S)].
    return [
        shares[:, cols, (full ^ (1 << cols).sum(axis=1))[:, np.newaxis]]
        for cols in groups
    ]


def _beaten_tally(scores):
    """H[i, m]: rows of `scores` where exactly the columns in bitmask m beat
    column i: score more, or tie from a lower index (np.argmax's first max)."""
    n = scores.shape[1]
    order = np.argsort(-scores, axis=1, kind="stable")  # beaten after beaters
    bits = np.left_shift(1, order)
    keys = (order << n) | (np.bitwise_or.accumulate(bits, axis=1) ^ bits)
    return np.bincount(keys.ravel(), minlength=n << n).reshape(n, -1)


def _subset_sums(tables):
    """In place, tables[..., m] becomes the sum over all m' ⊆ m: from H, the
    rows where no column outside m beats i, so S picks i in F[i, full ^ S]."""
    for b in range(tables.shape[-1].bit_length() - 1):
        pairs = tables.reshape(tables.shape[:-1] + (-1, 2, 1 << b))
        pairs[..., 1, :] += pairs[..., 0, :]
    return tables


def _renormalized_table(background, cols) -> NDArray[np.float64]:
    # (G, s): the table renormalized over each subset, NaN where it has no mass.
    mass = background[cols]
    total = mass.sum(axis=-1, keepdims=True)
    return np.divide(mass, total, out=np.full(mass.shape, np.nan), where=total > 0.0)


def binary_scaled_choice_prob(utilities, base_errors, q: float) -> float:
    """Probability that the better of two actions is chosen when utility is
    mismeasured as u + error/q, on fixed common-random-number draws.

    Because the draws are fixed, the returned probability is non-decreasing
    in q sample-by-sample: each draw's better-action indicator is a threshold
    comparison against q * (utility gap), and the threshold is monotone in q.
    Ties in both true utility and mismeasured score go to the lower index.
    """
    utilities = _vector(utilities, "utilities")
    _one_per(utilities, "utilities", 2, "action")
    base_errors = _frozen_array(base_errors, "base_errors")
    if base_errors.ndim != 2 or base_errors.shape[1] != 2:
        raise ValueError("base_errors must have exactly 2 columns")
    q = _real(q, "q", "> 0")

    better = 0 if utilities[0] >= utilities[1] else 1
    other = 1 - better
    diffs = base_errors[:, other] - base_errors[:, better]
    threshold = q * (utilities[better] - utilities[other])
    # Better action wins a mismeasured tie only when it has the lower index.
    wins = diffs < threshold if better == 1 else diffs <= threshold
    return np.count_nonzero(wins) / base_errors.shape[0]
