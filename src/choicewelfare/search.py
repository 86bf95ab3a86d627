"""Choice-set enumeration, rationality sweeps, envelopes, and crossings.

Welfare of every non-empty subset of actions is evaluated on a grid of the
logit rationality parameter q; the outer envelope names the best subset at
each q. Because welfare orderings of subsets can reverse as q rises (and
reverse back), crossings of welfare curves are located for every subset pair:
one vectorised scan over blocks of pairs finds the sign changes on the grid,
and each is refined by a bracketed secant (Illinois) iteration that starts
from the two grid values. Crossing detection is quadratic in the number of
subsets, i.e. O(4^|actions|) pairs, and dominates the cost of a sweep:
nearly all of it is the refinement's one-q kernel calls, a few per crossing,
and the crossings grow with the pairs. Each further action therefore roughly
quadruples a sweep's time; with 50 types on 201 grid points, 9 actions give
130,305 pairs and 74,540 crossings. The |actions| <= 20 guard only bounds
subset enumeration; it does not keep sweeps that large feasible.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
from numpy.typing import NDArray

from ._kernels import _split_across_threads, _split_threads, logit_welfare_curve
from .models import (
    ChoiceModel,
    DefaultNudge,
    RandomUtilityMC,
    _validate_available,
    block_choice_probabilities,
)
from .scenario import ActionSet, Population, _fields_equal, _real, _vector
# policy_welfare is not called here: optimize_choice_set reproduces its welfare
# bit for bit, and perfbench/spans.py wraps the name as search.policy_welfare.
from .welfare import expected_value, policy_welfare  # noqa: F401

MAX_ACTIONS = 20

# |difference| at or below this is "touching", not a sign change.
TOUCH_TOL = 1e-12
REFINE_INTERVAL_TOL = 1e-6
REFINE_VALUE_TOL = 1e-8
# Iterations one crossing's refinement may take before it is reported as not
# converged; a smooth gap converges in about four.
REFINE_MAX_ITERATIONS = 100
# Elements (pairs x q values) per block of the sweep's sign scan: bounds the
# block's temporaries to a few 64 KiB arrays whatever the sweep size.
PAIR_CHUNK_ELEMENTS = 8192
# Counts (types x n x 2^n) in one block of the optimizer's types: 512 KiB.
TALLY_CHUNK_ELEMENTS = 65536


class RefinementError(ArithmeticError):
    """A crossing's refinement met neither tolerance within its iteration cap."""


class UtilitySpreadError(ValueError):
    """Two of a type's utilities on a swept subset are further apart than the
    largest float, so the logit curve cannot shift them by their maximum."""


@dataclass(frozen=True)
class SweepConfig:
    """An inclusive arithmetic q range: the one rule for the bounds and step
    of a sweep grid. The defaults bracket every crossing the bundled
    scenarios exhibit, with margin."""

    q_min: float = 0.0
    q_max: float = 10.0
    q_step: float = 0.05

    def __post_init__(self):
        q_min = _real(self.q_min, "q_min", ">= 0")
        q_max = _real(self.q_max, "q_max", "finite")
        q_step = _real(self.q_step, "q_step", "> 0")
        if q_max < q_min:
            raise ValueError("q_max must be >= q_min")
        # grid() holds the points in one float64 array, and numpy sizes no
        # array past intp's maximum in bytes: a longer or infinite range fails
        # there with a message that names none of the three values.
        if not (q_max - q_min) / q_step < np.iinfo(np.intp).max // 8:
            raise ValueError(
                f"q_min {q_min!r} to q_max {q_max!r} in steps of q_step "
                f"{q_step!r} makes too many grid points to hold"
            )
        object.__setattr__(self, "q_min", q_min)
        object.__setattr__(self, "q_max", q_max)
        object.__setattr__(self, "q_step", q_step)

    def grid(self) -> "SweepGrid":
        """The values q_min + i * q_step, i = 0, 1, ..., that are at most
        q_max."""
        n = int(np.floor((self.q_max - self.q_min) / self.q_step + 1e-9))
        values = self.q_min + self.q_step * np.arange(n + 1)
        if values[-1] > self.q_max:
            values = values[:-1]
        return SweepGrid(q_values=values)


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """Strictly increasing, finite, non-negative q values: the grid that
    sweep_logit and find_crossings take. SweepConfig(q_min, q_max,
    q_step).grid() builds one from a q range."""

    q_values: NDArray[np.float64]

    def __post_init__(self):
        q = _vector(self.q_values, "q_values", ">= 0")
        if q.shape[0] > 1 and np.any(np.diff(q) <= 0.0):
            raise ValueError("grid values must be strictly increasing")
        object.__setattr__(self, "q_values", q)

    __eq__ = _fields_equal


@dataclass(frozen=True)
class Crossing:
    """One located welfare crossing between two subsets."""

    subset_a: tuple[int, ...]
    subset_b: tuple[int, ...]
    q_star: float


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Welfare of every subset at every grid q, plus envelope and crossings.

    `welfare[s, qi]` is subset s's welfare at grid point qi; `envelope[qi]`
    is the index (into `subsets`) of the best subset there, ties broken
    toward the smaller subset then lexicographically (the enumeration order
    makes the first argmax exactly that).
    """

    grid: SweepGrid
    subsets: tuple[tuple[int, ...], ...]
    welfare: NDArray[np.float64]
    envelope: NDArray[np.int64]
    crossings: tuple[Crossing, ...]


def enumerate_choice_sets(actions: ActionSet) -> list[tuple[int, ...]]:
    """All 2^n - 1 non-empty subsets, ordered by size then lexicographically."""
    n = len(actions)
    if n > MAX_ACTIONS:
        raise ValueError(
            f"action set of size {n} exceeds the enumeration guard ({MAX_ACTIONS})"
        )
    out: list[tuple[int, ...]] = []
    for size in range(1, n + 1):
        out.extend(itertools.combinations(range(n), size))
    return out


def sweep_logit(pop: Population, grid: Optional[SweepGrid] = None) -> SweepResult:
    """Evaluate every subset under Logit(q) across the grid.

    The default grid is SweepConfig().grid(). Crossings are located for
    every unordered subset pair and listed pair by pair, in the order of
    itertools.combinations over `subsets`, each pair's in increasing q. The
    sign scan takes the pairs in blocks of about PAIR_CHUNK_ELEMENTS
    (pairs x q) differences, so its memory stays bounded.
    """
    if grid is None:
        grid = SweepConfig().grid()
    subsets = tuple(enumerate_choice_sets(pop.actions))
    welfare, crossings = _sweep(pop, subsets, grid.q_values)
    envelope = np.argmax(welfare, axis=0).astype(np.int64)
    welfare.setflags(write=False)
    envelope.setflags(write=False)
    return SweepResult(
        grid=grid,
        subsets=subsets,
        welfare=welfare,
        envelope=envelope,
        crossings=tuple(crossings),
    )


def find_crossings(
    pop: Population,
    subset_a: Iterable[int],
    subset_b: Iterable[int],
    grid: Optional[SweepGrid] = None,
) -> list[float]:
    """q values where the two subsets' welfare curves cross, in increasing
    order: the crossings sweep_logit reports for this pair, bit for bit.

    Each sign change of the difference between grid points is refined by a
    bracketed secant (Illinois) iteration from the two grid values, until the
    welfare gap at the reported point is at most 1e-8 and a sign change of
    the gap lies within 1e-6 of it. Refinement that meets neither within its
    iteration cap raises RefinementError. Grid points where the difference
    is within 1e-12 of zero count as touching, not crossing, unless the sign
    differs on the two flanking sides. Crossings that lie entirely between
    two grid points with equal signs are invisible at the grid resolution.
    """
    if grid is None:
        grid = SweepConfig().grid()
    pair = (
        _validate_available(subset_a, pop.n_actions),
        _validate_available(subset_b, pop.n_actions),
    )
    _, crossings = _sweep(pop, pair, grid.q_values)
    return [c.q_star for c in crossings]


def _sweep(pop: Population, subsets, qs) -> tuple[NDArray[np.float64], list[Crossing]]:
    """Each subset's welfare curve on the grid qs, and the refined crossings
    of every subset pair in itertools.combinations order.

    Runs each stage, _grid_curves and then _refine_crossings, once and by its
    module-level name, so a wrapper set on this module (perfbench's tracer
    patches module attributes) sees every call of both."""
    weights, matrix = pop.weights, pop.utility_matrix
    # q x gap past the float range rounds to -inf, whose exp is the right 0.
    # Refinement stays in the grid's q range, so only a sweep whose last q x
    # widest spread overflows sets the warning aside (None leaves it as is).
    overflows = float(qs[-1]) * _require_finite_gaps(pop, subsets) > np.finfo(float).max
    with np.errstate(over="ignore" if overflows else None):
        matrices = [np.ascontiguousarray(matrix[:, list(subset)]) for subset in subsets]
        welfare = _grid_curves(weights, matrices, qs)
        crossings = _refine_crossings(weights, matrices, subsets, qs, welfare)
    return welfare, crossings


def _grid_curves(weights, matrices, qs) -> NDArray[np.float64]:
    """The sweep's grid stage: a (subsets x Q) table whose row s is the
    logit welfare curve of the subset whose utility columns are matrices[s]."""
    welfare = np.empty((len(matrices), qs.shape[0]))
    for si, sub_matrix in enumerate(matrices):
        welfare[si] = logit_welfare_curve(weights, sub_matrix, qs)
    return welfare


def _refine_crossings(weights, matrices, subsets, qs, welfare) -> list[Crossing]:
    """The sweep's refinement stage: the sign changes of every subset pair's
    welfare difference on the grid, each refined by _illinois, listed in
    itertools.combinations order of the pairs and increasing q within one."""
    crossings = []
    # Row-major upper-triangle order is itertools.combinations order.
    pair_a, pair_b = np.triu_indices(len(subsets), k=1)
    chunk = max(1, PAIR_CHUNK_ELEMENTS // qs.shape[0])
    for start in range(0, pair_a.shape[0], chunk):
        rows_a = pair_a[start:start + chunk]
        rows_b = pair_b[start:start + chunk]
        diff = welfare[rows_a] - welfare[rows_b]
        for row, left, right in zip(*_sign_change_brackets(diff)):
            ia, ib = rows_a[row], rows_b[row]

            # The welfare gap at one q; refinement calls the kernel per q.
            def gap(q, matrix_a=matrices[ia], matrix_b=matrices[ib]) -> float:
                qarr = np.array([q])
                return float(
                    logit_welfare_curve(weights, matrix_a, qarr)[0]
                    - logit_welfare_curve(weights, matrix_b, qarr)[0]
                )

            q_star = _illinois(
                gap,
                float(qs[left]),
                float(qs[right]),
                float(diff[row, left]),
                float(diff[row, right]),
            )
            crossings.append(Crossing(subsets[ia], subsets[ib], q_star))
    return crossings


def _require_finite_gaps(pop: Population, subsets) -> float:
    """The curve kernel's precondition, checked once per sweep: on every
    subset, each type's utility gaps u - max u are finite. Otherwise raise
    UtilitySpreadError naming the first type and pair of actions too far
    apart (a gap of -inf would give NaN welfare at q = 0). Returns the
    widest spread, max u - min u, of a type over all its actions: a bound on
    every |gap| of the sweep."""
    matrix = pop.utility_matrix
    with np.errstate(over="ignore"):
        widest = float(np.ptp(matrix, axis=1).max())
        if math.isfinite(widest):
            return widest
        for subset in subsets:
            cols = matrix[:, list(subset)]
            far = np.flatnonzero(~np.isfinite(np.ptp(cols, axis=1)))
            if far.size:
                t = int(far[0])
                hi, lo = subset[int(np.argmax(cols[t]))], subset[int(np.argmin(cols[t]))]
                labels = pop.actions.labels
                raise UtilitySpreadError(
                    f"type {t}: utilities {float(matrix[t, hi])!r} (action "
                    f"{labels[hi]!r}) and {float(matrix[t, lo])!r} (action "
                    f"{labels[lo]!r}) are further apart than the largest float; "
                    "a logit sweep needs every utility gap finite"
                )
    return widest


def _sign_change_brackets(diff):
    """Grid brackets of the sign changes in each row of a 2-D block.

    Returns (rows, lefts, rights) index arrays, in row-major order. Entries
    with |diff| <= TOUCH_TOL count as touching (sign 0) and are skipped; a
    bracket is two consecutive nonzero entries of one row with opposite
    signs, so a touch between opposite signs is still bracketed.
    """
    signs = np.where(np.abs(diff) <= TOUCH_TOL, 0.0, np.sign(diff))
    rows, cols = np.nonzero(signs)
    nonzero = signs[rows, cols]
    change = np.nonzero((rows[1:] == rows[:-1]) & (nonzero[1:] != nonzero[:-1]))[0]
    return rows[change], cols[change], cols[change + 1]


def _illinois(gap, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """A root of gap in the bracket [lo, hi], whose end values differ in sign.

    Regula falsi steps, with the Illinois halving of the end value kept twice
    in a row, and bisection when a step does not land strictly inside the
    bracket. Returns q with |gap(q)| <= REFINE_VALUE_TOL and a sign change of
    gap within REFINE_INTERVAL_TOL of q. When the value tolerance is met but
    the opposite-signed end is further away, one probe half an interval
    tolerance toward it proves the sign change or narrows the bracket.
    """
    grid_lo, grid_hi = lo, hi
    kept = 0  # -1: the last step replaced lo, so hi was kept; +1: the reverse
    for _ in range(REFINE_MAX_ITERATIONS):
        q = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < q < hi:
            q = 0.5 * (lo + hi)
        f = gap(q)
        if f == 0.0:
            return q
        if abs(f) <= REFINE_VALUE_TOL:
            far = hi if (f > 0.0) == (f_lo > 0.0) else lo
            if abs(far - q) <= REFINE_INTERVAL_TOL:
                return q
            probe = q + math.copysign(0.5 * REFINE_INTERVAL_TOL, far - q)
            f_probe = gap(probe)
            if f_probe == 0.0 or (f_probe > 0.0) != (f > 0.0):
                return q
            q, f = probe, f_probe
        if (f > 0.0) == (f_lo > 0.0):
            lo, f_lo = q, f
            if kept == -1:
                f_hi *= 0.5
            kept = -1
        else:
            hi, f_hi = q, f
            if kept == 1:
                f_lo *= 0.5
            kept = 1
    raise RefinementError(
        f"crossing refinement in the grid bracket [{grid_lo!r}, {grid_hi!r}] "
        f"did not converge in {REFINE_MAX_ITERATIONS} iterations; it was "
        f"last narrowed to [{lo!r}, {hi!r}]"
    )


@dataclass(frozen=True)
class OptimizeResult:
    """Welfare-maximizing choice subset for a fixed behavior model."""

    subset: tuple[int, ...]
    welfare: float


def optimize_choice_set(pop: Population, model: ChoiceModel) -> OptimizeResult:
    """Exhaustive argmax of policy welfare over the non-empty subsets on which
    the model defines choice.

    Ties resolve to the first subset in (size, lexicographic) order; the
    welfare is exactly policy_welfare's for the winner. Each block of
    TALLY_CHUNK_ELEMENTS // (n x 2^n) types (n actions) gets the
    probabilities of every subset, grouped by size, from one
    block_choice_probabilities call (a Monte Carlo model's n x 2^n count
    table per type).

    With two actions or more, the blocks split across the CPUs the process
    may use as `_kernels._split_threads` decides, for work types x n x
    max(Monte Carlo samples, 2^n) over the types: the calling thread and
    helper threads each claim the next block of at most
    types // (2 x threads) types, one block in flight each. Every type's
    probabilities come from its own Monte Carlo stream or from arithmetic
    along its own rows, so the subset and the welfare bits are the same on
    any number of CPUs."""
    subsets, welfare = _subset_welfare(pop, model)
    best = int(np.argmax(np.where(np.isnan(welfare), -np.inf, welfare)))
    return OptimizeResult(subset=subsets[best], welfare=float(welfare[best]))


def _subset_welfare(pop: Population, model: ChoiceModel):
    """Every subset and its policy welfare (NaN where choice is undefined)."""
    subsets = enumerate_choice_sets(pop.actions)
    groups = [np.array(list(group)) for _, group in itertools.groupby(subsets, len)]
    matrix = pop.utility_matrix
    n_types = pop.n_types
    values = np.empty((len(subsets), n_types))
    n = pop.n_actions
    block = max(1, TALLY_CHUNK_ELEMENTS // (n << n))
    base = model.base if isinstance(model, DefaultNudge) else model
    samples = base.samples if isinstance(base, RandomUtilityMC) else 0
    # One action takes `models.argmax_tally`, which perfbench's tracer wraps
    # with a single span stack, so it stays on the calling thread.
    threads = _split_threads(n_types * n * max(samples, 1 << n), n_types) if n > 1 else 1
    if threads > 1:
        block = min(block, n_types // (2 * threads))

    def fill(starts):
        # Each block writes only its own columns of values.
        for start in starts:
            streams = range(start, min(start + block, n_types))
            utilities = matrix[streams.start:streams.stop]
            blocks = block_choice_probabilities(utilities, groups, model, streams)
            rows = np.concatenate([expected_value(probs, utilities[:, cols])
                                   for cols, probs in zip(groups, blocks)], axis=1)
            values[:, streams.start:streams.stop] = rows.T

    _split_across_threads(range(0, n_types, block), threads, fill)
    # Valued and summed as policy_welfare does, so each welfare is its value:
    # a C-ordered row sums as the 1-d weighted vector does.
    values *= pop.weights
    return subsets, values.sum(axis=1)
