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

from . import _kernels
from ._kernels import CURVE_CHUNK_ELEMENTS, _split_across_threads, logit_welfare_curve
from .models import (
    ChoiceModel,
    DefaultNudge,
    RandomUtilityMC,
    _validate_available,
    block_choice_probabilities,
)
from .scenario import ActionSet, Population, _fields_equal, _frozen_array
# policy_welfare is not called here: optimize_choice_set reproduces its welfare
# bit for bit, and perfbench/spans.py wraps the name as search.policy_welfare.
from .welfare import expected_value, policy_welfare  # noqa: F401

MAX_ACTIONS = 20

# |difference| at or below this is "touching", not a sign change.
TOUCH_TOL = 1e-12
BISECT_INTERVAL_TOL = 1e-6
BISECT_VALUE_TOL = 1e-8
# Iterations one crossing's refinement may take before it is reported as not
# converged; a smooth gap converges in about four.
REFINE_MAX_ITERATIONS = 100
# Elements (pairs x q values) per block of the sweep's sign scan: bounds the
# block's temporaries to a few 64 KiB arrays whatever the sweep size.
PAIR_CHUNK_ELEMENTS = 8192
# Counts (types x n x 2^n) in one block of the optimizer's types: 512 KiB.
TALLY_CHUNK_ELEMENTS = 65536
# Work (types x n x max(Monte Carlo samples, 2^n)) from which the optimizer
# splits its type blocks across threads.
TYPE_SPLIT_ELEMENTS = 4 * CURVE_CHUNK_ELEMENTS


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
        q_min, q_max = float(self.q_min), float(self.q_max)
        q_step = float(self.q_step)
        if not (math.isfinite(q_min) and math.isfinite(q_max)):
            raise ValueError(f"q_min and q_max must be finite, got {q_min}, {q_max}")
        if not math.isfinite(q_step):
            raise ValueError(f"q_step must be finite, got {q_step}")
        if q_min < 0.0:
            raise ValueError("q_min must be >= 0")
        if q_max < q_min:
            raise ValueError("q_max must be >= q_min")
        if q_step <= 0.0:
            raise ValueError("q_step must be > 0")
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
    """Strictly increasing, finite, non-negative q values."""

    q_values: NDArray[np.float64]

    def __post_init__(self):
        q = _frozen_array(self.q_values)
        if q.ndim != 1 or q.shape[0] == 0:
            raise ValueError("grid must be a non-empty 1-d vector")
        if not np.all(np.isfinite(q)):
            raise ValueError("grid values must be finite")
        if np.any(q < 0.0):
            raise ValueError("grid values must be >= 0")
        if q.shape[0] > 1 and np.any(np.diff(q) <= 0.0):
            raise ValueError("grid values must be strictly increasing")
        object.__setattr__(self, "q_values", q)

    __eq__ = _fields_equal

    @classmethod
    def from_range(
        cls,
        q_min: float = SweepConfig.q_min,
        q_max: float = SweepConfig.q_max,
        q_step: float = SweepConfig.q_step,
    ) -> "SweepGrid":
        """SweepConfig(q_min, q_max, q_step).grid()."""
        return SweepConfig(q_min, q_max, q_step).grid()


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
    of every subset pair in itertools.combinations order."""
    weights, matrix = pop.weights, pop.utility_matrix
    _require_finite_gaps(pop, subsets)
    matrices = [np.ascontiguousarray(matrix[:, list(subset)]) for subset in subsets]
    welfare = np.empty((len(subsets), qs.shape[0]))
    for si, sub_matrix in enumerate(matrices):
        welfare[si] = logit_welfare_curve(weights, sub_matrix, qs)
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
    return welfare, crossings


def _require_finite_gaps(pop: Population, subsets) -> None:
    """The curve kernel's precondition, checked once per sweep: on every
    subset, each type's utility gaps u - max u are finite. Otherwise raise
    UtilitySpreadError naming the first type and pair of actions too far
    apart (a gap of -inf would give NaN welfare at q = 0)."""
    matrix = pop.utility_matrix
    with np.errstate(over="ignore"):
        if np.isfinite(np.ptp(matrix, axis=1)).all():
            return
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
    bracket. Returns q with |gap(q)| <= BISECT_VALUE_TOL and a sign change of
    gap within BISECT_INTERVAL_TOL of q. When the value tolerance is met but
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
        if abs(f) <= BISECT_VALUE_TOL:
            far = hi if (f > 0.0) == (f_lo > 0.0) else lo
            if abs(far - q) <= BISECT_INTERVAL_TOL:
                return q
            probe = q + math.copysign(0.5 * BISECT_INTERVAL_TOL, far - q)
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

    A large population splits its blocks across the CPUs the process may use
    (`_type_threads` holds the rule): the calling thread and helper threads
    each claim the next block, blocks hold at most types // (2 x threads)
    types so that there are two blocks or more per thread, and each thread
    has one block in flight. Every type's probabilities come from its
    own Monte Carlo stream or from arithmetic along its own rows, so the
    subset and the welfare bits are the same on any number of CPUs."""
    subsets, welfare = _subset_welfare(pop, model)
    best = int(np.argmax(np.where(np.isnan(welfare), -np.inf, welfare)))
    return OptimizeResult(subset=subsets[best], welfare=float(welfare[best]))


def _type_threads(pop: Population, model: ChoiceModel) -> int:
    """Threads `_subset_welfare` splits the type blocks across: 1 unless
    WORKERS > 1, there are two actions or more and the work, types x n x
    max(Monte Carlo samples, 2^n), is at least TYPE_SPLIT_ELEMENTS; then
    WORKERS, but no more than half the types. One action takes
    `models.argmax_tally`, which perfbench's tracer wraps with a single span
    stack, so it stays on the calling thread."""
    base = model.base if isinstance(model, DefaultNudge) else model
    samples = base.samples if isinstance(base, RandomUtilityMC) else 0
    n = pop.n_actions
    work = pop.n_types * n * max(samples, 1 << n)
    if _kernels.WORKERS < 2 or n < 2 or work < TYPE_SPLIT_ELEMENTS:
        return 1
    return max(1, min(_kernels.WORKERS, pop.n_types // 2))


def _subset_welfare(pop: Population, model: ChoiceModel):
    """Every subset and its policy welfare (NaN where choice is undefined)."""
    subsets = enumerate_choice_sets(pop.actions)
    groups = [np.array(list(group)) for _, group in itertools.groupby(subsets, len)]
    matrix = pop.utility_matrix
    n_types = pop.n_types
    values = np.empty((len(subsets), n_types))
    block = max(1, TALLY_CHUNK_ELEMENTS // (pop.n_actions << pop.n_actions))
    threads = _type_threads(pop, model)
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

    starts = range(0, n_types, block)
    if threads > 1:
        _split_across_threads(starts, threads, fill)
    else:
        fill(starts)
    # Valued and summed as policy_welfare does, so each welfare is its value:
    # a C-ordered row sums as the 1-d weighted vector does.
    values *= pop.weights
    return subsets, values.sum(axis=1)
