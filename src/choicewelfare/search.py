"""Choice-set enumeration, rationality sweeps, envelopes, and crossings.

Welfare of every non-empty subset of actions is evaluated on a grid of the
logit rationality parameter q; the outer envelope names the best subset at
each q. Because welfare orderings of subsets can reverse as q rises (and
reverse back), crossings of welfare curves are located for every subset pair
by sign-change detection on the grid, each refined by a bracketed secant
(Illinois) iteration that starts from the two grid values. Crossing
detection is quadratic in the number of subsets, i.e. O(4^|actions|) pairs,
and dominates the cost of a sweep: with 50 types on 201 grid points, a
sweep of 9 actions (130,305 pairs) took about 41 s on a 2-vCPU host, and
each further action roughly quadruples that. The |actions| <= 20 guard only
bounds subset enumeration; it does not keep sweeps that large feasible.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
from numpy.typing import NDArray

from ._kernels import logit_welfare_curve
from .models import ChoiceModel, _validate_available, choice_probabilities, mc_scores
from .scenario import ActionSet, Population, _fields_equal, _frozen_array
# Not called here: optimize_choice_set reproduces its welfare bit for bit, and
# perfbench/spans.py wraps the name as search.policy_welfare.
from .welfare import policy_welfare  # noqa: F401

MAX_ACTIONS = 20

# |difference| at or below this is "touching", not a sign change.
TOUCH_TOL = 1e-12
BISECT_INTERVAL_TOL = 1e-6
BISECT_VALUE_TOL = 1e-8
# Iterations one crossing's refinement may take before it is reported as not
# converged; a smooth gap converges in about four.
REFINE_MAX_ITERATIONS = 100


class RefinementError(ArithmeticError):
    """A crossing's refinement met neither tolerance within its iteration cap."""


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
        cls, q_min: float = 0.0, q_max: float = 10.0, q_step: float = 0.05
    ) -> "SweepGrid":
        """Inclusive arithmetic grid; the defaults bracket every crossing the
        bundled scenarios exhibit, with margin."""
        q_min, q_max, q_step = float(q_min), float(q_max), float(q_step)
        if q_step <= 0.0 or not np.isfinite(q_step):
            raise ValueError("q_step must be positive and finite")
        if q_max < q_min:
            raise ValueError("q_max must be >= q_min")
        span = q_max - q_min
        n = int(np.floor(span / q_step + 1e-9))
        values = q_min + q_step * np.arange(n + 1)
        if values[-1] > q_max:
            values = values[:-1]
        return cls(q_values=values)


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


def _subset_matrix(matrix: NDArray[np.float64], subset) -> NDArray[np.float64]:
    return np.ascontiguousarray(matrix[:, list(subset)])


def _gap_at(weights, matrix_a, matrix_b):
    """The welfare gap W_a(q) - W_b(q) at one q, as a function of q."""

    def gap(q: float) -> float:
        qarr = np.array([q])
        return float(
            logit_welfare_curve(weights, matrix_a, qarr)[0]
            - logit_welfare_curve(weights, matrix_b, qarr)[0]
        )

    return gap


def sweep_logit(pop: Population, grid: Optional[SweepGrid] = None) -> SweepResult:
    """Evaluate every subset under Logit(q) across the grid.

    The default grid is 0..10 in steps of 0.05. Crossings are located for
    every unordered subset pair.
    """
    if grid is None:
        grid = SweepGrid.from_range()
    subsets = tuple(enumerate_choice_sets(pop.actions))
    qs = grid.q_values
    weights, matrix = pop.weights, pop.utility_matrix
    matrices = [_subset_matrix(matrix, subset) for subset in subsets]
    welfare = np.empty((len(subsets), qs.shape[0]))
    for si, sub_matrix in enumerate(matrices):
        welfare[si] = logit_welfare_curve(weights, sub_matrix, qs)
    envelope = np.argmax(welfare, axis=0).astype(np.int64)
    crossings = []
    for ia, ib in itertools.combinations(range(len(subsets)), 2):
        roots = _refine_sign_changes(
            qs,
            welfare[ia] - welfare[ib],
            _gap_at(weights, matrices[ia], matrices[ib]),
        )
        crossings.extend(
            Crossing(subset_a=subsets[ia], subset_b=subsets[ib], q_star=r)
            for r in roots
        )
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
    order.

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
        grid = SweepGrid.from_range()
    sub_a = _validate_available(subset_a, pop.n_actions)
    sub_b = _validate_available(subset_b, pop.n_actions)
    qs = grid.q_values
    weights, matrix = pop.weights, pop.utility_matrix
    matrix_a, matrix_b = _subset_matrix(matrix, sub_a), _subset_matrix(matrix, sub_b)
    diff = logit_welfare_curve(weights, matrix_a, qs) - logit_welfare_curve(
        weights, matrix_b, qs
    )
    return _refine_sign_changes(qs, diff, _gap_at(weights, matrix_a, matrix_b))


def _refine_sign_changes(qs, diff, gap) -> list[float]:
    signs = np.where(np.abs(diff) <= TOUCH_TOL, 0.0, np.sign(diff))
    nonzero = np.nonzero(signs)[0]
    roots: list[float] = []
    for left, right in zip(nonzero[:-1], nonzero[1:]):
        if signs[left] == signs[right]:
            continue
        roots.append(
            _illinois(
                gap,
                float(qs[left]),
                float(qs[right]),
                float(diff[left]),
                float(diff[right]),
            )
        )
    return roots


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
    """Exhaustive argmax of policy welfare over all non-empty subsets.

    Ties resolve to the first subset in (size, lexicographic) order. The
    reported welfare is exactly policy_welfare's value for the winner.

    Types are the outer loop. A Monte Carlo model (or a default nudge over
    one) draws each type's common random numbers once (`mc_scores`) and
    tallies every subset from them in one depth-first walk of the subset
    lattice, holding one score maximum and one choice vector per level.
    Other models evaluate choice_probabilities per subset.
    """
    subsets = enumerate_choice_sets(pop.actions)
    row = {subset: s for s, subset in enumerate(subsets)}
    values = np.empty((len(subsets), pop.n_types))
    for t, typ in enumerate(pop.types):
        u = typ.utilities
        scores = mc_scores(u, model, stream=t)
        if scores is None:
            for s, subset in enumerate(subsets):
                probs = choice_probabilities(u, subset, model, stream=t).probs
                values[s, t] = float(np.dot(probs, u[list(subset)]))
        else:
            for subset, counts in _lattice_tallies(scores):
                avail = list(subset)
                values[row[subset], t] = float(
                    np.dot(counts[avail] / scores.shape[0], u[avail])
                )
    # Summed as policy_welfare sums, so the winner's welfare is its value.
    welfare = [float(np.sum(pop.weights * type_values)) for type_values in values]
    best = int(np.argmax(welfare))
    return OptimizeResult(subset=subsets[best], welfare=welfare[best])


def _lattice_tallies(scores: NDArray[np.float64]):
    """(subset, counts) for every non-empty ascending subset of the columns
    of `scores`, depth first; counts[i] is how many rows choose column i.

    A row chooses the first argmax over the subset's columns. The child
    S + (a,), with a above every column of S, keeps S's choice unless column
    a is strictly greater than S's maximum, which keeps the lowest-index
    tie-break of np.argmax.
    """
    n_rows, n = scores.shape
    for a in range(n):
        yield from _lattice_subtree(scores, (a,), scores[:, a], np.full(n_rows, a))


def _lattice_subtree(scores, subset, best, chosen):
    # A module-level generator, not a closure: a closure that calls itself is
    # a reference cycle, and would keep each type's scores alive until the
    # cyclic garbage collector next runs.
    n = scores.shape[1]
    yield subset, np.bincount(chosen, minlength=n)
    for a in range(subset[-1] + 1, n):
        column = scores[:, a]
        yield from _lattice_subtree(
            scores,
            subset + (a,),
            np.maximum(best, column),
            np.where(column > best, a, chosen),
        )
