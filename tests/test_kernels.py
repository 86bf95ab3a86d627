"""Numeric kernels: tallies, tie-breaking, and the chunked logit curve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choicewelfare import _kernels as kernels


def test_active_backend_is_known():
    assert kernels.active_backend() == "numpy"


def test_warm_up_is_idempotent():
    kernels.warm_up()
    kernels.warm_up()


def test_argmax_tally_counts_sum_to_rows():
    rng = np.random.default_rng(1)
    u = rng.normal(size=4)
    errors = rng.normal(size=(1000, 4))
    counts = kernels.argmax_tally(u, errors)
    assert counts.shape == (4,)
    assert counts.sum() == 1000
    assert np.all(counts >= 0)


def test_argmax_tally_lowest_index_tie_break():
    u = np.array([1.0, 1.0, 0.0])
    errors = np.zeros((7, 3))
    counts = kernels.argmax_tally(u, errors)
    assert list(counts) == [7, 0, 0]


def test_argmax_tally_matches_plain_argmax():
    rng = np.random.default_rng(2)
    for _ in range(10):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 500))
        u = rng.normal(size=k)
        errors = rng.normal(size=(n, k))
        expected = np.bincount(np.argmax(u + errors, axis=1), minlength=k)
        assert np.array_equal(kernels.argmax_tally(u, errors), expected)


def test_logit_welfare_curve_matches_direct_softmax():
    rng = np.random.default_rng(4)
    weights = rng.dirichlet(np.ones(5))
    utilities = rng.normal(size=(5, 4))
    q_values = np.array([0.0, 0.3, 1.7, 9.0])
    curve = kernels.logit_welfare_curve(weights, utilities, q_values)
    for qi, q in enumerate(q_values):
        z = q * utilities
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        direct = float(np.sum(weights * np.sum(utilities * p, axis=1)))
        assert abs(curve[qi] - direct) < 1e-12


def _curve_one_q_at_a_time(weights, utilities, q_values):
    out = np.empty(q_values.shape[0])
    for qi, q in enumerate(q_values):
        z = q * utilities
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        out[qi] = np.sum(weights * np.sum(utilities * p, axis=1))
    return out


@pytest.mark.parametrize(
    "n_types, k, n_q, tied",
    [
        (300, 7, 500, False),
        (40, 3, 2000, False),
        (10_000, 7, 4, False),
        (3, 1, 50_000, False),
        (400, 1, 400, False),
        (120, 5, 300, True),
        (50, 8, 400, False),
        (30, 9, 600, False),
        (40, 9, 400, True),
        (20, 16, 500, False),
        (25, 20, 300, False),
        (60, 20, 150, True),
    ],
    ids=[
        "300-7-500", "40-3-2000", "10000-7-4", "3-1-50000", "400-1-400", "120-5-300-tied",
        "50-8-400", "30-9-600", "40-9-400-tied", "20-16-500", "25-20-300", "60-20-150-tied",
    ],
)
def test_logit_welfare_curve_chunks_match_loop(n_types, k, n_q, tied):
    # The shapes span several chunks, and a single q that exceeds a chunk.
    # From k = 8 on, numpy sums over actions with 8 running partials (k = 8
    # and 16 exactly, 9 and 20 with a tail), which the kernel repeats. Tied
    # utilities are small integers, so many (q, type) rows have several
    # maximal scores.
    assert n_types * k * n_q > 2 * kernels.CURVE_CHUNK_ELEMENTS
    rng = np.random.default_rng(n_types * k)
    weights = rng.dirichlet(np.ones(n_types))
    if tied:
        utilities = rng.integers(-2, 3, size=(n_types, k)).astype(np.float64)
    else:
        utilities = rng.normal(scale=2.0, size=(n_types, k))
    q_values = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1e3, n_q - 2)), [1e3]])
    # exp of a very negative shifted score underflows to its exact double
    # value, 0; overflow, division by zero and invalid values must not occur.
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        expected = _curve_one_q_at_a_time(weights, utilities, q_values)
        curve = kernels.logit_welfare_curve(weights, utilities, q_values)
    # Chunking over q changes no arithmetic, so the curve is bit for bit the
    # loop's.
    assert np.array_equal(curve, expected)


@settings(max_examples=200, deadline=None)
@given(
    n_types=st.integers(1, 60),
    k=st.integers(1, 20),
    n_q=st.integers(1, 300),
    tied=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_logit_welfare_curve_is_bitwise_the_one_q_loop(n_types, k, n_q, tied, seed):
    # A refiner that evaluates many q values in one call relies on each of
    # them having the bits it has alone. q spans 1e-3..1e3, where exp of a
    # shifted score underflows to 0.
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_types))
    if tied:
        utilities = rng.integers(-2, 3, size=(n_types, k)).astype(np.float64)
    else:
        utilities = rng.normal(scale=2.0, size=(n_types, k))
    q_values = 10.0 ** rng.uniform(-3.0, 3.0, n_q)
    q_values[rng.random(n_q) < 0.1] = 0.0
    curve = kernels.logit_welfare_curve(weights, utilities, q_values)
    assert np.array_equal(curve, _curve_one_q_at_a_time(weights, utilities, q_values))
    i = int(rng.integers(n_q))
    alone = kernels.logit_welfare_curve(weights, utilities, q_values[i:i + 1])
    assert alone.tobytes() == curve[i:i + 1].tobytes()


def test_logit_welfare_curve_q_zero_is_uniform_mean():
    rng = np.random.default_rng(5)
    weights = rng.dirichlet(np.ones(3))
    utilities = rng.normal(size=(3, 6))
    curve = kernels.logit_welfare_curve(weights, utilities, np.array([0.0]))
    assert abs(curve[0] - np.sum(weights * utilities.mean(axis=1))) < 1e-12


def test_logit_welfare_curve_overflow_safe():
    weights = np.array([1.0])
    utilities = np.array([[0.0, 500.0, 1000.0]])
    curve = kernels.logit_welfare_curve(weights, utilities, np.array([1e6]))
    assert np.isfinite(curve[0])
    assert abs(curve[0] - 1000.0) < 1e-9
