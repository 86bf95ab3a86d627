"""Numeric kernels: tallies, tie-breaking, and the chunked logit curve."""

import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choicewelfare import ActionSet, UtilityType, build_population, sweep_logit
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
        z = q * (utilities - utilities.max(axis=1, keepdims=True))
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        direct = float(np.sum(weights * np.sum(utilities * p, axis=1)))
        assert abs(curve[qi] - direct) < 1e-12


def _curve_one_q_at_a_time(weights, utilities, q_values):
    # Each type is shifted by its own maximum before the q multiply, as the
    # kernel and the Logit model shift it.
    gaps = utilities - utilities.max(axis=1, keepdims=True)
    out = np.empty(q_values.shape[0])
    for qi, q in enumerate(q_values):
        e = np.exp(q * gaps)
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
    assert n_types * k * n_q > 4 * kernels.CURVE_CHUNK_ELEMENTS
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
    # A sweep shifts each subset once and passes the ShiftedUtilities to its
    # grid curve and to every one-q refinement call on the subset.
    shifted = kernels.shift_utilities(utilities)
    assert kernels.logit_welfare_curve(weights, shifted, q_values).tobytes() == curve.tobytes()
    alone = kernels.logit_welfare_curve(weights, shifted, q_values[i:i + 1])
    assert alone.tobytes() == curve[i:i + 1].tobytes()


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(1, 7),
    n_q=st.integers(1, 40),
    n_types=st.integers(1, 60),
    zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sum_actions_below_eight_terms_adds_left_to_right(k, n_q, n_types, zeros, seed):
    # One reduction over the leading axis adds its terms in index order,
    # element by element, starting from 0.0 as numpy's sums do; terms of
    # widely spread magnitude make any other order show in the last bits.
    rng = np.random.default_rng(seed)
    shape = (k, n_q, n_types)
    z = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
    if zeros:
        z[rng.random(z.shape) < 0.5] = rng.choice([0.0, -0.0])
    total = np.zeros((n_q, n_types))
    for i in range(k):
        total += z[i]
    assert kernels._sum_actions(z).tobytes() == total.tobytes()


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


@st.composite
def _populations(draw, utility=st.floats(-10.0, 10.0) | st.sampled_from([-1.0, 0.0, 2.0])):
    """(weights summing to 1, (T, k) utilities); coarse values tie often."""
    n_types = draw(st.integers(1, 30))
    k = draw(st.integers(1, 9))
    rows = st.lists(st.lists(utility, min_size=k, max_size=k),
                    min_size=n_types, max_size=n_types)
    mass = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n_types,
                                  max_size=n_types)))
    return mass / mass.sum(), np.array(draw(rows))


@settings(max_examples=200, deadline=None)
@given(_populations())
def test_curve_at_q_zero_is_the_weighted_uniform_mean(population):
    weights, utilities = population
    curve = kernels.logit_welfare_curve(weights, utilities, np.array([0.0]))
    assert abs(curve[0] - np.sum(weights * utilities.mean(axis=1))) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(_populations(), st.lists(st.floats(0.0, 1e6), min_size=1, max_size=20))
def test_curve_lies_between_the_worst_and_the_best_choices(population, q_values):
    # Each type's welfare is a convex combination of its utilities, so the
    # population's lies between the weighted minima and maxima, up to rounding.
    weights, utilities = population
    curve = kernels.logit_welfare_curve(weights, utilities, np.array(q_values))
    low = np.sum(weights * utilities.min(axis=1))
    high = np.sum(weights * utilities.max(axis=1))
    assert np.all(curve >= low - 1e-12) and np.all(curve <= high + 1e-12)


@settings(max_examples=200, deadline=None)
@given(_populations(utility=st.integers(-50, 50).map(float)))
def test_curve_at_large_q_is_the_rational_limit(population):
    # Integer utilities differ by 1 or more, so at q = 1e6 every action
    # below a type's maximum has exp(-1e6 * gap) = 0 exactly. A type with
    # one maximum then has exactly its best utility; tied maxima share
    # 1/m each, which can leave the sum an ulp off.
    weights, utilities = population
    curve = kernels.logit_welfare_curve(weights, utilities, np.array([1e6]))
    rational = np.sum(weights * utilities.max(axis=1))
    assert abs(curve[0] - rational) <= 1e-12 * max(1.0, abs(rational))
    if np.all((utilities == utilities.max(axis=1, keepdims=True)).sum(axis=1) == 1):
        assert curve[0] == rational


# --- threads: the one split rule, the curve's split and the thread helper ---


def _q_for_chunks(chunks, per_q):
    """The fewest q values with which a call of per_q = T x k elements per q
    holds `chunks` chunks' worth of elements; from four on, it splits."""
    return -(-chunks * kernels.CURVE_CHUNK_ELEMENTS // per_q)


def test_workers_is_the_usable_cpu_count():
    assert kernels.WORKERS == kernels._usable_cpus() >= 1


@pytest.mark.parametrize(
    "elements, items, workers, threads",
    [
        (4 * kernels.CURVE_CHUNK_ELEMENTS - 1, 100, 8, 1),
        (4 * kernels.CURVE_CHUNK_ELEMENTS, 100, 1, 1),
        (4 * kernels.CURVE_CHUNK_ELEMENTS, 4, 8, 2),
        (4 * kernels.CURVE_CHUNK_ELEMENTS, 5, 8, 2),
        (10**9, 1, 8, 1),
        (10**9, 3, 8, 1),
        (10**9, 6, 2, 2),
        (150 * 4 * 2001, 38, 64, 19),
        (100 * 6 * 1200, 100, 3, 3),
        (100 * 6 * 1200, 100, 64, 50),
    ],
    ids=["below-the-work", "one-cpu", "four-items", "five-items", "one-item",
         "three-items", "cpu-bound", "sweep-fine-grid-curve-64", "optimize-mc-3",
         "optimize-mc-64"],
)
def test_split_threads_rule(elements, items, workers, threads, monkeypatch):
    # One thread below SPLIT_ELEMENTS of work or on one CPU; otherwise one
    # per two items, at most one per CPU, and at least one.
    assert kernels.SPLIT_ELEMENTS == 4 * kernels.CURVE_CHUNK_ELEMENTS
    monkeypatch.setattr(kernels, "WORKERS", workers)
    assert kernels._split_threads(elements, items) == threads


@settings(max_examples=60, deadline=None)
@given(
    workers=st.sampled_from([1, 2, 3]),
    n_types=st.integers(30, 150),
    k=st.integers(1, 20),
    chunks=st.integers(4, 8),
    extra_q=st.integers(0, 300),
    tied=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(workers=2, n_types=40, k=8, chunks=4, extra_q=0, tied=False, seed=0)
@example(workers=3, n_types=33, k=9, chunks=6, extra_q=17, tied=True, seed=1)
@example(workers=3, n_types=30, k=16, chunks=8, extra_q=1, tied=False, seed=2)
def test_curve_is_bitwise_the_one_q_loop_on_any_worker_count(
    workers, n_types, k, chunks, extra_q, tied, seed
):
    # Every shape is at or above the four chunks' work from which a call
    # splits, so for 2 and 3 workers the chunks run on helper threads. Each
    # q must keep the bits it has alone: from k = 8 on the 8-partial sum
    # order, q = 0 entries and tied utilities included.
    n_q = _q_for_chunks(chunks, n_types * k) + extra_q
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_types))
    if tied:
        utilities = rng.integers(-2, 3, size=(n_types, k)).astype(np.float64)
    else:
        utilities = rng.normal(scale=2.0, size=(n_types, k))
    q_values = 10.0 ** rng.uniform(-3.0, 3.0, n_q)
    q_values[rng.random(n_q) < 0.1] = 0.0
    with mock.patch.object(kernels, "WORKERS", workers):
        curve = kernels.logit_welfare_curve(weights, utilities, q_values)
    assert curve.tobytes() == _curve_one_q_at_a_time(weights, utilities, q_values).tobytes()


def test_more_workers_than_cpus_with_frequent_switches_keep_every_bit(monkeypatch):
    # Eight threads claim the chunks of one output array while the
    # interpreter switches threads every microsecond; a chunk no thread
    # claimed, or one written to the wrong slice, would change the curve.
    rng = np.random.default_rng(8)
    weights = rng.dirichlet(np.ones(100))
    utilities = rng.normal(scale=2.0, size=(100, 6))
    q_values = np.linspace(0.0, 50.0, _q_for_chunks(16, utilities.size) + 5)
    monkeypatch.setattr(kernels, "WORKERS", 1)
    expected = kernels.logit_welfare_curve(weights, utilities, q_values)
    monkeypatch.setattr(kernels, "WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            curve = kernels.logit_welfare_curve(weights, utilities, q_values)
            assert curve.tobytes() == expected.tobytes()
    finally:
        sys.setswitchinterval(interval)


def _count_thread_starts(monkeypatch):
    starts = []
    start_new_thread = kernels._thread.start_new_thread

    def counting(*args):
        starts.append(args)
        return start_new_thread(*args)

    monkeypatch.setattr(kernels._thread, "start_new_thread", counting)
    return starts


def _curve_and_chunk_sizes(monkeypatch, weights, utilities, q_values):
    """The curve, and the chunk size of each `_curve_chunks` call that
    computed it (one per thread)."""
    sizes = []
    curve_chunks = kernels._curve_chunks

    def recording(starts, weights, by_action, gaps, q_values, chunk, out):
        sizes.append(chunk)
        return curve_chunks(starts, weights, by_action, gaps, q_values, chunk, out)

    monkeypatch.setattr(kernels, "_curve_chunks", recording)
    curve = kernels.logit_welfare_curve(weights, utilities, q_values)
    monkeypatch.setattr(kernels, "_curve_chunks", curve_chunks)
    return curve, sizes


@pytest.mark.parametrize(
    "workers, chunks", [(2, 5), (2, 10), (3, 5), (3, 7), (64, 7), (64, 38)])
def test_a_split_call_runs_one_thread_per_two_chunks(workers, chunks, monkeypatch):
    # Whatever the CPU count, a split call runs chunks of
    # CURVE_CHUNK_ELEMENTS on no more threads than half its chunks, so each
    # thread has two chunks or more (64 workers on a 150 x 4 x 2,001
    # sweep_fine_grid call, 38 chunks: 19 threads).
    rng = np.random.default_rng(workers)
    weights = rng.dirichlet(np.ones(50))
    utilities = rng.normal(size=(50, 4))
    chunk = kernels.CURVE_CHUNK_ELEMENTS // utilities.size
    q_values = np.linspace(0.0, 10.0, chunks * chunk)
    threads = min(workers, chunks // 2)
    monkeypatch.setattr(kernels, "WORKERS", workers)
    starts = _count_thread_starts(monkeypatch)
    split, chunk_sizes = _curve_and_chunk_sizes(monkeypatch, weights, utilities, q_values)
    assert len(starts) == threads - 1
    assert chunk_sizes == [chunk] * threads
    below = np.linspace(0.0, 10.0, _q_for_chunks(4, utilities.size) - 1)
    kernels.logit_welfare_curve(weights, utilities, below)
    assert len(starts) == threads - 1  # one q below four chunks' work: no thread
    monkeypatch.setattr(kernels, "WORKERS", 1)
    assert split.tobytes() == kernels.logit_welfare_curve(weights, utilities, q_values).tobytes()


@pytest.mark.parametrize("workers", [2, 3])
def test_a_call_whose_one_q_exceeds_a_chunk_splits_one_q_per_claim(workers, monkeypatch):
    # One q of 4,700 types x 7 actions holds more than a chunk, so each q is
    # a chunk of its own, and six q values run on min(workers, 3) threads.
    # q = 0, moderate q and q = 1e3 (where exp underflows) keep the bits
    # they have alone.
    rng = np.random.default_rng(workers)
    n_types = kernels.CURVE_CHUNK_ELEMENTS // 7 + 19
    weights = rng.dirichlet(np.ones(n_types))
    utilities = rng.normal(scale=2.0, size=(n_types, 7))
    assert utilities.size > kernels.CURVE_CHUNK_ELEMENTS
    q_values = np.array([0.0, 0.4, 1.7, 9.0, 60.0, 1e3])
    monkeypatch.setattr(kernels, "WORKERS", workers)
    starts = _count_thread_starts(monkeypatch)
    curve, chunk_sizes = _curve_and_chunk_sizes(monkeypatch, weights, utilities, q_values)
    assert len(starts) == min(workers, 3) - 1
    assert chunk_sizes == [1] * min(workers, 3)
    assert curve.tobytes() == _curve_one_q_at_a_time(weights, utilities, q_values).tobytes()


@pytest.mark.parametrize("workers, n_q", [(1, 2001), (2, 201)])
def test_a_call_on_the_calling_thread_runs_the_chunks_a_split_call_runs(
    workers, n_q, monkeypatch
):
    # 50 types x 4 actions: 2,001 q values split on two workers; on one
    # worker they do not, and neither do 201 q values on two.
    rng = np.random.default_rng(20)
    weights = rng.dirichlet(np.ones(50))
    utilities = rng.normal(size=(50, 4))
    grid = np.linspace(0.0, 10.0, 2001)
    monkeypatch.setattr(kernels, "WORKERS", 2)
    _, split = _curve_and_chunk_sizes(monkeypatch, weights, utilities, grid)
    assert len(split) == 2
    monkeypatch.setattr(kernels, "WORKERS", workers)
    monkeypatch.setattr(kernels._thread, "start_new_thread", _no_thread)
    _, serial = _curve_and_chunk_sizes(monkeypatch, weights, utilities, grid[:n_q])
    assert serial == split[:1]


def _no_thread(*args, **kwargs):
    raise AssertionError("the call started a thread")


@pytest.mark.parametrize("workers", [1, 2, 3, 64])
def test_refinement_and_sweep_crossings_sized_calls_start_no_thread(workers, monkeypatch):
    # sweep_crossings' largest grid call is 50 types x 5 actions x 201 q
    # (50,250 elements), below four chunks' work; a refinement call has one
    # q, which never splits, however large T x k is.
    monkeypatch.setattr(kernels, "WORKERS", workers)
    monkeypatch.setattr(kernels._thread, "start_new_thread", _no_thread)
    monkeypatch.setattr(threading, "Thread", _no_thread)
    rng = np.random.default_rng(5)
    utilities = rng.normal(size=(50, 5))
    weights = np.full(50, 1.0 / 50)
    grid = np.linspace(0.0, 10.0, 201)
    kernels.logit_welfare_curve(weights, utilities, grid)
    kernels.logit_welfare_curve(weights, utilities, grid[7:8])
    wide = rng.normal(size=(8 * kernels.CURVE_CHUNK_ELEMENTS // 7, 7))
    kernels.logit_welfare_curve(np.full(wide.shape[0], 1.0 / wide.shape[0]), wide, [1.5])
    actions = ActionSet(labels=tuple(f"a{i}" for i in range(5)))
    pop = build_population(actions, [UtilityType(utilities=u, weight=1.0) for u in utilities])
    assert sweep_logit(pop).crossings


@pytest.mark.parametrize("threads", [0, 1])
def test_fewer_than_two_threads_run_every_item_on_the_calling_thread(threads, monkeypatch):
    caller = threading.get_ident()
    done = []

    def work(claims):
        assert threading.get_ident() == caller
        done.extend(claims)

    monkeypatch.setattr(kernels._thread, "start_new_thread", _no_thread)
    monkeypatch.setattr(kernels._thread, "allocate_lock", _no_thread)
    kernels._split_across_threads(range(5), threads, work)
    assert done == [0, 1, 2, 3, 4]


def test_a_helper_error_is_raised_in_the_caller():
    # The caller holds its first item until the helper has failed; after
    # that no thread claims an item, and the caller raises the helper's
    # error once its own work returns.
    caller = threading.get_ident()
    helper_failed = threading.Event()
    late_claims = []

    def work(claims):
        if threading.get_ident() == caller:
            next(claims)
            assert helper_failed.wait(timeout=30)
            late_claims.extend(claims)
            return
        try:
            next(claims)
            raise RuntimeError("helper item failed")
        finally:
            helper_failed.set()

    with pytest.raises(RuntimeError, match="helper item failed"):
        kernels._split_across_threads(range(10), 2, work)
    assert late_claims == []


def test_errstate_of_the_caller_holds_in_the_helpers():
    # numpy 2 keeps np.errstate in a contextvar, which a new thread does not
    # inherit; exp(-1e3) underflows.
    caller = threading.get_ident()

    def underflow_on_the_helper(claims):
        if threading.get_ident() != caller:
            np.exp(np.array([-1e3]))

    kernels._split_across_threads(range(2), 2, underflow_on_the_helper)
    with np.errstate(under="raise"):
        with pytest.raises(FloatingPointError):
            kernels._split_across_threads(range(2), 2, underflow_on_the_helper)


def test_a_caller_error_waits_for_every_helper_chunk():
    # The caller fails while each of two helpers is inside a slow item. The
    # error reaches the caller only once no item is running any more, and
    # no thread claims an item after it.
    caller = threading.get_ident()
    all_inside = threading.Barrier(3, timeout=30)
    lock = threading.Lock()
    active = [0]
    entered = []

    def work(claims):
        if threading.get_ident() == caller:
            all_inside.wait()
            raise RuntimeError("caller item failed")
        for item in claims:
            with lock:
                active[0] += 1
                entered.append(threading.get_ident())
                first_two = len(entered) <= 2
            try:
                if first_two:
                    all_inside.wait()
                    time.sleep(0.2)
            finally:
                with lock:
                    active[0] -= 1

    with pytest.raises(RuntimeError, match="caller item failed"):
        kernels._split_across_threads(range(20), 3, work)
    assert active[0] == 0
    assert len(entered) == 2 and len(set(entered)) == 2


def test_a_helper_error_reaches_the_caller_after_every_other_helper_ends():
    # Three threads: the first helper to enter an item fails while the
    # other is inside a slow item, and the caller holds its item until the
    # failure. The error reaches the caller only once no item is running,
    # and no thread starts an item after it.
    caller = threading.get_ident()
    both_inside = threading.Barrier(2, timeout=30)
    failed = threading.Event()
    lock = threading.Lock()
    active = [0]
    entered = []

    def work(claims):
        for _ in claims:
            if threading.get_ident() == caller:
                assert failed.wait(timeout=30)
                continue
            with lock:
                active[0] += 1
                entered.append(threading.get_ident())
                first, inside = len(entered) == 1, len(entered) <= 2
            try:
                if inside:
                    both_inside.wait()
                if first:
                    failed.set()
                    raise RuntimeError("helper item failed")
                time.sleep(0.2)
            finally:
                with lock:
                    active[0] -= 1

    with pytest.raises(RuntimeError, match="helper item failed"):
        kernels._split_across_threads(range(60), 3, work)
    assert active[0] == 0
    assert len(entered) == 2 and len(set(entered)) == 2
