"""Hot numeric kernels, vectorized with numpy.

`argmax_tally` counts the winning action of each error draw for the Monte
Carlo model; `logit_welfare_curve` evaluates population logit welfare on a
whole grid of q values at once. Tie-breaking is by the lowest index among
maximal scores.

The curve kernel shifts each type's utilities by their maximum once per
call, gaps = u - max u, so a chunk of q values only multiplies the gaps by q
before exponentiating: every exponent is at most 0 and nothing overflows
toward +inf. The Logit model (`models.block_choice_probabilities`) shifts
the same way, so both give the same bits. The kernel works action-major: a
chunk is laid out as (k, q, T), so each step over the k actions is one
elementwise operation on a contiguous (q, T) slice, not a reduction along a
last axis only k long. Its two sums over actions add in the order numpy's
``add.reduce`` uses along a contiguous axis (`_sum_actions`), so the curve
is bit for bit what a per-q softmax of q * (u - max u) over (T, k) rows
gives, for any chunking of the q values.

Every call runs chunks of at most CURVE_CHUNK_ELEMENTS elements, or of one q
where one q holds more. `_split_threads` is the one rule for how many threads
a call runs on, and `_split_across_threads` the one helper that runs any work
over items claimed by the calling thread and helper threads: the curve
kernel's chunks, and `search.optimize_choice_set`'s blocks of types. numpy
releases the GIL inside every ufunc a chunk runs, and the bits of each q do
not depend on the chunking, so the curve is the same on any number of CPUs.
"""

import _thread
import contextvars
import os

import numpy as np


def argmax_tally(utilities, errors):
    """Count, per action, how many rows of utilities + errors it maximizes.

    ``utilities``: (k,) float64; ``errors``: (n, k) float64. Returns (k,)
    int64 counts summing to n. np.argmax picks the first maximum, which is
    the lowest-index tie-break.
    """
    choices = np.argmax(utilities[np.newaxis, :] + errors, axis=1)
    return np.bincount(choices, minlength=utilities.shape[0]).astype(np.int64)


# Elements (q values x types x actions) per chunk of the curve kernel: bounds
# its temporaries to a few 256 KiB arrays whatever the grid length.
CURVE_CHUNK_ELEMENTS = 32768


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# CPUs this process may run on, read once at import; `taskset` lowers it. A
# CPU-time quota (a cgroup's cpu.max) does not: threads beyond the CPUs the
# quota pays for share them and run the curves slower than fewer threads.
WORKERS = _usable_cpus()

# Work, in elements, from which a call may split: four curve chunks.
SPLIT_ELEMENTS = 4 * CURVE_CHUNK_ELEMENTS


def _split_threads(elements, items):
    """Threads for a call of ``elements`` of work over ``items`` claimable
    items, the one split rule: 1 unless WORKERS > 1 and the work is at least
    SPLIT_ELEMENTS; then min(WORKERS, items // 2), at least 1, so that each
    thread has two items or more. A one-q refinement call holds one item and
    never splits. Items keep their size on more CPUs, so the interpreter-held
    work of a call does not grow with the CPU count.
    """
    if WORKERS < 2 or elements < SPLIT_ELEMENTS:
        return 1
    return max(1, min(WORKERS, items // 2))


def _sum_actions(z):
    """Sum a (k, q, T) array over its first axis, in numpy's order.

    numpy's ``add.reduce`` along a contiguous axis of n terms adds them left
    to right when n < 8. From 8 terms on it keeps 8 running partials
    r_j += z[j + 8m], combines them as ((r0+r1)+(r2+r3)) + ((r4+r5)+(r6+r7))
    and then adds the remaining n % 8 terms left to right. Repeating that
    order here, elementwise over the (q, T) slices, gives the same bits as
    ``z.transpose(1, 2, 0).sum(axis=2)`` on a C-ordered copy. (numpy also
    starts from 0.0, which only turns a sum of -0.0 terms into +0.0; the
    type reduction that follows starts from 0.0 too, so it cannot show.)
    """
    k = z.shape[0]
    if k < 8:
        total = z[0].copy()
        for i in range(1, k):
            total += z[i]
        return total
    partial = z[:8].copy()
    whole = k - k % 8
    for start in range(8, whole, 8):
        partial += z[start:start + 8]
    total = partial[0] + partial[1]
    total += partial[2] + partial[3]
    total += (partial[4] + partial[5]) + (partial[6] + partial[7])
    for i in range(whole, k):
        total += z[i]
    return total


def logit_welfare_curve(weights, utilities, q_values):
    """Population logit welfare at each q.

    ``weights``: (T,) summing to 1; ``utilities``: (T, k); ``q_values``: (Q,).
    welfare(q) = sum_t w_t * sum_i u_ti * softmax_i(q * u_ti). Evaluated over
    chunks of max(1, CURVE_CHUNK_ELEMENTS // (T x k)) q values, so memory
    stays bounded for any grid.

    A call splits its chunks across threads as `_split_threads` decides;
    otherwise it runs them on the calling thread and starts no thread.

    Once per call, ``utilities`` is transposed to (k, 1, T) and each type
    is shifted by its maximum over the k actions: gaps = u - max u, all at
    most 0. Precondition: every gap is finite, that is, no two of a type's
    utilities are further apart than the largest float; otherwise q = 0
    gives 0 x -inf = NaN. The kernel does not check it, since a check would
    slow every one-q refinement call; `search` checks it once per sweep, and
    the Logit model sets q = 0 apart as uniform choice. A chunk of q values
    multiplies the gaps into one (k, q, T) array and exponentiates it in
    place; q x gap may round to -inf, whose exponential is 0 (numpy warns of
    that overflow unless the caller's ``np.errstate`` ignores it). The two
    sums over actions (the softmax denominator and sum_i u_ti p_ti) follow
    numpy's ``add.reduce`` order (`_sum_actions`), and the type reduction is
    numpy's pairwise sum over the contiguous T axis, to keep large-T
    accumulation accurate. A max is exact in any order, and every
    other step is elementwise, so a q value's welfare does not depend on the
    chunk, on the other q values or on the thread or number of threads: it
    is bit for bit the per-q softmax ``z = q * (utilities -
    utilities.max(axis=1, keepdims=True)); ...`` over (T, k), and a single
    q alone gives the same bits as inside a vector.
    """
    weights = np.asarray(weights, dtype=np.float64)
    utilities = np.asarray(utilities, dtype=np.float64)
    q_values = np.asarray(q_values, dtype=np.float64)
    n_q = q_values.shape[0]
    out = np.empty(n_q, dtype=np.float64)
    by_action = np.ascontiguousarray(utilities.T)[:, np.newaxis, :]
    # One action is its own maximum. Crossing refinement makes hundreds of
    # one-q calls of one action per sweep, and a reduction's set-up is about
    # a tenth of such a call.
    top = by_action[0] if by_action.shape[0] == 1 else np.maximum.reduce(by_action)
    gaps = by_action - top
    per_q = utilities.size
    chunk = max(1, CURVE_CHUNK_ELEMENTS // per_q)
    starts = range(0, n_q, chunk)
    threads = _split_threads(n_q * per_q, len(starts))
    if threads > 1:
        _split_across_threads(
            starts, threads,
            lambda claims: _curve_chunks(claims, weights, by_action, gaps, q_values, chunk, out))
    else:
        _curve_chunks(starts, weights, by_action, gaps, q_values, chunk, out)
    return out


def _curve_chunks(starts, weights, by_action, gaps, q_values, chunk, out):
    """Fill ``out`` with the welfare of the chunks of q values that begin at
    ``starts``; the one body of `logit_welfare_curve`'s arithmetic."""
    for start in starts:
        z = q_values[start:start + chunk, np.newaxis] * gaps
        np.exp(z, out=z)
        z /= _sum_actions(z)
        z *= by_action
        per_type = _sum_actions(z)
        per_type *= weights
        np.add.reduce(per_type, axis=1, out=out[start:start + chunk])


def _split_across_threads(items, threads, work):
    """Run ``work(claims)`` on the calling thread and ``threads - 1`` helper
    threads, each under a copy of the caller's context; ``claims`` yields
    the next of ``items`` no thread has claimed yet. With fewer than two
    threads, ``work`` runs over every item on the calling thread, which
    takes no lock and starts no thread.

    Each thread claims the next item whenever it is free, so a helper that
    starts late, or shares its CPU with another process, leaves its items
    to the others instead of holding the caller up; and the caller does not
    wait for a helper to start. The first error on any thread, or the caller
    leaving for any reason (a KeyboardInterrupt while it waits included),
    stops further claims. The caller waits until every helper has finished
    its last item, then raises its own error or else the first helper error.
    ``work`` must write its results only where no other item's go. Since
    each thread runs it under a copy of the caller's context, ``np.errstate``
    holds in the helpers too.

    The helpers come from `_thread.start_new_thread`, not `threading`:
    `threading.Thread.start()` waits until the new thread runs, and with the
    other CPU of a two-CPU host kept busy by another process that wait made
    a split sweep's curves 1.17x the one-thread time, against 0.95x without
    it (one measurement). The cost is that tools built on `threading` do not
    see the helpers: `threading.settrace` and `threading.setprofile` hooks,
    so coverage.py and profilers miss the items they run, and
    `threading.enumerate` does not list them.
    """
    pending = iter(items)
    if threads < 2:
        work(pending)
        return
    claim_lock = _thread.allocate_lock()
    stop = []  # non-empty: claim no further item
    failed = []
    missing = object()

    def claims():
        while True:
            with claim_lock:
                item = missing if stop else next(pending, missing)
            if item is missing:
                return
            yield item

    def helper(finished):
        try:
            work(claims())
        except BaseException as exc:  # raised in the caller
            failed.append(exc)
            stop.append(True)
        finally:
            finished.release()

    running = []
    try:
        for _ in range(threads - 1):
            finished = _thread.allocate_lock()
            finished.acquire()
            _thread.start_new_thread(contextvars.copy_context().run, (helper, finished))
            running.append(finished)
        work(claims())
    finally:
        stop.append(True)
        for finished in running:
            finished.acquire()
    if failed:
        raise failed[0]


def active_backend() -> str:
    """Name of the kernel implementation; run records carry it so that only
    runs of the same implementation are compared."""
    return "numpy"


def warm_up() -> None:
    """Run each kernel once on a tiny input.

    Timed runs call it during set-up, so any first-call cost of the kernels'
    code paths is counted as set-up time and not in the timed work. Its
    input is too small to start threads, so the first thread start of a
    large curve call is paid in the run.
    """
    u = np.array([0.0, 1.0])
    argmax_tally(u, np.zeros((2, 2)))
    logit_welfare_curve(np.array([1.0]), u[np.newaxis, :], np.array([0.5]))
