"""Hot numeric kernels, vectorized with numpy.

`argmax_tally` counts the winning action of each error draw for the Monte
Carlo model; `logit_welfare_curve` evaluates population logit welfare on a
whole grid of q values at once. Tie-breaking is by the lowest index among
maximal scores.

The curve kernel works action-major: a chunk of q values is laid out as
(k, q, T), so each step over the k actions is one elementwise operation on
a contiguous (q, T) slice, not a reduction along a last axis only k long.
Its two sums over actions add in the order numpy's ``add.reduce`` uses along
a contiguous axis (`_sum_actions`), so the curve is bit for bit what a
per-q softmax over (T, k) rows gives, for any chunking of the q values.
"""

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
# its temporaries to a few 512 KiB arrays whatever the grid length.
CURVE_CHUNK_ELEMENTS = 65536


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
    chunks of q values of at most CURVE_CHUNK_ELEMENTS (k x q x T) elements,
    so memory stays bounded for any grid.

    Each chunk is action-major, (k, q, T), against ``utilities`` transposed
    once per call. The row max is a running np.maximum over the k (q, T)
    slices; each (q, type) row subtracts it before exponentiating. The two
    sums over actions (the softmax denominator and sum_i u_ti p_ti) follow
    numpy's ``add.reduce`` order (`_sum_actions`), and the type reduction is
    numpy's pairwise sum over the contiguous T axis, to keep large-T
    accumulation accurate. A max is exact in any order, and every other step
    is elementwise, so a q value's welfare does not depend on the chunk or
    on the other q values: it is bit for bit the per-q softmax
    ``z = q * utilities; z -= z.max(axis=1, keepdims=True); ...`` over
    (T, k), and a single q alone gives the same bits as inside a vector.
    """
    weights = np.asarray(weights, dtype=np.float64)
    utilities = np.asarray(utilities, dtype=np.float64)
    q_values = np.asarray(q_values, dtype=np.float64)
    out = np.empty(q_values.shape[0], dtype=np.float64)
    by_action = np.ascontiguousarray(utilities.T)[:, np.newaxis, :]
    chunk = max(1, CURVE_CHUNK_ELEMENTS // utilities.size)
    for start in range(0, q_values.shape[0], chunk):
        z = q_values[start:start + chunk, np.newaxis] * by_action
        row_max = z[0].copy()
        for i in range(1, z.shape[0]):
            np.maximum(row_max, z[i], out=row_max)
        z -= row_max
        np.exp(z, out=z)
        z /= _sum_actions(z)
        z *= by_action
        per_type = _sum_actions(z)
        per_type *= weights
        out[start:start + chunk] = per_type.sum(axis=1)
    return out


def active_backend() -> str:
    """Name of the kernel implementation; run records carry it so that only
    runs of the same implementation are compared."""
    return "numpy"


def warm_up() -> None:
    """Run each kernel once on a tiny input.

    Timed runs call it during set-up, so any first-call cost of the kernels'
    code paths is counted as set-up time and not in the timed work.
    """
    u = np.array([0.0, 1.0])
    argmax_tally(u, np.zeros((2, 2)))
    logit_welfare_curve(np.array([1.0]), u[np.newaxis, :], np.array([0.5]))
