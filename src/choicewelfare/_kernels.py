"""Hot numeric kernels, vectorized with numpy.

`argmax_tally` counts the winning action of each error draw for the Monte
Carlo model; `logit_welfare_curve` evaluates population logit welfare on a
whole grid of q values at once. Tie-breaking is by the lowest index among
maximal scores.
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


def logit_welfare_curve(weights, utilities, q_values):
    """Population logit welfare at each q.

    ``weights``: (T,) summing to 1; ``utilities``: (T, k); ``q_values``: (Q,).
    welfare(q) = sum_t w_t * sum_i u_ti * softmax_i(q * u_ti). Evaluated by
    broadcasting over chunks of q values of at most CURVE_CHUNK_ELEMENTS
    (q x T x k) elements, so memory stays bounded for any grid. Each (q, type)
    row subtracts its own max before exponentiating, and the type reduction
    is numpy's pairwise sum, to keep large-T accumulation accurate.

    The row max is a running np.maximum over the k action columns, not a
    reduce over the short last axis, which costs far more per element; a max
    is exact in any order, so both give the same bits.
    """
    weights = np.asarray(weights, dtype=np.float64)
    utilities = np.asarray(utilities, dtype=np.float64)
    q_values = np.asarray(q_values, dtype=np.float64)
    out = np.empty(q_values.shape[0], dtype=np.float64)
    chunk = max(1, CURVE_CHUNK_ELEMENTS // utilities.size)
    for start in range(0, q_values.shape[0], chunk):
        q = q_values[start:start + chunk, np.newaxis, np.newaxis]
        z = q * utilities
        row_max = z[:, :, 0].copy()
        for i in range(1, utilities.shape[1]):
            np.maximum(row_max, z[:, :, i], out=row_max)
        z -= row_max[:, :, np.newaxis]
        np.exp(z, out=z)
        z /= z.sum(axis=2, keepdims=True)
        z *= utilities
        per_type = z.sum(axis=2)
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
