"""Hot numeric kernels: numba-jitted with a pure-numpy fallback.

Backend selection is an import-time decision driven by the environment
variable ``CHOICEWELFARE_BACKEND``:

* ``numba`` (default): compile the loops with ``@njit(cache=True)``.
  Falls back to numpy silently if numba cannot be imported.
* ``numpy``: force the vectorized numpy implementations.

The numpy implementations (``*_numpy``) are always importable; the jitted
ones (``*_numba``) exist whenever the numba backend is active, so benchmarks
and equivalence tests can compare the two directly. The public names
(`argmax_tally`, `logit_welfare_curve`, `count_below_threshold`) bind to the
active backend. Tie-breaking is identical on both paths: the lowest index
among maximal scores wins.
"""

import os

import numpy as np

_ENV_VAR = "CHOICEWELFARE_BACKEND"


def _requested_backend() -> str:
    value = os.environ.get(_ENV_VAR, "numba").strip().lower()
    if value not in ("numba", "numpy"):
        raise RuntimeError(
            f"{_ENV_VAR} must be 'numba' or 'numpy', got {value!r}"
        )
    return value


def argmax_tally_numpy(utilities, errors):
    """Count, per action, how many rows of utilities + errors it maximizes.

    ``utilities``: (k,) float64; ``errors``: (n, k) float64. Returns (k,)
    int64 counts summing to n. np.argmax picks the first maximum, which is
    the lowest-index tie-break.
    """
    choices = np.argmax(utilities[np.newaxis, :] + errors, axis=1)
    return np.bincount(choices, minlength=utilities.shape[0]).astype(np.int64)


# Elements (q values x types x actions) per chunk of the numpy curve kernel:
# bounds its temporaries to a few 512 KiB arrays whatever the grid length.
CURVE_CHUNK_ELEMENTS = 65536


def logit_welfare_curve_numpy(weights, utilities, q_values):
    """Population logit welfare at each q.

    ``weights``: (T,) summing to 1; ``utilities``: (T, k); ``q_values``: (Q,).
    welfare(q) = sum_t w_t * sum_i u_ti * softmax_i(q * u_ti). Evaluated by
    broadcasting over chunks of q values of at most CURVE_CHUNK_ELEMENTS
    (q x T x k) elements, so memory stays bounded for any grid. Each (q, type)
    row subtracts its own max before exponentiating, and the type reduction
    uses np.sum (pairwise) to keep large-T accumulation accurate.
    """
    weights = np.asarray(weights, dtype=np.float64)
    utilities = np.asarray(utilities, dtype=np.float64)
    q_values = np.asarray(q_values, dtype=np.float64)
    out = np.empty(q_values.shape[0], dtype=np.float64)
    chunk = max(1, CURVE_CHUNK_ELEMENTS // utilities.size)
    for start in range(0, q_values.shape[0], chunk):
        q = q_values[start:start + chunk, np.newaxis, np.newaxis]
        z = q * utilities
        z -= z.max(axis=2, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=2, keepdims=True)
        z *= utilities
        per_type = np.sum(z, axis=2)
        per_type *= weights
        out[start:start + chunk] = np.sum(per_type, axis=1)
    return out


def count_below_threshold_numpy(diffs, threshold, strict):
    """Number of entries with diffs < threshold (strict) or <= (non-strict)."""
    if strict:
        return np.int64(np.count_nonzero(diffs < threshold))
    return np.int64(np.count_nonzero(diffs <= threshold))


_BACKEND = _requested_backend()

if _BACKEND == "numba":
    try:
        from numba import njit
    except ImportError:
        _BACKEND = "numpy"

if _BACKEND == "numba":

    @njit(cache=True)
    def argmax_tally_numba(utilities, errors):
        k = utilities.shape[0]
        counts = np.zeros(k, dtype=np.int64)
        for row in range(errors.shape[0]):
            best = 0
            best_score = utilities[0] + errors[row, 0]
            for i in range(1, k):
                score = utilities[i] + errors[row, i]
                if score > best_score:
                    best = i
                    best_score = score
            counts[best] += 1
        return counts

    @njit(cache=True)
    def logit_welfare_curve_numba(weights, utilities, q_values):
        n_types, k = utilities.shape
        out = np.empty(q_values.shape[0], dtype=np.float64)
        for qi in range(q_values.shape[0]):
            q = q_values[qi]
            # Kahan-compensated accumulation over types: the numpy path gets
            # pairwise summation for free, this keeps large-T parity.
            total = 0.0
            comp = 0.0
            for t in range(n_types):
                zmax = q * utilities[t, 0]
                for i in range(1, k):
                    z = q * utilities[t, i]
                    if z > zmax:
                        zmax = z
                denom = 0.0
                value = 0.0
                for i in range(k):
                    e = np.exp(q * utilities[t, i] - zmax)
                    denom += e
                    value += utilities[t, i] * e
                term = weights[t] * (value / denom)
                y = term - comp
                s = total + y
                comp = (s - total) - y
                total = s
            out[qi] = total
        return out

    @njit(cache=True)
    def count_below_threshold_numba(diffs, threshold, strict):
        count = 0
        if strict:
            for i in range(diffs.shape[0]):
                if diffs[i] < threshold:
                    count += 1
        else:
            for i in range(diffs.shape[0]):
                if diffs[i] <= threshold:
                    count += 1
        return count

    argmax_tally = argmax_tally_numba
    logit_welfare_curve = logit_welfare_curve_numba
    count_below_threshold = count_below_threshold_numba
else:
    argmax_tally = argmax_tally_numpy
    logit_welfare_curve = logit_welfare_curve_numpy
    count_below_threshold = count_below_threshold_numpy


def active_backend() -> str:
    """Name of the backend the public kernels are bound to."""
    return _BACKEND


def warm_up() -> None:
    """Trigger JIT compilation so timed paths do not pay it (no-op on numpy)."""
    u = np.array([0.0, 1.0])
    argmax_tally(u, np.zeros((2, 2)))
    logit_welfare_curve(np.array([1.0]), u[np.newaxis, :], np.array([0.5]))
    count_below_threshold(np.array([0.0]), 1.0, True)
