"""The hot inner loops: basis recurrence evaluation and pairwise kernel-mass
reductions, in vectorized numpy.

Callers use them as module attributes (`_backend.pair_mass(...)`), so the
benchmark's tracer can wrap each loop in one place.  Every reduction has a
fixed shape for a fixed input, so the results are deterministic.
"""

import numpy as np


def eval_recurrence(z, scale, const_norm, hess):
    """Evaluate the orthonormal-polynomial columns at the points z.

    Runs the Hessenberg recurrence q_{j+1} = (z*q_j - sum_i H[i,j]*q_i) /
    H[j+1,j] starting from the constant 1/const_norm, then scales row a by
    scale[a] (the metric weight factor).  Returns a (len(z), n) complex array.

    Each sum starts at the first nonzero H[i,j]: a tridiagonal H costs O(n)
    per point, a full one O(n^2).
    """
    n = hess.shape[0]
    out = np.empty((z.shape[0], n), dtype=np.complex128, order="F")
    out[:, 0] = 1.0 / const_norm
    upper = np.triu(hess != 0)
    first = np.where(upper.any(axis=0), upper.argmax(axis=0), np.arange(1, n + 1))
    for j in range(n - 1):
        lo = first[j]
        v = z * out[:, j] - out[:, lo : j + 1] @ hess[lo : j + 1, j]
        out[:, j + 1] = v / hess[j + 1, j]
    out *= scale[:, None]
    return out


def pair_mass(kern, w, idx_a, idx_b):
    """sum_{a in A, b in B} |K[a,b]|^2 * w[a] * w[b]."""
    sub = kern[np.ix_(idx_a, idx_b)]
    abs2 = sub.real * sub.real + sub.imag * sub.imag
    return float(w[idx_a] @ abs2 @ w[idx_b])


def defect_pair_sum(kern, w, f, g):
    """sum_{a,b} f[a]^2 (g[a]-g[b])^2 |K[a,b]|^2 w[a] w[b].

    Row-wise accumulation keeps every summand nonnegative (no cancellation),
    so a constant g gives an exact zero.
    """
    m = kern.shape[0]
    acc = 0.0
    for a in range(m):
        row = kern[a]
        abs2 = row.real * row.real + row.imag * row.imag
        d = g[a] - g
        acc += (f[a] * f[a] * w[a]) * float((d * d * abs2) @ w)
    return acc


def row_weighted_sumsq(kern, w):
    """Vector of sum_b |K[a,b]|^2 * w[b]."""
    abs2 = kern.real * kern.real + kern.imag * kern.imag
    return abs2 @ w


def backend_name():
    """Name of the compute path (recorded by the benchmark)."""
    return "numpy"
