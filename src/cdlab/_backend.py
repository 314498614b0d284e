"""The hot inner loops: basis recurrence evaluation and pairwise kernel-mass
reductions, in vectorized numpy.

Callers use them as module attributes (`_backend.pair_mass(...)`), so the
benchmark's tracer can wrap each loop in one place.  Every reduction has a
fixed shape for a fixed input, so the results are deterministic.
"""

import numpy as np

# rows of A per block of the kernel-mass reductions: at m = 8192 a block's
# product with Q_B is at most 128 MiB, and the loop overhead stays small
_MASS_BLOCK = 1024


def eval_recurrence(z, scale, const_norm, hess, szego_c=None):
    """Evaluate the orthonormal-polynomial columns at the points z.

    Runs the Hessenberg recurrence q_{j+1} = (z*q_j - sum_i H[i,j]*q_i) /
    H[j+1,j] starting from the constant 1/const_norm, then scales row a by
    scale[a] (the metric weight factor).  Returns a (len(z), n) complex array.

    Each sum starts at the first nonzero H[i,j]: a tridiagonal H costs O(n)
    per point, a full one O(n^2).

    szego_c, the c_j of a Szego-route basis (see basis._szego), selects the
    coupled Szego step instead, O(n) per point on any H:
        q_{j+1} = (z*q_j - c_j*q_j^*) / rho_j,
        q_{j+1}^* = rho_j*q_j^* - conj(c_j)*q_{j+1},
    with rho_j = H[j+1,j] and q_0^* = q_0.  H[:j+1, j] = c_j*s_j, where s_j
    holds the coordinates of q_j^*, so both give the same columns.
    """
    n = hess.shape[0]
    out = np.empty((z.shape[0], n), dtype=np.complex128, order="F")
    out[:, 0] = 1.0 / const_norm
    if szego_c is None:
        upper = np.triu(hess != 0)
        first = np.where(upper.any(axis=0), upper.argmax(axis=0), np.arange(1, n + 1))
        for j in range(n - 1):
            lo = first[j]
            v = z * out[:, j] - out[:, lo : j + 1] @ hess[lo : j + 1, j]
            out[:, j + 1] = v / hess[j + 1, j]
    else:
        rev = out[:, 0].copy()
        rho = hess.diagonal(-1).real.tolist()
        for j, c in enumerate(szego_c.tolist()):
            col = out[:, j + 1]
            np.multiply(z, out[:, j], out=col)
            col -= c * rev
            col /= rho[j]
            rev *= rho[j]
            rev -= c.conjugate() * col
    out *= scale[:, None]
    return out


def _abs2_blocks(q, idx_a, idx_b):
    """Yield (lo, |(Q_A Q_B^*)[lo : lo + _MASS_BLOCK]|^2) over blocks of A
    rows.  On the weighted node values Q = sqrt(w) Phi the entries are
    |K(x_a, x_b)|^2 w_a w_b, each a square or a sum of two squares: every
    summand of the reductions below is nonnegative, and no m x m array is
    formed.

    When the imaginary parts of Q are zero (real nodes), the product is
    taken on the real parts, at a quarter of the flops.  Otherwise each
    gathered block of A rows is conjugated in place, giving
    conj(Q_A Q_B^*) with the same moduli, so Q_B is gathered once and never
    conjugated.
    """
    real = not np.any(q.imag)
    if real:
        q = q.real
    qb_t = q[idx_b].T
    for lo in range(0, idx_a.shape[0], _MASS_BLOCK):
        qa = q[idx_a[lo : lo + _MASS_BLOCK]]
        if real:
            sq = qa @ qb_t
            yield lo, np.square(sq, out=sq)
            continue
        np.conjugate(qa, out=qa)
        sq = (qa @ qb_t).view(np.float64)
        np.square(sq, out=sq)
        yield lo, sq[:, 0::2] + sq[:, 1::2]


def pair_mass(q, idx_a, idx_b):
    """sum_{a in A, b in B} |K[a,b]|^2 * w[a] * w[b], from the weighted node
    values q."""
    return float(sum(block.sum() for _, block in _abs2_blocks(q, idx_a, idx_b)))


def defect_pair_sum(q, f, g):
    """sum_{a,b} f[a]^2 (g[a]-g[b])^2 |K[a,b]|^2 w[a] w[b], from the weighted
    node values q.

    Every summand is nonnegative (no cancellation), so a constant g gives an
    exact zero.
    """
    every = np.arange(q.shape[0])
    acc = 0.0
    for lo, block in _abs2_blocks(q, every, every):
        hi = lo + block.shape[0]
        d = g[lo:hi, None] - g
        block *= np.square(d, out=d)
        acc += float((f[lo:hi] * f[lo:hi]) @ block.sum(axis=1))
    return acc


def row_weighted_sumsq(q, w):
    """Vector of sum_b |K[a,b]|^2 * w[b], from the weighted node values q."""
    every = np.arange(q.shape[0])
    return np.concatenate([block.sum(axis=1) for _, block in _abs2_blocks(q, every, every)]) / w


def backend_name():
    """Name of the compute path (recorded by the benchmark)."""
    return "numpy"
