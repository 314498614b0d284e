"""The hot inner loops: basis recurrence evaluation and pairwise
kernel-mass reductions, in vectorized numpy.

A mass over an index set A against itself, with |A| > n, is read off the
n x n Gram matrix Q_A^* Q_A; every other mass and reduction sums blocks of
the |A| x |B| product Q_A Q_B^*.

Callers use them as module attributes (`_backend.pair_mass(...)`), so the
benchmark's tracer can wrap each loop in one place.  Every reduction has a
fixed shape for a fixed input, so the results are deterministic.
"""

import numpy as np

# rows of A per block of the kernel-mass reductions: at m = 8192 a block's
# product with Q_B is at most 128 MiB, and the loop overhead stays small
_MASS_BLOCK = 1024
# entries of Q gathered per block of the Gram matrix, 4 MiB of complex128:
# at n = 1024 a block is 256 rows, and the Gram matrix and its block
# product are the two n x n arrays
_GRAM_BLOCK_ENTRIES = 1 << 18


def eval_recurrence(z, scale, const_norm, route, coef, sub, *, diagonal=False):
    """Evaluate the orthonormal-polynomial columns at the points z.

    Runs the recurrence of the route from the constant 1/const_norm, then
    scales row a by scale[a] (the metric weight factor).  Returns a
    (len(z), n) array, in float64 when coef is float64 and the complex
    points z are real.  sub holds the n - 1 norms h_j = H[j+1, j] of H =
    T(z), on every route; coef holds what else a step reads of it.

    Routes "three_term" and "hessenberg" run q_{j+1} = (z*q_j - sum_i
    H[i,j]*q_i) / h_j over columns max(0, j+1-w)..j, coef H on and above
    its diagonal in band storage, (w, n), column j = H[j+1-w : j+1, j]:
    O(n) per point for the three-term w = 2, O(n^2) for full Arnoldi's
    w = n.  "szego" runs the coupled Szego step on coef, the c_j of the
    route (see basis._szego), O(n) per point:
        q_{j+1} = (z*q_j - c_j*q_j^*) / rho_j,
        q_{j+1}^* = rho_j*q_j^* - conj(c_j)*q_{j+1},
    with rho_j = h_j and q_0^* = q_0.  H[:j+1, j] = c_j*s_j, where s_j
    holds the coordinates of q_j^*, so it gives the same columns.

    diagonal=True returns instead the per-point sum over the columns of
    |scale * q_j|^2, the diagonal Christoffel-Darboux kernel, from the same
    recurrence run in a window of the columns one step reads (see
    _diagonal): no (len(z), n) array is formed.
    """
    n = sub.shape[0] + 1
    if not np.iscomplexobj(coef) and not np.any(z.imag):
        z = np.ascontiguousarray(z.real)
    if diagonal:
        return _diagonal(z, scale, const_norm, route, coef, sub)
    out = np.empty((z.shape[0], n), dtype=z.dtype, order="F")
    out[:, 0] = 1.0 / const_norm
    for _ in _columns(z, out, route, coef, sub):
        pass
    out *= scale[:, None]
    return out


def _step_columns(route, coef):
    """The columns one step reads: q_j and q_j^* (Szego), or the band
    width w of coef, q_{j+1-w}..q_j (w = 2 three-term, n Hessenberg)."""
    return 1 if route == "szego" else coef.shape[0]


def _columns(z, win, route, coef, sub):
    """Run the route's recurrence at the points z in the window win, whose
    column 0 holds q_0, and yield the columns q_0, ..., q_{n-1} in turn,
    each a view of win that the next step may overwrite.  A step reads the
    norm sub[j] and coef, the c_j (Szego) or column j of the band, over the
    last `band` columns (see _step_columns).

    win holds consecutive columns, the oldest in win[:, 0].  When it is
    full, the last `band` columns (all that the next step reads) move to
    its front.  A window with n columns never moves: it is then the whole
    (len(z), n) matrix.
    """
    n, width = sub.shape[0] + 1, win.shape[1]
    band = _step_columns(route, coef)
    base = 0            # the column held in win[:, 0]
    tmp = np.empty_like(win[:, 0])
    # every route builds a real, positive subdiagonal h.  numpy divides a
    # complex by h as (re, im) * (1 / h), up to the sign of a zero part, so
    # each step scales the float parts by 1 / h, at a fraction of the cost
    inv_sub = (1.0 / sub).tolist()
    yield win[:, 0]
    if route == "szego":
        rev = win[:, 0].copy()
        rho = sub.tolist()
        c_j = coef.tolist()
    for j in range(n - 1):
        if j + 1 - base == width:
            win[:, :band] = win[:, width - band:]
            base = j + 1 - band
        col = win[:, j + 1 - base]
        parts = col.view(np.float64)
        np.multiply(z, win[:, j - base], out=col)
        if route != "szego":
            lo = max(0, j + 1 - band)
            # coef is C-ordered, so h is a strided vector: OpenBLAS's gemv
            # then adds the products one column at a time, where for a
            # contiguous h it fuses two, and the columns would round apart
            h = coef[lo - j - 1 :, j]
            col -= np.matmul(win[:, lo - base : j + 1 - base], h, out=tmp)
            parts *= inv_sub[j]
        else:
            c = c_j[j]
            col -= np.multiply(rev, c, out=tmp)
            parts *= inv_sub[j]
            rev *= rho[j]
            rev -= np.multiply(col, c.conjugate(), out=tmp)
        yield col


# entries of the recurrence window per block of diagonal evaluation, 8 MiB
# of complex128: the three-term or the Szego step takes ~50k points per
# block, the Hessenberg step 2^19 / n
_WINDOW_ENTRIES = 1 << 19
# columns the window holds beyond those one step reads: a three-term or
# Szego window moves its band to the front once every _SLACK steps
_SLACK = 8


def _diagonal(z, scale, const_norm, route, coef, sub):
    """Per-point sum of |q_j|^2 over the columns of the recurrence started
    from q_0 = scale / const_norm.

    The recurrence is linear and the scale acts on each point alone, so
    this start gives the scaled columns of eval_recurrence.  Each column
    adds its square as re^2 + im^2, in column order; the window has the
    dtype of z, float64 on the real route.  The points are taken in blocks
    of _WINDOW_ENTRIES / width, so memory is O(block * band), whatever the
    number of points.
    """
    n = sub.shape[0] + 1
    real = not np.iscomplexobj(z)
    width = min(n, _step_columns(route, coef) + _SLACK)
    block = max(1, _WINDOW_ENTRIES // width)
    sums = np.empty(z.shape[0])
    # one window and its squares serve every block, so they are allocated
    # (and faulted in) once
    p = min(block, z.shape[0])
    window = np.empty((p, width), dtype=z.dtype, order="F")
    sq_buf, im2_buf = np.empty(p), np.empty(p)
    for lo in range(0, z.shape[0], block):
        zb = z[lo : lo + block]
        win, sq, im2 = window[: zb.shape[0]], sq_buf[: zb.shape[0]], im2_buf[: zb.shape[0]]
        win[:, 0] = scale[lo : lo + block] * (1.0 / const_norm)
        acc = sums[lo : lo + block]
        for j, q in enumerate(_columns(zb, win, route, coef, sub)):
            np.square(q.real, out=sq)
            if not real:
                sq += np.square(q.imag, out=im2)
            if j:
                acc += sq
            else:
                acc[...] = sq
    return sums


def _abs2_blocks(q, idx_a, idx_b):
    """Yield (lo, |(Q_A Q_B^*)[lo : lo + _MASS_BLOCK]|^2) over blocks of A
    rows.  On the weighted node values Q = sqrt(w) Phi the entries are
    |K(x_a, x_b)|^2 w_a w_b, each a square or a sum of two squares: every
    summand of the reductions below is nonnegative, and no m x m array is
    formed.

    A float64 Q (real nodes) gives a real product, at a quarter of the
    flops of a complex one.  A complex Q has each gathered block of A rows
    conjugated in place, giving conj(Q_A Q_B^*) with the same moduli, so
    Q_B is gathered once and never conjugated.
    """
    real = not np.iscomplexobj(q)
    qb_t = q[idx_b].T
    for lo in range(0, idx_a.shape[0], _MASS_BLOCK):
        qa = q[idx_a[lo : lo + _MASS_BLOCK]]
        if not real:
            np.conjugate(qa, out=qa)
        sq = (qa @ qb_t).view(np.float64)
        np.square(sq, out=sq)
        yield lo, (sq if real else sq[:, 0::2] + sq[:, 1::2])


def pair_mass(q, idx_a, idx_b):
    """sum_{a in A, b in B} |K[a,b]|^2 * w[a] * w[b] = ||Q_A Q_B^*||_F^2,
    from the weighted node values q.

    Two routes, each a sum of nonnegative terms:

    - Gram, O(|A| n^2) time and O(n^2) memory: when idx_a and idx_b are
      equal, repeats and order included, and |A| > n.  ||Q_A Q_A^*||_F^2 =
      ||Q_A^* Q_A||_F^2, so the sum runs over the n x n Gram matrix, which
      is accumulated over blocks of A rows (see _gram).
    - Pairs, O(|A| |B| n): the blocks of _abs2_blocks, on every other pair
      of sets, and the reference the first is tested against.
    """
    if idx_a.shape[0] > q.shape[1] and np.array_equal(idx_a, idx_b):
        g = _gram(q, idx_a).view(np.float64)
        return float(np.square(g, out=g).sum())
    return float(sum(block.sum() for _, block in _abs2_blocks(q, idx_a, idx_b)))


def _gram(q, idx):
    """conj(Q_A^* Q_A), (n, n), with A = idx, summed over blocks of
    _GRAM_BLOCK_ENTRIES / n rows of A: no |A| x n gather is made.

    Each block X is gathered by fancy indexing (np.take with out= is ~20x
    slower on the F-ordered Q the builds give), and X^T conj(X) =
    conj(X^* X) has the moduli of X^* X.  A float64 Q gives the real
    X^T X.
    """
    n = q.shape[1]
    rows = max(1, _GRAM_BLOCK_ENTRIES // n)
    gram, prod = np.zeros((n, n), dtype=q.dtype), np.empty((n, n), dtype=q.dtype)
    for lo in range(0, idx.shape[0], rows):
        x = q[idx[lo : lo + rows]]
        gram += np.matmul(x.T, np.conjugate(x) if np.iscomplexobj(x) else x, out=prod)
    return gram


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
