"""The hot inner loops: basis recurrence evaluation and pairwise
kernel-mass reductions, in vectorized numpy.

Callers use them as module attributes (`_backend.pair_mass(...)`), so the
benchmark's tracer can wrap each loop in one place.  Every reduction has a
fixed shape for a fixed input, so the results are deterministic.
"""

import numpy as np

# rows of A per block of the kernel-mass reductions: at m = 8192 a block's
# product with Q_B is at most 128 MiB, and the loop overhead stays small
_MASS_BLOCK = 1024


# the columns one step reads on each route: q_j and q_j^* (Szego), q_{j-1}
# and q_j (three-term); a Hessenberg step reads all n
_STEP_COLUMNS = {"szego": 1, "three_term": 2}


def eval_recurrence(z, scale, const_norm, route, coef, sub, *, diagonal=False):
    """Evaluate the orthonormal-polynomial columns at the points z.

    Runs the recurrence of the route from the constant 1/const_norm, then
    scales row a by scale[a] (the metric weight factor).  Returns a
    (len(z), n) array, in float64 when coef is float64 and the complex
    points z are real.  sub holds the n - 1 norms h_j = H[j+1, j] of H =
    T(z), on every route; coef holds what else a step reads of it.

    Route "hessenberg" runs q_{j+1} = (z*q_j - sum_i H[i,j]*q_i) / h_j
    over every column, O(n^2) per point, coef the whole H.  "three_term"
    runs it over columns max(0, j-1)..j, O(n), coef H's band on and above
    the diagonal, (2, n), column j = (H[j-1, j], H[j, j]).  "szego" runs
    the coupled Szego step on coef, the c_j of the route (see
    basis._szego), O(n) per point:
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


def _columns(z, win, route, coef, sub):
    """Run the route's recurrence at the points z in the window win, whose
    column 0 holds q_0, and yield the columns q_0, ..., q_{n-1} in turn,
    each a view of win that the next step may overwrite.  A step reads the
    norm sub[j] and coef: the c_j (Szego), or column j of the band
    (three-term) or of H (Hessenberg), over the last `band` columns (see
    _STEP_COLUMNS).

    win holds consecutive columns, the oldest in win[:, 0].  When it is
    full, the last `band` columns (all that the next step reads) move to
    its front.  A window with n columns never moves: it is then the whole
    (len(z), n) matrix.
    """
    n, width = sub.shape[0] + 1, win.shape[1]
    band = _STEP_COLUMNS.get(route, n)
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
            h = coef[lo : j + 1, j] if route == "hessenberg" else coef[lo - j - 1 :, j]
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
    width = min(n, _STEP_COLUMNS.get(route, n) + _SLACK)
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
