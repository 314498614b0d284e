"""Compressions of multiplication operators to the polynomial subspace:
assembly in an orthonormal basis, the Legendre matrix family, Schatten
norms, spectra, and functional calculus.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _backend, symbols
from .basis import (WeightedSpace, band_product, operator_frame, operator_rows,
                    orthonormalize, recurrence_toeplitz, weighted_rows)
from .errors import NotHermitianError
from .measure import _real_values, _require_count, interval_lebesgue

_HERM_TOL = 1e-8
# rows per block of a Hermitian pass: its temporaries are two blocks
_HERM_BLOCK = 256


class ToeplitzMatrix:
    """Hermitian matrix of the compressed multiplication operator, real
    symmetric on a real basis.

    Read off a basis recurrence, the matrix is held as its band only, by
    rows (see basis.recurrence_toeplitz), and entries is formed on first
    read; otherwise entries is the matrix.  Both are read-only.  basis_id
    names its frame (basis.operator_frame).  asymmetry records the max
    entry deviation from Hermitian symmetry seen before the final
    symmetrization (quadrature noise diagnostic), 0.0 on the Szego route.
    """

    def __init__(self, entries, symbol_desc, k, basis_id, asymmetry=0.0, rows=None):
        for arr in (entries, rows):
            if arr is not None:
                arr.setflags(write=False)
        if entries is not None:
            self.__dict__["entries"] = entries
        self._rows, self.symbol_desc, self.k = rows, symbol_desc, k
        self.basis_id, self.asymmetry = basis_id, asymmetry

    @cached_property
    def entries(self):
        mat = _dense(self._rows)
        mat.setflags(write=False)
        return mat

    @property
    def dimension(self):
        return self.entries.shape[0] if self._rows is None else self._rows.shape[0]


def _dense(rows, out=None):
    """The band held by rows as a new square array, or subtracted in place
    from the square array out."""
    n, w = rows.shape[0], rows.shape[1] // 2
    mat = np.zeros((n, n), dtype=rows.dtype) if out is None else out
    for d in range(-min(w, n - 1), min(w, n - 1) + 1):
        below, above = max(-d, 0), max(d, 0)
        block, band = mat[below:, above:], rows[below : n - above, w + d]
        np.fill_diagonal(block, band if out is None else block.diagonal() - band)
    return mat


@dataclass(frozen=True)
class SpectralMeasure:
    eigenvalues: np.ndarray  # sorted ascending
    k: int

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)


def _block_pairs(v):
    """Slices I, J (J at or right of I) and blocks v[I, J], v[J, I]: the
    pairs that tile the square matrix v, in every Hermitian pass."""
    for lo in range(0, v.shape[0], _HERM_BLOCK):
        rows = slice(lo, lo + _HERM_BLOCK)
        for lo2 in range(lo, v.shape[0], _HERM_BLOCK):
            cols = slice(lo2, lo2 + _HERM_BLOCK)
            yield rows, cols, v[rows, cols], v[cols, rows]


def _hermitian_part_inplace(v):
    """Overwrite the square matrix v with 0.5 (v + v^H), bit for bit, and
    return max |v - v^H| of the input (NaN if an entry is NaN).  Each block
    is built from its own entries, as the signs of zeros require."""
    asym = 0.0
    for rows, cols, x, y in _block_pairs(v):
        upper = np.conjugate(y.T)
        diff = x - upper
        asym = np.maximum(asym, np.max(np.abs(diff, out=diff).real))
        if cols != rows:
            lower = np.conjugate(x, out=diff).T   # 0.5 (Y + X^H) in diff's buffer
            lower += y
            lower *= 0.5
            v[cols, rows] = lower
        upper += x
        upper *= 0.5
        v[rows, cols] = upper
    return float(asym)


def _quadrature_raw(q, fvals):
    """Q* F Q from the weighted rows q and the symbol values: O(m n^2), in
    the dtype of q.

    Q* (F Q) is taken as conj(Q^T conj(F Q)): conjugating the scaled copy
    in place spares an m x n conjugate copy of Q.
    """
    scaled = fvals[:, None] * q
    np.conjugate(scaled, out=scaled)
    return np.conjugate(q.T @ scaled)


def toeplitz(basis, mu, f, symbol_desc=None):
    """Matrix of the compressed multiplication by the real symbol f:
    entries[i,j] = sum_a f(x_a) p_j(x_a) conj(p_i(x_a)) e^{-2k phi} w_a.

    The p_i are those of the frame of basis.operator_frame.  A
    PolynomialSymbol (degree <= 2 in Re z, Im z) on the measure the basis
    was built on is read off the recurrence as its band, O(n), all the
    matrix holds until entries is read.  Any other symbol, a basis used on
    another measure, or a full-Arnoldi basis takes the quadrature product
    Q* F Q, O(m n^2), made Hermitian in place.
    """
    fvals = _real_values("symbol", f, mu.nodes)
    name = getattr(f, "__name__", "custom") if symbol_desc is None else symbol_desc
    k = basis.space.tensor_power
    frame = operator_frame(basis, mu)
    if isinstance(f, symbols.PolynomialSymbol) and basis.defined_on(mu):
        band = recurrence_toeplitz(basis, f.terms)
        if band is not None:
            return ToeplitzMatrix(None, name, k, frame, band[1], rows=band[0])
    raw = _quadrature_raw(operator_rows(basis, mu), fvals)
    asym = _hermitian_part_inplace(raw)
    return ToeplitzMatrix(entries=raw, symbol_desc=name, k=k, basis_id=frame, asymmetry=asym)


def legendre_toeplitz(f, k, m=None, symbol_desc=None):
    """Matrix a_{ij} = int_{-1}^{1} f(x) L_i(x) L_j(x) dx over the normalized
    Legendre polynomials, by a Gauss-Legendre rule of order m (default 4k):
    `toeplitz` on the Lanczos basis of interval_lebesgue(m), whose
    polynomials are the L_i.
    """
    _require_count("k", k)
    if m is None:
        m = 4 * k
    _require_count("m", m)
    if m < k:
        raise ValueError(f"quadrature order m={m} too small for k={k}")
    mu = interval_lebesgue(m)
    basis = orthonormalize(mu, WeightedSpace(k - 1, tensor_power=k))
    return toeplitz(basis, mu, f, symbol_desc)


def compose(a, b):
    """Operator product A @ B (generally non-Hermitian), a new array.  Two
    bands multiply as bands, and only their product is formed dense."""
    if a.k != b.k or a.basis_id != b.basis_id:
        raise ValueError("operands live in different spaces "
                         f"(k={a.k}/{b.k}, basis {a.basis_id}/{b.basis_id})")
    if a._rows is not None and b._rows is not None:
        return _dense(band_product(a._rows, b._rows))
    return a.entries @ b.entries


def schatten_norm(a, p):
    """Dimension-normalized Schatten norm ((1/n) sum sigma_i^p)^(1/p).

    p = 2 is the Frobenius norm over sqrt(n) and needs no SVD.  Any other p
    is taken as sigma_max ((1/n) sum (sigma_i / sigma_max)^p)^(1/p), so a
    large p neither underflows nor overflows, and p = inf gives sigma_max.
    A zero matrix gives 0.0; a p below 1 or NaN, an empty matrix, or a NaN
    or infinite entry raises ValueError.
    """
    if not p >= 1:      # NaN fails this too
        raise ValueError("p must be >= 1")
    mat = a.entries if isinstance(a, ToeplitzMatrix) else np.asarray(a)
    if mat.size == 0:
        raise ValueError(f"need a nonempty matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite")
    if p == 2:
        return float(np.linalg.norm(mat) / np.sqrt(min(mat.shape)))
    sigma = np.linalg.svd(mat, compute_uv=False)
    top = sigma[0]      # svd sorts the singular values in descending order
    if top == 0.0 or p == np.inf:
        return float(top)
    return float(top * np.mean((sigma / top) ** p) ** (1.0 / p))


def operator_norm(a):
    """Largest singular value: the Schatten norm at p = inf."""
    return schatten_norm(a, np.inf)


def _as_hermitian(a):
    """The matrix of a, checked block pair by block pair (never repaired):
    max |A - A^H| <= _HERM_TOL (1 + max |entry|), entries finite."""
    mat = a.entries if isinstance(a, ToeplitzMatrix) else np.asarray(a)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
        raise ValueError(f"need a nonempty square matrix, got shape {mat.shape}")
    asym = scale = 0.0
    for _, _, x, y in _block_pairs(mat):
        diff = x - np.conjugate(y.T)
        asym = np.maximum(asym, np.max(np.abs(diff, out=diff).real))
        scale = np.maximum(scale, np.maximum(np.max(np.abs(x)), np.max(np.abs(y))))
    if not np.isfinite(scale):
        raise ValueError("matrix entries must be finite")
    if asym > _HERM_TOL * (1.0 + float(scale)):
        raise NotHermitianError(f"asymmetry {asym:.3e} above tolerance")
    return mat


def spectrum(a):
    """Sorted real eigenvalues of a Hermitian operator matrix."""
    mat = _as_hermitian(a)
    return SpectralMeasure(eigenvalues=np.linalg.eigvalsh(mat), k=mat.shape[0])


# the registry's spectral functions lambda^p, whose statistic is the trace
# (1/n) tr A^p
_TRACE_POWERS = ((symbols.spectral_identity, 1), (symbols.spectral_square, 2),
                 (symbols.spectral_cube, 3))


def spectral_statistic(a, g):
    """(1/n_k) sum g(lambda) over the spectrum.

    For the registry's identity, square and cube this is (1/n) tr A^p,
    taken as tr A, ||A||_F^2 and <A, A^2>_F (A is Hermitian): no
    eigensolve.  A banded ToeplitzMatrix gives them from its band, in
    O(n), with no n x n array.  Any other g runs eigvalsh.
    """
    power = next((p for fn, p in _TRACE_POWERS if fn is g), None)
    if power is None:
        eig = spectrum(a).eigenvalues
        return float(np.mean(np.asarray(g(eig), dtype=float)))
    if isinstance(a, ToeplitzMatrix) and a._rows is not None:
        return _band_trace_power(a._rows, power)
    mat = _as_hermitian(a)
    if power == 1:
        trace = np.trace(mat)
    elif power == 2:
        trace = np.vdot(mat, mat)
    else:
        trace = np.vdot(mat, mat @ mat)
    return float(trace.real / mat.shape[0])


def _band_trace_power(rows, p):
    """(1/n) tr A^p, p = 1, 2 or 3, of the Hermitian band held by rows
    (rows[i, w + d] = A[i, i + d], zero off the matrix), in O(n): every
    entry of A is in rows once, so tr A^2 = ||rows||^2, and tr A^3 =
    <A, A^2>_F reads the band of A^2 that A covers."""
    if not np.all(np.isfinite(rows)):
        raise ValueError("matrix entries must be finite")
    w = rows.shape[1] // 2
    if p == 1:
        trace = rows[:, w].sum()
    elif p == 2:
        trace = np.vdot(rows, rows)
    else:
        trace = np.vdot(rows, band_product(rows, rows)[:, w : 3 * w + 1])
    return float(trace.real / rows.shape[0])


def functional_calculus(a, h):
    """h(A) for Hermitian A, via the eigendecomposition U h(L) U^*."""
    mat = _as_hermitian(a)
    lam, vec = np.linalg.eigh(mat)
    return (vec * np.asarray(h(lam), dtype=float)) @ vec.conj().T


def algebra_defect(basis, mu, f, g, p):
    """Schatten-p norm of T(f) T(g) - T(f*g), the algebra closure defect;
    T(f*g) is subtracted in place from the product, the one dense array."""
    t_f = toeplitz(basis, mu, f)
    t_g = toeplitz(basis, mu, g)
    t_fg = toeplitz(basis, mu, symbols.product(f, g),
                    symbol_desc=f"{t_f.symbol_desc}*{t_g.symbol_desc}")
    defect = compose(t_f, t_g)
    if t_fg._rows is None:
        defect -= t_fg.entries
    else:
        _dense(t_fg._rows, out=defect)
    return schatten_norm(defect, p)


def defect_kernel_bound(basis, mu, f, g):
    """Upper bound for the p=2 algebra defect through the kernel mass of
    S(x,y) = (f(x) g(x) - f(x) g(y)) K(x,y):
    sqrt((1/n_k) sum_{a,b} f(x_a)^2 (g(x_a)-g(x_b))^2 |K[a,b]|^2 w_a w_b),
    summed from the weighted basis rows on mu.
    """
    fv = _real_values("symbol", f, mu.nodes)
    gv = _real_values("symbol", g, mu.nodes)
    total = _backend.defect_pair_sum(weighted_rows(basis, mu), fv, gv)
    return float(np.sqrt(total / basis.dimension))


def symbol_distance(basis, mu, f, g):
    """Schatten-1 distance (1/n_k) Tr |T(f) - T(g)| between two symbols:
    T(f) - T(g) = T(f - g) is Hermitian, so its singular values are its
    |eigenvalues|, taken through spectrum and its Hermitian check."""
    return spectral_statistic(toeplitz(basis, mu, symbols.difference(f, g)),
                              symbols.spectral_abs)
