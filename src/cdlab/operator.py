"""Compressions of multiplication operators to the polynomial subspace:
assembly in an orthonormal basis, the classical Fourier and Legendre matrix
families, Schatten norms, spectra, and functional calculus.
"""

from dataclasses import dataclass

import numpy as np

from . import _backend, symbols
from ._csvio import write_csv
from .basis import weighted_rows
from .errors import NotHermitianError
from .measure import _gauss_legendre

_HERM_TOL = 1e-8
# rows per block of a Hermitian pass: its temporaries are two blocks
_HERM_BLOCK = 256


@dataclass(frozen=True)
class ToeplitzMatrix:
    """Hermitian matrix of the compressed multiplication operator, real
    symmetric on a real basis.

    asymmetry records the max entry deviation from Hermitian symmetry seen
    before the final symmetrization (quadrature noise diagnostic).
    """

    entries: np.ndarray
    symbol_desc: str
    k: int
    basis_id: str
    asymmetry: float = 0.0

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def dimension(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectralMeasure:
    eigenvalues: np.ndarray  # sorted ascending
    k: int

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)


def _symbol_values(mu, f):
    vals = np.asarray(f(mu.nodes))
    if np.iscomplexobj(vals):
        if np.max(np.abs(vals.imag)) > 1e-12:
            raise ValueError("symbol must be real on the nodes")
        vals = vals.real
    vals = vals.astype(float)
    if vals.shape != mu.nodes.shape:
        raise ValueError("symbol must return one value per node")
    if not np.all(np.isfinite(vals)):
        raise ValueError("symbol must be finite on the nodes")
    return vals


def _symbol_name(f, override=None):
    if override is not None:
        return override
    return getattr(f, "__name__", "custom")


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


def _recurrence_raw(basis, terms):
    """Q* F Q for the polynomial symbol sum c u^a v^b (u = Re z, v = Im z,
    a + b <= 2) on the measure the basis was built on, from the recurrence
    run one step past n: Z Q = Q T(z) + r e_n^T on the nodes, whence
        T(z^2)         = T(z)^2 + Q*(z r) e_n^T,
        T(conj(z) z)   = T(z)* T(z) + |r|^2 e_n e_n^T,
    and T(conj(z)) = T(z)*.  u and v follow from (z +- conj(z))/2.
    On real nodes (a float64 basis) v = 0 and conj(z) = z, so T(u^2) =
    T(z^2), and T(f) is real.
    """
    t_z = basis.hessenberg
    real = not np.iscomplexobj(t_z)
    if real:
        terms = {(a, b): c for (a, b), c in terms.items() if b == 0}
    c = {ab: terms.get(ab, 0.0) for ab in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))}
    degree = max((a + b for a, b in terms), default=0)
    if degree == 0:
        return c[0, 0] * np.eye(basis.dimension, dtype=t_z.dtype)
    if degree == 2:
        t_z2 = t_z @ t_z
        t_z2[:, -1] += basis.z_residual
    if real:
        raw = c[1, 0] * t_z
        if degree == 2:
            raw += c[2, 0] * t_z2
    else:
        # T(f) = P + P* + gamma T(conj(z) z), with
        # P = (c_u - i c_v)/2 T(z) + (c_uu - c_vv - i c_uv)/4 T(z^2)
        half = (c[1, 0] - 1j * c[0, 1]) / 2 * t_z
        if degree == 2:
            half += (c[2, 0] - c[0, 2] - 1j * c[1, 1]) / 4 * t_z2
        raw = half + half.conj().T
        gamma = (c[2, 0] + c[0, 2]) / 2
        if gamma:
            t_zz = t_z.conj().T @ t_z
            t_zz[-1, -1] += basis.residual_sq
            raw += gamma * t_zz
    raw[np.diag_indices(basis.dimension)] += c[0, 0]
    return raw


def toeplitz(basis, mu, f, symbol_desc=None):
    """Matrix of the compressed multiplication by the real symbol f:
    entries[i,j] = sum_a f(x_a) p_j(x_a) conj(p_i(x_a)) e^{-2k phi} w_a.

    A PolynomialSymbol (degree <= 2 in Re z, Im z) on the measure the basis
    was built on is read off the basis recurrence (one n x n product per
    degree-2 monomial); any other symbol, or a basis used on another
    measure, takes the quadrature product Q* F Q, O(m n^2).
    """
    fvals = _symbol_values(mu, f)
    if isinstance(f, symbols.PolynomialSymbol) and basis.defined_on(mu):
        raw = _recurrence_raw(basis, f.terms)
    else:
        raw = _quadrature_raw(weighted_rows(basis, mu), fvals)
    asym = _hermitian_part_inplace(raw)
    return ToeplitzMatrix(entries=raw, symbol_desc=_symbol_name(f, symbol_desc),
                          k=basis.space.tensor_power, basis_id=basis.basis_id,
                          asymmetry=asym)


def classical_toeplitz(fourier, k, symbol_desc="fourier"):
    """Constant-diagonal matrix entries[i,j] = a_{i-j} from Fourier
    coefficients a_{-(k-1)}..a_{k-1} (array of length 2k-1, centered).
    """
    a = np.asarray(fourier, dtype=complex).ravel()
    if a.size != 2 * k - 1:
        raise ValueError(f"need 2k-1 = {2 * k - 1} coefficients, got {a.size}")
    if np.max(np.abs(a - a[::-1].conj())) > 1e-12:
        raise ValueError("coefficients violate conjugate symmetry a_{-j} = conj(a_j)")
    idx = np.arange(k)
    entries = a[(idx[:, None] - idx[None, :]) + (k - 1)]
    asym = _hermitian_part_inplace(entries)
    return ToeplitzMatrix(entries=entries, symbol_desc=symbol_desc, k=k,
                          basis_id="classical-fourier", asymmetry=asym)


def _normalized_legendre(x, n):
    """Columns L_0..L_{n-1} at the points x, with int L_i L_j dx = delta_ij."""
    vals = np.empty((x.shape[0], n))
    p_prev = np.ones_like(x)
    vals[:, 0] = p_prev
    if n > 1:
        p = x.copy()
        vals[:, 1] = p
        for j in range(2, n):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
            vals[:, j] = p
    vals *= np.sqrt((2 * np.arange(n) + 1) / 2.0)
    return vals


def legendre_toeplitz(f, k, m=None, symbol_desc=None):
    """Matrix a_{ij} = int_{-1}^{1} f(x) L_i(x) L_j(x) dx over the normalized
    Legendre polynomials, by a Gauss-Legendre rule of order m (default 4k).
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    if m is None:
        m = 4 * k
    if m < k:
        raise ValueError(f"quadrature order m={m} too small for k={k}")
    x, w = _gauss_legendre(m)
    fvals = np.asarray(f(x.astype(complex)))
    if np.iscomplexobj(fvals):
        fvals = fvals.real
    if not np.all(np.isfinite(fvals)):
        raise ValueError("symbol must be finite on the quadrature nodes")
    leg = _normalized_legendre(x, k)
    raw = leg.T @ ((fvals * w)[:, None] * leg)
    asym = _hermitian_part_inplace(raw)
    return ToeplitzMatrix(entries=raw, symbol_desc=_symbol_name(f, symbol_desc),
                          k=k, basis_id="legendre", asymmetry=asym)


def compose(a, b):
    """Operator product A @ B (generally non-Hermitian)."""
    if a.k != b.k or a.basis_id != b.basis_id:
        raise ValueError("operands live in different spaces "
                         f"(k={a.k}/{b.k}, basis {a.basis_id}/{b.basis_id})")
    return a.entries @ b.entries


def schatten_norm(a, p):
    """Dimension-normalized Schatten norm ((1/n) sum sigma_i^p)^(1/p).

    p = 2 is the Frobenius norm over sqrt(n) and needs no SVD.  Any other p
    is taken as sigma_max ((1/n) sum (sigma_i / sigma_max)^p)^(1/p), so a
    large p neither underflows nor overflows, and p = inf gives sigma_max.
    A zero matrix gives 0.0; an empty one raises ValueError.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    mat = a.entries if isinstance(a, ToeplitzMatrix) else np.asarray(a)
    if mat.size == 0:
        raise ValueError(f"need a nonempty matrix, got shape {mat.shape}")
    if p == 2:
        return float(np.linalg.norm(mat) / np.sqrt(min(mat.shape)))
    sigma = np.linalg.svd(mat, compute_uv=False)
    top = sigma[0]      # svd sorts the singular values in descending order
    if top == 0.0 or p == np.inf:
        return float(top)
    return float(top * np.mean((sigma / top) ** p) ** (1.0 / p))


def operator_norm(a):
    """Largest singular value."""
    mat = a.entries if isinstance(a, ToeplitzMatrix) else np.asarray(a)
    return float(np.linalg.svd(mat, compute_uv=False)[0])


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
    eigensolve.  Any other g runs eigvalsh.
    """
    power = next((p for fn, p in _TRACE_POWERS if fn is g), None)
    if power is None:
        eig = spectrum(a).eigenvalues
        return float(np.mean(np.asarray(g(eig), dtype=float)))
    mat = _as_hermitian(a)
    if power == 1:
        trace = np.trace(mat)
    elif power == 2:
        trace = np.vdot(mat, mat)
    else:
        trace = np.vdot(mat, mat @ mat)
    return float(trace.real / mat.shape[0])


def functional_calculus(a, h):
    """h(A) for Hermitian A, via the eigendecomposition U h(L) U^*."""
    mat = _as_hermitian(a)
    lam, vec = np.linalg.eigh(mat)
    return (vec * np.asarray(h(lam), dtype=float)) @ vec.conj().T


def algebra_defect(basis, mu, f, g, p):
    """Schatten-p norm of T(f) T(g) - T(f*g), the algebra closure defect."""
    t_f = toeplitz(basis, mu, f)
    t_g = toeplitz(basis, mu, g)
    t_fg = toeplitz(basis, mu, symbols.product(f, g),
                    symbol_desc=f"{t_f.symbol_desc}*{t_g.symbol_desc}")
    return schatten_norm(compose(t_f, t_g) - t_fg.entries, p)


def defect_kernel_bound(basis, mu, f, g):
    """Upper bound for the p=2 algebra defect through the kernel mass of
    S(x,y) = (f(x) g(x) - f(x) g(y)) K(x,y):
    sqrt((1/n_k) sum_{a,b} f(x_a)^2 (g(x_a)-g(x_b))^2 |K[a,b]|^2 w_a w_b),
    summed from the weighted basis rows on mu.
    """
    fv = _symbol_values(mu, f)
    gv = _symbol_values(mu, g)
    total = _backend.defect_pair_sum(weighted_rows(basis, mu), fv, gv)
    return float(np.sqrt(total / basis.dimension))


def symbol_distance(basis, mu, f, g):
    """Schatten-1 distance (1/n_k) Tr |T(f) - T(g)| between two symbols:
    T(f) - T(g) is Hermitian, so its singular values are its |eigenvalues|.
    """
    t_f = toeplitz(basis, mu, f)
    t_g = toeplitz(basis, mu, g)
    return float(np.mean(np.abs(np.linalg.eigvalsh(t_f.entries - t_g.entries))))


@dataclass(frozen=True)
class SpectralBounds:
    lambda_min: float
    lambda_max: float
    inf_f: float
    sup_f: float


def spectral_radius_bounds(a, f, mu):
    """Extreme eigenvalues together with the symbol range over the nodes.

    Checks the confinement inf f <= lambda_min <= lambda_max <= sup f (up to
    roundoff slack) and raises if it fails.
    """
    eig = spectrum(a).eigenvalues
    fv = _symbol_values(mu, f)
    rec = SpectralBounds(lambda_min=float(eig[0]), lambda_max=float(eig[-1]),
                         inf_f=float(fv.min()), sup_f=float(fv.max()))
    eps = 1e-9 * (1.0 + float(np.max(np.abs(fv))))
    if rec.lambda_min < rec.inf_f - eps or rec.lambda_max > rec.sup_f + eps:
        raise ValueError(f"spectrum escapes the symbol range: {rec}")
    return rec


def write_matrix_csv(tm, path, measure_tag=""):
    """Entry rows (i, j, re, im) tagged with k, symbol and measure."""
    cols = range(tm.entries.shape[1])
    blocks = ((i, cols, r.real, r.imag, tm.k, tm.symbol_desc, measure_tag)
              for i, r in enumerate(tm.entries))
    return write_csv(path, ["i", "j", "re", "im", "k", "symbol", "measure"], blocks)


def write_spectrum_csv(tm, path, measure_tag=""):
    """Eigenvalue rows (index, eigenvalue) tagged with k, symbol and measure."""
    lam = spectrum(tm).eigenvalues
    block = (range(len(lam)), lam, tm.k, tm.symbol_desc, measure_tag)
    return write_csv(path, ["index", "eigenvalue", "k", "symbol", "measure"], [block])
