"""Compressions of multiplication operators to the polynomial subspace:
assembly in an orthonormal basis, the classical Fourier and Legendre matrix
families, Schatten norms, spectra, and functional calculus.
"""

from dataclasses import dataclass

import numpy as np

from . import _backend
from ._csvio import write_csv
from .basis import evaluate_basis
from .errors import NotHermitianError
from .measure import _gauss_legendre

_HERM_TOL = 1e-8


@dataclass(frozen=True)
class ToeplitzMatrix:
    """Hermitian matrix of the compressed multiplication operator.

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


def _symmetrize(raw):
    asym = float(np.max(np.abs(raw - raw.conj().T))) if raw.size else 0.0
    return 0.5 * (raw + raw.conj().T), asym


def toeplitz(basis, mu, f, symbol_desc=None):
    """Matrix of the compressed multiplication by the real symbol f:
    entries[i,j] = sum_a f(x_a) p_j(x_a) conj(p_i(x_a)) e^{-2k phi} w_a.
    """
    fvals = _symbol_values(mu, f)
    if basis.defined_on(mu.nodes):
        phi, row_factor = basis.node_values, fvals  # sqrt(w) already folded in
    else:
        phi, row_factor = evaluate_basis(basis, mu.nodes), fvals * mu.weights
    if not np.any(phi.imag):
        # real node values (real nodes, real weights): a real product
        real = phi.real
        raw = (real.T @ (row_factor[:, None] * real)).astype(np.complex128)
    else:
        # Phi* (F Phi) = conj(Phi^T conj(F Phi)): conjugating the scaled copy
        # in place spares an m x n conjugate copy of Phi
        scaled = row_factor[:, None] * phi
        np.conjugate(scaled, out=scaled)
        raw = np.conjugate(phi.T @ scaled)
    entries, asym = _symmetrize(raw)
    return ToeplitzMatrix(entries=entries, symbol_desc=_symbol_name(f, symbol_desc),
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
    entries, asym = _symmetrize(entries)
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
    entries, asym = _symmetrize(raw.astype(complex))
    return ToeplitzMatrix(entries=entries, symbol_desc=_symbol_name(f, symbol_desc),
                          k=k, basis_id="legendre", asymmetry=asym)


def compose(a, b):
    """Operator product A @ B (generally non-Hermitian)."""
    if a.k != b.k or a.basis_id != b.basis_id:
        raise ValueError("operands live in different spaces "
                         f"(k={a.k}/{b.k}, basis {a.basis_id}/{b.basis_id})")
    return a.entries @ b.entries


def schatten_norm(a, p):
    """Dimension-normalized Schatten norm ((1/n) sum sigma_i^p)^(1/p)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    mat = a.entries if isinstance(a, ToeplitzMatrix) else np.asarray(a)
    sigma = np.linalg.svd(mat, compute_uv=False)
    return float(np.mean(sigma ** p) ** (1.0 / p))


def operator_norm(a):
    """Largest singular value."""
    mat = a.entries if isinstance(a, ToeplitzMatrix) else np.asarray(a)
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def _as_hermitian(a):
    mat = a.entries if isinstance(a, ToeplitzMatrix) else np.asarray(a)
    asym = float(np.max(np.abs(mat - mat.conj().T)))
    if asym > _HERM_TOL * (1.0 + float(np.max(np.abs(mat)))):
        raise NotHermitianError(f"asymmetry {asym:.3e} above tolerance")
    return mat


def spectrum(a):
    """Sorted real eigenvalues of a Hermitian operator matrix."""
    mat = _as_hermitian(a)
    return SpectralMeasure(eigenvalues=np.linalg.eigvalsh(mat), k=mat.shape[0])


def spectral_statistic(a, g):
    """(1/n_k) sum g(lambda) over the spectrum."""
    eig = spectrum(a).eigenvalues
    return float(np.mean(np.asarray(g(eig), dtype=float)))


def functional_calculus(a, h):
    """h(A) for Hermitian A, via the eigendecomposition U h(L) U^*."""
    mat = _as_hermitian(a)
    lam, vec = np.linalg.eigh(mat)
    return (vec * np.asarray(h(lam), dtype=float)) @ vec.conj().T


def algebra_defect(basis, mu, f, g, p):
    """Schatten-p norm of T(f) T(g) - T(f*g), the algebra closure defect."""
    t_f = toeplitz(basis, mu, f)
    t_g = toeplitz(basis, mu, g)

    def fg(z):
        return np.asarray(f(z)) * np.asarray(g(z))

    t_fg = toeplitz(basis, mu, fg, symbol_desc=f"{t_f.symbol_desc}*{t_g.symbol_desc}")
    return schatten_norm(compose(t_f, t_g) - t_fg.entries, p)


def defect_kernel_bound(table, mu, f, g):
    """Upper bound for the p=2 algebra defect through the kernel mass of
    S(x,y) = (f(x) g(x) - f(x) g(y)) K(x,y):
    sqrt((1/n_k) sum_{a,b} f(x_a)^2 (g(x_a)-g(x_b))^2 |K[a,b]|^2 w_a w_b).
    """
    fv = _symbol_values(mu, f)
    gv = _symbol_values(mu, g)
    total = _backend.defect_pair_sum(table.values, mu.weights, fv, gv)
    return float(np.sqrt(total / table.dimension))


def symbol_distance(basis, mu, f, g):
    """Schatten-1 distance (1/n_k) Tr |T(f) - T(g)| between two symbols."""
    t_f = toeplitz(basis, mu, f)
    t_g = toeplitz(basis, mu, g)
    return schatten_norm(t_f.entries - t_g.entries, 1)


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
    rows = ((i, j, v.real, v.imag, tm.k, tm.symbol_desc, measure_tag)
            for i, r in enumerate(tm.entries) for j, v in enumerate(r.tolist()))
    return write_csv(path, ["i", "j", "re", "im", "k", "symbol", "measure"], rows)


def write_spectrum_csv(tm, path, measure_tag=""):
    """Eigenvalue rows (index, eigenvalue) tagged with k, symbol and measure."""
    lam = spectrum(tm).eigenvalues.tolist()
    rows = ((i, v, tm.k, tm.symbol_desc, measure_tag) for i, v in enumerate(lam))
    return write_csv(path, ["index", "eigenvalue", "k", "symbol", "measure"], rows)
