"""Reproducing (Christoffel-Darboux) kernels and derived quantities:
product-space masses and pushforward residuals, read off the basis rows in
O(m n) memory, sup/L2 growth constants, and the dense kernel table, its
diagonal densities and CSV exports for the heatmap.

A mass over disjoint node sets A, B of a structured basis's own measure
(the Szego route, or Lanczos with an exactly tridiagonal H; n >= 2) takes
the Christoffel-Darboux formula: O(1) per entry from the last two columns
of Q, O(|A| |B|) in all.  Every other mass is ||Q_A Q_B^*||_F^2, O(|A| |B| n),
which is also the reference the formula is tested against.
"""

from dataclasses import dataclass

import numpy as np

from . import _backend
from ._csvio import write_csv
from .basis import diagonal_kernel, weighted_rows
from .operator import _hermitian_part_inplace

# dense m x m storage, for the heatmap export only; the cap keeps the table
# under ~256 MiB of complex128
MAX_NODES = 4096


@dataclass(frozen=True)
class KernelTable:
    """Kernel evaluations on a node grid, metric weight factored in: the
    dense export behind the heatmap and density files.

    values[a, b] = B_k(x_a, x_b) * exp(-k phi(x_a) - k phi(x_b)), Hermitian;
    diag holds the (real, nonnegative) diagonal.
    """

    basis: object
    nodes: np.ndarray
    values: np.ndarray
    diag: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)
        self.diag.setflags(write=False)

    @property
    def dimension(self):
        return self.basis.dimension


def kernel_table(basis, mu):
    """Assemble K = Phi Phi^* on the measure's nodes, at most MAX_NODES.

    Phi comes from weighted_rows: on the basis's defining measure that is
    the cached orthonormal factor (exact reproducing identities).
    """
    m = len(mu)
    if m > MAX_NODES:
        raise ValueError(f"node count {m} exceeds the dense-table cap {MAX_NODES}")
    phi = weighted_rows(basis, mu) / np.sqrt(mu.weights)[:, None]
    values = phi @ phi.conj().T
    _hermitian_part_inplace(values)
    diag = np.einsum("ai,ai->a", phi, phi.conj()).real
    return KernelTable(basis=basis, nodes=np.asarray(mu.nodes), values=values, diag=diag)


def bergman_mass(basis, mu, idx_a, idx_b):
    """Mass of the normalized product measure on A x B:
    (1/n_k) sum_{a in A, b in B} |K[a,b]|^2 w_a w_b = ||Q_A Q_B^*||_F^2 / n_k,
    with Q the weighted basis rows on mu.

    idx_a and idx_b are sequences of node indices, integers in [0, m);
    anything else raises ValueError, and an empty sequence gives 0.0.

    Two routes, the same mass:

    - Christoffel-Darboux, O(|A| |B|): when A and B are disjoint, the basis
      was built on mu, n >= 2, and it kept a structured recurrence (the
      Szego c_j on the circle, or on real nodes a float64 H that is exactly
      tridiagonal, as Lanczos leaves it).  Each entry then comes from the
      last columns of Q alone (Szego, Orthogonal Polynomials, 1939,
      Thm 3.2.2; Simon, OPUC Part 1, 2005, Thm 2.2.7); see _cd_factors.
    - Q, O(|A| |B| n): ||Q_A Q_B^*||_F^2 summed by _backend.pair_mass, for
      every other case (overlapping sets, full Arnoldi, another measure,
      n = 1, coincident nodes), and the reference the first is tested
      against.

    Both sum blocks of A rows.  Beyond Q, the first holds O(|B|) memory,
    the second O(|B| n).
    """
    m, n = len(mu), basis.dimension
    ia, ib = _node_indices(idx_a, m), _node_indices(idx_b, m)
    if ia.size == 0 or ib.size == 0:
        return 0.0
    if n >= 2 and basis.defined_on(mu) and _disjoint(ia, ib, m):
        factors = _cd_factors(basis)
        if factors is not None:
            total = _cd_pair_sum(*factors, ia, ib)
            # a node repeated in A and B leaves 0/0 here; the Q route has
            # the diagonal entry it needs
            if np.isfinite(total):
                return total / n
    return _backend.pair_mass(weighted_rows(basis, mu), ia, ib) / n


def _node_indices(idx, m):
    """idx as an int64 vector of node indices, each an integer in [0, m)."""
    arr = np.asarray(idx).ravel()
    if arr.size == 0:
        return np.empty(0, dtype=np.int64)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"node indices must be integers, got dtype {arr.dtype}")
    if np.any(arr < 0) or np.any(arr >= m):
        raise ValueError(f"node indices must lie in [0, {m})")
    return arr.astype(np.int64, copy=False)


def _disjoint(ia, ib, m):
    """Whether no node index is in both sets, by an O(m) mask."""
    mask = np.zeros(m, dtype=bool)
    mask[ia] = True
    return not np.any(mask[ib])


def _cd_factors(basis):
    """(u, v, alpha, beta, c) with, for a != b on the basis's own nodes,
        |(Q Q^*)[a, b]|^2 = c (beta_a alpha_b - alpha_a beta_b)^2 / D_ab,
    D_ab = (u_a - u_b)^2 + (v_a - v_b)^2 (v is None for real nodes): all
    real, from the last columns of the weighted rows Q.  None when the
    basis kept no structured recurrence.

    Each row of Q is a row of polynomial values times a positive factor
    (sqrt(w) and the metric weight), which rides on every column alike, so
    the CD formulas hold for (Q Q^*)[a, b] as for K_n(x_a, x_b).  Real line:
    with b = H[n-1, n-2] the recurrence gives
        (x_a - x_b) (Q Q^*)[a, b] = beta_a alpha_b - alpha_a beta_b,
    alpha = q_{n-1}, beta = x q_{n-1} - b q_{n-2}; c = 1.  Circle: with
    |z| = 1, phi^*_{n-1}(z) = z^{n-1} conj phi_{n-1}(z), and Simon's formula
    becomes
        (1 - z_a conj z_b) (Q Q^*)[a, b]
            = -2i lambda_a conj(lambda_b) Im(g_a conj g_b),
    g = conj(lambda) z q_{n-1}, lambda^2 = z^n (either root; the sign
    squares out), and |1 - z_a conj z_b| = |z_a - z_b|: alpha = Re g,
    beta = Im g and c = 4.
    """
    q, z, n = basis.node_values, basis.nodes, basis.dimension
    last = q[:, n - 1]
    if basis.szego_c is not None:
        g = last * z * np.exp(-0.5j * n * np.angle(z))
        return z.real, z.imag, g.real, g.imag, 4.0
    hess = basis.hessenberg
    if np.iscomplexobj(hess):
        return None
    # full Arnoldi leaves rounding-level entries above the band
    band = sum(np.count_nonzero(np.diagonal(hess, d)) for d in (-1, 0, 1))
    if np.count_nonzero(hess) != band:
        return None
    x = z.real
    return x, None, last, x * last - hess[n - 1, n - 2] * q[:, n - 2], 1.0


# entries per block of the Christoffel-Darboux mass: three float64 buffers
# of 2^16 entries, 1.5 MiB in all, whatever the sizes of A and B.  They stay
# in cache: quarter arcs at k = 1024 on 16384 circle nodes take 54 ms with
# 2^16, 80-100 ms with 2^20 (one core of a 2-vCPU VM)
_CD_BLOCK_ENTRIES = 1 << 16


def _cd_pair_sum(u, v, alpha, beta, c, ia, ib):
    """c sum_{a in A, b in B} (beta_a alpha_b - alpha_a beta_b)^2 / D_ab, in
    blocks of A rows: every summand is nonnegative and real."""
    rows = max(1, _CD_BLOCK_ENTRIES // ib.size)
    ub, ab, bb = u[ib], alpha[ib], beta[ib]
    vb = None if v is None else v[ib]
    buf = np.empty((3, min(rows, ia.size) * ib.size))
    total = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, ia.size, rows):
            a = ia[lo : lo + rows]
            num, den, tmp = (x[: a.size * ib.size].reshape(a.size, ib.size) for x in buf)
            np.multiply.outer(beta[a], ab, out=num)
            num -= np.multiply.outer(alpha[a], bb, out=tmp)
            num *= num
            np.subtract.outer(u[a], ub, out=den)
            den *= den
            if vb is not None:
                np.subtract.outer(v[a], vb, out=tmp)
                tmp *= tmp
                den += tmp
            num /= den
            total += float(num.sum())
    return c * total


def diagonal_density(table, mu):
    """Node-indexed probability vector (1/n_k) * diag[a] * w_a."""
    return table.diag * mu.weights / table.dimension


def pushforward_residual(basis, mu):
    """Max relative defect of sum_b |K[a,b]|^2 w_b = K[a,a] over the nodes.

    Certifies at quadrature level that the product measure pushes forward
    to the diagonal density.
    """
    q = weighted_rows(basis, mu)
    diag = _row_sumsq(q) / mu.weights
    row = _backend.row_weighted_sumsq(q, mu.weights)
    return float(np.max(np.abs(row - diag) / np.maximum(1.0, diag)))


def bm_constant(basis, eval_grid):
    """sup over the grid of the diagonal kernel B_k(x, x).

    This is the optimal constant in the sampled sup-norm vs L2-norm bound
    for the space: the diagonal kernel is the extremal ratio at each point.
    A NaN on the grid gives NaN (ValueError under a metric weight), an
    overflow inf or NaN without a warning, and an empty grid -inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sums = diagonal_kernel(basis, eval_grid)
    return float(np.max(sums)) if sums.size else -np.inf


def _row_sumsq(phi):
    """sum_i |phi[a, i]|^2 for every row a, summed from the real and
    imaginary parts: no conjugate copy of phi is made."""
    sq = phi.real ** 2
    if np.iscomplexobj(phi):
        sq += phi.imag ** 2
    return sq.sum(axis=1)


def default_eval_grid(mu, factor=8):
    """Grid `factor` times denser than the quadrature, covering the support.

    circle: equispaced angles; interval: uniform including the endpoints
    (where the diagonal kernel peaks); custom: the nodes themselves.
    """
    m = factor * len(mu)
    if mu.support_tag == "circle":
        return np.exp(2j * np.pi * np.arange(m) / m)
    if mu.support_tag == "interval":
        return np.linspace(-1.0, 1.0, m).astype(complex)
    return np.asarray(mu.nodes)


def _check_finite_bounds(lo, hi):
    # an infinite or NaN bound selects all nodes or none, not a region
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"region bounds must be finite, got ({lo!r}, {hi!r})")


def arc_indices(mu, start, end):
    """Node indices with angle in the half-open arc [start, end) (radians).

    Wraps around 2*pi when start > end.
    """
    _check_finite_bounds(start, end)
    theta = np.mod(np.angle(mu.nodes), 2 * np.pi)
    lo = np.mod(start, 2 * np.pi)
    hi = np.mod(end, 2 * np.pi)
    if lo <= hi:
        mask = (theta >= lo) & (theta < hi)
    else:
        mask = (theta >= lo) | (theta < hi)
    return np.where(mask)[0]


def interval_indices(mu, lo, hi):
    """Node indices with real part in the half-open interval [lo, hi)."""
    _check_finite_bounds(lo, hi)
    x = mu.nodes.real
    return np.where((x >= lo) & (x < hi))[0]


def write_heatmap_csv(table, path):
    """Rows (a, b, re, im, |K|^2) for the full table, in row-major order.

    Each table row is one block of m rows for the CSV writer, formatted by
    one '%' call, so the file is streamed with O(m) text in memory and
    never holds m^2 Python rows.
    """
    cols = range(table.values.shape[1])
    blocks = ((a, cols, r.real, r.imag, r.real * r.real + r.imag * r.imag)
              for a, r in enumerate(table.values))
    return write_csv(path, ["a", "b", "re", "im", "abs2"], blocks)


def write_density_csv(table, mu, path):
    """Rows (re(x), im(x), weight, density) of the diagonal density."""
    block = (mu.nodes.real, mu.nodes.imag, mu.weights, diagonal_density(table, mu))
    return write_csv(path, ["re", "im", "weight", "density"], [block])
