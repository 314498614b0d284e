"""Reproducing (Christoffel-Darboux) kernels and derived quantities:
product-space masses and pushforward residuals, read off the basis rows in
O(m n) memory, sup/L2 growth constants, and the dense kernel table, its
diagonal densities and CSV exports for the heatmap.
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
    """
    ia = np.asarray(idx_a, dtype=np.int64).ravel()
    ib = np.asarray(idx_b, dtype=np.int64).ravel()
    return _backend.pair_mass(weighted_rows(basis, mu), ia, ib) / basis.dimension


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
