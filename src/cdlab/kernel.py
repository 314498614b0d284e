"""Reproducing (Christoffel-Darboux) kernel tables and derived quantities:
product-space masses, diagonal densities, and sup/L2 growth constants.
"""

from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import _backend
from ._csvio import write_csv
from .basis import evaluate_basis

# dense m x m storage; cap keeps the table under ~256 MiB of complex128
MAX_NODES = 4096
# grid points per evaluated block in bm_constant: the block's values stay
# in cache, and the per-block loop overhead stays small on banded recurrences
_BM_BLOCK = 1024
# rows per block when kernel_table symmetrizes its table in place
_SYM_BLOCK = 512


@dataclass(frozen=True)
class KernelTable:
    """Kernel evaluations on a node grid, metric weight factored in.

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

    When the nodes are the basis's defining quadrature, the cached
    orthonormal factor is reused (exact reproducing identities); otherwise
    the basis is evaluated by its recurrence.
    """
    m = len(mu)
    if m > MAX_NODES:
        raise ValueError(f"node count {m} exceeds the dense-table cap {MAX_NODES}")
    if basis.defined_on(mu.nodes):
        phi = basis.node_values / np.sqrt(basis.node_weights)[:, None]
    else:
        phi = evaluate_basis(basis, mu.nodes)
    values = phi @ phi.conj().T
    _hermitian_part_inplace(values)
    diag = np.einsum("ai,ai->a", phi, phi.conj()).real
    return KernelTable(basis=basis, nodes=np.asarray(mu.nodes), values=values, diag=diag)


def _hermitian_part_inplace(values):
    """Overwrite the square matrix with 0.5 * (values + values^H).

    Each pair of blocks X = (I, J), Y = (J, I) becomes 0.5 * (X + Y^H) and
    0.5 * (Y + X^H), so the temporaries are two blocks, not two m x m
    matrices.  Entry for entry this is the arithmetic of the two-temporary
    formula, signed zeros included (writing the conjugate of the first
    block as the second would flip the sign of zero imaginary parts).
    """
    m = values.shape[0]
    for lo in range(0, m, _SYM_BLOCK):
        rows = slice(lo, lo + _SYM_BLOCK)
        for lo2 in range(lo, m, _SYM_BLOCK):
            cols = slice(lo2, lo2 + _SYM_BLOCK)
            upper = _half_sum(values[rows, cols], values[cols, rows])
            if lo2 > lo:
                values[cols, rows] = _half_sum(values[cols, rows], values[rows, cols])
            values[rows, cols] = upper


def _half_sum(x, y):
    """0.5 * (x + y^H) in one new array."""
    s = y.conj().T
    s += x
    s *= 0.5
    return s


def bergman_mass(table, mu, idx_a, idx_b):
    """Mass of the normalized product measure on A x B:
    (1/n_k) sum_{a in A, b in B} |K[a,b]|^2 w_a w_b.
    """
    ia = np.asarray(idx_a, dtype=np.int64).ravel()
    ib = np.asarray(idx_b, dtype=np.int64).ravel()
    if ia.size == 0 or ib.size == 0:
        return 0.0
    return float(_backend.pair_mass(table.values, mu.weights, ia, ib)) / table.dimension


def diagonal_density(table, mu):
    """Node-indexed probability vector (1/n_k) * diag[a] * w_a."""
    return table.diag * mu.weights / table.dimension


def pushforward_residual(table, mu):
    """Max relative defect of sum_b |K[a,b]|^2 w_b = diag[a] over the nodes.

    Certifies at quadrature level that the product measure pushes forward
    to the diagonal density.
    """
    row = _backend.row_weighted_sumsq(table.values, mu.weights)
    return float(np.max(np.abs(row - table.diag) / np.maximum(1.0, table.diag)))


def bm_constant(basis, eval_grid):
    """sup over the grid of the diagonal kernel B_k(x, x).

    This is the optimal constant in the sampled sup-norm vs L2-norm bound
    for the space: the diagonal kernel is the extremal ratio at each point.
    The grid is evaluated in blocks of _BM_BLOCK points, so memory is
    O(_BM_BLOCK * n) whatever the grid size.
    """
    pts = np.atleast_1d(np.asarray(eval_grid, dtype=complex))
    best = -np.inf
    # the loop keeps each block until the next one is evaluated: freeing it
    # first made bm_constant ~20% slower at k = 512, on fresh-page faults
    for lo in range(0, pts.shape[0], _BM_BLOCK):
        phi = evaluate_basis(basis, pts[lo : lo + _BM_BLOCK])
        best = max(best, _diagonal_peak(phi))
    return best


def _diagonal_peak(phi):
    """max over the rows of sum_i |phi[a, i]|^2, summed from the real and
    imaginary parts: no conjugate copy of the block is made."""
    sq = phi.real ** 2
    sq += phi.imag ** 2
    return float(np.max(sq.sum(axis=1)))


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


def arc_indices(mu, start, end):
    """Node indices with angle in the half-open arc [start, end) (radians).

    Wraps around 2*pi when start > end.
    """
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
    x = mu.nodes.real
    return np.where((x >= lo) & (x < hi))[0]


def write_heatmap_csv(table, path):
    """Rows (a, b, re, im, |K|^2) for the full table.

    Rows are built one table row at a time, so the file is streamed
    without holding m^2 Python rows.
    """
    cols = range(table.values.shape[1])
    rows = chain.from_iterable(
        zip(repeat(a), cols, r.real.tolist(), r.imag.tolist(),
            (r.real * r.real + r.imag * r.imag).tolist())
        for a, r in enumerate(table.values))
    return write_csv(path, ["a", "b", "re", "im", "abs2"], rows)


def write_density_csv(table, mu, path):
    """Rows (re(x), im(x), weight, density) of the diagonal density."""
    rows = zip(mu.nodes.real.tolist(), mu.nodes.imag.tolist(), mu.weights.tolist(),
               diagonal_density(table, mu).tolist())
    return write_csv(path, ["re", "im", "weight", "density"], rows)
