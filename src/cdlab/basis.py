"""Orthonormal polynomial bases for a weighted quadrature measure.

The basis is produced by an orthogonal factorization of the row-weighted
Vandermonde matrix, organized as an Arnoldi (column-by-column) process so
that node evaluations stay accurate at high degree.  The Arnoldi method
takes one of three routes, chosen from the nodes:

- real nodes: Lanczos/Stieltjes, the three-term recurrence, O(m n);
- nodes tagged "circle": the Szego recurrence (Gragg's isometric
  Arnoldi), O(m n), whose coefficients c_j are kept so that evaluation
  off the nodes is O(n) per point;
- any other nodes: full Arnoldi, O(m n^2).

A structured result is certified: it is kept only if its node values are
orthonormal to max |Q*Q - I| <= 1e-13, and full Arnoldi decides
otherwise, or when the structured recurrence breaks down.

A basis is its recurrence: the Hessenberg coefficients used for stable
evaluation, plus the cached orthonormal evaluations on the defining
nodes.  It is serialized as the recurrence only.
"""

import hashlib
from dataclasses import dataclass, field
import json

import numpy as np

from . import _backend
from .errors import RankDeficientError

_RANK_TOL = 1e-13


@dataclass(frozen=True)
class WeightedSpace:
    """Polynomial space of degree <= degree_bound with a metric weight.

    The pointwise norm of a polynomial P at x is |P(x)| * exp(-k*phi(x))
    where k is the tensor power; metric_weight None means phi == 0 (the
    default planar trivialization).
    """

    degree_bound: int
    tensor_power: int = 1
    metric_weight: object = None  # callable on complex points, or None

    def __post_init__(self):
        if self.degree_bound < 0:
            raise ValueError("degree_bound must be >= 0")
        if self.tensor_power < 1:
            raise ValueError("tensor_power must be >= 1")

    @property
    def dimension(self):
        return self.degree_bound + 1

    def weight_scale(self, points):
        """exp(-k * phi) at the given points; validates finiteness."""
        pts = np.asarray(points, dtype=complex)
        if self.metric_weight is None:
            return np.ones(pts.shape, dtype=float)
        phi = np.asarray(self.metric_weight(pts), dtype=float)
        if phi.shape != pts.shape:
            raise ValueError("metric_weight must return one value per point")
        if not np.all(np.isfinite(phi)):
            raise ValueError("metric_weight must be finite at every point")
        return np.exp(-self.tensor_power * phi)


@dataclass(frozen=True)
class OrthonormalBasis:
    """Orthonormal basis of a WeightedSpace w.r.t. a quadrature measure."""

    space: WeightedSpace
    hessenberg: np.ndarray = field(repr=False, default=None)
    const_norm: float = field(repr=False, default=1.0)
    node_values: np.ndarray = field(repr=False, default=None)  # (m, n), orthonormal cols
    nodes: np.ndarray = field(repr=False, default=None)
    node_weights: np.ndarray = field(repr=False, default=None)
    # c_j of the Szego route, or None: evaluate_basis then runs the Szego
    # step instead of the full-column Hessenberg one
    szego_c: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        for name in ("hessenberg", "node_values", "nodes", "node_weights", "szego_c"):
            arr = getattr(self, name)
            if arr is not None:
                arr.setflags(write=False)

    @property
    def dimension(self):
        return self.space.dimension

    @property
    def basis_id(self):
        h = hashlib.sha1()
        h.update(np.int64(self.dimension).tobytes())
        h.update(np.int64(self.space.tensor_power).tobytes())
        h.update(np.float64(self.const_norm).tobytes())
        h.update(self.hessenberg.tobytes())
        return h.hexdigest()[:16]

    def defined_on(self, points):
        if self.nodes is None:
            return False
        pts = np.asarray(points, dtype=complex)
        return self.nodes.shape == pts.shape and np.array_equal(self.nodes, pts)

    def to_dict(self):
        """The recurrence only."""
        return {
            "degree_bound": self.space.degree_bound,
            "tensor_power": self.space.tensor_power,
            "hessenberg": [[v.real, v.imag] for v in self.hessenberg.ravel().tolist()],
            "const_norm": float(self.const_norm),
        }

    def to_json(self):
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, doc):
        # the metric weight is a callable and is not serialized: deserialized
        # bases live in the default planar model (phi == 0).  Other keys,
        # such as the monomial coefficients of older documents, are ignored
        n = int(doc["degree_bound"]) + 1
        space = WeightedSpace(int(doc["degree_bound"]),
                              tensor_power=int(doc["tensor_power"]))
        hess = np.array([complex(re, im) for re, im in doc["hessenberg"]],
                        dtype=complex).reshape(n, n)
        return cls(space=space, hessenberg=hess, const_norm=float(doc["const_norm"]))

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def _start(row_scale, n):
    """Column-major Q with its first column, the normalized constant, the
    zero Hessenberg matrix, and the constant's norm h0."""
    q = np.empty((row_scale.shape[0], n), dtype=np.complex128, order="F")
    v = row_scale.astype(np.complex128)
    h0 = np.linalg.norm(v)
    if h0 == 0.0:
        raise RankDeficientError("measure has no mass under the metric weight")
    q[:, 0] = v / h0
    return q, np.zeros((n, n), dtype=np.complex128), h0


def _arnoldi(z, row_scale, n, window=None):
    """Modified Gram-Schmidt Arnoldi on {1, z, z^2, ...} in the weighted
    discrete inner product.  row_scale = sqrt(w) * exp(-k phi).

    Returns (Q, H, h0): Q has orthonormal columns (poly values times
    row_scale), H holds the recurrence coefficients, h0 the norm of the
    constant.  Breakdown of the subdiagonal below the relative threshold
    signals a measure that cannot support the requested degree.

    window=None projects each new column on all earlier ones (O(m n^2)).
    window=w projects on the last w only: on real nodes H is tridiagonal,
    so window=2 is the Lanczos/Stieltjes procedure, O(m n).
    """
    q, hess, h0 = _start(row_scale, n)
    pivot_max = h0
    for j in range(n - 1):
        lo = 0 if window is None else max(j + 1 - window, 0)
        v = z * q[:, j]
        # two Gram-Schmidt passes keep the columns orthonormal to ~eps;
        # Q*v is taken as conj(v* Q), which conjugates v instead of Q
        for _ in range(2):
            proj = (v.conj() @ q[:, lo : j + 1]).conj()
            v -= q[:, lo : j + 1] @ proj
            hess[lo : j + 1, j] += proj
        hn = np.linalg.norm(v)
        if hn < _RANK_TOL * pivot_max:
            raise RankDeficientError(
                f"Gram matrix numerically rank-deficient at degree {j + 1}"
            )
        pivot_max = max(pivot_max, hn)
        hess[j + 1, j] = hn
        q[:, j + 1] = v / hn
    return q, hess, float(h0)


def _szego(z, row_scale, n):
    """Gragg's isometric Arnoldi: the Szego recurrence on unit-circle nodes.

    Multiplication by z is an isometry there, so z*phi_j is already
    orthogonal to z*P_{j-1}, and one projection, on the reversed
    polynomial phi_j^*, finishes the step:
        c = <phi_j^*, z phi_j> = conj(alpha_j),   v = z phi_j - c phi_j^*.
    With s_j the coordinates of phi_j^* in phi_0..phi_j, the Hessenberg
    column is H[:j+1, j] = c * s_j.  Returns (Q, H, h0, c) with the c_j,
    and has the same breakdown test as _arnoldi; O(m n) for Q and O(n^2)
    for H.
    """
    q, hess, h0 = _start(row_scale, n)
    rev = q[:, 0].copy()            # phi_0^* = phi_0, a positive constant
    coef = np.zeros(n - 1, dtype=np.complex128)
    s = np.zeros(n, dtype=np.complex128)
    s[0] = 1.0
    pivot_max = h0
    for j in range(n - 1):
        zq = z * q[:, j]
        c = np.vdot(rev, zq)
        v = zq - c * rev
        hn = np.linalg.norm(v)
        if hn < _RANK_TOL * pivot_max:
            raise RankDeficientError(
                f"Gram matrix numerically rank-deficient at degree {j + 1}"
            )
        pivot_max = max(pivot_max, hn)
        coef[j] = c
        hess[: j + 1, j] = c * s[: j + 1]
        hess[j + 1, j] = hn
        q[:, j + 1] = v / hn
        # phi_{j+1}^* = (phi_j^* - conj(c) z phi_j) / rho_j; with
        # z phi_j = hn phi_{j+1} + c phi_j^* and rho_j^2 = 1 - |c|^2 = hn^2
        # this is hn phi_j^* - conj(c) phi_{j+1}
        s[: j + 1] *= hn
        s[j + 1] = -np.conj(c)
        rev = hn * rev - np.conj(c) * q[:, j + 1]
    return q, hess, float(h0), coef


def _orthonormality_defect(q, real):
    """max |Q*Q - I| for a column-major Q.

    Q*Q is Hermitian, so only its upper triangle is formed, 128 columns at
    a time: no conjugate copy of the whole of Q is made.  When real is set
    the imaginary parts of Q are zero, and Q*Q is the real Gram matrix of
    the rows of Q^T viewed as floats, at half the flops.
    """
    n = q.shape[1]
    rows = q.T.view(np.float64)     # (n, 2m): re/im of column i interleaved
    worst = 0.0
    for lo in range(0, n, 128):
        hi = min(lo + 128, n)
        if real:
            gram = rows[:hi] @ rows[lo:hi].T
        else:
            gram = q[:, :hi].T @ q[:, lo:hi].conj()     # conj of (Q*Q)[:hi, lo:hi]
        gram[lo:hi] -= np.eye(hi - lo)
        worst = max(worst, float(np.max(np.abs(gram))))
    return worst


def _structured_arnoldi(mu, row_scale, n):
    """The Arnoldi basis by the recurrence the nodes allow, certified.

    Real nodes run Lanczos (window 2), nodes tagged circle run Szego.  A
    structured result is kept only if its columns are orthonormal to
    _RANK_TOL; otherwise, on breakdown, and for any other node set, full
    Arnoldi decides.  Returns (Q, H, h0, c): c holds the Szego c_j when
    that route was kept, and is None otherwise.
    """
    z = mu.nodes
    real = not np.any(z.imag)
    if real or mu.support_tag == "circle":
        try:
            q, hess, h0, coef = ((*_arnoldi(z, row_scale, n, window=2), None) if real
                                 else _szego(z, row_scale, n))
        except RankDeficientError:
            pass
        else:
            if _orthonormality_defect(q, real) <= _RANK_TOL:
                return q, hess, h0, coef
    return (*_arnoldi(z, row_scale, n), None)


def orthonormalize(mu, space):
    """Orthonormal basis of `space` w.r.t. the weighted measure, by the
    cheapest certified route the nodes allow (see the module docstring).

    Raises RankDeficientError when the measure cannot support the space
    (the finite-node analogue of a pluripolar support).
    """
    row_scale = np.sqrt(mu.weights) * space.weight_scale(mu.nodes)
    q, hess, h0, coef = _structured_arnoldi(mu, row_scale, space.dimension)
    return OrthonormalBasis(
        space=space,
        hessenberg=np.ascontiguousarray(hess),
        const_norm=h0,
        node_values=q,
        nodes=np.asarray(mu.nodes),
        node_weights=np.asarray(mu.weights),
        szego_c=coef,
    )


def evaluate_basis(basis, points):
    """Matrix of basis values at the points, metric weight folded in:
    Phi[a, i] = p_i(x_a) * exp(-k * phi(x_a)).

    Evaluation runs the stored recurrence: the Szego step on a basis the
    Szego route built, the banded Hessenberg one otherwise.  That is O(n)
    per point unless H is full (full Arnoldi, or a circle basis loaded from
    JSON): then O(n^2).
    """
    pts = np.ascontiguousarray(np.atleast_1d(np.asarray(points, dtype=complex)))
    scale = basis.space.weight_scale(pts)
    return _backend.eval_recurrence(
        pts, np.ascontiguousarray(scale), basis.const_norm, basis.hessenberg,
        basis.szego_c,
    )
