"""Orthonormal polynomial bases for a weighted quadrature measure.

The basis is produced by an orthogonal factorization of the row-weighted
Vandermonde matrix, organized as an Arnoldi (column-by-column) process so
that node evaluations stay accurate at high degree.  The Arnoldi method
takes one of three routes, chosen from the nodes:

- real nodes: Lanczos/Stieltjes, the three-term recurrence, O(m n), in
  float64: a real basis, whose operators are real too;
- nodes tagged "circle": the Szego recurrence (Gragg's isometric
  Arnoldi), O(m n), whose coefficients c_j are kept so that evaluation
  off the nodes is O(n) per point;
- any other nodes: full Arnoldi, O(m n^2).

A structured result is certified before it is kept.  Its build holds a
window of two columns and O(n) coefficients, O(m) memory, and probes
Q*Q = I as it forms each column, in O(m n) (see _Probe).  When the probe
reads tau(n) = 4 (n + 2) eps or less, whatever the measure, the result is
kept, and no Q was ever formed.  Otherwise (a probe above tau(n), a NaN,
or a breakdown of the structured recurrence) full Arnoldi builds the basis.

A basis is its route ("szego", "three_term" or "hessenberg") and its
recurrence, run one step past n (Z Q = Q T(z) + r e_n^T, the residual r
unnormalized, 0 on n nodes; the basis keeps |r|^2), plus the columns of Q
its build kept: the last two, which the Christoffel-Darboux masses read, or
all n on full Arnoldi.  Of the recurrence it keeps what its route's step
reads, O(n) on the structured routes: the n - 1 norms H[j+1, j] on every
route, and the two other diagonals of a three-term H, the Szego c_j (with
c_n of the step past n), or a Hessenberg H whole.  Its node values Q are
built on first read when it kept two columns, and cached read-only.
`orthonormalize` is its only constructor.  No other module but `_backend`
reads how the recurrence is stored: the operator and kernel modules take
what they need from `recurrence_toeplitz`, `operator_frame`, `operator_rows`
and `cd_factors`.  On its own measure a Szego basis writes operators in its
CMV basis, which spans z^-floor((n-1)/2) P_{n-1}: unitarily similar on
|z| = 1, with the spectra, traces and Schatten norms of the polynomial one.
"""

import hashlib
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _backend
from .errors import RankDeficientError
from .measure import _real_values

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
        for name in ("degree_bound", "tensor_power"):
            value = getattr(self, name)
            # a bool is an int, but no degree or power
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
        return np.exp(-self.tensor_power * self._phi(pts))

    def _phi(self, pts):
        return _real_values("metric_weight", self.metric_weight, pts)


@dataclass(frozen=True)
class OrthonormalBasis:
    """Orthonormal basis of a WeightedSpace w.r.t. a quadrature measure."""

    space: WeightedSpace
    const_norm: float = field(repr=False)
    # the columns of Q the build kept, column-major: the last two
    # (q_{n-2}, q_{n-1}) of a certified Szego or three-term build (all n
    # when n <= 2), or all n of full Arnoldi
    columns: np.ndarray = field(repr=False)
    nodes: np.ndarray = field(repr=False)
    node_weights: np.ndarray = field(repr=False)
    # the step evaluation runs: "szego" (the coupled step on the c_j in
    # szego_c), "three_term" or "hessenberg"
    route: str = field(repr=False)
    # the recurrence, as the route's step reads it (see _step_inputs): the
    # n - 1 norms H[j+1, j], on every route (the Szego rho_j)
    h_sub: np.ndarray = field(repr=False)
    # three-term: H on and above its diagonal in band storage, (2, n),
    # column j = (H[j-1, j], H[j, j]) with H[-1, 0] = 0, the projections of
    # step j; None on the other routes
    h_band: np.ndarray = field(repr=False)
    # the n + 1 Szego c_j, c_{n-1} that of the step past n and c_n that of
    # phi_n = r / |r| (0 where r = 0); None off that route
    szego_c: np.ndarray = field(repr=False)
    # the whole H of the "hessenberg" route (full Arnoldi); None off it
    h_full: np.ndarray = field(repr=False)
    # |r|^2 of the step past n
    residual_sq: float = field(repr=False)

    def __post_init__(self):
        for f in fields(self):
            if isinstance(arr := getattr(self, f.name), np.ndarray):
                arr.setflags(write=False)

    @property
    def dimension(self):
        return self.space.dimension

    @cached_property
    def node_values(self):
        """Q, (m, n) and read-only: the orthonormal columns on the defining
        nodes.  A basis that kept only its last two columns builds Q on first
        read, by running its route's build again with Q stored: the same
        columns, bit for bit, at O(m n) time and memory."""
        if self.columns.shape[1] == self.dimension:
            return self.columns
        q = _stored_q(self)
        q.setflags(write=False)
        return q

    @cached_property
    def basis_id(self):
        """Hash of the O(n) data that determine H on the route, taken once:
        the three diagonals of a three-term H, the c_j (c_n too) and rho_j
        of a Szego one, a Hessenberg H whole.  All of them are read-only."""
        h = hashlib.sha1()
        h.update(self.route.encode())
        h.update(np.int64(self.dimension).tobytes())
        h.update(np.int64(self.space.tensor_power).tobytes())
        h.update(np.float64(self.const_norm).tobytes())
        if self.route == "three_term":
            parts = [self.h_sub, self.h_band[1], self.h_band[0, 1:]]
        elif self.route == "szego":
            parts = [self.szego_c, self.h_sub]
        else:
            parts = [self.h_full]
        for part in parts:
            h.update(part.tobytes())
        return h.hexdigest()[:16]

    def defined_on(self, mu):
        """Whether mu is the measure the basis was built on: the same nodes
        and the same weights."""
        return (np.array_equal(self.nodes, mu.nodes)
                and np.array_equal(self.node_weights, mu.weights))


class _Build(NamedTuple):
    """What a recurrence build returns: the columns it kept (all n of Q,
    column-major, or the last two), the n - 1 norms H[j+1, j], the rest of
    H as the build holds it (a full Arnoldi H whole; with a window w the
    projections in band storage, (w, n), column j = H[j+1-w : j+1, j]; the
    n + 1 Szego c_j), the norm h0 of the constant, |r|^2 of the step past
    n, and the streamed probe of its columns (see _Probe).  Each of hess,
    band and coef is None where the build does not hold it."""

    q: np.ndarray
    sub: np.ndarray
    hess: object
    band: object
    coef: object
    h0: float
    r_sq: float
    probe: float


def _norm(v):
    """np.linalg.norm(v) of a vector, by the formula numpy uses, without
    the wrapper's checks: sqrt(v.v), or sqrt(re.re + im.im) if complex."""
    if v.dtype.kind == "c":
        return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
    return math.sqrt(v.dot(v))


def _start(row_scale, n, dtype, store_q):
    """The build's column buffer, column-major, with q_0 (the normalized
    constant) in its first column: all n columns of Q when store_q, else a
    window of two, of the dtype.  Also the constant's norm h0."""
    q = np.empty((row_scale.shape[0], n if store_q else min(n, 2)), dtype=dtype, order="F")
    v = row_scale.astype(dtype)
    h0 = _norm(v)
    if h0 == 0.0:
        raise RankDeficientError("measure has no mass under the metric weight")
    q[:, 0] = v / h0
    return q, h0


def _next_column(q, j):
    """The buffer column that takes q_{j+1}.  A full window first moves its
    columns one place to the front, dropping the oldest; a buffer of all n
    columns never fills."""
    if j + 1 >= q.shape[1]:
        q[:, :-1] = q[:, 1:]
    return q[:, min(j + 1, q.shape[1] - 1)]


def _check_pivot(hn, pivot_max, j):
    if hn < _RANK_TOL * pivot_max:
        raise RankDeficientError(f"measure supports no polynomial of degree {j + 1}: "
                                 f"recurrence norm {hn:.3e} below {_RANK_TOL:g} of the largest")
    return max(pivot_max, hn)


def _arnoldi(z, row_scale, n, window=None, store_q=True):
    """Modified Gram-Schmidt Arnoldi on {1, z, z^2, ...} in the weighted
    discrete inner product.  row_scale = sqrt(w) * exp(-k phi).

    Returns a _Build in the dtype of z: Q has orthonormal columns (poly
    values times row_scale), H = Q* Z Q, h0 the norm of the constant, |r|^2
    of the residual r past n.  Breakdown of the subdiagonal below the
    relative threshold: the measure cannot support the requested degree.

    window=None projects each new column on all earlier ones (O(m n^2)),
    and fills H whole.  window=w projects on the last w only, and keeps
    the n projections of w coefficients each, O(n w): on real
    nodes H is tridiagonal, so window=2 is the Lanczos/Stieltjes procedure,
    O(m n).  With store_q False, window=2 holds the last two columns only,
    O(m) memory, and keeps them; the columns are the same either way.
    """
    q, h0 = _start(row_scale, n, z.dtype, store_q or window is None)
    m = q.shape[0]
    real = not np.iscomplexobj(z)
    probe = _Probe(m, n, z.dtype)
    probe.add(q[:, 0])
    hess = np.zeros((n, n), dtype=z.dtype) if window is None else None
    band = None if window is None else np.zeros((window, n), dtype=z.dtype)
    sub = np.empty(n - 1)
    v, tmp = np.empty(m, dtype=z.dtype), np.empty(m, dtype=z.dtype)
    pivot_max = h0
    for j in range(n):
        base = max(j + 1 - q.shape[1], 0)      # the column q[:, 0] holds
        lo = 0 if window is None else max(j + 1 - window, 0)
        block = q[:, lo - base : j + 1 - base]
        h_col = hess[lo : j + 1, j] if band is None else band[lo - j - 1 :, j]
        np.multiply(z, block[:, -1], out=v)
        # two Gram-Schmidt passes keep the columns orthonormal to ~eps;
        # Q*v is taken as conj(v* Q), which conjugates v instead of Q
        for _ in range(2):
            proj = block.T.dot(v) if real else block.T.dot(v.conj()).conj()
            v -= np.dot(block, proj, out=tmp)
            h_col += proj
        if j == n - 1:
            break
        hn = sub[j] = _norm(v)
        pivot_max = _check_pivot(hn, pivot_max, j)
        if hess is not None:
            hess[j + 1, j] = hn
        col = _next_column(q, j)
        probe.add(np.divide(v, hn, out=col))
    # the step past n: r = v
    return _Build(q, sub, hess, band, None, h0, float(np.vdot(v, v).real), probe.defect)


def _szego(z, row_scale, n, store_q=True):
    """Gragg's isometric Arnoldi: the Szego recurrence on unit-circle nodes.

    Multiplication by z is an isometry there, so z*phi_j is already
    orthogonal to z*P_{j-1}, and one projection, on the reversed
    polynomial phi_j^*, finishes the step:
        c = <phi_j^*, z phi_j> = conj(alpha_j),   v = z phi_j - c phi_j^*.
    Returns a _Build with the n + 1 c_j and the n - 1 rho_j = H[j+1, j],
    and the breakdown test of _arnoldi; O(m n).  A step reads q_j only;
    with store_q False the build holds and keeps the last two columns, O(m)
    memory.  c_{n-1} is that of the step past n, and c_n that of phi_n =
    r / |r|: with phi_n^* = |r| phi_{n-1}^* - conj(c) r / |r|, in O(m),
        |r|^2 c_n = <|r|^2 phi_{n-1}^* - conj(c) r, z r>.
    """
    q, h0 = _start(row_scale, n, np.complex128, store_q)
    m = q.shape[0]
    probe = _Probe(m, n, np.complex128)
    probe.add(q[:, 0])
    rev = q[:, 0].copy()            # phi_0^* = phi_0, a positive constant
    zq, v, tmp = (np.empty(m, dtype=np.complex128) for _ in range(3))
    coef = np.empty(n + 1, dtype=np.complex128)
    sub = np.empty(n - 1)
    pivot_max = h0
    for j in range(n):
        np.multiply(z, q[:, min(j, q.shape[1] - 1)], out=zq)
        c = coef[j] = np.vdot(rev, zq)
        np.subtract(zq, np.multiply(c, rev, out=v), out=v)
        if j == n - 1:
            break
        hn = sub[j] = _norm(v)
        pivot_max = _check_pivot(hn, pivot_max, j)
        col = _next_column(q, j)
        probe.add(np.divide(v, hn, out=col))
        # phi_{j+1}^* = (phi_j^* - conj(c) z phi_j) / rho_j; with
        # z phi_j = hn phi_{j+1} + c phi_j^* and rho_j^2 = 1 - |c|^2 = hn^2
        # this is hn phi_j^* - conj(c) phi_{j+1}
        rev *= hn
        rev -= np.multiply(np.conj(c), col, out=tmp)
    r_sq = float(np.vdot(v, v).real)
    # where r = 0, rho_{n-1} = 0 decouples C, and c_n is never read
    coef[n] = np.vdot(r_sq * rev - np.conj(c) * v, z * v) / r_sq if r_sq else 0.0
    return _Build(q, sub, None, None, coef, h0, r_sq, probe.defect)


def _probe_tol(n):
    """tau(n) = 4 (n + 2) eps, linear in n, the tolerance of the streamed
    probe.  It reads up to ~0.7 (n + 2) eps on good bases of the three
    classical rules (n = 1..64 and nine sizes to 4096, m = n + 2 and 4n),
    so tau keeps a margin of 5.8 or more; a fixed 1e-13 would reject good
    bases near n = 4096, where tau is 3.6e-12."""
    return 4 * (n + 2) * np.finfo(float).eps


def _probe_vector(n):
    """n fixed values in [-1, 1): splitmix64 of 1..n (Steele, Lea and Flood,
    2014), top 53 bits.  A hash, not numpy.random, whose import alone costs
    a few MiB of resident memory."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-52 - 1.0


class _Probe:
    """Q*Q = I probed as the build forms the columns, in O(m) memory: for
    the fixed x of _probe_vector, column q_j adds |<q_j, y_j>| and
    | |q_j|^2 - 1 |, with y_j = sum_{i<j} x_i q_i, and the probe reads the
    largest of them (NaN if any is NaN).  These are the rows of L x, L the
    strict lower triangle of Q*Q - I, and its diagonal; Q*Q - I is
    Hermitian, so each of its entries is in one of them.

    The probe certifies a structured build on any measure; its
    coefficients could not, for they cannot show a loss of orthogonality:
    a column of Q that picks up e q_i, i outside the Lanczos window, moves
    them by O(e^2) only, and one spoiled after its step moves none.  Here an entry e of
    Q*Q - I at (j, i), i < j, adds e x_i to row j; for x_i uniform on
    [-1, 1], whatever the rest of the row, that row then reads below t with
    probability t / |e| or less.
    """

    def __init__(self, m, n, dtype):
        self.x = _probe_vector(n)
        self.y = np.zeros(m, dtype=dtype)
        self.tmp = np.empty(m, dtype=dtype)
        # the row and the diagonal term of each column taken
        self.terms = np.zeros((2, n))
        self.taken = 0

    def add(self, col):
        """Take q_j, j the number of columns taken so far."""
        j = self.taken
        self.terms[0, j] = abs(np.vdot(col, self.y))
        self.terms[1, j] = abs(np.vdot(col, col).real - 1.0)
        self.y += np.multiply(col, self.x[j], out=self.tmp)
        self.taken += 1

    @property
    def defect(self):
        # np.max, unlike max(), propagates a NaN
        return float(np.max(self.terms[:, : self.taken], initial=0.0))


def _run_route(route, nodes, row_scale, n, store_q):
    """The build of a structured route: Szego on the nodes, or Lanczos
    (window 2) on their real parts, in float64."""
    if route == "szego":
        return _szego(nodes, row_scale, n, store_q=store_q)
    return _arnoldi(np.ascontiguousarray(nodes.real), row_scale, n, window=2, store_q=store_q)


def _structured_arnoldi(mu, row_scale, n):
    """The Arnoldi basis by the recurrence the nodes allow, certified.

    Real nodes run Lanczos (window 2), nodes tagged circle run Szego; on
    real nodes both run on the real parts, in float64.  The build keeps
    two columns only.  Its result is kept if its streamed probe reads
    tau(n) or less, in O(m n), whatever the measure.  On a probe above
    tau(n) or NaN, on breakdown, and for any other node set, full Arnoldi
    builds the basis.  Returns (route, _Build).

    Szego on the roots of unity multiplies by z, an isometry, and subtracts
    c_j ~ eps, so no error grows; under a weight far from constant the
    columns can drift apart (metric weight 0.3 (Re z)^2, k = n = 64, 256
    roots of unity: the probe reads 3.5e-11, max |Q*Q - I| 2.7e-11).
    Lanczos loses orthogonality only towards a Ritz vector whose residual
    b_n |s_{n,i}| has fallen to ~eps (Paige, 1976): on both Gauss rules the
    smallest falls only like n^-1.5 (1.2e-5 at n = 2048, at the ends of the
    interval), whatever m, and max |Q*Q - I| measures <= 9e-15 on all three
    classical rules for n <= 2048 at m = n + 2 and 4n.  On random atoms,
    where Ritz values converge early, the probe reads 1e-2 and more.
    """
    z = mu.nodes
    real = not np.any(z.imag)
    if real or mu.support_tag == "circle":
        route = "three_term" if real else "szego"
        # an overflow here gives a NaN that the probe rejects, and full
        # Arnoldi then builds the basis
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                built = _run_route(route, z, row_scale, n, store_q=False)
            except RankDeficientError:
                pass
            else:
                if built.probe <= _probe_tol(n):
                    return route, built
    if real:
        z = np.ascontiguousarray(z.real)
    return "hessenberg", _arnoldi(z, row_scale, n)


def _check_scale_range(space, mu, scale):
    """Reject a metric scale exp(-k phi) that underflows (to zero or to a
    subnormal) or overflows at a node of positive weight.

    An underflowed scale leaves a truncated measure, on which the recurrence
    is orthonormal: the certificate passes, and every quantity is silently
    wrong.  Shifting phi moves the range but cannot narrow it.
    """
    out_of_range = (scale < np.finfo(float).tiny) | np.isinf(scale)
    lost = int(np.count_nonzero(out_of_range & (mu.weights > 0)))
    if lost:
        phi = space._phi(np.asarray(mu.nodes, dtype=complex))
        spread = space.tensor_power * float(np.max(phi) - np.min(phi))
        raise RankDeficientError(
            f"metric scale exp(-k*phi) leaves the double range at {lost} of {len(mu)} "
            f"nodes: k*(max phi - min phi) = {spread:.6g}"
        )


def orthonormalize(mu, space):
    """Orthonormal basis of `space` w.r.t. the weighted measure, by the
    cheapest certified route the nodes allow (see the module docstring).

    Raises RankDeficientError when the measure cannot support the space
    (the finite-node analogue of a pluripolar support), and when the metric
    scale exp(-k phi) underflows or overflows at a node.
    """
    with np.errstate(over="ignore"):      # checked on the next line
        scale = space.weight_scale(mu.nodes)
    _check_scale_range(space, mu, scale)
    row_scale = np.sqrt(mu.weights) * scale
    route, built = _structured_arnoldi(mu, row_scale, space.dimension)
    return OrthonormalBasis(
        space=space, const_norm=built.h0, columns=built.q,
        nodes=np.asarray(mu.nodes),
        node_weights=np.asarray(mu.weights),
        route=route, h_sub=built.sub, h_band=built.band, szego_c=built.coef,
        h_full=built.hess, residual_sq=built.r_sq,
    )


def _stored_q(basis):
    """Q of a basis that kept only its last two columns: its route's build,
    run again with Q stored on the row scale orthonormalize used."""
    row_scale = np.sqrt(basis.node_weights) * basis.space.weight_scale(basis.nodes)
    return _run_route(basis.route, basis.nodes, row_scale, basis.dimension, store_q=True).q


def evaluate_basis(basis, points):
    """Matrix of basis values at the points, metric weight folded in:
    Phi[a, i] = p_i(x_a) * exp(-k * phi(x_a)).

    Evaluation runs the recurrence of the basis's route: the Szego and
    three-term steps are O(n) per point, the Hessenberg step (full Arnoldi)
    O(n^2).  The matrix is float64 for a real basis on real points.
    """
    return _run_recurrence(basis, points, diagonal=False)


def diagonal_kernel(basis, points):
    """sum_j |p_j(x)|^2 exp(-2k phi(x)) at the points, with no (points, n) matrix."""
    return _run_recurrence(basis, points, diagonal=True)


def _step_inputs(basis):
    """(route, coef, sub), the recurrence as _backend.eval_recurrence reads
    it: coef is the (2, n) band of a three-term step, the Szego c_j, or the
    whole H of a Hessenberg step, and sub the n - 1 norms."""
    coef = {"three_term": basis.h_band, "szego": basis.szego_c}.get(basis.route, basis.h_full)
    return basis.route, coef, basis.h_sub


def _run_recurrence(basis, points, diagonal):
    pts = np.ascontiguousarray(np.atleast_1d(np.asarray(points, dtype=complex)))
    scale = np.ascontiguousarray(basis.space.weight_scale(pts))
    return _backend.eval_recurrence(pts, scale, basis.const_norm, *_step_inputs(basis),
                                    diagonal=diagonal)


def weighted_rows(basis, mu):
    """Q[a, i] = sqrt(w_a) * p_i(x_a) * exp(-k * phi(x_a)) on mu's nodes:
    the node values on the measure the basis was built on (read-only, and
    built on first read when the basis kept only its last two columns), the
    recurrence on any other.  sqrt(w_a w_b) K(x_a, x_b) = (Q Q^*)[a, b].
    """
    if basis.defined_on(mu):
        return basis.node_values
    rows = evaluate_basis(basis, mu.nodes)
    rows *= np.sqrt(mu.weights)[:, None]
    return rows


def operator_frame(basis, mu):
    """The id of the frame of the basis's operators on mu: its basis_id,
    tagged "cmv" for a Szego basis on its own measure (see operator_rows)."""
    cmv = basis.route == "szego" and basis.defined_on(mu)
    return basis.basis_id + ("-cmv" if cmv else "")


def operator_rows(basis, mu):
    """The weighted rows Q of that frame, T(f) = Q* F Q: weighted_rows, or
    the CMV chi_{2k} = z^-k phi_{2k}^* and chi_{2k+1} = z^-k phi_{2k+1}, on
    |z| = 1 the columns z^k conj(q_{2k}) and conj(z^k conj(q_{2k+1}))."""
    if operator_frame(basis, mu) == basis.basis_id:
        return weighted_rows(basis, mu)
    rows = np.conjugate(basis.node_values)
    power = np.ones_like(basis.nodes)
    for j in range(2, basis.dimension, 2):
        power *= basis.nodes
        rows[:, j : j + 2] *= power[:, None]
    np.conjugate(rows[:, 1::2], out=rows[:, 1::2])
    return rows


def recurrence_toeplitz(basis, terms):
    """Q* F Q for the polynomial symbol sum c u^a v^b (u = Re z, v = Im z,
    a + b <= 2) on the basis's own measure, in the frame of operator_rows,
    as (rows, asymmetry) in O(n): rows[i, w + d] = T[i, i + d], zero off
    the matrix.  None on the "hessenberg" route (full Arnoldi).

    On the support f = gamma + P + P*, P = a_1 z + a_2 z^2, and T(z^k) is
    the leading block of Z^k (Z = _z_band), so T(f) = P + P* + gamma I.
    Real nodes: u = z and v = 0, so a_k = c_{u^k} / 2, gamma = c_1, and
    asymmetry = max |2P - 2P*|.  Szego: |z| = 1 (certified), so a_1 =
    (c_u - i c_v)/2, a_2 = (c_uu - c_vv - i c_uv)/4, gamma = c_1 +
    (c_uu + c_vv)/2, and asymmetry = 0.0.
    """
    if basis.route not in ("three_term", "szego"):
        return None
    c = {ab: terms.get(ab, 0.0) for ab in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))}
    if basis.route == "szego":
        a_1, a_2 = (c[1, 0] - 1j * c[0, 1]) / 2, (c[2, 0] - c[0, 2] - 1j * c[1, 1]) / 4
        gamma = c[0, 0] + (c[2, 0] + c[0, 2]) / 2
    else:
        a_1, a_2, gamma = c[1, 0] / 2, c[2, 0] / 2, c[0, 0]
    z, n = _z_band(basis), basis.dimension
    wz = z.shape[1] // 2
    w = 2 * wz if a_2 else wz if a_1 else 0
    band = np.zeros((n, 2 * w + 1), dtype=z.dtype)     # P, then T(f) in place
    if w:
        band[:, w - wz : w + wz + 1] = a_1 * _leading_block(z, n)
    if a_2:
        band += a_2 * _leading_block(band_product(z, z), n)
    adj = _band_adjoint(band)
    # np.max, unlike max(), propagates a NaN
    asym = 0.0 if basis.route == "szego" else 2 * float(np.max(np.abs(band - adj)))
    band += adj
    band[:, w] += gamma
    return band, asym


def _z_band(basis):
    """Multiplication by z to n + 1 rows, held by rows.  Three-term: H, the
    norms below the diagonal and the projections on and above it, with the
    step past n as H[n-1, n] = 1 and H[n, n-1] = |r|^2 (H[n, n] is never
    read), a diagonal similarity of the last row and column: the leading
    block of H^2 keeps its value and its last entry reads |r|^2 exactly.
    Szego: the CMV matrix C = L M (Cantero, Moral and Velazquez, 2003;
    Simon, OPUC Part 1, 2005, 4.2), L = Theta_0 + Theta_2 + ..., M = 1 +
    Theta_1 + ..., Theta_j = [[c_j, rho_j], [rho_j, -conj(c_j)]]; the
    leading block of C^2 reads c_n and rho_{n-1} = |r|, no more."""
    n = basis.dimension
    if basis.route == "three_term":
        h = np.zeros((n + 1, 3))
        h[1:, 0] = np.append(basis.h_sub, basis.residual_sq)
        h[:n, 1] = basis.h_band[1]
        h[:n, 2] = np.append(basis.h_band[0, 1:], 1.0)
        return h
    c = basis.szego_c
    rho = np.append(basis.h_sub, math.sqrt(basis.residual_sq))
    factors = np.zeros((2, n + 1, 3), dtype=np.complex128)
    for first, band in enumerate(factors):
        top = np.arange(first, n + 1, 2)
        band[top, 1] = c[top]
        top = top[top < n]
        band[top, 2] = band[top + 1, 0] = rho[top]
        band[top + 1, 1] = -np.conj(c[top])
    factors[1, 0, 1] = 1.0
    return band_product(*factors)


def band_product(a, b):
    """A B from banded A and B held by rows: a[i, wa + d] = A[i, i + d] for
    |d| <= wa, zero where i + d is off the matrix, and b likewise.  Returns
    A B by rows, (n, 2 (wa + wb) + 1), in O(n wa wb); each entry sums its
    products in the order of d."""
    n, wa, wb = a.shape[0], a.shape[1] // 2, b.shape[1] // 2
    padded = np.zeros((n + 2 * wa, b.shape[1]), dtype=b.dtype)
    padded[wa : wa + n] = b
    out = np.zeros((n, 2 * (wa + wb) + 1), dtype=np.result_type(a, b))
    # A[i, i + d] B[i + d, i + d + e] adds to row i at offset d + e
    for p in range(2 * wa + 1):
        out[:, p : p + 2 * wb + 1] += a[:, p, None] * padded[p : p + n]
    return out


def _leading_block(rows, n):
    """The leading n x n block of the band held by rows."""
    w = rows.shape[1] // 2
    return np.where(np.arange(n)[:, None] + np.arange(-w, w + 1) < n, rows[:n], 0.0)


def _band_adjoint(rows):
    """A* by rows, from A by rows: A*[i, i + d] = conj(A[i + d, i])."""
    n, w = rows.shape[0], rows.shape[1] // 2
    padded = np.pad(rows, ((w, w), (0, 0)))
    adj = np.stack([padded[w + d : w + d + n, w - d] for d in range(-w, w + 1)], axis=1)
    return np.conjugate(adj, out=adj)


def cd_factors(basis):
    """(u, v, alpha, beta, c) with, for a != b on the basis's own nodes,
        |(Q Q^*)[a, b]|^2 = c (beta_a alpha_b - alpha_a beta_b)^2 / D_ab,
    D_ab = (u_a - u_b)^2 + (v_a - v_b)^2 (v is None for real nodes): all
    real, from the last two columns of the weighted rows Q, which the basis
    keeps (basis.columns).  None on the "hessenberg" route, where no short
    recurrence gives the formula.

    Each row of Q is a row of polynomial values times a positive factor
    (sqrt(w) and the metric weight), which rides on every column alike, so
    the CD formulas hold for (Q Q^*)[a, b] as for K_n(x_a, x_b).  Three-term
    route (real nodes): with b = H[n-1, n-2] the recurrence gives
        (x_a - x_b) (Q Q^*)[a, b] = beta_a alpha_b - alpha_a beta_b,
    alpha = q_{n-1}, beta = x q_{n-1} - b q_{n-2}; c = 1.  Szego route
    (circle nodes): with |z| = 1, phi^*_{n-1}(z) = z^{n-1} conj phi_{n-1}(z),
    and Simon's formula becomes
        (1 - z_a conj z_b) (Q Q^*)[a, b]
            = -2i lambda_a conj(lambda_b) Im(g_a conj g_b),
    g = conj(lambda) z q_{n-1}, lambda^2 = z^n (either root; the sign
    squares out), and |1 - z_a conj z_b| = |z_a - z_b|: alpha = Re g,
    beta = Im g and c = 4.
    """
    q, z, n = basis.columns, basis.nodes, basis.dimension
    last = q[:, -1]
    if basis.route == "szego":
        g = last * z * np.exp(-0.5j * n * np.angle(z))
        return z.real, z.imag, g.real, g.imag, 4.0
    if basis.route != "three_term":
        return None
    x = z.real
    return x, None, last, x * last - basis.h_sub[n - 2] * q[:, -2], 1.0
