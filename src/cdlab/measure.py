"""Finite quadrature representations of positive measures on the plane.

A measure is a list of complex nodes with positive weights plus a support
tag used for closed-form dispatch downstream.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CdlabError

CIRCLE = "circle"
INTERVAL = "interval"
CUSTOM = "custom"

_SUPPORT_TAGS = (CIRCLE, INTERVAL, CUSTOM)
_SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class QuadratureMeasure:
    """Weighted node set; immutable after construction.

    nodes       complex points in the plane
    weights     strictly positive mass per node
    support_tag one of "circle", "interval", "custom"
    """

    nodes: np.ndarray
    weights: np.ndarray
    support_tag: str

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.complex128)
        weights = np.asarray(self.weights, dtype=np.float64)
        if nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("nodes must be a nonempty 1-d sequence")
        if weights.shape != nodes.shape:
            raise ValueError(
                f"length mismatch: {nodes.size} nodes vs {weights.size} weights"
            )
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        if not np.all(np.isfinite(nodes.real) & np.isfinite(nodes.imag)):
            raise ValueError("nodes must be finite")
        if self.support_tag not in _SUPPORT_TAGS:
            raise ValueError(f"unknown support_tag {self.support_tag!r}")
        if self.support_tag == CIRCLE:
            if np.max(np.abs(np.abs(nodes) - 1.0)) > _SUPPORT_TOL:
                raise ValueError("circle support requires | |node| - 1 | <= 1e-12")
        if self.support_tag == INTERVAL:
            if np.max(np.abs(nodes.imag)) > _SUPPORT_TOL:
                raise ValueError("interval support requires real nodes")
            if np.max(np.abs(nodes.real)) > 1.0 + _SUPPORT_TOL:
                raise ValueError("interval support requires nodes in [-1, 1]")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return self.nodes.size

    @property
    def total_mass(self):
        return float(self.weights.sum())

    def integrate(self, f):
        """Quadrature sum of a function given as a callable on the nodes."""
        vals = np.asarray(f(self.nodes))
        return complex(np.sum(vals * self.weights)) if np.iscomplexobj(vals) \
            else float(np.sum(vals * self.weights))


def _require_count(name, value):
    """Reject a node count or order that is not an integer >= 1."""
    # a bool is an int, but no count
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _real_values(name, f, points):
    """f(points) as a float64 array of one finite value per point.  A complex
    result is taken as its real part when no imaginary part exceeds 1e-12;
    otherwise, and for any other shape or a non-finite value, ValueError
    names f as `name`."""
    vals = np.asarray(f(points))
    if np.iscomplexobj(vals):
        # written so that a NaN imaginary part fails too
        if not np.max(np.abs(vals.imag), initial=0.0) <= 1e-12:
            raise ValueError(f"{name} must be real at every point")
        vals = vals.real
    vals = vals.astype(float)
    if vals.shape != np.shape(points):
        raise ValueError(f"{name} must return one value per point")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{name} must be finite at every point")
    return vals


def circle_lebesgue(m):
    """Uniform probability measure on the unit circle, m equispaced atoms.

    Integrates z^j to 0 exactly for 1 <= |j| <= m-1 (root-of-unity
    cancellation), so monomials up to degree m-1 are orthonormal.
    """
    _require_count("m", m)
    nodes = np.exp(2j * np.pi * np.arange(m) / m)
    weights = np.full(m, 1.0 / m)
    return QuadratureMeasure(nodes, weights, support_tag=CIRCLE)


# The first ten positive zeros j_{0,k} of the Bessel function J_0
# (Abramowitz & Stegun, Table 9.5): the starting values of the Gauss-Legendre
# nodes nearest the endpoints.
_J0_ZEROS = np.array([
    2.4048255576957724, 5.520078110286311, 8.653727912911013,
    11.791534439014281, 14.930917708487787, 18.071063967910924,
    21.21163662987926, 24.352471530749302, 27.493479132040253,
    30.634606468431976,
])
_NEWTON_SWEEPS = 10
_STIELTJES_TERMS = 20
_PI_LO = 1.2246467991473532e-16    # pi - np.pi
_SPLIT = 134217729.0                # 2^27 + 1, Dekker's splitting constant
_EPS = np.finfo(float).eps


def _two_prod(a, b):
    """fl(a b) and its rounding error e, so that fl(a b) + e = a b exactly
    (Dekker's product: numpy has no fused multiply-add)."""
    p = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = _SPLIT * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _dd_mul(a_hi, a_lo, b_hi, b_lo):
    """Double-double product (a_hi + a_lo)(b_hi + b_lo), renormalized."""
    p, e = _two_prod(a_hi, b_hi)
    e = e + (a_hi * b_lo + a_lo * b_hi)
    s = p + e
    return s, e - (s - p)


def _dd_div(a_hi, a_lo, b_hi, b_lo=0.0):
    """Double-double quotient (a_hi + a_lo)/(b_hi + b_lo)."""
    q = a_hi / b_hi
    p, e = _two_prod(q, b_hi)
    return q, ((a_hi - p) - e + a_lo - q * b_lo) / b_hi


def _legendre_angles(m):
    """theta_k = pi (4k - 1)/(4m + 2) for k = 1 .. ceil(m/2), in increasing
    order, as double-doubles (hi, lo): the zeros of the leading term of
    Stieltjes' series, and the reference angles of the nonnegative nodes."""
    k = np.arange(1, (m + 1) // 2 + 1)
    return _dd_mul(4.0 * k - 1.0, 0.0, *_dd_div(np.pi, _PI_LO, 4.0 * m + 2.0))


def _legendre_scale(m):
    """C_m = (4/pi) prod_{j<=m} j/(j + 1/2), the factor of Stieltjes' series,
    to about an ulp.  Each factor is a double-double and the product is
    taken pairwise in double-double: a running product of the rounded
    factors is off by 3e-15 at m = 2048, which moves every weight by twice
    that."""
    d = 2.0 * np.arange(1, m + 1)
    hi, lo = _dd_div(d, 0.0, d + 1.0)
    while hi.size > 1:
        if hi.size % 2:
            hi, lo = np.append(hi, 1.0), np.append(lo, 0.0)
        hi, lo = _dd_mul(hi[::2], lo[::2], hi[1::2], lo[1::2])
    q, r = _dd_div(4.0 * hi[0], 4.0 * lo[0], np.pi, _PI_LO)
    return q + r


def _legendre_cosines(m, theta):
    """P_m(cos theta) and dP_m/dtheta by the finite cosine series
    P_m(cos theta) = sum_{j<=m} g_j g_{m-j} cos((m - 2j) theta) with
    g_j = binom(2j, j)/4^j, at O(m) per angle."""
    j = np.arange(1, m + 1)
    g = np.cumprod(np.concatenate(([1.0], (j - 0.5) / j)))
    # the terms j and m - j are equal; for even m the middle one is constant
    a = 2.0 * g[:(m + 1) // 2] * g[m:m // 2:-1]
    freq = m - 2.0 * np.arange(a.size)
    angle = np.multiply.outer(theta, freq)
    p = np.cos(angle) @ a
    if m % 2 == 0:
        p += g[m // 2] ** 2
    return p, -(np.sin(angle) @ (a * freq))


def _legendre_theta(m, theta, delta, scale):
    """P_m(cos theta) and dP_m/dtheta at O(1) cost per node, at the angles
    theta = theta_k + delta of the nonnegative nodes, k = 1 .. ceil(m/2):
    delta is their offset from the theta_k of _legendre_angles, and scale
    is C_m of _legendre_scale.

    Where it has converged to rounding, this is Stieltjes' series
    (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013) in M = 20 terms,

        P_m(cos theta) = C_m sum_{q<M} h_q cos(alpha_q) / (2 sin theta)^(q+1/2),
        h_q = prod_{j<=q} (j - 1/2)^2 / (j (m + j + 1/2)),
        alpha_q = (m + q + 1/2) theta - (q + 1/2) pi/2.

    Its phase is exact: alpha_q = k pi - pi/2 + (m + 1/2) delta
    + q (theta - pi/2), so m is never multiplied by a rounded theta, and
    with z = (1 - i cot theta)/2 the sum is a polynomial in z.  The nodes
    nearest the endpoint, where the remainder bound 2 h_M/(2 sin theta)^M
    is not below eps/4, take the cosine series of _legendre_cosines.
    """
    sin_t = np.sin(theta)
    j = np.arange(1, _STIELTJES_TERMS + 1)
    h = np.cumprod(np.concatenate(([1.0], (j - 0.5) ** 2 / (j * (m + j + 0.5)))))
    # theta increases with k, so the nodes that fail the bound come first
    ends = np.count_nonzero(
        8.0 * h[-1] >= _EPS * (2.0 * sin_t) ** _STIELTJES_TERMS)
    p, dp = np.empty_like(theta), np.empty_like(theta)
    p[:ends], dp[:ends] = _legendre_cosines(m, theta[:ends])
    sin_t, theta, delta = sin_t[ends:], theta[ends:], delta[ends:]
    cot = np.cos(theta) / sin_t
    z = 0.5 - 0.5j * cot
    # Horner's rule for s0 = sum h_q z^q and s1 = sum q h_q z^q
    s0 = np.full(z.size, h[-2], dtype=complex)
    s1 = s0 * (_STIELTJES_TERMS - 1)
    for q in range(_STIELTJES_TERMS - 2, -1, -1):
        s0 *= z
        s0 += h[q]
        s1 *= z
        s1 += q * h[q]
    # cos(alpha_q) = (-1)^k sin(phi_q), sin(alpha_q) = -(-1)^k cos(phi_q)
    # with phi_q = (m + 1/2) delta + q (theta - pi/2)
    turn = np.exp(1j * (m + 0.5) * delta)
    a, b = turn * s0, turn * s1
    amp = scale / np.sqrt(2.0 * sin_t)
    amp[ends % 2::2] *= -1.0      # (-1)^k: the odd k = ends + 1 + i
    p[ends:] = amp * a.imag
    dp[ends:] = amp * ((m + 0.5) * a.real + b.real - cot * (b.imag + 0.5 * a.imag))
    return p, dp


def _legendre_starts(m):
    """Asymptotic approximations of the angles theta of the ceil(m/2)
    nonnegative Gauss-Legendre nodes x = cos theta, in increasing order.

    Interior nodes take Tricomi's expansion in theta_k = pi(4k - 1)/(4m + 2);
    the ten nearest the endpoint take Olver's expansion about the Bessel
    zeros, theta = psi + (psi cot psi - 1)/(8 psi rho^2), psi = j_{0,k}/rho,
    rho = m + 1/2 (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013).  For odd
    m the middle angle is exactly pi/2.
    """
    k = np.arange(1, (m + 1) // 2 + 1)
    theta = np.pi * (4 * k - 1) / (4 * m + 2)
    theta = np.arccos((1.0 - (m - 1) / (8.0 * m ** 3)
                       - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * m ** 4))
                      * np.cos(theta))
    rho = m + 0.5
    psi = _J0_ZEROS[:k.size] / rho
    theta[:psi.size] = psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * rho ** 2)
    if m % 2:
        theta[-1] = 0.5 * np.pi
    return theta


def _gauss_legendre(m):
    """Gauss-Legendre nodes/weights for dx on [-1,1], in increasing order.

    Newton's method runs on the offsets delta of the nonnegative nodes'
    angles from theta_k of _legendre_angles, held as double-doubles, from
    asymptotic starting values until max |dx| < 1e-15; the rule is its
    mirror image, so it is symmetric by construction.  Each sweep, and the
    weight sweep w = 2/(dP_m/dtheta)^2 after it, costs O(m) by
    _legendre_theta; for m >= 23 it takes two sweeps or fewer.  Raises
    CdlabError if Newton has not converged after ten sweeps.
    """
    t_hi, t_lo = _legendre_angles(m)
    cos_hi, sin_hi = np.cos(t_hi), np.sin(t_hi)
    scale = _legendre_scale(m)
    delta = (_legendre_starts(m) - t_hi) - t_lo
    eta = t_lo + delta
    # x = cos(t_hi + eta) by the addition formula: t_hi + eta is never rounded
    x = cos_hi * np.cos(eta) - sin_hi * np.sin(eta)
    for _ in range(_NEWTON_SWEEPS):
        p, dp = _legendre_theta(m, t_hi + eta, delta, scale)
        delta = delta - p / dp
        eta = t_lo + delta
        x, x_prev = cos_hi * np.cos(eta) - sin_hi * np.sin(eta), x
        step = np.max(np.abs(x - x_prev))
        if step < 1e-15:
            break
    else:
        raise CdlabError(f"Gauss-Legendre Newton iteration for m={m} did not "
                         f"converge in {_NEWTON_SWEEPS} sweeps "
                         f"(last max |dx| = {step:.3g})")
    _, dp = _legendre_theta(m, t_hi + eta, delta, scale)
    w = 2.0 / (dp * dp)
    pos = m // 2      # the positive nodes; for odd m, x[pos] is the middle 0
    if m % 2:
        x[pos] = 0.0
    return (np.concatenate((-x[:pos], x[::-1])),
            np.concatenate((w[:pos], w[::-1])))


def interval_lebesgue(m):
    """Gauss-Legendre rule of order m for dx on [-1,1] (total mass 2)."""
    _require_count("m", m)
    x, w = _gauss_legendre(m)
    return QuadratureMeasure(x.astype(complex), w, support_tag=INTERVAL)


def arcsine(m):
    """Gauss-Chebyshev (first kind) rule for dx/(pi*sqrt(1-x^2)), mass 1."""
    _require_count("m", m)
    a = np.arange(1, m + 1)
    x = np.cos((2 * a - 1) * np.pi / (2 * m))
    w = np.full(m, 1.0 / m)
    order = np.argsort(x)
    return QuadratureMeasure(x[order].astype(complex), w, support_tag=INTERVAL)


def from_points(nodes, weights):
    """Discrete measure from user-supplied atoms."""
    return QuadratureMeasure(np.atleast_1d(nodes), np.atleast_1d(weights), support_tag=CUSTOM)


def scale_by(mu, g):
    """Tilt the measure by exp(-g): weight at node x becomes w(x)*exp(-g(x)).

    Keeps the nodes and support tag.
    """
    gvals = _real_values("g", g, mu.nodes)
    return QuadratureMeasure(mu.nodes, mu.weights * np.exp(-gvals),
                             support_tag=mu.support_tag)
