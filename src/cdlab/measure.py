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


def circle_lebesgue(m):
    """Uniform probability measure on the unit circle, m equispaced atoms.

    Integrates z^j to 0 exactly for 1 <= |j| <= m-1 (root-of-unity
    cancellation), so monomials up to degree m-1 are orthonormal.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
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


def _legendre_pair(m, x):
    """Value and derivative of the degree-m Legendre polynomial at x.

    The three-term recurrence runs in three preallocated buffers.
    """
    p_prev = np.ones_like(x)
    p = x.copy()
    t = np.empty_like(x)
    for j in range(2, m + 1):
        # p_j = ((2j - 1) x p_{j-1} - (j - 1) p_{j-2}) / j
        np.multiply(x, 2 * j - 1, out=t)
        t *= p
        p_prev *= j - 1
        t -= p_prev
        t /= j
        p_prev, p, t = p, t, p_prev
    dp = m * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def _legendre_starts(m):
    """Asymptotic approximations of the ceil(m/2) nonnegative Gauss-Legendre
    nodes, in decreasing order.

    Interior nodes take Tricomi's expansion in theta_k = pi(4k - 1)/(4m + 2);
    the ten nearest the endpoint take Olver's expansion about the Bessel
    zeros, theta = psi + (psi cot psi - 1)/(8 psi rho^2), psi = j_{0,k}/rho,
    rho = m + 1/2 (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013).  For odd
    m the middle node is exactly 0.
    """
    k = np.arange(1, (m + 1) // 2 + 1)
    theta = np.pi * (4 * k - 1) / (4 * m + 2)
    x = (1.0 - (m - 1) / (8.0 * m ** 3)
         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * m ** 4)) * np.cos(theta)
    rho = m + 0.5
    psi = _J0_ZEROS[:k.size] / rho
    x[:psi.size] = np.cos(psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * rho ** 2))
    if m % 2:
        x[-1] = 0.0
    return x


def _gauss_legendre(m):
    """Gauss-Legendre nodes/weights for dx on [-1,1], in increasing order.

    Newton's method runs on the nonnegative half from asymptotic starting
    values until max |dx| < 1e-15, and the rule is its mirror image, so it
    is symmetric by construction.  That takes three sweeps for 2 <= m <= 22,
    two for larger m and one from about m = 14000; each sweep, and the
    weight sweep after it, is an O(m^2 / 2) recurrence.  Raises CdlabError
    if Newton has not converged after ten sweeps.
    """
    x = _legendre_starts(m)
    for _ in range(_NEWTON_SWEEPS):
        p, dp = _legendre_pair(m, x)
        dx = p / dp
        x -= dx
        step = np.max(np.abs(dx))
        if step < 1e-15:
            break
    else:
        raise CdlabError(f"Gauss-Legendre Newton iteration for m={m} did not "
                         f"converge in {_NEWTON_SWEEPS} sweeps "
                         f"(last max |dx| = {step:.3g})")
    _, dp = _legendre_pair(m, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    pos = m // 2      # the positive nodes; for odd m, x[pos] is the middle 0
    return (np.concatenate((-x[:pos], x[::-1])),
            np.concatenate((w[:pos], w[::-1])))


def interval_lebesgue(m):
    """Gauss-Legendre rule of order m for dx on [-1,1] (total mass 2)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    x, w = _gauss_legendre(m)
    return QuadratureMeasure(x.astype(complex), w, support_tag=INTERVAL)


def arcsine(m):
    """Gauss-Chebyshev (first kind) rule for dx/(pi*sqrt(1-x^2)), mass 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    a = np.arange(1, m + 1)
    x = np.cos((2 * a - 1) * np.pi / (2 * m))
    w = np.full(m, 1.0 / m)
    order = np.argsort(x)
    return QuadratureMeasure(x[order].astype(complex), w, support_tag=INTERVAL)


def from_points(nodes, weights):
    """Discrete measure from user-supplied atoms."""
    nodes = np.atleast_1d(np.asarray(nodes, dtype=complex))
    weights = np.atleast_1d(np.asarray(weights, dtype=float))
    if nodes.size == 0:
        raise ValueError("empty node list")
    if nodes.shape != weights.shape:
        raise ValueError("nodes and weights must have equal length")
    if np.any(weights <= 0.0):
        raise ValueError("nonpositive weight")
    return QuadratureMeasure(nodes, weights, support_tag=CUSTOM)


def scale_by(mu, g):
    """Tilt the measure by exp(-g): weight at node x becomes w(x)*exp(-g(x)).

    Keeps the nodes and support tag.
    """
    gvals = np.asarray(g(mu.nodes), dtype=float)
    if gvals.shape != mu.nodes.shape:
        raise ValueError("g must return one value per node")
    if not np.all(np.isfinite(gvals)):
        raise ValueError("g must be finite at every node")
    return QuadratureMeasure(mu.nodes, mu.weights * np.exp(-gvals),
                             support_tag=mu.support_tag)
