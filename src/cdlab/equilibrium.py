"""Closed-form equilibrium measures and exact integration against them.

Only the two classical cases are provided: the uniform probability measure
on the unit circle, and the arcsine density dx/(pi sqrt(1-x^2)) on [-1,1].
There is no closed form for custom supports and none is approximated.
"""

from dataclasses import dataclass

import numpy as np

from .measure import _require_count

CIRCLE_UNIFORM = "circle_uniform"
ARCSINE = "arcsine"

DEFAULT_ORDER = 512


@dataclass(frozen=True)
class EquilibriumMeasure:
    kind: str
    quadrature_order: int = DEFAULT_ORDER

    def __post_init__(self):
        if self.kind not in (CIRCLE_UNIFORM, ARCSINE):
            raise ValueError(f"unknown equilibrium kind {self.kind!r}")
        _require_count("quadrature_order", self.quadrature_order)


def equilibrium_for(mu):
    """Closed-form equilibrium measure for a supported measure family."""
    if mu.support_tag == "circle":
        return EquilibriumMeasure(CIRCLE_UNIFORM)
    if mu.support_tag == "interval":
        return EquilibriumMeasure(ARCSINE)
    raise ValueError(
        f"unsupported support {mu.support_tag!r}: no closed-form equilibrium measure"
    )


def support_points(nu):
    """The natural exact quadrature points of the measure (unit weights 1/m)."""
    m = nu.quadrature_order
    if nu.kind == CIRCLE_UNIFORM:
        return np.exp(2j * np.pi * np.arange(m) / m)
    a = np.arange(1, m + 1)
    return np.cos((2 * a - 1) * np.pi / (2 * m))


def integrate(nu, g):
    """Integral of g against the equilibrium measure.

    circle_uniform: equispaced-angle average of g(e^{i theta});
    arcsine: Gauss-Chebyshev average of g(x).  Both rules are exact for
    (trigonometric) polynomials up to the quadrature order.
    """
    pts = support_points(nu)
    vals = np.asarray(g(pts), dtype=float)
    return float(np.mean(vals))
