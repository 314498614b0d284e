"""Closed-form equilibrium measures and exact integration against them.

Only the two classical cases are provided: the uniform probability measure
on the unit circle, and the arcsine density dx/(pi sqrt(1-x^2)) on [-1,1].
There is no closed form for custom supports and none is approximated.
"""

from dataclasses import dataclass

import numpy as np

from .measure import _real_values, _require_count, arcsine, circle_lebesgue

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


def integrate(nu, g):
    """Integral of g against the equilibrium measure.

    circle_uniform: the average of g over the roots of unity of
    circle_lebesgue; arcsine: the average of g(x) over the real
    Gauss-Chebyshev nodes of measure.arcsine, in decreasing order.  Both
    rules are exact for (trigonometric) polynomials up to the quadrature
    order.  g must give one finite real value per point (ValueError).
    """
    m = nu.quadrature_order
    if nu.kind == CIRCLE_UNIFORM:
        pts = circle_lebesgue(m).nodes
    else:
        # x_a = cos((2a - 1) pi / 2m), a = 1..m: the mean's rounding
        # depends on the order of the terms
        pts = arcsine(m).nodes.real[::-1]
    return float(np.mean(_real_values("g", g, pts)))
