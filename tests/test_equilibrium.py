import math

import numpy as np
import pytest

from cdlab import (
    EquilibriumMeasure,
    arcsine,
    circle_lebesgue,
    equilibrium_for,
    from_points,
    integrate,
    interval_lebesgue,
)
from cdlab.equilibrium import ARCSINE, CIRCLE_UNIFORM


class TestDispatch:
    def test_circle_measure(self):
        assert equilibrium_for(circle_lebesgue(64)).kind == CIRCLE_UNIFORM

    def test_interval_lebesgue(self):
        assert equilibrium_for(interval_lebesgue(32)).kind == ARCSINE

    def test_arcsine_input(self):
        assert equilibrium_for(arcsine(32)).kind == ARCSINE

    def test_custom_measure_unsupported(self):
        with pytest.raises(ValueError, match="unsupported support"):
            equilibrium_for(from_points([0.3], [1.0]))


class TestIntegrate:
    @pytest.mark.parametrize("kind", [CIRCLE_UNIFORM, ARCSINE])
    @pytest.mark.parametrize("order", [32, 512, 2048])
    def test_mass_one(self, kind, order):
        nu = EquilibriumMeasure(kind, quadrature_order=order)
        assert abs(integrate(nu, lambda p: np.ones(np.shape(p))) - 1.0) <= 1e-14

    def test_arcsine_first_moment(self):
        nu = EquilibriumMeasure(ARCSINE)
        assert abs(integrate(nu, lambda x: x)) <= 1e-14

    def test_arcsine_second_moment(self):
        nu = EquilibriumMeasure(ARCSINE)
        assert abs(integrate(nu, lambda x: x ** 2) - 0.5) <= 1e-12

    def test_circle_cos_square(self):
        nu = EquilibriumMeasure(CIRCLE_UNIFORM)
        assert abs(integrate(nu, lambda z: np.real(z) ** 2) - 0.5) <= 1e-12

    # a complex g lost its imaginary part with a ComplexWarning, and the
    # mean of three values was returned as the integral
    @pytest.mark.parametrize("g, message", [
        (lambda z: 1j * z.real, "g must be real at every point"),
        (lambda z: z[:3].real, "g must return one value per point"),
    ], ids=["complex", "short"])
    def test_bad_integrand_rejected(self, g, message):
        with pytest.raises(ValueError, match=message):
            integrate(EquilibriumMeasure(CIRCLE_UNIFORM, quadrature_order=64), g)

    @pytest.mark.parametrize("j", range(1, 9))
    def test_arcsine_even_moments_central_binomial(self, j):
        # closed form C(2j, j)/4^j; oracle: the same quadrature at 10x order
        nu = EquilibriumMeasure(ARCSINE)
        oracle = EquilibriumMeasure(ARCSINE, quadrature_order=10 * nu.quadrature_order)
        want = math.comb(2 * j, j) / 4.0 ** j
        got = integrate(nu, lambda x: x ** (2 * j))
        assert abs(got - integrate(oracle, lambda x: x ** (2 * j))) <= 1e-10
        assert abs(got - want) <= 1e-10

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EquilibriumMeasure("halfplane")

    # 2.5 integrated x^2 to 0.5833 and True to 3.7e-33
    @pytest.mark.parametrize("order", [2.5, float("nan"), True, 0, -3])
    def test_non_integer_order_rejected(self, order):
        with pytest.raises(ValueError, match="quadrature_order must be an integer >= 1"):
            EquilibriumMeasure(ARCSINE, quadrature_order=order)

    def test_numpy_integer_order_accepted(self):
        nu = EquilibriumMeasure(ARCSINE, quadrature_order=np.int64(8))
        assert abs(integrate(nu, lambda x: x ** 2) - 0.5) <= 1e-15
