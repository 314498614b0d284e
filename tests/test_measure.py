import numpy as np
import pytest

from cdlab import measure
from cdlab.errors import CdlabError
from cdlab.measure import (
    QuadratureMeasure,
    arcsine,
    circle_lebesgue,
    from_points,
    interval_lebesgue,
    scale_by,
)


class TestCircleLebesgue:
    def test_m4_nodes_are_fourth_roots(self):
        mu = circle_lebesgue(4)
        got = np.sort_complex(mu.nodes)
        want = np.sort_complex(np.array([1, 1j, -1, -1j], dtype=complex))
        np.testing.assert_allclose(got, want, atol=1e-15)
        np.testing.assert_allclose(mu.weights, 0.25)

    def test_cubic_moment_cancels(self):
        mu = circle_lebesgue(256)
        assert abs(mu.integrate(lambda z: z ** 3)) <= 1e-14

    def test_monomials_orthonormal_to_degree_seven(self):
        mu = circle_lebesgue(256)
        v = mu.nodes[:, None] ** np.arange(8)[None, :]
        gram = (v.conj().T * mu.weights) @ v
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 7, 64, 257])
    def test_total_mass_one(self, m):
        assert abs(circle_lebesgue(m).total_mass - 1.0) <= 1e-14

    def test_moment_sweep_kronecker(self):
        m = 16
        mu = circle_lebesgue(m)
        for j in range(-(m - 1), m):
            want = 1.0 if j == 0 else 0.0
            assert abs(mu.integrate(lambda z, j=j: z ** j) - want) <= 1e-13

    def test_rejects_m_zero(self):
        with pytest.raises(ValueError):
            circle_lebesgue(0)


class TestIntervalLebesgue:
    def test_m1_is_midpoint(self):
        mu = interval_lebesgue(1)
        np.testing.assert_allclose(mu.nodes, [0.0], atol=1e-15)
        np.testing.assert_allclose(mu.weights, [2.0])

    def test_m2_matches_moment_equations(self):
        # frozen from solving sum w x^j = int x^j dx for j <= 3 by hand
        mu = interval_lebesgue(2)
        np.testing.assert_allclose(
            np.sort(mu.nodes.real), [-0.5773502691896257, 0.5773502691896257],
            atol=1e-15)
        np.testing.assert_allclose(mu.weights, [1.0, 1.0], atol=1e-15)

    def test_second_moment(self):
        mu = interval_lebesgue(16)
        assert abs(mu.integrate(lambda z: z.real ** 2) - 2.0 / 3.0) <= 1e-14

    @pytest.mark.parametrize("m", [3, 8, 33])
    def test_nodes_match_reference_rule(self, m):
        x_ref, w_ref = np.polynomial.legendre.leggauss(m)
        mu = interval_lebesgue(m)
        np.testing.assert_allclose(mu.nodes.real, x_ref, atol=1e-14)
        np.testing.assert_allclose(mu.weights, w_ref, atol=1e-14)

    @pytest.mark.parametrize("m", [4, 16])
    def test_analytic_moments(self, m):
        mu = interval_lebesgue(m)
        for j in range(2 * m):
            want = 2.0 / (j + 1) if j % 2 == 0 else 0.0
            got = mu.integrate(lambda z, j=j: z.real ** j)
            assert abs(got - want) <= 1e-12

    def test_total_mass_two(self):
        assert abs(interval_lebesgue(40).total_mass - 2.0) <= 1e-14

    def test_rejects_m_zero(self):
        with pytest.raises(ValueError):
            interval_lebesgue(0)


class TestArcsine:
    def test_mass_is_exactly_one(self):
        assert arcsine(8).total_mass == 1.0

    def test_first_moment_vanishes(self):
        assert abs(arcsine(8).integrate(lambda z: z.real)) <= 1e-15

    def test_second_moment_half(self):
        assert abs(arcsine(32).integrate(lambda z: z.real ** 2) - 0.5) <= 1e-14

    def test_nodes_are_chebyshev(self):
        mu = arcsine(5)
        want = np.sort(np.cos((2 * np.arange(1, 6) - 1) * np.pi / 10))
        np.testing.assert_allclose(mu.nodes.real, want, atol=1e-15)

    def test_rejects_m_zero(self):
        with pytest.raises(ValueError):
            arcsine(0)


class TestFromPoints:
    def test_single_atom(self):
        mu = from_points([1.0], [1.0])
        assert len(mu) == 1
        assert mu.support_tag == "custom"

    def test_two_atoms(self):
        mu = from_points([1.0, -1.0], [0.5, 0.5])
        assert abs(mu.total_mass - 1.0) <= 1e-15

    def test_nonpositive_weight_rejected(self):
        # from_points leaves its checks to QuadratureMeasure
        with pytest.raises(ValueError, match="weights must be finite and strictly positive"):
            from_points([1.0], [-1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            from_points([1.0, 2.0], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            from_points([], [])


class TestScaleBy:
    def test_zero_tilt_is_identity(self):
        mu = circle_lebesgue(16)
        nu = scale_by(mu, lambda z: np.zeros(z.shape))
        np.testing.assert_array_equal(nu.nodes, mu.nodes)
        np.testing.assert_array_equal(nu.weights, mu.weights)

    def test_constant_tilt_scales_weights(self):
        mu = interval_lebesgue(8)
        nu = scale_by(mu, lambda z: np.ones(z.shape))
        np.testing.assert_allclose(nu.weights, mu.weights * np.exp(-1.0), rtol=1e-15)
        assert nu.support_tag == mu.support_tag

    def test_nan_tilt_rejected(self):
        mu = circle_lebesgue(4)
        with pytest.raises(ValueError):
            scale_by(mu, lambda z: np.where(z.real > 0, np.nan, 0.0))

    # a complex tilt lost its imaginary part with a ComplexWarning
    def test_complex_tilt_rejected(self):
        with pytest.raises(ValueError, match="g must be real at every point"):
            scale_by(circle_lebesgue(16), lambda z: z)


class TestRealValues:
    """measure._real_values, the one check of a user function's values."""

    def test_rounding_level_imaginary_part_is_dropped(self):
        pts = circle_lebesgue(8).nodes
        vals = measure._real_values("f", lambda z: z.real + 1e-13j, pts)
        assert vals.dtype == np.float64
        np.testing.assert_array_equal(vals, pts.real)

    @pytest.mark.parametrize("f, message", [
        (lambda z: z.real + 1j, "f must be real at every point"),
        (lambda z: z.real + complex(0.0, np.nan), "f must be real at every point"),
        (lambda z: 2.0, "f must return one value per point"),
        (lambda z: np.ones(z.size + 1), "f must return one value per point"),
        (lambda z: np.full(z.shape, np.inf), "f must be finite at every point"),
    ], ids=["complex", "nan-imaginary", "scalar", "too-many", "inf"])
    def test_rejected(self, f, message):
        with pytest.raises(ValueError, match=message):
            measure._real_values("f", f, circle_lebesgue(8).nodes)


class TestValidation:
    def test_circle_tag_requires_unit_modulus(self):
        with pytest.raises(ValueError):
            QuadratureMeasure(np.array([0.5 + 0j]), np.array([1.0]), support_tag="circle")

    def test_interval_tag_requires_real_nodes(self):
        with pytest.raises(ValueError):
            QuadratureMeasure(np.array([0.1 + 0.1j]), np.array([1.0]), support_tag="interval")

    def test_interval_tag_requires_unit_box(self):
        with pytest.raises(ValueError):
            QuadratureMeasure(np.array([1.5 + 0j]), np.array([1.0]), support_tag="interval")

    def test_nodes_are_immutable(self):
        mu = circle_lebesgue(4)
        with pytest.raises(ValueError):
            mu.nodes[0] = 0.0


def test_newton_rule_agrees_with_reference_at_high_order():
    for m in (200, 2048):
        x_ref, w_ref = np.polynomial.legendre.leggauss(m)
        x, w = measure._gauss_legendre(m)
        np.testing.assert_allclose(x, x_ref, atol=1e-14)
        np.testing.assert_allclose(w, w_ref, atol=1e-14)


def newton_reference(m):
    """Gauss-Legendre by Newton over all m nodes from Chebyshev-type starts,
    symmetrized afterwards: the rule's former implementation."""
    def legendre_pair(x):
        p_prev = np.ones_like(x)
        p = x.copy()
        for j in range(2, m + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        return p, m * (x * p - p_prev) / (x * x - 1.0)

    if m == 1:
        return np.zeros(1), np.full(1, 2.0)
    a = np.arange(1, m + 1)
    x = np.cos(np.pi * (a - 0.25) / (m + 0.5))
    for _ in range(100):
        p, dp = legendre_pair(x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = legendre_pair(x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    order = np.argsort(x)
    return x[order], w[order]


def bessel_j0(x):
    """J_0(x) = (1/pi) int_0^pi cos(x sin t) dt by the 64-point trapezoid rule,
    exact to rounding for x <= 31 (the integrand is smooth and periodic)."""
    t = np.linspace(0.0, np.pi, 65)
    f = np.cos(np.multiply.outer(x, np.sin(t)))
    return (f[..., 1:-1].sum(axis=-1) + 0.5 * (f[..., 0] + f[..., -1])) / 64


class TestGaussLegendre:
    @pytest.mark.parametrize("m", [*range(1, 65), 255, 256, 257, 1024, 2048, 4096])
    def test_matches_newton_reference(self, m):
        x, w = measure._gauss_legendre(m)
        x_ref, w_ref = newton_reference(m)
        assert np.max(np.abs(x - x_ref)) <= 2.3e-16
        assert np.max(np.abs(w - w_ref)) <= 1e-14
        # mirror symmetric bit for bit, increasing, mass 2
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0.0)
        assert abs(w.sum() - 2.0) <= 2e-14
        if m % 2:
            assert x[m // 2] == 0.0 and not np.signbit(x[m // 2])

    @pytest.mark.parametrize("m", [23, 64, 255, 256, 2048, 4096, 16384])
    def test_at_most_three_evaluations(self, monkeypatch, m):
        # at most two Newton sweeps and the weight sweep, each over ceil(m/2)
        # nodes
        evaluate = measure._legendre_theta
        sizes = []

        def counted(*args):
            sizes.append(args[1].size)
            return evaluate(*args)

        monkeypatch.setattr(measure, "_legendre_theta", counted)
        measure._gauss_legendre(m)
        assert 2 <= len(sizes) <= 3
        assert sizes == [(m + 1) // 2] * len(sizes)

    @pytest.mark.parametrize("m", sorted({*range(64, 16385, 251), 65, 127, 1023, 16383, 16384}))
    def test_few_nodes_take_the_cosine_series(self, monkeypatch, m):
        # the O(m) cosine series serves only the nodes nearest the endpoint,
        # where Stieltjes' series has not converged
        cosines = measure._legendre_cosines
        sizes = []

        def counted(degree, theta):
            sizes.append(theta.size)
            return cosines(degree, theta)

        monkeypatch.setattr(measure, "_legendre_cosines", counted)
        measure._gauss_legendre(m)
        assert sizes and max(sizes) <= 16

    def test_bessel_zeros(self):
        z = measure._J0_ZEROS
        assert z.shape == (10,)
        assert np.max(np.abs(bessel_j0(z))) < 1e-14
        # the first ten zeros: the first lies in (2, 3), and zeros of J_0
        # are spaced by about pi
        assert 2.0 < z[0] < 3.0
        assert np.max(np.abs(np.diff(z) - np.pi)) < 0.05

    def test_newton_failure_is_reported(self, monkeypatch):
        evaluate = measure._legendre_theta

        def wrong_derivative(*args):
            p, dp = evaluate(*args)
            return p, 4.0 * dp

        monkeypatch.setattr(measure, "_legendre_theta", wrong_derivative)
        with pytest.raises(CdlabError, match=r"m=40 did not converge .*max \|dx\| = "):
            measure._gauss_legendre(40)

    @pytest.mark.parametrize("m", [2048, 16384])
    def test_end_weights_match_the_cosine_series(self, m):
        # the two outermost nodes, refined in extended precision by Newton on
        # P_m(cos t) = sum_j g_j g_{m-j} cos((m - 2j) t), g_j = binom(2j, j)/4^j,
        # and their weights 2/(dP_m/dt)^2 there
        x, w = measure._gauss_legendre(m)
        j = np.arange(m + 1, dtype=np.longdouble)
        g = np.cumprod(np.concatenate(([1.0], (j[1:] - 0.5) / j[1:])))
        a = g * g[::-1]
        freq = m - 2 * j
        for i in (0, 1):
            t = np.arccos(np.longdouble(-x[i]))
            for _ in range(3):
                dp = -np.sum(a * freq * np.sin(freq * t))
                t -= np.sum(a * np.cos(freq * t)) / dp
            dp = -np.sum(a * freq * np.sin(freq * t))
            assert abs(w[i] / float(2 / dp ** 2) - 1.0) <= 1e-13

    @pytest.mark.parametrize("m", [4096, 16384])
    def test_even_moments(self, m):
        x, w = measure._gauss_legendre(m)
        for j in range(9):
            assert abs(np.sum(w * x ** (2 * j)) - 2.0 / (2 * j + 1)) <= 1e-15


class TestIntegerCount:
    @pytest.mark.parametrize("build", [circle_lebesgue, interval_lebesgue, arcsine])
    @pytest.mark.parametrize("m", [2.5, float("nan"), 4.0, True, False, "8", None])
    def test_non_integer_rejected(self, build, m):
        with pytest.raises(ValueError, match="m must be an integer"):
            build(m)

    @pytest.mark.parametrize("build", [circle_lebesgue, interval_lebesgue, arcsine])
    def test_numpy_integers_accepted(self, build):
        assert len(build(np.int64(5))) == 5
