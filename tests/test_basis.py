import numpy as np
import pytest

from cdlab import (
    OrthonormalBasis,
    RankDeficientError,
    WeightedSpace,
    arcsine,
    circle_lebesgue,
    evaluate_basis,
    evaluate_basis_horner,
    from_points,
    gram_matrix,
    interval_lebesgue,
    kernel_table,
    orthonormalize,
)

SQRT_HALF = 0.7071067811865476      # 1/sqrt(2), hand Gram-Schmidt on {1, x}
SQRT_3_OVER_2 = 1.224744871391589   # sqrt(3/2)


def ortho_residual(basis, mu):
    phi = evaluate_basis(basis, mu.nodes)
    gram = (phi.conj().T * mu.weights) @ phi
    return np.max(np.abs(gram - np.eye(basis.dimension)))


class TestGramMatrix:
    def test_circle_monomials_identity(self):
        g = gram_matrix(circle_lebesgue(64), WeightedSpace(7))
        np.testing.assert_allclose(g, np.eye(8), atol=1e-13)

    def test_constant_metric_weight_scales(self):
        mu = interval_lebesgue(24)
        plain = gram_matrix(mu, WeightedSpace(5, tensor_power=2))
        tilted = gram_matrix(
            mu, WeightedSpace(5, tensor_power=2,
                              metric_weight=lambda z: np.full(z.shape, 0.3)))
        np.testing.assert_allclose(tilted, np.exp(-2 * 2 * 0.3) * plain, atol=1e-13)

    def test_interval_degree_one_moments(self):
        g = gram_matrix(interval_lebesgue(16), WeightedSpace(1))
        np.testing.assert_allclose(g, [[2.0, 0.0], [0.0, 2.0 / 3.0]], atol=1e-14)


class TestOrthonormalize:
    def test_circle_coeffs_are_identity(self):
        bs = orthonormalize(circle_lebesgue(256), WeightedSpace(15, tensor_power=16))
        np.testing.assert_allclose(bs.coeffs, np.eye(16), atol=1e-12)

    def test_interval_degree_one_coeffs(self):
        bs = orthonormalize(interval_lebesgue(32), WeightedSpace(1))
        np.testing.assert_allclose(
            bs.coeffs, [[SQRT_HALF, 0.0], [0.0, SQRT_3_OVER_2]], atol=1e-14)

    @pytest.mark.parametrize("method", ["arnoldi", "cholesky"])
    def test_single_atom_is_rank_deficient(self, method):
        mu = from_points([1.0], [1.0])
        with pytest.raises(RankDeficientError):
            orthonormalize(mu, WeightedSpace(1), method=method)

    def test_duplicate_atoms_are_rank_deficient(self):
        mu = from_points([1.0, 1.0, 1.0], [0.3, 0.3, 0.4])
        with pytest.raises(RankDeficientError):
            orthonormalize(mu, WeightedSpace(2))

    def test_leading_coefficients_positive_and_triangular(self):
        bs = orthonormalize(interval_lebesgue(64), WeightedSpace(9))
        c = bs.coeffs
        assert np.all(np.diag(c).real > 0)
        assert np.max(np.abs(np.diag(c).imag)) <= 1e-14
        assert np.max(np.abs(np.triu(c, 1))) <= 1e-12 * np.max(np.abs(c))

    def test_basis_independent_of_tensor_power_without_weight(self):
        mu = interval_lebesgue(32)
        b1 = orthonormalize(mu, WeightedSpace(6, tensor_power=1))
        b7 = orthonormalize(mu, WeightedSpace(6, tensor_power=7))
        np.testing.assert_allclose(b1.coeffs, b7.coeffs, rtol=1e-14)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            orthonormalize(circle_lebesgue(8), WeightedSpace(1), method="qr3")


class TestEvaluate:
    def test_circle_basis_at_one(self):
        bs = orthonormalize(circle_lebesgue(64), WeightedSpace(3, tensor_power=4))
        row = evaluate_basis(bs, [1.0 + 0j])[0]
        np.testing.assert_allclose(row, np.ones(4), atol=1e-13)

    def test_legendre_odd_entry_vanishes_at_zero(self):
        bs = orthonormalize(interval_lebesgue(32), WeightedSpace(3))
        row = evaluate_basis(bs, [0.0 + 0j])[0]
        assert abs(row[1]) <= 1e-14
        assert abs(row[3]) <= 1e-14

    @pytest.mark.parametrize("make_mu,d", [
        (lambda: circle_lebesgue(257), 30),
        (lambda: interval_lebesgue(128), 25),
        (lambda: arcsine(96), 20),
    ])
    def test_orthonormality_on_defining_quadrature(self, make_mu, d):
        mu = make_mu()
        bs = orthonormalize(mu, WeightedSpace(d))
        assert ortho_residual(bs, mu) <= 1e-8

    def test_horner_agrees_with_recurrence_at_low_degree(self):
        mu = interval_lebesgue(48)
        bs = orthonormalize(mu, WeightedSpace(8))
        pts = np.linspace(-0.95, 0.95, 17).astype(complex)
        np.testing.assert_allclose(evaluate_basis_horner(bs, pts),
                                   evaluate_basis(bs, pts), atol=1e-10)

    def test_metric_weight_enters_evaluation(self):
        mu = circle_lebesgue(64)
        space = WeightedSpace(3, tensor_power=2,
                              metric_weight=lambda z: np.full(z.shape, 0.5))
        bs = orthonormalize(mu, space)
        plain = orthonormalize(circle_lebesgue(64), WeightedSpace(3, tensor_power=2))
        pts = np.exp(1j * np.array([0.3, 2.1]))
        # constant weight: values differ by the global factor e^{-k*phi},
        # compensated inside the coefficients by the reciprocal
        ratio = evaluate_basis(bs, pts) / evaluate_basis(plain, pts)
        np.testing.assert_allclose(ratio, np.ones_like(ratio), rtol=1e-12)


class TestRouteIndependence:
    @pytest.mark.parametrize("make_mu,d", [
        (lambda: circle_lebesgue(64), 10),
        (lambda: interval_lebesgue(64), 10),
    ])
    def test_kernel_values_match_between_routes(self, make_mu, d):
        mu = make_mu()
        k_arn = kernel_table(orthonormalize(mu, WeightedSpace(d), method="arnoldi"), mu)
        k_chl = kernel_table(orthonormalize(mu, WeightedSpace(d), method="cholesky"), mu)
        np.testing.assert_allclose(k_arn.values, k_chl.values, atol=1e-9)


class TestHighDegreeStability:
    def test_interval_degree_127_stays_orthonormal(self):
        # the monomial Gram matrix is numerically singular here; the basis
        # must still evaluate to an orthonormal family on the nodes
        mu = interval_lebesgue(512)
        bs = orthonormalize(mu, WeightedSpace(127, tensor_power=128))
        assert bs.gram_condition > 1e8
        assert ortho_residual(bs, mu) <= 1e-12

    def test_small_support_degree_100_builds(self):
        # the monomial coefficients overflow on a support of width 2e-3, but
        # the recurrence does not need them: the build must succeed
        ref = interval_lebesgue(512)
        mu = from_points(1e-3 * ref.nodes, ref.weights)
        bs = orthonormalize(mu, WeightedSpace(100))
        q = bs.node_values
        assert np.max(np.abs(q.conj().T @ q - np.eye(101))) <= 1e-13
        with np.errstate(over="ignore", invalid="ignore"):
            assert bs.gram_condition == np.inf

    def test_recurrence_matches_legendre_coefficients(self):
        mu = interval_lebesgue(512)
        bs = orthonormalize(mu, WeightedSpace(63, tensor_power=64))
        sub = np.real(np.diag(bs.hessenberg, -1))
        i = np.arange(1, 64)
        np.testing.assert_allclose(sub, i / np.sqrt(4.0 * i * i - 1), atol=1e-13)


class TestJson:
    def test_deserialized_basis_builds_kernel_table(self):
        mu = circle_lebesgue(32)
        bs = orthonormalize(mu, WeightedSpace(4, tensor_power=5))
        back = OrthonormalBasis.from_json(bs.to_json())
        table = kernel_table(back, mu)
        np.testing.assert_allclose(table.diag, 5.0, atol=1e-12)

    def test_round_trip_preserves_evaluation(self):
        mu = interval_lebesgue(48)
        bs = orthonormalize(mu, WeightedSpace(6, tensor_power=3))
        back = OrthonormalBasis.from_json(bs.to_json())
        assert back.space.degree_bound == 6
        assert back.space.tensor_power == 3
        assert back.gram_condition == pytest.approx(bs.gram_condition)
        pts = np.linspace(-0.8, 0.8, 9).astype(complex)
        np.testing.assert_allclose(evaluate_basis(back, pts),
                                   evaluate_basis(bs, pts), atol=1e-14)


class TestWeightedSpaceValidation:
    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            WeightedSpace(-1)

    def test_zero_tensor_power_rejected(self):
        with pytest.raises(ValueError):
            WeightedSpace(2, tensor_power=0)

    def test_nonfinite_weight_rejected(self):
        mu = circle_lebesgue(8)
        space = WeightedSpace(2, metric_weight=lambda z: np.where(z.real > 0, np.inf, 0.0))
        with pytest.raises(ValueError):
            orthonormalize(mu, space)
