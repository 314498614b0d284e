import json

import numpy as np
import pytest

from cdlab import (
    OrthonormalBasis,
    QuadratureMeasure,
    RankDeficientError,
    WeightedSpace,
    arcsine,
    circle_lebesgue,
    evaluate_basis,
    from_points,
    interval_lebesgue,
    kernel_table,
    orthonormalize,
    scale_by,
)
from cdlab._backend import eval_recurrence
from cdlab.basis import _arnoldi, _szego

SQRT_HALF = 0.7071067811865476      # 1/sqrt(2), hand Gram-Schmidt on {1, x}
SQRT_3_OVER_2 = 1.224744871391589   # sqrt(3/2)


def ortho_residual(basis, mu):
    phi = evaluate_basis(basis, mu.nodes)
    gram = (phi.conj().T * mu.weights) @ phi
    return np.max(np.abs(gram - np.eye(basis.dimension)))


def node_defect(q):
    return np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1])))


def max_relative_gap(got, ref):
    return float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))


def weighted_vandermonde(mu, d):
    """sqrt(w_a) * z_a^j, j = 0..d: the monomial route's factor."""
    return np.sqrt(mu.weights)[:, None] * mu.nodes[:, None] ** np.arange(d + 1)


def off_node_circle(radius, count=307):
    return radius * np.exp(2j * np.pi * (np.arange(count) + 0.3) / count)


class TestOrthonormalize:
    def test_circle_coeffs_are_identity(self):
        # the orthonormal polynomials of the normalized circle measure are
        # the monomials z^j themselves
        d = 255
        bs = orthonormalize(circle_lebesgue(4 * (d + 1)), WeightedSpace(d, tensor_power=d + 1))
        pts = off_node_circle(1.0)
        assert max_relative_gap(evaluate_basis(bs, pts), pts[:, None] ** np.arange(d + 1)) <= 1e-12

    def test_interval_degree_one_coeffs(self):
        bs = orthonormalize(interval_lebesgue(32), WeightedSpace(1))
        pts = np.linspace(-1.0, 1.0, 5)
        np.testing.assert_allclose(
            evaluate_basis(bs, pts), np.column_stack([np.full(5, SQRT_HALF), SQRT_3_OVER_2 * pts]),
            rtol=0, atol=1e-14)

    def test_single_atom_is_rank_deficient(self):
        mu = from_points([1.0], [1.0])
        with pytest.raises(RankDeficientError):
            orthonormalize(mu, WeightedSpace(1))

    def test_duplicate_atoms_are_rank_deficient(self):
        mu = from_points([1.0, 1.0, 1.0], [0.3, 0.3, 0.4])
        with pytest.raises(RankDeficientError):
            orthonormalize(mu, WeightedSpace(2))

    def test_leading_coefficients_positive_and_triangular(self):
        # p_j has degree j and leading coefficient 1 / (h0 * H[1,0] ... H[j,j-1]):
        # positive when the constant's norm and the subdiagonal are
        bs = orthonormalize(interval_lebesgue(64), WeightedSpace(9))
        sub = np.diag(bs.hessenberg, -1)
        assert np.all(sub.imag == 0)
        assert np.all(sub.real > 0)
        assert bs.const_norm > 0
        assert np.all(np.tril(bs.hessenberg, -2) == 0)

    def test_basis_independent_of_tensor_power_without_weight(self):
        mu = interval_lebesgue(32)
        b1 = orthonormalize(mu, WeightedSpace(6, tensor_power=1))
        b7 = orthonormalize(mu, WeightedSpace(6, tensor_power=7))
        np.testing.assert_allclose(b1.hessenberg, b7.hessenberg, rtol=1e-14)
        np.testing.assert_allclose(b1.node_values, b7.node_values, rtol=1e-14)


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

    @pytest.mark.parametrize("d", [8, 63, 255])
    def test_interval_basis_is_scaled_legendre(self, d):
        # orthonormal for dx on [-1, 1]: sqrt((2j+1)/2) * P_j, checked off the nodes
        bs = orthonormalize(interval_lebesgue(4 * (d + 1)), WeightedSpace(d))
        x = np.linspace(-1.0, 1.0, 301)
        ref = np.polynomial.legendre.legvander(x, d) * np.sqrt(np.arange(0.5, d + 1))
        assert max_relative_gap(evaluate_basis(bs, x), ref) <= 1e-12

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


def random_disk_measure(m=64):
    rng = np.random.default_rng(1)
    nodes = np.sqrt(rng.uniform(0.0, 1.0, m)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, m))
    return from_points(nodes, rng.uniform(0.5, 1.5, m))


class TestRouteIndependence:
    @pytest.mark.parametrize("make_mu,d", [
        (lambda: circle_lebesgue(64), 10),
        (lambda: interval_lebesgue(64), 10),
        (random_disk_measure, 10),      # full Arnoldi
    ])
    def test_kernel_values_match_between_routes(self, make_mu, d):
        # against the projector onto the weighted Vandermonde's range, from
        # numpy's Householder QR: K = W^{-1/2} Q Q* W^{-1/2}
        mu = make_mu()
        table = kernel_table(orthonormalize(mu, WeightedSpace(d)), mu)
        q, _ = np.linalg.qr(weighted_vandermonde(mu, d))
        sw = np.sqrt(mu.weights)
        ref = (q @ q.conj().T) / np.outer(sw, sw)
        assert np.max(np.abs(table.values - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestHighDegreeStability:
    def test_interval_degree_127_stays_orthonormal(self):
        # the monomial Gram matrix is numerically singular here; the basis
        # must still evaluate to an orthonormal family on the nodes
        mu = interval_lebesgue(512)
        bs = orthonormalize(mu, WeightedSpace(127, tensor_power=128))
        # cond(V*V) = cond(V)^2 > 1e8
        assert np.linalg.cond(weighted_vandermonde(mu, 127)) > 1e4
        assert ortho_residual(bs, mu) <= 1e-12

    def test_small_support_degree_100_builds(self):
        # the monomial coefficients overflow on a support of width 2e-3, but
        # the recurrence does not need them: the build must succeed
        ref = interval_lebesgue(512)
        mu = from_points(1e-3 * ref.nodes, ref.weights)
        bs = orthonormalize(mu, WeightedSpace(100))
        q = bs.node_values
        assert np.max(np.abs(q.conj().T @ q - np.eye(101))) <= 1e-13
        assert np.linalg.cond(weighted_vandermonde(mu, 100)) > 1e16
        # the saved recurrence stays finite, so the document is standard JSON
        assert set(bs.to_dict()) == {"degree_bound", "tensor_power", "const_norm", "hessenberg"}

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        json.loads(bs.to_json(), parse_constant=reject)

    def test_recurrence_matches_legendre_coefficients(self):
        mu = interval_lebesgue(512)
        bs = orthonormalize(mu, WeightedSpace(63, tensor_power=64))
        sub = np.real(np.diag(bs.hessenberg, -1))
        i = np.arange(1, 64)
        np.testing.assert_allclose(sub, i / np.sqrt(4.0 * i * i - 1), atol=1e-13)


# (measure for m nodes, metric weight); each runs a structured route
STRUCTURED_CASES = {
    "interval": (interval_lebesgue, None),
    "arcsine": (arcsine, None),
    "tilted-interval": (lambda m: scale_by(interval_lebesgue(m), lambda z: 2.0 * z.real), None),
    "circle": (circle_lebesgue, None),
    "tilted-circle": (lambda m: scale_by(circle_lebesgue(m), lambda z: np.cos(np.angle(z) - 0.4)),
                      None),
    "circle-metric-weight": (circle_lebesgue, lambda z: 0.25 * z.imag + 0.1 * z.real ** 2),
}


def structured_setup(case, d):
    make_mu, weight = STRUCTURED_CASES[case]
    mu = make_mu(4 * (d + 1))
    space = WeightedSpace(d, metric_weight=weight)
    return mu, space, np.sqrt(mu.weights) * space.weight_scale(mu.nodes)


class TestStructuredRoutes:
    @pytest.mark.parametrize("d", [15, 63, 255])
    @pytest.mark.parametrize("case", sorted(STRUCTURED_CASES))
    def test_matches_full_arnoldi(self, case, d):
        mu, space, row_scale = structured_setup(case, d)
        n = space.dimension
        bs = orthonormalize(mu, space)
        q, hess, h0 = _arnoldi(mu.nodes, row_scale, n, window=None)
        np.testing.assert_allclose(bs.node_values, q, rtol=0, atol=1e-12)
        np.testing.assert_allclose(bs.hessenberg, hess, rtol=0, atol=1e-12)
        assert bs.const_norm == pytest.approx(h0, rel=1e-14)
        # the structured route's result was kept, not the full fallback
        if mu.support_tag == "circle":
            _, route_hess, _, _ = _szego(mu.nodes, row_scale, n)
        else:
            _, route_hess, _ = _arnoldi(mu.nodes, row_scale, n, window=2)
        np.testing.assert_array_equal(bs.hessenberg, route_hess)

    @pytest.mark.parametrize("make_mu", [interval_lebesgue, arcsine])
    def test_gauss_rule_bases_are_exactly_tridiagonal(self, make_mu):
        bs = orthonormalize(make_mu(256), WeightedSpace(63, tensor_power=64))
        assert np.all(np.triu(bs.hessenberg, 2) == 0)

    def test_lanczos_loss_of_orthogonality_falls_back(self):
        rng = np.random.default_rng(0)
        mu = from_points(rng.uniform(-1.0, 1.0, 128), rng.uniform(0.5, 1.5, 128))
        q, _, _ = _arnoldi(mu.nodes, np.sqrt(mu.weights), 115, window=2)
        assert node_defect(q) > 1e-3
        assert node_defect(orthonormalize(mu, WeightedSpace(114)).node_values) <= 1e-14

    def test_szego_off_the_circle_falls_back(self):
        # nodes 1e-13 off the circle pass the circle tag's check, but z is
        # no longer an isometry and the Szego columns drift apart
        ref = circle_lebesgue(64)
        radial = 1.0 + 1e-13 * np.where(np.arange(64) % 2 == 0, 1.0, -1.0)
        mu = QuadratureMeasure(ref.nodes * radial, ref.weights, exactness=0,
                               support_tag="circle")
        q, _, _, _ = _szego(mu.nodes, np.sqrt(mu.weights), 41)
        assert node_defect(q) > 1e-13
        assert node_defect(orthonormalize(mu, WeightedSpace(40)).node_values) <= 1e-14

    def test_circle_breakdown_is_rank_deficient(self):
        # 8 roots of unity support degree 7 at most: z^8 == 1 on the nodes
        mu = circle_lebesgue(8)
        with pytest.raises(RankDeficientError):
            _szego(mu.nodes, np.sqrt(mu.weights), 9)
        with pytest.raises(RankDeficientError):
            orthonormalize(mu, WeightedSpace(8))


def eval_recurrence_reference(z, scale, const_norm, hess):
    """The recurrence with every sum over the whole column of H."""
    n = hess.shape[0]
    out = np.empty((z.shape[0], n), dtype=np.complex128, order="F")
    out[:, 0] = 1.0 / const_norm
    for j in range(n - 1):
        v = z * out[:, j] - out[:, : j + 1] @ hess[: j + 1, j]
        out[:, j + 1] = v / hess[j + 1, j]
    return out * scale[:, None]


class TestBandedEvaluation:
    @pytest.mark.parametrize("case", ["interval", "tilted-circle"])
    def test_equals_full_evaluation(self, case):
        mu, space, _ = structured_setup(case, 63)
        bs = orthonormalize(mu, space)
        if case == "interval":
            pts = np.linspace(-1.0, 1.0, 301).astype(complex)
        else:
            pts = 1.05 * np.exp(2j * np.pi * np.arange(301) / 301)
        scale = space.weight_scale(pts)
        np.testing.assert_array_equal(
            eval_recurrence(pts, scale, bs.const_norm, bs.hessenberg),
            eval_recurrence_reference(pts, scale, bs.const_norm, bs.hessenberg))


CIRCLE_CASES = ["circle", "circle-metric-weight", "tilted-circle"]


class TestSzegoEvaluation:
    @pytest.mark.parametrize("radius", [0.5, 1.0, 1.1])
    @pytest.mark.parametrize("d", [15, 63, 255])
    @pytest.mark.parametrize("case", CIRCLE_CASES)
    def test_equals_hessenberg_evaluation(self, case, d, radius):
        mu, space, _ = structured_setup(case, d)
        bs = orthonormalize(mu, space)
        assert bs.szego_c.shape == (d,)
        pts = off_node_circle(radius)
        ref = eval_recurrence_reference(pts, space.weight_scale(pts), bs.const_norm,
                                        bs.hessenberg)
        assert max_relative_gap(evaluate_basis(bs, pts), ref) <= 1e-12

    @pytest.mark.parametrize("case", CIRCLE_CASES)
    def test_reproduces_node_values(self, case):
        mu, space, _ = structured_setup(case, 63)
        bs = orthonormalize(mu, space)
        assert bs.szego_c is not None
        np.testing.assert_allclose(evaluate_basis(bs, mu.nodes),
                                   bs.node_values / np.sqrt(mu.weights)[:, None],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", ["circle", "tilted-circle"])
    def test_json_round_trip_evaluates_the_same(self, case):
        # the JSON document holds H only, so the loaded basis runs the
        # Hessenberg recurrence
        mu, space, _ = structured_setup(case, 63)
        bs = orthonormalize(mu, space)
        back = OrthonormalBasis.from_json(bs.to_json())
        assert back.szego_c is None
        assert back.basis_id == bs.basis_id
        pts = off_node_circle(1.1)
        assert max_relative_gap(evaluate_basis(bs, pts), evaluate_basis(back, pts)) <= 1e-12

    def test_other_routes_keep_no_szego_coefficients(self):
        assert orthonormalize(interval_lebesgue(64), WeightedSpace(15)).szego_c is None
        # nodes 1e-13 off the circle: the certificate rejects Szego, full
        # Arnoldi builds the basis
        ref = circle_lebesgue(64)
        radial = 1.0 + 1e-13 * np.where(np.arange(64) % 2 == 0, 1.0, -1.0)
        mu = QuadratureMeasure(ref.nodes * radial, ref.weights, exactness=0,
                               support_tag="circle")
        assert orthonormalize(mu, WeightedSpace(40)).szego_c is None


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
        np.testing.assert_array_equal(back.hessenberg, bs.hessenberg)
        assert back.const_norm == bs.const_norm
        pts = np.linspace(-0.8, 0.8, 9).astype(complex)
        np.testing.assert_allclose(evaluate_basis(back, pts),
                                   evaluate_basis(bs, pts), atol=1e-14)

    def test_document_with_coeffs_still_loads(self):
        # earlier versions also saved the monomial coefficients and the
        # Gram condition; loading reads the recurrence and ignores both
        doc = (
            '{"degree_bound": 2, "tensor_power": 3, "gram_condition": 14.129224708315988, '
            '"coeffs": [[0.7071067811865475, 0.0], [0.0, 0.0], [0.0, 0.0], '
            '[1.274756208291111e-17, 0.0], [1.224744871391589, 0.0], [0.0, 0.0], '
            '[-0.7905694150420949, 0.0], [8.228515941976646e-18, 0.0], [2.3717082451262845, 0.0]], '
            '"hessenberg": [[-1.0408340855860843e-17, 0.0], [0.5773502691896257, 0.0], [0.0, 0.0], '
            '[0.5773502691896257, 0.0], [6.938893903907228e-18, 0.0], [0.0, 0.0], '
            '[0.0, 0.0], [0.5163977794943222, 0.0], [0.0, 0.0]], '
            '"const_norm": 1.4142135623730951}')
        back = OrthonormalBasis.from_json(doc)
        bs = orthonormalize(interval_lebesgue(16), WeightedSpace(2, tensor_power=3))
        pts = np.linspace(-0.9, 0.9, 7).astype(complex)
        np.testing.assert_array_equal(evaluate_basis(back, pts), evaluate_basis(bs, pts))
        # the document's own coefficients, C[i, j] of z^j in p_i, by Horner
        coeffs = np.array([complex(re, im) for re, im in json.loads(doc)["coeffs"]]).reshape(3, 3)
        horner = np.zeros((pts.size, 3), dtype=complex)
        for j in range(2, -1, -1):
            horner = horner * pts[:, None] + coeffs[:, j]
        np.testing.assert_allclose(evaluate_basis(back, pts), horner, rtol=0, atol=1e-15)


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
