import dataclasses
import tracemalloc

import numpy as np
import pytest

from cdlab import (
    NotHermitianError,
    QuadratureMeasure,
    WeightedSpace,
    algebra_defect,
    arcsine,
    circle_lebesgue,
    compose,
    defect_kernel_bound,
    diagonal_density,
    evaluate_basis,
    from_points,
    functional_calculus,
    interval_lebesgue,
    kernel_table,
    legendre_toeplitz,
    operator,
    operator_norm,
    orthonormalize,
    scale_by,
    schatten_norm,
    spectral_statistic,
    spectrum,
    symbol_distance,
    symbols,
    toeplitz,
)
from cdlab.basis import operator_rows, weighted_rows
from cdlab.operator import ToeplitzMatrix
from cdlab.symbols import (PolynomialSymbol, resolve_symbol, spectral_abs, spectral_cube,
                           spectral_identity, spectral_square, sym_cos, sym_one,
                           sym_sin, sym_x, sym_x2)
from recurrence_forms import cmv_rows, hessenberg


def circle_basis(k, m=None):
    mu = circle_lebesgue(m or max(4 * k, 256))
    return mu, orthonormalize(mu, WeightedSpace(k - 1, tensor_power=k))


def interval_basis(k, m=None):
    mu = interval_lebesgue(m or max(4 * k, 256))
    return mu, orthonormalize(mu, WeightedSpace(k - 1, tensor_power=k))


def jacobi_offdiag(k):
    i = np.arange(1, k)
    return i / np.sqrt(4.0 * i * i - 1.0)


def charpoly_singular_values(mat):
    """Independent small-n oracle: singular values from the characteristic
    polynomial of A A^*, built by the trace (Faddeev-LeVerrier) recursion.
    """
    gram = mat @ mat.conj().T
    n = gram.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    work = np.eye(n, dtype=complex)
    for j in range(1, n + 1):
        work = gram @ work
        coeffs[j] = -np.trace(work) / j
        work += coeffs[j] * np.eye(n)
    eig = np.roots(coeffs)
    return np.sort(np.sqrt(np.clip(eig.real, 0.0, None)))[::-1]


class TestToeplitzAssembly:
    @pytest.mark.parametrize("make", [circle_basis, interval_basis])
    def test_unit_symbol_gives_identity(self, make):
        mu, bs = make(12)
        t = toeplitz(bs, mu, sym_one)
        np.testing.assert_allclose(t.entries, np.eye(12), atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 7, 8])
    def test_circle_cosine_is_the_cmv_shift(self, k):
        # the CMV functions of the roots of unity are 1, z, 1/z, z^2, 1/z^2,
        # ...: z sends chi_0 to chi_1, chi_j to chi_{j+2} for odd j and to
        # chi_{j-2} for even j >= 2, so T(cos) = (S + S^T)/2 with S that shift
        mu, bs = circle_basis(k)
        t = toeplitz(bs, mu, sym_cos)
        shift = np.zeros((k + 2, k + 2))
        shift[1, 0] = 1.0
        for j in range(1, k):
            shift[j + 2 if j % 2 else j - 2, j] = 1.0
        shift = shift[:k, :k]
        np.testing.assert_allclose(t.entries, 0.5 * (shift + shift.T), atol=1e-12)

    def test_interval_coordinate_gives_jacobi_matrix(self):
        k = 10
        mu, bs = interval_basis(k)
        t = toeplitz(bs, mu, sym_x)
        b = jacobi_offdiag(k)
        want = np.diag(b, 1) + np.diag(b, -1)
        np.testing.assert_allclose(t.entries, want, atol=1e-12)

    def test_linearity(self):
        mu, bs = circle_basis(6)
        t_mix = toeplitz(bs, mu, lambda z: 2.0 * sym_cos(z) - 3.0 * sym_sin(z))
        want = 2.0 * toeplitz(bs, mu, sym_cos).entries \
            - 3.0 * toeplitz(bs, mu, sym_sin).entries
        np.testing.assert_allclose(t_mix.entries, want, atol=1e-12)

    def test_nonnegative_symbol_gives_nonnegative_operator(self):
        mu, bs = interval_basis(9)
        t = toeplitz(bs, mu, sym_x2)
        assert spectrum(t).eigenvalues[0] >= -1e-10

    def test_trace_formula_matches_density_integral(self):
        k = 11
        mu, bs = interval_basis(k)
        t = toeplitz(bs, mu, sym_x2)
        lhs = float(np.trace(t.entries).real) / k
        dens = diagonal_density(kernel_table(bs, mu), mu)
        rhs = float(sym_x2(mu.nodes) @ dens)
        assert abs(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("tilt", [None, lambda z: 2.0 * z.real], ids=["plain", "tilted"])
    def test_real_interval_product_matches_complex_product(self, tilt):
        mu = interval_lebesgue(256)
        if tilt is not None:
            mu = scale_by(mu, tilt)
        bs = orthonormalize(mu, WeightedSpace(63, tensor_power=64))
        fvals = sym_x2(mu.nodes)
        phi = bs.node_values
        raw = phi.conj().T @ (fvals[:, None] * phi)
        t = toeplitz(bs, mu, sym_x2)
        np.testing.assert_allclose(t.entries, 0.5 * (raw + raw.conj().T), rtol=0, atol=1e-14)

    def test_same_nodes_other_weights_use_those_weights(self):
        # a measure with the basis's nodes but other weights is not the
        # basis's measure: T(1) is the Gram matrix in the new weights, not I
        mu = circle_lebesgue(64)
        bs = orthonormalize(mu, WeightedSpace(7))
        mu2 = scale_by(mu, lambda z: np.cos(np.angle(z)))
        phi = bs.node_values / np.sqrt(mu.weights)[:, None]
        want = phi.conj().T @ (mu2.weights[:, None] * phi)
        t = toeplitz(bs, mu2, sym_one)
        np.testing.assert_allclose(t.entries, want, rtol=0, atol=1e-13)
        assert np.max(np.abs(t.entries - np.eye(8))) > 0.1
        assert bs.defined_on(mu) and not bs.defined_on(mu2)

    def test_nan_symbol_rejected(self):
        mu, bs = circle_basis(4)
        with pytest.raises(ValueError):
            toeplitz(bs, mu, lambda z: np.full(z.shape, np.nan))


class TestLegendreToeplitz:
    def test_unit_symbol_gives_identity(self):
        t = legendre_toeplitz(sym_one, 6)
        np.testing.assert_allclose(t.entries, np.eye(6), atol=1e-12)

    def test_coordinate_matches_jacobi(self):
        k = 12
        t = legendre_toeplitz(sym_x, k)
        b = jacobi_offdiag(k)
        np.testing.assert_allclose(t.entries, np.diag(b, 1) + np.diag(b, -1),
                                   atol=1e-12)

    def test_square_symbol_2x2_closed_form(self):
        # a_00 = int x^2/2 = 1/3, a_11 = (3/2) int x^4 = 3/5, a_01 = 0
        t = legendre_toeplitz(sym_x2, 2)
        np.testing.assert_allclose(t.entries, [[1.0 / 3.0, 0.0], [0.0, 3.0 / 5.0]],
                                   atol=1e-14)

    def test_agrees_with_dense_legendre_quadrature(self):
        # an independent dense route: Legendre values from legvander on
        # leggauss nodes, normalized, and the m x k product
        k = 9
        x, w = np.polynomial.legendre.leggauss(4 * k)
        leg = np.polynomial.legendre.legvander(x, k - 1) * np.sqrt(np.arange(k) + 0.5)
        want = leg.T @ ((w * x * x)[:, None] * leg)
        np.testing.assert_allclose(legendre_toeplitz(sym_x2, k).entries, want, atol=1e-10)

    # the recurrence gives T(1) = I exactly and T(x) = J to rounding; a dense
    # product of Legendre values misses both by ~1e-13 at k = 1024
    def test_exact_at_large_k(self):
        k = 1024
        assert np.array_equal(legendre_toeplitz(sym_one, k).entries, np.eye(k))
        b = jacobi_offdiag(k)
        err = np.max(np.abs(legendre_toeplitz(sym_x, k).entries - np.diag(b, 1) - np.diag(b, -1)))
        assert err <= 1e-14

    def test_composes_with_toeplitz_on_the_same_space(self):
        k = 6
        mu, bs = interval_basis(k, m=4 * k)
        t_leg = legendre_toeplitz(sym_x, k)
        assert t_leg.basis_id == bs.basis_id
        np.testing.assert_allclose(compose(t_leg, toeplitz(bs, mu, sym_x)),
                                   t_leg.entries @ t_leg.entries, rtol=0, atol=1e-15)

    # a complex symbol lost its imaginary part, and a scalar was broadcast
    @pytest.mark.parametrize("f, message", [
        (lambda z: z.real + 1j, "symbol must be real at every point"),
        (lambda z: 2.0, "symbol must return one value per point"),
    ], ids=["complex", "scalar"])
    def test_bad_symbol_rejected(self, f, message):
        with pytest.raises(ValueError, match=message):
            legendre_toeplitz(f, 3)

    def test_entries_match_independent_quadrature_oracle(self):
        k = 6
        x, w = np.polynomial.legendre.leggauss(4 * k)
        t = legendre_toeplitz(sym_x, k)
        for i in range(k):
            for j in range(k):
                li = np.polynomial.legendre.legval(x, np.eye(k)[i]) \
                    * np.sqrt((2 * i + 1) / 2)
                lj = np.polynomial.legendre.legval(x, np.eye(k)[j]) \
                    * np.sqrt((2 * j + 1) / 2)
                want = np.sum(w * x * li * lj)
                assert abs(t.entries[i, j] - want) <= 1e-12

    def test_small_quadrature_rejected(self):
        with pytest.raises(ValueError):
            legendre_toeplitz(sym_x, 8, m=4)

    # 2.5 raised TypeError inside numpy, NaN "arange: cannot compute length"
    @pytest.mark.parametrize("m", [2.5, float("nan"), True, 0])
    def test_non_integer_quadrature_rejected(self, m):
        with pytest.raises(ValueError, match="m must be an integer >= 1"):
            legendre_toeplitz(sym_x, 1, m=m)

    # k=0 raised ZeroDivisionError, k=-1 blamed the quadrature order m=-4
    @pytest.mark.parametrize("k", [0, -1])
    def test_nonpositive_k_rejected(self, k):
        with pytest.raises(ValueError, match=f"k must be an integer >= 1, got {k}"):
            legendre_toeplitz(sym_x, k)


class TestCompose:
    def test_identity_is_neutral(self):
        mu, bs = circle_basis(5)
        t = toeplitz(bs, mu, sym_cos)
        e = toeplitz(bs, mu, sym_one)
        np.testing.assert_allclose(compose(t, e), t.entries, atol=1e-14)

    def test_adjoint_of_product(self):
        mu, bs = circle_basis(5)
        a = toeplitz(bs, mu, sym_cos)
        b = toeplitz(bs, mu, sym_sin)
        np.testing.assert_allclose(compose(a, b).conj().T,
                                   b.entries.conj().T @ a.entries.conj().T,
                                   atol=1e-12)

    @pytest.mark.parametrize("k", [4, 5])
    def test_cosine_square_defect_is_corner_matrix(self, k):
        # in the CMV basis of the roots of unity, 1, z, 1/z, z^2, ..., cos
        # moves only the last two functions (the highest powers of z and
        # 1/z) out of the space
        mu, bs = circle_basis(k)
        t_cos = toeplitz(bs, mu, sym_cos)
        t_cos2 = toeplitz(bs, mu, lambda z: sym_cos(z) ** 2)
        diff = compose(t_cos, t_cos) - t_cos2.entries
        want = np.zeros((k, k))
        want[k - 2, k - 2] = want[k - 1, k - 1] = -0.25
        np.testing.assert_allclose(diff, want, atol=1e-12)

    def test_mismatched_spaces_rejected(self):
        mu, bs = circle_basis(4)
        t = toeplitz(bs, mu, sym_cos)
        t_other = legendre_toeplitz(sym_x, 4)
        with pytest.raises(ValueError):
            compose(t, t_other)

    @pytest.mark.parametrize("f", [sym_cos, lambda z: np.cos(np.angle(z))],
                             ids=["band", "quadrature"])
    def test_mismatched_frames_rejected(self, f):
        # a Szego basis writes its own measure's operators in its CMV basis,
        # and another measure's in its polynomial basis: the same basis_id,
        # tagged apart
        mu, bs = circle_basis(8)
        mu2 = scale_by(mu, lambda z: 0.5 * np.real(z))
        t, t_other = toeplitz(bs, mu, f), toeplitz(bs, mu2, f)
        assert t.basis_id == bs.basis_id + "-cmv" and t_other.basis_id == bs.basis_id
        with pytest.raises(ValueError, match="different spaces"):
            compose(t, t_other)
        assert compose(t, t).shape == (8, 8)


class TestSchattenNorms:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
    def test_identity_norm_is_one(self, p):
        ident = ToeplitzMatrix(np.eye(6, dtype=complex), "one", 6, "test")
        assert schatten_norm(ident, p) == pytest.approx(1.0)

    def test_rank_one_projector_p1(self):
        n = 8
        mat = np.zeros((n, n), dtype=complex)
        mat[0, 0] = 1.0
        assert schatten_norm(mat, 1) == pytest.approx(1.0 / n)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_matrix_matches_charpoly_oracle(self, seed):
        rng = np.random.default_rng(seed)
        mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        sv = charpoly_singular_values(mat)
        for p in (1.0, 2.0, 3.0):
            want = (np.mean(sv ** p)) ** (1.0 / p)
            assert abs(schatten_norm(mat, p) - want) <= 1e-8

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            schatten_norm(np.eye(3), 0.5)
        # NaN compares false with 1 either way
        with pytest.raises(ValueError, match="p must be >= 1"):
            schatten_norm(np.eye(3), float("nan"))

    @pytest.mark.filterwarnings("error")
    def test_large_p_does_not_overflow(self):
        # 30^300 overflows a double
        want = 30.0 * np.mean([(1 / 3) ** 300, (2 / 3) ** 300, 1.0]) ** (1 / 300)
        assert schatten_norm(np.diag([10.0, 20.0, 30.0]), 300) == pytest.approx(want, rel=1e-14)

    def test_large_p_does_not_underflow(self):
        # 0.25^1000 underflows to zero, as does every sigma^1000 of the
        # default circle defect
        assert schatten_norm(0.25 * np.eye(4), 1000) == pytest.approx(0.25, rel=1e-14)
        mu, bs = circle_basis(16)
        defect = {p: algebra_defect(bs, mu, sym_cos, sym_sin, p) for p in (400, 1000, np.inf)}
        assert 0.0 < defect[400] < defect[1000] <= defect[np.inf]

    def test_infinite_p_is_the_largest_singular_value(self):
        assert schatten_norm(np.diag([10.0, 20.0, 30.0]), np.inf) == 30.0
        rng = np.random.default_rng(4)
        mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        assert schatten_norm(mat, np.inf) == operator_norm(mat)

    @pytest.mark.parametrize("p", [1.0, 3.0, 1000.0, np.inf])
    def test_zero_matrix_gives_zero(self, p):
        assert schatten_norm(np.zeros((5, 5)), p) == 0.0

    @pytest.mark.parametrize("p", [2.0, 3.0, np.inf])
    def test_empty_matrix_rejected(self, p):
        with pytest.raises(ValueError, match="nonempty"):
            schatten_norm(np.zeros((0, 3)), p)

    # a NaN gave nan at p = 2 and LinAlgError at p = 3
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("p", [2.0, 3.0, np.inf])
    def test_nonfinite_entries_rejected(self, p, bad):
        mat = np.eye(4, dtype=complex)
        mat[1, 2] = bad
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            schatten_norm(mat, p)
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            operator_norm(ToeplitzMatrix(mat, "bad", 4, "test"))

    @pytest.mark.parametrize("seed", range(6))
    def test_interpolation_inequality(self, seed):
        rng = np.random.default_rng(seed)
        mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        for p in (1.5, 2.5, 4.0):
            bound = schatten_norm(mat, 2) ** (1.0 / p) \
                * operator_norm(mat) ** ((p - 1.0) / p)
            assert schatten_norm(mat, p) <= bound + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_product_inequality(self, seed):
        rng = np.random.default_rng(100 + seed)
        s = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        t = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        for p in (1.0, 2.0, 3.0):
            assert schatten_norm(s @ t, p) <= operator_norm(s) * schatten_norm(t, p) + 1e-9


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(5)) == pytest.approx(1.0)

    def test_cosine_compression_is_a_contraction(self):
        mu, bs = circle_basis(16)
        t = toeplitz(bs, mu, sym_cos)
        assert operator_norm(t) <= 1.0 + 1e-12


class TestSpectrum:
    def test_identity_spectrum(self):
        ident = ToeplitzMatrix(np.eye(7, dtype=complex), "one", 7, "test")
        np.testing.assert_allclose(spectrum(ident).eigenvalues, np.ones(7))

    @pytest.mark.parametrize("k", [4, 16, 64])
    def test_tridiagonal_closed_form(self, k):
        t = 0.5 * (np.eye(k, k, 1) + np.eye(k, k, -1))
        want = np.sort(np.cos(np.arange(1, k + 1) * np.pi / (k + 1)))
        np.testing.assert_allclose(spectrum(t).eigenvalues, want, atol=1e-10)

    def test_eigenvalue_sum_is_trace(self):
        mu, bs = interval_basis(13)
        t = toeplitz(bs, mu, sym_x2)
        lam = spectrum(t).eigenvalues
        assert abs(lam.sum() - np.trace(t.entries).real) <= 1e-10

    def test_asymmetric_matrix_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NotHermitianError):
            spectrum(bad)


class TestHermitianCheckRejects:
    """Every consumer of the Hermitian check: the eigenvalue routes and the
    trace route of spectral_statistic."""

    CALLS = {
        "spectrum": spectrum,
        "statistic-eigvalsh": lambda a: spectral_statistic(a, np.abs),
        "statistic-trace": lambda a: spectral_statistic(a, spectral_square),
        "functional_calculus": lambda a: functional_calculus(a, np.abs),
    }

    # asym > tol * (1 + max|entry|) is false for a NaN or an inf entry, so
    # finiteness is a check of its own
    @pytest.mark.parametrize("mat", [[[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.inf], [0.0, 1.0]]],
                             ids=["nan", "inf"])
    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_nonfinite_entries(self, call, mat):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            call(np.array(mat))

    # no eigensolver stands behind the trace route to reject these
    @pytest.mark.parametrize("mat", [np.ones((1, 3)), np.ones(3), np.zeros((0, 0))],
                             ids=["row", "vector", "empty"])
    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_not_a_square_matrix(self, call, mat):
        with pytest.raises(ValueError, match="nonempty square matrix"):
            call(mat)


class TestSpectralStatistic:
    def test_constant_function(self):
        mu, bs = circle_basis(6)
        t = toeplitz(bs, mu, sym_sin)
        assert spectral_statistic(t, lambda lam: np.ones_like(lam)) == pytest.approx(1.0)

    @pytest.mark.parametrize("k", [8, 32, 128])
    def test_circle_cosine_square_statistic(self, k):
        mu, bs = circle_basis(k)
        t = toeplitz(bs, mu, sym_cos)
        got = spectral_statistic(t, lambda lam: lam ** 2)
        assert abs(got - (k - 1) / (2.0 * k)) <= 1e-12

    def test_legendre_statistic_approaches_arcsine_moment(self):
        gaps = []
        for k in (8, 16, 32):
            t = legendre_toeplitz(sym_x, k)
            gaps.append(abs(spectral_statistic(t, lambda lam: lam ** 2) - 0.5))
        assert gaps == sorted(gaps, reverse=True)

    def test_polynomial_statistic_agrees_with_power_route(self):
        k = 10
        mu, bs = circle_basis(k)
        t = toeplitz(bs, mu, sym_cos)
        stat = spectral_statistic(t, lambda lam: lam ** 3)
        power = float(np.trace(compose(t, ToeplitzMatrix(
            compose(t, t), t.symbol_desc, t.k, t.basis_id))).real) / k
        assert abs(stat - power) <= 1e-9


class TestFunctionalCalculus:
    def test_identity_function(self):
        mu, bs = interval_basis(8)
        t = toeplitz(bs, mu, sym_x)
        np.testing.assert_allclose(functional_calculus(t, lambda x: x),
                                   t.entries, atol=1e-10)

    def test_square_matches_compose(self):
        mu, bs = circle_basis(9)
        t = toeplitz(bs, mu, sym_cos)
        np.testing.assert_allclose(functional_calculus(t, lambda x: x ** 2),
                                   compose(t, t), atol=1e-9)

    def test_abs_on_signature_matrix(self):
        mat = np.diag([1.0, -1.0]).astype(complex)
        np.testing.assert_allclose(functional_calculus(mat, np.abs),
                                   np.eye(2), atol=1e-14)


class TestAlgebraDefect:
    def test_unit_symbol_has_no_defect(self):
        mu, bs = circle_basis(8)
        assert algebra_defect(bs, mu, sym_one, sym_sin, 2) <= 1e-10

    @pytest.mark.parametrize("k", [16, 32, 64, 256, 1024])
    def test_cosine_defect_closed_form(self, k):
        mu, bs = circle_basis(k)
        got = algebra_defect(bs, mu, sym_cos, sym_cos, 2)
        want = 1.0 / np.sqrt(8.0 * k)
        assert abs(got - want) <= 1e-15 * want

    # on n nodes Q is square and unitary, so T(f) T(g) = T(f g) exactly
    @pytest.mark.parametrize("n", [1, 4, 32])
    @pytest.mark.parametrize("case", ["circle", "interval", "tilted-circle", "points-disk"])
    def test_square_case_has_no_defect(self, case, n):
        bs, mu = recurrence_case(case, n, m=n)
        for f, g in ((sym_cos, sym_sin), (sym_x, sym_x), (sym_cos, sym_cos),
                     (sym_x2, lambda z: np.exp(np.real(z)))):
            assert algebra_defect(bs, mu, f, g, 2) <= 1e-14

    def test_mixed_defect_decreases(self):
        vals = {}
        for k in (16, 64):
            mu, bs = circle_basis(k)
            vals[k] = algebra_defect(bs, mu, sym_cos, sym_sin, 2)
        assert vals[64] < vals[16]


class TestDefectKernelBound:
    def test_constant_second_symbol_gives_zero(self):
        mu, bs = circle_basis(8)
        assert defect_kernel_bound(bs, mu, sym_cos, sym_one) == 0.0

    @pytest.mark.parametrize("k", [8, 16, 32])
    def test_dominates_defect(self, k):
        mu, bs = circle_basis(k)
        defect = algebra_defect(bs, mu, sym_cos, sym_cos, 2)
        bound = defect_kernel_bound(bs, mu, sym_cos, sym_cos)
        assert defect <= bound + 1e-9

    def test_bound_decays_for_mixed_symbols(self):
        vals = {}
        for k in (16, 128):
            mu, bs = circle_basis(k)
            vals[k] = defect_kernel_bound(bs, mu, sym_cos, sym_sin)
        assert vals[128] < vals[16]


class TestSymbolDistance:
    def test_equal_symbols(self):
        mu, bs = circle_basis(8)
        assert symbol_distance(bs, mu, sym_cos, sym_cos) == 0.0

    def test_circle_cosine_distance_approaches_two_over_pi(self):
        gaps = []
        for k in (32, 64, 128):
            mu, bs = circle_basis(k)
            d = symbol_distance(bs, mu, lambda z: sym_sin(z) + sym_cos(z), sym_sin)
            gaps.append(abs(d - 2.0 / np.pi))
        assert gaps == sorted(gaps, reverse=True)

    def test_interval_distance_matches_arcsine_integral(self):
        from cdlab import equilibrium_for, integrate

        k = 128
        mu, bs = interval_basis(k)
        d = symbol_distance(bs, mu, sym_x2, sym_one)
        nu = equilibrium_for(mu)
        want = integrate(nu, lambda x: np.abs(sym_x2(x) - 1.0))
        assert abs(d - want) <= 0.02


class TestSpectralRadiusBounds:
    """The spectrum of T(f) lies in [min f, max f] over the nodes."""

    def test_constant_symbol(self):
        mu, bs = circle_basis(8)
        lam = spectrum(toeplitz(bs, mu, lambda z: np.full(z.shape, 2.5))).eigenvalues
        assert lam[0] == pytest.approx(2.5, abs=1e-10)
        assert lam[-1] == pytest.approx(2.5, abs=1e-10)

    def test_circle_cosine_peak_eigenvalue(self):
        k = 64
        mu, bs = circle_basis(k)
        lam = spectrum(toeplitz(bs, mu, sym_cos)).eigenvalues
        assert 0.99 < lam[-1] <= 1.0
        assert abs(lam[-1] - np.cos(np.pi / (k + 1))) <= 1e-10

    @pytest.mark.parametrize("k", [1, 2, 3, 16, 255, 256])
    def test_circle_cosine_spectrum_closed_form(self, k):
        # T(cos) on the roots of unity is unitarily similar to the free
        # Jacobi matrix (1/2)(S + S^T), whose eigenvalues are cos(pi j/(n+1))
        mu, bs = circle_basis(k)
        lam = spectrum(toeplitz(bs, mu, sym_cos)).eigenvalues
        want = np.sort(np.cos(np.pi * np.arange(1, k + 1) / (k + 1)))
        assert np.max(np.abs(lam - want)) <= 1e-14

    def test_interval_coordinate_confined(self):
        mu, bs = interval_basis(32)
        lam = spectrum(toeplitz(bs, mu, sym_x)).eigenvalues
        x = mu.nodes.real
        assert x.min() - 1e-9 <= lam[0]
        assert lam[-1] <= x.max() + 1e-9


def quadrature_oracle(bs, mu, f, frame="operator"):
    """T(f) as the dense sum Q* F Q, symmetrized, with Q = sqrt(w) Phi the
    weighted basis values on mu's nodes: the cached node values on the
    basis's own measure, the recurrence on any other.  In the operator
    frame a Szego basis on its own measure takes its CMV functions instead,
    as toeplitz does; frame="polynomial" keeps the node values there."""
    if bs.defined_on(mu):
        cmv = frame == "operator" and bs.route == "szego"
        phi = cmv_rows(bs) if cmv else bs.node_values
    else:
        phi = evaluate_basis(bs, mu.nodes) * np.sqrt(mu.weights)[:, None]
    fvals = np.asarray(f(mu.nodes), dtype=complex).real
    raw = phi.conj().T @ (fvals[:, None] * phi)
    return 0.5 * (raw + raw.conj().T)


def max_relative_gap(got, want):
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))


POLY_SPECS = ["one", "cos", "sin", "x", "x2", "const:-1.25", "poly:0.75",
              "poly:0.5,-2", "poly:1,0.5,-3"]


def polynomial_symbols():
    named = {spec: resolve_symbol(spec)[1] for spec in POLY_SPECS}
    named["cos*sin"] = symbols.product(sym_cos, sym_sin)
    named["cos*cos"] = symbols.product(sym_cos, sym_cos)
    named["x*x"] = symbols.product(sym_x, sym_x)
    return named


POISSON_R = 0.5


def recurrence_case(name, n, m=None):
    """(basis, measure) with the basis built on that measure, of m nodes,
    by default max(4 n, 16)."""
    m = m or max(4 * n, 16)
    space = WeightedSpace(n - 1, tensor_power=n)
    if name == "circle":
        mu = circle_lebesgue(m)
    elif name == "interval":
        mu = interval_lebesgue(m)
    elif name == "arcsine":
        mu = arcsine(m)
    elif name == "tilted-circle":
        mu = scale_by(circle_lebesgue(m), lambda z: np.cos(np.angle(z) - 0.4))
    elif name == "poisson-circle":
        mu = scale_by(circle_lebesgue(m), poisson_tilt)
    elif name == "tilted-interval":
        mu = scale_by(interval_lebesgue(m), lambda z: 1.5 * z.real)
    elif name.startswith("points"):
        # random atoms: full Arnoldi (a full H) in the disk, and on [-1, 1]
        # once Lanczos loses orthogonality (n >= 64 here)
        rng = np.random.default_rng(n)
        if name == "points-real":
            nodes = np.sort(rng.uniform(-1.0, 1.0, m))
        else:
            nodes = np.sqrt(rng.uniform(0.0, 1.0, m)) * np.exp(2j * np.pi * rng.uniform(size=m))
        mu = from_points(nodes, rng.uniform(0.5, 1.5, m) / m)
    else:
        kind = name.split("-")[1]
        mu = circle_lebesgue(m) if kind == "circle" else interval_lebesgue(m)
        space = WeightedSpace(n - 1, tensor_power=n,
                              metric_weight=lambda z: 0.3 * np.real(z) ** 2)
    return orthonormalize(mu, space), mu


def poisson_tilt(z, r=POISSON_R):
    """The tilt g of the Poisson weight exp(-g) = (1 - r^2) / |1 - r z|^2,
    whose Szego c_j vanish but c_0 = r (Geronimus; Simon, OPUC Part 1,
    2005, 1.6)."""
    return np.log(np.abs(1.0 - r * z) ** 2 / (1.0 - r * r))


RECURRENCE_CASES = ["circle", "interval", "arcsine", "tilted-circle", "tilted-interval",
                    "metric-circle", "metric-interval", "points-real", "points-disk",
                    "poisson-circle"]


class TestRecurrenceRoute:
    """T(f) from the basis recurrence against the quadrature sum."""

    @pytest.mark.parametrize("n", [1, 2, 8, 64, 256])
    @pytest.mark.parametrize("case", RECURRENCE_CASES)
    def test_matches_quadrature_oracle(self, case, n):
        bs, mu = recurrence_case(case, n)
        assert bs.defined_on(mu)
        for name, f in polynomial_symbols().items():
            assert isinstance(f, PolynomialSymbol), name
            got = toeplitz(bs, mu, f).entries
            gap = max_relative_gap(got, quadrature_oracle(bs, mu, f))
            assert gap <= 1e-13, (name, gap)
            # the library's own quadrature route, taken for the plain callable
            plain = toeplitz(bs, mu, f.fn).entries
            assert max_relative_gap(got, plain) <= 1e-13, name

    # m = n leaves a zero residual, m = n + 1 a residual of the last node
    @pytest.mark.parametrize("n", [1, 8, 64])
    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("case", ["circle", "interval", "tilted-circle", "tilted-interval"])
    def test_few_nodes_match_quadrature_oracle(self, case, extra, n):
        bs, mu = recurrence_case(case, n, m=n + extra)
        for name, f in polynomial_symbols().items():
            gap = max_relative_gap(toeplitz(bs, mu, f).entries, quadrature_oracle(bs, mu, f))
            assert gap <= 1e-13, (name, gap)

    @pytest.mark.parametrize("case", RECURRENCE_CASES)
    def test_recurrence_route_reads_no_node_values(self, case, monkeypatch):
        # the random atoms at n = 64, where both run full Arnoldi
        bs, mu = recurrence_case(case, 64 if case.startswith("points") else 16)
        calls = []
        real = operator._quadrature_raw
        monkeypatch.setattr(operator, "_quadrature_raw",
                            lambda q, fvals: calls.append(1) or real(q, fvals))
        for f in polynomial_symbols().values():
            toeplitz(bs, mu, f)
        if case.startswith("points"):
            # full Arnoldi has no recurrence form: every symbol takes the
            # quadrature product, in the disk as on the real line
            assert bs.route == "hessenberg" and len(calls) == len(polynomial_symbols())
            return
        # node_values is cached on first read, so it was never read
        assert calls == [] and "node_values" not in vars(bs)
        # a rule's certified basis kept its last two columns and never built Q
        if case in ("circle", "interval", "arcsine"):
            assert bs.columns.shape == (len(mu), 2)

    @pytest.mark.parametrize("case", ["circle", "interval", "metric-circle"])
    def test_polynomial_symbols_skip_the_quadrature_product(self, case, monkeypatch):
        bs, mu = recurrence_case(case, 16)
        want = {name: toeplitz(bs, mu, f).entries for name, f in polynomial_symbols().items()}

        def no_quadrature(q, fvals):
            raise AssertionError("quadrature product called")

        monkeypatch.setattr(operator, "_quadrature_raw", no_quadrature)
        for name, f in polynomial_symbols().items():
            np.testing.assert_array_equal(toeplitz(bs, mu, f).entries, want[name])

    def test_interval_drops_the_imaginary_part(self):
        # sin = Im z vanishes on real nodes, so T(sin) and T(cos*sin) are
        # exactly zero, as on the quadrature route
        bs, mu = recurrence_case("interval", 32)
        for f in (sym_sin, symbols.product(sym_cos, sym_sin)):
            assert not np.any(toeplitz(bs, mu, f).entries)

    def test_nonfinite_values_still_rejected(self):
        bs, mu = recurrence_case("circle", 4)
        bad = PolynomialSymbol(lambda z: np.full(z.shape, np.inf), {(0, 0): 1.0})
        with pytest.raises(ValueError, match="finite"):
            toeplitz(bs, mu, bad)

    def test_poisson_weight_has_one_coefficient(self):
        # on 64 roots of unity the rule's aliasing moves c_0 by r^63 only
        bs, _ = recurrence_case("poisson-circle", 16)
        assert bs.route == "szego"
        assert abs(abs(bs.szego_c[0]) - POISSON_R) <= 1e-15
        assert np.max(np.abs(bs.szego_c[1:])) <= 1e-14

    def test_symmetrized_and_asymmetry_recorded(self):
        bs, mu = recurrence_case("interval", 64)
        t = toeplitz(bs, mu, sym_x)
        assert 0.0 <= t.asymmetry <= 1e-13
        assert np.array_equal(t.entries, t.entries.conj().T)

    @pytest.mark.parametrize("n", [1, 8])
    @pytest.mark.parametrize("case", ["circle", "tilted-circle", "poisson-circle", "interval",
                                      "arcsine", "tilted-interval"])
    def test_band_dtype_follows_the_route(self, case, n):
        # a constant's band too: complex128 on the circle, as the quadrature
        # route's matrix is there, and float64 on real nodes
        bs, mu = recurrence_case(case, n)
        want = np.complex128 if "circle" in case else np.float64
        assert bs.route == ("szego" if "circle" in case else "three_term")
        for name, f in polynomial_symbols().items():
            t = toeplitz(bs, mu, f)
            assert t._rows.dtype == want and t.entries.dtype == want, name
            assert toeplitz(bs, mu, f.fn).entries.dtype == want, name


def radially_perturbed_circle(n, delta):
    """circle_lebesgue(4 n) with each node moved out or in by a factor
    1 +- delta, the signs drawn at random, still tagged circle."""
    ref = circle_lebesgue(4 * n)
    signs = np.random.default_rng(0).choice([-1.0, 1.0], 4 * n)
    return QuadratureMeasure(ref.nodes * (1.0 + delta * signs), ref.weights,
                             support_tag="circle")


SZEGO_CASES = ["circle", "tilted-circle", "metric-circle", "poisson-circle"]


class TestSzegoOperator:
    """On the Szego route |z| = 1, so T(conj(z) z) = I and T(f) = P + P* +
    (c_1 + gamma) I, Hermitian by construction: no symmetrizing pass."""

    @pytest.mark.parametrize("n", [1, 2, 16])
    @pytest.mark.parametrize("case", SZEGO_CASES)
    def test_hermitian_by_construction(self, case, n, monkeypatch):
        bs, mu = recurrence_case(case, n)
        assert bs.route == "szego"

        def no_pass(v):
            raise AssertionError("Hermitian pass called")

        monkeypatch.setattr(operator, "_hermitian_part_inplace", no_pass)
        for name, f in polynomial_symbols().items():
            t = toeplitz(bs, mu, f)
            assert np.array_equal(t.entries, t.entries.conj().T), name
            assert t.asymmetry == 0.0, name

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_what_the_bands_read(self, n):
        # T(z) reads c_0..c_{n-1} and rho_0..rho_{n-2}; T(z^2) reads c_n
        # and rho_{n-1} = |r| too, of the step past n
        bs, mu = recurrence_case("tilted-circle", n)
        sites = [("szego_c", j) for j in range(n + 1)] + [("h_sub", j) for j in range(n - 1)]
        for name, j in sites + [("residual_sq", None)]:
            if j is None:
                moved = dataclasses.replace(bs, residual_sq=1.01 * bs.residual_sq)
            else:
                arr = getattr(bs, name).copy()
                arr[j] += 1e-3
                moved = dataclasses.replace(bs, **{name: arr})
            past_n = (name, j) in (("szego_c", n), ("residual_sq", None))
            for f, reads in ((sym_cos, not past_n), (sym_x2, True)):
                same = np.array_equal(toeplitz(moved, mu, f).entries, toeplitz(bs, mu, f).entries)
                assert same != reads, (name, j, f.__name__)

    def test_memory(self):
        # n = 1024: one complex n x n array is 16 MiB; T(cos) and T(x^2),
        # and their trace powers, are bands of 5 and 9 diagonals
        mu = circle_lebesgue(4096)
        bs = orthonormalize(mu, WeightedSpace(1023, tensor_power=1024))
        for f, width in ((sym_cos, 5), (sym_x2, 9)):
            tracemalloc.start()
            try:
                t = toeplitz(bs, mu, f)
                stat = spectral_statistic(t, spectral_cube)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert t.asymmetry == 0.0 and t._rows.shape == (1024, width) and stat > -1.0
            assert peak < 2**20, (f.__name__, peak / 2**20)

    # Szego is kept up to delta = 1e-15; at 1e-14 every n runs full Arnoldi
    @pytest.mark.parametrize("delta", [1e-16, 1e-15, 1e-14])
    @pytest.mark.parametrize("n", [8, 64, 256, 1024])
    def test_radially_perturbed_circle(self, n, delta):
        # T(conj(z) z) = I is used only where the probe certified |z| = 1.
        # A kept Szego basis writes T(f) in its CMV basis, the oracle in the
        # polynomial one: the traces (1/n) tr T^p are those of either frame
        mu = radially_perturbed_circle(n, delta)
        bs = orthonormalize(mu, WeightedSpace(n - 1, tensor_power=n))
        assert bs.route == ("szego" if delta < 1e-14 else "hessenberg")
        for f in (sym_x2, sym_cos, sym_sin, symbols.product(sym_cos, sym_cos)):
            got = toeplitz(bs, mu, f).entries
            want = quadrature_oracle(bs, mu, f, frame="polynomial")
            for p in (1, 2, 3):
                traces = [np.trace(np.linalg.matrix_power(a, p)).real / n for a in (got, want)]
                assert abs(traces[0] - traces[1]) <= 1e-13 * max(1.0, abs(traces[1])), (bs.route, p)


class TestCmvFrame:
    """A Szego basis writes its own measure's operators in its CMV basis,
    bands and quadrature products alike, so their products and
    differences are those of the polynomial frame, and so is every
    quantity read from them."""

    @pytest.mark.parametrize("n", [1, 8, 64])
    @pytest.mark.parametrize("case", ["circle", "tilted-circle", "poisson-circle"])
    def test_quantities_match_the_polynomial_frame(self, case, n):
        bs, mu = recurrence_case(case, n)
        assert bs.route == "szego"

        def dense(f):
            return quadrature_oracle(bs, mu, f, frame="polynomial")

        # x^3 and x + x^3 have no band; T(x^2) T(x) - T(x^3) mixes the two
        x3, x_x3 = resolve_symbol("poly:0,0,0,1")[1], resolve_symbol("poly:0,1,0,1")[1]
        got = (algebra_defect(bs, mu, sym_x2, sym_x, 2),
               symbol_distance(bs, mu, sym_cos, x3),
               spectral_statistic(toeplitz(bs, mu, x_x3), spectral_abs))
        want = (schatten_norm(dense(sym_x2) @ dense(sym_x) - dense(symbols.product(sym_x2, sym_x)), 2),
                np.mean(np.abs(np.linalg.eigvalsh(dense(sym_cos) - dense(x3)))),
                np.mean(np.abs(np.linalg.eigvalsh(dense(x_x3)))))
        for name, a, b in zip(("algebra", "symbol_distance", "szego"), got, want):
            assert abs(a - b) <= 1e-13 * max(1.0, abs(b)), (name, a, b)

    @pytest.mark.parametrize("case", ["circle", "tilted-circle"])
    def test_quadrature_route_takes_the_cmv_rows(self, case):
        # on another measure the basis's own polynomial rows
        bs, mu = recurrence_case(case, 16)
        assert np.max(np.abs(operator_rows(bs, mu) - cmv_rows(bs))) <= 1e-15
        other = scale_by(mu, lambda z: 0.5 * z.real)
        np.testing.assert_array_equal(operator_rows(bs, other), weighted_rows(bs, other))


class TestSymmetrize:
    """The one Hermitian-part routine, behind the quadrature product and the
    kernel table, against the two-temporary formula."""

    @staticmethod
    def formula(raw):
        asym = float(np.max(np.abs(raw - raw.conj().T))) if raw.size else 0.0
        return 0.5 * (raw + raw.conj().T), asym

    @staticmethod
    def raw(n, dtype):
        rng = np.random.default_rng(n)
        raw = rng.normal(size=(n, n)).astype(dtype)
        if dtype is np.complex128:
            raw += 1j * rng.normal(size=(n, n))
            # imaginary parts shared by (a, b) and (b, a): the Hermitian part
            # has a zero imaginary part there, whose sign the formula fixes
            raw.imag[::3] = raw.imag.T[::3]
        # signed zeros in both parts, and exactly Hermitian pairs
        raw[rng.random((n, n)) < 0.2] = 0.0
        raw[rng.random((n, n)) < 0.2] *= -0.0
        raw[: n // 2, : n // 2] = raw[: n // 2, : n // 2].conj().T
        return raw

    # whole blocks (256, 1536), a partial last block (257, 1100), sizes either
    # side of the block boundary
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("n", [0, 1, 6, 129, 255, 256, 257, 1100, 1536])
    def test_bit_identical_to_formula(self, dtype, n):
        assert operator._HERM_BLOCK == 256
        raw = self.raw(n, dtype)
        want, want_asym = self.formula(raw)
        asym = operator._hermitian_part_inplace(raw)
        np.testing.assert_array_equal(raw, want)
        np.testing.assert_array_equal(raw.view(np.uint8), want.view(np.uint8))
        assert raw.dtype == dtype and type(asym) is float
        assert asym == want_asym

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_nan_entry_gives_nan_asymmetry(self, dtype):
        # in a late block pair, so an earlier finite maximum cannot mask it
        raw = self.raw(1100, dtype)
        raw[1050, 300] = np.nan
        assert np.isnan(self.formula(raw)[1])
        assert np.isnan(operator._hermitian_part_inplace(raw))

    @staticmethod
    def formula_check(mat):
        """The check's decision from whole-matrix maxima."""
        scale = float(np.max(np.abs(mat)))
        if not np.isfinite(scale):
            return ValueError
        asym = float(np.max(np.abs(mat - mat.conj().T)))
        return NotHermitianError if asym > operator._HERM_TOL * (1.0 + scale) else None

    # the asymmetric pair and the largest entry sit in block (4, 1), below
    # the diagonal; a non-finite entry there has a finite mirror, so only a
    # scale read from both blocks of each pair sees it
    @pytest.mark.parametrize("case", [0.5, 2.0, np.nan, np.inf])
    def test_check_agrees_with_whole_matrix_formula(self, case):
        n, (i, j) = 1100, (1050, 300)
        rng = np.random.default_rng(7)
        mat = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        mat = 0.5 * (mat + mat.conj().T)
        mat[i, j] = 1e6 + 2e5j
        mat[j, i] = np.conj(mat[i, j])
        if np.isfinite(case):
            mat[i, j] += case * operator._HERM_TOL * (1.0 + abs(mat[i, j]))
        else:
            mat[i, j] = case
        want = self.formula_check(mat)
        assert want is {0.5: None, 2.0: NotHermitianError}.get(case, ValueError)
        if want is None:
            assert operator._as_hermitian(mat) is mat
        else:
            with pytest.raises(want):
                operator._as_hermitian(mat)


BANDED_CASES = {
    "gauss-legendre": interval_lebesgue,
    "gauss-chebyshev": arcsine,
    "tilted-interval": lambda m: scale_by(interval_lebesgue(m), lambda z: 1.5 * z.real),
}
BANDED_SPECS = ["one", "x", "x2", "const:-1.25", "poly:1,0.5,-3"]


def banded_case(case, k):
    mu = BANDED_CASES[case](4 * k)
    bs = orthonormalize(mu, WeightedSpace(k - 1, tensor_power=k))
    assert bs.route == "three_term"
    return bs, mu


def dense_copy(t):
    """t held dense: the same entries, through the public constructor."""
    return ToeplitzMatrix(t.entries.copy(), t.symbol_desc, t.k, t.basis_id)


class TestBandedRoute:
    """On the three-term route T(f) is read off the recurrence as its band,
    and entries is formed from the band on first read."""

    @pytest.mark.parametrize("k", [1, 2, 3, 16, 256])
    @pytest.mark.parametrize("case", sorted(BANDED_CASES))
    def test_matches_quadrature_oracle(self, case, k):
        bs, mu = banded_case(case, k)
        for spec in BANDED_SPECS:
            f = resolve_symbol(spec)[1]
            t = toeplitz(bs, mu, f)
            assert "entries" not in vars(t), spec
            gap = max_relative_gap(t.entries, quadrature_oracle(bs, mu, f))
            assert gap <= 1e-13, (spec, gap)
            assert not t.entries.flags.writeable and t.dimension == k

    @pytest.mark.parametrize("k", [1, 2, 3, 16, 256])
    @pytest.mark.parametrize("case", sorted(BANDED_CASES))
    def test_degree_one_equals_the_symmetrized_hessenberg(self, case, k):
        # T(f) = c1 H + c0 I before symmetrization, H = T(x) the tridiagonal
        # Hessenberg matrix of the basis, formed on read
        bs, mu = banded_case(case, k)
        for spec in ("one", "x", "const:-1.25", "poly:0.5,-2"):
            f = resolve_symbol(spec)[1]
            c0, c1 = f.terms.get((0, 0), 0.0), f.terms.get((1, 0), 0.0)
            raw = c1 * hessenberg(bs)
            raw[np.diag_indices(k)] += c0
            t = toeplitz(bs, mu, f)
            np.testing.assert_array_equal(t.entries, (raw + raw.T) * 0.5)
            assert t.asymmetry == float(np.max(np.abs(raw - raw.T))), spec

    @pytest.mark.parametrize("k", [1, 2, 3, 16, 256])
    @pytest.mark.parametrize("case", sorted(BANDED_CASES))
    def test_trace_powers_match_the_dense_statistic(self, case, k):
        bs, mu = banded_case(case, k)
        for spec in BANDED_SPECS:
            t = toeplitz(bs, mu, resolve_symbol(spec)[1])
            for g in (spectral_identity, spectral_square, spectral_cube):
                got = spectral_statistic(t, g)
                want = spectral_statistic(dense_copy(t), g)
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (spec, g.__name__)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_what_the_bands_read(self, n):
        # T(x) reads the norms h_sub and the projections h_band; T(x^2) reads
        # |r|^2 too, of the step past n, as the last entry of its diagonal
        bs, mu = banded_case("tilted-interval", n)
        sites = ([("h_sub", (j,)) for j in range(n - 1)] + [("h_band", (1, j)) for j in range(n)]
                 + [("h_band", (0, j)) for j in range(1, n)])
        for name, at in sites + [("residual_sq", None)]:
            if at is None:
                moved = dataclasses.replace(bs, residual_sq=1.01 * bs.residual_sq)
            else:
                arr = getattr(bs, name).copy()
                arr[at] += 1e-3
                moved = dataclasses.replace(bs, **{name: arr})
            for f, reads in ((sym_x, at is not None), (sym_x2, True)):
                same = np.array_equal(toeplitz(moved, mu, f).entries, toeplitz(bs, mu, f).entries)
                assert same != reads, (name, at, f.__name__)

    def test_legendre_square_trace_closed_form(self):
        # (1/n) tr J^2 = (2/n) sum_{j<n} j^2 / (4 j^2 - 1) = (n - 1) / (2n - 1)
        k = 2048
        bs, mu = banded_case("gauss-legendre", k)
        got = spectral_statistic(toeplitz(bs, mu, sym_x), spectral_square)
        assert abs(got - (k - 1) / (2 * k - 1)) <= 4 * (k + 2) * np.finfo(float).eps

    def test_statistic_holds_no_dense_matrix(self):
        # n = 1024: entries would be 8 MiB, and the dense statistic forms two
        mu = interval_lebesgue(4096)
        bs = orthonormalize(mu, WeightedSpace(1023, tensor_power=1024))
        tracemalloc.start()
        try:
            value = spectral_statistic(toeplitz(bs, mu, sym_x), spectral_square)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(value - 1023 / 2047) <= 1e-12
        assert peak < 2**20, peak / 2**20

    def test_nonfinite_band_is_rejected(self):
        bs, mu = banded_case("gauss-legendre", 16)
        t = toeplitz(bs, mu, sym_x)
        rows = t._rows.copy()
        rows[3, 0] = np.nan
        bad = ToeplitzMatrix(None, "bad", 16, "test", rows=rows)
        for g in (spectral_identity, spectral_square, spectral_cube):
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                spectral_statistic(bad, g)

    @pytest.mark.parametrize("case", ["points-real", "points-disk", "another-measure"])
    def test_other_bases_take_the_dense_route(self, case, monkeypatch):
        if case.startswith("points"):
            # Lanczos loses orthogonality on the real atoms, and full Arnoldi
            # builds a real H; in the disk it builds a complex one
            bs, mu = recurrence_case(case, 64)
            assert bs.route == "hessenberg"
            assert np.iscomplexobj(bs.h_full) == (case == "points-disk")
        else:
            bs, _ = banded_case("gauss-legendre", 32)
            mu = scale_by(interval_lebesgue(128), lambda z: 0.7 * np.real(z) + 0.2)
        calls = []
        real = operator._quadrature_raw
        monkeypatch.setattr(operator, "_quadrature_raw",
                            lambda q, fvals: calls.append(1) or real(q, fvals))
        for spec in BANDED_SPECS:
            f = resolve_symbol(spec)[1]
            t = toeplitz(bs, mu, f)
            assert "entries" in vars(t)
            assert max_relative_gap(t.entries, quadrature_oracle(bs, mu, f)) <= 1e-13
        assert len(calls) == len(BANDED_SPECS)


@pytest.fixture(scope="class")
def circle_1024():
    """A Szego basis at n = 1024 on 4096 roots of unity, and its measure:
    one complex n x n array there is 16 MiB."""
    mu = circle_lebesgue(4096)
    return orthonormalize(mu, WeightedSpace(1023, tensor_power=1024)), mu


class TestBandsStayBands:
    """compose multiplies two bands as bands, algebra_defect forms only
    their product dense, and symbol_distance reads one operator, T(f - g)."""

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    @pytest.mark.parametrize("case", ["circle", "tilted-circle", "interval", "tilted-interval"])
    def test_compose_of_bands(self, case, n):
        bs, mu = recurrence_case(case, n)
        named = polynomial_symbols()
        for fa, fb in (("cos", "sin"), ("x2", "cos*sin"), ("poly:1,0.5,-3", "x"),
                       ("one", "x*x"), ("x2", "x2")):
            a, b = toeplitz(bs, mu, named[fa]), toeplitz(bs, mu, named[fb])
            got = compose(a, b)
            assert "entries" not in a.__dict__ and "entries" not in b.__dict__, (fa, fb)
            assert got.shape == (n, n) and got.flags.writeable
            assert max_relative_gap(got, a.entries @ b.entries) <= 1e-15, (fa, fb)

    @pytest.mark.parametrize("p", [2, 1])
    def test_algebra_defect_memory(self, circle_1024, p):
        # the product, 16 MiB, is the one dense array; on the roots of unity
        # the defect has two singular values of 1/4, so it is (1/4) (2/n)^(1/p)
        bs, mu = circle_1024
        tracemalloc.start()
        try:
            got = algebra_defect(bs, mu, sym_cos, sym_sin, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20, peak / 2**20
        assert abs(got - 0.25 * (2 / 1024) ** (1 / p)) <= 1e-12 * got

    def test_symbol_distance_builds_one_operator(self, circle_1024, monkeypatch):
        # spec(T(cos) - I) = {cos(pi j / (n + 1)) - 1} on the roots of unity,
        # so the distance is 1; its one eigensolve is that of spectrum
        bs, mu = circle_1024
        calls = {"toeplitz": 0, "spectrum": 0}
        for name in calls:
            real = getattr(operator, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(operator, name, counted)
        tracemalloc.start()
        try:
            got = symbol_distance(bs, mu, sym_cos, sym_one)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == {"toeplitz": 1, "spectrum": 1}
        assert peak <= 24 * 2**20, peak / 2**20
        assert abs(got - 1.0) <= 1e-12

    def test_difference_terms(self):
        d = symbols.difference(resolve_symbol("poly:1,2,3")[1], sym_x2)
        assert d.terms == {(0, 0): 1.0, (1, 0): 2.0, (2, 0): 2.0}
        assert symbols.difference(sym_cos, sym_cos).terms == {}
        assert not isinstance(symbols.difference(sym_cos, lambda z: np.real(z)), PolynomialSymbol)
        z = np.exp(1j * np.linspace(0.0, 6.0, 17))
        np.testing.assert_array_equal(symbols.difference(sym_cos, sym_sin)(z), z.real - z.imag)


class TestQuadratureRouteKept:
    """Symbols without a degree <= 2 form, and bases used on another
    measure, still take the quadrature product."""

    @pytest.mark.parametrize("case", ["circle", "interval", "tilted-circle"])
    def test_degree_three_and_plain_callables(self, case):
        bs, mu = recurrence_case(case, 32)
        cubic = resolve_symbol("poly:0.5,1,-1,2")[1]
        assert not isinstance(cubic, PolynomialSymbol)
        x2x = symbols.product(sym_x2, sym_x)
        assert not isinstance(x2x, PolynomialSymbol)
        for f in (cubic, x2x, lambda z: np.exp(np.real(z)), lambda z: np.real(z) ** 2):
            got = toeplitz(bs, mu, f).entries
            assert max_relative_gap(got, quadrature_oracle(bs, mu, f)) <= 1e-13

    @pytest.mark.parametrize("kind", ["circle", "interval"])
    def test_basis_on_another_measure(self, kind):
        mu = circle_lebesgue(256) if kind == "circle" else interval_lebesgue(256)
        bs = orthonormalize(mu, WeightedSpace(31, tensor_power=32))
        mu2 = scale_by(mu, lambda z: 0.7 * np.real(z) + 0.2)
        assert not bs.defined_on(mu2)
        for f in polynomial_symbols().values():
            got = toeplitz(bs, mu2, f).entries
            assert max_relative_gap(got, quadrature_oracle(bs, mu2, f)) <= 1e-13


class TestSymbolProducts:
    def test_product_terms(self):
        assert symbols.product(sym_cos, sym_sin).terms == {(1, 1): 1.0}
        assert symbols.product(resolve_symbol("poly:1,2")[1], sym_x).terms \
            == {(1, 0): 1.0, (2, 0): 2.0}
        assert symbols.product(sym_one, sym_x2).terms == {(2, 0): 1.0}

    def test_product_above_degree_two_is_plain(self):
        for f, g in ((sym_x2, sym_x2), (sym_x2, sym_sin), (sym_cos, lambda z: np.real(z))):
            assert not isinstance(symbols.product(f, g), PolynomialSymbol)

    def test_product_values(self):
        z = np.exp(1j * np.linspace(0.0, 6.0, 17))
        fg = symbols.product(sym_cos, sym_sin)
        np.testing.assert_array_equal(fg(z), np.real(z) * np.imag(z))

    @pytest.mark.parametrize("spec", POLY_SPECS)
    def test_terms_describe_the_values(self, spec):
        f = resolve_symbol(spec)[1]
        z = np.concatenate([np.exp(1j * np.linspace(0.0, 6.0, 13)), np.linspace(-1, 1, 7)])
        u, v = z.real, z.imag
        want = sum(c * u ** a * v ** b for (a, b), c in f.terms.items()) + 0 * u
        np.testing.assert_allclose(f(z), want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("spec", ["const:nan", "const:inf", "poly:1,inf", "poly:nan"])
    def test_nonfinite_coefficients_rejected(self, spec):
        with pytest.raises(ValueError, match="finite"):
            resolve_symbol(spec)


class TestTraceStatistics:
    @pytest.mark.parametrize("case,f", [("circle", sym_cos), ("interval", sym_x),
                                        ("interval", sym_x2), ("tilted-circle", sym_sin),
                                        ("circle", symbols.product(sym_cos, sym_sin))])
    @pytest.mark.parametrize("n", [1, 8, 128])
    def test_traces_equal_eigenvalue_route(self, case, f, n):
        bs, mu = recurrence_case(case, n)
        t = toeplitz(bs, mu, f)
        for g in (spectral_identity, spectral_square, spectral_cube):
            want = spectral_statistic(t, lambda lam, g=g: g(lam))   # eigvalsh
            got = spectral_statistic(t, g)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), g.__name__

    @pytest.mark.parametrize("g", [spectral_identity, spectral_square, spectral_cube])
    def test_trace_route_checks_hermitian(self, g):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NotHermitianError):
            spectral_statistic(bad, g)

    def test_trace_route_takes_no_eigensolve(self, monkeypatch):
        bs, mu = recurrence_case("interval", 32)
        t = toeplitz(bs, mu, sym_x)

        def no_eigvalsh(a):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        assert spectral_statistic(t, spectral_square) == pytest.approx(31 / 63, abs=1e-14)


class TestNoSvd:
    @pytest.mark.parametrize("seed", range(4))
    def test_frobenius_schatten_two_equals_svd(self, seed):
        rng = np.random.default_rng(200 + seed)
        for shape in ((1, 1), (7, 7), (64, 64), (5, 9)):
            mat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            sigma = np.linalg.svd(mat, compute_uv=False)
            want = float(np.sqrt(np.mean(sigma ** 2)))
            assert abs(schatten_norm(mat, 2) - want) <= 1e-13 * want

    @pytest.mark.parametrize("case", ["circle", "interval"])
    def test_symbol_distance_equals_svd_schatten_one(self, case):
        bs, mu = recurrence_case(case, 64)
        for f, g in ((sym_cos, sym_one), (sym_x2, sym_sin), (sym_sin, sym_cos)):
            diff = toeplitz(bs, mu, f).entries - toeplitz(bs, mu, g).entries
            want = float(np.mean(np.linalg.svd(diff, compute_uv=False)))
            got = symbol_distance(bs, mu, f, g)
            assert abs(got - want) <= 1e-13 * max(1.0, want)
