import numpy as np
import pytest

from cdlab import (
    NotHermitianError,
    WeightedSpace,
    algebra_defect,
    circle_lebesgue,
    classical_toeplitz,
    compose,
    defect_kernel_bound,
    diagonal_density,
    functional_calculus,
    interval_lebesgue,
    kernel_table,
    legendre_toeplitz,
    operator_norm,
    orthonormalize,
    scale_by,
    schatten_norm,
    spectral_radius_bounds,
    spectral_statistic,
    spectrum,
    symbol_distance,
    toeplitz,
)
from cdlab.operator import ToeplitzMatrix
from cdlab.symbols import sym_cos, sym_one, sym_sin, sym_x, sym_x2


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

    def test_circle_cosine_is_tridiagonal(self):
        k = 8
        mu, bs = circle_basis(k)
        t = toeplitz(bs, mu, sym_cos)
        want = 0.5 * (np.eye(k, k, 1) + np.eye(k, k, -1))
        np.testing.assert_allclose(t.entries, want, atol=1e-12)

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

    def test_nan_symbol_rejected(self):
        mu, bs = circle_basis(4)
        with pytest.raises(ValueError):
            toeplitz(bs, mu, lambda z: np.full(z.shape, np.nan))


class TestClassicalToeplitz:
    def test_unit_coefficient_gives_identity(self):
        a = np.zeros(7, dtype=complex)
        a[3] = 1.0
        t = classical_toeplitz(a, 4)
        np.testing.assert_allclose(t.entries, np.eye(4), atol=0)

    def test_matches_quadrature_route_for_cosine(self):
        k = 4
        mu, bs = circle_basis(k)
        a = np.zeros(2 * k - 1, dtype=complex)
        a[k - 2] = a[k] = 0.5  # a_{-1} = a_1 = 1/2
        t_cl = classical_toeplitz(a, k)
        t_q = toeplitz(bs, mu, sym_cos)
        np.testing.assert_allclose(t_cl.entries, t_q.entries, atol=1e-10)

    def test_sine_coefficients_are_hermitian(self):
        a = np.zeros(5, dtype=complex)
        a[1], a[3] = -1j, 1j  # a_{-1} = -i, a_1 = i
        t = classical_toeplitz(a, 3)
        np.testing.assert_allclose(t.entries, t.entries.conj().T, atol=0)

    def test_symmetry_violation_rejected(self):
        a = np.zeros(5, dtype=complex)
        a[1], a[3] = 1j, 1j
        with pytest.raises(ValueError, match="symmetry"):
            classical_toeplitz(a, 3)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            classical_toeplitz(np.zeros(4, dtype=complex), 3)


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

    def test_agrees_with_quadrature_basis_route(self):
        k = 9
        mu, bs = interval_basis(k)
        t_leg = legendre_toeplitz(sym_x2, k)
        t_q = toeplitz(bs, mu, sym_x2)
        np.testing.assert_allclose(t_leg.entries, t_q.entries, atol=1e-10)

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

    def test_cosine_square_defect_is_corner_matrix(self):
        k = 4
        mu, bs = circle_basis(k)
        t_cos = toeplitz(bs, mu, sym_cos)
        t_cos2 = toeplitz(bs, mu, lambda z: sym_cos(z) ** 2)
        diff = compose(t_cos, t_cos) - t_cos2.entries
        want = np.zeros((k, k))
        want[0, 0] = want[k - 1, k - 1] = -0.25
        np.testing.assert_allclose(diff, want, atol=1e-12)

    def test_mismatched_spaces_rejected(self):
        mu, bs = circle_basis(4)
        t = toeplitz(bs, mu, sym_cos)
        t_other = legendre_toeplitz(sym_x, 4)
        with pytest.raises(ValueError):
            compose(t, t_other)


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
        a = np.zeros(2 * k - 1, dtype=complex)
        a[k - 2] = a[k] = 0.5
        t = classical_toeplitz(a, k)
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

    @pytest.mark.parametrize("k", [16, 32, 64])
    def test_cosine_defect_closed_form(self, k):
        mu, bs = circle_basis(k)
        got = algebra_defect(bs, mu, sym_cos, sym_cos, 2)
        assert abs(got - 1.0 / np.sqrt(8.0 * k)) <= 1e-12

    def test_mixed_defect_decreases(self):
        vals = {}
        for k in (16, 64):
            mu, bs = circle_basis(k)
            vals[k] = algebra_defect(bs, mu, sym_cos, sym_sin, 2)
        assert vals[64] < vals[16]


class TestDefectKernelBound:
    def test_constant_second_symbol_gives_zero(self):
        mu, bs = circle_basis(8)
        table = kernel_table(bs, mu)
        assert defect_kernel_bound(table, mu, sym_cos, sym_one) == 0.0

    @pytest.mark.parametrize("k", [8, 16, 32])
    def test_dominates_defect(self, k):
        mu, bs = circle_basis(k)
        table = kernel_table(bs, mu)
        defect = algebra_defect(bs, mu, sym_cos, sym_cos, 2)
        bound = defect_kernel_bound(table, mu, sym_cos, sym_cos)
        assert defect <= bound + 1e-9

    def test_bound_decays_for_mixed_symbols(self):
        vals = {}
        for k in (16, 128):
            mu, bs = circle_basis(k)
            table = kernel_table(bs, mu)
            vals[k] = defect_kernel_bound(table, mu, sym_cos, sym_sin)
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


class TestExports:
    def test_matrix_csv(self, tmp_path):
        import csv as csvmod

        from cdlab import write_matrix_csv

        mu, bs = circle_basis(3)
        t = toeplitz(bs, mu, sym_cos)
        path = tmp_path / "mat.csv"
        write_matrix_csv(t, path, measure_tag="circle")
        with open(path) as fh:
            rows = list(csvmod.reader(fh))
        assert rows[0] == ["i", "j", "re", "im", "k", "symbol", "measure"]
        assert len(rows) == 1 + 9
        assert rows[2][:2] == ["0", "1"]
        assert float(rows[2][2]) == pytest.approx(0.5)
        assert rows[2][6] == "circle"

    def test_spectrum_csv(self, tmp_path):
        import csv as csvmod

        from cdlab import write_spectrum_csv

        mu, bs = circle_basis(4)
        t = toeplitz(bs, mu, sym_cos)
        write_spectrum_csv(t, tmp_path / "spec.csv", measure_tag="circle")
        with open(tmp_path / "spec.csv") as fh:
            rows = list(csvmod.reader(fh))
        assert rows[0] == ["index", "eigenvalue", "k", "symbol", "measure"]
        got = [float(r[1]) for r in rows[1:]]
        want = np.sort(np.cos(np.arange(1, 5) * np.pi / 5))
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestSpectralRadiusBounds:
    def test_constant_symbol(self):
        mu, bs = circle_basis(8)
        rec = spectral_radius_bounds(toeplitz(bs, mu, lambda z: np.full(z.shape, 2.5)),
                                     lambda z: np.full(z.shape, 2.5), mu)
        assert rec.lambda_min == pytest.approx(2.5, abs=1e-10)
        assert rec.lambda_max == pytest.approx(2.5, abs=1e-10)

    def test_circle_cosine_peak_eigenvalue(self):
        k = 64
        mu, bs = circle_basis(k)
        rec = spectral_radius_bounds(toeplitz(bs, mu, sym_cos), sym_cos, mu)
        assert 0.99 < rec.lambda_max <= 1.0
        assert abs(rec.lambda_max - np.cos(np.pi / (k + 1))) <= 1e-10

    def test_interval_coordinate_confined(self):
        mu, bs = interval_basis(32)
        rec = spectral_radius_bounds(toeplitz(bs, mu, sym_x), sym_x, mu)
        assert rec.inf_f - 1e-9 <= rec.lambda_min
        assert rec.lambda_max <= rec.sup_f + 1e-9
