import dataclasses

import numpy as np
import pytest

from cdlab import (
    NotHermitianError,
    WeightedSpace,
    algebra_defect,
    arcsine,
    circle_lebesgue,
    classical_toeplitz,
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
    spectral_radius_bounds,
    spectral_statistic,
    spectrum,
    symbol_distance,
    symbols,
    toeplitz,
)
from cdlab.operator import ToeplitzMatrix
from cdlab.symbols import (PolynomialSymbol, resolve_symbol, spectral_cube,
                           spectral_identity, spectral_square, sym_cos, sym_one,
                           sym_sin, sym_x, sym_x2)


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

    @pytest.mark.parametrize("k", [16, 32, 64])
    def test_cosine_defect_closed_form(self, k):
        mu, bs = circle_basis(k)
        got = algebra_defect(bs, mu, sym_cos, sym_cos, 2)
        assert abs(got - 1.0 / np.sqrt(8.0 * k)) <= 1e-12

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

    @pytest.mark.parametrize("basis", [circle_basis, interval_basis])
    def test_exports_match_csv_writer_bytes(self, tmp_path, basis):
        # the symbol and measure tags need csv's quoting: commas and quotes
        import csv as csvmod

        from cdlab import write_matrix_csv, write_spectrum_csv

        mu, bs = basis(6)
        desc, f = resolve_symbol("poly:1,0,2")
        t = toeplitz(bs, mu, f, symbol_desc=desc)
        tag = 'circle, "tilted"'
        matrix_rows = [(i, j, v.real, v.imag, t.k, desc, tag)
                       for i, r in enumerate(t.entries) for j, v in enumerate(r.tolist())]
        spectrum_rows = [(i, v, t.k, desc, tag)
                         for i, v in enumerate(spectrum(t).eigenvalues.tolist())]
        for write, header, rows in (
                (write_matrix_csv, ["i", "j", "re", "im", "k", "symbol", "measure"], matrix_rows),
                (write_spectrum_csv, ["index", "eigenvalue", "k", "symbol", "measure"],
                 spectrum_rows)):
            with open(tmp_path / "want.csv", "w", newline="") as fh:
                out = csvmod.writer(fh)
                out.writerow(header)
                out.writerows(rows)
            got = write(t, tmp_path / "got.csv", measure_tag=tag).read_bytes()
            assert got == (tmp_path / "want.csv").read_bytes()
            assert b'"poly:1,0,2","circle, ""tilted"""\r\n' in got


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


def quadrature_oracle(bs, mu, f):
    """T(f) as the dense sum Q* F Q, symmetrized, with Q = sqrt(w) Phi the
    weighted basis values on mu's nodes: the cached node values on the
    basis's own measure, the recurrence on any other."""
    if bs.defined_on(mu):
        phi = bs.node_values
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


RECURRENCE_CASES = ["circle", "interval", "arcsine", "tilted-circle", "tilted-interval",
                    "metric-circle", "metric-interval", "points-real", "points-disk"]


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
    def test_recurrence_route_reads_no_node_values(self, case):
        bs, mu = recurrence_case(case, 16)
        bare = dataclasses.replace(bs, node_values=None)
        for name, f in polynomial_symbols().items():
            np.testing.assert_array_equal(toeplitz(bare, mu, f).entries,
                                          toeplitz(bs, mu, f).entries, err_msg=name)

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

    def test_symmetrized_and_asymmetry_recorded(self):
        bs, mu = recurrence_case("interval", 64)
        t = toeplitz(bs, mu, sym_x)
        assert 0.0 <= t.asymmetry <= 1e-13
        assert np.array_equal(t.entries, t.entries.conj().T)


class TestSymmetrize:
    """The one Hermitian-part routine, behind every Toeplitz matrix and the
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
