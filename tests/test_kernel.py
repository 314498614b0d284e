import csv

import numpy as np
import pytest

from cdlab import (
    WeightedSpace,
    arc_indices,
    bergman_mass,
    bm_constant,
    circle_lebesgue,
    default_eval_grid,
    diagonal_density,
    evaluate_basis,
    from_points,
    interval_indices,
    interval_lebesgue,
    kernel_table,
    orthonormalize,
    pushforward_residual,
    scale_by,
    write_density_csv,
    write_heatmap_csv,
)
from cdlab.kernel import _hermitian_part_inplace


def circle_setup(k, m=None):
    mu = circle_lebesgue(m or max(4 * k, 256))
    bs = orthonormalize(mu, WeightedSpace(k - 1, tensor_power=k))
    return mu, bs, kernel_table(bs, mu)


def interval_setup(k, m=None):
    mu = interval_lebesgue(m or max(4 * k, 256))
    bs = orthonormalize(mu, WeightedSpace(k - 1, tensor_power=k))
    return mu, bs, kernel_table(bs, mu)


class TestCircleClosedForms:
    def test_matches_monomial_sum(self):
        k = 8
        mu, _, table = circle_setup(k, m=32)
        v = mu.nodes[:, None] ** np.arange(k)[None, :]
        direct = v @ v.conj().T
        np.testing.assert_allclose(table.values, direct, atol=1e-10)

    def test_diagonal_equals_dimension(self):
        _, _, table = circle_setup(16, m=64)
        np.testing.assert_allclose(table.diag, 16.0, atol=1e-12)

    def test_antipodal_modulus_one_for_odd_k(self):
        k, m = 9, 36
        mu, _, table = circle_setup(k, m=m)
        for a in range(m // 2):
            assert abs(abs(table.values[a, a + m // 2]) - 1.0) <= 1e-12

    def test_antipodal_vanishes_for_even_k(self):
        k, m = 8, 32
        _, _, table = circle_setup(k, m=m)
        assert abs(table.values[0, m // 2]) <= 1e-12


class TestTableInvariants:
    @pytest.mark.parametrize("setup,k", [(circle_setup, 12), (interval_setup, 12)])
    def test_hermitian(self, setup, k):
        _, _, table = setup(k)
        asym = np.abs(table.values - table.values.conj().T)
        assert np.max(asym / (1.0 + np.abs(table.values))) <= 1e-12

    @pytest.mark.parametrize("setup,k", [(circle_setup, 10), (interval_setup, 14)])
    def test_trace_identity(self, setup, k):
        mu, _, table = setup(k)
        tr = float(table.diag @ mu.weights)
        assert abs(tr - k) <= 1e-8 * k

    def test_positivity(self):
        mu, _, table = interval_setup(9)
        rng = np.random.default_rng(7)
        for _ in range(5):
            c = rng.normal(size=len(mu)) + 1j * rng.normal(size=len(mu))
            quad = np.real(c.conj() @ table.values @ c)
            assert quad >= -1e-10 * np.linalg.norm(c) ** 2

    def test_diag_nonnegative(self):
        _, _, table = interval_setup(11)
        assert np.all(table.diag >= 0)

    def test_node_cap_enforced(self, monkeypatch):
        mu = circle_lebesgue(64)
        bs = orthonormalize(mu, WeightedSpace(3, tensor_power=4))
        monkeypatch.setattr("cdlab.kernel.MAX_NODES", 32)
        with pytest.raises(ValueError, match="cap"):
            kernel_table(bs, mu)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestInPlaceSymmetrization:
    # 1536 is three whole blocks of 512 rows, 1100 ends in a partial one
    @pytest.mark.parametrize("m", [1536, 1100])
    def test_table_equals_two_temporary_formula(self, m):
        mu = scale_by(circle_lebesgue(m), lambda z: np.cos(np.angle(z) - 0.4))
        bs = orthonormalize(mu, WeightedSpace(95))
        phi = bs.node_values / np.sqrt(bs.node_weights)[:, None]
        values = phi @ phi.conj().T
        assert_same_bits(kernel_table(bs, mu).values, 0.5 * (values + values.conj().T))

    @pytest.mark.parametrize("m", [1536, 1100])
    def test_non_hermitian_input_equals_formula(self, m):
        # an imaginary part shared by (a, b) and (b, a) gives the Hermitian
        # part a zero imaginary part, whose sign the formula fixes
        rng = np.random.default_rng(m)
        values = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        values.imag[::3] = values.imag.T[::3]
        want = 0.5 * (values + values.conj().T)
        _hermitian_part_inplace(values)
        assert_same_bits(values, want)


class TestBergmanMass:
    @pytest.mark.parametrize("setup", [circle_setup, interval_setup])
    def test_total_mass_is_one(self, setup):
        mu, _, table = setup(16)
        idx = np.arange(len(mu))
        assert abs(bergman_mass(table, mu, idx, idx) - 1.0) <= 1e-8

    def test_empty_region_gives_zero(self):
        mu, _, table = circle_setup(8)
        assert bergman_mass(table, mu, np.array([], dtype=int), np.arange(4)) == 0.0

    def test_interval_mass_decays(self):
        masses = {}
        for k in (16, 128):
            mu, _, table = interval_setup(k)
            ia = interval_indices(mu, -0.9, -0.3)
            ib = interval_indices(mu, 0.3, 0.9)
            masses[k] = bergman_mass(table, mu, ia, ib)
        assert masses[128] < masses[16]
        assert masses[128] > 0

    def test_circle_quarter_arc_mass_positive_and_small(self):
        k = 64
        mu, _, table = circle_setup(k)
        ia = arc_indices(mu, 0.0, np.pi / 2)
        ib = arc_indices(mu, np.pi, 3 * np.pi / 2)
        val = bergman_mass(table, mu, ia, ib)
        assert 0 < val < 0.01


class TestDiagonalDensity:
    def test_sums_to_one(self):
        mu, _, table = interval_setup(10)
        assert abs(diagonal_density(table, mu).sum() - 1.0) <= 1e-8

    def test_circle_density_exactly_uniform(self):
        mu, _, table = circle_setup(16, m=64)
        dens = diagonal_density(table, mu)
        np.testing.assert_allclose(dens, 1.0 / 64, atol=1e-12)

    def test_interval_first_moment_vanishes(self):
        mu, _, table = interval_setup(64)
        dens = diagonal_density(table, mu)
        assert abs(float(mu.nodes.real @ dens)) <= 1e-6

    def test_interval_second_moment_trend_to_arcsine(self):
        gaps = []
        for k in (8, 16, 32, 64):
            mu, _, table = interval_setup(k)
            dens = diagonal_density(table, mu)
            gaps.append(abs(float((mu.nodes.real ** 2) @ dens) - 0.5))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_tilted_circle_measure_recovers_uniform_limit(self):
        # bump on an arc: the tilted measure stays admissible and its
        # diagonal density drifts back to the uniform one as k grows
        def bump(z):
            theta = np.mod(np.angle(z), 2 * np.pi)
            return np.where((theta > 0.5) & (theta < 1.5), 2.0, 0.0)

        drift = {}
        for k in (8, 64):
            mu = scale_by(circle_lebesgue(max(4 * k, 256)), bump)
            bs = orthonormalize(mu, WeightedSpace(k - 1, tensor_power=k))
            dens = diagonal_density(kernel_table(bs, mu), mu)
            drift[k] = abs(complex(mu.nodes @ dens))  # first moment of mu_eq is 0
        assert drift[64] < drift[8]


class TestPushforward:
    def test_circle(self):
        mu, _, table = circle_setup(16, m=64)
        assert pushforward_residual(table, mu) <= 1e-10

    def test_interval_with_exact_quadrature(self):
        mu, _, table = interval_setup(20, m=64)
        assert pushforward_residual(table, mu) <= 1e-9

    def test_discrete_measure_is_algebraically_exact(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=7) + 1j * rng.normal(size=7)
        mu = from_points(pts, rng.uniform(0.5, 1.5, size=7))
        bs = orthonormalize(mu, WeightedSpace(4))
        table = kernel_table(bs, mu)
        assert pushforward_residual(table, mu) <= 1e-10


class TestBmConstant:
    def test_circle_is_k(self):
        k = 32
        mu, bs, _ = circle_setup(k)
        got = bm_constant(bs, default_eval_grid(mu))
        assert abs(got - k) <= 1e-10

    def test_interval_growth_is_subexponential(self):
        vals = []
        for k in (8, 16, 32, 64, 128):
            mu, bs, _ = interval_setup(k)
            vals.append(np.log(bm_constant(bs, default_eval_grid(mu))) / k)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_arcsine_growth_is_subexponential(self):
        from cdlab import arcsine

        vals = []
        for k in (8, 16, 32, 64):
            mu = arcsine(max(4 * k, 256))
            bs = orthonormalize(mu, WeightedSpace(k - 1, tensor_power=k))
            vals.append(np.log(bm_constant(bs, default_eval_grid(mu))) / k)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("make_mu", [
        lambda: circle_lebesgue(320),
        lambda: scale_by(interval_lebesgue(320), lambda z: 2.0 * z.real),
    ], ids=["circle", "tilted-interval"])
    def test_blocks_give_the_whole_grid_maximum(self, make_mu):
        # 2560 grid points: two full blocks of 1024 and a partial one, with
        # the peak moved to the last point of the first block
        mu = make_mu()
        bs = orthonormalize(mu, WeightedSpace(39, tensor_power=40))
        grid = default_eval_grid(mu)
        phi = evaluate_basis(bs, grid)
        diag = np.einsum("ai,ai->a", phi, phi.conj()).real
        peak = int(np.argmax(diag))
        grid[[peak, 1023]] = grid[[1023, peak]]
        assert bm_constant(bs, grid) == diag[peak]

    def test_interval_peak_sits_at_endpoints(self):
        # sup of the diagonal kernel for Lebesgue dx is sum (2i+1)/2 = k^2/2
        k = 16
        mu, bs, _ = interval_setup(k)
        got = bm_constant(bs, default_eval_grid(mu))
        assert abs(got - k * k / 2.0) <= 1e-9 * k * k


class TestRegions:
    def test_quarter_arc_counts(self):
        mu = circle_lebesgue(64)
        assert len(arc_indices(mu, 0.0, np.pi / 2)) == 16
        assert len(arc_indices(mu, np.pi, 3 * np.pi / 2)) == 16

    def test_wrapping_arc(self):
        mu = circle_lebesgue(64)
        idx = arc_indices(mu, 7 * np.pi / 4, np.pi / 4)
        assert len(idx) == 16
        assert 0 in idx

    def test_interval_selector(self):
        mu = interval_lebesgue(32)
        idx = interval_indices(mu, 0.0, 1.0)
        assert np.all(mu.nodes.real[idx] >= 0)
        assert len(idx) == 16


class TestExports:
    def test_heatmap_csv(self, tmp_path):
        mu, _, table = circle_setup(4, m=8)
        path = write_heatmap_csv(table, tmp_path / "hm.csv")
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["a", "b", "re", "im", "abs2"]
        assert len(rows) == 1 + 8 * 8
        a, b, re, im, a2 = rows[1]
        assert (a, b) == ("0", "0")
        assert float(re) == pytest.approx(4.0)
        assert float(a2) == pytest.approx(16.0)

    def test_density_csv(self, tmp_path):
        mu, _, table = circle_setup(4, m=8)
        path = write_density_csv(table, mu, tmp_path / "dens.csv")
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["re", "im", "weight", "density"]
        values = [[float(v) for v in r] for r in rows[1:]]
        np.testing.assert_array_equal(values, np.column_stack(
            [mu.nodes.real, mu.nodes.imag, mu.weights, diagonal_density(table, mu)]))
        assert sum(r[3] for r in values) == pytest.approx(1.0)
