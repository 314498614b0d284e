import csv
import tracemalloc

import numpy as np
import pytest

from cdlab import (
    OrthonormalBasis,
    WeightedSpace,
    arc_indices,
    arcsine,
    bergman_mass,
    bm_constant,
    circle_lebesgue,
    default_eval_grid,
    defect_kernel_bound,
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
from cdlab import _backend, kernel
from cdlab.basis import diagonal_kernel, weighted_rows
from cdlab.symbols import sym_one


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
    # 1536 is six whole blocks of 256 rows, 1100 ends in a partial one
    @pytest.mark.parametrize("m", [1536, 1100])
    def test_table_equals_two_temporary_formula(self, m):
        mu = scale_by(circle_lebesgue(m), lambda z: np.cos(np.angle(z) - 0.4))
        bs = orthonormalize(mu, WeightedSpace(95))
        phi = bs.node_values / np.sqrt(bs.node_weights)[:, None]
        values = phi @ phi.conj().T
        assert_same_bits(kernel_table(bs, mu).values, 0.5 * (values + values.conj().T))


class TestBergmanMass:
    @pytest.mark.parametrize("setup", [circle_setup, interval_setup])
    def test_total_mass_is_one(self, setup):
        mu, bs, _ = setup(16)
        idx = np.arange(len(mu))
        assert abs(bergman_mass(bs, mu, idx, idx) - 1.0) <= 1e-8

    def test_empty_region_gives_zero(self):
        mu, bs, _ = circle_setup(8)
        assert bergman_mass(bs, mu, np.array([], dtype=int), np.arange(4)) == 0.0

    def test_interval_mass_decays(self):
        masses = {}
        for k in (16, 128):
            mu, bs, _ = interval_setup(k)
            ia = interval_indices(mu, -0.9, -0.3)
            ib = interval_indices(mu, 0.3, 0.9)
            masses[k] = bergman_mass(bs, mu, ia, ib)
        assert masses[128] < masses[16]
        assert masses[128] > 0

    def test_circle_quarter_arc_mass_positive_and_small(self):
        k = 64
        mu, bs, _ = circle_setup(k)
        ia = arc_indices(mu, 0.0, np.pi / 2)
        ib = arc_indices(mu, np.pi, 3 * np.pi / 2)
        val = bergman_mass(bs, mu, ia, ib)
        assert 0 < val < 0.01


def _oracle_case(name):
    """(basis, measure, Phi): Phi holds the basis values on the measure's
    nodes, from the cached node values where the basis was built on that
    measure and from the recurrence elsewhere."""
    def own(mu, d):
        bs = orthonormalize(mu, WeightedSpace(d, tensor_power=d + 1))
        return bs, mu, bs.node_values / np.sqrt(mu.weights)[:, None]

    if name == "circle":
        return own(circle_lebesgue(256), 63)
    if name == "interval":
        return own(interval_lebesgue(256), 63)
    if name == "tilted-circle":
        return own(scale_by(circle_lebesgue(256), lambda z: np.cos(np.angle(z) - 0.4)), 47)
    if name == "from-points":
        rng = np.random.default_rng(11)
        radius, angle = np.sqrt(rng.uniform(0.0, 1.0, 300)), rng.uniform(0.0, 2 * np.pi, 300)
        nodes = radius * np.exp(1j * angle)
        return own(from_points(nodes, rng.uniform(0.5, 1.5, 300) / 300), 20)
    if name == "other-measure":
        mu = circle_lebesgue(256)
        bs = orthonormalize(mu, WeightedSpace(31, tensor_power=32))
        mu2 = scale_by(mu, lambda z: 0.7 * np.sin(np.angle(z)))
        return bs, mu2, evaluate_basis(bs, mu2.nodes)
    # 2500 rows: two whole blocks of 1024 and a partial one
    return own(circle_lebesgue(2500), 99)


def _oracle_abs2(kern):
    return kern.real * kern.real + kern.imag * kern.imag


def _f(z):
    return z.real + 0.5


def _g(z):
    return z.real ** 2 + z.imag


class TestTableOracles:
    """The masses from the basis rows against the dense m x m table route
    they replace: K = Phi Phi^*, w[A] @ |K[A,B]|^2 @ w[B]."""

    @pytest.fixture(scope="class", params=["circle", "interval", "tilted-circle",
                                           "from-points", "other-measure", "circle-2500"])
    def case(self, request):
        bs, mu, phi = _oracle_case(request.param)
        return bs, mu, phi, phi @ phi.conj().T

    def test_bergman_mass(self, case):
        bs, mu, _, kern = case
        m, w = len(mu), mu.weights
        rng = np.random.default_rng(m)
        regions = [(np.arange(m), np.arange(0, m, 3)),
                   (np.arange(m // 3), np.arange(m // 2, m)),
                   (rng.choice(m, m // 2, replace=False), rng.choice(m, m // 3, replace=False))]
        for ia, ib in regions:
            want = float(w[ia] @ _oracle_abs2(kern[np.ix_(ia, ib)]) @ w[ib]) / bs.dimension
            got = bergman_mass(bs, mu, ia, ib)
            assert abs(got - want) <= 1e-13 * want

    def test_pushforward_residual(self, case):
        bs, mu, phi, kern = case
        w = mu.weights
        row = _oracle_abs2(kern) @ w
        diag = np.einsum("ai,ai->a", phi, phi.conj()).real
        want = float(np.max(np.abs(row - diag) / np.maximum(1.0, diag)))
        assert abs(pushforward_residual(bs, mu) - want) <= 1e-13 * max(1.0, want)
        q = phi * np.sqrt(w)[:, None]
        got = _backend.row_weighted_sumsq(q, w)
        assert np.max(np.abs(got - row) / row) <= 1e-13

    def test_defect_kernel_bound(self, case):
        bs, mu, _, kern = case
        w, f, g = mu.weights, _f(mu.nodes), _g(mu.nodes)
        acc = 0.0
        for a in range(len(mu)):
            d = g[a] - g
            acc += (f[a] * f[a] * w[a]) * float((d * d * _oracle_abs2(kern[a])) @ w)
        want = float(np.sqrt(acc / bs.dimension))
        assert abs(defect_kernel_bound(bs, mu, _f, _g) - want) <= 1e-13 * want

    def test_constant_symbol_gives_exact_zero(self, case):
        bs, mu, _, _ = case
        assert defect_kernel_bound(bs, mu, _f, sym_one) == 0.0

    def test_empty_regions_give_zero(self, case):
        bs, mu, _, _ = case
        none, some = np.array([], dtype=int), np.arange(4)
        assert bergman_mass(bs, mu, none, some) == 0.0
        assert bergman_mass(bs, mu, some, none) == 0.0

    @pytest.mark.parametrize("k", [16, 64, 256])
    @pytest.mark.parametrize("setup", [circle_setup, interval_setup])
    def test_default_regions_up_to_k_256(self, setup, k):
        mu, bs, table = setup(k)
        if mu.support_tag == "circle":
            ia, ib = arc_indices(mu, 0.0, np.pi / 2), arc_indices(mu, np.pi, 3 * np.pi / 2)
        else:
            ia, ib = interval_indices(mu, -0.9, -0.3), interval_indices(mu, 0.3, 0.9)
        w = mu.weights
        want = float(w[ia] @ _oracle_abs2(table.values[np.ix_(ia, ib)]) @ w[ib]) / k
        assert abs(bergman_mass(bs, mu, ia, ib) - want) <= 1e-13 * want

    def test_quarter_arc_mass_allocates_no_table(self):
        # the m x m table alone would be 256 MiB here
        mu = circle_lebesgue(4096)
        bs = orthonormalize(mu, WeightedSpace(255, tensor_power=256))
        ia, ib = arc_indices(mu, 0.0, np.pi / 2), arc_indices(mu, np.pi, 3 * np.pi / 2)
        tracemalloc.start()
        try:
            assert bergman_mass(bs, mu, ia, ib) > 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


_MEASURES = {"circle": circle_lebesgue, "interval": interval_lebesgue, "arcsine": arcsine}


def _q_route(bs, mu, ia, ib):
    """The mass by the Q route, ||Q_A Q_B^*||_F^2 / n."""
    return _backend.pair_mass(weighted_rows(bs, mu), ia, ib) / bs.dimension


@pytest.fixture
def pair_mass_calls(monkeypatch):
    """The list of _backend.pair_mass calls made while a test runs."""
    calls, original = [], _backend.pair_mass

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(_backend, "pair_mass", counted)
    return calls


class TestChristoffelDarbouxRoute:
    """bergman_mass on disjoint sets of a structured basis's own nodes takes
    the Christoffel-Darboux route, with no call to _backend.pair_mass; it
    must match the Q route to 1e-13 relative.  Every other case must take
    the Q route."""

    def check_cd(self, bs, mu, ia, ib, calls):
        got = bergman_mass(bs, mu, ia, ib)
        assert not calls, "expected the Christoffel-Darboux route"
        want = _q_route(bs, mu, ia, ib)
        assert want > 0.0
        assert abs(got - want) <= 1e-13 * want

    def check_q(self, bs, mu, ia, ib, calls):
        got = bergman_mass(bs, mu, ia, ib)
        assert len(calls) == 1, "expected the Q route"
        assert got == _q_route(bs, mu, ia, ib)

    @pytest.mark.parametrize("k", [16, 64, 256, 1024])
    @pytest.mark.parametrize("name", ["circle", "interval", "arcsine"])
    def test_default_regions(self, name, k, pair_mass_calls):
        mu = _MEASURES[name](max(4 * k, 256))
        bs = orthonormalize(mu, WeightedSpace(k - 1, tensor_power=k))
        if name == "circle":
            ia, ib = arc_indices(mu, 0.0, np.pi / 2), arc_indices(mu, np.pi, 3 * np.pi / 2)
        else:
            ia, ib = interval_indices(mu, -0.9, -0.3), interval_indices(mu, 0.3, 0.9)
        self.check_cd(bs, mu, ia, ib, pair_mass_calls)

    @pytest.mark.parametrize("name", ["circle", "interval"])
    def test_touching_regions(self, name, pair_mass_calls):
        mu = _MEASURES[name](1024)
        bs = orthonormalize(mu, WeightedSpace(255, tensor_power=256))
        if name == "circle":
            ia, ib = arc_indices(mu, 0.0, 1.0), arc_indices(mu, 1.0, 2.0)
        else:
            ia, ib = interval_indices(mu, -0.9, 0.0), interval_indices(mu, 0.0, 0.9)
        self.check_cd(bs, mu, ia, ib, pair_mass_calls)

    @pytest.mark.parametrize("name", ["circle", "interval", "arcsine"])
    def test_even_against_odd_nodes(self, name, pair_mass_calls):
        mu = _MEASURES[name](512)
        bs = orthonormalize(mu, WeightedSpace(127, tensor_power=128))
        self.check_cd(bs, mu, np.arange(0, 512, 2), np.arange(1, 512, 2), pair_mass_calls)

    @pytest.mark.parametrize("case", ["tilted-circle", "weighted-circle", "weighted-interval"])
    def test_tilt_and_metric_weight(self, case, pair_mass_calls):
        phi = lambda z: 0.3 * np.cos(np.angle(z)) + 0.2 * z.real ** 2
        if case == "tilted-circle":
            mu = scale_by(circle_lebesgue(512), lambda z: np.cos(np.angle(z) - 0.4))
            space = WeightedSpace(63, tensor_power=64)
        else:
            mu = (circle_lebesgue if case == "weighted-circle" else interval_lebesgue)(512)
            space = WeightedSpace(63, tensor_power=4, metric_weight=phi)
        bs = orthonormalize(mu, space)
        half = np.arange(200)
        self.check_cd(bs, mu, half, half + 256, pair_mass_calls)

    def test_overlapping_sets(self, pair_mass_calls, monkeypatch):
        # the shared node is found by the mask, before any Christoffel-Darboux
        # entry is formed
        def no_cd_sum(*args):
            raise AssertionError("the Christoffel-Darboux sum ran on overlapping sets")

        monkeypatch.setattr(kernel, "_cd_pair_sum", no_cd_sum)
        mu, bs, _ = circle_setup(64)
        self.check_q(bs, mu, np.arange(0, 100), np.arange(99, 200), pair_mass_calls)

    def test_full_arnoldi_basis(self, pair_mass_calls):
        rng = np.random.default_rng(5)
        k = 128
        mu = from_points(rng.uniform(-1.0, 1.0, 4 * k), np.full(4 * k, 1.0 / (4 * k)))
        bs = orthonormalize(mu, WeightedSpace(k - 1, tensor_power=k))
        # Lanczos lost orthogonality on these atoms, and full Arnoldi filled H
        assert bs.szego_c is None and np.any(np.triu(bs.hessenberg, 2))
        self.check_q(bs, mu, np.arange(0, 200), np.arange(300, 512), pair_mass_calls)

    def test_basis_on_another_measure(self, pair_mass_calls):
        mu = circle_lebesgue(256)
        bs = orthonormalize(mu, WeightedSpace(31, tensor_power=32))
        mu2 = scale_by(mu, lambda z: 0.7 * np.sin(np.angle(z)))
        self.check_q(bs, mu2, np.arange(0, 64), np.arange(128, 192), pair_mass_calls)

    @pytest.mark.parametrize("setup", [circle_setup, interval_setup])
    def test_dimension_one(self, setup, pair_mass_calls):
        mu, bs, _ = setup(1)
        self.check_q(bs, mu, np.arange(0, 64), np.arange(128, 192), pair_mass_calls)

    def test_repeated_node(self, pair_mass_calls):
        # a node in A repeated in B has K[a, b] = K[a, a], which the
        # Christoffel-Darboux quotient leaves as 0/0
        x = interval_lebesgue(64).nodes.real
        mu = from_points(np.append(x, x[10]), np.full(65, 1.0 / 65))
        bs = orthonormalize(mu, WeightedSpace(15, tensor_power=16))
        with np.errstate(all="raise"):
            got = bergman_mass(bs, mu, np.arange(0, 32), np.arange(32, 65))
        assert np.isfinite(got) and len(pair_mass_calls) == 1
        assert got == _q_route(bs, mu, np.arange(0, 32), np.arange(32, 65))

    def test_quarter_arcs_at_k_1024_take_under_64_mib(self):
        mu = circle_lebesgue(16384)
        bs = orthonormalize(mu, WeightedSpace(1023, tensor_power=1024))
        ia, ib = arc_indices(mu, 0.0, np.pi / 2), arc_indices(mu, np.pi, 3 * np.pi / 2)
        tracemalloc.start()
        try:
            assert bergman_mass(bs, mu, ia, ib) > 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


class TestMassIndexValidation:
    @pytest.mark.parametrize("bad", [[-1], [0.9], [256], [True], [[0, 300]], ["0"]])
    def test_rejects_an_index_outside_the_nodes(self, bad):
        mu, bs, _ = circle_setup(8)
        with pytest.raises(ValueError, match="node indices"):
            bergman_mass(bs, mu, bad, [0])
        with pytest.raises(ValueError, match="node indices"):
            bergman_mass(bs, mu, [0], bad)

    @pytest.mark.parametrize("empty", [[], (), np.array([], dtype=int), np.zeros((0, 2))])
    def test_empty_sequences_give_zero(self, empty):
        mu, bs, _ = circle_setup(8)
        assert bergman_mass(bs, mu, empty, np.arange(4)) == 0.0
        assert bergman_mass(bs, mu, np.arange(4), empty) == 0.0


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
        mu, bs, _ = circle_setup(16, m=64)
        assert pushforward_residual(bs, mu) <= 1e-10

    def test_interval_with_exact_quadrature(self):
        mu, bs, _ = interval_setup(20, m=64)
        assert pushforward_residual(bs, mu) <= 1e-9

    def test_discrete_measure_is_algebraically_exact(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=7) + 1j * rng.normal(size=7)
        mu = from_points(pts, rng.uniform(0.5, 1.5, size=7))
        bs = orthonormalize(mu, WeightedSpace(4))
        assert pushforward_residual(bs, mu) <= 1e-10


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

    @pytest.mark.parametrize("name", ["circle", "tilted-interval", "interval", "json-circle"])
    def test_blocks_give_the_whole_grid_maximum(self, monkeypatch, name):
        # 2560 grid points in blocks of 1024, with the peak moved to point
        # 1023, the last of the first block, and pushed 5% off the support
        # so that it stands out of the flat circle kernel
        bs, grid, rtol = _bm_case(name, 40, m=320)
        band = 1 if bs.szego_c is not None else _backend._band(bs.hessenberg)[1]
        monkeypatch.setattr(_backend, "_WINDOW_ENTRIES", 1024 * min(40, band + _backend._SLACK))
        peak = int(np.argmax(_dense_bm_sums(bs, grid)))
        grid[[peak, 1023]] = grid[[1023, peak]]
        grid[1023] *= 1.05
        diag = _dense_bm_sums(bs, grid)
        assert int(np.argmax(diag)) == 1023
        assert abs(bm_constant(bs, grid) - diag[1023]) <= rtol * diag[1023]

    def test_interval_peak_sits_at_endpoints(self):
        # sup of the diagonal kernel for Lebesgue dx is sum (2i+1)/2 = k^2/2
        k = 16
        mu, bs, _ = interval_setup(k)
        got = bm_constant(bs, default_eval_grid(mu))
        assert abs(got - k * k / 2.0) <= 1e-9 * k * k


def _dense_bm_sums(bs, grid):
    """The oracle: B_k(x, x) at every grid point, summed over the rows of
    the dense evaluate_basis matrix."""
    phi = evaluate_basis(bs, grid)
    return np.einsum("ai,ai->a", phi, phi.conj()).real


_BM_MEASURES = {
    "circle": circle_lebesgue,
    "interval": interval_lebesgue,
    "arcsine": arcsine,
    "tilted-interval": lambda m: scale_by(interval_lebesgue(m), lambda z: 2.0 * z.real),
}


def _bm_case(name, k, m=None):
    """(basis, grid, rtol) on m nodes, by default max(4 k, 256).  rtol is 0
    where the running sum repeats the oracle's arithmetic: the Szego step,
    and the three-term step, which on real grids runs in float64 on the
    same products."""
    space = WeightedSpace(k - 1, tensor_power=k)
    m = m or max(4 * k, 256)
    if name in _BM_MEASURES:
        mu = _BM_MEASURES[name](m)
        return orthonormalize(mu, space), default_eval_grid(mu), 0.0
    if name in ("metric-interval", "metric-circle"):
        # the scale is folded into the start of the recurrence, not applied
        # to its columns
        mu = interval_lebesgue(m) if name == "metric-interval" else circle_lebesgue(m)
        space = WeightedSpace(k - 1, tensor_power=k, metric_weight=lambda z: 0.25 * z.real ** 2)
        return orthonormalize(mu, space), default_eval_grid(mu), 1e-13
    if name == "from-points":
        rng = np.random.default_rng(11)
        radius, angle = np.sqrt(rng.uniform(0.0, 1.0, 300)), rng.uniform(0.0, 2 * np.pi, 300)
        bs = orthonormalize(from_points(radius * np.exp(1j * angle),
                                        rng.uniform(0.5, 1.5, 300) / 300), space)
        assert bs.szego_c is None and np.count_nonzero(bs.hessenberg[0]) > 3
        grid = 1.1 * np.sqrt(rng.uniform(0.0, 1.0, 8 * 300)) * np.exp(
            1j * rng.uniform(0.0, 2 * np.pi, 8 * 300))
        return bs, grid, 1e-13
    # a circle basis loaded from JSON: full H and no szego_c
    mu = circle_lebesgue(m)
    bs = OrthonormalBasis.from_json(orthonormalize(mu, space).to_json())
    assert bs.szego_c is None
    return bs, default_eval_grid(mu), 1e-13


class TestBmRunningSum:
    """bm_constant's running sum against the dense evaluate_basis oracle."""

    @pytest.mark.parametrize("k", [1, 2, 16, 256])
    @pytest.mark.parametrize("name", ["circle", "interval", "arcsine"])
    def test_equals_dense_oracle(self, name, k):
        bs, grid, rtol = _bm_case(name, k)
        want = float(np.max(_dense_bm_sums(bs, grid)))
        assert abs(bm_constant(bs, grid) - want) <= rtol * want

    @pytest.mark.parametrize("name", ["tilted-interval", "metric-interval", "metric-circle",
                                      "from-points", "json-circle"])
    def test_equals_dense_oracle_on_other_bases(self, name):
        bs, grid, rtol = _bm_case(name, 21)
        want = _dense_bm_sums(bs, grid)
        got = _backend.eval_recurrence(np.ascontiguousarray(grid, dtype=complex),
                                       bs.space.weight_scale(grid), bs.const_norm,
                                       bs.hessenberg, bs.szego_c, diagonal=True)
        assert np.max(np.abs(got - want) / want) <= rtol
        assert abs(bm_constant(bs, grid) - np.max(want)) <= rtol * np.max(want)

    @pytest.mark.parametrize("name", ["circle", "interval", "tilted-interval", "metric-interval",
                                      "metric-circle", "from-points", "json-circle"])
    def test_bit_identical_to_backend_call(self, name):
        bs, grid, _ = _bm_case(name, 21)
        pts = np.ascontiguousarray(grid, dtype=complex)
        want = _backend.eval_recurrence(pts, bs.space.weight_scale(pts), bs.const_norm,
                                        bs.hessenberg, bs.szego_c, diagonal=True)
        sums = diagonal_kernel(bs, grid)
        assert sums.tobytes() == want.tobytes()
        assert np.float64(bm_constant(bs, grid)).tobytes() == np.max(want).tobytes()

    @pytest.mark.parametrize("entries", [None, 9 * 1024], ids=["one-block", "blocks"])
    @pytest.mark.parametrize("at", [0, 1500])
    def test_nan_on_the_grid_gives_nan(self, monkeypatch, entries, at):
        mu = circle_lebesgue(256)
        bs = orthonormalize(mu, WeightedSpace(63, tensor_power=64))
        if entries:
            monkeypatch.setattr(_backend, "_WINDOW_ENTRIES", entries)
        grid = default_eval_grid(mu)
        grid[at] = np.nan
        assert np.isnan(bm_constant(bs, grid))

    def test_nan_on_the_grid_of_a_metric_weight_raises(self):
        # the metric weight must be finite at every grid point
        bs, grid, _ = _bm_case("metric-circle", 8)
        grid[5] = np.nan
        with pytest.raises(ValueError, match="metric_weight must be finite"):
            bm_constant(bs, grid)

    def test_empty_grid_is_minus_infinity(self):
        mu, bs, _ = circle_setup(8)
        assert bm_constant(bs, np.array([], dtype=complex)) == -np.inf
        assert bm_constant(OrthonormalBasis.from_json(bs.to_json()), []) == -np.inf

    def test_full_hessenberg_memory_is_one_window(self, monkeypatch):
        # a full H on a grid of 8 m points: the (grid, n) matrix would take
        # 8 MiB, one window of 256 points 512 KiB
        mu = circle_lebesgue(512)
        bs = OrthonormalBasis.from_json(
            orthonormalize(mu, WeightedSpace(127, tensor_power=128)).to_json())
        monkeypatch.setattr(_backend, "_WINDOW_ENTRIES", 256 * 128)
        grid = default_eval_grid(mu)
        tracemalloc.start()
        try:
            got = bm_constant(bs, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(got - 128.0) <= 1e-10
        assert peak < 2 ** 20


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

    # (0, inf) took all 64 nodes with a RuntimeWarning, (nan, 1) took the
    # 11 nodes of [0, 1), and (nan, 0) on the interval took none
    @pytest.mark.parametrize("select,lo,hi", [
        (arc_indices, 0.0, np.inf), (arc_indices, np.nan, 1.0), (interval_indices, np.nan, 0.0),
    ], ids=["arc-inf", "arc-nan", "interval-nan"])
    def test_nonfinite_bound_rejected(self, select, lo, hi):
        mu = circle_lebesgue(64) if select is arc_indices else interval_lebesgue(64)
        with pytest.raises(ValueError, match="region bounds must be finite"):
            select(mu, lo, hi)


class TestExports:
    def test_heatmap_csv(self, tmp_path):
        for setup, m in [(circle_setup, 8), (circle_setup, 64),
                         (interval_setup, 8), (interval_setup, 64)]:
            _, _, table = setup(4, m=m)
            path = write_heatmap_csv(table, tmp_path / "hm.csv")
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["a", "b", "re", "im", "abs2"]
            assert len(rows) == 1 + m * m
            ab = np.array([[int(r[0]), int(r[1])] for r in rows[1:]])
            a, b = np.divmod(np.arange(m * m), m)
            np.testing.assert_array_equal(ab, np.column_stack([a, b]))
            re, im, abs2 = np.array([[float(v) for v in r[2:]] for r in rows[1:]]).T
            np.testing.assert_array_equal(re, table.values.real.ravel())
            np.testing.assert_array_equal(im, table.values.imag.ravel())
            np.testing.assert_array_equal(abs2, re * re + im * im)

    def test_heatmap_csv_is_streamed(self, tmp_path):
        # O(m) text per write: neither the file nor an m x m string cache
        # may be held, while the file itself is ~18 MB
        _, _, table = circle_setup(128, m=512)
        tracemalloc.start()
        try:
            path = write_heatmap_csv(table, tmp_path / "hm.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert path.stat().st_size > 16e6

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
