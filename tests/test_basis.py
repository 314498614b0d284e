import ast
import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import cdlab
from cdlab import (
    QuadratureMeasure,
    RankDeficientError,
    WeightedSpace,
    arc_indices,
    arcsine,
    bergman_mass,
    bm_constant,
    circle_lebesgue,
    default_eval_grid,
    evaluate_basis,
    from_points,
    interval_indices,
    interval_lebesgue,
    kernel_table,
    orthonormalize,
    scale_by,
    toeplitz,
)
from cdlab import symbols
from cdlab._backend import eval_recurrence
from cdlab import basis as basis_module
from cdlab.basis import _arnoldi, _Probe, _probe_tol, _szego
from recurrence_forms import full_band, hessenberg

SQRT_HALF = 0.7071067811865476      # 1/sqrt(2), hand Gram-Schmidt on {1, x}
SQRT_3_OVER_2 = 1.224744871391589   # sqrt(3/2)


def ortho_residual(basis, mu):
    phi = evaluate_basis(basis, mu.nodes)
    gram = (phi.conj().T * mu.weights) @ phi
    return np.max(np.abs(gram - np.eye(basis.dimension)))


def node_defect(q):
    """max |Q*Q - I|, the dense reference (NaN if Q holds a NaN)."""
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
        sub = np.diag(hessenberg(bs), -1)
        assert np.all(sub.imag == 0)
        assert np.all(sub.real > 0)
        assert bs.const_norm > 0
        assert np.all(np.tril(hessenberg(bs), -2) == 0)

    def test_basis_independent_of_tensor_power_without_weight(self):
        mu = interval_lebesgue(32)
        b1 = orthonormalize(mu, WeightedSpace(6, tensor_power=1))
        b7 = orthonormalize(mu, WeightedSpace(6, tensor_power=7))
        np.testing.assert_allclose(hessenberg(b1), hessenberg(b7), rtol=1e-14)
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

    def test_recurrence_matches_legendre_coefficients(self):
        mu = interval_lebesgue(512)
        bs = orthonormalize(mu, WeightedSpace(63, tensor_power=64))
        sub = np.real(np.diag(hessenberg(bs), -1))
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
        full = _arnoldi(mu.nodes, row_scale, n, window=n)
        np.testing.assert_allclose(bs.node_values, full.q, rtol=0, atol=1e-12)
        np.testing.assert_allclose(full_band(hessenberg(bs)), full.coef, rtol=0, atol=1e-12)
        np.testing.assert_allclose(bs.h_sub, full.sub, rtol=0, atol=1e-12)
        assert bs.const_norm == pytest.approx(full.h0, rel=1e-14)
        # the structured route's result was kept, not the full fallback;
        # on real nodes that route runs on the real parts
        if mu.support_tag == "circle":
            route = _szego(mu.nodes, row_scale, n)
        else:
            route = _arnoldi(np.ascontiguousarray(mu.nodes.real), row_scale, n, window=2)
        for kept, built in ((bs.h_sub, route.sub), (bs.coef, route.coef)):
            np.testing.assert_array_equal(kept, built)

    @pytest.mark.parametrize("make_mu", [interval_lebesgue, arcsine])
    def test_gauss_rule_bases_are_tridiagonal(self, make_mu):
        # the basis keeps the band only; Q* X Q vanishes above it
        mu = make_mu(256)
        bs = orthonormalize(mu, WeightedSpace(63, tensor_power=64))
        q = bs.node_values
        assert bs.route == "three_term" and bs.coef.shape == (2, 64)
        assert np.max(np.abs(np.triu(q.T @ (mu.nodes.real[:, None] * q), 2))) <= 1e-14

    def test_lanczos_loss_of_orthogonality_falls_back(self):
        mu = random_atoms(0, 128)
        q = _arnoldi(mu.nodes, np.sqrt(mu.weights), 115, window=2)[0]
        assert node_defect(q) > 1e-3
        assert node_defect(orthonormalize(mu, WeightedSpace(114)).node_values) <= 1e-14

    def test_szego_off_the_circle_falls_back(self):
        mu = off_circle_measure()
        q = _szego(mu.nodes, np.sqrt(mu.weights), 41)[0]
        assert node_defect(q) > 1e-13
        assert node_defect(orthonormalize(mu, WeightedSpace(40)).node_values) <= 1e-14

    def test_szego_overflow_falls_back(self):
        # under exp(-256 * 0.3 cos^2) the Szego columns overflow to NaN; the
        # certificate must reject them, not read the NaN defect as 0
        mu = circle_lebesgue(1024)
        space = WeightedSpace(255, tensor_power=256,
                              metric_weight=lambda z: 0.3 * np.real(z) ** 2)
        row_scale = np.sqrt(mu.weights) * space.weight_scale(mu.nodes)
        with np.errstate(all="ignore"):
            q = _szego(mu.nodes, row_scale, 256)[0]
        assert not np.all(np.isfinite(q))
        bs = orthonormalize(mu, space)
        assert bs.route == "hessenberg"
        assert node_defect(bs.node_values) <= 1e-14

    def test_circle_breakdown_is_rank_deficient(self):
        # 8 roots of unity support degree 7 at most: z^8 == 1 on the nodes
        mu = circle_lebesgue(8)
        with pytest.raises(RankDeficientError):
            _szego(mu.nodes, np.sqrt(mu.weights), 9)
        with pytest.raises(RankDeficientError):
            orthonormalize(mu, WeightedSpace(8))


RULES = {"circle": circle_lebesgue, "interval": interval_lebesgue, "arcsine": arcsine}


def case_route(case, d=63):
    """The structured build of a case of STRUCTURED_CASES on 4 (d + 1)
    nodes, with Q stored: Lanczos on real nodes, Szego on the circle."""
    mu, _, row_scale = structured_setup(case, d)
    route = "szego" if mu.support_tag == "circle" else "three_term"
    return basis_module._run_route(route, mu.nodes, row_scale, d + 1, store_q=True)


def probe_accepts(route):
    return route.probe <= _probe_tol(route.sub.shape[0] + 1)


def gram_accepts(route):
    return node_defect(route.q) <= 1e-13


def streamed_probe(q):
    """The probe fed the columns of q in order, as a build forms them."""
    probe = _Probe(*q.shape, q.dtype)
    for j in range(q.shape[1]):
        probe.add(q[:, j])
    return probe.defect


def spoiled(route, j, eps, i=0):
    """A copy of the stored route whose column j picked up eps q_i after
    its step, its probe streamed over the spoiled columns: the coefficients
    are untouched, and Q*Q - I reads eps at (i, j)."""
    q = route.q.copy(order="F")
    q[:, j] += eps * q[:, i]
    return route._replace(q=q, probe=streamed_probe(q))


def recorded_builds(monkeypatch):
    """Record each structured build cdlab.basis runs, as (store_q, _Build)."""
    calls, real = [], basis_module._run_route

    def run(route, nodes, row_scale, n, store_q):
        calls.append((store_q, real(route, nodes, row_scale, n, store_q=store_q)))
        return calls[-1][1]

    monkeypatch.setattr("cdlab.basis._run_route", run)
    return calls


def one_windowed_build(builds):
    """Whether one structured build ran, holding two columns (no Q stored)."""
    return [store_q for store_q, _ in builds] == [False]


def kept_on_one_build(builds, bs):
    """Whether orthonormalize ran one structured build, holding two columns,
    and kept it as built."""
    return (one_windowed_build(builds) and bs.route != "hessenberg"
            and bs.columns.shape[1] == min(bs.dimension, 2))


# The recurrence of each classical rule in closed form (Gautschi, Orthogonal
# Polynomials: Computation and Approximation, 2004; Simon, OPUC Part 1, 2005).
# On the roots of unity the Szego c_j are 0 and rho_j = h0 = 1.  On both
# Gauss rules a_j = 0: Gauss-Legendre has mass 2, h0 = sqrt(2) and
# b_j = j / sqrt(4 j^2 - 1); Gauss-Chebyshev has mass 1, h0 = 1,
# b_1 = 1/sqrt(2) and b_j = 1/2 after.  m nodes of a rule reproduce it
# through the step past n when m >= n + 2 on the circle (z^m = 1 there) and
# m >= n + 1 on the Gauss rules (exact to degree 2m - 1).
def closed_form_defect(name, bs):
    """max |kept number - closed form| of a basis on the rule's nodes.

    Szego: h0 = 1, the n + 1 c_j = 0 (c_{n-1} and c_n those of the step
    past n), rho_j = 1, and the step past n |r|^2 = 1.  Lanczos: h0, a_j =
    diag(H), b_j on both off-diagonals of H (the norms, and the projections
    above), and |r|^2 = b_n^2.
    """
    if name == "circle":
        devs = (bs.coef, bs.h_sub - 1.0, (bs.const_norm - 1.0, bs.residual_sq - 1.0))
    else:
        j = np.arange(1.0, bs.dimension + 1)
        if name == "interval":
            h0, b = np.sqrt(2.0), j / np.sqrt(4.0 * j * j - 1.0)
        else:
            h0, b = 1.0, np.where(j == 1.0, np.sqrt(0.5), 0.5)
        tail = b[-1] ** 2
        devs = (bs.coef[1], bs.h_sub - b[:-1], bs.coef[0, 1:] - b[:-1],
                (bs.const_norm - h0, bs.residual_sq - tail))
    # np.max propagates a NaN, unlike max()
    return float(np.max([np.max(np.abs(d), initial=0.0) for d in devs]))


def random_atoms(seed, m):
    rng = np.random.default_rng(seed)
    return from_points(rng.uniform(-1.0, 1.0, m), rng.uniform(0.5, 1.5, m))


def two_clusters(seed, m=2048):
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.uniform(-1.0, -0.5, m // 2), rng.uniform(0.5, 1.0, m // 2)])
    return from_points(x, rng.uniform(0.5, 1.5, m))


def off_circle_measure():
    """64 roots of unity moved 1e-13 in and out: they pass the circle tag's
    check, but z is no longer an isometry and the Szego columns drift apart."""
    ref = circle_lebesgue(64)
    radial = 1.0 + 1e-13 * np.where(np.arange(64) % 2 == 0, 1.0, -1.0)
    return QuadratureMeasure(ref.nodes * radial, ref.weights, support_tag="circle")


def shrunk_interval():
    """Gauss-Legendre nodes shrunk by 1e-9, still tagged interval."""
    ref = interval_lebesgue(256)
    return QuadratureMeasure(ref.nodes * (1 - 1e-9), ref.weights, support_tag="interval")


# (measure, space) of each case that runs a structured build off the
# classical rules: every tilted, metric-weighted and real from_points
# measure of this module (the complex ones run full Arnoldi only), and
# random atoms, clusters and geometric weights, where Lanczos loses
# orthogonality
PROBE_CASES = {
    **{f"{case}-d={d}": (lambda case=case, d=d: structured_setup(case, d)[:2])
       for case in ("tilted-interval", "tilted-circle", "circle-metric-weight")
       for d in (15, 63, 255)},
    **{f"step-past-n-{name}-m={m}": (lambda name=name, m=m: step_past_n_measure(name, m, 64))
       for name in ("tilted-interval", "tilted-circle", "metric-circle") for m in (65, 256)},
    "heavier-interval": lambda: (scale_by(interval_lebesgue(128),
                                          lambda z: np.full(z.shape, -1e-9)), WeightedSpace(31)),
    "shrunk-interval": lambda: (shrunk_interval(), WeightedSpace(63)),
    "interval-points": lambda: (from_points(interval_lebesgue(128).nodes,
                                            interval_lebesgue(128).weights), WeightedSpace(30)),
    "small-support": lambda: (from_points(1e-3 * interval_lebesgue(512).nodes,
                                          interval_lebesgue(512).weights), WeightedSpace(100)),
    "constant-metric-circle": lambda: (circle_lebesgue(64), WeightedSpace(
        3, tensor_power=2, metric_weight=lambda z: np.full(z.shape, 0.5))),
    "wide-metric-interval": lambda: (interval_lebesgue(256), WeightedSpace(
        3, tensor_power=4, metric_weight=lambda z: 100.0 * z.real ** 2)),
    "overflowing-metric-circle": lambda: (circle_lebesgue(1024), WeightedSpace(
        255, tensor_power=256, metric_weight=lambda z: 0.3 * np.real(z) ** 2)),
    "off-circle": lambda: (off_circle_measure(), WeightedSpace(40)),
    "real-atoms": lambda: (real_atoms(), WeightedSpace(31)),
    "atoms-128": lambda: (random_atoms(0, 128), WeightedSpace(114)),
    "lanczos-fallback": lambda: (lanczos_fallback_measure(), WeightedSpace(127)),
    **{f"atoms-{m}-seed={seed}": (lambda m=m, seed=seed: (random_atoms(seed, m),
                                                          WeightedSpace(255)))
       for m in (300, 1024) for seed in range(3)},
    **{f"two-clusters-seed={seed}": (lambda seed=seed: (two_clusters(seed), WeightedSpace(511)))
       for seed in range(3)},
    "geometric-weights": lambda: (from_points(np.linspace(-1.0, 1.0, 1024),
                                              0.97 ** np.arange(1024)), WeightedSpace(127)),
}
# the cases whose probe reads above tau(n), or NaN, so that full Arnoldi
# builds the basis; the other 19 keep their structured build
FULL_ARNOLDI_CASES = ([f"atoms-{m}-seed={seed}" for m in (300, 1024) for seed in range(3)]
                      + ["atoms-128", "overflowing-metric-circle"]
                      + [f"two-clusters-seed={seed}" for seed in range(3)]
                      + [f"step-past-n-metric-circle-m={m}" for m in (65, 256)]
                      + ["geometric-weights", "lanczos-fallback", "off-circle", "real-atoms"])
# kbench's bases: (rule, k values, nodes per k), at least 256 nodes
KBENCH_SIZES = [("interval", (64, 128, 256, 512), 4), ("circle", (32, 64, 128, 256), 16),
                ("circle", (32, 64, 128, 256, 512), 4), ("arcsine", (64, 128, 256, 512), 4)]


class TestProbeCertificate:
    """A structured build whose streamed O(m n) probe of Q*Q = I reads
    tau(n) or less is kept, whatever the measure; where it reads more, or
    NaN, full Arnoldi builds the basis.  The dense max |Q*Q - I| <= 1e-13
    (the Gram check) and the closed forms of the classical rules are
    oracles of a kept basis, not a gate."""

    def test_tolerance_grows_linearly(self):
        eps = np.finfo(float).eps
        assert _probe_tol(1) == 12 * eps
        assert _probe_tol(4096) == pytest.approx(3.64e-12, rel=1e-2)
        assert _probe_tol(2050) - _probe_tol(1025) == 4 * 1025 * eps

    @pytest.mark.parametrize("n, extra", [(n, extra) for n in (1, 2, 5, 16, 64, 256)
                                          for extra in (2, "4n")] + [(1024, "4n")])
    @pytest.mark.parametrize("name", sorted(RULES))
    def test_agrees_with_the_gram_check(self, name, n, extra, monkeypatch):
        # the rule's basis is kept on its probe, as one build of two
        # columns; the Gram check passes it too, and its numbers match the
        # closed form
        m = 4 * n if extra == "4n" else n + extra
        builds = recorded_builds(monkeypatch)
        bs = orthonormalize(RULES[name](m), WeightedSpace(n - 1))
        assert kept_on_one_build(builds, bs) and bs.columns.shape == (m, min(n, 2))
        assert node_defect(bs.node_values) <= 1e-13
        assert closed_form_defect(name, bs) <= _probe_tol(n)

    @pytest.mark.parametrize("k", [64, 1024, 4096])
    def test_gauss_legendre_passes_with_a_margin_of_ten(self, k, monkeypatch):
        # the rule at m = 4k nodes, as the interval tables build it, up to
        # k = 4096 (m = 16384), holding two columns: Q would be 512 MiB there
        builds = recorded_builds(monkeypatch)
        bs = orthonormalize(interval_lebesgue(4 * k), WeightedSpace(k - 1))
        assert kept_on_one_build(builds, bs) and bs.columns.shape == (4 * k, 2)
        assert closed_form_defect("interval", bs) <= _probe_tol(k) / 10
        assert builds[0][1].probe <= _probe_tol(k) / 10

    @pytest.mark.parametrize("case", sorted(PROBE_CASES))
    def test_probe_never_passes_where_gram_rejects(self, case, monkeypatch):
        # one hashed probe vector has sufficed: were a case found where it
        # passes and Gram rejects, a second vector would be the remedy
        builds = recorded_builds(monkeypatch)
        bs = orthonormalize(*PROBE_CASES[case]())
        if bs.route != "hessenberg":
            # kept on its probe alone: the Gram check passes it too
            assert kept_on_one_build(builds, bs)
            assert node_defect(bs.node_values) <= 1e-13

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_nan_in_the_route_is_rejected_by_all_three(self, name):
        # a NaN at one node spreads to every column, and so to every
        # coefficient, the probe and the Gram check
        mu = RULES[name](256)
        row_scale = np.sqrt(mu.weights)
        row_scale[17] = np.nan
        route = "szego" if name == "circle" else "three_term"
        with np.errstate(invalid="ignore"):
            built = basis_module._run_route(route, mu.nodes, row_scale, 64, store_q=True)
        assert np.isnan(built.h0) and np.all(np.isnan(built.sub))
        assert not probe_accepts(built)
        assert not gram_accepts(built)

    # the three rules and the three measures no closed form fits
    @pytest.mark.parametrize("j", [1, 32, 63])
    @pytest.mark.parametrize("eps", [1e-9, 1e-12])
    @pytest.mark.parametrize("case", sorted(STRUCTURED_CASES))
    def test_lost_orthogonality_is_caught_by_the_probe(self, case, eps, j):
        route = spoiled(case_route(case), j, eps)
        assert not probe_accepts(route)
        assert not gram_accepts(route)

    # column j picks up eps q_i, i >= 1, outside the Lanczos window when
    # i < j - 1; j = 63 is the last column
    @pytest.mark.parametrize("i, j", [(1, 2), (1, 32), (31, 32), (1, 63), (32, 63), (62, 63)])
    @pytest.mark.parametrize("eps", [1e-9, 1e-12])
    @pytest.mark.parametrize("case", sorted(STRUCTURED_CASES))
    def test_lost_orthogonality_to_a_later_column_is_caught(self, case, eps, i, j):
        route = spoiled(case_route(case), j, eps, i)
        assert not probe_accepts(route)
        assert not gram_accepts(route)

    @pytest.mark.parametrize("j", [0, 32, 63])
    @pytest.mark.parametrize("case", sorted(STRUCTURED_CASES))
    def test_lost_normalization_is_caught_by_the_probe(self, case, j):
        # column j scaled by 1 + 1e-9 stays orthogonal to the others: only
        # the probe's diagonal terms | |q_j|^2 - 1 | see it
        route = spoiled(case_route(case), j, 1e-9, i=j)
        assert not probe_accepts(route)
        assert not gram_accepts(route)

    @pytest.mark.parametrize("eps", [1e-9, 1e-12])
    @pytest.mark.parametrize("case", sorted(STRUCTURED_CASES))
    def test_spoiled_route_falls_back_to_full_arnoldi(self, case, eps, monkeypatch):
        # the structured build returns column 32 spoiled by eps: the
        # streamed probe rejects it, and full Arnoldi builds the basis
        real, probes = basis_module._run_route, []

        def spoiled_run(route, nodes, row_scale, n, store_q):
            assert not store_q
            full = spoiled(real(route, nodes, row_scale, n, store_q=True), 32, eps)
            probes.append(full.probe)
            return full._replace(q=full.q[:, -2:])

        monkeypatch.setattr("cdlab.basis._run_route", spoiled_run)
        mu, space, _ = structured_setup(case, 63)
        bs = orthonormalize(mu, space)
        assert len(probes) == 1 and probes[0] > _probe_tol(64)
        assert bs.route == "hessenberg" and bs.coef.shape == (64, 64)
        assert node_defect(bs.node_values) <= 1e-14

    @pytest.mark.parametrize("case", sorted(PROBE_CASES))
    def test_one_structured_build_decides_the_route(self, case, monkeypatch):
        # each case runs one structured build, holding two columns, and its
        # probe alone decides: kept, or full Arnoldi with all n columns
        builds = recorded_builds(monkeypatch)
        mu, space = PROBE_CASES[case]()
        bs = orthonormalize(mu, space)
        n = space.dimension
        assert one_windowed_build(builds)
        assert (bs.route == "hessenberg") == (case in FULL_ARNOLDI_CASES)
        if bs.route != "hessenberg":
            assert bs.columns.shape == (len(mu), min(n, 2))
            return
        assert bs.columns.shape == (len(mu), n)
        # the Gram check of the build with Q stored rejects it too: no basis
        # that passes max |Q*Q - I| <= 1e-13 goes to full Arnoldi
        route = "szego" if np.any(mu.nodes.imag) else "three_term"
        row_scale = np.sqrt(mu.weights) * space.weight_scale(mu.nodes)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            stored = basis_module._run_route(route, mu.nodes, row_scale, n, store_q=True)
        assert not gram_accepts(stored)

    def test_probe_imports_no_random_generator(self):
        # importing numpy.random alone costs a few MiB of resident memory
        code = ("import sys, numpy; eager = 'numpy.random' in sys.modules; "
                "from cdlab import WeightedSpace, circle_lebesgue, interval_lebesgue, "
                "orthonormalize; "
                "[orthonormalize(mk(256), WeightedSpace(63)) "
                "for mk in (circle_lebesgue, interval_lebesgue)]; "
                "print(eager or 'numpy.random' not in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cdlab.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"

    @pytest.mark.parametrize("name, copies", [("circle", 2), ("interval", 2), ("arcsine", 3)])
    def test_breakdown_is_rank_deficient(self, name, copies):
        # the rule's 8 nodes, each repeated: m >= n + 2, but they support
        # degree 7 at most
        ref = RULES[name](8)
        mu = QuadratureMeasure(np.tile(ref.nodes, copies), np.tile(ref.weights, copies) / copies,
                               support_tag=ref.support_tag)
        with pytest.raises(RankDeficientError):
            orthonormalize(mu, WeightedSpace(8))

    def test_off_circle_nodes_are_rejected_by_both(self, monkeypatch):
        # nodes 1e-13 off the circle: the probe reads ~8e-13 against
        # tau(41) = 3.8e-14 and the Gram check ~1.6e-12, so full Arnoldi
        # builds the basis
        mu = off_circle_measure()
        route = _szego(mu.nodes, np.sqrt(mu.weights), 41)
        assert not probe_accepts(route)
        assert not gram_accepts(route)
        builds = recorded_builds(monkeypatch)
        bs = orthonormalize(mu, WeightedSpace(40))
        assert one_windowed_build(builds) and bs.route == "hessenberg"
        assert node_defect(bs.node_values) <= 1e-14

    def test_missed_closed_form_is_kept_by_the_probe(self, monkeypatch):
        # Gauss-Legendre nodes shrunk by 1e-9: b_j misses its closed form by
        # ~5e-10, and the probe keeps the windowed Lanczos build
        builds = recorded_builds(monkeypatch)
        bs = orthonormalize(shrunk_interval(), WeightedSpace(63))
        assert 1e-10 < closed_form_defect("interval", bs) < 1e-9
        assert kept_on_one_build(builds, bs)
        assert bs.route == "three_term" and bs.columns.shape == (256, 2)

    @pytest.mark.parametrize("case, tier", [
        ("tilted-interval", "probe"), ("tilted-circle", "probe"),
        ("circle-metric-weight", "probe"), ("circle-m=n+1", "probe"), ("arcsine-m=n", "probe"),
        ("heavier-interval", "probe"), ("points", "full-arnoldi")])
    def test_which_tier_decides_other_bases(self, case, tier, monkeypatch):
        n = 32
        if case in STRUCTURED_CASES:
            mu, space, _ = structured_setup(case, n - 1)
        elif case == "points":
            # 96 real atoms: the probe reads ~1.9e-12 against tau(32) =
            # 3.0e-14, and the Gram check ~5e-13
            mu, space = real_atoms(), WeightedSpace(n - 1)
        elif case == "heavier-interval":
            # Gauss-Legendre weights times 1 + 1e-9: the recurrence is the
            # same, and only h0 misses the closed form
            mu, space = PROBE_CASES[case]()
        else:
            name, _, extra = case.partition("-m=n")
            mu, space = RULES[name](n + int(extra or 0)), WeightedSpace(n - 1)
        builds = recorded_builds(monkeypatch)
        bs = orthonormalize(mu, space)
        if tier == "probe":
            assert kept_on_one_build(builds, bs) and bs.columns.shape == (len(mu), 2)
        else:
            assert one_windowed_build(builds)
            assert not probe_accepts(builds[0][1]) and bs.route == "hessenberg"

    @pytest.mark.parametrize("name, m", [("interval", 32), ("arcsine", 32), ("circle", 34),
                                         ("interval-points", 128)])
    def test_rule_nodes_need_no_tag(self, name, m, monkeypatch):
        # n + 1 Gauss nodes integrate to degree 2n + 1, enough for the step
        # past n; the circle needs n + 2.  Nodes and weights of a rule handed
        # in as points pass too.
        builds = recorded_builds(monkeypatch)
        mu = RULES[name.partition("-")[0]](m)
        if name.endswith("points"):
            mu = from_points(mu.nodes, mu.weights)
        bs = orthonormalize(mu, WeightedSpace(30))
        assert kept_on_one_build(builds, bs) and bs.columns.shape == (m, 2)
        assert (bs.coef.ndim == 1) == (name == "circle")

    @pytest.mark.parametrize("name, ks, per_k", KBENCH_SIZES)
    def test_rule_bases_need_no_gram_product(self, name, ks, per_k, monkeypatch):
        builds = recorded_builds(monkeypatch)
        for k in ks:
            m = max(per_k * k, 256)
            builds.clear()
            bs = orthonormalize(RULES[name](m), WeightedSpace(k - 1, tensor_power=k))
            assert kept_on_one_build(builds, bs)
            assert (bs.coef.ndim == 1) == (name == "circle")
            assert bs.columns.shape == (m, 2)


class TestKeptColumns:
    """A certified Szego or three-term basis keeps its last two columns;
    Q is built on first read of node_values, by the same build with Q
    stored."""

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 257])
    @pytest.mark.parametrize("case", ["circle", "interval", "arcsine", "tilted-circle",
                                      "tilted-interval", "circle-metric-weight"])
    def test_window_build_equals_the_stored_build(self, case, n):
        # the window changes where columns are held, not the arithmetic:
        # the reports read H, the c_j, the step past n and the last columns
        mu, space, row_scale = structured_setup(case, n - 1)
        run = basis_module._run_route
        route = "szego" if mu.support_tag == "circle" else "three_term"
        window = run(route, mu.nodes, row_scale, n, store_q=False)
        stored = run(route, mu.nodes, row_scale, n, store_q=True)
        assert window.q.shape == (len(mu), min(n, 2)) and stored.q.shape == (len(mu), n)
        assert window.q.tobytes() == stored.q[:, -2:].tobytes()
        for name in ("sub", "coef"):
            assert getattr(window, name).tobytes() == getattr(stored, name).tobytes(), name
        assert (window.h0, window.r_sq, window.probe) == (stored.h0, stored.r_sq, stored.probe)
        # the probe inside the build is the probe fed the columns in order
        assert window.probe == streamed_probe(stored.q)

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_node_values_are_built_on_first_read(self, name):
        mu = RULES[name](256)
        bs = orthonormalize(mu, WeightedSpace(63))
        assert bs.columns.shape == (256, 2) and "node_values" not in vars(bs)
        q = bs.node_values
        assert q is bs.node_values and not q.flags.writeable
        stored = case_route(name).q
        assert q.tobytes() == stored.tobytes() and q.flags.f_contiguous
        assert q[:, -2:].tobytes() == bs.columns.tobytes()

    @pytest.mark.parametrize("make_mu", [circle_lebesgue, interval_lebesgue])
    def test_certified_build_holds_no_q(self, make_mu):
        # n = 1024 on 16384 nodes: H is 16 MiB (complex), Q would be 256 MiB
        mu = make_mu(16384)
        tracemalloc.start()
        try:
            bs = orthonormalize(mu, WeightedSpace(1023))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bs.columns.shape == (16384, 2)
        assert peak < 40 * 2**20, peak / 2**20

    @pytest.mark.parametrize("make_mu", [circle_lebesgue, interval_lebesgue])
    def test_certified_build_keeps_o_n_coefficients(self, make_mu):
        # n = 1024 on 16384 nodes: a dense H would be 16 MiB (complex) or
        # 8 MiB (real); the window, the probe and the work vectors are ~3 MiB
        mu = make_mu(16384)
        tracemalloc.start()
        try:
            bs = orthonormalize(mu, WeightedSpace(1023))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bs.columns.shape == (16384, 2)
        assert peak < 6 * 2**20, peak / 2**20

    def test_tilted_circle_build_holds_no_q(self, monkeypatch):
        # n = 1024 on 4096 nodes of a tilted circle, which no closed form
        # fits: the probe certifies the windowed build, so Q (64 MiB) is
        # never formed
        builds = recorded_builds(monkeypatch)
        mu, space, _ = structured_setup("tilted-circle", 1023)
        tracemalloc.start()
        try:
            bs = orthonormalize(mu, space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept_on_one_build(builds, bs) and bs.columns.shape == (4096, 2)
        assert peak < 6 * 2**20, peak / 2**20

    @pytest.mark.parametrize("name", ["circle", "interval"])
    def test_recurrence_consumers_never_build_q(self, name, monkeypatch):
        mu = RULES[name](512)
        bs = orthonormalize(mu, WeightedSpace(127, tensor_power=128))

        def rerun(*args, **kwargs):
            raise AssertionError("a build ran again")

        monkeypatch.setattr("cdlab.basis._szego", rerun)
        monkeypatch.setattr("cdlab.basis._arnoldi", rerun)
        if name == "circle":
            ia, ib = arc_indices(mu, 0.0, np.pi / 2), arc_indices(mu, np.pi, 1.5 * np.pi)
        else:
            ia, ib = interval_indices(mu, -1.0, -0.5), interval_indices(mu, 0.5, 1.0)
        assert 0.0 < bergman_mass(bs, mu, ia, ib) < 1.0
        assert toeplitz(bs, mu, symbols.sym_x2).entries.shape == (128, 128)
        assert bm_constant(bs, default_eval_grid(mu)) > 0.0
        assert "node_values" not in vars(bs)


def step_past_n_measure(name, m, n):
    """(measure, space): n columns on m nodes."""
    space = WeightedSpace(n - 1, tensor_power=n)
    if name == "circle":
        mu = circle_lebesgue(m)
    elif name == "tilted-circle":
        mu = scale_by(circle_lebesgue(m), lambda z: np.cos(np.angle(z) - 0.4) + 1.1)
    elif name == "interval":
        mu = interval_lebesgue(m)
    elif name == "tilted-interval":
        mu = scale_by(interval_lebesgue(m), lambda z: 1.5 * z.real + 1.6)
    elif name == "arcsine":
        mu = arcsine(m)
    elif name == "metric-circle":
        mu = circle_lebesgue(m)
        space = WeightedSpace(n - 1, tensor_power=n, metric_weight=lambda z: 0.3 * z.real ** 2)
    else:
        # complex atoms in the disk: full Arnoldi
        rng = np.random.default_rng(m + n)
        nodes = np.sqrt(rng.uniform(0.0, 1.0, m)) * np.exp(2j * np.pi * rng.uniform(size=m))
        mu = from_points(nodes, rng.uniform(0.5, 1.5, m) / m)
    return mu, space


def step_past_n_case(name, m, n):
    """(basis, measure): n columns on m nodes."""
    mu, space = step_past_n_measure(name, m, n)
    return orthonormalize(mu, space), mu


def q_based_step(bs, mu):
    """The oracle: the step past n from Q and the nodes, O(m n) each.
    T(z)[:, n-1] = Q*(z q_{n-1}), r = z q_{n-1} - Q T(z)[:, n-1], |r|^2,
    and on circle nodes |r|^2 c_n, c_n = <phi_n^*, z phi_n> the Szego
    coefficient of phi_n = r / |r|: with phi_n^*(z) = z^n conj(phi_n(z)) on
    |z| = 1, and the row scale real, |r|^2 c_n = sum_a conj(z_a)^n z_a r_a^2
    (None off the circle)."""
    q = bs.node_values
    z = mu.nodes if np.iscomplexobj(q) else mu.nodes.real
    zq = z * q[:, -1]
    last = q.conj().T @ zq
    r = zq - q @ last
    n = q.shape[1]
    scaled_c_n = np.sum(np.conj(z) ** n * z * r * r) if mu.support_tag == "circle" else None
    return last, np.vdot(r, r).real, scaled_c_n


class TestStepPastN:
    """Each route runs one step past n: H is the whole T(z), and the basis
    keeps |r|^2 of the unnormalized residual r; a Szego basis keeps the
    c_n of phi_n = r / |r| too, which the CMV T(z^2) reads."""

    @pytest.mark.parametrize("n", [1, 8, 64])
    @pytest.mark.parametrize("extra", [0, 1, "4n"])
    @pytest.mark.parametrize("name", ["circle", "tilted-circle", "interval", "tilted-interval",
                                      "arcsine", "metric-circle", "points-disk"])
    def test_route_tail_equals_q_based_formulas(self, name, extra, n):
        if name == "points-disk" and n == 64:
            n = 24      # 64 random atoms in the disk do not support degree 63
        m = 4 * n if extra == "4n" else n + extra
        bs, mu = step_past_n_case(name, m, n)
        if name == "points-disk":
            assert bs.route == "hessenberg" and np.iscomplexobj(bs.coef)
        last, r_sq, scaled_c_n = q_based_step(bs, mu)
        h = hessenberg(bs)
        scale = max(1.0, float(np.max(np.abs(h))))
        assert np.max(np.abs(h[:, -1] - last)) <= 1e-14 * scale
        assert abs(bs.residual_sq - r_sq) <= 1e-14 * scale ** 2
        if bs.route == "szego":
            assert bs.coef.shape == (n + 1,)
            assert abs(bs.residual_sq * bs.coef[n] - scaled_c_n) <= 1e-14 * scale ** 2
        if m == n:
            # r = 0: n nodes support no degree n, and that is no breakdown
            assert bs.residual_sq <= 1e-28

    @pytest.mark.parametrize("name", ["circle", "interval", "points-disk"])
    def test_hessenberg_is_q_star_z_q(self, name):
        bs, mu = step_past_n_case(name, 64, 16)
        q = bs.node_values
        z = mu.nodes if np.iscomplexobj(q) else mu.nodes.real
        np.testing.assert_allclose(hessenberg(bs), q.conj().T @ (z[:, None] * q), rtol=0, atol=1e-14)


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
        # the interval runs its own route, the three-term step; the Szego
        # step sums in another order, so the tilted circle's H is run by
        # the full Hessenberg step
        route = bs.route if case == "interval" else "hessenberg"
        assert bs.route == ("three_term" if case == "interval" else "szego")
        coef = bs.coef if route == "three_term" else full_band(hessenberg(bs))
        args = (route, coef, bs.h_sub)
        np.testing.assert_array_equal(
            eval_recurrence(pts, scale, bs.const_norm, *args),
            eval_recurrence_reference(pts, scale, bs.const_norm, hessenberg(bs)))


CIRCLE_CASES = ["circle", "circle-metric-weight", "tilted-circle"]


class TestSzegoEvaluation:
    @pytest.mark.parametrize("radius", [0.5, 1.0, 1.1])
    @pytest.mark.parametrize("d", [15, 63, 255])
    @pytest.mark.parametrize("case", CIRCLE_CASES)
    def test_equals_hessenberg_evaluation(self, case, d, radius):
        mu, space, _ = structured_setup(case, d)
        bs = orthonormalize(mu, space)
        assert bs.coef.shape == (d + 2,)
        pts = off_node_circle(radius)
        ref = eval_recurrence_reference(pts, space.weight_scale(pts), bs.const_norm,
                                        hessenberg(bs))
        assert max_relative_gap(evaluate_basis(bs, pts), ref) <= 1e-12

    @pytest.mark.parametrize("case", CIRCLE_CASES)
    def test_reproduces_node_values(self, case):
        mu, space, _ = structured_setup(case, 63)
        bs = orthonormalize(mu, space)
        assert bs.route == "szego"
        np.testing.assert_allclose(evaluate_basis(bs, mu.nodes),
                                   bs.node_values / np.sqrt(mu.weights)[:, None],
                                   rtol=0, atol=1e-12)

    def test_other_routes_keep_no_szego_coefficients(self):
        # coef holds H's band, (w, n), not the n + 1 c_j
        assert orthonormalize(interval_lebesgue(64), WeightedSpace(15)).coef.shape == (2, 16)
        # nodes 1e-13 off the circle: the certificate rejects Szego, full
        # Arnoldi builds the basis
        assert orthonormalize(off_circle_measure(), WeightedSpace(40)).coef.shape == (41, 41)


def lanczos_fallback_measure():
    """512 random atoms on [-1, 1]: Lanczos loses orthogonality at n = 128
    and full Arnoldi builds the basis."""
    rng = np.random.default_rng(5)
    return from_points(rng.uniform(-1.0, 1.0, 512), np.full(512, 1.0 / 512))


def complex_points_measure():
    rng = np.random.default_rng(11)
    nodes = np.sqrt(rng.uniform(0.0, 1.0, 300)) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 300))
    return from_points(nodes, rng.uniform(0.5, 1.5, 300) / 300)


class TestRoute:
    """The basis records the recurrence its build kept; evaluation and the
    Christoffel-Darboux masses read that record, not H's zero pattern."""

    @pytest.mark.parametrize("case,route", [
        ("interval", "three_term"), ("arcsine", "three_term"),
        ("circle", "szego"), ("tilted-circle", "szego"),
    ])
    def test_structured_builds(self, case, route):
        mu, space, _ = structured_setup(case, 31)
        bs = orthonormalize(mu, space)
        assert bs.route == route
        assert (bs.coef.ndim == 1) == (route == "szego")

    @pytest.mark.parametrize("make_mu,d", [(lanczos_fallback_measure, 127),
                                           (complex_points_measure, 20)],
                             ids=["lanczos-fallback", "complex-points"])
    def test_full_arnoldi_builds(self, make_mu, d):
        bs = orthonormalize(make_mu(), WeightedSpace(d, tensor_power=d + 1))
        assert bs.route == "hessenberg" and bs.coef.shape == (d + 1, d + 1)
        assert np.any(np.triu(hessenberg(bs), 2))

    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("route", ["three_term", "hessenberg"])
    def test_step_reads_only_the_band(self, route, diagonal):
        # column j of the band storage holds H[j+1-w : j+1, j]: the entries
        # it holds above H's row 0 are never read
        bs = orthonormalize(interval_lebesgue(128), WeightedSpace(31, tensor_power=32))
        coef = bs.coef if route == "three_term" else full_band(hessenberg(bs))
        junk = coef.copy()
        w = coef.shape[0]
        junk[np.arange(w)[:, None] < w - 1 - np.arange(32)] = 1e3
        pts = np.linspace(-1.0, 1.0, 101).astype(complex)
        args = (pts, np.ones(pts.size), bs.const_norm)
        want = eval_recurrence(*args, route, coef, bs.h_sub, diagonal=diagonal)
        got = eval_recurrence(*args, route, junk, bs.h_sub, diagonal=diagonal)
        assert np.count_nonzero(junk != coef) == w * (w - 1) // 2
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("route", ["three_term", "szego"])
    def test_hessenberg_step_gives_the_same_columns(self, route):
        # the short steps run the full recurrence on the entries they skip,
        # which are zero (three-term) or the c_j s_j (Szego)
        make_mu = interval_lebesgue if route == "three_term" else circle_lebesgue
        bs = orthonormalize(make_mu(256), WeightedSpace(63, tensor_power=64))
        assert bs.route == route
        pts = off_node_circle(0.9)
        scale = np.ones(pts.size)
        full = eval_recurrence(pts, scale, bs.const_norm, "hessenberg", full_band(hessenberg(bs)),
                               bs.h_sub)
        short = eval_recurrence(pts, scale, bs.const_norm, bs.route, bs.coef, bs.h_sub)
        assert max_relative_gap(short, full) <= 1e-12


def real_atoms():
    return random_atoms(3, 96)


def complex_atoms():
    rng = np.random.default_rng(3)
    return from_points(rng.uniform(-1.0, 1.0, 96) + 1j * rng.uniform(-1.0, 1.0, 96),
                       rng.uniform(0.5, 1.5, 96))


class TestDtype:
    """Real nodes give a float64 basis, and its consumers stay real."""

    @pytest.mark.parametrize("case, dtype", [
        ("interval", np.float64), ("arcsine", np.float64), ("tilted-interval", np.float64),
        ("circle", np.complex128), ("tilted-circle", np.complex128)])
    def test_structured_bases(self, case, dtype):
        mu, space, _ = structured_setup(case, 15)
        bs = orthonormalize(mu, space)
        assert bs.node_values.dtype == dtype
        assert bs.coef.dtype == dtype

    @pytest.mark.parametrize("make_mu, dtype", [(real_atoms, np.float64),
                                                (complex_atoms, np.complex128)])
    def test_atom_bases(self, make_mu, dtype):
        bs = orthonormalize(make_mu(), WeightedSpace(30))
        assert bs.node_values.dtype == dtype
        assert bs.coef.dtype == dtype

    def test_evaluation_of_a_real_basis(self):
        bs = orthonormalize(interval_lebesgue(64), WeightedSpace(15))
        real = evaluate_basis(bs, np.linspace(-1.0, 1.0, 11))
        off_axis = evaluate_basis(bs, np.linspace(-1.0, 1.0, 11) + 0.5j)
        assert real.dtype == np.float64
        assert off_axis.dtype == np.complex128

    @pytest.mark.parametrize("f", [symbols.sym_x, symbols.sym_x2, np.abs],
                             ids=["recurrence-x", "recurrence-x2", "quadrature"])
    def test_interval_operator_is_real(self, f):
        mu = interval_lebesgue(64)
        bs = orthonormalize(mu, WeightedSpace(15))
        assert toeplitz(bs, mu, f).entries.dtype == np.float64


class TestWeightedSpaceValidation:
    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            WeightedSpace(-1)

    def test_zero_tensor_power_rejected(self):
        with pytest.raises(ValueError):
            WeightedSpace(2, tensor_power=0)

    # a power of 1.5 would weight the basis by exp(-1.5 phi), a degree bound
    # of True would give dimension 2
    @pytest.mark.parametrize("args", [(3, 1.5), (2.5, 1), (True, 1), (3, True),
                                      (np.float64(3.0), 1)],
                             ids=["float-power", "float-degree", "bool-degree", "bool-power",
                                  "numpy-float-degree"])
    def test_non_integer_rejected(self, args):
        with pytest.raises(ValueError, match="must be an integer"):
            WeightedSpace(*args)

    def test_numpy_integers_accepted(self):
        space = WeightedSpace(np.int64(3), tensor_power=np.int32(4))
        assert space.dimension == 4

    def test_nonfinite_weight_rejected(self):
        mu = circle_lebesgue(8)
        space = WeightedSpace(2, metric_weight=lambda z: np.where(z.real > 0, np.inf, 0.0))
        with pytest.raises(ValueError):
            orthonormalize(mu, space)

    # a complex phi lost its imaginary part with a ComplexWarning
    def test_complex_weight_rejected(self):
        space = WeightedSpace(2, metric_weight=lambda z: z)
        with pytest.raises(ValueError, match="metric_weight must be real at every point"):
            orthonormalize(circle_lebesgue(8), space)

    def test_underflowed_metric_scale_is_rank_deficient(self):
        # exp(-4 * 400 x^2) is zero or subnormal near the ends of [-1, 1]:
        # the basis would be orthonormal on a truncated measure
        mu = interval_lebesgue(256)
        space = WeightedSpace(3, tensor_power=4, metric_weight=lambda z: 400.0 * z.real ** 2)
        with pytest.raises(RankDeficientError, match=r"at \d+ of 256 nodes.*= 159\d\.\d"):
            orthonormalize(mu, space)

    def test_overflowed_metric_scale_is_rank_deficient(self):
        mu = circle_lebesgue(64)
        space = WeightedSpace(3, tensor_power=4, metric_weight=lambda z: -200.0 * (z.real + 1))
        with pytest.raises(RankDeficientError, match="double range"):
            orthonormalize(mu, space)

    def test_wide_but_representable_metric_scale_builds(self):
        # k * (max phi - min phi) ~ 400: scales down to ~1e-174 stay normal
        mu = interval_lebesgue(256)
        space = WeightedSpace(3, tensor_power=4, metric_weight=lambda z: 100.0 * z.real ** 2)
        bs = orthonormalize(mu, space)
        assert node_defect(bs.node_values) <= 1e-13


class TestBasisId:
    def test_taken_once_per_basis(self, monkeypatch):
        bs = orthonormalize(interval_lebesgue(64), WeightedSpace(15, tensor_power=16))
        first = bs.basis_id
        monkeypatch.setattr("cdlab.basis.hashlib.sha1", None)
        assert bs.basis_id == first

    def test_value_is_the_recurrence_hash(self):
        bs = orthonormalize(circle_lebesgue(32), WeightedSpace(3, tensor_power=4))
        h = hashlib.sha1(b"szego")
        for part in (np.int64(4), np.int64(4), np.float64(bs.const_norm), bs.coef, bs.h_sub):
            h.update(part.tobytes())
        assert bs.basis_id == h.hexdigest()[:16]

    @pytest.mark.parametrize("case", ["interval", "circle", "points"])
    def test_every_entry_of_the_route_moves_the_id(self, case):
        # the entries that determine H on the route: the norms h_sub below
        # its diagonal, and every entry of H in the band of a three-term or
        # Hessenberg coef, or every Szego c_j (c_{n-1} is in H's last column
        # only, c_n in the CMV T(z^2) only)
        n = 8
        mu = {"interval": interval_lebesgue(32), "circle": circle_lebesgue(32),
              "points": complex_atoms()}[case]
        bs = orthonormalize(mu, WeightedSpace(n - 1))
        assert bs.route == {"interval": "three_term", "circle": "szego"}.get(case, "hessenberg")
        sites = [("h_sub", (j,)) for j in range(n - 1)]
        if bs.route == "szego":
            sites += [("coef", (j,)) for j in range(n + 1)]
        else:
            w = bs.coef.shape[0]
            sites += [("coef", (i, j)) for j in range(n) for i in range(max(w - 1 - j, 0), w)]
        ids = {bs.basis_id}
        for name, at in sites:
            arr = getattr(bs, name).copy()
            arr[at] += 1e-15 * max(1.0, abs(arr[at]))
            ids.add(dataclasses.replace(bs, **{name: arr}).basis_id)
        assert len(ids) == len(sites) + 1


# how a basis stores its recurrence, which only cdlab.basis and
# cdlab._backend read
RECURRENCE_FIELDS = {"hessenberg", "h_sub", "coef", "h_band", "h_full", "szego_c", "columns",
                     "residual_sq", "z_residual", "route"}


@pytest.mark.parametrize("module", ["operator", "kernel", "experiments"])
def test_module_reads_no_recurrence_field(module):
    path = os.path.join(os.path.dirname(cdlab.__file__), f"{module}.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    reads = sorted(f"{node.lineno}: .{node.attr}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr in RECURRENCE_FIELDS)
    assert reads == []
