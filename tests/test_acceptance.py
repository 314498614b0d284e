"""Acceptance sweep: one test per shipped criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Exact finite-k identities are asserted at tight tolerances; the asymptotic
statements are asserted as trends over the stated k ranges.
"""

import time
from functools import lru_cache

import numpy as np
import pytest

from cdlab import (
    WeightedSpace,
    algebra_defect,
    arc_indices,
    arcsine,
    bergman_mass,
    bm_constant,
    circle_lebesgue,
    compose,
    default_eval_grid,
    defect_kernel_bound,
    diagonal_density,
    equilibrium_for,
    evaluate_basis,
    fit_rate,
    functional_calculus,
    integrate,
    interval_lebesgue,
    kernel_table,
    legendre_toeplitz,
    operator_norm,
    orthonormalize,
    pushforward_residual,
    schatten_norm,
    spectral_statistic,
    spectrum,
    symbol_distance,
    toeplitz,
)
from cdlab.experiments import ExperimentConfig, run
from cdlab.operator import ToeplitzMatrix
from cdlab.symbols import REGISTRY


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@lru_cache(maxsize=None)
def _measure(kind, k):
    m = max(4 * k, 256)
    return circle_lebesgue(m) if kind == "circle" else interval_lebesgue(m)


@lru_cache(maxsize=None)
def _basis(kind, k):
    mu = _measure(kind, k)
    return orthonormalize(mu, WeightedSpace(k - 1, tensor_power=k))


@lru_cache(maxsize=None)
def _table(kind, k):
    return kernel_table(_basis(kind, k), _measure(kind, k))


def _warmup():
    mu = circle_lebesgue(16)
    bs = orthonormalize(mu, WeightedSpace(1, tensor_power=2))
    kernel_table(bs, mu)
    bergman_mass(bs, mu, np.arange(2), np.arange(2))
    pushforward_residual(bs, mu)
    defect_kernel_bound(bs, mu, lambda z: np.real(z), lambda z: np.imag(z))


def test_01_exact_circle_identities():
    _warmup()
    t0 = time.perf_counter()
    k, m = 64, 128
    mu = circle_lebesgue(m)
    bs = orthonormalize(mu, WeightedSpace(k - 1, tensor_power=k))
    table = kernel_table(bs, mu)
    diag_err = float(np.max(np.abs(table.diag - k)))
    all_idx = np.arange(m)
    mass_err = abs(bergman_mass(bs, mu, all_idx, all_idx) - 1.0)
    elapsed = time.perf_counter() - t0

    k_odd, m_odd = 65, 130
    mu_o = circle_lebesgue(m_odd)
    bs_o = orthonormalize(mu_o, WeightedSpace(k_odd - 1, tensor_power=k_odd))
    table_o = kernel_table(bs_o, mu_o)
    anti_err = max(abs(abs(table_o.values[a, a + m_odd // 2]) - 1.0)
                   for a in range(m_odd // 2))

    ok = diag_err <= 1e-10 and anti_err <= 1e-10 and mass_err <= 1e-8 \
        and elapsed < 1.0
    _report(1, "exact-circle-identities", ok,
            f"diag {diag_err:.2e}, antipodal {anti_err:.2e}, "
            f"mass {mass_err:.2e}, {elapsed:.2f}s")


def test_02_offdiagonal_rate():
    t0 = time.perf_counter()
    series = []
    for k in (16, 32, 64, 128, 256, 512):
        mu = _measure("circle", k)
        ia = arc_indices(mu, 0.0, np.pi / 2)
        ib = arc_indices(mu, np.pi, 3 * np.pi / 2)
        series.append((k, bergman_mass(_basis("circle", k), mu, ia, ib)))
    fit = fit_rate(series)
    elapsed = time.perf_counter() - t0
    ok = -1.1 <= fit.slope <= -0.9 and elapsed < 30.0
    _report(2, "offdiagonal-mass-rate", ok,
            f"slope {fit.slope:.4f} (target -1 +/- 0.1), {elapsed:.1f}s")


def test_03_szego_first_limit(tmp_path):
    cfg = ExperimentConfig(experiment="szego", k_values=[32, 64, 128, 256],
                           symbol_specs={"f": "cos", "g": "square"},
                           output_path=str(tmp_path / "szego.csv"))
    rows = run(cfg)
    worst = max(abs(r["quantity"] - (r["k"] - 1) / (2.0 * r["k"])) for r in rows)
    gap_256 = rows[-1]["gap"]
    ok = worst <= 1e-9 and gap_256 <= 0.002
    _report(3, "szego-first-limit", ok,
            f"max |stat-(k-1)/2k| {worst:.2e}, gap@256 {gap_256:.5f}")


def test_04_algebra_defect():
    mu_map = {k: _measure("circle", k) for k in (16, 32, 64, 128, 256)}
    bs_map = {k: _basis("circle", k) for k in mu_map}
    cos = REGISTRY["cos"]
    sin = REGISTRY["sin"]
    worst = max(abs(algebra_defect(bs_map[k], mu_map[k], cos, cos, 2)
                    - 1.0 / np.sqrt(8.0 * k)) for k in (16, 32, 64, 128))
    d32 = algebra_defect(bs_map[32], mu_map[32], cos, cos, 2)
    mixed_32 = algebra_defect(bs_map[32], mu_map[32], cos, sin, 2)
    mixed_256 = algebra_defect(bs_map[256], mu_map[256], cos, sin, 2)
    ok = worst <= 1e-9 and abs(d32 - 0.0625) <= 1e-12 \
        and mixed_256 < 0.05 and mixed_256 < mixed_32
    _report(4, "algebra-defect", ok,
            f"|defect-1/sqrt(8k)| {worst:.2e}, defect@32 {d32:.6f}, "
            f"cos/sin@256 {mixed_256:.4f} < @32 {mixed_32:.4f}")


def test_05_kernel_bound_domination():
    worst_slack = np.inf
    checked = 0
    for kind in ("circle", "interval"):
        for k in (16, 64, 256):
            mu = _measure(kind, k)
            bs = _basis(kind, k)
            for fname in sorted(REGISTRY):
                for gname in sorted(REGISTRY):
                    defect = algebra_defect(bs, mu, REGISTRY[fname],
                                            REGISTRY[gname], 2)
                    bound = defect_kernel_bound(bs, mu, REGISTRY[fname],
                                                REGISTRY[gname])
                    worst_slack = min(worst_slack, bound - defect)
                    checked += 1
    ok = worst_slack >= -1e-9
    _report(5, "kernel-bound-domination", ok,
            f"{checked} (f,g,k,measure) combos, min(bound-defect) {worst_slack:.2e}")


def test_06_legendre_equidistribution():
    gaps = {}
    for k in (16, 128, 256):
        t = legendre_toeplitz(REGISTRY["x"], k)
        stat = spectral_statistic(t, lambda lam: lam ** 2)
        limit = integrate(equilibrium_for(interval_lebesgue(4 * k)),
                          lambda x: x ** 2)
        gaps[k] = abs(stat - limit)
    ok = gaps[128] < gaps[16] and gaps[256] < 0.02
    _report(6, "legendre-arcsine-equidistribution", ok,
            f"gap@16 {gaps[16]:.5f} > gap@128 {gaps[128]:.6f}, "
            f"gap@256 {gaps[256]:.6f} < 0.02")


def test_07_spectral_confinement():
    worst = 0.0
    for kind in ("circle", "interval"):
        for k in (16, 64, 256):
            mu = _measure(kind, k)
            bs = _basis(kind, k)
            for name in sorted(REGISTRY):
                f = REGISTRY[name]
                lam = spectrum(toeplitz(bs, mu, f)).eigenvalues
                fv = f(mu.nodes)
                worst = max(worst, float(fv.min()) - lam[0],
                            lam[-1] - float(fv.max()))
    ok = worst <= 1e-9
    _report(7, "spectral-confinement", ok,
            f"max escape {worst:.2e} (allowed 1e-9)")


def test_08_symbol_distance():
    cos = REGISTRY["cos"]
    one_plus_cos = lambda z: 1.0 + np.real(z)
    one = REGISTRY["one"]
    target = 2.0 / np.pi
    gaps = []
    for k in (32, 64, 128, 256):
        mu = _measure("circle", k)
        bs = _basis("circle", k)
        gaps.append(abs(symbol_distance(bs, mu, one_plus_cos, one) - target))
    monotone = all(a >= b - 1e-3 for a, b in zip(gaps, gaps[1:]))
    ok = gaps[-1] <= 0.01 and monotone
    _report(8, "symbol-distance", ok,
            f"|dist-2/pi| over k: {', '.join(f'{g:.5f}' for g in gaps)}")


def test_09_diagonal_density_convergence():
    gaps = {}
    for k in (16, 128):
        mu = _measure("interval", k)
        dens = diagonal_density(_table("interval", k), mu)
        gaps[k] = abs(float((mu.nodes.real ** 2) @ dens) - 0.5)
    mu_c = circle_lebesgue(128)
    bs_c = orthonormalize(mu_c, WeightedSpace(31, tensor_power=32))
    dens_c = diagonal_density(kernel_table(bs_c, mu_c), mu_c)
    circ_dev = float(np.max(np.abs(dens_c - 1.0 / 128)))
    ok = gaps[128] < gaps[16] and gaps[128] < 0.05 and circ_dev <= 1e-10
    _report(9, "diagonal-density-convergence", ok,
            f"interval gap@16 {gaps[16]:.2e} > gap@128 {gaps[128]:.2e}, "
            f"circle uniformity {circ_dev:.2e}")


def test_10_bm_subexponential_growth():
    interval_vals = []
    for k in (8, 16, 32, 64, 128):
        mu = _measure("interval", k)
        bs = _basis("interval", k)
        interval_vals.append(np.log(bm_constant(bs, default_eval_grid(mu))) / k)
    decreasing = all(a > b for a, b in zip(interval_vals, interval_vals[1:]))
    circle_err = 0.0
    for k in (8, 32, 128):
        mu = _measure("circle", k)
        bs = _basis("circle", k)
        got = np.log(bm_constant(bs, default_eval_grid(mu))) / k
        circle_err = max(circle_err, abs(got - np.log(k) / k))
    ok = decreasing and circle_err <= 1e-12
    _report(10, "bernstein-markov-growth", ok,
            f"interval (1/k)log(const): {', '.join(f'{v:.4f}' for v in interval_vals)}; "
            f"circle |.-log(k)/k| {circle_err:.1e}")


def test_11_structural_suite():
    failures = []

    # orthonormality residuals
    for kind, k in (("circle", 64), ("interval", 64)):
        mu = _measure(kind, k)
        phi = evaluate_basis(_basis(kind, k), mu.nodes)
        res = np.max(np.abs((phi.conj().T * mu.weights) @ phi - np.eye(k)))
        if res > 1e-8:
            failures.append(f"orthonormality {kind} {res:.1e}")

    # reproducing residuals
    for kind in ("circle", "interval"):
        res = pushforward_residual(_basis(kind, 64), _measure(kind, 64))
        if res > 1e-8:
            failures.append(f"reproducing {kind} {res:.1e}")

    # Schatten interpolation / product inequalities
    rng = np.random.default_rng(42)
    for _ in range(10):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        s = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        for p in (1.0, 2.0, 3.0):
            interp = schatten_norm(a, 2) ** (1 / p) * operator_norm(a) ** ((p - 1) / p)
            if schatten_norm(a, p) > interp + 1e-9:
                failures.append("schatten interpolation")
            if schatten_norm(s @ a, p) > operator_norm(s) * schatten_norm(a, p) + 1e-9:
                failures.append("schatten product bound")

    # functional calculus vs power route
    mu = _measure("circle", 32)
    t = toeplitz(_basis("circle", 32), mu, REGISTRY["cos"])
    sq_err = np.max(np.abs(functional_calculus(t, lambda x: x ** 2) - compose(t, t)))
    if sq_err > 1e-9:
        failures.append(f"functional calculus {sq_err:.1e}")
    stat = spectral_statistic(t, lambda lam: lam ** 2)
    tr_route = float(np.trace(compose(t, t)).real) / 32
    if abs(stat - tr_route) > 1e-9:
        failures.append("szego consistency")

    _report(11, "structural-property-suite", not failures,
            "; ".join(failures) if failures else "all residuals within tolerance")
