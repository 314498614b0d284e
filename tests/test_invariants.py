"""Seeded invariants of kernels and operators on random discrete measures.

`from_points` measures carry no closed forms, so these check identities
that hold for every measure: the reproducing property, trace = n, product
masses at most 1, spectral confinement, and the structured route against
full Arnoldi.
"""

import numpy as np
import pytest

from cdlab import (
    WeightedSpace,
    bergman_mass,
    from_points,
    kernel_table,
    orthonormalize,
    spectrum,
    toeplitz,
)
from cdlab.basis import _arnoldi
from recurrence_forms import hessenberg

SEEDS = [0, 1, 2]
KINDS = ["disk", "real"]


def random_setup(kind, seed, m=80, d=11):
    rng = np.random.default_rng(seed)
    if kind == "disk":
        nodes = np.sqrt(rng.uniform(0.0, 1.0, m)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, m))
    else:
        nodes = rng.uniform(-1.0, 1.0, m)
    mu = from_points(nodes, rng.uniform(0.5, 1.5, m) / m)
    bs = orthonormalize(mu, WeightedSpace(d, tensor_power=d + 1))
    return rng, mu, bs


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS)
class TestRandomMeasures:
    def test_reproducing_property(self, kind, seed):
        _, mu, bs = random_setup(kind, seed)
        phi = bs.node_values / np.sqrt(mu.weights)[:, None]
        table = kernel_table(bs, mu)
        np.testing.assert_allclose(table.values @ (mu.weights[:, None] * phi), phi,
                                   rtol=0, atol=1e-11)

    def test_trace_is_dimension(self, kind, seed):
        _, mu, bs = random_setup(kind, seed)
        table = kernel_table(bs, mu)
        assert float(table.diag @ mu.weights) == pytest.approx(bs.dimension, rel=1e-12)

    def test_product_mass_at_most_one(self, kind, seed):
        rng, mu, bs = random_setup(kind, seed)
        everything = np.arange(len(mu))
        assert bergman_mass(bs, mu, everything, everything) == pytest.approx(1.0, rel=1e-12)
        for _ in range(5):
            a = rng.choice(len(mu), size=20, replace=False)
            b = rng.choice(len(mu), size=30, replace=False)
            assert 0.0 <= bergman_mass(bs, mu, a, b) <= 1.0

    def test_spectral_confinement(self, kind, seed):
        _, mu, bs = random_setup(kind, seed)
        for f in (lambda z: z.real, lambda z: np.abs(z) ** 2):
            vals = f(mu.nodes)
            eig = spectrum(toeplitz(bs, mu, f)).eigenvalues
            assert eig[0] >= vals.min() - 1e-12
            assert eig[-1] <= vals.max() + 1e-12

    def test_route_matches_full_arnoldi(self, kind, seed):
        _, mu, bs = random_setup(kind, seed)
        full = _arnoldi(mu.nodes, np.sqrt(mu.weights), bs.dimension)
        np.testing.assert_allclose(bs.node_values, full.q, rtol=0, atol=1e-12)
        np.testing.assert_allclose(hessenberg(bs), full.hess, rtol=0, atol=1e-12)
