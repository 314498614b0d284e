"""Built-in real symbols and spectral test functions for the experiments.

Symbols are vectorized callables on complex node arrays, written in the
plane coordinate: on the circle z = e^{i theta} the real part is cos(theta)
and the imaginary part sin(theta); on [-1,1] the real part is x itself.

A symbol that is a polynomial of degree <= 2 in u = Re z and v = Im z is a
PolynomialSymbol: still a plain callable, but it also carries its
coefficients, from which `operator.toeplitz` reads T(f) off the basis
recurrence instead of a quadrature pass.
"""

import math

import numpy as np


class PolynomialSymbol:
    """The real symbol sum c * u^a * v^b over terms = {(a, b): c}, of
    degree a + b <= 2, with u = Re z and v = Im z.

    Calling it runs fn, the plain callable it stands for, so its values are
    exactly fn's; terms must describe the same function.
    """

    def __init__(self, fn, terms):
        self.fn = fn
        self.terms = {(a, b): float(c) for (a, b), c in terms.items() if c}
        self.__name__ = getattr(fn, "__name__", "custom")
        if self.degree > 2:
            raise ValueError(f"polynomial symbol of degree {self.degree} > 2")

    @property
    def degree(self):
        return max((a + b for a, b in self.terms), default=0)

    def __call__(self, z):
        return self.fn(z)


def polynomial(terms):
    """Decorator: the function as a PolynomialSymbol with these terms."""
    return lambda fn: PolynomialSymbol(fn, terms)


@polynomial({(0, 0): 1.0})
def sym_one(z):
    return np.ones(np.shape(z), dtype=float)


@polynomial({(1, 0): 1.0})
def sym_cos(z):
    return np.real(z)


@polynomial({(0, 1): 1.0})
def sym_sin(z):
    return np.imag(z)


@polynomial({(1, 0): 1.0})
def sym_x(z):
    return np.real(z)


@polynomial({(2, 0): 1.0})
def sym_x2(z):
    return np.real(z) ** 2


def product(f, g):
    """The symbol f*g.  It is a PolynomialSymbol when f and g are and their
    product has degree <= 2, and a plain callable otherwise."""

    def fg(z):
        return np.asarray(f(z)) * np.asarray(g(z))

    if not (isinstance(f, PolynomialSymbol) and isinstance(g, PolynomialSymbol)):
        return fg
    terms = {}
    for (a, b), c in f.terms.items():
        for (d, e), h in g.terms.items():
            terms[a + d, b + e] = terms.get((a + d, b + e), 0.0) + c * h
    if any(a + b > 2 for (a, b), c in terms.items() if c):
        return fg
    return PolynomialSymbol(fg, terms)


def difference(f, g):
    """The symbol f - g, a PolynomialSymbol when f and g are."""

    def f_g(z):
        return np.asarray(f(z)) - np.asarray(g(z))

    if not (isinstance(f, PolynomialSymbol) and isinstance(g, PolynomialSymbol)):
        return f_g
    terms = {ab: f.terms.get(ab, 0.0) - g.terms.get(ab, 0.0) for ab in {**f.terms, **g.terms}}
    return PolynomialSymbol(f_g, terms)


def _finite(value, spec):
    if not math.isfinite(value):
        raise ValueError(f"symbol coefficients must be finite, got {spec!r}")
    return value


REGISTRY = {
    "one": sym_one,
    "cos": sym_cos,
    "sin": sym_sin,
    "x": sym_x,
    "x2": sym_x2,
}


def resolve_symbol(spec):
    """Symbol callable from its CLI/config name.

    Accepts registry names, "const:<c>", and "poly:c0,c1,..." (polynomial in
    the real coordinate).  Returns (name, callable); the callable is a
    PolynomialSymbol for every form but a poly: of degree >= 3.  Raises
    ValueError for an unknown name or a coefficient that is not finite.
    """
    spec = spec.strip()
    if spec in REGISTRY:
        return spec, REGISTRY[spec]
    if spec.startswith("const:"):
        c = _finite(float(spec.split(":", 1)[1]), spec)

        @polynomial({(0, 0): c})
        def const(z, _c=c):
            return np.full(np.shape(z), _c)

        return spec, const
    if spec.startswith("poly:"):
        coeffs = [_finite(float(t), spec) for t in spec.split(":", 1)[1].split(",")
                  if t.strip()]
        if not coeffs:
            raise ValueError(f"empty polynomial spec {spec!r}")

        def poly(z, _c=tuple(coeffs)):
            t = np.real(z)
            acc = np.full(np.shape(t), _c[-1])
            for c in _c[-2::-1]:
                acc = acc * t + c
            return acc

        if not any(coeffs[3:]):
            poly = PolynomialSymbol(poly, {(j, 0): c for j, c in enumerate(coeffs)})
        return spec, poly
    raise ValueError(f"unknown symbol {spec!r} "
                     f"(known: {sorted(REGISTRY)}, const:<c>, poly:c0,c1,...)")


def spectral_square(lam):
    return lam ** 2


def spectral_abs(lam):
    return np.abs(lam)


def spectral_identity(lam):
    return lam


def spectral_cube(lam):
    return lam ** 3


SPECTRAL_REGISTRY = {
    "square": spectral_square,
    "abs": spectral_abs,
    "identity": spectral_identity,
    "cube": spectral_cube,
}


def resolve_spectral(name):
    """Test function g: R -> R for spectral statistics."""
    name = name.strip()
    if name not in SPECTRAL_REGISTRY:
        raise ValueError(f"unknown spectral function {name!r} "
                         f"(known: {sorted(SPECTRAL_REGISTRY)})")
    return name, SPECTRAL_REGISTRY[name]
