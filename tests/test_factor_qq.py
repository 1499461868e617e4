"""Factoring over QQ against sympy.

`squarefree_factors(QQ, f)` must return the distinct monic irreducible
factors that sympy's `factor_list` finds, made monic and sorted: on seeded
products of irreducibles with repeated factors and non-integral
coefficients, and on inputs that make the Zassenhaus recombination work,
such as x^4 - 10x^2 + 1, which is irreducible but splits modulo every prime.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cartierlab.polycore import QQ
from cartierlab.polycore import unipoly as up
from cartierlab.polycore.factor import squarefree_factors

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")


def to_sympy(poly):
    return sum(sympy.Rational(c.numerator, c.denominator) * X**i for i, c in enumerate(poly))


def from_sympy(poly):
    return tuple(QQ.from_fraction(Fraction(int(c.p), int(c.q)))
                 for c in reversed(poly.all_coeffs()))


def sympy_factors(poly):
    _, pairs = sympy.factor_list(to_sympy(poly), X)
    return sorted(from_sympy(sympy.Poly(fac, X, domain="QQ").monic()) for fac, _ in pairs)


def seeded_inputs(count=40):
    """Products of random factors of degree at most 6, some repeated, of
    total degree at most 12, with rational coefficients and a rational
    leading coefficient."""
    rng = random.Random(2024)
    cases = []
    for _ in range(count):
        poly = (QQ.div(rng.randint(1, 9), rng.randint(1, 9)),)
        target = rng.randint(2, 12)
        while up.udeg(poly) < target:
            degree = rng.randint(1, min(6, target - up.udeg(poly)))
            factor = tuple(QQ.div(rng.randint(-12, 12), rng.choice((1, 1, 2, 3)))
                           for _ in range(degree)) + (QQ.from_int(rng.randint(1, 4)),)
            for _ in range(rng.choice((1, 1, 2))):
                if up.udeg(poly) + degree <= 12:
                    poly = up.umul(QQ, poly, factor)
        cases.append(poly)
    return cases


@pytest.mark.parametrize("poly", seeded_inputs())
def test_seeded_products_match_sympy(poly):
    assert squarefree_factors(QQ, poly) == sympy_factors(poly)


@pytest.mark.parametrize("text", [
    "x^4 - 10*x^2 + 1",  # irreducible, but splits modulo every prime
    "x^4 + 1",  # the same
    "x^10 + x + 1",  # (x^2 + x + 1)(x^8 - x^7 + x^5 - x^4 + x^3 - x + 1)
    "x^8 - 40*x^6 + 352*x^4 - 960*x^2 + 576",  # sqrt 2 + sqrt 3 + sqrt 5
    "(x^4 - 10*x^2 + 1)*(x^4 + 1)*(x - 1/2)",
    "x^3*(x^2 - 2)^2*(3*x - 1)",
    "x^12 - 1",
    "x^6 - 2",
])
def test_named_inputs_match_sympy(text):
    poly = from_sympy(sympy.Poly(sympy.sympify(text.replace("^", "**"), locals={"x": X}), X,
                                 domain="QQ"))
    assert squarefree_factors(QQ, poly) == sympy_factors(poly)
