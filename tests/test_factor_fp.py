"""Factoring over F_p against sympy, and the shape of the Cantor-Zassenhaus run.

`squarefree_factors` must return the distinct monic irreducible factors that
sympy's `Poly(..., modulus=p).factor_list()` finds, on seeded inputs of degree at
most 10 with repeated factors, on inseparable inputs g(x^p), and over F_2,
where equal-degree splitting takes traces instead of powers. `factor_count`
counts the factors from the rank of Berlekamp's Q - I without splitting. `_factor_fp`
raises x to the p-th power once per input and reads every later p-th power
off the Frobenius rows x^(ip) mod v, on plain coefficient ints.
"""

from __future__ import annotations

import random

import pytest

from cartierlab.polycore import factor
from cartierlab.polycore import unipoly as up
from cartierlab.polycore.factor import _base_sqrt, factor_count, squarefree_factors
from cartierlab.polycore.fields import PrimeField

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test below skips
    st = None

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")
PRIMES = [2, 3, 5, 7, 10007, 32003]


def to_sympy(poly):
    return sum(int(c) * X**i for i, c in enumerate(poly))


def sympy_factors(field, poly):
    """The distinct monic irreducible factors as coefficient tuples."""
    p = field.p
    _, pairs = sympy.Poly(to_sympy(poly), X, modulus=p).factor_list()
    out = []
    for fac, _ in pairs:
        coeffs = [int(c) % p for c in reversed(fac.all_coeffs())]
        out.append(up.umonic(field, up.utrim(field, coeffs)))
    return sorted(out)


def random_poly(field, rng, degree):
    coeffs = [rng.randrange(field.p) for _ in range(degree)] + [1 + rng.randrange(field.p - 1)]
    return up.utrim(field, coeffs)


def product(field, polys):
    out = (field.one(),)
    for q in polys:
        out = up.umul(field, out, q)
    return out


def seeded_inputs(p, count=24):
    """Products of random factors, some repeated, of total degree at most 10,
    and for small p some inputs g(x^p)."""
    field = PrimeField(p)
    rng = random.Random(1000 + p)
    cases = []
    for _ in range(count):
        parts, total = [], 0
        while total < 10:
            degree = rng.randint(1, min(4, 10 - total))
            parts.append(random_poly(field, rng, degree))
            total += degree
            if rng.random() < 0.3 and total + degree <= 10:
                parts.append(parts[-1])  # a repeated factor
                total += degree
            if rng.random() < 0.3:
                break
        cases.append(product(field, parts))
    for degree in range(1, 10 // p + 1):
        g = random_poly(field, rng, degree)
        cases.append(tuple(g[i // p] if i % p == 0 else 0 for i in range(p * degree + 1)))
    return field, cases


@pytest.mark.parametrize("p", PRIMES)
def test_squarefree_factors_match_sympy(p):
    field, cases = seeded_inputs(p)
    for poly in cases:
        assert squarefree_factors(field, poly) == sympy_factors(field, poly), poly


@pytest.mark.parametrize("polys", [
    [(1, 1, 0, 1), (1, 0, 1, 1)],                       # the two cubics over F_2
    [(1, 1, 0, 0, 1), (1, 0, 0, 1, 1), (1, 1, 1, 1, 1)],  # the three quartics
    [(0, 1), (1, 1), (1, 1, 1)],                        # x (x + 1) (x^2 + x + 1)
])
def test_equal_degree_traces_over_f2(polys):
    field = PrimeField(2)
    poly = product(field, polys)
    assert squarefree_factors(field, poly) == sorted(polys)
    assert squarefree_factors(field, poly) == sympy_factors(field, poly)


@pytest.mark.parametrize("p", [3, 5, 7, 10007, 30011, 32003])
def test_base_sqrt_is_the_smaller_root(p):
    field = PrimeField(p)
    rng = random.Random(p)
    for a in [0, 1, p - 1] + [rng.randrange(p) for _ in range(30)]:
        roots = sympy.ntheory.sqrt_mod(a, p, all_roots=True)
        assert _base_sqrt(field, a) == (min(roots) if roots else None), a


def test_one_exponentiation_and_no_generic_products(monkeypatch):
    """(x - 5)(x^2 - 2)(x^3 + x + 3) over FP(30011) takes two distinct-degree
    steps, each a p-th power, yet x is raised to the p-th power once; no step
    multiplies through the field's methods."""
    p = 30011
    field = PrimeField(p)
    exponents = []
    original = factor._powmod

    def recording(a, e, m, q):
        exponents.append(e)
        return original(a, e, m, q)

    def generic_product(*args):
        raise AssertionError("unipoly.umul called while factoring over F_p")

    parts = [(p - 5, 1), (p - 2, 0, 1), (3, 1, 0, 1)]
    poly = product(field, parts)
    monkeypatch.setattr(factor, "_powmod", recording)
    monkeypatch.setattr(up, "umul", generic_product)
    assert sorted(factor._factor_fp(field, poly)) == sorted(parts)
    assert exponents.count(p) == 1


def squarefree_product(p, seed):
    """A product of distinct monic irreducibles over F_p of degree at most 4,
    at least one above 1, drawn until the total degree reaches 12 or there
    are six; sympy's irreducibility test chooses them."""
    field = PrimeField(p)
    rng = random.Random(seed)
    parts = []
    while sum(up.udeg(f) for f in parts) < 12 and len(parts) < 6:
        f = up.umonic(field, random_poly(field, rng, rng.randint(1, 4)))
        if up.udeg(f) > 0 and f not in parts and sympy.Poly(to_sympy(f), X, modulus=p).is_irreducible:
            parts.append(f)
        if len(parts) > 1 and max(map(up.udeg, parts)) < 2:
            parts.pop(0)  # keep looking for a factor of degree above 1
    return field, parts, product(field, parts)


if st is None:
    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_factor_count_is_the_number_of_factors():
        pass
else:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(p=st.sampled_from([2, 3, 7, 10007]), seed=st.integers(0, 2**32))
    def test_factor_count_is_the_number_of_factors(p, seed):
        field, parts, poly = squarefree_product(p, seed)
        assert max(map(up.udeg, parts)) > 1
        count = factor_count(field, poly)
        assert count == len(parts) == len(factor._factor_fp(field, poly))
        assert count == len(sympy_factors(field, poly))


def test_factor_count_splits_nothing(monkeypatch):
    """The count over F_p is deg - rank(Q - I): no factor is computed."""
    def no_split(*args):
        raise AssertionError("a factor was computed for a count")

    monkeypatch.setattr(factor, "_factor_fp", no_split)
    monkeypatch.setattr(factor, "_equal_degree_split", no_split)
    field = PrimeField(30011)
    parts = [(30011 - 5, 1), (30011 - 2, 0, 1), (3, 1, 0, 1)]
    assert factor_count(field, product(field, parts)) == 3
    assert factor_count(field, (3, 1, 0, 1)) == 1
    assert factor_count(field, (4, 1)) == 1
