from __future__ import annotations

import os
from fractions import Fraction

import pytest

from cartierlab.corpus import corpus_path
from cartierlab.errors import CartierlabError, FactorSearchLimit
from cartierlab.extfile import load_extension
from cartierlab.polycore import unipoly as up
from cartierlab.polycore.factor import squarefree_factors, verify_irreducible
from cartierlab.polycore.groebner import buchberger
from cartierlab.polycore.fields import (
    PrimeField,
    QQ,
    RationalFunctionField,
    SimpleExtensionField,
)

from test_golden import basis_cases

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test below skips
    st = None

CORPUS = os.path.dirname(corpus_path("node.ext"))


def qpoly(*coeffs):
    return up.utrim(QQ, tuple(Fraction(c) for c in coeffs))


def is_canonical(c) -> bool:
    """QQ's one element form: an int when integral, else a Fraction with
    denominator greater than 1 (never a float, never Fraction(n))."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def assert_canonical_coefficients(polys) -> None:
    for poly in polys:
        coeffs = poly.terms().values() if hasattr(poly, "terms") else poly
        bad = [c for c in coeffs if not is_canonical(c)]
        assert not bad, f"{poly}: {bad!r}"


def qq_factors(p: tuple) -> list[tuple]:
    factors = squarefree_factors(QQ, p)
    assert_canonical_coefficients(factors)
    return factors


def test_rational_field_constants_are_ints():
    assert [type(c) for c in (QQ.zero(), QQ.one(), QQ.from_int(-7))] == [int, int, int]
    assert type(QQ.from_fraction(Fraction(6, 3))) is int
    assert QQ.div(6, 4) == Fraction(3, 2) and type(QQ.div(6, 4)) is Fraction
    assert type(QQ.inv(Fraction(-1, 5))) is int


def _check_qq_ops(x: Fraction, y: Fraction) -> None:
    a, b = QQ.from_fraction(x), QQ.from_fraction(y)
    results = {
        "from_fraction": (QQ.from_fraction(x), x),
        "add": (QQ.add(a, b), x + y),
        "sub": (QQ.sub(a, b), x - y),
        "mul": (QQ.mul(a, b), x * y),
        "neg": (QQ.neg(a), -x),
    }
    if x:
        results["inv"] = (QQ.inv(a), 1 / x)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(a)
    if y:
        results["div"] = (QQ.div(a, b), x / y)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.div(a, b)
    for name, (got, expected) in results.items():
        assert got == expected, name
        assert is_canonical(got), f"{name}({x}, {y}) = {got!r}"


if st is None:
    def test_qq_ops_equal_fraction_arithmetic_in_canonical_form():
        pytest.skip("hypothesis is not installed")
else:
    small_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(x=small_fractions, y=small_fractions)
    def test_qq_ops_equal_fraction_arithmetic_in_canonical_form(x, y):
        _check_qq_ops(x, y)


def test_qq_ops_on_zero_and_integral_edges():
    edges = [Fraction(0), Fraction(1), Fraction(-1), Fraction(4, 2), Fraction(1, 3), Fraction(-2, 3)]
    for x in edges:
        for y in edges:
            _check_qq_ops(x, y)


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(CORPUS) if n.endswith(".ext")))
def test_corpus_tag_basis_and_contraction_are_canonical(name):
    ext = load_extension(os.path.join(CORPUS, name))
    if ext.b_ring.field != QQ:
        pytest.skip("not over QQ")
    assert_canonical_coefficients(ext._membership_ring().groebner())
    assert_canonical_coefficients(ext.contraction_ideal().generators)


def test_golden_qq_bases_are_canonical():
    cases = [(ring, gens) for ring, gens in basis_cases() if ring.field == QQ]
    assert cases
    for ring, gens in cases:
        assert_canonical_coefficients(buchberger(gens, ring))


def test_prime_field_arithmetic():
    f5 = PrimeField(5)
    assert f5.add(3, 4) == 2
    assert f5.mul(2, 4) == 3
    assert f5.inv(2) == 3
    assert f5.from_fraction(Fraction(1, 2)) == 3


def test_prime_field_validation():
    with pytest.raises(CartierlabError):
        PrimeField(6)
    with pytest.raises(CartierlabError):
        PrimeField(1)
    with pytest.raises(CartierlabError):
        PrimeField(2**31 + 11)


def test_univariate_divmod_matches_oracle():
    from oracles import univariate_divmod

    num = qpoly(-1, 0, 0, 1)  # z^3 - 1
    den = qpoly(-1, 1)  # z - 1
    quo, rem = up.udivmod(QQ, num, den)
    oq, orem = univariate_divmod([Fraction(c) for c in num], [Fraction(c) for c in den])
    assert list(quo) == [c for c in oq]
    assert not rem and not orem


def test_gcd_and_squarefree():
    # (z-1)^2 (z+2)
    p = up.umul(QQ, up.umul(QQ, qpoly(-1, 1), qpoly(-1, 1)), qpoly(2, 1))
    sq = up.usquarefree_part(QQ, p)
    assert sq == up.umul(QQ, qpoly(-1, 1), qpoly(2, 1))


def test_squarefree_over_prime_field_inseparable():
    f5 = PrimeField(5)
    # (x^5 - x) = x(x-1)...(x-4); (x^5 - x)^? use x^5 + 4x = x(x^4+4)
    p = tuple(f5.from_int(c) for c in (0, 4, 0, 0, 0, 1))  # x^5 + 4x = x^5 - x
    sq = up.usquarefree_part(f5, p)
    assert up.udeg(sq) == 5  # already squarefree
    # x^10 - 2x^6 + x^2 = (x^5 - x)^2
    square = up.umul(f5, p, p)
    assert up.usquarefree_part(f5, square) == up.umonic(f5, p)


def test_factor_qq_quadratics_and_roots():
    # z^2 - 1 -> (z-1)(z+1)
    factors = qq_factors(qpoly(-1, 0, 1))
    assert sorted(factors) == sorted([qpoly(-1, 1), qpoly(1, 1)])
    # z^3 - z
    factors = qq_factors(qpoly(0, -1, 0, 1))
    assert len(factors) == 3
    # z^2 + 1 irreducible
    assert qq_factors(qpoly(1, 0, 1)) == [qpoly(1, 0, 1)]
    # z^4 + 1 irreducible over QQ (needs the Kronecker search)
    assert qq_factors(qpoly(1, 0, 0, 0, 1)) == [qpoly(1, 0, 0, 0, 1)]
    # (z^2+1)(z^2+2) has no rational roots but splits
    prod = up.umul(QQ, qpoly(1, 0, 1), qpoly(2, 0, 1))
    assert sorted(qq_factors(prod)) == sorted([qpoly(1, 0, 1), qpoly(2, 0, 1)])
    # (2z - 1)(z + 3): one rational root is not an integer
    prod = up.umul(QQ, qpoly(-1, 2), qpoly(3, 1))
    assert sorted(qq_factors(prod)) == [(Fraction(-1, 2), 1), (3, 1)]


def test_factor_degree_cap():
    # z^10 + z + 1 exceeds the rational factor-search cap after root stripping
    coeffs = [Fraction(1), Fraction(1)] + [Fraction(0)] * 8 + [Fraction(1)]
    with pytest.raises(FactorSearchLimit):
        squarefree_factors(QQ, tuple(coeffs))


def test_factor_prime_field():
    f5 = PrimeField(5)
    poly = tuple(f5.from_int(c) for c in (-1, 0, 1))  # z^2 - 1
    factors = squarefree_factors(f5, poly)
    assert len(factors) == 2
    # z^2 + 2 is irreducible over F_5 (squares are 0,1,4)
    poly = tuple(f5.from_int(c) for c in (2, 0, 1))
    assert squarefree_factors(f5, poly) == [poly]
    # z^4 - 1 has the factors z-1, z+1, z^2+1 over F_5... but 2^2=4=-1 so it splits fully
    poly = tuple(f5.from_int(c) for c in (-1, 0, 0, 0, 1))
    assert len(squarefree_factors(f5, poly)) == 4


def test_simple_extension_field():
    gauss = SimpleExtensionField(QQ, qpoly(1, 0, 1), generator="i")
    i = gauss.generator_element()
    assert gauss.mul(i, i) == gauss.neg(gauss.one())
    inv = gauss.inv(gauss.add(gauss.one(), i))  # 1/(1+i) = (1-i)/2
    expected = gauss.add(
        gauss.embed(Fraction(1, 2)), gauss.mul(gauss.embed(Fraction(-1, 2)), i)
    )
    assert inv == expected
    with pytest.raises(CartierlabError):
        SimpleExtensionField(QQ, qpoly(-1, 0, 1))  # z^2 - 1 is reducible


def test_rational_function_field():
    K = RationalFunctionField(QQ, "t")
    t = K.variable_element()
    a = K.add(t, K.one())
    b = K.inv(a)
    assert K.mul(a, b) == K.one()
    assert K.is_polynomial(a)
    assert not K.is_polynomial(b)
    with pytest.raises(CartierlabError):
        RationalFunctionField(K, "s")  # only one function-field level


def test_rational_function_quadratic_split():
    K = RationalFunctionField(QQ, "x")
    x = K.variable_element()
    # z^2 - x^2 splits as (z-x)(z+x)
    poly = (K.neg(K.mul(x, x)), K.zero(), K.one())
    factors = squarefree_factors(K, poly)
    assert len(factors) == 2
    # z^2 - x is irreducible
    poly = (K.neg(x), K.zero(), K.one())
    assert len(squarefree_factors(K, poly)) == 1
    # z^2 - z - x is irreducible (odd-degree discriminant)
    poly = (K.neg(x), K.neg(K.one()), K.one())
    assert len(squarefree_factors(K, poly)) == 1
    # constant coefficients factor through the base: z^2 - z
    poly = (K.zero(), K.neg(K.one()), K.one())
    assert len(squarefree_factors(K, poly)) == 2


def test_verify_irreducible_accepts_and_rejects():
    verify_irreducible(QQ, qpoly(1, 0, 1))
    with pytest.raises(CartierlabError):
        verify_irreducible(QQ, qpoly(-1, 0, 1))
    f7 = PrimeField(7)
    verify_irreducible(f7, tuple(f7.from_int(c) for c in (1, 0, 1)))  # z^2+1, -1 non-square mod 7
