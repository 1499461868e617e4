from __future__ import annotations

import math
import os
import random
import re
import time
from fractions import Fraction

import pytest

from cartierlab.corpus import corpus_path
from cartierlab.errors import CartierlabError, FactorSearchLimit
from cartierlab.extfile import load_extension
from cartierlab.polycore import unipoly as up
from cartierlab.polycore.factor import _base_sqrt, squarefree_factors, verify_irreducible
from cartierlab.polycore.groebner import buchberger
from cartierlab.polycore.fields import Field, PrimeField, QQ, RationalFunctionField
from cartierlab.polycore.rings import Polynomial, PolyRing

from oracles import rf_add, rf_inv, rf_mul, rf_reduce
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
    # z^4 + 1 is irreducible over QQ but splits modulo every prime
    assert qq_factors(qpoly(1, 0, 0, 0, 1)) == [qpoly(1, 0, 0, 0, 1)]
    # (z^2+1)(z^2+2) has no rational roots but splits
    prod = up.umul(QQ, qpoly(1, 0, 1), qpoly(2, 0, 1))
    assert sorted(qq_factors(prod)) == sorted([qpoly(1, 0, 1), qpoly(2, 0, 1)])
    # (2z - 1)(z + 3): one rational root is not an integer
    prod = up.umul(QQ, qpoly(-1, 2), qpoly(3, 1))
    assert sorted(qq_factors(prod)) == [(Fraction(-1, 2), 1), (3, 1)]


def swinnerton_dyer(primes) -> tuple:
    """The minimal polynomial of the sum of the square roots of the primes,
    of degree 2^len(primes), which splits modulo every prime into factors of
    degree at most 2. With f(x + sqrt(p)) = A + sqrt(p) B, each prime takes
    f to f(x + sqrt(p)) f(x - sqrt(p)) = A^2 - p B^2."""
    f = qpoly(0, 1)
    for p in primes:
        a, b = [0] * len(f), [0] * len(f)
        for i, c in enumerate(f):
            for j in range(i + 1):  # c x^(i-j) sqrt(p)^j, from c (x + sqrt(p))^i
                (b if j % 2 else a)[i - j] += c * math.comb(i, j) * p ** (j // 2)
        a, b = up.utrim(QQ, a), up.utrim(QQ, b)
        f = up.usub(QQ, up.umul(QQ, a, a), up.uscale(QQ, p, up.umul(QQ, b, b)))
    return f


def test_factor_recombination_cap():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    # z^10 + z + 1 = (z^2 + z + 1)(z^8 - z^7 + z^5 - z^4 + z^3 - z + 1)
    _, pairs = sympy.factor_list(z**10 + z + 1)
    expected = sorted(tuple(int(c) for c in reversed(sympy.Poly(f, z).all_coeffs()))
                      for f, _ in pairs)
    assert squarefree_factors(QQ, qpoly(1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)) == expected
    # sqrt 2 + ... + sqrt 7: 8 quadratic factors modulo 11, recombined in 162 subsets
    assert squarefree_factors(QQ, swinnerton_dyer([2, 3, 5, 7])) == [swinnerton_dyer([2, 3, 5, 7])]
    # sqrt 2 + ... + sqrt 13: its 32 modular factors have 2^31 subsets to try
    start = time.perf_counter()
    with pytest.raises(FactorSearchLimit, match="recombination"):
        squarefree_factors(QQ, swinnerton_dyer([2, 3, 5, 7, 11, 13]))
    assert time.perf_counter() - start < 10


def test_irreducibility_past_the_recombination_cap_is_refused():
    # s * s(x + 1), of degree 64, is reducible, but its 64 modular factors
    # take the search past its cap: the answer is refused, never assumed
    s = swinnerton_dyer([2, 3, 5, 7, 11])
    shifted = ()
    for c in reversed(s):  # s(x + 1), by Horner
        shifted = up.uadd(QQ, up.umul(QQ, shifted, (1, 1)), (c,))
    product = up.umul(QQ, s, shifted)
    with pytest.raises(FactorSearchLimit, match="recombination"):
        verify_irreducible(QQ, product)


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


def test_equal_function_fields_built_apart_are_equal():
    """Two k(v) built separately are one field, and so are polynomial rings
    over them; a different base or variable is a different field."""
    from cartierlab.polycore import GREVLEX, PolyRing

    K, L = RationalFunctionField(PrimeField(7), "v"), RationalFunctionField(PrimeField(7), "v")
    assert K is not L and K == L and hash(K) == hash(L)
    assert PolyRing(K, ["x"], GREVLEX) == PolyRing(L, ["x"], GREVLEX)
    assert K != RationalFunctionField(PrimeField(5), "v")
    assert K != RationalFunctionField(PrimeField(7), "w")
    assert K != PrimeField(7)


RF_FIELDS = (RationalFunctionField(QQ, "v"), RationalFunctionField(PrimeField(7), "v"),
             RationalFunctionField(PrimeField(10009), "v"))


def _check_rf_ops(K, a, b):
    """Each operation gives the reduced form the oracle gives, in the same
    representation (repr tells 2 from Fraction(2, 1))."""
    neg_b = K.neg(b)
    results = {"add": (K.add(a, b), rf_add(K, a, b)),
               "sub": (K.sub(a, b), rf_add(K, a, neg_b)),
               "mul": (K.mul(a, b), rf_mul(K, a, b))}
    if not K.is_zero(a):
        results["inv"] = (K.inv(a), rf_inv(K, a))
    if not K.is_zero(b):
        results["div"] = (K.div(a, b), rf_mul(K, a, rf_inv(K, b)))
    for name, (got, expected) in results.items():
        assert repr(got) == repr(expected), (name, K, a, b)


def test_rational_function_ops_on_edges():
    for K in RF_FIELDS:
        v = K.variable_element()
        w = K.sub(v, K.one())
        frac = K.div(v, K.mul(w, w))  # v / (v - 1)^2
        for a, b in [(frac, frac), (frac, K.neg(frac)), (frac, K.inv(frac)),
                     (frac, K.div(K.one(), w)), (K.zero(), frac), (v, K.inv(v)),
                     (K.add(v, K.one()), w), (frac, K.mul(w, K.from_int(3)))]:
            _check_rf_ops(K, a, b)
            _check_rf_ops(K, b, a)
        assert K.add(frac, K.neg(frac)) == K.zero()
        assert K.mul(frac, K.inv(frac)) == K.one()


if st is None:
    def test_rational_function_ops_match_full_reduction():
        pytest.skip("hypothesis is not installed")
else:
    _coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    _atoms = st.lists(st.lists(_coefficients, min_size=1, max_size=3), min_size=4, max_size=4)
    _picks = st.lists(st.integers(0, 3), max_size=3)
    _SHAPES = ("free", "polynomial a", "polynomial b", "polynomials",
               "same denominator", "negated", "zero a")

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(field=st.sampled_from(range(len(RF_FIELDS))), atoms=_atoms,
           parts=st.tuples(_picks, _picks, _picks, _picks), scale=_coefficients.filter(bool),
           shape=st.sampled_from(_SHAPES))
    def test_rational_function_ops_match_full_reduction(field, atoms, parts, scale, shape):
        """a and b are built from one pool of four small polynomials, so they
        share factors across numerators and denominators; the shapes add
        polynomial operands, equal denominators, sums that cancel to 0 and
        a zero operand."""
        K = RF_FIELDS[field]
        base = K.base
        pool = [up.utrim(base, [base.from_fraction(c) for c in atom]) for atom in atoms]
        pool = [p if p else (base.one(),) for p in pool]

        def product(picks):
            out = (base.one(),)
            for i in picks:
                out = up.umul(base, out, pool[i])
            return out

        na, da, nb, db = (product(p) for p in parts)
        if shape in ("polynomial a", "polynomials", "zero a"):
            da = (base.one(),)
        if shape in ("polynomial b", "polynomials"):
            db = (base.one(),)
        if shape == "same denominator":
            db = da
        if shape == "zero a":
            na = ()
        a = rf_reduce(K, na, da)
        b = rf_reduce(K, up.uscale(base, base.from_fraction(scale), nb), db)
        if shape == "negated":
            b = K.neg(a)
        _check_rf_ops(K, a, b)
        _check_rf_ops(K, b, a)


def test_polynomial_operands_take_no_gcd(monkeypatch):
    """A denominator of 1 needs no gcd: sums, differences, products and
    inverses of polynomials, and polynomial constructors, take none."""
    calls = []
    original = up.ugcd
    monkeypatch.setattr(up, "ugcd", lambda field, p, q: calls.append((p, q)) or original(field, p, q))
    for K in RF_FIELDS:
        v = K.variable_element()
        a = K.add(K.mul(v, v), K.one())
        b = K.sub(K.mul(v, v), K.from_int(3))
        results = [K.add(a, b), K.sub(a, a), K.mul(a, b), K.inv(a), K.inv(K.inv(b)),
                   K.neg(b), K.from_fraction(Fraction(2, 5))]
        assert results[1] == K.zero() and results[4] == b
    assert calls == []


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


def test_pth_root_over_a_function_field_in_characteristic_p():
    from cartierlab.errors import RadicalUnavailable

    k = RationalFunctionField(PrimeField(3), "v")
    v = k.variable_element()
    cube = k.inv(k.add(k.mul(k.mul(v, v), v), k.one()))  # 1/(v^3 + 1)
    assert k.pth_root(cube) == k.inv(k.add(v, k.one()))
    with pytest.raises(RadicalUnavailable, match="is not a p-th power in FP\\(3\\)\\(v\\)"):
        k.pth_root(v)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 29, 41])
def test_prime_field_square_roots(p):
    field = PrimeField(p)
    squares = {a * a % p for a in range(p)}
    for a in range(p):
        r = _base_sqrt(field, field.from_int(a))
        if a in squares:
            assert field.mul(r, r) == field.from_int(a)
        else:
            assert r is None


@pytest.mark.parametrize("K", [QQ, PrimeField(7), *RF_FIELDS[:2]], ids=lambda K: K.describe())
def test_every_field_defines_the_listed_operations(K):
    """The Field base holds no stubs: each field defines the operations its
    docstring lists, and `pth_root` as well in prime characteristic."""
    listed, in_char_p = (re.findall(r"`(\w+)`", part) for part in Field.__doc__.split(";"))
    assert len(listed) == 11 and in_char_p == ["pth_root"]
    required = listed + (in_char_p if K.characteristic else [])
    assert set(required).isdisjoint(vars(Field))
    assert [name for name in required if not callable(getattr(K, name, None))] == []


def _random_coefficient(rng, K):
    """Often zero; over QQ a fraction of either sign; over QQ(v) a quotient
    whose numerator may have several terms."""
    if isinstance(K, PrimeField):
        return rng.randrange(K.p)
    if K is QQ:
        return QQ.from_fraction(Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3])))
    num = up.utrim(QQ, [_random_coefficient(rng, QQ) for _ in range(rng.randint(0, 3))])
    return K.make(num, rng.choice([(1,), (_random_coefficient(rng, QQ), 1)]))


@pytest.mark.parametrize("K", [QQ, PrimeField(7), RF_FIELDS[0]], ids=lambda K: K.describe())
def test_uformat_prints_like_a_univariate_polynomial(K):
    """`uformat` of a coefficient tuple is `str` of the same polynomial in
    K[x]: both go through the one term printer."""
    rng = random.Random(5)
    ring = PolyRing(K, ["x"])
    texts = []
    for _ in range(300):
        p = up.utrim(K, [_random_coefficient(rng, K) for _ in range(rng.randint(0, 5))])
        text = up.uformat(K, p, "x")
        assert text == str(Polynomial(ring, {(i,): c for i, c in enumerate(p)}))
        texts.append(text)
    assert "0" in texts
    if K is QQ:
        assert any(t.startswith("-") and "/" in t for t in texts)
    if K is RF_FIELDS[0]:
        assert any(re.search(r"\(\S+ [+-] \S+\)\*x", t) for t in texts)
