from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oracles import membership_by_linear_algebra, naive_reduce
from cartierlab.errors import CartierlabError, PairBudgetExceeded
from cartierlab.polycore import (
    GREVLEX,
    Ideal,
    LEX,
    MonomialOrder,
    Polynomial,
    PolyRing,
    PrimeField,
    QQ,
    parse_polynomial,
    reduce_poly,
)
from cartierlab.polycore.groebner import (
    _divides,
    _lcm,
    _sub,
    buchberger,
    divide_with_quotients,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property tests below skip
    st = None
try:
    import sympy
except ImportError:
    sympy = None


def make_ideal(ring, texts):
    return Ideal(ring, [parse_polynomial(t, ring) for t in texts])


def spair(ring, f, g):
    ef, cf = f.leading_term()
    eg, cg = g.leading_term()
    lcm = _lcm(ef, eg)
    return f.term_mul(_sub(lcm, ef), ring.field.inv(cf)) - g.term_mul(
        _sub(lcm, eg), ring.field.inv(cg)
    )


def assert_is_reduced_basis(ring, gens, gb):
    # every generator reduces to zero
    for g in gens:
        assert reduce_poly(g, list(gb)).is_zero()
    # all S-pairs reduce to zero
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            assert reduce_poly(spair(ring, gb[i], gb[j]), list(gb)).is_zero()
    # monic, tail-reduced
    for i, g in enumerate(gb):
        assert ring.field.is_one(g.leading_term()[1])
        others = [h for k, h in enumerate(gb) if k != i]
        for exp in g.terms():
            assert not any(_divides(h.leading_term()[0], exp) for h in others)


def test_already_reduced():
    ring = PolyRing(QQ, ["x", "y"], GREVLEX)
    ideal = make_ideal(ring, ["x", "y"])
    gb = ideal.groebner()
    assert sorted(str(g) for g in gb) == ["x", "y"]


def test_empty_ideal():
    ring = PolyRing(QQ, ["x", "y"], GREVLEX)
    assert Ideal(ring, []).groebner() == ()


def test_lex_example_from_hand_reduction():
    # {x^2 - 1, x*y - 1} in lex x > y gives {x - y, y^2 - 1}
    ring = PolyRing(QQ, ["x", "y"], LEX)
    ideal = make_ideal(ring, ["x^2 - 1", "x*y - 1"])
    gb = ideal.groebner()
    assert sorted(str(g) for g in gb) == ["x - y", "y^2 - 1"]
    # cross-check by the independent linear-algebra membership oracle
    gens = [{(2, 0): Fraction(1), (0, 0): Fraction(-1)}, {(1, 1): Fraction(1), (0, 0): Fraction(-1)}]
    assert membership_by_linear_algebra(
        {(1, 0): Fraction(1), (0, 1): Fraction(-1)}, gens, 2, 5
    )
    assert membership_by_linear_algebra(
        {(0, 2): Fraction(1), (0, 0): Fraction(-1)}, gens, 2, 5
    )


def test_normal_form_properties():
    ring = PolyRing(QQ, ["x", "y"], GREVLEX)
    ideal = make_ideal(ring, ["y^2 - x^3 - x^2"])
    f = parse_polynomial("y^2 - x^3 - x^2", ring)
    assert ideal.normal_form(f).is_zero()
    one = parse_polynomial("1", ring)
    proper = make_ideal(ring, ["x", "y"])
    assert proper.normal_form(one) == one
    # idempotence
    g = parse_polynomial("y^4 + x*y + 1", ring)
    nf = ideal.normal_form(g)
    assert ideal.normal_form(nf) == nf


def test_univariate_normal_form():
    ring = PolyRing(QQ, ["t"], GREVLEX)
    ideal = make_ideal(ring, ["t^2 - 1"])
    f = parse_polynomial("t^3 - t", ring)
    assert ideal.normal_form(f).is_zero()


def test_membership_consistency_random():
    rng = random.Random(7)
    ring = PolyRing(QQ, ["x", "y"], GREVLEX)
    gens = [parse_polynomial("x^2 + y", ring), parse_polynomial("x*y - 1", ring)]
    ideal = Ideal(ring, gens)
    monos = ["1", "x", "y", "x*y", "x^2", "y^2"]
    for _ in range(10):
        combo = ring.zero()
        for g in gens:
            h = parse_polynomial(rng.choice(monos), ring).scale(
                Fraction(rng.randint(-3, 3))
            )
            combo = combo + h * g
        assert ideal.contains_poly(combo)
        assert not ideal.contains_poly(combo + ring.one())


def test_pair_budget_is_enforced():
    ring = PolyRing(QQ, ["x", "y", "z"], GREVLEX)
    ideal = make_ideal(ring, ["x^3 - 2*x*y", "x^2*y - 2*y^2 + x", "z^2 - x*y"])
    with pytest.raises(PairBudgetExceeded):
        ideal2 = Ideal(ring, list(ideal.generators))
        ideal2.groebner(pair_budget=1)


def test_random_ideal_corpus_s_pair_property():
    """20 random ideals: generators reduce to 0 and all S-pairs reduce to 0."""
    rng = random.Random(20260811)
    ring = PolyRing(QQ, ["x", "y", "z"], GREVLEX)

    def random_poly():
        nterms = rng.randint(1, 4)
        total = ring.zero()
        for _ in range(nterms):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            coeff = Fraction(rng.randint(-4, 4))
            total = total + ring.monomial(exps, QQ.from_fraction(coeff) if coeff else QQ.one())
        return total

    for _ in range(20):
        gens = [random_poly() for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        ideal = Ideal(ring, gens)
        gb = ideal.groebner()
        assert_is_reduced_basis(ring, gens, gb)


def test_determinism_bit_identical():
    ring = PolyRing(QQ, ["x", "y", "z"], GREVLEX)
    texts = ["x^2 + y*z - 1", "y^2 - x*z", "z^3 - x*y + y"]
    first = [str(g) for g in make_ideal(ring, texts).groebner()]
    second = [str(g) for g in make_ideal(ring, texts).groebner()]
    assert first == second


def test_random_ideal_property_over_f5():
    from cartierlab.polycore import PrimeField

    f5 = PrimeField(5)
    rng = random.Random(510)
    ring = PolyRing(f5, ["x", "y"], GREVLEX)
    for _ in range(10):
        gens = []
        for _ in range(rng.randint(1, 3)):
            total = ring.zero()
            for _ in range(rng.randint(1, 3)):
                exps = (rng.randint(0, 2), rng.randint(0, 2))
                total = total + ring.monomial(exps, f5.from_int(rng.randint(1, 4)))
            gens.append(total)
        gens = [g for g in gens if not g.is_zero()]
        gb = Ideal(ring, gens).groebner()
        assert_is_reduced_basis(ring, gens, list(gb))


def test_normal_form_idempotent_on_random_probes():
    rng = random.Random(12)
    ring = PolyRing(QQ, ["x", "y"], GREVLEX)
    ideal = make_ideal(ring, ["y^2 - x^3 - x^2", "x^4 - y"])
    for _ in range(12):
        probe = ring.zero()
        for _ in range(rng.randint(1, 5)):
            exps = (rng.randint(0, 4), rng.randint(0, 4))
            probe = probe + ring.monomial(exps, Fraction(rng.randint(-5, 5) or 1))
        nf = ideal.normal_form(probe)
        assert ideal.normal_form(nf) == nf


def test_free_function_aliases():
    from cartierlab.polycore import groebner, normal_form

    ring = PolyRing(QQ, ["t"], GREVLEX)
    ideal = make_ideal(ring, ["t^2 - 1"])
    assert [str(g) for g in groebner(ideal)] == ["t^2 - 1"]
    assert normal_form(parse_polynomial("t^3 - t", ring), ideal).is_zero()


# -- the unchecked constructor -------------------------------------------------


def test_cancelling_arithmetic_gives_the_zero_polynomial():
    f7 = PrimeField(7)
    for ring in (PolyRing(QQ, ["x", "y"]), PolyRing(f7, ["x", "y"], LEX)):
        x = ring.variable("x")
        f = parse_polynomial("3*x^2*y - y + 2", ring)
        for zero in (x - x, f - f, f + (-f), f.scale(ring.field.zero()),
                     f.term_mul((1, 2), ring.field.zero()), (f - f) * f):
            assert zero.is_zero()
            assert zero == ring.zero()
            assert hash(zero) == hash(ring.zero())
    ring = PolyRing(f7, ["x"])
    f = parse_polynomial("x^2 + 3", ring)
    assert (-f).terms() == {(2,): 6, (0,): 4}
    assert -(-f) == f


def test_hash_and_equality_survive_the_cached_leading_term():
    ring = PolyRing(QQ, ["x", "y"])
    x, y = ring.variable("x"), ring.variable("y")
    built = (x + y) * x - y.scale(QQ.from_int(2))
    parsed = parse_polynomial("-2*y + x*y + x^2", ring)
    assert built.leading_term() == ((2, 0), QQ.one())  # cached on one side only
    assert built == parsed and hash(built) == hash(parsed)
    assert parsed.leading_term() == built.leading_term()
    assert len({built, parsed}) == 1


def test_term_mul_checks_a_negative_shift():
    ring = PolyRing(QQ, ["x", "y"])
    f = parse_polynomial("x^2 + x*y", ring)
    assert f.term_mul((-1, 0), QQ.one()) == parse_polynomial("x + y", ring)
    with pytest.raises(CartierlabError):
        f.term_mul((0, -1), QQ.one())


# -- properties of the division kernel and the pair queue ----------------------

FIELDS = (QQ, PrimeField(32003))
ORDERS = (LEX, GREVLEX, MonomialOrder("block", 1))
NAMES = ("x", "y", "z")

if st is None:
    def property_test(fn):
        return pytest.mark.skip(reason="hypothesis is not installed")(fn)
else:
    def property_test(fn):
        checked = settings(max_examples=60, deadline=None, derandomize=True,
                           database=None)
        return checked(given(data=st.data())(fn))


def draw_ring(data, orders=ORDERS) -> PolyRing:
    field = data.draw(st.sampled_from(FIELDS))
    order = data.draw(st.sampled_from(orders))
    return PolyRing(field, NAMES[: data.draw(st.integers(2, 3))], order)


def draw_poly(data, ring, max_terms=4, max_exp=3) -> Polynomial:
    exps = st.tuples(*[st.integers(0, max_exp)] * ring.nvars())
    coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 3))
    terms = data.draw(st.dictionaries(exps, coeffs, max_size=max_terms))
    return Polynomial(ring, {e: ring.field.from_fraction(c) for e, c in terms.items()})


def draw_basis(data, ring, size=3, **kwargs) -> list:
    polys = [draw_poly(data, ring, **kwargs) for _ in range(data.draw(st.integers(1, size)))]
    return [g for g in polys if not g.is_zero()] or [ring.variable("y")]


@property_test
def test_reduce_poly_matches_the_textbook_loop(data):
    ring = draw_ring(data)
    f = draw_poly(data, ring, max_terms=6, max_exp=4)
    basis = draw_basis(data, ring)
    expected = naive_reduce(f.terms(), [g.terms() for g in basis], ring.field,
                            ring.order.key)
    assert list(reduce_poly(f, basis).terms().items()) == list(expected.items())


@property_test
def test_divide_with_quotients_reassembles_the_dividend(data):
    ring = draw_ring(data)
    f = draw_poly(data, ring, max_terms=6, max_exp=4)
    basis = draw_basis(data, ring)
    quotients, remainder = divide_with_quotients(f, basis)
    total = remainder
    for q, g in zip(quotients, basis):
        total = total + q * g
    assert total == f
    assert remainder == reduce_poly(f, basis)


@property_test
def test_heap_key_sorts_in_reverse_monomial_order(data):
    order = data.draw(st.sampled_from(ORDERS))
    nvars = data.draw(st.integers(2, 4))
    exps = data.draw(st.sets(st.tuples(*[st.integers(0, 5)] * nvars), max_size=12))
    assert sorted(exps, key=order.heap_key) == sorted(exps, key=order.key, reverse=True)


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@property_test
def test_buchberger_matches_sympy(data):
    ring = draw_ring(data, orders=(LEX, GREVLEX))
    gens = draw_basis(data, ring, max_terms=3, max_exp=2)
    symbols = sympy.symbols(ring.variables)
    domain = {"modulus": ring.field.p} if ring.field.characteristic else {"domain": "QQ"}
    exprs = [sympy.sympify(str(g).replace("^", "**")) for g in gens]
    expected = sympy.groebner(exprs, *symbols, order=ring.order.kind, **domain)
    theirs = set()
    for poly in expected.polys:
        terms = {}
        for exps, c in poly.terms():
            c = sympy.Rational(c)
            terms[exps] = ring.field.from_fraction(Fraction(int(c.p), int(c.q)))
        theirs.add(Polynomial(ring, terms).monic())
    assert set(buchberger(gens, ring)) == theirs
