from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cartierlab import artinian, laurent
from cartierlab.artinian import (
    FiniteAlgebra,
    component_count,
    idempotent_decomposition,
    reduced_algebra,
)
from cartierlab.corpus import corpus_path
from cartierlab.errors import CertificateFailure, ParseError
from cartierlab.extfile import load_ring
from cartierlab.laurent import (
    LaurentElement,
    NotAUnit,
    _base_inverse,
    _unit_exponents,
    bass_decompose,
    is_laurent_unit,
    parse_laurent,
)
from cartierlab.polycore import GREVLEX, Ideal, PolyRing, PrimeField, QQ, parse_polynomial
from cartierlab.polycore.groebner import Ideal as IdealClass
from oracles import parse_laurent_by_element_arithmetic


def algebra(variables, texts, field=QQ):
    ring = PolyRing(field, variables, GREVLEX)
    return FiniteAlgebra(Ideal(ring, [parse_polynomial(t, ring) for t in texts]))


BASE_QQ = algebra([], [])
BASE_SPLIT = algebra(["e"], ["e^2 - e"])
BASE_NIL = algebra(["eps"], ["eps^2"])
BASE_TRIPLE = algebra(["t0"], ["t0^3 - t0"])


def test_is_unit_examples():
    t = LaurentElement.t_power(BASE_QQ, 1)
    assert is_laurent_unit(t) is True
    one_plus_t = LaurentElement.one(BASE_QQ) + t
    assert is_laurent_unit(one_plus_t) is False
    eps = BASE_NIL.variable_element("eps")
    x = LaurentElement.one(BASE_NIL) + LaurentElement.t_power(BASE_NIL, 1, eps)
    assert is_laurent_unit(x) is True
    # explicit inverse: (1 + eps t)(1 - eps t) = 1 - eps^2 t^2 = 1
    inv = LaurentElement.one(BASE_NIL) - LaurentElement.t_power(BASE_NIL, 1, eps)
    assert x * inv == LaurentElement.one(BASE_NIL)


def test_bass_decompose_monomial():
    x = LaurentElement.t_power(BASE_QQ, 3, BASE_QQ.scalar(Fraction(5)))
    dec = bass_decompose(x)
    assert dec.u0 == BASE_QQ.scalar(Fraction(5))
    assert dec.exponents == (3,)
    assert dec.p_part == LaurentElement.one(BASE_QQ)
    assert dec.q_part == LaurentElement.one(BASE_QQ)
    assert dec.recompose() == x


def test_bass_decompose_nilpotent_tail():
    eps = BASE_NIL.variable_element("eps")
    two = BASE_NIL.scalar(Fraction(2))
    x = LaurentElement.t_power(BASE_NIL, -1, two) * (
        LaurentElement.one(BASE_NIL) + LaurentElement.t_power(BASE_NIL, 1, eps)
    )
    dec = bass_decompose(x)
    assert dec.u0 == two
    assert dec.exponents == (-1,)
    assert dec.p_part == LaurentElement.one(BASE_NIL) + LaurentElement.t_power(BASE_NIL, 1, eps)
    assert dec.q_part == LaurentElement.one(BASE_NIL)
    assert dec.recompose() == x


def test_bass_decompose_componentwise_exponents():
    e = BASE_SPLIT.variable_element("e")
    one_minus_e = BASE_SPLIT.sub(BASE_SPLIT.one(), e)
    # x = e*t + (1 - e): component values (t, 1)
    x = LaurentElement.t_power(BASE_SPLIT, 1, e) + LaurentElement.constant(
        BASE_SPLIT, one_minus_e
    )
    dec = bass_decompose(x)
    assert dec.u0 == BASE_SPLIT.one()
    assert sorted(dec.exponents) == [0, 1]
    assert dec.p_part == LaurentElement.one(BASE_SPLIT)
    assert dec.q_part == LaurentElement.one(BASE_SPLIT)
    assert dec.recompose() == x


def test_not_a_unit_raises():
    with pytest.raises(NotAUnit):
        bass_decompose(LaurentElement.one(BASE_QQ) + LaurentElement.t_power(BASE_QQ, 1))


def test_lu_ranks():
    assert component_count(BASE_QQ) == 1
    assert component_count(BASE_SPLIT) == 2
    assert component_count(BASE_TRIPLE) == 3


def _random_unit(base, rng):
    """Assemble a random unit as unit * t-block * positive tail * negative tail."""
    from cartierlab.artinian import idempotent_decomposition

    field = base.field
    decomp = idempotent_decomposition(base)
    # invertible scalar times (1 + nilpotent)
    u0 = base.scalar(Fraction(rng.choice([1, 2, 3, -1, -2])))
    block = LaurentElement(base, {})
    for e in decomp.idempotents:
        block = block + LaurentElement(base, {rng.randint(-2, 2): e})
    x = LaurentElement.constant(base, u0) * block
    # nilpotent tails
    from cartierlab.artinian import reduced_algebra

    red = reduced_algebra(base)
    nil_elems = []
    for i in range(base.dim):
        cand = base.basis_element(i)
        if red.is_zero_elem(red.from_poly(base.to_poly(cand))):
            nil_elems.append(cand)
    for degree_sign in (1, -1):
        tail = LaurentElement.one(base)
        for n in nil_elems:
            if rng.random() < 0.6:
                deg = degree_sign * rng.randint(1, 2)
                coeff = base.scale(field.from_int(rng.randint(-2, 2)), n)
                tail = tail + LaurentElement(base, {deg: coeff})
        x = x * tail
    return x


def test_random_units_round_trip_and_additivity():
    rng = random.Random(41)
    bases = [BASE_QQ, BASE_SPLIT, BASE_NIL]
    count = 0
    while count < 50:
        base = bases[count % 3]
        x = _random_unit(base, rng)
        assert is_laurent_unit(x) is True
        dec = bass_decompose(x)
        assert dec.recompose() == x
        y = _random_unit(base, rng)
        dec_y = bass_decompose(y)
        dec_xy = bass_decompose(x * y)
        assert dec_xy.exponents == tuple(
            a + b for a, b in zip(dec.exponents, dec_y.exponents)
        )
        count += 1


def test_unit_of_base_has_trivial_tails_and_exponents():
    rng = random.Random(99)
    for base in (BASE_SPLIT, BASE_NIL):
        one = LaurentElement.one(base)
        u = LaurentElement.constant(base, base.scalar(Fraction(7)))
        dec = bass_decompose(u)
        assert dec.p_part == one and dec.q_part == one
        assert all(n == 0 for n in dec.exponents)


def test_reduced_base_units_have_trivial_tails():
    rng = random.Random(5)
    for _ in range(10):
        x = _random_unit(BASE_SPLIT, rng)  # reduced base: no nilpotents
        dec = bass_decompose(x)
        assert dec.p_part == LaurentElement.one(BASE_SPLIT)
        assert dec.q_part == LaurentElement.one(BASE_SPLIT)


def test_parse_laurent():
    x = parse_laurent("2*t^3 + 1", BASE_QQ)
    assert x.coefficient(3) == BASE_QQ.scalar(Fraction(2))
    y = parse_laurent("2*t^-1 + eps*t", BASE_NIL)
    assert y.coefficient(-1) == BASE_NIL.scalar(Fraction(2))
    assert y.coefficient(1) == BASE_NIL.variable_element("eps")
    with pytest.raises(ParseError):
        parse_laurent("(1 + t)^-1", BASE_QQ)
    with pytest.raises(ParseError):
        parse_laurent("q*t", BASE_QQ)


def test_bass_decompose_inverts_each_constant_term_once(monkeypatch):
    """Minimal polynomials of the two variables, then one for u0, which is
    inverted without a separate unit test. p0 is a scalar, inverted in the
    field, and q_part's constant term is one, so nothing inverts it."""
    calls = []
    original = artinian.minimal_polynomial

    def counting(alg, a):
        calls.append(a)
        return original(alg, a)

    base = algebra(["e", "n"], ["(e - 1)*(e + 2)", "n^2"])
    x = parse_laurent("(- 2*(1/3)*(e + 2)*t^-1 - 1*(-1/3)*(e - 1)*t^2)"
                      "*(1 - 2*n*t^1)*(1 - 1*n*t^-2)", base)
    monkeypatch.setattr(artinian, "minimal_polynomial", counting)
    dec = bass_decompose(x)
    assert dec.exponents == (-1, 2) and dec.recompose() == x
    assert len(calls) == 3


def test_base_inverse_of_a_non_unit_names_the_failure():
    eps = BASE_NIL.variable_element("eps")
    two = BASE_NIL.scalar(Fraction(2))
    assert _base_inverse(BASE_NIL, two, "unused") == BASE_NIL.scalar(Fraction(1, 2))
    with pytest.raises(CertificateFailure, match="^tail constant terms must be units$"):
        _base_inverse(BASE_NIL, eps, "tail constant terms must be units")


def test_negative_power_of_a_non_unit_names_it():
    with pytest.raises(ParseError, match="^eps is not a unit, so it has no negative powers"):
        parse_laurent("eps^-1", BASE_NIL)
    with pytest.raises(ParseError, match="^e\\*t is not a unit"):
        parse_laurent("(e*t)^-2", BASE_SPLIT)
    assert parse_laurent("(2*t)^-1", BASE_NIL) == LaurentElement.t_power(
        BASE_NIL, -1, BASE_NIL.scalar(Fraction(1, 2)))


def test_unit_exponents_maps_each_coefficient_once(monkeypatch):
    """Each of the n coefficients and k idempotents goes into A_red once:
    n + k conversions, not one per coefficient and idempotent."""
    base = algebra(["e", "n"], ["e^2 - e", "n^2"])
    x = parse_laurent("e*t^2 + (1 - e)*t^-1 + n*t + 3*n*t^4", base)
    decomp = idempotent_decomposition(base)
    red = reduced_algebra(base)
    calls = []
    original = FiniteAlgebra.from_poly

    def counting(alg, f):
        if alg is red:
            calls.append(f)
        return original(alg, f)

    monkeypatch.setattr(FiniteAlgebra, "from_poly", counting)
    found = _unit_exponents(x)
    assert found is not None and sorted(found[2]) == [-1, 2]
    assert len(calls) == len(x.coeffs) + len(decomp.idempotents) == 6


def test_reduced_base_converts_no_coordinates(monkeypatch):
    """A reduced base is its own A_red: `_unit_exponents` and `bass_decompose`'s
    nilpotency certificate read the coordinates as they are, with no trip
    through a polynomial and back."""
    base = load_ring(corpus_path("split_base.ring"))
    x = parse_laurent("e*t + 1 - e", base)
    idempotent_decomposition(base)
    assert reduced_algebra(base) is base
    calls = []
    for name in ("to_poly", "from_poly"):
        original = getattr(FiniteAlgebra, name)

        def counting(alg, arg, original=original, name=name):
            calls.append(name)
            return original(alg, arg)

        monkeypatch.setattr(FiniteAlgebra, name, counting)
    found = _unit_exponents(x)
    assert found is not None and sorted(found[2]) == [0, 1]
    assert bass_decompose(x).recompose() == x
    assert calls == []


THREE_FACTOR_UNIT = ("(- 2*(1/3)*(e + 2)*t^-1 - 1*(-1/3)*(e - 1)*t^2)"
                     "*(1 - 2*n*t^1)*(1 - 1*n*t^-2)")

# Bases over QQ and F_p in the same variables: e splits the base, n is nilpotent.
LAURENT_BASES = [
    algebra(["e", "n"], ["(e - 1)*(e + 2)", "n^2"]),
    algebra(["e", "n"], ["e^2 - e", "n^2"], PrimeField(7)),
    algebra(["e", "n"], ["e^3 - e", "n^2"], PrimeField(5)),
]

# Single terms to raise to negative powers: units (a constant, a power of t,
# e away from its roots, 1 + nilpotent) and non-units (n, e and e - 1 on a
# split base, 0), and sums whose t-coefficients reduce to zero, everywhere
# (n^2) or on the first base ((e - 1)*(e + 2)), the last two unreduced
# until the negative power.
_SINGLE = ["2*t", "t^2", "3", "(1/2)*t^-1", "e + 3", "(e + 3)*t", "1 + n", "(1 - n)*t^3",
           "n*t", "e*t", "e - 1", "0", "(e^2 + e - 2)*t + 1", "(e^2 + e - 2)*t^2 + 2*t",
           "n^2*t^2 + 2*t", "e^2*t + e*t - 2*t + 1"]
_LEAVES = ["e", "n", "t", "2", "1/3", "1/7", "0", "t^-1", "t^2", "e^2", "3*n*t^-2", "-1",
           "(e^2 + e - 2)", "e*n*t", "2*e^3*t^-1"]


def _laurent_text(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(_LEAVES)
    kind = rng.randrange(7)
    a = _laurent_text(rng, depth - 1)
    if kind == 0:
        return f"({a})^{rng.randint(0, 3)}"
    if kind == 1:
        return f"({rng.choice(_SINGLE)})^-{rng.randint(1, 2)}"
    if kind == 2:
        return f"-({a})"
    if kind == 3:
        return f"(({a}))"
    op = " + " if kind == 4 else " - " if kind == 5 else "*"
    return f"{a}{op}{_laurent_text(rng, depth - 1)}"


def test_term_map_parse_matches_element_arithmetic():
    """On generated expressions over QQ and F_p bases, `parse_laurent` gives
    the element, or the ParseError text, that one `LaurentElement` per
    literal and variable gives: nested parentheses, negative powers of unit
    and non-unit single terms, and a coefficient that reduces to zero before
    a negative power included."""
    rng = random.Random(27)
    texts = [f"({s})^-1" for s in _SINGLE] + [_laurent_text(rng, 4) for _ in range(250)]
    outcomes = {"parsed": 0, "refused": 0}
    for base in LAURENT_BASES:
        for text in texts:
            try:
                expected = parse_laurent_by_element_arithmetic(text, base)
            except ParseError as exc:
                with pytest.raises(ParseError) as err:
                    parse_laurent(text, base)
                assert str(err.value) == str(exc)
                outcomes["refused"] += 1
                continue
            assert parse_laurent(text, base) == expected, text
            outcomes["parsed"] += 1
    assert min(outcomes.values()) > 100


def test_negative_power_judges_reduced_coefficients():
    """(e^2 + e - 2)*t + 1 is the single term 1 over (e - 1)*(e + 2)."""
    base = LAURENT_BASES[0]
    assert parse_laurent("((e^2 + e - 2)*t + 1)^-1", base) == LaurentElement.one(base)
    with pytest.raises(ParseError, match="^negative powers only of single-term units"):
        parse_laurent("((e^2 + e - 2)*t + 1)^-1", LAURENT_BASES[1])


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_parse_laurent_forms_no_algebra_product(monkeypatch):
    """The three-factor unit is parsed on term maps: no product in the base
    algebra and no minimal polynomial, and a normal form only for each
    distinct monomial that a product takes out of the staircase. The base
    is built here, since an algebra remembers the monomials it reduced."""
    base = algebra(["e", "n"], ["(e - 1)*(e + 2)", "n^2"])
    products = _counting(monkeypatch, FiniteAlgebra, "mul")
    minimal = _counting(monkeypatch, artinian, "minimal_polynomial")
    relative = _counting(monkeypatch, artinian, "_relative_minimal_polynomial")
    normal_forms = _counting(monkeypatch, IdealClass, "normal_form")
    x = parse_laurent(THREE_FACTOR_UNIT, base)
    assert (len(products), len(minimal), len(relative)) == (0, 0, 0)
    assert len(normal_forms) == 2  # e*n^2 and n^2
    monkeypatch.undo()
    assert x == parse_laurent_by_element_arithmetic(THREE_FACTOR_UNIT, base)


def test_term_maps_stay_in_the_staircase(monkeypatch):
    """Every product leaves only monomials of the base's staircase, so a
    map of Laurent degree d holds at most dim * (d + 1) terms: 256 for
    (1 + e + n + t)^64, after six squarings, and 48 for twelve factors."""
    base = LAURENT_BASES[0]
    sizes = []
    original = laurent._LaurentEvaluator.mul

    def recording(self, a, b):
        out = original(self, a, b)
        assert all(exp[:-1] in base._index for exp in out)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(laurent._LaurentEvaluator, "mul", recording)
    power = parse_laurent("(1 + e + n + t)^64", base)
    assert sizes == [8, 16, 32, 64, 128, 256]
    sizes.clear()
    product = parse_laurent("*".join(["(1 + e + n + t)"] * 12), base)
    assert len(sizes) == 11 and max(sizes) == 48
    monkeypatch.undo()
    assert power == parse_laurent_by_element_arithmetic("(1 + e + n + t)^64", base)
    assert product == parse_laurent_by_element_arithmetic("(1 + e + n + t)^12", base)


def test_large_base_exponents_take_logarithmic_work(monkeypatch):
    """e^100000 is reached by binary powers: the algebra products and normal
    forms grow with the number of bits of the exponent, and no normal form
    is taken of a monomial past the degree of a product of two staircase
    monomials, so none divides one degree at a time (checked before the
    division runs)."""
    n = 100000
    base = LAURENT_BASES[0]
    top = max(map(sum, base.basis))
    products = _counting(monkeypatch, FiniteAlgebra, "mul")
    normal_forms = []
    original = IdealClass.normal_form

    def bounded(self, f):
        assert max(map(sum, f.terms()), default=0) <= 2 * top, f
        normal_forms.append(f)
        return original(self, f)

    monkeypatch.setattr(IdealClass, "normal_form", bounded)
    texts = [f"e^{n}*t", f"(e*t)^{n}", f"(2*e)^{n}*t^-1", f"e^{n}*n*(1 + e*t)"]
    parsed = []
    for text in texts:
        products.clear()
        normal_forms.clear()
        parsed.append(parse_laurent(text, base))
        assert len(products) + len(normal_forms) <= 4 * n.bit_length(), text
    monkeypatch.undo()
    for text, x in zip(texts, parsed):
        assert x == parse_laurent_by_element_arithmetic(text, base), text
