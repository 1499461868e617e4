from __future__ import annotations

from fractions import Fraction

import pytest

from oracles import naive_expand_product, parse_by_polynomial_arithmetic
from cartierlab.errors import ParseError
from cartierlab.polycore import (
    GREVLEX,
    LEX,
    PolyRing,
    PrimeField,
    QQ,
    RationalFunctionField,
    parse_polynomial,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test below skips
    st = None


def ring_xy():
    return PolyRing(QQ, ["x", "y"], GREVLEX)


def test_basic_parse_term_count():
    f = parse_polynomial("y^2 - x^3 - x^2", ring_xy())
    assert len(f.terms()) == 3
    assert f.coefficient((0, 2)) == Fraction(1)
    assert f.coefficient((3, 0)) == Fraction(-1)


def test_zero_polynomial():
    f = parse_polynomial("0", ring_xy())
    assert f.is_zero()
    assert str(f) == "0"


def test_expansion_matches_naive_oracle():
    # (x+y)^2 - x^2 - 2*x*y expands to y^2
    factors = [{(1, 0): Fraction(1), (0, 1): Fraction(1)}] * 2
    expanded = naive_expand_product(factors)
    expected = {
        e: c
        for e, c in (
            (k, v - {(2, 0): Fraction(1)}.get(k, 0) - {(1, 1): Fraction(2)}.get(k, 0))
            for k, v in (
                (k2, expanded.get(k2, Fraction(0)))
                for k2 in set(expanded) | {(2, 0), (1, 1)}
            )
        )
        if c != 0
    }
    assert expected == {(0, 2): Fraction(1)}
    f = parse_polynomial("(x+y)^2 - x^2 - 2*x*y", ring_xy())
    assert f.terms() == {(0, 2): Fraction(1)}


def test_print_parse_round_trip():
    ring = ring_xy()
    for text in [
        "y^2 - x^3 - x^2",
        "0",
        "1/2*x*y - 3",
        "x^4 + 2*x^2*y^2 + y^4",
        "-x + 1",
    ]:
        f = parse_polynomial(text, ring)
        printed = str(f)
        again = parse_polynomial(printed, ring)
        assert again == f
        assert str(again) == printed


def test_rational_literals_and_prime_field():
    ring = PolyRing(PrimeField(7), ["t"], GREVLEX)
    f = parse_polynomial("3/2*t + 5", ring)
    assert f.coefficient((1,)) == (3 * pow(2, 5, 7)) % 7
    assert f.coefficient((0,)) == 5


def test_syntax_errors_carry_positions():
    ring = ring_xy()
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + * y", ring)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_polynomial("2x", ring)  # implicit multiplication
    with pytest.raises(ParseError):
        parse_polynomial("x/2", ring)  # division outside integer literals
    with pytest.raises(ParseError):
        parse_polynomial("x^-1", ring)  # negative exponent
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + z", ring)
    assert "unknown variable" in str(err.value)


def test_field_symbols_resolve_as_coefficients():
    from cartierlab.polycore import RationalFunctionField

    K = RationalFunctionField(QQ, "b")
    ring = PolyRing(K, ["e"], GREVLEX)
    f = parse_polynomial("e^2 - e - b", ring)
    assert f.coefficient((0,)) == K.neg(K.variable_element())
    rt = parse_polynomial(str(f), ring)
    assert rt == f


def test_lex_vs_grevlex_leading_terms():
    lex_ring = PolyRing(QQ, ["x", "y"], LEX)
    grev_ring = PolyRing(QQ, ["x", "y"], GREVLEX)
    # x vs y^2: lex picks x, grevlex picks y^2
    assert parse_polynomial("x + y^2", lex_ring).leading_term()[0] == (1, 0)
    assert parse_polynomial("x + y^2", grev_ring).leading_term()[0] == (0, 2)


def test_power_squares_only_while_bits_remain(monkeypatch):
    """(t + 1)^4 takes two squarings and one product with the unit; the top
    bit leaves nothing more to square. The same holds for every power in the
    package: algebra elements, Laurent polynomials, field elements (a negative
    exponent inverts first, over QQ and over F_7) and the F_p powers mod m."""
    from cartierlab.artinian import FiniteAlgebra
    from cartierlab.laurent import LaurentElement, parse_laurent
    from cartierlab.polycore import Ideal, factor
    from cartierlab.polycore.rings import Polynomial

    def counted(owner, name):
        calls = []
        original = getattr(owner, name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(owner, name, counting)
        return calls

    def repeated(mul, one, a, n):
        for _ in range(n):
            one = mul(one, a)
        return one

    base = parse_polynomial("t + 1", PolyRing(QQ, ["t"], GREVLEX))
    calls = counted(Polynomial, "__mul__")
    power = base**4
    assert len(calls) == 3
    assert power == parse_polynomial("t^4 + 4*t^3 + 6*t^2 + 4*t + 1", base.ring)

    ring = PolyRing(QQ, ["e"], GREVLEX)
    alg = FiniteAlgebra(ring, Ideal(ring, [ring.parse("e^5")]))
    a = alg.from_poly(ring.parse("1 + 2*e"))
    expected = repeated(alg.mul, alg.one(), a, 4)
    calls = counted(FiniteAlgebra, "mul")
    assert alg.pow(a, 4) == expected
    assert len(calls) == 3

    unit = parse_laurent("2*t^-1 + 3*e", alg)
    expected = repeated(LaurentElement.__mul__, LaurentElement.one(alg), unit, 4)
    calls = counted(LaurentElement, "__mul__")
    assert unit**4 == expected
    assert len(calls) == 3

    f7 = PrimeField(7)
    for field, x, inverse in ((QQ, Fraction(2, 3), Fraction(3, 2)), (f7, 3, 5)):
        expected = repeated(field.mul, field.one(), inverse, 4)
        calls = counted(type(field), "mul")
        assert field.pow(x, -4) == expected
        assert len(calls) == 3
        monkeypatch.undo()
    assert (QQ.pow(Fraction(2, 3), -4), f7.pow(3, -4)) == (Fraction(81, 16), 2)

    m, p = (1, 0, 0, 1), 7  # x^3 + 1 over F_7
    expected = repeated(lambda u, v: factor._mulmod(u, v, m, p), (1,), (2, 1), 4)
    calls = counted(factor, "_mulmod")
    assert factor._powmod((2, 1), 4, m, p) == expected
    assert len(calls) == 3


@pytest.mark.parametrize("text, char, position", [
    ("x^\u0663", "\u0663", 2),  # ARABIC-INDIC DIGIT THREE
    ("x^2 - 2\u00b2", "\u00b2", 7),  # SUPERSCRIPT TWO
    ("\uff11 + x", "\uff11", 0),  # FULLWIDTH DIGIT ONE
    ("x\u00e9", "\u00e9", 1),
    ("\u03b1 + x", "\u03b1", 0),
])
def test_tokens_are_ascii(text, char, position):
    """Digits are 0-9 and identifiers [A-Za-z][A-Za-z0-9_]*: any other
    character is refused where it stands, never read as a digit or a name."""
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, ring_xy())
    assert err.value.position == position
    assert str(err.value).startswith(f"unexpected character {char!r}")


RINGS = {
    "QQ": PolyRing(QQ, ["x", "y"], GREVLEX),
    "F7": PolyRing(PrimeField(7), ["x", "y"], GREVLEX),
    "F2": PolyRing(PrimeField(2), ["x", "y"], LEX),
    "QQ(v)": PolyRing(RationalFunctionField(QQ, "v"), ["x", "y"], GREVLEX),
}


if st is None:
    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_term_maps_match_polynomial_arithmetic():
        pass
else:
    def _expressions():
        leaves = st.one_of(
            st.sampled_from(["x", "y", "v", "0", "1", "2"]),
            st.integers(0, 30).map(str),
            st.tuples(st.integers(0, 12), st.integers(1, 9)).map(lambda nd: f"{nd[0]}/{nd[1]}"),
        )

        def combine(inner):
            return st.one_of(
                st.tuples(inner, inner).map(lambda ab: f"({ab[0]} + {ab[1]})"),
                st.tuples(inner, inner).map(lambda ab: f"({ab[0]} - {ab[1]})"),
                st.tuples(inner, inner).map(lambda ab: f"{ab[0]}*{ab[1]}"),
                inner.map(lambda a: f"({a} - {a})"),
                inner.map(lambda a: f"(-{a})"),
                st.tuples(inner, st.integers(0, 4)).map(lambda an: f"({an[0]})^{an[1]}"),
            )

        return st.recursive(leaves, combine, max_leaves=8)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(name=st.sampled_from(sorted(RINGS)), text=_expressions())
    def test_term_maps_match_polynomial_arithmetic(name, text):
        """The parser's term maps give the polynomial that one `Polynomial`
        per token gives, and store no zero coefficient."""
        ring = RINGS[name]
        try:
            expected = parse_by_polynomial_arithmetic(text, ring)
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                parse_polynomial(text, ring)
            assert str(err.value) == str(exc)
            return
        parsed = parse_polynomial(text, ring)
        assert parsed.terms() == expected.terms()
        assert not any(ring.field.is_zero(c) for c in parsed.terms().values())
