"""Recursive-descent parser for the shared polynomial expression grammar.

    expr    := '-'? term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := base ('^' exponent)?
    base    := identifier | rational | '(' expr ')'
    rational:= integer ('/' positive-integer)?

Tokens are ASCII: an integer is `[0-9]+` and an identifier
`[A-Za-z][A-Za-z0-9_]*`, the rule `PolyRing` applies to variable names. Any
other character outside whitespace is an error. `_tokenize` returns one
tuple (kind, word, position) per token, kind being "int", "ident" or the
operator character itself, and ends the list with ("end", "", len(text)).
The descent reads the list by index and moves past a token it requires
through `take(kind)`, whose refusal names the kind it expected and the word
it found. Whitespace is insignificant;
implicit multiplication is rejected. Division appears only inside rational
literals. Exponents are nonnegative integers except where an evaluator
explicitly permits negative ones (Laurent input). Parentheses nest at most
MAX_NESTING deep: each level costs the descent four stack frames, so the
limit keeps a deeper input a ParseError, at its first '(' past the limit,
instead of a RecursionError.

In a term, a run of atoms (literals and identifiers, each perhaps raised to
a nonnegative power) joined by '*' folds into one monomial, a coefficient
and an exponent vector; only parenthesised factors and negative powers are
multiplied as term maps {exponents: coefficient}. No `Polynomial` exists
until `parse_polynomial` adopts the final map.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add

from ..errors import ParseError
from .rings import Polynomial, PolyRing, add_terms, mul_terms, neg_terms


MAX_NESTING = 100


# Whitespace, then one token; a character that starts none is `bad`.
_TOKEN = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()])|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        word, pos = match.group(kind), match.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {word!r}", text, pos)
        tokens.append((word if kind == "op" else kind, word, pos))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, evaluator: PolynomialEvaluator):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.ev = evaluator
        self.depth = 0  # of the parentheses open at the current token

    def take(self, kind: str) -> tuple[str, str, int]:
        """The current token, which must be of this kind, and move past it."""
        token = self.tokens[self.i]
        if token[0] != kind:
            raise ParseError(f"expected {kind!r}, found {token[1]!r}", self.text, token[2])
        self.i += 1
        return token

    def parse(self):
        value = self.expr()
        kind, word, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError(f"unexpected {word!r}", self.text, pos)
        return value

    def expr(self):
        ev, tokens = self.ev, self.tokens
        negate = tokens[self.i][0] == "-"
        self.i += negate
        value = self.term()
        if negate:
            value = ev.neg(value)
        while (op := tokens[self.i][0]) in ("+", "-"):
            self.i += 1
            rhs = self.term()
            value = ev.add(value, rhs) if op == "+" else ev.sub(value, rhs)
        return value

    def term(self):
        ev, tokens = self.ev, self.tokens
        monomial = value = None  # the folded atoms; the product of the other factors
        while True:
            grouped, factor = self.factor()
            if not grouped:
                monomial = factor if monomial is None else ev.monomial_mul(monomial, factor)
            else:
                value = factor if value is None else ev.mul(value, factor)
            kind, _, pos = tokens[self.i]
            if kind == "*":
                self.i += 1
            elif kind == "/":
                raise ParseError("division is allowed only between integer literals",
                                 self.text, pos)
            elif kind in ("ident", "int", "("):
                raise ParseError("implicit multiplication is not allowed", self.text, pos)
            else:
                break
        if monomial is None:
            return value
        monomial = ev.from_monomial(monomial)
        return monomial if value is None else ev.mul(monomial, value)

    def factor(self):
        """(grouped, value): an atom, raised to a nonnegative power, stays a
        monomial (grouped False); anything else is a value."""
        ev, tokens = self.ev, self.tokens
        grouped = tokens[self.i][0] == "("
        value = self.base()
        if tokens[self.i][0] == "^":
            self.i += 1
            negative = tokens[self.i][0] == "-" and ev.allow_negative_exponents
            self.i += negative
            _, word, pos = self.take("int")
            n = -int(word) if negative else int(word)
            if n < 0 and not grouped:  # a negative power is a value of its own
                value, grouped = ev.from_monomial(value), True
            power = ev.pow if grouped else ev.monomial_pow
            value = power(value, n, self.text, pos)
        return grouped, value

    def base(self):
        kind, word, pos = self.tokens[self.i]
        self.i += 1
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                                 self.text, pos)
            self.depth += 1
            value = self.expr()
            self.take(")")
            self.depth -= 1
            return value
        if kind == "int":
            if self.tokens[self.i][0] != "/":
                return self.ev.from_fraction(Fraction(int(word)), self.text, pos)
            self.i += 1
            _, den, den_pos = self.take("int")
            if int(den) == 0:
                raise ParseError("zero denominator", self.text, den_pos)
            return self.ev.from_fraction(Fraction(int(word), int(den)), self.text, pos)
        if kind == "ident":
            return self.ev.variable(word, self.text, pos)
        raise ParseError(f"unexpected {word or 'end of input'!r}", self.text, pos)


def parse_with_evaluator(text: str, evaluator: PolynomialEvaluator):
    return _Parser(text, evaluator).parse()


class PolynomialEvaluator:
    """What the parser calls during the descent: atoms' monomials from
    `from_fraction` and `variable`, `monomial_mul`, `monomial_pow` (n >= 0)
    and `from_monomial`, then `add`, `sub`, `neg`, `mul` and `pow` on values.
    Here a monomial is a pair (coefficient, exponents), perhaps with a zero
    coefficient, and values are term maps with no zero coefficient, combined
    by the same `add_terms`, `neg_terms` and `mul_terms` as `Polynomial`."""

    allow_negative_exponents = False

    def __init__(self, ring: PolyRing):
        self.ring = ring
        self.field = ring.field

    def from_fraction(self, q, text, pos):
        try:
            return self.field.from_fraction(q), self.ring._zero_exp
        except ZeroDivisionError as exc:
            raise ParseError(str(exc), text, pos) from None

    def variable(self, name, text, pos):
        exp = self.ring._unit_exps.get(name)
        if exp is not None:
            return self.field.one(), exp
        elem = self.field.symbol_element(name)
        if elem is not None:
            return elem, self.ring._zero_exp
        raise ParseError(f"unknown variable {name!r}", text, pos)

    def monomial_mul(self, a, b):
        return self.field.mul(a[0], b[0]), tuple(map(add, a[1], b[1]))

    def monomial_pow(self, a, n, text, pos):
        return self.field.pow(a[0], n), tuple(e * n for e in a[1])

    def from_monomial(self, m):
        return {} if self.field.is_zero(m[0]) else {m[1]: m[0]}

    def add(self, a, b):
        return add_terms(self.field, a, b)

    def sub(self, a, b):
        return add_terms(self.field, a, self.neg(b))

    def neg(self, a):
        return neg_terms(self.field, a)

    def mul(self, a, b):
        return mul_terms(self.field, a, b)

    def pow(self, a, n, text, pos):
        # n >= 0: without allow_negative_exponents, `^-` fails at take("int")
        return (Polynomial._make(self.ring, a) ** n)._terms


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse an expression into the given ring.

    Identifiers resolve to ring variables first, then to coefficient-field
    symbols (extension generators, function-field variables).
    """
    return Polynomial._make(ring, parse_with_evaluator(text, PolynomialEvaluator(ring)))
