"""Polynomial rings and exact sparse multivariate polynomials.

A polynomial is a map from exponent tuples to nonzero field elements. Values
are immutable after construction; two polynomials are equal exactly when
their rings and term maps are equal.

`Polynomial(ring, terms)` validates: it checks every exponent tuple and drops
zero coefficients, so it is the constructor for callers.
`Polynomial._make(ring, terms)` adopts the dict as it is, unchecked. Use it
only for a term map built inside this package whose exponent tuples have the
ring's length and no negative entry and whose coefficients are nonzero by
construction, with the dict not touched afterwards:
- the results of field operations on the terms of polynomials of the same
  ring, with every zero coefficient removed: `+`, `-`, `*` (through
  `add_terms`, `neg_terms` and `mul_terms`), `scale`, `term_mul` by a nonzero
  coefficient, the division kernel in `groebner.py` and the term maps that
  the parser builds from literals and variables;
- a unit monomial with coefficient one (`PolyRing.variable`);
- the terms of one polynomial with their exponents moved into another ring
  by an injective map of positions (`map_variables`, and the tag ring moves
  in `extensions.py`).
Products of nonzero coefficients are nonzero because the coefficients form a
field.

Every new variable name (membership tags, intersection's `u`, B's variables
renamed for the generic fiber, adjoined `w`s, primitive elements' `g`) comes
from `fresh_names(bases, taken)`, usually with `taken = ring.taken_names()`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import add

from ..errors import CartierlabError
from .fields import Field, square_and_multiply

_IDENT = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


def fresh_names(bases, taken) -> list:
    """Each base with underscores appended until it is neither in taken nor
    an earlier name of the list; taken itself is not changed."""
    taken = set(taken)
    names = []
    for name in bases:
        while name in taken:
            name += "_"
        taken.add(name)
        names.append(name)
    return names


@dataclass(frozen=True)
class MonomialOrder:
    """lex, grevlex, or a block order (lex on a prefix, grevlex on the rest)."""

    kind: str = "grevlex"
    block: int = 0

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex", "block"):
            raise CartierlabError(f"unknown monomial order {self.kind!r}")
        if self.kind == "block" and self.block < 1:
            raise CartierlabError("block order needs a positive prefix length")

    def key(self, exps: tuple) -> tuple:
        if self.kind == "lex":
            return exps
        if self.kind == "grevlex":
            return _grevlex_key(exps)
        head, tail = exps[: self.block], exps[self.block:]
        return (head, _grevlex_key(tail))

    def heap_key(self, exps: tuple) -> tuple:
        """A flat key whose ascending order is this order's descending order.

        Every entry of `key` negated, nesting flattened: popping a heap of
        these keys yields the largest monomial first.
        """
        if self.kind == "lex":
            return tuple(-e for e in exps)
        if self.kind == "grevlex":
            return (-sum(exps),) + exps[::-1]
        head, tail = exps[: self.block], exps[self.block:]
        return tuple(-e for e in head) + (-sum(tail),) + tail[::-1]


def _grevlex_key(exps: tuple) -> tuple:
    return (sum(exps), tuple(-e for e in reversed(exps)))


def add_terms(field: Field, a: dict, b: dict) -> dict:
    """The term map of the sum of two term maps, neither of which changes."""
    out = dict(a)
    zero, plus, is_zero = field.zero(), field.add, field.is_zero
    for exp, c in b.items():
        s = plus(out.get(exp, zero), c)
        if is_zero(s):
            out.pop(exp, None)
        else:
            out[exp] = s
    return out


def neg_terms(field: Field, a: dict) -> dict:
    """The term map of the negative of a term map, which does not change."""
    neg = field.neg
    return {exp: neg(c) for exp, c in a.items()}


def mul_terms(field: Field, a: dict, b: dict) -> dict:
    """The term map of the product of two term maps, neither of which changes."""
    out: dict = {}
    zero, plus, times, is_zero = field.zero(), field.add, field.mul, field.is_zero
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exp = tuple(map(add, e1, e2))
            s = plus(out.get(exp, zero), times(c1, c2))
            if is_zero(s):
                out.pop(exp, None)
            else:
                out[exp] = s
    return out


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


class PolyRing:
    """A polynomial ring: coefficient field, ordered variables, monomial order."""

    def __init__(self, field: Field, variables, order: MonomialOrder = GREVLEX):
        variables = tuple(variables)
        seen = set()
        for v in variables:
            if not _IDENT.match(v):
                raise CartierlabError(f"bad variable name {v!r}")
            if v in seen:
                raise CartierlabError(f"duplicate variable {v!r}")
            if v in field.symbol_names():
                raise CartierlabError(
                    f"variable {v!r} collides with a coefficient-field symbol"
                )
            seen.add(v)
        if order.kind == "block" and not 0 < order.block < max(len(variables), 1):
            raise CartierlabError("block prefix must split the variable list")
        self.field = field
        self.variables = variables
        self.order = order
        self._zero_exp = (0,) * len(variables)
        self._unit_exps = {
            v: tuple(int(j == i) for j in range(len(variables)))
            for i, v in enumerate(variables)
        }

    # -- constructors -------------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(self.field.one())

    def constant(self, c) -> "Polynomial":
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {self._zero_exp: c})

    def from_int(self, n: int) -> "Polynomial":
        return self.constant(self.field.from_int(n))

    def variable(self, name: str) -> "Polynomial":
        try:
            exp = self._unit_exps[name]
        except KeyError:
            raise CartierlabError(f"unknown variable {name!r}") from None
        return Polynomial._make(self, {exp: self.field.one()})

    def monomial(self, exps, coeff=None) -> "Polynomial":
        exps = tuple(exps)
        if len(exps) != len(self.variables) or any(e < 0 for e in exps):
            raise CartierlabError(f"bad exponent tuple {exps}")
        c = self.field.one() if coeff is None else coeff
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {exps: c})

    def parse(self, text: str) -> "Polynomial":
        from .parse import parse_polynomial

        return parse_polynomial(text, self)

    # -- structure ----------------------------------------------------------

    def nvars(self) -> int:
        return len(self.variables)

    def taken_names(self) -> set:
        """The variables and the field's symbols: the names a new variable must avoid."""
        return set(self.variables) | set(self.field.symbol_names())

    def describe(self) -> str:
        return f"{self.field.describe()}[{', '.join(self.variables)}]"

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.variables == self.variables
            and other.order == self.order
        )

    def __hash__(self):
        return hash((self.field, self.variables, self.order))

    def __repr__(self):
        return self.describe()


class Polynomial:
    __slots__ = ("ring", "_terms", "_hash", "_lead")

    def __init__(self, ring: PolyRing, terms: dict):
        nvars = len(ring.variables)
        field = ring.field
        clean = {}
        for exp, c in terms.items():
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise CartierlabError(f"bad exponent tuple {exp} for {ring.describe()}")
            if not field.is_zero(c):
                clean[exp] = c
        self.ring = ring
        self._terms = clean
        self._hash = None
        self._lead = None

    @classmethod
    def _make(cls, ring: PolyRing, terms: dict) -> "Polynomial":
        """Adopt a clean term map without checks (see the module docstring)."""
        poly = cls.__new__(cls)
        poly.ring = ring
        poly._terms = terms
        poly._hash = None
        poly._lead = None
        return poly

    # -- inspection ---------------------------------------------------------

    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or set(self._terms) == {self.ring._zero_exp}

    def leading_term(self) -> tuple:
        """(exponents, coefficient) of the order-largest term."""
        if self._lead is None:
            if not self._terms:
                raise CartierlabError("the zero polynomial has no leading term")
            exp = max(self._terms, key=self.ring.order.key)
            self._lead = (exp, self._terms[exp])
        return self._lead

    def total_degree(self) -> int:
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def involves(self, indices) -> bool:
        idx = set(indices)
        return any(any(exp[i] for i in idx) for exp in self._terms)

    def coefficient(self, exps: tuple):
        return self._terms.get(tuple(exps), self.ring.field.zero())

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise CartierlabError(
                f"ring mismatch: {self.ring.describe()} vs {other.ring.describe()}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial._make(self.ring, add_terms(self.ring.field, self._terms, other._terms))

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(self.ring, neg_terms(self.ring.field, self._terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial._make(self.ring, mul_terms(self.ring.field, self._terms, other._terms))

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise CartierlabError("negative polynomial power")
        return square_and_multiply(self, n, self.ring.one(), Polynomial.__mul__)

    def scale(self, c) -> "Polynomial":
        field = self.ring.field
        if field.is_zero(c):
            return self.ring.zero()
        mul = field.mul
        return Polynomial._make(self.ring, {e: mul(c, v) for e, v in self._terms.items()})

    def term_mul(self, exps: tuple, coeff) -> "Polynomial":
        field = self.ring.field
        if field.is_zero(coeff):
            return self.ring.zero()
        mul = field.mul
        out = {tuple(map(add, e, exps)): mul(c, coeff) for e, c in self._terms.items()}
        if len(exps) == len(self.ring.variables) and min(exps, default=0) >= 0:
            return Polynomial._make(self.ring, out)
        return Polynomial(self.ring, out)  # a negative shift is checked term by term

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        _, lc = self.leading_term()
        if self.ring.field.is_one(lc):
            return self
        return self.scale(self.ring.field.inv(lc))

    # -- ring moves ---------------------------------------------------------

    def substitute(self, target_ring: PolyRing, images: dict):
        """Evaluate with each variable replaced by images[name] in target_ring."""
        if self.ring.field != target_ring.field:
            raise CartierlabError("target ring has a different coefficient field")
        powers: dict = {}

        def var_power(i: int, e: int) -> Polynomial:
            img = images[self.ring.variables[i]]
            cache = powers.setdefault(i, {0: target_ring.one(), 1: img})
            if e not in cache:
                half = var_power(i, e // 2)
                square = half * half
                cache[e] = square * img if e % 2 else square
            return cache[e]

        total = target_ring.zero()
        for exps, c in self._terms.items():
            piece = target_ring.constant(c)
            for i, e in enumerate(exps):
                if e:
                    piece = piece * var_power(i, e)
            total = total + piece
        return total

    def map_variables(self, target_ring: PolyRing) -> "Polynomial":
        """Move by variable name into a ring with a superset of the variables."""
        if self.ring.field != target_ring.field:
            raise CartierlabError("target ring has a different coefficient field")
        index = []
        for v in self.ring.variables:
            try:
                index.append(target_ring.variables.index(v))
            except ValueError:
                index.append(-1)
        out: dict = {}
        for exps, c in self._terms.items():
            new = [0] * target_ring.nvars()
            for i, e in enumerate(exps):
                if not e:
                    continue
                if index[i] < 0:
                    raise CartierlabError(
                        f"variable {self.ring.variables[i]!r} missing in target ring"
                    )
                new[index[i]] = e
            out[tuple(new)] = c  # distinct names move distinct monomials apart
        return Polynomial._make(target_ring, out)

    # -- comparison and printing --------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.ring == self.ring
            and other._terms == self._terms
        )

    def __hash__(self):
        if self._hash is None:
            items = tuple(sorted(self._terms.items(), key=lambda kv: kv[0]))
            self._hash = hash((self.ring, items))
        return self._hash

    def __str__(self):
        if not self._terms:
            return "0"
        field = self.ring.field
        names = self.ring.variables
        parts: list[str] = []
        key = self.ring.order.key
        for exps, c in sorted(self._terms.items(), key=lambda kv: key(kv[0]), reverse=True):
            sign, mag = field.sign_split(c)
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = field.format_element(mag, as_factor=False)
            elif field.is_one(mag):
                body = "*".join(factors)
            else:
                body = "*".join([field.format_element(mag, as_factor=True)] + factors)
            if not parts:
                parts.append(body if sign >= 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if sign >= 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"
