"""Coefficient fields: QQ, F_p and one-variable rational functions over them.

Every field exposes the same operation interface over opaque element values
(for QQ an int when integral and otherwise a Fraction, int for F_p, reduced
numerator/denominator pairs for rational functions). All element values are
immutable and hashable, so polynomials over any field compare by value.
None is a finite extension of QQ or F_p: a residue field k[g]/(m) is only
printed, as `artinian.ResidueField`, never computed in.

`square_and_multiply(a, n, one, mul)` is the package's one binary power for
n >= 0: field elements, polynomials, algebra elements, Laurent polynomials
and the F_p powers mod m all pass it their unit and product. Each caller
keeps its own rule for a negative exponent (`Field.pow` inverts,
`Polynomial.__pow__` refuses, `LaurentElement.__pow__` inverts single terms).
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import CartierlabError, RadicalUnavailable
from . import unipoly as up

_MR_BASES = (2, 3, 5, 7)  # deterministic Miller-Rabin witnesses for n < 3.2e9


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def square_and_multiply(a, n: int, one, mul):
    """a^n for n >= 0 by right-to-left binary powering (Knuth, TAOCP vol. 2,
    4.6.3): the result starts at the power of a for the lowest set bit of n
    and takes one product per further set bit, with a squaring only while
    bits remain, so no product is by the unit `one`, which n = 0 returns.
    `mul(x, y)` is the product."""
    if n == 0:
        return one
    while not n & 1:
        a, n = mul(a, a), n >> 1
    result = a
    while n > 1:
        a, n = mul(a, a), n >> 1
        if n & 1:
            result = mul(result, a)
    return result


class Field:
    """Coefficient field base. Every field defines `zero`, `one`, `add`,
    `mul`, `neg`, `inv`, `is_zero`, `from_int`, `from_fraction`,
    `format_element` and `describe`; one of prime characteristic also
    defines `pth_root`. The base derives the other operations from these."""

    characteristic: int = 0

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_one(self, a) -> bool:
        return a == self.one()

    def pow(self, a, n: int):
        if n < 0:
            a, n = self.inv(a), -n
        return square_and_multiply(a, n, self.one(), self.mul)

    def sign_split(self, a) -> tuple[int, object]:
        """Return (sign, magnitude) used only for printing; default no split."""
        return 1, a

    def symbol_element(self, name: str):
        """Element denoted by a bare identifier in expressions, or None."""
        return None

    def symbol_names(self) -> tuple[str, ...]:
        return ()

    def __repr__(self) -> str:
        return self.describe()


def _canonical(q):
    """A rational number as an int when it is integral, else as a Fraction."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


class RationalField(Field):
    """QQ, with each element in one canonical form: an int when the
    denominator is 1, otherwise a Fraction with denominator greater than 1.

    Integral data, which is most of it, then stays in int arithmetic, and
    every operation returns the canonical form. int and Fraction agree on
    equality, hashing and str, so polynomials compare, hash and print the
    same whichever form a coefficient has. `/` is never applied to two ints,
    because that gives a float: an integral quotient is taken with divmod,
    and any other becomes a Fraction.
    """

    characteristic = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return _canonical(a + b)

    def sub(self, a, b):
        return _canonical(a - b)

    def mul(self, a, b):
        return _canonical(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        return self.div(1, a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("inverse of zero")
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        return _canonical(a / b)

    def is_zero(self, a):
        return a == 0

    def is_one(self, a):
        return a == 1

    def from_int(self, n):
        return n

    def from_fraction(self, q):
        return _canonical(q)

    def sign_split(self, a):
        return (-1, -a) if a < 0 else (1, a)

    def format_element(self, a, as_factor: bool = False):
        return str(a)

    def describe(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


QQ = RationalField()


class PrimeField(Field):
    def __init__(self, p: int):
        if not (2 <= p < 2**31):
            raise CartierlabError(f"prime field modulus out of range: {p}")
        if not _is_prime(p):
            raise CartierlabError(f"prime field modulus is not prime: {p}")
        self.p = p
        self.characteristic = p

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def is_one(self, a):
        return a % self.p == 1

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, q: Fraction):
        if q.denominator % self.p == 0:
            raise ZeroDivisionError(f"denominator divisible by {self.p}")
        return self.mul(q.numerator % self.p, self.inv(q.denominator % self.p))

    def pth_root(self, a):
        return a % self.p  # Frobenius is the identity on the prime field

    def format_element(self, a, as_factor: bool = False):
        return str(a % self.p)

    def describe(self):
        return f"FP({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("FP", self.p))


class RationalFunctionField(Field):
    """base(v): fractions of univariate polynomials in one canonical form.

    An element is (num, den) with gcd(num, den) = 1 and den monic; zero is
    (0, 1). The form is unique, so equal elements are equal tuples. `make`
    reduces arbitrary input. The arithmetic keeps the invariant by Henrici's
    rule (Knuth, TAOCP vol. 2, 4.5.1) and takes only the gcds it names:
    - add: g = gcd(d1, d2); when g = 1 the sum n1*d2 + n2*d1 over d1*d2 is
      reduced already, otherwise t = n1*(d2/g) + n2*(d1/g) shares factors
      with g alone, and one more gcd(t, g) reduces it;
    - mul: gcd(n1, d2) and gcd(n2, d1) cancel before the products;
    - a denominator of 1 needs none of these gcds, so polynomial operands
      take none, and neither do `inv` and `from_polynomial`, whose input is
      reduced already.
    """

    def __init__(self, base: Field, variable: str):
        if not isinstance(base, (RationalField, PrimeField)):
            raise CartierlabError(
                "rational function fields allow only QQ or FP(p) bases"
            )
        self.base = base
        self.variable = variable
        self.characteristic = base.characteristic
        self._one = (base.one(),)

    def _monic_den(self, num: tuple, den: tuple):
        """(num, den) scaled so that den is monic."""
        lead = den[-1]
        if self.base.is_one(lead):
            return (num, den)
        c = self.base.inv(lead)
        return (up.uscale(self.base, c, num), up.uscale(self.base, c, den))

    def make(self, num: tuple, den: tuple):
        """The canonical form of num/den, for any num and nonzero den."""
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return ((), self._one)
        g = up.ugcd(self.base, num, den)
        return self._monic_den(self._quo(num, g), self._quo(den, g))

    def zero(self):
        return ((), self._one)

    def one(self):
        return (self._one, self._one)

    def variable_element(self):
        return ((self.base.zero(), self.base.one()), self._one)

    def from_polynomial(self, num: tuple):
        return (num, self._one)

    def _quo(self, p: tuple, g: tuple) -> tuple:
        """p / g for a monic g dividing p; g = 1 costs nothing."""
        return p if len(g) == 1 else up.udivmod(self.base, p, g)[0]

    def add(self, a, b):
        base = self.base
        (n1, d1), (n2, d2) = a, b
        if len(d1) == 1 and len(d2) == 1:
            return (up.uadd(base, n1, n2), self._one)
        if len(d1) == 1:  # gcd(n1*d2 + n2, d2) = gcd(n2, d2) = 1
            return (up.uadd(base, up.umul(base, n1, d2), n2), d2)
        if len(d2) == 1:
            return (up.uadd(base, n1, up.umul(base, n2, d1)), d1)
        g = up.ugcd(base, d1, d2)
        e1, e2 = self._quo(d1, g), self._quo(d2, g)
        t = up.uadd(base, up.umul(base, n1, e2), up.umul(base, n2, e1))
        if not t:
            return ((), self._one)
        h = up.ugcd(base, t, g) if len(g) > 1 else g
        return (self._quo(t, h), up.umul(base, e1, self._quo(d2, h)))

    def neg(self, a):
        return (up.uneg(self.base, a[0]), a[1])

    def mul(self, a, b):
        base = self.base
        (n1, d1), (n2, d2) = a, b
        if not n1 or not n2:
            return ((), self._one)
        if len(d2) > 1:
            g = up.ugcd(base, n1, d2)
            n1, d2 = self._quo(n1, g), self._quo(d2, g)
        if len(d1) > 1:
            g = up.ugcd(base, n2, d1)
            n2, d1 = self._quo(n2, g), self._quo(d1, g)
        return (up.umul(base, n1, n2), up.umul(base, d1, d2))

    def inv(self, a):
        n, d = a
        if not n:
            raise ZeroDivisionError("inverse of zero")
        return self._monic_den(d, n)

    def is_zero(self, a):
        return not a[0]

    def from_int(self, n):
        return self.from_polynomial(up.uconst(self.base, self.base.from_int(n)))

    def from_fraction(self, q):
        return self.from_polynomial(up.uconst(self.base, self.base.from_fraction(q)))

    def pth_root(self, a):
        """The p-th root of a p-th power; k(v) is not perfect, so any other
        element raises RadicalUnavailable."""
        p = self.characteristic
        if not p or any(not self.base.is_zero(c)
                        for part in a for i, c in enumerate(part) if i % p):
            raise RadicalUnavailable(
                f"{self.format_element(a)} is not a p-th power in {self.describe()}")
        num, den = ([self.base.pth_root(c) for c in part[::p]] for part in a)
        return self.make(tuple(num), tuple(den))

    def is_polynomial(self, a) -> bool:
        """True when the reduced denominator is 1."""
        return up.udeg(a[1]) == 0 and self.base.is_one(a[1][0])

    def numerator(self, a) -> tuple:
        return a[0]

    def sign_split(self, a):
        num, _ = a
        if not num:
            return (1, a)
        s, _ = self.base.sign_split(num[-1])
        return (-1, self.neg(a)) if s < 0 else (1, a)

    def symbol_element(self, name: str):
        if name == self.variable:
            return self.variable_element()
        return None

    def symbol_names(self):
        return (self.variable,)

    def format_element(self, a, as_factor: bool = False):
        num, den = a
        ns = up.uformat(self.base, num, self.variable)
        if self.is_polynomial(a):
            if as_factor and (" + " in ns or " - " in ns or ns.startswith("-")):
                return f"({ns})"
            return ns
        ds = up.uformat(self.base, den, self.variable)
        return f"({ns})/({ds})"

    def describe(self):
        return f"{self.base.describe()}({self.variable})"

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunctionField)
            and other.base == self.base
            and other.variable == self.variable
        )

    def __hash__(self):
        return hash(("RF", self.base, self.variable))
