"""Coefficient fields: QQ, F_p, simple extensions, and rational functions.

Every field exposes the same operation interface over opaque element values
(for QQ an int when integral and otherwise a Fraction, int for F_p,
coefficient tuples for extensions, reduced numerator/denominator pairs for
rational functions). All element values are immutable and hashable, so
polynomials over any field compare by value.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import CartierlabError
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


class Field:
    """Abstract coefficient field."""

    characteristic: int = 0

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def is_one(self, a) -> bool:
        return a == self.one()

    def from_int(self, n: int):
        raise NotImplementedError

    def from_fraction(self, q: Fraction):
        raise NotImplementedError

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        result = self.one()
        while n > 0:
            if n & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            n >>= 1
        return result

    def sign_split(self, a) -> tuple[int, object]:
        """Return (sign, magnitude) used only for printing; default no split."""
        return 1, a

    def symbol_element(self, name: str):
        """Element denoted by a bare identifier in expressions, or None."""
        return None

    def symbol_names(self) -> tuple[str, ...]:
        return ()

    def pth_root(self, a):
        raise CartierlabError(f"no p-th root operation on {self.describe()}")

    def format_element(self, a, as_factor: bool = False) -> str:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

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


class SimpleExtensionField(Field):
    """base[g]/(m(g)) for a monic irreducible m; elements are coefficient tuples.

    Irreducibility is decided exactly over prime fields; over QQ the factor
    search is attempted and construction fails only when a factor is found.
    """

    def __init__(self, base: Field, min_poly: tuple, generator: str = "g",
                 _skip_check: bool = False):
        if up.udeg(min_poly) < 1:
            raise CartierlabError("minimal polynomial must have degree >= 1")
        if not base.is_one(min_poly[-1]):
            raise CartierlabError("minimal polynomial must be monic")
        if generator in base.symbol_names():
            raise CartierlabError(f"generator name {generator!r} already in use")
        self.base = base
        self.min_poly = tuple(min_poly)
        self.generator = generator
        self.degree = up.udeg(min_poly)
        self.characteristic = base.characteristic
        if not _skip_check:
            from .factor import verify_irreducible

            verify_irreducible(base, self.min_poly)

    def _wrap(self, coeffs: tuple) -> tuple:
        out = list(coeffs) + [self.base.zero()] * (self.degree - len(coeffs))
        return tuple(out[: self.degree])

    def zero(self):
        return self._wrap(())

    def one(self):
        return self._wrap((self.base.one(),))

    def embed(self, a):
        """Embed a base-field element."""
        return self._wrap((a,))

    def generator_element(self):
        return self._wrap((self.base.zero(), self.base.one()))

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        prod = up.umul(self.base, up.utrim(self.base, a), up.utrim(self.base, b))
        return self._wrap(up.umod(self.base, prod, self.min_poly))

    def inv(self, a):
        pa = up.utrim(self.base, a)
        if not pa:
            raise ZeroDivisionError("inverse of zero")
        g, u, _ = up.uxgcd(self.base, pa, self.min_poly)
        if up.udeg(g) != 0:
            raise CartierlabError("minimal polynomial is not irreducible")
        return self._wrap(up.uscale(self.base, self.base.inv(g[0]), u))

    def is_zero(self, a):
        return all(self.base.is_zero(x) for x in a)

    def from_int(self, n):
        return self.embed(self.base.from_int(n))

    def from_fraction(self, q):
        return self.embed(self.base.from_fraction(q))

    def pth_root(self, a):
        # the field has p^m elements; x -> x^(p^(m-1)) inverts Frobenius
        p = self.characteristic
        if p == 0:
            raise CartierlabError("p-th root only defined in positive characteristic")
        m = self.absolute_degree()
        return self.pow(a, p ** (m - 1))

    def absolute_degree(self) -> int:
        if isinstance(self.base, SimpleExtensionField):
            return self.degree * self.base.absolute_degree()
        return self.degree

    def sign_split(self, a):
        pa = up.utrim(self.base, a)
        if not pa:
            return (1, a)
        s, _ = self.base.sign_split(pa[-1])
        return (-1, self.neg(a)) if s < 0 else (1, a)

    def symbol_element(self, name: str):
        if name == self.generator:
            return self.generator_element()
        inner = self.base.symbol_element(name)
        return None if inner is None else self.embed(inner)

    def symbol_names(self):
        return (self.generator,) + self.base.symbol_names()

    def format_element(self, a, as_factor: bool = False):
        s = up.uformat(self.base, up.utrim(self.base, a), self.generator)
        if as_factor and (" + " in s or " - " in s or s.startswith("-")):
            return f"({s})"
        return s

    def describe(self):
        m = up.uformat(self.base, self.min_poly, self.generator)
        return f"{self.base.describe()}[{self.generator}]/({m})"

    def __eq__(self, other):
        return (
            isinstance(other, SimpleExtensionField)
            and other.base == self.base
            and other.min_poly == self.min_poly
            and other.generator == self.generator
        )

    def __hash__(self):
        return hash(("EXT", self.base, self.min_poly, self.generator))


class RationalFunctionField(Field):
    """base(v): reduced fractions of univariate polynomials, monic denominators."""

    def __init__(self, base: Field, variable: str):
        if not isinstance(base, (RationalField, PrimeField)):
            raise CartierlabError(
                "rational function fields allow only QQ or FP(p) bases"
            )
        self.base = base
        self.variable = variable
        self.characteristic = base.characteristic

    def _reduce(self, num: tuple, den: tuple):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return ((), (self.base.one(),))
        g = up.ugcd(self.base, num, den)
        if up.udeg(g) > 0:
            num = up.udivmod(self.base, num, g)[0]
            den = up.udivmod(self.base, den, g)[0]
        lead = den[-1]
        if not self.base.is_one(lead):
            c = self.base.inv(lead)
            num = up.uscale(self.base, c, num)
            den = up.uscale(self.base, c, den)
        return (num, den)

    def make(self, num: tuple, den: tuple):
        return self._reduce(num, den)

    def zero(self):
        return ((), (self.base.one(),))

    def one(self):
        return ((self.base.one(),), (self.base.one(),))

    def variable_element(self):
        return ((self.base.zero(), self.base.one()), (self.base.one(),))

    def from_polynomial(self, num: tuple):
        return self._reduce(num, (self.base.one(),))

    def add(self, a, b):
        (n1, d1), (n2, d2) = a, b
        num = up.uadd(self.base, up.umul(self.base, n1, d2), up.umul(self.base, n2, d1))
        return self._reduce(num, up.umul(self.base, d1, d2))

    def neg(self, a):
        return (up.uneg(self.base, a[0]), a[1])

    def mul(self, a, b):
        (n1, d1), (n2, d2) = a, b
        return self._reduce(up.umul(self.base, n1, n2), up.umul(self.base, d1, d2))

    def inv(self, a):
        n, d = a
        if not n:
            raise ZeroDivisionError("inverse of zero")
        return self._reduce(d, n)

    def is_zero(self, a):
        return not a[0]

    def from_int(self, n):
        return self.from_polynomial(up.uconst(self.base, self.base.from_int(n)))

    def from_fraction(self, q):
        return self.from_polynomial(up.uconst(self.base, self.base.from_fraction(q)))

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
