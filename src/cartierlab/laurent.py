"""Units of R[t,1/t] over an Artinian base and their four-factor splitting.

A unit factors as (unit of R) * (componentwise power of t) * (unipotent tail
in positive degrees) * (unipotent tail in negative degrees). The exponent
tuple, one integer per primitive idempotent of the base, is the value of the
boundary map on the unit group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .artinian import (
    FiniteAlgebra,
    idempotent_decomposition,
    reduced_algebra,
)
from .errors import (
    CartierlabError,
    CertificateFailure,
    InputError,
    ParseError,
    ProbeExhausted,
    UNKNOWN,
)
from .polycore.fields import square_and_multiply
from .polycore.parse import Evaluator, parse_with_evaluator


class LaurentElement:
    """Finite map from t-exponents to base-algebra elements (no zeros stored)."""

    __slots__ = ("base", "coeffs")

    def __init__(self, base: FiniteAlgebra, coeffs: dict):
        self.base = base
        self.coeffs = {
            n: c for n, c in coeffs.items() if not base.is_zero_elem(c)
        }

    @classmethod
    def constant(cls, base: FiniteAlgebra, elem) -> "LaurentElement":
        return cls(base, {0: elem})

    @classmethod
    def one(cls, base: FiniteAlgebra) -> "LaurentElement":
        return cls(base, {0: base.one()})

    @classmethod
    def t_power(cls, base: FiniteAlgebra, n: int, coeff=None) -> "LaurentElement":
        return cls(base, {n: base.one() if coeff is None else coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, n: int):
        return self.coeffs.get(n, self.base.zero())

    def __add__(self, other: "LaurentElement") -> "LaurentElement":
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = self.base.add(out.get(n, self.base.zero()), c)
        return LaurentElement(self.base, out)

    def __neg__(self) -> "LaurentElement":
        field = self.base.field
        return LaurentElement(
            self.base, {n: self.base.scale(field.neg(field.one()), c) for n, c in self.coeffs.items()}
        )

    def __sub__(self, other: "LaurentElement") -> "LaurentElement":
        return self + (-other)

    def __mul__(self, other: "LaurentElement") -> "LaurentElement":
        out: dict = {}
        for n1, c1 in self.coeffs.items():
            for n2, c2 in other.coeffs.items():
                n = n1 + n2
                prod = self.base.mul(c1, c2)
                if n in out:
                    prod = self.base.add(out[n], prod)
                out[n] = prod
        return LaurentElement(self.base, out)

    def scale_elem(self, elem) -> "LaurentElement":
        return LaurentElement(
            self.base, {n: self.base.mul(elem, c) for n, c in self.coeffs.items()}
        )

    def __pow__(self, n: int) -> "LaurentElement":
        if n < 0:
            if len(self.coeffs) != 1:
                raise CartierlabError("negative powers only of single-term units")
            (deg, c), = self.coeffs.items()
            try:
                inv_c = self.base.inverse(c)
            except ZeroDivisionError:
                raise CartierlabError(
                    f"{self} is not a unit, so it has no negative powers") from None
            return LaurentElement(self.base, {-deg: inv_c}) ** (-n)
        return square_and_multiply(self, n, LaurentElement.one(self.base),
                                   LaurentElement.__mul__)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentElement)
            and other.base is self.base
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash(tuple(sorted((n, c) for n, c in self.coeffs.items())))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for n in sorted(self.coeffs, reverse=True):
            c = self.base.to_poly(self.coeffs[n])
            cs = str(c)
            if n == 0:
                body = cs if "+" not in cs and " - " not in cs else f"({cs})"
            else:
                tpow = "t" if n == 1 else f"t^{n}"
                coeff = "" if cs == "1" else (
                    f"{cs}*" if "+" not in cs and " - " not in cs and not cs.startswith("-") else f"({cs})*"
                )
                body = f"{coeff}{tpow}"
            parts.append(body)
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentElement({self})"


def _unit_exponents(x: LaurentElement):
    """(decomposition of the base, its reduced algebra, the exponent of x on
    each primitive idempotent), or None when x is not a unit.

    A Laurent polynomial is a unit exactly when, on each connected component
    of the reduced base, it is a single term with a nonzero coefficient.
    Raises ProbeExhausted when the decomposition of the base is not certified.
    """
    base = x.base
    decomp = idempotent_decomposition(base)
    red = reduced_algebra(base)
    coeffs = [(n, red.from_poly(base.to_poly(c))) for n, c in x.coeffs.items()]
    exponents = []
    for e in decomp.idempotents:
        e_red = red.from_poly(base.to_poly(e))
        live = [n for n, c in coeffs if not red.is_zero_elem(red.mul(e_red, c))]
        if len(live) != 1:
            return None
        exponents.append(live[0])
    return decomp, red, exponents


def is_laurent_unit(x: LaurentElement):
    """True/False, or Unknown when the component decomposition is blocked."""
    try:
        return _unit_exponents(x) is not None
    except ProbeExhausted:
        return UNKNOWN


@dataclass(frozen=True)
class LaurentUnitDecomposition:
    element: LaurentElement
    u0: tuple  # unit of the base
    idempotents: tuple  # primitive idempotents, fixing the exponent order
    exponents: tuple[int, ...]
    p_part: LaurentElement  # 1 + nilpotent tail in positive degrees
    q_part: LaurentElement  # 1 + nilpotent tail in negative degrees

    def recompose(self) -> LaurentElement:
        base = self.element.base
        t_block = LaurentElement(base, {})
        for e, n in zip(self.idempotents, self.exponents):
            t_block = t_block + LaurentElement(base, {n: e})
        return (
            LaurentElement.constant(base, self.u0) * t_block * self.p_part * self.q_part
        )


class NotAUnit(CartierlabError):
    pass


def _unipotent_inverse(x: LaurentElement) -> LaurentElement:
    """Inverse of 1 + w with nilpotent-coefficient w, by the geometric series."""
    base = x.base
    one = LaurentElement.one(base)
    w = x - one
    total = one
    power = one
    for _ in range(base.dim + 2):
        power = power * (-w)
        if power.is_zero():
            break
        total = total + power
    if total * x == one:
        return total
    raise CertificateFailure("unipotent inverse did not terminate")  # pragma: no cover


def _base_inverse(base: FiniteAlgebra, c: tuple, failure: str) -> tuple:
    """c^-1 in the base, from one minimal polynomial; a non-unit raises
    CertificateFailure(failure)."""
    try:
        return base.inverse(c)
    except ZeroDivisionError:
        raise CertificateFailure(failure) from None


def bass_decompose(x: LaurentElement) -> LaurentUnitDecomposition:
    """The unique four-factor splitting of a Laurent unit.

    Raises NotAUnit for a non-unit, and ProbeExhausted when the
    decomposition of the base is not certified.
    """
    found = _unit_exponents(x)
    if found is None:
        raise NotAUnit(f"{x} is not a unit of the Laurent extension")
    decomp, red, exponents = found
    base = x.base
    t_unshift = LaurentElement(base, {})
    for e, n in zip(decomp.idempotents, exponents):
        t_unshift = t_unshift + LaurentElement(base, {-n: e})
    y = x * t_unshift
    u0 = y.coefficient(0)
    z = y.scale_elem(_base_inverse(base, u0, "constant term must be a unit after unshifting"))
    # peel the negative-degree nilpotent tail
    q_total = LaurentElement.one(base)
    r = z
    for _ in range(base.dim + 2):
        negative = LaurentElement(base, {n: c for n, c in r.coeffs.items() if n < 0})
        if negative.is_zero():
            break
        factor = LaurentElement.one(base) + negative
        q_total = q_total * factor
        r = r * _unipotent_inverse(factor)
    else:
        raise CertificateFailure("tail splitting did not terminate")  # pragma: no cover
    # normalize constant terms to 1, absorbing the units into u0
    p0 = r.coefficient(0)
    q0 = q_total.coefficient(0)
    p_part = r.scale_elem(_base_inverse(base, p0, "tail constant terms must be units"))
    q_part = q_total.scale_elem(_base_inverse(base, q0, "tail constant terms must be units"))
    u0_total = base.mul(u0, base.mul(p0, q0))
    result = LaurentUnitDecomposition(
        x, u0_total, decomp.idempotents, tuple(exponents), p_part, q_part
    )
    # exact certificates
    if result.recompose() != x:
        raise CertificateFailure("recomposition does not reproduce the unit")
    for part, side in ((p_part, 1), (q_part, -1)):
        for n, c in part.coeffs.items():
            if n == 0:
                if c != base.one():
                    raise CertificateFailure("tail constant term is not one")
            elif n * side < 0:
                raise CertificateFailure("tail supported on the wrong side")
            elif not red.is_zero_elem(red.from_poly(base.to_poly(c))):
                raise CertificateFailure("tail coefficient is not nilpotent")
    return result


# -- parsing -----------------------------------------------------------------------


class _LaurentEvaluator(Evaluator):
    allow_negative_exponents = True

    def __init__(self, base: FiniteAlgebra):
        if "t" in base.ring.variables or "t" in base.field.symbol_names():
            raise InputError(f"the Laurent variable 't' collides with a variable or field "
                             f"symbol of the base {base.ring.describe()}")
        self.base = base

    def from_fraction(self, q: Fraction, text, pos):
        try:
            return LaurentElement.constant(
                self.base, self.base.scalar(self.base.field.from_fraction(q))
            )
        except ZeroDivisionError as exc:
            raise ParseError(str(exc), text, pos) from None

    def variable(self, name, text, pos):
        if name == "t":
            return LaurentElement.t_power(self.base, 1)
        if name in self.base.ring.variables:
            return LaurentElement.constant(self.base, self.base.variable_element(name))
        elem = self.base.field.symbol_element(name)
        if elem is not None:
            return LaurentElement.constant(self.base, self.base.scalar(elem))
        raise ParseError(f"unknown variable {name!r}", text, pos)

    def pow(self, a, n, text, pos):
        try:
            return a**n
        except CartierlabError as exc:
            raise ParseError(str(exc), text, pos) from None


def parse_laurent(text: str, base: FiniteAlgebra) -> LaurentElement:
    """Parse the shared grammar extended with negative powers of t."""
    return parse_with_evaluator(text, _LaurentEvaluator(base))
