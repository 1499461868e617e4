"""Units of R[t,1/t] over an Artinian base and their four-factor splitting.

A unit factors as (unit of R) * (componentwise power of t) * (unipotent tail
in positive degrees) * (unipotent tail in negative degrees). The exponent
tuple, one integer per primitive idempotent of the base, is the value of the
boundary map on the unit group.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    UNKNOWN,
    Uncertified,
)
from .polycore.fields import square_and_multiply
from .polycore.parse import PolynomialEvaluator, parse_with_evaluator
from .polycore.rings import PolyRing, mul_terms


def _times(base: FiniteAlgebra, one: tuple, a: tuple, b: tuple) -> tuple:
    """a*b in the base, with no product formed when a factor is the unit one."""
    return b if a == one else a if b == one else base.mul(a, b)


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
        base, one = self.base, self.base.one()
        out: dict = {}
        for n1, c1 in self.coeffs.items():
            for n2, c2 in other.coeffs.items():
                n = n1 + n2
                prod = _times(base, one, c1, c2)
                if n in out:
                    prod = base.add(out[n], prod)
                out[n] = prod
        return LaurentElement(base, out)

    def scale_elem(self, elem) -> "LaurentElement":
        base, one = self.base, self.base.one()
        return LaurentElement(base, {n: _times(base, one, elem, c) for n, c in self.coeffs.items()})

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


def _in_reduced(base: FiniteAlgebra, red: FiniteAlgebra, c: tuple) -> tuple:
    """The image in red = A_red of an element of the base; a reduced base is
    its own A_red, and then c is already that image."""
    return c if red is base else red.from_poly(base.to_poly(c))


def _unit_exponents(x: LaurentElement):
    """(decomposition of the base, its reduced algebra, the exponent of x on
    each primitive idempotent), or None when x is not a unit.

    A Laurent polynomial is a unit exactly when, on each connected component
    of the reduced base, it is a single term with a nonzero coefficient.
    Raises Uncertified when the decomposition of the base is not certified.
    """
    base = x.base
    decomp = idempotent_decomposition(base)
    red = reduced_algebra(base)
    coeffs = [(n, _in_reduced(base, red, c)) for n, c in x.coeffs.items()]
    exponents, one = [], red.one()
    for e in decomp.idempotents:
        e_red = _in_reduced(base, red, e)
        live = [n for n, c in coeffs if not red.is_zero_elem(_times(red, one, e_red, c))]
        if len(live) != 1:
            return None
        exponents.append(live[0])
    return decomp, red, exponents


def is_laurent_unit(x: LaurentElement):
    """True/False, or Unknown when the component decomposition is blocked."""
    try:
        return _unit_exponents(x) is not None
    except Uncertified:
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
        t_block = _t_block(base, self.idempotents, self.exponents)
        return LaurentElement.constant(base, self.u0) * t_block * self.p_part * self.q_part


def _t_block(base: FiniteAlgebra, idempotents, exponents) -> LaurentElement:
    """The sum of e * t^n over the idempotents e and their exponents n."""
    coeffs: dict = {}
    for e, n in zip(idempotents, exponents):
        coeffs[n] = base.add(coeffs[n], e) if n in coeffs else e
    return LaurentElement(base, coeffs)


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
    """c^-1 in the base, by `FiniteAlgebra.inverse`; a non-unit raises
    CertificateFailure(failure)."""
    try:
        return base.inverse(c)
    except ZeroDivisionError:
        raise CertificateFailure(failure) from None


def bass_decompose(x: LaurentElement) -> LaurentUnitDecomposition:
    """The unique four-factor splitting of a Laurent unit.

    Raises NotAUnit for a non-unit, and Uncertified when the
    decomposition of the base is not certified.
    """
    found = _unit_exponents(x)
    if found is None:
        raise NotAUnit(f"{x} is not a unit of the Laurent extension")
    decomp, red, exponents = found
    base = x.base
    y = x * _t_block(base, decomp.idempotents, [-n for n in exponents])
    u0 = y.coefficient(0)
    r = y.scale_elem(_base_inverse(base, u0, "constant term must be a unit after unshifting"))
    # peel the negative-degree nilpotent tail
    q_part = LaurentElement.one(base)
    for _ in range(base.dim + 2):
        negative = LaurentElement(base, {n: c for n, c in r.coeffs.items() if n < 0})
        if negative.is_zero():
            break
        factor = LaurentElement.one(base) + negative
        q_part = q_part * factor
        r = r * _unipotent_inverse(factor)
    else:
        raise CertificateFailure("tail splitting did not terminate")  # pragma: no cover
    # q_part, a product of 1 + (negative degrees), has constant term one; p0 goes into u0
    p0 = r.coefficient(0)
    p_part = r.scale_elem(_base_inverse(base, p0, "tail constant terms must be units"))
    result = LaurentUnitDecomposition(
        x, _times(base, base.one(), u0, p0), decomp.idempotents, tuple(exponents), p_part, q_part
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
            elif not red.is_zero_elem(_in_reduced(base, red, c)):
                raise CertificateFailure("tail coefficient is not nilpotent")
    return result


# -- parsing -----------------------------------------------------------------------


class _LaurentEvaluator(PolynomialEvaluator):
    """Term maps over the base's variables and t, the last exponent. Every
    product, the folded monomials aside, leaves only monomials of the base's
    staircase, which bounds the maps; before a negative power and when the
    parse ends (`element`), the coefficients are reduced so as well. The
    base reduces each monomial once, in `FiniteAlgebra.monomial`."""

    allow_negative_exponents = True

    def __init__(self, base: FiniteAlgebra):
        if "t" in base.ring.variables or "t" in base.field.symbol_names():
            raise InputError(f"the Laurent variable 't' collides with a variable or field "
                             f"symbol of the base {base.ring.describe()}")
        super().__init__(PolyRing(base.field, base.ring.variables + ("t",)))
        self.base = base

    def _reduce(self, terms: dict) -> dict:
        """terms with each base monomial outside the staircase replaced by its coordinates."""
        base, field = self.base, self.field
        out: dict = {}
        for exp, c in terms.items():
            pairs = ((exp, c),) if exp[:-1] in base._index else (
                (base.basis[i] + exp[-1:], field.mul(c, s)) for i, s in base.monomial(exp[:-1]))
            for e, s in pairs:
                out[e] = field.add(out.get(e, field.zero()), s)
        return {exp: c for exp, c in out.items() if not field.is_zero(c)}

    def mul(self, a, b):
        return self._reduce(mul_terms(self.field, a, b))

    def pow(self, a, n, text, pos):
        if n < 0:
            a, n = self._inverse(a, text, pos), -n
        if len(a) == 1:
            (exp, c), = a.items()
            if not any(exp[:-1]):  # c*t^k: its power by field arithmetic
                return {exp[:-1] + (exp[-1] * n,): self.field.pow(c, n)}
        return square_and_multiply(a, n, {self.ring._zero_exp: self.field.one()}, self.mul)

    def _inverse(self, a: dict, text, pos) -> dict:
        """The inverse of a single-term unit, judged on reduced coefficients."""
        try:
            (n, inverse), = (self.element(a) ** -1).coeffs.items()
        except CartierlabError as exc:
            raise ParseError(str(exc), text, pos) from None
        return {e + (n,): c for e, c in zip(self.base.basis, inverse) if not self.field.is_zero(c)}

    def element(self, terms: dict) -> LaurentElement:
        base = self.base
        zero = base.field.zero()
        coeffs: dict = {}
        for exp, c in self._reduce(terms).items():
            coeffs.setdefault(exp[-1], [zero] * base.dim)[base._index[exp[:-1]]] = c
        return LaurentElement(base, {n: tuple(c) for n, c in coeffs.items()})


def parse_laurent(text: str, base: FiniteAlgebra) -> LaurentElement:
    """Parse the shared grammar extended with negative powers of t."""
    evaluator = _LaurentEvaluator(base)
    return evaluator.element(parse_with_evaluator(text, evaluator))
