"""Univariate polynomial arithmetic over an abstract coefficient field.

Polynomials are tuples of field elements, constant term first, with no
trailing zeros; the zero polynomial is the empty tuple. Every function takes
the field explicitly so this module stays independent of the field classes.
"""

from __future__ import annotations

from typing import Sequence


def utrim(field, coeffs: Sequence) -> tuple:
    cs = list(coeffs)
    while cs and field.is_zero(cs[-1]):
        cs.pop()
    return tuple(cs)


def udeg(p: tuple) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(p) - 1


def uconst(field, c) -> tuple:
    return () if field.is_zero(c) else (c,)


def uadd(field, p: tuple, q: tuple) -> tuple:
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else field.zero()
        b = q[i] if i < len(q) else field.zero()
        out.append(field.add(a, b))
    return utrim(field, out)


def uneg(field, p: tuple) -> tuple:
    return tuple(field.neg(c) for c in p)


def usub(field, p: tuple, q: tuple) -> tuple:
    return uadd(field, p, uneg(field, q))


def uscale(field, c, p: tuple) -> tuple:
    if field.is_zero(c):
        return ()
    return utrim(field, [field.mul(c, a) for a in p])


def umul(field, p: tuple, q: tuple) -> tuple:
    if not p or not q:
        return ()
    out = [field.zero()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if field.is_zero(a):
            continue
        for j, b in enumerate(q):
            out[i + j] = field.add(out[i + j], field.mul(a, b))
    return utrim(field, out)


def udivmod(field, p: tuple, q: tuple) -> tuple[tuple, tuple]:
    if not q:
        raise ZeroDivisionError("univariate division by the zero polynomial")
    rem = list(p)
    quo = [field.zero()] * max(0, len(p) - len(q) + 1)
    inv_lead = field.inv(q[-1])
    while len(rem) >= len(q):
        if field.is_zero(rem[-1]):
            rem.pop()
            continue
        shift = len(rem) - len(q)
        factor = field.mul(rem[-1], inv_lead)
        quo[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] = field.sub(rem[shift + i], field.mul(factor, c))
        rem.pop()
    return utrim(field, quo), utrim(field, rem)


def umod(field, p: tuple, q: tuple) -> tuple:
    return udivmod(field, p, q)[1]


def umonic(field, p: tuple) -> tuple:
    if not p:
        return ()
    return uscale(field, field.inv(p[-1]), p)


def ugcd(field, p: tuple, q: tuple) -> tuple:
    """Monic greatest common divisor."""
    a, b = p, q
    while b:
        a, b = b, umod(field, a, b)
    return umonic(field, a)


def uxgcd(field, p: tuple, q: tuple) -> tuple[tuple, tuple, tuple]:
    """Extended Euclid: returns (g, u, v) monic g with u*p + v*q = g."""
    r0, r1 = p, q
    s0, s1 = (field.one(),), ()
    t0, t1 = (), (field.one(),)
    while r1:
        quo, rem = udivmod(field, r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, usub(field, s0, umul(field, quo, s1))
        t0, t1 = t1, usub(field, t0, umul(field, quo, t1))
    if not r0:
        return (), (), ()
    c = field.inv(r0[-1])
    return umonic(field, r0), uscale(field, c, s0), uscale(field, c, t0)


def uderiv(field, p: tuple) -> tuple:
    return utrim(
        field,
        [field.mul(field.from_int(i), p[i]) for i in range(1, len(p))],
    )


def usquarefree_part(field, p: tuple) -> tuple:
    """Monic product of the distinct irreducible factors.

    Uses gcd with the derivative; over a prime field the purely inseparable
    part g(x^p) is handled by p-th root extraction (prime fields are perfect).
    """
    if udeg(p) <= 0:
        return (field.one(),) if p else ()
    p = umonic(field, p)
    char = getattr(field, "characteristic", 0)
    d = uderiv(field, p)
    if not d:
        # only possible in characteristic p: p(x) = g(x^char)
        root = [field.pth_root(p[i]) for i in range(0, len(p), char)]
        return usquarefree_part(field, utrim(field, root))
    g = ugcd(field, p, d)
    w = udivmod(field, p, g)[0]  # factors whose multiplicity char does not divide
    c = g
    while True:
        h = ugcd(field, c, w)
        if udeg(h) <= 0:
            break
        c = udivmod(field, c, h)[0]
    if udeg(c) > 0:
        # c collects the factors with multiplicity divisible by char
        return umonic(field, umul(field, w, usquarefree_part(field, c)))
    return umonic(field, w)


def format_terms(field, terms) -> str:
    """The one term printer: (coefficient, monomial) pairs, nonzero and
    leading term first, joined in the shared expression grammar. A sign
    folds into ` + ` or ` - `, a unit coefficient is left out, and a
    constant term has the monomial ""."""
    parts: list[str] = []
    for c, mono in terms:
        sign, mag = field.sign_split(c)
        if not mono:
            body = field.format_element(mag)
        elif field.is_one(mag):
            body = mono
        else:
            body = f"{field.format_element(mag, as_factor=True)}*{mono}"
        if parts:
            parts.append(" - " if sign < 0 else " + ")
        elif sign < 0:
            parts.append("-")
        parts.append(body)
    return "".join(parts) or "0"


def uformat(field, p: tuple, variable: str) -> str:
    """Render in the shared expression grammar (descending powers)."""
    return format_terms(field, (
        (p[i], "" if i == 0 else variable if i == 1 else f"{variable}^{i}")
        for i in range(len(p) - 1, -1, -1) if not field.is_zero(p[i])))
