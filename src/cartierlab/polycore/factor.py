"""Univariate factorization over the supported coefficient fields.

Over QQ: rational roots plus a Kronecker-style bounded factor search, capped
at degree 8 (a cap hit raises FactorSearchLimit, never a wrong answer).
Over F_p: Cantor-Zassenhaus with a seeded deterministic random stream.
Over k(v): exact factoring for base-coefficient polynomials and for
quadratics via a discriminant square test; anything else hits the cap.
"""

from __future__ import annotations

import math
import random

from ..errors import CartierlabError, FactorSearchLimit
from . import unipoly as up
from .fields import (
    Field,
    PrimeField,
    QQ,
    RationalField,
    RationalFunctionField,
    SimpleExtensionField,
)

QQ_DEGREE_CAP = 8
_KRONECKER_COMBO_CAP = 200_000
_DIVISOR_VALUE_CAP = 10**12

_CZ_SEED = 0xC247


def squarefree_factors(field: Field, p: tuple) -> list[tuple]:
    """Distinct monic irreducible factors of the squarefree part of p.

    Raises FactorSearchLimit when the search cannot be completed; the caller
    must then report Unknown rather than a count.
    """
    sq = up.usquarefree_part(field, p)
    if up.udeg(sq) <= 0:
        return []
    if isinstance(field, RationalField):
        return sorted(_factor_qq(sq))
    if isinstance(field, PrimeField):
        return sorted(_factor_fp(field, sq))
    if isinstance(field, RationalFunctionField):
        return _factor_rational_functions(field, sq)
    if isinstance(field, SimpleExtensionField):
        if up.udeg(sq) == 1:
            return [up.umonic(field, sq)]
        raise FactorSearchLimit(
            f"no factor search implemented over {field.describe()} beyond degree 1"
        )
    raise CartierlabError(f"unsupported field {field.describe()}")


def verify_irreducible(field: Field, p: tuple) -> None:
    """Raise if p is detected to be reducible.

    Complete over prime fields; over QQ a search cap means the claim is
    accepted after the verification attempt.
    """
    if up.udeg(p) < 1:
        raise CartierlabError("a constant is not irreducible")
    sq = up.usquarefree_part(field, p)
    if up.udeg(sq) != up.udeg(p):
        raise CartierlabError("polynomial has a repeated factor")
    try:
        factors = squarefree_factors(field, p)
    except FactorSearchLimit:
        return
    if len(factors) != 1 or up.udeg(factors[0]) != up.udeg(p):
        raise CartierlabError("polynomial is reducible")


# ---------------------------------------------------------------------------
# rationals


def _to_integer_poly(p: tuple) -> list[int]:
    denom = 1
    for c in p:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    ints = [int(c * denom) for c in p]
    content = 0
    for c in ints:
        content = math.gcd(content, abs(c))
    return [c // content for c in ints] if content else ints


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        raise FactorSearchLimit("divisor enumeration of zero")
    if n > _DIVISOR_VALUE_CAP:
        raise FactorSearchLimit(f"value too large for divisor enumeration: {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _eval_int(p: list[int], x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _rational_roots(p: list[int]) -> list:
    roots = []
    work = list(p)
    while work and work[0] == 0:
        roots.append(QQ.zero())
        work = work[1:]
        break  # multiplicities do not matter for squarefree inputs
    if len(work) <= 1:
        return roots
    for num in _int_divisors(work[0]) if work[0] else [0]:
        for den in _int_divisors(work[-1]):
            for cand in (QQ.div(num, den), QQ.div(-num, den)):
                total = 0
                for c in reversed(work):
                    total = total * cand + c
                if total == 0 and cand not in roots:
                    roots.append(cand)
    return roots


def _lagrange(points: list[tuple[int, int]]) -> tuple:
    result: tuple = ()
    for i, (xi, yi) in enumerate(points):
        term: tuple = (QQ.from_int(yi),)
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            term = up.umul(QQ, term, (QQ.div(-xj, xi - xj), QQ.inv(xi - xj)))
        result = up.uadd(QQ, result, term)
    return result


def _kronecker_factor(p: list[int]) -> tuple | None:
    """Search a nontrivial factor of a squarefree primitive integer poly."""
    deg = len(p) - 1
    qpoly = tuple(QQ.from_int(c) for c in p)
    xs = [0]
    k = 1
    while len(xs) < deg // 2 + 1:
        xs.extend([k, -k])
        k += 1
    for d in range(2, deg // 2 + 1):
        pts = xs[: d + 1]
        divisor_lists = []
        for idx, x in enumerate(pts):
            v = _eval_int(p, x)
            divisors = _int_divisors(v)
            if idx == 0:
                divisor_lists.append(divisors)  # sign fixed on the first point
            else:
                divisor_lists.append([w for dd in divisors for w in (dd, -dd)])
        combos = 1
        for lst in divisor_lists:
            combos *= len(lst)
        if combos > _KRONECKER_COMBO_CAP:
            raise FactorSearchLimit(
                f"Kronecker search would need {combos} combinations"
            )
        stack = [[]]
        for lst in divisor_lists:
            stack = [acc + [w] for acc in stack for w in lst]
        for values in stack:
            cand = _lagrange(list(zip(pts, values)))
            if up.udeg(cand) != d:
                continue
            quo, rem = up.udivmod(QQ, qpoly, cand)
            if not rem and up.udeg(quo) >= 1:
                return cand
    return None


def _factor_qq(sq: tuple) -> list[tuple]:
    """Irreducible monic factors of a squarefree monic polynomial over QQ."""
    factors: list[tuple] = []
    work = sq
    for root in _rational_roots(_to_integer_poly(work)):
        lin = (QQ.neg(root), QQ.one())
        quo, rem = up.udivmod(QQ, work, lin)
        if not rem:
            factors.append(lin)
            work = quo
    while up.udeg(work) >= 1:
        if up.udeg(work) == 1:
            factors.append(up.umonic(QQ, work))
            break
        if up.udeg(work) > QQ_DEGREE_CAP:
            raise FactorSearchLimit(
                f"factor search over QQ capped at degree {QQ_DEGREE_CAP}"
            )
        found = _kronecker_factor(_to_integer_poly(work))
        if found is None:
            factors.append(up.umonic(QQ, work))
            break
        factors.append(up.umonic(QQ, found))
        work = up.udivmod(QQ, work, found)[0]
    return factors


# ---------------------------------------------------------------------------
# prime fields


def _powmod(field: PrimeField, base: tuple, exponent: int, modulus: tuple) -> tuple:
    result = up.umod(field, (field.one(),), modulus)
    base = up.umod(field, base, modulus)
    while exponent > 0:
        if exponent & 1:
            result = up.umod(field, up.umul(field, result, base), modulus)
        base = up.umod(field, up.umul(field, base, base), modulus)
        exponent >>= 1
    return result


def _equal_degree_split(field: PrimeField, f: tuple, d: int,
                        rng: random.Random) -> list[tuple]:
    """Split a product of distinct irreducibles all of degree d."""
    if up.udeg(f) == d:
        return [up.umonic(field, f)]
    p = field.p
    x = (field.zero(), field.one())
    for _ in range(200):
        a = tuple(field.from_int(rng.randrange(p)) for _ in range(up.udeg(f)))
        a = up.utrim(field, a)
        if up.udeg(a) < 1:
            continue
        if p == 2:
            b = a
            t = a
            for _ in range(d - 1):
                t = up.umod(field, up.umul(field, t, t), f)
                b = up.uadd(field, b, t)
        else:
            b = up.usub(field, _powmod(field, a, (p**d - 1) // 2, f), (field.one(),))
        g = up.ugcd(field, b, f)
        if 0 < up.udeg(g) < up.udeg(f):
            rest = up.udivmod(field, f, g)[0]
            return _equal_degree_split(field, g, d, rng) + _equal_degree_split(
                field, rest, d, rng
            )
    raise CartierlabError("equal-degree splitting failed to converge")  # pragma: no cover


def _factor_fp(field: PrimeField, sq: tuple) -> list[tuple]:
    rng = random.Random(_CZ_SEED)
    factors: list[tuple] = []
    v = up.umonic(field, sq)
    h = (field.zero(), field.one())  # x
    x = h
    d = 0
    while up.udeg(v) > 0:
        d += 1
        if 2 * d > up.udeg(v):
            factors.extend(_equal_degree_split(field, v, up.udeg(v), rng))
            break
        h = _powmod(field, h, field.p, v)
        g = up.ugcd(field, up.usub(field, h, x), v)
        if up.udeg(g) > 0:
            factors.extend(_equal_degree_split(field, g, d, rng))
            v = up.udivmod(field, v, g)[0]
            h = up.umod(field, h, v)
    return factors


# ---------------------------------------------------------------------------
# rational function fields


def _fraction_is_square(q):
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return QQ.div(rn, rd)
    return None


def _prime_sqrt(field: PrimeField, a: int) -> int | None:
    p = field.p
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _base_sqrt(base: Field, a):
    if isinstance(base, RationalField):
        return _fraction_is_square(a)
    if isinstance(base, PrimeField):
        return _prime_sqrt(base, a)
    return None


def _poly_sqrt(base: Field, p: tuple) -> tuple | None:
    """Exact square root in base[v], or None."""
    if not p:
        return ()
    if up.udeg(p) % 2 != 0 or base.characteristic == 2:
        return None
    lead = _base_sqrt(base, p[-1])
    if lead is None:
        return None
    m = up.udeg(p) // 2
    q = [base.zero()] * (m + 1)
    q[m] = lead
    two_lead_inv = base.inv(base.add(lead, lead))
    for k in range(m - 1, -1, -1):
        # match the coefficient of v^(m+k): p[m+k] = 2*q[m]*q[k] + cross terms
        acc = base.zero()
        for i in range(k + 1, m):
            acc = base.add(acc, base.mul(q[i], q[m + k - i]))
        total = p[m + k] if m + k < len(p) else base.zero()
        q[k] = base.mul(base.sub(total, acc), two_lead_inv)
    cand = up.utrim(base, q)
    if up.umul(base, cand, cand) == up.utrim(base, p):
        return cand
    return None


def _factor_rational_functions(field: RationalFunctionField, sq: tuple) -> list[tuple]:
    base = field.base
    if all(field.is_polynomial(c) and up.udeg(field.numerator(c)) <= 0 for c in sq):
        # coefficients lie in the base field: factor there and embed
        down = tuple(
            field.numerator(c)[0] if field.numerator(c) else base.zero() for c in sq
        )
        lifted = []
        for fac in squarefree_factors(base, down):
            lifted.append(tuple(field.from_polynomial(up.uconst(base, c)) for c in fac))
        return lifted
    sq = up.umonic(field, sq)
    if up.udeg(sq) == 1:
        return [sq]
    if up.udeg(sq) == 2:
        if field.characteristic == 2:
            raise FactorSearchLimit("quadratic split unavailable in characteristic 2")
        b, c = sq[1], sq[0]
        disc = field.sub(field.mul(b, b), field.mul(field.from_int(4), c))
        num, den = disc
        sn = _poly_sqrt(base, num)
        sd = _poly_sqrt(base, den)
        if sn is None or sd is None:
            return [sq]  # non-square discriminant: irreducible over base(v)
        root_disc = field.make(sn, sd)
        half = field.inv(field.from_int(2))
        r1 = field.mul(field.sub(root_disc, b), half)
        r2 = field.mul(field.neg(field.add(root_disc, b)), half)
        return [
            (field.neg(r1), field.one()),
            (field.neg(r2), field.one()),
        ]
    raise FactorSearchLimit(
        "factor search over rational functions limited to degree 2"
    )
