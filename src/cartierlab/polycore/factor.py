"""Univariate factorization over the supported coefficient fields.

Callers pass `irreducible_factors` a monic squarefree input, as every caller
in the library holds one; `squarefree_factors` takes the squarefree part once.
`factor_count` counts the factors of such an input. Over F_p it finds none:
the count is deg v - rank(Q - I) for Berlekamp's Q-matrix (Bell System Tech.
J. 46 (1967)), whose rows x^(ip) mod v are the Frobenius rows below.
Over QQ: Zassenhaus (J. Number Theory 1 (1969); von zur Gathen and Gerhard,
Modern Computer Algebra, ch. 15-16) on the F_p code below. The squarefree
input is made primitive over Z and factored modulo the first prime that
keeps it squarefree of full degree; the factors are Hensel-lifted to p^k
above twice the leading coefficient times the Mignotte bound, and products of
subsets of them are tried by division over Z. The answer is exact; past
_RECOMBINATION_CAP subsets FactorSearchLimit is raised, never a wrong answer.
Over F_p: Cantor-Zassenhaus with a seeded deterministic random stream, on
the plain coefficient ints of PrimeField. One kernel multiplies modulo a
monic polynomial: it sums the products as ints and reduces each coefficient
by `% p` once. x^p mod v is computed once per input v, by square-and-multiply;
from it come the Frobenius rows x^(ip) mod v (Berlekamp's Q-matrix), and
every later p-th power is the row combination h^p = sum_i h_i x^(ip). That
holds modulo every factor g of v too, since x^(ip) mod g is
(x^(ip) mod v) mod g, so the distinct-degree steps and the equal-degree
splits of all factors share the rows. An equal-degree split of degree d
takes a^((p^d - 1)/2) as (a a^p ... a^(p^(d-1)))^((p - 1)/2), and over F_2
the trace a + a^2 + ... + a^(2^(d-1)).
Over k(v): exact factoring for base-coefficient polynomials and for
quadratics via a discriminant square test; anything else hits the cap.
"""

from __future__ import annotations

import itertools
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
    _is_prime,
    square_and_multiply,
)

_RECOMBINATION_CAP = 1 << 16  # subsets of modular factors tried over QQ

_CZ_SEED = 0xC247


def squarefree_factors(field: Field, p: tuple) -> list[tuple]:
    """Distinct monic irreducible factors of the squarefree part of p.

    Raises FactorSearchLimit when the search cannot be completed; the caller
    must then report Unknown rather than a count.
    """
    return irreducible_factors(field, up.usquarefree_part(field, p))


def irreducible_factors(field: Field, sq: tuple) -> list[tuple]:
    """The monic irreducible factors of a monic squarefree sq, sorted over QQ
    and F_p. Raises FactorSearchLimit as `squarefree_factors` does."""
    if up.udeg(sq) <= 0:
        return []
    if isinstance(field, RationalField):
        return sorted(_factor_qq(sq))
    if isinstance(field, PrimeField):
        return sorted(_factor_fp(field, sq))
    if isinstance(field, RationalFunctionField):
        return _factor_rational_functions(field, sq)
    raise CartierlabError(f"unsupported field {field.describe()}")


def factor_count(field: Field, sq: tuple) -> int:
    """The number of monic irreducible factors of a monic squarefree sq.
    Over F_p it is deg sq - rank(Q - I) for Berlekamp's Q-matrix, and no
    factor is computed; elsewhere the factors are counted. Raises
    FactorSearchLimit as `squarefree_factors` does."""
    if up.udeg(sq) < 2:
        return max(up.udeg(sq), 0)
    if isinstance(field, PrimeField):
        return _berlekamp_count(_frobenius_rows(sq, field.p), field.p)
    return len(irreducible_factors(field, sq))


def verify_irreducible(field: Field, p: tuple) -> None:
    """Raise CartierlabError if p is reducible or has a repeated factor, and
    FactorSearchLimit when the factor search cannot decide: irreducibility is
    decided or refused, never assumed."""
    if up.udeg(p) < 1:
        raise CartierlabError("a constant is not irreducible")
    sq = up.usquarefree_part(field, p)
    if up.udeg(sq) != up.udeg(p):
        raise CartierlabError("polynomial has a repeated factor")
    if factor_count(field, sq) != 1:
        raise CartierlabError("polynomial is reducible")


# ---------------------------------------------------------------------------
# rationals


def _to_integer_poly(p: tuple) -> list[int]:
    """The primitive integer multiple of a nonzero p."""
    denom = math.lcm(*(c.denominator for c in p))
    ints = [int(c * denom) for c in p]
    content = math.gcd(*ints)
    return [c // content for c in ints]


def _factor_qq(sq: tuple) -> list[tuple]:
    """Irreducible monic factors of a squarefree monic polynomial over QQ, by
    Zassenhaus: factor modulo a prime, Hensel-lift, recombine over Z."""
    if up.udeg(sq) == 1:
        return [sq]
    if not sq[0]:  # x divides sq once
        return [(0, 1)] + _factor_qq(sq[1:])
    f = _to_integer_poly(sq)
    field, fp = _good_reduction(f)
    factors = _factor_fp(field, fp)
    if len(factors) == 1:
        return [sq]
    # a proper factor g of f has degree at most m = deg f - 1, so its
    # coefficients are at most binomial(m, m/2) ||f||_2 (Mignotte); the candidates are
    # lc(f)/lc(g) * g, so modulo q above twice their bound the symmetric
    # residues are the integers themselves
    m = len(f) - 2
    bound = 2 * abs(f[-1]) * math.comb(m, m // 2) * (math.isqrt(sum(c * c for c in f)) + 1)
    q, lifted = _hensel_lift(field, f, factors, bound)
    return [up.umonic(QQ, g) for g in _recombine(tuple(f), lifted, q)]


def _good_reduction(f: list[int]):
    """(F_p, monic f mod p) for the first prime p that does not divide the
    leading coefficient of f and keeps f squarefree; only finitely many
    primes divide the leading coefficient or the discriminant."""
    for p in itertools.count(2):
        if f[-1] % p == 0 or not _is_prime(p):
            continue
        field = PrimeField(p)
        fp = up.umonic(field, up.utrim(field, [c % p for c in f]))
        if up.udeg(up.ugcd(field, fp, up.uderiv(field, fp))) == 0:
            return field, fp


def _product_mod(a: list, b: list, q: int) -> list:
    """a*b over Z/q, for integer coefficient lists."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b, i):
            prod[k] += x * y
    return [c % q for c in prod]


def _hensel_lift(field: PrimeField, f: list[int], factors: list[tuple], bound: int):
    """(q, lifted): q = p^k > bound and monic lifts of the factors of f mod p
    with f = lc(f) * prod(lifted) mod q. Each step from p^j to p^(j+1) adds
    p^j * (s_i e mod g_i) to g_i, where e = (f/lc - prod)/p^j and
    sum_i s_i f/g_i = 1 mod p, which holds for s_i = (f/g_i)^(-1) mod g_i."""
    p = q = field.p
    while q <= bound:
        q *= p
    target = [c * pow(f[-1], -1, q) % q for c in f]  # f/lc(f) mod q
    inverses = []
    for g in factors:  # in the field F_p[x]/(g) of p^deg(g) elements, c^-1 = c^(p^deg(g) - 2)
        cofactor = (1,)
        for h in factors:
            if h is not g:
                cofactor = _mulmod(cofactor, h, g, p)
        inverses.append(_powmod(cofactor, p ** (len(g) - 1) - 2, g, p))
    lifted = [list(g) for g in factors]
    pj = p
    while pj < q:
        prod = [1]
        for g in lifted:
            prod = _product_mod(prod, g, pj * p)
        e = [(t - c) % (pj * p) // pj for t, c in zip(target, prod)]
        while e and not e[-1]:
            e.pop()
        for g, s, g0 in zip(lifted, inverses, factors):
            for i, c in enumerate(_mulmod(s, tuple(e), g0, p)):
                g[i] += pj * c
        pj *= p
    return q, lifted


def _recombine(f: tuple, lifted: list[list], q: int) -> list[tuple]:
    """The irreducible factors of f over Z, from its monic factors mod q:
    the products of the subsets of s factors, s = 1, 2, ..., times lc(f) and
    taken symmetrically mod q, are tried by division. A factor found leaves
    the rest of f and its factors, whose subsets are tried from the same s."""
    found = []
    s = tried = 0
    while 2 * (s + 1) <= len(lifted):
        s += 1
        for subset in itertools.combinations(range(len(lifted)), s):
            tried += 1
            if tried > _RECOMBINATION_CAP:
                raise FactorSearchLimit(
                    f"factor recombination over QQ capped at {_RECOMBINATION_CAP} subsets")
            c0 = f[-1]
            for i in subset:  # the constant term first: it must divide lc(f) f(0)
                c0 = c0 * lifted[i][0] % q
            c0 -= q if 2 * c0 > q else 0
            if not c0 or f[-1] * f[0] % c0:
                continue
            g = [f[-1]]
            for i in subset:
                g = _product_mod(g, lifted[i], q)
            g = [c - q if 2 * c > q else c for c in g]
            content = math.gcd(*g)
            g = tuple(c // content for c in g)
            quo, rem = up.udivmod(QQ, f, g)
            if not rem:  # g is primitive, so quo is integral (Gauss)
                found.append(g)
                f = quo
                lifted = [h for i, h in enumerate(lifted) if i not in subset]
                s -= 1
                break
    return found + [f]


# ---------------------------------------------------------------------------
# prime fields


def _mulmod(a: tuple, b: tuple, m: tuple, p: int) -> tuple:
    """a*b mod m over F_p, for monic m. The kernel of this section: the
    products are summed as plain ints and each coefficient is reduced by
    `% p` once, after the division by m."""
    if not a or not b:
        return ()
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                prod[k] += x * y
    return _rem(prod, m, p)


def _rem(c: list, m: tuple, p: int) -> tuple:
    """c mod m over F_p for monic m, where c is a list of unreduced ints
    (consumed)."""
    n = len(m) - 1
    low = m[:-1]
    for top in range(len(c) - 1, n - 1, -1):
        q = c[top] % p
        if q:
            for k, r in enumerate(low, top - n):
                c[k] -= q * r
    del c[n:]
    c = [x % p for x in c]
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _powmod(a: tuple, e: int, m: tuple, p: int) -> tuple:
    """a^e mod m over F_p, for monic m of degree >= 1."""
    return square_and_multiply(a, e, (1,), lambda x, y: _mulmod(x, y, m, p))


def _frobenius(h: tuple, rows: list, m: tuple, p: int) -> tuple:
    """h^p mod m over F_p, as sum_i h_i * x^(ip). The rows are x^(ip) mod v
    for a multiple v of m of degree above deg h, so reducing the sum mod m
    gives the answer for every factor m of v."""
    acc = [0] * len(rows)
    for c, row in zip(h, rows):
        if c:
            for k, r in enumerate(row):
                acc[k] += c * r
    return _rem(acc, m, p)


def _frobenius_rows(v: tuple, p: int) -> list[tuple]:
    """x^(ip) mod v for i < deg v (Berlekamp's Q-matrix), from one
    exponentiation xi = x^p mod v; v is monic of degree >= 2."""
    xi = _powmod((0, 1), p, v, p)
    rows = [(1,)]
    for _ in range(len(v) - 2):
        rows.append(_mulmod(rows[-1], xi, v, p))
    return rows


def _berlekamp_count(rows: list, p: int) -> int:
    """dim ker(Q - I) over F_p for the Frobenius rows Q of a monic squarefree
    v: the number of irreducible factors of v (Berlekamp 1967), as
    deg v - rank(Q - I), by elimination on plain ints."""
    n = len(rows)
    pivots = []  # (column, row scaled to 1 there and 0 at earlier pivots)
    for i in range(1, n):  # row 0 of Q is x^0 = 1, a zero row of Q - I
        row = list(rows[i]) + [0] * (n - len(rows[i]))
        row[i] -= 1
        for col, top in pivots:
            c = row[col] % p
            if c:
                row = [x - c * y for x, y in zip(row, top)]
        col = next((k for k, x in enumerate(row) if x % p), None)
        if col is not None:
            inv = pow(row[col], -1, p)
            pivots.append((col, [x * inv % p for x in row]))
    return n - len(pivots)


def _equal_degree_split(field: PrimeField, f: tuple, d: int, rows: list,
                        rng: random.Random) -> list[tuple]:
    """Split a product of distinct irreducibles all of degree d; `rows` are
    the Frobenius rows of a multiple of f."""
    if up.udeg(f) == d:
        return [f]
    p = field.p
    for _ in range(200):
        a = up.utrim(field, [rng.randrange(p) for _ in range(up.udeg(f))])
        if up.udeg(a) < 1:
            continue
        # p = 2: the trace a + a^2 + ... + a^(2^(d-1)); p odd:
        # a^((p^d - 1)/2) = (a * a^p * ... * a^(p^(d-1)))^((p - 1)/2)
        b = conj = a
        for _ in range(d - 1):
            conj = _frobenius(conj, rows, f, p)
            b = up.uadd(field, b, conj) if p == 2 else _mulmod(b, conj, f, p)
        if p != 2:
            b = up.usub(field, _powmod(b, (p - 1) // 2, f, p), (1,))
        g = up.ugcd(field, b, f)
        if 0 < up.udeg(g) < up.udeg(f):
            rest = up.udivmod(field, f, g)[0]
            return (_equal_degree_split(field, g, d, rows, rng)
                    + _equal_degree_split(field, rest, d, rows, rng))
    raise CartierlabError("equal-degree splitting failed to converge")  # pragma: no cover


def _factor_fp(field: PrimeField, v: tuple) -> list[tuple]:
    """Cantor-Zassenhaus on a monic squarefree v: distinct-degree, then
    equal-degree splitting, with every p-th power read off one set of
    Frobenius rows of the input."""
    rng = random.Random(_CZ_SEED)
    factors: list[tuple] = []
    if up.udeg(v) == 1:
        return [v]
    p = field.p
    rows = _frobenius_rows(v, p)
    x = h = (0, 1)
    d = 0
    while up.udeg(v) > 0:
        d += 1
        if 2 * d > up.udeg(v):
            factors.extend(_equal_degree_split(field, v, up.udeg(v), rows, rng))
            break
        h = _frobenius(h, rows, v, p)
        g = up.ugcd(field, up.usub(field, h, x), v)
        if up.udeg(g) > 0:
            factors.extend(_equal_degree_split(field, g, d, rows, rng))
            v = up.udivmod(field, v, g)[0]
            h = _rem(list(h), v, p)
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


def _base_sqrt(base: Field, a):
    """A square root of a in QQ or F_p, or None. Over F_p (p odd) it is the
    smaller root of z^2 - a, read off the factors of that polynomial."""
    if isinstance(base, RationalField):
        return _fraction_is_square(a)
    if isinstance(base, PrimeField):
        if base.is_zero(a):
            return base.zero()
        factors = _factor_fp(base, (base.neg(a), base.zero(), base.one()))
        return min((base.neg(f[0]) for f in factors if up.udeg(f) == 1), default=None)
    return None


def _poly_sqrt(base: Field, p: tuple) -> tuple | None:
    """Exact square root in base[v] of a nonzero p, or None; base has odd or
    zero characteristic."""
    if up.udeg(p) % 2 != 0:
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
        down = tuple(field.numerator(c)[0] if field.numerator(c) else base.zero() for c in sq)
        return [tuple(field.from_polynomial(up.uconst(base, c)) for c in f)
                for f in irreducible_factors(base, down)]
    if up.udeg(sq) == 1:
        return [sq]
    if up.udeg(sq) == 2:
        if field.characteristic == 2:
            raise FactorSearchLimit("quadratic split unavailable in characteristic 2")
        b, c = sq[1], sq[0]
        # b^2 - 4c is nonzero, as sq is squarefree
        num, den = field.sub(field.mul(b, b), field.mul(field.from_int(4), c))
        sn, sd = _poly_sqrt(base, num), _poly_sqrt(base, den)
        if sn is None or sd is None:
            return [sq]  # non-square discriminant: irreducible over base(v)
        root_disc = field.make(sn, sd)
        half = field.inv(field.from_int(2))
        r1 = field.mul(field.sub(root_disc, b), half)
        r2 = field.mul(field.neg(field.add(root_disc, b)), half)
        return [(field.neg(r1), field.one()), (field.neg(r2), field.one())]
    raise FactorSearchLimit("factor search over rational functions limited to degree 2")
