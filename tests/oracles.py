"""Independent brute-force oracles used to freeze expected test values.

Nothing here calls the code paths under test: membership goes through dense
linear algebra on monomial coordinates, expansion (of a product, or of a
relation at a map's images) through naive dict convolution, univariate
division through schoolbook long division, multivariate reduction through
the textbook loop on plain term dicts, the first linear dependence through
one fresh elimination per vector, and the conductor through every colon
ideal intersected in turn. The last two replay, on the library's own
primitives, an algorithm the library has since replaced.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def naive_expand_product(term_maps: list[dict]) -> dict:
    """Multiply polynomials given as {exponent tuple: Fraction} maps."""
    result = {(): Fraction(1)}
    for factor in term_maps:
        out: dict = {}
        for e1, c1 in result.items():
            for e2, c2 in factor.items():
                n = max(len(e1), len(e2))
                a = tuple(e1) + (0,) * (n - len(e1))
                b = tuple(e2) + (0,) * (n - len(e2))
                key = tuple(x + y for x, y in zip(a, b))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        result = {k: v for k, v in out.items() if v != 0}
    return result


def monomials_up_to(nvars: int, degree: int):
    for total in range(degree + 1):
        for exps in itertools.product(range(total + 1), repeat=nvars):
            if sum(exps) == total:
                yield exps


def membership_by_linear_algebra(f_terms: dict, gens_terms: list[dict],
                                 nvars: int, degree_bound: int) -> bool:
    """Decide f in (gens) by solving over the multiples m*g of degree <= bound.

    Dense row reduction over Fraction coordinates; complete for membership
    certificates whose cofactors stay below the degree bound.
    """
    products: list[dict] = []
    for g in gens_terms:
        gdeg = max((sum(e) for e in g), default=0)
        for m in monomials_up_to(nvars, max(degree_bound - gdeg, 0)):
            prod = {}
            for e, c in g.items():
                key = tuple(x + y for x, y in zip(m, e))
                prod[key] = prod.get(key, Fraction(0)) + c
            products.append(prod)
    monomial_set = sorted(set(f_terms) | {e for p in products for e in p})
    index = {m: i for i, m in enumerate(monomial_set)}
    # solve sum(c_j * products_j) = f by elimination on the transpose
    rows = [
        [p.get(m, Fraction(0)) for p in products] + [f_terms.get(m, Fraction(0))]
        for m in monomial_set
    ]
    ncols = len(products) + 1
    rank_col = 0
    pivot_cols = []
    r = 0
    for col in range(ncols):
        pivot = None
        for k in range(r, len(rows)):
            if rows[k][col] != 0:
                pivot = k
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col] != 0:
                fac = rows[k][col]
                rows[k] = [a - fac * b for a, b in zip(rows[k], rows[r])]
        pivot_cols.append(col)
        r += 1
        rank_col = col
    del rank_col
    return (len(products)) not in pivot_cols


def univariate_divmod(num: list[Fraction], den: list[Fraction]):
    """Schoolbook long division, coefficients constant-first."""
    num = list(num)
    quo = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    while len(num) >= len(den):
        if num[-1] == 0:
            num.pop()
            continue
        shift = len(num) - len(den)
        factor = num[-1] / den[-1]
        quo[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return quo, num


def brute_idempotent_count(p: int, dim: int, mul) -> int:
    """Count connected components by enumerating all p^dim elements.

    mul(a, b) multiplies coordinate tuples; the idempotents of a commutative
    ring form a Boolean algebra of size 2^c.
    """
    count = 0
    for coords in itertools.product(range(p), repeat=dim):
        if mul(coords, coords) == coords:
            count += 1
    c = count.bit_length() - 1
    assert 2**c == count, "idempotent count must be a power of two"
    return c


def naive_reduce(f_terms: dict, basis_terms: list[dict], field, key) -> dict:
    """Textbook full reduction on {exponent tuple: coefficient} maps.

    Each step finds the leading term as the maximum by `key` over the whole
    dividend, divides it by the first basis element whose leading term
    divides it, and subtracts the whole multiple; a term nothing divides
    moves to the remainder. The remainder's terms come in descending order.
    """
    p = dict(f_terms)
    leads = [max(g, key=key) for g in basis_terms]
    remainder: dict = {}
    while p:
        exp = max(p, key=key)
        for g, lead in zip(basis_terms, leads):
            if all(a <= b for a, b in zip(lead, exp)):
                factor = field.div(p[exp], g[lead])
                shift = tuple(a - b for a, b in zip(exp, lead))
                for e, c in g.items():
                    m = tuple(a + b for a, b in zip(e, shift))
                    value = field.sub(p.get(m, field.zero()), field.mul(factor, c))
                    if field.is_zero(value):
                        p.pop(m, None)
                    else:
                        p[m] = value
                break
        else:
            remainder[exp] = p.pop(exp)
    return remainder


def naive_image_remainder(g_terms: dict, images: list[dict], nvars: int,
                          basis_terms: list[dict], field, key) -> dict:
    """The remainder of g(images) against a basis of the target's ideal.

    g's terms are expanded one variable factor at a time by schoolbook
    convolution over `field` (images[i] replaces g's i-th variable, nvars is
    the number of target variables), and the sum is reduced by `naive_reduce`.
    """
    total: dict = {}
    for exps, c in g_terms.items():
        piece = {(0,) * nvars: c}
        for image, e in zip(images, exps):
            for _ in range(e):
                out: dict = {}
                for e1, c1 in piece.items():
                    for e2, c2 in image.items():
                        m = tuple(a + b for a, b in zip(e1, e2))
                        out[m] = field.add(out.get(m, field.zero()), field.mul(c1, c2))
                piece = {m: v for m, v in out.items() if not field.is_zero(v)}
        for m, v in piece.items():
            total[m] = field.add(total.get(m, field.zero()), v)
    total = {m: v for m, v in total.items() if not field.is_zero(v)}
    return naive_reduce(total, basis_terms, field, key)


def per_vector_first_dependence(field, vectors: list[list]):
    """The first dependence among successive vectors, one rref per vector.

    Solves each vector against all the vectors before it from scratch, as
    first_dependence did before it kept one echelon form across them.
    """
    from cartierlab.polycore.linalg import express_in_span

    independent: list[list] = []
    for k, vec in enumerate(vectors):
        coeffs = express_in_span(field, independent, list(vec))
        if coeffs is not None:
            return k, coeffs
        independent.append(list(vec))
    return None


def conductor_by_every_intersection(ext):
    """The reduced basis of the conductor fold that intersects every colon
    ideal (den) : num in turn, with no containment test.

    This is the fold `conductor` used before it skipped redundant
    intersections; it calls the library's `colon` and `intersect`, so what it
    checks is the skipping, not those operations. Module generators without
    a fraction must lie in A and are passed over, as in `conductor`.
    """
    from cartierlab.polycore.groebner import Ideal, colon, ideal_sum, intersect

    fractions = {gen: (num, den) for gen, num, den in ext.hints.fractions or ()}
    result = None
    for gen in ext.hints.module_generators:
        if gen not in fractions:
            assert ext.contains(gen).member
            continue
        num, den = fractions[gen]
        base = ideal_sum(ext.a_ideal, Ideal(ext.a_ring, [den]))
        quot = colon(base, Ideal(ext.a_ring, [num]))
        result = quot if result is None else intersect(result, quot)
    if result is None:
        return (ext.a_ring.one(),)
    return result.groebner()
