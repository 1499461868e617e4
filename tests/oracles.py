"""Independent brute-force oracles used to freeze expected test values.

Nothing here calls the code paths under test: membership goes through dense
linear algebra on monomial coordinates, expansion (of a product, or of a
relation at a map's images) through naive dict convolution, univariate
division through schoolbook long division, multivariate reduction through
the textbook loop on plain term dicts, monomial orders through their
textbook comparisons, the first linear dependence through
one fresh elimination per vector, ideal quotients through intersections with
principal ideals and exact division, the conductor through every colon ideal
intersected in turn, seminormality over a small prime field through every
element of the target, reduced bases through Buchberger's algorithm as
it interreduced before it went in ascending order, parsing through one
`Polynomial` (for Laurent input, one `LaurentElement`) per literal and
variable, and rational-function arithmetic
through a full reduction after every operation. The last seven replay, on
the library's own primitives, an algorithm the library has since replaced.
"""

from __future__ import annotations

import functools
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


def colon_by_intersection(ideal, divisor):
    """The ideal quotient I : J by elimination alone: I : (g) = (I ∩ (g))/g
    for each generator g of J, intersected in turn, and the unit ideal for
    J = 0.

    This is the route `colon` took for every ideal before it solved the
    zero-dimensional case by linear algebra on the staircase; it calls the
    library's `intersect` and `exact_divide`, never `colon`.
    """
    from cartierlab.polycore.groebner import Ideal, exact_divide, intersect

    ring = ideal.ring
    result = Ideal(ring, [ring.one()])
    for g in divisor.generators:
        meet = intersect(ideal, Ideal(ring, [g]))
        result = intersect(result, Ideal(ring, [exact_divide(h, g) for h in meet.generators]))
    return result


def conductor_by_every_intersection(ext):
    """The reduced basis of the conductor fold that intersects every colon
    ideal (a + (den)) : num in turn, one per module generator, with no
    containment test.

    This is the fold `conductor` used before it grouped the numerators by
    denominator and skipped redundant intersections. Each colon is
    `colon_by_intersection`, so neither the library's `colon` nor the
    skipping is what the reference is built from. Module generators without
    a fraction must lie in A and are passed over, as in `conductor`.
    """
    from cartierlab.polycore.groebner import Ideal, ideal_sum, intersect

    fractions = {gen: (num, den) for gen, num, den in ext.hints.fractions or ()}
    result = None
    for gen in ext.hints.module_generators:
        if gen not in fractions:
            assert ext.contains(gen).member
            continue
        num, den = fractions[gen]
        base = ideal_sum(ext.a_ideal, Ideal(ext.a_ring, [den]))
        quot = colon_by_intersection(base, Ideal(ext.a_ring, [num]))
        result = quot if result is None else intersect(result, quot)
    if result is None:
        return (ext.a_ring.one(),)
    return result.groebner()


def seminormal_by_exhaustive_scan(ext):
    """Whether A is seminormal in an Artinian B over a prime field, decided
    by trying every element of B: True when no b outside A has b^2 and b^3
    in A, otherwise the first such b.

    This is the scan `ni_verdict` ran before the nilradical test replaced
    it. A is the span of the unital subalgebra its images generate in B's
    algebra; the caller keeps p^dim B small.
    """
    from cartierlab.artinian import FiniteAlgebra
    from cartierlab.polycore.linalg import in_span, rref

    alg = FiniteAlgebra(ext.b_ideal)
    field = alg.field
    gens = [alg.from_poly(ext.substitute(ext.a_ring.variable(v)))
            for v in ext.a_ring.variables]
    span, _ = rref(field, [list(alg.one())] + [list(g) for g in gens])
    changed = True
    while changed:
        changed = False
        for g in gens:
            for row in list(span):
                prod = alg.mul(tuple(row), g)
                if not in_span(field, span, list(prod)):
                    span, _ = rref(field, span + [list(prod)])
                    changed = True
    for coords in itertools.product(range(field.p), repeat=alg.dim):
        if in_span(field, span, list(coords)):
            continue
        square = alg.mul(coords, coords)
        if in_span(field, span, list(square)) and in_span(
            field, span, list(alg.mul(square, coords))
        ):
            return alg.to_poly(coords)
    return True


def compare_monomials(kind: str, block: int, a: tuple, b: tuple) -> int:
    """-1, 0 or 1 as a is below, equal to or above b in the textbook order.

    lex: the first differing exponent decides, the larger one above.
    grevlex: the larger total degree is above; on a tie the last differing
    exponent decides, the smaller one above. block: lex on the first
    `block` exponents, then grevlex on the rest.
    """
    if kind == "block":
        return (compare_monomials("lex", 0, a[:block], b[:block])
                or compare_monomials("grevlex", 0, a[block:], b[block:]))
    if kind == "grevlex":
        if sum(a) != sum(b):
            return 1 if sum(a) > sum(b) else -1
        for x, y in zip(reversed(a), reversed(b)):
            if x != y:
                return 1 if x < y else -1
        return 0
    for x, y in zip(a, b):
        if x != y:
            return 1 if x > y else -1
    return 0


def textbook_key(order):
    """A sort key ascending in `order`, read from `compare_monomials` alone."""
    return functools.cmp_to_key(
        lambda a, b: compare_monomials(order.kind, order.block, a, b))


def buchberger_reference(generators, ring, pair_budget=None):
    """(reduced basis, S-pairs reduced) by Buchberger's algorithm as it was
    before the ascending interreduction.

    The same pair selection, criteria and pair budget as `buchberger`, but
    each S-polynomial is built as the difference of two shifted generators,
    the chain criterion tests every k, and each minimal element is
    interreduced against the unreduced forms of all the others. The pair
    count is the one the pair budget bounds: the budget R it returns is
    enough and R - 1 is not.
    """
    from heapq import heappop, heappush

    from cartierlab.errors import PairBudgetExceeded
    from cartierlab.polycore.groebner import (
        _divides, _lcm, _sub, default_pair_budget, reduce_poly,
    )

    budget = default_pair_budget() if pair_budget is None else pair_budget
    basis = [g.monic() for g in generators if not g.is_zero()]
    key = textbook_key(ring.order)
    one = ring.field.one()
    lt = [g.leading_term()[0] for g in basis]
    queue = []

    def push(i, j):
        lij = _lcm(lt[i], lt[j])
        heappush(queue, (sum(lij), i, j, lij))

    for j in range(len(basis)):
        for i in range(j):
            push(i, j)
    done = set()
    reductions = 0
    while queue:
        _, i, j, lij = heappop(queue)
        done.add((i, j))
        if lij == tuple(a + b for a, b in zip(lt[i], lt[j])):
            continue
        if any(k not in (i, j) and _divides(lt[k], lij)
               and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
               for k in range(len(basis))):
            continue
        reductions += 1
        if reductions > budget:
            raise PairBudgetExceeded(budget)
        s = basis[i].term_mul(_sub(lij, lt[i]), one) - basis[j].term_mul(_sub(lij, lt[j]), one)
        remainder = reduce_poly(s, basis)
        if remainder.is_zero():
            continue
        basis.append(remainder.monic())
        lt.append(basis[-1].leading_term()[0])
        for k in range(len(basis) - 1):
            push(k, len(basis) - 1)
    kept = []
    for k in sorted(range(len(basis)), key=lambda k: key(lt[k])):
        if not any(_divides(lt[m], lt[k]) for m in kept):
            kept.append(k)
    reduced = []
    for idx, k in enumerate(kept):
        others = [basis[m] for m in kept[:idx] + kept[idx + 1:]]
        reduced.append(reduce_poly(basis[k], others).monic() if others else basis[k].monic())
    reduced = [g for g in reduced if not g.is_zero()]
    reduced.sort(key=lambda g: key(g.leading_term()[0]))
    return reduced, reductions


class OperatorEvaluator:
    """The parser's evaluator protocol (`polycore.parse.PolynomialEvaluator`)
    for values that combine with their own +, - and * operators, where a
    monomial is a value like any other; a subclass defines `from_fraction`,
    `variable` and `pow`."""

    allow_negative_exponents = False

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    monomial_mul = mul

    def monomial_pow(self, a, n, text, pos):
        return self.pow(a, n, text, pos)

    def from_monomial(self, m):
        return m


def parse_by_polynomial_arithmetic(text: str, ring):
    """`parse_polynomial` as it was before the parser built term maps: the
    same descent, with one `Polynomial` per literal and variable, combined by
    `Polynomial`'s own operators and powers taken as repeated products."""
    from cartierlab.errors import ParseError
    from cartierlab.polycore.parse import parse_with_evaluator

    class PolynomialArithmeticEvaluator(OperatorEvaluator):
        def from_fraction(self, q, text, pos):
            try:
                return ring.constant(ring.field.from_fraction(q))
            except ZeroDivisionError as exc:
                raise ParseError(str(exc), text, pos) from None

        def variable(self, name, text, pos):
            if name in ring.variables:
                return ring.variable(name)
            elem = ring.field.symbol_element(name)
            if elem is not None:
                return ring.constant(elem)
            raise ParseError(f"unknown variable {name!r}", text, pos)

        def pow(self, a, n, text, pos):
            if n < 0:
                raise ParseError("negative exponents are not allowed here", text, pos)
            result = ring.one()
            for _ in range(n):
                result = result * a
            return result

    return parse_with_evaluator(text, PolynomialArithmeticEvaluator())


def parse_laurent_by_element_arithmetic(text: str, base):
    """`parse_laurent` as it was before it evaluated on term maps: the same
    descent, with one `LaurentElement` per literal and variable, combined by
    `LaurentElement`'s own operators, which multiply every pair of
    coefficients in the base algebra, and raised by its own powers."""
    from cartierlab.errors import CartierlabError, ParseError
    from cartierlab.laurent import LaurentElement
    from cartierlab.polycore.parse import parse_with_evaluator

    class LaurentElementEvaluator(OperatorEvaluator):
        allow_negative_exponents = True

        def from_fraction(self, q, text, pos):
            try:
                return LaurentElement.constant(base, base.scalar(base.field.from_fraction(q)))
            except ZeroDivisionError as exc:
                raise ParseError(str(exc), text, pos) from None

        def variable(self, name, text, pos):
            if name == "t":
                return LaurentElement.t_power(base, 1)
            if name in base.ring.variables:
                return LaurentElement.constant(base, base.variable_element(name))
            elem = base.field.symbol_element(name)
            if elem is not None:
                return LaurentElement.constant(base, base.scalar(elem))
            raise ParseError(f"unknown variable {name!r}", text, pos)

        def pow(self, a, n, text, pos):
            try:
                return a**n
            except CartierlabError as exc:
                raise ParseError(str(exc), text, pos) from None

    return parse_with_evaluator(text, LaurentElementEvaluator())


def rf_reduce(field, num: tuple, den: tuple):
    """num/den in k(v) as (num, den) coprime with den monic, by one gcd of
    the whole numerator and denominator."""
    from cartierlab.polycore import unipoly as up

    base = field.base
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return ((), (base.one(),))
    g = up.ugcd(base, num, den)
    if up.udeg(g) > 0:
        num = up.udivmod(base, num, g)[0]
        den = up.udivmod(base, den, g)[0]
    c = base.inv(den[-1])
    return up.uscale(base, c, num), up.uscale(base, c, den)


def rf_add(field, a, b):
    """a + b in k(v) as RationalFunctionField added before Henrici's rule:
    cross-multiply, then reduce the whole fraction."""
    from cartierlab.polycore import unipoly as up

    base = field.base
    (n1, d1), (n2, d2) = a, b
    num = up.uadd(base, up.umul(base, n1, d2), up.umul(base, n2, d1))
    return rf_reduce(field, num, up.umul(base, d1, d2))


def rf_mul(field, a, b):
    from cartierlab.polycore import unipoly as up

    base = field.base
    (n1, d1), (n2, d2) = a, b
    return rf_reduce(field, up.umul(base, n1, n2), up.umul(base, d1, d2))


def rf_inv(field, a):
    if not a[0]:
        raise ZeroDivisionError("inverse of zero")
    return rf_reduce(field, a[1], a[0])
