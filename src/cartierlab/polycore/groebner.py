"""Buchberger's algorithm, reduced bases, and the standard ideal operations.

Division: `reduce_poly` and `divide_with_quotients` share one kernel. It
keeps the dividend as a mutable dict of terms and takes the next leading
term from a heap keyed by `MonomialOrder.heap_key`; an entry whose term has
cancelled, or that duplicates a term already taken, is stale and skipped. A
leading term is divided by the first basis element whose leading term
divides it, and only that element's tail is subtracted, since the leading
terms cancel exactly. Remainders and quotients are therefore those of the
textbook division loop, term for term (tests/oracles.py keeps that loop).

Pairs: the S-pairs wait in a heap of (lcm total degree, i, j, lcm), the lcm
computed once when the pair is pushed, so the next pair is the one with the
smallest lcm total degree, ties broken by pair indices. The chain
criterion, the S-pair count that the pair budget bounds, and every
intermediate basis depend on this selection order and on the divisor choice
above, so neither may change without changing outputs. The reduced basis is
sorted by leading term and made monic, so identical inputs give
bit-identical outputs."""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add, le, sub

from ..errors import CartierlabError, CertificateFailure, PairBudgetExceeded
from .rings import GREVLEX, MonomialOrder, Polynomial, PolyRing, fresh_name

DEFAULT_PAIR_BUDGET = 100_000
_budget = DEFAULT_PAIR_BUDGET


def set_default_pair_budget(n: int) -> None:
    global _budget
    if n < 1:
        raise CartierlabError("pair budget must be positive")
    _budget = n


def default_pair_budget() -> int:
    return _budget


# -- exponent helpers --------------------------------------------------------


def _divides(a: tuple, b: tuple) -> bool:
    return all(map(le, a, b))


def _lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def _sub(a: tuple, b: tuple) -> tuple:
    return tuple(map(sub, a, b))


# -- division ----------------------------------------------------------------


def _divisor(g: Polynomial) -> tuple:
    """(leading exponents, leading coefficient, tail terms) of a divisor."""
    lead, coeff = g.leading_term()
    return lead, coeff, [(e, c) for e, c in g._terms.items() if e != lead]


def _divide(f: Polynomial, divisors: list, quotients: list | None = None) -> Polynomial:
    """The division kernel: the remainder of f, quotient terms into `quotients`."""
    ring = f.ring
    field = ring.field
    fadd, fmul, fneg, fdiv, is_zero = field.add, field.mul, field.neg, field.div, field.is_zero
    heap_key = ring.order.heap_key
    terms = dict(f._terms)
    heap = [(heap_key(e), e) for e in terms]
    heapify(heap)
    remainder: dict = {}
    while heap:
        exp = heappop(heap)[1]
        coeff = terms.pop(exp, None)
        if coeff is None:
            continue  # stale entry
        for i, (gexp, gcoeff, tail) in enumerate(divisors):
            if all(map(le, gexp, exp)):
                factor = fdiv(coeff, gcoeff)
                shift = tuple(map(sub, exp, gexp))
                for e, c in tail:
                    m = tuple(map(add, e, shift))
                    t = fneg(fmul(c, factor))
                    old = terms.get(m)
                    if old is None:
                        terms[m] = t
                        heappush(heap, (heap_key(m), m))
                    else:
                        s = fadd(old, t)
                        if is_zero(s):
                            del terms[m]
                        else:
                            terms[m] = s
                if quotients is not None:
                    quotients[i][shift] = factor
                break
        else:
            remainder[exp] = coeff
    return Polynomial._make(ring, remainder)


def _divisors(f: Polynomial, basis: list[Polynomial]) -> list:
    for g in basis:
        f._check(g)
    return [_divisor(g) for g in basis]


def reduce_poly(f: Polynomial, basis: list[Polynomial]) -> Polynomial:
    """Full normal form of f against the basis (deterministic divisor choice)."""
    return _divide(f, _divisors(f, basis))


def divide_with_quotients(
    f: Polynomial, basis: list[Polynomial]
) -> tuple[list[Polynomial], Polynomial]:
    quotients: list[dict] = [{} for _ in basis]
    remainder = _divide(f, _divisors(f, basis), quotients)
    return [Polynomial._make(f.ring, q) for q in quotients], remainder


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    quotients, remainder = divide_with_quotients(f, [g])
    if not remainder.is_zero():
        raise CertificateFailure("expected exact polynomial division")
    return quotients[0]


# -- Buchberger ---------------------------------------------------------------


def buchberger(generators: list[Polynomial], ring: PolyRing,
               pair_budget: int | None = None) -> list[Polynomial]:
    """The unique reduced monic basis of the ideal in the ring's own order."""
    budget = _budget if pair_budget is None else pair_budget
    basis = [g.monic() for g in generators if not g.is_zero()]
    key = ring.order.key
    one = ring.field.one()
    divisors = [_divisor(g) for g in basis]
    lt = [d[0] for d in divisors]
    queue: list = []

    def push(i: int, j: int) -> None:
        lij = _lcm(lt[i], lt[j])
        heappush(queue, (sum(lij), i, j, lij))

    for j in range(len(basis)):
        for i in range(j):
            push(i, j)
    done: set[tuple[int, int]] = set()
    reductions = 0

    while queue:
        _, i, j, lij = heappop(queue)
        done.add((i, j))
        if lij == tuple(map(add, lt[i], lt[j])):
            continue  # coprime leading terms
        chained = False
        for k in range(len(basis)):
            if k in (i, j) or not _divides(lt[k], lij):
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik in done and pjk in done:
                chained = True
                break
        if chained:
            continue
        reductions += 1
        if reductions > budget:
            raise PairBudgetExceeded(budget)
        s = basis[i].term_mul(_sub(lij, lt[i]), one) - basis[j].term_mul(
            _sub(lij, lt[j]), one
        )
        remainder = _divide(s, divisors)
        if remainder.is_zero():
            continue
        remainder = remainder.monic()
        basis.append(remainder)
        divisors.append(_divisor(remainder))
        lt.append(divisors[-1][0])
        new = len(basis) - 1
        for k in range(new):
            push(k, new)

    # minimalize: drop elements whose leading term another one divides
    order_idx = sorted(range(len(basis)), key=lambda k: key(lt[k]))
    kept: list[int] = []
    for k in order_idx:
        if not any(_divides(lt[m], lt[k]) for m in kept):
            kept.append(k)
    # interreduce tails for the unique reduced basis
    reduced: list[Polynomial] = []
    for idx, k in enumerate(kept):
        others = [divisors[m] for m in kept[:idx] + kept[idx + 1:]]
        reduced.append(_divide(basis[k], others).monic() if others else basis[k].monic())
    reduced = [g for g in reduced if not g.is_zero()]
    reduced.sort(key=lambda g: key(g.leading_term()[0]))
    return reduced


# -- ideals -------------------------------------------------------------------


class Ideal:
    """An ideal with a write-once cache of its reduced basis."""

    def __init__(self, ring: PolyRing, generators):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise CartierlabError("generator from a different ring")
            if not g.is_zero():
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._gb: tuple[Polynomial, ...] | None = None

    def groebner(self, pair_budget: int | None = None) -> tuple[Polynomial, ...]:
        if self._gb is None:
            self._gb = tuple(buchberger(list(self.generators), self.ring, pair_budget))
        return self._gb

    def reduced(self) -> "Ideal":
        """The same ideal generated by its reduced basis, which it keeps cached."""
        basis = self.groebner()
        out = Ideal(self.ring, basis)
        out._gb = basis
        return out

    def normal_form(self, f: Polynomial, pair_budget: int | None = None) -> Polynomial:
        if f.ring != self.ring:
            raise CartierlabError("polynomial from a different ring")
        return reduce_poly(f, list(self.groebner(pair_budget)))

    def contains_poly(self, f: Polynomial, pair_budget: int | None = None) -> bool:
        return self.normal_form(f, pair_budget).is_zero()

    def is_zero_ideal(self) -> bool:
        return not self.groebner()

    def is_unit_ideal(self) -> bool:
        gb = self.groebner()
        return len(gb) == 1 and gb[0].is_constant()

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({gens})"


def groebner(ideal: Ideal, pair_budget: int | None = None) -> tuple[Polynomial, ...]:
    """The reduced monic basis of the ideal (cached on the ideal)."""
    return ideal.groebner(pair_budget)


def normal_form(f: Polynomial, ideal: Ideal,
                pair_budget: int | None = None) -> Polynomial:
    """The unique remainder of f against the reduced basis."""
    return ideal.normal_form(f, pair_budget)


def ideal_equals(i1: Ideal, i2: Ideal) -> bool:
    if i1.ring != i2.ring:
        raise CartierlabError("ideals live in different rings")
    return all(i2.contains_poly(g) for g in i1.generators) and all(
        i1.contains_poly(g) for g in i2.generators
    )


def ideal_sum(i1: Ideal, i2: Ideal) -> Ideal:
    return Ideal(i1.ring, list(i1.generators) + list(i2.generators))


def ideal_product(i1: Ideal, i2: Ideal) -> Ideal:
    gens = [f * g for f in i1.generators for g in i2.generators]
    return Ideal(i1.ring, gens)


def eliminate(ideal: Ideal, names, target_ring: PolyRing | None = None,
              pair_budget: int | None = None) -> Ideal:
    """Intersect with the subring omitting the named variables.

    Computed with a block order placing the eliminated variables first;
    the result lives in target_ring (default: a grevlex ring on the rest).
    """
    ring = ideal.ring
    names = list(names)
    for n in names:
        if n not in ring.variables:
            raise CartierlabError(f"cannot eliminate unknown variable {n!r}")
    keep = [v for v in ring.variables if v not in names]
    if target_ring is None:
        target_ring = PolyRing(ring.field, keep, GREVLEX)
    if not names:
        return Ideal(target_ring, [g.map_variables(target_ring) for g in ideal.generators])
    if keep:
        order = MonomialOrder("block", len(names))
    else:
        order = MonomialOrder("lex")
    work = PolyRing(ring.field, names + keep, order)
    moved = Ideal(work, [g.map_variables(work) for g in ideal.generators])
    gb = moved.groebner(pair_budget)
    drop = list(range(len(names)))
    kept = [g for g in gb if not g.involves(drop)]
    return Ideal(target_ring, [g.map_variables(target_ring) for g in kept])


def intersect(i1: Ideal, i2: Ideal, pair_budget: int | None = None) -> Ideal:
    """Intersection via a tag variable u: eliminate u from u*I + (1-u)*J."""
    ring = i1.ring
    if i2.ring != ring:
        raise CartierlabError("ideals live in different rings")
    u = fresh_name("u", set(ring.variables) | set(ring.field.symbol_names()))
    work = PolyRing(ring.field, (u,) + ring.variables, GREVLEX)
    uvar = work.variable(u)
    one = work.one()
    gens = [uvar * g.map_variables(work) for g in i1.generators]
    gens += [(one - uvar) * g.map_variables(work) for g in i2.generators]
    return eliminate(Ideal(work, gens), [u], target_ring=ring, pair_budget=pair_budget)


def colon(ideal: Ideal, divisor: Ideal, pair_budget: int | None = None) -> Ideal:
    """Ideal quotient I : J = {f : f*J inside I}."""
    ring = ideal.ring
    if divisor.ring != ring:
        raise CartierlabError("ideals live in different rings")
    if not divisor.generators:
        return Ideal(ring, [ring.one()])
    result: Ideal | None = None
    for g in divisor.generators:
        meet = intersect(ideal, Ideal(ring, [g]), pair_budget)
        single = Ideal(ring, [exact_divide(h, g) for h in meet.generators])
        result = single if result is None else intersect(result, single, pair_budget)
    return result
