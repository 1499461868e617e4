"""Presented ring extensions A into B: membership, witnesses, conductors.

A presentation carries both quotient rings, the images of A's variables in
B, and optional hints (finiteness, birationality, module generators with
fraction representations, and externally supplied Picard deviation ranks).
Construction from stated relations checks well-definedness and, unless
the injectivity check runs out of budget under assume_injective, that the
kernel is zero; a source presented by the kernel itself (`a_ideal=None`, as
`adjoin_element` builds it) satisfies both by construction and skips them.
Both checks, and the conductor's certificate c * B inside A, are normal
forms against one reduced basis of the tag ideal and expand no image; the
relations are substituted into the images only when that basis is over the
pair budget. The leading monomials of that basis also decide whether B is
finite over A and give B-monomials spanning B over A, so the certificate
covers all of B whatever the module_generators hint says.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

from .artinian import FiniteAlgebra, nilradical_span, staircase
from .errors import (
    CartierlabError,
    CertificateFailure,
    DegenerateExtension,
    InjectivityError,
    MissingHints,
    NotZeroDimensional,
    PairBudgetExceeded,
    WellDefinednessError,
    ZeroRingError,
)
from .polycore.groebner import Ideal, colon, default_pair_budget, ideal_sum, intersect
from .polycore.rings import GREVLEX, MonomialOrder, Polynomial, PolyRing, fresh_names


@dataclass(frozen=True)
class Hints:
    finite: bool | None = None
    birational: bool | None = None
    module_generators: tuple | None = None  # B-elements
    fractions: tuple | None = None  # (generator, numerator, denominator) triples
    lpic_A_rank: int | None = None
    lpic_B_rank: int | None = None
    lpic_kernel_rank: int | None = None

    def consumed(self) -> list[str]:
        """The names of the hints that are set, in field order."""
        return [f.name for f in dataclasses.fields(self) if getattr(self, f.name) is not None]


@dataclass(frozen=True)
class SubalgebraMembership:
    element: Polynomial
    member: bool
    preimage: Polynomial | None = None


@dataclass(frozen=True)
class WitnessCheck:
    element: Polynomial
    is_witness: bool
    details: tuple


class ExtensionPresentation:
    """A map of presented rings A = a_ring/a_ideal -> B = b_ring/b_ideal.

    Membership in the image and the kernel of the map are both read off one
    reduced basis of the tag ideal (b_ideal, tag_v - image_v) under an order
    that eliminates B's variables (`_membership_ring`). So are both
    construction checks: a relation g maps to zero in B exactly when g, with
    each A variable replaced by its tag, reduces to 0 against that basis, and
    the map is injective when the kernel lies in a_ideal. Only when the basis
    is over the pair budget are the relations checked by substituting the
    images, before the budget error is raised or, under assume_injective,
    recorded as a warning. With `a_ideal=None` A is presented by the kernel
    (`contraction_ideal`), which brings its reduced basis, and neither check
    runs: the kernel's generators come from the tag basis, so they map to
    zero, and the kernel lies in itself. A tag basis over the pair budget
    raises from `contraction_ideal` then, whatever assume_injective says.
    """

    def __init__(
        self,
        a_ring: PolyRing,
        a_ideal: Ideal | None,
        b_ring: PolyRing,
        b_ideal: Ideal,
        images: dict,
        hints: Hints | None = None,
        assume_injective: bool = False,
    ):
        if a_ring.field != b_ring.field:
            raise CartierlabError("source and target must share a coefficient field")
        if set(images) != set(a_ring.variables):
            raise CartierlabError("images must cover exactly the source variables")
        for v, img in images.items():
            if img.ring != b_ring:
                raise CartierlabError(f"image of {v!r} is not in the target ring")
        self.a_ring = a_ring
        self.b_ring = b_ring
        self.b_ideal = b_ideal
        self.images = dict(images)
        self.hints = hints or Hints()
        self.warnings: tuple[str, ...] = ()
        self._membership_cache: Ideal | PairBudgetExceeded | None = None
        self._contains_memo: dict = {}
        if a_ideal is None:
            self.a_ideal = self.contraction_ideal()
            return
        self.a_ideal = a_ideal
        try:
            tag_ideal, over_budget = self._membership_ring(), None
        except PairBudgetExceeded as exc:
            tag_ideal, over_budget = None, exc

        # well-definedness: relations of A map to zero in B, that is, written
        # in the tags they lie in the tag ideal; without its basis the images
        # are substituted instead
        for g in a_ideal.generators:
            if tag_ideal is None:
                zero = b_ideal.contains_poly(self.substitute(g))
            else:
                zero = tag_ideal.contains_poly(self._to_tags(g))
            if not zero:
                raise WellDefinednessError(
                    f"relation {g} does not map to zero in the target"
                )
        # injectivity: the contraction lies in a_ideal as well
        try:
            if over_budget is not None:
                raise over_budget
            if not all(a_ideal.contains_poly(g) for g in self.contraction_ideal().generators):
                raise InjectivityError(
                    "the map has a kernel: contraction is strictly larger than "
                    "the stated relations"
                )
        except PairBudgetExceeded:
            if not assume_injective:
                raise
            self.warnings = ("injectivity assumed: elimination exceeded the pair budget",)

    # -- plumbing -------------------------------------------------------------

    def substitute(self, a_poly: Polynomial) -> Polynomial:
        """Image of an A-polynomial, reduced in B."""
        if a_poly.ring != self.a_ring:
            raise CartierlabError("polynomial is not in the source ring")
        return self.b_ideal.normal_form(a_poly.substitute(self.b_ring, self.images))

    def extend(self, ideal: Ideal) -> Ideal:
        """The ideal of B's ring presenting B/IB, for an ideal I of A's ring."""
        pushed = [self.substitute(g) for g in ideal.generators]
        return Ideal(self.b_ring, list(self.b_ideal.generators) + pushed)

    def _membership_ring(self) -> Ideal:
        """The tag ideal in the ring of B's variables followed by one tag per
        A variable, with its reduced basis under an order eliminating B's
        variables (block, or lex when A has no variables).

        The ideal is cached only once its basis exists. A basis over the pair
        budget is cached as its error, which later calls re-raise without
        running Buchberger again unless the budget has grown since.
        """
        cached = self._membership_cache
        if isinstance(cached, PairBudgetExceeded) and cached.budget >= default_pair_budget():
            raise cached
        if not isinstance(cached, Ideal):
            tags = fresh_names(self.a_ring.variables, self.b_ring.taken_names())
            nb = self.b_ring.nvars()
            if tags:
                order = MonomialOrder("block", nb) if nb else GREVLEX
            else:
                order = MonomialOrder("lex") if nb else GREVLEX
            work = PolyRing(self.b_ring.field, tuple(self.b_ring.variables) + tuple(tags), order)
            gens = [g.map_variables(work) for g in self.b_ideal.generators]
            for tag, v in zip(tags, self.a_ring.variables):
                gens.append(work.variable(tag) - self.images[v].map_variables(work))
            ideal = Ideal(work, gens)
            try:
                ideal.groebner()
            except PairBudgetExceeded as exc:
                self._membership_cache = exc
                raise
            self._membership_cache = ideal
        return self._membership_cache

    def _to_tags(self, a_poly: Polynomial) -> Polynomial:
        """An A-polynomial in the tag ring, each A variable replaced by its tag."""
        pad = (0,) * self.b_ring.nvars()
        return Polynomial._make(self._membership_ring().ring,
                                {pad + exp: c for exp, c in a_poly.terms().items()})

    def _to_source(self, g: Polynomial) -> Polynomial:
        """A tag-ring polynomial free of B's variables, as an A-polynomial."""
        nb = self.b_ring.nvars()
        return Polynomial._make(self.a_ring, {exp[nb:]: c for exp, c in g.terms().items()})

    def contraction_ideal(self) -> Ideal:
        """Kernel of k[A-variables] -> B, as an ideal of A's ring.

        By the elimination theorem, the elements of the membership basis
        that involve no B variable are a basis of the kernel. The tag order
        restricted to them is grevlex in A's variable order, so under a
        grevlex A they are its reduced basis, adopted without Buchberger.
        """
        nb = range(self.b_ring.nvars())
        return Ideal(self.a_ring, [
            self._to_source(g) for g in self._membership_ring().groebner()
            if not g.involves(nb)
        ], reduced=self.a_ring.order == GREVLEX)

    def contains(self, b_elem: Polynomial) -> SubalgebraMembership:
        """Subalgebra membership with a preimage certificate."""
        if b_elem.ring != self.b_ring:
            raise CartierlabError("element is not in the target ring")
        key = self.b_ideal.normal_form(b_elem)
        memo = self._contains_memo.get(key)
        if memo is not None:
            return memo
        ideal = self._membership_ring()
        nf = ideal.normal_form(key.map_variables(ideal.ring))
        if nf.involves(range(self.b_ring.nvars())):
            result = SubalgebraMembership(key, False, None)
        else:
            result = SubalgebraMembership(key, True, self._to_source(nf))
        self._contains_memo[key] = result
        return result

    def is_identity_onto(self) -> bool:
        """True when the images generate all of B (A = B as subrings)."""
        return all(
            self.contains(self.b_ring.variable(v)).member
            for v in self.b_ring.variables
        )

    def describe(self) -> str:
        a = ", ".join(str(g) for g in self.a_ideal.generators) or "0"
        b = ", ".join(str(g) for g in self.b_ideal.generators) or "0"
        return (
            f"{self.a_ring.describe()}/({a}) -> {self.b_ring.describe()}/({b})"
        )


# -- witnesses -----------------------------------------------------------------


def is_seminormal_witness(ext: ExtensionPresentation, b: Polynomial) -> WitnessCheck:
    """b is a witness when b^2 and b^3 lie in A but b does not."""
    m1 = ext.contains(b)
    m2 = ext.contains(b * b)
    m3 = ext.contains(b * b * b)
    return WitnessCheck(b, m2.member and m3.member and not m1.member, (m1, m2, m3))


def is_anodal_witness(ext: ExtensionPresentation, b: Polynomial) -> WitnessCheck:
    """b is a witness when b^2 - b and b^3 - b^2 lie in A but b does not."""
    b2, b3 = b * b, b * b * b
    m1 = ext.contains(b)
    m2 = ext.contains(b2 - b)
    m3 = ext.contains(b3 - b2)
    return WitnessCheck(b, m2.member and m3.member and not m1.member, (m1, m2, m3))


_WITNESS_TESTS = {
    "seminormal": is_seminormal_witness,
    "anodal": is_anodal_witness,
}


def _graded_monomials(ring: PolyRing, bound: int):
    n = ring.nvars()
    if n == 0:
        yield ring.one()
        return
    for total in range(bound + 1):
        for exps in sorted(
            e for e in itertools.product(range(total + 1), repeat=n) if sum(e) == total
        ):
            yield ring.monomial(exps)


def witness_candidates(ext: ExtensionPresentation, bound: int):
    """The candidate list of the witness searches, not every element up to
    the bound: the nonzero normal forms of B's monomials of degree at most
    the bound, each once, in graded order. It depends on B alone, so an
    enlarged subring has the same list. Other elements of B are never tried.
    """
    seen = set()
    for m in _graded_monomials(ext.b_ring, bound):
        nf = ext.b_ideal.normal_form(m)
        if not nf.is_zero() and nf not in seen:
            seen.add(nf)
            yield nf


@dataclass(frozen=True)
class ClosureResult:
    extension: ExtensionPresentation
    adjoined: tuple
    exhausted: bool


def adjoin_element(ext: ExtensionPresentation, b: Polynomial) -> ExtensionPresentation:
    """Extend A's presentation by one element of B, presented by the kernel."""
    taken = ext.a_ring.taken_names() | set(ext.b_ring.variables)
    w, = fresh_names([f"w{len(ext.a_ring.variables) + 1}"], taken)
    new_a_ring = PolyRing(ext.a_ring.field, tuple(ext.a_ring.variables) + (w,), GREVLEX)
    images = dict(ext.images)
    images[w] = ext.b_ideal.normal_form(b)
    return ExtensionPresentation(
        new_a_ring, None, ext.b_ring, ext.b_ideal, images, hints=ext.hints
    )


def closure_search(ext: ExtensionPresentation, kind: str,
                   degree_bound: int) -> ClosureResult:
    """Adjoin witnesses of the given kind to a fixpoint.

    The candidates are `witness_candidates(ext, degree_bound)`, the normal
    forms of B's monomials of degree at most the bound. The list is built
    once; after each adjoin it is scanned again from its start against the
    enlarged ring, and the first candidate outside that ring which is a
    witness is adjoined next. At the fixpoint no candidate is a witness; a
    witness outside the list can remain. `exhausted` is True when the
    enlarged ring is still not all of B, so it is no proof of closedness.
    """
    if kind not in _WITNESS_TESTS:
        raise CartierlabError(f"unknown closure kind {kind!r}")
    if degree_bound < 1:
        raise CartierlabError("degree bound must be at least 1")
    test = _WITNESS_TESTS[kind]
    candidates = list(witness_candidates(ext, degree_bound))
    current = ext
    adjoined: list[Polynomial] = []
    changed = True
    while changed:
        changed = False
        for cand in candidates:
            if current.contains(cand).member:
                continue
            check = test(current, cand)
            if check.is_witness:
                current = adjoin_element(current, cand)
                adjoined.append(cand)
                changed = True
                break
    exhausted = not current.is_identity_onto()
    return ClosureResult(current, tuple(adjoined), exhausted)


# -- conductor -----------------------------------------------------------------


def conductor(ext: ExtensionPresentation) -> Ideal:
    """The conductor (A : B), the largest ideal of B contained in A, as an
    ideal of A's ring.

    Requires module generators with fraction representations p/q over A.
    Each fraction is checked (generator * q = p in B). The conductor lies in
    each colon ideal (q) : p, and their intersection c is certified to be
    the conductor by c * B inside A: for each generator g of c and each
    monomial m of a set spanning B over A, g(tags) * m reduces against the
    tag basis to a polynomial free of B's variables. The hinted module
    generators are tried first, then the monomials read off the tag basis
    (`_spanning_monomials`), which also proves B finite over A. A unit c is
    certified by the images generating B. So c is an ideal of B, and
    A/c -> B/cB is well defined and injective.
    """
    hints = ext.hints
    if not hints.birational:
        raise MissingHints("conductor needs the birational hint")
    if hints.module_generators is None:
        raise MissingHints("conductor needs module generators for B over A")
    fractions = {}
    for gen, num, den in hints.fractions or ():
        if not ext.b_ideal.contains_poly(gen * ext.substitute(den) - ext.substitute(num)):
            raise CertificateFailure(
                f"fractions entry {gen} : {num} | {den} is wrong: {gen} times "
                f"the image of {den} is not the image of {num}"
            )
        fractions[gen] = (num, den)
    result: Ideal | None = None
    for gen in hints.module_generators:
        if gen not in fractions:
            if ext.contains(gen).member:
                continue  # generator already inside A constrains nothing
            raise MissingHints(f"module generator {gen} has no fraction hint")
        num, den = fractions[gen]
        base = ideal_sum(ext.a_ideal, Ideal(ext.a_ring, [den]))
        quot = colon(base, Ideal(ext.a_ring, [num]))
        result = quot if result is None else _meet(result, quot)
    if result is None:
        result = Ideal(ext.a_ring, [ext.a_ring.one()])
    result = result.reduced()
    tag_ideal = ext._membership_ring()
    nb = range(ext.b_ring.nvars())

    def certify(module_generators) -> None:
        tagged = [gen.map_variables(tag_ideal.ring) for gen in module_generators]
        for g in result.generators:
            g_tags = ext._to_tags(g)
            for gen, gen_tags in zip(module_generators, tagged):
                if tag_ideal.normal_form(g_tags * gen_tags).involves(nb):
                    raise CertificateFailure(
                        f"conductor generator {g} times {gen} escapes the subring"
                    )

    certify(hints.module_generators)
    if result.is_unit_ideal():
        if not ext.is_identity_onto():
            raise CertificateFailure(
                "unit conductor, but the subring is not all of the target: "
                "the module_generators hint does not span it"
            )
        return result
    certify([m for m in _spanning_monomials(ext) if m not in hints.module_generators])
    return result


def _meet(running: Ideal, quot: Ideal) -> Ideal:
    """running ∩ quot, intersecting only when neither contains the other.

    Containment is decided by normal forms against each side's basis, which
    stays cached on it.
    """
    if quot.generators == running.generators or _inside(running, quot):
        return running
    if _inside(quot, running):
        return quot
    return intersect(running, quot)


def _inside(small: Ideal, big: Ideal) -> bool:
    return all(big.contains_poly(g) for g in small.generators)


def _spanning_monomials(ext: ExtensionPresentation) -> list[Polynomial]:
    """B-monomials that span B as an A-module, read off the tag basis.

    By the relative finiteness theorem (Cox, Little and O'Shea, *Ideals,
    Varieties, and Algorithms*, ch. 5 §6), B is finite over A exactly when,
    for each variable v of B, some leading monomial of the tag basis (which
    eliminates B's variables) is a pure power of v. Every element of B then
    reduces to an A-combination of the B-monomials below those powers that
    no leading monomial free of the tags divides.
    """
    nb = ext.b_ring.nvars()
    leading = [g.leading_term()[0] for g in ext._membership_ring().groebner()]
    try:
        exps = staircase([e[:nb] for e in leading if not any(e[nb:])],
                         ext.b_ring.variables, ext.b_ring.order.key)
    except NotZeroDimensional as exc:
        raise CertificateFailure(
            f"finite hint does not hold: no element of the tag basis has a "
            f"pure power of {exc.variable} as leading monomial, so B is not finite over A"
        ) from None
    return [ext.b_ring.monomial(e) for e in exps]


def reduce_mod_conductor(ext: ExtensionPresentation) -> ExtensionPresentation:
    """The pair A/c -> B/cB for the conductor c, as a checked presentation."""
    cond = conductor(ext)
    if cond.is_unit_ideal():
        raise DegenerateExtension("unit conductor: the extension is an equality")
    hints = Hints(finite=ext.hints.finite, module_generators=ext.hints.module_generators)
    return ExtensionPresentation(
        ext.a_ring, cond, ext.b_ring, ext.extend(cond), ext.images, hints=hints
    )


# -- nilpotent comparison --------------------------------------------------------


@dataclass(frozen=True)
class NilComparison:
    status: str  # equal | differ | unknown
    reason: str
    witness: Polynomial | None = None
    artinian: bool = False  # B was presented as a finite-dimensional algebra


def nil_comparison(ext: ExtensionPresentation) -> NilComparison:
    """Compare the nilradicals: equal exactly when every nilpotent of B lies in A.

    `artinian` marks a B built as an algebra; there "equal" also proves A
    seminormal in B (`cartier.ni_verdict`)."""
    if ext.b_ideal.is_zero_ideal():
        return NilComparison("equal", "target is a free polynomial ring (reduced)")
    try:
        alg = FiniteAlgebra(ext.b_ring, ext.b_ideal)
    except (NotZeroDimensional, ZeroRingError):
        return NilComparison(
            "unknown", "target is not presented as a finite-dimensional algebra"
        )
    span = nilradical_span(alg)
    if not span:
        return NilComparison("equal", "target is reduced", artinian=True)
    for vec in span:
        poly = alg.to_poly(vec)
        if not ext.contains(poly).member:
            return NilComparison(
                "differ", f"nilpotent {poly} of the target lies outside the subring",
                witness=poly, artinian=True,
            )
    return NilComparison(
        "equal", "every nilpotent of the target lies in the subring", artinian=True
    )
