"""Presented ring extensions A into B: membership, witnesses, conductors.

A presentation carries both quotient rings, the images of A's variables in
B, and optional hints (finiteness, birationality, module generators with
fraction representations, and externally supplied Picard deviation ranks).
Construction from stated relations checks well-definedness and, unless the
injectivity check runs out of budget under assume_injective, that the kernel
is zero; a source presented by the kernel itself (`a_ideal=None`, as
`adjoin_element` and `reduce_mod_conductor` build it) satisfies both by
construction and skips them. Both checks are read off one reduced basis of
the tag ideal and expand no image: its elements free of B's variables are
the reduced basis of the kernel K, each relation must reduce to 0 against
it, and the relations, then inside K, generate K when the leading monomials
of their reduced basis cover K's. Their own leading monomials are tried
first, and usually suffice, so no basis of the relations is computed, and A
keeps K's reduced basis. The relations are substituted into the images only
when K's basis is over the pair budget. The conductor's certificate
c * B inside A is normal forms against the tag basis, whose leading
monomials also decide whether B is finite over A and give B-monomials
spanning B over A, so the certificate covers all of B whatever the
module_generators hint says.

The tag basis is built when something first needs it: at construction from
stated relations, for the checks, but for a kernel presentation only at the
first membership, kernel (`a_ideal`, `contraction_ideal`) or spanning-monomial
request that needs it. So a kernel presentation whose tag basis is over the
pair budget is built without error and raises at that first use. A member
that is the image of one of A's variables, once reduced, needs no basis: the
variable is its preimage.

A witness test asks up to three memberships, b, then b^2 (b^2 - b for
anodal), then b^3 (b^3 - b^2), and stops at the first that decides the
answer: b in A, or the second element outside A. `WitnessCheck.details`
holds the memberships that were tested, in that order. `closure_search`
remembers the candidates it found inside a subring, which lie in every
enlarged subring too, and tests them no more.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    CartierlabError,
    CertificateFailure,
    DegenerateExtension,
    InjectivityError,
    MissingHints,
    NotZeroDimensional,
    PairBudgetExceeded,
    WellDefinednessError,
)
from .polycore.groebner import Ideal, colon, default_pair_budget, intersect, staircase
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

    def consumed(self, *names: str) -> tuple[str, ...]:
        """Those of `names` whose hints are set, in the order given."""
        return tuple(name for name in names if getattr(self, name) is not None)


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
    """A map of presented rings A = a_ring/a_ideal -> B = b_ring/b_ideal,
    where b_ring is the ring of b_ideal. a_ring is given because it presents
    A when a_ideal is None; a given a_ideal must lie in it.

    Membership in the image and the kernel of the map are both read off one
    reduced basis of the tag ideal (b_ideal, tag_v - image_v) under an order
    that eliminates B's variables (`_membership_ring`). So are both
    construction checks: a relation g maps to zero in B exactly when g, with
    each A variable replaced by its tag, lies in the tag ideal, that is, when
    g lies in the kernel K and reduces to 0 against K's reduced basis. The
    map is then injective when a_ideal, inside K, is all of K
    (`Ideal.adopt_basis_if_equal`, which compares leading monomials and hands
    a_ideal K's basis). Only when the tag basis, or the relations' basis that
    the comparison may need, is over the pair budget is injectivity left
    unproved: the budget error is raised or, under assume_injective, recorded
    as a warning, and without K's basis the relations are checked by
    substituting the images. With `a_ideal=None` A is presented by the kernel
    (`contraction_ideal`), which brings its reduced basis, and neither check
    runs: the kernel's generators come from the tag basis, so they map to
    zero, and the kernel lies in itself. Such a presentation builds no tag
    basis when it is constructed: `a_ideal` is the kernel, computed on first
    access, and the basis is built by the first request that needs it. A tag
    basis over the pair budget raises at that request, whatever
    assume_injective says.

    `contains` of an element whose normal form in B is the image of A's
    variable v answers v without the tag basis; `substitute(v)` is that
    image, so the answer is exact. Every other element is reduced against
    the tag basis.
    """

    def __init__(
        self,
        a_ring: PolyRing,
        a_ideal: Ideal | None,
        b_ideal: Ideal,
        images: dict,
        hints: Hints | None = None,
        assume_injective: bool = False,
    ):
        b_ring = b_ideal.ring
        if a_ideal is not None and a_ideal.ring != a_ring:
            raise CartierlabError("a_ideal is not an ideal of a_ring")
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
        # a generator's image, once reduced, certifies itself: substitute(v)
        # is that image, so its membership needs no tag basis; lookups are by
        # normal form, so an image that is not reduced is never hit
        self._contains_memo: dict = {
            images[v]: SubalgebraMembership(images[v], True, a_ring.variable(v))
            for v in reversed(a_ring.variables)
        }
        self._a_ideal = a_ideal
        if a_ideal is None:
            return
        try:
            kernel, over_budget = self.contraction_ideal(), None
            kernel.groebner()  # free under grevlex; under another order a budgeted run
        except PairBudgetExceeded as exc:
            kernel, over_budget = None, exc

        # well-definedness: relations of A map to zero in B, that is, they lie
        # in the kernel, since g(tags) lies in the tag ideal exactly when g
        # lies in its contraction; without the kernel's basis the images are
        # substituted instead
        for g in a_ideal.generators:
            if kernel is None:
                zero = b_ideal.contains_poly(self.substitute(g))
            else:
                zero = kernel.contains_poly(g)
            if not zero:
                raise WellDefinednessError(
                    f"relation {g} does not map to zero in the target"
                )
        # injectivity: a_ideal, inside the kernel, is all of it; A then takes
        # the kernel's reduced basis
        try:
            if over_budget is not None:
                raise over_budget
            if not a_ideal.adopt_basis_if_equal(kernel):
                raise InjectivityError(
                    "the map has a kernel: contraction is strictly larger than "
                    "the stated relations"
                )
        except PairBudgetExceeded:
            if not assume_injective:
                raise
            self.warnings = ("injectivity assumed: elimination exceeded the pair budget",)

    @property
    def a_ideal(self) -> Ideal:
        """A's relations: the stated ideal, or for a kernel presentation the
        contraction, computed from the tag basis on first access and kept."""
        if self._a_ideal is None:
            self._a_ideal = self.contraction_ideal()
        return self._a_ideal

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
        A variable, with its reduced basis under the order eliminating B's
        variables (`MonomialOrder.eliminating`).

        The ideal is cached only once its basis exists. A basis over the pair
        budget is cached as its error, which later calls re-raise without
        running Buchberger again unless the budget has grown since.
        """
        cached = self._membership_cache
        if isinstance(cached, PairBudgetExceeded) and cached.budget >= default_pair_budget():
            raise cached
        if not isinstance(cached, Ideal):
            tags = fresh_names(self.a_ring.variables, self.b_ring.taken_names())
            order = MonomialOrder.eliminating(self.b_ring.nvars(), self.b_ring.nvars() + len(tags))
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
        return f"{self.a_ideal.describe()} -> {self.b_ideal.describe()}"


# -- witnesses -----------------------------------------------------------------


def _witness_check(ext: ExtensionPresentation, b: Polynomial, second) -> WitnessCheck:
    """b is a witness when s = second() and s*b lie in A but b does not.

    The memberships are tested in that order, and the test stops at the
    first one that decides the answer: b in A, or s outside A. `details`
    holds the memberships tested, so one, two or three of them; s*b is
    formed from the normal form of s, which is congruent to s modulo B's
    relations.
    """
    details = [ext.contains(b)]
    if not details[0].member:
        details.append(ext.contains(second()))
        if details[1].member:
            details.append(ext.contains(details[1].element * b))
    return WitnessCheck(b, len(details) == 3 and details[2].member, tuple(details))


def is_seminormal_witness(ext: ExtensionPresentation, b: Polynomial) -> WitnessCheck:
    """b is a witness when b^2 and b^3 lie in A but b does not."""
    return _witness_check(ext, b, lambda: b * b)


def is_anodal_witness(ext: ExtensionPresentation, b: Polynomial) -> WitnessCheck:
    """b is a witness when b^2 - b and b^3 - b^2 lie in A but b does not."""
    return _witness_check(ext, b, lambda: b * b - b)


_WITNESS_TESTS = {
    "seminormal": is_seminormal_witness,
    "anodal": is_anodal_witness,
}


def _graded_monomials(ring: PolyRing, bound: int):
    """The monomials of degree at most bound, in graded order; a ring with
    no variables has one, 1, whose exponent tuple () has degree 0."""
    n = ring.nvars()
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
    """Extend A's presentation by one element of B, presented by the kernel.

    The new presentation builds no tag basis until a membership, its
    `a_ideal` or a spanning-monomial request needs one, so a basis over the
    pair budget raises there, not here."""
    taken = ext.a_ring.taken_names() | set(ext.b_ring.variables)
    w, = fresh_names([f"w{len(ext.a_ring.variables) + 1}"], taken)
    new_a_ring = PolyRing(ext.a_ring.field, tuple(ext.a_ring.variables) + (w,), GREVLEX)
    images = dict(ext.images)
    images[w] = ext.b_ideal.normal_form(b)
    return ExtensionPresentation(new_a_ring, None, ext.b_ideal, images, hints=ext.hints)


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

    Each adjoined presentation builds its tag basis at the first membership
    of the rescan that is not an image of its variables. Once the last
    witness makes B's variables images, the final `is_identity_onto` needs
    no basis, and neither does a rescan whose candidates are images or were
    found inside a smaller subring; the closure's `a_ideal` is computed only
    if it is read. A basis over the pair budget raises at its first use.
    """
    if kind not in _WITNESS_TESTS:
        raise CartierlabError(f"unknown closure kind {kind!r}")
    if degree_bound < 1:
        raise CartierlabError("degree bound must be at least 1")
    test = _WITNESS_TESTS[kind]
    candidates = list(witness_candidates(ext, degree_bound))
    inside: set = set()  # candidates found in a smaller subring lie in every larger one
    current = ext
    adjoined: list[Polynomial] = []
    changed = True
    while changed:
        changed = False
        for cand in candidates:
            if cand in inside:
                continue
            check = test(current, cand)
            if check.is_witness:
                current = adjoin_element(current, cand)
                adjoined.append(cand)
                changed = True
                break
            if check.details[0].member:
                inside.add(cand)
    exhausted = not current.is_identity_onto()
    return ClosureResult(current, tuple(adjoined), exhausted)


# -- conductor -----------------------------------------------------------------

# The hints `conductor` reads, which its callers report under `hints_used`.
CONDUCTOR_HINTS = ("birational", "module_generators", "fractions")


def conductor(ext: ExtensionPresentation) -> Ideal:
    """The conductor (A : B), the largest ideal of B contained in A, as an
    ideal of A's ring.

    Requires module generators with fraction representations p/q over A.
    Each fraction is checked (generator * q = p in B). The conductor lies in
    (a + (q)) : (p_1, ..., p_k) for each distinct denominator q and its
    numerators, and their intersection c is certified to be the conductor
    by c * B inside A: for each generator g of c and each monomial m read
    off the tag basis (`_spanning_monomials`, which span B over A and so
    also prove B finite over A), g(tags) * m reduces against the tag basis
    to a polynomial free of B's variables. The hinted module generators
    enter only through their fractions. A unit c is certified by 1 * gen
    inside A for each hinted generator and then by the images generating B.
    So c is an ideal of B, and A/c -> B/cB is well defined and injective.
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
    numerators: dict = {}  # denominator -> its numerators
    for gen in hints.module_generators:
        if gen not in fractions:
            if ext.contains(gen).member:
                continue  # generator already inside A constrains nothing
            raise MissingHints(f"module generator {gen} has no fraction hint")
        num, den = fractions[gen]
        numerators.setdefault(den, []).append(num)
    a_basis = list(ext.a_ideal.groebner())
    result: Ideal | None = None
    for den, nums in numerators.items():
        quot = colon(Ideal(ext.a_ring, a_basis + [den]), Ideal(ext.a_ring, nums))
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

    if not result.is_unit_ideal():
        certify(_spanning_monomials(ext))
        return result
    certify(hints.module_generators)
    if not ext.is_identity_onto():
        raise CertificateFailure(
            "unit conductor, but the subring is not all of the target: "
            "the module_generators hint does not span it"
        )
    return result


def _meet(running: Ideal, quot: Ideal) -> Ideal:
    """running ∩ quot, intersecting only when neither contains the other;
    `conductor` folds it over the distinct denominators.

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
        exps = staircase([e[:nb] for e in leading if not any(e[nb:])], ext.b_ring)
    except NotZeroDimensional as exc:
        raise CertificateFailure(
            f"finite hint does not hold: no element of the tag basis has a "
            f"pure power of {exc.variable} as leading monomial, so B is not finite over A"
        ) from None
    return [ext.b_ring.monomial(e) for e in exps]


def reduce_mod_conductor(ext: ExtensionPresentation) -> ExtensionPresentation:
    """The pair A/c -> B/cB for the conductor c, with A/c presented by the
    kernel of k[A] -> B/cB (`a_ideal=None`). That kernel is c: `conductor`
    certifies c * B inside A, so cB = c, and c contains A's relations."""
    cond = conductor(ext)
    if cond.is_unit_ideal():
        raise DegenerateExtension("unit conductor: the extension is an equality")
    hints = Hints(finite=ext.hints.finite, module_generators=ext.hints.module_generators)
    return ExtensionPresentation(ext.a_ring, None, ext.extend(cond), ext.images, hints=hints)

