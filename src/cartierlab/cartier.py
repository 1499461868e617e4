"""Rank computations for the Laurent deviation of relative Cartier divisors.

Four certified routes are exposed: the Artinian-local section formula, the
finite-connected vanishing criterion, the conductor-square reduction for
finite birational extensions of one-dimensional domains, and the five-term
units/Picard sequence on supplied rank data. Everything else is Unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .artinian import (
    FiniteAlgebra,
    component_count,
    components_over_subring,
    idempotent_decomposition,
    is_field_algebra,
    move_variable_to_field,
    primitive_element_presentation,
    quotient_algebra,
    radical_generators,
)
from .errors import (
    CartierlabError,
    CertificateFailure,
    EMPTY,
    InvariantViolation,
    MissingHints,
    NotFiniteOverSubring,
    NotPrime,
    NotArtinianLocal,
    NotZeroDimensional,
    ProbeExhausted,
    RadicalUnavailable,
    UNKNOWN,
    ZeroRingError,
)
from .extensions import (
    ExtensionPresentation,
    conductor,
    is_seminormal_witness,
    nil_comparison,
    witness_candidates,
)
from .polycore.fields import PrimeField
from .polycore.groebner import Ideal, ideal_sum
from .polycore.linalg import in_span, rref
from .polycore.rings import GREVLEX, Polynomial, PolyRing, fresh_name

_EXHAUSTIVE_CAP = 100_000


# -- result types ----------------------------------------------------------------


@dataclass(frozen=True)
class StalkReport:
    prime: Ideal | None  # None for the zero ideal
    residue_field: object | None  # a Field, or None when not presentable
    fiber_components: object  # int, EMPTY, or UNKNOWN
    stalk_rank: object  # int or UNKNOWN
    semantics: str  # "henselized-stalk" or "fiber-components-only"
    notes: tuple[str, ...] = ()

    def prime_strings(self) -> tuple[str, ...]:
        if self.prime is None:
            return ()
        return tuple(str(g) for g in self.prime.generators)

    def residue_description(self) -> str | None:
        return None if self.residue_field is None else self.residue_field.describe()


@dataclass(frozen=True)
class LIResult:
    """Outcome of a rank computation.

    A known rank is the rank of a free abelian group: the group is free on
    the classes these routes certify (one-dimensional or zero-dimensional
    sources, or five-term data with free inputs).
    """

    rank: object  # int or UNKNOWN
    method: str
    certificate: dict
    hints_used: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class RankData:
    c_A: int
    c_B: int
    lpic_A: int
    lpic_B: int
    lpic_kernel: int

    def __post_init__(self):
        values = (self.c_A, self.c_B, self.lpic_A, self.lpic_B, self.lpic_kernel)
        if any(v < 0 for v in values):
            raise InvariantViolation("rank data entries must be nonnegative")
        if self.c_A > self.c_B:
            raise InvariantViolation(
                "component count of the source exceeds the target "
                "(units of the source inject into the target)"
            )
        if self.lpic_kernel > self.lpic_A:
            raise InvariantViolation("kernel rank exceeds the source Picard rank")


@dataclass(frozen=True)
class NIVerdict:
    status: str  # Zero | NonZero | UnknownUpToBound
    bound: int | None = None
    witness: Polynomial | None = None
    nil_reason: str | None = None


@dataclass(frozen=True)
class StabilityVerdict:
    answer: str  # yes | no | unknown
    failing_side: str | None
    li: LIResult
    ni: NIVerdict


# -- primes and fibers -------------------------------------------------------------


def verify_maximal(ext: ExtensionPresentation, prime: Ideal) -> FiniteAlgebra:
    """Check that A/prime is a field; returns the residue algebra."""
    if prime.ring != ext.a_ring:
        raise NotPrime("prime must live in the source ring")
    total = ideal_sum(ext.a_ideal, prime)
    try:
        alg = quotient_algebra(ext.a_ring, total)
    except ZeroRingError:
        raise NotPrime("the ideal is the unit ideal") from None
    except NotZeroDimensional:
        raise NotPrime(
            "only maximal ideals (and the zero ideal) can be verified prime"
        ) from None
    verdict = is_field_algebra(alg)
    if verdict is UNKNOWN:
        raise NotPrime("could not certify the residue ring is a field")
    if not verdict:
        raise NotPrime("the quotient by the ideal is not a field")
    return alg


def _stalk_semantics(ext: ExtensionPresentation) -> str:
    return "henselized-stalk" if ext.hints.finite else "fiber-components-only"


def stalk_at_maximal(ext: ExtensionPresentation, prime: Ideal) -> StalkReport:
    residue_alg = verify_maximal(ext, prime)
    pushed = [ext.substitute(g) for g in prime.generators]
    fiber_ideal = ideal_sum(ext.b_ideal, Ideal(ext.b_ring, pushed))
    notes: list[str] = []
    if fiber_ideal.is_unit_ideal():
        return StalkReport(
            prime,
            primitive_element_presentation(residue_alg),
            EMPTY,
            0,
            _stalk_semantics(ext),
            ("empty fiber",),
        )
    components: object
    try:
        fiber_alg = quotient_algebra(ext.b_ring, fiber_ideal)
        components = component_count(fiber_alg)
    except NotZeroDimensional:
        components = UNKNOWN
        for v in ext.b_ring.variables:
            try:
                components = components_over_subring(ext.b_ring, fiber_ideal, [v])
            except NotFiniteOverSubring:
                continue
            notes.append(f"fiber counted over the polynomial subring in {v}")
            break
        else:
            notes.append("fiber is not finite over any single-variable subring")
    if components is UNKNOWN:
        stalk: object = UNKNOWN
        notes.append("component count not certified")
    else:
        stalk = components - 1
    return StalkReport(
        prime,
        primitive_element_presentation(residue_alg),
        components,
        stalk,
        _stalk_semantics(ext),
        tuple(notes),
    )


def stalk_at_generic(ext: ExtensionPresentation) -> StalkReport:
    """Stalk at the zero ideal; the source must be certified a domain."""
    field = ext.a_ring.field
    # Artinian source: the zero ideal is prime only for a field
    if not ext.a_ideal.is_zero_ideal():
        try:
            alg = quotient_algebra(ext.a_ring, ext.a_ideal)
        except (NotZeroDimensional, ZeroRingError):
            alg = None
        if alg is not None:
            if is_field_algebra(alg) is not True:
                raise NotPrime("the zero ideal is prime only when the source is a domain")
            report = stalk_at_maximal(ext, Ideal(ext.a_ring, []))
            return report
        if ext.hints.finite and ext.hints.birational:
            return StalkReport(
                None,
                None,
                1,
                0,
                _stalk_semantics(ext),
                (
                    "finite birational extension of domains: the generic fiber "
                    "is the shared fraction field",
                ),
            )
        raise NotPrime(
            "generic stalks need a free one-variable source, a field source, "
            "or finite+birational hints"
        )
    if ext.a_ring.nvars() != 1:
        raise NotPrime(
            "generic stalks over free polynomial sources support one variable"
        )
    v = ext.a_ring.variables[0]
    # the fiber over k(v): b_ideal + (image_v - v), with B's variables renamed
    # away from v and v then moved into the coefficient field
    taken = {v}
    names = []
    for name in ext.b_ring.variables:
        names.append(fresh_name(name, taken))
        taken.add(names[-1])
    ring = PolyRing(field, names + [v], GREVLEX)
    lift = lambda g: Polynomial(ring, {exp + (0,): c for exp, c in g.terms().items()})
    gens = [lift(g) for g in ext.b_ideal.generators]
    gens.append(lift(ext.images[v]) - ring.variable(v))
    work, fiber_ideal = move_variable_to_field(ring, Ideal(ring, gens), v)
    K = work.field
    notes = []
    if fiber_ideal.is_unit_ideal():
        return StalkReport(
            None, K, EMPTY, 0, _stalk_semantics(ext), ("empty fiber",)
        )
    try:
        alg = quotient_algebra(work, fiber_ideal)
        components = component_count(alg)
    except NotZeroDimensional:
        components = UNKNOWN
        notes.append("generic fiber is not finite over the fraction field")
    if components is UNKNOWN:
        stalk: object = UNKNOWN
        notes.append("component count not certified")
    else:
        stalk = components - 1
    return StalkReport(
        None, K, components, stalk, _stalk_semantics(ext), tuple(notes)
    )


def stalk_rank(ext: ExtensionPresentation, prime: Ideal | None) -> StalkReport:
    """Stalk of the component sheaf at a maximal prime or the zero ideal."""
    if prime is None or not prime.generators:
        return stalk_at_generic(ext)
    return stalk_at_maximal(ext, prime)


# -- the four rank routes -----------------------------------------------------------


def li_hensel_local(ext: ExtensionPresentation) -> LIResult:
    """Sections-over-a-point formula: rank = components(B) - 1 for local Artinian A."""
    try:
        a_alg = quotient_algebra(ext.a_ring, ext.a_ideal)
    except (NotZeroDimensional, ZeroRingError) as exc:
        raise NotArtinianLocal(f"source is not Artinian: {exc}") from None
    c_a = component_count(a_alg)
    if c_a is UNKNOWN:
        raise NotArtinianLocal("could not certify the source is connected")
    if c_a != 1:
        raise NotArtinianLocal(f"source has {c_a} components, so it is not local")
    b_alg = quotient_algebra(ext.b_ring, ext.b_ideal)
    c_b = component_count(b_alg)
    if c_b is UNKNOWN:
        return LIResult(UNKNOWN, "HenselLocalFormula", {"reason": "target component count unknown"})
    return LIResult(
        c_b - 1,
        "HenselLocalFormula",
        {"components_B": c_b, "dim_A": a_alg.dim, "dim_B": b_alg.dim},
    )


def li_conductor_square(ext: ExtensionPresentation) -> LIResult:
    """Conductor-square reduction for finite birational extensions.

    `conductor` certifies c * B inside A, so c is an ideal of B and
    A/c -> B/cB is well defined and injective: both sides are presented by
    their ideals (c, which contains A's relations, and cB + B's relations)
    with no second presentation and no construction check.
    """
    if not (ext.hints.finite and ext.hints.birational):
        raise MissingHints("conductor-square needs finite and birational hints")
    cond = conductor(ext)
    if cond.is_unit_ideal():
        return LIResult(
            0,
            "ConductorSquare",
            {"conductor": ("1",), "degenerate": "unit conductor (equality)"},
            hints_used=tuple(ext.hints.consumed()),
        )
    a_alg = quotient_algebra(ext.a_ring, cond)
    b_alg = quotient_algebra(ext.b_ring, ext.extend(cond))
    c_a = component_count(a_alg)
    c_b = component_count(b_alg)
    certificate = {
        "conductor": tuple(str(g) for g in cond.generators),
        "components_A_mod_conductor": c_a if c_a is not UNKNOWN else "unknown",
        "components_B_mod_conductor": c_b if c_b is not UNKNOWN else "unknown",
    }
    if c_a is UNKNOWN or c_b is UNKNOWN:
        return LIResult(UNKNOWN, "ConductorSquare", certificate)
    if c_b < c_a:
        # impossible for an injection: idempotents of A/c stay nonzero in B/cB
        raise CertificateFailure(
            f"component counts violate injectivity: {c_b} < {c_a}"
        )
    return LIResult(
        c_b - c_a,
        "ConductorSquare",
        certificate,
        hints_used=tuple(ext.hints.consumed()),
    )


def li_five_term(data: RankData) -> LIResult:
    """Rank from the units/Picard five-term sequence on free inputs."""
    rank = (data.c_B - data.c_A) + data.lpic_kernel
    return LIResult(
        rank,
        "FiveTermSequence",
        {
            "c_A": data.c_A,
            "c_B": data.c_B,
            "lpic_A": data.lpic_A,
            "lpic_B": data.lpic_B,
            "lpic_kernel": data.lpic_kernel,
        },
    )


def _artinian_maximal_ideals(ext: ExtensionPresentation) -> list[Ideal]:
    alg = quotient_algebra(ext.a_ring, ext.a_ideal)
    decomp = idempotent_decomposition(alg)
    rad = radical_generators(alg)
    primes = []
    for i in range(decomp.count):
        others = [
            alg.to_poly(e) for j, e in enumerate(decomp.idempotents) if j != i
        ]
        gens = list(ext.a_ideal.generators) + rad + others
        primes.append(Ideal(ext.a_ring, gens))
    return primes


def li_finite_connected(
    ext: ExtensionPresentation,
    primes: list[Ideal] | None = None,
    include_generic: bool = False,
) -> LIResult:
    """Vanishing certificate: connected fibers force rank zero for finite maps."""
    if not ext.hints.finite:
        raise MissingHints("the connectedness criterion needs the finite hint")
    exhaustive = False
    prime_list = list(primes or [])
    try:
        prime_list = _artinian_maximal_ideals(ext) + prime_list
        exhaustive = True  # an Artinian source has only these primes
    except (NotZeroDimensional, ZeroRingError):
        pass
    except ProbeExhausted:
        return LIResult(UNKNOWN, "FiniteConnected", {"reason": "source components unknown"})
    if not prime_list and not include_generic:
        return LIResult(
            UNKNOWN,
            "FiniteConnected",
            {"reason": "no primes supplied and the source is not Artinian"},
        )
    table = []
    for prime in prime_list:
        report = stalk_at_maximal(ext, prime)
        table.append(report)
    if include_generic:
        table.append(stalk_at_generic(ext))
    stalk_values = [r.stalk_rank for r in table]
    certificate = {
        "stalks": tuple(
            {
                "prime": r.prime_strings() or "generic",
                "stalk": r.stalk_rank if r.stalk_rank is not UNKNOWN else "unknown",
            }
            for r in table
        )
    }
    if any(s is UNKNOWN for s in stalk_values):
        certificate["reason"] = "a stalk could not be certified"
        return LIResult(UNKNOWN, "FiniteConnected", certificate)
    if any(s > 0 for s in stalk_values):
        certificate["inconclusive"] = "a disconnected fiber was found"
        return LIResult(UNKNOWN, "FiniteConnected", certificate)
    warnings: tuple[str, ...] = ()
    if not exhaustive:
        warnings = ("certified over supplied primes only",)
    return LIResult(
        0,
        "FiniteConnected",
        certificate,
        hints_used=tuple(ext.hints.consumed()),
        warnings=warnings,
    )


def li_five_term_from_extension(ext: ExtensionPresentation) -> LIResult:
    """Assemble rank data when both sides are Artinian (Picard ranks vanish)."""
    try:
        a_alg = quotient_algebra(ext.a_ring, ext.a_ideal)
        b_alg = quotient_algebra(ext.b_ring, ext.b_ideal)
    except (NotZeroDimensional, ZeroRingError) as exc:
        raise MissingHints(f"five-term data needs Artinian sides: {exc}") from None
    c_a = component_count(a_alg)
    c_b = component_count(b_alg)
    if c_a is UNKNOWN or c_b is UNKNOWN:
        raise MissingHints("five-term data needs certified component counts")
    result = li_five_term(RankData(c_a, c_b, 0, 0, 0))
    certificate = dict(result.certificate)
    certificate["picard_note"] = "zero-dimensional sides have vanishing Picard deviations"
    return LIResult(result.rank, result.method, certificate)


def li_auto(
    ext: ExtensionPresentation,
    primes: list[Ideal] | None = None,
    include_generic: bool = False,
) -> LIResult:
    """Try the four routes in order and report the first certified rank."""
    attempts: list[str] = []
    try:
        return li_hensel_local(ext)
    except (NotArtinianLocal, NotZeroDimensional, ZeroRingError) as exc:
        attempts.append(f"HenselLocalFormula: {exc}")
    try:
        result = li_conductor_square(ext)
        if result.rank is not UNKNOWN:
            return result
        attempts.append("ConductorSquare: component counts unknown")
    except (MissingHints, NotZeroDimensional) as exc:
        attempts.append(f"ConductorSquare: {exc}")
    try:
        result = li_finite_connected(ext, primes, include_generic)
        if result.rank is not UNKNOWN:
            return result
        attempts.append(f"FiniteConnected: {result.certificate.get('reason') or result.certificate.get('inconclusive')}")
    except (MissingHints, NotPrime) as exc:
        attempts.append(f"FiniteConnected: {exc}")
    try:
        return li_five_term_from_extension(ext)
    except MissingHints as exc:
        attempts.append(f"FiveTermSequence: {exc}")
    return LIResult(UNKNOWN, "none", {"attempts": tuple(attempts)})


# -- reduction to the reduced extension ----------------------------------------------


def li_reduce_red(ext: ExtensionPresentation) -> ExtensionPresentation:
    """Pass to reduced quotients; the rank is unchanged by this reduction."""
    a_reduced, a_extra = _reduced_ideal(ext.a_ring, ext.a_ideal)
    b_reduced, b_extra = _reduced_ideal(ext.b_ring, ext.b_ideal)
    if a_extra is None or b_extra is None:
        raise RadicalUnavailable(
            "radicals are computed only for zero-dimensional presentations"
        )
    if not a_extra and not b_extra:
        return ext
    return ExtensionPresentation(
        ext.a_ring, a_reduced, ext.b_ring, b_reduced, ext.images, hints=ext.hints
    )


def _reduced_ideal(ring: PolyRing, ideal: Ideal):
    if ideal.is_zero_ideal():
        return ideal, []  # free polynomial ring: already reduced
    try:
        alg = quotient_algebra(ring, ideal)
    except (NotZeroDimensional, ZeroRingError):
        return ideal, None
    extra = radical_generators(alg)
    if not extra:
        return ideal, []
    return ideal_sum(ideal, Ideal(ring, extra)), extra


# -- seminormality obstruction --------------------------------------------------------


def _subalgebra_span(alg: FiniteAlgebra, generators: list[tuple]) -> list[list]:
    """Row-echelon basis of the unital subalgebra generated by the elements."""
    field = alg.field
    rows, _ = rref(field, [list(alg.one())] + [list(g) for g in generators])
    changed = True
    while changed:
        changed = False
        for g in generators:
            for row in list(rows):
                prod = alg.mul(tuple(row), g)
                if not in_span(field, rows, list(prod)):
                    rows, _ = rref(field, rows + [list(prod)])
                    changed = True
    return rows


def ni_verdict(ext: ExtensionPresentation, degree_bound: int) -> NIVerdict:
    """Vanishing verdict for the polynomial deviation (seminormality obstruction)."""
    nil = nil_comparison(ext)
    if nil.status == "differ":
        return NIVerdict("NonZero", witness=nil.witness, nil_reason=nil.reason)
    for cand in witness_candidates(ext, degree_bound):
        check = is_seminormal_witness(ext, cand)
        if check.is_witness:
            return NIVerdict("NonZero", witness=cand)
    if nil.status == "equal" and ext.is_identity_onto():
        return NIVerdict("Zero", nil_reason="the subring is all of the target")
    if nil.status == "equal" and isinstance(ext.b_ring.field, PrimeField):
        decided = _exhaustive_seminormal_scan(ext)
        if decided is not None:
            if decided is True:
                return NIVerdict("Zero", nil_reason="exhaustive scan found no witness")
            return NIVerdict("NonZero", witness=decided)
    return NIVerdict("UnknownUpToBound", bound=degree_bound)


def _exhaustive_seminormal_scan(ext: ExtensionPresentation):
    """Over a small prime-field Artinian target, decide by full enumeration.

    Returns True (no witness anywhere), a witness element, or None when the
    target is too large or not Artinian.
    """
    from .artinian import iter_all_elements

    try:
        alg = quotient_algebra(ext.b_ring, ext.b_ideal)
    except (NotZeroDimensional, ZeroRingError):
        return None
    p = ext.b_ring.field.p
    if p**alg.dim > _EXHAUSTIVE_CAP:
        return None
    gens = [alg.from_poly(ext.substitute(ext.a_ring.variable(v))) for v in ext.a_ring.variables]
    span = _subalgebra_span(alg, gens)
    field = alg.field
    for coords in iter_all_elements(alg):
        if in_span(field, span, list(coords)):
            continue
        sq = alg.mul(coords, coords)
        if not in_span(field, span, list(sq)):
            continue
        cube = alg.mul(sq, coords)
        if in_span(field, span, list(cube)):
            return alg.to_poly(coords)
    return True


def laurent_stability(
    ext: ExtensionPresentation,
    primes: list[Ideal] | None = None,
    degree_bound: int = 6,
    include_generic: bool = False,
) -> StabilityVerdict:
    """Stability of the divisor group under Laurent extension.

    Yes needs both a certified rank-zero Laurent deviation and a certified
    vanishing polynomial deviation; a certified failure on either side is No.
    """
    li = li_auto(ext, primes, include_generic)
    ni = ni_verdict(ext, degree_bound)
    if li.rank is not UNKNOWN and li.rank > 0:
        return StabilityVerdict("no", "laurent-deviation", li, ni)
    if ni.status == "NonZero":
        return StabilityVerdict("no", "polynomial-deviation", li, ni)
    if li.rank == 0 and ni.status == "Zero":
        return StabilityVerdict("yes", None, li, ni)
    return StabilityVerdict("unknown", None, li, ni)


# -- combinatorics and consistency ------------------------------------------------------


def decomposition_terms(n: int) -> dict[str, int]:
    """Multiset of summands for the n-fold Laurent multi-variable decomposition."""
    if n < 0:
        raise CartierlabError("the number of Laurent variables must be nonnegative")
    terms = {"I": 1}
    if n:
        terms["L"] = n
    for i in range(1, n + 1):
        terms[f"N^{i}"] = (2**i) * math.comb(n, i)
    return terms


@dataclass(frozen=True)
class TowerVerdict:
    passes: bool
    detail: str


def tower_check(rank_ab, rank_ac, rank_bc) -> TowerVerdict:
    """Left-exactness constraints on ranks for a tower A in B in C.

    Accepts plain ranks or LIResults; all three ranks must be known.
    """
    rank_ab, rank_ac, rank_bc = (
        r.rank if isinstance(r, LIResult) else r for r in (rank_ab, rank_ac, rank_bc)
    )
    if any(r is UNKNOWN or not isinstance(r, int) for r in (rank_ab, rank_ac, rank_bc)):
        raise CartierlabError("tower consistency needs three known ranks")
    if rank_ab > rank_ac:
        return TowerVerdict(False, f"{rank_ab} > {rank_ac}: the first map cannot inject")
    if rank_ac > rank_ab + rank_bc:
        return TowerVerdict(
            False, f"{rank_ac} > {rank_ab} + {rank_bc}: the middle rank is too large"
        )
    return TowerVerdict(True, f"{rank_ab} <= {rank_ac} <= {rank_ab} + {rank_bc}")


def product_rank(results: list[LIResult]) -> LIResult:
    """Rank additivity over finite products of extensions."""
    total = 0
    parts = []
    for r in results:
        if r.rank is UNKNOWN:
            return LIResult(UNKNOWN, "ProductFormula", {"reason": "an input is unknown"})
        total += r.rank
        parts.append(r.rank)
    return LIResult(total, "ProductFormula", {"factor_ranks": tuple(parts)})
