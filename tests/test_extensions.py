from __future__ import annotations

import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cartierlab.cartier import li_auto
from cartierlab.corpus import corpus_path
from cartierlab.errors import (
    CertificateFailure,
    DegenerateExtension,
    InjectivityError,
    MissingHints,
    WellDefinednessError,
)
from cartierlab.extensions import (
    ExtensionPresentation,
    Hints,
    _spanning_monomials,
    adjoin_element,
    closure_search,
    conductor,
    is_anodal_witness,
    is_seminormal_witness,
    nil_comparison,
    reduce_mod_conductor,
)
from cartierlab.extfile import load_extension
from cartierlab.polycore import (
    GREVLEX,
    Ideal,
    Polynomial,
    PolyRing,
    PrimeField,
    QQ,
    parse_polynomial,
)
from oracles import conductor_by_every_intersection, naive_image_remainder

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test below skips
    st = None


def build(a_vars, a_rels, b_vars, b_rels, images, hints=None, field=QQ):
    a_ring = PolyRing(field, a_vars, GREVLEX)
    b_ring = PolyRing(field, b_vars, GREVLEX)
    a_ideal = Ideal(a_ring, [parse_polynomial(t, a_ring) for t in a_rels])
    b_ideal = Ideal(b_ring, [parse_polynomial(t, b_ring) for t in b_rels])
    image_polys = {v: parse_polynomial(s, b_ring) for v, s in images.items()}
    return ExtensionPresentation(a_ring, a_ideal, b_ring, b_ideal, image_polys, hints)


def node_hints():
    b_ring = PolyRing(QQ, ["t"], GREVLEX)
    a_ring = PolyRing(QQ, ["x", "y"], GREVLEX)
    one = parse_polynomial("1", b_ring)
    t = parse_polynomial("t", b_ring)
    return Hints(
        finite=True,
        birational=True,
        module_generators=(one, t),
        fractions=(
            (t, parse_polynomial("y", a_ring), parse_polynomial("x", a_ring)),
        ),
        lpic_A_rank=1,
        lpic_B_rank=0,
        lpic_kernel_rank=1,
    )


def node_extension():
    return build(
        ["x", "y"], ["y^2 - x^3 - x^2"], ["t"], [],
        {"x": "t^2 - 1", "y": "t^3 - t"}, node_hints(),
    )


def cusp_extension():
    b_ring = PolyRing(QQ, ["t"], GREVLEX)
    a_ring = PolyRing(QQ, ["x", "y"], GREVLEX)
    hints = Hints(
        finite=True,
        birational=True,
        module_generators=(parse_polynomial("1", b_ring), parse_polynomial("t", b_ring)),
        fractions=(
            (
                parse_polynomial("t", b_ring),
                parse_polynomial("y", a_ring),
                parse_polynomial("x", a_ring),
            ),
        ),
        lpic_A_rank=0,
        lpic_B_rank=0,
        lpic_kernel_rank=0,
    )
    return build(
        ["x", "y"], ["y^2 - x^3"], ["t"], [], {"x": "t^2", "y": "t^3"}, hints
    )


def test_construction_checks():
    # a relation that does not map to zero
    with pytest.raises(WellDefinednessError):
        build(["x"], ["x^2 - 1"], ["t"], [], {"x": "t"})
    # a visible kernel: x -> 0 into the constants
    with pytest.raises(InjectivityError):
        build(["x"], [], [], [], {"x": "0"})


def test_contains_node_examples():
    ext = node_extension()
    t = parse_polynomial("t", ext.b_ring)
    assert not ext.contains(t).member
    b = parse_polynomial("t^4 - 2*t^2", ext.b_ring)
    res = ext.contains(b)
    assert res.member
    # substituting the preimage through the images reproduces the element
    assert ext.substitute(res.preimage) == ext.b_ideal.normal_form(b)
    assert res.preimage == parse_polynomial("x^2 - 1", ext.a_ring)
    # images of generators are members with themselves as preimages
    x_img = ext.substitute(parse_polynomial("x", ext.a_ring))
    assert ext.contains(x_img).member


def test_contains_is_a_ring_predicate_on_probes():
    ext = node_extension()
    rng = random.Random(3)
    members = [
        ext.substitute(parse_polynomial(s, ext.a_ring))
        for s in ["x", "y", "x*y - 2", "x^2 + y"]
    ]
    for _ in range(8):
        u = rng.choice(members)
        v = rng.choice(members)
        assert ext.contains(ext.b_ideal.normal_form(u + v)).member
        assert ext.contains(ext.b_ideal.normal_form(u * v)).member


def test_seminormal_witness_cusp_vs_node():
    cusp = cusp_extension()
    t = parse_polynomial("t", cusp.b_ring)
    check = is_seminormal_witness(cusp, t)
    assert check.is_witness
    m1, m2, m3 = check.details
    assert m2.member and m3.member and not m1.member

    node = node_extension()
    t = parse_polynomial("t", node.b_ring)
    assert not is_seminormal_witness(node, t).is_witness
    # an element of A is never a witness
    x_img = node.substitute(parse_polynomial("x", node.a_ring))
    assert not is_seminormal_witness(node, x_img).is_witness


def test_anodal_witness_idempotent_case():
    ext = build(["a0"], ["a0"], ["u"], ["u^2 - u"], {"a0": "0"})
    u = parse_polynomial("u", ext.b_ring)
    assert is_anodal_witness(ext, u).is_witness
    node = node_extension()
    assert not is_anodal_witness(node, parse_polynomial("t", node.b_ring)).is_witness


def test_closure_search_cusp_reaches_target():
    cusp = cusp_extension()
    result = closure_search(cusp, "seminormal", 3)
    assert len(result.adjoined) == 1
    assert result.adjoined[0] == parse_polynomial("t", cusp.b_ring)
    assert result.extension.is_identity_onto()
    assert not result.exhausted


def test_closure_search_node_finds_nothing():
    node = node_extension()
    result = closure_search(node, "seminormal", 4)
    assert result.adjoined == ()
    assert result.exhausted


def test_closure_of_identity_is_trivial():
    ident = build(["x"], [], ["x"], [], {"x": "x"})
    result = closure_search(ident, "seminormal", 3)
    assert result.adjoined == ()
    assert not result.exhausted


def test_conductor_node_and_cusp():
    for ext, rels in ((node_extension(), "y^2 - x^3 - x^2"), (cusp_extension(), "y^2 - x^3")):
        cond = conductor(ext)
        expected = Ideal(
            ext.a_ring,
            [parse_polynomial("x", ext.a_ring), parse_polynomial("y", ext.a_ring)],
        )
        from cartierlab.polycore import ideal_equals

        assert ideal_equals(cond, expected)


def test_conductor_missing_hints():
    ext = build(["x"], [], ["x"], [], {"x": "x"})
    with pytest.raises(MissingHints):
        conductor(ext)


def test_conductor_identity_is_unit():
    b_ring = PolyRing(QQ, ["x"], GREVLEX)
    hints = Hints(
        finite=True,
        birational=True,
        module_generators=(parse_polynomial("1", b_ring),),
        fractions=(),
    )
    ext = build(["x"], [], ["x"], [], {"x": "x"}, hints)
    assert conductor(ext).is_unit_ideal()
    with pytest.raises(DegenerateExtension):
        reduce_mod_conductor(ext)


CORPUS = os.path.dirname(corpus_path("node.ext"))
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
FRACTION_FILES = sorted(
    os.path.join(directory, name)
    for directory in (CORPUS, FIXTURES)
    for name in os.listdir(directory)
    if name.endswith(".ext") and "\nfractions =" in Path(directory, name).read_text()
)


@pytest.mark.parametrize("path", FRACTION_FILES, ids=os.path.basename)
def test_conductor_matches_the_fold_over_every_intersection(path):
    ext = load_extension(path)
    assert conductor(ext).generators == conductor_by_every_intersection(ext)


@pytest.mark.parametrize("path", sorted(
    os.path.join(FIXTURES, name) for name in os.listdir(FIXTURES)), ids=os.path.basename)
def test_shifted_monomial_curves_have_rank_zero(path):
    # k[u^S] inside k[u] with u = t -+ 1 is subintegral: both sides of the
    # conductor square are local
    result = li_auto(load_extension(path))
    assert (result.rank, result.method) == (0, "ConductorSquare")
    assert result.certificate["components_A_mod_conductor"] == 1
    assert result.certificate["components_B_mod_conductor"] == 1


def test_conductor_is_certified_on_monomials_spanning_the_target():
    ext = load_extension(os.path.join(FIXTURES, "monomial-3-5-7-qq.ext"))
    assert [str(m) for m in _spanning_monomials(ext)] == ["1", "t", "t^2"]
    # (t + 1)^2 alone: the colon (x) : y is the maximal ideal, and every
    # generator of it times 1 and (t + 1)^2 lies in A, but x * t does not
    u2 = ext.b_ring.parse("(t + 1)^2")
    hints = Hints(finite=True, birational=True, module_generators=(ext.b_ring.one(), u2),
                  fractions=((u2, ext.a_ring.parse("y"), ext.a_ring.parse("x")),))
    wrong = ExtensionPresentation(ext.a_ring, ext.a_ideal, ext.b_ring, ext.b_ideal,
                                  ext.images, hints)
    for call in (conductor, reduce_mod_conductor):
        with pytest.raises(CertificateFailure, match="^conductor generator x times t escapes"):
            call(wrong)


def test_unit_conductor_needs_the_images_to_generate_the_target():
    # t^2 = x / 1 makes the colon ideal the unit ideal, and 1 * t^2 lies in A
    b_ring = PolyRing(QQ, ["t"], GREVLEX)
    a_ring = PolyRing(QQ, ["x", "y"], GREVLEX)
    t2 = parse_polynomial("t^2", b_ring)
    hints = Hints(finite=True, birational=True, module_generators=(b_ring.one(), t2),
                  fractions=((t2, parse_polynomial("x", a_ring), a_ring.one()),))
    cusp = build(["x", "y"], ["y^2 - x^3"], ["t"], [], {"x": "t^2", "y": "t^3"}, hints)
    with pytest.raises(CertificateFailure, match="^unit conductor, but the subring"):
        conductor(cusp)


def test_reduce_mod_conductor_node_and_cusp():
    from cartierlab.artinian import quotient_algebra

    node = reduce_mod_conductor(node_extension())
    a_alg = quotient_algebra(node.a_ring, node.a_ideal)
    b_alg = quotient_algebra(node.b_ring, node.b_ideal)
    assert a_alg.dim == 1 and b_alg.dim == 2

    cusp = reduce_mod_conductor(cusp_extension())
    assert quotient_algebra(cusp.a_ring, cusp.a_ideal).dim == 1
    b_alg = quotient_algebra(cusp.b_ring, cusp.b_ideal)
    assert b_alg.dim == 2
    assert not __import__("cartierlab.artinian", fromlist=["is_reduced"]).is_reduced(b_alg)


def test_nil_comparison_cases():
    toy = build([], [], ["u"], ["u^2"], {})
    res = nil_comparison(toy)
    assert res.status == "differ"
    ident = build(["u"], ["u^2"], ["u"], ["u^2"], {"u": "u"})
    assert nil_comparison(ident).status == "equal"
    node = node_extension()
    assert nil_comparison(node).status == "equal"


def test_adjoin_element_keeps_checks():
    cusp = cusp_extension()
    bigger = adjoin_element(cusp, parse_polynomial("t", cusp.b_ring))
    assert bigger.is_identity_onto()
    assert len(bigger.a_ring.variables) == 3


def test_closure_output_has_no_witness_below_bound():
    # re-scan the fixpoint: no candidate below the bound is a witness
    from cartierlab.extensions import witness_candidates

    cusp = cusp_extension()
    result = closure_search(cusp, "seminormal", 3)
    enlarged = result.extension
    for cand in witness_candidates(enlarged, 3):
        assert not is_seminormal_witness(enlarged, cand).is_witness


def test_conductor_certificate_membership_elementwise():
    ext = node_extension()
    cond = conductor(ext)
    for g in cond.generators:
        g_img = ext.substitute(g)
        for gen in ext.hints.module_generators:
            assert ext.contains(ext.b_ideal.normal_form(g_img * gen)).member


def test_anodal_witness_trivial_for_subring_elements():
    node = node_extension()
    x_img = node.substitute(parse_polynomial("x", node.a_ring))
    assert not is_anodal_witness(node, x_img).is_witness


def _oracle_subalgebra_member(ext, b, degree_bound):
    """Independent check: b lies in the span of normal forms of products of
    images of source monomials, by dense Fraction linear algebra."""
    import itertools

    from fractions import Fraction as F

    nfs = []
    nvars = ext.a_ring.nvars()
    for total in range(degree_bound + 1):
        for exps in itertools.product(range(total + 1), repeat=nvars):
            if sum(exps) != total:
                continue
            mono = ext.a_ring.monomial(exps)
            nfs.append(ext.substitute(mono))
    target = ext.b_ideal.normal_form(b)
    monomials = sorted({e for p in nfs + [target] for e in p.terms()})
    index = {m: i for i, m in enumerate(monomials)}
    rows = [[p.coefficient(m) for p in nfs] + [target.coefficient(m)] for m in monomials]
    # elimination over Fractions
    ncols = len(nfs) + 1
    r = 0
    pivots = []
    for col in range(ncols):
        piv = next((k for k in range(r, len(rows)) if rows[k][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F(1) / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col] != 0:
                fac = rows[k][col]
                rows[k] = [a - fac * c for a, c in zip(rows[k], rows[r])]
        pivots.append(col)
        r += 1
    return len(nfs) not in pivots


def test_contains_matches_linear_algebra_oracle():
    node = node_extension()
    ring = node.b_ring
    for text, expected in [
        ("t", False),
        ("t^2 - 1", True),
        ("t^3 - t", True),
        ("t^4 - 2*t^2", True),
        ("t^3", False),
        ("t^5 - 2*t^3 + t", True),  # = x*y in the source
    ]:
        b = parse_polynomial(text, ring)
        assert node.contains(b).member is expected
        assert _oracle_subalgebra_member(node, b, 6) is expected


def test_two_step_seminormal_closure_on_higher_cusp():
    # A = QQ[t^2, t^5] inside QQ[t]: t^3 is a witness (t^6, t^9 land in A),
    # and only after adjoining it does t itself become one
    b_ring = PolyRing(QQ, ["t"], GREVLEX)
    a_ring = PolyRing(QQ, ["x", "y"], GREVLEX)
    hints = Hints(
        finite=True,
        birational=True,
        module_generators=(
            parse_polynomial("1", b_ring),
            parse_polynomial("t", b_ring),
            parse_polynomial("t^3", b_ring),
        ),
        fractions=(
            (
                parse_polynomial("t", b_ring),
                parse_polynomial("y", a_ring),
                parse_polynomial("x^2", a_ring),
            ),
            (
                parse_polynomial("t^3", b_ring),
                parse_polynomial("y", a_ring),
                parse_polynomial("x", a_ring),
            ),
        ),
    )
    ext = build(
        ["x", "y"], ["y^2 - x^5"], ["t"], [], {"x": "t^2", "y": "t^5"}, hints
    )
    result = closure_search(ext, "seminormal", 3)
    assert [str(w) for w in result.adjoined] == ["t^3", "t"]
    assert result.extension.is_identity_onto()
    assert not result.exhausted
    # subintegral inclusions have vanishing deviation rank
    from cartierlab.cartier import li_conductor_square
    from cartierlab.polycore import ideal_equals

    li = li_conductor_square(ext)
    assert li.rank == 0
    cond = conductor(ext)
    expected = Ideal(
        ext.a_ring,
        [parse_polynomial("x^2", ext.a_ring), parse_polynomial("y", ext.a_ring)],
    )
    assert ideal_equals(cond, expected)


# -- well-definedness against substitution -------------------------------------

if st is None:
    def property_test(fn):
        return pytest.mark.skip(reason="hypothesis is not installed")(fn)
else:
    def property_test(fn):
        checked = settings(max_examples=100, deadline=None, derandomize=True,
                           database=None)
        return checked(given(data=st.data())(fn))


def draw_poly(data, ring, min_terms=0, max_terms=3, max_exp=2) -> Polynomial:
    exps = st.tuples(*[st.integers(0, max_exp)] * ring.nvars())
    coeffs = st.builds(Fraction, st.sampled_from((-3, -2, -1, 1, 2, 3)), st.integers(1, 2))
    terms = data.draw(st.dictionaries(exps, coeffs, min_size=min_terms, max_size=max_terms))
    return Polynomial(ring, {e: ring.field.from_fraction(c) for e, c in terms.items()})


@property_test
def test_well_definedness_matches_substitute_and_reduce(data):
    # x -> p and y -> P(p), so y - P(x) is in the kernel, and so is f(x) when
    # the target ideal is (f(p)); the relations are multiples of these, one of
    # them sometimes perturbed
    field = data.draw(st.sampled_from((QQ, PrimeField(7))))
    b_ring = PolyRing(field, ("t", "s")[: data.draw(st.integers(1, 2))], GREVLEX)
    a_ring = PolyRing(field, ("x", "y"), GREVLEX)
    x_ring = PolyRing(field, ("x",), GREVLEX)
    p = draw_poly(data, b_ring)
    lift, f = draw_poly(data, x_ring), draw_poly(data, x_ring)
    images = {"x": p, "y": lift.substitute(b_ring, {"x": p})}
    kernel = [a_ring.variable("y") - lift.map_variables(a_ring)]
    target = data.draw(st.sampled_from(("zero", "image", "random")))
    if target == "image":
        b_gens = [f.substitute(b_ring, {"x": p})]
        kernel.append(f.map_variables(a_ring))
    else:
        b_gens = [draw_poly(data, b_ring)] if target == "random" else []
    relations = [
        draw_poly(data, a_ring, 1, 2, 1) * data.draw(st.sampled_from(kernel))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(relations) - 1))
        relations[i] = relations[i] + draw_poly(data, a_ring, 1, 2)
    a_ideal, b_ideal = Ideal(a_ring, relations), Ideal(b_ring, b_gens)

    basis = [g.terms() for g in b_ideal.groebner()]
    image_terms = [images[v].terms() for v in a_ring.variables]
    rejected = [
        g for g in a_ideal.generators
        if naive_image_remainder(g.terms(), image_terms, b_ring.nvars(), basis,
                                 field, b_ring.order.key)
    ]
    try:
        ExtensionPresentation(a_ring, a_ideal, b_ring, b_ideal, images)
    except WellDefinednessError as exc:
        assert rejected and str(exc) == (
            f"relation {rejected[0]} does not map to zero in the target"
        )
    except InjectivityError:
        assert not rejected
    else:
        assert not rejected
