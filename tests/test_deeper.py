"""Scenarios past the bundled corpus: prime fields, nilpotent lifting,
nonsingular fibers, and elimination edge cases."""

from __future__ import annotations

from fractions import Fraction

import pytest

from cartierlab.artinian import FiniteAlgebra, component_count
from cartierlab.cartier import li_auto, li_conductor_square, li_hensel_local, stalk_rank
from cartierlab.errors import CartierlabError, ZeroRingError
from cartierlab.extensions import ExtensionPresentation, Hints
from cartierlab.polycore import (
    GREVLEX,
    Ideal,
    PolyRing,
    PrimeField,
    QQ,
    eliminate,
    parse_polynomial,
)


def build(field, a_vars, a_rels, b_vars, b_rels, images, hints=None):
    a_ring = PolyRing(field, a_vars, GREVLEX)
    b_ring = PolyRing(field, b_vars, GREVLEX)
    a_ideal = Ideal(a_ring, [parse_polynomial(t, a_ring) for t in a_rels])
    b_ideal = Ideal(b_ring, [parse_polynomial(t, b_ring) for t in b_rels])
    image_polys = {v: parse_polynomial(s, b_ring) for v, s in images.items()}
    return ExtensionPresentation(a_ring, a_ideal, b_ideal, image_polys, hints)


def node_over(field):
    a_ring = PolyRing(field, ["x", "y"], GREVLEX)
    b_ring = PolyRing(field, ["t"], GREVLEX)
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
    )
    return build(
        field, ["x", "y"], ["y^2 - x^3 - x^2"], ["t"], [],
        {"x": "t^2 - 1", "y": "t^3 - t"}, hints,
    )


def test_node_over_f7_conductor_square():
    result = li_conductor_square(node_over(PrimeField(7)))
    assert result.rank == 1


def test_node_over_f5_stalk_at_origin():
    ext = node_over(PrimeField(5))
    prime = Ideal(ext.a_ring, [parse_polynomial(t, ext.a_ring) for t in ("x", "y")])
    assert stalk_rank(ext, prime).stalk_rank == 1


def test_node_stalk_at_smooth_point_vanishes():
    ext = node_over(QQ)
    prime = Ideal(
        ext.a_ring, [parse_polynomial(t, ext.a_ring) for t in ("x - 3", "y - 6")]
    )
    report = stalk_rank(ext, prime)
    assert report.fiber_components == 1
    assert report.stalk_rank == 0


def test_hensel_route_with_nilpotent_lifting():
    # source is the dual-number line; the target splits only after lifting
    # the approximate idempotent through the nilpotents
    ext = build(
        QQ, ["a"], ["a^2"], ["a", "u"], ["a^2", "u^2 - u - a"], {"a": "a"}
    )
    result = li_hensel_local(ext)
    assert result.rank == 1
    alg = FiniteAlgebra(ext.b_ideal)
    assert alg.dim == 4
    assert component_count(alg) == 2


def test_membership_preimage_in_monoid_chain():
    from cartierlab.extfile import load_extension
    from cartierlab.corpus import corpus_path

    ext = load_extension(corpus_path("chain_full.ext"))
    t6 = parse_polynomial("t^6", ext.b_ring)
    res = ext.contains(t6)
    assert res.member
    assert ext.substitute(res.preimage) == t6
    t7 = parse_polynomial("t^7", ext.b_ring)
    assert ext.contains(t7).member  # t^7 = a*b
    assert not ext.contains(parse_polynomial("t^2 + t", ext.b_ring)).member


def test_eliminate_everything_and_unit_ideal():
    ring = PolyRing(QQ, ["x"], GREVLEX)
    ideal = Ideal(ring, [parse_polynomial("x - 1", ring)])
    result = eliminate(ideal, ["x"])
    assert result.ring.nvars() == 0
    assert result.is_zero_ideal()
    unit = Ideal(ring, [parse_polynomial("2", ring)])
    result = eliminate(unit, ["x"])
    assert result.is_unit_ideal()


def test_quotient_by_unit_ideal_is_zero_ring():
    ring = PolyRing(QQ, ["x"], GREVLEX)
    with pytest.raises(ZeroRingError):
        FiniteAlgebra(Ideal(ring, [parse_polynomial("1", ring)]))


def test_polynomial_constructor_rejects_bad_exponents():
    ring = PolyRing(QQ, ["x", "y"], GREVLEX)
    from cartierlab.polycore.rings import Polynomial

    with pytest.raises(CartierlabError):
        Polynomial(ring, {(1,): Fraction(1)})
    with pytest.raises(CartierlabError):
        Polynomial(ring, {(-1, 0): Fraction(1)})
    assert Polynomial(ring, {(0, 0): Fraction(0)}).is_zero()


def test_membership_with_colliding_variable_names():
    # A and B both use the name x, but x maps to x^2
    ext = build(QQ, ["x"], [], ["x"], [], {"x": "x^2"})
    x = parse_polynomial("x", ext.b_ring)
    assert not ext.contains(x).member
    res = ext.contains(parse_polynomial("x^2", ext.b_ring))
    assert res.member
    assert str(res.preimage) == "x"
    res = ext.contains(parse_polynomial("x^6 - 2*x^2", ext.b_ring))
    assert res.member
    assert str(res.preimage) == "x^3 - 2*x"


@pytest.mark.parametrize("p", [7, 13])
@pytest.mark.parametrize("c", [1, 2, 3])
def test_generic_quadratic_split_over_a_prime_function_field(p, c):
    # the generic fiber is FP(p)(x)[y]/(y^2 - c*x^2), two points exactly when
    # c is a square mod p: the discriminant's root needs the root of c in F_p
    ext = build(PrimeField(p), ["x"], [], ["x", "y"], [f"y^2 - {c}*x^2"], {"x": "x"})
    report = stalk_rank(ext, None)
    split = any(r * r % p == c for r in range(p))
    assert report.residue_description() == f"FP({p})(x)"
    assert (report.fiber_components, report.stalk_rank) == ((2, 1) if split else (1, 0))


def test_prime_field_residue_splitting():
    f5 = PrimeField(5)
    ext = build(
        f5, ["x"], [], ["x", "u"], ["u^2 + 2"], {"x": "x"}, Hints(finite=True)
    )
    inert = Ideal(ext.a_ring, [parse_polynomial("x", ext.a_ring)])
    report = stalk_rank(ext, inert)
    assert report.fiber_components == 1 and report.stalk_rank == 0
    split = Ideal(ext.a_ring, [parse_polynomial("x^2 + 2", ext.a_ring)])
    report = stalk_rank(ext, split)
    assert report.fiber_components == 2 and report.stalk_rank == 1
    assert report.residue_description() == "FP(5)[g]/(g^2 + 2)"
