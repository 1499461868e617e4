from __future__ import annotations

from fractions import Fraction

from oracles import membership_by_linear_algebra
from cartierlab.polycore import (
    GREVLEX,
    Ideal,
    PolyRing,
    QQ,
    colon,
    eliminate,
    ideal_equals,
    ideal_sum,
    intersect,
    parse_polynomial,
)


def ring_xy():
    return PolyRing(QQ, ["x", "y"], GREVLEX)


def I(ring, *texts):
    return Ideal(ring, [parse_polynomial(t, ring) for t in texts])


def test_intersect_principal():
    ring = ring_xy()
    meet = intersect(I(ring, "x"), I(ring, "y"))
    assert ideal_equals(meet, I(ring, "x*y"))
    # both inclusions, via the independent membership oracle
    assert membership_by_linear_algebra({(1, 1): Fraction(1)}, [{(1, 0): Fraction(1)}], 2, 4)
    assert membership_by_linear_algebra({(1, 1): Fraction(1)}, [{(0, 1): Fraction(1)}], 2, 4)


def test_colon_principal():
    ring = ring_xy()
    quot = colon(I(ring, "x*y"), I(ring, "x"))
    assert ideal_equals(quot, I(ring, "y"))


def test_colon_zero_divisor_ideal():
    ring = ring_xy()
    quot = colon(I(ring, "x"), Ideal(ring, []))
    assert quot.is_unit_ideal()


def test_eliminate_substitution():
    ring = ring_xy()
    ideal = I(ring, "y - x^2", "x - 1")
    result = eliminate(ideal, ["x"])
    assert [str(g) for g in result.groebner()] == ["y - 1"]


def test_eliminate_into_target_ring():
    ring = ring_xy()
    target = PolyRing(QQ, ["y"], GREVLEX)
    result = eliminate(I(ring, "y - x^2", "x - 1"), ["x"], target_ring=target)
    assert result.ring == target
    assert [str(g) for g in result.groebner()] == ["y - 1"]


def test_sum():
    ring = ring_xy()
    s = ideal_sum(I(ring, "x"), I(ring, "y"))
    assert ideal_equals(s, I(ring, "x", "y"))


def test_node_relation_appears_in_contraction():
    # eliminating t from (x - t^2 + 1, y - t^3 + t) leaves the nodal cubic
    work = PolyRing(QQ, ["t", "x", "y"], GREVLEX)
    ideal = I(work, "x - t^2 + 1", "y - t^3 + t")
    target = ring_xy()
    contracted = eliminate(ideal, ["t"], target_ring=target)
    node = parse_polynomial("y^2 - x^3 - x^2", target)
    assert contracted.contains_poly(node)
    assert ideal_equals(contracted, Ideal(target, [node]))
