from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oracles import colon_by_intersection, membership_by_linear_algebra
from cartierlab.polycore import (
    GREVLEX,
    Ideal,
    PolyRing,
    PrimeField,
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


def _terms(rng, ring, degree, count, signs=(1,)):
    """count terms of positive degree at most `degree` per variable; with
    the default signs no coefficient cancels."""
    total = ring.zero()
    for _ in range(count):
        exps = (0,) * len(ring.variables)
        while not any(exps):
            exps = tuple(rng.randint(0, degree) for _ in ring.variables)
        coeff = rng.choice(signs) * rng.randint(1, 3)
        total = total + ring.monomial(exps, ring.field.from_int(coeff))
    return total


def _random_poly(rng, ring, degree=1):
    return ring.one() + _terms(rng, ring, degree, rng.randint(0, 2))


def _linear_factors(ring, name, roots):
    v = ring.variable(name)
    product = ring.one()
    for a in roots:
        product = product * (v - ring.from_int(a))
    return product


def _zero_dimensional(rng, ring):
    """A grid of points, some of them fat, cut by one more element through
    one of them; returns the ideal and the coordinates of each variable."""
    roots = {name: [rng.randint(-2, 2) for _ in range(rng.randint(2, 3))] for name in ring.variables}
    gens = [_linear_factors(ring, name, rs) for name, rs in roots.items()]
    through = ring.one()
    for name, rs in roots.items():
        through = through * _linear_factors(ring, name, rs[:1])
    return Ideal(ring, gens + [through * _random_poly(rng, ring)]), roots


def _divisor(rng, ring, roots, generators):
    """Each generator vanishes along some coordinate lines of the grid."""
    return Ideal(ring, [
        _linear_factors(ring, name, [rng.choice(rs)]) * _random_poly(rng, ring)
        for name, rs in (rng.choice(sorted(roots.items())) for _ in range(generators))])


def _cases(field):
    """(I, J) pairs for `colon`: seeded zero-dimensional I against one- and
    two-generator J, then the edge cases."""
    rng = random.Random(2511)
    plane = PolyRing(field, ["x", "y"], GREVLEX)
    space = PolyRing(field, ["x", "y", "z"], GREVLEX)
    for ring in (plane,) * 8 + (space,) * 4:
        ideal, roots = _zero_dimensional(rng, ring)
        yield ideal, _divisor(rng, ring, roots, rng.randint(1, 2))
    for _ in range(8):  # a fat point at the origin, where I's tails meet the new leading terms
        powers = [plane.variable(v) ** rng.randint(3, 4) for v in plane.variables]
        relations = [_terms(rng, plane, 3, rng.randint(1, 3), (1, -1)) for _ in range(2)]
        yield Ideal(plane, powers + relations), Ideal(plane, [_terms(rng, plane, 2, 3, (1, -1))])
    ideal, _ = _zero_dimensional(rng, plane)
    yield ideal, Ideal(plane, [ideal.generators[0] * _random_poly(rng, plane)])  # J in I: unit
    yield I(plane, "x^2", "x*y", "y^3"), I(plane, "1 + x + y^2")  # a unit mod I: I itself
    yield I(plane, "x", "x - 1"), I(plane, "y")  # the unit ideal I
    yield I(plane, "x^2*y", "x*y^2"), I(plane, "x*y", "x + y")  # positive-dimensional I
    yield I(plane, "x^2", "y^2"), Ideal(plane, [])  # J = 0


@pytest.mark.parametrize("field", (QQ, PrimeField(32003)), ids=("QQ", "F_32003"))
def test_colon_matches_the_intersection_reference(field):
    for ideal, divisor in _cases(field):
        quot = colon(ideal, divisor)
        assert quot.groebner() == colon_by_intersection(ideal, divisor).groebner()
        assert all(ideal.contains_poly(g * h) for g in quot.groebner() for h in divisor.generators)


def test_colon_edges():
    ring = ring_xy()
    assert colon(I(ring, "x^2", "x*y", "y^2"), I(ring, "x^2 + x*y")).is_unit_ideal()
    local = I(ring, "x^2", "x*y", "y^3")
    quot = colon(local, I(ring, "1 + x + y^2"))
    assert quot.generators == local.groebner()  # an empty kernel adopts I's basis
    assert colon(I(ring, "x", "x - 1"), I(ring, "y")).is_unit_ideal()
    assert ideal_equals(colon(I(ring, "x^2*y", "x*y^2"), I(ring, "x*y")), I(ring, "x", "y"))
