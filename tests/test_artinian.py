from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oracles import brute_idempotent_count, per_vector_first_dependence
from cartierlab import artinian
from cartierlab.artinian import (
    component_count,
    components_over_subring,
    idempotent_decomposition,
    is_field_algebra,
    is_reduced,
    minimal_polynomial,
    nilradical_span,
    primitive_element_presentation,
    quotient_algebra,
    radical_generators,
)
from cartierlab.errors import (
    NotFiniteOverSubring,
    NotZeroDimensional,
    ProbeExhausted,
    UNKNOWN,
    ZeroRingError,
)
from cartierlab.polycore import (
    GREVLEX,
    Ideal,
    PolyRing,
    PrimeField,
    QQ,
    SimpleExtensionField,
    parse_polynomial,
)
from cartierlab.polycore import unipoly as up
from cartierlab.polycore.linalg import first_dependence


def algebra(field, variables, texts):
    ring = PolyRing(field, variables, GREVLEX)
    return quotient_algebra(ring, Ideal(ring, [parse_polynomial(t, ring) for t in texts]))


def test_staircase_bases():
    a = algebra(QQ, ["t"], ["t^2 - 1"])
    assert a.dim == 2 and a.basis == ((0,), (1,))
    b = algebra(QQ, ["x", "y"], ["x^2", "x*y", "y^2"])
    assert b.dim == 3
    c = algebra(QQ, ["t"], ["t^3 - t"])
    assert c.dim == 3
    d = algebra(QQ, [], [])
    assert d.dim == 1


def test_not_zero_dimensional_names_variable():
    ring = PolyRing(QQ, ["x", "y"], GREVLEX)
    with pytest.raises(NotZeroDimensional) as err:
        quotient_algebra(ring, Ideal(ring, [parse_polynomial("x^2", ring)]))
    assert err.value.variable == "y"


def test_multiplication_is_commutative_and_associative():
    a = algebra(QQ, ["x", "y"], ["x^2 - y", "y^2 - 1"])
    elems = [a.basis_element(i) for i in range(a.dim)]
    for u in elems:
        for v in elems:
            assert a.mul(u, v) == a.mul(v, u)
            for w in elems:
                assert a.mul(a.mul(u, v), w) == a.mul(u, a.mul(v, w))


def test_minimal_polynomial_examples():
    a = algebra(QQ, ["t"], ["t^2 - 1"])
    one = a.one()
    m = minimal_polynomial(a, one)
    assert m == (Fraction(-1), Fraction(1))  # z - 1
    t = a.variable_element("t")
    assert minimal_polynomial(a, t) == (Fraction(-1), Fraction(0), Fraction(1))


def test_minimal_polynomial_by_dependence_oracle():
    # a = t + t^2 in QQ[t]/(t^3 - t): powers are 1, a, a^2 = 2t + 2t^2 = 2a,
    # so the first dependence gives z^2 - 2z
    a = algebra(QQ, ["t"], ["t^3 - t"])
    elem = a.from_poly(parse_polynomial("t + t^2", a.ring))
    sq = a.mul(elem, elem)
    assert sq == a.scale(Fraction(2), elem)  # the dependence the oracle finds
    m = minimal_polynomial(a, elem)
    assert m == (Fraction(0), Fraction(-2), Fraction(1))
    assert a.eval_upoly(m, elem) == a.zero()
    assert len(m) - 1 <= a.dim


def test_idempotents_t2_minus_1():
    a = algebra(QQ, ["t"], ["t^2 - 1"])
    dec = idempotent_decomposition(a)
    assert dec.count == 2
    t = a.variable_element("t")
    half = Fraction(1, 2)
    e1 = a.scale(half, a.add(a.one(), t))
    e2 = a.scale(half, a.sub(a.one(), t))
    assert set(dec.idempotents) == {e1, e2}


def test_idempotents_local_and_node_fiber():
    assert component_count(algebra(QQ, ["t"], ["t^2"])) == 1
    assert component_count(algebra(QQ, ["t"], ["t^2 - 1", "t^3 - t"])) == 2


def test_decomposition_invariants():
    a = algebra(QQ, ["x", "u"], ["x^2 + 1", "u^2 + 1"])
    dec = idempotent_decomposition(a)
    assert dec.count == 2
    total = a.zero()
    for e in dec.idempotents:
        assert a.mul(e, e) == e
        assert not a.is_zero_elem(e)
        total = a.add(total, e)
    assert total == a.one()
    for i, e in enumerate(dec.idempotents):
        for f in dec.idempotents[i + 1:]:
            assert a.is_zero_elem(a.mul(e, f))


def test_component_count_against_f5_enumeration():
    """Idempotent counts over F_5 match exhaustive enumeration (10 algebras)."""
    f5 = PrimeField(5)
    rng = random.Random(55)
    cases = 0
    while cases < 10:
        # random univariate quotient of dimension <= 4 plus an optional nil line
        deg = rng.randint(1, 4)
        coeffs = [rng.randrange(5) for _ in range(deg)] + [1]
        ring = PolyRing(f5, ["t"], GREVLEX)
        poly = ring.zero()
        for i, c in enumerate(coeffs):
            if c:
                poly = poly + ring.monomial((i,), f5.from_int(c))
        if poly.total_degree() < 1:
            continue
        alg = quotient_algebra(ring, Ideal(ring, [poly]))
        if alg.dim > 4:
            continue
        count = component_count(alg)
        assert count is not UNKNOWN
        assert count == brute_idempotent_count(5, alg.dim, alg.mul)
        cases += 1


def test_product_with_connected_factor_doubles_components():
    # QQ[u]/(u^2-u) tensored with three connected algebras
    for extra in (["t^2"], ["t^3"], ["t^2 + 1"]):
        a = algebra(QQ, ["u", "t"], ["u^2 - u"] + extra)
        assert component_count(a) == 2


def test_reducedness_and_radicals():
    a = algebra(QQ, ["t"], ["t^2"])
    assert not is_reduced(a)
    gens = radical_generators(a)
    assert [str(g) for g in gens] == ["t"]
    span = nilradical_span(a)
    assert len(span) == 1
    b = algebra(QQ, ["t"], ["t^2 - 1"])
    assert is_reduced(b)
    assert nilradical_span(b) == []


def test_field_detection_and_primitive_element():
    a = algebra(QQ, ["x"], ["x^2 + 1"])
    assert is_field_algebra(a) is True
    K = primitive_element_presentation(a)
    assert isinstance(K, SimpleExtensionField)
    assert up.udeg(K.min_poly) == 2
    b = algebra(QQ, ["x"], ["x^2 - 1"])
    assert is_field_algebra(b) is False
    c = algebra(QQ, [], [])
    assert is_field_algebra(c) is True
    assert primitive_element_presentation(c) == QQ


def test_components_over_subring_cases():
    ring = PolyRing(QQ, ["b", "e"], GREVLEX)
    split = Ideal(ring, [parse_polynomial("e^2 - e", ring)])
    assert components_over_subring(ring, split, ["b"]) == 2
    twisted = Ideal(ring, [parse_polynomial("e^2 - e - 3*b", ring)])
    assert components_over_subring(ring, twisted, ["b"]) == 1
    domain_ring = PolyRing(QQ, ["b"], GREVLEX)
    assert components_over_subring(domain_ring, Ideal(domain_ring, []), ["b"]) == 1


def test_components_over_subring_in_characteristic_p():
    # over F_2(b) the constants 0, 1 are too few for a primitive element of
    # F_2(b)^4; the candidates go on with b, b + 1, b^2, ...
    ring = PolyRing(PrimeField(2), ["b", "x", "y"], GREVLEX)
    ideal = Ideal(ring, [parse_polynomial(t, ring) for t in ("x^2 + x", "y^2 + y")])
    assert components_over_subring(ring, ideal, ["b"]) == 4
    # x + b*y is primitive; its minimal polynomial, cut at x = 0 and x = 1,
    # leaves two quadratics that y^2 + y + 1 shows irreducible with no factor
    # search, which over F_2(b) stops at degree 1 for such coefficients
    field4 = Ideal(ring, [parse_polynomial(t, ring) for t in ("x^2 + x", "y^2 + y + 1")])
    assert components_over_subring(ring, field4, ["b"]) == 2


def test_components_over_subring_non_integral_is_unknown():
    # y^2 - x^2 over QQ[x]: the generic idempotents have denominator 2x
    ring = PolyRing(QQ, ["x", "y"], GREVLEX)
    ideal = Ideal(ring, [parse_polynomial("y^2 - x^2", ring)])
    assert components_over_subring(ring, ideal, ["x"]) is UNKNOWN


def test_components_over_subring_requires_finiteness():
    ring = PolyRing(QQ, ["b", "e"], GREVLEX)
    with pytest.raises(NotFiniteOverSubring):
        components_over_subring(ring, Ideal(ring, []), ["b"])
    with pytest.raises(NotFiniteOverSubring):
        components_over_subring(ring, Ideal(ring, []), ["b", "e"])


# -- certified counts: primitive element of A_red, Frobenius kernel ------------


def assert_primitive_idempotents(alg, count):
    """The decomposition has `count` nonzero idempotents, pairwise
    orthogonal, summing to 1."""
    dec = idempotent_decomposition(alg)
    assert dec.count == count == len(dec.idempotents)
    total = alg.zero()
    for i, e in enumerate(dec.idempotents):
        assert alg.mul(e, e) == e
        assert not alg.is_zero_elem(e)
        for f in dec.idempotents[i + 1:]:
            assert alg.is_zero_elem(alg.mul(e, f))
        total = alg.add(total, e)
    assert total == alg.one()


@pytest.fixture
def frobenius_calls(monkeypatch):
    """Counts the algebras whose count went through the Frobenius kernel."""
    calls = []
    original = artinian._frobenius_kernel

    def counting(alg):
        calls.append(alg.dim)
        return original(alg)

    monkeypatch.setattr(artinian, "_frobenius_kernel", counting)
    return calls


def _random_poly(rng, ring, p, degrees):
    """Sum of random coefficients times x^i y^j for (i, j) in degrees."""
    total = ring.zero()
    for exps in degrees:
        c = rng.randrange(p)
        if c:
            total = total + ring.monomial(exps, ring.field.from_int(c))
    return total


def _random_bivariate(rng, p):
    """k[x, y]/(f(x), y^k + c_1(x) y^(k-1) + ... [, h]) over F_p, dim <= 6;
    for half of them the c_i are constants."""
    ring = PolyRing(PrimeField(p), ["x", "y"], GREVLEX)
    dx = rng.randint(1, 3)
    dy = rng.randint(1, max(1, 6 // dx))
    f = ring.monomial((dx, 0), 1) + _random_poly(rng, ring, p, [(i, 0) for i in range(dx)])
    tangled = rng.random() < 0.5  # g(x, y), else g(y): a tensor product
    g = ring.monomial((0, dy), 1) + _random_poly(
        rng, ring, p, [(i, j) for i in range(dx if tangled else 1) for j in range(dy)])
    gens = [f, g]
    if rng.random() < 0.3:
        gens.append(_random_poly(rng, ring, p, [(1, 1), (0, 1), (1, 0), (0, 0)]))
    return quotient_algebra(ring, Ideal(ring, gens))


def test_bivariate_counts_over_f2_f3_match_enumeration(frobenius_calls):
    """Random bivariate algebras with several Galois orbits, against brute force."""
    rng = random.Random(2023)
    counts = []
    for p in (2, 3):
        cases = 0
        while cases < 40:
            try:
                alg = _random_bivariate(rng, p)
            except ZeroRingError:
                continue
            if alg.dim < 2 or p**alg.dim > 729:
                continue
            expected = brute_idempotent_count(p, alg.dim, alg.mul)
            assert component_count(alg) == expected
            assert_primitive_idempotents(alg, expected)
            counts.append(expected)
            cases += 1
    assert max(counts) >= 3
    assert frobenius_calls  # some of them have no provable primitive element


@pytest.mark.parametrize("p, relations, count, frobenius", [
    (2, ["x^2 + x", "y^2 + y"], 4, True),  # F_2^4: no primitive element over F_2
    (2, ["x^2 + x + 1", "y^2 + y + 1"], 2, True),  # F_4 (x) F_4 = F_4^2
    (3, ["x^2 + 1", "y^2 + 1"], 2, True),  # F_9 (x) F_9 = F_9^2
    (2, ["x^3 + x + 1", "y^2 + y + 1"], 1, True),  # F_8 (x) F_4 = F_64
    (2, ["x^2", "y^2 + y"], 2, False),  # y is primitive in A_red = F_2[y]/(y^2 + y)
    (3, ["(x^2 + 1)^2", "y - x"], 1, False),  # x is primitive in A
])
def test_small_prime_fields(p, relations, count, frobenius, frobenius_calls):
    alg = algebra(PrimeField(p), ["x", "y"], relations)
    assert brute_idempotent_count(p, alg.dim, alg.mul) == count
    assert component_count(alg) == count
    assert_primitive_idempotents(alg, count)
    assert bool(frobenius_calls) is frobenius


@pytest.mark.parametrize("field, variables, relations, count", [
    # factors of x: x - 1, x + 2, x^2 + 1; of y: y, y - 3; every pair has a
    # linear member, so each pair is one field: 3 * 2 components
    (QQ, ["x", "y"], ["(x - 1)^2*(x + 2)*(x^2 + 1)", "y^2*(y - 3)"], 6),
    # QQ(i) (x) QQ(i) = QQ(i)^2, plus QQ(i) (x) QQ at y = 7
    (QQ, ["x", "y"], ["(x^2 + 1)^2", "(y^2 + 1)*(y - 7)"], 3),
    (QQ, ["x", "y"], ["(x^2 - 2)^2", "y^2 + 1"], 1),  # QQ(sqrt 2, i)
    (QQ, ["x", "y", "z"], ["x^2", "y^2 - y", "z^2 - 2"], 2),
    # four fields of degree 4 or 2: the primitive element x + y has a minimal
    # polynomial of degree 12, above the QQ factor cap, so it is factored in
    # the pieces the factors of x and y cut it into
    (QQ, ["x", "y"], ["(x^2 - 2)*(x^2 - 3)", "(y^2 - 5)*(y - 1)"], 4),
    (QQ, ["x", "y"], ["x^2 - 2", "(y - x)^3"], 1),
    # 32003 = 3 mod 4, so x^2 + 1 is irreducible
    (PrimeField(32003), ["x", "y"], ["(x - 1)^2*(x - 2)*(x^2 + 1)", "(y - 3)^3*(y + 4)"], 6),
    (PrimeField(32003), ["x", "y"], ["(x^2 + 1)^2", "(y^2 + 1)*(y - 7)"], 3),
    (PrimeField(32003), ["x", "y", "z"], ["(x - 5)^2", "y^2 + 1", "(z - 1)*(z - 2)*z^2"], 3),
])
def test_counts_known_by_construction(field, variables, relations, count, frobenius_calls):
    alg = algebra(field, variables, relations)
    assert component_count(alg) == count
    assert_primitive_idempotents(alg, count)
    assert is_field_algebra(alg) is (count == 1 and is_reduced(alg))
    assert not frobenius_calls


def test_variable_minimal_polynomials_are_computed_once(monkeypatch):
    calls = []
    original = artinian.minimal_polynomial

    def counting(alg, a):
        calls.append(a)
        return original(alg, a)

    monkeypatch.setattr(artinian, "minimal_polynomial", counting)
    a = algebra(QQ, ["x", "y"], ["x^2 - 2", "y - 3*x"])
    assert is_field_algebra(a) is True
    assert len(calls) == 2  # one per variable; x is primitive


def test_non_prime_finite_field_without_primitive_element_is_unknown():
    f4 = SimpleExtensionField(PrimeField(2), (1, 1, 1), generator="w")
    a = algebra(f4, ["x", "y"], ["x^2 + x", "y^2 + y"])
    assert component_count(a) is UNKNOWN
    with pytest.raises(ProbeExhausted, match="no candidate is primitive over FP"):
        idempotent_decomposition(a)


def test_incremental_first_dependence_matches_per_vector_elimination():
    rng = random.Random(77)
    for field in (QQ, PrimeField(3), PrimeField(32003)):
        for _ in range(60):
            dim = rng.randint(1, 6)
            count = rng.randint(1, dim + 2)
            vectors = []
            for _ in range(count):
                if vectors and rng.random() < 0.3:  # a combination of earlier vectors
                    vec = [field.zero()] * dim
                    for w in vectors:
                        c = field.from_int(rng.randint(-3, 3))
                        vec = [field.add(a, field.mul(c, b)) for a, b in zip(vec, w)]
                else:
                    vec = [field.from_int(rng.randint(-3, 3)) for _ in range(dim)]
                vectors.append(vec)
            assert first_dependence(field, vectors) == per_vector_first_dependence(field, vectors)
