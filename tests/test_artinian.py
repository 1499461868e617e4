from __future__ import annotations

import random
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from oracles import brute_idempotent_count, per_vector_first_dependence
from cartierlab import artinian
from cartierlab.artinian import (
    FiniteAlgebra,
    component_count,
    components_over_subring,
    idempotent_decomposition,
    is_field_algebra,
    is_reduced,
    minimal_polynomial,
    nilradical_span,
    primitive_element_presentation,
    radical_generators,
    reduced_algebra,
)
from cartierlab.errors import (
    NotFiniteOverSubring,
    NotZeroDimensional,
    UNKNOWN,
    ZeroRingError,
)
from cartierlab.polycore import (
    GREVLEX,
    Ideal,
    PolyRing,
    PrimeField,
    Polynomial,
    QQ,
    parse_polynomial,
)
from cartierlab.polycore import unipoly as up
from cartierlab.polycore.factor import verify_irreducible
from cartierlab.polycore.fields import RationalFunctionField
from cartierlab.polycore.linalg import first_dependence


def algebra(field, variables, texts):
    ring = PolyRing(field, variables, GREVLEX)
    return FiniteAlgebra(Ideal(ring, [parse_polynomial(t, ring) for t in texts]))


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
        FiniteAlgebra(Ideal(ring, [parse_polynomial("x^2", ring)]))
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


def test_component_count_appends_the_reason_for_unknown():
    from cartierlab.polycore.fields import RationalFunctionField

    reasons = []
    field = RationalFunctionField(PrimeField(3), "x")
    alg = algebra(field, ["y"], ["y^3 - x"])
    assert component_count(alg, reasons) is UNKNOWN
    assert reasons == ["2*x is not a p-th power in FP(3)(x)"]
    assert component_count(algebra(QQ, ["t"], ["t^2 - 1"]), reasons) == 2
    assert len(reasons) == 1


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
        alg = FiniteAlgebra(Ideal(ring, [poly]))
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


def _seeded_residue_algebras(seed):
    """Two quotients of a free ring by a maximal ideal: x^2 - a, y - b*x over
    QQ for a non-square a, and F_p[x] modulo a cubic with no root mod p."""
    rng = random.Random(seed)
    a, b = rng.choice([2, 3, 5, 6, 7, 10]), rng.randint(1, 9)
    p = rng.choice([2, 3, 5, 7, 11])
    while True:
        c0, c1, c2 = (rng.randrange(p) for _ in range(3))
        if all((r**3 + c2 * r * r + c1 * r + c0) % p for r in range(p)):
            break
    return [algebra(QQ, ["x", "y"], [f"x^2 - {a}", f"y - {b}*x"]),
            algebra(PrimeField(p), ["x"], [f"x^3 + {c2}*x^2 + {c1}*x + {c0}"])]


def test_field_detection_and_primitive_element():
    sympy = pytest.importorskip("sympy")
    a = algebra(QQ, ["x"], ["x^2 + 1"])
    assert is_field_algebra(a) is True
    K = primitive_element_presentation(a)
    assert K.min_poly == (1, 0, 1) and K.describe() == "QQ[g]/(g^2 + 1)"
    b = algebra(QQ, ["x"], ["x^2 - 1"])
    assert is_field_algebra(b) is False
    c = algebra(QQ, [], [])
    assert is_field_algebra(c) is True
    assert primitive_element_presentation(c) == QQ
    # the record's m is irreducible because its algebra is a certified field,
    # and nothing checks it again: the factorizer and sympy agree here
    residues = [
        algebra(QQ, ["x", "y"], ["x^2 - 2", "y^2 - 3"]),  # no variable is primitive
        algebra(PrimeField(5), ["x", "y"], ["x^2 - 2", "y^3 + y + 1"]),  # Frobenius kernel
        # F_64: over F_2 the one candidate x + y + z = y + 1 lies in F_8, and
        # the search goes on to the other combinations, where x + y is primitive
        algebra(PrimeField(2), ["x", "y", "z"], ["x^2 + x + 1", "y^3 + y + 1", "z + x + 1"]),
    ] + [alg for seed in range(4) for alg in _seeded_residue_algebras(seed)]
    g = sympy.Symbol("g")
    for alg in residues:
        assert is_field_algebra(alg) is True
        record = primitive_element_presentation(alg)
        assert up.udeg(record.min_poly) == alg.dim
        verify_irreducible(alg.field, record.min_poly)
        modulus = {"modulus": alg.field.p} if alg.field.characteristic else {"domain": "QQ"}
        assert sympy.Poly(record.min_poly[::-1], g, **modulus).is_irreducible


def test_components_over_subring_cases():
    ring = PolyRing(QQ, ["b", "e"], GREVLEX)
    split = Ideal(ring, [parse_polynomial("e^2 - e", ring)])
    assert components_over_subring(split, "b") == 2
    twisted = Ideal(ring, [parse_polynomial("e^2 - e - 3*b", ring)])
    assert components_over_subring(twisted, "b") == 1
    domain_ring = PolyRing(QQ, ["b"], GREVLEX)
    assert components_over_subring(Ideal(domain_ring, []), "b") == 1


def test_components_over_subring_in_characteristic_p():
    # over F_2(b) the constants 0, 1 are too few for a primitive element of
    # F_2(b)^4; the candidates go on with b, b + 1, b^2, ...
    ring = PolyRing(PrimeField(2), ["b", "x", "y"], GREVLEX)
    ideal = Ideal(ring, [parse_polynomial(t, ring) for t in ("x^2 + x", "y^2 + y")])
    assert components_over_subring(ideal, "b") == 4
    # x + b*y is primitive; its minimal polynomial, cut at x = 0 and x = 1,
    # leaves two quadratics that y^2 + y + 1 shows irreducible with no factor
    # search, which over F_2(b) stops at degree 1 for such coefficients
    field4 = Ideal(ring, [parse_polynomial(t, ring) for t in ("x^2 + x", "y^2 + y + 1")])
    assert components_over_subring(field4, "b") == 2


def test_components_over_subring_non_integral_is_unknown():
    # y^2 - x^2 over QQ[x]: the generic idempotents have denominator 2x
    ring = PolyRing(QQ, ["x", "y"], GREVLEX)
    ideal = Ideal(ring, [parse_polynomial("y^2 - x^2", ring)])
    assert components_over_subring(ideal, "x") is UNKNOWN


def test_components_over_subring_requires_finiteness():
    ring = PolyRing(QQ, ["b", "e"], GREVLEX)
    with pytest.raises(NotFiniteOverSubring):
        components_over_subring(Ideal(ring, []), "b")


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
    return FiniteAlgebra(Ideal(ring, gens))


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
    # polynomial of degree 12, which is factored in the pieces the factors
    # of x and y cut it into
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


@pytest.mark.parametrize("relations, count", [
    (["x^6 - 2", "y^2 - 2"], 2),  # sqrt 2 = (2^(1/6))^3 lies in QQ(2^(1/6))
    (["x^3 - 2", "y^3 - 3"], 1),  # QQ(2^(1/3), 3^(1/3)) has degree 9
    (["x^4 - 2", "y^2 + 1"], 1),  # QQ(2^(1/4), i) has degree 8
])
def test_counts_of_number_field_products(relations, count):
    alg = algebra(QQ, ["x", "y"], relations)
    start = time.perf_counter()
    assert component_count(alg) == count
    assert time.perf_counter() - start < 1


def test_squarefree_parts_are_computed_once_per_algebra(monkeypatch):
    calls = []
    original = up.usquarefree_part

    def recording(field, p):
        calls.append(p)
        return original(field, p)

    monkeypatch.setattr(up, "usquarefree_part", recording)
    # x is primitive in the first, nothing is primitive in the second
    for relations in (["(x^2 - 2)^2", "y - x^2"], ["x^2*(x - 1)", "y^2 - 1", "x*y - x"]):
        alg = algebra(QQ, ["x", "y"], relations)
        count = component_count(alg)
        calls.clear()
        radical_generators(alg)
        reduced_algebra(alg)
        assert is_field_algebra(alg) is False
        nilradical_span(alg)
        assert component_count(alg) == count
        assert idempotent_decomposition(alg).count == count
        assert calls == []


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


@pytest.fixture
def variable_min_polys(monkeypatch):
    """(algebra ideal, variable name) for every minimal polynomial computed of
    a variable element, in call order."""
    calls = []
    original = artinian.minimal_polynomial

    def recording(alg, a):
        for name in alg.ring.variables:
            if a == alg.variable_element(name):
                calls.append((alg.ideal.generators, name))
        return original(alg, a)

    monkeypatch.setattr(artinian, "minimal_polynomial", recording)
    return calls


def test_bass_decompose_computes_each_variable_minimal_polynomial_once(variable_min_polys):
    from cartierlab.laurent import bass_decompose, parse_laurent

    base = algebra(QQ, ["e", "eps"], ["e^2 - e", "eps^2", "e*eps"])
    dec = bass_decompose(parse_laurent("e*t^2 + 1 - e + eps*t^-1", base))
    assert dec.exponents == (0, 2) or dec.exponents == (2, 0)
    assert variable_min_polys
    assert [key for key, n in Counter(variable_min_polys).items() if n > 1] == []


def test_primitive_element_presentation_reuses_verify_maximal_minimal_polynomials(
        variable_min_polys):
    from cartierlab.cartier import verify_maximal
    from cartierlab.extensions import ExtensionPresentation

    ring = PolyRing(QQ, ["x", "y"], GREVLEX)
    ext = ExtensionPresentation(ring, Ideal(ring, []), Ideal(ring, []),
                                {v: ring.variable(v) for v in ring.variables})
    prime = Ideal(ring, [parse_polynomial(t, ring) for t in ("x^2 - 2", "y - 3*x")])
    residue = verify_maximal(ext, prime)
    assert len(variable_min_polys) == 2
    variable_min_polys.clear()
    field = primitive_element_presentation(residue)
    assert field.describe() == "QQ[g]/(g^2 - 2)"
    assert variable_min_polys == []


@pytest.mark.parametrize("field, variables, relations", [
    (QQ, ["x", "y", "z"], ["x^2 - 2", "y^2 - 3", "z - 1"]),  # z has degree 1
    (QQ, ["x", "y"], ["x^2*(x - 1)", "y^2 - 1", "x*y - x"]),  # not reduced
    (PrimeField(101), ["x", "y"], ["x^3 - 2", "y^2 - 3"]),
])
def test_component_count_takes_each_squarefree_part_once(monkeypatch, field, variables,
                                                         relations):
    callers = []
    original = up.usquarefree_part

    def recording(field, p):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return original(field, p)

    monkeypatch.setattr(up, "usquarefree_part", recording)
    alg = algebra(field, variables, relations)
    component_count(alg)
    # the factorizer is handed squarefree inputs and never takes the part again
    assert callers == ["cartierlab.artinian"] * sum(
        up.udeg(m) >= 2 for m in alg.minimal_polynomials())


def test_stalk_rank_computes_each_minimal_polynomial_once_per_algebra(monkeypatch):
    from cartierlab.cartier import stalk_rank
    from cartierlab.extensions import ExtensionPresentation

    calls = []
    original = artinian.minimal_polynomial

    def recording(alg, a):
        calls.append((alg, a))
        return original(alg, a)

    monkeypatch.setattr(artinian, "minimal_polynomial", recording)
    ring = PolyRing(QQ, ["x", "y"], GREVLEX)
    ext = ExtensionPresentation(ring, Ideal(ring, []), Ideal(ring, []),
                                {v: ring.variable(v) for v in ring.variables})
    prime = Ideal(ring, [parse_polynomial(t, ring) for t in ("x^2 - 2", "y^2 - 3")])
    report = stalk_rank(ext, prime)
    assert report.residue_description() == "QQ[g]/(g^4 - 10*g^2 + 1)"
    assert report.fiber_components == 1
    # the residue algebra and the fiber: x + y once on each
    sums = [alg for alg, a in calls
            if a == alg.add(alg.variable_element("x"), alg.variable_element("y"))]
    assert len(sums) == 2 and sums[0] is not sums[1]


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


def test_staircase_is_shared_by_algebras_and_spanning_monomials():
    ring = PolyRing(QQ, ["x", "y"], GREVLEX)
    leading = [(2, 0), (1, 1), (0, 3)]
    assert artinian.staircase(leading, ring) == [
        (0, 0), (0, 1), (1, 0), (0, 2),
    ]
    alg = FiniteAlgebra(Ideal(ring, [parse_polynomial(t, ring)
                                           for t in ("x^2", "x*y", "y^3")]))
    assert alg.basis == ((0, 0), (0, 1), (1, 0), (0, 2))
    with pytest.raises(NotZeroDimensional) as info:
        artinian.staircase([(2, 0), (1, 1)], ring)
    assert str(info.value) == (
        "ideal is not zero-dimensional: no pure power of 'y' among the leading terms"
    )


def test_components_over_subring_refuses_a_quotient_with_torsion():
    # QQ[x] x QQ over QQ[x]: the point (0, 1) is x-torsion, and the generic
    # fiber over QQ(x) sees only the line
    ring = PolyRing(QQ, ["x", "y"], GREVLEX)
    ideal = Ideal(ring, [parse_polynomial(t, ring) for t in ("y^2 - y", "x*y")])
    with pytest.raises(NotFiniteOverSubring, match="x-torsion"):
        components_over_subring(ideal, "x")
    # x*y - 1: the leading coefficient x is a unit, so there is no torsion
    unit = Ideal(ring, [parse_polynomial("x*y - 1", ring)])
    assert components_over_subring(unit, "x") == 1


def test_counts_over_an_imperfect_function_field():
    from cartierlab.artinian import move_variable_to_field
    from cartierlab.errors import RadicalUnavailable

    ring = PolyRing(PrimeField(3), ["y", "x"], GREVLEX)
    # y^3 - x over F_3(x): x has no cube root, so no radical is computed
    alg = FiniteAlgebra(move_variable_to_field(Ideal(ring, [parse_polynomial("y^3 - x", ring)]), "x"))
    assert component_count(alg) is UNKNOWN
    assert is_field_algebra(alg) is UNKNOWN
    with pytest.raises(RadicalUnavailable, match="x is not a p-th power in FP\\(3\\)\\(x\\)"):
        radical_generators(alg)
    # (y - x)^3 = y^3 - x^3 is a cube: one component, certified
    alg = FiniteAlgebra(move_variable_to_field(Ideal(ring, [parse_polynomial("y^3 - x^3", ring)]), "x"))
    assert component_count(alg) == 1
    assert [str(g) for g in radical_generators(alg)] == ["y + 2*x"]  # y - x over F_3


def test_reduced_algebra_is_the_quotient_by_the_radical_generators():
    from cartierlab.artinian import reduced_algebra

    reduced = algebra(QQ, ["x"], ["x^2 - 1"])
    assert reduced_algebra(reduced) is reduced
    fat = algebra(QQ, ["x", "y"], ["x^2", "y^2 - y"])
    red = reduced_algebra(fat)
    assert red.dim == 2 and is_reduced(red)
    assert red.ideal.generators == fat.ideal.generators + tuple(radical_generators(fat))


def _random_element(rng, alg):
    field = alg.field
    coords = []
    for _ in range(alg.dim):
        if rng.random() < 0.4:
            coords.append(field.zero())
        elif field is QQ:
            coords.append(field.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
        else:
            coords.append(field.from_int(rng.randrange(field.p)))
    return tuple(coords)


@pytest.mark.parametrize("field, variables, relations", [
    (QQ, ["x", "y"], ["x^2", "y^4"]),
    (QQ, ["t"], ["t^5 - 2*t^4 + t^3"]),
    (PrimeField(7), ["x", "y"], ["x^2 - y", "y^3"]),
    (PrimeField(32003), ["x", "y"], ["x^3", "y^2 - x"]),
], ids=["qq-dim8", "qq-dim5", "f7-dim6", "f32003-dim6"])
def test_mul_is_the_polynomial_product(field, variables, relations):
    a = algebra(field, variables, relations)
    assert 4 <= a.dim <= 8 and is_reduced(a) is False
    rng = random.Random(a.dim)
    for _ in range(40):
        u, v = _random_element(rng, a), _random_element(rng, a)
        assert a.mul(u, v) == a.from_poly(a.to_poly(u) * a.to_poly(v))
    assert a._table
    for pairs in a._table.values():
        assert [k for k, _ in pairs] == sorted({k for k, _ in pairs})
        assert not any(field.is_zero(c) for _, c in pairs)


def test_fp_component_count_splits_no_factor(monkeypatch):
    """F_p[x]/(5 distinct linears): the count is Berlekamp's rank, and m is
    not split."""
    from cartierlab.polycore import factor

    def no_split(*args):
        raise AssertionError("equal-degree splitting ran for a count")

    monkeypatch.setattr(factor, "_equal_degree_split", no_split)
    a = algebra(PrimeField(10007), ["x"], ["(x - 1)*(x - 2)*(x - 3)*(x - 4)*(x - 5)"])
    assert component_count(a) == 5
    b = algebra(PrimeField(101), ["x", "y"], ["(x^2 - 2)*(x - 1)", "y^2 - 3"])
    assert component_count(b) == 3 and is_field_algebra(b) is False


# the primitive idempotents, in the CRT order of the factors of m, pinned so
# that a change to how the count is found leaves the decomposition alone
IDEMPOTENTS = [
    (PrimeField(10007), ["x"], ["(x - 1)*(x - 2)*(x - 3)*(x - 4)*(x - 5)"],
     ["417*x^4 + 5837*x^3 + 4588*x^2 + 9171*x + 1",
      "8339*x^4 + 8341*x^3 + 1661*x^2 + 1678*x + 10002",
      "2502*x^4 + 10004*x^3 + 2514*x^2 + 4984*x + 10",
      "8339*x^4 + 1670*x^3 + 1658*x^2 + 8357*x + 9997",
      "417*x^4 + 4169*x^3 + 9593*x^2 + 5831*x + 5"]),
    (PrimeField(101), ["x", "y"], ["(x^2 - 2)*(x - 1)", "y^2 - 3"],
     ["79*x^2*y + 51*x^2 + 79*x*y + 44*y + 50",
      "22*x^2*y + 51*x^2 + 22*x*y + 57*y + 50",
      "100*x^2 + 2"]),
    (PrimeField(10009), ["e", "n"], ["(e - 8106)*(e - 1157)*(e - 6723)", "n^2"],
     ["7982*e^2 + 8405*e + 5786", "1565*e^2 + 6446*e + 6797", "462*e^2 + 5167*e + 7436"]),
    (PrimeField(7), ["x"], ["(x^2 + 1)*(x^3 + x + 1)*(x - 3)"],
     ["2*x^5 + 5*x^3 + 2*x^2 + 3*x + 3", "x^5 + x^3 + x^2 + 1",
      "4*x^5 + x^3 + 4*x^2 + 4*x + 4"]),
    (QQ, ["x", "y"], ["x^2 - 1", "y^2 - x - 1"], ["1/2*x + 1/2", "-1/2*x + 1/2"]),
]


@pytest.mark.parametrize("field, variables, relations, expected", IDEMPOTENTS,
                         ids=["f10007-linears", "f101-xy", "f10009-nil", "f7-mixed", "qq"])
def test_idempotent_decomposition_is_unchanged(field, variables, relations, expected):
    a = algebra(field, variables, relations)
    dec = idempotent_decomposition(a)
    assert [str(a.to_poly(e)) for e in dec.idempotents] == expected
    assert dec.count == len(expected) == component_count(a)


def test_idempotents_count_their_factors_without_a_rank(monkeypatch):
    def no_rank(*args):
        raise AssertionError("factor_count ran before the factors")

    monkeypatch.setattr(artinian, "factor_count", no_rank)
    field, variables, relations, expected = IDEMPOTENTS[0]
    a = algebra(field, variables, relations)
    assert idempotent_decomposition(a).count == component_count(a) == 5


def test_krylov_sequence_stops_at_the_first_dependence(monkeypatch):
    """The powers of a are made only until they become dependent, from
    a^0 = 1 and a^1 = a, which take no product: none for a scalar, d - 1
    for an element whose minimal polynomial has degree d, not dim A whatever
    the degree."""
    alg = algebra(QQ, ["x", "y"], ["x^2 - 2", "y^3 - 3"])
    assert alg.dim == 6
    calls = []
    original = FiniteAlgebra.mul

    def counting(self, a, b):
        calls.append(a)
        return original(self, a, b)

    monkeypatch.setattr(FiniteAlgebra, "mul", counting)
    for element, expected in [(alg.scalar(Fraction(5)), (-5, 1)),
                              (alg.variable_element("x"), (-2, 0, 1)),
                              (alg.variable_element("y"), (-3, 0, 0, 1))]:
        calls.clear()
        assert minimal_polynomial(alg, element) == expected
        assert len(calls) == len(expected) - 2


def _normal_form_coordinates(alg, f):
    """The coordinates of f from one normal form of the whole polynomial."""
    coords = [alg.field.zero()] * alg.dim
    for exp, c in alg.ideal.normal_form(f).terms().items():
        coords[alg._index[exp]] = c
    return tuple(coords)


def _coefficient(rng, field):
    if field is QQ:
        return field.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    c = field.from_int(rng.randint(-5, 5))
    if isinstance(field, RationalFunctionField):
        c = field.add(c, field.mul(field.from_int(rng.randint(-3, 3)), field.variable_element()))
    return c


MONOMIAL_ALGEBRAS = [
    (QQ, ["x", "y"], ["x^3 - 2", "y^2 - x*y - 1"]),
    (PrimeField(7), ["x", "y"], ["x^3 - x - 1", "y^2 - x*y - 2"]),
    (RationalFunctionField(QQ, "v"), ["x", "y"], ["x^2 - v", "y^3 - x"]),
]


@pytest.mark.parametrize("field, variables, relations", MONOMIAL_ALGEBRAS,
                         ids=["qq", "f7", "qq-v"])
def test_monomial_is_the_normal_form(field, variables, relations):
    """`monomial(exp)` gives the normal form's coordinates of x^exp, below,
    at and past the degree of a product of two staircase monomials, where
    binary powers of the variables take over (each exponent there nonzero,
    so a power left out shows); `from_poly` gives those of a whole
    polynomial."""
    alg = algebra(field, variables, relations)
    rng = random.Random(len(alg.basis) * 31 + field.characteristic)
    top = alg._product_degree
    exps = [(i, d - i) for d in range(top + 3) for i in range(d + 1)]
    exps += [(rng.randint(1, 200), rng.randint(1, 200)) for _ in range(4)]
    exps.append((1000, rng.randint(1, 20)))
    assert any(sum(e) == top for e in exps) and max(map(max, exps)) >= 1000
    for exp in exps:
        expected = _normal_form_coordinates(alg, alg.ring.monomial(exp))
        assert alg.monomial(exp) == tuple(
            (i, c) for i, c in enumerate(expected) if not field.is_zero(c)), exp
    for _ in range(20):
        f = Polynomial(alg.ring, {
            (rng.randint(0, top + 2), rng.randint(0, top + 2)): _coefficient(rng, field)
            for _ in range(rng.randint(0, 6))})
        assert alg.from_poly(f) == _normal_form_coordinates(alg, f)


def test_monomial_runs_one_normal_form_per_exponent(monkeypatch):
    alg = algebra(QQ, ["x", "y"], ["x^3 - 2", "y^2 - x*y - 1"])
    calls = []
    original = Ideal.normal_form

    def counting(self, f):
        calls.append(f)
        return original(self, f)

    monkeypatch.setattr(Ideal, "normal_form", counting)
    first = alg.monomial((2, 2))
    assert alg.monomial((2, 2)) == first and len(calls) == 1
    assert alg.from_poly(alg.ring.monomial((2, 2))) == alg.from_poly(alg.ring.monomial((2, 2)))
    assert len(calls) == 1


def test_components_over_subring_unknown_at_the_kv_factor_cap():
    """QQ[x,y,z]/(y^3 - x, z^2 - 2) over x: over QQ(x) the factor search
    hits its cap on y's minimal polynomial y^3 - x, which then cuts
    nothing, and again on the degree-6 minimal polynomial of the primitive
    element, so the count is Unknown. The ring is the domain QQ(√2)[y], so
    complete factorization over k(v) (ROADMAP open item 2) will turn this
    Unknown into the count 1."""
    ring = PolyRing(QQ, ["x", "y", "z"], GREVLEX)
    ideal = Ideal(ring, [parse_polynomial(t, ring) for t in ("y^3 - x", "z^2 - 2")])
    assert components_over_subring(ideal, "x") is UNKNOWN
