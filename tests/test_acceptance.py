"""Acceptance suite: every criterion is exact (tolerance zero).

Each test appends a PASS/FAIL line for its criterion; the summary prints
when the session ends (run with -s or -v to see it live).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from oracles import brute_idempotent_count
from cartierlab.artinian import FiniteAlgebra, component_count
from cartierlab.cartier import (
    decomposition_terms,
    li_auto,
    li_five_term,
    li_reduce_red,
    ni_verdict,
    product_rank,
    stalk_rank,
    tower_check,
)
from cartierlab.corpus import corpus_path, run_corpus
from cartierlab.errors import UNKNOWN
from cartierlab.extensions import closure_search, conductor
from cartierlab.extfile import load_extension, load_rank_data
from cartierlab.laurent import bass_decompose
from cartierlab.polycore import GREVLEX, Ideal, PolyRing, PrimeField, QQ, parse_polynomial
from cartierlab.polycore.groebner import reduce_poly

_RESULTS: list[str] = []


@pytest.fixture(scope="session", autouse=True)
def acceptance_summary():
    yield
    print("\n== acceptance criteria ==")
    for line in _RESULTS:
        print(line)


def record(criterion: str, ok: bool, detail: str = ""):
    _RESULTS.append(f"{'PASS' if ok else 'FAIL'}  {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def prime(ext, *texts):
    return Ideal(ext.a_ring, [parse_polynomial(t, ext.a_ring) for t in texts])


def test_criterion_1_node_rank_one_two_routes():
    node = load_extension(corpus_path("node.ext"))
    square = li_auto(node)
    five = li_five_term(load_rank_data(corpus_path("node.rankdata")))
    ok = (
        square.rank == 1
        and square.method == "ConductorSquare"
        and five.rank == 1
        and five.method == "FiveTermSequence"
    )
    record("1. node rank 1 via conductor square and five-term data", ok,
           f"square={square.rank}, five-term={five.rank}")


def test_criterion_2_cusp_rank_zero_and_witness():
    cusp = load_extension(corpus_path("cusp.ext"))
    li = li_auto(cusp)
    closure = closure_search(cusp, "seminormal", 3)
    ok = li.rank == 0 and [str(w) for w in closure.adjoined] == ["t"]
    record("2. cusp rank 0 with seminormality witness t at bound 3", ok,
           f"rank={li.rank}, witnesses={[str(w) for w in closure.adjoined]}")


def test_criterion_3_two_lines_stalk_table_and_rank():
    ext = load_extension(corpus_path("two_lines.ext"))
    table = (
        stalk_rank(ext, prime(ext, "x")).stalk_rank,
        stalk_rank(ext, prime(ext, "x - 1")).stalk_rank,
        stalk_rank(ext, None).stalk_rank,
    )
    rank = li_five_term(load_rank_data(corpus_path("two_lines.rankdata"))).rank
    ok = table == (0, 1, 1) and rank == 0
    record("3. crossed lines: stalks (0, 1, 1) and five-term rank 0", ok,
           f"table={table}, rank={rank}")


def test_criterion_4_laurent_squaring():
    ext = load_extension(corpus_path("laurent_square.ext"))
    stalk = stalk_rank(ext, prime(ext, "s - 1")).stalk_rank
    rank = li_five_term(load_rank_data(corpus_path("laurent_square.rankdata"))).rank
    ok = stalk == 1 and rank == 0
    record("4. Laurent squaring: rank 0 with stalk 1 at (s - 1)", ok,
           f"stalk={stalk}, rank={rank}")


def test_criterion_5_family_fibers_and_unknown_rank():
    ext = load_extension(corpus_path("family_split.ext"))
    at_zero = stalk_rank(ext, prime(ext, "x")).fiber_components
    at_one = stalk_rank(ext, prime(ext, "x - 1")).fiber_components
    li = li_auto(ext)
    note_rows = [
        r for r in run_corpus()
        if r["case"] == "family_split.ext" and r["check"] == "li rank without hints"
    ]
    recorded_expectation = note_rows and "0" in note_rows[0].get("note", "")
    ok = (
        at_zero == 2
        and at_one == 1
        and li.rank is UNKNOWN
        and bool(recorded_expectation)
    )
    record(
        "5. non-finite family: fibers (2, 1), rank unknown, literature value noted",
        ok,
        f"fibers=({at_zero}, {at_one}), rank={'unknown' if li.rank is UNKNOWN else li.rank}",
    )


def test_criterion_6_rank_data_files():
    quasi = li_five_term(load_rank_data(corpus_path("arithmetic_quasifinite.rankdata")))
    surface = li_five_term(load_rank_data(corpus_path("pushout_surface.rankdata")))
    ok = quasi.rank == 1 and surface.rank == 1
    record("6. rank-data files give rank 1 and rank 1", ok,
           f"quasi-finite={quasi.rank}, surface={surface.rank}")


def test_criterion_7_term_counts():
    ok = True
    for n in range(6):
        terms = decomposition_terms(n)
        expected = {"I": 1}
        if n:
            expected["L"] = n
        for i in range(1, n + 1):
            expected[f"N^{i}"] = (2**i) * math.comb(n, i)
        ok = ok and terms == expected
    record("7. decomposition term counts for n = 0..5", ok)


def test_criterion_8a_groebner_property_suite():
    rng = random.Random(20260811)
    ring = PolyRing(QQ, ["x", "y", "z"], GREVLEX)

    def random_poly():
        total = ring.zero()
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            coeff = Fraction(rng.randint(-4, 4))
            total = total + ring.monomial(exps, coeff if coeff else Fraction(1))
        return total

    from cartierlab.polycore.groebner import _lcm, _sub

    checked = 0
    for _ in range(20):
        gens = [g for g in (random_poly() for _ in range(rng.randint(1, 3))) if not g.is_zero()]
        ideal = Ideal(ring, gens)
        gb = list(ideal.groebner())
        for g in gens:
            assert reduce_poly(g, gb).is_zero()
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                ei, ci = gb[i].leading_term()
                ej, cj = gb[j].leading_term()
                lcm = _lcm(ei, ej)
                s = gb[i].term_mul(_sub(lcm, ei), QQ.inv(ci)) - gb[j].term_mul(
                    _sub(lcm, ej), QQ.inv(cj)
                )
                assert reduce_poly(s, gb).is_zero()
        checked += 1
    record("8a. basis property suite over 20 random ideals", checked == 20)


def test_criterion_8b_idempotent_oracle():
    f5 = PrimeField(5)
    rng = random.Random(555)
    cases = 0
    while cases < 10:
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
        assert count == brute_idempotent_count(5, alg.dim, alg.mul)
        cases += 1
    record("8b. idempotent counts match exhaustive enumeration over F_5", cases == 10)


def test_criterion_8c_conductor_certificates():
    ok = True
    for name in ("node", "cusp", "chain_bottom", "chain_full", "identity_line"):
        ext = load_extension(corpus_path(f"{name}.ext"))
        cond = conductor(ext)  # internal certificate raises on failure
        for g in cond.generators:
            g_img = ext.substitute(g)
            for gen in ext.hints.module_generators:
                product = ext.b_ideal.normal_form(g_img * gen)
                ok = ok and ext.contains(product).member
    record("8c. conductor certificates on all corpus extensions", ok)


def test_criterion_8d_unit_round_trips():
    from test_laurent import _random_unit, BASE_QQ, BASE_SPLIT, BASE_NIL

    rng = random.Random(4242)
    count = 0
    ok = True
    bases = [BASE_QQ, BASE_SPLIT, BASE_NIL]
    while count < 50:
        base = bases[count % 3]
        x = _random_unit(base, rng)
        y = _random_unit(base, rng)
        dx, dy, dxy = bass_decompose(x), bass_decompose(y), bass_decompose(x * y)
        ok = ok and dx.recompose() == x
        ok = ok and dxy.exponents == tuple(a + b for a, b in zip(dx.exponents, dy.exponents))
        count += 1
    record("8d. unit decompositions round-trip with additive exponents", ok and count == 50)


def test_criterion_8e_rank_zero_implies_no_anodal_witness():
    checked = []
    for name in (
        "node", "cusp", "two_lines", "laurent_square", "family_split",
        "conjugate_pair", "nil_toy", "idem_toy", "nil_cube",
        "identity_line", "chain_bottom", "chain_full",
    ):
        ext = load_extension(corpus_path(f"{name}.ext"))
        li = li_auto(ext)
        if li.rank is UNKNOWN or li.rank != 0:
            continue
        closure = closure_search(ext, "anodal", 6)
        checked.append((name, len(closure.adjoined)))
    ok = len(checked) >= 5 and all(n == 0 for _, n in checked)
    record(
        "8e. rank-0 certificates coexist with empty anodal searches at bound 6",
        ok,
        f"checked={checked}",
    )


def test_criterion_8f_tower_chain():
    bottom = load_extension(corpus_path("chain_bottom.ext"))
    cusp = load_extension(corpus_path("cusp.ext"))
    full = load_extension(corpus_path("chain_full.ext"))
    r_ab = li_auto(bottom).rank
    r_ac = li_auto(full).rank
    r_bc = li_auto(cusp).rank
    verdict = tower_check(r_ab, r_ac, r_bc)
    record("8f. tower check on the monoid chain", verdict.passes,
           f"ranks=({r_ab}, {r_ac}, {r_bc})")


def test_criterion_8g_product_additivity():
    node = li_auto(load_extension(corpus_path("node.ext")))
    cusp = li_auto(load_extension(corpus_path("cusp.ext")))
    result = product_rank([node, cusp])
    record("8g. product rank of node x cusp is 1", result.rank == 1,
           f"rank={result.rank}")


def test_criterion_9_reduction_invariance():
    toy = load_extension(corpus_path("nil_toy.ext"))
    reduced = li_reduce_red(toy)
    li = li_auto(reduced)
    verdict = ni_verdict(toy, 4)
    ok = li.rank == 0 and verdict.status == "NonZero" and verdict.nil_reason is not None
    record("9. nilpotent toy: reduced rank 0 with nonzero polynomial deviation", ok,
           f"rank={li.rank}, ni={verdict.status}")
