from __future__ import annotations

import re

import pytest

from cartierlab.artinian import quotient_algebra
from cartierlab.cartier import (
    LIResult,
    RankData,
    decomposition_terms,
    laurent_stability,
    li_auto,
    li_conductor_square,
    li_finite_connected,
    li_five_term,
    li_hensel_local,
    li_reduce_red,
    ni_verdict,
    product_rank,
    stalk_rank,
    tower_check,
)
from cartierlab.cli import main
from cartierlab.corpus import corpus_path
from cartierlab.errors import (
    EMPTY,
    CertificateFailure,
    InvariantViolation,
    NotArtinianLocal,
    NotPrime,
    UNKNOWN,
)
from cartierlab.extensions import ExtensionPresentation, Hints
from cartierlab.extfile import load_extension
from cartierlab.polycore import GREVLEX, Ideal, PolyRing, QQ, parse_polynomial


def build(a_vars, a_rels, b_vars, b_rels, images, hints=None):
    a_ring = PolyRing(QQ, a_vars, GREVLEX)
    b_ring = PolyRing(QQ, b_vars, GREVLEX)
    a_ideal = Ideal(a_ring, [parse_polynomial(t, a_ring) for t in a_rels])
    b_ideal = Ideal(b_ring, [parse_polynomial(t, b_ring) for t in b_rels])
    image_polys = {v: parse_polynomial(s, b_ring) for v, s in images.items()}
    return ExtensionPresentation(a_ring, a_ideal, b_ring, b_ideal, image_polys, hints)


def fraction_hints(ext_b_ring, a_ring, gens, fracs, **extra):
    module = tuple(parse_polynomial(g, ext_b_ring) for g in gens)
    fractions = tuple(
        (
            parse_polynomial(g, ext_b_ring),
            parse_polynomial(n, a_ring),
            parse_polynomial(d, a_ring),
        )
        for g, n, d in fracs
    )
    return Hints(
        finite=True,
        birational=True,
        module_generators=module,
        fractions=fractions,
        **extra,
    )


def node_extension():
    a_ring = PolyRing(QQ, ["x", "y"], GREVLEX)
    b_ring = PolyRing(QQ, ["t"], GREVLEX)
    hints = fraction_hints(
        b_ring, a_ring, ["1", "t"], [("t", "y", "x")],
        lpic_A_rank=1, lpic_B_rank=0, lpic_kernel_rank=1,
    )
    return build(
        ["x", "y"], ["y^2 - x^3 - x^2"], ["t"], [],
        {"x": "t^2 - 1", "y": "t^3 - t"}, hints,
    )


def cusp_extension():
    a_ring = PolyRing(QQ, ["x", "y"], GREVLEX)
    b_ring = PolyRing(QQ, ["t"], GREVLEX)
    hints = fraction_hints(
        b_ring, a_ring, ["1", "t"], [("t", "y", "x")],
        lpic_A_rank=0, lpic_B_rank=0, lpic_kernel_rank=0,
    )
    return build(["x", "y"], ["y^2 - x^3"], ["t"], [], {"x": "t^2", "y": "t^3"}, hints)


def prime(ext, *texts):
    return Ideal(ext.a_ring, [parse_polynomial(t, ext.a_ring) for t in texts])


# -- stalks ------------------------------------------------------------------------


def test_node_stalk_at_origin():
    ext = node_extension()
    report = stalk_rank(ext, prime(ext, "x", "y"))
    assert report.fiber_components == 2
    assert report.stalk_rank == 1
    assert report.semantics == "henselized-stalk"


def test_two_lines_stalk_table():
    ext = build(["x"], [], ["x", "y"], ["y^2 - x^2"], {"x": "x"}, Hints(finite=True))
    at_zero = stalk_rank(ext, prime(ext, "x"))
    assert at_zero.stalk_rank == 0
    at_one = stalk_rank(ext, prime(ext, "x - 1"))
    assert at_one.stalk_rank == 1
    generic = stalk_rank(ext, None)
    assert generic.stalk_rank == 1
    assert generic.residue_description() == "QQ(x)"


def test_cusp_stalks_vanish():
    ext = cusp_extension()
    for gens in (("x", "y"), ("x - 1", "y - 1")):
        assert stalk_rank(ext, prime(ext, *gens)).stalk_rank == 0
    # generic point via the finite birational certificate
    assert stalk_rank(ext, None).stalk_rank == 0


def test_stalk_rejects_non_prime():
    ext = node_extension()
    with pytest.raises(NotPrime):
        stalk_rank(ext, prime(ext, "x"))  # x is not maximal here: A/(x) = QQ[y]/(y^2)
    with pytest.raises(NotPrime):
        stalk_rank(ext, prime(ext, "1"))


def test_empty_fiber():
    # B = A[1/x] type extension: the fiber over (x, y) is empty
    ext = build(
        ["x", "y"], ["y^2 - x^3 - x^2"],
        ["x", "y", "xi"], ["y^2 - x^3 - x^2", "x*xi - 1"],
        {"x": "x", "y": "y"},
    )
    report = stalk_rank(ext, prime(ext, "x", "y"))
    assert report.fiber_components is EMPTY
    assert report.stalk_rank == 0
    assert "empty fiber" in report.notes


def test_family_fiber_components_via_subring():
    ext = build(["x"], [], ["x", "b", "e"], ["e^2 - e - b*x"], {"x": "x"})
    at_zero = stalk_rank(ext, prime(ext, "x"))
    assert at_zero.fiber_components == 2
    assert at_zero.semantics == "fiber-components-only"
    at_one = stalk_rank(ext, prime(ext, "x - 1"))
    assert at_one.fiber_components == 1


def test_conjugate_pair_stalks():
    ext = build(["x"], [], ["x", "u"], ["u^2 + 1"], {"x": "x"}, Hints(finite=True))
    assert stalk_rank(ext, prime(ext, "x")).stalk_rank == 0
    report = stalk_rank(ext, prime(ext, "x^2 + 1"))
    assert report.stalk_rank == 1
    assert report.residue_description() is not None
    assert "g" in report.residue_description()


def test_laurent_square_stalk():
    ext = build(
        ["s", "si"], ["s*si - 1"], ["x", "xi"], ["x*xi - 1"],
        {"s": "x^2", "si": "xi^2"}, Hints(finite=True),
    )
    report = stalk_rank(ext, prime(ext, "s - 1"))
    assert report.fiber_components == 2
    assert report.stalk_rank == 1


# -- rank routes --------------------------------------------------------------------


def test_hensel_local_examples():
    split = build([], [], ["u"], ["u^2 - u"], {})
    assert li_hensel_local(split).rank == 1
    nil = build([], [], ["u"], ["u^2"], {})
    assert li_hensel_local(nil).rank == 0
    ident = build([], [], [], [], {})
    assert li_hensel_local(ident).rank == 0
    with pytest.raises(NotArtinianLocal):
        li_hensel_local(node_extension())


def test_conductor_square_node_and_cusp():
    node = li_conductor_square(node_extension())
    assert node.rank == 1
    assert node.method == "ConductorSquare"
    assert set(node.certificate["conductor"]) == {"x", "y"}
    assert node.certificate["components_B_mod_conductor"] == 2
    cusp = li_conductor_square(cusp_extension())
    assert cusp.rank == 0


def test_five_term_examples():
    assert li_five_term(RankData(1, 2, 0, 0, 0)).rank == 1  # quasi-finite arithmetic case
    assert li_five_term(RankData(1, 1, 1, 0, 1)).rank == 1  # two-dimensional case
    assert li_five_term(RankData(1, 1, 0, 0, 0)).rank == 0
    with pytest.raises(InvariantViolation):
        RankData(2, 1, 0, 0, 0)
    with pytest.raises(InvariantViolation):
        RankData(1, 1, 0, 0, 1)


def test_finite_connected_routes():
    cusp = cusp_extension()
    primes = [prime(cusp, "x", "y"), prime(cusp, "x - 1", "y - 1")]
    result = li_finite_connected(cusp, primes, include_generic=True)
    assert result.rank == 0
    assert "certified over supplied primes only" in result.warnings

    toy = build([], [], ["u"], ["u^3"], {}, Hints(finite=True))
    result = li_finite_connected(toy)
    assert result.rank == 0
    assert result.warnings == ()  # exhaustive over the Artinian source

    node = node_extension()
    result = li_finite_connected(node, [prime(node, "x", "y")])
    assert result.rank is UNKNOWN
    assert "inconclusive" in result.certificate


def test_li_auto_routes():
    assert li_auto(node_extension()).method == "ConductorSquare"
    assert li_auto(node_extension()).rank == 1
    assert li_auto(cusp_extension()).rank == 0
    nil = build([], [], ["u"], ["u^2"], {})
    result = li_auto(nil)
    assert result.rank == 0 and result.method == "HenselLocalFormula"
    # non-finite family: no route applies
    family = build(["x"], [], ["x", "b", "e"], ["e^2 - e - b*x"], {"x": "x"})
    assert li_auto(family).rank is UNKNOWN


def test_reduce_red_nilpotent_toy():
    ext = build([], [], ["u"], ["u^2"], {})
    reduced = li_reduce_red(ext)
    alg = quotient_algebra(reduced.b_ring, reduced.b_ideal)
    assert alg.dim == 1
    assert li_auto(reduced).rank == 0
    # reduced input comes back unchanged
    ident = build(["e"], ["e^2 - e"], ["e"], ["e^2 - e"], {"e": "e"})
    assert li_reduce_red(ident) is ident


def test_ni_verdicts():
    cusp = cusp_extension()
    verdict = ni_verdict(cusp, 3)
    assert verdict.status == "NonZero"
    assert str(verdict.witness) == "t"

    nil = build([], [], ["u"], ["u^2"], {})
    verdict = ni_verdict(nil, 3)
    assert verdict.status == "NonZero"
    assert verdict.nil_reason is not None

    node = node_extension()
    verdict = ni_verdict(node, 4)
    assert verdict.status == "UnknownUpToBound"
    assert verdict.bound == 4

    ident = build(["x"], [], ["x"], [], {"x": "x"})
    assert ni_verdict(ident, 3).status == "Zero"


def test_laurent_stability_verdicts():
    assert laurent_stability(cusp_extension()).answer == "no"
    assert laurent_stability(cusp_extension()).failing_side == "polynomial-deviation"
    node_verdict = laurent_stability(node_extension())
    assert node_verdict.answer == "no"
    assert node_verdict.failing_side == "laurent-deviation"
    ident_ring = PolyRing(QQ, ["x"], GREVLEX)
    hints = Hints(
        finite=True,
        birational=True,
        module_generators=(parse_polynomial("1", ident_ring),),
        fractions=(),
    )
    ident = build(["x"], [], ["x"], [], {"x": "x"}, hints)
    assert laurent_stability(ident).answer == "yes"


def test_decomposition_terms():
    assert decomposition_terms(0) == {"I": 1}
    assert decomposition_terms(1) == {"I": 1, "L": 1, "N^1": 2}
    assert decomposition_terms(2) == {"I": 1, "L": 2, "N^1": 4, "N^2": 4}
    for n in range(6):
        terms = decomposition_terms(n)
        n_total = sum(v for k, v in terms.items() if k.startswith("N^"))
        assert n_total == 3**n - 1  # binomial identity over the N-summands
    assert sum(decomposition_terms(1).values()) == 4


def test_tower_check():
    assert tower_check(0, 1, 1).passes
    assert tower_check(1, 1, 0).passes
    assert not tower_check(1, 0, 5).passes


def test_product_rank():
    one = LIResult(1, "ConductorSquare", {})
    zero = LIResult(0, "ConductorSquare", {})
    assert product_rank([one, zero]).rank == 1
    assert product_rank([]).rank == 0
    two = LIResult(2, "FiveTermSequence", {})
    assert product_rank([one, one, two]).rank == 4
    unknown = LIResult(UNKNOWN, "none", {})
    assert product_rank([one, unknown]).rank is UNKNOWN


def test_conductor_five_term_agreement_on_node():
    ext = node_extension()
    square = li_conductor_square(ext)
    five = li_five_term(RankData(1, 1, 1, 0, 1))
    assert square.rank == five.rank == 1


def test_ni_exhaustive_decision_over_prime_field():
    # over F_5 with an Artinian target the witness space is scanned completely
    from cartierlab.polycore import PrimeField

    f5 = PrimeField(5)
    a_ring = PolyRing(f5, [], GREVLEX)
    b_ring = PolyRing(f5, ["u"], GREVLEX)
    ext = ExtensionPresentation(
        a_ring,
        Ideal(a_ring, []),
        b_ring,
        Ideal(b_ring, [parse_polynomial("u^2 - u", b_ring)]),
        {},
    )
    verdict = ni_verdict(ext, 3)
    assert verdict.status == "Zero"
    assert "exhaustive" in verdict.nil_reason


def test_ni_monomial_witness_over_prime_field():
    from cartierlab.polycore import PrimeField

    f5 = PrimeField(5)
    a_ring = PolyRing(f5, ["p", "q"], GREVLEX)
    b_ring = PolyRing(f5, ["t"], GREVLEX)
    ext = ExtensionPresentation(
        a_ring,
        Ideal(a_ring, [parse_polynomial(s, a_ring) for s in ("p^2", "p*q", "q^2")]),
        b_ring,
        Ideal(b_ring, [parse_polynomial("t^4", b_ring)]),
        {"p": parse_polynomial("t^2", b_ring), "q": parse_polynomial("t^3", b_ring)},
    )
    verdict = ni_verdict(ext, 2)
    assert verdict.status == "NonZero"
    assert str(verdict.witness) == "t"


def test_tower_check_accepts_results_and_rejects_unknown():
    import pytest as _pytest
    from cartierlab.errors import CartierlabError

    ok = tower_check(LIResult(0, "ConductorSquare", {}), LIResult(1, "FiveTermSequence", {}), LIResult(1, "FiveTermSequence", {}))
    assert ok.passes
    with _pytest.raises(CartierlabError):
        tower_check(LIResult(UNKNOWN, "none", {}), 1, 1)


def test_identity_extension_rank_via_degenerate_conductor():
    ident_ring = PolyRing(QQ, ["x"], GREVLEX)
    hints = Hints(
        finite=True,
        birational=True,
        module_generators=(parse_polynomial("1", ident_ring),),
        fractions=(),
    )
    ident = build(["x"], [], ["x"], [], {"x": "x"}, hints)
    result = li_auto(ident)
    assert result.rank == 0
    assert result.method == "ConductorSquare"
    assert "degenerate" in result.certificate


# -- wrong hints are refused by name ----------------------------------------------------

GLUED3 = """\
# A = k + t(t^2 - 1)k[t]: the line with the points -1, 0, 1 glued
[ring.A]
field = QQ
vars = x, y, z
relations = y^2 - x*z, x^2*y + x*z - z^2, x^3 + x*y - y*z

[ring.B]
field = QQ
vars = t
relations =

[map]
x = t^3 - t
y = t^4 - t^2
z = t^5 - t^3

[hints]
finite = true
birational = true
module_generators = 1, t, t^2
fractions = t : y | x ; t^2 : z | x
"""

GLUED_0_2 = """\
# A = k + t(t - 2)k[t]: the line with the points 0, 2 glued
[ring.A]
field = QQ
vars = x, y
relations = x^3 + 2*x*y - y^2

[ring.B]
field = QQ
vars = t
relations =

[map]
x = t^2 - 2*t
y = t^3 - 2*t^2

[hints]
finite = true
birational = true
module_generators = 1, t
fractions = t : y | x
"""


def _node_text():
    with open(corpus_path("node.ext"), encoding="utf-8") as handle:
        return handle.read()


WRONG_HINTS = {  # case -> (curve, hint key, wrong value, the entry the refusal names)
    "node-module-generators": (_node_text, "module_generators", "1", "module_generators"),
    "node-fraction": (_node_text, "fractions", "t : y | x^2", "t : y | x^2"),
    "glued3-module-generators": (lambda: GLUED3, "module_generators", "1", "module_generators"),
    "glued3-fraction": (lambda: GLUED3, "fractions", "t : y | x^2 ; t^2 : z | x", "t : y | x^2"),
    "glued-0-2-fraction": (lambda: GLUED_0_2, "fractions", "t : y^2 | x", "t : y^2 | x"),
}


def _wrong_hint_file(tmp_path, case):
    curve, key, value, _ = WRONG_HINTS[case]
    text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", curve(), flags=re.M)
    assert n == 1
    path = tmp_path / f"{case}.ext"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("case", WRONG_HINTS)
def test_wrong_hint_is_refused_by_name(tmp_path, case):
    key, entry = WRONG_HINTS[case][1], WRONG_HINTS[case][3]
    ext = load_extension(_wrong_hint_file(tmp_path, case))
    with pytest.raises(CertificateFailure) as info:
        li_auto(ext)
    assert key in str(info.value) and entry in str(info.value)


@pytest.mark.parametrize("case", WRONG_HINTS)
def test_wrong_hint_cli_exits_2_naming_it(tmp_path, capsys, case):
    key, entry = WRONG_HINTS[case][1], WRONG_HINTS[case][3]
    assert main(["li", _wrong_hint_file(tmp_path, case)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and key in err and entry in err
    assert "input error" not in err and "has a kernel" not in err


@pytest.mark.parametrize("curve, rank", [(GLUED3, 2), (GLUED_0_2, 1)], ids=["glued3", "glued-0-2"])
def test_correct_glued_hints_give_the_rank(tmp_path, curve, rank):
    path = tmp_path / "glued.ext"
    path.write_text(curve, encoding="utf-8")
    result = li_auto(load_extension(str(path)))
    assert (result.rank, result.method) == (rank, "ConductorSquare")
