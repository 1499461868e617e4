"""Each reduced basis is computed once, and the traced entry points exist.

A presentation answers membership and its kernel from one block-order basis
of its tag ideal, so constructing it, or adjoining closure witnesses to it,
never runs Buchberger twice on the same (ring, generators) input, and
`li_auto` never hands Buchberger a basis that an earlier run returned. A
basis over the pair budget ends the command that needed it, so each file
command fails on at most one input, once.

The conductor square runs on the presentation it is given: `li_auto` builds
no second one for A/c -> B/cB, and the conductor's fold intersects two colon
ideals only when neither contains the other.

`run_corpus` computes each presentation's rank once per pass: the rows that
need it again reuse that result. A generic stalk over a field source builds
that source's algebra once.

An ideal prepares its reduced basis for division once: repeated normal forms
against it, and against the ideal `reduced()` hands back, build the divisor
list of each basis element once. A witness search runs no Buchberger in an
A ring: each adjoined witness's presentation takes the reduced basis of its
relations from the B-free part of its tag basis. A presentation by that
kernel runs no normal form and no Buchberger when it is built: its relations
map to zero and contain the kernel by construction, and its tag basis is
built by the first membership, kernel or spanning-monomial request that
needs it. An image of one of A's variables is a member without that basis,
so a closure search whose last witness makes B's variables images finishes
without the last adjoin's basis. A tag basis over the pair budget raises at
that first use.

`perfbench/tracing.py` patches the library's entry points by name; a
refactor that deletes or renames one of them must fail here rather than in
a traced benchmark run.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import itertools
import os
from collections import Counter

import pytest

from cartierlab.artinian import FiniteAlgebra
from cartierlab.cartier import li_auto, stalk_rank
from cartierlab.cli import main
from cartierlab import corpus, extensions
from cartierlab.corpus import corpus_path
from cartierlab.errors import PairBudgetExceeded
from cartierlab.extensions import ExtensionPresentation, adjoin_element, closure_search
from cartierlab.extfile import load_extension
from cartierlab.polycore import GREVLEX, QQ, Ideal, PolyRing, parse_polynomial, reduce_poly

CORPUS = os.path.dirname(corpus_path("node.ext"))
EXT_FILES = sorted(n for n in os.listdir(CORPUS) if n.endswith(".ext"))
# the package re-exports a function named `groebner`, which hides the module
GROEBNER = importlib.import_module("cartierlab.polycore.groebner")
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench", "tracing.py")


@pytest.fixture
def basis_inputs(monkeypatch):
    """The (ring, generators) input of every Buchberger run, in call order."""
    seen = []
    original = GROEBNER.buchberger

    def recording(gens, ring, *args, **kwargs):
        seen.append((ring, tuple(gens)))
        return original(gens, ring, *args, **kwargs)

    monkeypatch.setattr(GROEBNER, "buchberger", recording)
    return seen


@pytest.fixture
def basis_runs(monkeypatch):
    """(ring, generators, reduced basis) of every Buchberger run, in call order."""
    runs = []
    original = GROEBNER.buchberger

    def recording(gens, ring, *args, **kwargs):
        basis = original(gens, ring, *args, **kwargs)
        runs.append((ring, tuple(gens), tuple(basis)))
        return basis

    monkeypatch.setattr(GROEBNER, "buchberger", recording)
    return runs


@pytest.fixture
def failed_inputs(monkeypatch):
    """The (ring, generators) input of every Buchberger run over the pair budget."""
    failed = []
    original = GROEBNER.buchberger

    def recording(gens, ring, *args, **kwargs):
        try:
            return original(gens, ring, *args, **kwargs)
        except PairBudgetExceeded:
            failed.append((ring, tuple(gens)))
            raise

    monkeypatch.setattr(GROEBNER, "buchberger", recording)
    return failed


def _repeated(seen) -> list[str]:
    return [f"{ring.describe()}: {', '.join(map(str, gens))}"
            for (ring, gens), n in Counter(seen).items() if n > 1]


@pytest.mark.parametrize("name", EXT_FILES)
def test_loading_runs_each_basis_once(basis_inputs, name):
    load_extension(os.path.join(CORPUS, name))
    assert basis_inputs
    assert _repeated(basis_inputs) == []


def test_closure_search_runs_each_basis_once(basis_inputs):
    ext = load_extension(os.path.join(CORPUS, "cusp.ext"))
    result = closure_search(ext, "seminormal", 3)
    assert result.adjoined
    assert _repeated(basis_inputs) == []


def test_closure_search_runs_no_basis_in_an_a_ring(basis_inputs, monkeypatch):
    built = []
    original_init = ExtensionPresentation.__init__

    def init(self, *args, **kwargs):
        built.append(self)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(ExtensionPresentation, "__init__", init)
    ext = load_extension(os.path.join(CORPUS, "cusp.ext"))
    basis_inputs.clear()  # loading checks the file's relations on their own basis
    result = closure_search(ext, "seminormal", 3)
    assert result.adjoined and len(built) == 1 + len(result.adjoined)
    # B = k[t] is its own basis, and the last adjoin makes t an image
    assert [ring.describe() for ring, _ in basis_inputs] == []


def test_kernel_presentation_checks_nothing_by_normal_form(monkeypatch):
    ring = PolyRing(QQ, ["x", "y", "z"], GREVLEX)
    b_ring = PolyRing(QQ, ["t"], GREVLEX)
    images = {v: parse_polynomial(f"t^{e}", b_ring) for v, e in zip("xyz", (3, 4, 5))}
    forms = []
    original = GROEBNER.Ideal.normal_form

    def counting(self, f):
        forms.append(f)
        return original(self, f)

    monkeypatch.setattr(GROEBNER.Ideal, "normal_form", counting)
    ext = ExtensionPresentation(ring, None, Ideal(b_ring, []), images)
    assert forms == []
    assert {str(g) for g in ext.a_ideal.generators} == {"y^2 - x*z", "x^3 - y*z", "x^2*y - z^2"}


def test_kernel_presentation_builds_its_tag_basis_on_demand(basis_inputs):
    cusp = load_extension(os.path.join(CORPUS, "cusp.ext"))
    basis_inputs.clear()
    bigger = adjoin_element(cusp, cusp.b_ring.variable("t"))
    assert bigger._membership_cache is None
    assert basis_inputs == []  # B = k[t] is its own basis, so reducing t runs none
    assert [str(g) for g in bigger.a_ideal.generators] == ["w3^2 - x", "x*w3 - y", "x^2 - y*w3"]
    assert len(basis_inputs) == 1
    assert bigger.a_ideal is bigger.a_ideal


def test_generator_images_are_members_without_a_basis(basis_inputs):
    ring = PolyRing(QQ, ["x", "y", "z"], GREVLEX)
    b_ring = PolyRing(QQ, ["t"], GREVLEX)
    images = {v: parse_polynomial(f"t^{e}", b_ring) for v, e in zip("xyz", (3, 4, 5))}
    ext = ExtensionPresentation(ring, None, Ideal(b_ring, []), images)
    for v in ring.variables:
        found = ext.contains(images[v])
        assert found.member and found.preimage == ring.variable(v)
        assert ext.substitute(found.preimage) == found.element
    assert ext._membership_cache is None
    assert basis_inputs == []  # B = k[t] is its own basis, so reducing each element runs none
    # any other element goes through the tag basis
    found = ext.contains(parse_polynomial("t^6", b_ring))
    assert found.member and str(found.preimage) == "x^2"
    assert len(basis_inputs) == 1


def test_a_zero_ideal_is_its_own_reduced_basis(basis_inputs):
    ring = PolyRing(QQ, ["t"], GREVLEX)
    f = parse_polynomial("t^2 + 1", ring)
    for zero in (Ideal(ring, []), Ideal(ring, [ring.zero()])):
        assert zero.groebner() == () and zero.is_zero_ideal()
        assert zero.normal_form(f) == f
    assert basis_inputs == []


def _unshifted(tmp_path, name: str) -> str:
    """The fixture's curve moved to the origin, where the seminormal search
    finds its witnesses t^2 and t among the monomial candidates."""
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as handle:
        text = handle.read().replace("(t - 1)", "t")
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# the closures' relations: the file's own on the shifted curve; at the origin
# the kernel of k[x, y, z, w4, w5] -> k[t], read off the last adjoin's tag basis
FIXTURE_RELATIONS = ["x^3 + 20010*y*z", "x^2*y + 20010*z^2", "x*y^3 + 20010*z^3",
                     "20010*y^2 + x*z", "y^5 + 20010*z^4"]
CLOSURE_RELATIONS = ["w5^2 + 20010*w4", "w4*w5 + 20010*x", "y*w5 + 20010*z",
                     "x*w5 + 20010*y", "w4^2 + 20010*y", "y*w4 + 20010*z*w5",
                     "x*w4 + 20010*z", "y^2 + 20010*x*z", "x*y + 20010*z*w4",
                     "x^2 + 20010*z*w5"]


@pytest.mark.parametrize("moved, adjoined, runs", [
    (False, [], 0),  # the shifted curve: no candidate monomial is a witness
    (True, ["t^2", "t"], 1),  # the first adjoin's tag basis
], ids=["shifted", "at-the-origin"])
def test_closure_search_runs_no_basis_after_the_last_adjoin(
        basis_inputs, tmp_path, moved, adjoined, runs):
    """The tag basis of every adjoin but the last, and no other: B = k[t] is
    its own basis (the zero ideal's, for the candidates' normal forms), and
    the last adjoin makes t an image, so the rescan and `is_identity_onto`
    answer from the images. Its basis is built when the closure's relations
    are read."""
    name = "monomial-3-4-5-fp.ext"
    path = _unshifted(tmp_path, name) if moved else os.path.join(FIXTURES, name)
    ext = load_extension(path)
    basis_inputs.clear()  # loading checks the file's relations on their own basis
    result = closure_search(ext, "seminormal", 3)
    assert [str(w) for w in result.adjoined] == adjoined
    assert result.exhausted is not moved
    assert len(basis_inputs) == runs
    relations = [str(g) for g in result.extension.a_ideal.generators]
    assert len(basis_inputs) == runs + bool(adjoined)
    assert relations == (CLOSURE_RELATIONS if moved else FIXTURE_RELATIONS)


def test_normal_forms_build_the_divisor_list_once(monkeypatch):
    ring = PolyRing(QQ, ["x", "y", "z"], GREVLEX)
    ideal = Ideal(ring, [parse_polynomial(t, ring) for t in ("x^2 - y*z", "y^2 - x*z", "z^3 - x")])
    basis = ideal.groebner()
    probes = [parse_polynomial(t, ring) for t in ("x^3*y + z", "x*y*z - 1", "y^4 - x^2*z")]
    expected = [reduce_poly(f, list(basis)) for f in probes]
    built = []
    original = GROEBNER._divisor

    def counting(g):
        built.append(g)
        return original(g)

    monkeypatch.setattr(GROEBNER, "_divisor", counting)
    assert [ideal.normal_form(f) for f in probes] == expected
    assert [ideal.reduced().normal_form(f) for f in probes] == expected
    assert built == list(basis)


@pytest.mark.parametrize("name", ["node.ext", "cusp.ext", "chain_full.ext"])
def test_li_auto_never_reduces_a_reduced_basis(basis_runs, name):
    li_auto(load_extension(os.path.join(CORPUS, name)))
    outputs = set()
    for ring, gens, basis in basis_runs:
        assert (ring, gens) not in outputs, f"{ring.describe()}: {', '.join(map(str, gens))}"
        outputs.add((ring, basis))


@pytest.mark.parametrize("path", [
    os.path.join(CORPUS, "node.ext"),
    os.path.join(CORPUS, "cusp.ext"),
    os.path.join(CORPUS, "chain_full.ext"),
    os.path.join(FIXTURES, "monomial-3-5-7-qq.ext"),
], ids=os.path.basename)
def test_conductor_square_builds_one_presentation(monkeypatch, path):
    built, meets = [], []
    original_init = ExtensionPresentation.__init__
    original_intersect = extensions.intersect

    def init(self, *args, **kwargs):
        built.append(self)
        original_init(self, *args, **kwargs)

    def intersect(i1, i2, *args, **kwargs):
        meets.append((i1, i2))
        return original_intersect(i1, i2, *args, **kwargs)

    monkeypatch.setattr(ExtensionPresentation, "__init__", init)
    monkeypatch.setattr(extensions, "intersect", intersect)
    ext = load_extension(path)
    result = li_auto(ext)
    assert result.method == "ConductorSquare"
    assert built == [ext]
    for i1, i2 in meets:
        assert not all(i2.contains_poly(g) for g in i1.generators)
        assert not all(i1.contains_poly(g) for g in i2.generators)


FILE_COMMANDS = (["check"], ["stalks", "--generic"], ["li"], ["seminormal"], ["anodal"])


@pytest.mark.parametrize("budget", ["1", "2", "3"])
def test_file_commands_fail_each_input_once(failed_inputs, budget):
    """Every file command on every corpus extension either answers or exits 3
    at its first basis over the budget, having written nothing."""
    for name, (command, *flags) in itertools.product(EXT_FILES, FILE_COMMANDS):
        argv = [command, os.path.join(CORPUS, name), *flags, "--pair-budget", budget]
        failed_inputs.clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            assert failed_inputs == [], argv
            continue
        assert code == 3, argv
        assert (out.getvalue(), err.getvalue()) == (
            "", f"resource limit: S-pair budget of {budget} exceeded\n"), argv
        assert len(failed_inputs) == 1, argv


def test_over_budget_kernel_basis_raises_at_its_first_use(failed_inputs):
    """Adjoining u^2 to the constants in QQ[u]/(u^3) builds no tag basis, and u^2,
    the new variable's image, is a member without one; asking about u needs
    the basis, which is over a budget of one pair, and so does the kernel."""
    ext = load_extension(os.path.join(CORPUS, "nil_cube.ext"))
    u = ext.b_ring.variable("u")
    previous = GROEBNER.default_pair_budget()
    GROEBNER.set_default_pair_budget(1)
    try:
        bigger = adjoin_element(ext, u * u)
        assert bigger._membership_cache is None and failed_inputs == []
        assert str(bigger.contains(u * u).preimage) == "w1"
        with pytest.raises(PairBudgetExceeded):
            bigger.contains(u)
        with pytest.raises(PairBudgetExceeded):
            bigger.a_ideal
    finally:
        GROEBNER.set_default_pair_budget(previous)
    assert len(failed_inputs) == 2  # each use that needs the basis runs it
    assert not bigger.contains(u).member


def test_closure_over_budget_exits_with_the_resource_limit():
    """On nil_cube.ext the loaded presentation's basis fits a budget of one
    pair and the first adjoin's does not, so the command fails at the rescan."""
    argv = ["seminormal", os.path.join(CORPUS, "nil_cube.ext"), "--bound", "3",
            "--pair-budget", "1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 3
    assert out.getvalue() == ""
    assert err.getvalue() == "resource limit: S-pair budget of 1 exceeded\n"


def test_run_corpus_ranks_each_presentation_once(monkeypatch):
    seen = []  # the presentations themselves, so that no id is reused
    original = corpus.li_auto

    def recording(ext, *args, **kwargs):
        seen.append(ext)
        return original(ext, *args, **kwargs)

    monkeypatch.setattr(corpus, "li_auto", recording)
    rows = corpus.run_corpus()
    assert all(row["status"] == "pass" for row in rows)
    assert seen
    repeated = [ext.b_ring.describe() for ext in seen if sum(e is ext for e in seen) > 1]
    assert repeated == []


def test_generic_stalk_over_an_artinian_source_builds_it_once(monkeypatch):
    """The generic stalk over a field source reuses the algebra it certified
    a field as the residue algebra: QQ is built once, then the fiber."""
    built = []
    original_init = FiniteAlgebra.__init__

    def init(self, ideal):
        built.append(ideal.ring.describe())
        original_init(self, ideal)

    ext = load_extension(os.path.join(CORPUS, "nil_toy.ext"))
    monkeypatch.setattr(FiniteAlgebra, "__init__", init)
    report = stalk_rank(ext, None)
    assert report.fiber_components == 1
    assert built[:2] == [ext.a_ring.describe(), ext.b_ring.describe()]
    assert built.count(ext.a_ring.describe()) == 1


def _span_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPAN_POINTS


@pytest.mark.parametrize("group, mod_name, attr", _span_points())
def test_traced_entry_point_resolves(group, mod_name, attr):
    module = importlib.import_module(f"cartierlab.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_exported_names_resolve():
    """Every name in `__all__` exists, so a deleted definition cannot leave an
    export that only `from ... import *` would trip over."""
    modules = [importlib.import_module(name) for name in ("cartierlab", "cartierlab.polycore")]
    missing = [f"{module.__name__}.{name}"
               for module in modules for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
