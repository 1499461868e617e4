"""Each reduced basis is computed once, and the traced entry points exist.

A presentation answers membership and its kernel from one block-order basis
of its tag ideal, so constructing it, or adjoining closure witnesses to it,
never runs Buchberger twice on the same (ring, generators) input, and
`li_auto` never hands Buchberger a basis that an earlier run returned. A
tag basis over the pair budget is not attempted again either, so a command
under `--assume-injective` fails on it once.

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
kernel runs no normal form when it is built: its relations map to zero and
contain the kernel by construction.

`perfbench/tracing.py` patches the library's entry points by name; a
refactor that deletes or renames one of them must fail here rather than in
a traced benchmark run.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import os
from collections import Counter

import pytest

from cartierlab.artinian import FiniteAlgebra
from cartierlab.cartier import li_auto, stalk_rank
from cartierlab.cli import main
from cartierlab import corpus, extensions
from cartierlab.corpus import corpus_path
from cartierlab.errors import PairBudgetExceeded
from cartierlab.extensions import ExtensionPresentation, closure_search
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
    a_rings = {presentation.a_ring for presentation in built}
    assert basis_inputs
    assert [ring.describe() for ring, _ in basis_inputs if ring in a_rings] == []


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


@pytest.mark.parametrize("budget", ["1", "2", "3"])
def test_assume_injective_fails_each_input_once(failed_inputs, budget):
    argv = ["li", os.path.join(CORPUS, "node.ext"), "--assume-injective",
            "--pair-budget", budget]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(argv) == 3
    assert f"resource limit: S-pair budget of {budget} exceeded" in err.getvalue()
    assert failed_inputs
    assert _repeated(failed_inputs) == []


def test_over_budget_tag_basis_is_retried_under_a_larger_budget(failed_inputs):
    previous = GROEBNER.default_pair_budget()
    GROEBNER.set_default_pair_budget(1)
    try:
        ext = load_extension(os.path.join(CORPUS, "node.ext"), assume_injective=True)
        with pytest.raises(PairBudgetExceeded):
            ext.contains(ext.b_ring.variable("t"))
    finally:
        GROEBNER.set_default_pair_budget(previous)
    assert len(failed_inputs) == 1
    assert not ext.contains(ext.b_ring.variable("t")).member
    assert ext.contains(ext.b_ring.parse("t^2 - 1")).member


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
