"""The route table: `li_auto` and `li --method` run the same four routes.

`li_auto` returns the first rank that `run_route` certifies, in table order,
and otherwise names each route once with its reason. `perfbench/tracing.py`
patches the routes on the module, so the table must find them there when it
runs.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from cartierlab import cartier
from cartierlab.cartier import ROUTES, li_auto, run_route
from cartierlab.cli import main
from cartierlab.corpus import corpus_path
from cartierlab.errors import UNKNOWN
from cartierlab.extfile import load_extension

CORPUS = os.path.dirname(corpus_path("node.ext"))
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
EXT_PATHS = [os.path.join(CORPUS, n) for n in sorted(os.listdir(CORPUS)) if n.endswith(".ext")]
EXT_PATHS += [os.path.join(FIXTURES, n) for n in sorted(os.listdir(FIXTURES)) if n.endswith(".ext")]
TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench", "tracing.py")
METHODS = ["HenselLocalFormula", "ConductorSquare", "FiveTermSequence", "FiniteConnected"]


def test_table_order_and_methods():
    assert list(ROUTES) == ["hensel", "conductor", "fiveterm", "connected"]
    assert [method for method, _ in ROUTES.values()] == METHODS


@pytest.mark.parametrize("path", EXT_PATHS, ids=os.path.basename)
def test_li_auto_is_the_first_known_route(path):
    ext = load_extension(path)
    expected = None
    for name in ROUTES:
        result = run_route(name, ext)
        if result.rank is not UNKNOWN:
            expected = result
            break
    auto = li_auto(ext)
    if expected is not None:
        assert auto == expected
        return
    assert auto.rank is UNKNOWN and auto.method == "none"
    attempts = auto.certificate["attempts"]
    assert [a.split(":", 1)[0] for a in attempts] == METHODS


def test_traced_li_auto_records_the_routes_it_runs():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    ext = load_extension(corpus_path("node.ext"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = li_auto(ext)
    finally:
        tracer.uninstall()
    assert result.method == "ConductorSquare"
    names = [span[0] for span in tracer.take()]
    assert "cartier.li_hensel_local" in names
    assert "cartier.li_conductor_square" in names
    assert "cartier.li_finite_connected" not in names


def test_unknown_hensel_rank_lets_the_later_routes_run(monkeypatch):
    ext = load_extension(corpus_path("idem_toy.ext"))
    counted = cartier.component_count

    def count(alg):
        return UNKNOWN if alg.ring == ext.b_ring else counted(alg)

    monkeypatch.setattr(cartier, "component_count", count)
    result = li_auto(ext)
    assert result.rank is UNKNOWN and result.method == "none"
    assert result.certificate["attempts"] == (
        "HenselLocalFormula: target component count unknown",
        "ConductorSquare: conductor-square needs finite and birational hints",
        "FiveTermSequence: five-term data needs certified component counts",
        "FiniteConnected: the connectedness criterion needs the finite hint",
    )


@pytest.mark.parametrize("method, name", [
    ("hensel", "HenselLocalFormula"),
    ("conductor", "ConductorSquare"),
    ("connected", "FiniteConnected"),
    ("fiveterm", "FiveTermSequence"),
])
def test_li_method_that_does_not_apply_names_its_route(capsys, method, name):
    code = main(["li", corpus_path("family_split.ext"), "--method", method, "--json"])
    assert code == 0
    entry = json.loads(capsys.readouterr().out)["results"][0]
    assert entry["rank"] == "unknown"
    assert entry["method"] == name
    expected = run_route(method, load_extension(corpus_path("family_split.ext")))
    assert entry["certificate"] == {"reason": expected.certificate["reason"]}


def test_method_choices_come_from_the_table(capsys):
    with pytest.raises(SystemExit):
        main(["li", corpus_path("node.ext"), "--method", "nosuch"])
    err = capsys.readouterr().err
    assert "(choose from 'auto', 'hensel', 'conductor', 'fiveterm', 'connected')" in err
