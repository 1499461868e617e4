"""Each oracle of the benchmark rejects a deliberately wrong answer.

    python3 -m pytest perfbench/test_oracles.py -q
"""

from __future__ import annotations

import json

import pytest

import gen
import oracle


def _status(exp, ans):
    return oracle.judge(exp, ans)[0]


def test_components_count_from_construction():
    spec = {"kind": "components", "args": {}, "truth": {"p": 7, "factors": [[[1, 1], [1, 0, 1]], [[1, 0, 1]]]}}
    exp = {"kind": "components", **oracle.expected_answer(spec)}
    # F_7: (x+1)(x^2+1) tensor (y^2+1): gcd(1,2) + gcd(2,2) = 3
    assert exp["count"] == 3
    assert _status(exp, {"count": 3}) == "ok"
    assert _status(exp, {"count": 2}) != "ok"
    assert _status(exp, {"count": "unknown"}) == "ok"


def test_irreducibility_checks_reject_reducible_factors():
    assert oracle.irreducible([1, 0, 1], 7)  # y^2 + 1 has no root mod 7
    assert not oracle.irreducible([1, 0, 1], 5)  # 2^2 + 1 = 0 mod 5
    assert oracle.irreducible([-2, 0, 1], 0)
    assert not oracle.irreducible([-4, 0, 1], 0)
    spec = {"kind": "components", "args": {}, "truth": {"p": 0, "factors": [[[-4, 0, 1], [1, 1]]]}}
    with pytest.raises(ValueError):
        oracle.expected_answer(spec)


def test_stalk_is_components_minus_one():
    spec = {"kind": "stalk", "args": {}, "truth": {
        "p": 7, "prime": [1, 0, 1], "prime_degree": 2, "fiber_factors": [[1, 1], [1, 0, 1]]}}
    exp = {"kind": "stalk", **oracle.expected_answer(spec)}
    assert exp == {"kind": "stalk", "components": 3, "stalk": 2}
    assert _status(exp, {"components": 3, "stalk": 2}) == "ok"
    assert _status(exp, {"components": 3, "stalk": 3}) != "ok"
    assert _status(exp, {"components": 2, "stalk": 1}) != "ok"


def test_units_round_trip_and_exponents():
    exp = {"kind": "units", "exponents": [-1, 2]}
    assert _status(exp, {"exponents": [2, -1], "round_trip": True}) == "ok"
    assert _status(exp, {"exponents": [2, -1], "round_trip": False}) != "ok"
    assert _status(exp, {"exponents": [1, -1], "round_trip": True}) != "ok"


def test_li_rank_and_named_faults():
    exp = {"kind": "li", "rank": 2, "fault": None}
    assert _status(exp, {"rank": 2, "method": "ConductorSquare"}) == "ok"
    assert _status(exp, {"rank": 0, "method": "ConductorSquare"}) != "ok"
    assert _status(exp, {"error": "InjectivityError", "message": "the map has a kernel"}) != "ok"
    fault = {"kind": "li", "rank": 1, "fault": "fractions"}
    assert _status(fault, {"rank": 0, "method": "ConductorSquare"}) == "faulted"
    assert _status(fault, {"error": "InjectivityError", "message": "the map has a kernel"}) == "faulted"
    assert _status(fault, {"error": "CertificateFailure", "message": "fractions hint t : y | x^2 is wrong"}) == "ok"
    assert _status(fault, {"rank": "unknown", "method": "none"}) == "ok"


def test_closure_matches_semigroup_simulation():
    assert gen.seminormal_closure((2, 3), 2) == ([1], False)
    assert gen.seminormal_closure((2, 5), 2) == ([], True)
    spec = {"kind": "closure", "args": {"bound": 3}, "truth": {"p": 0, "semigroup": [3, 4]}}
    exp = {"kind": "closure", **oracle.expected_answer(spec)}
    assert _status(exp, {"adjoined": ["t^2", "t"], "exhausted": False}) == "ok"
    assert _status(exp, {"adjoined": ["t"], "exhausted": False}) != "ok"
    assert _status(exp, {"adjoined": ["t^2", "t"], "exhausted": True}) != "ok"


def test_glued_points_value_criterion():
    points, p = [-1, 1], 0
    assert oracle.in_glued_ring(oracle.parse_univariate("t^2 - 1"), points, p)
    assert not oracle.in_glued_ring(oracle.parse_univariate("t"), points, p)
    assert not oracle.is_glued_witness("1/2*t + 1/2", points, p)
    exp = {"kind": "ni", "points": points, "p": p}
    assert _status(exp, {"status": "UnknownUpToBound", "witness": None}) == "ok"
    assert _status(exp, {"status": "NonZero", "witness": "t"}) != "ok"
    assert _status(exp, {"status": "UnknownUpToBound", "witness": "t"}) != "ok"


def test_corpus_rows_and_cli_reserialisation():
    assert _status({"kind": "run_corpus"}, {"rows": 3, "failed_rows": []}) == "ok"
    assert _status({"kind": "run_corpus"}, {"rows": 3, "failed_rows": ["node.ext: li rank"]}) != "ok"
    report = {"command": "terms", "results": [{"n": 1}], "warnings": []}
    good = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert _status({"kind": "cli"}, {"code": 0, "stdout": good, "stderr": ""}) == "ok"
    assert _status({"kind": "cli"}, {"code": 0, "stdout": json.dumps(report), "stderr": ""}) != "ok"
    assert _status({"kind": "cli"}, {"code": 2, "stdout": "", "stderr": "input error"}) != "ok"


def test_generation_repeats_for_a_seed():
    for workload in gen.WORKLOADS:
        assert gen.generate(workload, 5) == gen.generate(workload, 5)
        ids = [q["id"] for q in gen.generate(workload, 5)]
        assert len(ids) == len(set(ids))


def test_curve_relations_by_elimination():
    node = gen.glued_curve([-1, 1], 0)
    assert node["images"] == ["(t + 1)*(t - 1)", "t*(t + 1)*(t - 1)"]
    assert oracle.curve_relations(node) == ["x^3 + x^2 - y^2"]
    cusp = gen.monomial_curve((2, 3), 0, 0)
    assert oracle.curve_relations(cusp) == ["x^3 - y^2"]
    assert ("fractions", "t : y | x") in cusp["hints"]
