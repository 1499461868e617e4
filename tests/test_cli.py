from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

from cartierlab import cli
from cartierlab.cli import build_parser, main
from cartierlab.corpus import corpus_path
from cartierlab.polycore.parse import MAX_NESTING

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property tests below skip
    st = None


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_passes_on_node(capsys):
    code, out, _ = run_cli(capsys, "check", corpus_path("node.ext"))
    assert code == 0
    assert "status: pass" in out


def test_check_fails_on_broken_map(capsys, tmp_path):
    bad = tmp_path / "bad.ext"
    bad.write_text(
        "[ring.A]\nfield = QQ\nvars = x\nrelations = x^2 - 1\n\n"
        "[ring.B]\nfield = QQ\nvars = t\nrelations =\n\n[map]\nx = t\n"
    )
    code, out, _ = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert "well-definedness" in out


def test_check_fails_on_kernel(capsys, tmp_path):
    bad = tmp_path / "bad.ext"
    bad.write_text(
        "[ring.A]\nfield = QQ\nvars = x\nrelations =\n\n"
        "[ring.B]\nfield = QQ\nvars =\nrelations =\n\n[map]\nx = 0\n"
    )
    code, out, _ = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert "injectivity" in out


def _two_rings(a_field, b_field, a_vars="x"):
    return (f"[ring.A]\nfield = {a_field}\nvars = {a_vars}\n\n"
            f"[ring.B]\nfield = {b_field}\nvars = t\n\n[map]\nx = t^2\n")


@pytest.mark.parametrize("text, message", [
    (_two_rings("FP(4)", "FP(4)"), "[ring.A] field: prime field modulus is not prime: 4"),
    (_two_rings("FP(2147483659)", "FP(2147483659)"),
     "[ring.A] field: prime field modulus out of range: 2147483659"),
    (_two_rings("QQ", "QQ", a_vars="x, x"), "[ring.A] vars: duplicate variable 'x'"),
    (_two_rings("QQ", "FP(5)"),
     "[ring.A] is over QQ but [ring.B] over FP(5): they must share a coefficient field"),
], ids=["composite-modulus", "modulus-out-of-range", "duplicate-variable", "mixed-fields"])
def test_malformed_ring_section_is_input_error(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.ext"
    bad.write_text(text)
    code, out, err = run_cli(capsys, "check", str(bad))
    assert (code, out, err) == (2, "", f"input error: {message}\n")


IDEMPOTENT_SOURCE = (
    "[ring.A]\nfield = QQ\nvars = e\nrelations = e^2 - e\n\n"
    "[ring.B]\nfield = QQ\nvars = e, u\nrelations = e^2 - e, u^2 - u\n\n[map]\ne = e\n"
)


def test_hensel_route_refuses_a_source_that_is_not_local(capsys, tmp_path):
    path = tmp_path / "idempotent.ext"
    path.write_text(IDEMPOTENT_SOURCE)
    code, out, _ = run_cli(capsys, "li", str(path), "--method", "hensel", "--json")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert (result["rank"], result["method"]) == ("unknown", "HenselLocalFormula")
    assert result["certificate"] == {"reason": "source has 2 components, so it is not local"}
    code, out, _ = run_cli(capsys, "li", str(path), "--json")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert (result["rank"], result["method"]) == (2, "FiveTermSequence")
    assert (result["certificate"]["c_A"], result["certificate"]["c_B"]) == (2, 4)


def test_corpus_text_report(capsys):
    code, out, err = run_cli(capsys, "corpus")
    assert (code, err) == (0, "")
    header, *rows = out.splitlines()
    assert header == "cartierlab 0.1.0 :: corpus"
    code, json_out, _ = run_cli(capsys, "corpus", "--json")
    assert code == 0 and len(rows) == len(json.loads(json_out)["results"])
    row = re.compile(r"(pass|fail)  [^:]+: .+ \(expected .+, got .+\)(  \[.+\])?")
    assert [line for line in rows if not row.fullmatch(line)] == []
    assert rows[0] == "pass  node.ext: li rank (expected 1, got 1)"
    noted = [line for line in rows if line.startswith("pass  family_split.ext: li rank")]
    assert noted == ["pass  family_split.ext: li rank without hints (expected 'unknown', "
                     "got 'unknown')  [recorded literature value: 0 (not certified by this "
                     "toolkit)]"]


def test_unknown_key_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.ext"
    bad.write_text(
        "[ring.A]\nfield = QQ\nvars = x\nrelations =\nextra = 1\n\n"
        "[ring.B]\nfield = QQ\nvars = x\nrelations =\n\n[map]\nx = x\n"
    )
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert "unknown keys" in err


def test_li_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "li", corpus_path("node.ext"), "--json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["results"][0]["rank"] == 1
    assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == out


def test_li_methods(capsys):
    code, out, _ = run_cli(
        capsys, "li", corpus_path("nil_toy.ext"), "--method", "hensel", "--json"
    )
    assert code == 0
    assert json.loads(out)["results"][0]["rank"] == 0
    code, out, _ = run_cli(
        capsys, "li", corpus_path("two_lines.rankdata"), "--json"
    )
    assert code == 0
    assert json.loads(out)["results"][0]["method"] == "FiveTermSequence"


def test_li_unknown_has_reason(capsys):
    code, out, _ = run_cli(capsys, "li", corpus_path("family_split.ext"), "--json")
    assert code == 0  # Unknown is not an error
    entry = json.loads(out)["results"][0]
    assert entry["rank"] == "unknown"
    assert entry["certificate"]["attempts"]


def test_stalks_requires_primes_or_generic(capsys):
    code, _, err = run_cli(capsys, "stalks", corpus_path("node.ext"))
    assert code == 2
    assert "input error" in err


def test_stalks_table(capsys):
    code, out, _ = run_cli(
        capsys,
        "stalks",
        corpus_path("two_lines.ext"),
        "--primes",
        "x; x - 1",
        "--generic",
        "--json",
    )
    assert code == 0
    table = json.loads(out)["results"]
    assert [row["stalk_rank"] for row in table] == [0, 1, 1]
    assert table[2]["prime"] == "generic"


def test_non_prime_is_input_error(capsys):
    code, _, err = run_cli(
        capsys, "stalks", corpus_path("node.ext"), "--primes", "x"
    )
    assert code == 2
    assert "input error" in err


def test_terms_and_units(capsys):
    code, out, _ = run_cli(capsys, "terms", "--n", "0", "--json")
    assert code == 0
    assert json.loads(out)["results"][0]["terms"] == {"I": 1}
    code, out, _ = run_cli(
        capsys,
        "units",
        "--base",
        corpus_path("split_base.ring"),
        "--laurent",
        "e*t + 1 - e",
        "--json",
    )
    assert code == 0
    entry = json.loads(out)["results"][0]
    assert entry["is_unit"] is True
    assert sorted(entry["decomposition"]["exponents"]) == [0, 1]


def test_units_non_unit(capsys):
    code, out, _ = run_cli(
        capsys,
        "units",
        "--base",
        corpus_path("nil_base.ring"),
        "--laurent",
        "1 + t",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["results"][0]["is_unit"] is False


def test_resource_limit_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "li", corpus_path("node.ext"), "--pair-budget", "1"
    )
    assert code == 3
    assert "resource limit" in err


def test_corpus_runs_green_and_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "corpus", "--json")
    assert code == 0
    rows = json.loads(out1)["results"]
    assert all(row["status"] == "pass" for row in rows)
    code, out2, _ = run_cli(capsys, "corpus", "--json")
    assert out1 == out2


def test_seminormal_and_anodal_reports(capsys):
    code, out, _ = run_cli(
        capsys, "seminormal", corpus_path("cusp.ext"), "--bound", "3", "--json"
    )
    assert code == 0
    entry = json.loads(out)["results"][0]
    assert entry["witnesses"] == ["t"]
    assert entry["exhausted"] is False
    code, out, _ = run_cli(
        capsys, "anodal", corpus_path("node.ext"), "--bound", "4", "--json"
    )
    assert code == 0
    entry = json.loads(out)["results"][0]
    assert entry["witnesses"] == []
    assert entry["exhausted"] is True


def test_witness_search_into_a_target_without_variables(capsys, tmp_path):
    """QQ[x]/(x) -> QQ: B has no variables, so the one candidate is 1, which
    lies in A, and A is all of B already: no witness, and not exhausted."""
    path = tmp_path / "point.ext"
    path.write_text("[ring.A]\nfield = QQ\nvars = x\nrelations = x\n\n"
                    "[ring.B]\nfield = QQ\nvars =\n\n[map]\nx = 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "seminormal", str(path), "--bound", "2")
    assert (code, err) == (0, "")
    assert "witnesses: []\nexhausted: False\n" in out


def test_li_connected_method_with_primes(capsys):
    code, out, _ = run_cli(
        capsys,
        "li",
        corpus_path("cusp.ext"),
        "--method",
        "connected",
        "--primes",
        "x, y; x - 1, y - 1",
        "--generic",
        "--json",
    )
    assert code == 0
    entry = json.loads(out)["results"][0]
    assert entry["rank"] == 0
    assert entry["method"] == "FiniteConnected"
    assert "certified over supplied primes only" in entry["warnings"]


def test_li_ranks_a_non_local_artinian_source_by_its_component_counts(capsys, tmp_path):
    # QQ[e]/(e^2 - e) has two points, and the fiber over each is connected
    path = tmp_path / "split_point.ext"
    path.write_text("[ring.A]\nfield = QQ\nvars = e\nrelations = e^2 - e\n\n"
                    "[ring.B]\nfield = QQ\nvars = e, u\nrelations = e^2 - e, u^2\n\n"
                    "[map]\ne = e\n\n[hints]\nfinite = true\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "li", str(path), "--json")
    entry = json.loads(out)["results"][0]
    assert code == 0
    assert (entry["rank"], entry["method"]) == (0, "FiveTermSequence")
    code, out, _ = run_cli(capsys, "li", str(path), "--method", "connected", "--json")
    entry = json.loads(out)["results"][0]
    assert (entry["rank"], entry["certificate"]) == ("unknown", {"reason": "no primes supplied"})
    code, out, _ = run_cli(capsys, "li", str(path), "--method", "connected",
                           "--primes", "e; e - 1", "--json")
    entry = json.loads(out)["results"][0]
    assert (entry["rank"], entry["method"]) == (0, "FiniteConnected")
    assert entry["warnings"] == ["certified over supplied primes only"]
    assert entry["hints_used"] == ["finite"]


def test_li_with_primes_keeps_the_exact_rank_of_an_artinian_source(capsys, tmp_path):
    # the fiber over e = 1 splits into two points; connected at e alone would give 0
    path = tmp_path / "split_fiber.ext"
    path.write_text("[ring.A]\nfield = QQ\nvars = e\nrelations = e^2 - e\n\n"
                    "[ring.B]\nfield = QQ\nvars = e, u\nrelations = e^2 - e, u^2 - e*u\n\n"
                    "[map]\ne = e\n\n[hints]\nfinite = true\n", encoding="utf-8")
    for extra in ([], ["--primes", "e"]):
        code, out, _ = run_cli(capsys, "li", str(path), *extra, "--json")
        entry = json.loads(out)["results"][0]
        assert code == 0
        assert (entry["rank"], entry["method"], entry["warnings"]) == (1, "FiveTermSequence", [])


def test_li_fiveterm_method_on_artinian_extension(capsys):
    code, out, _ = run_cli(
        capsys, "li", corpus_path("idem_toy.ext"), "--method", "fiveterm", "--json"
    )
    assert code == 0
    entry = json.loads(out)["results"][0]
    assert entry["rank"] == 1 and entry["method"] == "FiveTermSequence"


def test_assume_injective_under_tiny_budget(capsys):
    # without the flag the elimination hits the budget: resource exit
    code, _, err = run_cli(
        capsys, "check", corpus_path("node.ext"), "--pair-budget", "1"
    )
    assert code == 3
    # with the flag the assumption is recorded and the check passes
    code, out, _ = run_cli(
        capsys,
        "check",
        corpus_path("node.ext"),
        "--pair-budget",
        "1",
        "--assume-injective",
        "--json",
    )
    assert code == 0
    parsed = json.loads(out)
    assert parsed["results"][0]["injective"] == "assumed"
    assert any("injectivity assumed" in w for w in parsed["warnings"])


def test_ill_defined_map_is_named_when_the_basis_is_over_budget(capsys, tmp_path):
    # the tag basis of the node map needs more than one S-pair, so the
    # relations are checked by substituting the images
    bad = tmp_path / "bad.ext"
    bad.write_text(
        "[ring.A]\nfield = QQ\nvars = x, y\nrelations = y^2 - x^3\n\n"
        "[ring.B]\nfield = QQ\nvars = t\nrelations =\n\n"
        "[map]\nx = t^2 - 1\ny = t^3 - t\n"
    )
    for flags in ([], ["--assume-injective"]):
        code, out, _ = run_cli(
            capsys, "check", str(bad), "--pair-budget", "1", "--json", *flags
        )
        assert code == 2
        entry = json.loads(out)["results"][0]
        assert entry["failure"] == "well-definedness"
        assert entry["detail"] == "relation -x^3 + y^2 does not map to zero in the target"


def test_conductor_certificate_failure_on_zero_divisor_fraction(capsys, tmp_path):
    # t * x = 0 in B, so the fraction t = 0 / x checks, but its denominator is
    # a zero divisor: the colon ideal is the unit ideal, and 1 * t is not in A
    ext = tmp_path / "zero_divisor.ext"
    ext.write_text(
        "[ring.A]\nfield = QQ\nvars = x\nrelations = x^2\n\n"
        "[ring.B]\nfield = QQ\nvars = u, t\nrelations = u^2, t^2, u*t\n\n"
        "[map]\nx = u\n\n"
        "[hints]\nfinite = true\nbirational = true\n"
        "module_generators = 1, t\nfractions = t : 0 | x\n"
    )
    code, _, err = run_cli(capsys, "li", str(ext), "--method", "conductor")
    assert code == 2
    assert "conductor generator 1 times t escapes the subring" in err


# the line each digest script prints, as `script: line`; a change to an
# output records the script's new line here and says so
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "digests.txt")


def digest_lines(script: str) -> tuple[str, str]:
    """(the line the script prints, the line recorded for it)."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), script)
    done = subprocess.run([sys.executable, path], capture_output=True, text=True,
                          timeout=300, check=True)
    assert done.stderr == ""
    with open(DIGESTS, encoding="utf-8") as handle:
        recorded = dict(line.split(": ", 1) for line in handle.read().splitlines())
    return done.stdout, recorded[script] + "\n"


def test_cli_digest_script_prints_one_line():
    printed, recorded = digest_lines("cli_digest.py")
    assert re.fullmatch(r"\d+ calls sha256:[0-9a-f]{64}\n", printed)
    assert printed == recorded


def test_basis_digest_script_prints_the_recorded_line():
    printed, recorded = digest_lines("basis_digest.py")
    assert re.fullmatch(r"\d+ runs sha256:[0-9a-f]{64}\n", printed)
    assert printed == recorded


# one mixed sequence whose calls differ in the defaults they rely on
REUSE_SEQUENCE = (
    ("li", corpus_path("cusp.ext"), "--method", "conductor", "--json"),
    ("li", corpus_path("cusp.ext"), "--json"),
    ("stalks", corpus_path("two_lines.ext"), "--primes", "x; x - 1"),
    ("stalks", corpus_path("two_lines.ext"), "--generic"),
    ("seminormal", corpus_path("cusp.ext"), "--bound", "2", "--json"),
    ("seminormal", corpus_path("cusp.ext"), "--bound", "3", "--json"),
    ("corpus", "--json"),
)


def test_reused_parser_answers_like_a_fresh_one(capsys, monkeypatch):
    monkeypatch.delenv("CARTIERLAB_BUDGET", raising=False)
    fresh = {}
    for argv in REUSE_SEQUENCE:
        build_parser.cache_clear()
        fresh[argv] = run_cli(capsys, *argv)
    build_parser.cache_clear()
    for order in (REUSE_SEQUENCE, REUSE_SEQUENCE[::-1]):
        for argv in order:
            assert run_cli(capsys, *argv) == fresh[argv], argv
    assert build_parser.cache_info().misses == 1
    assert all(code == 0 for code, _, _ in fresh.values())


def test_budget_variable_is_read_on_every_call(capsys, monkeypatch):
    node = corpus_path("node.ext")
    monkeypatch.setenv("CARTIERLAB_BUDGET", "1")
    code, _, err = run_cli(capsys, "li", node)
    assert code == 3
    assert "resource limit" in err
    monkeypatch.delenv("CARTIERLAB_BUDGET")
    assert run_cli(capsys, "li", node)[0] == 0
    for bad in ("abc", "0"):
        monkeypatch.setenv("CARTIERLAB_BUDGET", bad)
        for argv in (("li", node), ("terms", "--n", "1")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == f"input error: CARTIERLAB_BUDGET must be a positive integer, found {bad!r}\n"
        # an explicit flag wins over the variable
        assert run_cli(capsys, "li", node, "--pair-budget", "100000")[0] == 0
        assert run_cli(capsys, "li", node, "--pair-budget", "1")[0] == 3


MISSING_INPUT_COMMANDS = (
    ("check", "{path}"),
    ("li", "{path}"),
    ("stalks", "{path}", "--generic"),
    ("seminormal", "{path}"),
    ("anodal", "{path}"),
    ("units", "--base", "{path}", "--laurent", "t"),
)


@pytest.mark.parametrize("argv", MISSING_INPUT_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unreadable_input_is_input_error(capsys, tmp_path, argv, target):
    path = str(tmp_path / "missing.ext") if target == "missing" else str(tmp_path)
    code, out, err = run_cli(capsys, *(part.format(path=path) for part in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: cannot read {path}: ")


NON_UTF8_INPUTS = (
    ("check", "[ring.A]\nfield = QQ\nvars = x\nrelations =\n\n"
     "[ring.B]\nfield = QQ\nvars = x\nrelations =\n\n[map]\nx = x\n"),
    ("li", "[ring.A]\nfield = QQ\nvars = x\nrelations =\n\n"
     "[ring.B]\nfield = QQ\nvars = x\nrelations =\n\n[map]\nx = x\n"),
    ("units", "[ring]\nfield = QQ\nvars = e\nrelations = e^2 - e\n"),
)


@pytest.mark.parametrize("command, text", NON_UTF8_INPUTS, ids=[c for c, _ in NON_UTF8_INPUTS])
def test_non_utf8_description_is_input_error(capsys, tmp_path, command, text):
    # the same file without the 0xff byte in its comment line is accepted
    path = tmp_path / "bad.txt"
    argv = [command, "--base", str(path), "--laurent", "e"] if command == "units" else [command, str(path)]
    head, rest = text.split("\n", 1)
    path.write_bytes(f"{head}\n# note\n{rest}".encode())
    assert run_cli(capsys, *argv)[0] == 0
    path.write_bytes(f"{head}\n# note \xff\n{rest}".encode("latin-1"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: cannot read {path}: not UTF-8 text (")
    assert "0xff" in err


FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def test_wrong_module_generators_on_shifted_curve_are_refused(capsys, tmp_path):
    # (t + 1)^2 * (x, y, z) lies in A, but t * x = (t + 1)^4 - (t + 1)^3 does
    # not: the true conductor is (t + 1)^5 * k[t], not the maximal ideal
    with open(os.path.join(FIXTURES, "monomial-3-5-7-qq.ext")) as handle:
        text = handle.read()
    text = re.sub(r"(?m)^module_generators = .*$", "module_generators = 1, (t + 1)^2", text)
    text = re.sub(r"(?m)^fractions = .*$", "fractions = (t + 1)^2 : y | x", text)
    path = tmp_path / "wrong.ext"
    path.write_text(text)
    for method in ("auto", "conductor"):
        code, out, err = run_cli(capsys, "li", str(path), "--json", "--method", method)
        assert (code, out) == (2, "")
        assert err == "error: conductor generator x times t escapes the subring\n"


def test_finite_hint_without_monic_relation_is_refused(capsys, tmp_path):
    # B = A[1/a] is birational over A = QQ[a] but not finite: y = 1/a has no
    # monic relation over A; the fraction y = 1 / a checks and 1 * y, a * y
    # lie in A, so only the finiteness certificate refuses it
    path = tmp_path / "localized.ext"
    path.write_text(
        "[ring.A]\nfield = QQ\nvars = a\nrelations =\n\n"
        "[ring.B]\nfield = QQ\nvars = x, y\nrelations = x*y - 1\n\n"
        "[map]\na = x\n\n"
        "[hints]\nfinite = true\nbirational = true\n"
        "module_generators = 1, y\nfractions = y : 1 | a\n"
    )
    code, out, err = run_cli(capsys, "li", str(path), "--json")
    assert (code, out) == (2, "")
    assert err == (
        "error: finite hint does not hold: no element of the tag basis has a pure "
        "power of y as leading monomial, so B is not finite over A\n"
    )


def test_conductor_refusal_texts_are_unchanged(capsys, tmp_path):
    zero_divisor = tmp_path / "zero_divisor.ext"
    zero_divisor.write_text(
        "[ring.A]\nfield = QQ\nvars = x\nrelations = x^2\n\n"
        "[ring.B]\nfield = QQ\nvars = u, t\nrelations = u^2, t^2, u*t\n\n"
        "[map]\nx = u\n\n"
        "[hints]\nfinite = true\nbirational = true\n"
        "module_generators = 1, t\nfractions = t : 0 | x\n"
    )
    # the node with module_generators = 1: the conductor fold is empty
    unit = tmp_path / "unit.ext"
    unit.write_text(
        "[ring.A]\nfield = QQ\nvars = x, y\nrelations = x^3 + x^2 - y^2\n\n"
        "[ring.B]\nfield = QQ\nvars = t\nrelations =\n\n"
        "[map]\nx = (t + 1)*(t - 1)\ny = t*(t + 1)*(t - 1)\n\n"
        "[hints]\nfinite = true\nbirational = true\n"
        "module_generators = 1\nfractions = t : y | x\n"
    )
    expected = (
        (zero_divisor, "error: conductor generator 1 times t escapes the subring\n"),
        (unit, "error: unit conductor, but the subring is not all of the target: "
               "the module_generators hint does not span it\n"),
    )
    for path, message in expected:
        code, out, err = run_cli(capsys, "li", str(path), "--json", "--method", "conductor")
        assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("argv", [
    ("seminormal", corpus_path("cusp.ext"), "--bound", "0"),
    ("anodal", corpus_path("node.ext"), "--bound", "0"),
    ("seminormal", corpus_path("cusp.ext"), "--bound", "-2", "--json"),
    ("corpus", "--bound", "-1"),
    ("corpus", "--bound", "0", "--json"),
], ids=lambda argv: " ".join(a for a in argv if not a.endswith(".ext")))
def test_bound_below_one_is_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "input error: --bound must be at least 1\n")


def test_bound_of_one_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "seminormal", corpus_path("cusp.ext"), "--bound", "1", "--json")
    assert code == 0
    assert json.loads(out)["results"][0]["bound"] == 1


def test_stalk_over_a_subring_with_torsion_is_not_counted(capsys):
    # QQ[s,x,y]/(y^2 - y, x*y) at s = 0 is QQ[x] x QQ: two components, one of
    # them x-torsion, so counting over QQ(x) would give 1
    path = os.path.join(FIXTURES, "torsion-over-line.ext")
    code, out, _ = run_cli(capsys, "stalks", path, "--primes", "s", "--json")
    assert code == 0
    entry = json.loads(out)["results"][0]
    assert entry["fiber_components"] in (2, "unknown")
    assert "x: the quotient has x-torsion, which its generic fiber does not see" in entry["notes"][0]


def test_planes_glued_at_a_point_have_rank_one(capsys):
    # two planes meeting in a point: H^0(i_*Z/Z) = Z, read off the conductor
    # square; a + (x + z) is one-dimensional, so the colon is by intersection
    path = os.path.join(FIXTURES, "glued-planes.ext")
    code, out, err = run_cli(capsys, "li", path, "--json")
    assert (code, err) == (0, "")
    result = json.loads(out)["results"][0]
    assert (result["rank"], result["method"]) == (1, "ConductorSquare")
    assert result["certificate"] == {
        "conductor": ["w", "z", "y", "x"],
        "components_A_mod_conductor": 1,
        "components_B_mod_conductor": 2,
    }


def test_generic_stalk_over_an_imperfect_field_is_unknown(capsys):
    path = os.path.join(FIXTURES, "frobenius-fp3.ext")
    code, out, err = run_cli(capsys, "stalks", path, "--generic", "--json")
    assert (code, err) == (0, "")
    entry = json.loads(out)["results"][0]
    assert entry["residue_field"] == "FP(3)(x)"
    assert entry["fiber_components"] in (1, "unknown")
    code, out, err = run_cli(capsys, "li", path, "--generic", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["results"][0]["rank"] in (0, "unknown")


@pytest.mark.parametrize("name, components", [
    ("nil_toy.ext", 1), ("idem_toy.ext", 2), ("nil_cube.ext", 1),
])
def test_generic_stalk_over_a_field_source(capsys, name, components):
    code, out, err = run_cli(capsys, "stalks", corpus_path(name), "--generic", "--json")
    assert (code, err) == (0, "")
    entry = json.loads(out)["results"][0]
    assert (entry["prime"], entry["residue_field"]) == ("generic", "QQ")
    assert (entry["fiber_components"], entry["stalk_rank"]) == (components, components - 1)
    code, out, err = run_cli(capsys, "stalks", corpus_path(name), "--generic")
    assert (code, err) == (0, "")
    assert f"fiber_components: {components}\n" in out


def test_uncertified_generic_count_names_the_missing_root(capsys):
    path = os.path.join(FIXTURES, "frobenius-fp3.ext")
    code, out, _ = run_cli(capsys, "stalks", path, "--generic", "--json")
    assert code == 0
    assert json.loads(out)["results"][0]["notes"] == [
        "component count not certified: 2*x is not a p-th power in FP(3)(x)"]


CAPPED_COVER = ("[ring.A]\nfield = QQ\nvars = x\n\n[ring.B]\nfield = QQ\nvars = x, y, z\n"
                "relations = y^3 - x, z^2 - 2\n\n[map]\nx = x\n\n[hints]\nfinite = true\n")


def test_a_factor_cap_is_unknown_not_a_budget(capsys, tmp_path):
    """The generic fiber of QQ[x] -> QQ[x,y,z]/(y^3 - x, z^2 - 2) has degree 6
    over QQ(x), past the k(v) factorizer's reach: the count is Unknown with
    the cap as its reason, and the command exits 0, not 3."""
    path = tmp_path / "capped.ext"
    path.write_text(CAPPED_COVER, encoding="utf-8")
    code, out, err = run_cli(capsys, "stalks", str(path), "--generic", "--json")
    assert (code, err) == (0, "")
    entry = json.loads(out)["results"][0]
    assert (entry["fiber_components"], entry["stalk_rank"]) == ("unknown", "unknown")
    assert entry["notes"] == ["component count not certified: factor search over rational "
                              "functions limited to degree 2"]


def test_a_prime_field_modulus_with_no_small_factor_is_input_error(capsys, tmp_path):
    """289 = 17^2 has no factor below 17, so Miller-Rabin, not trial
    division, refuses it."""
    path = tmp_path / "base.ring"
    path.write_text("[ring]\nfield = FP(289)\nvars = e\nrelations = e^2 - e\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "units", "--base", str(path), "--laurent", "t")
    assert (code, out) == (2, "")
    assert err == "input error: [ring] field: prime field modulus is not prime: 289\n"


@pytest.mark.parametrize("method", ["auto", "connected", "conductor"])
def test_li_refuses_a_prime_that_is_not_maximal(capsys, method):
    code, out, err = run_cli(capsys, "li", corpus_path("node.ext"), "--primes", "x",
                             "--method", method)
    assert (code, out) == (2, "")
    assert err == "input error: the quotient by the ideal is not a field\n"


def test_unicode_digit_in_a_relation_is_input_error(capsys, tmp_path):
    """'²' is no digit of the grammar: the relation is refused, where int()
    used to fail on the token '2²'."""
    path = tmp_path / "base.ring"
    path.write_text("[ring]\nfield = QQ\nvars = x\nrelations = x^2 - 2²\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "units", "--base", str(path), "--laurent", "t")
    assert (code, out) == (2, "")
    assert err == ("input error: [ring] relation 'x^2 - 2²': unexpected character "
                   "'²' at position 7: 'x^2 - 2²'\n")


def test_readme_description_example_checks(capsys, tmp_path):
    """The ini block under "Description files" in README.md, trailing
    comments included, is a valid extension file."""
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme, encoding="utf-8") as handle:
        section = handle.read().split("### Description files", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    assert "# or FP(p)" in block
    path = tmp_path / "readme.ext"
    path.write_text(block, encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, err) == (0, "")
    assert "status: pass" in out


def test_negative_power_of_a_non_unit_is_input_error(capsys):
    """eps is nilpotent in QQ[eps]/(eps^2), so eps^-1 is refused as input
    that names it, not a ZeroDivisionError traceback."""
    code, out, err = run_cli(capsys, "units", "--base", corpus_path("nil_base.ring"),
                             "--laurent", "eps^-1")
    assert (code, out) == (2, "")
    assert err == ("input error: laurent expression: eps is not a unit, so it has no "
                   "negative powers at position 5: 'eps^-1'\n")


@pytest.mark.parametrize("ring_text, message", [
    ("vars = x\n", "[ring] of {path} is not a nonzero finite-dimensional algebra: ideal "
     "is not zero-dimensional: no pure power of 'x' among the leading terms"),
    ("vars = x\nrelations = x, x - 1\n", "[ring] of {path} is not a nonzero "
     "finite-dimensional algebra: quotient by the unit ideal"),
    ("vars = t, e\nrelations = t^2, e^2 - e\n", "the Laurent variable 't' collides with "
     "a variable or field symbol of the base QQ[t, e]"),
], ids=["not-zero-dimensional", "unit-ideal", "t-collision"])
def test_bad_units_base_is_input_error(capsys, tmp_path, ring_text, message):
    """A base ring that is no nonzero finite algebra, or that already names t,
    is bad input: the message names the file and its [ring] section, or t."""
    path = tmp_path / "base.ring"
    path.write_text("[ring]\nfield = QQ\n" + ring_text, encoding="utf-8")
    code, out, err = run_cli(capsys, "units", "--base", str(path), "--laurent", "t + 1")
    assert (code, out) == (2, "")
    assert err == "input error: " + message.format(path=path) + "\n"


@pytest.mark.parametrize("argv, message", [
    (["li", corpus_path("nil_base.ring")], "li needs an extension or rank-data file"),
    (["li", corpus_path("node.rankdata"), "--method", "hensel"],
     "rank-data files support only --method auto or fiveterm"),
    (["terms", "--n", "-1"], "--n must be nonnegative"),
], ids=["li-on-a-ring", "li-hensel-on-rankdata", "terms-negative-n"])
def test_command_refusals_are_input_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"input error: {message}\n"


def test_only_the_digit_limit_value_error_is_a_resource_limit(monkeypatch):
    """Any other ValueError is a bug, so it leaves `main` as it came."""
    def broken(n):
        raise ValueError("not the digit limit")

    monkeypatch.setattr(cli, "decomposition_terms", broken)
    with pytest.raises(ValueError, match="^not the digit limit$"):
        main(["terms", "--n", "1"])


def test_human_report_ends_with_its_warnings(capsys):
    """Without --json the warnings follow the entries, one line each."""
    code, out, err = run_cli(capsys, "check", "--assume-injective", "--pair-budget", "1",
                             corpus_path("node.ext"))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == (
        "warning: injectivity assumed: elimination exceeded the pair budget")


def _corpus_with(name, pattern, replacement):
    with open(corpus_path(name), encoding="utf-8") as handle:
        return re.sub(pattern, replacement, handle.read(), flags=re.M)


def _cusp_with(pattern, replacement):
    return _corpus_with("cusp.ext", pattern, replacement)


DIGIT_LIMIT = (f"resource limit: an integer has more than {sys.get_int_max_str_digits()} digits, "
               "Python's int/text conversion limit (sys.get_int_max_str_digits())\n")
NESTED_X = "(" * 300 + "x" + ")" * 300
NESTED_T = "(" * 300 + "t" + ")" * 300
FREE_PLANE = ("[ring.A]\nfield = QQ\nvars = x, y\n\n[ring.B]\nfield = QQ\nvars = s, t\n\n"
              "[map]\nx = s\ny = t\n")
DOUBLE_POINT = ("[ring.A]\nfield = QQ\nvars = x\nrelations = x^2\n\n[ring.B]\nfield = QQ\n"
                "vars = u\nrelations = u^2\n\n[map]\nx = u\n")


@pytest.mark.parametrize("text, argv, code, expected", [
    (_cusp_with(r"^module_generators = .*\n", ""), ["li", "<path>", "--method", "conductor"], 0,
     "conductor needs module generators for B over A"),
    (_cusp_with(r"^fractions = .*$", "fractions ="), ["li", "<path>", "--method", "conductor"], 0,
     "module generator t has no fraction hint"),
    (FREE_PLANE, ["stalks", "<path>", "--primes", "x"], 2,
     "input error: only maximal ideals (and the zero ideal) can be verified prime\n"),
    (FREE_PLANE, ["stalks", "<path>", "--generic"], 2,
     "input error: generic stalks over free polynomial sources support one variable\n"),
    (DOUBLE_POINT, ["stalks", "<path>", "--generic"], 2,
     "input error: the zero ideal is prime only when the source is a domain\n"),
    (_cusp_with(r"^\[hints\][\s\S]*", ""), ["stalks", "<path>", "--generic"], 2,
     "input error: generic stalks need a free one-variable source, a field source, "
     "or finite+birational hints\n"),
    (_cusp_with(r"^vars = x, y\n", ""), ["check", "<path>"], 2,
     "input error: [ring.A] needs the keys field and vars\n"),
    (_cusp_with(r"^finite = true$", "finite = true\nsmooth = true"), ["check", "<path>"], 2,
     "input error: unknown keys in [hints]: ['smooth']\n"),
    (_cusp_with(r"^module_generators = .*$", "module_generators = 1, t +"), ["check", "<path>"], 2,
     "input error: module generator 't +': unexpected 'end of input' at position 3: 't +'\n"),
    (_cusp_with(r"^fractions = .*$", "fractions = t : y + | x"), ["check", "<path>"], 2,
     "input error: fraction entry 't : y + | x': unexpected 'end of input' at position 3: "
     "'y +'\n"),
    (_cusp_with(r"^fractions = .*$", "fractions = t | x : y"), ["li", "<path>"], 2,
     "input error: fraction entries look like 'generator : numerator | denominator', "
     "found 't | x : y'\n"),
    (_cusp_with(r"^lpic_A_rank = 0$", "lpic_A_rank = two"), ["check", "<path>"], 2,
     "input error: lpic_A_rank must be an integer\n"),
    (_cusp_with(r"^y = t\^3$", "y = t^3 +"), ["check", "<path>"], 2,
     "input error: image of 'y': unexpected 'end of input' at position 5: 't^3 +'\n"),
    (_corpus_with("node.rankdata", r"^c_A = 1$", "c_A = one"), ["li", "<path>"], 2,
     "input error: [rankdata] entries must be integers\n"),
    (_corpus_with("node.rankdata", r"^c_A = 1$", "c_A = -1"), ["li", "<path>"], 2,
     "input error: rank data entries must be nonnegative\n"),
    (FREE_PLANE, ["check", "<path>", "--pair-budget", "0"], 2,
     "input error: pair budget must be positive\n"),
    (_corpus_with("node.rankdata", r"\Z", "\n[hints]\nfinite = true\n"), ["li", "<path>"], 2,
     "input error: <path> must contain exactly the [rankdata] section\n"),
    (_corpus_with("nil_base.ring", r"\Z", "\n[hints]\nfinite = true\n"),
     ["units", "--base", "<path>", "--laurent", "t"], 2,
     "input error: <path> must contain exactly the [ring] section\n"),
    (_corpus_with("node.ext", r"^relations = y\^2 - x\^3 - x\^2$", f"relations = {NESTED_X}"),
     ["check", "<path>"], 2,
     f"input error: [ring.A] relation {NESTED_X!r}: parentheses nested deeper than 100 "
     f"at position 100: {NESTED_X!r}\n"),
    ("[ring]\nfield = QQ\nvars = eps\nrelations = eps^2\n",
     ["units", "--base", "<path>", "--laurent", NESTED_T],
     2, f"input error: laurent expression: parentheses nested deeper than 100 at position 100: "
     f"{NESTED_T!r}\n"),
    (_corpus_with("node.ext", r"^relations = y\^2 - x\^3 - x\^2$", "relations = x)"),
     ["check", "<path>"], 2,
     "input error: [ring.A] relation 'x)': unexpected ')' at position 1: 'x)'\n"),
    (_corpus_with("node.ext", r"^relations = y\^2 - x\^3 - x\^2$", "relations = 1/0*x"),
     ["check", "<path>"], 2,
     "input error: [ring.A] relation '1/0*x': zero denominator at position 2: '1/0*x'\n"),
    ("[ring]\nfield = FP(7)\nvars = e\nrelations = e^2 - e\n",
     ["units", "--base", "<path>", "--laurent", "(1/7)*t"], 2,
     "input error: laurent expression: denominator divisible by 7 at position 1: '(1/7)*t'\n"),
    (_corpus_with("node.ext", r"\Z", ""), ["stalks", "<path>", "--primes", ";"], 2,
     "input error: stalks needs --primes and/or --generic\n"),
    ("", ["terms", "--n", "9100"], 3, DIGIT_LIMIT),
    (_corpus_with("nil_base.ring", r"\Z", ""),
     ["units", "--base", "<path>", "--laurent", "2^20000*t"], 3, DIGIT_LIMIT),
], ids=["conductor-without-module-generators", "conductor-without-fractions",
        "stalk-at-a-prime-that-is-not-maximal", "generic-stalk-over-a-free-plane",
        "generic-stalk-over-a-source-that-is-no-domain",
        "generic-stalk-of-the-cusp-without-hints", "ring-section-without-vars",
        "unknown-hint-key", "module-generator-parse-error", "fraction-entry-parse-error",
        "fraction-entry-with-the-bar-first",
        "lpic-rank-not-an-integer", "map-image-parse-error", "rankdata-entry-not-an-integer",
        "rankdata-entry-negative",
        "pair-budget-zero", "rankdata-with-an-extra-section", "ring-with-an-extra-section",
        "relation-nested-past-the-limit", "laurent-nested-past-the-limit",
        "relation-with-an-unopened-parenthesis", "relation-with-a-zero-denominator",
        "laurent-with-a-denominator-zero-in-the-field", "stalks-with-only-empty-primes",
        "terms-past-the-digit-limit", "laurent-coefficient-past-the-digit-limit"])
def test_command_reachable_refusals(capsys, tmp_path, text, argv, code, expected):
    """A missing hint gives rank Unknown with its reason; a prime that is not
    zero-dimensional, a generic stalk that no rule certifies, a malformed
    entry or an extra section in a description file, a negative rank-data
    entry, a stray ')', a zero
    denominator (in the integers, or in F_p for a Laurent expression),
    parentheses nested past the parser's limit, a pair
    budget below one and a `--primes` list with no prime are refused as bad
    input. A report with an integer longer than Python converts to text
    (the largest summand count of `terms --n 9100` has 4340 digits, and
    2^20000 has 6021) exits 3 and prints nothing. `<path>` stands for the file."""
    path = tmp_path / "input.ext"
    path.write_text(text, encoding="utf-8")
    got, out, err = run_cli(capsys, *(str(path) if a == "<path>" else a for a in argv))
    assert got == code
    if code == 0:
        assert err == ""
        assert f"rank: unknown\nmethod: ConductorSquare\ncertificate:\n  reason: {expected}\n" in out
    else:
        assert (out, err) == ("", expected.replace("<path>", str(path)))


# Where a generated expression goes in node.ext, with the variables it may use.
_NODE_SLOTS = [
    (r"^relations = y\^2 - x\^3 - x\^2$", "relations = ", ("x", "y")),
    (r"^relations =$", "relations = ", ("t",)),
    (r"^x = t\^2 - 1$", "x = ", ("t",)),
]
_STRAY = ["@", "(", ")", "^", "/0", ",", "=", "#", "\u00b2", "\n", "t^-1"]


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


if st is None:
    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_generated_inputs_end_in_an_exit_code():
        pass
else:
    def _expressions(names, exponents):
        """Small sums and products of powers, some empty, inside 0 to
        10 * MAX_NESTING parentheses, with a stray character before or after.
        Hypothesis runs a test with 2000 stack frames to spare, four per
        parenthesis, so only past about 500 levels would a parser without the
        limit fail here."""
        leaves = st.one_of(
            st.sampled_from([*names, "0", "1", "2", "1/2", ""]),
            st.tuples(st.sampled_from(names), exponents).map(lambda t: f"{t[0]}^{t[1]}"),
        )
        small = st.recursive(leaves, lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map(" ".join),
            inner.map(lambda a: f"-({a})"),
        ), max_leaves=4)
        nested = st.tuples(small, st.integers(0, 10 * MAX_NESTING)).map(
            lambda t: "(" * t[1] + t[0] + ")" * t[1])
        stray = st.one_of(st.just(""), st.sampled_from(_STRAY))
        return st.tuples(nested, stray, st.booleans()).map(
            lambda t: t[0] + t[1] if t[2] else t[1] + t[0])

    @st.composite
    def _node_files(draw):
        pattern, key, names = draw(st.sampled_from(_NODE_SLOTS))
        expression = draw(_expressions(names, st.integers(0, 3)))
        return _corpus_with("node.ext", pattern, lambda _: key + expression)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(case=st.one_of(
        _node_files().map(lambda text: ("check", text)),
        _expressions(("eps", "t"), st.integers(-3, 3)).map(lambda text: ("units", text)),
    ))
    def test_generated_inputs_end_in_an_exit_code(tmp_path_factory, case):
        """`check` on node.ext with one relation or image replaced, and `units`
        on the dual numbers, answer, refuse as bad input or stop at a budget:
        no generated input, parentheses nested past the limit included, ends
        in a traceback or in the corpus-regression code 1."""
        command, text = case
        if command == "check":
            path = tmp_path_factory.getbasetemp() / "generated.ext"
            path.write_text(text, encoding="utf-8")
            argv = ["check", str(path)]
        else:
            argv = ["units", "--base", corpus_path("nil_base.ring"), f"--laurent={text}"]
        assert _quiet_main(argv) in (0, 2, 3)
