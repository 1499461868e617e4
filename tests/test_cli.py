from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from cartierlab.cli import build_parser, main
from cartierlab.corpus import corpus_path


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


def test_cli_digest_script_prints_one_line():
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_digest.py")
    done = subprocess.run([sys.executable, script], capture_output=True, text=True,
                          timeout=300, check=True)
    assert done.stderr == ""
    assert re.fullmatch(r"\d+ calls sha256:[0-9a-f]{64}\n", done.stdout)


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
            assert err == f"error: CARTIERLAB_BUDGET must be a positive integer, found {bad!r}\n"
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
