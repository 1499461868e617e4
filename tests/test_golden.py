"""Byte-for-byte snapshots of the CLI reports and of reduced bases.

The CLI cases run `cartierlab.cli.main` in process on the shipped corpus:
`corpus --json`; `check --json` and `li --json` on every `.ext` and
`.rankdata` file; `stalks --json` on seven extensions at fixed primes;
`units --json` on both `.ring` files; and `seminormal --json` and
`anodal --json` at bound 3 on four extensions. The stalks and units cases pin
the printed residue fields and the order of the primitive idempotents; the
closure cases pin the relations of each enlarged source ring. Each
snapshot holds the exit code, stdout and stderr; the corpus directory is
written as `<corpus>` so that the files do not depend on where the package
lives.

The basis cases are small random ideals over QQ and F_32003 in 2-3 variables
under lex, grevlex and a block order. Each snapshot line holds the reduced
basis and the number R of S-pairs Buchberger reduced: the run must succeed
with a pair budget of R and raise `PairBudgetExceeded` with R - 1.

A change that alters any snapshot changes the program's output and has to
say so and why. To regenerate the snapshots after such a change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys

import pytest

from cartierlab.cli import main
from cartierlab.corpus import corpus_path
from cartierlab.errors import PairBudgetExceeded
from cartierlab.polycore import GREVLEX, LEX, MonomialOrder, Polynomial, PolyRing, PrimeField, QQ
from cartierlab.polycore.groebner import buchberger

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CORPUS = os.path.dirname(corpus_path("node.ext"))
FILES = sorted(n for n in os.listdir(CORPUS) if n.endswith((".ext", ".rankdata")))
STALKS = (  # (file, --primes, --generic)
    ("node.ext", "x, y; x - 3, y - 6", False),
    ("two_lines.ext", "x; x - 1", True),
    ("cusp.ext", "x, y", True),
    ("family_split.ext", "x; x - 1", False),
    ("line_into_node.ext", "x; x + 1; x - 3", True),
    ("conjugate_pair.ext", "x; x^2 + 1", False),
    ("laurent_square.ext", "s - 1", False),
)
UNITS = (("nil_base.ring", "3*t^-2 + 3*eps"), ("split_base.ring", "e*t^2 + 3 - 3*e"))
CLOSURES = ("cusp.ext", "node.ext", "nil_toy.ext", "chain_bottom.ext")
CLI_CASES = {"corpus": ["corpus"]}
for _name in FILES:
    for _cmd in ("check", "li"):
        CLI_CASES[f"{_cmd}-{_name}"] = [_cmd, _name]
for _name, _primes, _generic in STALKS:
    CLI_CASES[f"stalks-{_name}"] = (["stalks", _name, "--primes", _primes]
                                    + (["--generic"] if _generic else []))
for _name, _laurent in UNITS:
    CLI_CASES[f"units-{_name}"] = ["units", "--base", _name, "--laurent", _laurent]
for _kind in ("seminormal", "anodal"):
    for _name in CLOSURES:
        CLI_CASES[f"{_kind}-{_name}"] = [_kind, _name, "--bound", "3"]
BASES_FILE = "bases.txt"
CLASSIC_IDEALS = (
    ("x + y + z", "x*y + y*z + z*x", "x*y*z - 1"),  # cyclic-3
    ("x + 2*y + 2*z - 1", "x^2 + 2*y^2 + 2*z^2 - x", "2*x*y + 2*y*z - y"),  # katsura-3
    ("x^3 - 2*x*y", "x^2*y - 2*y^2 + x", "z^2 - x*y"),
)
BUDGET = "100000"  # the default, given explicitly so CARTIERLAB_BUDGET cannot move it


def capture_cli(case: str) -> str:
    argv = [os.path.join(CORPUS, a) if a.endswith((".ext", ".rankdata", ".ring")) else a
            for a in CLI_CASES[case]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--json", "--pair-budget", BUDGET])
    text = f"exit: {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    return text.replace(CORPUS, "<corpus>")


def basis_cases():
    """(ring, generators) for the basis snapshots, fixed by the seed."""
    rng = random.Random(20261018)
    orders = (LEX, GREVLEX, MonomialOrder("block", 1))
    cases = []
    for field in (QQ, PrimeField(32003)):
        for order in orders:
            for names in (("x", "y"), ("x", "y", "z")):
                ring = PolyRing(field, names, order)
                for _ in range(4):
                    gens = []
                    for _ in range(rng.randint(2, 3)):
                        terms = {}
                        for _ in range(rng.randint(2, 3)):
                            exps = tuple(rng.randint(0, 2) for _ in names)
                            terms[exps] = field.from_int(rng.choice((-3, -2, -1, 1, 2, 5)))
                        gens.append(Polynomial(ring, terms))
                    cases.append((ring, gens))
        for order in orders:
            ring = PolyRing(field, ("x", "y", "z"), order)
            for texts in CLASSIC_IDEALS:
                cases.append((ring, [ring.parse(t) for t in texts]))
    return cases


def _describe(ring, gens) -> str:
    return f"{ring.describe()} {ring.order.kind}: " + ", ".join(str(g) for g in gens)


def _finishes(ring, gens, budget: int) -> bool:
    try:
        buchberger(gens, ring, budget)
    except PairBudgetExceeded:
        return False
    return True


def _pairs_reduced(ring, gens) -> int:
    """The smallest pair budget that lets the run finish: its S-pair count."""
    lo, hi = -1, 1
    while not _finishes(ring, gens, hi):
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _finishes(ring, gens, mid) else (mid, hi)
    return hi


def capture_bases() -> str:
    lines = []
    for ring, gens in basis_cases():
        basis = buchberger(gens, ring)
        pairs = _pairs_reduced(ring, gens)
        lines.append(f"{_describe(ring, gens)} | pairs {pairs} | "
                     + ", ".join(str(g) for g in basis))
    return "\n".join(lines) + "\n"


def _read(name: str) -> str:
    with open(os.path.join(GOLDEN, name), "rb") as handle:
        return handle.read().decode("utf-8")


@pytest.mark.parametrize("case", CLI_CASES)
def test_cli_report_matches_snapshot(case):
    assert capture_cli(case) == _read(f"{case}.txt")


@pytest.mark.parametrize("index", range(len(basis_cases())))
def test_reduced_basis_and_pair_count_match_snapshot(index):
    ring, gens = basis_cases()[index]
    line = _read(BASES_FILE).splitlines()[index]
    head, pairs, basis = line.split(" | ")
    assert head == _describe(ring, gens)
    assert ", ".join(str(g) for g in buchberger(gens, ring)) == basis
    count = int(pairs.split()[1])
    assert ", ".join(str(g) for g in buchberger(gens, ring, count)) == basis
    if count:
        with pytest.raises(PairBudgetExceeded):
            buchberger(gens, ring, count - 1)


def _write_all():
    os.makedirs(GOLDEN, exist_ok=True)
    snapshots = {f"{case}.txt": capture_cli(case) for case in CLI_CASES}
    snapshots[BASES_FILE] = capture_bases()
    for name, text in snapshots.items():
        with open(os.path.join(GOLDEN, name), "wb") as handle:
            handle.write(text.encode("utf-8"))
    print(f"wrote {len(snapshots)} snapshots to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _write_all()
