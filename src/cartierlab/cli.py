"""Command-line front end: check, stalks, li, seminormal, anodal, terms,
units, and the corpus regression runner.

Reports are deterministic: the same inputs produce byte-identical output.
Exit codes, decided by the exception's class in `main`: 0 success (Unknown
results included, a capped factor search among them), 1 corpus regression
failure, 2 bad input (InputError, `input error:`) or another refusal
(`error:`), 3 a budget (ResourceLimitError) or the int/text digit limit.

The argument parser is built once per process, at the first `main` call,
and reused by every later call. `main` resolves the S-pair budget on every
call: `--pair-budget`, else `CARTIERLAB_BUDGET`, else the library default.
Each command reads its input file once and takes the input digest from the
same bytes it parses.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

from . import __version__
from .cartier import (
    ROUTES,
    decomposition_terms,
    li_auto,
    li_five_term,
    LIResult,
    run_route,
    stalk_rank,
    verify_maximal,
)
from .corpus import run_corpus
from .errors import (
    CartierlabError,
    InjectivityError,
    InputError,
    ParseError,
    ResourceLimitError,
    UNKNOWN,
    Uncertified,
    WellDefinednessError,
    shown,
)
from .extensions import closure_search
from .extfile import detect_kind, load_extension, load_rank_data, load_ring, read_description
from .laurent import NotAUnit, bass_decompose, parse_laurent
from .polycore import Ideal, parse_polynomial
from .polycore.groebner import DEFAULT_PAIR_BUDGET, default_pair_budget, set_default_pair_budget

TOOL = "cartierlab"


def _jsonable(value):
    value = shown(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _read_input(path: str):
    """The input digest and the parsed sections of one description file, read once."""
    data, description = read_description(path)
    return "sha256:" + hashlib.sha256(data).hexdigest(), description


def _report(command: str, results, warnings=(), input_digest=None) -> dict:
    return {
        "tool": TOOL,
        "version": __version__,
        "command": command,
        "input_digest": input_digest,
        "results": _jsonable(list(results)),
        "warnings": _jsonable(list(warnings)),
    }


def _li_entry(result: LIResult) -> dict:
    return {
        "rank": _jsonable(result.rank),
        "method": result.method,
        "certificate": _jsonable(result.certificate),
        "hints_used": list(result.hints_used),
        "warnings": list(result.warnings),
    }


def _parse_primes(ext, text: str) -> list[Ideal]:
    primes = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        gens = [parse_polynomial(part.strip(), ext.a_ring) for part in chunk.split(",")]
        primes.append(Ideal(ext.a_ring, gens))
    return primes


def _stalk_entry(report) -> dict:
    return {
        "prime": list(report.prime_strings()) or "generic",
        "residue_field": report.residue_description(),
        "fiber_components": _jsonable(report.fiber_components),
        "stalk_rank": _jsonable(report.stalk_rank),
        "semantics": report.semantics,
        "notes": list(report.notes),
    }


# -- subcommands ------------------------------------------------------------------


def cmd_check(args) -> tuple[dict, int]:
    digest, description = _read_input(args.file)
    try:
        ext = load_extension(args.file, args.assume_injective, description)
    except (WellDefinednessError, InjectivityError) as exc:
        kind = "well-definedness" if isinstance(exc, WellDefinednessError) else "injectivity"
        report = _report(
            "check",
            [{"check": "construction", "status": "fail", "failure": kind, "detail": str(exc)}],
            input_digest=digest,
        )
        return report, 2
    entry = {
        "check": "construction",
        "status": "pass",
        "well_defined": True,
        "injective": "assumed" if ext.warnings else True,
        "source": ext.a_ring.describe(),
        "target": ext.b_ring.describe(),
    }
    return _report("check", [entry], warnings=ext.warnings, input_digest=digest), 0


def cmd_stalks(args) -> tuple[dict, int]:
    digest, description = _read_input(args.file)
    ext = load_extension(args.file, args.assume_injective, description)
    primes = _parse_primes(ext, args.primes)
    if not primes and not args.generic:
        raise InputError("stalks needs --primes and/or --generic")
    entries = [_stalk_entry(stalk_rank(ext, prime)) for prime in primes]
    if args.generic:
        entries.append(_stalk_entry(stalk_rank(ext, None)))
    return _report("stalks", entries, input_digest=digest), 0


def cmd_li(args) -> tuple[dict, int]:
    digest, description = _read_input(args.file)
    kind = detect_kind(args.file, description)
    if kind == "rankdata":
        if args.method not in ("auto", "fiveterm"):
            raise InputError("rank-data files support only --method auto or fiveterm")
        result = li_five_term(load_rank_data(args.file, description))
        return _report("li", [_li_entry(result)], input_digest=digest), 0
    if kind == "ring":
        raise InputError("li needs an extension or rank-data file")
    ext = load_extension(args.file, args.assume_injective, description)
    primes = _parse_primes(ext, args.primes or "") or None
    for prime in primes or ():
        verify_maximal(ext, prime)  # a bad prime is an input error, not a route's Unknown
    if args.method == "auto":
        result = li_auto(ext, primes, include_generic=args.generic)
    else:
        result = run_route(args.method, ext, primes, include_generic=args.generic)
    return _report("li", [_li_entry(result)], warnings=ext.warnings, input_digest=digest), 0


def _degree_bound(args) -> int:
    if args.bound < 1:
        raise InputError("--bound must be at least 1")
    return args.bound


def cmd_closure(args) -> tuple[dict, int]:
    """`seminormal` or `anodal`: the witness kind is the command's name."""
    kind = args.command
    bound = _degree_bound(args)
    digest, description = _read_input(args.file)
    ext = load_extension(args.file, args.assume_injective, description)
    result = closure_search(ext, kind, bound)
    closure = result.extension
    entry = {
        "kind": kind,
        "bound": args.bound,
        "witnesses": [str(w) for w in result.adjoined],
        "exhausted": result.exhausted,
        "closure": {
            "variables": list(closure.a_ring.variables),
            "relations": [str(g) for g in closure.a_ideal.generators],
            "images": {v: str(closure.images[v]) for v in closure.a_ring.variables},
        },
    }
    return _report(kind, [entry], warnings=ext.warnings, input_digest=digest), 0


def cmd_terms(args) -> tuple[dict, int]:
    if args.n < 0:
        raise InputError("--n must be nonnegative")
    return _report("terms", [{"n": args.n, "terms": decomposition_terms(args.n)}]), 0


def cmd_units(args) -> tuple[dict, int]:
    digest, description = _read_input(args.base)
    base = load_ring(args.base, description)
    try:
        element = parse_laurent(args.laurent, base)
    except ParseError as exc:
        raise InputError(f"laurent expression: {exc}") from None
    dec = None
    try:
        dec = bass_decompose(element)
        verdict = True
    except NotAUnit:
        verdict = False
    except Uncertified:
        verdict = UNKNOWN
    entry = {
        "laurent": str(element),
        "base": base.describe(),
        "is_unit": _jsonable(verdict),
    }
    if dec is not None:
        entry["decomposition"] = {
            "u0": str(base.to_poly(dec.u0)),
            "exponents": list(dec.exponents),
            "idempotents": [str(base.to_poly(e)) for e in dec.idempotents],
            "p_part": str(dec.p_part),
            "q_part": str(dec.q_part),
        }
    return _report("units", [entry], input_digest=digest), 0


def cmd_corpus(args) -> tuple[dict, int]:
    rows = run_corpus(bound=_degree_bound(args))
    failures = [r for r in rows if r["status"] != "pass"]
    report = _report(
        "corpus",
        rows,
        warnings=[f"{len(failures)} corpus checks failed"] if failures else [],
    )
    return report, (1 if failures else 0)


# -- output -----------------------------------------------------------------------


def _human(report: dict) -> str:
    header = f"{report['tool']} {report['version']} :: {report['command']}"
    lines = [header]
    if report.get("input_digest"):
        lines.append(f"input: {report['input_digest']}")
    if report["command"] == "corpus":
        for row in report["results"]:
            line = (
                f"{row['status']:4}  {row['case']}: {row['check']} "
                f"(expected {row['expected']!r}, got {row['actual']!r})"
            )
            if row.get("note"):
                line += f"  [{row['note']}]"
            lines.append(line)
    else:
        for entry in report["results"]:
            lines.append("-" * len(header))
            for key, value in entry.items():
                if isinstance(value, dict):
                    lines.append(f"{key}:")
                    lines.extend(f"  {k}: {v}" for k, v in value.items())
                else:
                    lines.append(f"{key}: {value}")
    lines.extend(f"warning: {warning}" for warning in report["warnings"])
    return "\n".join(lines) + "\n"


def emit(report: dict, as_json: bool) -> None:
    """Write the report in one piece: one that cannot be written writes nothing."""
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n" if as_json
                     else _human(report))


# -- argument parsing ----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built at the first call and shared by every later one.

    It holds no value that depends on the environment or on an earlier
    call: `--pair-budget` defaults to None and `main` resolves it.
    """
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description=(
            "Exact invariants of finitely presented ring extensions: "
            "construction checks, fiber component tables, Laurent-deviation "
            "ranks of relative Cartier divisor groups, seminormality and "
            "anodality searches, and unit decompositions."
        ),
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="emit the structured report")
    shared.add_argument(
        "--pair-budget",
        type=int,
        default=None,
        help="S-pair budget for basis computations (env CARTIERLAB_BUDGET)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file_command(name, func, with_bound=False, with_primes=False):
        p = sub.add_parser(name, parents=[shared])
        p.add_argument("file")
        p.add_argument("--assume-injective", action="store_true")
        if with_bound:
            p.add_argument("--bound", type=int, default=6)
        if with_primes:
            p.add_argument("--primes", default="")
            p.add_argument("--generic", action="store_true")
        p.set_defaults(func=func)
        return p

    add_file_command("check", cmd_check)
    add_file_command("stalks", cmd_stalks, with_primes=True)
    li_p = add_file_command("li", cmd_li, with_primes=True)
    li_p.add_argument(
        "--method",
        default="auto",
        choices=["auto", *ROUTES],
    )
    add_file_command("seminormal", cmd_closure, with_bound=True)
    add_file_command("anodal", cmd_closure, with_bound=True)

    terms_p = sub.add_parser("terms", parents=[shared])
    terms_p.add_argument("--n", type=int, required=True)
    terms_p.set_defaults(func=cmd_terms)

    units_p = sub.add_parser("units", parents=[shared])
    units_p.add_argument("--base", required=True)
    units_p.add_argument("--laurent", required=True)
    units_p.set_defaults(func=cmd_units)

    corpus_p = sub.add_parser("corpus", parents=[shared])
    corpus_p.add_argument("--bound", type=int, default=6)
    corpus_p.set_defaults(func=cmd_corpus)

    return parser


def _pair_budget(flag: int | None) -> int:
    """`--pair-budget`, else `CARTIERLAB_BUDGET`, else the library default.

    A value that is not a positive integer raises InputError naming its source.
    """
    if flag is not None:
        if flag < 1:
            raise InputError("pair budget must be positive")
        return flag
    text = os.environ.get("CARTIERLAB_BUDGET")
    if text is None:
        return DEFAULT_PAIR_BUDGET
    try:
        budget = int(text)
    except ValueError:
        budget = 0
    if budget < 1:
        raise InputError(f"CARTIERLAB_BUDGET must be a positive integer, found {text!r}")
    return budget


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    previous_budget = default_pair_budget()
    try:
        set_default_pair_budget(_pair_budget(args.pair_budget))
        report, code = args.func(args)
        emit(report, args.json)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # only an integer past Python's digit limit for text
        if "integer string conversion" not in str(exc):
            raise
        print(f"resource limit: an integer has more than {sys.get_int_max_str_digits()} digits, "
              "Python's int/text conversion limit (sys.get_int_max_str_digits())", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CartierlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        set_default_pair_budget(previous_budget)
    return code


if __name__ == "__main__":
    sys.exit(main())
