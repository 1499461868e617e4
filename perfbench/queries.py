"""One executor per query kind: read the input files, call cartierlab, return
a JSON-able answer for the oracle.

Executors reach every library function through its module at call time
(`lib.cartier.li_auto`, ...), so that the traced run, which replaces module
attributes, sees the calls made here as well as those made inside the library.
"""

from __future__ import annotations

import contextlib
import io


def _show(lib, value):
    """The library's Unknown and Empty markers as the CLI spells them."""
    if value is lib.errors.UNKNOWN:
        return "unknown"
    return "empty" if value is lib.errors.EMPTY else value


def _prime(lib, ext, gens):
    ring = ext.a_ring
    return lib.polycore.Ideal(ring, [lib.polycore.parse_polynomial(g, ring) for g in gens])


def components(lib, files, args):
    alg = lib.extfile.load_ring(files["ring"])
    return {"count": _show(lib, lib.artinian.component_count(alg))}


def stalk(lib, files, args):
    ext = lib.extfile.load_extension(files["ext"])
    report = lib.cartier.stalk_rank(ext, _prime(lib, ext, args["prime"]))
    return {"components": _show(lib, report.fiber_components),
            "stalk": _show(lib, report.stalk_rank)}


def units(lib, files, args):
    base = lib.extfile.load_ring(files["ring"])
    unit = lib.laurent.parse_laurent(args["laurent"], base)
    dec = lib.laurent.bass_decompose(unit)
    return {"exponents": list(dec.exponents), "round_trip": dec.recompose() == unit}


def li(lib, files, args):
    ext = lib.extfile.load_extension(files["ext"])
    result = lib.cartier.li_auto(ext)
    return {"rank": _show(lib, result.rank), "method": result.method}


def closure(lib, files, args):
    ext = lib.extfile.load_extension(files["ext"])
    result = lib.extensions.closure_search(ext, "seminormal", args["bound"])
    return {"adjoined": [str(w) for w in result.adjoined], "exhausted": result.exhausted}


def ni(lib, files, args):
    ext = lib.extfile.load_extension(files["ext"])
    verdict = lib.cartier.ni_verdict(ext, args["bound"])
    witness = None if verdict.witness is None else str(verdict.witness)
    return {"status": verdict.status, "witness": witness}


def run_corpus(lib, files, args):
    rows = lib.corpus.run_corpus()
    return {
        "rows": len(rows),
        "failed_rows": [f"{r['case']}: {r['check']}" for r in rows if r["status"] != "pass"],
    }


def cli(lib, files, args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(list(args["argv"]))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


EXECUTORS = {
    "components": components,
    "stalk": stalk,
    "units": units,
    "li": li,
    "closure": closure,
    "ni": ni,
    "run_corpus": run_corpus,
    "cli": cli,
}


def execute(lib, query) -> dict:
    """Answer one query; an exception is recorded as the answer for the oracle to judge."""
    try:
        return EXECUTORS[query["kind"]](lib, query["files"], query["args"])
    except Exception as exc:  # noqa: BLE001 - the loop must survive a library bug
        return {"error": type(exc).__name__, "message": str(exc)}
