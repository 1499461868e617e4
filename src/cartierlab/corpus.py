"""The bundled regression corpus: inputs plus frozen expected values.

Each entry replays an analysis on a shipped description file and compares
against the expected value recorded here. Non-certified literature values
are carried as notes only and never asserted against computed output.
A pass computes each presentation's rank once; the rows that need it again
(the stability verdicts, the tower and the product) reuse that result.
"""

from __future__ import annotations

from importlib import resources

from .cartier import (
    decomposition_terms,
    laurent_stability,
    li_auto,
    li_five_term,
    li_reduce_red,
    ni_verdict,
    product_rank,
    stalk_rank,
    tower_check,
)
from .errors import EMPTY, UNKNOWN
from .extensions import closure_search
from .extfile import load_extension, load_rank_data, load_ring
from .laurent import bass_decompose, parse_laurent
from .polycore import Ideal, parse_polynomial


def corpus_path(filename: str) -> str:
    return str(resources.files("cartierlab").joinpath("corpus", filename))


def _prime(ext, *texts):
    return Ideal(ext.a_ring, [parse_polynomial(t, ext.a_ring) for t in texts])


def _row(case, check, expected, actual, note=None):
    status = "pass" if expected == actual else "fail"
    row = {
        "case": case,
        "check": check,
        "expected": expected,
        "actual": actual,
        "status": status,
    }
    if note:
        row["note"] = note
    return row


def _show(value):
    if value is UNKNOWN:
        return "unknown"
    if value is EMPTY:
        return "empty"
    return value


def run_corpus(bound: int = 6) -> list[dict]:
    rows: list[dict] = []

    node = load_extension(corpus_path("node.ext"))
    node_stability = laurent_stability(node, degree_bound=4)
    node_li = node_stability.li
    rows.append(_row("node.ext", "li rank", 1, _show(node_li.rank)))
    rows.append(_row("node.ext", "li method", "ConductorSquare", node_li.method))
    rows.append(
        _row("node.ext", "stalk at (x, y)", 1, _show(stalk_rank(node, _prime(node, "x", "y")).stalk_rank))
    )
    rows.append(_row("node.ext", "laurent stability", "no", node_stability.answer))
    rows.append(
        _row("node.rankdata", "li rank", 1, _show(li_five_term(load_rank_data(corpus_path("node.rankdata"))).rank))
    )

    cusp = load_extension(corpus_path("cusp.ext"))
    cusp_li = li_auto(cusp)
    rows.append(_row("cusp.ext", "li rank", 0, _show(cusp_li.rank)))
    closure = closure_search(cusp, "seminormal", 3)
    rows.append(
        _row("cusp.ext", "seminormal witnesses at bound 3", ["t"], [str(w) for w in closure.adjoined])
    )
    for label, gens in (("(x, y)", ("x", "y")), ("(x - 1, y - 1)", ("x - 1", "y - 1"))):
        rows.append(
            _row("cusp.ext", f"stalk at {label}", 0, _show(stalk_rank(cusp, _prime(cusp, *gens)).stalk_rank))
        )
    rows.append(_row("cusp.ext", "stalk at generic", 0, _show(stalk_rank(cusp, None).stalk_rank)))

    lines = load_extension(corpus_path("two_lines.ext"))
    rows.append(_row("two_lines.ext", "stalk at (x)", 0, _show(stalk_rank(lines, _prime(lines, "x")).stalk_rank)))
    rows.append(
        _row("two_lines.ext", "stalk at (x - 1)", 1, _show(stalk_rank(lines, _prime(lines, "x - 1")).stalk_rank))
    )
    rows.append(_row("two_lines.ext", "stalk at generic", 1, _show(stalk_rank(lines, None).stalk_rank)))
    rows.append(
        _row("two_lines.rankdata", "li rank", 0, _show(li_five_term(load_rank_data(corpus_path("two_lines.rankdata"))).rank))
    )

    square = load_extension(corpus_path("laurent_square.ext"))
    rows.append(
        _row("laurent_square.ext", "stalk at (s - 1)", 1, _show(stalk_rank(square, _prime(square, "s - 1")).stalk_rank))
    )
    rows.append(
        _row(
            "laurent_square.rankdata",
            "li rank",
            0,
            _show(li_five_term(load_rank_data(corpus_path("laurent_square.rankdata"))).rank),
        )
    )

    family = load_extension(corpus_path("family_split.ext"))
    rows.append(
        _row("family_split.ext", "fiber components at (x)", 2, _show(stalk_rank(family, _prime(family, "x")).fiber_components))
    )
    rows.append(
        _row(
            "family_split.ext",
            "fiber components at (x - 1)",
            1,
            _show(stalk_rank(family, _prime(family, "x - 1")).fiber_components),
        )
    )
    rows.append(
        _row(
            "family_split.ext",
            "li rank without hints",
            "unknown",
            _show(li_auto(family).rank),
            note="recorded literature value: 0 (not certified by this toolkit)",
        )
    )

    line_node = load_extension(corpus_path("line_into_node.ext"))
    for label, gens, expected in (
        ("(x)", ("x",), 0),
        ("(x + 1)", ("x + 1",), 0),
        ("(x - 3)", ("x - 3",), 1),
    ):
        rows.append(
            _row(
                "line_into_node.ext",
                f"stalk at {label}",
                expected,
                _show(stalk_rank(line_node, _prime(line_node, *gens)).stalk_rank),
            )
        )
    rows.append(
        _row("line_into_node.ext", "stalk at generic", 0, _show(stalk_rank(line_node, None).stalk_rank))
    )
    rows.append(
        _row(
            "line_into_node.rankdata",
            "li rank",
            0,
            _show(li_five_term(load_rank_data(corpus_path("line_into_node.rankdata"))).rank),
        )
    )

    localized = load_extension(corpus_path("node_localized.ext"))
    at_node = stalk_rank(localized, _prime(localized, "x", "y"))
    rows.append(
        _row("node_localized.ext", "fiber at the node", "empty", _show(at_node.fiber_components))
    )
    rows.append(
        _row(
            "node_localized.ext",
            "stalk at (x - 3, y - 6)",
            0,
            _show(stalk_rank(localized, _prime(localized, "x - 3", "y - 6")).stalk_rank),
        )
    )
    rows.append(
        _row(
            "node_localized.ext",
            "li rank without hints",
            "unknown",
            _show(li_auto(localized).rank),
            note="recorded literature value: 1 (not certified by this toolkit)",
        )
    )

    conj = load_extension(corpus_path("conjugate_pair.ext"))
    rows.append(_row("conjugate_pair.ext", "stalk at (x)", 0, _show(stalk_rank(conj, _prime(conj, "x")).stalk_rank)))
    rows.append(
        _row("conjugate_pair.ext", "stalk at (x^2 + 1)", 1, _show(stalk_rank(conj, _prime(conj, "x^2 + 1")).stalk_rank))
    )
    rows.append(
        _row(
            "conjugate_pair.rankdata",
            "li rank",
            0,
            _show(li_five_term(load_rank_data(corpus_path("conjugate_pair.rankdata"))).rank),
        )
    )

    rows.append(
        _row(
            "arithmetic_quasifinite.rankdata",
            "li rank",
            1,
            _show(li_five_term(load_rank_data(corpus_path("arithmetic_quasifinite.rankdata"))).rank),
        )
    )
    rows.append(
        _row(
            "pushout_surface.rankdata",
            "li rank",
            1,
            _show(li_five_term(load_rank_data(corpus_path("pushout_surface.rankdata"))).rank),
        )
    )

    nil_toy = load_extension(corpus_path("nil_toy.ext"))
    rows.append(_row("nil_toy.ext", "li rank", 0, _show(li_auto(nil_toy).rank)))
    verdict = ni_verdict(nil_toy, bound)
    rows.append(_row("nil_toy.ext", "ni verdict", "NonZero", verdict.status))
    reduced = li_reduce_red(nil_toy)
    rows.append(_row("nil_toy.ext", "li rank after reduction", 0, _show(li_auto(reduced).rank)))

    idem = load_extension(corpus_path("idem_toy.ext"))
    rows.append(_row("idem_toy.ext", "li rank", 1, _show(li_auto(idem).rank)))
    anodal = closure_search(idem, "anodal", 2)
    rows.append(_row("idem_toy.ext", "anodal witnesses", ["u"], [str(w) for w in anodal.adjoined]))

    cube = load_extension(corpus_path("nil_cube.ext"))
    rows.append(_row("nil_cube.ext", "li rank", 0, _show(li_auto(cube).rank)))

    ident = load_extension(corpus_path("identity_line.ext"))
    ident_stability = laurent_stability(ident, degree_bound=bound)
    rows.append(_row("identity_line.ext", "li rank", 0, _show(ident_stability.li.rank)))
    rows.append(_row("identity_line.ext", "ni verdict", "Zero", ident_stability.ni.status))
    rows.append(_row("identity_line.ext", "laurent stability", "yes", ident_stability.answer))

    bottom = load_extension(corpus_path("chain_bottom.ext"))
    full = load_extension(corpus_path("chain_full.ext"))
    ranks = (li_auto(bottom).rank, li_auto(full).rank, cusp_li.rank)
    rows.append(_row("chain", "tower ranks (A<B, A<C, B<C)", (0, 0, 0), tuple(_show(r) for r in ranks)))
    if all(r is not UNKNOWN for r in ranks):
        tower = tower_check(ranks[0], ranks[1], ranks[2])
        rows.append(_row("chain", "tower check", True, tower.passes))

    product = product_rank([node_li, cusp_li])
    rows.append(_row("product", "node x cusp rank", 1, _show(product.rank)))

    rows.append(_row("terms", "n = 1 multiset", {"I": 1, "L": 1, "N^1": 2}, decomposition_terms(1)))

    nil_base = load_ring(corpus_path("nil_base.ring"))
    unit = parse_laurent("2*t^-1 + 2*eps", nil_base)  # 2 t^-1 (1 + eps t)
    dec = bass_decompose(unit)
    rows.append(_row("nil_base.ring", "unit exponents", (-1,), dec.exponents))
    rows.append(_row("nil_base.ring", "unit round trip", True, dec.recompose() == unit))

    split_base = load_ring(corpus_path("split_base.ring"))
    unit = parse_laurent("e*t + 1 - e", split_base)
    dec = bass_decompose(unit)
    rows.append(_row("split_base.ring", "unit exponents", (0, 1), tuple(sorted(dec.exponents))))
    rows.append(_row("split_base.ring", "unit round trip", True, dec.recompose() == unit))

    return rows
