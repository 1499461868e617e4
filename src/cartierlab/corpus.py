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
from .errors import UNKNOWN, shown
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


def run_corpus() -> list[dict]:
    rows: list[dict] = []

    def stalk(ext, case, gens, expected, check="stalk at {}", field="stalk_rank"):
        """A row on the stalk report at the prime the generators span, or at
        the generic point when there are none."""
        report = stalk_rank(ext, _prime(ext, *gens) if gens else None)
        where = f"({', '.join(gens)})" if gens else "generic"
        rows.append(_row(case, check.format(where), expected, shown(getattr(report, field))))

    def rank_data(case, expected):
        """A row on the five-term rank of a rank-data file."""
        result = li_five_term(load_rank_data(corpus_path(case)))
        rows.append(_row(case, "li rank", expected, shown(result.rank)))

    node = load_extension(corpus_path("node.ext"))
    node_stability = laurent_stability(node, degree_bound=4)
    node_li = node_stability.li
    rows.append(_row("node.ext", "li rank", 1, shown(node_li.rank)))
    rows.append(_row("node.ext", "li method", "ConductorSquare", node_li.method))
    stalk(node, "node.ext", ("x", "y"), 1)
    rows.append(_row("node.ext", "laurent stability", "no", node_stability.answer))
    rank_data("node.rankdata", 1)

    cusp = load_extension(corpus_path("cusp.ext"))
    cusp_li = li_auto(cusp)
    rows.append(_row("cusp.ext", "li rank", 0, shown(cusp_li.rank)))
    closure = closure_search(cusp, "seminormal", 3)
    rows.append(
        _row("cusp.ext", "seminormal witnesses at bound 3", ["t"], [str(w) for w in closure.adjoined])
    )
    for gens in (("x", "y"), ("x - 1", "y - 1"), ()):
        stalk(cusp, "cusp.ext", gens, 0)

    lines = load_extension(corpus_path("two_lines.ext"))
    for gens, expected in ((("x",), 0), (("x - 1",), 1), ((), 1)):
        stalk(lines, "two_lines.ext", gens, expected)
    rank_data("two_lines.rankdata", 0)

    square = load_extension(corpus_path("laurent_square.ext"))
    stalk(square, "laurent_square.ext", ("s - 1",), 1)
    rank_data("laurent_square.rankdata", 0)

    family = load_extension(corpus_path("family_split.ext"))
    for gens, expected in ((("x",), 2), (("x - 1",), 1)):
        stalk(family, "family_split.ext", gens, expected, "fiber components at {}",
              "fiber_components")
    rows.append(
        _row(
            "family_split.ext",
            "li rank without hints",
            "unknown",
            shown(li_auto(family).rank),
            note="recorded literature value: 0 (not certified by this toolkit)",
        )
    )

    line_node = load_extension(corpus_path("line_into_node.ext"))
    for gens, expected in ((("x",), 0), (("x + 1",), 0), (("x - 3",), 1), ((), 0)):
        stalk(line_node, "line_into_node.ext", gens, expected)
    rank_data("line_into_node.rankdata", 0)

    localized = load_extension(corpus_path("node_localized.ext"))
    stalk(localized, "node_localized.ext", ("x", "y"), "empty", "fiber at the node",
          "fiber_components")
    stalk(localized, "node_localized.ext", ("x - 3", "y - 6"), 0)
    rows.append(
        _row(
            "node_localized.ext",
            "li rank without hints",
            "unknown",
            shown(li_auto(localized).rank),
            note="recorded literature value: 1 (not certified by this toolkit)",
        )
    )

    conj = load_extension(corpus_path("conjugate_pair.ext"))
    for gens, expected in ((("x",), 0), (("x^2 + 1",), 1)):
        stalk(conj, "conjugate_pair.ext", gens, expected)
    rank_data("conjugate_pair.rankdata", 0)
    rank_data("arithmetic_quasifinite.rankdata", 1)
    rank_data("pushout_surface.rankdata", 1)

    nil_toy = load_extension(corpus_path("nil_toy.ext"))
    rows.append(_row("nil_toy.ext", "li rank", 0, shown(li_auto(nil_toy).rank)))
    verdict = ni_verdict(nil_toy, 6)
    rows.append(_row("nil_toy.ext", "ni verdict", "NonZero", verdict.status))
    reduced = li_reduce_red(nil_toy)
    rows.append(_row("nil_toy.ext", "li rank after reduction", 0, shown(li_auto(reduced).rank)))

    idem = load_extension(corpus_path("idem_toy.ext"))
    rows.append(_row("idem_toy.ext", "li rank", 1, shown(li_auto(idem).rank)))
    anodal = closure_search(idem, "anodal", 2)
    rows.append(_row("idem_toy.ext", "anodal witnesses", ["u"], [str(w) for w in anodal.adjoined]))

    cube = load_extension(corpus_path("nil_cube.ext"))
    rows.append(_row("nil_cube.ext", "li rank", 0, shown(li_auto(cube).rank)))

    ident = load_extension(corpus_path("identity_line.ext"))
    ident_stability = laurent_stability(ident, degree_bound=6)
    rows.append(_row("identity_line.ext", "li rank", 0, shown(ident_stability.li.rank)))
    rows.append(_row("identity_line.ext", "ni verdict", "Zero", ident_stability.ni.status))
    rows.append(_row("identity_line.ext", "laurent stability", "yes", ident_stability.answer))

    bottom = load_extension(corpus_path("chain_bottom.ext"))
    full = load_extension(corpus_path("chain_full.ext"))
    ranks = (li_auto(bottom).rank, li_auto(full).rank, cusp_li.rank)
    rows.append(_row("chain", "tower ranks (A<B, A<C, B<C)", (0, 0, 0), tuple(shown(r) for r in ranks)))
    if all(r is not UNKNOWN for r in ranks):
        tower = tower_check(ranks[0], ranks[1], ranks[2])
        rows.append(_row("chain", "tower check", True, tower.passes))

    product = product_rank([node_li, cusp_li])
    rows.append(_row("product", "node x cusp rank", 1, shown(product.rank)))

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
