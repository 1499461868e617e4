"""Spans around cartierlab's layer entry points, for the traced run.

`Tracer.install()` replaces each function listed in SPAN_POINTS wherever a
caller looks it up: in its own module, in every cartierlab module that
imported it by name, and, for methods, on the class. Calls made inside the
library are therefore timed as well as the benchmark's own calls.
`uninstall()` puts the originals back, so untraced rounds run the library
unmodified.

A span is [name, start, end, parent index, query id, flag]; flag is the name
of an exception that left the span, a hash of the input for basis runs, or
"answered" for a rank route that certified a rank. Spans stay in memory and
are written as JSONL once the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

PACKAGE = "cartierlab"

# (group, module, attribute): "Class.method" attributes are patched on the class.
SPAN_POINTS = (
    ("polycore.basis", "polycore.groebner", "buchberger"),
    ("polycore.normal_form", "polycore.groebner", "Ideal.normal_form"),
    ("polycore.linalg", "polycore.linalg", "rref"),
    ("polycore.linalg", "polycore.linalg", "express_in_span"),
    ("polycore.linalg", "polycore.linalg", "in_span"),
    ("polycore.linalg", "polycore.linalg", "kernel_basis"),
    ("polycore.linalg", "polycore.linalg", "first_dependence"),
    ("polycore.factor", "polycore.factor", "squarefree_factors"),
    ("polycore.factor", "polycore.factor", "verify_irreducible"),
    ("polycore.parse", "polycore.parse", "parse_with_evaluator"),
    ("artinian.algebra_build", "artinian", "FiniteAlgebra.__init__"),
    ("artinian.mul", "artinian", "FiniteAlgebra.mul"),
    ("artinian.min_poly", "artinian", "minimal_polynomial"),
    ("artinian.min_poly", "artinian", "_relative_minimal_polynomial"),
    ("artinian.split", "artinian", "_hensel_idempotent"),
    ("artinian.component_count", "artinian", "component_count"),
    ("artinian.component_count", "artinian", "idempotent_decomposition"),
    ("extensions.construct", "extensions", "ExtensionPresentation.__init__"),
    ("extensions.membership", "extensions", "ExtensionPresentation.contains"),
    ("extensions.candidates", "extensions", "witness_candidates"),
    ("extensions.adjoin", "extensions", "adjoin_element"),
    ("extensions.conductor", "extensions", "conductor"),
    ("cartier.route", "cartier", "li_hensel_local"),
    ("cartier.route", "cartier", "li_conductor_square"),
    ("cartier.route", "cartier", "li_finite_connected"),
    ("cartier.route", "cartier", "li_five_term_from_extension"),
    ("cartier.route", "cartier", "li_five_term"),
    ("cartier.stalk", "cartier", "stalk_rank"),
    ("cartier.stalk", "cartier", "stalk_at_maximal"),
    ("cartier.stalk", "cartier", "stalk_at_generic"),
    ("laurent.decompose", "laurent", "bass_decompose"),
    ("extfile.load", "extfile", "load_extension"),
    ("extfile.load", "extfile", "load_ring"),
    ("extfile.load", "extfile", "load_rank_data"),
    ("extfile.load", "extfile", "detect_kind"),
    ("cli.report", "cli", "main"),
    # entry points that belong to no metric: their spans keep the time of the
    # layers below them out of cli.report's self time
    ("api", "cartier", "li_auto"),
    ("api", "cartier", "ni_verdict"),
    ("api", "cartier", "laurent_stability"),
    ("api", "extensions", "closure_search"),
    ("api", "extensions", "reduce_mod_conductor"),
    ("api", "laurent", "is_laurent_unit"),
    ("api", "corpus", "run_corpus"),
)


def _flag(group, args, result, exc):
    if exc is not None:
        return type(exc).__name__
    if group == "polycore.basis":
        return hash((args[1], tuple(args[0])))
    if group == "cartier.route" and repr(result.rank) != "Unknown":
        return "answered"
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.query = None
        self._patches: list = []  # (owner, attribute, original)

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, group, name, fn):
        tracer = self

        def enter():
            parent = tracer.stack[-1] if tracer.stack else -1
            rec = [name, time.perf_counter(), 0.0, parent, tracer.query, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            return rec

        def leave(rec, args, result, exc):
            rec[2] = time.perf_counter()
            tracer.stack.pop()
            rec[5] = _flag(group, args, result, exc)

        if inspect.isgeneratorfunction(fn):
            def steps(gen):
                while True:
                    rec = enter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        leave(rec, (), None, None)
                        return
                    except BaseException as exc:
                        leave(rec, (), None, exc)
                        raise
                    leave(rec, (), None, None)
                    yield item

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return steps(fn(*args, **kwargs))
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                leave(rec, args, None, exc)
                raise
            leave(rec, args, result, None)
            return result
        return wrapper

    def install(self):
        if self._patches:
            return
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for group, mod_name, attr in SPAN_POINTS:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            name = f"{mod_name.split('.')[-1]}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original, self._wrap(group, name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(group, name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ----------------------------------------------------------------------

    def take(self) -> list:
        """The spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return spans


def write_jsonl(path, spans):
    with open(path, "w", encoding="utf-8") as handle:
        for name, start, end, parent, query, flag in spans:
            handle.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "query": query, "flag": flag}) + "\n")


GROUP_OF = {f"{mod.split('.')[-1]}.{attr}": group for group, mod, attr in SPAN_POINTS}

# metric name -> (unit, group, measure); measures: entries (spans entered from
# outside the group), spans (all spans), incl (inclusive seconds of entries),
# self (span seconds minus child spans), distinct (distinct flags), and
# flagged:<flag> (entries whose flag is <flag>).
LAYER_METRICS = {
    "polycore.basis_runs": ("count", "polycore.basis", "spans"),
    "polycore.basis_distinct": ("count", "polycore.basis", "distinct"),
    "polycore.basis_s": ("s", "polycore.basis", "self"),
    "polycore.normal_forms": ("count", "polycore.normal_form", "entries"),
    "polycore.normal_form_s": ("s", "polycore.normal_form", "self"),
    "polycore.linalg_calls": ("count", "polycore.linalg", "entries"),
    "polycore.linalg_s": ("s", "polycore.linalg", "incl"),
    "polycore.factorizations": ("count", "polycore.factor", "entries"),
    "polycore.factor_cap_hits": ("count", "polycore.factor", "flagged:FactorSearchLimit"),
    "polycore.factor_s": ("s", "polycore.factor", "incl"),
    "polycore.parse_s": ("s", "polycore.parse", "incl"),
    "artinian.algebras_built": ("count", "artinian.algebra_build", "entries"),
    "artinian.algebra_build_s": ("s", "artinian.algebra_build", "incl"),
    "artinian.mul_calls": ("count", "artinian.mul", "entries"),
    "artinian.min_polys": ("count", "artinian.min_poly", "entries"),
    "artinian.split_yield": ("ratio", None, None),
    "artinian.component_count_s": ("s", "artinian.component_count", "incl"),
    "extensions.constructions": ("count", "extensions.construct", "entries"),
    "extensions.construct_s": ("s", "extensions.construct", "incl"),
    "extensions.membership_tests": ("count", "extensions.membership", "entries"),
    "extensions.membership_s": ("s", "extensions.membership", "incl"),
    "extensions.candidates_s": ("s", "extensions.candidates", "incl"),
    "extensions.adjoins": ("count", "extensions.adjoin", "entries"),
    "extensions.adjoin_s": ("s", "extensions.adjoin", "incl"),
    "extensions.conductor_calls": ("count", "extensions.conductor", "entries"),
    "extensions.conductor_s": ("s", "extensions.conductor", "incl"),
    "cartier.routes_tried": ("count", "cartier.route", "entries"),
    "cartier.routes_answered": ("count", "cartier.route", "flagged:answered"),
    "cartier.route_s": ("s", "cartier.route", "incl"),
    "cartier.stalk_s": ("s", "cartier.stalk", "incl"),
    "laurent.decompose_s": ("s", "laurent.decompose", "incl"),
    "extfile.load_s": ("s", "extfile.load", "incl"),
    "cli.report_s": ("s", "cli.report", "self"),
}


def layer_totals(spans) -> dict:
    """Per-metric totals of one round's spans (seconds not yet normalised),
    plus the number of idempotent splits."""
    groups = [GROUP_OF[s[0]] for s in spans]
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    totals: dict = {}
    for metric, (unit, group, measure) in LAYER_METRICS.items():
        if group is None:
            continue
        entries = [i for i, g in enumerate(groups)
                   if g == group and (spans[i][3] < 0 or groups[spans[i][3]] != group)]
        if measure == "spans":
            value = sum(1 for g in groups if g == group)
        elif measure == "entries":
            value = len(entries)
        elif measure == "distinct":
            value = len({spans[i][5] for i, g in enumerate(groups) if g == group})
        elif measure == "incl":
            value = sum(spans[i][2] - spans[i][1] for i in entries)
        elif measure == "self":
            value = sum(spans[i][2] - spans[i][1] - child[i]
                        for i, g in enumerate(groups) if g == group)
        else:
            flag = measure.split(":", 1)[1]
            value = sum(1 for i in entries if spans[i][5] == flag)
        totals[metric] = value
    totals["artinian.splits"] = sum(1 for g in groups if g == "artinian.split")
    return totals


def layer_metrics(rounds) -> dict:
    """Per-round averages of [(layer_totals, normalising factor)], as (value, unit).

    Seconds are normalised with their round's factor. The split yield is the
    ratio of the summed counts, so that it repeats exactly like they do.
    """
    sums: dict = {}
    for totals, factor in rounds:
        for metric, value in totals.items():
            unit = LAYER_METRICS.get(metric, ("count",))[0]
            sums[metric] = sums.get(metric, 0) + (value * factor if unit == "s" else value)
    n = len(rounds)
    out = {m: (sums[m] / n, unit) for m, (unit, group, _) in LAYER_METRICS.items() if group}
    polys = sums["artinian.min_polys"]
    out["artinian.split_yield"] = (sums["artinian.splits"] / polys if polys else 0.0, "ratio")
    return {m: out[m] for m in LAYER_METRICS}
