"""Oracles that do not use cartierlab: they write the inputs and judge the answers.

    python3 perfbench/oracle.py prepare WORKLOAD SEED DIR
        Generates the round, computes the [ring.A] relations of every curve by
        sympy elimination, verifies the construction facts (irreducibility by
        root search over F_p and by sympy over QQ), writes the input files,
        DIR/inputs.json and DIR/expected.json.

    python3 perfbench/oracle.py check DIR
        Reads DIR/expected.json and DIR/answers.json and prints one JSON line:
        {"ok": [...], "faulted": [...], "wrong": {...}, "certified": [...]}.

Both run in their own process, so that sympy never enters the measured one.
The check needs only the standard library.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from fractions import Fraction

import gen


# -- prepare -------------------------------------------------------------------------


def curve_relations(curve):
    """Generators of the kernel of k[names] -> k[t], by lex elimination of t."""
    import sympy

    t = sympy.Symbol("t")
    names = sympy.symbols(curve["names"])
    images = [sympy.sympify(img.replace("^", "**"), locals={"t": t}) for img in curve["images"]]
    kw = {"modulus": curve["p"]} if curve["p"] else {}
    basis = sympy.groebner([x - img for x, img in zip(names, images)], t, *names,
                           order="lex", **kw)
    out = []
    for g in basis.polys:
        if g.degree(t) > 0:
            continue
        poly = sympy.Poly(g.as_expr(), *names, **kw)
        out.append(_render(poly, curve["names"], curve["p"]))
    return out


def _render(poly, names, p):
    parts = []
    for monom, coeff in poly.terms():
        c = Fraction(int(coeff)) if p else Fraction(str(coeff))
        mono = gen.monomial_text(monom, names)
        mag = abs(c)
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


def qq_irreducible(coeffs) -> bool:
    import sympy

    x = sympy.Symbol("x")
    return sympy.Poly(list(reversed(coeffs)), x, domain="QQ").is_irreducible


def irreducible(coeffs, p) -> bool:
    """Root search over F_p (complete up to degree 3), sympy over QQ."""
    if p:
        if len(coeffs) - 1 > 3:
            raise ValueError("root search decides irreducibility only up to degree 3")
        return len(coeffs) == 2 or not gen.has_root_mod(coeffs, p)
    return qq_irreducible(coeffs)


def _distinct_irreducibles(factors, p):
    for f in factors:
        if not irreducible(f, p):
            raise ValueError(f"generated factor {f} is reducible")
    monic = [tuple(c % p for c in f) if p else tuple(f) for f in factors]
    if len(set(monic)) != len(monic):
        raise ValueError(f"generated factors repeat: {factors}")


def expected_answer(spec):
    kind, truth = spec["kind"], spec["truth"]
    p = truth.get("p", 0)
    if kind == "components":
        sets = truth["factors"]
        for fs in sets:
            _distinct_irreducibles(fs, p)
        if len(sets) == 1:
            return {"count": len(sets[0])}
        xs, ys = sets
        if p:
            count = sum(math.gcd(len(f) - 1, len(g) - 1) for f in xs for g in ys)
        elif all(len(g) == 2 for g in ys):
            # QQ: a second factor that splits into linears (powers allowed)
            # multiplies the count by its number of distinct roots
            count = len(xs) * len(ys)
        else:
            raise ValueError("QQ tensor products need a split second factor")
        return {"count": count}
    if kind == "stalk":
        _distinct_irreducibles(truth["fiber_factors"], p)
        if not irreducible(truth["prime"], p):
            raise ValueError("generated prime is not irreducible")
        d = truth["prime_degree"]
        count = sum(math.gcd(d, len(f) - 1) for f in truth["fiber_factors"])
        return {"components": count, "stalk": count - 1}
    if kind == "units":
        pts = truth["points"]
        if len({a % p if p else a for a in pts}) != len(pts):
            raise ValueError("idempotent points collide")
        return {"exponents": sorted(truth["exponents"])}
    if kind == "li":
        return {"rank": truth["rank"], "fault": truth.get("fault")}
    if kind == "closure":
        adjoined, exhausted = gen.seminormal_closure(truth["semigroup"], spec["args"]["bound"])
        return {
            "adjoined": ["t" if n == 1 else f"t^{n}" for n in adjoined],
            "exhausted": exhausted,
        }
    if kind == "ni":
        return {"points": truth["points"], "p": p}
    return {}


def prepare(workload, seed, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    queries = gen.generate(workload, seed)
    relations: dict = {}
    inputs, expected = [], {}
    for spec in queries:
        paths = {}
        for name, body in spec["files"].items():
            if isinstance(body, dict):
                key = json.dumps([body["p"], body["images"]])
                if key not in relations:
                    relations[key] = curve_relations(body)
                body = gen.curve_text(body, relations[key])
            path = os.path.join(out_dir, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(body)
            paths[name.rsplit(".", 1)[1]] = path
        inputs.append({"id": spec["id"], "kind": spec["kind"], "files": paths,
                       "args": spec["args"]})
        expected[spec["id"]] = {"kind": spec["kind"], **expected_answer(spec)}
    with open(os.path.join(out_dir, "inputs.json"), "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "queries": inputs}, handle, indent=1)
    with open(os.path.join(out_dir, "expected.json"), "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)


# -- check ---------------------------------------------------------------------------

_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*?)?(?:t(?:\^(\d+))?)?$")


def parse_univariate(text: str) -> dict:
    """Exponent -> Fraction for a polynomial in t as the library prints it."""
    coeffs: dict = {}
    body = text.replace(" ", "")
    if body[0] not in "+-":
        body = "+" + body
    for sign, term in re.findall(r"([+-])([^+-]+)", body):
        match = _TERM.match(term)
        if not match or not term:
            raise ValueError(f"cannot read term {term!r} of {text!r}")
        coef, exp = match.groups()
        has_t = "t" in term
        c = Fraction(coef) if coef else Fraction(1)
        e = (int(exp) if exp else 1) if has_t else 0
        coeffs[e] = coeffs.get(e, 0) + (c if sign == "+" else -c)
    return coeffs


def _value(coeffs: dict, x, p):
    total = sum(c * Fraction(x) ** e for e, c in coeffs.items())
    if p:
        return total.numerator * pow(total.denominator, -1, p) % p
    return total


def _power(coeffs: dict, n: int) -> dict:
    out = {0: Fraction(1)}
    for _ in range(n):
        nxt: dict = {}
        for e1, c1 in out.items():
            for e2, c2 in coeffs.items():
                nxt[e1 + e2] = nxt.get(e1 + e2, 0) + c1 * c2
        out = nxt
    return out


def in_glued_ring(coeffs: dict, points, p) -> bool:
    """Value criterion: f lies in k + P*k[t] iff f takes one value on the points."""
    return len({_value(coeffs, a, p) for a in points}) == 1


def is_glued_witness(text: str, points, p) -> bool:
    f = parse_univariate(text)
    return (not in_glued_ring(f, points, p)
            and in_glued_ring(_power(f, 2), points, p)
            and in_glued_ring(_power(f, 3), points, p))


def _reserialises(stdout: str) -> bool:
    try:
        report = json.loads(stdout)
    except ValueError:
        return False
    return json.dumps(report, indent=2, sort_keys=True) + "\n" == stdout


def _mentions_unknown(value) -> bool:
    if isinstance(value, dict):
        return any(_mentions_unknown(v) for v in value.values())
    if isinstance(value, list):
        return any(_mentions_unknown(v) for v in value)
    return value == "unknown"


def judge(exp: dict, ans: dict):
    """(status, certified) with status 'ok', 'faulted' or a reason it is wrong."""
    kind = exp["kind"]
    if kind == "li" and exp.get("fault"):
        # a wrong hint must give Unknown, the true rank, or a refusal naming the hint
        if ans.get("rank") in ("unknown", exp["rank"]):
            return "ok", ans.get("rank") == exp["rank"]
        if "error" in ans and exp["fault"] in ans.get("message", ""):
            return "ok", False
        return "faulted", False
    if "error" in ans:
        return f"raised {ans['error']}: {ans.get('message', '')}", False
    if kind == "components":
        if ans["count"] == "unknown":
            return "ok", False
        return ("ok", True) if ans["count"] == exp["count"] else (
            f"count {ans['count']} != {exp['count']}", False)
    if kind == "stalk":
        if ans["components"] == "unknown":
            return ("ok", False) if ans["stalk"] == "unknown" else ("stalk without count", False)
        if ans["components"] != exp["components"]:
            return f"components {ans['components']} != {exp['components']}", False
        if ans["stalk"] != ans["components"] - 1:
            return f"stalk {ans['stalk']} != components - 1", False
        return "ok", True
    if kind == "units":
        if not ans["round_trip"]:
            return "recompose() differs from the unit", False
        if sorted(ans["exponents"]) != exp["exponents"]:
            return f"exponents {ans['exponents']} != {exp['exponents']}", False
        return "ok", True
    if kind == "li":
        if ans["rank"] == "unknown":
            return "ok", False
        return ("ok", True) if ans["rank"] == exp["rank"] else (
            f"rank {ans['rank']} != {exp['rank']}", False)
    if kind == "closure":
        if ans["adjoined"] != exp["adjoined"] or ans["exhausted"] != exp["exhausted"]:
            return f"closure {ans} != simulation {exp}", False
        return "ok", not ans["exhausted"]
    if kind == "ni":
        if ans["status"] == "NonZero":
            return "a glued-points curve is seminormal, yet NonZero", False
        if ans.get("witness") is not None and not is_glued_witness(ans["witness"], exp["points"], exp["p"]):
            return f"reported witness {ans['witness']} fails the value criterion", False
        return "ok", ans["status"] == "Zero"
    if kind == "run_corpus":
        if ans["failed_rows"]:
            return f"corpus rows failed: {ans['failed_rows']}", False
        return "ok", True
    if kind == "cli":
        if ans["code"] != 0:
            return f"exit code {ans['code']}: {ans['stderr']}", False
        if not _reserialises(ans["stdout"]):
            return "report does not re-serialise byte-identically", False
        report = json.loads(ans["stdout"])
        exhausted = any(r.get("exhausted") for r in report["results"] if isinstance(r, dict))
        return "ok", not _mentions_unknown(report["results"]) and not exhausted
    return f"unknown query kind {kind}", False


def check(out_dir):
    with open(os.path.join(out_dir, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    with open(os.path.join(out_dir, "answers.json"), encoding="utf-8") as handle:
        answers = json.load(handle)
    verdict = {"ok": [], "faulted": [], "wrong": {}, "certified": []}
    for qid, exp in sorted(expected.items()):
        seen = answers.get(qid)
        if not seen:
            verdict["wrong"][qid] = "never answered"
            continue
        if len(seen) != 1:
            verdict["wrong"][qid] = f"answers differ between rounds: {seen}"
            continue
        status, certified = judge(exp, json.loads(seen[0]))
        if status == "ok":
            verdict["ok"].append(qid)
            if certified:
                verdict["certified"].append(qid)
        elif status == "faulted":
            verdict["faulted"].append(qid)
        else:
            verdict["wrong"][qid] = status
    print(json.dumps(verdict, sort_keys=True))


def main(argv):
    if len(argv) == 4 and argv[0] == "prepare":
        prepare(argv[1], int(argv[2]), argv[3])
    elif len(argv) == 2 and argv[0] == "check":
        check(argv[1])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
