"""Seeded generation of the benchmark's queries (pure Python, no cartierlab).

Every workload is a fixed list of query templates ("slots"), in a fixed
order. The seed picks the numbers inside each slot (points, shifts, primes,
coefficients, factor choices), never the slot's shape, degree bound or place
in the round, so the cost and the certification status of a round barely
move with the seed.

A query spec is a JSON-able dict:

    id      unique within the workload
    kind    components | stalk | units | li | closure | ni | run_corpus | cli
    files   {name: text} input files, or {name: curve} for curve extensions
            whose [ring.A] relations the oracle fills in by elimination
    args    what the executor passes to cartierlab besides the files
    truth   construction facts the oracle turns into the expected answer
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("fiber_split", "conductor_square", "witness_search", "corpus_replay")

PRIMES = (10007, 10009, 12007, 15013, 20011, 25013, 30011, 32003)
VAR_A = ("x", "y", "z", "w")

GLUED_PATTERNS = {2: (-1, 2), 3: (-1, 1, 2)}

# Numerical semigroups of conductor at most 6, for the monomial curves.
SEMIGROUPS = ((2, 3), (2, 5), (2, 7), (3, 4), (3, 4, 5), (3, 5, 7))


# -- polynomials as coefficient lists (lowest degree first) ---------------------


def pmul(a, b, p=0):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out] if p else out


def peval(coeffs, x, p=0):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
        if p:
            acc %= p
    return acc


def has_root_mod(coeffs, p):
    return any(peval(coeffs, x, p) == 0 for x in range(p))


def poly_text(coeffs, var):
    """Render a coefficient list in the library's input grammar."""
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[e])
        if c == 0:
            continue
        mag = abs(c)
        mono = "" if e == 0 else (var if e == 1 else f"{var}^{e}")
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts) or "0"


def product_text(factors, var):
    """(f1)^e1*(f2)^e2... from [(coeffs, multiplicity)]."""
    out = []
    for coeffs, mult in factors:
        body = f"({poly_text(coeffs, var)})"
        out.append(body if mult == 1 else f"{body}^{mult}")
    return "*".join(out)


def field_text(p):
    return f"FP({p})" if p else "QQ"


def ring_text(p, variables, relations):
    return (
        "[ring]\n"
        f"field = {field_text(p)}\n"
        f"vars = {', '.join(variables)}\n"
        f"relations = {', '.join(relations)}\n"
    )


def extension_text(p, a_vars, a_rels, b_vars, b_rels, images, hints):
    lines = [
        "[ring.A]",
        f"field = {field_text(p)}",
        f"vars = {', '.join(a_vars)}",
        f"relations = {', '.join(a_rels)}",
        "",
        "[ring.B]",
        f"field = {field_text(p)}",
        f"vars = {', '.join(b_vars)}",
        f"relations = {', '.join(b_rels)}",
        "",
        "[map]",
    ]
    lines += [f"{v} = {img}" for v, img in zip(a_vars, images)]
    if hints:
        lines += ["", "[hints]"] + [f"{k} = {v}" for k, v in hints]
    return "\n".join(lines) + "\n"


# -- seeded draws -----------------------------------------------------------------


class _Draw:
    """Random choices of one workload, all from one seeded stream."""

    def __init__(self, seed: int, workload: str):
        self.rng = random.Random(f"{workload}:{seed}")

    def prime(self):
        return self.rng.choice(PRIMES)

    def glued_points(self, n):
        """A fixed point pattern up to sign and order: the curve's cost over QQ
        grows with the size of the points, so the seed leaves it alone."""
        sign = self.rng.choice((-1, 1))
        return self.rng.sample([sign * a for a in GLUED_PATTERNS[n]], n)

    def linear(self, a, p=0):
        return [(-a) % p if p else -a, 1]

    def fp_irreducible(self, degree, p, avoid=()):
        """Monic of degree 2 or 3 with no root mod p (so irreducible)."""
        while True:
            coeffs = [self.rng.randrange(p) for _ in range(degree)] + [1]
            if coeffs[0] and tuple(coeffs) not in avoid and not has_root_mod(coeffs, p):
                return coeffs

    def small_poly(self, degree):
        while True:
            coeffs = [self.rng.randint(-2, 2) for _ in range(degree + 1)]
            if any(coeffs):
                return coeffs


# -- fiber_split ----------------------------------------------------------------------


def _components(qid, p, factor_sets, variables):
    """component_count of k[vars]/(prod over each variable's factors)."""
    rels = [product_text(fs, v) for fs, v in zip(factor_sets, variables)]
    return {
        "id": qid,
        "kind": "components",
        "files": {f"{qid}.ring": ring_text(p, variables, rels)},
        "args": {},
        "truth": {"p": p, "factors": [[list(c) for c, _ in fs] for fs in factor_sets]},
    }


def _stalk(d, qid, p, prime, fiber_factors, prime_degree):
    """k[x] in k[x,y]/(F(y) + prime(x)*G(y)); the fiber over prime is k[y]/F."""
    fiber = [1]
    for coeffs, mult in fiber_factors:
        for _ in range(mult):
            fiber = pmul(fiber, coeffs, p)
    g = d.small_poly(len(fiber) - 2)
    if p:
        g = [c % p for c in g]
    f_text = f"{product_text(fiber_factors, 'y')} + ({poly_text(prime, 'x')})*({poly_text(g, 'y')})"
    text = extension_text(
        p, ["x"], [], ["x", "y"], [f_text], ["x"], [("finite", "true")]
    )
    return {
        "id": qid,
        "kind": "stalk",
        "files": {f"{qid}.ext": text},
        "args": {"prime": [poly_text(prime, "x")]},
        "truth": {
            "p": p,
            "prime": prime,
            "prime_degree": prime_degree,
            "fiber_factors": [list(c) for c, _ in fiber_factors],
        },
    }


def _idempotent_text(points, i, p):
    others = [a for j, a in enumerate(points) if j != i]
    denom = 1
    for a in others:
        denom *= points[i] - a
    body = "*".join(f"({poly_text(d_lin, 'e')})" for d_lin in ([-a, 1] for a in others))
    scale = Fraction(1, denom)
    return f"({scale})*{body}"


def _units(d, qid, p, points, exps, tails):
    """A unit of R[t, 1/t], R = k[e, n]/(prod(e - a), n^2), with chosen t-exponents."""
    body = "".join(
        f"{d.rng.choice((' + ', ' - '))}{d.rng.randint(1, 2)}*{_idempotent_text(points, i, p)}*t^{k}"
        for i, k in enumerate(exps)
    ).lstrip(" +")
    factors = [f"(1 {d.rng.choice('+-')} {d.rng.randint(1, 2)}*n*t^{k})" for k in tails]
    rels = [product_text([(d.linear(a), 1) for a in points], "e"), "n^2"]
    return {
        "id": qid,
        "kind": "units",
        "files": {f"{qid}.ring": ring_text(p, ["e", "n"], rels)},
        "args": {"laurent": "*".join([f"({body})"] + factors)},
        "truth": {"p": p, "points": points, "exponents": exps},
    }


def fiber_split(d):
    """Over QQ the cost grows with the size of the roots and coefficients, so
    the QQ slots use fixed numbers up to the sign of x (s) and the order of
    the factors; over F_p the seed draws the prime, roots and factors."""
    out = []
    for copy in range(2):
        tag = lambda name: f"{name}-{copy}"  # noqa: E731
        k = copy + 1
        s = d.rng.choice((-1, 1))
        lin = lambda a: (d.linear(s * a), 1)  # noqa: E731
        quad = lambda c, dd: ([c * c - dd, -2 * s * c, 1], 1)  # (x - s*c)^2 - dd  # noqa: E731
        order = lambda fs: d.rng.sample(fs, len(fs))  # noqa: E731
        out.append(_components(tag("qq-split"), 0,
                               [order([lin(k), lin(-k - 1), quad(1, 2)])], ["x"]))
        out.append(_components(tag("qq-nilpotent"), 0,
                               [order([(d.linear(s * (k + 1)), 2), quad(-1, -1)])], ["x"]))
        out.append(_components(tag("qq-dual"), 0,
                               [order([lin(k), lin(k + 1)]), [([0, 1], 2)]], ["x", "y"]))
        out.append(_components(tag("qq-tensor"), 0,
                               [[quad(0, k + 1)], order([lin(1), lin(-2)])], ["x", "y"]))
        p = d.prime()
        q2 = d.fp_irreducible(2, p)
        out.append(_components(tag("fp-tensor-gcd"), p,
                               [[(d.fp_irreducible(2, p, {tuple(q2)}), 1), (d.linear(d.rng.randrange(p), p), 1)],
                                [(q2, 1)]], ["x", "y"]))
        p = d.prime()
        out.append(_components(tag("fp-tensor-coprime"), p,
                               [[(d.fp_irreducible(2, p), 1)], [(d.fp_irreducible(3, p), 1)]], ["x", "y"]))
        p = d.prime()
        roots = d.rng.sample(range(p), 5)
        out.append(_components(tag("fp-split"), p, [[(d.linear(r, p), 1) for r in roots]], ["x"]))
        p = d.prime()
        r1, r2, r3 = d.rng.sample(range(p), 3)
        out.append(_components(tag("fp-nilpotent"), p,
                               [[(d.linear(r1, p), 2), (d.linear(r2, p), 2), (d.linear(r3, p), 1)]], ["x"]))

        out.append(_stalk(d, tag("qq-stalk-split"), 0, d.linear(s * k),
                          order([lin(k + 1), lin(-1), quad(1, 2)]), 1))
        out.append(_stalk(d, tag("qq-stalk-nilpotent"), 0, d.linear(-s * k),
                          order([(d.linear(s * 2), 2), quad(-1, -2)]), 1))
        p = d.prime()
        out.append(_stalk(d, tag("fp-stalk-quadratic-prime"), p, d.fp_irreducible(2, p), [
            (d.linear(d.rng.randrange(p), p), 1), (d.fp_irreducible(2, p), 1)], 2))
        p = d.prime()
        roots = d.rng.sample(range(p), 4)
        out.append(_stalk(d, tag("fp-stalk-split"), p, d.linear(d.rng.randrange(p), p), [
            (d.linear(r, p), 1) for r in roots], 1))

        tails = (k, -3 + k)
        out.append(_units(d, tag("qq-units"), 0, [s, -s * (k + 1)],
                          d.rng.sample((-1, 2), 2), tails))
        p = d.prime()
        out.append(_units(d, tag("fp-units"), p, d.rng.sample(range(p), 3),
                          d.rng.sample((-2, 0, 3), 3), tails))
    return out


# -- curves: glued points and monomial curves ---------------------------------------------


def semigroup_members(gens, upto):
    members = {0}
    for n in range(1, upto + 1):
        if any(n - g in members for g in gens if n >= g):
            members.add(n)
    return members


def semigroup_conductor(gens):
    top = max(gens) ** 2
    members = semigroup_members(gens, top)
    return max(n for n in range(top) if n not in members) + 1


def semigroup_factorization(gens, n):
    """Exponents e with sum(e_i * gens_i) = n, lexicographically largest."""
    if n == 0:
        return [0] * len(gens)
    for i, g in enumerate(gens):
        if n >= g:
            rest = semigroup_factorization(gens, n - g)
            if rest is not None:
                rest[i] += 1
                return rest
    return None


def monomial_text(exps, names):
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
    return "*".join(parts) or "1"


def glued_curve(points, p):
    """A = k + P*k[t] with P = prod(t - a_i): generators t^j*P, j < r."""
    r = len(points)
    pt = product_text([([-a, 1], 1) for a in points], "t")
    images = [pt if j == 0 else f"t^{j}*{pt}" if j > 1 else f"t*{pt}" for j in range(r)]
    names = list(VAR_A[:r])
    gens = ["1"] + [("t" if j == 1 else f"t^{j}") for j in range(1, r)]
    fractions = [f"{gens[j]} : {names[j]} | {names[0]}" for j in range(1, r)]
    hints = [("finite", "true"), ("birational", "true"),
             ("module_generators", ", ".join(gens)), ("fractions", " ; ".join(fractions))]
    return {"p": p, "names": names, "images": images, "hints": hints}


def monomial_curve(gens, p, shift):
    """k[u^s : s in S] inside k[t], u = t - shift."""
    u = "t" if shift == 0 else f"(t - {shift})" if shift > 0 else f"(t + {-shift})"
    names = list(VAR_A[: len(gens)])
    images = [f"{u}^{s}" for s in gens]
    members = semigroup_members(gens, 4 * max(gens) ** 2)
    cond = semigroup_conductor(gens)
    gaps = [g for g in range(1, cond) if g not in members]
    module = ["1"]
    fractions = []
    for g in gaps:
        mod = u if g == 1 else f"{u}^{g}"
        module.append(mod)
        s = min(s for s in members if s > 0 and g + s in members)
        num = monomial_text(semigroup_factorization(gens, g + s), names)
        den = monomial_text(semigroup_factorization(gens, s), names)
        fractions.append(f"{mod} : {num} | {den}")
    hints = [("finite", "true"), ("birational", "true"),
             ("module_generators", ", ".join(module)), ("fractions", " ; ".join(fractions))]
    return {"p": p, "names": names, "images": images, "hints": hints}


def curve_text(curve, relations):
    return extension_text(curve["p"], curve["names"], relations, ["t"], [],
                          curve["images"], curve["hints"])


def _li(qid, curve, truth):
    return {"id": qid, "kind": "li", "files": {f"{qid}.ext": curve}, "args": {}, "truth": truth}


# Hint mistakes that the library turns into a wrong rank or a mislabelled
# input error. They do not depend on the seed, so they fail in every round.
FAULTS = (
    ("fault-node-module-generators", (-1, 1), "module_generators", "1"),
    ("fault-node-fraction", (-1, 1), "fractions", "t : y | x^2"),
    ("fault-glued3-module-generators", (-1, 0, 1), "module_generators", "1"),
    ("fault-glued2-fraction", (1, 3), "fractions", "t : y | x^2"),
)


def conductor_square(d):
    out = []
    for copy in range(2):
        for r in (2, 3):
            for field in ("qq", "fp"):
                p = d.prime() if field == "fp" else 0
                pts = d.glued_points(r)
                out.append(_li(f"{field}-glued{r}-{copy}", glued_curve(pts, p),
                               {"p": p, "points": pts, "rank": r - 1}))
    for gens in SEMIGROUPS:
        for field in ("qq", "fp"):
            p = d.prime() if field == "fp" else 0
            shift = d.rng.choice((-1, 1))
            name = "-".join(map(str, gens))
            out.append(_li(f"{field}-monomial-{name}", monomial_curve(gens, p, shift),
                           {"p": p, "semigroup": list(gens), "shift": shift, "rank": 0}))
    for qid, pts, key, value in FAULTS:
        curve = glued_curve(list(pts), 0)
        curve["hints"] = [(k, value if k == key else v) for k, v in curve["hints"]]
        out.append(_li(qid, curve, {"p": 0, "points": list(pts), "rank": len(pts) - 1,
                                    "fault": key}))
    return out


# -- witness_search -----------------------------------------------------------------------


def seminormal_closure(gens, bound):
    """Semigroup simulation of closure_search(kind='seminormal') on k[t^S].

    Candidates are the monomials t^n, n <= bound, in increasing n; t^n is a
    witness when n is outside the current semigroup and 2n, 3n are inside.
    Returns (adjoined exponents, exhausted).
    """
    current = list(gens)
    adjoined = []
    while True:
        members = semigroup_members(current, 3 * bound + max(current))
        for n in range(1, bound + 1):
            if n not in members and 2 * n in members and 3 * n in members:
                current.append(n)
                adjoined.append(n)
                break
        else:
            return adjoined, 1 not in members


# Closure slots: (semigroup, bound at which the closure reaches the whole
# line, bound at which it stops short, or None), from seminormal_closure.
# Bounds are fixed per slot: they set the cost and the certification status
# of a closure, which therefore do not move with the seed.
CLOSURE_SLOTS = (
    ((2, 3), 2, None),
    ((2, 5), 3, 2),
    ((2, 7), 3, 2),
    ((3, 4), 2, None),
    ((3, 4, 5), 2, None),
    ((3, 5, 7), None, 3),
)
NI_BOUND = 3


def witness_search(d):
    out = []
    for gens, reach, short in CLOSURE_SLOTS:
        name = "-".join(map(str, gens))
        slots = [("qq", reach), ("fp", reach), ("fp-short", short)]
        for field, bound in slots:
            if bound is None:
                continue
            qid = f"{field}-closure-{name}"
            p = 0 if field == "qq" else d.prime()
            out.append({
                "id": qid, "kind": "closure",
                "files": {f"{qid}.ext": monomial_curve(gens, p, 0)},
                "args": {"bound": bound},
                "truth": {"p": p, "semigroup": list(gens)},
            })
    for copy in range(2):
        for r in (2, 3):
            for field in ("qq", "fp"):
                p = d.prime() if field == "fp" else 0
                pts = d.glued_points(r)
                qid = f"{field}-ni-glued{r}-{copy}"
                out.append({
                    "id": qid, "kind": "ni",
                    "files": {f"{qid}.ext": glued_curve(pts, p)},
                    "args": {"bound": NI_BOUND},
                    "truth": {"p": p, "points": pts},
                })
    return out


# -- corpus_replay ------------------------------------------------------------------------

CORPUS_EXT = (
    "chain_bottom", "chain_full", "conjugate_pair", "cusp", "family_split", "idem_toy",
    "identity_line", "laurent_square", "line_into_node", "nil_cube", "nil_toy", "node",
    "node_localized", "two_lines",
)
CORPUS_RANKDATA = (
    "arithmetic_quasifinite", "conjugate_pair", "laurent_square", "line_into_node", "node",
    "pushout_surface", "two_lines",
)
CORPUS_STALKS = (
    ("node", "x, y; x - 3, y - 6", False),
    ("two_lines", "x; x - 1", True),
    ("cusp", "x, y", True),
    ("family_split", "x; x - 1", False),
    ("line_into_node", "x; x + 1; x - 3", True),
    ("conjugate_pair", "x; x^2 + 1", False),
    ("laurent_square", "s - 1", False),
)
CORPUS_SEMINORMAL = ("cusp", "node", "nil_toy", "chain_bottom")
CORPUS_DIR = "src/cartierlab/corpus"


def _cli(qid, argv):
    return {"id": qid, "kind": "cli", "files": {}, "args": {"argv": argv}, "truth": {}}


def corpus_replay(d):
    c = lambda name: f"{CORPUS_DIR}/{name}"  # noqa: E731
    out = [{"id": "run-corpus", "kind": "run_corpus", "files": {}, "args": {}, "truth": {}}]
    out.append(_cli("cli-corpus", ["corpus", "--json"]))
    for name in CORPUS_EXT:
        out.append(_cli(f"cli-check-{name}", ["check", c(f"{name}.ext"), "--json"]))
        out.append(_cli(f"cli-li-{name}", ["li", c(f"{name}.ext"), "--json"]))
    for name in CORPUS_RANKDATA:
        out.append(_cli(f"cli-li-{name}-rankdata", ["li", c(f"{name}.rankdata"), "--json"]))
    for name, primes, generic in CORPUS_STALKS:
        argv = ["stalks", c(f"{name}.ext"), "--primes", primes, "--json"]
        out.append(_cli(f"cli-stalks-{name}", argv + (["--generic"] if generic else [])))
    for name in CORPUS_SEMINORMAL:
        out.append(_cli(f"cli-seminormal-{name}", ["seminormal", c(f"{name}.ext"), "--bound", "3", "--json"]))
    out.append(_cli("cli-terms", ["terms", "--n", str(d.rng.randint(1, 6)), "--json"]))
    k = d.rng.randint(1, 3)
    coeff = d.rng.randint(1, 5)
    out.append(_cli("cli-units-nil", ["units", "--base", c("nil_base.ring"), "--laurent",
                                      f"{coeff}*t^-{k} + {coeff}*eps", "--json"]))
    k = d.rng.randint(1, 3)
    out.append(_cli("cli-units-split", ["units", "--base", c("split_base.ring"), "--laurent",
                                        f"e*t^{k} + {coeff} - {coeff}*e", "--json"]))
    return out


_GENERATORS = {
    "fiber_split": fiber_split,
    "conductor_square": conductor_square,
    "witness_search": witness_search,
    "corpus_replay": corpus_replay,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The query list of one round, in the workload's fixed slot order."""
    return _GENERATORS[workload](_Draw(seed, workload))
