"""Zero-dimensional quotient rings as finite-dimensional algebras.

`FiniteAlgebra(ideal)` carries the monomial staircase basis (`staircase`,
ascending in the ring's order) and the multiplication table of
A = ideal.ring/ideal.
`FiniteAlgebra.monomial` alone reduces a monomial into the staircase, once
per exponent while the algebra lives; the multiplication table, `from_poly`
and the Laurent evaluator of `laurent` read it.
Connected components are counted on the reduced algebra A_red, which the
squarefree parts of the variables' minimal polynomials present (Seidenberg).
An algebra computes those minimal polynomials and their squarefree parts
once (`FiniteAlgebra`), builds A_red once (`reduced_algebra`), which starts
with the squarefree parts as its own minimal polynomials, and certifies its
splitting once (`_splitting`), which every count and decomposition reads. A
minimal polynomial is the first linear dependence of the Krylov sequence 1,
a, a^2, ...; the powers are made one at a time and the sequence stops at
that dependence, so a minimal polynomial of degree d costs d - 1 products,
not dim A. A primitive element z of A_red, the first of x_1 + c*x_2 + c^2*x_3 +
... (c = 0, 1, 2, ...) whose minimal polynomial m has degree dim A_red,
gives A_red = k[z]/(m), and the splitting keeps z and the squarefree m. The
count is the number of irreducible factors of m; the primitive idempotents
are the CRT idempotents of those factors, lifted to A by h -> 3h^2 - 2h^3
(Gianni-Trager-Zacharias 1988).

Over F_p both routes are Berlekamp's (1967). On k[z]/(m) the count is
`factor_count`, deg m - rank(Q - I) for the Frobenius matrix Q of m, and m
is split only when the idempotents need its factors, whose number is then
the count. Over a prime field too small for the search for z to be sure of
success, the count is the dimension of the Frobenius kernel {a : a^p = a}
of the algebra itself, spanned by the primitive idempotents.

Elsewhere the count is the number of factors. The factors of the
variables' minimal polynomials cut m into pieces that are factored one by
one: over QQ and F_p the factorizer is complete below its one cap, while
over k(v) the cut is what brings the pieces within its reach. What is
factored here is squarefree already (squarefree parts, pieces of m,
relative minimal polynomials on A_red), so it goes to
`irreducible_factors`. A factor cap, or a field where neither route
applies, gives Unknown with its reason, never a guessed count.

A residue field k[g]/(m) is the record `ResidueField`, with g naming z and
m its minimal polynomial; it is printed, and no code computes in it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

from .errors import (
    CartierlabError,
    FactorSearchLimit,
    NotFiniteOverSubring,
    NotZeroDimensional,
    UNKNOWN,
    Uncertified,
    ZeroRingError,
)
from .polycore import unipoly as up
from .polycore.factor import factor_count, irreducible_factors
from .polycore.fields import (Field, PrimeField, RationalField, RationalFunctionField,
                              square_and_multiply)
from .polycore.groebner import Ideal, colon, ideal_sum, staircase
from .polycore.linalg import express_in_span, first_dependence, kernel_basis, rref
from .polycore.rings import GREVLEX, MonomialOrder, Polynomial, PolyRing, fresh_names


class FiniteAlgebra:
    """ideal.ring/ideal with a staircase basis and structure constants."""

    def __init__(self, ideal: Ideal):
        ring = ideal.ring
        gb = ideal.groebner()
        if len(gb) == 1 and gb[0].is_constant():
            raise ZeroRingError("quotient by the unit ideal")
        basis = staircase([g.leading_term()[0] for g in gb], ring)
        self.ring = ring
        self.ideal = ideal
        self.field = ring.field
        self.basis = tuple(basis)
        self.dim = len(basis)
        self._index = {exp: i for i, exp in enumerate(basis)}
        self._product_degree = max(1, 2 * max(map(sum, basis)))  # of two staircase monomials
        # write-once: the reduced monomials, the basis products by index, the
        # variables' minimal polynomials and their squarefree parts, A_red,
        # and the certified splitting
        self._monomials: dict[tuple, tuple] = {}
        self._table: dict[tuple[int, int], tuple] = {}
        self._minimal_polynomials: list[tuple] | None = None
        self._squarefree_parts: list[tuple] | None = None
        self._reduced: FiniteAlgebra | None = None
        self._split: _Splitting | None = None

    # -- elements ------------------------------------------------------------

    def zero(self) -> tuple:
        return (self.field.zero(),) * self.dim

    def one(self) -> tuple:
        return self.basis_element(0)

    def basis_element(self, i: int) -> tuple:
        return tuple(
            self.field.one() if j == i else self.field.zero() for j in range(self.dim)
        )

    def monomial(self, exp: tuple) -> tuple:
        """x^exp as its nonzero (index, coefficient) pairs, computed once per
        exponent. Up to the degree of a product of two staircase monomials
        it is one normal form. Past it, which only a power of an atom such
        as e^1000 reaches, it is the product of the variables' binary powers:
        work in the exponents' bits, not a division step a degree."""
        pairs = self._monomials.get(exp)
        if pairs is None:
            if sum(exp) <= self._product_degree:
                nf = self.ideal.normal_form(Polynomial._make(self.ring, {exp: self.field.one()}))
                pairs = tuple(sorted((self._index[e], c) for e, c in nf._terms.items()))
            else:
                value = reduce(self.mul, [self.pow(self.variable_element(v), e)
                                          for v, e in zip(self.ring.variables, exp) if e])
                pairs = tuple((i, c) for i, c in enumerate(value) if not self.field.is_zero(c))
            self._monomials[exp] = pairs
        return pairs

    def from_poly(self, f: Polynomial) -> tuple:
        """f's coordinates: its monomials' coordinates summed (normal forms are linear)."""
        field = self.field
        coords = [field.zero()] * self.dim
        for exp, c in f._terms.items():
            for i, s in self.monomial(exp):
                coords[i] = field.add(coords[i], field.mul(c, s))
        return tuple(coords)

    def to_poly(self, a: tuple) -> Polynomial:
        return Polynomial(self.ring, dict(zip(self.basis, a)))  # drops the zeros

    def scalar(self, c) -> tuple:
        return (c,) + (self.field.zero(),) * (self.dim - 1)

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple(self.field.add(x, y) for x, y in zip(a, b))

    def sub(self, a: tuple, b: tuple) -> tuple:
        return tuple(self.field.sub(x, y) for x, y in zip(a, b))

    def scale(self, c, a: tuple) -> tuple:
        return tuple(self.field.mul(c, x) for x in a)

    def _basis_product(self, i: int, j: int) -> tuple:
        """basis[i] * basis[j] as its nonzero (k, coefficient) pairs, cached."""
        if i > j:
            i, j = j, i
        cached = self._table.get((i, j))
        if cached is None:
            cached = self._table[(i, j)] = self.monomial(
                tuple(a + b for a, b in zip(self.basis[i], self.basis[j])))
        return cached

    def mul(self, a: tuple, b: tuple) -> tuple:
        field = self.field
        add, times, is_zero = field.add, field.mul, field.is_zero
        product = self._basis_product
        out = [field.zero()] * self.dim
        b_terms = [(j, cb) for j, cb in enumerate(b) if not is_zero(cb)]
        for i, ca in enumerate(a):
            if is_zero(ca):
                continue
            for j, cb in b_terms:
                c = times(ca, cb)
                for k, s in product(i, j):
                    out[k] = add(out[k], times(c, s))
        return tuple(out)

    def pow(self, a: tuple, n: int) -> tuple:
        return square_and_multiply(a, n, self.one(), self.mul)

    def is_zero_elem(self, a: tuple) -> bool:
        return all(self.field.is_zero(c) for c in a)

    def eval_upoly(self, coeffs: tuple, a: tuple) -> tuple:
        """Evaluate a univariate coefficient tuple of degree d >= 1 at a by
        Horner's rule: d - 1 products, the top step a scaling."""
        acc = self.scale(coeffs[-1], a)
        for c in reversed(coeffs[1:-1]):
            acc = self.mul(self.add(acc, self.scalar(c)), a)
        return self.add(acc, self.scalar(coeffs[0]))

    def inverse(self, a: tuple) -> tuple:
        """a^-1: a scalar in the field, anything else from its minimal
        polynomial m, of degree >= 2. A non-unit raises ZeroDivisionError."""
        field = self.field
        if all(map(field.is_zero, a[1:])):
            return self.scalar(field.inv(a[0]))
        m = minimal_polynomial(self, a)
        if field.is_zero(m[0]):
            raise ZeroDivisionError("element is not a unit")
        # m(a) = 0  =>  a * m[1:](a) = -m[0]
        return self.scale(field.neg(field.inv(m[0])), self.eval_upoly(m[1:], a))

    def variable_element(self, name: str) -> tuple:
        return self.from_poly(self.ring.variable(name))

    def minimal_polynomials(self) -> list[tuple]:
        """The variables' minimal polynomials, in ring order, computed once."""
        if self._minimal_polynomials is None:
            self._minimal_polynomials = [minimal_polynomial(self, self.variable_element(v))
                                         for v in self.ring.variables]
        return self._minimal_polynomials

    def squarefree_parts(self) -> list[tuple]:
        """The monic squarefree parts of the variables' minimal polynomials,
        computed once. Raises RadicalUnavailable when one needs a p-th root
        the field lacks, as k(v) in characteristic p does."""
        if self._squarefree_parts is None:
            self._squarefree_parts = [m if up.udeg(m) < 2 else up.usquarefree_part(self.field, m)
                                      for m in self.minimal_polynomials()]
        return self._squarefree_parts

    def describe(self) -> str:
        return self.ideal.describe()


def minimal_polynomial(alg: FiniteAlgebra, a: tuple) -> tuple:
    """Monic least-degree m with m(a) = 0, as a coefficient tuple."""
    return _relative_minimal_polynomial(alg, alg.one(), a)


def _relative_minimal_polynomial(alg: FiniteAlgebra, unit: tuple, a: tuple) -> tuple:
    """minimal_polynomial of a in the block of the idempotent unit: the
    powers of a start from a^0 := unit and a^1 := a. They are made one at a
    time as `first_dependence` asks for them, so a minimal polynomial of
    degree d costs d - 1 products. dim + 1 vectors in dim dimensions always
    have a dependence."""
    powers = itertools.chain(
        (unit,), itertools.accumulate(itertools.repeat(a, alg.dim - 1), alg.mul, initial=a))
    k, coeffs = first_dependence(alg.field, powers)
    return tuple(alg.field.neg(c) for c in coeffs) + (alg.field.one(),)


# -- idempotents --------------------------------------------------------------


@dataclass(frozen=True)
class IdempotentDecomposition:
    algebra: FiniteAlgebra
    idempotents: tuple

    @property
    def count(self) -> int:
        return len(self.idempotents)


class _Splitting:
    """How the components of an algebra A are read off an algebra S.

    S is A itself or A_red, whose staircase lies inside that of A. Either
    S = k[z]/(m) up to nilpotents, for a primitive element z and the
    squarefree m, or `kernel` is a basis of ker(a -> a^p - a) on S over F_p.
    The factors of m are found when the CRT idempotents need them, and then
    give the count; before that, over F_p, the count is `factor_count`.
    """

    def __init__(self, algebra: FiniteAlgebra, element: tuple | None = None,
                 minpoly: tuple = (), kernel: tuple = ()):
        self.algebra = algebra
        self.element = element
        self.minpoly = minpoly
        self.kernel = kernel
        self._factors: tuple | None = None
        self._count: int | None = None

    @property
    def factors(self) -> tuple:
        if self._factors is None:
            self._factors = _factors_along_variables(self.algebra, self.element, self.minpoly)
        return self._factors

    @property
    def count(self) -> int:
        if self._count is None:
            field = self.algebra.field
            if self.element is None:
                self._count = len(self.kernel)
            elif self._factors is None and isinstance(field, PrimeField):
                self._count = factor_count(field, self.minpoly)
            else:
                self._count = len(self.factors)
        return self._count


def _hensel_idempotent(alg: FiniteAlgebra, h: tuple) -> tuple:
    three, two = alg.field.from_int(3), alg.field.from_int(2)
    for _ in range(alg.dim + 3):
        square = alg.mul(h, h)
        if square == h:
            return h
        h = alg.sub(alg.scale(three, square), alg.scale(two, alg.mul(square, h)))  # 3h^2 - 2h^3
    raise CartierlabError("idempotent lifting failed to converge")  # pragma: no cover


def _search_bound(alg: FiniteAlgebra) -> int:
    """Constants c for which x_1 + c*x_2 + c^2*x_3 + ... can fail to be
    primitive in a reduced algebra: at most (n - 1) * D(D - 1)/2."""
    dim = alg.dim
    return (alg.ring.nvars() - 1) * dim * (dim - 1) // 2


def _constant(field, c: int):
    """The c-th of the distinct constants 0, 1, 2, ... of the field. Over k(v)
    in characteristic p, the base-p digits of c are the coefficients of a
    polynomial in v, so that there are as many constants as the search needs."""
    if not (isinstance(field, RationalFunctionField) and field.characteristic):
        return field.from_int(c)
    digits = []
    while c:
        c, d = divmod(c, field.characteristic)
        digits.append(field.base.from_int(d))
    return field.from_polynomial(tuple(digits))


def _primitive_element(alg: FiniteAlgebra):
    """(z, m) with alg = k[z]/(m) up to nilpotents and m squarefree, or None.

    A variable whose minimal polynomial already has full degree is taken
    first, with the squarefree part of that polynomial, since alg may have
    nilpotents. Past that the candidates are the combinations of
    `_candidate_weights`. Callers pass a reduced algebra there, where the
    search succeeds once it may try more than _search_bound constants.
    """
    field = alg.field
    variables = [alg.variable_element(v) for v in alg.ring.variables]
    for x, m, sq in zip(variables, alg.minimal_polynomials(), alg.squarefree_parts()):
        if up.udeg(m) == alg.dim:
            return x, sq
    for weights in _candidate_weights(alg):
        z = alg.zero()
        for w, x in zip(weights, variables):
            if not field.is_zero(w):
                z = alg.add(z, alg.scale(w, x))
        m = minimal_polynomial(alg, z)
        if up.udeg(m) == alg.dim:
            return z, m
    return None


def _candidate_weights(alg: FiniteAlgebra):
    """The weights (w_1, ..., w_n) of the candidates w_1*x_1 + ... + w_n*x_n.

    First (1, c, c^2, ...) for c = 1, 2, ..., at most _search_bound of them.
    A finite field F_p with p - 1 below that bound has only p - 1 such c;
    then every combination with w_1 = 1 at its first nonzero weight and two
    or more nonzero weights follows, by the number of nonzero weights: a
    nonzero multiple of a candidate has its minimal polynomial's degree, and
    a single variable was tried first. The first p - 1 candidates weight
    every variable, so they come again: at most p - 1 extra minimal
    polynomials.
    """
    field = alg.field
    n = alg.ring.nvars()
    last = _search_bound(alg)
    p = field.characteristic
    small = p and not isinstance(field, RationalFunctionField) and p - 1 < last
    for c in range(1, p if small else last + 1):
        const, weights = _constant(field, c), [field.one()]
        while len(weights) < n:
            weights.append(field.mul(weights[-1], const))
        yield tuple(weights)
    if not small:
        return
    for k in range(2, n + 1):
        for support in itertools.combinations(range(n), k):
            for rest in itertools.product(range(1, p), repeat=k - 1):
                weights = [field.zero()] * n
                for i, c in zip(support, (1,) + rest):
                    weights[i] = field.from_int(c)
                yield tuple(weights)


def _frobenius_kernel(alg: FiniteAlgebra) -> tuple:
    """A basis of {a : a^p = a} over F_p: the span of the primitive idempotents.

    This is Berlekamp's kernel (1967) on the algebra itself, for when no
    primitive element is at hand; `factor_count` takes the same kernel on
    k[z]/(m). Frobenius is a ring map, so the image of each staircase
    monomial is the image of a smaller one times the image of one variable.
    """
    field = alg.field
    frob = [alg.pow(alg.variable_element(v), field.p) for v in alg.ring.variables]
    images = []
    for exp in alg.basis:
        i = next((i for i, e in enumerate(exp) if e), None)
        if i is None:
            images.append(alg.one())
            continue
        below = exp[:i] + (exp[i] - 1,) + exp[i + 1:]
        images.append(alg.mul(images[alg._index[below]], frob[i]))
    rows = [
        [field.sub(images[j][r], field.one() if r == j else field.zero())
         for j in range(alg.dim)]
        for r in range(alg.dim)
    ]
    return tuple(tuple(v) for v in kernel_basis(field, rows))


def _factors_along_variables(alg: FiniteAlgebra, z: tuple, m: tuple) -> tuple:
    """The irreducible factors of the squarefree m, where alg = k[z]/(m)
    up to nilpotents.

    Every variable is a polynomial q(z), so the factors f of its minimal
    polynomial cut m into the pieces gcd(m, f(q(z))): the points where the
    variable is a root of f. The residue field of such a point contains
    k[x]/(f), so the degree of every factor of the piece is a multiple of
    deg f, for each variable, and a piece of degree below twice the least
    common multiple is irreducible. The other pieces are factored one by
    one.

    Over QQ and F_p the factorizer is complete, and the cut only makes the
    pieces smaller. Over k(v) it is what certifies most counts: the k(v)
    factorizer reaches only polynomials with constant coefficients and
    quadratics, and m seldom is either. On F_2(b)[x,y]/(x^2 + x, y^2 + y),
    m has degree 4, and x and y cut it into four linear pieces.
    """
    if up.udeg(m) < 2:  # alg = k up to nilpotents
        return (m,)
    field = alg.field
    xs = [alg.variable_element(v) for v in alg.ring.variables]
    pieces = [(m, 1)]  # (piece, divisor of its factors' degrees)
    powers = None
    for x, mi, sq in zip(xs, alg.minimal_polynomials(), alg.squarefree_parts()):
        if up.udeg(mi) < 2 or x == z:
            continue
        try:
            factors = irreducible_factors(field, sq)
        except FactorSearchLimit:
            continue  # this variable cuts nothing
        if len(factors) == 1:
            pieces = [(piece, math.lcm(low, up.udeg(factors[0]))) for piece, low in pieces]
            continue
        if powers is None:
            powers = [alg.one(), z]
            for _ in range(alg.dim - 2):
                powers.append(alg.mul(powers[-1], z))
        q = up.utrim(field, express_in_span(field, [list(w) for w in powers], list(x)))
        cut = []
        for piece, low in pieces:
            for f in factors:
                value = ()
                for c in reversed(f):  # f(q) mod piece, by Horner
                    value = up.umod(field, up.uadd(field, up.umul(field, value, q), (c,)), piece)
                g = up.ugcd(field, piece, value)
                if up.udeg(g) > 0:
                    cut.append((g, math.lcm(low, up.udeg(f))))
        pieces = cut
    return tuple(f for piece, low in pieces
                 for f in ((piece,) if up.udeg(piece) < 2 * low
                           else irreducible_factors(field, piece)))


def _splitting(alg: FiniteAlgebra) -> _Splitting:
    """Certify the components of alg, from its variables' minimal
    polynomials, once per algebra.

    Raises Uncertified, naming the reason, when the count is not certified.
    """
    if alg._split is None:
        alg._split = _find_splitting(alg)
    return alg._split


def _find_splitting(alg: FiniteAlgebra) -> _Splitting:
    field = alg.field
    if alg.dim == 1:  # alg = k = k[z]/(z - 1)
        return _Splitting(alg, alg.one(), (field.neg(field.one()), field.one()))
    red = alg
    if all(up.udeg(m) < alg.dim for m in alg.minimal_polynomials()):  # no variable is primitive
        red = reduced_algebra(alg)
        if isinstance(field, PrimeField) and field.p <= _search_bound(red):
            return _Splitting(red, kernel=_frobenius_kernel(red))
    return _Splitting(red, *_primitive_element(red))


def _crt_idempotents(alg: FiniteAlgebra, factors: tuple, a: tuple, unit: tuple) -> list[tuple]:
    """e(a) for each factor f, where e = 1 mod f and 0 mod the other factors;
    powers of a start from a^0 := unit, so e(a) splits the block of unit."""
    field = alg.field
    total = (field.one(),)
    for f in factors:
        total = up.umul(field, total, f)
    powers = [unit, a]  # a lies in the block of unit; total has degree >= 2
    for _ in range(up.udeg(total) - 2):
        powers.append(alg.mul(powers[-1], a))
    out = []
    for f in factors:
        rest = up.udivmod(field, total, f)[0]
        _, _, v = up.uxgcd(field, f, rest)
        e = alg.zero()
        for c, power in zip(up.umod(field, up.umul(field, v, rest), total), powers):
            e = alg.add(e, alg.scale(c, power))
        out.append(e)
    return out


def _kernel_idempotents(split: _Splitting) -> list[tuple]:
    """Split 1 by the kernel basis: every element of the kernel takes values
    in F_p on the primitive idempotents, so its relative minimal polynomial
    on a block is a product of distinct linear factors."""
    alg = split.algebra
    one = alg.one()
    blocks = [one]
    for b in split.kernel:
        if len(blocks) == split.count:
            break
        refined = []
        for unit in blocks:
            a = b if unit is one else alg.mul(b, unit)
            factors = irreducible_factors(alg.field, _relative_minimal_polynomial(alg, unit, a))
            refined += _crt_idempotents(alg, factors, a, unit) if len(factors) > 1 else [unit]
        blocks = refined
    return blocks


def idempotent_decomposition(alg: FiniteAlgebra) -> IdempotentDecomposition:
    """Primitive idempotents summing to 1; count = connected components.

    Raises Uncertified when the count cannot be certified: FactorSearchLimit
    at a factor cap, RadicalUnavailable when a radical needs a p-th root the
    field lacks.
    """
    split = _splitting(alg)
    # on k[z]/(m) the factors are read first, so they give the count
    factors = split.factors if split.element is not None else None
    if split.count == 1:
        return IdempotentDecomposition(alg, (alg.one(),))
    if factors is not None:
        parts = _crt_idempotents(split.algebra, factors, split.element, split.algebra.one())
    else:
        parts = _kernel_idempotents(split)
    if split.algebra is not alg:  # the staircase of A_red lies inside that of A
        parts = [alg.from_poly(split.algebra.to_poly(e)) for e in parts]
    parts = [_hensel_idempotent(alg, e) for e in parts]
    return IdempotentDecomposition(alg, tuple(parts))


def component_count(alg: FiniteAlgebra, reasons: list | None = None):
    """Number of connected components of Spec, or Unknown; the reason for an
    Unknown is appended to `reasons` when that list is given."""
    try:
        return _splitting(alg).count
    except Uncertified as exc:
        if reasons is not None:
            reasons.append(str(exc))
        return UNKNOWN


# -- reducedness and radicals ---------------------------------------------------


def radical_generators(alg: FiniteAlgebra) -> list[Polynomial]:
    """Extra generators presenting the reduced quotient: the squarefree part
    of each variable's minimal polynomial that is a proper divisor of it.
    Raises RadicalUnavailable as `FiniteAlgebra.squarefree_parts` does."""
    ring = alg.ring
    return [Polynomial(ring, {ring._zero_exp[:i] + (j,) + ring._zero_exp[i + 1:]: c
                              for j, c in enumerate(sq)})
            for i, (m, sq) in enumerate(zip(alg.minimal_polynomials(), alg.squarefree_parts()))
            if up.udeg(sq) < up.udeg(m)]


def reduced_algebra(alg: FiniteAlgebra) -> FiniteAlgebra:
    """A_red, built once per algebra: alg itself when reduced, else the
    quotient of alg's ring by its ideal plus `radical_generators`.

    A variable's minimal polynomial on A_red is the monic squarefree part of
    its minimal polynomial m on alg: that part vanishes on A_red, and the
    minimal polynomial on A_red, evaluated on alg, is nilpotent, so some
    power of it is a multiple of m. A_red starts with those parts, as its
    minimal polynomials and as their own squarefree parts."""
    if alg._reduced is None:
        gens = radical_generators(alg)
        if not gens:
            alg._reduced = alg
        else:
            red = FiniteAlgebra(ideal_sum(alg.ideal, Ideal(alg.ring, gens)))
            red._minimal_polynomials = red._squarefree_parts = alg.squarefree_parts()
            alg._reduced = red
    return alg._reduced


def is_reduced(alg: FiniteAlgebra) -> bool:
    return not radical_generators(alg)


def is_field_algebra(alg: FiniteAlgebra):
    """True/False when decidable, Unknown when the count or the radical is
    not certified."""
    try:
        return not radical_generators(alg) and _splitting(alg).count == 1
    except Uncertified:
        return UNKNOWN


def nilradical_span(alg: FiniteAlgebra) -> list[tuple]:
    """Vectors spanning the nilradical as a subspace (possibly empty)."""
    gens = radical_generators(alg)
    if not gens:
        return []
    rows = []
    for g in gens:
        coords = alg.from_poly(g)
        rows.append(list(coords))  # times basis[0], the unit
        for i in range(1, alg.dim):
            rows.append(list(alg.mul(coords, alg.basis_element(i))))
    reduced, _ = rref(alg.field, rows)
    return [tuple(row) for row in reduced]


@dataclass(frozen=True)
class ResidueField:
    """base[generator]/(min_poly), a field that is printed, never computed in."""

    base: Field
    min_poly: tuple
    generator: str

    def describe(self) -> str:
        g = self.generator
        return f"{self.base.describe()}[{g}]/({up.uformat(self.base, self.min_poly, g)})"


def primitive_element_presentation(alg: FiniteAlgebra):
    """Present a field algebra as its base field or as base[g]/(m).

    The splitting holds z and its minimal polynomial m, the single factor;
    only a Frobenius kernel (small F_p) has no z, and there the search runs.
    m is irreducible because it is the minimal polynomial of a primitive
    element of an algebra that `verify_maximal` or `is_field_algebra` has
    already certified to be a field, so the record checks nothing again.
    Returns a Field, a ResidueField, or None when no candidate is primitive.
    """
    if alg.dim == 1:
        return alg.field
    name, = fresh_names(["g"], alg.ring.taken_names())
    split = _splitting(alg)
    found = _primitive_element(alg) if split.element is None else (split.element, split.minpoly)
    return None if found is None else ResidueField(alg.field, found[1], name)


# -- fibers that are finite over a polynomial subring ---------------------------


def move_variable_to_field(ideal: Ideal, free: str) -> Ideal:
    """The ideal rebuilt over the rational function field in `free`, in a
    ring of the other variables."""
    ring = ideal.ring
    if free not in ring.variables:
        raise CartierlabError(f"unknown variable {free!r}")
    if not isinstance(ring.field, (RationalField, PrimeField)):
        raise NotFiniteOverSubring(
            "free variables require a QQ or FP(p) coefficient field"
        )
    K = RationalFunctionField(ring.field, free)
    keep = [v for v in ring.variables if v != free]
    new_ring = PolyRing(K, keep, GREVLEX)
    i, zero = ring.variables.index(free), ring.field.zero()
    new_gens = []
    for g in ideal.generators:
        parts: dict = {}  # monomial of the other variables -> {power of free: coefficient}
        for exp, c in g._terms.items():
            parts.setdefault(exp[:i] + exp[i + 1:], {})[exp[i]] = c
        new_gens.append(Polynomial(new_ring, {
            rest: K.from_polynomial(tuple(part.get(e, zero) for e in range(max(part) + 1)))
            for rest, part in parts.items()}))
    return Ideal(new_ring, new_gens)


def components_over_subring(ideal: Ideal, free: str):
    """Components of ideal.ring/ideal when it is finite over k[free].

    The quotient must be torsion-free over k[free], so that it embeds in its
    generic fiber; else NotFiniteOverSubring is raised. The count is
    certified only when every primitive idempotent of the generic-fiber
    algebra has polynomial coordinates and lifts to an exact idempotent of
    the quotient; otherwise the result is Unknown.
    """
    ring = ideal.ring
    try:
        alg = FiniteAlgebra(move_variable_to_field(ideal, free))
    except NotZeroDimensional as exc:
        raise NotFiniteOverSubring(str(exc)) from None
    except ZeroRingError:
        raise NotFiniteOverSubring(
            "the quotient is torsion over the chosen subring"
        ) from None
    if not _torsion_free(ideal, free):
        raise NotFiniteOverSubring(
            f"the quotient has {free}-torsion, which its generic fiber does not see"
        )
    try:
        decomp = idempotent_decomposition(alg)
    except Uncertified:
        return UNKNOWN
    K = alg.field
    i = ring.variables.index(free)
    for e in decomp.idempotents:
        if not all(K.is_polynomial(c) for c in e):
            return UNKNOWN
        # lift back and certify idempotency in the original quotient
        lift = Polynomial(ring, {exp[:i] + (power,) + exp[i:]: base_c
                                 for c, exp in zip(e, alg.basis)
                                 for power, base_c in enumerate(K.numerator(c))})
        if not ideal.contains_poly(lift * lift - lift):
            return UNKNOWN
    return decomp.count


def _torsion_free(ideal: Ideal, free: str) -> bool:
    """True when ideal.ring/ideal has no torsion over k[free], that is I : h = I.

    Under the order eliminating the other variables, a reduced basis of I is
    also one of I k(free)[others], and the contraction of that ideal is
    I : h^infinity, where h is the product of the basis elements' leading
    coefficients in k[free] (Gianni, Trager and Zacharias, JSC 6 (1988),
    Prop. 3.7 and 3.8). It equals I exactly when I : h does.
    """
    if ideal.is_zero_ideal():
        return True
    ring = ideal.ring
    keep = [v for v in ring.variables if v != free]
    work = PolyRing(ring.field, keep + [free],
                    MonomialOrder.eliminating(len(keep), len(ring.variables)))
    work_ideal = Ideal(work, [g.map_variables(work) for g in ideal.generators])
    coefficients = set()
    for g in work_ideal.groebner():
        lead = g.leading_term()[0][:-1]
        coefficients.add(Polynomial(work, {
            (0,) * len(keep) + exp[-1:]: c for exp, c in g.terms().items() if exp[:-1] == lead
        }))
    h = math.prod(coefficients, start=work.one())
    if h.is_constant():
        return True
    return all(work_ideal.contains_poly(g)
               for g in colon(work_ideal, Ideal(work, [h])).generators)


def is_certified_domain(ideal: Ideal) -> bool:
    """True when ideal.ring/ideal is certified a domain: a polynomial ring,
    or torsion-free over k[v] for a variable v whose generic fiber over k(v)
    is a field, into which it then embeds. A subring of it is a domain too."""
    if ideal.is_zero_ideal():
        return True
    for v in ideal.ring.variables:
        try:
            fiber = FiniteAlgebra(move_variable_to_field(ideal, v))
        except (NotFiniteOverSubring, NotZeroDimensional, ZeroRingError):
            continue
        if is_field_algebra(fiber) is True and _torsion_free(ideal, v):
            return True
    return False
