"""Zero-dimensional quotient rings as finite-dimensional algebras.

A FiniteAlgebra carries the monomial staircase basis and the multiplication
table of A = ring/ideal. Connected components are counted on the reduced
algebra A_red, which the squarefree parts of the variables' minimal
polynomials present (Seidenberg). A primitive element z of A_red, the first
of x_1 + c*x_2 + c^2*x_3 + ... (c = 0, 1, 2, ...) whose minimal polynomial m
has degree dim A_red, gives A_red = k[z]/(m); the count is the number of
irreducible factors of m, and the primitive idempotents are the CRT
idempotents of those factors, lifted to A by h -> 3h^2 - 2h^3
(Gianni-Trager-Zacharias 1988). Over a prime field F_p too small for the
search to be sure of success, the count is the dimension of the Frobenius
kernel {a : a^p = a}, spanned by the primitive idempotents (Berlekamp 1967).
The factors of the variables' minimal polynomials cut m into pieces that
are factored one by one. Unknown is a first-class outcome: a factor cap, or
a field where neither route applies, gives Unknown with its reason, never a
guessed count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import (
    CartierlabError,
    FactorSearchLimit,
    NotFiniteOverSubring,
    NotZeroDimensional,
    ProbeExhausted,
    UNKNOWN,
    ZeroRingError,
)
from .polycore import unipoly as up
from .polycore.factor import squarefree_factors
from .polycore.fields import PrimeField, RationalField, RationalFunctionField
from .polycore.groebner import Ideal, ideal_sum
from .polycore.linalg import express_in_span, first_dependence, kernel_basis, rref
from .polycore.rings import GREVLEX, Polynomial, PolyRing, fresh_name


class FiniteAlgebra:
    """ring/ideal with a staircase basis and structure constants."""

    def __init__(self, ring: PolyRing, ideal: Ideal):
        if ideal.ring != ring:
            raise CartierlabError("ideal belongs to a different ring")
        gb = ideal.groebner()
        if len(gb) == 1 and gb[0].is_constant():
            raise ZeroRingError("quotient by the unit ideal")
        lead = [g.leading_term()[0] for g in gb]
        bounds = []
        for i, name in enumerate(ring.variables):
            pure = [
                exp[i]
                for exp in lead
                if exp[i] > 0 and all(e == 0 for j, e in enumerate(exp) if j != i)
            ]
            if not pure:
                raise NotZeroDimensional(name)
            bounds.append(min(pure))
        basis = []
        for exps in itertools.product(*(range(b) for b in bounds)):
            if not any(all(l <= e for l, e in zip(lt, exps)) for lt in lead):
                basis.append(exps)
        basis.sort(key=ring.order.key)
        self.ring = ring
        self.ideal = ideal
        self.field = ring.field
        self.basis = tuple(basis)
        self.dim = len(basis)
        self._index = {exp: i for i, exp in enumerate(basis)}
        self._table: dict[tuple[int, int], tuple] = {}

    # -- elements ------------------------------------------------------------

    def zero(self) -> tuple:
        return (self.field.zero(),) * self.dim

    def one(self) -> tuple:
        return self.basis_element(0)

    def basis_element(self, i: int) -> tuple:
        return tuple(
            self.field.one() if j == i else self.field.zero() for j in range(self.dim)
        )

    def from_poly(self, f: Polynomial) -> tuple:
        nf = self.ideal.normal_form(f)
        coords = [self.field.zero()] * self.dim
        for exp, c in nf.terms().items():
            coords[self._index[exp]] = c
        return tuple(coords)

    def to_poly(self, a: tuple) -> Polynomial:
        total = self.ring.zero()
        for c, exp in zip(a, self.basis):
            if not self.field.is_zero(c):
                total = total + self.ring.monomial(exp, c)
        return total

    def scalar(self, c) -> tuple:
        return (c,) + (self.field.zero(),) * (self.dim - 1)

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple(self.field.add(x, y) for x, y in zip(a, b))

    def sub(self, a: tuple, b: tuple) -> tuple:
        return tuple(self.field.sub(x, y) for x, y in zip(a, b))

    def scale(self, c, a: tuple) -> tuple:
        return tuple(self.field.mul(c, x) for x in a)

    def _basis_product(self, i: int, j: int) -> tuple:
        if i > j:
            i, j = j, i
        cached = self._table.get((i, j))
        if cached is None:
            exp = tuple(a + b for a, b in zip(self.basis[i], self.basis[j]))
            cached = self.from_poly(self.ring.monomial(exp, self.field.one()))
            self._table[(i, j)] = cached
        return cached

    def mul(self, a: tuple, b: tuple) -> tuple:
        out = [self.field.zero()] * self.dim
        for i, ca in enumerate(a):
            if self.field.is_zero(ca):
                continue
            for j, cb in enumerate(b):
                if self.field.is_zero(cb):
                    continue
                c = self.field.mul(ca, cb)
                for k, s in enumerate(self._basis_product(i, j)):
                    if not self.field.is_zero(s):
                        out[k] = self.field.add(out[k], self.field.mul(c, s))
        return tuple(out)

    def pow(self, a: tuple, n: int) -> tuple:
        result = self.one()
        while n > 0:
            if n & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            n >>= 1
        return result

    def is_zero_elem(self, a: tuple) -> bool:
        return all(self.field.is_zero(c) for c in a)

    def eval_upoly(self, coeffs: tuple, a: tuple, unit: tuple | None = None) -> tuple:
        """Evaluate a univariate coefficient tuple at a, with a^0 := unit."""
        unit = self.one() if unit is None else unit
        acc = self.zero()
        power = unit
        for c in coeffs:
            acc = self.add(acc, self.scale(c, power))
            power = self.mul(power, a)
        return acc

    def is_unit(self, a: tuple) -> bool:
        m = minimal_polynomial(self, a)
        return not self.field.is_zero(m[0])

    def inverse(self, a: tuple) -> tuple:
        m = minimal_polynomial(self, a)
        if self.field.is_zero(m[0]):
            raise ZeroDivisionError("element is not a unit")
        tail = tuple(m[1:])  # m(a) = 0  =>  a * tail(a) = -m[0]
        scale = self.field.neg(self.field.inv(m[0]))
        return self.scale(scale, self.eval_upoly(tail, a))

    def variable_element(self, name: str) -> tuple:
        return self.from_poly(self.ring.variable(name))

    def describe(self) -> str:
        gens = ", ".join(str(g) for g in self.ideal.generators) or "0"
        return f"{self.ring.describe()}/({gens})"


def quotient_algebra(ring: PolyRing, ideal: Ideal) -> FiniteAlgebra:
    """The staircase-basis presentation of a zero-dimensional quotient."""
    return FiniteAlgebra(ring, ideal)


def minimal_polynomial(alg: FiniteAlgebra, a: tuple) -> tuple:
    """Monic least-degree m with m(a) = 0, as a coefficient tuple."""
    return _relative_minimal_polynomial(alg, alg.one(), a)


def _relative_minimal_polynomial(alg: FiniteAlgebra, unit: tuple, a: tuple) -> tuple:
    """minimal_polynomial of a in the block of the idempotent unit: the
    powers of a start from a^0 := unit. dim + 1 vectors in dim dimensions
    always have a dependence."""
    powers = [unit]
    for _ in range(alg.dim):
        powers.append(alg.mul(powers[-1], a))
    k, coeffs = first_dependence(alg.field, [list(p) for p in powers])
    return tuple(alg.field.neg(c) for c in coeffs) + (alg.field.one(),)


# -- idempotents --------------------------------------------------------------


@dataclass(frozen=True)
class IdempotentDecomposition:
    algebra: FiniteAlgebra
    idempotents: tuple
    count: int


@dataclass(frozen=True)
class _Splitting:
    """How the components of an algebra A are read off an algebra S.

    S is A itself or A_red, whose staircase lies inside that of A. Either
    S = k[z]/(m) up to nilpotents, for a primitive element z, and `factors`
    are the irreducible factors of m; or `kernel` is a basis of
    ker(a -> a^p - a) on S over F_p.
    """

    algebra: FiniteAlgebra
    element: tuple | None = None
    factors: tuple = ()
    kernel: tuple = ()

    @property
    def count(self) -> int:
        return len(self.factors) if self.element is not None else len(self.kernel)


def _hensel_idempotent(alg: FiniteAlgebra, h: tuple) -> tuple:
    for _ in range(alg.dim + 2):
        square = alg.mul(h, h)
        if square == h:
            return h
        # h <- 3h^2 - 2h^3
        three = alg.field.from_int(3)
        two = alg.field.from_int(2)
        h = alg.sub(alg.scale(three, square), alg.scale(two, alg.mul(square, h)))
    if alg.mul(h, h) == h:
        return h
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


def _primitive_element(alg: FiniteAlgebra, mins: list[tuple]):
    """(z, minimal polynomial of z) with deg = dim alg, or None.

    The candidates are x_1 + c*x_2 + c^2*x_3 + ... for c = 0, 1, 2, ...;
    a variable whose minimal polynomial (given in `mins`) already has full
    degree is taken first. Over a reduced algebra the search succeeds once
    it may try more than _search_bound constants.
    """
    field = alg.field
    variables = [alg.variable_element(v) for v in alg.ring.variables]
    for x, m in zip(variables, mins):
        if up.udeg(m) == alg.dim:
            return x, m
    last = _search_bound(alg)
    if field.characteristic and not isinstance(field, RationalFunctionField):
        last = min(last, field.characteristic - 1)  # a finite field has p constants c
    for c in range(1, last + 1):
        const = _constant(field, c)
        z, weight = alg.zero(), field.one()
        for x in variables:
            z = alg.add(z, alg.scale(weight, x))
            weight = field.mul(weight, const)
        m = minimal_polynomial(alg, z)
        if up.udeg(m) == alg.dim:
            return z, m
    return None


def _frobenius_kernel(alg: FiniteAlgebra) -> tuple:
    """A basis of {a : a^p = a} over F_p: the span of the primitive idempotents.

    Frobenius is a ring map, so the image of each staircase monomial is the
    image of a smaller one times the image of one variable (Berlekamp 1967).
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


def _factors(field, m: tuple) -> tuple:
    try:
        return tuple(squarefree_factors(field, m))
    except FactorSearchLimit as exc:
        raise ProbeExhausted(f"a factor search hit its cap: {exc}") from None


def _factors_along_variables(alg: FiniteAlgebra, z: tuple, m: tuple,
                             mins: list[tuple]) -> tuple:
    """The irreducible factors of m, where alg = k[z]/(m) up to nilpotents.

    Every variable is a polynomial q(z), so the factors f of its minimal
    polynomial cut m into the pieces gcd(m, f(q(z))): the points where the
    variable is a root of f. The residue field of such a point contains
    k[x]/(f), so the degree of every factor of the piece is a multiple of
    deg f, for each variable, and a piece of degree below twice the least
    common multiple is irreducible. The other pieces are factored one by
    one, which keeps their degrees under the factor caps where all of m
    would hit them.
    """
    field = alg.field
    pieces = [(up.usquarefree_part(field, m), 1)]  # (piece, divisor of its factors' degrees)
    powers = None
    for name, mi in zip(alg.ring.variables, mins):
        x = alg.variable_element(name)
        if up.udeg(mi) < 2 or x == z:
            continue
        try:
            factors = squarefree_factors(field, mi)
        except FactorSearchLimit:
            continue  # this variable cuts nothing
        if len(factors) == 1:
            pieces = [(piece, math.lcm(low, up.udeg(factors[0]))) for piece, low in pieces]
            continue
        if powers is None:
            powers = [alg.one()]
            for _ in range(alg.dim - 1):
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
                 for f in ((piece,) if up.udeg(piece) < 2 * low else _factors(field, piece)))


def _splitting(alg: FiniteAlgebra, mins: list[tuple] | None = None) -> _Splitting:
    """Certify the components of alg, from its variables' minimal polynomials.

    Raises ProbeExhausted, naming the reason, when the count is not certified.
    """
    field = alg.field
    if alg.dim == 1:  # alg = k = k[z]/(z - 1)
        return _Splitting(alg, alg.one(), ((field.neg(field.one()), field.one()),))
    if mins is None:
        mins = variable_minimal_polynomials(alg)
    red, red_mins = alg, mins
    if all(up.udeg(m) < alg.dim for m in mins):  # no variable is primitive in alg
        red, red_mins = _reduced_algebra(alg, mins)
        if isinstance(field, PrimeField) and field.p <= _search_bound(red):
            return _Splitting(red, kernel=_frobenius_kernel(red))
    found = _primitive_element(red, red_mins)
    if found is None:  # only over a non-prime finite field
        raise ProbeExhausted(f"no candidate is primitive over {field.describe()}")
    z, m = found
    return _Splitting(red, z, _factors_along_variables(red, z, m, red_mins))


def _crt_idempotents(alg: FiniteAlgebra, factors: tuple, a: tuple, unit: tuple) -> list[tuple]:
    """e(a) for each factor f, where e = 1 mod f and 0 mod the other factors;
    powers of a start from a^0 := unit, so e(a) splits the block of unit."""
    field = alg.field
    total = (field.one(),)
    for f in factors:
        total = up.umul(field, total, f)
    powers = [unit]
    for _ in range(up.udeg(total) - 1):
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
    blocks = [alg.one()]
    for b in split.kernel:
        if len(blocks) == split.count:
            break
        refined = []
        for unit in blocks:
            a = alg.mul(b, unit)
            factors = _factors(alg.field, _relative_minimal_polynomial(alg, unit, a))
            refined += _crt_idempotents(alg, factors, a, unit) if len(factors) > 1 else [unit]
        blocks = refined
    return blocks


def idempotent_decomposition(alg: FiniteAlgebra) -> IdempotentDecomposition:
    """Primitive idempotents summing to 1; count = connected components.

    Raises ProbeExhausted when the count cannot be certified.
    """
    split = _splitting(alg)
    if split.count == 1:
        return IdempotentDecomposition(alg, (alg.one(),), 1)
    if split.element is not None:
        parts = _crt_idempotents(split.algebra, split.factors, split.element,
                                 split.algebra.one())
    else:
        parts = _kernel_idempotents(split)
    if split.algebra is not alg:  # the staircase of A_red lies inside that of A
        parts = [alg.from_poly(split.algebra.to_poly(e)) for e in parts]
    parts = [_hensel_idempotent(alg, e) for e in parts]
    return IdempotentDecomposition(alg, tuple(parts), len(parts))


def component_count(alg: FiniteAlgebra):
    """Number of connected components of Spec, or Unknown."""
    try:
        return _splitting(alg).count
    except ProbeExhausted:
        return UNKNOWN


# -- reducedness and radicals ---------------------------------------------------


def variable_minimal_polynomials(alg: FiniteAlgebra) -> list[tuple]:
    return [
        minimal_polynomial(alg, alg.variable_element(v)) for v in alg.ring.variables
    ]


def _radical_generators(alg: FiniteAlgebra, mins: list[tuple]) -> list[Polynomial]:
    gens = []
    for name, m in zip(alg.ring.variables, mins):
        sq = up.usquarefree_part(alg.field, m)
        if up.udeg(sq) < up.udeg(m):
            total = alg.ring.zero()
            var = alg.ring.variable(name)
            power = alg.ring.one()
            for c in sq:
                total = total + power.scale(c)
                power = power * var
            gens.append(total)
    return gens


def _reduced_algebra(alg: FiniteAlgebra, mins: list[tuple]):
    """(A_red, minimal polynomials of its variables): the squarefree parts."""
    gens = _radical_generators(alg, mins)
    if not gens:
        return alg, mins
    red = quotient_algebra(alg.ring, ideal_sum(alg.ideal, Ideal(alg.ring, gens)))
    return red, [up.usquarefree_part(alg.field, m) for m in mins]


def radical_generators(alg: FiniteAlgebra) -> list[Polynomial]:
    """Extra generators presenting the reduced quotient (variable eliminants)."""
    return _radical_generators(alg, variable_minimal_polynomials(alg))


def is_reduced(alg: FiniteAlgebra) -> bool:
    return not radical_generators(alg)


def is_field_algebra(alg: FiniteAlgebra):
    """True/False when decidable, Unknown when the count is not certified."""
    mins = variable_minimal_polynomials(alg)
    if _radical_generators(alg, mins):
        return False
    try:
        return _splitting(alg, mins).count == 1
    except ProbeExhausted:
        return UNKNOWN


def nilradical_span(alg: FiniteAlgebra) -> list[tuple]:
    """Vectors spanning the nilradical as a subspace (possibly empty)."""
    gens = radical_generators(alg)
    if not gens:
        return []
    rows = []
    for g in gens:
        coords = alg.from_poly(g)
        for i in range(alg.dim):
            rows.append(list(alg.mul(coords, alg.basis_element(i))))
    reduced, _ = rref(alg.field, rows)
    return [tuple(row) for row in reduced]


def primitive_element_presentation(alg: FiniteAlgebra):
    """Present a field algebra as the base field or a simple extension.

    Returns a Field, or None when no candidate is primitive.
    """
    from .polycore.fields import SimpleExtensionField

    if alg.dim == 1:
        return alg.field
    name = fresh_name("g", set(alg.ring.variables) | set(alg.field.symbol_names()))
    found = _primitive_element(alg, variable_minimal_polynomials(alg))
    if found is None:
        return None
    return SimpleExtensionField(alg.field, found[1], generator=name)


# -- fibers that are finite over a polynomial subring ---------------------------


def move_variable_to_field(ring: PolyRing, ideal: Ideal, free: str):
    """Rebuild ring/ideal over the rational function field in `free`."""
    if free not in ring.variables:
        raise CartierlabError(f"unknown variable {free!r}")
    if not isinstance(ring.field, (RationalField, PrimeField)):
        raise NotFiniteOverSubring(
            "free variables require a QQ or FP(p) coefficient field"
        )
    K = RationalFunctionField(ring.field, free)
    keep = [v for v in ring.variables if v != free]
    new_ring = PolyRing(K, keep, GREVLEX)
    free_idx = ring.variables.index(free)
    new_gens = []
    for g in ideal.generators:
        out: dict = {}
        for exp, c in g.terms().items():
            e_free = exp[free_idx]
            rest = tuple(e for i, e in enumerate(exp) if i != free_idx)
            coeff = K.make(
                up.uscale(ring.field, c, (ring.field.zero(),) * e_free + (ring.field.one(),)),
                (ring.field.one(),),
            )
            if rest in out:
                coeff = K.add(out[rest], coeff)
            if K.is_zero(coeff):
                out.pop(rest, None)
            else:
                out[rest] = coeff
        new_gens.append(Polynomial(new_ring, out))
    return new_ring, Ideal(new_ring, new_gens)


def components_over_subring(ring: PolyRing, ideal: Ideal, free_variables):
    """Components of ring/ideal when it is finite over k[free variable].

    The count is certified only when every primitive idempotent of the
    generic-fiber algebra has polynomial coordinates and lifts to an exact
    idempotent of the quotient; otherwise the result is Unknown.
    """
    free = list(free_variables)
    if len(free) != 1:
        raise NotFiniteOverSubring(
            "exactly one free variable is supported (single function-field level)"
        )
    new_ring, new_ideal = move_variable_to_field(ring, ideal, free[0])
    try:
        alg = quotient_algebra(new_ring, new_ideal)
    except NotZeroDimensional as exc:
        raise NotFiniteOverSubring(str(exc)) from None
    except ZeroRingError:
        raise NotFiniteOverSubring(
            "the quotient is torsion over the chosen subring"
        ) from None
    try:
        decomp = idempotent_decomposition(alg)
    except ProbeExhausted:
        return UNKNOWN
    K = alg.field
    free_idx = ring.variables.index(free[0])
    keep_idx = [i for i in range(len(ring.variables)) if i != free_idx]
    for e in decomp.idempotents:
        if not all(K.is_polynomial(c) for c in e):
            return UNKNOWN
        # lift back and certify idempotency in the original quotient
        lift = ring.zero()
        for c, exp in zip(e, alg.basis):
            if K.is_zero(c):
                continue
            num = K.numerator(c)
            for power, base_c in enumerate(num):
                if ring.field.is_zero(base_c):
                    continue
                full = [0] * len(ring.variables)
                full[free_idx] = power
                for pos, i in enumerate(keep_idx):
                    full[i] = exp[pos]
                lift = lift + ring.monomial(tuple(full), base_c)
        if not ideal.contains_poly(lift * lift - lift):
            return UNKNOWN
    return decomp.count


# -- exhaustive enumeration over prime fields -----------------------------------


def iter_all_elements(alg: FiniteAlgebra):
    """All elements of an algebra over a prime field (use with a size guard)."""
    if not isinstance(alg.field, PrimeField):
        raise CartierlabError("exhaustive enumeration needs a prime field")
    for coords in itertools.product(range(alg.field.p), repeat=alg.dim):
        yield tuple(coords)
