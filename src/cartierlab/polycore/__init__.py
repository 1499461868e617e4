"""Exact polynomial arithmetic: fields, rings, parsing, and Groebner bases."""

from .fields import (
    Field,
    PrimeField,
    QQ,
    RationalField,
    RationalFunctionField,
)
from .groebner import (
    DEFAULT_PAIR_BUDGET,
    Ideal,
    buchberger,
    colon,
    default_pair_budget,
    eliminate,
    ideal_equals,
    ideal_sum,
    intersect,
    reduce_poly,
    set_default_pair_budget,
)
from .parse import parse_polynomial
from .rings import GREVLEX, LEX, MonomialOrder, Polynomial, PolyRing

__all__ = [
    "DEFAULT_PAIR_BUDGET",
    "Field",
    "GREVLEX",
    "Ideal",
    "LEX",
    "MonomialOrder",
    "Polynomial",
    "PolyRing",
    "PrimeField",
    "QQ",
    "RationalField",
    "RationalFunctionField",
    "buchberger",
    "colon",
    "default_pair_budget",
    "eliminate",
    "ideal_equals",
    "ideal_sum",
    "intersect",
    "parse_polynomial",
    "reduce_poly",
    "set_default_pair_budget",
]
