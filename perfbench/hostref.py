"""The fixed reference computation that host-normalises every timing.

It is pure Python and never calls cartierlab. It does the kind of work the
library does: sparse polynomials as dicts from exponent tuples to Fraction
coefficients, multiplied, reduced by a monic relation and folded into an
integer checksum. On a shared host every Python computation slows down and
speeds up together, so a timing divided by a nearby timing of this kernel
moves far less than the raw timing does.

Changing the kernel or NOMINAL_S changes every normalised figure: it starts
a new baseline.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Typical kernel time on the reference host (Python 3.11.7, a 2-core x86-64
# container). Fixed: see the module docstring.
NOMINAL_S = 0.00150

_LEFT = {
    (i, j): Fraction(i + 2 * j + 1, j + 3)
    for i in range(6)
    for j in range(5)
    if (i + j) % 2 == 0
}
_RIGHT = {
    (i, j): Fraction(3 * i - j + 2, i + 2)
    for i in range(5)
    for j in range(4)
    if (i * j) % 3 != 1
}


def _kernel() -> int:
    prod: dict = {}
    for (a1, b1), c1 in _LEFT.items():
        for (a2, b2), c2 in _RIGHT.items():
            key = (a1 + a2, b1 + b2)
            prod[key] = prod.get(key, 0) + c1 * c2
    # reduce by x^4 = x*y + 1/2 (a monic relation in x), highest x first
    for a in range(max(a for a, _ in prod), 3, -1):
        for b in sorted({b for x, b in prod if x == a}, reverse=True):
            c = prod.pop((a, b), 0)
            if c:
                for key, extra in (((a - 3, b + 1), c), ((a - 4, b), c / 2)):
                    prod[key] = prod.get(key, 0) + extra
    check = 0
    for (a, b), c in sorted(prod.items()):
        check = (check * 1_000_003 + c.numerator * (a + 1) - c.denominator * (b + 1)) % (1 << 61)
    return check


_EXPECTED = _kernel()


def sample() -> float:
    """Seconds for one run of the kernel; checks that it computed the same value."""
    start = time.perf_counter()
    value = _kernel()
    elapsed = time.perf_counter() - start
    if value != _EXPECTED:
        raise RuntimeError("reference computation changed its result")
    return elapsed
