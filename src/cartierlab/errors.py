"""Exception hierarchy and first-class non-error outcomes (Unknown, empty fiber)."""

from __future__ import annotations


class CartierlabError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CartierlabError):
    """Bad input: a malformed description file, an invalid CLI value, or an
    input the engine refuses (the CLI exits 2 with `input error:`)."""


class ParseError(InputError):
    """Syntax error in a polynomial expression, with a character position."""

    def __init__(self, message: str, text: str, position: int):
        super().__init__(f"{message} at position {position}: {text!r}")
        self.text = text
        self.position = position


class ResourceLimitError(CartierlabError):
    """A configurable budget was exceeded, and nothing else (the CLI exits 3);
    not a wrong answer."""


class PairBudgetExceeded(ResourceLimitError):
    def __init__(self, budget: int):
        super().__init__(f"S-pair budget of {budget} exceeded")
        self.budget = budget


class Uncertified(CartierlabError):
    """A count the engine cannot certify: the sites that count components
    report it as Unknown with this reason, never as an error or a budget."""


class FactorSearchLimit(Uncertified):
    """A factor search stopped at its cap, so no factorization is claimed:
    the subset cap of `factor._recombine` over QQ, or one of the two k(v)
    limits in `factor._factor_rational_functions` (a quadratic in
    characteristic 2, a degree above 2)."""


class NotZeroDimensional(CartierlabError):
    def __init__(self, variable: str):
        super().__init__(
            f"ideal is not zero-dimensional: no pure power of {variable!r} "
            "among the leading terms"
        )
        self.variable = variable


class ZeroRingError(CartierlabError):
    """The quotient by the unit ideal is the zero ring."""


class NotArtinianLocal(CartierlabError):
    pass


class NotPrime(InputError):
    pass


class NotFiniteOverSubring(CartierlabError):
    pass


class MissingHints(CartierlabError):
    pass


class CertificateFailure(CartierlabError):
    """A check behind a certified answer failed: a wrong hint (`fractions`,
    `finite`, `module_generators`, named in the message) or, where the check
    tests the engine's own arithmetic, a bug."""


class DegenerateExtension(CartierlabError):
    """The operation does not apply to the identity-like case (unit conductor)."""


class RadicalUnavailable(Uncertified):
    """A radical needs a p-th root that the field lacks, as k(v) in
    characteristic p does."""


class InvariantViolation(CartierlabError):
    pass


class WellDefinednessError(InputError):
    """A relation of the source ring does not map to zero in the target."""


class InjectivityError(InputError):
    """The map has a nonzero kernel: the contraction exceeds the stated ideal."""


class _Singleton:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance


class UnknownOutcome(_Singleton):
    """Marker for 'the toolkit cannot certify an answer'; never a guess."""

    def __repr__(self) -> str:
        return "Unknown"


class EmptyFiber(_Singleton):
    """Marker for a fiber over a prime with no points (unit fiber ideal)."""

    def __repr__(self) -> str:
        return "Empty"


UNKNOWN = UnknownOutcome()
EMPTY = EmptyFiber()


def shown(value):
    """value, with the Unknown and Empty markers written as "unknown" and "empty"."""
    return "unknown" if value is UNKNOWN else "empty" if value is EMPTY else value
