"""Exception hierarchy and first-class non-error outcomes (Unknown, empty fiber)."""

from __future__ import annotations


class CartierlabError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CartierlabError):
    """Syntax error in a polynomial expression, with a character position."""

    def __init__(self, message: str, text: str, position: int):
        super().__init__(f"{message} at position {position}: {text!r}")
        self.text = text
        self.position = position


class InputError(CartierlabError):
    """Malformed description file or invalid CLI input."""


class ResourceLimitError(CartierlabError):
    """A configurable resource budget was exceeded (not a wrong answer)."""


class PairBudgetExceeded(ResourceLimitError):
    def __init__(self, budget: int):
        super().__init__(f"S-pair budget of {budget} exceeded")
        self.budget = budget


class FactorSearchLimit(ResourceLimitError):
    """Factor search over the rationals gave up (degree or combination cap)."""


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


class NotPrime(CartierlabError):
    pass


class NotFiniteOverSubring(CartierlabError):
    pass


class MissingHints(CartierlabError):
    pass


class CertificateFailure(CartierlabError):
    """Internal cross-check failed; indicates a bug, never bad input."""


class DegenerateExtension(CartierlabError):
    """The operation does not apply to the identity-like case (unit conductor)."""


class RadicalUnavailable(CartierlabError):
    pass


class InvariantViolation(CartierlabError):
    pass


class ProbeExhausted(CartierlabError):
    """A component count could not be certified.

    Raised when a factor search hits its cap, or when no candidate
    combination of the variables is a primitive element of the reduced
    algebra over a non-prime finite field, which has too few constants for
    the search and no Frobenius-kernel count.
    """


class WellDefinednessError(CartierlabError):
    """A relation of the source ring does not map to zero in the target."""


class InjectivityError(CartierlabError):
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
