"""Typed error hierarchy.

Three families matter to callers (and to the CLI exit-code mapping):
input validation, I/O, and numerical failure.
"""


class MimicfundError(Exception):
    """Base class for all package errors."""


class ValidationError(MimicfundError, ValueError):
    """Malformed or inconsistent input; maps to CLI exit code 1."""


class IoError(MimicfundError, OSError):
    """File could not be read or written; maps to CLI exit code 2."""


class NumericalError(MimicfundError, ArithmeticError):
    """A numerical procedure failed; maps to CLI exit code 3."""


# --- validation ---

class DimensionMismatch(ValidationError):
    pass


class TooFewAssets(ValidationError):
    pass


class TooFewInvestors(ValidationError):
    pass


class NotSymmetric(ValidationError):
    pass


class NotPositiveDefinite(ValidationError):
    pass


class NonPositiveAlpha(ValidationError):
    pass


class NonPositiveBeta(ValidationError):
    pass


class BetaNotNormalized(ValidationError):
    pass


class NegativePhi(ValidationError):
    pass


class ConstraintViolated(ValidationError):
    pass


class NonFiniteValue(ValidationError):
    pass


class TooFewObservations(ValidationError):
    pass


class ParseError(ValidationError):
    pass


class NonPositiveOptimum(ValidationError):
    pass


# --- numerical ---

class NumericalBreakdown(NumericalError):
    pass


class SingularKkt(NumericalError):
    pass


class SizeCapExceeded(NumericalError):
    pass
