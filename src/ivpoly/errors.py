"""Exceptions with stable machine-readable codes (surfaced by the CLI)."""


class IvpolyError(ValueError):
    """Base class for domain errors raised by this package."""

    code = "domain-error"


class MalformedRationalError(IvpolyError):
    code = "malformed-rational"


class MalformedInputError(IvpolyError):
    code = "malformed-input"


class InputTooLargeError(IvpolyError):
    code = "input-too-large"


class NegativeInputError(IvpolyError):
    code = "negative-input"


class TruncationError(IvpolyError):
    code = "bad-truncation"


class NotDyadicError(IvpolyError):
    code = "non-dyadic"


class NotAMemberError(IvpolyError):
    code = "not-a-member"


class SpecKindError(IvpolyError):
    code = "unsupported-spec-kind"


class RingMismatchError(IvpolyError):
    code = "ring-mismatch"


class CoefficientRingError(IvpolyError):
    code = "unsupported-coefficient-ring"


class NegativeExponentError(IvpolyError):
    code = "negative-exponent"


class ZeroElementError(IvpolyError):
    code = "zero-element"


class UnitElementError(IvpolyError):
    code = "unit-element"


class DuplicatePointsError(IvpolyError):
    code = "duplicate-site-points"


class DuplicateGeneratorsError(IvpolyError):
    code = "duplicate-generators"


class SiteMismatchError(IvpolyError):
    code = "site-mismatch"


class UnsupportedSiteError(IvpolyError):
    code = "unsupported-site-degree"


class NoWitnessError(IvpolyError):
    code = "no-witness"


class IndexRangeError(IvpolyError):
    code = "index-out-of-range"


class DegreeBoundError(IvpolyError):
    code = "degree-bound-exceeded"
