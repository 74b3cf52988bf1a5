"""Exception hierarchy.

Domain errors (bad inputs, violated preconditions, reached work limits)
derive from SurdSailsError and map to CLI exit code 1.  InternalInvariantError
marks conditions the underlying theorems forbid; if one fires there is a bug,
and the CLI exits 2.
"""


class SurdSailsError(Exception):
    """Base class for input and precondition errors."""


class ZeroDenominator(SurdSailsError):
    """Surd constructed with denominator 0."""


class RationalValue(SurdSailsError):
    """Value is rational (square radicand or zero radical coefficient)."""


class RadicandMismatch(SurdSailsError):
    """Arithmetic between surds of different quadratic fields."""


class DivisionByZero(SurdSailsError, ZeroDivisionError):
    """Exact division by zero."""


class InvalidPeriod(SurdSailsError):
    """Continued-fraction word violating the type invariants."""


class NotPurelyPeriodic(SurdSailsError):
    """Operation requires a purely periodic (reduced) surd."""


class NotEquivalent(SurdSailsError):
    """The two surds have different continued-fraction tails."""


class DegenerateSegment(SurdSailsError):
    """Segment with coincident endpoints."""


class DegenerateAngle(SurdSailsError):
    """Angle with parallel or zero arms."""


class NotUnimodularArms(SurdSailsError):
    """Sprout arms do not form oppositely oriented bases of Z^2."""


class OriginSprout(SurdSailsError):
    """Sprout diagonal would end at the origin; not a sail configuration."""


class BadSeed(SurdSailsError):
    """Seed segment violates the sail construction hypothesis."""


class NotAdjacent(SurdSailsError):
    """The two sails were not built as an adjacent pair."""


class NotHyperbolic(SurdSailsError):
    """Matrix has no pair of irrational fixed-line slopes."""


class PreconditionViolated(SurdSailsError):
    """Quadratic form outside the automorphism search domain."""


class IncompatibleCenter(SurdSailsError):
    """Center kind does not match the requested criterion case."""


class ResourceLimit(SurdSailsError):
    """A computation reached a work limit; the message names the limit."""


class ParseError(SurdSailsError):
    """Input text rejected; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InternalInvariantError(Exception):
    """A proved property failed to hold; indicates a bug."""


class ShapeViolation(InternalInvariantError):
    """sqrt expansion did not have the palindrome-plus-double shape."""
