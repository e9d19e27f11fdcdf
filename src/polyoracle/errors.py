"""Exception types shared across the package."""

from __future__ import annotations


class PolyOracleError(Exception):
    """Base class for all package-specific errors."""


class ArityMismatch(PolyOracleError):
    """An evaluation point or operand has the wrong number of variables."""


class NotPrime(PolyOracleError):
    """A modulus that must be prime failed the primality test."""


class ValueOutOfRange(PolyOracleError):
    """An input value lies outside its declared range."""


class TooLarge(PolyOracleError):
    """An exact-counting routine was called beyond its size cap."""


class CapExceeded(TooLarge):
    """An intermediate object grew past its configured cap."""


class UniverseTooLarge(TooLarge):
    """The instance universe exceeds the desk-scale enumeration cap."""


class StreamTooLarge(TooLarge):
    """The literal monomial stream exceeds the enumeration cap."""


class PreconditionViolated(PolyOracleError):
    """A documented precondition of an algorithm does not hold."""
