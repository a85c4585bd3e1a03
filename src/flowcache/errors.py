"""Exception types shared across the package."""

from __future__ import annotations


class FlowCacheError(Exception):
    """Base class for all flowcache errors."""


class InvalidArgumentError(FlowCacheError, ValueError):
    """An argument violates an operation's contract."""


class NumericDomainError(FlowCacheError, ValueError):
    """Non-finite values were passed where finite reals are required."""


class FieldError(InvalidArgumentError):
    """A named field holds a bad value; the message starts with the field's name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.reason = message


class BundleFormatError(FieldError):
    """A calibration bundle file failed schema validation."""
