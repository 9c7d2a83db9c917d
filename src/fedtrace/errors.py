"""Exception taxonomy shared across the package.

Everything raised on purpose derives from FedTraceError so callers can
catch one base type at the CLI boundary. I/O failures are left to the
builtin OSError family (FileNotFoundError etc.).
"""

from __future__ import annotations


class FedTraceError(Exception):
    pass


class InvalidInput(FedTraceError, ValueError):
    """A caller violated a documented precondition."""


class ParseError(FedTraceError):
    """A structured-text artifact could not be decoded.

    Carries the 1-based line number when the format is line-oriented.
    """

    def __init__(self, message: str, *, line: int | None = None, path: str | None = None):
        self.line = line
        self.path = path
        loc = ""
        if path is not None:
            loc += f"{path}"
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)


class CardinalityError(FedTraceError):
    """Catalog contents disagree with their declared counts or uniqueness."""


class InvalidMask(InvalidInput):
    """A feature mask is empty or indexes outside the slot range."""


class InsufficientData(FedTraceError):
    """Not enough samples/participants to define the requested statistic."""


class CalibrationError(FedTraceError):
    """No noise multiplier within the search bounds meets the target epsilon."""


class LineSearchError(FedTraceError):
    """Line search could not produce a finite, sufficient decrease step."""


class UndefinedMetric(FedTraceError):
    """Metric undefined for the given inputs (e.g. no positive labels)."""


class StageDependencyError(FedTraceError):
    """A pipeline stage was invoked before the artifacts it consumes exist."""


class FieldError(InvalidInput):
    """A JSON value does not fit its declared field; names the dotted field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}" if field else message)


class ConfigError(FieldError):
    """Bad configuration value; message names the offending field path."""
