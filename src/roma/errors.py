"""Exception types shared across the package.

Every refused input raises one of these; callers may handle them
separately, e.g. the CLI maps them to distinct exit codes.
"""

from __future__ import annotations


class RomaError(Exception):
    """Base class for package-specific errors."""


class ParseError(RomaError):
    """CSV ingestion failed; carries 1-based row/column coordinates."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.row = row
        self.column = column


class ValidationError(RomaError, ValueError):
    """Input violates a requirement (zero columns, bad labels, a float count, ...)."""


class DimensionError(ValidationError):
    """Array shape is incompatible with the requested operation."""


class DegenerateRegimeError(RomaError):
    """Parameters fall where the method is undefined, e.g. threshold <= 0."""


class FeasibilityError(RomaError):
    """A sampler or configuration cannot be satisfied within its budget."""

    def __init__(self, message: str, acceptance_rate: float | None = None):
        if acceptance_rate is not None:
            message += f" (acceptance rate {acceptance_rate:.2e})"
        super().__init__(message)
        self.acceptance_rate = acceptance_rate
