"""Exception types shared across the package.

Every error raised by library code derives from FimscoreError so the CLI
can map domain failures to a single exit code. Subclasses carry enough
context (row/column, epoch/batch) to be actionable.
"""


class FimscoreError(Exception):
    """Base class for all package errors."""


class DomainError(FimscoreError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class SingularMatrixError(FimscoreError, ValueError):
    """A matrix that must be invertible has determinant zero."""


class DegenerateDataError(FimscoreError, ValueError):
    """Input data violates a variability requirement (e.g. zero variance)."""


class InsufficientDataError(FimscoreError, ValueError):
    """Too few rows or batches for the requested operation."""


class NonFiniteError(FimscoreError, ValueError):
    """A computation produced NaN or infinity where finite values are required."""


class DatasetFormatError(FimscoreError, ValueError):
    """A dataset file failed to parse; carries the offending location."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        self.row = row
        self.col = col
        loc = ""
        if row is not None:
            loc = f" at row {row}" + (f", column {col}" if col is not None else "")
        super().__init__(message + loc)
