"""Exception types shared across the package.

Every error raised by library code derives from FimscoreError so the CLI
can map domain failures to a single exit code. Subclasses carry enough
context (row/column, epoch/batch) to be actionable. The package's argument
checks live here: require_int (counts and seeds), require_positive (rates
and scales), require_numbers (number lists read from JSON), require_finite
(arrays free of NaN and infinity) and reject_repeats (distinct entries).
"""

import math
import numbers

import numpy as np


class FimscoreError(Exception):
    """Base class for all package errors."""


class DomainError(FimscoreError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class SingularMatrixError(DomainError):
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


def reject_repeats(values, what: str) -> None:
    """DomainError naming the first entry that ``values`` lists twice."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise DomainError(f"{what} must be distinct, {v!r} repeats")


def require_int(value, name: str, low=None) -> int:
    """``value`` as an int; a bool, a non-integer or one below ``low`` is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")
    return int(value)


def require_positive(value, name: str) -> float:
    """``value`` as a float; a bool, a non-number or one not positive and finite is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def require_numbers(values, name: str) -> np.ndarray:
    """A list of finite ints and floats as a float array; a bool, string, null,
    NaN or infinite entry is refused naming ``name`` and its index."""
    for i, v in enumerate(values):
        if type(v) not in (int, float):
            raise DomainError(f"{name} entry {i} must be a number, got {v!r}")
    arr = np.array(values, dtype=np.float64)
    require_finite(arr, lambda index: DomainError(f"{name} entry {index[0]} is not finite"))
    return arr


def require_finite(arr: np.ndarray, fail) -> None:
    """Raise ``fail(index)``, ``index`` the first NaN or infinity of ``arr`` in row order."""
    # min and max carry any NaN or infinity without a buffer-sized mask
    if not (math.isfinite(arr.min(initial=0.0)) and math.isfinite(arr.max(initial=0.0))):
        raise fail(tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0]))
