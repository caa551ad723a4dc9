"""Exception types shared across the package."""

from __future__ import annotations


class ConfigError(Exception):
    """Raised for unparseable or invalid experiment configuration."""


class NumericFailure(RuntimeError):
    """Raised when a run produces NaN or infinite values.

    ``step`` is the step of a sweep's first nonfinite value, and ``cell``
    the label of the cell whose step or summary failed, which the message
    then names; each is None where it does not apply.
    """

    def __init__(self, message: str, step: int | None = None, cell: str | None = None):
        super().__init__(message)
        self.step = step
        self.cell = cell


class BatchMemoryError(MemoryError):
    """Raised when a problem's block of minibatches does not fit in memory."""


class CheckFailure(Exception):
    """Raised when a requested validity check fails on otherwise sound data."""
