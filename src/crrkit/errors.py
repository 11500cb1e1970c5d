"""Exception hierarchy shared across the package."""

from __future__ import annotations


class CrrKitError(Exception):
    """Base class for all crrkit domain errors."""


class InvalidModelError(CrrKitError):
    """Population model parameters violate their invariants."""


class EstimandUndefinedError(CrrKitError):
    """An estimand is undefined on the given model or data.

    Parent of the errors that a bootstrap replicate may legitimately hit;
    callers that render tables catch this class and emit an explicit
    "undefined" marker instead of a number.
    """


class ZeroMassError(EstimandUndefinedError):
    """Conditioning event has probability zero (all stratum weights vanish)."""


class ZeroDenominatorError(EstimandUndefinedError):
    """A ratio's denominator is exactly zero."""


class MissingGroupError(EstimandUndefinedError):
    """One of the two race groups is absent from the estimation scope."""


class DegenerateOddsError(EstimandUndefinedError):
    """An odds is 0 or infinite, so the bias factor is undefined."""


class TooManyUndefinedError(CrrKitError):
    """More than half of the bootstrap replicates were undefined."""


class UnknownStratumError(CrrKitError):
    """A requested stratum key does not occur in the dataset."""


class DataError(CrrKitError):
    """Base class for ingestion failures."""


class MissingColumnError(DataError):
    """A declared column is absent from the file header."""


class UnparseableRowError(DataError):
    """A data row could not be parsed; carries the reason and the 1-based physical line number,
    and names the file when its path is given."""

    def __init__(self, message: str, line: int, path: object = None):
        where = "line" if path is None else f"{path} line"
        super().__init__(f"{where} {line}: {message}")
        self.reason = message
        self.line = line


class NegativeCountError(DataError):
    """A census count is negative or non-finite."""


class EmptySubsetError(DataError):
    """A survey mode's subset rule selected no usable respondents."""
