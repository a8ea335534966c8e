"""Exception hierarchy shared across the package.

DataError maps to CLI exit code 2, NumericError to exit code 3.
"""


class EmdHedgeError(Exception):
    """Base class for all package errors."""


class DataError(EmdHedgeError):
    """Bad or insufficient input data (ingestion, alignment, monotonicity)."""


class InsufficientDataError(DataError):
    """Not enough observations for the requested operation."""


class NumericError(EmdHedgeError):
    """Estimation or numerical failure."""


class SingularDesignError(NumericError):
    """Rank-deficient regressor matrix."""


class DegenerateInputError(NumericError):
    """Zero-variance or otherwise degenerate input to an analysis regression."""
