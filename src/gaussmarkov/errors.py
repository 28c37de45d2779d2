"""Exception types shared across the package."""


class GaussMarkovError(Exception):
    """Base class for all package errors."""


class InvalidInputError(GaussMarkovError):
    """Malformed argument: bad grid, shape mismatch, domain violation."""


class SingularMarginalError(GaussMarkovError):
    """A marginal covariance is singular or too ill-conditioned to invert."""


class ChainMismatchError(GaussMarkovError):
    """Consecutive transport plans do not share a marginal."""


class NotPsdError(GaussMarkovError):
    """A covariance matrix failed factorization even after jitter."""


class InvalidRateError(GaussMarkovError):
    """A decorrelation-rate function took a negative value."""


class InvalidSdeError(GaussMarkovError):
    """SDE coefficients are invalid at a sampled point (t, x)."""


class InvalidMeasureError(GaussMarkovError):
    """A spectral measure is not a symmetric probability measure."""


class UnsupportedDiagnosticError(GaussMarkovError):
    """Diagnostic undefined for the given inputs (e.g. infinite rate)."""


class BudgetExceededError(GaussMarkovError):
    """An integer search ran past its index budget where a complete result is required."""
