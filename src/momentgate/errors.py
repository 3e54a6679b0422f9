"""Exception hierarchy.

Every error raised by this package derives from :class:`MomentgateError`, so
callers can catch the whole family with one clause.  Argument/domain problems
additionally derive from ValueError, numerical failures from RuntimeError;
this keeps ``except ValueError`` / ``except RuntimeError`` working for code
that does not know about the package hierarchy.
"""

__all__ = [
    "MomentgateError",
    "ArgumentError",
    "DomainError",
    "DataFormatError",
    "ConvergenceError",
    "DegenerateSaddleError",
    "NonPositiveOmegaError",
    "DegenerateRegressionError",
    "InsufficientPositiveValues",
    "InsufficientSievedPoints",
    "EmbeddingError",
    "DivergentError",
]


class MomentgateError(Exception):
    """Base class for all package errors."""


class ArgumentError(MomentgateError, ValueError):
    """An argument violates a precondition (wrong range, size, or type)."""


class DomainError(MomentgateError, ValueError):
    """A point lies outside the mathematical domain of the requested function."""


class DataFormatError(MomentgateError, ValueError):
    """An input file or config document could not be parsed."""


class ConvergenceError(MomentgateError, RuntimeError):
    """An iterative procedure (root find, quadrature) failed to converge."""


class DegenerateSaddleError(MomentgateError, RuntimeError):
    """Second derivative at the saddle point is not positive."""


class NonPositiveOmegaError(MomentgateError, RuntimeError):
    """The order-statistic combination is <= 0, so ln n / omega is undefined."""


class DegenerateRegressionError(MomentgateError, RuntimeError):
    """Zero variance in the regressor (all used order statistics equal)."""


class InsufficientPositiveValues(MomentgateError, RuntimeError):
    """Fewer than two positive order statistics available for the tail fit."""


class InsufficientSievedPoints(MomentgateError, RuntimeError):
    """The sieve yielded fewer points than the estimators require."""


class EmbeddingError(MomentgateError, RuntimeError):
    """Circulant embedding lost too much spectral mass to eigenvalue clipping."""


class DivergentError(MomentgateError, RuntimeError):
    """A correlation-length integral has a non-positive denominator."""
