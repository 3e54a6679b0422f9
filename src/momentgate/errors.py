"""Exception hierarchy.

Every error raised by this package derives from :class:`MomentgateError`, so
callers can catch the whole family with one clause.  Argument/domain problems
additionally derive from ValueError, numerical failures from NumericalError,
a RuntimeError; this keeps ``except ValueError`` / ``except RuntimeError``
working for code that does not know about the package hierarchy.

A class's ``exit_code`` is the command line's exit status on that error: 2
usage or domain, 4 unreadable input (as for an OSError), 3 any other.
"""

__all__ = [
    "MomentgateError",
    "ArgumentError",
    "DomainError",
    "DataFormatError",
    "NumericalError",
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
    exit_code = 3


class ArgumentError(MomentgateError, ValueError):
    """An argument violates a precondition (wrong range, size, or type)."""
    exit_code = 2


class DomainError(MomentgateError, ValueError):
    """A point lies outside the mathematical domain of the requested function."""
    exit_code = 2


class DataFormatError(MomentgateError, ValueError):
    """An input file or config document could not be parsed."""
    exit_code = 4


class NumericalError(MomentgateError, RuntimeError):
    """A computation failed on its data: valid arguments, no result."""


class ConvergenceError(NumericalError):
    """An iterative procedure (root find, quadrature) failed to converge."""


class DegenerateSaddleError(NumericalError):
    """Second derivative at the saddle point is not positive."""


class NonPositiveOmegaError(NumericalError):
    """The order-statistic combination is <= 0, so ln n / omega is undefined."""


class DegenerateRegressionError(NumericalError):
    """Zero variance in the regressor (all used order statistics equal)."""


class InsufficientPositiveValues(NumericalError):
    """Fewer than two positive order statistics available for the tail fit."""


class InsufficientSievedPoints(NumericalError):
    """The sieve yielded fewer points than the estimators require."""


class EmbeddingError(NumericalError):
    """Circulant embedding lost too much spectral mass to eigenvalue clipping."""


class DivergentError(NumericalError):
    """A correlation-length integral has a non-positive denominator."""
