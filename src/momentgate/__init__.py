"""Critical moment orders of log-exponential-power-law samples.

For X = e^Y with stretched-exponential tails, the empirical moment
S(n, q) = (1/n) sum X_k^q tracks E X^q only up to a size-dependent critical
order q_c(n), beyond which the sample maximum dominates and ln S grows
linearly in q.  This package computes q_c(n) and related theory exactly,
estimates it from finite samples via extreme order statistics, extends the
estimators to correlated stationary series through an effective sample size
and a sieve over local extremes, and benchmarks everything with a
reproducible Monte-Carlo harness.
"""

__version__ = "0.1.0"

from . import dependence, errors, estimators, montecarlo, tail_models, theory

__all__ = [
    "__version__",
    "dependence",
    "errors",
    "estimators",
    "montecarlo",
    "tail_models",
    "theory",
]
