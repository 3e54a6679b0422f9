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

import importlib

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "dependence",
    "errors",
    "estimators",
    "montecarlo",
    "tail_models",
    "theory",
]


def __getattr__(name):
    # a submodule is imported on first use, so that a caller pays only for
    # the modules it reaches (PEP 562)
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
