"""Order-statistics estimators for the critical moment order.

theta_hat estimates theta(n) = ln n / y_dagger(n) through Omega_k, a
variance-optimal unbiased linear combination of the k largest order
statistics (under their joint extreme-value limit law).  rho_hat_E recovers
the tail exponent rho by an ordinary least-squares fit of the order-statistic
rank ladder ln(ln n - ln i) against ln Y_{i,n}.  Their product estimates
q_c(n) ~ rho_l(y_dagger) * theta(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    DegenerateRegressionError,
    InsufficientPositiveValues,
    NonPositiveOmegaError,
)
from .tail_models import Sample, _as_int

__all__ = [
    "OrderedSample",
    "QcEstimate",
    "order_stats",
    "omega_weights",
    "theta_hat",
    "rho_hat",
    "default_k_theta",
    "default_k_rho",
    "qc_hat",
]

_EULER_GAMMA = np.euler_gamma


@dataclass(frozen=True)
class OrderedSample:
    """Top-k order statistics of a sample, descending, plus its size n (or n*)."""

    top: np.ndarray
    n: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.n):
            raise ArgumentError(f"n must be finite, got {self.n}")
        if not np.all(np.isfinite(self.top)):
            raise ArgumentError("top values must be finite")
        if not 1 <= len(self.top) <= self.n:
            raise ArgumentError("len(top) must be in [1, n]")
        if np.any(np.diff(self.top) > 0.0):
            raise ArgumentError("top must be nonincreasing")


@dataclass(frozen=True)
class QcEstimate:
    theta_hat: float
    rho_hat: float
    qc_hat: float
    k_theta: int
    k_rho: int


def _top_rows(values: np.ndarray, k: int) -> np.ndarray:
    """The k largest values of each row of a (rows, n) array, descending and
    C-contiguous (so that Omega is BLAS's dot product on every row)."""
    n = values.shape[-1]
    part = values if k == n else np.partition(values, n - k, axis=-1)[:, n - k:]
    return np.sort(part, axis=-1)[:, ::-1].copy()


def _omega_rows(top: np.ndarray, k: int) -> np.ndarray:
    """Omega_k of each row of a (rows, >= k) descending top block.

    The product is stacked as one (1, k) @ (k,) per row, which numpy runs as
    a dot product, so a row's Omega does not depend on the rows beside it
    (a (rows, k) matrix-vector product rounds differently).  Near the ends
    of the doubles Omega_k overflows to +-inf or NaN, which _theta_rows reads
    as undefined."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (top[:, None, :k] @ omega_weights(k))[:, 0]


def _slope_rows(top: np.ndarray, k: int, num: float) -> tuple[np.ndarray, np.ndarray]:
    """rho_hat's OLS slope on each row of a (rows, >= k) descending top block,
    and each row's count of positive values among its top k.

    The positives of a descending row are a prefix, so rows are fitted in
    groups of equal count on that prefix with its original ranks.  The slope
    is NaN where fewer than 2 values are positive, where the first and last
    logs are equal, or where cxx is at its floor.
    """
    y = top[:, :k]
    positives = (y > 0.0).sum(axis=-1)
    t = np.log(num - np.log(np.arange(1, k + 1, dtype=float)))
    slope = np.full(len(y), math.nan)
    for m in set(positives.tolist()) - {0, 1}:
        rows = np.flatnonzero(positives == m)
        x = np.log(y[rows, :m])
        mean_x = x.mean(axis=-1)
        mean_xx = (x * x).mean(axis=-1)
        # math.pow is the square of numpy's float scalars; the product x * x,
        # which array ** 2 computes, rounds differently in ~0.1% of cases
        cxx = mean_xx - np.array([math.pow(v, 2.0) for v in mean_x.tolist()])
        cxt = (x * t[:m]).mean(axis=-1) - mean_x * t[:m].mean()
        # ties leave only rounding residue in cxx; the floor is relative, as
        # the spread of ln Y shrinks like 1/rho
        ok = (cxx > 1e-15 * mean_xx) & (x[:, 0] > x[:, -1])
        slope[rows[ok]] = cxt[ok] / cxx[ok]
    return slope, positives


def _check_k(k: int, n: int) -> int:
    k = _as_int(k, "k")
    if not 1 <= k <= n:
        raise ArgumentError(f"k must be in [1, n]={n}, got {k}")
    return k


def _ladder_log_n(k_rho: int, available: int, n: float) -> float:
    """rho_hat's argument checks; returns the ln n of its rank ladder."""
    if k_rho < 2:
        raise ArgumentError(f"k_rho must be >= 2, got {k_rho}")
    if k_rho > available:
        raise ArgumentError(
            f"k_rho={k_rho} exceeds available order stats {available}"
        )
    num = math.log(n)
    if num - math.log(k_rho) <= 0.0:
        raise ArgumentError(f"k_rho={k_rho} must be below n={n:.6g}")
    return num


def _check_windows(n: float, k_theta: int, k_rho: int) -> float:
    """The checks of integer windows at size n, made before any value is
    read: the larger window in [1, n], then rho_hat's.  Returns ln n."""
    return _ladder_log_n(k_rho, _check_k(max(k_theta, k_rho), n), n)


def order_stats(sample: Sample, k: int) -> OrderedSample:
    """Top-k values of the sample, descending; O(n + k log k) expected."""
    k = _check_k(k, sample.n)
    values = np.asarray(sample.values, dtype=float)
    return OrderedSample(top=_top_rows(values[None, :], k)[0], n=sample.n)


def omega_weights(k: int) -> np.ndarray:
    """Variance-optimal unbiased weights alpha_1..alpha_k for Omega_k.

    For k >= 2 the first k-1 entries are (H_{k-1} - gamma)/(k-1) with
    H_{k-1} the harmonic sum and gamma Euler's constant; the last entry
    closes the sum to exactly 1.  k = 1 degenerates to the sample maximum.
    """
    k = _as_int(k, "k")
    if k < 1:
        raise ArgumentError(f"k must be >= 1, got {k}")
    if k == 1:
        return np.array([1.0])
    harmonic = float(np.sum(1.0 / np.arange(1, k)))
    lead = (harmonic - _EULER_GAMMA) / (k - 1)
    alpha = np.full(k, lead)
    alpha[-1] = 1.0 - (k - 1) * lead
    return alpha


def _theta_rows(log_n: float, om):
    """ln n / Omega_k elementwise, where that is a finite positive double;
    NaN elsewhere."""
    with np.errstate(all="ignore"):
        theta = np.divide(log_n, om)
    return np.where((theta > 0.0) & (theta < math.inf), theta, math.nan)


def theta_hat(ordered: OrderedSample, k_theta: int) -> float:
    """ln n / Omega_k, where that is a finite positive double; Omega_k =
    sum alpha_i Y_{i,n} over the k largest order statistics."""
    k = _as_int(k_theta, "k")
    if k > len(ordered.top):
        raise ArgumentError(f"k={k} exceeds available order stats {len(ordered.top)}")
    om = _omega_rows(ordered.top[None, :], k)
    theta = _theta_rows(math.log(ordered.n), om)[0]
    if math.isnan(theta):
        raise NonPositiveOmegaError(
            f"Omega_{k} = {om[0]:.6g}: ln n / Omega_{k} is not a finite "
            "positive number; estimator undefined")
    return float(theta)


def rho_hat(ordered: OrderedSample, k_rho: int) -> float:
    """OLS slope of ln(ln n - ln i) against ln Y_{i,n}, i = 1..k_rho.

    Points with Y_{i,n} <= 0 are excluded (their log does not exist) while
    the surviving points keep their original ranks i.
    """
    k_rho = _as_int(k_rho, "k_rho")
    num = _ladder_log_n(k_rho, len(ordered.top), ordered.n)
    slope, positives = _slope_rows(ordered.top[None, :], k_rho, num)
    if positives[0] < 2:
        raise InsufficientPositiveValues(
            f"only {positives[0]} positive order stats among top {k_rho}"
        )
    if math.isnan(slope[0]):
        raise DegenerateRegressionError("all used order statistics are equal")
    return float(slope[0])


def default_k_theta(n: int) -> int:
    """Rule-of-thumb k for theta_hat: round(exp(sqrt(1.6 ln n))), clamped."""
    if n < 8:
        raise ArgumentError(f"default k rules need n >= 8, got {n}")
    k = round(math.exp(math.sqrt(1.6 * math.log(n))))
    return _clamp_k(k, n)


def default_k_rho(n: int) -> int:
    """Rule-of-thumb k for rho_hat: round(8 n**(1/3)), clamped."""
    if n < 8:
        raise ArgumentError(f"default k rules need n >= 8, got {n}")
    k = round(8.0 * n ** (1.0 / 3.0))
    return _clamp_k(k, n)


def _clamp_k(k: int, n: int) -> int:
    hi = max(2, n // 10)  # k(n)/n -> 0: never use more than a tenth of the data
    return int(min(max(k, 2), hi))


def _windows(n: int, k_theta: int | None,
             k_rho: int | None) -> tuple[int, int]:
    """(k_theta, k_rho): each window given as an int (an ArgumentError that
    names it unless it is an integer), or else its rule of thumb at n."""
    kt = default_k_theta(n) if k_theta is None else _as_int(k_theta, "k_theta")
    kr = default_k_rho(n) if k_rho is None else _as_int(k_rho, "k_rho")
    return kt, kr


def qc_hat(sample: Sample, k_theta: int | None = None,
           k_rho: int | None = None) -> QcEstimate:
    """q_c estimate theta_hat * rho_hat on one shared order-statistics pass."""
    kt, kr = _windows(sample.n, k_theta, k_rho)
    _check_windows(sample.n, kt, kr)
    ordered = order_stats(sample, max(kt, kr))
    th = theta_hat(ordered, kt)
    rh = rho_hat(ordered, kr)
    return _estimate(ordered, th, rh, kt, kr)


def _estimate(ordered: OrderedSample, th: float, rh: float, kt: int,
              kr: int) -> QcEstimate:
    """The QcEstimate of theta_hat th and rho_hat rh on ordered; qc_hat is
    their product, which must be finite."""
    qc = th * rh
    if not math.isfinite(qc):
        om = _omega_rows(ordered.top[None, :], kt)[0]
        raise NonPositiveOmegaError(f"Omega_{kt} = {om:.6g}: theta_hat * rho_hat "
                                    "is not finite; estimator undefined")
    return QcEstimate(theta_hat=th, rho_hat=rh, qc_hat=qc,
                      k_theta=kt, k_rho=kr)


def _qc_rows(values: np.ndarray, n: int, k_theta: int,
             k_rho: int) -> np.ndarray:
    """qc_hat on each row of a block of samples of size n, as rows of
    (theta_hat, rho_hat, qc_hat); NaN in the rows where qc_hat raises on the
    data.  A row holds its whole sample or, in any order, at least its
    max(k_theta, k_rho) largest values.  Argument errors raise as in qc_hat."""
    log_n = _check_windows(n, k_theta, k_rho)
    top = _top_rows(values, max(k_theta, k_rho))
    theta = _theta_rows(log_n, _omega_rows(top, k_theta))
    rho, _ = _slope_rows(top, k_rho, log_n)
    with np.errstate(all="ignore"):
        qc = theta * rho
    out = np.column_stack((theta, rho, qc))
    out[~np.isfinite(qc)] = math.nan
    return out
