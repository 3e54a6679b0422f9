"""Correlated stationary series: synthesis, effective size, sieve correction.

A stationary series with correlation length tau behaves, for extreme-value
purposes, like roughly n* = n / (1 + kappa tau) independent draws.  The
critical order of a correlated series is therefore predicted by the i.i.d.
theory evaluated at n*.  Estimation from a correlated series combines two
corrections: the estimators read ln n* from an ordered sample of size n*,
and the top order statistics are pre-filtered by a sieve that discards
points too close to an already-selected extreme in the d_beta metric

    d_beta(i, j) = max(|j - i|, beta * #{k : y between y_i and y_j}),

so that each local excursion of the series contributes one extreme.  Every
caller reads the correction rule from ``_correction`` (n*, windows of at
most n*, sieve radius), and the corrected target's size from ``_sizes``.

Synthesis goes through a Gaussian copula: a stationary standard Gaussian
series with prescribed covariance (exact circulant embedding), mapped through
Phi then the marginal quantile.  The covariance is prescribed at the Gaussian
layer by default; Hermite matching (opt-in) adjusts the Gaussian covariance
per lag so the transformed series carries the prescribed covariance instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import tail_models as tm
from .errors import (
    ArgumentError,
    DivergentError,
    EmbeddingError,
    InsufficientSievedPoints,
)
from .estimators import (OrderedSample, QcEstimate, _check_windows,
                         _estimate, _windows, rho_hat, theta_hat)
from .theory import critical_curve

__all__ = [
    "ExponentialCov",
    "TabulatedCov",
    "SievedSample",
    "MatchMode",
    "parse_cov",
    "format_cov",
    "cov_at_lags",
    "correlation_length",
    "n_star",
    "qc_theory_corr",
    "synth_series",
    "sieve",
    "qc_hat_corr",
]

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

# correction defaults: n* = n / (1 + kappa tau), radius alpha tau, d_beta's beta
_KAPPA, _ALPHA, _BETA = 0.08, 0.01, 1.0


@dataclass(frozen=True)
class ExponentialCov:
    """C(t) = exp(-|t|/tau); tau = 0 degenerates to the delta (i.i.d.) case."""

    tau: float

    def __post_init__(self) -> None:
        if not self.tau >= 0.0:
            raise ArgumentError(f"tau must be >= 0, got {self.tau}")


@dataclass(frozen=True)
class TabulatedCov:
    """C at integer lags 0, 1, ...; zero beyond the table.

    Values are normalized to a tuple so instances compare and hash by
    content."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.size < 1 or vals[0] != 1.0:
            raise ArgumentError("tabulated covariance must start with C(0) = 1")
        if not np.all(np.abs(vals) <= 1.0):
            raise ArgumentError("covariance values must be finite with |C| <= 1")
        object.__setattr__(self, "values", tuple(float(v) for v in vals))


CovarianceSpec = ExponentialCov | TabulatedCov


class MatchMode(str, Enum):
    GAUSSIAN_LEVEL = "gaussian"
    HERMITE = "hermite"


@dataclass(frozen=True)
class SievedSample:
    """Sieve output: indices/values in selection (descending-value) order."""

    selected_indices: np.ndarray
    selected_values: np.ndarray


def parse_cov(spec: str) -> CovarianceSpec:
    """Parse ``exp:tau=100`` or ``tab:1,0.5,0.25``."""
    name, _, rest = spec.strip().partition(":")
    name = name.strip().lower()
    if name == "exp":
        key, eq, val = rest.partition("=")
        if key.strip() != "tau" or not eq:
            raise ArgumentError(f"exponential covariance needs tau=..., got {spec!r}")
        try:
            return ExponentialCov(float(val))
        except ValueError:
            raise ArgumentError(f"non-numeric tau in {spec!r}") from None
    if name == "tab":
        try:
            vals = [float(v) for v in rest.split(",") if v.strip()]
        except ValueError:
            raise ArgumentError(f"non-numeric tabulated covariance in {spec!r}") from None
        if not vals:
            raise ArgumentError(f"empty tabulated covariance in {spec!r}")
        return TabulatedCov(np.asarray(vals))
    raise ArgumentError(f"unknown covariance kind {name!r}")


def format_cov(cov: CovarianceSpec) -> str:
    if isinstance(cov, ExponentialCov):
        return f"exp:tau={tm._spec_number(cov.tau)}"
    return "tab:" + ",".join(map(tm._spec_number, cov.values))


def cov_at_lags(cov: CovarianceSpec, lags: np.ndarray) -> np.ndarray:
    """C(t) evaluated at (nonnegative integer) lags."""
    lags = np.asarray(lags)
    if isinstance(cov, ExponentialCov):
        if cov.tau == 0.0:
            return (lags == 0).astype(float)
        # below tau ~ 1e-305, -|t| / tau overflows to -inf: C(t >= 1) = 0
        with np.errstate(over="ignore"):
            return np.exp(-np.abs(lags) / cov.tau)
    table = np.asarray(cov.values, dtype=float)
    out = np.zeros(lags.shape, dtype=float)
    inside = lags < table.size
    out[inside] = table[lags[inside]]
    return out


def correlation_length(cov: CovarianceSpec) -> float:
    """tau = int t C(t) dt / int C(t) dt (trapezoidal for tabulated covs)."""
    if isinstance(cov, ExponentialCov):
        return cov.tau
    vals = np.asarray(cov.values, dtype=float)
    if vals.size == 1:
        return 0.0
    t = np.arange(len(vals), dtype=float)
    den = float(_trapezoid(vals, t))
    if den <= 0.0:
        raise DivergentError("covariance integral is not positive")
    return float(_trapezoid(t * vals, t)) / den


def n_star(n: float, tau: float, kappa: float) -> float:
    """Effective independent sample count n / (1 + kappa tau): finite and at
    least 2."""
    if not tau >= 0.0 or not kappa >= 0.0:
        raise ArgumentError("tau and kappa must be >= 0")
    ns = n / (1.0 + kappa * tau)
    if not ns >= 2.0:
        raise ArgumentError(f"effective size n* = {ns:.3g} < 2")
    if ns == math.inf:
        raise ArgumentError(f"effective size n* must be finite, got n = {n}")
    return ns


def _sizes(n: float, tau: float, kappa: float) -> tuple[float, int]:
    """n* and round(n*), the size of the corrected windows and target."""
    ns = n_star(n, tau, kappa)
    return ns, round(ns)


def _correction(n: float, tau: float, kappa: float, k_theta: int | None,
                k_rho: int | None, s: float | None, alpha: float):
    """(n*, k_theta, k_rho, radius) of the corrected estimate: windows of at
    most n*, given or by the rules of thumb at round(n*); radius s or alpha tau."""
    ns, size = _sizes(n, tau, kappa)
    kt, kr = _windows(size, k_theta, k_rho)
    for name, k in (("k_theta", kt), ("k_rho", kr)):
        if k > ns:
            raise ArgumentError(f"{name}={k} exceeds the effective size n* = {ns:.6g}")
    if s == math.inf:  # the sieve would keep one point of any series
        raise ArgumentError(f"the sieve radius s must be finite, got {s}")
    radius = alpha * tau if s is None else s
    if s is None and not 0.0 <= radius < math.inf:
        raise ArgumentError("the sieve radius alpha * tau must be finite and "
                            f">= 0, got alpha = {alpha}, tau = {tau}")
    return ns, kt, kr, radius


def qc_theory_corr(model: tm.TailModel, n: float, tau: float,
                   kappa: float = _KAPPA) -> float:
    """Predicted critical order of a correlated series: q_c at the effective
    size n*, rounded."""
    return critical_curve(model, _sizes(n, tau, kappa)[1]).qc_approx


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _spectrum(model: tm.TailModel | None, cov: CovarianceSpec, m: int,
              match_mode: MatchMode) -> np.ndarray:
    """Read-only amplitudes sqrt(lambda / m) of the circulant embedding of
    length m, lambda the eigenvalues of the (Hermite-matched) covariance.

    They depend only on the key, so the replications of a Monte-Carlo cell
    share one FFT; the model is in the key only in Hermite mode, the one
    mode that reads it (pass None otherwise).  A failing key raises on
    every call: exceptions are not cached."""
    dist = np.minimum(np.arange(m), m - np.arange(m))
    c = cov_at_lags(cov, dist)
    if match_mode is MatchMode.HERMITE:
        half = m // 2 + 1
        r_half = _hermite_gaussian_cov(model, c[:half])
        c = np.concatenate([r_half, r_half[1:-1][::-1]])
        c[0] = 1.0
    lam = np.fft.fft(c).real
    lam_max = float(lam.max())
    bad = lam < -1e-10 * max(lam_max, 1.0)
    clipped_mass = float(-lam[bad].sum())
    total_mass = float(np.abs(lam).sum())
    if clipped_mass > 0.01 * total_mass:
        raise EmbeddingError(
            f"circulant embedding clipped {clipped_mass / total_mass:.2%} "
            "of spectral mass"
        )
    amp = np.sqrt(np.maximum(lam, 0.0) / m)
    amp.flags.writeable = False
    return amp


def _embed_gaussian(amp: np.ndarray, seed: int) -> np.ndarray:
    """Stationary standard Gaussian series of length m = amp.size (circulant,
    exact), from the amplitudes of ``_spectrum``.

    The series is Re FFT(w) with w = amp (u + i v), u and v independent
    standard normal.  That real part is the FFT of the Hermitian part
    h_k = (w_k + conj w_{m-k}) / 2 of w, so one real inverse FFT of conj h
    over the m/2 + 1 non-negative frequencies gives it.  amp_k and amp_{m-k}
    are read separately: a Hermite-matched spectrum need not be symmetric.
    """
    m = amp.size
    k = m // 2
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    uv = rng.standard_normal((2, m))  # u then v: the stream of two m-draws
    uv *= amp
    au, av = uv
    h = np.empty(k + 1, dtype=complex)  # conj h_0 .. conj h_k
    h[0] = au[0]
    h.real[1:] = au[1:k + 1] + au[:k - 1:-1]  # au[:k-1:-1]: m-1 down to k
    h.imag[1:] = av[:k - 1:-1] - av[1:k + 1]
    h[1:] *= 0.5
    return np.fft.irfft(h, m, norm="forward")


def _gauss_to_marginal(model: tm.TailModel, z: np.ndarray) -> np.ndarray:
    """quantile(model, Phi(z)) as h_inv(-ln(1 - Phi(z))), accurate in both
    tails; lognormal's map is the identity, kept exact and cheap."""
    if model.family is tm.Family.LOG_NORMAL:
        return z.copy()
    from scipy import special as sp
    return tm.h_inv(model, -sp.log_ndtr(-z))


def _hermite_gaussian_cov(model: tm.TailModel, targets: np.ndarray) -> np.ndarray:
    """Per-lag Gaussian-layer correlations r so that corr(g(Z_0), g(Z_t)) hits
    the prescribed values, g = quantile . Phi; bisection on the Hermite series
    sum_m (a_m^2/m!) r^m with coefficients from 64-node Gauss-Hermite."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(64)
    w = weights / math.sqrt(2.0 * math.pi)
    g = _gauss_to_marginal(model, nodes)
    m_max = 40
    he_prev = np.ones_like(nodes)
    he = nodes.copy()
    b = np.empty(m_max)
    b[0] = float(np.dot(w, g * he)) ** 2  # m = 1 term, a_1^2/1!
    log_fact = 0.0
    for m in range(2, m_max + 1):
        he_prev, he = he, nodes * he - (m - 1) * he_prev
        log_fact += math.log(m)
        a_m = float(np.dot(w, g * he))
        b[m - 1] = a_m * a_m * math.exp(-log_fact)
    var = float(b.sum())

    def corr_of_r(r: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(r)
        for coeff in b[::-1]:
            acc = acc * r + coeff
        return acc * r / var

    lo = np.full(targets.shape, -1.0)
    hi = np.ones(targets.shape)
    tgt = np.clip(targets, corr_of_r(lo), 1.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = corr_of_r(mid) < tgt
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def synth_series(model: tm.TailModel, cov: CovarianceSpec, n: int, seed: int,
                 match_mode: MatchMode = MatchMode.GAUSSIAN_LEVEL) -> tm.Sample:
    """Stationary series of n values with the model's marginal and cov.

    GaussianLevel prescribes the covariance to the Gaussian copula layer;
    Hermite pre-distorts the Gaussian covariance so the transformed series
    matches it instead.  Deterministic given seed.
    """
    n = tm._check_size(n, "series length", 2)
    seed = tm._check_seed(seed)
    try:
        match_mode = MatchMode(match_mode)
    except ValueError:
        raise ArgumentError(f"unknown match mode {match_mode!r} "
                            "(expected gaussian or hermite)") from None
    m = 1 << max(1, (2 * (n - 1) - 1).bit_length())
    key = model if match_mode is MatchMode.HERMITE else None
    z = _embed_gaussian(_spectrum(key, cov, m, match_mode), seed)[:n]
    y = _gauss_to_marginal(model, z)
    return tm.Sample(values=y, n=n, seed=seed)


# ---------------------------------------------------------------------------
# sieve
# ---------------------------------------------------------------------------

def _rank_bounds(y: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per index, #{k : y_k < y_i} and #{k : y_k <= y_i}: the start and end
    of each tie group in the ascending y[order[::-1]], scattered back."""
    n = y.size
    asc = order[::-1]
    ranked = y[asc]
    first = np.ones(n, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    n_lt = np.empty(n, dtype=np.intp)
    n_le = np.empty(n, dtype=np.intp)
    n_lt[asc] = starts[group]
    n_le[asc] = np.append(starts[1:], n)[group]
    return n_lt, n_le


def _check_sieve(s: float, beta: float) -> None:
    """sieve's checks of its radius s and its beta."""
    if not s >= 0.0:
        raise ArgumentError(f"s must be >= 0, got {s}")
    if not 0.0 <= beta < math.inf:  # 0 * inf is NaN in beta * c
        raise ArgumentError(f"beta must be finite and >= 0, got {beta}")


def sieve(series, s: float, beta: float = _BETA,
          max_points: int | None = None) -> SievedSample:
    """Extract effectively independent extremes by repeated max-selection.

    Iteratively selects the largest remaining value, then removes every
    remaining point within d_beta-distance <= s of it, where d_beta(i, j) =
    max(|j - i|, beta * c_ij) and c_ij counts series values strictly between
    y_i and y_j.  With s = 0 nothing is removed and the result is the whole
    series in descending order.  ``max_points`` (>= 1) stops the scan early
    once that many selections have been made (the selected prefix is
    identical to the full run's).

    Every selection but the last removes at most 2 floor(s) points, so the
    scan visits at most V = limit + 2 floor(s) (limit - 1) entries of the
    descending order.  Only the candidates y >= t, t the V-th largest value
    (all of y once V >= n), are sorted and scanned: a point outside them is
    never visited, and a value strictly between two candidates is itself a
    candidate, so their own tie groups give the "strictly between" counts.
    fl(beta * k) rises with k, so beta * max(c_ij, 0) <= s exactly when
    c_ij <= c, c the largest count in [0, n] with beta * c <= s; a point is
    then removed when its rank band [#below, #at most] comes within c of the
    pick's.  Cost: one partition, a sort of at most V candidates (more only
    on ties at t; a stable sort only where two of them are equal), and one
    vector pass over a window of contiguous candidates per selection.
    """
    _check_sieve(s, beta)
    y = np.asarray(series.values if isinstance(series, tm.Sample) else series,
                   dtype=float)
    n = len(y)
    if n == 0:
        raise ArgumentError("empty series")
    if not np.all(np.isfinite(y)):
        raise ArgumentError("series values must be finite")
    limit = n if max_points is None else tm._as_int(max_points, "max_points")
    if limit < 1:
        raise ArgumentError(f"max_points must be >= 1, got {max_points}")
    limit = min(limit, n)

    window = int(min(s, n))  # a window past n holds the whole series
    cut = max(n - (limit + 2 * window * (limit - 1)), 0)
    cand = np.flatnonzero(y >= np.partition(y, cut)[cut])
    yc = y[cand]
    order = np.argsort(-yc)  # positions in cand, descending
    desc = yc[order]
    if (desc[1:] == desc[:-1]).any():
        order = np.argsort(-yc, kind="stable")  # ties keep index order
    if window == 0:
        # d_beta >= |j - i| >= 1 between distinct indices: nothing is removable
        idx = cand[order[:limit]]
        return SievedSample(selected_indices=idx, selected_values=y[idx])

    c = n if beta == 0.0 else int(min(s / beta, n))
    while c < n and beta * (c + 1) <= s:
        c += 1
    while beta * c > s:
        c -= 1
    n_lt, n_le = _rank_bounds(yc, order)
    # candidates within index distance `window`: positions lo[p] .. hi[p]-1
    lo = np.searchsorted(cand, cand - window)
    hi = np.searchsorted(cand, cand + window, side="right")
    # selected or removed: a pick lies beyond s of every later pick; each
    # pick's band covers the pick itself
    taken = np.zeros(cand.size, dtype=bool)
    sel: list[int] = []
    for p in order:
        if taken[p]:
            continue
        sel.append(int(p))
        if len(sel) >= limit:
            break
        a, b = lo[p], hi[p]
        taken[a:b] |= (n_lt[a:b] <= n_le[p] + c) & (n_le[a:b] >= n_lt[p] - c)
    idx = cand[np.asarray(sel, dtype=np.intp)]
    return SievedSample(selected_indices=idx, selected_values=y[idx])


# ---------------------------------------------------------------------------
# corrected estimators
# ---------------------------------------------------------------------------

def _sieved_top(y, s: float, beta: float, k: int) -> tuple[np.ndarray, list]:
    """(rows, k) block of the first k of k + 1 sieve picks of each series row
    of y, NaN where the sieve keeps k or fewer points; and each row's count."""
    _check_sieve(s, beta)  # also on a block of no rows
    picks = [sieve(row, s, beta, max_points=k + 1).selected_values for row in y]
    top = [p[:k] if len(p) > k else np.full(k, math.nan) for p in picks]
    return np.reshape(top, (len(y), k)), [len(p) for p in picks]


def qc_hat_corr(series: tm.Sample, k_theta: int | None = None,
                k_rho: int | None = None, *, tau: float, kappa: float = _KAPPA,
                s: float | None = None, alpha: float = _ALPHA,
                beta: float = _BETA) -> QcEstimate:
    """Sieve-corrected critical-order estimate for a correlated series; by
    default windows at round(n*) and sieve radius alpha * tau (_correction)."""
    ns, kt, kr, radius = _correction(series.n, tau, kappa, k_theta, k_rho, s, alpha)
    _check_windows(ns, kt, kr)  # as qc_hat does, before the sieve reads a value
    k_need = max(kt, kr)
    [top], [kept] = _sieved_top([series.values], radius, beta, k_need)
    if np.isnan(top[0]):
        raise InsufficientSievedPoints(f"sieve kept {kept} points, need {k_need + 1}")
    ordered = OrderedSample(top=top, n=ns)
    th = theta_hat(ordered, kt)
    rh = rho_hat(ordered, kr)
    return _estimate(ordered, th, rh, kt, kr)
