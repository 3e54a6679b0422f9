"""Critical moment orders and moment asymptotics.

For X = e^Y with tail hazard h, the finite-sample frontier is y_dagger(n),
the solution of h(y) = ln n (the largest Y typically present among n draws).
The moment integral E X^q = int h'(y) exp(q y - h(y)) dy is dominated by a
neighbourhood of y_star(q); while y_star(q) < y_dagger(n) the empirical
moment of order q tracks E X^q, and beyond that the sample maximum takes
over and ln S(n, q) grows linearly in q.  The crossover order q_c(n) is
where the two frontiers meet: the score s = -(ln p)' at y_dagger(n).

Everything here is pure and deterministic; all moments are returned on the
log scale since the raw values overflow rapidly in q.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tail_models as tm
from .errors import ArgumentError, ConvergenceError, DegenerateSaddleError, DomainError

__all__ = [
    "CriticalCurve",
    "y_dagger",
    "y_star",
    "critical_curve",
    "moment_quadrature",
    "moment_saddlepoint",
    "predicted_lnS",
    "q_validity_ceiling",
]

_MOMENT_RELTOL = 1e-8

# double-exponential rule (Takahasi & Mori 1974): the trapezoid rule in t,
# with step h = _DE_H0 / 2^level, on exp-sinh nodes exp(pi/2 sinh t) for a
# half-line and on tanh-sinh nodes 1/(1 + e^{pi |sinh t|}) for a finite
# piece, the latter as distances from the nearer end.  The t ranges end
# where the nodes come within e^-63 (tanh-sinh, in units of the piece's
# length) or e^-70 (exp-sinh, in units of its scale) of the piece's start,
# and 7e6 scales past it on a half-line.  An order stops at the first
# level whose sum differs from the level before by at most _MOMENT_RELTOL
# of the sum (of the sum times |ln E X^q| where that is below 1); the rule
# converges so fast that the sum it keeps is far closer than that to the
# integral
_DE_H0 = 0.5
_DE_LEVELS = 9
_DE_T = {"exp": (-4.5, 3.0), "tanh": (-3.7, 0.0)}
# the exponent q y + ln p(y) - k_shift rounds at about eps (q y + |ln p|)
# near the peak, so no level resolves the integral better than this many
# times that
_DE_NOISE = 16.0

# failure codes of _log_integral, in the order the checks are made
_NOT_POSITIVE, _Y_STAR_OVERFLOW, _OVERFLOW, _COLLAPSED, _NOT_CONVERGED = range(1, 6)


@dataclass(frozen=True)
class CriticalCurve:
    """Frontier quantities at sample size n (any finite real >= 2)."""

    n: float
    y_dagger: float
    theta: float            # ln n / y_dagger
    rho_l_at_dagger: float  # local exponent at the frontier
    qc_exact: float         # score s(y_dagger): the order whose saddle is y_dagger
    qc_approx: float        # product form rho_l * theta == h'(y_dagger)


def y_dagger(model: tm.TailModel, n: float) -> float:
    """The accessible frontier at sample size n: h_inv(ln n), closed form for
    every finite real n >= 2."""
    if not 2.0 <= n < math.inf:
        raise ArgumentError(f"n must be a finite real >= 2, got {n}")
    return tm.h_inv(model, math.log(n))


def y_star(model: tm.TailModel, q: float) -> float:
    """Location dominating the moment integral at order q: the maximizer of
    q y + ln p(y), i.e. tm.score_inv(model, q); DomainError unless q > 0 and
    y* is a normal double."""
    return tm.score_inv(model, q)


def critical_curve(model: tm.TailModel, n: float) -> CriticalCurve:
    """All frontier quantities at size n, including both q_c forms."""
    yd = y_dagger(model, n)
    rho_l = tm.rho_local(model, yd)
    # theta * rho_l == h'(y_dagger) algebraically (h(y_dagger) = ln n); the
    # product form degenerates only at y_dagger == 0 (symmetric family, n = 2)
    theta = math.log(n) / yd if yd != 0.0 else math.inf
    qc_approx = rho_l * theta if yd != 0.0 else tm.h_prime(model, yd)
    return CriticalCurve(n=float(n), y_dagger=yd, theta=theta,
                         rho_l_at_dagger=rho_l, qc_exact=tm.score(model, yd),
                         qc_approx=qc_approx)


@functools.lru_cache(maxsize=None)
def _de_nodes(kind: str, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and weights (step included) of the unit piece's nodes that are
    new at ``level``: every multiple of h at level 0, the odd ones after.
    ``exp`` is exp-sinh on [0, inf); ``tanh`` is one half of tanh-sinh on
    [0, 1], as distances from either end, its midpoint weighted by half."""
    h = _DE_H0 / 2 ** level
    t_lo, t_hi = _DE_T[kind]
    k = np.arange(math.ceil(t_lo / h), math.floor(t_hi / h) + 1)
    if level:
        k = k[k % 2 == 1]
    t = k * h
    if kind == "exp":
        offset = np.exp(0.5 * math.pi * np.sinh(t))
        weight = 0.5 * math.pi * h * np.cosh(t) * offset
    else:
        offset = 1.0 / (1.0 + np.exp(-math.pi * np.sinh(t)))
        weight = math.pi * h * np.cosh(t) * offset * (1.0 - offset)
        weight[k == 0] *= 0.5
    offset.setflags(write=False)  # shared by every call
    weight.setflags(write=False)
    return offset, weight


def _log_integral(model: tm.TailModel, q: np.ndarray) -> np.ndarray:
    """log of int e^{q y} p(y) dy for each order of the 1-d array q.

    Each integral is shifted by its peak (_peaks) and split there (_rays).
    Every order is refined on its own, so its value does not depend on the
    other orders.  Raises for the first order that fails: DomainError
    where q <= 0 or y* overflows, ConvergenceError where the rule
    overflows, collapses or misses its tolerance at the finest level.
    """
    status, peak, k_shift, floor = _peaks(model, q)
    order, base, step, half_line = _rays(model, q, peak, k_shift, status == 0)
    sums = np.zeros(len(order))
    total = np.zeros(len(q))
    err = np.full(len(q), math.inf)
    active = status == 0
    # overflow, NaN and log(0) mark failed orders, caught below
    with np.errstate(all="ignore"):
        for level in range(_DE_LEVELS):
            live = active[order]
            for kind, of_kind in (("exp", half_line), ("tanh", ~half_line)):
                sel = np.flatnonzero(live & of_kind)
                if not len(sel):
                    continue
                offset, weight = _de_nodes(kind, level)
                i = order[sel]
                y = base[sel, None] + step[sel, None] * offset
                e = q[i, None] * y + tm.log_pdf(model, y) - k_shift[i, None]
                part = (np.exp(e) * weight).sum(axis=1) * np.abs(step[sel])
                sums[sel] = sums[sel] * 0.5 + part
            new = np.bincount(order[live], sums[live], minlength=len(q))
            err[active] = np.abs(new - total)[active]
            total[active] = new[active]
            status[active & np.isposinf(total)] = _OVERFLOW
            status[active & np.isnan(total)] = _COLLAPSED
            active &= status == 0
            if level:
                log_moment = np.abs(k_shift + np.log(total))
                tol = np.maximum(_MOMENT_RELTOL * np.minimum(log_moment, 1.0),
                                 floor)
                active &= ~(err <= tol * total)
            if not active.any():
                break
    status[active] = _NOT_CONVERGED
    status[(status == 0) & ~(total > 0.0)] = _COLLAPSED
    failed = np.flatnonzero(status)
    if len(failed):
        j = failed[0]
        _raise_failure(model, status[j], float(q[j]), err[j])
    return k_shift + np.log(total)


def _peaks(model: tm.TailModel, q: np.ndarray):
    """(failure code or 0, peak, k_shift, floor) per order: the mode y*(q), the
    exponent q y + ln p(y) there and its rounding floor.  Where y* leaves the
    normal doubles, 0 stands in below them (q < s(1); slep with rho near 1 at
    small q); above them, or where k_shift overflows, the order fails (peak 1)."""
    status = np.where(q > 0.0, 0, _NOT_POSITIVE)
    with np.errstate(all="ignore"):
        peak = tm._dispatch(model).score_inv(model, np.where(status, 1.0, q))
        abnormal = ~(np.isfinite(peak) & (peak >= np.finfo(float).tiny))
        peak[abnormal] = np.where(q[abnormal] < tm.score(model, 1.0), 0.0, math.inf)
        status[(status == 0) & np.isinf(peak)] = _Y_STAR_OVERFLOW
        lp_peak = tm.log_pdf(model, peak)
        k_shift = q * peak + lp_peak
        floor = _DE_NOISE * np.finfo(float).eps * (q * peak + np.abs(lp_peak))
    status[(status == 0) & ~np.isfinite(k_shift)] = _OVERFLOW
    return status, np.where(status == 0, peak, 1.0), k_shift, floor


def _rays(model: tm.TailModel, q: np.ndarray, peak: np.ndarray,
          k_shift: np.ndarray, ok: np.ndarray):
    """The ok orders' integrals cut at the peak and, for slep, at the kink
    of |y|^rho at 0 and at +-1, where its density falls off in a width of
    order 1/rho.  Each piece is one ray y = base + step * u from its end
    nearer the peak, where its integrand is largest, or two rays, one from
    each end, sharing the tanh-sinh nodes of a finite piece; returns
    (order, base, step, half_line).  A half-line's step starts from
    1/sqrt(s') at the peak, with s' taken no closer to 0 than y = 1
    (slep's s' ~ |y|^(rho-2) is 0 or inf at the origin, where the
    integrand keeps a width of order 1), and is rescaled by _e_fold."""
    lo = model.support_lo
    cuts = [lo, math.inf]
    if model.family is tm.Family.STRICT_LOG_EXP_POWER:
        cuts += [-1.0, 0.0, 1.0]
    ends = np.sort(np.maximum(np.column_stack(
        [peak] + [np.full_like(peak, c) for c in cuts]), lo), axis=1)
    left, right = ends[:, :-1], ends[:, 1:]
    rising = right <= peak[:, None]
    idx, piece = np.nonzero(ok[:, None] & (left < right))
    near = np.where(rising, right, left)[idx, piece]
    far = np.where(rising, left, right)[idx, piece]
    length = far - near
    inf = np.isinf(length)
    with np.errstate(all="ignore"):  # s' overflows to inf at a far peak
        scale = 1.0 / np.sqrt(tm.score_prime(model, np.maximum(peak, 1.0)))
        rays = [(idx[inf], near[inf], np.copysign(scale[idx[inf]], length[inf])),
                (idx[~inf], near[~inf], length[~inf]),
                (idx[~inf], far[~inf], -length[~inf])]
        order, base, step = (np.concatenate(col) for col in zip(*rays))
        half_line = np.repeat([True, False, False], [len(r[0]) for r in rays])
        step[half_line] *= _e_fold(model, q[order[half_line]],
                                   k_shift[order[half_line]],
                                   base[half_line], step[half_line])
    return order, base, step, half_line


def _e_fold(model, q, k_shift, base, step):
    """Factor 2^k (|k| <= 20) by which step reaches, along each ray, the
    first point where the integrand has fallen by e from its value at base;
    1 where it falls slower than that."""
    factor = 2.0 ** np.arange(-20, 21)
    y = np.concatenate([base[:, None], base[:, None] + step[:, None] * factor],
                       axis=1)
    e = q[:, None] * y + tm.log_pdf(model, y) - k_shift[:, None]
    fallen = e[:, 1:] <= e[:, :1] - 1.0
    return np.where(fallen.any(axis=1), factor[fallen.argmax(axis=1)], 1.0)


def _raise_failure(model: tm.TailModel, status: int, q: float,
                   err: float) -> None:
    if status == _NOT_POSITIVE:
        raise DomainError(f"the order q must be > 0, got {q}")
    if status == _Y_STAR_OVERFLOW:
        raise DomainError(f"y* at q={q:.17g} is outside the normal doubles "
                          f"for {tm.format_model(model)}")
    if status == _OVERFLOW:
        # the exponent's rounding grows like eps * q * y_star
        raise ConvergenceError(
            f"moment quadrature integrand overflowed at q={q}")
    if status == _COLLAPSED:
        raise ConvergenceError(f"moment quadrature collapsed at q={q}")
    raise ConvergenceError(
        f"moment quadrature error {err:.3e} too large at q={q}")


def moment_quadrature(model: tm.TailModel, q):
    """ln E X^q by a double-exponential rule split at the integrand mode;
    q is a float or an array of orders (an array in, an array out)."""
    qv = np.asarray(q, dtype=float)
    return tm._wrap(q, _log_integral(model, qv.ravel()).reshape(qv.shape))


def moment_saddlepoint(model: tm.TailModel, q: float) -> float:
    """Laplace approximation q y* + ln p(y*) + (1/2) ln(2 pi / s'(y*)) of
    ln E X^q, with s' the score's slope; exact for Gaussian Y."""
    ys = y_star(model, q)
    curv = tm.score_prime(model, ys)
    if not curv > 0.0:
        raise DegenerateSaddleError(f"s'(y*) = {curv:.3e} <= 0 at q={q}")
    if model.family is tm.Family.STRICT_LOG_EXP_POWER:
        # rho y*^(rho-1) = q turns q y* - y*^rho into (1 - 1/rho) q y*, which
        # stays finite wherever y* does
        out = (1.0 - 1.0 / model.rho) * q * ys + tm.log_pdf(model, 0.0)
    else:
        out = q * ys
        if math.isfinite(out):  # else |ln p(y*)| is past the doubles as well
            out = out + tm.log_pdf(model, ys)
    out += 0.5 * (math.log(2.0 * math.pi) - math.log(curv))
    if not math.isfinite(out):
        raise DomainError(f"saddle approximation overflows at q={q}")
    return out


def predicted_lnS(model: tm.TailModel, n: float, q: float) -> float:
    """Predicted ensemble behaviour of ln S(n, q) = ln (1/n) sum X_k^q.

    Below qc_exact(n) the sample moment tracks ln E X^q; above it the sum is
    dominated by the maximum and the prediction is the boundary value
    q y_dagger - ln n + ln h'(y_dagger), linear in q.
    """
    if not 0.0 < q < math.inf:
        raise DomainError(f"moment order must be finite and > 0, got {q}")
    curve = critical_curve(model, n)
    log_moment = moment_quadrature(model, q) if q <= curve.qc_exact else math.nan
    return float(_predicted_lnS(model, curve, np.array([q]),
                                np.array([log_moment]))[0])


def _predicted_lnS(model: tm.TailModel, curve: CriticalCurve, q: np.ndarray,
                   log_moment: np.ndarray) -> np.ndarray:
    """predicted_lnS at the curve's n for every order of the grid q, given
    the curve and ln E X^q at each order (read only where q <= qc_exact);
    ln n and ln h'(y_dagger) are taken once per grid."""
    below = q <= curve.qc_exact
    yd = curve.y_dagger
    log_n, log_h = math.log(curve.n), math.log(tm.h_prime(model, yd))
    return np.where(below, log_moment, q * yd - log_n + log_h)


def q_validity_ceiling(model: tm.TailModel, n: float) -> float:
    """Order (ln n)^(2 - 1/rho - 0.1) beyond which the finite-n moment
    asymptotics are no longer guaranteed; reported as a warning threshold."""
    if not 2.0 <= n < math.inf:
        raise ArgumentError(f"n must be a finite real >= 2, got {n}")
    return math.log(n) ** (2.0 - 1.0 / model.rho - 0.1)
