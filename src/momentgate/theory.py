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

import math
from dataclasses import dataclass

from . import tail_models as tm
from .errors import ArgumentError, ConvergenceError, DegenerateSaddleError, DomainError

__all__ = [
    "CriticalCurve",
    "y_dagger",
    "y_star",
    "critical_curve",
    "moment_quadrature",
    "moment_saddlepoint",
    "truncated_moment",
    "predicted_lnS",
    "q_validity_ceiling",
]

# lower integration edge substituted for an unbounded support: exp(q y) makes
# the left tail's contribution below -40 smaller than 1e-17 of any moment
_UNBOUNDED_LO = -40.0

_QUAD_EPSREL = 1e-10
_QUAD_EPSABS = 1e-12
_MOMENT_RELTOL = 1e-8


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


def _log_integral(model: tm.TailModel, q: float, lo: float, hi: float) -> float:
    """log of int_lo^hi e^{q y} p(y) dy, split at and rescaled by the peak: the
    mode y*(q) capped at hi, or 0 where y* underflows (slep with rho near 1
    at small q)."""
    from scipy import integrate
    try:
        peak = min(y_star(model, q), hi)
    except DomainError:
        if not 0.0 < q < tm.score(model, 1.0):  # q <= 0, or y* overflowed
            raise
        peak = 0.0
    k_shift = q * peak + tm.log_pdf(model, peak)

    def f(y: float) -> float:
        if y <= model.support_lo:
            return 0.0
        return math.exp(q * y + tm.log_pdf(model, y) - k_shift)

    total = 0.0
    err = 0.0
    for a, b in ((lo, peak), (peak, hi)):
        if a == b:
            continue
        try:
            res = integrate.quad(f, a, b, epsabs=_QUAD_EPSABS,
                                 epsrel=_QUAD_EPSREL, limit=200, full_output=1)
        except OverflowError:
            # the exponent's rounding grows like eps * q * y_star
            raise ConvergenceError(
                f"moment quadrature integrand overflowed at q={q}") from None
        total += res[0]
        err += res[1]
    if not math.isfinite(total) or total <= 0.0:
        raise ConvergenceError(f"moment quadrature collapsed at q={q}")
    if err > _MOMENT_RELTOL * total:
        raise ConvergenceError(
            f"moment quadrature error {err:.3e} too large at q={q}"
        )
    return k_shift + math.log(total)


def moment_quadrature(model: tm.TailModel, q: float) -> float:
    """ln E X^q by adaptive quadrature split at the integrand mode."""
    return _log_integral(model, q, model.support_lo, math.inf)


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


def truncated_moment(model: tm.TailModel, n: float, q: float) -> float:
    """Moment integral cut at the accessible frontier y_dagger(n)."""
    lo = model.support_lo if model.support_lo > -math.inf else _UNBOUNDED_LO
    return _log_integral(model, q, lo, y_dagger(model, n))


def predicted_lnS(model: tm.TailModel, n: float, q: float) -> float:
    """Predicted ensemble behaviour of ln S(n, q) = ln (1/n) sum X_k^q.

    Below qc_exact(n) the sample moment tracks ln E X^q; above it the sum is
    dominated by the maximum and the prediction is the boundary value
    q y_dagger - ln n + ln h'(y_dagger), linear in q.
    """
    if not q > 0.0:
        raise DomainError(f"moment order must be > 0, got {q}")
    return _predicted_lnS(model, critical_curve(model, n), q)


def _predicted_lnS(model: tm.TailModel, curve: CriticalCurve, q: float,
                   log_moment: float | None = None) -> float:
    """predicted_lnS at the curve's n, given the curve and, if the caller has
    it already, ln E X^q; the quadrature runs only when needed and missing."""
    if q <= curve.qc_exact:
        if log_moment is None:
            log_moment = moment_quadrature(model, q)
        return log_moment
    yd = curve.y_dagger
    return q * yd - math.log(curve.n) + math.log(tm.h_prime(model, yd))


def q_validity_ceiling(model: tm.TailModel, n: float, eps: float = 0.1) -> float:
    """Order (ln n)^(2 - 1/rho - eps) beyond which the finite-n moment
    asymptotics are no longer guaranteed; reported as a warning threshold."""
    if not n >= 2.0:
        raise ArgumentError(f"n must be >= 2, got {n}")
    return math.log(n) ** (2.0 - 1.0 / model.rho - eps)
