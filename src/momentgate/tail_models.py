"""Log-exponential-power-law distribution families.

A positive random variable X = exp(Y) belongs to the class handled here when
the tail of Y satisfies 1 - F_Y(y) = exp(-h(y)) with h eventually of the form
L(y) * y**rho for a slowly varying L and rho > 1.  Everything downstream
(critical orders, moment asymptotics, estimators) is expressed through h, its
derivative and the slope of the log-density, so each family exposes:

    h(y)        = -ln(1 - F_Y(y))          (cumulative hazard of Y)
    h_inv(h)    = the y with h(y) = h      (closed form; quantile, sampling,
                                            synthesis and the frontier)
    h'(y)       = p_Y(y) / (1 - F_Y(y))    (hazard rate, > 0)
    s(y)        = -(ln p_Y)'(y)            (score: q_c(n) = s(y_dagger(n)))
    s'(y)       = -(ln p_Y)''(y)           (curvature of the moment saddle)
    score_inv(q) = the y with s(y) = q     (the moment saddle y*(q))
    rho_local   = y h'(y) / h(y)           (-> rho as y -> +inf)

Three concrete families are provided:

* ``logweibull``: F(y) = 1 - exp(-y**rho) on y >= 0, so h(y) = y**rho exactly.
* ``slep`` (strict log-exponential-power): density exp(-|y|**rho) / (2*Gamma(1+1/rho))
  on the whole line; tail functions go through the regularized upper incomplete
  gamma Q(1/rho, |y|**rho).
* ``lognormal``: Y standard normal (rho is fixed at 2).

All functions are vectorized over ``y``/``p`` and pure; models are immutable.
scipy is imported inside the kernels that call it (about 0.2 us a call once
loaded), so reading a sample file and estimating from it load numpy only.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ArgumentError, DataFormatError, DomainError

__all__ = [
    "Family",
    "TailModel",
    "Sample",
    "log_weibull",
    "strict_log_exp_power",
    "log_normal",
    "parse_model",
    "format_model",
    "h",
    "h_prime",
    "score",
    "score_prime",
    "rho_local",
    "h_inv",
    "score_inv",
    "quantile",
    "log_pdf",
    "sample_iid",
    "write_sample",
    "read_sample",
]

# x = |y|**rho beyond which Q(1/rho, x) is evaluated through its asymptotic
# log-series instead of gammaincc (which underflows near x ~ 700).
_LNQ_SWITCH = 600.0

# uniform draws are clamped away from 0 so quantile() stays in its open domain;
# P(u < 2^-55) is ~0 and the clamp never moves a representable nonzero draw.
_U_FLOOR = 2.0 ** -55

_TINY = np.finfo(float).tiny

# values written per block of a sample file
_IO_BLOCK = 2 ** 16

# characters of a sample file read per chunk (then up to the end of a line);
# at 2^18 a 10^6-value read is as fast as at 2^20 and peaks about 3 MB lower
_CHUNK = 2 ** 18

# glibc's strtold reads decimal text into an x87 long double (64-bit
# significand) in about half the time CPython's dtoa takes for a double.
# Every midpoint between two normal doubles is such a long double, so the
# correctly rounded long double lies on the text's side of each midpoint and
# rounds on to float()'s double, unless it is a midpoint itself (low 11 bits
# 0x400) or lies below the smallest normal double, where the midpoints sit at
# other bits (Figueroa 1995).  Those values are read again with float().  Where long
# double is not this format, a chunk is read as doubles, which numpy parses
# with CPython's own dtoa.
_X87 = (np.finfo(np.longdouble).nmant == 63
        and np.dtype(np.longdouble).itemsize == 16)

# characters after which a chunk is read line by line: '#' starts a comment,
# strtold reads hex that float() refuses, and whitespace other than '\n'
# can hide a blank line or a second number
_SLOW_CHARS = "#xX \t\r\v\f"

_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


class Family(str, Enum):
    LOG_WEIBULL = "logweibull"
    STRICT_LOG_EXP_POWER = "slep"
    LOG_NORMAL = "lognormal"


@dataclass(frozen=True)
class TailModel:
    """An immutable distribution family tag plus its tail exponent."""

    family: Family
    rho: float

    def __post_init__(self) -> None:
        if not 1.0 < self.rho < math.inf:
            raise ArgumentError(f"rho must be finite and > 1, got {self.rho}")
        if self.family is Family.LOG_NORMAL and self.rho != 2.0:
            raise ArgumentError("lognormal has rho fixed at 2")

    @property
    def support_lo(self) -> float:
        """Lower end of Y's support: 0 for logweibull, -inf otherwise."""
        return 0.0 if self.family is Family.LOG_WEIBULL else -math.inf


@dataclass(frozen=True)
class Sample:
    """Realizations of Y with their provenance seed."""

    values: np.ndarray
    n: int
    seed: int

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.values) != self.n:
            raise ArgumentError("values length must equal n >= 1")
        if not np.all(np.isfinite(self.values)):
            raise ArgumentError("sample values must be finite")


def log_weibull(rho: float) -> TailModel:
    """F(y) = 1 - exp(-y**rho) on y >= 0."""
    return TailModel(Family.LOG_WEIBULL, float(rho))


def strict_log_exp_power(rho: float) -> TailModel:
    """Symmetric density exp(-|y|**rho) / (2 Gamma(1 + 1/rho)) on the line."""
    return TailModel(Family.STRICT_LOG_EXP_POWER, float(rho))


def log_normal() -> TailModel:
    """Y standard normal (X = e^Y log-normal); rho = 2."""
    return TailModel(Family.LOG_NORMAL, 2.0)


def parse_model(spec: str) -> TailModel:
    """Build a model from a spec ``family[:rho=value]``; rho is 2 if not given."""
    name, _, param = spec.strip().partition(":")
    name = name.strip().lower()
    rho = 2.0
    if param:
        key, eq, val = param.partition("=")
        if not eq:
            raise ArgumentError(f"malformed model parameter {param!r} in {spec!r}")
        if key.strip() != "rho":
            raise ArgumentError(f"unknown model parameters {[key.strip()]} in {spec!r}")
        try:
            rho = float(val)  # a second parameter after a comma is not a number
        except ValueError:
            raise ArgumentError(f"non-numeric value in model spec {spec!r}") from None
    try:
        family = Family(name)
    except ValueError:
        raise ArgumentError(f"unknown model family {name!r}") from None
    return TailModel(family, rho)


def _spec_number(x: float) -> str:
    """x as a spec prints it: ``:g`` where that reads back, else repr."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x)).removesuffix(".0")


def format_model(model: TailModel) -> str:
    if model.family is Family.LOG_NORMAL:
        return "lognormal"
    return f"{model.family.value}:rho={_spec_number(model.rho)}"


# ---------------------------------------------------------------------------
# internal: asymptotic log of the regularized upper incomplete gamma
# ---------------------------------------------------------------------------

def _tail_series_frac(a: float, x: np.ndarray) -> np.ndarray:
    # sum_{k=1..8} prod_{j<=k}(a-j) / x^k; the asymptotic bracket is 1 + this
    u = np.zeros_like(x)
    term = np.ones_like(x)
    for j in range(1, 9):
        term = term * (a - j) / x
        u = u + term
    return u


def _ln_q_asymptotic(a: float, x: np.ndarray) -> np.ndarray:
    # Q(a, x) ~ x^{a-1} e^{-x} / Gamma(a) * (1 + sum_k prod_{j<=k}(a-j)/x^k)
    return (-x + (a - 1.0) * np.log(x) - math.lgamma(a)
            + np.log1p(_tail_series_frac(a, x)))


def _ln_q(a: float, x: np.ndarray) -> np.ndarray:
    """log Q(a, x) for x >= 0, stable far beyond the underflow point of Q."""
    from scipy import special as sp
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < _LNQ_SWITCH
    if small.any():
        out[small] = np.log(sp.gammaincc(a, x[small]))
    if (~small).any():
        out[~small] = _ln_q_asymptotic(a, x[~small])
    return out


def _dispatch(model: TailModel):
    return _IMPLS[model.family]


def _wrap(y, out):
    # scalar in -> scalar out
    if np.ndim(y) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# per-family kernels (take float arrays, return float arrays).  Powers are
# raised with np.power: numpy's scalar ** calls the C library pow, while the
# ufunc's loop makes a float's value equal to its element in an array
# ---------------------------------------------------------------------------

class _LogWeibull:
    @staticmethod
    def h(m, y):
        if np.any(y < 0.0):
            raise DomainError("logweibull h requires y >= 0")
        return np.power(y, m.rho)

    @staticmethod
    def h_prime(m, y):
        if np.any(y <= 0.0):
            raise DomainError("logweibull derivatives require y > 0")
        return m.rho * np.power(y, m.rho - 1.0)

    @staticmethod
    def score(m, y):
        return _LogWeibull.h_prime(m, y) - (m.rho - 1.0) / y

    @staticmethod
    def score_prime(m, y):
        # rho (rho-1) y^(rho-2) + (rho-1)/y^2
        return (m.rho - 1.0) * (_LogWeibull.h_prime(m, y) + 1.0 / y) / y

    @staticmethod
    def h_inv(m, h):
        return np.power(h, 1.0 / m.rho)

    @staticmethod
    def score_inv(m, q):
        # rho y^rho - q y - (rho - 1) = 0 in t = ln(y / lo), lo the zero of the
        # slope: expm1((rho-1) t) - expm1(-t) = c rises from 0 at t = 0 and
        # passes c by log1p(c)/(rho-1), i.e. y = (q/rho + lo^(rho-1))^(1/(rho-1))
        from scipy import optimize
        r1 = m.rho - 1.0
        lo = np.power(r1 / m.rho, 1.0 / m.rho)
        c = q * lo / r1

        def root(ci, hi):
            if ci < 2.0 ** -53:  # c/rho to rounding; brentq fails below ~1e-156
                return ci / m.rho

            def g(t):
                return np.expm1(r1 * t) - np.expm1(-t) - ci
            if not g(hi) > 0.0:  # c swamps the margin 1 - e^-hi, or hi = inf
                return hi
            # 4 eps is the smallest relative tolerance brentq accepts
            return optimize.brentq(g, 0.0, hi, xtol=1e-300,
                                   rtol=4.0 * np.finfo(float).eps)

        t = np.vectorize(root, otypes=[float])(c, np.log1p(c) / r1)
        return lo * np.exp(t)

    @staticmethod
    def log_pdf(m, y):
        if np.any(y <= 0.0):
            raise DomainError("logweibull density is supported on y > 0")
        return math.log(m.rho) + (m.rho - 1.0) * np.log(y) - np.power(y, m.rho)


class _Slep:
    # F(y >= 0) = 1 - Q(1/rho, y^rho)/2 ; F(y < 0) = Q(1/rho, |y|^rho)/2.
    # Where x = |y|^rho is below the normal doubles (|y| < 0.49 at rho = 1e3),
    # P(1/rho, x) = |y| / Gamma(1 + 1/rho) to double precision, so
    # h = ln 2 - log1p(-y / Gamma(1 + 1/rho)) on both sides of 0

    @staticmethod
    def h(m, y):
        from scipy import special as sp
        a = 1.0 / m.rho
        x = np.power(np.abs(y), m.rho)
        out = np.empty_like(y)
        pos = y >= 0.0
        if pos.any():
            out[pos] = math.log(2.0) - _ln_q(a, x[pos])
        if (~pos).any():
            out[~pos] = -np.log1p(-0.5 * sp.gammaincc(a, x[~pos]))
        tiny = x < _TINY
        if tiny.any():
            out[tiny] = math.log(2.0) - np.log1p(-y[tiny] / math.gamma(1.0 + a))
        return out

    @staticmethod
    def h_prime(m, y):
        # h' = p/(1-F) = exp(ln p + h), evaluated in log space so the huge h
        # and the huge -|y|^rho cancel before exponentiation; past the series
        # switch the direct form s(y)/(1+U) sidesteps the O(x eps)
        # rounding that the log-space subtraction leaves behind
        ln_norm = math.log(2.0) + math.lgamma(1.0 + 1.0 / m.rho)
        x = np.power(np.abs(y), m.rho)
        with np.errstate(invalid="ignore"):  # inf - inf where x overflows, far
            out = np.exp(_Slep.h(m, y) - x - ln_norm)
        far = (y > 0.0) & (x >= _LNQ_SWITCH)
        if np.any(far):
            u = _tail_series_frac(1.0 / m.rho, np.maximum(x, _LNQ_SWITCH))
            direct = _Slep.score(m, np.maximum(y, 1.0)) / (1.0 + u)
            out = np.where(far, direct, out)
        return out

    @staticmethod
    def score(m, y):
        return m.rho * np.sign(y) * np.power(np.abs(y), m.rho - 1.0)

    @staticmethod
    def score_prime(m, y):
        return m.rho * (m.rho - 1.0) * np.power(np.abs(y), m.rho - 2.0)

    @staticmethod
    def h_inv(m, h):
        if m.rho == 2.0:  # Y ~ N(0, 1/2)
            y = _LogNormal.h_inv(m, h)
            y /= _SQRT2
            return y
        # Q(1/rho, |y|^rho) = 2 e^{-h} on y >= 0 (h >= ln 2), 2 (1 - e^{-h}) below
        from scipy import special as sp
        a = 1.0 / m.rho
        upper = h >= math.log(2.0)
        q = np.where(upper, 2.0 * np.exp(-h), -2.0 * np.expm1(-h))
        x = sp.gammainccinv(a, q)
        mag = np.power(x, a)
        tiny = x < _TINY  # |y| = Gamma(1 + a) |expm1(ln 2 - h)|, as in h
        if tiny.any():
            mag = np.where(tiny, math.gamma(1.0 + a)
                           * np.abs(np.expm1(math.log(2.0) - h)), mag)
        return np.where(upper, mag, -mag)

    @staticmethod
    def score_inv(m, q):
        return np.power(q / m.rho, 1.0 / (m.rho - 1.0))

    @staticmethod
    def log_pdf(m, y):
        return (-np.power(np.abs(y), m.rho) - math.log(2.0)
                - math.lgamma(1.0 + 1.0 / m.rho))


class _LogNormal:
    @staticmethod
    def h(m, y):
        from scipy import special as sp
        return -sp.log_ndtr(-y)

    @staticmethod
    def h_prime(m, y):
        # phi(y) / Phi(-y) at every y; 0 below y ~ -37.7, where erfcx overflows
        from scipy import special as sp
        return _SQRT_2_OVER_PI / sp.erfcx(y / _SQRT2)

    @staticmethod
    def score(m, y):
        return y.copy()

    @staticmethod
    def score_prime(m, y):
        return np.ones_like(y)

    @staticmethod
    def h_inv(m, h):
        # formed in one new array; 0.0 - x turns ndtri_exp's -0.0 at h = ln 2
        # into +0.0
        from scipy import special as sp
        y = np.negative(h, out=np.empty_like(h))
        sp.ndtri_exp(y, out=y)
        return np.subtract(0.0, y, out=y)

    @staticmethod
    def score_inv(m, q):
        return q.copy()

    @staticmethod
    def log_pdf(m, y):
        return -0.5 * y * y - 0.5 * math.log(2.0 * math.pi)


_IMPLS = {
    Family.LOG_WEIBULL: _LogWeibull,
    Family.STRICT_LOG_EXP_POWER: _Slep,
    Family.LOG_NORMAL: _LogNormal,
}


# ---------------------------------------------------------------------------
# public tail functionals
# ---------------------------------------------------------------------------

def _kernel(model: TailModel, name: str, yv: np.ndarray) -> np.ndarray:
    """The family's kernel ``name`` on the float array yv.  Near the ends of
    the doubles its powers overflow to the right +-inf or 0 (h and h' at
    slep rho = 1e3, |y| = 8), and s' has a pole at slep's y = 0 for rho < 2;
    those warnings stay here."""
    with np.errstate(over="ignore", divide="ignore"):
        return getattr(_dispatch(model), name)(model, yv)


def h(model: TailModel, y):
    """Cumulative hazard -ln(1 - F_Y(y)); strictly increasing on the support."""
    return _wrap(y, _kernel(model, "h", np.asarray(y, dtype=float)))


def h_prime(model: TailModel, y):
    """Hazard rate h'(y) > 0."""
    return _wrap(y, _kernel(model, "h_prime", np.asarray(y, dtype=float)))


def score(model: TailModel, y):
    """Score s(y) = -(d/dy) ln p_Y(y), increasing; score_inv inverts it."""
    return _wrap(y, _kernel(model, "score", np.asarray(y, dtype=float)))


def score_prime(model: TailModel, y):
    """Curvature s'(y) = -(d/dy)^2 ln p_Y(y) > 0 (inf at slep's y = 0 when
    rho < 2)."""
    return _wrap(y, _kernel(model, "score_prime", np.asarray(y, dtype=float)))


def rho_local(model: TailModel, y):
    """Local power exponent y h'(y) / h(y); constant == rho for logweibull.
    Where y > 0 and the quotient is not finite (h or y h' overflows, so
    h >> 1 and the quotient is rho to far within an ulp), it is rho."""
    yv = np.asarray(y, dtype=float)
    hv = _kernel(model, "h", yv)
    if np.any(hv <= 0.0):
        raise DomainError("rho_local requires h(y) > 0")
    if model.family is Family.LOG_WEIBULL:
        out = np.full_like(yv, model.rho)  # y h'/h == rho identically
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            out = yv * _kernel(model, "h_prime", yv) / hv
        out = np.where((yv > 0.0) & ~np.isfinite(out), model.rho, out)
    return _wrap(y, out)


def h_inv(model: TailModel, h):
    """Inverse cumulative hazard: the y with h(y) = h, in closed form, h >= 0."""
    hv = np.asarray(h, dtype=float)
    if not np.all(hv >= 0.0):
        raise DomainError("h_inv requires h >= 0")
    return _wrap(h, _dispatch(model).h_inv(model, hv))


def score_inv(model: TailModel, q):
    """The y with score(y) = q for q > 0: the saddle y*(q) of the
    moment integral.  lognormal q, slep (q/rho)^(1/(rho-1)), logweibull the
    positive root of rho y^rho - q y - (rho - 1).  DomainError where y* leaves
    the normal doubles."""
    qv = np.asarray(q, dtype=float)
    if not np.all(qv > 0.0):
        raise DomainError(f"the order q must be > 0, got {q}")
    with np.errstate(over="ignore", under="ignore"):
        y = _dispatch(model).score_inv(model, qv)
    bad = ~(np.isfinite(y) & (y >= _TINY))
    if np.any(bad):
        raise DomainError(f"y* at q={qv[bad].flat[0]:.17g} is outside the normal "
                          f"doubles for {format_model(model)}")
    return _wrap(q, y)


def quantile(model: TailModel, p):
    """Inverse CDF on 0 < p < 1: h_inv(-ln(1 - p))."""
    pv = np.asarray(p, dtype=float)
    if np.any(pv <= 0.0) or np.any(pv >= 1.0):
        raise DomainError("quantile requires 0 < p < 1")
    return _wrap(p, _dispatch(model).h_inv(model, -np.log1p(-pv)))


def log_pdf(model: TailModel, y):
    """ln p_Y(y); p_Y = h' e^{-h}."""
    return _wrap(y, _kernel(model, "log_pdf", np.asarray(y, dtype=float)))


def sample_iid(model: TailModel, n: int, seed: int) -> Sample:
    """Inverse-CDF sampling on a counter-based (Philox) uniform stream.

    Deterministic given ``seed``; value i is quantile(u_i) for the i-th
    uniform of the stream, so runs are reproducible across platforms and
    independent streams can be keyed per replication.
    """
    n = _check_size(n, "n", 1)
    seed = _check_seed(seed)
    return Sample(values=_iid_rows(model, n, (seed,))[0], n=n, seed=seed)


def _as_int(value, name: str) -> int:
    """value as an int; an ArgumentError unless it is an integer, which
    int() would instead truncate."""
    try:
        return operator.index(value)
    except TypeError:
        raise ArgumentError(f"{name} must be an integer, got {value!r}") from None


def _check_size(value, name: str, low: int) -> int:
    """value as an int in [low, 2^57], else an ArgumentError naming it.  No
    array holds more: synth_series embeds n values in m < 4n points, and its
    (2, m) block of doubles reaches numpy's 2^63-byte limit just past 2^57."""
    value = _as_int(value, name)
    if value < low:
        raise ArgumentError(f"{name} must be >= {low}")
    if value > 2 ** 57:
        raise ArgumentError(f"{name} must be at most 2^57, got {value}")
    return value


def _check_seed(seed) -> int:
    """seed as an int, which must be an integer that fits a Philox key:
    0 <= seed < 2^128."""
    seed = _as_int(seed, "seed")
    if not 0 <= seed < 2 ** 128:
        raise ArgumentError(f"seed {seed} is outside [0, 2^128)")
    return seed


def _iid_rows(model: TailModel, n: int, seeds,
              top: int | None = None) -> np.ndarray:
    """(len(seeds), n) draws whose row i is sample_iid(model, n, seeds[i])'s
    values, mapped through the quantile once per block.

    With 0 < top < n, row i holds only the top largest of those values, in no
    particular order, and the block is (len(seeds), top): the quantile is
    non-decreasing, so they are the images of the row's top largest uniforms,
    and only those are mapped.  With top=None, or top outside (0, n), every
    value is mapped and rows keep their stream order.

    Row i is the stream of Philox(key=seeds[i]).  One Philox serves the
    call: each row re-keys it through its state (counter 0, key
    [seed mod 2^64, seed >> 64], empty buffer), which is the state that
    constructor sets.  The generator is local, so blocks may run on
    concurrent threads.
    """
    key = [0, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    gen = np.random.Generator(np.random.Philox(0))  # 0: no OS entropy read
    u = np.empty((len(seeds), n))
    for row, seed in zip(u, seeds):
        key[1], key[0] = divmod(int(seed), 2 ** 64)
        gen.bit_generator.state = state
        gen.random(out=row)
    if top is not None and 0 < top < n:
        u.partition(n - top, axis=-1)
        u = u[:, n - top:].copy()
    np.maximum(u, _U_FLOOR, out=u)
    # quantile(model, u) = h_inv(-log1p(-u)), with the hazards formed in u so
    # that a block holds one more array of its size, h_inv's
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return h_inv(model, np.negative(u, out=u))


# ---------------------------------------------------------------------------
# sample file format: '# seed=..., model=...' header + one value per line
# ---------------------------------------------------------------------------

def write_sample(stream, sample: Sample, model: TailModel | None = None,
                 extra_header: dict | None = None) -> None:
    fields = [f"seed={sample.seed}"]
    fields.append(f"model={format_model(model) if model is not None else 'unknown'}")
    for key, val in (extra_header or {}).items():
        fields.append(f"{key}={val}")
    stream.write("# " + ", ".join(fields) + "\n")
    # one write per block; '%.17g' % v is f"{v:.17g}" for every float v
    for lo in range(0, len(sample.values), _IO_BLOCK):
        block = sample.values[lo:lo + _IO_BLOCK].tolist()
        stream.write(("%.17g\n" * len(block)) % tuple(block))


def _read_lines(lines: list, first: int) -> np.ndarray:
    """Values read line by line from file line ``first``: blank and '#'
    lines skipped, a bad line a DataFormatError."""
    values = []
    for lineno, line in enumerate(lines, start=first):
        text = line.strip()
        if not text or text[0] == "#":
            continue
        try:
            value = float(text)
        except ValueError:
            raise DataFormatError(f"line {lineno}: not a number: {text!r}") from None
        if not math.isfinite(value):
            raise DataFormatError(f"line {lineno}: not a finite number: {text!r}")
        values.append(value)
    return np.array(values, dtype=float)


def _read_chunk(text: str, lines: int) -> np.ndarray | None:
    """The values of ``lines`` lines of plain numbers, bit for bit what
    float() gives, or None if the chunk must be read line by line."""
    # numpy reads a run of '\n' as one separator, so a blank line leaves one
    # value fewer than lines, except where the chunk is a lone '\n' (one 0)
    if (not text.isascii() or text[0] == "\n"
            or any(c in text for c in _SLOW_CHARS)):
        return None
    try:
        with warnings.catch_warnings():
            # older numpy versions warn, not raise, on text they cannot read
            warnings.simplefilter("error", DeprecationWarning)
            raw = np.fromstring(text, np.longdouble if _X87 else float,
                                sep="\n")
    except (ValueError, DeprecationWarning):
        return None
    if len(raw) != lines:
        return None
    with np.errstate(over="ignore"):
        values = raw.astype(float)
    if not np.isfinite(values).all():
        return None
    if _X87:
        significand = raw.view(np.uint64)[::2]
        redo = (significand & 0x7FF) == 0x400
        # below the smallest normal double: |raw| < tiny rounds to
        # |value| <= tiny, so these indices hold every such value; what the
        # cast left unchanged (a zero, a subnormal) was not rounded twice
        tiny = np.flatnonzero(np.abs(values) <= _TINY)
        redo[tiny] |= values[tiny] != raw[tiny]
        if redo.any():
            split = text.split("\n")
            for i in np.flatnonzero(redo):
                values[i] = float(split[i])
    return values


def read_sample(stream) -> np.ndarray:
    """Parse a sample file from a text stream; returns its values.

    Lines starting with '#', anywhere, are comments and are skipped, as
    blank lines are.  The file is read in chunks of about 2^18 characters
    of whole lines, so memory stays bounded by the values themselves.
    Raises DataFormatError on text that does not decode and on any
    non-numeric or non-finite data line, naming it.
    """
    # one buffer grown in place: per-chunk arrays joined at the end left
    # their freed space in the heap, several MB of peak RSS at 10^6 values
    values = np.empty(0)
    n = 0
    try:
        # skip the '#' and blank lines that head the file, so that the first
        # chunk starts at a number; first is the chunk's file line number
        first = 1
        while (line := stream.readline()) and line.strip()[:1] in ("", "#"):
            first += 1
        text = line + stream.read(_CHUNK)
        while text:
            if text[-1] != "\n":
                text += stream.readline()
            # '\n' is byte 10 in UTF-8 and in no longer sequence; one numpy
            # pass over the bytes is several times faster than str.count
            newlines = int(np.count_nonzero(np.frombuffer(
                text.encode("utf-8", "surrogatepass"), np.uint8) == 10))
            chunk = _read_chunk(text, newlines + (text[-1] != "\n"))
            if chunk is None:
                chunk = _read_lines(text.split("\n"), first)
            if n + len(chunk) > len(values):
                values.resize(max(2 * len(values), n + len(chunk)), refcheck=False)
            values[n:n + len(chunk)] = chunk
            n += len(chunk)
            first += newlines
            text = stream.read(_CHUNK)
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"sample file is not {exc.encoding} text: {exc.reason} "
            f"{exc.object[exc.start:exc.end]!r}") from None
    if not n:
        raise DataFormatError("no data values in sample file")
    values.resize(n, refcheck=False)
    return values
