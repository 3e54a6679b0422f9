"""Independent reference values and brute-force implementations for tests.

Everything here is computed by a different route than the package code:
closed forms, high-precision constants frozen from a 50-digit mpmath run,
and small O(n^3) reference algorithms.  Tests compare package output against
these, never against the package itself.
"""

import math

import numpy as np
from scipy import special as sp

EULER_GAMMA = 0.5772156649015328606065121

# h(y) = -ln(erfc(y/sqrt(2))/2) for a standard normal exponent, 50-digit run
H_STD_NORMAL = {
    3.0: 6.607726221510349543,
    8.0: 35.013437159914549896,
    12.0: 75.410673001568795939,
    20.0: 203.917155371097263937,
}

# root of h(y) = ln n for the standard normal exponent
STD_NORMAL_Y_DAGGER = {
    10**2: 2.3263478740408411009,
    10**3: 3.0902323061678135415,
    10**6: 4.7534243088228989482,
    10**12: 7.0344838253011319298,
}
STD_NORMAL_THETA_1000 = 2.2353514540621771650
STD_NORMAL_QC_APPROX_1000 = 3.3670900770639904317

# ln E[e^{qY}] for h(y) = y^2, y >= 0 (closed form, see lw2_log_moment)
LW2_LOG_MOMENT = {1.0: 1.0043874786615188876, 3.0: 3.9238473968333224928}

# symmetric exponential-power exponent, rho = 2 and 4
SLEP2_H_2 = 6.0580884451765828839
SLEP2_H_5 = 27.894036726097379732
SLEP2_CDF_M13 = 0.032996027529673781698
SLEP4_RHO_LOCAL_50 = 3.9999917009852789436

# ln Q(a, x) for the regularized upper incomplete gamma, far tail
LN_UPPER_GAMMA = {
    (0.5, 550.0): -553.72823111603778842,
    (0.5, 700.0): -703.84861812512231741,
    (0.5, 1600.0): -1604.2615566532735557,
    (0.25, 550.0): -556.02182147714843570,
    (0.25, 1600.0): -1606.8218100537105356,
}

OMEGA_WEIGHTS_K2 = (0.42278433509846714, 0.57721566490153286)
CBRT_9 = 2.0800838230519041145


def lw2_log_moment(q):
    """ln of int_0^inf e^{qy} 2y e^{-y^2} dy = 1 + q(sqrt(pi)/2)e^{q^2/4}(1+erf(q/2)).

    Completed-square closed form; valid for any q > 0 (log-domain safe)."""
    ln_a = (math.log(q) + math.log(math.sqrt(math.pi) / 2.0) + q * q / 4.0
            + math.log1p(math.erf(q / 2.0)))
    return np.logaddexp(0.0, ln_a)


def _cdf_sf(model, y):
    """(F_Y(y), 1 - F_Y(y)) in closed form, neither taken from the other:
    logweibull 1 - e^{-y^rho} (y > 0), slep Q(1/rho, |y|^rho)/2 reflected
    at 0, lognormal Phi(y)."""
    y = np.asarray(y, dtype=float)
    family = model.family.value
    if family == "logweibull":
        e = np.power(np.maximum(y, 0.0), model.rho)
        return -np.expm1(-e), np.exp(-e)
    if family == "slep":
        half_q = 0.5 * sp.gammaincc(1.0 / model.rho,
                                    np.power(np.abs(y), model.rho))
        upper = y >= 0.0
        return (np.where(upper, 1.0 - half_q, half_q),
                np.where(upper, half_q, 1.0 - half_q))
    return sp.ndtr(y), sp.ndtr(-y)


def cdf(model, y):
    return _cdf_sf(model, y)[0]


def sf(model, y):
    return _cdf_sf(model, y)[1]


def normal_hazard(y):
    """Hazard rate phi(y) / Phi(-y) of the standard normal, as the density
    over the survival function."""
    y = np.asarray(y, dtype=float)
    return np.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi) / sp.ndtr(-y)


def complex_fft_embedding(amp, seed):
    """Circulant-embedding Gaussian series by its definition: the real part
    of the full-length complex FFT of amp (u + i v), u and v the first and
    second m standard normals of the Philox stream keyed by seed."""
    m = amp.size
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    u = rng.standard_normal(m)
    v = rng.standard_normal(m)
    return np.fft.fft(amp * (u + 1j * v)).real


def seed_sequence_seed(master, cell, rep):
    """Replication seed by numpy's own SeedSequence: the first uint64 word
    of the state keyed by entropy master and spawn key (cell, rep)."""
    ss = np.random.SeedSequence(entropy=int(master),
                                spawn_key=(int(cell), int(rep)))
    return int(ss.generate_state(1, np.uint64)[0])


def philox_uniforms(seed, n):
    """The first n uniforms of a freshly constructed Philox keyed by seed."""
    return np.random.Generator(np.random.Philox(key=int(seed))).random(n)


def harmonic(m):
    return sum(1.0 / i for i in range(1, m + 1))


def zeta2_partial(m):
    return sum(1.0 / (i * i) for i in range(1, m + 1))


def gumbel_order_stats(n_draws, k, rng):
    """(n_draws, k+1) array of the top k+1 Gumbel order statistics.

    Renyi representation: G_i = -ln(S_i) with S_i a unit-exponential
    random walk, so G_1 > G_2 > ... exactly as the limiting top order
    statistics.  One extra column so spacings up to index k are available."""
    e = rng.standard_exponential((n_draws, k + 1))
    return -np.log(np.cumsum(e, axis=1))


def gumbel_mean(i):
    """E G_i = gamma - H_{i-1}."""
    return EULER_GAMMA - harmonic(i - 1)


def gumbel_var(i):
    """Var G_i = pi^2/6 - sum_{j<i} 1/j^2."""
    return math.pi**2 / 6.0 - zeta2_partial(i - 1)


def omega_sq_mean(k):
    """E[Omega_k^2] for the variance-minimizing unit-sum weights.

    Equals Var G_k + (H_{k-1} - gamma)^2/(k-1); the mean of Omega_k is 0."""
    if k == 1:
        return math.pi**2 / 6.0 + EULER_GAMMA**2
    u = harmonic(k - 1) - EULER_GAMMA
    return gumbel_var(k) + u * u / (k - 1)


def brute_distance_matrix(y, beta):
    """Static pairwise separation: max(index gap, beta * #values strictly
    between), counted over the full original array."""
    y = np.asarray(y, dtype=float)
    n = y.size
    lo = np.minimum.outer(y, y)
    hi = np.maximum.outer(y, y)
    between = ((y[None, None, :] > lo[:, :, None])
               & (y[None, None, :] < hi[:, :, None])).sum(axis=-1)
    idx = np.arange(n)
    gap = np.abs(np.subtract.outer(idx, idx))
    return np.maximum(gap, beta * between)


def brute_sieve(y, s, beta, max_points=None):
    """Reference sieve: repeatedly take the largest remaining value (stable
    on ties) and drop everything within separation s of it."""
    y = np.asarray(y, dtype=float)
    n = y.size
    d = brute_distance_matrix(y, beta)
    order = np.argsort(-y, kind="stable")
    removed = np.zeros(n, dtype=bool)
    out = []
    for i in order:
        if removed[i]:
            continue
        out.append(int(i))
        if max_points is not None and len(out) >= max_points:
            break
        for j in range(n):
            if j != i and not removed[j] and d[i, j] <= s:
                removed[j] = True
    return np.asarray(out, dtype=np.intp)


def searchsorted_sieve(y, s, beta, max_points=None):
    """Reference sieve for long series: the same greedy scan, with each
    index's "strictly below" and "at most" counts taken by binary search in
    the sorted series instead of from tie groups of the descending order."""
    y = np.asarray(y, dtype=float)
    n = y.size
    window = int(math.floor(s))
    sorted_vals = np.sort(y)
    n_lt = np.searchsorted(sorted_vals, y, side="left")
    n_le = np.searchsorted(sorted_vals, y, side="right")
    removed = np.zeros(n, dtype=bool)
    out = []
    for i in np.argsort(-y, kind="stable"):
        if removed[i]:
            continue
        out.append(int(i))
        if max_points is not None and len(out) >= max_points:
            break
        js = np.arange(max(0, i - window), min(n, i + window + 1))
        js = js[(js != i) & ~removed[js]]
        between = np.where(y[js] >= y[i], n_lt[js] - n_le[i], n_lt[i] - n_le[js])
        removed[js[beta * np.maximum(between, 0) <= s]] = True
    return np.asarray(out, dtype=np.intp)


def repeated_values(distinct, r):
    """A series of m distinct i.i.d. values with each repeated r times in
    place, n = m r.  Its sample moments are those of the m values exactly,
    so the i.i.d. estimate on them is the answer a correction for
    dependence should give.  Each block's first copy lies at least r from
    every other block's, so a sieve of radius r - 1 picks each value once."""
    return np.repeat(np.asarray(distinct, dtype=float), r)


def r_squared(x, y):
    """Coefficient of determination of the least-squares line through (x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    return 1.0 - np.dot(resid, resid) / np.dot(total, total)
