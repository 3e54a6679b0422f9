"""Replication harness for estimator bias / variance / MSE studies.

Every replication draws its own counter-based seed from (master seed,
cell id, replication id), so reports are bitwise reproducible, replications
can run in any order on any number of threads, and growing ``reps`` extends
a run without disturbing earlier replications.  NumPy's ``SeedSequence``
hashes a cell's (seed, cell id) prefix once, and one array pass mixes in
the replication ids, which are 32-bit: a cell runs at most 2^32
replications.  Seeds and ids are non-negative integers.  Failed
replications (a sample that is not finite, or a draw or estimator raising
a NumericalError) count as NaN in a ``failures`` column, excluded from
moment aggregates but never dropped; any other error propagates.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import dependence as dep
from . import estimators as est
from . import tail_models as tm
from . import theory
from .errors import ArgumentError, NumericalError

__all__ = [
    "CorrelatedConfig",
    "ExperimentConfig",
    "McReport",
    "run_iid",
    "run_corr",
    "lnS_curve",
    "rep_seed",
]

_COLUMNS = (
    "cell_id", "model", "n", "tau", "tau_assumed", "s", "beta", "match",
    "corrected", "estimator", "k_theta", "k_rho", "reps", "reps_used",
    "failures", "target", "mean", "bias", "relative_bias", "variance",
    "mse", "relative_mse", "se_mean", "cov_theta_rho",
)

_LNS_COLUMNS = (
    "n", "q", "q_over_qc", "mean_lnS", "se_lnS", "predicted_lnS",
    "log_moment",
)

# most values held at once: by the runner's blocks of replications, and by
# _lnS_rows's chunks of terms q*y over (row, order) pairs; one row of either
# once n >= 2^16
_LSE_BLOCK = 2 ** 16
# fewest values a block is cut down to so that another worker can take it
_SPLIT_MIN = 2 ** 14


@dataclass(frozen=True)
class CorrelatedConfig:
    """Grid block for correlated-series experiments."""

    covs: tuple
    kappa: float = dep._KAPPA
    alpha: float = dep._ALPHA
    beta: float = dep._BETA
    match_mode: dep.MatchMode = dep.MatchMode.GAUSSIAN_LEVEL
    assumed_taus: tuple | None = None  # tau-misspecification sweep
    s_values: tuple | None = None      # explicit sieve radii sweep

    def __post_init__(self) -> None:
        if len(self.covs) == 0:
            raise ArgumentError("correlated config needs at least one covariance")
        for grid in (self.assumed_taus, self.s_values):
            if grid is not None and len(grid) == 0:
                raise ArgumentError("assumed tau and s grids must be nonempty")


@dataclass(frozen=True)
class ExperimentConfig:
    models: tuple
    n_grid: tuple
    k_theta_grid: tuple = (None,)
    k_rho_grid: tuple = (None,)
    reps: int = 500
    seed: int = 0
    correlated: CorrelatedConfig | None = None

    def __post_init__(self) -> None:
        if tm._as_int(self.reps, "reps") < 2:
            raise ArgumentError("reps must be >= 2")
        if not self.models or not self.n_grid:
            raise ArgumentError("model and n grids must be nonempty")
        if not self.k_theta_grid or not self.k_rho_grid:
            raise ArgumentError("k grids must be nonempty")
        for n in self.n_grid:
            tm._as_int(n, "n")
        for name in ("k_theta", "k_rho"):
            for k in getattr(self, name + "_grid"):
                if k is not None:
                    tm._as_int(k, name)


@dataclass
class McReport:
    """Aggregated per-cell statistics and the run's metadata."""

    columns: tuple
    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def to_csv(self, stream) -> None:
        for key in sorted(self.meta):
            stream.write(f"# {key}={self.meta[key]}\n")
        _write_rows(stream, self.columns, self.rows)

    def to_json(self, stream) -> None:
        json.dump({"meta": self.meta, "columns": list(self.columns),
                   "rows": self.rows}, stream, indent=1, sort_keys=True,
                  allow_nan=True)
        stream.write("\n")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def _write_rows(stream, columns, rows) -> None:
    """CSV header line, then one line per row dict in column order."""
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(row.get(c)) for c in columns) + "\n")


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx): the hash
# constants and multipliers of its entropy mixing (A) and generate_state (B)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value: np.ndarray, const: int, mult: int) -> tuple:
    """(hashed uint32 array, next hash constant); the array wraps silently."""
    nxt = const * mult & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _check_ids(*ids) -> tuple:
    """The seed, cell id and any replication id as non-negative ints."""
    try:
        ints = tuple(map(operator.index, ids))
        ok = min(ints) >= 0
    except TypeError:
        ok = False
    if not ok:
        got = ", ".join(f"{name} {i!r}" for name, i in
                        zip(("seed", "cell", "replication"), ids))
        raise ArgumentError("seed, cell and replication ids must be "
                            f"non-negative integers, got {got}")
    return ints


def rep_seed(master: int, cell_id: int, rep_id: int) -> int:
    """Counter-based per-replication seed; independent of execution order:
    ``SeedSequence(master, spawn_key=(cell_id, rep_id)).generate_state(1,
    np.uint64)[0]``."""
    master, cell_id, rep_id = _check_ids(master, cell_id, rep_id)
    ss = np.random.SeedSequence(master, spawn_key=(cell_id, rep_id))
    return int(ss.generate_state(1, np.uint64)[0])


def _rep_seeds(master: int, cell_id: int, ids: np.ndarray) -> np.ndarray:
    """uint64 array of rep_seed(master, cell_id, r) for r in the uint32
    array ids.

    numpy hashes the (master, cell_id) prefix: its W = max(words(master), 4)
    + words(cell_id) words take 16 + 4 (W - 4) = 4 W hashmix calls.  The
    replication word is mixed into the two pool words generate_state reads.
    """
    master, cell_id = _check_ids(master, cell_id)
    words = max(master.bit_length() + 31 >> 5, 4)
    words += max(cell_id.bit_length() + 31 >> 5, 1)
    const = _INIT_A * pow(_MULT_A, 4 * words, 1 << 32) & _MASK32
    pool = np.random.SeedSequence(master, spawn_key=(cell_id,)).pool
    out, const_b = [], _INIT_B
    for old in pool[:2].tolist():
        h, const = _hashmix(ids, const, _MULT_A)
        r = ((old * _MIX_L & _MASK32) - (h * _MIX_R & _MASK32)) & _MASK32
        h, const_b = _hashmix(r ^ r >> 16, const_b, _MULT_B)
        out.append(h.astype(np.uint64))
    return out[0] | out[1] << np.uint64(32)


def _pool_size() -> int:
    """Worker count: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _replicate(reps: int, seed: int, cell_id: int, n: int, width: int,
               draw, measure, *, gil_bound: bool = False) -> np.ndarray:
    """(reps, width) array of every replication of a cell of size n.

    Replications run in blocks of at most _LSE_BLOCK // n rows, so a block of
    samples holds at most 2^16 values (one row once n >= 2^16).  A block is
    cut further, to ceil(reps / _pool_size()) rows so that the blocks spread
    over every worker of the pool, only while it keeps at least 2^14 values
    (_SPLIT_MIN // n rows): a smaller block does not pay for a thread and
    the GIL it shares.  A study that makes one block runs on the calling
    thread, and so does a gil_bound study (run_iid's) while a row holds
    fewer than _SPLIT_MIN values: its kernels release the GIL only for one
    Philox fill of each row's n uniforms and one partition of the block, so
    a second thread mostly waits for the GIL, costing CPU and saving no
    time.  Rows are independent and blocks are joined in order, so the
    results do not depend on the split.  The seeds rep_seed(seed, cell_id,
    r) of consecutive uint32 ids r are computed up front in one pass, so
    reps above 2^32 is an ArgumentError.  draw(seeds) returns a block's
    samples, one row each (a row may hold only the values that measure
    reads), and measure(samples) their (rows, width) results.
    Failures are handled here alone: a sample row that is not finite is
    zeroed before measure and NaN after it; a draw or measure raising
    NumericalError leaves its block NaN; other errors propagate.  draw and
    measure are called before this returns, so they may close over a
    caller's loop variables.
    """
    if reps > 2 ** 32:
        raise ArgumentError(f"reps must be at most 2^32, got {reps}")
    workers = _pool_size()
    size = max(1, min(_LSE_BLOCK // n,
                      max(-(-reps // workers), _SPLIT_MIN // n)))
    count = -(-reps // size)
    workers = 1 if gil_bound and n < _SPLIT_MIN else min(workers, count)
    all_seeds = _rep_seeds(seed, cell_id,
                           np.arange(reps, dtype=np.uint32)).tolist()

    def worker(b):
        seeds = all_seeds[b * size:(b + 1) * size]
        try:
            y = draw(seeds)
            ok = np.isfinite(y).all(axis=1)
            y[~ok] = 0.0  # measured, then discarded
            out = measure(y)
        except NumericalError:
            return np.full((len(seeds), width), math.nan)
        out[~ok] = math.nan
        return out

    # results indexed by block, so the join order never depends on scheduling
    if workers <= 1:
        return np.concatenate([worker(b) for b in range(count)])
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(worker, range(count))))


def _aggregate(values: np.ndarray, target: float) -> dict:
    ok = np.isfinite(values)
    kept = values[ok]
    used = int(ok.sum())
    if used == 0:
        return {"reps_used": 0, "failures": len(values), "target": target,
                "mean": math.nan, "bias": math.nan, "relative_bias": math.nan,
                "variance": math.nan, "mse": math.nan, "relative_mse": math.nan,
                "se_mean": math.nan}
    mean = float(kept.mean())
    bias = mean - target
    variance = float(kept.var())  # ddof=0 so mse == bias^2 + variance
    mse = float(np.mean((kept - target) ** 2))
    se = float(kept.std(ddof=1) / math.sqrt(used)) if used > 1 else math.nan
    return {
        "reps_used": used,
        "failures": int(len(values) - used),
        "target": target,
        "mean": mean,
        "bias": bias,
        "relative_bias": bias / target,
        "variance": variance,
        "mse": mse,
        "relative_mse": mse / target ** 2,
        "se_mean": se,
    }


def _cov_pairs(a: np.ndarray, b: np.ndarray) -> float:
    ok = np.isfinite(a) & np.isfinite(b)
    if int(ok.sum()) < 2:
        return math.nan
    return float(np.cov(a[ok], b[ok], ddof=0)[0, 1])


def _emit_cell(report: McReport, cell: dict, block: np.ndarray,
               curve: theory.CriticalCurve) -> None:
    """Aggregate rows for theta, rho, qc from the first three columns of a
    cell's replication block, against curve.theta/rho_l_at_dagger/qc_approx."""
    cov_tr = _cov_pairs(block[:, 0], block[:, 1])
    targets = (curve.theta, curve.rho_l_at_dagger, curve.qc_approx)
    for name, vals, target in zip(("theta", "rho", "qc"), block[:, :3].T, targets):
        row = dict(cell)
        row["estimator"] = name
        row.update(_aggregate(vals, target))
        row["cov_theta_rho"] = cov_tr
        report.rows.append(row)


def run_iid(config: ExperimentConfig) -> McReport:
    """Bias/variance/MSE of theta_hat, rho_hat, qc_hat on i.i.d. samples.

    Targets per cell: theta(n), rho_l(y_dagger(n)), qc_approx(n)."""
    if config.correlated is not None:
        raise ArgumentError("run_iid takes no correlated config block")
    report = McReport(columns=_COLUMNS,
                      meta={"kind": "iid", "seed": config.seed,
                            "reps": config.reps})
    grid = itertools.product(config.models, config.n_grid,
                             config.k_theta_grid, config.k_rho_grid)
    cells = []
    for cell_id, (model, n, k_t, k_r) in enumerate(grid):
        kt, kr = est._windows(n, k_t, k_r)
        curve = theory.critical_curve(model, n)
        est._qc_rows(np.empty((0, n)), n, kt, kr)  # its checks, on no data
        # the estimators read only each sample's max(kt, kr) largest values
        replicate = partial(_replicate, config.reps, config.seed, cell_id, n, 3,
                            partial(tm._iid_rows, model, n, top=max(kt, kr)),
                            partial(est._qc_rows, n=n, k_theta=kt, k_rho=kr),
                            gil_bound=True)
        cell = {"cell_id": cell_id, "model": tm.format_model(model), "n": n,
                "k_theta": kt, "k_rho": kr, "reps": config.reps,
                "corrected": False}
        cells.append((cell, curve, replicate))
    # every cell is decided, and so checked, before the first draw
    for cell, curve, replicate in cells:
        _emit_cell(report, cell, replicate(), curve)
    return report


def run_corr(config: ExperimentConfig) -> McReport:
    """Correlated-series study: uncorrected vs sieve-corrected estimators.

    Targets come from the true correlation length: q_c at n* = n/(1+kappa tau),
    theta(n*) and rho_l at the n* frontier.  An ``assumed_taus`` grid feeds the
    corrected estimator a misspecified tau while targets stay at the truth.
    The corrected windows and radius are the cell's (dependence._correction),
    from the assumed tau; the sieve's picks are estimated at size n*.
    """
    if config.correlated is None:
        raise ArgumentError("run_corr requires the correlated config block")
    cc = config.correlated
    report = McReport(columns=_COLUMNS,
                      meta={"kind": "corr", "seed": config.seed,
                            "reps": config.reps, "kappa": cc.kappa,
                            "alpha": cc.alpha, "beta": cc.beta,
                            "match": cc.match_mode.value})
    assumed_grid = cc.assumed_taus if cc.assumed_taus is not None else (None,)
    s_grid = cc.s_values if cc.s_values is not None else (None,)
    grid = itertools.product(config.models, config.n_grid, cc.covs,
                             assumed_grid, s_grid,
                             config.k_theta_grid, config.k_rho_grid)

    def cell(cell_id, model, n, cov, tau_assumed, s_val, k_t, k_r):
        tau_true = dep.correlation_length(cov)
        tau_used = tau_true if tau_assumed is None else float(tau_assumed)
        curve = theory.critical_curve(model, dep._sizes(n, tau_true, cc.kappa)[1])
        kt_u, kr_u = est._windows(n, k_t, k_r)
        ns, kt_c, kr_c, radius = dep._correction(n, tau_used, cc.kappa, k_t,
                                                 k_r, s_val, cc.alpha)
        # the estimators' own checks, on no data
        est._qc_rows(np.empty((0, n)), n, kt_u, kr_u)
        dep._check_sieve(radius, cc.beta)
        est._qc_rows(np.empty((0, n)), ns, kt_c, kr_c)

        def draw(seeds):
            return np.stack([dep.synth_series(model, cov, n, s, cc.match_mode).values
                             for s in seeds])

        def measure(y):
            top, _ = dep._sieved_top(y, radius, cc.beta, max(kt_c, kr_c))
            return np.hstack((est._qc_rows(y, n, kt_u, kr_u),
                              est._qc_rows(top, ns, kt_c, kr_c)))

        base = {"cell_id": cell_id, "model": tm.format_model(model), "n": n,
                "tau": tau_true, "tau_assumed": tau_used, "s": radius,
                "beta": cc.beta, "match": cc.match_mode.value,
                "reps": config.reps}
        cell_u = dict(base, corrected=False, k_theta=kt_u, k_rho=kr_u)
        cell_c = dict(base, corrected=True, k_theta=kt_c, k_rho=kr_c)

        def run():
            vals = _replicate(config.reps, config.seed, cell_id, n, 6, draw, measure)
            _emit_cell(report, cell_u, vals[:, :3], curve)
            _emit_cell(report, cell_c, vals[:, 3:], curve)
        return run

    # every cell is decided, and so checked, before the first draw
    for run in [cell(i, *key) for i, key in enumerate(grid)]:
        run()
    return report


def _lnS_rows(y: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(rows, len(q)) array of ln((1/n) sum_i exp(q_j y_i)) for every row y
    of a (rows, n) block and every order q_j.

    The (row, order) pairs run in chunks of at most _LSE_BLOCK terms q_j*y_i.
    Each pair repeats scipy.special.logsumexp's arithmetic, which separates
    the maximal terms from the sum (Blanchard, Higham & Higham 2021), so
    wherever q*y is finite the result equals ``logsumexp(q_j * y) - ln n``
    exactly.  The maximum is q_j*max(y) with no pass over the terms: q_j > 0
    and rounding is monotone, so fl(q_j y_i) is non-decreasing in y_i.
    """
    rows, n = y.shape
    width = len(q)
    pairs = rows * width
    maxima = np.multiply.outer(y.max(axis=1), q).ravel()
    size = max(1, _LSE_BLOCK // n)
    buf = np.empty((min(size, pairs), n))
    out = np.empty(pairs)
    for start in range(0, pairs, size):
        stop = min(start + size, pairs)
        a = buf[:stop - start]
        for r in range(start // width, (stop - 1) // width + 1):
            # the orders of row r that fall in this chunk
            lo, hi = max(start - r * width, 0), min(stop - r * width, width)
            at = r * width + lo - start
            np.multiply(q[lo:hi, None], y[r], out=a[at:at + hi - lo])
        a_max = maxima[start:stop]
        np.subtract(a, a_max[:, None], out=a)
        # the maximal terms: a zero difference, or NaN where a_max is inf
        top = np.flatnonzero(~(a < 0.0))
        m = np.bincount(top // n, minlength=stop - start).astype(float)
        np.exp(a, out=a)
        a.ravel()[top] = 0.0
        s = a.sum(axis=1)
        s /= m
        out[start:stop] = np.log1p(s) + np.log(m) + a_max
    return out.reshape(rows, width) - math.log(n)


def _check_lnS_args(n_list, q_grid: np.ndarray, reps: int):
    """The one n of n_list, once it, q_grid and reps are checked."""
    if tm._as_int(reps, "reps") < 1:
        raise ArgumentError(f"reps must be >= 1, got {reps}")
    if not np.all(np.isfinite(q_grid) & (q_grid > 0.0)):
        raise ArgumentError("q grid must be finite and positive")
    if len(n_list) != 1:
        raise ArgumentError(f"lnS_curve takes one n per call, got {len(n_list)}")
    [n] = n_list
    if tm._as_int(n, "n") < 2:
        raise ArgumentError(f"n must be an integer >= 2, got {n!r}")
    return n


def lnS_curve(model: tm.TailModel, n_list, q_grid, reps: int,
              seed: int) -> McReport:
    """Mean sample-log-moment curve ln S(n, q) against its prediction.

    n_list holds the one n of the study; ``mc --config`` runs a grid of n as
    one call per n, each with its own seed.  S(n, q) = (1/n) sum exp(q Y_i),
    evaluated by log-sum-exp over chunks of at most 2^16 terms; the report
    also carries the collapse coordinate q / qc_approx(n).
    """
    q_grid = np.asarray(q_grid, dtype=float)
    n = _check_lnS_args(n_list, q_grid, reps)
    report = McReport(columns=_LNS_COLUMNS,
                      meta={"kind": "lnS", "seed": seed, "reps": reps,
                            "model": tm.format_model(model)})
    log_moments = theory.moment_quadrature(model, q_grid)
    curve = theory.critical_curve(model, n)
    predicted = theory._predicted_lnS(model, curve, q_grid, log_moments)
    vals = _replicate(reps, seed, 0, n, len(q_grid),
                      partial(tm._iid_rows, model, n),
                      partial(_lnS_rows, q=q_grid))
    mean = vals.sum(axis=0) / reps
    var = (vals * vals).sum(axis=0) / reps - mean ** 2
    se = np.sqrt(np.maximum(var, 0.0) / (reps - 1)) if reps > 1 else np.full_like(mean, math.nan)
    for q, m, e, p, log_moment in zip(q_grid.tolist(), mean.tolist(),
                                      se.tolist(), predicted.tolist(),
                                      log_moments.tolist()):
        report.rows.append({
            "n": n, "q": q, "q_over_qc": q / curve.qc_approx,
            "mean_lnS": m, "se_lnS": e, "predicted_lnS": p,
            "log_moment": log_moment,
        })
    return report
