"""Acceptance suite: one test per advertised guarantee of the package.

Each test states a quantitative claim about the library (closed forms,
statistical calibration, estimator quality, correction behavior, or
reproducibility), runs it end to end at the published tolerance, and also
asserts the published runtime budget.  The terminal summary prints one
pass/fail line per criterion (see conftest).

Tolerances and tolerances' margins are intentionally not tuned to the
current implementation: a criterion that the method itself cannot meet is
expected to fail here and stay failing.
"""

import io
import math
import time

import numpy as np
import pytest

import oracles
from momentgate import dependence as dep
from momentgate import estimators as est
from momentgate import montecarlo as mc
from momentgate import tail_models as tm
from momentgate import theory as th

LW2 = tm.log_weibull(2.0)
SLEP2 = tm.strict_log_exp_power(2.0)
LN = tm.log_normal()


def elapsed_under(t0, budget):
    dt = time.perf_counter() - t0
    assert dt < budget, f"runtime {dt:.1f}s exceeds the {budget:.0f}s budget"


def qc_rows(report):
    return [r for r in report.rows if r["estimator"] == "qc"]


def test_criterion_01_frontier_closed_forms():
    """Power-law tails: qc_approx equals rho (ln n)^(1-1/rho) to 1e-9 and the
    saddle point of the exact critical order sits on the frontier to 1e-8."""
    t0 = time.perf_counter()
    for rho in (1.5, 2.0, 3.0):
        model = tm.log_weibull(rho)
        for n in (1e2, 1e4, 1e6):
            curve = th.critical_curve(model, n)
            closed = rho * math.log(n) ** (1.0 - 1.0 / rho)
            assert curve.qc_approx == pytest.approx(closed, rel=1e-9)
            assert th.y_star(model, curve.qc_exact) == pytest.approx(
                curve.y_dagger, rel=1e-8)
    elapsed_under(t0, 1.0)


def laplace_log_moment(model, q):
    """Laplace form q y* + ln p(y*) + (1/2) ln(2 pi / s'(y*)) of ln E X^q,
    with y* the saddle and s' the score's slope; exact for Gaussian Y."""
    ys = th.y_star(model, q)
    curv = tm.score_prime(model, ys)
    return (q * ys + tm.log_pdf(model, ys)
            + 0.5 * (math.log(2.0 * math.pi) - math.log(curv)))


def test_criterion_02_saddlepoint_accuracy():
    """Log-moment saddlepoint vs quadrature: relative gap at most 2% by
    q = 80; for log-Weibull it shrinks as q grows, and for the lognormal,
    where the Laplace form is exact, it is at most 1e-12 at every q."""
    t0 = time.perf_counter()
    for model in (LW2, LN):
        gaps = []
        for q in (10.0, 20.0, 40.0, 80.0):
            exact = th.moment_quadrature(model, q)
            approx = laplace_log_moment(model, q)
            gaps.append(abs(approx - exact) / abs(exact))
        if model is LN:
            assert max(gaps) <= 1e-12, gaps
        else:
            assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
        assert gaps[-1] <= 0.02, gaps
    elapsed_under(t0, 10.0)


def test_criterion_03_gumbel_weight_calibration():
    """Monte-Carlo check of the order-statistic combination against the limit
    law: Omega has mean 0 and the predicted second moment, and normalized
    spacings are unit-mean unit-variance, all within 3 standard errors at
    10^5 draws."""
    t0 = time.perf_counter()
    root = 100_000
    rng = np.random.default_rng(1)
    for k in (2, 5, 20):
        g = oracles.gumbel_order_stats(root, k, rng)
        alpha = est.omega_weights(k)
        om = g[:, :k] @ alpha
        se_mean = om.std(ddof=1) / math.sqrt(root)
        assert abs(om.mean()) <= 3.0 * se_mean, f"k={k}: Omega mean"

        sq = om * om
        se_sq = sq.std(ddof=1) / math.sqrt(root)
        assert abs(sq.mean() - oracles.omega_sq_mean(k)) <= 3.0 * se_sq, \
            f"k={k}: Omega second moment"

        for i in range(1, k + 1):
            d = i * (g[:, i - 1] - g[:, i])
            se_d = d.std(ddof=1) / math.sqrt(root)
            assert abs(d.mean() - 1.0) <= 3.0 * se_d, f"k={k}: spacing {i} mean"
            v = d.var(ddof=1)
            se_v = np.std((d - d.mean()) ** 2) / math.sqrt(root)
            assert abs(v - 1.0) <= 3.0 * se_v, f"k={k}: spacing {i} variance"
    elapsed_under(t0, 30.0)


def test_criterion_04_exact_quantile_recovery():
    """Fed the exact tail quantiles, the estimator chain returns the
    theoretical frontier values to 1e-10."""
    t0 = time.perf_counter()
    n = 10_000
    i = np.arange(1, n, dtype=float)
    vals = np.append(tm.quantile(LW2, 1.0 - i / n), tm.quantile(LW2, 0.5 / n))
    sample = tm.Sample(values=vals, n=n, seed=0)
    e = est.qc_hat(sample, 1, 100)
    curve = th.critical_curve(LW2, n)
    assert e.rho_hat == pytest.approx(2.0, rel=1e-10)
    assert e.theta_hat == pytest.approx(curve.theta, rel=1e-10)
    assert e.qc_hat == pytest.approx(curve.qc_approx, rel=1e-10)
    elapsed_under(t0, 1.0)


def test_criterion_05_sample_log_moment_phases():
    """Sample log-moment curves (log-normal, 500 reps): agree with the true
    log-moment to 5% below half the critical order, turn linear in q (R^2 >=
    0.999) between 2 and 3 critical orders, and first detectably depart from
    the moment curve within [0.8, 1.2] of the critical order.

    Departing is the complement of agreeing: the mean curve departs at the
    first order where it is off the true log-moment by more than the 5%
    agreement tolerance at 3-standard-error confidence,
    |mean - ln E X^q| - 3 se > 0.05 |ln E X^q|.  A bare 3-se threshold
    would not do: E ln S < ln E S at every q > 0 (Jensen), so the mean sits
    below ln E X^q by about (e^{q^2} - 1) / (2n) well before the critical
    order, and with se ~ 1/sqrt(reps) that threshold moves to the first
    grid order as the replication count grows.  This one tends to the plain
    5% crossing instead."""
    t0 = time.perf_counter()
    failures = []
    for n in (100, 1000):
        curve = th.critical_curve(LN, n)
        qc = curve.qc_exact
        ratios = np.arange(0.1, 3.01, 0.05)
        rep = mc.lnS_curve(LN, [n], ratios * qc, 500, 0)
        qs = np.array([r["q"] for r in rep.rows])
        means = np.array([r["mean_lnS"] for r in rep.rows])
        ses = np.array([r["se_lnS"] for r in rep.rows])
        lms = np.array([r["log_moment"] for r in rep.rows])

        low = qs <= 0.5 * qc * (1.0 + 1e-12)
        rel = np.max(np.abs(means[low] - lms[low]) / np.abs(lms[low]))
        if rel > 0.05:
            failures.append(f"n={n}: low-order mean off by {rel:.3f}")

        win = (qs >= 2.0 * qc * (1.0 - 1e-12)) & (qs <= 3.0 * qc * (1.0 + 1e-12))
        r2 = oracles.r_squared(qs[win], means[win])
        if r2 < 0.999:
            failures.append(f"n={n}: saturated regime R^2 = {r2:.5f}")

        depart = np.abs(means - lms) - 3.0 * ses > 0.05 * np.abs(lms)
        if not depart.any():
            failures.append(f"n={n}: no departure from the moment curve")
        else:
            ratio = qs[int(np.argmax(depart))] / qc
            if not 0.8 <= ratio <= 1.2:
                failures.append(
                    f"n={n}: departure at {ratio:.2f} critical orders")
    assert not failures, "; ".join(failures)
    elapsed_under(t0, 120.0)


def test_criterion_06_theta_window_tradeoff():
    """Widening the order-statistic window from 1 to 2 shrinks the relative
    bias of theta_hat, and the default window beats k = 1 in MSE
    (500 replications, n = 1000)."""
    t0 = time.perf_counter()
    cfg = mc.ExperimentConfig(models=(LW2,), n_grid=(1000,),
                              k_theta_grid=(1, 2, 28), k_rho_grid=(80,),
                              reps=500, seed=0)
    report = mc.run_iid(cfg)
    theta = {r["k_theta"]: r for r in report.rows if r["estimator"] == "theta"}
    assert abs(theta[2]["relative_bias"]) < abs(theta[1]["relative_bias"])
    assert theta[28]["mse"] <= theta[1]["mse"]
    elapsed_under(t0, 60.0)


def test_criterion_07_default_windows_qc_mse():
    """With default windows at n = 1000, the critical-order estimate lands in
    a usable accuracy band: relative MSE between 0.02 and 0.35 for both a
    power-law-tail and a strict exponential-power model (500 reps)."""
    t0 = time.perf_counter()
    cfg = mc.ExperimentConfig(models=(LW2, SLEP2), n_grid=(1000,),
                              k_theta_grid=(None,), k_rho_grid=(None,),
                              reps=500, seed=0)
    report = mc.run_iid(cfg)
    rows = qc_rows(report)
    assert len(rows) == 2
    for row in rows:
        assert 0.02 <= row["relative_mse"] <= 0.35, \
            f"{row['model']}: relative MSE {row['relative_mse']:.3f}"
    elapsed_under(t0, 120.0)


def test_criterion_08_sieve_matches_reference():
    """The incremental sieve returns exactly the reference greedy selection
    on 1000 fuzzed series (lengths <= 50, ties included, varied radius and
    crowding weight)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    s_choices = (0.0, 0.7, 1.0, 2.5, 7.0)
    beta_choices = (0.0, 0.5, 1.0, 3.0)
    for trial in range(1000):
        n = int(rng.integers(1, 51))
        y = rng.normal(size=n)
        if trial % 3 == 0:
            y = np.round(y)  # force ties
        s = s_choices[rng.integers(len(s_choices))]
        beta = beta_choices[rng.integers(len(beta_choices))]
        max_points = None if trial % 4 else int(rng.integers(1, n + 1))
        got = dep.sieve(y, s, beta=beta, max_points=max_points)
        want = oracles.brute_sieve(y, s, beta, max_points=max_points)
        np.testing.assert_array_equal(got.selected_indices, want,
                                      err_msg=f"trial {trial}")
    elapsed_under(t0, 10.0)


def test_criterion_09_correction_reduces_bias():
    """On correlated log-normal series (n = 2^16, 200 reps), the sieve-plus-
    effective-size correction must cut the critical-order bias relative to
    the uncorrected estimator and land within 25% of the corrected theory
    value, for correlation lengths 10 and 100."""
    t0 = time.perf_counter()
    cfg = mc.ExperimentConfig(
        models=(LN,), n_grid=(65536,), k_theta_grid=(None,),
        k_rho_grid=(None,), reps=200, seed=0,
        correlated=mc.CorrelatedConfig(covs=(dep.ExponentialCov(10.0),
                                             dep.ExponentialCov(100.0)),
                                       kappa=0.08, alpha=0.01))
    report = mc.run_corr(cfg)
    failures = []
    for tau in (10.0, 100.0):
        rows = {r["corrected"]: r for r in qc_rows(report) if r["tau"] == tau}
        target = dep.qc_theory_corr(LN, 65536, tau, 0.08)
        assert rows[True]["target"] == pytest.approx(target, rel=1e-12)
        bias_c = abs(rows[True]["bias"])
        bias_u = abs(rows[False]["bias"])
        if not bias_c < bias_u:
            failures.append(
                f"tau={tau:g}: corrected |bias| {bias_c:.3f} >= "
                f"uncorrected {bias_u:.3f}")
        rel = abs(rows[True]["mean"] - target) / target
        if not rel < 0.25:
            failures.append(f"tau={tau:g}: corrected mean off theory by "
                            f"{rel:.1%}")
    assert not failures, "; ".join(failures)
    elapsed_under(t0, 600.0)


def test_criterion_10_robust_to_overstated_tau():
    """Overstating the correlation length (2x, 4x) must shift the corrected
    critical-order estimate by less than 15% of its correctly-specified mean
    (true length 100, n = 2^16, 200 reps)."""
    t0 = time.perf_counter()
    cfg = mc.ExperimentConfig(
        models=(LN,), n_grid=(65536,), k_theta_grid=(None,),
        k_rho_grid=(None,), reps=200, seed=0,
        correlated=mc.CorrelatedConfig(covs=(dep.ExponentialCov(100.0),),
                                       kappa=0.08, alpha=0.01,
                                       assumed_taus=(100.0, 200.0, 400.0)))
    report = mc.run_corr(cfg)
    means = {r["tau_assumed"]: r["mean"]
             for r in qc_rows(report) if r["corrected"]}
    base = means[100.0]
    failures = []
    for assumed in (200.0, 400.0):
        shift = abs(means[assumed] - base) / base
        if not shift < 0.15:
            failures.append(f"assumed tau {assumed:g}: mean shifts {shift:.1%}")
    assert not failures, "; ".join(failures)
    elapsed_under(t0, 600.0)


def test_criterion_11_reproducible_csv():
    """Two independent runs of the same experiment configuration produce
    byte-identical CSV reports."""
    cfg = dict(models=(LW2,), n_grid=(400,), k_theta_grid=(4,),
               k_rho_grid=(20,), reps=50, seed=3)
    texts = []
    for _ in range(2):
        buf = io.StringIO()
        mc.run_iid(mc.ExperimentConfig(**cfg)).to_csv(buf)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1]
    assert len(texts[0]) > 0
