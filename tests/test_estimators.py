"""Estimator tests: order statistics, the weighted tail combination, the
rank-ladder slope, default window rules, and the combined critical-order
estimate.

The sampling-theory checks use the exponential-walk representation of the
top order statistics (oracles.gumbel_order_stats), for which the mean and
second moment of the weighted combination have closed forms.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import stats as sps
from scipy.linalg import null_space

import oracles
import momentgate.dependence as dep
import momentgate.estimators as est
import momentgate.tail_models as tm
import momentgate.theory as th
from momentgate.errors import (
    ArgumentError,
    DegenerateRegressionError,
    InsufficientPositiveValues,
    NonPositiveOmegaError,
)

LW2 = tm.log_weibull(2.0)


def make_sample(values, seed=0):
    values = np.asarray(values, dtype=float)
    return tm.Sample(values=values, n=values.size, seed=seed)


def exact_quantile_sample(model, n):
    """Values whose order statistics are the exact tail quantiles: the i-th
    largest is quantile(1 - i/n)."""
    i = np.arange(1, n, dtype=float)
    vals = tm.quantile(model, 1.0 - i / n)
    vals = np.append(vals, tm.quantile(model, 0.5 / n))  # bottom filler
    rng = np.random.default_rng(1)
    return make_sample(rng.permutation(vals))


# ------------------------------------------------------------ order stats


def test_order_stats_descending_top():
    s = make_sample([3.0, 1.0, 2.0])
    np.testing.assert_array_equal(est.order_stats(s, 2).top, [3.0, 2.0])
    np.testing.assert_array_equal(est.order_stats(s, 3).top, [3.0, 2.0, 1.0])


def test_order_stats_with_ties():
    s = make_sample([5.0, 5.0, 1.0])
    np.testing.assert_array_equal(est.order_stats(s, 2).top, [5.0, 5.0])


def test_order_stats_large_permutation():
    rng = np.random.default_rng(3)
    s = make_sample(rng.permutation(np.arange(1.0, 10_001.0)))
    np.testing.assert_array_equal(est.order_stats(s, 10).top,
                                  np.arange(10_000.0, 9_990.0, -1.0))


def test_order_stats_bounds():
    s = make_sample([1.0, 2.0])
    with pytest.raises(ArgumentError):
        est.order_stats(s, 0)
    with pytest.raises(ArgumentError):
        est.order_stats(s, 3)


def test_ordered_sample_validates_monotone():
    with pytest.raises(ArgumentError):
        est.OrderedSample(top=np.array([1.0, 2.0]), n=5)


@pytest.mark.parametrize("call, message", [
    (lambda: est.OrderedSample(top=np.array([3.0, 2.0, 1.0]), n=2.5),
     r"len\(top\) must be in \[1, n\]"),
    (lambda: est.OrderedSample(top=np.array([]), n=10),
     r"len\(top\) must be in \[1, n\]"),
    (lambda: est.theta_hat(est.OrderedSample(top=np.array([3.0, 2.0]), n=10), 3),
     "k=3 exceeds available order stats 2"),
    # rho_hat and theta_hat read ln n, which a non-finite n makes inf or NaN
    (lambda: est.OrderedSample(top=np.array([3.0, 2.0, 1.0]), n=math.inf),
     "n must be finite, got inf"),
    (lambda: est.OrderedSample(top=np.array([3.0, 2.0, 1.0]), n=math.nan),
     "n must be finite, got nan"),
    (lambda: est.OrderedSample(top=np.array([math.nan, 2.0, 1.0]), n=10),
     "top values must be finite"),
    (lambda: est.OrderedSample(top=np.array([math.inf, 2.0, 1.0]), n=10),
     "top values must be finite"),
], ids=["more-than-n", "empty", "theta-hat-beyond-top", "infinite-n", "nan-n",
        "nan-top", "infinite-top"])
def test_ordered_sample_errors_name_their_cause(call, message):
    with pytest.raises(ArgumentError, match=f"^{message}$"):
        call()


# --------------------------------------------------------------- weights


def test_weights_unit_sum_frozen_pair():
    w = est.omega_weights(2)
    np.testing.assert_allclose(w, oracles.OMEGA_WEIGHTS_K2, rtol=1e-14)
    np.testing.assert_array_equal(est.omega_weights(1), [1.0])


@given(st.integers(min_value=1, max_value=400))
def test_weights_sum_to_one(k):
    assert abs(est.omega_weights(k).sum() - 1.0) <= 1e-12


def test_weights_reject_bad_k():
    with pytest.raises(ArgumentError):
        est.omega_weights(0)


def test_combination_of_constant_top_is_identity():
    # unit weight sum means a flat tail maps to itself: Omega_k = 2
    s = make_sample([2.0, 2.0, 2.0, 1.0])
    ordered = est.order_stats(s, 3)
    assert est.theta_hat(ordered, 3) == pytest.approx(math.log(4) / 2, rel=1e-15)
    assert est.theta_hat(ordered, 1) == math.log(4) / 2


# ---------------------------------------------------------- theta and rho


def test_theta_hat_single_order_stat():
    ordered = est.OrderedSample(top=np.array([2.0]), n=55)
    assert est.theta_hat(ordered, 1) == pytest.approx(math.log(55) / 2.0,
                                                      rel=1e-15)
    # an effective size n* is a real
    effective = est.OrderedSample(top=np.array([2.0]), n=math.exp(4.0))
    assert est.theta_hat(effective, 1) == pytest.approx(2.0, rel=1e-15)


def test_theta_hat_rejects_nonpositive_combination():
    ordered = est.OrderedSample(top=np.array([-1.0]), n=10)
    with pytest.raises(NonPositiveOmegaError):
        est.theta_hat(ordered, 1)


def test_rho_hat_recovers_slope_from_exact_quantiles():
    for rho in (1.2, 2.0, 4.0):
        model = tm.log_weibull(rho)
        s = exact_quantile_sample(model, 10_000)
        ordered = est.order_stats(s, 100)
        assert est.rho_hat(ordered, 100) == pytest.approx(rho, rel=1e-10)


def test_rho_hat_excludes_nonpositive_suffix():
    # a sorted tail puts non-positive values at the end; they are dropped
    # without renumbering the survivors, so exact-quantile collinearity and
    # hence the slope are untouched
    n, k = 10_000, 50
    i = np.arange(1, k + 1, dtype=float)
    clean = (math.log(n) - np.log(i)) ** 0.5
    contaminated = np.concatenate([clean, [-0.5, -2.0]])
    a = est.OrderedSample(top=contaminated, n=n)
    b = est.OrderedSample(top=clean, n=n)
    assert est.rho_hat(a, k + 2) == pytest.approx(est.rho_hat(b, k),
                                                  rel=1e-12)
    assert est.rho_hat(a, k + 2) == pytest.approx(2.0, rel=1e-10)


def test_rho_hat_error_conditions():
    ordered = est.OrderedSample(top=np.array([3.0, 2.0, 1.0]), n=100)
    with pytest.raises(ArgumentError):
        est.rho_hat(ordered, 1)
    with pytest.raises(ArgumentError):
        est.rho_hat(ordered, 5)
    neg = est.OrderedSample(top=np.array([-0.5, -1.0, -2.0]), n=100)
    with pytest.raises(InsufficientPositiveValues):
        est.rho_hat(neg, 3)
    flat = est.OrderedSample(top=np.array([2.0, 2.0, 2.0]), n=100)
    with pytest.raises(DegenerateRegressionError):
        est.rho_hat(flat, 3)


# a tied window leaves only rounding residue in cxx, from which a slope of
# either sign can be formed: 19.4460711989558 at k = 28 gave 0.1667
@given(value=st.floats(0.0, 50.0, exclude_min=True),
       k=st.sampled_from([3, 28, 80, 323]))
@example(value=19.4460711989558, k=28)
@example(value=19.4460711989558, k=3)
def test_rho_hat_tied_window_is_degenerate(value, k):
    ordered = est.OrderedSample(top=np.full(k, value), n=1000)
    with pytest.raises(DegenerateRegressionError):
        est.rho_hat(ordered, k)


@pytest.mark.parametrize("n", [1000, 100_000])
@pytest.mark.parametrize("rho", [1e7, 1e8, 1e10, 1e12])
def test_qc_hat_at_large_rho(rho, n):
    # the spread of ln Y shrinks like 1/rho, so the top values are distinct
    # but their logs' variance falls far below 1: rho_hat / rho reads as it
    # does at rho = 1e6
    e = est.qc_hat(tm.sample_iid(tm.log_weibull(rho), n, 3))
    ref = est.qc_hat(tm.sample_iid(tm.log_weibull(1e6), n, 3))
    assert math.isfinite(e.qc_hat)
    assert e.rho_hat / rho == pytest.approx(ref.rho_hat / 1e6, rel=1e-4)


def test_rho_hat_ladder_needs_room():
    ordered = est.OrderedSample(top=np.array([3.0, 2.0, 1.0]), n=3.0)
    # size 3 leaves no positive ladder value ln(ln 3 - ln 3) at rank 3
    with pytest.raises(ArgumentError, match="k_rho=3 must be below n=3"):
        est.rho_hat(ordered, 3)


# ------------------------------------------------------------- window rules


def test_default_windows_frozen_values():
    assert (est.default_k_theta(1000), est.default_k_rho(1000)) == (28, 80)
    assert (est.default_k_theta(65536), est.default_k_rho(65536)) == (68, 323)
    assert (est.default_k_theta(7282), est.default_k_rho(7282)) == (43, 155)
    assert (est.default_k_theta(8), est.default_k_rho(8)) == (2, 2)


def test_default_windows_reject_tiny_n():
    with pytest.raises(ArgumentError):
        est.default_k_theta(7)
    with pytest.raises(ArgumentError):
        est.default_k_rho(5)


def test_default_windows_clamped_to_tail():
    for n in (8, 20, 100, 10_000, 10**6):
        for k in (est.default_k_theta(n), est.default_k_rho(n)):
            assert 2 <= k <= max(2, n // 10)


# ------------------------------------------------------------ combined qc


def test_qc_hat_is_product_of_parts():
    s = make_sample(tm.sample_iid(LW2, 1000, seed=9).values)
    e = est.qc_hat(s, 10, 40)
    ordered = est.order_stats(s, 40)
    assert e.qc_hat == est.theta_hat(ordered, 10) * est.rho_hat(ordered, 40)
    assert (e.k_theta, e.k_rho) == (10, 40)


def test_block_estimates_match_qc_hat_at_the_ends_of_the_doubles():
    # rows where Omega_k overflows, ln n / Omega_k overflows, theta_hat *
    # rho_hat overflows, or Omega_k <= 0, between ordinary samples: each row
    # is qc_hat's values, and NaN where qc_hat raises, with no NumPy warning
    n = 400
    grid = [np.linspace(lo, hi, n) for lo, hi in
            ((1e307, 9e307), (1e-310, 9e-310), (1e-308, 9e-308))]
    ordinary = [tm.sample_iid(LW2, n, seed=s).values for s in (1, 2)]
    block = np.array([ordinary[0], *grid, -grid[0], ordinary[1]])
    kt, kr = est.default_k_theta(n), est.default_k_rho(n)
    rows = est._qc_rows(block, n, kt, kr)
    for values, row in zip(block, rows):
        try:
            e = est.qc_hat(make_sample(values), kt, kr)
        except NonPositiveOmegaError:
            assert np.isnan(row).all(), row
        else:
            assert row.tolist() == [e.theta_hat, e.rho_hat, e.qc_hat]
    assert np.isnan(rows[1:5]).all() and not np.isnan(rows[[0, 5]]).any()


def test_qc_hat_defaults_follow_window_rules():
    s = make_sample(tm.sample_iid(LW2, 1000, seed=10).values)
    e = est.qc_hat(s)
    assert (e.k_theta, e.k_rho) == (28, 80)


def test_qc_hat_exact_quantiles_recover_theory():
    n = 10_000
    s = exact_quantile_sample(LW2, n)
    curve = th.critical_curve(LW2, n)
    e = est.qc_hat(s, 1, 100)
    assert e.theta_hat == pytest.approx(curve.theta, rel=1e-10)
    assert e.rho_hat == pytest.approx(2.0, rel=1e-10)
    assert e.qc_hat == pytest.approx(curve.qc_approx, rel=1e-10)


@pytest.mark.parametrize("bad", [4.7, math.nan, math.inf])
@pytest.mark.parametrize("name", ["k_theta", "k_rho"])
def test_qc_hat_rejects_non_integer_windows(name, bad):
    s = make_sample(tm.sample_iid(LW2, 1000, seed=9).values)
    with pytest.raises(ArgumentError, match=f"{name} must be an integer"):
        est.qc_hat(s, **{name: bad})


def test_qc_hat_takes_numpy_integer_windows():
    s = make_sample(tm.sample_iid(LW2, 1000, seed=9).values)
    e = est.qc_hat(s, np.int64(10), np.int32(40))
    assert e == est.qc_hat(s, 10, 40)
    assert type(e.k_theta) is int and type(e.k_rho) is int


@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["negative", "positive"])
@pytest.mark.parametrize("estimate, k_rho, message", [
    (est.qc_hat, 1, "k_rho must be >= 2, got 1"),
    (est.qc_hat, 200, "k_rho=200 must be below n=200"),
    (functools.partial(dep.qc_hat_corr, tau=1), 1, "k_rho must be >= 2, got 1"),
], ids=["qc_hat-k_rho-1", "qc_hat-k_rho-n", "qc_hat_corr-k_rho-1"])
def test_bad_window_is_an_argument_error_whatever_the_data(sign, estimate,
                                                           k_rho, message):
    # the windows are checked before any value is read, so values on which
    # theta_hat is undefined do not turn a bad window into a data failure;
    # the message is the one a study's check of the same windows gives
    with pytest.raises(ArgumentError, match=f"^{message}$"):
        est._qc_rows(np.empty((0, 200)), 200, 5, k_rho)
    with pytest.raises(ArgumentError, match=f"^{message}$"):
        estimate(make_sample(sign * np.arange(1.0, 201.0)), 5, k_rho)


_TOP = est.OrderedSample(top=np.array([3.0, 2.0, 1.5, 1.0]), n=100)


@pytest.mark.parametrize("call", [
    lambda: est.order_stats(make_sample(np.arange(1.0, 11.0)), 2.5),
    lambda: est.order_stats(make_sample(np.arange(1.0, 11.0)), math.nan),
    lambda: est.omega_weights(2.5),
    lambda: est.theta_hat(_TOP, 2.5),
    lambda: est.rho_hat(_TOP, 2.5),
    lambda: dep.sieve([3.0, 1.0, 2.0, 5.0], 1.0, max_points=2.5),
    lambda: dep.sieve([3.0, 1.0, 2.0, 5.0], 1.0, max_points=math.nan),
], ids=["order_stats", "order_stats-nan", "omega_weights", "theta_hat",
        "rho_hat", "sieve", "sieve-nan"])
def test_windows_and_sizes_must_be_integers(call):
    with pytest.raises(ArgumentError, match="must be an integer"):
        call()


# ----------------------------------------------------- sampling invariants


def test_weighted_combination_moments_match_closed_form():
    rng = np.random.default_rng(77)
    n_draws = 20_000
    for k in (2, 5):
        g = oracles.gumbel_order_stats(n_draws, k, rng)
        w = est.omega_weights(k)
        om = g[:, :k] @ w
        se_mean = om.std(ddof=1) / math.sqrt(n_draws)
        assert abs(om.mean()) < 3 * se_mean
        sq = om * om
        se_sq = sq.std(ddof=1) / math.sqrt(n_draws)
        assert abs(sq.mean() - oracles.omega_sq_mean(k)) < 3 * se_sq


def test_second_moment_closed_form_decreases_in_k():
    vals = [oracles.omega_sq_mean(k) for k in (1, 2, 3, 5, 10, 20, 50)]
    assert np.all(np.diff(vals) < 0)


def test_weighted_combination_is_variance_optimal():
    # any other unit-sum weight vector with the same (zero) mean on the
    # exponential-walk order statistics has larger variance
    k, n_draws = 5, 100_000
    rng = np.random.default_rng(11)
    g = oracles.gumbel_order_stats(n_draws, k, rng)[:, :k]
    alpha = est.omega_weights(k)
    means = np.array([oracles.gumbel_mean(i) for i in range(1, k + 1)])
    basis = null_space(np.vstack([np.ones(k), means]))
    var_opt = (g @ alpha).var(ddof=1)
    for _ in range(20):
        w = alpha + basis @ rng.normal(0.0, 0.5, size=basis.shape[1])
        assert (g @ w).var(ddof=1) > var_opt


def test_weighted_combination_normalizes_with_k():
    # averaging over a wider tail window pulls the combination toward
    # normal: distance to the Gaussian and skewness both shrink in k
    rng = np.random.default_rng(21)
    n_draws = 10_000
    ks_dist, skew = [], []
    for k in (1, 5, 50):
        g = oracles.gumbel_order_stats(n_draws, k, rng)[:, :k]
        om = g @ est.omega_weights(k)
        z = (om - om.mean()) / om.std(ddof=1)
        ks_dist.append(sps.kstest(z, sps.norm.cdf).statistic)
        skew.append(sps.skew(om))
    assert ks_dist[0] > ks_dist[1] > ks_dist[2]
    assert skew[0] > skew[1] > skew[2] > 0.0
    assert ks_dist[2] < 0.03
