"""Correlated-series tests: covariance specs, spectral synthesis, the
marginal transform, the extremal sieve, and the effective-sample-size
corrected estimators.

The sieve is fuzzed against the O(n^3) reference in oracles.py; synthesis is
checked at the Gaussian layer (autocovariance) and at the marginal layer
(transform identity plus distribution fits).
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import stats as sps
from scipy.special import ndtr

import oracles
import momentgate.dependence as dep
import momentgate.estimators as est
import momentgate.tail_models as tm
import momentgate.theory as th
from momentgate.errors import (
    ArgumentError,
    DivergentError,
    EmbeddingError,
    InsufficientSievedPoints,
)

LW2 = tm.log_weibull(2.0)
SLEP2 = tm.strict_log_exp_power(2.0)
LN = tm.log_normal()


# ---------------------------------------------------------- covariance spec


def test_parse_format_cov_round_trip():
    for spec in ("exp:tau=100", "exp:tau=2.5", "tab:1,0.5,0.25"):
        cov = dep.parse_cov(spec)
        assert dep.parse_cov(dep.format_cov(cov)) == cov


@given(st.floats(min_value=0.0, max_value=1e300),
       st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=5))
@example(100.0000001, [0.5000001])  # ":g" printed tau=100, tab:1,0.5
def test_format_cov_reads_back(tau, table):
    for cov in (dep.ExponentialCov(tau), dep.TabulatedCov((1.0, *table))):
        assert dep.parse_cov(dep.format_cov(cov)) == cov


def test_parse_cov_rejects_bad_specs():
    for spec in ("nope", "exp:tau=-1", "tab:0.9,0.5", "tab:1,1.5", "tab:",
                 "exp:tau=abc", "tab:1,nan"):
        with pytest.raises(ArgumentError):
            dep.parse_cov(spec)


@pytest.mark.parametrize("call, message", [
    (lambda: dep.parse_cov("exp:scale=3"),
     "exponential covariance needs tau=..., got 'exp:scale=3'"),
    (lambda: dep.parse_cov("exp:3"),
     "exponential covariance needs tau=..., got 'exp:3'"),
    (lambda: dep.parse_cov("tab:1,half"),
     "non-numeric tabulated covariance in 'tab:1,half'"),
    (lambda: dep.n_star(1000, -1.0, 0.08), "tau and kappa must be >= 0"),
    (lambda: dep.n_star(1000, 10.0, math.nan), "tau and kappa must be >= 0"),
    (lambda: dep.synth_series(LN, dep.ExponentialCov(tau=4.0), 16, 0, "bogus"),
     "unknown match mode 'bogus' (expected gaussian or hermite)"),
    (lambda: dep.synth_series(LN, dep.ExponentialCov(tau=3.0), 1, 0),
     "series length must be >= 2"),
    # sizes numpy refuses before it allocates: beyond its index, or an
    # embedding of about 2n points past its byte limit
    (lambda: dep.synth_series(LN, dep.ExponentialCov(tau=3.0), 10 ** 22, 0),
     "series length must be at most 2^57, got 10000000000000000000000"),
    (lambda: dep.synth_series(LN, dep.ExponentialCov(tau=3.0), 2 ** 62, 0),
     "series length must be at most 2^57, got 4611686018427387904"),
], ids=["exp-without-tau", "exp-bare-value", "tab-non-numeric",
        "negative-tau", "nan-kappa", "unknown-match-mode", "series-of-one",
        "series-beyond-index", "series-beyond-bytes"])
def test_cov_and_size_errors_name_their_cause(call, message):
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        call()


def test_cov_at_lags():
    lags = np.arange(4)
    np.testing.assert_allclose(
        dep.cov_at_lags(dep.ExponentialCov(tau=2.0), lags),
        np.exp(-lags / 2.0))
    np.testing.assert_allclose(
        dep.cov_at_lags(dep.TabulatedCov(values=(1.0, 0.5)), lags),
        [1.0, 0.5, 0.0, 0.0])
    # zero correlation length = uncorrelated: a delta at lag 0
    np.testing.assert_allclose(
        dep.cov_at_lags(dep.ExponentialCov(tau=0.0), lags), [1, 0, 0, 0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [5e-324, 1e-310])
def test_vanishing_tau_is_the_iid_case_without_a_warning(tau):
    # 1/tau overflows to inf: C(t) = exp(-inf) = 0 for every lag t >= 1
    lags = np.arange(70)
    np.testing.assert_array_equal(
        dep.cov_at_lags(dep.ExponentialCov(tau), lags),
        dep.cov_at_lags(dep.ExponentialCov(0.0), lags))
    np.testing.assert_array_equal(
        dep.synth_series(LN, dep.ExponentialCov(tau), 64, seed=3).values,
        dep.synth_series(LN, dep.ExponentialCov(0.0), 64, seed=3).values)


def test_correlation_length():
    assert dep.correlation_length(dep.ExponentialCov(tau=50.0)) == 50.0
    assert dep.correlation_length(dep.ExponentialCov(tau=0.0)) == 0.0
    assert dep.correlation_length(dep.TabulatedCov(values=(1.0,))) == 0.0
    # tabulated length is the first-moment ratio int t C / int C
    t = np.arange(201.0)
    c = np.exp(-t / 20.0)
    tab = dep.TabulatedCov(values=tuple(c))
    got = dep.correlation_length(tab)
    assert got == pytest.approx(np.trapezoid(t * c) / np.trapezoid(c),
                                rel=1e-12)
    assert got == pytest.approx(20.0, rel=1e-2)


def test_correlation_length_divergent():
    with pytest.raises(DivergentError):
        dep.correlation_length(dep.TabulatedCov(values=(1.0, -1.0, -1.0)))


def test_effective_sample_size():
    assert dep.n_star(1000, 0.0, 0.08) == 1000.0
    assert dep.n_star(1000, 100.0, 0.08) == pytest.approx(1000.0 / 9.0,
                                                          rel=1e-12)
    taus = [0.0, 10.0, 100.0, 1000.0]
    vals = [dep.n_star(1000, t, 0.08) for t in taus]
    assert np.all(np.diff(vals) < 0)


@pytest.mark.parametrize("n, tau", [(1, 0.0), (1.9, 0.0), (100, 1e4),
                                    (math.nan, 0.0)])
def test_effective_size_below_two_is_rejected(n, tau):
    with pytest.raises(ArgumentError, match=r"effective size n\* = .* < 2"):
        dep.n_star(n, tau, 0.08)


def test_infinite_effective_size_is_rejected():
    with pytest.raises(ArgumentError, match=r"n\* must be finite"):
        dep.n_star(math.inf, 10.0, 0.08)
    with pytest.raises(ArgumentError, match=r"n\* must be finite"):
        dep.qc_theory_corr(LN, math.inf, 10.0)


def test_corrected_critical_order_theory():
    # at tau = 0 the corrected value is the plain one
    assert dep.qc_theory_corr(LN, 1000, 0.0) == th.critical_curve(
        LN, 1000).qc_approx
    # power-law closed form at the (rounded) effective size
    n, tau = 65536, 100.0
    expected = 2.0 * math.sqrt(math.log(n / (1.0 + 0.08 * tau)))
    assert dep.qc_theory_corr(LW2, n, tau) == pytest.approx(expected,
                                                            rel=1e-4)
    assert dep.qc_theory_corr(LW2, n, tau) < th.critical_curve(LW2,
                                                               n).qc_approx
    with pytest.raises(ArgumentError):
        dep.qc_theory_corr(LW2, 100, 1e4)


# ---------------------------------------------------------------- synthesis


def test_synth_deterministic_and_sized():
    cov = dep.ExponentialCov(tau=10.0)
    a = dep.synth_series(LN, cov, 256, seed=3)
    b = dep.synth_series(LN, cov, 256, seed=3)
    c = dep.synth_series(LN, cov, 256, seed=4)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.n == 256
    with pytest.raises(ArgumentError):
        dep.synth_series(LN, dep.ExponentialCov(tau=1.0), 1, seed=0)


def test_gaussian_layer_autocovariance():
    # the standard normal marginal leaves the Gaussian layer visible
    n, tau, reps = 4096, 5.0, 100
    cov = dep.ExponentialCov(tau=tau)
    acc = np.zeros(6)
    for r in range(reps):
        z = dep.synth_series(LN, cov, n, seed=1000 + r).values
        zc = z - z.mean()
        for t in range(6):
            acc[t] += np.dot(zc[: n - t], zc[t:]) / n
    acc /= reps
    target = np.exp(-np.arange(6) / tau)
    assert np.all(np.abs(acc - target) < 4.0 / math.sqrt(n))


def test_zero_correlation_is_iid():
    n = 10_000
    z = dep.synth_series(LN, dep.ExponentialCov(tau=0.0), n, seed=9).values
    assert sps.kstest(z, ndtr).pvalue > 0.01
    lag1 = np.corrcoef(z[:-1], z[1:])[0, 1]
    assert abs(lag1) < 3.0 / math.sqrt(n)


def test_marginal_transform_identity():
    # the copula step must satisfy F(model, y) = Phi(z) pointwise
    z = np.linspace(-6.0, 6.0, 49)
    for model in (LW2, SLEP2, tm.strict_log_exp_power(4.0), LN):
        y = dep._gauss_to_marginal(model, z)
        np.testing.assert_allclose(oracles.cdf(model, y), ndtr(z), rtol=1e-10)
    # extreme gaussians stay finite
    y = dep._gauss_to_marginal(LW2, np.array([-38.0, 38.0]))
    assert np.all(np.isfinite(y))


def test_correlated_marginal_still_fits():
    # KS needs iid data, so under correlation check moments of the PIT
    # values with a dependence-inflated tolerance instead
    n = 10_000
    for model in (LW2, LN):
        y = dep.synth_series(model, dep.ExponentialCov(tau=10.0), n,
                             seed=17).values
        u = oracles.cdf(model, y)
        assert abs(u.mean() - 0.5) < 0.05
        assert abs(u.var() - 1.0 / 12.0) < 0.02
        gap = np.abs(np.sort(u) - np.arange(1, n + 1) / n)
        assert gap.max() < 0.08


@pytest.mark.parametrize("n", [100.7, 100.0, "100"])
def test_synthesis_rejects_non_integer_length(n):
    with pytest.raises(ArgumentError, match="series length must be an integer"):
        dep.synth_series(LN, dep.ExponentialCov(tau=5.0), n, seed=0)


def test_embedding_rejects_indefinite_covariance():
    cov = dep.TabulatedCov(values=(1.0, 0.9))
    for _ in range(2):  # the spectrum cache keeps no exception
        with pytest.raises(EmbeddingError):
            dep.synth_series(LN, cov, 64, seed=1)


def test_hermite_match_identity_for_gaussian_marginal():
    targets = np.array([0.9, 0.5, 0.1, -0.3])
    matched = dep._hermite_gaussian_cov(LN, targets)
    np.testing.assert_allclose(matched, targets, atol=1e-9)


def test_hermite_match_compensates_transform_loss():
    # the value-level correlation of a transformed Gaussian falls short of
    # the Gaussian one, so the matched input correlation must overshoot
    targets = np.array([math.exp(-0.1)])
    matched = dep._hermite_gaussian_cov(LW2, targets)
    assert matched[0] > targets[0]


def test_hermite_synthesis_hits_value_level_correlation():
    n, tau = 8192, 10.0
    y = dep.synth_series(LW2, dep.ExponentialCov(tau=tau), n, seed=23,
                         match_mode=dep.MatchMode.HERMITE)
    v = y.values
    lag1 = np.corrcoef(v[:-1], v[1:])[0, 1]
    assert abs(lag1 - math.exp(-1.0 / tau)) < 0.02


def _assert_embedding_matches_fft(amp, got):
    # relative to the series' scale: a value near 0 has no relative digits
    want = oracles.complex_fft_embedding(amp, 7)
    np.testing.assert_allclose(got, want[:got.size], rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("m", [2, 4, 8, 1 << 10, 1 << 17])
@pytest.mark.parametrize("mode", list(dep.MatchMode))
def test_embedding_matches_full_complex_fft(m, mode):
    # the half-length real FFT reproduces Re FFT(amp (u + i v)) to rounding
    cov = dep.ExponentialCov(tau=10.0)
    hermite = mode is dep.MatchMode.HERMITE
    for model in ((LW2, LN) if hermite else (LN,)):
        amp = dep._spectrum(model if hermite else None, cov, m, mode)
        _assert_embedding_matches_fft(amp, dep._embed_gaussian(amp, 7))
    # n = m/2 + 1 is the longest series served by an embedding of length m;
    # the lognormal marginal leaves the Gaussian layer visible
    amp = dep._spectrum(LN if hermite else None, cov, m, mode)
    series = dep.synth_series(LN, cov, m // 2 + 1, 7, mode)
    _assert_embedding_matches_fft(amp, series.values)


def _cold(model, cov, n, seed, match_mode):
    dep._spectrum.cache_clear()
    return dep.synth_series(model, cov, n, seed, match_mode).values


@pytest.mark.parametrize("mode", list(dep.MatchMode))
def test_spectrum_cache_warm_equals_cold(mode):
    series = (LW2, dep.ExponentialCov(tau=10.0), 2048)
    cold = _cold(*series, 5, mode)
    dep.synth_series(*series, 6, mode)
    warm = dep.synth_series(*series, 5, mode).values
    assert dep._spectrum.cache_info().hits >= 2
    np.testing.assert_array_equal(warm, cold)


def test_spectrum_cache_keys_the_model_only_in_hermite_mode():
    cov = dep.ExponentialCov(tau=10.0)
    a, b = ((m, cov, 2048) for m in (LW2, SLEP2))
    hermite = dep.MatchMode.HERMITE
    cold_a, cold_b = _cold(*a, 3, hermite), _cold(*b, 3, hermite)
    assert not np.array_equal(cold_a, cold_b)
    dep._spectrum.cache_clear()
    for series, cold in ((a, cold_a), (b, cold_b), (a, cold_a)):
        np.testing.assert_array_equal(
            dep.synth_series(*series, 3, hermite).values, cold)
    assert dep._spectrum.cache_info().currsize == 2
    dep._spectrum.cache_clear()
    dep.synth_series(*a, 3)
    dep.synth_series(*b, 3)
    assert dep._spectrum.cache_info().currsize == 1


def test_spectrum_amplitude_is_read_only():
    amp = dep._spectrum(None, dep.ExponentialCov(tau=5.0), 64,
                        dep.MatchMode.GAUSSIAN_LEVEL)
    assert not amp.flags.writeable
    with pytest.raises(ValueError):
        amp[0] = 1.0


# -------------------------------------------------------------------- sieve


def test_sieve_hand_examples():
    y = [5.0, 4.0, 3.0, 2.0, 1.0]
    np.testing.assert_array_equal(dep.sieve(y, 1.0, beta=0.0).selected_indices,
                                  [0, 2, 4])
    # the inter-value count never fires on a monotone run of neighbours
    np.testing.assert_array_equal(dep.sieve(y, 1.0, beta=10.0).selected_indices,
                                  [0, 2, 4])
    np.testing.assert_array_equal(dep.sieve(y, 2.0, beta=0.0).selected_indices,
                                  [0, 3])
    np.testing.assert_array_equal(dep.sieve(y, 0.0).selected_indices,
                                  [0, 1, 2, 3, 4])


def test_sieve_infinite_radius_keeps_only_the_maximum():
    for beta in (0.0, 1.0):
        got = dep.sieve([1.0, 3.0, 2.0, 3.0], math.inf, beta)
        np.testing.assert_array_equal(got.selected_indices, [1])


def test_sieve_tie_handling_is_stable():
    got = dep.sieve([3.0, 3.0, 3.0], 1.0, beta=0.0)
    np.testing.assert_array_equal(got.selected_indices, [0, 2])


def test_sieve_below_unit_radius_keeps_everything():
    rng = np.random.default_rng(2)
    y = rng.normal(size=40)
    got = dep.sieve(y, 0.99, beta=1.0)
    np.testing.assert_array_equal(got.selected_indices,
                                  np.argsort(-y, kind="stable"))


# (s, beta) where the largest count c with fl(beta * c) <= s is easy to get
# wrong: fl(0.1 * 3) > 0.3 and fl(0.1 * 12) > 1.2; 1.4 / 0.04 rounds to 35
# although fl(0.04 * 35) > 1.4; 4.3 / 0.1 rounds below 43 although
# fl(0.1 * 43) <= 4.3; no bound on the count at all where s = inf or beta = 0
_RADIUS_EDGES = ((0.3, 0.1), (1.2, 0.1), (1.4, 0.04), (4.3, 0.1),
                 (math.inf, 0.5), (3.0, 0.0))


def test_sieve_matches_brute_force_fuzz():
    rng = np.random.default_rng(5)
    for trial in range(150):
        n = int(rng.integers(1, 41))
        y = rng.normal(size=n)
        if trial % 3 == 0:
            y = np.round(y, 1)  # force ties
        s = float(rng.choice([0.0, 1.0, 2.5, 7.0]))
        beta = float(rng.choice([0.0, 0.5, 1.0, 3.0]))
        got = dep.sieve(y, s, beta).selected_indices
        want = oracles.brute_sieve(y, s, beta)
        np.testing.assert_array_equal(got, want, err_msg=f"trial {trial}")
    for s, beta in _RADIUS_EDGES:
        for trial in range(4):
            y = rng.normal(size=150)
            got = dep.sieve(y, s, beta).selected_indices
            want = oracles.brute_sieve(y, s, beta)
            np.testing.assert_array_equal(
                got, want, err_msg=f"s={s}, beta={beta}, trial {trial}")


def test_sieve_matches_brute_force_on_heavy_ties():
    rng = np.random.default_rng(55)
    for n in (100, 200, 300):
        y = np.round(rng.normal(scale=4.0, size=n))
        zeros = np.flatnonzero(y == 0.0)
        y[zeros[::2]] = -0.0  # 0.0 == -0.0: one tie group
        for s in (1.0, 3.0, 30.0, 300.0):
            for beta in (0.5, 1.0, 3.0):
                got = dep.sieve(y, s, beta).selected_indices
                want = oracles.brute_sieve(y, s, beta)
                np.testing.assert_array_equal(
                    got, want, err_msg=f"n={n}, s={s}, beta={beta}")


def test_sieve_matches_searchsorted_counts_on_long_series():
    y = dep.synth_series(LN, dep.ExponentialCov(tau=100.0), 1 << 16,
                         seed=11).values
    finite_edges = tuple(e for e in _RADIUS_EDGES if e[0] < math.inf)
    for s, beta in ((1.0, 1.0), (30.0, 1.0), (300.0, 1.0)) + finite_edges:
        got = dep.sieve(y, s, beta, max_points=300).selected_indices
        want = oracles.searchsorted_sieve(y, s, beta, max_points=300)
        np.testing.assert_array_equal(got, want, err_msg=f"s={s}, beta={beta}")


def _tie_heavy_series(rng, n, kind):
    y = rng.normal(size=n)
    if kind == 1:
        y = np.round(y, 1)  # tie groups straddle the candidate cut
    elif kind == 2:
        # the top tie group is zeros of both signs
        y = -np.abs(np.round(y))
        zeros = np.flatnonzero(y == 0.0)
        y[zeros[::2]] = 0.0
    return y


def test_sieve_candidate_cut_matches_searchsorted_fuzz():
    rng = np.random.default_rng(29)
    radii, betas = (0.5, 1.0, 3.7, 40.0), (0.0, 0.3, 1.0, 4.0)
    for trial in range(64):
        s, beta = radii[trial % 4], betas[(trial // 4) % 4]
        n = int(2.0 ** rng.uniform(0.0, 14.0))
        y = _tie_heavy_series(rng, n, trial % 3)
        # mostly short scans, where the cut leaves out most of the series
        top = n if trial % 4 == 3 else min(n, 60)
        max_points = int(rng.integers(1, top + 1))
        got = dep.sieve(y, s, beta, max_points=max_points).selected_indices
        want = oracles.searchsorted_sieve(y, s, beta, max_points=max_points)
        np.testing.assert_array_equal(
            got, want, err_msg=f"trial {trial}: n={n}, s={s}, beta={beta}, "
                               f"max_points={max_points}")


def test_sieve_prefix_property_of_early_stop():
    rng = np.random.default_rng(8)
    for _ in range(30):
        y = rng.normal(size=60)
        full = dep.sieve(y, 3.0, 1.0).selected_indices
        part = dep.sieve(y, 3.0, 1.0, max_points=5).selected_indices
        np.testing.assert_array_equal(part, full[:5])


def test_sieve_selected_pairs_exceed_radius():
    rng = np.random.default_rng(13)
    y = rng.normal(size=80)
    for s, beta in ((2.0, 1.0), (5.0, 0.5)):
        idx = dep.sieve(y, s, beta).selected_indices
        d = oracles.brute_distance_matrix(y, beta)
        sub = d[np.ix_(idx, idx)]
        off = sub[~np.eye(len(idx), dtype=bool)]
        assert np.all(off > s)


def test_sieve_count_monotone_in_radius_and_beta():
    rng = np.random.default_rng(21)
    y = rng.normal(size=100)
    sizes_s = [len(dep.sieve(y, s, 1.0).selected_indices)
               for s in (0.0, 1.0, 2.0, 4.0, 8.0)]
    assert np.all(np.diff(sizes_s) <= 0)
    # larger beta inflates distances, so fewer removals
    sizes_b = [len(dep.sieve(y, 4.0, b).selected_indices)
               for b in (0.0, 0.5, 1.0, 2.0)]
    assert np.all(np.diff(sizes_b) >= 0)


def test_sieve_values_descend():
    rng = np.random.default_rng(34)
    y = rng.normal(size=50)
    vals = dep.sieve(y, 2.0, 1.0).selected_values
    assert np.all(np.diff(vals) <= 0)


def test_sieve_rejects_bad_arguments():
    with pytest.raises(ArgumentError):
        dep.sieve([1.0], -1.0)
    for beta in (-2.0, math.nan, math.inf):
        with pytest.raises(ArgumentError, match="beta"):
            dep.sieve(np.arange(10.0), 2.0, beta)
    with pytest.raises(ArgumentError):
        dep.sieve(np.array([]), 1.0)
    for s in (0.0, 1.0):
        for max_points in (0, -1):
            with pytest.raises(ArgumentError):
                dep.sieve([3.0, 1.0, 2.0, 5.0], s, 1.0, max_points=max_points)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ArgumentError):
                dep.sieve([1.0, bad, 2.0, 0.5, 3.0], s)


@pytest.mark.parametrize("s, beta, message", [
    (-1.0, 1.0, "s must be >= 0"), (1.0, math.inf, "beta must be finite")])
def test_sieved_top_checks_its_settings_on_no_rows(s, beta, message):
    # a study checks each cell's sieve on a block of no series
    with pytest.raises(ArgumentError, match=message):
        dep._sieved_top(np.empty((0, 512)), s, beta, 10)


# ----------------------------------------------------- corrected estimators


def test_corrected_estimators_reduce_to_iid_at_zero_tau():
    series = tm.sample_iid(LW2, 2000, seed=6)
    plain = est.qc_hat(series)
    corr = dep.qc_hat_corr(series, tau=0.0)
    assert corr.theta_hat == plain.theta_hat
    assert corr.rho_hat == plain.rho_hat
    assert corr.qc_hat == plain.qc_hat
    assert (corr.k_theta, corr.k_rho) == (plain.k_theta, plain.k_rho)


def test_corrected_theta_uses_effective_size_and_sieved_top():
    series = dep.synth_series(LW2, dep.ExponentialCov(tau=50.0), 4000, seed=44)
    tau, k = 50.0, 10
    got = dep.qc_hat_corr(series, k, 2, tau=tau, s=3.0).theta_hat
    sieved = dep.sieve(series, 3.0, 1.0, max_points=k + 1)
    ordered = est.OrderedSample(top=sieved.selected_values[:k],
                                n=dep.n_star(series.n, tau, 0.08))
    want = est.theta_hat(ordered, k)
    assert got == want


def test_corrected_rho_uses_effective_size():
    series = dep.synth_series(LW2, dep.ExponentialCov(tau=50.0), 4000, seed=45)
    tau, k = 50.0, 12
    got = dep.qc_hat_corr(series, 1, k, tau=tau, s=3.0).rho_hat
    sieved = dep.sieve(series, 3.0, 1.0, max_points=k + 1)
    ordered = est.OrderedSample(top=sieved.selected_values[:k],
                                n=dep.n_star(series.n, tau, 0.08))
    want = est.rho_hat(ordered, k)
    assert got == want


def test_corrected_estimators_need_enough_sieved_points():
    series = tm.Sample(values=np.arange(200.0, 0.0, -1.0), n=200, seed=0)
    with pytest.raises(InsufficientSievedPoints):
        dep.qc_hat_corr(series, 10, 10, tau=100.0, s=50.0, beta=0.0)
    # the sieve keeps indices 0, 51, 102 and 153: 4 picks serve windows of
    # at most 3, the first k of k + 1
    e = dep.qc_hat_corr(series, 3, 3, tau=100.0, s=50.0, beta=0.0)
    ordered = est.OrderedSample(top=np.array([200.0, 149.0, 98.0]),
                                n=200 / 9.0)
    assert e.theta_hat == est.theta_hat(ordered, 3)
    assert e.rho_hat == est.rho_hat(ordered, 3)
    with pytest.raises(InsufficientSievedPoints,
                       match="^sieve kept 4 points, need 5$"):
        dep.qc_hat_corr(series, 4, 3, tau=100.0, s=50.0, beta=0.0)


@pytest.mark.parametrize("windows, message", [
    ((150, None), "k_theta=150 exceeds the effective size n* = 111.111"),
    ((None, 112), "k_rho=112 exceeds the effective size n* = 111.111"),
])
def test_corrected_window_above_effective_size_is_rejected(windows, message):
    # n* = 1000 / (1 + 0.08 * 100): a corrected window holds at most n*
    # values, as an uncorrected one holds at most n
    series = tm.sample_iid(LW2, 1000, seed=1)
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        dep.qc_hat_corr(series, *windows, tau=100.0)
    assert dep.qc_hat_corr(series, 111, 20, tau=100.0).k_theta == 111


def test_corrected_estimators_reject_vanishing_effective_size():
    series = tm.sample_iid(LW2, 100, seed=1)
    with pytest.raises(ArgumentError):
        dep.qc_hat_corr(series, tau=1e5)


@pytest.mark.parametrize("bad", [4.7, math.nan, math.inf])
@pytest.mark.parametrize("name", ["k_theta", "k_rho"])
def test_corrected_estimators_reject_non_integer_windows(name, bad):
    series = tm.sample_iid(LW2, 2000, seed=6)
    with pytest.raises(ArgumentError, match=f"{name} must be an integer"):
        dep.qc_hat_corr(series, tau=10.0, **{name: bad})


def test_corrected_estimators_take_numpy_integer_windows():
    series = dep.synth_series(LW2, dep.ExponentialCov(tau=50.0), 4000, seed=44)
    e = dep.qc_hat_corr(series, np.int64(10), np.int16(40), tau=50.0, s=3.0)
    assert e == dep.qc_hat_corr(series, 10, 40, tau=50.0, s=3.0)
    assert type(e.k_theta) is int and type(e.k_rho) is int
