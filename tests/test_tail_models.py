"""Distribution-layer tests: exponent functions, inverses, sampling, file I/O.

Reference values come from closed forms and frozen high-precision constants
in oracles.py; derivative identities are checked by finite differences.
"""

import dataclasses
import decimal
import io
import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from scipy import special as sp
from scipy import stats as sps
from scipy.special import ndtr

import oracles
import momentgate.tail_models as tm
from momentgate.errors import (ArgumentError, DataFormatError, DomainError,
                               MomentgateError)

LW2 = tm.log_weibull(2.0)
LW15 = tm.log_weibull(1.5)
SLEP2 = tm.strict_log_exp_power(2.0)
SLEP15 = tm.strict_log_exp_power(1.5)
SLEP4 = tm.strict_log_exp_power(4.0)
LN = tm.log_normal()

ALL_MODELS = [LW2, LW15, SLEP2, SLEP15, SLEP4, LN]


def grid(model):
    if model.support_lo == 0.0:
        return np.linspace(0.05, 25.0, 37)
    return np.linspace(-6.0, 25.0, 37)


# ---------------------------------------------------------------- exponent


def test_log_weibull_exponent_is_power_law():
    assert tm.h(LW2, 4.0) == 16.0
    assert tm.h(tm.log_weibull(3.0), 1.0) == 1.0
    y = np.linspace(0.0, 9.0, 13)
    np.testing.assert_allclose(tm.h(LW15, y), y**1.5, rtol=1e-15)


def test_log_normal_exponent_frozen_values():
    for y, ref in oracles.H_STD_NORMAL.items():
        assert tm.h(LN, y) == pytest.approx(ref, rel=1e-14)


def test_symmetric_power_exponent_frozen_values():
    assert tm.h(SLEP2, 2.0) == pytest.approx(oracles.SLEP2_H_2, rel=1e-13)
    assert tm.h(SLEP2, 5.0) == pytest.approx(oracles.SLEP2_H_5, rel=1e-13)
    assert -math.expm1(-tm.h(SLEP2, -1.3)) == pytest.approx(
        oracles.SLEP2_CDF_M13, rel=1e-13)


def test_far_tail_incomplete_gamma_switchover():
    # public h hits the asymptotic ln Q branch once |y|^rho >= 600
    for (a, x), ref in oracles.LN_UPPER_GAMMA.items():
        rho = 1.0 / a
        model = tm.strict_log_exp_power(rho)
        y = x ** (1.0 / rho)
        expected = math.log(2.0) - ref
        assert tm.h(model, y) == pytest.approx(expected, rel=1e-13)


def test_exponent_smooth_across_series_switch():
    # second difference of h stays tiny through the asymptotic switch point
    for rho in (2.0, 4.0):
        model = tm.strict_log_exp_power(rho)
        y0 = 600.0 ** (1.0 / rho)
        ys = np.linspace(y0 - 0.01, y0 + 0.01, 41)
        hs = tm.h(model, ys)
        second = np.diff(hs, 2)
        assert np.all(np.abs(second) < 1e-5 * np.abs(hs[1:-1]).max())


def test_survival_function_matches_exponent():
    for model in ALL_MODELS:
        y = grid(model)
        keep = tm.h(model, y) < 600.0
        np.testing.assert_allclose(oracles.sf(model, y[keep]),
                                   np.exp(-tm.h(model, y[keep])), rtol=1e-10)


def test_cdf_plus_sf_is_one():
    # exp(-h) is the survival function: with the closed-form cdf it sums to 1
    for model in ALL_MODELS:
        y = grid(model)
        np.testing.assert_allclose(oracles.cdf(model, y)
                                   + np.exp(-tm.h(model, y)), 1.0, rtol=1e-12)


def test_symmetric_family_reflection():
    y = np.linspace(0.1, 5.0, 17)
    for model in (SLEP15, SLEP2, SLEP4):
        # F(-y) = 1 - F(y): e^{-h(-y)} = 1 - e^{-h(y)}
        np.testing.assert_allclose(-np.expm1(-tm.h(model, y)),
                                   np.exp(-tm.h(model, -y)), rtol=1e-12)
        assert tm.h(model, 0.0) == pytest.approx(math.log(2.0), rel=1e-14)


@pytest.mark.parametrize("rho", [200.0, 1e3, 1e4])
def test_slep_exponent_where_the_power_underflows(rho):
    # below |y| = t, |y|^rho is below the normal doubles and P(1/rho, |y|^rho)
    # = |y| / Gamma(1 + 1/rho): h = ln 2 - log1p(-y / Gamma(1 + 1/rho)); just
    # above t the incomplete-gamma route gives the same to rounding
    model = tm.strict_log_exp_power(rho)
    t = sys.float_info.min ** (1.0 / rho)
    g = math.gamma(1.0 + 1.0 / rho)
    for y in (-0.999 * t, -0.5 * t, -1e-3 * t, 1e-3 * t, 0.5 * t, 0.999 * t,
              1.001 * t, -1.001 * t):
        want = math.log(2.0) - math.log1p(-y / g)
        assert tm.h(model, y) == pytest.approx(want, rel=1e-13, abs=0.0)
        assert tm.h_inv(model, tm.h(model, y)) == pytest.approx(y, rel=1e-12)


@pytest.mark.parametrize("rho", [200.0, 1e3, 1e4, 1e300])
def test_slep_sample_mean_abs_at_large_rho(rho):
    # E|Y| = Gamma(2/rho) / Gamma(1/rho) = Gamma(1 + 2/rho) / (2 Gamma(1 + 1/rho)),
    # about 1/2; no draw collapses to the value at y = 0
    y = np.abs(tm.sample_iid(tm.strict_log_exp_power(rho), 100_000,
                             seed=0).values)
    want = math.gamma(1.0 + 2.0 / rho) / (2.0 * math.gamma(1.0 + 1.0 / rho))
    assert abs(y.mean() - want) < 5.0 * y.std() / math.sqrt(len(y))
    assert np.count_nonzero(y == 0.0) == 0


# ------------------------------------------------------------- derivatives


def _central_fd(f, y, step):
    return (f(y + step) - f(y - step)) / (2.0 * step)


def test_h_prime_matches_finite_difference():
    for model in ALL_MODELS:
        y = grid(model)
        step = 1e-6 * np.maximum(1.0, np.abs(y))
        fd = _central_fd(lambda t: tm.h(model, t), y, step)
        np.testing.assert_allclose(tm.h_prime(model, y), fd,
                                   rtol=2e-6, atol=1e-11)


def test_score_matches_finite_difference():
    # s = -(ln p)' and s' = s', each against a difference quotient
    for model in ALL_MODELS:
        y = grid(model)
        step = 1e-6 * np.maximum(1.0, np.abs(y))
        fd = _central_fd(lambda t: -tm.log_pdf(model, t), y, step)
        np.testing.assert_allclose(tm.score(model, y), fd,
                                   rtol=2e-6, atol=1e-9)
        fd = _central_fd(lambda t: tm.score(model, t), y, step)
        np.testing.assert_allclose(tm.score_prime(model, y), fd,
                                   rtol=2e-6, atol=1e-9)


def test_score_inverts_score_inv():
    q = np.logspace(-6.0, 4.0, 61)
    for model in ALL_MODELS + [tm.strict_log_exp_power(1.05),
                               tm.log_weibull(1.05), tm.log_weibull(8.0)]:
        np.testing.assert_allclose(tm.score(model, tm.score_inv(model, q)), q,
                                   rtol=1e-12, atol=1e-12)


def test_score_rejects_log_weibull_edge():
    for f in (tm.score, tm.score_prime):
        for y in (0.0, -1.0):
            with pytest.raises(DomainError):
                f(LW2, y)


def test_log_pdf_matches_cdf_derivative():
    for model in ALL_MODELS:
        y = grid(model)
        # cdf is flat to machine precision where the density underflows, so
        # the difference quotient only resolves p above ~1e-6
        y = y[tm.log_pdf(model, y) > math.log(1e-6)]
        step = 1e-4 * np.maximum(1.0, np.abs(y))
        fd = _central_fd(lambda t: oracles.cdf(model, t), y, step)
        np.testing.assert_allclose(np.exp(tm.log_pdf(model, y)), fd,
                                   rtol=2e-5)


def _float_call_args(name, model):
    if name == "quantile":
        return np.linspace(0.0005, 0.9995, 601)
    if name == "h_inv":
        return np.linspace(0.0, 50.0, 601)
    if name == "score_inv":
        return np.logspace(-6.0, 4.0, 601)
    lo = 0.05 if model.support_lo == 0.0 else -6.0
    y = np.linspace(lo, 25.0, 601)
    if name == "rho_local":
        y = y[tm.h(model, y) > 0.0]
    return y


@pytest.mark.parametrize("name", ["log_pdf", "h", "h_prime", "score",
                                  "score_prime", "rho_local",
                                  "quantile", "h_inv", "score_inv"])
def test_float_equals_array_element(name):
    f = getattr(tm, name)
    for model in ALL_MODELS:
        x = _float_call_args(name, model)
        arr = f(model, x)
        for v, want in zip(x.tolist(), arr):
            got = f(model, v)
            assert type(got) is float
            assert got == want, (tm.format_model(model), v)


def test_log_pdf_float_outside_log_weibull_support_rejected():
    for y in (0.0, -1.5):
        with pytest.raises(DomainError):
            tm.log_pdf(LW2, y)


def test_log_normal_hazard_below_the_mode_is_density_over_survival():
    # one form, sqrt(2/pi) / erfcx(y/sqrt(2)), serves both sides of 0
    y = np.linspace(-37.0, 0.0, 3701)
    np.testing.assert_allclose(tm.h_prime(LN, y), oracles.normal_hazard(y),
                               rtol=1e-12, atol=0.0)


def test_log_normal_far_tail_derivative_scaling():
    # h'(y)/y -> 1 in the far tail (Mills ratio limit)
    y = np.array([50.0, 200.0, 1000.0])
    ratio = tm.h_prime(LN, y) / y
    assert np.all(np.abs(ratio - 1.0) < 1.0 / y**2 + 1e-12)


# ------------------------------------------------------------- tail index


def test_local_tail_index_log_weibull_constant():
    y = np.linspace(0.3, 40.0, 23)
    np.testing.assert_allclose(tm.rho_local(LW15, y), 1.5, rtol=0)
    np.testing.assert_allclose(tm.rho_local(LW2, y), 2.0, rtol=0)


def test_local_tail_index_frozen_value():
    assert tm.rho_local(SLEP4, 50.0) == pytest.approx(
        oracles.SLEP4_RHO_LOCAL_50, rel=1e-8)


def test_local_tail_index_approaches_shape():
    for model, rho in ((SLEP2, 2.0), (SLEP4, 4.0), (LN, 2.0)):
        y = np.array([2.0, 5.0, 20.0, 80.0])
        vals = tm.rho_local(model, y)
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] == pytest.approx(rho, rel=2e-2)
        assert np.all(vals < rho + 1e-9)


@pytest.mark.parametrize("model", [
    *(tm.parse_model(f"{family}:rho={rho}")
      for family in ("logweibull", "slep") for rho in (1.5, 3.0, 1e3)), LN],
    ids=tm.format_model)
def test_tail_functions_at_the_ends_of_the_doubles(model):
    # where the powers overflow the values are their limits (+-inf, 0) and
    # rho_local is rho wherever h is inf; no NaN, and no NumPy warning (an
    # error in this suite)
    names = ("h", "h_prime", "score", "score_prime", "log_pdf", "rho_local")
    for y in (8.0, 1e100, 1e200, 1.7e308, -8.0, -1e100, -1e200, -1.7e308):
        if y < 0.0 and model.family is tm.Family.LOG_WEIBULL:
            continue
        for name in names:
            try:
                val = getattr(tm, name)(model, y)
            except MomentgateError:
                continue
            assert not math.isnan(val), (name, y)
        if tm.h(model, y) == math.inf:
            assert tm.rho_local(model, y) == model.rho, y


# ------------------------------------------------------ h_inv/quantile/cdf


def test_h_inv_inverts_h():
    hs = np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.5, math.log(2.0), 1.0, 12.0, 40.0, 599.0,
                   601.0, 700.0, math.log(sys.float_info.max)])
    for model in ALL_MODELS + [tm.strict_log_exp_power(1.05),
                               tm.log_weibull(8.0)]:
        np.testing.assert_allclose(tm.h(model, tm.h_inv(model, hs)), hs,
                                   rtol=1e-12)


def test_slep_rho_two_h_inv_matches_incomplete_gamma_route():
    # slep rho = 2 is N(0, 1/2): its closed form against the route every
    # other rho takes, Q(1/2, y^2) = 2 e^{-h} above the median
    hs = np.concatenate([np.geomspace(1e-12, 700.0, 4001),
                         math.log(2.0) + np.linspace(-2e-3, 2e-3, 41),
                         [np.nextafter(math.log(2.0), 0.0)]])
    upper = hs >= math.log(2.0)
    q = np.where(upper, 2.0 * np.exp(-hs), -2.0 * np.expm1(-hs))
    mag = np.sqrt(sp.gammainccinv(0.5, q))
    want = np.where(upper, mag, -mag)
    got = tm.h_inv(SLEP2, hs)
    big = np.abs(want) > 1e-3
    np.testing.assert_allclose(got[big], want[big], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(got[~big], want[~big], rtol=0.0, atol=1e-16)


def test_log_normal_h_keeps_left_tail_digits():
    # -log_ndtr(-y) keeps relative precision where 1 - F_Y(y) is near 1
    y = -37.0
    assert tm.h(LN, y) == pytest.approx(-math.log1p(-ndtr(y)), rel=1e-14)
    assert tm.h(LN, y) > 0.0


def test_h_inv_rejects_negative_or_nan():
    for bad in (-1e-300, -1.0, math.nan):
        with pytest.raises(DomainError):
            tm.h_inv(LW2, bad)


def test_quantile_round_trip():
    ps = np.array([1e-12, 1e-6, 0.01, 0.3, 0.5, 0.9, 1 - 1e-6, 1 - 1e-12])
    for model in ALL_MODELS:
        y = tm.quantile(model, ps)
        np.testing.assert_allclose(oracles.cdf(model, y), ps, rtol=1e-10)


def test_quantile_of_cdf_round_trip():
    # the p-near-1 side is covered by test_quantile_round_trip in tail space;
    # going through cdf values close to 1 quantizes sf at ~1e-16 absolute,
    # so keep h moderate here
    for model in ALL_MODELS:
        y = grid(model)
        y = y[(tm.h(model, y) < 12.0) & (oracles.cdf(model, y) > 1e-12)]
        np.testing.assert_allclose(tm.quantile(model, oracles.cdf(model, y)), y,
                                   rtol=1e-9, atol=1e-9)


def test_quantile_rejects_boundary_probabilities():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(DomainError):
            tm.quantile(LW2, p)


def test_log_weibull_quantile_closed_form():
    # 1 - F = e^{-y^rho} inverts to (-ln(1-p))^{1/rho}
    assert tm.quantile(LW2, 1 - math.exp(-1.0)) == pytest.approx(1.0,
                                                                 rel=1e-12)
    assert tm.quantile(tm.log_weibull(3.0), 1 - math.exp(-8.0)) == (
        pytest.approx(2.0, rel=1e-12))


@given(st.floats(min_value=1e-9, max_value=1 - 1e-9))
def test_quantile_cdf_inverse_property(p):
    for model in (LW2, SLEP2, LN):
        assert oracles.cdf(model, tm.quantile(model, p)) == pytest.approx(
            p, rel=1e-9)


# ---------------------------------------------------------------- sampling


def test_sampling_is_deterministic_in_seed():
    a = tm.sample_iid(LW2, 64, seed=7)
    b = tm.sample_iid(LW2, 64, seed=7)
    c = tm.sample_iid(LW2, 64, seed=8)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.n == 64 and a.seed == 7


@pytest.mark.parametrize("model", (LW2, SLEP2, LN))
def test_iid_rows_are_fresh_philox_streams(model):
    seeds = [0, 2**64 - 1, 7, 2**64, 2**128 - 1, 12345]
    n = 50
    rows = tm._iid_rows(model, n, seeds)
    for row, seed in zip(rows, seeds):
        u = np.maximum(oracles.philox_uniforms(seed, n), 2.0**-55)
        np.testing.assert_array_equal(row, tm.quantile(model, u))
        np.testing.assert_array_equal(row, tm.sample_iid(model, n, seed).values)
        np.testing.assert_array_equal(row, tm._iid_rows(model, n, [seed])[0])


# one model per h_inv kernel: a power, ndtri_exp scaled (slep rho=2),
# gammainccinv, and ndtri_exp itself
@pytest.mark.parametrize("model", (LW2, SLEP2, tm.strict_log_exp_power(3.0), LN))
@pytest.mark.parametrize("k", (1, 28, 300))
def test_iid_top_rows_are_the_largest_values_of_the_full_rows(model, k):
    n, seeds = 300, [0, 5, 2**64 + 9, 77]
    full = np.sort(tm._iid_rows(model, n, seeds), axis=-1)[:, n - k:]
    top = tm._iid_rows(model, n, seeds, top=k)
    assert top.shape == (len(seeds), k)
    np.testing.assert_array_equal(np.sort(top, axis=-1), full)


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_sampling_rejects_seed_outside_philox_keys(seed):
    with pytest.raises(ArgumentError, match=f"seed {seed} is outside"):
        tm.sample_iid(LW2, 10, seed)


@pytest.mark.parametrize("seed", [1.9, 1.0, "1", None])
def test_sampling_rejects_non_integer_seed(seed):
    with pytest.raises(ArgumentError, match="seed must be an integer"):
        tm.sample_iid(LW2, 10, seed)


@pytest.mark.parametrize("n", [10.5, 10.0, "10"])
def test_sampling_rejects_non_integer_size(n):
    with pytest.raises(ArgumentError, match="n must be an integer"):
        tm.sample_iid(LW2, n, 0)


def test_sampling_takes_numpy_integer_seeds():
    want = tm.sample_iid(LW2, 10, 7).values
    for seed in (np.uint64(7), np.int8(7), np.uint32(7)):
        sample = tm.sample_iid(LW2, 10, seed)
        np.testing.assert_array_equal(sample.values, want)
        assert type(sample.seed) is int and sample.seed == 7


def test_exponent_of_sample_is_unit_exponential():
    # h(Y) = -ln(1 - F(Y)) must be Exp(1); checks quantile/h consistency
    n = 100_000
    for model in (LW2, SLEP2, LN):
        y = tm.sample_iid(model, n, seed=123).values
        e = tm.h(model, y)
        se = e.std(ddof=1) / math.sqrt(n)
        assert abs(e.mean() - 1.0) < 5 * se
        assert abs(e.var(ddof=1) - 1.0) < 0.05


def test_sample_distribution_ks():
    for model in ALL_MODELS:
        y = tm.sample_iid(model, 10_000, seed=42).values
        res = sps.kstest(y, lambda t, m=model: oracles.cdf(m, t))
        assert res.pvalue > 0.01, (model.family, res)


def test_log_normal_sample_is_standard_normal():
    y = tm.sample_iid(LN, 100_000, seed=5).values
    assert abs(y.mean()) < 5.0 / math.sqrt(y.size)
    assert abs(y.std(ddof=1) - 1.0) < 0.01
    assert sps.kstest(y, ndtr).pvalue > 0.01


# ------------------------------------------------------------ model specs


def test_parse_format_round_trip():
    for spec in ("logweibull:rho=2", "logweibull:rho=1.5", "slep:rho=4",
                 "lognormal"):
        model = tm.parse_model(spec)
        assert tm.parse_model(tm.format_model(model)) == model


@given(st.sampled_from(["logweibull", "slep"]),
       st.floats(min_value=1.0, max_value=8.0, exclude_min=True))
@example("logweibull", 1.0000001)  # ":g" printed rho=1
@example("slep", 2.0000001)
def test_format_model_reads_back(family, rho):
    model = tm.parse_model(f"{family}:rho={rho!r}")
    assert tm.parse_model(tm.format_model(model)) == model


def test_parse_default_shape():
    assert tm.parse_model("logweibull").rho == 2.0
    assert tm.parse_model("slep").rho == 2.0


def test_parse_rejects_bad_specs():
    for spec in ("bogus", "logweibull:rho=1", "logweibull:rho=0.5",
                 "lognormal:rho=3", "slep:foo=1", "logweibull:rho=abc"):
        with pytest.raises(ArgumentError):
            tm.parse_model(spec)


def test_model_validation():
    with pytest.raises(ArgumentError):
        tm.log_weibull(1.0)
    with pytest.raises(ArgumentError):
        tm.strict_log_exp_power(0.9)


def test_model_fields_are_family_and_rho():
    assert [f.name for f in dataclasses.fields(tm.TailModel)] == ["family",
                                                                   "rho"]
    # the support's lower end follows from the family alone
    assert LW2.support_lo == 0.0
    assert SLEP15.support_lo == -math.inf
    assert LN.support_lo == -math.inf


@pytest.mark.parametrize("spec", ["logweibull:rho=inf", "slep:rho=inf",
                                  "slep:rho=nan", "logweibull:rho=1"])
def test_model_requires_finite_rho_above_one(spec):
    with pytest.raises(ArgumentError, match="rho must be finite and > 1"):
        tm.parse_model(spec)


@pytest.mark.parametrize("call, error, message", [
    (lambda: tm.TailModel(tm.Family.LOG_NORMAL, 3.0), ArgumentError,
     "lognormal has rho fixed at 2"),
    (lambda: tm.Sample(values=np.array([1.0, 2.0]), n=3, seed=0),
     ArgumentError, "values length must equal n >= 1"),
    (lambda: tm.parse_model("slep:rho"), ArgumentError,
     "malformed model parameter 'rho' in 'slep:rho'"),
    (lambda: tm.h(LW2, -1.0), DomainError, "logweibull h requires y >= 0"),
    (lambda: tm.rho_local(LW2, 0.0), DomainError,
     r"rho_local requires h\(y\) > 0"),
    (lambda: tm.sample_iid(LW2, 0, 0), ArgumentError, "n must be >= 1"),
    # beyond numpy's largest dimension: refused before anything is allocated
    (lambda: tm.sample_iid(LW2, 10 ** 22, 0), ArgumentError,
     r"n must be at most 2\^57, got 10{22}"),
], ids=["lognormal-rho", "sample-length", "model-parameter", "h-below-support",
        "rho_local-at-zero-h", "sample_iid-empty", "sample_iid-beyond-index"])
def test_model_and_sample_errors_name_their_cause(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


# -------------------------------------------------------------- file I/O


def test_sample_file_round_trip():
    sample = tm.sample_iid(LW2, 50, seed=11)
    buf = io.StringIO()
    tm.write_sample(buf, sample, LW2, extra_header={"note": "x"})
    buf.seek(0)
    values, meta = tm.read_sample(buf)
    np.testing.assert_array_equal(values, sample.values)  # 17 digits: exact
    assert meta["seed"] == "11"
    assert meta["model"] == "logweibull:rho=2"
    assert meta["note"] == "x"


def test_read_sample_accepts_headerless():
    values, meta = tm.read_sample(io.StringIO("1.5\n2.5\n"))
    np.testing.assert_array_equal(values, [1.5, 2.5])
    assert meta == {}


def test_read_sample_reports_bad_line():
    with pytest.raises(DataFormatError, match="line 3"):
        tm.read_sample(io.StringIO("# model=unknown\n1.0\nnot-a-number\n"))


def test_sample_rejects_nonfinite_values():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ArgumentError):
            tm.Sample(values=np.array([1.0, bad, 2.0]), n=3, seed=0)


def test_read_sample_rejects_empty():
    for text in ("", "# seed=1, model=lognormal\n\n  \n"):  # header only
        with pytest.raises(DataFormatError, match="no data values"):
            tm.read_sample(io.StringIO(text))


def test_write_sample_matches_per_value_format():
    values = np.concatenate([
        [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e308, -1e308, 1.0, -3.0, 2.0 ** 53,
         1e16, 123456789.0],
        np.random.Generator(np.random.Philox(key=5)).standard_normal(70_000),
    ])
    buf = io.StringIO()
    tm.write_sample(buf, tm.Sample(values=values, n=len(values), seed=2), LW2)
    header, body = buf.getvalue().split("\n", 1)
    assert header == "# seed=2, model=logweibull:rho=2"
    assert body == "".join(f"{v:.17g}\n" for v in values)


# a numeric line of 20 characters: 70,000 of them fill more than one chunk
_FILLER = "0.50000000000000000\n"


def _lines_past_one_block(extra):
    """A header, 70,000 numeric lines and ``extra`` appended: the extra line
    is file line 70,002, past the first chunk."""
    assert 70_000 * len(_FILLER) > tm._CHUNK
    return "# seed=1\n" + _FILLER * 70_000 + extra


@pytest.mark.parametrize("bad, message", [
    ("x1.5\n", "line 70002: not a number: 'x1.5'"),
    ("inf\n", "line 70002: not a finite number: 'inf'"),
    ("  -nan \n", "line 70002: not a finite number: '-nan'"),
    # a '#' line before the bad line in the same block
    ("# note=x\n2.5\n1.0 # c\n", "line 70004: not a number: '1.0 # c'"),
])
def test_read_sample_names_bad_line_past_first_block(bad, message):
    with pytest.raises(DataFormatError, match=message):
        tm.read_sample(io.StringIO(_lines_past_one_block(bad + "1.0\n")))


def test_read_sample_metadata_anywhere():
    text = _lines_past_one_block("   # note = late, seed=9\n2.5\n")
    text = text.replace(_FILLER, "\t# mid=1\n", 1)
    values, meta = tm.read_sample(io.StringIO(text))
    assert meta == {"seed": "9", "mid": "1", "note": "late"}
    assert len(values) == 70_000 and values[-1] == 2.5
    assert np.all(values[:-1] == 0.5)


def test_read_sample_line_split_at_chunk_seam():
    # the first chunk is the first data line and one read, which ends inside
    # data line i; the readline after it finishes that line
    end = len(_FILLER) + tm._CHUNK
    assert end % len(_FILLER)
    i = end // len(_FILLER)
    lines = _lines_past_one_block("").splitlines(True)
    lines[1 + i] = "1.23456789012345678\n"
    values, _ = tm.read_sample(io.StringIO("".join(lines)))
    assert len(values) == 70_000
    assert values[i] == 1.23456789012345678 and values[i + 1] == 0.5
    lines[1 + i] = "0.500000000000000?0\n"
    with pytest.raises(DataFormatError,
                       match=rf"^line {i + 2}: not a number: '0.500000000000000\?0'$"):
        tm.read_sample(io.StringIO("".join(lines)))


def test_read_sample_without_trailing_newline():
    text = _lines_past_one_block("2.5")
    values, meta = tm.read_sample(io.StringIO(text))
    assert meta == {"seed": "1"}
    assert len(values) == 70_001 and values[-1] == 2.5
    values, _ = tm.read_sample(io.StringIO("1.5\n-2"))
    np.testing.assert_array_equal(values, [1.5, -2.0])


_DBL_MAX = float(np.finfo(float).max)


@st.composite
def _number_lines(draw):
    """Texts of one double: its common formats, or the exact decimal midpoint
    to the next double away from 0 and that midpoint's neighbours 1e-30 away."""
    x = draw(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-2 ** 52, 2 ** 52).map(lambda k: k * 5e-324),  # subnormal
        st.integers(0, 2 ** 10).map(lambda k: _DBL_MAX - k * math.ulp(_DBL_MAX)),
    ))
    how = draw(st.sampled_from(["%.17g", "repr", "int", "e", "f", "mid"]))
    if how == "%.17g":
        texts = ["%.17g" % x]
    elif how == "repr":
        texts = [repr(x)]
    elif how == "int":
        texts = [str(int(x))]
    elif how in ("e", "f"):
        texts = [f"%.{draw(st.integers(0, 30))}{how}" % x]
    else:
        with decimal.localcontext(prec=2000):
            mid = (decimal.Decimal(x)
                   + decimal.Decimal(math.copysign(math.ulp(x), x)) / 2)
            texts = [str(mid * (1 + e)) for e in (0, decimal.Decimal("1e-30"),
                                                  decimal.Decimal("-1e-30"))]
    # near DBL_MAX some texts ('2e+308', the midpoint above it) overflow
    return [t for t in texts if math.isfinite(float(t))]


@pytest.mark.parametrize("x87", [tm._X87, False], ids=["native", "double"])
@given(data=st.data())
def test_read_sample_is_float_bit_for_bit(x87, data):
    lines = sum(data.draw(st.lists(_number_lines(), min_size=2, max_size=40)), [])
    assume(len(lines) >= 2)
    text = "\n".join(lines) + "\n"
    chunk = data.draw(st.integers(1, max(1, len(text) // 3)))
    # the first chunk (the first line, one read and the rest of its last
    # line) ends before the text does, so the seam between chunks is crossed
    assume(0 < text.find("\n", len(lines[0]) + chunk) + 1 < len(text))
    with mock.patch.object(tm, "_X87", x87), mock.patch.object(tm, "_CHUNK", chunk):
        values, _ = tm.read_sample(io.StringIO(text))
    expected = np.array([float(t) for t in lines])
    np.testing.assert_array_equal(values.view(np.uint64), expected.view(np.uint64))


def _neighbours(x, steps):
    """The doubles from ``steps`` ulps below x to ``steps`` above."""
    xs = [x]
    for _ in range(steps):
        xs = [float(np.nextafter(xs[0], -math.inf)), *xs,
              float(np.nextafter(xs[-1], math.inf))]
    return xs


def _midpoints(x, steps):
    """Exact decimal texts of the midpoints between _neighbours(x, steps),
    each with its neighbours 1e-30 away relatively, which a read in more
    precision than a double's rounds onto the midpoint."""
    xs = _neighbours(x, steps)
    with decimal.localcontext(prec=2000):
        return [str((decimal.Decimal(a) + decimal.Decimal(b)) / 2 * (1 + e))
                for a, b in zip(xs, xs[1:])
                for e in (0, decimal.Decimal("1e-30"), decimal.Decimal("-1e-30"))]


@pytest.mark.parametrize("x87", [tm._X87, False], ids=["native", "double"])
def test_read_sample_is_float_bit_for_bit_at_the_smallest_normal(x87):
    # the x87 read rounds twice below 2^-1022 and is repaired there; one chunk
    # of values on both sides of that edge, down to the subnormals and zero
    tiny = 2.0 ** -1022
    subnormal = [k * 5e-324 for k in (1, 2, 3, 4, 5, 2 ** 51 - 1, 2 ** 51,
                                      2 ** 52 - 1)]
    subnormal += [2.0 ** e for e in range(-1073, -1022)]
    xs = [*_neighbours(tiny, 8), *subnormal, 0.0]
    xs += [-x for x in xs]
    lines = [t for x in xs for t in ("%.17g" % x, repr(x), "%.24e" % x)]
    lines += _midpoints(1.0, 3) + _midpoints(tiny, 3) + _midpoints(5e-324, 1)
    text = "\n".join(lines) + "\n"
    assert len(text) < tm._CHUNK
    with mock.patch.object(tm, "_X87", x87):
        values, _ = tm.read_sample(io.StringIO(text))
    expected = np.array([float(t) for t in lines])
    np.testing.assert_array_equal(values.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("text, read", [
    ("1\n0x10\n", "line 2: not a number: '0x10'"),
    ("1\nnan(1)\n", "line 2: not a number: 'nan(1)'"),
    ("1\n1 2\n", "line 2: not a number: '1 2'"),
    ("1e\n2\n", "line 1: not a number: '1e'"),
    ("1\n1e309\n", "line 2: not a finite number: '1e309'"),
    # 2^53 + 1 is a midpoint, read again from its line
    ("1\n\n9007199254740993\n\n", [1.0, 2.0 ** 53]),
    ("\t1.5\t\n2\n", [1.5, 2.0]),
    ("1\r\n2\r\n", [1.0, 2.0]),
    ("1\n\v2\f\n\x1c3\n", [1.0, 2.0, 3.0]),
    ("1_000\n", [1000.0]),
    ("\u0661.5\n", [1.5]),
], ids=["hex", "nan-payload", "two-numbers", "bad-exponent", "overflow",
        "blank-lines", "tabs", "crlf", "other-whitespace", "underscore",
        "non-ascii-digit"])
def test_read_sample_keeps_float_semantics(text, read):
    """What float() accepts and refuses, on the chunk read and the double one."""
    for x87 in (tm._X87, False):
        with mock.patch.object(tm, "_X87", x87):
            if isinstance(read, str):
                with pytest.raises(DataFormatError, match=f"^{re.escape(read)}$"):
                    tm.read_sample(io.StringIO(text))
            else:
                np.testing.assert_array_equal(
                    tm.read_sample(io.StringIO(text))[0], read)


def test_read_sample_skips_blank_line_starting_a_chunk():
    # numpy reads a lone '\n' as one value (0 or -1)
    with mock.patch.object(tm, "_CHUNK", 4):
        for x87 in (tm._X87, False):
            with mock.patch.object(tm, "_X87", x87):
                values, meta = tm.read_sample(io.StringIO("# a=1\n1.5\n2.5\n\n"))
                np.testing.assert_array_equal(values, [1.5, 2.5])
                assert meta == {"a": "1"}


def test_read_sample_rejects_undecodable_bytes():
    stream = io.TextIOWrapper(io.BytesIO(b"# seed=1\n1.5\n\xff2.0\n3\n"),
                              encoding="utf-8")
    with pytest.raises(DataFormatError,
                       match=r"^sample file is not utf-8 text: invalid start byte b'\\xff'$"):
        tm.read_sample(stream)


def test_read_sample_crlf_blanks_and_whitespace():
    text = "# seed=4, model=lognormal\r\n\r\n 1.5\r\n\t-2.25 \r\n   \r\n3e-310\r\n\r\n"
    values, meta = tm.read_sample(io.StringIO(text, newline=""))
    np.testing.assert_array_equal(values, [1.5, -2.25, 3e-310])
    assert meta == {"seed": "4", "model": "lognormal"}
    with pytest.raises(DataFormatError, match="line 4: not a number: '1.0 2.0'"):
        tm.read_sample(io.StringIO("1\r\n\r\n2\r\n1.0 2.0\r\n", newline=""))
