"""Distribution-layer tests: exponent functions, inverses, sampling, file I/O.

Reference values come from closed forms and frozen high-precision constants
in oracles.py; derivative identities are checked by finite differences.
"""

import dataclasses
import io
import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special as sp
from scipy import stats as sps
from scipy.special import ndtr

import oracles
import momentgate.tail_models as tm
from momentgate.errors import ArgumentError, DataFormatError, DomainError

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
], ids=["lognormal-rho", "sample-length", "model-parameter", "h-below-support",
        "rho_local-at-zero-h", "sample_iid-empty"])
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


def _lines_past_one_block(extra):
    """A header, 70,000 numeric lines and ``extra`` appended: the extra line
    is file line 70,002, in the second 2^16-line block."""
    return "# seed=1\n" + "0.5\n" * 70_000 + extra


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
    text = text.replace("0.5\n", "\t# mid=1\n", 1)
    values, meta = tm.read_sample(io.StringIO(text))
    assert meta == {"seed": "9", "mid": "1", "note": "late"}
    assert len(values) == 70_000 and values[-1] == 2.5
    assert np.all(values[:-1] == 0.5)


def test_read_sample_crlf_blanks_and_whitespace():
    text = "# seed=4, model=lognormal\r\n\r\n 1.5\r\n\t-2.25 \r\n   \r\n3e-310\r\n\r\n"
    values, meta = tm.read_sample(io.StringIO(text, newline=""))
    np.testing.assert_array_equal(values, [1.5, -2.25, 3e-310])
    assert meta == {"seed": "4", "model": "lognormal"}
    with pytest.raises(DataFormatError, match="line 4: not a number: '1.0 2.0'"):
        tm.read_sample(io.StringIO("1\r\n\r\n2\r\n1.0 2.0\r\n", newline=""))
