"""Theory-layer tests: frontier root, saddle location, moment integrals,
critical order, and the piecewise sample-sum prediction.

Closed forms exist for the power-law exponent family (y_dagger, y_star, and
the q_c pair are all elementary there) and for the standard normal exponent
(E X^q = e^{q^2/2}); the rest is checked against frozen constants and
internal consistency identities.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
import momentgate.tail_models as tm
import momentgate.theory as th
from momentgate.errors import (
    ArgumentError,
    ConvergenceError,
    DegenerateSaddleError,
    DomainError,
    MomentgateError,
)

LW2 = tm.log_weibull(2.0)
LW15 = tm.log_weibull(1.5)
LW3 = tm.log_weibull(3.0)
SLEP2 = tm.strict_log_exp_power(2.0)
LN = tm.log_normal()

E4 = math.exp(4.0)


# ------------------------------------------------------------ frontier root


def test_y_dagger_power_law_closed_form():
    assert th.y_dagger(LW2, E4) == pytest.approx(2.0, rel=1e-12)
    assert th.y_dagger(LW3, math.exp(9.0)) == pytest.approx(oracles.CBRT_9,
                                                            rel=1e-12)
    for model in (LW15, LW2, LW3):
        for n in (10.0, 1e4, 1e8, 1e17, 1e300, sys.float_info.max):
            expected = math.log(n) ** (1.0 / model.rho)
            assert th.y_dagger(model, n) == pytest.approx(expected, rel=1e-10)


def test_y_dagger_slep_where_the_power_underflows():
    # h(y) = ln 2 - log1p(-y / Gamma(1.001)) = ln 3 at y = Gamma(1.001) / 3,
    # where y^1000 is far below the normal doubles
    got = th.critical_curve(tm.strict_log_exp_power(1e3), 3).y_dagger
    assert got == pytest.approx(math.gamma(1.001) / 3.0, rel=1e-12)


def test_y_dagger_normal_exponent_frozen():
    for n, ref in oracles.STD_NORMAL_Y_DAGGER.items():
        assert th.y_dagger(LN, n) == pytest.approx(ref, rel=1e-12)


def test_y_dagger_defining_equation():
    for model in (LW2, SLEP2, LN):
        for n in (2.0, 57.3, 1e3, 1e9, 1e17, 1e100, 1e300,
                  sys.float_info.max):
            yd = th.y_dagger(model, n)
            assert tm.h(model, yd) == pytest.approx(math.log(n), rel=1e-10)


def test_y_dagger_requires_two_points():
    for n in (1.0, math.inf, math.nan):
        with pytest.raises(ArgumentError):
            th.y_dagger(LW2, n)
    assert th.y_dagger(LW2, 2.0) > 0.0
    # symmetric families: the frontier at n = 2 is the median, +0.0, where
    # critical_curve takes its y_dagger == 0 branch
    for model in (SLEP2, LN):
        yd = th.y_dagger(model, 2.0)
        assert yd == 0.0 and math.copysign(1.0, yd) == 1.0
        c = th.critical_curve(model, 2.0)
        assert c.theta == math.inf
        assert c.qc_approx == tm.h_prime(model, 0.0)


def test_frontier_closed_form_over_whole_domain():
    models = (LW15, tm.log_weibull(8.0), SLEP2, tm.strict_log_exp_power(1.05),
              tm.strict_log_exp_power(8.0), LN)
    for model in models:
        for n in (1e17, 1e100, 1e300, sys.float_info.max):
            c = th.critical_curve(model, n)
            assert all(math.isfinite(v) for v in vars(c).values())
            assert tm.h(model, c.y_dagger) == pytest.approx(math.log(n),
                                                            rel=1e-12)


# ------------------------------------------------------------ saddle point


def test_y_star_power_law_closed_form():
    # for h = y^2: q = -(ln p)'(y) = 2y - 1/y, so y* = (q + sqrt(q^2 + 8))/4
    assert th.y_star(LW2, 3.5) == pytest.approx(2.0, rel=1e-12)
    for q in (1e-6, 0.01, 0.5, 1.0, 7.3, 100.0, 1e4):
        assert th.y_star(LW2, q) == pytest.approx(
            (q + math.sqrt(q * q + 8.0)) / 4.0, rel=1e-14)


def test_y_star_symmetric_power_closed_form():
    # positive branch: q = rho y^{rho-1}(1 + o(1)) with the exact correction
    # cancelling, so y* = (q/rho)^{1/(rho-1)} exactly
    assert th.y_star(SLEP2, 7.0) == pytest.approx(3.5, rel=1e-9)


def test_y_star_normal_exponent_identity():
    # -(ln p)'(y) = y, so the defining equation collapses to y* = q
    for q in (0.5, 2.0, 5.0, 17.0):
        assert th.y_star(LN, q) == pytest.approx(q, rel=1e-9)


def test_y_star_monotone_in_q():
    qs = np.linspace(0.5, 40.0, 23)
    for model in (LW15, LW2, SLEP2, LN):
        ys = np.array([th.y_star(model, q) for q in qs])
        assert np.all(np.diff(ys) > 0)


def test_y_star_rejects_nonpositive_order():
    with pytest.raises(DomainError):
        th.y_star(LW2, 0.0)
    with pytest.raises(DomainError):
        th.y_star(LW2, -1.0)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            tm.score_inv(LW2, np.array([1.0, bad]))


def _score(model, y):
    """-(ln p_Y)'(y) in closed form, and its largest term as the scale its
    rounding is measured against (the slope itself, except logweibull's
    rho y^(rho-1) - (rho-1)/y, whose terms cancel as q -> 0)."""
    r = model.rho
    if model.family is tm.Family.LOG_NORMAL:
        return y, y
    lead = r * y ** (r - 1.0)
    if model.family is tm.Family.LOG_WEIBULL:
        return lead - (r - 1.0) / y, lead
    return lead, lead


@given(st.sampled_from(["logweibull", "slep", "lognormal"]),
       st.floats(min_value=1.0, max_value=8.0, exclude_min=True),
       st.floats(min_value=-300.0, max_value=4.0))
# brentq stopped converging for logweibull below about q = 1e-156
@example("logweibull", 1.5, -200.0)
def test_y_star_solves_score_equation_or_raises(family, rho, log10_q):
    model = tm.parse_model(family if family == "lognormal"
                           else f"{family}:rho={rho!r}")
    q = 10.0 ** log10_q
    try:
        ys = th.y_star(model, q)
    except MomentgateError:
        return
    assert type(ys) is float and math.isfinite(ys)
    score, scale = _score(model, ys)
    assert abs(score - q) <= 1e-12 * scale, (family, rho, q, ys)


def test_y_star_finite_where_the_bracket_search_failed():
    for rho in (1.05, 1.5):
        model = tm.strict_log_exp_power(rho)
        for q in np.logspace(-6.0, math.log10(0.35), 40):
            ys = th.y_star(model, q)
            assert ys == pytest.approx((q / rho) ** (1.0 / (rho - 1.0)),
                                       rel=1e-13)
    lw = tm.log_weibull(1.05)
    for q in (1122.0, 5e3, 1e4, 1e6):
        score, scale = _score(lw, th.y_star(lw, q))
        assert abs(score - q) <= 1e-12 * scale


def test_y_star_overflow_is_domain_error():
    for model, q in ((tm.strict_log_exp_power(1.01), 1259.0),
                     (tm.strict_log_exp_power(1.001), 2.1),
                     (tm.log_weibull(1.001), 10.0),
                     (LN, math.inf)):
        with pytest.raises(DomainError, match="outside the normal doubles"):
            th.y_star(model, q)


# ----------------------------------------------------------- critical curve


def test_critical_curve_power_law_example():
    c = th.critical_curve(LW2, E4)
    assert c.y_dagger == pytest.approx(2.0, rel=1e-12)
    assert c.theta == pytest.approx(2.0, rel=1e-12)
    assert c.rho_l_at_dagger == pytest.approx(2.0, rel=1e-12)
    assert c.qc_exact == pytest.approx(3.5, rel=1e-12)
    assert c.qc_approx == pytest.approx(4.0, rel=1e-12)


def test_critical_curve_normal_exponent_frozen():
    c = th.critical_curve(LN, 1e3)
    assert c.theta == pytest.approx(oracles.STD_NORMAL_THETA_1000, rel=1e-12)
    assert c.qc_approx == pytest.approx(oracles.STD_NORMAL_QC_APPROX_1000,
                                        rel=1e-12)
    assert c.qc_exact == pytest.approx(c.y_dagger, rel=1e-12)


def test_critical_curve_identities():
    for model in (LW15, LW2, SLEP2, LN):
        for n in (50.0, 1e3, 1e7):
            c = th.critical_curve(model, n)
            hp = tm.h_prime(model, c.y_dagger)
            assert c.theta * c.rho_l_at_dagger == pytest.approx(hp, rel=1e-12)
            score, scale = _score(model, c.y_dagger)
            assert abs(c.qc_exact - score) <= 1e-12 * scale
            assert c.qc_exact <= c.qc_approx + 1e-12


def test_qc_approx_power_law_closed_form():
    for rho in (1.5, 2.0, 3.0):
        model = tm.log_weibull(rho)
        for n in (1e2, 1e4, 1e6):
            expected = rho * math.log(n) ** (1.0 - 1.0 / rho)
            c = th.critical_curve(model, n)
            assert c.qc_approx == pytest.approx(expected, rel=1e-9)


def test_frontier_round_trip_through_saddle():
    # the exact critical order is defined so its saddle sits on the frontier
    for model in (LW2, SLEP2, LN):
        for n in (1e2, 1e4, 1e6):
            c = th.critical_curve(model, n)
            assert th.y_star(model, c.qc_exact) == pytest.approx(c.y_dagger,
                                                                 rel=1e-8)


def test_qc_approx_normal_exponent_scaling():
    # qc_approx grows like sqrt(2 ln n); the normalized values flatten
    ratios = [th.critical_curve(LN, n).qc_approx / math.sqrt(math.log(n))
              for n in (1e3, 1e6, 1e9, 1e12)]
    assert max(ratios) / min(ratios) < 1.10
    assert all(r < math.sqrt(2.0) for r in ratios)


def test_local_tail_index_at_frontier_increases():
    vals = [th.critical_curve(LN, n).rho_l_at_dagger for n in (1e2, 1e4, 1e8)]
    np.testing.assert_allclose(vals, [1.34636, 1.59838, 1.76103], atol=2e-5)
    assert vals[0] < vals[1] < vals[2] < 2.0


# ---------------------------------------------------------------- moments


def test_moment_quadrature_power_law_closed_form():
    for q in (1.0, 3.0):
        got = th.moment_quadrature(LW2, q)
        assert got == pytest.approx(oracles.LW2_LOG_MOMENT[q], rel=1e-10)
        assert got == pytest.approx(oracles.lw2_log_moment(q), rel=1e-10)


def test_moment_quadrature_normal_exponent_exact():
    for q in (0.5, 1.0, 2.0, 5.0, 10.0, 17.0):
        assert th.moment_quadrature(LN, q) == pytest.approx(
            q * q / 2.0, rel=1e-8)


def test_moment_is_log_convex_in_q():
    qs = np.linspace(0.5, 12.0, 24)
    for model in (LW2, SLEP2, LN):
        vals = np.array([th.moment_quadrature(model, q)
                         for q in qs])
        assert np.all(np.diff(vals, 2) > -1e-9)


def test_moment_quadrature_slep_near_rho_one():
    # the saddle sits at (q/1.05)^20, next to the kink of |y|^rho at 0
    model = tm.strict_log_exp_power(1.05)
    vals = [th.moment_quadrature(model, q) for q in (0.05, 0.1, 0.2, 0.3)]
    assert all(math.isfinite(v) for v in vals)
    assert np.all(np.diff(vals) > 0.0)


@pytest.mark.parametrize("model, q", [
    (tm.strict_log_exp_power(1.1), 70.0),
    (tm.log_weibull(1.1), 89.12509381337459),
])
def test_moment_quadrature_overflow_is_convergence_error(model, q):
    # y* ~ 1e18: the integrand's exponent rounds past exp's range
    with pytest.raises(ConvergenceError, match=f"overflowed at q={q}"):
        th.moment_quadrature(model, q)


def test_moment_continuous_at_zero_order():
    assert abs(th.moment_quadrature(LW2, 1e-8)) < 1e-6


def test_moment_quadrature_splits_at_zero_where_y_star_underflows():
    # slep rho = 1.001: y* = (q/rho)^1000 is below the normal doubles, so the
    # integral splits at the mode 0; ln E e^{qY} ~ q^2 E Y^2 / 2 as q -> 0
    model = tm.strict_log_exp_power(1.001)
    with pytest.raises(DomainError):
        th.y_star(model, 1e-3)
    q, r = 1e-3, model.rho
    expected = q * q * math.gamma(3.0 / r) / (2.0 * math.gamma(1.0 / r))
    assert th.moment_quadrature(model, q) == pytest.approx(expected, rel=1e-5)
    vals = [th.moment_quadrature(model, q) for q in (1e-3, 0.1, 0.4)]
    assert np.all(np.diff(vals) > 0.0)


@pytest.mark.parametrize("rho", [1.5, 3.0, 8.0, 200.0])
@pytest.mark.parametrize("q", [1e-4, 1e-3])
def test_moment_quadrature_small_q_matches_cumulant_series(rho, q):
    # Y symmetric: ln E e^{qY} = q^2 k2/2 + q^4 k4/24 + O(q^6), with
    # E Y^{2j} = Gamma((2j+1)/rho) / Gamma(1/rho); the log is ~1e-9 here, so
    # an absolute error of 1e-12 in E X^q would show.  At rho = 200 the
    # density is a box on [-1, 1] whose walls are ~1/rho wide
    g = [math.gamma((2 * j + 1) / rho) / math.gamma(1.0 / rho) for j in (0, 1, 2)]
    k2, k4 = g[1], g[2] - 3.0 * g[1] ** 2
    series = q * q * k2 / 2.0 + q ** 4 * k4 / 24.0
    got = th.moment_quadrature(tm.strict_log_exp_power(rho), q)
    assert got == pytest.approx(series, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("model, q_max", [
    (LN, 20.0), (LW15, 20.0), (LW3, 20.0), (SLEP2, 20.0),
    (tm.strict_log_exp_power(1.3), 20.0),
    (tm.strict_log_exp_power(1.001), 1.0),  # y* underflows below q ~ 0.5
])
def test_moment_integrals_array_equals_scalar_calls(model, q_max):
    # one batched call per grid; every order is refined on its own, so its
    # value does not depend on the rest of the grid
    qs = np.concatenate([np.geomspace(1e-4, q_max, 23), [0.7 * q_max, 0.5]])
    full = th.moment_quadrature(model, qs)
    assert full.shape == qs.shape
    for q, f in zip(qs.tolist(), full.tolist()):
        assert th.moment_quadrature(model, q) == f
    grid = th.moment_quadrature(model, qs[:24].reshape(4, 6))
    assert grid.shape == (4, 6) and np.array_equal(grid.ravel(), full[:24])


def test_moment_quadrature_array_raises_for_first_failing_order():
    model = tm.strict_log_exp_power(1.1)
    with pytest.raises(ConvergenceError, match="overflowed at q=70.0"):
        th.moment_quadrature(model, np.array([1.0, 70.0, -1.0]))
    with pytest.raises(DomainError, match="got -1.0"):
        th.moment_quadrature(model, np.array([1.0, -1.0, 70.0]))


@given(st.sampled_from(["logweibull", "slep", "lognormal"]),
       st.floats(min_value=1.0, max_value=8.0, exclude_min=True),
       st.floats(min_value=-300.0, max_value=4.0))
@example("logweibull", 1.5, -200.0)
# far past the drawn orders: q y* + ln p(y*) overflows at the peak itself
@example("lognormal", 2.0, 160.0)
@example("lognormal", 2.0, 300.0)
@example("logweibull", 2.0, 160.0)
@example("logweibull", 2.0, 300.0)
@example("slep", 2.0, 160.0)
@example("slep", 2.0, 300.0)
def test_moment_integrals_finite_or_typed_error(family, rho, log10_q):
    model = tm.parse_model(family if family == "lognormal"
                           else f"{family}:rho={rho!r}")
    q = 10.0 ** log10_q
    try:
        val = th.moment_quadrature(model, q)
    except MomentgateError as exc:
        assert f"q={q!r}" in str(exc) or f"q={q:.17g}" in str(exc), exc
        assert (log10_q <= 4.0 or
                str(exc) == f"moment quadrature integrand overflowed at q={q}")
        return
    assert log10_q <= 4.0, (model, q, val)
    assert type(val) is float and math.isfinite(val), (model, q, val)


@pytest.mark.parametrize("q", [0.5, 2.0, 10.0, 80.0])
def test_saddlepoint_exact_for_gaussian_log(q):
    # Y Gaussian: the Laplace form is exact (lognormal q^2/2, slep rho = 2
    # is N(0, 1/2), q^2/4)
    assert th.moment_saddlepoint(LN, q) == pytest.approx(q * q / 2.0,
                                                         rel=1e-12)
    assert th.moment_saddlepoint(SLEP2, q) == pytest.approx(q * q / 4.0,
                                                            rel=1e-12)


def test_saddlepoint_tracks_quadrature():
    for model in (LW2, LN):
        gaps = []
        for q in (10.0, 40.0, 80.0):
            exact = th.moment_quadrature(model, q)
            sp = th.moment_saddlepoint(model, q)
            gaps.append(abs(sp - exact) / abs(exact))
        assert gaps[1] < 0.02
        if model is LN:  # exact, see test_saddlepoint_exact_for_gaussian_log
            assert max(gaps) <= 1e-12, gaps
        else:
            assert gaps[0] > gaps[1] > gaps[2], gaps
            assert gaps[0] <= 1e-4 and gaps[2] <= 1e-9, gaps


@given(st.sampled_from(["logweibull", "slep", "lognormal"]),
       st.floats(min_value=1.0, max_value=8.0, exclude_min=True),
       st.floats(min_value=-6.0, max_value=4.0))
def test_saddlepoint_finite_or_typed_error(family, rho, log10_q):
    model = tm.parse_model(family if family == "lognormal"
                           else f"{family}:rho={rho!r}")
    q = 10.0 ** log10_q
    try:
        val = th.moment_saddlepoint(model, q)
    except MomentgateError as exc:
        assert f"q={q!r}" in str(exc) or f"q={q:.17g}" in str(exc), exc
        return
    assert type(val) is float and math.isfinite(val), (family, rho, q, val)


def test_saddlepoint_overflow_is_typed_error():
    # y* ~ 1e308 is a double, but q y* and ln p(y*) are not: no silent NaN
    with pytest.raises(DomainError, match="overflows at q=1200.0"):
        th.moment_saddlepoint(tm.strict_log_exp_power(1.01), 1200.0)


def test_slep_saddle_finite_where_q_y_star_overflows():
    # y* = 1.37e308 at q = 2.035 for rho = 1.001: q y* overflows, while
    # q y* + ln p(y*) = (1 - 1/rho) q y* - ln(2 Gamma(1 + 1/rho)) does not
    val = th.moment_saddlepoint(tm.strict_log_exp_power(1.001), 2.035)
    assert math.isfinite(val) and val == pytest.approx(2.7445e305, rel=1e-4)


@pytest.mark.parametrize("rho", [1.5, 2.0, 4.0])
@pytest.mark.parametrize("q", [0.5, 2.0, 10.0])
def test_slep_saddle_equals_laplace_form(rho, q):
    model = tm.strict_log_exp_power(rho)
    ys = th.y_star(model, q)
    laplace = (q * ys + tm.log_pdf(model, ys)
               + 0.5 * math.log(2.0 * math.pi / tm.score_prime(model, ys)))
    assert th.moment_saddlepoint(model, q) == pytest.approx(laplace, rel=1e-12)


def test_degenerate_saddle_is_reported(monkeypatch):
    # a log-density that is flat or convex at y* makes q y + ln p(y) stationary
    # there without a maximum, so the Gaussian correction is undefined
    for curv in (-0.5, 0.0, math.nan):
        monkeypatch.setattr(tm, "score_prime", lambda m, y, c=curv: c)
        with pytest.raises(DegenerateSaddleError, match="at q=2.0"):
            th.moment_saddlepoint(LW2, 2.0)


# ------------------------------------------------------ sample-sum profile


def test_predicted_profile_branches():
    n = 1e3
    c = th.critical_curve(LN, n)
    q_lo = 0.5 * c.qc_exact
    assert th.predicted_lnS(LN, n, q_lo) == th.moment_quadrature(LN, q_lo)
    q_hi = 2.0 * c.qc_exact
    expected = (q_hi * c.y_dagger - math.log(n)
                + math.log(tm.h_prime(LN, c.y_dagger)))
    assert th.predicted_lnS(LN, n, q_hi) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("model", [LW2, SLEP2, LN],
                         ids=["logweibull", "slep", "lognormal"])
def test_predicted_profile_grid_matches_each_order(model):
    # below qc_exact, exactly at it, and above it: the grid pass gives the
    # bits of the per-order rule, moment or q y_dagger - ln n + ln h'
    n = 1e3
    c = th.critical_curve(model, n)
    q = np.array([0.3, 1.0, 1.7, 2.5]) * c.qc_exact
    log_moments = th.moment_quadrature(model, q)
    got = th._predicted_lnS(model, c, q, log_moments).tolist()
    lead = math.log(tm.h_prime(model, c.y_dagger))
    for j, qj in enumerate(q.tolist()):
        if qj <= c.qc_exact:
            want = th.moment_quadrature(model, qj)
        else:
            want = qj * c.y_dagger - math.log(n) + lead
        assert got[j] == want == th.predicted_lnS(model, n, qj), j


def test_predicted_profile_upper_branch_slope():
    n = 1e4
    c = th.critical_curve(LW2, n)
    q1, q2 = 2.0 * c.qc_exact, 2.5 * c.qc_exact
    slope = (th.predicted_lnS(LW2, n, q2) - th.predicted_lnS(LW2, n, q1)) / (
        q2 - q1)
    assert slope == pytest.approx(c.y_dagger, rel=1e-12)


def test_predicted_profile_increasing_in_q():
    n = 1e3
    qs = np.linspace(0.2, 12.0, 40)
    vals = [th.predicted_lnS(LN, n, q) for q in qs]
    assert np.all(np.diff(vals) > 0)


def test_validity_ceiling_formula():
    for model, n in ((LW2, 1e3), (LW3, 1e6), (LN, 1e4)):
        expected = math.log(n) ** (2.0 - 1.0 / model.rho - 0.1)
        assert th.q_validity_ceiling(model, n) == expected
    assert th.q_validity_ceiling(LW2, 1e6) > th.q_validity_ceiling(LW2, 1e3)


@pytest.mark.parametrize("call, error", [
    (lambda: th.q_validity_ceiling(LW2, math.inf), ArgumentError),
    (lambda: th.q_validity_ceiling(LW2, math.nan), ArgumentError),
    (lambda: th.predicted_lnS(LW2, 1e3, math.inf), DomainError),
    (lambda: th.predicted_lnS(LW2, 1e3, math.nan), DomainError),
], ids=["ceiling-n-inf", "ceiling-n-nan", "lnS-q-inf", "lnS-q-nan"])
def test_nonfinite_theory_arguments_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()
