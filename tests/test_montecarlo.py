"""Monte-Carlo harness tests: seeding and determinism, the replication
runner's failure contract, aggregate identities, the sample-log-moment
curves, and report serialization."""

import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import logsumexp

import oracles
import momentgate.dependence as dep
import momentgate.estimators as est
import momentgate.montecarlo as mc
import momentgate.tail_models as tm
import momentgate.theory as th
from momentgate.errors import ArgumentError, ConvergenceError, NumericalError

LW2 = tm.log_weibull(2.0)
LN = tm.log_normal()


def small_iid_config(reps=8, seed=5):
    return mc.ExperimentConfig(models=(LW2,), n_grid=(400,),
                               k_theta_grid=(4,), k_rho_grid=(20,),
                               reps=reps, seed=seed)


def csv_text(report):
    buf = io.StringIO()
    report.to_csv(buf)
    return buf.getvalue()


# -------------------------------------------------------------- seeding


def test_rep_seed_is_collision_free_and_bounded():
    seen = set()
    for cell in range(40):
        for rep in range(50):
            s = mc.rep_seed(7, cell, rep)
            assert 0 <= s < 2**64
            seen.add(s)
    assert len(seen) == 40 * 50


SEED_MASTERS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130)
# replication ids at both ends of their uint32 range
SEED_IDS = (0, 1, 2, 3, 4, 5, 2**32 - 3, 2**32 - 2, 2**32 - 1)


# numpy warns when uint32 scalar arithmetic overflows, never for arrays
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("master", SEED_MASTERS)
@pytest.mark.parametrize("cell", (0, 2**32 + 1))
def test_seed_kernel_matches_seed_sequence(master, cell):
    seeds = mc._rep_seeds(master, cell, np.array(SEED_IDS, dtype=np.uint32))
    assert seeds.dtype == np.uint64
    want = [oracles.seed_sequence_seed(master, cell, r) for r in SEED_IDS]
    assert seeds.tolist() == want
    assert [mc.rep_seed(master, cell, r) for r in SEED_IDS] == want
    # rep_seed takes ids of any size
    for rep in (2**32 + 2, 2**70):
        assert mc.rep_seed(master, cell, rep) == oracles.seed_sequence_seed(
            master, cell, rep)


def _of_words(most):
    """Integers of 1 to most 32-bit words, each word count as likely."""
    return st.integers(1, most).flatmap(
        lambda w: st.integers(2**(32 * w - 32) if w > 1 else 0, 2**(32 * w) - 1))


# the hash constant the replication word starts from depends on the word
# counts of master and cell
@given(_of_words(6), _of_words(3), st.integers(0, 2**32 - 4))
def test_seed_kernel_matches_seed_sequence_sweep(master, cell, rep):
    want = [oracles.seed_sequence_seed(master, cell, r)
            for r in range(rep, rep + 3)]
    ids = np.arange(rep, rep + 3, dtype=np.uint32)
    assert mc._rep_seeds(master, cell, ids).tolist() == want
    assert mc.rep_seed(master, cell, rep) == want[0]


@pytest.mark.parametrize("ids", [(-1, 0, 0), (0, -1, 0), (0, 0, -1),
                                 (1.9, 0, 0), (0, 1.0, 0), (0, 0, 2.5),
                                 ("1", 0, 0)])
def test_seed_kernel_rejects_negative_ids(ids):
    # and ids that are not integers, which int() would truncate
    with pytest.raises(ArgumentError, match="non-negative integers"):
        mc.rep_seed(*ids)
    if ids[2] == 0:
        with pytest.raises(ArgumentError, match="non-negative integers"):
            mc._rep_seeds(*ids[:2], np.arange(2, dtype=np.uint32))


def test_seed_kernel_takes_numpy_integers():
    assert mc.rep_seed(np.uint64(7), np.int32(3), np.uint8(2)) == \
        oracles.seed_sequence_seed(7, 3, 2)
    ids = np.arange(4, dtype=np.uint32)
    assert mc._rep_seeds(np.int64(7), np.uint64(3), ids).tolist() == \
        mc._rep_seeds(7, 3, ids).tolist()


def test_non_integer_config_seed_is_rejected():
    with pytest.raises(ArgumentError, match="integers"):
        mc.run_iid(small_iid_config(seed=1.5))
    with pytest.raises(ArgumentError, match="integers"):
        mc.lnS_curve(LN, [100], [1.0], reps=2, seed=1.5)


def test_reps_beyond_uint32_ids_rejected_before_any_block():
    def kernel(arg):
        raise AssertionError("kernel called")

    with pytest.raises(ArgumentError, match="2\\^32"):
        mc._replicate(2**32 + 1, 0, 0, 10, 1, kernel, kernel)


def test_runs_are_deterministic_byte_identical():
    a = csv_text(mc.run_iid(small_iid_config()))
    b = csv_text(mc.run_iid(small_iid_config()))
    assert a == b


def test_seed_changes_output():
    a = csv_text(mc.run_iid(small_iid_config(seed=5)))
    b = csv_text(mc.run_iid(small_iid_config(seed=6)))
    assert a != b


_REPLICATE = mc._replicate


def _replicated(monkeypatch, run, config):
    """The (reps, width) replication arrays that run(config) aggregates, one
    per cell."""
    arrays = []

    def spy(*args, **kwargs):
        arrays.append(_REPLICATE(*args, **kwargs))
        return arrays[-1]

    monkeypatch.setattr(mc, "_replicate", spy)
    run(config)
    return arrays


def _iid_config(model=LW2, n=400, k_theta=4, k_rho=20, reps=8, seed=5):
    return mc.ExperimentConfig(models=(model,), n_grid=(n,),
                               k_theta_grid=(k_theta,), k_rho_grid=(k_rho,),
                               reps=reps, seed=seed)


def test_extending_reps_preserves_existing_replications(monkeypatch):
    # reps sets the block boundaries (at most ceil(reps / workers) rows, and
    # 65 at n = 1000), so the short and long runs split their common
    # replications differently
    for n, short_reps, long_reps in ((400, 6, 9), (1000, 60, 70)):
        [short] = _replicated(monkeypatch, mc.run_iid,
                              _iid_config(n=n, reps=short_reps))
        [long] = _replicated(monkeypatch, mc.run_iid,
                             _iid_config(n=n, reps=long_reps))
        assert short.shape == (short_reps, 3)
        assert long.shape == (long_reps, 3)
        assert np.isfinite(short).all()
        np.testing.assert_array_equal(short, long[:short_reps])


def _assert_rows_equal_estimates(rows, samples, estimate):
    """Each row is (theta, rho, qc) of estimate(sample), exactly, or NaN
    where it raises a NumericalError; returns the count of NaN rows."""
    failed = 0
    for row, sample in zip(rows, samples, strict=True):
        try:
            e = estimate(sample)
        except NumericalError:
            failed += 1
            assert np.isnan(row).all()
            continue
        np.testing.assert_array_equal(row, [e.theta_hat, e.rho_hat, e.qc_hat])
    return failed


# (model, n, k_theta, k_rho, reps, seed): LW2 from blocks of 8192 rows down to
# blocks of one (n = 70000 > 2^16), slep rho=2 with the default windows, and
# the failing slep cell of test_failed_replications_are_counted_not_dropped
BLOCK_CASES = [
    (LW2, 8, 2, 2, 40, 3),
    (LW2, 400, 4, 20, 170, 5),
    (LW2, 1000, 28, 80, 140, 1),
    (LW2, 70000, 68, 330, 3, 2),
    (tm.strict_log_exp_power(2.0), 1000, 28, 80, 140, 1),
    (tm.strict_log_exp_power(1.5), 8, 2, 2, 300, 12),
    (LN, 1000, 28, 80, 140, 6),
    (tm.strict_log_exp_power(3.0), 1000, 28, 80, 140, 7),
    (tm.log_weibull(1.05), 1000, 28, 80, 140, 8),
]


@pytest.mark.parametrize("model, n, kt, kr, reps, seed", BLOCK_CASES)
def test_block_rows_equal_scalar_qc_hat(model, n, kt, kr, reps, seed,
                                        monkeypatch):
    [rows] = _replicated(monkeypatch, mc.run_iid,
                         _iid_config(model, n, kt, kr, reps, seed))
    samples = (tm.sample_iid(model, n, mc.rep_seed(seed, 0, r))
               for r in range(reps))
    failed = _assert_rows_equal_estimates(
        rows, samples, lambda sample: est.qc_hat(sample, kt, kr))
    if model.rho == 1.5:
        assert failed > 0


# run_corr's uncorrected and corrected columns, (model, n, cov, match,
# k_theta, k_rho, reps, seed): blocks of 128 rows down to one (n = 2^16),
# default and explicit windows, Hermite matching, and a slep cell where
# qc_hat fails
CORR_BLOCK_CASES = [
    (LN, 512, dep.ExponentialCov(5.0), "gaussian", None, None, 40, 2),
    (LN, 1 << 16, dep.ExponentialCov(100.0), "gaussian", None, None, 3, 0),
    (LW2, 3000, dep.TabulatedCov((1.0, 0.6, 0.3)), "hermite", 20, 60, 30, 4),
    (tm.strict_log_exp_power(1.5), 8, dep.ExponentialCov(1.0), "gaussian",
     2, 2, 300, 12),
]


@pytest.mark.parametrize("model, n, cov, match, kt, kr, reps, seed",
                         CORR_BLOCK_CASES)
def test_corr_block_rows_equal_scalar_qc_hat(model, n, cov, match, kt, kr,
                                             reps, seed, monkeypatch):
    cc = mc.CorrelatedConfig(covs=(cov,), match_mode=dep.MatchMode(match))
    failed, _ = _corr_failures(monkeypatch, cc, model, n, kt, kr, reps, seed)
    if model.rho == 1.5:
        assert failed > 0


def test_corr_rows_nan_where_the_sieve_leaves_every_series_short(monkeypatch):
    # beta = 0 and radius 60: too few picks survive in 512 values
    cc = mc.CorrelatedConfig(covs=(dep.ExponentialCov(5.0),), beta=0.0,
                             s_values=(60.0,))
    failures = _corr_failures(monkeypatch, cc, LN, 512, None, None, 40, 9)
    assert failures == (0, 40)


def _corr_failures(monkeypatch, cc, model, n, kt, kr, reps, seed):
    """Checks the one cell of run_corr row by row: the uncorrected columns
    are qc_hat's, the corrected ones qc_hat_corr's with the cell's windows
    and radius.  Returns the NaN row counts of each half."""
    cfg = mc.ExperimentConfig(models=(model,), n_grid=(n,),
                              k_theta_grid=(kt,), k_rho_grid=(kr,),
                              reps=reps, seed=seed, correlated=cc)
    [cov], [s] = cc.covs, cc.s_values or (None,)
    [rows] = _replicated(monkeypatch, mc.run_corr, cfg)
    assert rows.shape == (reps, 6)
    samples = [dep.synth_series(model, cov, n, mc.rep_seed(seed, 0, r),
                                cc.match_mode) for r in range(reps)]
    tau = dep.correlation_length(cov)
    _, kt_c, kr_c, radius = dep._correction(n, tau, cc.kappa, kt, kr, s,
                                            cc.alpha)
    return (
        _assert_rows_equal_estimates(
            rows[:, :3], samples, lambda sample: est.qc_hat(sample, kt, kr)),
        _assert_rows_equal_estimates(
            rows[:, 3:], samples, lambda sample: dep.qc_hat_corr(
                sample, kt_c, kr_c, tau=tau, kappa=cc.kappa, s=radius,
                beta=cc.beta)),
    )


def test_nonfinite_draw_fails_only_its_own_row(monkeypatch):
    draw = tm._iid_rows
    bad = mc.rep_seed(5, 0, 1)  # replication 1, in whichever block holds it

    def spoiled(model, n, seeds, **kwargs):
        y = draw(model, n, seeds, **kwargs)
        if bad in seeds:
            y[seeds.index(bad), 7] = math.inf
        return y

    [clean] = _replicated(monkeypatch, mc.run_iid, _iid_config(reps=5))
    monkeypatch.setattr(tm, "_iid_rows", spoiled)
    [rows] = _replicated(monkeypatch, mc.run_iid, _iid_config(reps=5))
    assert np.isnan(rows[1]).all()
    np.testing.assert_array_equal(np.delete(rows, 1, axis=0),
                                  np.delete(clean, 1, axis=0))


def test_nonfinite_row_is_measured_as_zeros_then_nan():
    bad = mc.rep_seed(0, 0, 1)  # replication 1, in whichever block holds it

    def draw(seeds):
        y = np.ones((len(seeds), 3))
        y[[s == bad for s in seeds], 2] = math.nan
        return y

    seen = []

    def measure(y):
        seen.extend(y.tolist())
        return y.sum(axis=1, keepdims=True)

    vals = mc._replicate(4, 0, 0, 3, 1, draw, measure)
    assert sorted(seen) == [[0.0] * 3] + [[1.0] * 3] * 3
    assert np.isnan(vals[1, 0])
    np.testing.assert_array_equal(np.delete(vals, 1), 3.0)


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every thread pool the runner builds."""
    built = []
    real = mc.ThreadPoolExecutor

    def spy(max_workers):
        built.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(mc, "ThreadPoolExecutor", spy)
    return built


# 6 reps at n = 2^14 run as three blocks of 2 on a pool of three workers
def test_thread_count_does_not_change_results(monkeypatch, pools):
    cfg = mc.ExperimentConfig(models=(LW2,), n_grid=(2 ** 14,), reps=6,
                              seed=5)
    texts = []
    for workers in (1, 3):
        monkeypatch.setattr(mc, "_pool_size", lambda: workers)
        texts.append(csv_text(mc.run_iid(cfg)))
    assert texts[0] == texts[1]
    assert pools == [3]


def test_iid_study_on_criterion_07_grid_builds_no_pool(monkeypatch, pools):
    monkeypatch.setattr(mc, "_pool_size", lambda: 2)
    cfg = mc.ExperimentConfig(models=(LW2, tm.strict_log_exp_power(2.0)),
                              n_grid=(1000,), reps=500, seed=0)
    assert len(mc.run_iid(cfg).rows) == 6
    assert pools == []


# run_iid threads once a row holds 2^14 values; 2 reps make two blocks of
# one row at either size
@pytest.mark.parametrize("n, built", [(2 ** 14 - 1, []), (2 ** 14, [2])])
def test_iid_study_threads_from_rows_of_2_14(monkeypatch, pools, n, built):
    monkeypatch.setattr(mc, "_pool_size", lambda: 2)
    cfg = mc.ExperimentConfig(models=(LW2,), n_grid=(n,), reps=2, seed=1)
    mc.run_iid(cfg)
    assert pools == built


# lnS and corr kernels release the GIL over whole blocks: 50 reps at
# n = 1000 run as two blocks of 25, 10 series of 4096 as two of 5
def test_lnS_and_corr_studies_keep_the_pool(monkeypatch, pools):
    monkeypatch.setattr(mc, "_pool_size", lambda: 2)
    mc.lnS_curve(LN, [1000], np.array([0.5, 1.0, 2.0]), 50, 3)
    assert pools == [2]
    cc = mc.CorrelatedConfig(covs=(dep.ExponentialCov(tau=5.0),))
    mc.run_corr(mc.ExperimentConfig(models=(LN,), n_grid=(4096,), reps=10,
                                    seed=2, correlated=cc))
    assert pools == [2, 2]


# 501 and 51 reps split unevenly: 251 + 250 and 26 + 25 rows on two
# workers, 167 * 3 and 17 + 17 + 17 on three
def test_thread_count_does_not_change_lnS_output(monkeypatch):
    grids = {n: np.linspace(0.1, 3.0, 59) * th.critical_curve(LN, n).qc_exact
             for n in (100, 1000)}
    texts = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(mc, "_pool_size", lambda: workers)
        texts.append([csv_text(mc.lnS_curve(LN, [n], grids[n], reps, 7))
                      for n, reps in ((100, 501), (1000, 51))])
    assert texts[0] == texts[1] == texts[2]


@pytest.mark.parametrize("workers, n, reps, blocks", [
    (1, 100, 51, 1), (2, 1000, 1, 1), (2, 100, 501, 2), (3, 100, 501, 3),
    (2, 1000, 50, 2), (3, 1000, 51, 3),
    # cut no lower than 2^14 // n rows: 163 at n = 100, 16 at n = 1000
    (2, 100, 50, 1), (2, 100, 51, 1), (3, 100, 51, 1), (4, 100, 400, 3),
    (2, 1000, 7, 1), (3, 1000, 7, 1), (4, 1000, 9, 1), (4, 1000, 40, 3),
    (2, 2 ** 13, 2, 1), (2, 2 ** 14, 2, 2),
    (2, 1000, 500, 8), (2, 2 ** 14, 10, 3), (2, 2 ** 17, 3, 3),  # 2^16 // n
])
def test_blocks_split_reps_over_workers(monkeypatch, workers, n, reps,
                                        blocks):
    # a block holds at most 2^16 // n rows, if >= 1, and is cut to
    # ceil(reps / workers) rows only while it keeps 2^14 // n of them
    # whichever thread runs them: a gil_bound study's blocks are the same
    monkeypatch.setattr(mc, "_pool_size", lambda: workers)
    size = max(1, min(2 ** 16 // n, max(-(-reps // workers), 2 ** 14 // n)))
    for gil_bound in (False, True):
        sizes = []

        def draw(seeds):
            sizes.append(len(seeds))
            return np.zeros((len(seeds), 1))

        vals = mc._replicate(reps, 0, 0, n, 1, draw, lambda y: y.copy(),
                             gil_bound=gil_bound)
        assert vals.shape == (reps, 1)
        assert len(sizes) == blocks and sum(sizes) == reps
        assert max(sizes) == min(size, reps)


def test_pool_size_follows_cpu_affinity(monkeypatch):
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)
    assert mc._pool_size() == 1


@pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
def test_pool_size_without_cpu_affinity_counts_the_cpus(monkeypatch, cpus,
                                                        workers):
    # os.sched_getaffinity is absent where the platform has no CPU affinity;
    # os.cpu_count() is None where the count is unknown
    monkeypatch.delattr(mc.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)
    assert mc._pool_size() == workers


# ------------------------------------------------------------ aggregates


@pytest.mark.parametrize("field, value", [
    ("reps", 2.5), ("reps", "8"), ("n_grid", (400, 100.5)),
    ("k_theta_grid", (4.7,)), ("k_rho_grid", (None, 20.0))])
def test_config_rejects_non_integer_sizes(field, value):
    kwargs = {"models": (LW2,), "n_grid": (400,), "reps": 8, field: value}
    with pytest.raises(ArgumentError, match="must be an integer"):
        mc.ExperimentConfig(**kwargs)


@pytest.mark.parametrize("bad", [4.7, math.nan, math.inf])
@pytest.mark.parametrize("name", ["k_theta", "k_rho"])
def test_run_iid_rejects_non_integer_windows(name, bad):
    with pytest.raises(ArgumentError, match=f"{name} must be an integer"):
        mc.run_iid(mc.ExperimentConfig(models=(LW2,), n_grid=(400,), reps=4,
                                       **{name + "_grid": (bad,)}))


def test_run_iid_takes_numpy_integer_windows():
    def rows(kt, kr):
        return mc.run_iid(mc.ExperimentConfig(
            models=(LW2,), n_grid=(400,), k_theta_grid=(kt,),
            k_rho_grid=(kr,), reps=6, seed=3)).rows
    assert rows(np.int64(10), np.int32(30)) == rows(10, 30)


@pytest.mark.parametrize("call, message", [
    (lambda: mc.CorrelatedConfig(covs=()),
     "correlated config needs at least one covariance"),
    (lambda: mc.ExperimentConfig(models=(LW2,), n_grid=(100,),
                                 k_theta_grid=()), "k grids must be nonempty"),
    (lambda: mc.ExperimentConfig(models=(LW2,), n_grid=(100,),
                                 k_rho_grid=()), "k grids must be nonempty"),
    (lambda: mc.CorrelatedConfig(covs=(dep.ExponentialCov(4.0),),
                                 assumed_taus=()),
     "assumed tau and s grids must be nonempty"),
    (lambda: mc.CorrelatedConfig(covs=(dep.ExponentialCov(4.0),),
                                 s_values=()),
     "assumed tau and s grids must be nonempty"),
    (lambda: mc.run_corr(small_iid_config()),
     "run_corr requires the correlated config block"),
    (lambda: mc.run_iid(dataclasses.replace(
        small_iid_config(),
        correlated=mc.CorrelatedConfig(covs=(dep.ExponentialCov(4.0),)))),
     "run_iid takes no correlated config block"),
], ids=["no-covs", "no-k_theta", "no-k_rho", "no-assumed-taus", "no-s-values",
        "run_corr-without-block", "run_iid-with-block"])
def test_config_errors_name_their_cause(call, message):
    with pytest.raises(ArgumentError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("grids, cc, message", [
    (dict(n_grid=(400, 50), k_rho_grid=(100,)), None,
     r"k must be in \[1, n\]=50, got 100"),
    ({}, mc.CorrelatedConfig(covs=(dep.ExponentialCov(10.0),),
                             s_values=(1.0, -1.0)), "s must be >= 0"),
    ({}, mc.CorrelatedConfig(covs=(dep.ExponentialCov(10.0),),
                             assumed_taus=(10.0, math.nan)),
     "tau and kappa must be >= 0, got tau = nan, kappa = 0.08"),
    ({}, mc.CorrelatedConfig(covs=(dep.ExponentialCov(10.0),),
                             beta=math.inf), "beta must be finite"),
    # the first cell fails its probe before the second (n* < 2) is decided
    ({}, mc.CorrelatedConfig(covs=(dep.ExponentialCov(10.0),
                                   dep.ExponentialCov(1e6)), s_values=(-1.0,)),
     "s must be >= 0"),
], ids=["iid-window", "corr-radius", "corr-assumed-tau", "corr-beta",
        "corr-probe-before-next-cell"])
def test_study_checks_every_cell_before_the_first_draw(monkeypatch, grids, cc,
                                                       message):
    draws = []
    iid_rows, synth = tm._iid_rows, dep.synth_series
    monkeypatch.setattr(tm, "_iid_rows",
                        lambda *a, **kw: draws.append(a) or iid_rows(*a, **kw))
    monkeypatch.setattr(dep, "synth_series",
                        lambda *a, **kw: draws.append(a) or synth(*a, **kw))
    cfg = mc.ExperimentConfig(**{"models": (LN,), "n_grid": (512,), "reps": 4,
                                 **grids}, correlated=cc)
    with pytest.raises(ArgumentError, match=message):
        (mc.run_iid if cc is None else mc.run_corr)(cfg)
    assert draws == []


def test_config_validation():
    with pytest.raises(ArgumentError):
        mc.ExperimentConfig(models=(LW2,), n_grid=(100,), reps=1)
    with pytest.raises(ArgumentError):
        mc.ExperimentConfig(models=(), n_grid=(100,))
    with pytest.raises(ArgumentError):
        mc.ExperimentConfig(models=(LW2,), n_grid=())


def test_aggregate_identities_hold_per_row():
    report = mc.run_iid(small_iid_config(reps=40))
    assert len(report.rows) == 3
    for row in report.rows:
        assert row["mse"] == pytest.approx(row["bias"] ** 2 + row["variance"],
                                           rel=1e-12)
        assert row["relative_bias"] == pytest.approx(
            row["bias"] / row["target"], rel=1e-12)
        assert row["relative_mse"] == pytest.approx(
            row["mse"] / row["target"] ** 2, rel=1e-12)
        assert row["reps_used"] + row["failures"] == row["reps"]


def test_failed_replications_are_counted_not_dropped():
    cfg = mc.ExperimentConfig(models=(tm.strict_log_exp_power(1.5),),
                              n_grid=(8,), k_theta_grid=(2,), k_rho_grid=(2,),
                              reps=300, seed=12)
    report = mc.run_iid(cfg)
    for row in report.rows:
        assert row["failures"] > 0
        assert row["reps_used"] + row["failures"] == 300
        assert math.isfinite(row["mean"])  # aggregates skip the NaN reps


def test_window_beyond_sample_fails_every_replication():
    # k_rho = 500 > n = 400 can never give an estimate, so the run raises
    # rather than report a cell of failures
    cfg = mc.ExperimentConfig(models=(LW2,), n_grid=(400,), k_theta_grid=(4,),
                              k_rho_grid=(500,), reps=6, seed=1)
    with pytest.raises(ArgumentError, match="k must be in"):
        mc.run_iid(cfg)


@pytest.mark.parametrize("k_theta, k_rho", [(2, 30), (40, 30), (0, 0)])
def test_window_above_twice_the_sample_fails_every_replication(k_theta, k_rho):
    # windows beyond 2n, or below 1, leave no top block to draw: the run
    # raises as for every window beyond n, not a partition ValueError
    cfg = mc.ExperimentConfig(models=(LW2,), n_grid=(8,),
                              k_theta_grid=(k_theta,), k_rho_grid=(k_rho,),
                              reps=6, seed=1)
    with pytest.raises(ArgumentError):
        mc.run_iid(cfg)


def test_targets_come_from_theory():
    report = mc.run_iid(small_iid_config())
    curve = th.critical_curve(LW2, 400)
    by_est = {row["estimator"]: row for row in report.rows}
    assert by_est["theta"]["target"] == curve.theta
    assert by_est["rho"]["target"] == curve.rho_l_at_dagger
    assert by_est["qc"]["target"] == curve.qc_approx


def test_window_estimates_positively_correlated():
    # both windows read the same extreme order statistics
    report = mc.run_iid(mc.ExperimentConfig(models=(LW2,), n_grid=(1000,),
                                            reps=100, seed=8))
    covs = {row["cov_theta_rho"] for row in report.rows}
    assert len(covs) == 1 and covs.pop() > 0.0


# ---------------------------------------------------------------- runner


def test_runner_lets_other_errors_through():
    def ones(seeds):
        return np.ones((len(seeds), 10))

    def fail(arg):
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        mc._replicate(2, 0, 0, 10, 1, ones, fail)
    with pytest.raises(ZeroDivisionError):
        mc._replicate(2, 0, 0, 10, 1, fail, ones)


def test_failed_block_gives_nan_rows(monkeypatch):
    # a raising draw NaNs the block of replications 4-7, a raising measure
    # that of 8-9; one worker, so only 2^16 // n bounds the blocks
    monkeypatch.setattr(mc, "_pool_size", lambda: 1)

    def draw(seeds):
        if seeds[0] == mc.rep_seed(0, 0, 4):
            raise ConvergenceError("draw")
        return np.full((len(seeds), 2 ** 14), float(len(seeds)))

    def measure(y):
        if len(y) == 2:
            raise ConvergenceError("measure")
        return y[:, :2].copy()

    # n = 2^14: blocks of 4 replications
    vals = mc._replicate(10, 0, 0, 2 ** 14, 2, draw, measure)
    assert vals.shape == (10, 2)
    assert np.isnan(vals[4:]).all()
    assert (vals[:4] == 4.0).all()


def test_failed_corrected_estimate_fails_only_its_corrected_columns(
        monkeypatch):
    # in run_corr, the sieve keeps too few points of replication 1's series,
    # so in the one block of 3 series only its corrected columns fail
    cc = mc.CorrelatedConfig(covs=(dep.ExponentialCov(tau=5.0),))
    bad = dep.synth_series(LN, cc.covs[0], 512, mc.rep_seed(1, 0, 1),
                           cc.match_mode).values
    sieve = dep.sieve

    def short_sieve(series, s, beta, max_points=None):
        got = sieve(series, s, beta, max_points)
        if np.array_equal(series, bad):  # one pick short of max_points
            return got[:max_points - 1]
        return got

    monkeypatch.setattr(dep, "sieve", short_sieve)
    cfg = mc.ExperimentConfig(models=(LN,), n_grid=(512,), reps=3, seed=1,
                              correlated=cc)
    rows = mc.run_corr(cfg).rows
    assert len(rows) == 6
    for row in rows:
        used = 2 if row["corrected"] else 3
        assert (row["reps_used"], row["failures"]) == (used, 3 - used)
        assert math.isfinite(row["mean"])


# ------------------------------------------------------------- lnS curves


def test_lnS_report_contents():
    n = 100
    curve = th.critical_curve(LN, n)
    q_grid = np.array([0.5, 1.0, 2.0])
    report = mc.lnS_curve(LN, [n], q_grid, reps=30, seed=4)
    assert len(report.rows) == 3
    for row, q in zip(report.rows, q_grid):
        assert row["q"] == q
        assert row["q_over_qc"] == pytest.approx(q / curve.qc_approx,
                                                 rel=1e-12)
        assert row["predicted_lnS"] == th.predicted_lnS(LN, n, q)
        assert row["log_moment"] == th.moment_quadrature(LN, q)
        assert math.isfinite(row["mean_lnS"]) and row["se_lnS"] > 0.0


def test_lnS_matches_direct_logsumexp():
    # one fixed replication recomputed by hand
    n, q = 50, 2.0
    report = mc.lnS_curve(LW2, [n], [q], reps=1, seed=9)
    y = tm.sample_iid(LW2, n, mc.rep_seed(9, 0, 0)).values
    want = logsumexp(q * y) - math.log(n)
    assert report.rows[0]["mean_lnS"] == pytest.approx(want, rel=1e-12)


def test_lnS_se_is_standard_error_of_replications():
    # se_lnS = ddof=1 std of the per-replication ln S over sqrt(reps); at
    # large rho ln S is large and narrow, where a one-pass E[x^2] - mean^2
    # keeps none of the spread's digits
    cases = [(LN, 60, 25, 11, [0.5, 2.0, 6.0])]
    for rho in (1e6, 1e8, 1e10):
        model = tm.log_weibull(rho)
        qc = th.critical_curve(model, 1000).qc_approx
        cases.append((model, 1000, 50, 1, [0.5 * qc, 3.0 * qc]))
    for model, n, reps, seed, q_grid in cases:
        report = mc.lnS_curve(model, [n], q_grid, reps=reps, seed=seed)
        ys = [tm.sample_iid(model, n, mc.rep_seed(seed, 0, r)).values
              for r in range(reps)]
        lnS = np.array([[logsumexp(q * y) - math.log(n) for q in q_grid]
                        for y in ys])
        want = lnS.std(axis=0, ddof=1) / math.sqrt(reps)
        for row, mean, se in zip(report.rows, lnS.mean(axis=0), want):
            assert row["mean_lnS"] == pytest.approx(mean, rel=1e-12)
            assert row["se_lnS"] == pytest.approx(se, rel=1e-9), (model, row)


@pytest.mark.filterwarnings("error")
def test_lnS_se_where_the_squares_overflow():
    # at rho = 1e300 every logweibull value rounds to 1, so ln S(n, q) = q
    # exactly, and its square overflows; the spread is 0, not NaN
    [row] = mc.lnS_curve(tm.log_weibull(1e300), [1000], [2e301], reps=3,
                         seed=0).rows
    assert (row["mean_lnS"], row["se_lnS"]) == (2e301, 0.0)


@pytest.mark.filterwarnings("error")
def test_lnS_mean_where_the_sum_overflows():
    # every replication's ln S is q = 1e308, but three of them sum past the
    # largest double; the mean is q, and the spread 0
    [row] = mc.lnS_curve(tm.log_weibull(1e300), [1000], [1e308], reps=3,
                         seed=0).rows
    assert (row["mean_lnS"], row["se_lnS"]) == (1e308, 0.0)


@pytest.mark.filterwarnings("error")
def test_lnS_se_is_finite_where_the_deviations_are_huge():
    # at rho = 1e300 and 3 q_c, ln S ~ 2e301 and replications differ by an
    # ulp or so: squaring those deviations overflows, their hypot does not
    model = tm.log_weibull(1e300)
    q = 3.0 * th.critical_curve(model, 1000).qc_approx
    [row] = mc.lnS_curve(model, [1000], [q], reps=50, seed=0).rows
    assert math.isfinite(row["mean_lnS"]) and math.isfinite(row["se_lnS"])
    assert 0.0 <= row["se_lnS"] <= 1e-15 * abs(row["mean_lnS"])


def test_lnS_slope_saturates_at_sample_maximum():
    y = tm.sample_iid(LW2, 200, seed=31).values
    n = y.size
    q1, q2 = 200.0, 201.0
    s1 = logsumexp(q1 * y) - math.log(n)
    s2 = logsumexp(q2 * y) - math.log(n)
    assert s2 - s1 == pytest.approx(y.max(), rel=1e-12)


def test_lnS_rejects_nonpositive_orders():
    with pytest.raises(ArgumentError):
        mc.lnS_curve(LN, [100], [0.0, 1.0], reps=2, seed=0)


def test_lnS_rejects_zero_reps():
    with pytest.raises(ArgumentError, match="reps"):
        mc.lnS_curve(LN, [100], [1.0], reps=0, seed=0)


def test_lnS_rejects_non_integer_reps():
    with pytest.raises(ArgumentError, match="reps must be an integer"):
        mc.lnS_curve(LN, [100], [1.0], reps=3.0, seed=0)


@pytest.mark.parametrize("q", [math.nan, math.inf])
def test_lnS_rejects_nonfinite_orders(q):
    with pytest.raises(ArgumentError, match="finite"):
        mc.lnS_curve(LN, [100], [1.0, q], reps=2, seed=0)


def test_lnS_rejects_noninteger_n():
    with pytest.raises(ArgumentError, match="integer"):
        mc.lnS_curve(LN, [100.5], [1.0], reps=2, seed=0)


def test_lnS_rejects_more_than_one_n():
    with pytest.raises(ArgumentError, match="one n per call"):
        mc.lnS_curve(LN, [100, 1000], [1.0], reps=2, seed=0)


def test_lnS_rejects_n_below_two():
    with pytest.raises(ArgumentError, match=">= 2"):
        mc.lnS_curve(LN, [1], [1.0], reps=2, seed=0)


# 1e300 as an INI grid reads it; numpy refuses it before it allocates
@pytest.mark.parametrize("call", [
    lambda n: mc.lnS_curve(LN, [n], [1.0], reps=2, seed=0),
    lambda n: mc.ExperimentConfig(models=(LN,), n_grid=(100, n), reps=2),
], ids=["lnS", "config"])
def test_study_rejects_a_size_no_array_holds(call):
    with pytest.raises(ArgumentError, match=r"^n must be at most 2\^57, got 1\d{300}$"):
        call(int(1e300))


# per-replication ln S: the block kernel against scipy, exactly


def _assert_lnS_equals_logsumexp(q_grid, ys):
    """Every row of the block ys, for every order, equals scipy's
    logsumexp(q*y) - ln n bit for bit."""
    q_grid = np.asarray(q_grid, dtype=float)
    y = np.array(ys, dtype=float)
    got = mc._lnS_rows(y, q_grid)
    want = np.array([[logsumexp(q * row) for q in q_grid] for row in y])
    assert np.array_equal(got, want - math.log(y.shape[1]))


def test_lnS_kernel_partial_last_block():
    # blocks of one row by 21, 21 and 17 orders
    n = 3000
    q_grid = np.arange(0.1, 3.01, 0.05) * th.critical_curve(LN, n).qc_exact
    assert len(q_grid) == 59 and len(q_grid) % (mc._LSE_BLOCK // n) != 0
    _assert_lnS_equals_logsumexp(
        q_grid, [tm.sample_iid(LN, n, s).values for s in (21, 24, 25)])


@pytest.mark.parametrize("n, width, rows", [
    (100, 59, 25),   # blocks of 11, 11 and 3 whole rows by every order
    (1120, 59, 2),   # blocks of one row by 58 orders and by 1
    (1024, 64, 2),   # one row's orders fill a block exactly
], ids=["whole-rows", "one-order-left", "row-fills-block"])
def test_lnS_kernel_block_shapes(n, width, rows):
    q_grid = np.linspace(0.1, 3.0, width) * th.critical_curve(LN, n).qc_exact
    _assert_lnS_equals_logsumexp(
        q_grid, [tm.sample_iid(LN, n, s).values for s in range(40, 40 + rows)])


def test_lnS_kernel_one_order_per_block_past_block_size():
    n = mc._LSE_BLOCK + 4465
    _assert_lnS_equals_logsumexp(
        [0.5, 3.0, 9.0], [tm.sample_iid(LN, n, s).values for s in (22, 26)])


def test_lnS_kernel_beyond_exp_overflow():
    ys = [tm.sample_iid(LW2, 50, s).values for s in (17, 27, 28)]
    q_grid = [200.0, 400.0, 800.0]
    with np.errstate(over="ignore"):
        assert np.isinf(np.exp(q_grid[1] * ys[0])).any()
    _assert_lnS_equals_logsumexp(q_grid, ys)


def test_lnS_kernel_repeated_maximum():
    ys = [tm.sample_iid(LN, 200, s).values for s in (23, 29, 30)]
    ys[0][7] = ys[0].max()
    ys[1][4] = np.nextafter(ys[1].max(), -np.inf)  # a runner-up, not a tie
    ys[2][:3] = ys[2].max()
    assert np.count_nonzero(ys[0] == ys[0].max()) == 2
    _assert_lnS_equals_logsumexp([0.3, 2.0, 40.0], ys)


# small integer values tie often, at the maximum too
@given(st.integers(2, 40).flatmap(lambda n: st.lists(
           st.lists(st.integers(-4, 4), min_size=n, max_size=n),
           min_size=1, max_size=6)),
       st.lists(st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
                min_size=1, max_size=8))
def test_lnS_kernel_matches_logsumexp_with_ties(ys, q_grid):
    _assert_lnS_equals_logsumexp(q_grid, ys)


# -------------------------------------------------------- correlated runs


def test_correlated_run_shape_and_targets():
    cc = mc.CorrelatedConfig(covs=(dep.ExponentialCov(tau=5.0),))
    cfg = mc.ExperimentConfig(models=(LN,), n_grid=(512,), k_theta_grid=(5,),
                              k_rho_grid=(20,), reps=10, seed=2,
                              correlated=cc)
    report = mc.run_corr(cfg)
    assert len(report.rows) == 6  # three estimators, plain and corrected
    tau = 5.0
    target_qc = dep.qc_theory_corr(LN, 512, tau)
    for row in report.rows:
        assert row["tau"] == tau
        assert row["tau_assumed"] == tau
        if row["estimator"] == "qc":
            assert row["target"] == target_qc
    flags = {(row["estimator"], row["corrected"]) for row in report.rows}
    assert len(flags) == 6


@pytest.mark.parametrize("model, n, tau, kappa", [
    (LW2, 1000, 20.0, 0.3), (tm.strict_log_exp_power(3.0), 4096, 100.0, 0.08)])
def test_correlated_targets_are_the_curve_at_rounded_effective_size(
        model, n, tau, kappa):
    cc = mc.CorrelatedConfig(covs=(dep.ExponentialCov(tau=tau),), kappa=kappa)
    cfg = mc.ExperimentConfig(models=(model,), n_grid=(n,), k_theta_grid=(5,),
                              k_rho_grid=(20,), reps=2, correlated=cc)
    rows = {(r["estimator"], r["corrected"]): r for r in mc.run_corr(cfg).rows}
    curve = th.critical_curve(model, round(dep.n_star(n, tau, kappa)))
    for corrected in (False, True):
        assert (rows[("qc", corrected)]["target"]
                == dep.qc_theory_corr(model, n, tau, kappa))
        assert rows[("theta", corrected)]["target"] == curve.theta
        assert rows[("rho", corrected)]["target"] == curve.rho_l_at_dagger


def test_correlated_run_zero_tau_agrees_with_iid():
    # independent pipelines, same physics: means must agree within noise
    n, reps = 512, 60
    cc = mc.CorrelatedConfig(covs=(dep.ExponentialCov(tau=0.0),))
    corr_cfg = mc.ExperimentConfig(models=(LN,), n_grid=(n,), reps=reps,
                                   seed=3, correlated=cc)
    iid_cfg = mc.ExperimentConfig(models=(LN,), n_grid=(n,), reps=reps,
                                  seed=4)
    corr_rows = {(r["estimator"], r["corrected"]): r
                 for r in mc.run_corr(corr_cfg).rows}
    iid_rows = {r["estimator"]: r for r in mc.run_iid(iid_cfg).rows}
    for name in ("theta", "rho", "qc"):
        for corrected in (False, True):
            a = corr_rows[(name, corrected)]
            b = iid_rows[name]
            assert a["target"] == b["target"]
            se = math.hypot(a["se_mean"], b["se_mean"])
            assert abs(a["mean"] - b["mean"]) < 4.0 * se


def test_failing_corrected_estimator_leaves_uncorrected_rows_intact(
        monkeypatch):
    # an assumed tau of 10^4 puts n* below 2: the corrected estimator can
    # never run, so the cell raises before it draws a series; a per-row
    # numerical failure is covered by
    # test_failed_corrected_estimate_fails_only_its_corrected_columns
    def no_synth(*args):
        raise AssertionError("series drawn")

    monkeypatch.setattr(dep, "synth_series", no_synth)
    cc = mc.CorrelatedConfig(covs=(dep.ExponentialCov(tau=5.0),),
                             assumed_taus=(10000.0,))
    cfg = mc.ExperimentConfig(models=(LN,), n_grid=(512,), reps=4, seed=0,
                              correlated=cc)
    with pytest.raises(ArgumentError, match="n\\* = .* < 2"):
        mc.run_corr(cfg)


def test_corrected_window_above_effective_size_is_refused_before_any_draw(
        monkeypatch):
    # n* = 1000 / (1 + 0.08 * 100) = 111.1 holds no corrected window of 150,
    # as n holds no uncorrected window above n
    def no_synth(*args):
        raise AssertionError("series drawn")

    monkeypatch.setattr(dep, "synth_series", no_synth)
    cc = mc.CorrelatedConfig(covs=(dep.ExponentialCov(tau=100.0),))
    cfg = mc.ExperimentConfig(models=(LN,), n_grid=(1000,),
                              k_theta_grid=(150,), reps=4, seed=0,
                              correlated=cc)
    with pytest.raises(ArgumentError,
                       match=r"^k_theta=150 exceeds the effective size "
                             r"n\* = 111\.111$"):
        mc.run_corr(cfg)


@pytest.mark.parametrize("setting, message", [
    ({"alpha": math.nan}, "got alpha = nan"),
    ({"beta": -1.0}, "beta must be finite"),
    ({"s_values": (-1.0,)}, "s must be >= 0"),
    ({"alpha": math.inf}, "got alpha = inf"),
])
def test_invalid_sieve_setting_is_argument_error(setting, message):
    cc = mc.CorrelatedConfig(covs=(dep.ExponentialCov(tau=5.0),), **setting)
    cfg = mc.ExperimentConfig(models=(LN,), n_grid=(512,), reps=4, seed=0,
                              correlated=cc)
    with pytest.raises(ArgumentError, match=message):
        mc.run_corr(cfg)


# (tau, corrected, estimator) -> (k_theta, k_rho, mean, variance,
# cov_theta_rho) of lognormal run_corr at n = 2^12, 8 reps, seed 0, frozen
# from the full-length complex FFT synthesis and the full-argsort sieve
_FROZEN_CORR = {
    (10.0, False, "theta"): (38, 128, 2.3565548267781598, 0.03599406041210752, 0.024691040622089207),
    (10.0, False, "rho"): (38, 128, 1.3782614915874905, 0.042592172623189074, 0.024691040622089207),
    (10.0, False, "qc"): (38, 128, 3.272639811185056, 0.48159188789619367, 0.024691040622089207),
    (10.0, True, "theta"): (34, 105, 2.19136915465692, 0.030095044932002338, 0.02433049637839277),
    (10.0, True, "rho"): (34, 105, 1.5962056367331634, 0.05767152790797985, 0.02433049637839277),
    (10.0, True, "qc"): (34, 105, 3.522206293204956, 0.5468391161185144, 0.02433049637839277),
    (100.0, False, "theta"): (38, 128, 2.5832678464636345, 0.48512824055036774, 0.18716871971811616),
    (100.0, False, "rho"): (38, 128, 1.612762781106451, 0.2713409345319369, 0.18716871971811616),
    (100.0, False, "qc"): (38, 128, 4.35336695612368, 4.39544093514583, 0.18716871971811616),
    (100.0, True, "theta"): (23, 45, 1.9871132332605104, 0.2941687948164872, 0.27615123280443565),
    (100.0, True, "rho"): (23, 45, 3.1444807596883226, 1.742762800571152, 0.27615123280443565),
    (100.0, True, "qc"): (23, 45, 6.524590562114165, 11.555881940025177, 0.27615123280443565),
}


def test_correlated_run_matches_frozen_values():
    # synthesis and the sieve may move the series only at rounding level
    cc = mc.CorrelatedConfig(covs=(dep.ExponentialCov(tau=10.0),
                                   dep.ExponentialCov(tau=100.0)))
    cfg = mc.ExperimentConfig(models=(LN,), n_grid=(1 << 12,), reps=8,
                              seed=0, correlated=cc)
    rows = mc.run_corr(cfg).rows
    assert len(rows) == len(_FROZEN_CORR)
    for row in rows:
        key = (row["tau"], row["corrected"], row["estimator"])
        k_t, k_r, mean, var, cov = _FROZEN_CORR[key]
        assert (row["k_theta"], row["k_rho"], row["reps_used"]) == (k_t, k_r, 8)
        np.testing.assert_allclose(
            [row["mean"], row["variance"], row["cov_theta_rho"]],
            [mean, var, cov], rtol=1e-9, err_msg=str(key))


def test_synthesis_failures_become_counted_failures():
    cc = mc.CorrelatedConfig(covs=(dep.TabulatedCov(values=(1.0, 0.9)),))
    cfg = mc.ExperimentConfig(models=(LN,), n_grid=(64,), reps=5, seed=1,
                              correlated=cc)
    report = mc.run_corr(cfg)
    # an indefinite covariance: every draw fails, yet the corrected rows
    # report the cell's windows, at round(n*), as the uncorrected rows do
    n_star = round(dep.n_star(64, report.rows[0]["tau"], cc.kappa))
    windows = {False: est._windows(64, None, None),
               True: est._windows(n_star, None, None)}
    for row in report.rows:
        assert row["failures"] == 5
        assert row["reps_used"] == 0
        assert (row["k_theta"], row["k_rho"]) == windows[row["corrected"]]


# ---------------------------------------------------------- serialization


def test_csv_shape_and_number_format():
    report = mc.run_iid(small_iid_config())
    text = csv_text(report)
    lines = text.strip().split("\n")
    meta = [l for l in lines if l.startswith("# ")]
    assert any(l.startswith("# kind=iid") for l in meta)
    assert any(l.startswith("# seed=") for l in meta)
    header = next(l for l in lines if not l.startswith("# "))
    assert header.split(",") == list(mc._COLUMNS)
    data = [l for l in lines if not l.startswith("# ")][1:]
    assert len(data) == 3
    # 17 significant digits: values survive a text round trip exactly
    idx = list(mc._COLUMNS).index("mean")
    for line, row in zip(data, report.rows):
        assert float(line.split(",")[idx]) == row["mean"]


def test_json_round_trip_equals_rows():
    import json

    report = mc.run_iid(small_iid_config())
    buf = io.StringIO()
    report.to_json(buf)
    payload = json.loads(buf.getvalue())
    assert payload["meta"]["kind"] == "iid"
    assert len(payload["rows"]) == 3
    assert payload["rows"][0]["mean"] == report.rows[0]["mean"]
