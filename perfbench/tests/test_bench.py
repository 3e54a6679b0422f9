"""Tests of the benchmark itself: self-time arithmetic, patching, inputs, rel_err.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import csv
import io
import math

import numpy as np
import pytest

import run
import tracer as tr
import workloads as wk
from momentgate import cli, dependence, estimators, montecarlo, tail_models, theory

MODULES = {"tail_models": tail_models, "theory": theory, "estimators": estimators,
           "dependence": dependence, "montecarlo": montecarlo, "cli": cli}


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

# (id, name, start, end, parent, thread).  Thread 1 drives; threads 2 and 3
# are pool workers whose spans have no parent on their own thread.
SPANS = [
    (1, "root", 0.0, 10.0, None, 1),
    (2, "a1", 1.0, 3.0, 1, 1),
    (3, "a2", 1.5, 2.5, 2, 1),
    (4, "a3", 6.0, 9.0, 1, 1),
    (5, "b1", 3.0, 6.0, None, 2),
    (6, "b2", 4.0, 5.0, 5, 2),
    (7, "c1", 4.0, 6.0, None, 3),
]


def _thread_self_times(spans):
    acc = {}
    for t0, t1, _sid, name, _tid in tr.thread_self_intervals(spans):
        acc[name] = acc.get(name, 0.0) + t1 - t0
    return acc


def test_thread_self_time_subtracts_children_on_the_same_thread_only():
    got = _thread_self_times(SPANS)
    # root loses a1 and a3 but not b1/c1, which run on other threads
    want = {"root": 5.0, "a1": 1.0, "a2": 1.0, "a3": 3.0, "b1": 2.0, "b2": 1.0, "c1": 2.0}
    assert got == pytest.approx(want, abs=1e-12)


def test_wall_self_time_shares_concurrent_spans_and_adds_up():
    got = tr.wall_self_times(SPANS, driving_thread=1)
    # root waits on the pool during [3, 6]; [4, 6] is shared by two workers
    want = {"root": 2.0, "a1": 1.0, "a2": 1.0, "a3": 3.0, "b1": 1.5, "b2": 0.5, "c1": 1.0}
    assert got == pytest.approx(want, abs=1e-12)
    assert sum(got.values()) == pytest.approx(10.0, abs=1e-12)


def test_wall_self_time_equals_thread_self_time_on_one_thread():
    one = [s for s in SPANS if s[5] == 1]
    assert tr.wall_self_times(one, 1) == pytest.approx(_thread_self_times(one))


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------

def _patched_names():
    return list(tr.SPANNED) + list(tr.COUNTED) + list(tr.ALIASES)


def test_install_patches_every_name_and_uninstall_restores_it():
    originals = {(m, f): getattr(MODULES[m], f) for m, f in _patched_names()}
    tracer = tr.Tracer()
    tracer.install()
    try:
        for (m, f), fn in originals.items():
            assert getattr(MODULES[m], f) is not fn, f"{m}.{f} not patched"
    finally:
        tracer.uninstall()
    for (m, f), fn in originals.items():
        assert getattr(MODULES[m], f) is fn, f"{m}.{f} not restored"


def test_nested_calls_record_parent_links_and_counts():
    sample = tail_models.sample_iid(tail_models.log_weibull(2.0), 1000, seed=3)
    tracer = tr.Tracer()
    tracer.install()
    try:
        estimators.qc_hat(sample)          # disabled: nothing recorded
        assert tracer.spans == []
        tracer.enabled = True
        dependence.qc_hat_corr(sample, tau=1.0)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    by_name = {s[1]: s for s in tracer.spans}
    corr_id = by_name["dependence.qc_hat_corr"][0]
    # dependence binds theta_hat/rho_hat under its own names: still traced
    assert by_name["estimators.theta_hat"][4] == corr_id
    assert by_name["estimators.rho_hat"][4] == corr_id
    assert by_name["dependence.sieve"][4] == corr_id


def test_errors_are_counted_and_reraised():
    tracer = tr.Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        with pytest.raises(Exception):
            estimators.qc_hat(tail_models.Sample(values=-np.ones(100), n=100, seed=0))
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert tracer.counts()["estimators.qc_hat.errors"] == 1


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def test_input_file_is_byte_identical_for_a_seed(tmp_path):
    a, b, c = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
    wk.write_input(a, 7)
    wk.write_input(b, 7)
    wk.write_input(c, 8)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    lines = a.read_text().splitlines()
    assert len(lines) == wk.FILE_N + 1
    parsed = np.array(lines[1:], dtype=float)
    np.testing.assert_array_equal(parsed, wk.input_values(7))


# ---------------------------------------------------------------------------
# rel_err
# ---------------------------------------------------------------------------

def _csv_rows(report):
    buf = io.StringIO()
    report.to_csv(buf)
    text = "\n".join(l for l in buf.getvalue().splitlines() if not l.startswith("#"))
    return list(csv.DictReader(io.StringIO(text)))


def _summary(report):
    return {"columns": list(report.columns), "rows": [dict(r) for r in report.rows]}


def test_rel_err_iid_matches_report():
    wl = wk.IidMc(None)
    report = montecarlo.run_iid(wl._config(seed=5, reps=20))
    rmse = [float(r["relative_mse"]) for r in _csv_rows(report) if r["estimator"] == "qc"]
    assert wl.rel_err(_summary(report)) == pytest.approx(math.sqrt(np.mean(rmse)), rel=1e-12)


def test_rel_err_corr_uses_corrected_rows():
    wl = wk.CorrMc(None)
    report = montecarlo.run_corr(wl._config(seed=5, reps=3))
    rows = [r for r in _csv_rows(report) if r["estimator"] == "qc" and r["corrected"] == "true"]
    assert len(rows) == 2
    want = math.sqrt(np.mean([float(r["relative_mse"]) for r in rows]))
    assert wl.rel_err(_summary(report)) == pytest.approx(want, rel=1e-12)


def test_rel_err_lnS_is_max_over_low_orders():
    wl = wk.LnS(None)
    rows, want = [], 0.0
    for n in wl.ns:
        qc = theory.critical_curve(wl.model, n).qc_exact
        report = montecarlo.lnS_curve(wl.model, [n], wl.grids[n], 3, 5)
        rows += [dict(r) for r in report.rows]
        for r in _csv_rows(report):
            if float(r["q"]) <= 0.5 * qc * (1 + 1e-12):
                lm = float(r["log_moment"])
                want = max(want, abs(float(r["mean_lnS"]) - lm) / abs(lm))
    assert wl.rel_err({"columns": [], "rows": rows}) == pytest.approx(want, rel=1e-12)


def test_rel_err_estimate_against_closed_form_qc_approx():
    payload = {"qc_hat": 7.0, "n": 10**6}
    qc_approx = theory.critical_curve(tail_models.log_weibull(2.0), 10**6).qc_approx
    assert wk.EstimateFile.rel_err({"payload": payload}) == pytest.approx(
        abs(7.0 - qc_approx) / qc_approx, rel=1e-12)


def test_reference_rel_err_matches_frozen_reports():
    ref = wk.load_reference()
    for name, cls in wk.WORKLOADS.items():
        assert math.isfinite(cls.rel_err(ref[name])) and cls.rel_err(ref[name]) > 0


def test_frozen_comparison_tolerates_rounding_only():
    frozen = {"rows": [{"a": 1.0, "b": "x"}]}
    assert wk.frozen_mismatches({"rows": [{"a": 1.0 + 1e-14, "b": "x"}]}, frozen) == []
    assert wk.frozen_mismatches({"rows": [{"a": 1.0 + 1e-6, "b": "x"}]}, frozen)
    assert wk.frozen_mismatches({"rows": [{"a": 1.0, "b": "y"}]}, frozen)
    assert wk.frozen_mismatches({"rows": []}, frozen)


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

def test_host_speed_rescales_by_the_mean_probe_time():
    ref = wk.PROBE_REF_S
    ops = [{"probe": 2.0 * ref}, {"probe": 2.0 * ref}, {"probe": 0.5 * ref}]
    assert run.host_speed(ops) == pytest.approx(1.0 / 1.5, rel=1e-12)
    assert run.host_speed([{"probe": ref}]) == pytest.approx(1.0, rel=1e-12)


def test_measuring_loop_probes_after_every_operation_and_tracing_does_not():
    class Op:
        def run(self, seed):
            return wk.Outcome({}, 1, 0, [])
    ops = wk._loop(Op(), 0, 0.0)
    assert len(ops) == wk.MIN_OPS and all(op["probe"] > 0 for op in ops)
    tracer = tr.Tracer()
    assert all(op["probe"] is None for op in wk._loop(Op(), 0, 0.0, tracer))
