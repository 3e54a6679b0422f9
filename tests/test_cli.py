"""End-to-end tests of the command line interface.

Every test drives ``cli.main`` in process and checks exit codes, output
formats, determinism, and agreement with the library functions the commands
wrap.
"""

import configparser
import contextlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import momentgate
from momentgate import cli
from momentgate import dependence as dep
from momentgate import estimators as est
from momentgate import montecarlo as mc
from momentgate import tail_models as tm
from momentgate import theory as th


def run_cli(*argv, stdin_text=None):
    """Invoke the CLI in process; returns (exit_code, stdout, stderr).

    stdin is a text layer over bytes, as a real one is, so the CLI can read
    its ``.buffer``."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin_text.encode()),
                                     encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = 0 if exc.code is None else int(exc.code)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


# run in a fresh interpreter, then report the heavy modules it loaded (scipy's,
# the Monte-Carlo harness and its thread pool) as the last line of stderr
_FRESH_CLI = """import json, sys
from momentgate import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write(json.dumps(sorted(
    m for m in sys.modules if m.partition(".")[0] == "scipy"
    or m in ("momentgate.montecarlo", "concurrent.futures"))) + "\\n")
sys.exit(code)
"""


def run_fresh_cli(*argv, stdin_text=None, env=None):
    """Invoke the CLI in a new interpreter, with the variables in env added
    to its environment and stdin_text (str or bytes) on a real pipe;
    returns (exit_code, stdout, stderr, the heavy modules loaded)."""
    src = str(Path(momentgate.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, **(env or {}),
               PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_CLI, *argv], capture_output=True,
        input=stdin_text.encode() if isinstance(stdin_text, str) else stdin_text,
        env=env, timeout=120)
    *err, modules = proc.stderr.decode().splitlines(True)
    return (proc.returncode, proc.stdout.decode(), "".join(err),
            json.loads(modules))


def data_lines(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def parse_table(lines):
    cols = lines[0].split(",")
    return [dict(zip(cols, ln.split(","))) for ln in lines[1:]]


def strip_comment_lines(text):
    return "".join(ln for ln in text.splitlines(True) if not ln.startswith("#"))


# ------------------------------------------------------------ basic plumbing


def test_version_flag_reports_package_version():
    code, out, _ = run_cli("--version")
    assert code == 0
    assert out.strip() == momentgate.__version__


def test_unknown_model_is_usage_error():
    code, _, err = run_cli("theory", "--model", "nosuch", "--n", "100")
    assert code == 2
    assert "unknown model family" in err


# ------------------------------------------------------------ theory command


def test_theory_csv_frontier_row():
    n = math.exp(4.0)
    code, out, err = run_cli("theory", "--model", "logweibull:rho=2",
                             "--n", f"{n:.17g}")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("# version=")
    assert lines[1].startswith("# config=")
    assert lines[2] == "# seed=0"
    rows = parse_table(data_lines(out))
    assert len(rows) == 1
    row = {k: float(v) for k, v in rows[0].items()}
    assert row["y_dagger"] == pytest.approx(2.0, rel=1e-12)
    assert row["qc_exact"] == pytest.approx(3.5, rel=1e-12)
    assert row["qc_approx"] == pytest.approx(4.0, rel=1e-12)


def test_theory_json_agrees_with_csv():
    args = ("theory", "--model", "slep:rho=1.5", "--n", "100,10000,1e20")
    code_c, out_c, _ = run_cli(*args)
    code_j, out_j, _ = run_cli(*args, "--format", "json")
    assert code_c == 0 and code_j == 0
    doc = json.loads(strip_comment_lines(out_j))
    csv_rows = parse_table(data_lines(out_c))
    assert len(doc["curves"]) == len(csv_rows) == 3
    for jrow, crow in zip(doc["curves"], csv_rows):
        for key in ("n", "y_dagger", "theta", "rho_l", "qc_exact", "qc_approx"):
            assert float(crow[key]) == jrow[key]


def test_theory_q_grid_emits_prediction_table():
    code, out, err = run_cli("theory", "--model", "lognormal", "--n", "1000",
                             "--q-grid", "1,2")
    assert code == 0 and err == ""
    assert "# q_table" in out
    tail = out.split("# q_table\n", 1)[1]
    rows = parse_table(tail.splitlines())
    assert [float(r["q"]) for r in rows] == [1.0, 2.0]
    ln = tm.log_normal()
    for r in rows:
        q = float(r["q"])
        assert float(r["predicted_lnS"]) == th.predicted_lnS(ln, 1000.0, q)
        assert float(r["log_moment"]) == pytest.approx(q * q / 2.0, rel=1e-12)


# one order at y_dagger = qc_exact, so the table has rows below, at and above
# the critical order; frozen from the per-order evaluation this table had
# before ln h'(y_dagger) was taken once per grid
_Q_TABLE = """# q_table
q,predicted_lnS,log_moment
0.5,0.12500000000000011,0.12500000000000011
2,2,2
3.0902323061678132,4.7747678530416202,4.7747678530416202
5,9.7574551445927717,12.5
9,22.118384369264025,40.5
"""


def test_theory_q_grid_table_frozen():
    code, out, err = run_cli("theory", "--model", "lognormal", "--n", "1000",
                             "--q-grid", "0.5,2,3.0902323061678132,5,9")
    assert code == 0 and err == ""
    assert out.endswith(_Q_TABLE)


def test_theory_q_grid_requires_single_n():
    code, _, err = run_cli("theory", "--model", "lognormal",
                           "--n", "100,1000", "--q-grid", "1")
    assert code == 2
    assert "exactly one" in err


def test_theory_warns_when_q_exceeds_validity_ceiling():
    n = math.exp(4.0)
    ceiling = th.q_validity_ceiling(tm.log_weibull(2.0), n)
    code, out, err = run_cli("theory", "--model", "logweibull:rho=2",
                             "--n", f"{n:.17g}", "--q-grid", "1,50")
    assert code == 0
    assert "validity ceiling" in err
    assert f"q=50" in err
    assert "q=1 " not in err
    assert 50.0 > ceiling > 1.0
    # the table still contains both rows
    tail = out.split("# q_table\n", 1)[1]
    assert len(parse_table(tail.splitlines())) == 2


def test_theory_warns_when_qc_exact_is_negative():
    # logweibull rho=8 at n=2: y_dagger lies below the density's mode
    curve = th.critical_curve(tm.log_weibull(8.0), 2.0)
    assert curve.qc_exact < 0.0
    code, out, err = run_cli("theory", "--model", "logweibull:rho=8",
                             "--n", "2,1000")
    assert code == 0
    assert err == ("warning: n=2: qc_exact=-1.52302 is negative, "
                   "y_dagger=0.95522 lies below the density's mode\n")
    rows = parse_table(data_lines(out))
    assert float(rows[0]["qc_exact"]) == curve.qc_exact
    assert float(rows[1]["qc_exact"]) > 0.0
    code, out, err_json = run_cli("theory", "--model", "logweibull:rho=8",
                                  "--n", "2", "--format", "json")
    assert code == 0 and err_json == err.splitlines(True)[0]
    assert json.loads(strip_comment_lines(out))["curves"][0]["qc_exact"] == curve.qc_exact
    code, _, err = run_cli("theory", "--model", "logweibull:rho=8", "--n", "3")
    assert code == 0 and err == ""


def test_theory_quadrature_overflow_is_numerical_failure():
    code, out, err = run_cli("theory", "--model", "slep:rho=1.1",
                             "--n", "1000", "--q-grid", "70")
    assert code == 3
    assert "q=70" in err and "Traceback" not in err


def test_theory_tiny_order_is_finite():
    # the logweibull saddle at q = 1e-200 is taken in closed form
    code, out, err = run_cli("theory", "--model", "logweibull:rho=1.5",
                             "--n", "100", "--q-grid", "1e-200")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "9.9999999999999998e-201,0,0"


def test_theory_far_logweibull_peak_is_quiet():
    # at q = 1e300 (rho = 1e10) s' overflows at the peak: the half-line's
    # step is 0 there, and the order is answered with no RuntimeWarning
    code, out, err = run_cli("theory", "--model", "logweibull:rho=1e10",
                             "--n", "3", "--q-grid", "1e300")
    assert code == 0
    assert err == "warning: q=1e+300 exceeds validity ceiling 1.19565\n"
    assert out.splitlines()[-1].split(",")[2] == "1.0000000666749699e+300"


def test_theory_rejects_sample_size_below_two():
    code, _, err = run_cli("theory", "--model", "lognormal", "--n", "1.5")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("theory", "--model", "logweibull:rho=inf", "--n", "100"),
    ("sample", "--model", "logweibull:rho=inf", "--n", "10"),
    ("theory", "--model", "lognormal", "--n", ""),
    ("theory", "--model", "lognormal", "--n", ","),
    ("theory", "--model", "lognormal", "--n", "1000", "--q-grid", ","),
], ids=["theory-rho-inf", "sample-rho-inf", "theory-n-empty", "theory-n-comma",
        "theory-q-grid-comma"])
def test_nonfinite_model_or_theory_argument_is_usage_error(argv):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_theory_takes_no_eps_flag():
    # the validity ceiling's exponent slack is the constant 0.1
    code, out, err = run_cli("theory", "--model", "lognormal", "--n", "1000",
                             "--eps", "0.1")
    assert code == 2 and out == ""
    assert "--eps" in err


@pytest.mark.parametrize("argv", [
    ("sample", "--model", "lognormal", "--n", "200000"),
    ("theory", "--model", "lognormal", "--n", ",".join(["1000"] * 10000)),
], ids=["sample", "theory"])
def test_closed_output_pipe_ends_the_command_quietly(argv):
    # a reader that stops early, as `| head -1` does
    src = str(Path(momentgate.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from momentgate import cli; "
         "sys.exit(cli.main(sys.argv[1:]))", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"# ")
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


# ------------------------------------------------------------ sample / synth


def test_sample_is_deterministic_and_seed_sensitive(tmp_path):
    args = ("sample", "--model", "logweibull:rho=2", "--n", "50",
            "--seed", "7")
    _, out_a, _ = run_cli(*args)
    _, out_b, _ = run_cli(*args)
    _, out_c, _ = run_cli("sample", "--model", "logweibull:rho=2", "--n",
                          "50", "--seed", "8")
    assert out_a == out_b
    assert out_a != out_c
    header = out_a.splitlines()[0]
    assert header.startswith("#")
    assert "seed=7" in header
    assert "model=logweibull:rho=2" in header
    assert f"version={momentgate.__version__}" in header
    # --out writes the same bytes to a file
    path = tmp_path / "s.txt"
    run_cli(*args, "--out", str(path))
    assert path.read_text() == out_a


def test_synth_header_and_determinism():
    args = ("synth", "--model", "lognormal", "--cov", "exp:tau=5", "--n",
            "64", "--seed", "3")
    _, out_a, _ = run_cli(*args)
    _, out_b, _ = run_cli(*args)
    assert out_a == out_b
    header = out_a.splitlines()[0]
    assert "cov=exp:tau=5" in header
    assert "match=gaussian" in header
    assert "model=lognormal" in header
    assert "seed=3" in header
    assert len(data_lines(out_a)) == 64


def test_synth_header_reads_back_a_tabulated_cov():
    code, out, _ = run_cli("synth", "--model", "lognormal", "--cov",
                           "tab:1,0.5,0.25", "--n", "16", "--seed", "1")
    assert code == 0
    assert out.splitlines()[0] == (
        "# seed=1, model=lognormal, cov=tab:1,0.5,0.25, match=gaussian, "
        f"version={momentgate.__version__}")


def test_synth_hermite_matches_a_slep_whose_power_underflows():
    # slep rho = 1e300 is uniform on (-1, 1) and |y|^rho underflows at every
    # value; the marginal keeps its spread, so Hermite matching has a variance
    code, out, err = run_cli("synth", "--model", "slep:rho=1e300", "--cov",
                             "tab:1", "--n", "64", "--match", "hermite")
    assert code == 0 and err == ""
    y = np.array(data_lines(out), dtype=float)
    assert len(y) == 64 and np.all(np.abs(y) < 1.0) and np.all(y != 0.0)


# ------------------------------------------------------------ estimate


def test_sample_then_estimate_matches_library(tmp_path):
    path = tmp_path / "sample.txt"
    run_cli("sample", "--model", "logweibull:rho=2", "--n", "1000",
            "--seed", "11", "--out", str(path))
    code, out, _ = run_cli("estimate", "--input", str(path))
    assert code == 0
    payload = json.loads(out)

    with open(path) as fh:
        values = tm.read_sample(fh)
    sample = tm.Sample(values=values, n=len(values), seed=0)
    e = est.qc_hat(sample, None, None)
    assert payload["theta_hat"] == e.theta_hat
    assert payload["rho_hat"] == e.rho_hat
    assert payload["qc_hat"] == e.qc_hat
    assert payload["k_theta"] == e.k_theta == 28
    assert payload["k_rho"] == e.k_rho == 80
    assert payload["n"] == 1000


def test_estimate_recovers_frontier_from_exact_quantiles(tmp_path):
    n = 10_000
    model = tm.log_weibull(2.0)
    i = np.arange(1, n, dtype=float)
    vals = np.append(tm.quantile(model, 1.0 - i / n),
                     tm.quantile(model, 0.5 / n))
    path = tmp_path / "quantiles.txt"
    path.write_text("".join(f"{v:.17g}\n" for v in vals))

    code, out, _ = run_cli("estimate", "--input", str(path),
                           "--k-theta", "1", "--k-rho", "100")
    assert code == 0
    payload = json.loads(out)
    curve = th.critical_curve(model, n)
    assert payload["qc_hat"] == pytest.approx(curve.qc_approx, rel=1e-10)
    assert payload["rho_hat"] == pytest.approx(2.0, rel=1e-10)


def test_estimate_log_input_matches_plain_input(tmp_path):
    rng = np.random.default_rng(4)
    y = np.sort(rng.standard_normal(500))[::-1]
    (tmp_path / "y.txt").write_text("".join(f"{v:.17g}\n" for v in y))
    (tmp_path / "x.txt").write_text("".join(f"{math.exp(v):.17g}\n" for v in y))
    _, out_y, _ = run_cli("estimate", "--input", str(tmp_path / "y.txt"))
    code, out_x, _ = run_cli("estimate", "--input", str(tmp_path / "x.txt"),
                             "--log-input")
    assert code == 0
    py, px = json.loads(out_y), json.loads(out_x)
    assert px["theta_hat"] == pytest.approx(py["theta_hat"], rel=1e-12)
    assert px["qc_hat"] == pytest.approx(py["qc_hat"], rel=1e-12)


def test_estimate_log_input_rejects_nonpositive_values(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2.0\n-1.0\n3.0\n")
    code, _, err = run_cli("estimate", "--input", str(path), "--log-input")
    assert code == 4
    assert "positive" in err


def test_estimate_reads_stdin():
    n = 200
    y = tm.sample_iid(tm.log_weibull(2.0), n, 21)
    text = "".join(f"{v:.17g}\n" for v in y.values)
    code, out, _ = run_cli("estimate", "--input", "-", "--k-theta", "2",
                           "--k-rho", "10", stdin_text=text)
    assert code == 0
    e = est.qc_hat(y, 2, 10)
    assert json.loads(out)["qc_hat"] == e.qc_hat


def test_estimate_piped_stdin_matches_file(tmp_path):
    path = tmp_path / "sample.txt"
    run_cli("sample", "--model", "logweibull:rho=2", "--n", "40000",
            "--seed", "8", "--out", str(path))
    text = path.read_text()
    assert len(text) > 2 * tm._CHUNK  # three chunks or more
    code, piped, _, _ = run_fresh_cli("estimate", "--input", "-", stdin_text=text)
    assert code == 0
    assert piped == run_fresh_cli("estimate", "--input", str(path))[1]


def test_estimate_loads_scipy_only_on_demand(tmp_path):
    # nor the Monte-Carlo harness and its thread pool, which theory loads
    path = tmp_path / "sample.txt"
    with open(path, "w") as fh:
        tm.write_sample(fh, tm.sample_iid(tm.log_weibull(2.0), 3000, 8))
    code, out, _, loaded = run_fresh_cli("estimate", "--input", str(path))
    assert code == 0 and loaded == []
    assert out == run_cli("estimate", "--input", str(path))[1]
    # a real pipe on stdin reads like the file
    code, out_stdin, _, loaded = run_fresh_cli(
        "estimate", "--input", "-", stdin_text=path.read_text())
    assert code == 0 and loaded == [] and out_stdin == out
    code, out_corr, _, loaded = run_fresh_cli("estimate", "--input", str(path),
                                              "--corr", "--tau", "10")
    assert code == 0 and json.loads(out_corr)["tau"] == 10.0
    assert "momentgate.montecarlo" not in loaded
    # commands whose kernels call scipy import it when they reach them
    code, _, _, loaded = run_fresh_cli(
        "theory", "--model", "slep:rho=1.5", "--n", "1000")
    assert code == 0 and "scipy.special" in loaded
    assert "momentgate.montecarlo" in loaded


def test_moment_grids_load_no_scipy_integrate(tmp_path):
    # theory --q-grid and an lnS study (lnS_curve) integrate ln E X^q in
    # numpy alone
    code, out, _, loaded = run_fresh_cli(
        "theory", "--model", "lognormal", "--n", "1000", "--q-grid", "0.5,1,2")
    assert code == 0 and "q_table" in out
    assert not [m for m in loaded if m.startswith("scipy.integrate")]
    ini = write_ini(tmp_path, """\
[experiment]
kind = lnS
models = lognormal
n = 100
q = 0.5,1,2
reps = 3
""")
    code, out, _, loaded = run_fresh_cli("mc", "--config", ini)
    assert code == 0 and "log_moment" in out
    assert not [m for m in loaded if m.startswith("scipy.integrate")]


def test_estimate_csv_format(tmp_path):
    path = tmp_path / "sample.txt"
    run_cli("sample", "--model", "lognormal", "--n", "300", "--seed", "2",
            "--out", str(path))
    code, out, _ = run_cli("estimate", "--input", str(path),
                           "--format", "csv")
    assert code == 0
    rows = parse_table(data_lines(out))
    assert len(rows) == 1
    _, out_json, _ = run_cli("estimate", "--input", str(path))
    payload = json.loads(out_json)
    assert float(rows[0]["qc_hat"]) == payload["qc_hat"]
    assert int(rows[0]["k_theta"]) == payload["k_theta"]


def test_estimate_corr_requires_tau(tmp_path):
    path = tmp_path / "sample.txt"
    run_cli("sample", "--model", "lognormal", "--n", "100", "--out", str(path))
    code, _, err = run_cli("estimate", "--input", str(path), "--corr")
    assert code == 2
    assert "--tau" in err


@pytest.mark.parametrize("flag", ["--tau", "--s", "--kappa", "--alpha",
                                  "--beta"])
def test_estimate_correction_flag_without_corr_is_usage_error(tmp_path, flag):
    path = tmp_path / "sample.txt"
    run_cli("sample", "--model", "lognormal", "--n", "100", "--out", str(path))
    code, out, err = run_cli("estimate", "--input", str(path), flag, "3")
    assert code == 2 and out == ""
    assert "--corr" in err


def test_estimate_corr_rejects_infinite_beta(tmp_path):
    path = tmp_path / "sample.txt"
    run_cli("sample", "--model", "lognormal", "--n", "2000", "--out", str(path))
    code, out, err = run_cli("estimate", "--input", str(path), "--corr",
                             "--tau", "5", "--beta", "inf")
    assert code == 2 and out == ""
    assert "beta must be finite" in err


def test_estimate_corr_rejects_window_above_effective_size(tmp_path):
    # n* = 1000 / (1 + 0.08 * 100) = 111.1 < k_theta
    path = tmp_path / "sample.txt"
    run_cli("sample", "--model", "lognormal", "--n", "1000", "--out", str(path))
    code, out, err = run_cli("estimate", "--input", str(path), "--corr",
                             "--tau", "100", "--k-theta", "150")
    assert code == 2 and out == ""
    assert err == "error: k_theta=150 exceeds the effective size n* = 111.111\n"


@pytest.mark.parametrize("argv", [
    ("sample", "--model", "lognormal", "--n", "5", "--format", "json"),
    ("synth", "--model", "lognormal", "--cov", "exp:tau=3", "--n", "16",
     "--format", "csv"),
], ids=["sample", "synth"])
def test_format_flag_of_sample_files_is_usage_error(argv):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert "--format" in err


@pytest.mark.parametrize("argv", [
    ("theory", "--model", "lognormal", "--n", "1000"),
    ("estimate", "--input", "-", "--format", "csv"),
], ids=["theory", "estimate"])
def test_seed_flag_of_deterministic_commands_is_usage_error(argv):
    # theory and estimate read no random stream: they take no --seed, and
    # their headers read seed 0
    text = "".join(f"{v}\n" for v in range(1, 301))
    code, out, _ = run_cli(*argv, stdin_text=text)
    assert code == 0 and out.splitlines()[2] == "# seed=0"
    code, out, err = run_cli(*argv, "--seed", "3", stdin_text=text)
    assert code == 2 and out == ""
    assert "--seed" in err


def test_correction_defaults_agree(tmp_path):
    # one set of defaults: the Monte-Carlo config, the library and the CLI
    cc = mc.CorrelatedConfig(covs=(dep.ExponentialCov(tau=5.0),))
    params = inspect.signature(dep.qc_hat_corr).parameters
    assert (cc.kappa, cc.alpha, cc.beta) == tuple(
        params[name].default for name in ("kappa", "alpha", "beta"))
    path = tmp_path / "series.txt"
    run_cli("synth", "--model", "lognormal", "--cov", "exp:tau=5",
            "--n", "4096", "--seed", "2", "--out", str(path))
    code, out, _ = run_cli("estimate", "--input", str(path), "--corr",
                           "--tau", "5")
    assert code == 0
    payload = json.loads(out)
    assert (payload["kappa"], payload["beta"]) == (cc.kappa, cc.beta)
    assert payload["s"] == cc.alpha * 5.0


def test_estimate_corr_reports_correction_fields(tmp_path):
    path = tmp_path / "series.txt"
    run_cli("synth", "--model", "lognormal", "--cov", "exp:tau=5",
            "--n", "4096", "--seed", "2", "--out", str(path))
    code, out, _ = run_cli("estimate", "--input", str(path), "--corr",
                           "--tau", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == 5.0
    assert payload["kappa"] == 0.08
    assert payload["beta"] == 1.0
    assert payload["s"] == pytest.approx(0.05)
    assert payload["n_star"] == dep.n_star(4096, 5.0, 0.08)

    with open(path) as fh:
        values = tm.read_sample(fh)
    sample = tm.Sample(values=values, n=len(values), seed=0)
    e = dep.qc_hat_corr(sample, None, None, tau=5.0)
    assert payload["qc_hat"] == e.qc_hat
    assert payload["k_theta"] == e.k_theta
    assert payload["k_rho"] == e.k_rho


def test_estimate_corr_takes_given_sieve_settings(tmp_path):
    # estimate --corr, qc_hat_corr and run_corr's corrected rows read one
    # correction rule: the same windows and radius (alpha * tau, or a given
    # --s) for the same settings
    model, n, tau = tm.log_normal(), 4096, 5.0
    path = tmp_path / "series.txt"
    run_cli("synth", "--model", "lognormal", "--cov", "exp:tau=5",
            "--n", str(n), "--seed", "2", "--out", str(path))
    with open(path) as fh:
        values = tm.read_sample(fh)
    sample = tm.Sample(values=values, n=len(values), seed=0)
    for s in (None, 2.5):
        radius_flag = [] if s is None else ["--s", repr(s)]
        code, out, _ = run_cli("estimate", "--input", str(path), "--corr",
                               "--tau", "5", "--kappa", "0.2", "--alpha",
                               "0.6", "--beta", "0.5", *radius_flag)
        assert code == 0
        payload = json.loads(out)
        assert (payload["kappa"], payload["beta"]) == (0.2, 0.5)
        assert payload["s"] == (0.6 * 5.0 if s is None else s)
        assert payload["n_star"] == dep.n_star(n, tau, 0.2)
        e = dep.qc_hat_corr(sample, None, None, tau=tau, kappa=0.2, s=s,
                            alpha=0.6, beta=0.5)
        settings = (payload["k_theta"], payload["k_rho"], payload["s"])
        assert (payload["qc_hat"], *settings[:2]) == (e.qc_hat, e.k_theta,
                                                       e.k_rho)
        cc = mc.CorrelatedConfig(covs=(dep.ExponentialCov(tau=tau),),
                                 kappa=0.2, alpha=0.6, beta=0.5,
                                 s_values=None if s is None else (s,))
        cfg = mc.ExperimentConfig(models=(model,), n_grid=(n,), reps=2,
                                  seed=0, correlated=cc)
        rows = [r for r in mc.run_corr(cfg).rows if r["corrected"]]
        assert {(r["k_theta"], r["k_rho"], r["s"]) for r in rows} == {settings}
        assert [r["target"] for r in rows if r["estimator"] == "qc"] == [
            dep.qc_theory_corr(model, n, tau, 0.2)]
    # alpha * tau = inf * 0 is NaN: the radius rule names alpha, and a given
    # --s does not read alpha at all
    args = ("estimate", "--input", str(path), "--corr", "--tau", "0",
            "--alpha", "inf")
    code, _, err = run_cli(*args)
    assert code == 2 and "got alpha = inf, tau = 0.0" in err
    code, out, _ = run_cli(*args, "--s", "1")
    assert code == 0 and json.loads(out)["s"] == 1.0


@pytest.mark.parametrize("corr", [(), ("--corr", "--tau", "1")],
                         ids=["plain", "corr"])
@pytest.mark.parametrize("sign", [-1, 1], ids=["negative", "positive"])
def test_estimate_bad_window_is_usage_error_whatever_the_values(corr, sign):
    # on -1..-200 theta_hat is undefined, but the window is refused first
    text = "".join(f"{sign * v}\n" for v in range(1, 201))
    code, out, err = run_cli("estimate", "--input", "-", "--k-theta", "5",
                             "--k-rho", "1", *corr, stdin_text=text)
    assert (code, out, err) == (2, "", "error: k_rho must be >= 2, got 1\n")


def test_infinite_sieve_radius_is_usage_error(tmp_path):
    # a radius of inf keeps one sieve pick of any series
    path = tmp_path / "sample.txt"
    path.write_text("".join(f"{v}\n" for v in range(1, 201)))
    code, out, err = run_cli("estimate", "--input", str(path), "--corr",
                             "--tau", "3", "--s", "inf")
    assert (code, out, err) == (
        2, "", "error: the sieve radius s must be finite, got inf\n")
    ini = write_ini(tmp_path, "[experiment]\nmodels = lognormal\nn = 512\n"
                              "reps = 2\n[correlated]\ncov = exp:tau=5\n"
                              "s = inf\n")
    code, out, err = run_cli("mc", "--config", ini)
    assert (code, out, err) == (
        2, "", "error: the sieve radius s must be finite, got inf\n")


def test_estimate_all_negative_sample_is_numerical_failure(tmp_path):
    path = tmp_path / "neg.txt"
    path.write_text("".join(f"{-v}\n" for v in range(1, 101)))
    code, _, err = run_cli("estimate", "--input", str(path))
    assert code == 3
    assert err.startswith("error:")


@pytest.mark.parametrize("count, corr", [
    (1000, ()), (1000, ("--corr", "--tau", "3", "--k-theta", "10")), (30, ())],
    ids=["1000-plain", "1000-corr", "30-plain"])
def test_estimate_constant_sample_is_numerical_failure(tmp_path, count, corr):
    # every used order statistic is equal: no slope, whichever way the
    # rounding residue of the tied logs' moments falls (it gave rho_hat
    # 0.1667 on 1000 copies and -0.0417 on 30)
    path = tmp_path / "constant.txt"
    path.write_text("19.4460711989558\n" * count)
    code, out, err = run_cli("estimate", "--input", str(path), "--k-rho", "28",
                             *corr)
    assert (code, out) == (3, "")
    assert err == "error: all used order statistics are equal\n"


_NO_THETA = "ln n / Omega_2\\d is not a finite positive number"


@pytest.mark.parametrize("corr", [(), ("--corr", "--tau", "3")],
                         ids=["plain", "corr"])
@pytest.mark.parametrize("lo, hi, undefined", [
    (1e307, 9e307, _NO_THETA), (1e-310, 9e-310, _NO_THETA),
    (1e-308, 9e-308, "theta_hat \\* rho_hat is not finite")],
    ids=["1e307", "1e-310", "1e-308"])
def test_estimate_at_the_ends_of_the_doubles_is_numerical_failure(
        tmp_path, corr, lo, hi, undefined):
    # Omega_k overflows (1e307), ln n / Omega_k overflows (1e-310), or
    # theta_hat is finite and theta_hat * rho_hat overflows (1e-308): no
    # qc_hat of 0 or Infinity, and no NumPy warning
    path = tmp_path / "edge.txt"
    path.write_text("".join("%.17g\n" % v for v in np.linspace(lo, hi, 400)))
    code, out, err = run_cli("estimate", "--input", str(path), *corr)
    assert (code, out) == (3, "")
    assert re.fullmatch(rf"error: Omega_2\d = \S+: {undefined}; "
                        "estimator undefined\n", err), err


def test_estimate_missing_file_is_io_error(tmp_path):
    code, _, err = run_cli("estimate", "--input", str(tmp_path / "nope.txt"))
    assert code == 4
    assert err.startswith("error:")


def test_estimate_malformed_line_is_data_error(tmp_path):
    for bad in ("banana", "nan", "inf"):
        path = tmp_path / "mangled.txt"
        path.write_text(f"1.0\n2.0\n{bad}\n")
        code, _, err = run_cli("estimate", "--input", str(path))
        assert code == 4, bad
        assert "line 3" in err


def test_estimate_undecodable_file_is_data_error(tmp_path):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"# seed=1\n1.5\n\xff2.0\n3\n")
    message = "error: sample file is not utf-8 text: invalid start byte b'\\xff'\n"
    code, out, err = run_cli("estimate", "--input", str(path))
    assert code == 4 and out == "" and err == message
    # a real pipe on stdin reports the byte as the file does
    code, out, err, _ = run_fresh_cli("estimate", "--input", "-",
                                      stdin_text=path.read_bytes())
    assert code == 4 and out == "" and err == message


def test_estimate_reads_utf8_whatever_the_locale(tmp_path):
    # under the C locale, without UTF-8 mode, open() would default to ASCII
    path = tmp_path / "noted.txt"
    path.write_bytes("# seed=3, note=\u00e9\n".encode()
                     + "".join(f"{1 + v / 7}\n" for v in range(200)).encode())
    code, expected, _ = run_cli("estimate", "--input", str(path))
    assert code == 0
    c_locale = {"PYTHONUTF8": "0", "LC_ALL": "C"}
    for argv, stdin in ((str(path), None), ("-", path.read_bytes())):
        code, out, err, _ = run_fresh_cli("estimate", "--input", argv,
                                          stdin_text=stdin, env=c_locale)
        assert (code, out, err) == (0, expected, ""), argv


@pytest.mark.parametrize("header", ["# seed=3, model=lognormal\n", ""],
                         ids=["header", "headerless"])
def test_estimate_skips_a_utf8_bom(tmp_path, header):
    # the BOM that some editors write ahead of UTF-8 text, on a file and on
    # stdin
    text = header + "".join(f"{1 + v / 7}\n" for v in range(200))
    path = tmp_path / "plain.txt"
    path.write_text(text)
    code, expected, _ = run_cli("estimate", "--input", str(path))
    assert code == 0
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert run_cli("estimate", "--input", str(path)) == (0, expected, "")
    assert run_cli("estimate", "--input", "-",
                   stdin_text="\ufeff" + text) == (0, expected, "")


def test_estimate_ignores_the_header_seed(tmp_path):
    # the seed only names a file's provenance; no estimate reads it
    values = "".join(f"{v}\n" for v in range(1, 101))
    path = tmp_path / "plain.txt"
    path.write_text(values)
    code, expected, _ = run_cli("estimate", "--input", str(path))
    assert code == 0
    for seed in ("abc", "1.5"):
        path = tmp_path / "seeded.txt"
        path.write_text(f"# seed={seed}, model=unknown\n" + values)
        result = run_cli("estimate", "--input", str(path))
        assert result == (0, expected, ""), seed


# ------------------------------------------------------------ mc command


def write_ini(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return str(path)


def test_mc_config_negative_beta_is_usage_error(tmp_path):
    # a sieve setting that can never give an estimate fails the run, as it
    # fails estimate --corr, instead of reporting a cell of failures
    ini = write_ini(tmp_path, "[experiment]\nmodels = lognormal\nn = 512\n"
                              "reps = 2\n[correlated]\ncov = exp:tau=5\n"
                              "beta = -1\n")
    code, out, err = run_cli("mc", "--config", ini)
    assert code == 2 and out == ""
    assert "beta must be finite" in err


def test_mc_requires_exactly_one_experiment_source(tmp_path):
    ini = write_ini(tmp_path, "[experiment]\nmodels = lognormal\n")
    code, _, err = run_cli("mc")
    assert code == 2 and "exactly one" in err
    code, _, err = run_cli("mc", "--config", ini, "--figure", "3")
    assert code == 2 and "exactly one" in err


def test_mc_config_run_is_byte_identical_and_matches_library(tmp_path):
    ini = write_ini(tmp_path, """\
[experiment]
kind = iid
models = logweibull:rho=2
n = 400
k_theta = 4
k_rho = 20
reps = 4
seed = 5
""")
    code, out_a, err = run_cli("mc", "--config", ini)
    assert code == 0 and err == ""
    _, out_b, _ = run_cli("mc", "--config", ini)
    assert out_a == out_b

    cfg = mc.ExperimentConfig(models=(tm.log_weibull(2.0),), n_grid=(400,),
                              k_theta_grid=(4,), k_rho_grid=(20,), reps=4,
                              seed=5)
    buf = io.StringIO()
    mc.run_iid(cfg).to_csv(buf)
    assert "".join(out_a.splitlines(True)[3:]) == buf.getvalue()


def test_mc_config_reps_and_seed_flags_override_ini(tmp_path):
    ini = write_ini(tmp_path, """\
[experiment]
models = logweibull:rho=2
n = 400
k_theta = 4
k_rho = 20
reps = 4
seed = 5
""")
    _, base, _ = run_cli("mc", "--config", ini)
    _, more, _ = run_cli("mc", "--config", ini, "--reps", "6")
    _, reseeded, _ = run_cli("mc", "--config", ini, "--seed", "9")
    assert base != more
    assert base != reseeded
    assert "# seed=9" in reseeded


def test_mc_corr_config_with_assumed_tau_matches_library(tmp_path):
    ini = write_ini(tmp_path, """\
[experiment]
kind = corr
models = lognormal
n = 2048
k_theta = 4
k_rho = 30
reps = 2
seed = 6

[correlated]
cov = exp:tau=4
kappa = 0.08
alpha = 0.25
beta = 1.0
assumed_tau = 4,8
""")
    code, out, err = run_cli("mc", "--config", ini)
    assert code == 0 and err == ""
    cfg = mc.ExperimentConfig(
        models=(tm.log_normal(),), n_grid=(2048,), k_theta_grid=(4,),
        k_rho_grid=(30,), reps=2, seed=6,
        correlated=mc.CorrelatedConfig(covs=(dep.ExponentialCov(4.0),),
                                       kappa=0.08, alpha=0.25, beta=1.0,
                                       assumed_taus=(4.0, 8.0)))
    buf = io.StringIO()
    mc.run_corr(cfg).to_csv(buf)
    assert "".join(out.splitlines(True)[3:]) == buf.getvalue()


def test_mc_lns_config_matches_library(tmp_path):
    ini = write_ini(tmp_path, """\
[experiment]
kind = lnS
models = lognormal
n = 200
q = 1,2
reps = 3
seed = 5
""")
    code, out, err = run_cli("mc", "--config", ini)
    assert code == 0 and err == ""
    rows = parse_table(data_lines(out))
    ref = mc.lnS_curve(tm.log_normal(), [200], np.array([1.0, 2.0]), 3,
                       mc.rep_seed(5, 0, 0))
    assert len(rows) == len(ref.rows) == 2
    for got, want in zip(rows, ref.rows):
        assert float(got["mean_lnS"]) == want["mean_lnS"]
        assert float(got["se_lnS"]) == want["se_lnS"]
        assert float(got["q"]) == want["q"]


def test_mc_lns_config_over_several_n_concatenates_their_curves(tmp_path):
    ini = write_ini(tmp_path, """\
[experiment]
kind = lnS
models = lognormal
n = 100,200
q_over_qc = 0.5,1.5
reps = 3
seed = 5
""")
    code, out, err = run_cli("mc", "--config", ini)
    assert code == 0 and err == ""
    assert out.splitlines()[2] == "# seed=5"
    want = []
    for i, n in enumerate((100, 200)):
        q = np.array([0.5, 1.5]) * th.critical_curve(tm.log_normal(), n).qc_approx
        want += mc.lnS_curve(tm.log_normal(), [n], q, 3,
                             mc.rep_seed(5, i, 0)).rows
    rows = parse_table(data_lines(out))
    assert len(rows) == len(want) == 4
    for got, ref in zip(rows, want):
        assert int(got["n"]) == ref["n"]
        for key in ("q", "q_over_qc", "mean_lnS", "se_lnS", "predicted_lnS",
                    "log_moment"):
            assert float(got[key]) == ref[key], key


def test_mc_lns_config_needs_exactly_one_q_spec(tmp_path):
    ini = write_ini(tmp_path, """\
[experiment]
kind = lnS
models = lognormal
n = 200
q = 1,2
q_over_qc = 0.5
reps = 2
""")
    code, _, err = run_cli("mc", "--config", ini)
    assert code == 4
    assert "exactly one" in err


@pytest.mark.parametrize("extra", [
    "models = lognormal,slep:rho=3\n",
    "models = lognormal\nk_theta = 4\n",
    "models = lognormal\nk_rho = 40\n",
    "models = lognormal\n[correlated]\ncov = exp:tau=4\n",
], ids=["two-models", "k_theta", "k_rho", "correlated-section"])
def test_mc_lns_config_refuses_input_it_would_drop(tmp_path, extra):
    # lnS runs one model and reads no estimator window, as lnS_curve takes
    # one n
    ini = write_ini(tmp_path, "[experiment]\nkind = lnS\nn = 200\nq = 1,2\n"
                              "reps = 2\n" + extra)
    code, out, err = run_cli("mc", "--config", ini)
    assert (code, out) == (4, "")
    assert err == ("error: lnS config takes one model and no k_theta, k_rho "
                   "or [correlated] section\n")


def test_mc_figure_preset_smoke():
    code, out, err = run_cli("mc", "--figure", "3", "--reps", "2",
                             "--seed", "1")
    assert code == 0 and err == ""
    rows = parse_table(data_lines(out))
    # six estimator-window cells, three quantities each
    assert len(rows) == 18
    assert {r["estimator"] for r in rows} == {"theta", "rho", "qc"}
    assert {int(r["k_theta"]) for r in rows} == {1, 2, 4, 8, 16, 28}
    assert all(r["reps"] == "2" for r in rows)


def test_mc_figure_rejects_reps_below_two():
    code, out, err = run_cli("mc", "--figure", "3", "--reps", "0")
    assert code == 2 and out == ""
    assert err == "error: reps must be >= 2\n"


# the hand-built grids the figure presets held before they became INI
# documents; each preset must load to calls of exactly these arguments
def _old_figure_calls():
    lw2, ln, exp = tm.log_weibull(2.0), tm.log_normal(), dep.ExponentialCov
    taus = (exp(10.0), exp(50.0), exp(100.0))
    sweep = mc.ExperimentConfig(models=(lw2,), n_grid=(1000, 10000, 100000),
                                reps=500, seed=0)
    corr = mc.ExperimentConfig(
        models=(ln,), n_grid=(65536,), k_theta_grid=(10,), k_rho_grid=(100,),
        reps=200, seed=0, correlated=mc.CorrelatedConfig(covs=taus))
    # figure 2: one lnS_curve per n on the q / q_c(n) grid, seeded per n
    lns = [(mc.lnS_curve, (ln, [n], np.linspace(0.1, 3.0, 30)
                           * th.critical_curve(ln, n).qc_approx, 500,
                           mc.rep_seed(0, i, 0)))
           for i, n in enumerate((100, 1000, 1000000))]
    return {
        2: ("lnS", lns),
        3: ("iid", [(mc.run_iid, (mc.ExperimentConfig(
            models=(lw2,), n_grid=(1000,), k_theta_grid=(1, 2, 4, 8, 16, 28),
            k_rho_grid=(80,), reps=500, seed=0),))]),
        5: ("iid", [(mc.run_iid, (sweep,))]),
        6: ("iid", [(mc.run_iid, (mc.ExperimentConfig(
            models=(lw2,), n_grid=(1000,), k_theta_grid=(28,),
            k_rho_grid=(10, 20, 40, 80, 120, 160, 200), reps=500, seed=0),))]),
        8: ("iid", [(mc.run_iid, (sweep,))]),
        11: ("corr", [(mc.run_corr, (corr,))]),
        12: ("corr", [(mc.run_corr, (mc.ExperimentConfig(
            models=(ln,), n_grid=(65536,), k_theta_grid=(1,),
            k_rho_grid=(100,), reps=200, seed=0,
            correlated=mc.CorrelatedConfig(covs=taus)),))]),
        15: ("corr", [(mc.run_corr, (corr,))]),
        16: ("corr", [(mc.run_corr, (mc.ExperimentConfig(
            models=(ln,), n_grid=(65536,), k_theta_grid=(10,),
            k_rho_grid=(100,), reps=200, seed=0,
            correlated=mc.CorrelatedConfig(
                covs=(exp(100.0),), assumed_taus=(100.0, 200.0, 400.0))),))]),
    }


@pytest.mark.parametrize("fig", (2, 3, 5, 6, 8, 11, 12, 15, 16))
def test_figure_preset_loads_the_old_grid(fig):
    parser = configparser.ConfigParser()
    parser.read_dict(cli._FIGURES[fig])
    kind, seed, calls = cli._config_experiment(parser, None, None)
    want_kind, want = _old_figure_calls()[fig]
    assert (kind, seed) == (want_kind, 0)
    assert [(c.func, c.keywords) for c in calls] == [(f, {}) for f, _ in want]
    for call, (_, args) in zip(calls, want):
        # exact equality, element by element for the q grids
        np.testing.assert_equal(call.args, args)


def _out_case_files(tmp_path):
    sample = tmp_path / "sample.txt"
    run_cli("sample", "--model", "lognormal", "--n", "300", "--seed", "2",
            "--out", str(sample))
    write_ini(tmp_path, """\
[experiment]
kind = corr
models = lognormal
n = 1024
k_theta = 4
k_rho = 30
reps = 2
seed = 6

[correlated]
cov = exp:tau=4
s = 0.5,2
""")
    return {"SAMPLE": str(sample), "INI": str(tmp_path / "exp.ini")}


@pytest.mark.parametrize("argv", [
    ("theory", "--model", "lognormal", "--n", "1000", "--q-grid", "1,2"),
    ("theory", "--model", "slep:rho=1.5", "--n", "100,1e20",
     "--format", "json"),
    ("estimate", "--input", "SAMPLE"),
    ("estimate", "--input", "SAMPLE", "--format", "csv"),
    ("mc", "--config", "INI"),
    ("mc", "--config", "INI", "--format", "json"),
], ids=["theory-csv", "theory-json", "estimate-json", "estimate-csv",
        "mc-csv", "mc-json"])
def test_out_file_holds_the_stdout_bytes(tmp_path, argv):
    files = _out_case_files(tmp_path)
    argv = [files.get(a, a) for a in argv]
    code, out, err = run_cli(*argv)
    assert code == 0 and out
    path = tmp_path / "out.txt"
    code_f, out_f, err_f = run_cli(*argv, "--out", str(path))
    assert (code_f, out_f, err_f) == (0, "", err)
    assert path.read_bytes() == out.encode()


def test_failing_command_writes_no_out_file(tmp_path):
    sample = _out_case_files(tmp_path)["SAMPLE"]
    path = tmp_path / "out.txt"
    code, out, err = run_cli("estimate", "--input", sample, "--corr",
                             "--out", str(path))
    assert code == 2 and out == "" and "--tau" in err
    assert not path.exists()


@pytest.mark.parametrize("kind", ["bogus", "propagation"])
def test_mc_config_unknown_kind_is_data_error(tmp_path, kind):
    ini = write_ini(tmp_path, f"""\
[experiment]
kind = {kind}
models = logweibull:rho=2
n = 400
reps = 2
""")
    code, out, err = run_cli("mc", "--config", ini)
    assert code == 4 and out == ""
    assert repr(kind) in err


@pytest.mark.parametrize("text, message", [
    ("models = lognormal\nreps = 2\n", "no section headers"),
    ("[experiment]\nmodels = lognormal\nreps = many\n", "'many'"),
    ("[experiment]\nkind = corr\nmodels = lognormal\nn = 1024\n"
     "[correlated]\ncov = exp:tau=4\nmatch = bogus\n", "'bogus'"),
    ("[experiment]\nmodels = lognormal\nreps = 2\nseeed = 5\n",
     "[experiment] takes no key 'seeed'"),
    ("[experiment]\nmodels = lognormal\nreps = 2\n"
     "[correlatd]\ncov = exp:tau=4\n", "unknown section [correlatd]"),
    ("[experiment]\nkind = corr\nmodels = lognormal\nn = 1024\n"
     "[correlated]\ncov = exp:tau=4\ntau = 4\n",
     "[correlated] takes no key 'tau'"),
    ("[DEFAULT]\nseed = 5\n[experiment]\nmodels = lognormal\nreps = 2\n",
     "unknown section [DEFAULT]"),
    ("[experiment]\nmodels = lognormal\nn = 100\nreps = 2\nq = 1\n",
     "[experiment] takes no key 'q'"),
    ("[experiment]\nkind = corr\nmodels = lognormal\nn = 1024\n"
     "q_over_qc = 0.5\n[correlated]\ncov = exp:tau=4\n",
     "[experiment] takes no key 'q_over_qc'"),
], ids=["no-section-header", "non-integer-reps", "unknown-match",
        "misspelt-key", "misspelt-section", "key-of-another-section",
        "default-section", "iid-with-lnS-q", "corr-with-lnS-q_over_qc"])
def test_mc_config_malformed_value_is_data_error(tmp_path, text, message):
    code, out, err = run_cli("mc", "--config", write_ini(tmp_path, text))
    assert code == 4 and out == ""
    assert err.startswith("error: malformed config") and message in err


@pytest.mark.parametrize("text, message", [
    ("[experiment]\nreps = 2\n", "config needs experiment.models"),
    ("[experiment]\nmodels = lognormal\nreps = 2\n[correlated]\nkappa = 0.1\n",
     "correlated section needs cov"),
    ("[experiment]\nkind = lnS\nmodels = lognormal\nn =\nq = 1\nreps = 2\n",
     "lnS config needs n and exactly one of q / q_over_qc"),
    ("[experiment]\nkind = corr\nmodels = lognormal\nreps = 2\n",
     "experiment kind corr needs a [correlated] section"),
    ("[experiment]\nkind = iid\nmodels = lognormal\nreps = 2\n"
     "[correlated]\ncov = exp:tau=4\n",
     "experiment kind iid takes no [correlated] section"),
], ids=["no-models", "no-cov", "lnS-no-n", "corr-no-section",
        "iid-with-section"])
def test_mc_config_missing_entry_is_data_error(tmp_path, text, message):
    code, out, err = run_cli("mc", "--config", write_ini(tmp_path, text))
    assert (code, out, err) == (4, "", f"error: {message}\n")


def test_mc_config_negative_correlation_length_is_named(tmp_path):
    # the section sets no tau: n* reads the covariance's correlation length
    ini = write_ini(tmp_path, "[experiment]\nkind = corr\nmodels = lognormal\n"
                              "n = 512\nreps = 2\n[correlated]\n"
                              "cov = tab:1,-0.4\n")
    code, out, err = run_cli("mc", "--config", ini)
    assert (code, out, err) == (
        2, "", "error: the correlation length tau and kappa must be >= 0, "
               "got tau = -0.666667, kappa = 0.08\n")


@pytest.mark.parametrize("line, value", [
    ("n = abc", "'abc'"),
    ("n = 100.5", "'100.5'"),
    ("n = 100, inf", "'100, inf'"),
    ("k_theta = 4.5", "'4.5'"),
    ("k_rho = 20, 30.25", "'20, 30.25'"),
], ids=["non-number", "n", "n-inf", "k_theta", "k_rho"])
def test_mc_config_non_integral_grid_is_usage_error(tmp_path, line, value):
    text = "[experiment]\nmodels = lognormal\nreps = 2\n" + line + "\n"
    if not line.startswith("n "):
        text += "n = 100\n"
    code, out, err = run_cli("mc", "--config", write_ini(tmp_path, text))
    assert code == 2 and out == ""
    assert err.startswith("error: expected comma-separated") and value in err


@pytest.mark.parametrize("line", ["assumed_tau = ,", "s = ,"],
                         ids=["assumed_tau", "s"])
def test_mc_config_empty_sweep_is_usage_error(tmp_path, line):
    # an empty sweep would run no cell and leave the rest of the section
    # (here an infinite tau and a NaN alpha) unchecked
    ini = write_ini(tmp_path, "[experiment]\nmodels = lognormal\nn = 512\n"
                              "reps = 2\n[correlated]\ncov = exp:tau=inf\n"
                              "alpha = nan\n" + line + "\n")
    code, out, err = run_cli("mc", "--config", ini)
    assert (code, out, err) == (
        2, "", "error: assumed tau and s grids must be nonempty\n")


def test_mc_config_integral_float_grid_reads_as_int():
    parser = configparser.ConfigParser()
    parser.read_string("[experiment]\nmodels = lognormal\nn = 1e3, 2000.0\n"
                       "k_theta = 1e1\nk_rho = 100\n")
    _, _, [call] = cli._config_experiment(parser, None, None)
    assert call.func is mc.run_iid
    [config] = call.args
    assert config.n_grid == (1000, 2000) and config.k_theta_grid == (10,)
    assert all(type(k) is int for k in config.n_grid + config.k_theta_grid)


def test_mc_reps_beyond_uint32_ids_is_usage_error(tmp_path):
    ini = write_ini(tmp_path, "[experiment]\nmodels = lognormal\nn = 100\n")
    code, out, err = run_cli("mc", "--config", ini, "--reps", str(2**32 + 1))
    assert code == 2 and out == ""
    assert err.startswith("error: reps must be at most 2^32")


def test_mc_config_mixes_tabulated_and_exponential_covariances():
    parser = configparser.ConfigParser()
    parser.read_string("""\
[experiment]
kind = corr
models = lognormal
n = 1024
[correlated]
cov = tab:1,0.5,0.25, exp:tau=10,TAB:1,0.2,exp:tau=4
""")
    _, _, [call] = cli._config_experiment(parser, None, None)
    assert call.func is mc.run_corr
    [config] = call.args
    assert [dep.format_cov(c) for c in config.correlated.covs] == [
        "tab:1,0.5,0.25", "exp:tau=10", "tab:1,0.2", "exp:tau=4"]


def test_mc_figure_without_preset_is_usage_error():
    code, _, err = run_cli("mc", "--figure", "9", "--reps", "2")
    assert code == 2 and "invalid choice" in err


def test_mc_config_file_missing_or_invalid(tmp_path):
    code, _, err = run_cli("mc", "--config", str(tmp_path / "none.ini"))
    assert code == 4
    ini = write_ini(tmp_path, "[other]\nx = 1\n")
    code, _, err = run_cli("mc", "--config", ini)
    assert code == 4
    assert "experiment" in err


@pytest.mark.parametrize("argv, seed", [
    (("sample", "--model", "lognormal", "--n", "5", "--seed", "-1"), "-1"),
    (("sample", "--model", "lognormal", "--n", "5", "--seed", str(2**128)),
     str(2**128)),
    (("synth", "--model", "lognormal", "--cov", "exp:tau=3", "--n", "16",
      "--seed", "-1"), "-1"),
    (("mc", "--figure", "3", "--reps", "2", "--seed", "-1"), "-1"),
    (("mc", "--figure", "2", "--reps", "2", "--seed", "-1"), "-1"),
], ids=["sample-negative", "sample-2^128", "synth-negative", "mc-iid-negative",
        "mc-lnS-negative"])
def test_seed_outside_its_domain_is_usage_error(argv, seed):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"seed {seed}" in err


def test_ini_negative_seed_is_usage_error(tmp_path):
    ini = write_ini(tmp_path, "[experiment]\nmodels = lognormal\nn = 100\n"
                              "reps = 2\nseed = -1\n")
    code, out, err = run_cli("mc", "--config", ini)
    assert code == 2 and out == ""
    assert "seed -1" in err


# ------------------------------------------- sizes and covariances at the ends


_HUGE_N_INI = "[experiment]\nmodels = lognormal\nn = 1e300\nreps = 2\n"


@pytest.mark.parametrize("argv, ini, name, size", [
    (("mc",), _HUGE_N_INI, "n", str(int(1e300))),
    (("mc",), _HUGE_N_INI + "kind = lnS\nq = 1\n", "n", str(int(1e300))),
    (("sample", "--model", "lognormal", "--n", str(10 ** 22)), None, "n",
     str(10 ** 22)),
    (("synth", "--model", "lognormal", "--cov", "exp:tau=3",
      "--n", str(10 ** 22)), None, "series length", str(10 ** 22)),
    (("synth", "--model", "lognormal", "--cov", "exp:tau=3",
      "--n", str(2 ** 62)), None, "series length", str(2 ** 62)),
], ids=["mc-iid", "mc-lnS", "sample", "synth", "synth-2^62"])
def test_size_no_array_holds_is_usage_error(tmp_path, argv, ini, name, size):
    # numpy refuses each of these sizes before it allocates anything
    if ini is not None:
        argv += ("--config", write_ini(tmp_path, ini))
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert err == f"error: {name} must be at most 2^57, got {size}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", ["5e-324", "1e-310"])
def test_vanishing_tau_runs_quietly(tmp_path, tau):
    code, out, err = run_cli("synth", "--model", "lognormal",
                             "--cov", f"exp:tau={tau}", "--n", "64")
    assert code == 0 and err == ""
    _, iid_out, _ = run_cli("synth", "--model", "lognormal",
                            "--cov", "exp:tau=0", "--n", "64")
    assert data_lines(out) == data_lines(iid_out)
    ini = write_ini(tmp_path, "[experiment]\nmodels = lognormal\nn = 512\n"
                              f"reps = 2\n[correlated]\ncov = exp:tau={tau}\n")
    code, out, err = run_cli("mc", "--config", ini)
    assert code == 0 and err == "" and len(data_lines(out)) == 7


# ------------------------------------------------- fuzz of the CLI and INI
#
# argv and INI documents from a grammar of odd tokens, run in process: every
# run must exit 0, 2, 3 or 4 with no other exception and no warning, and a
# successful table command must print at least one data row, and an lnS
# table a finite se_lnS wherever its mean_lnS is finite.  Sizes are at most
# 4096 (or at least 2^62, which no array holds) and reps at most 3, but for
# the examples.

_ODD = ("", ",", "nan", "inf", "0", "-1", "1e-300", "1e300", "5e-324")


# the share of odd tokens, in tenths, drawn once per case: none, few or many
_ODD_SHARE = st.shared(st.sampled_from([0, 1, 4]), key="odd share")


def _tokens(*valid):
    """One of the valid tokens, or an odd token at the case's odd share."""
    return st.tuples(_ODD_SHARE, st.integers(0, 9)).flatmap(
        lambda si: st.sampled_from(_ODD if si[1] < si[0] else valid))


def _joined(tokens, max_size=2):
    return st.lists(tokens, min_size=1, max_size=max_size).map(",".join)


_SIZES = _tokens("2", "8", "64", "512", "4096", str(2 ** 62), str(10 ** 22))
_REALS = _tokens("0.5", "1", "3", "10", "100")
# orders for lnS: at 1e308 each replication's ln S can be finite and their
# sum not (logweibull at rho = 1e300, where ln S = q)
_LNS_ORDERS = _tokens("0.5", "1", "3", "10", "100", "1e308")
_WINDOWS = _tokens("1", "2", "10", "100", "default")
_FORMATS = st.sampled_from(["csv", "json"])
_MODELS = st.one_of(
    st.just("lognormal"),
    st.builds("{}:rho={}".format, st.sampled_from(["logweibull", "slep"]),
              _tokens("1.0001", "1.5", "2", "10", "1e10", "1e300")))
_COVS = st.one_of(
    st.builds("exp:tau={}".format, _tokens("3", "10", "1e-310")),
    _joined(_tokens("1", "0.5", "-0.5", "0.9", "2"), 3).map("tab:{}".format))


def _options(**options):
    """argv pieces: each --option with a value drawn from its strategy (a flag
    where the strategy is None), or left out."""
    pieces = [st.one_of(st.just([]),
                        st.just([flag]) if values is None
                        else values.map(lambda v, f=flag: [f, v]))
              for flag, values in (("--" + name.replace("_", "-"), values)
                                   for name, values in options.items())]
    return st.tuples(*pieces).map(lambda ps: [t for p in ps for t in p])


def _keys(**keys):
    """INI lines of the keys drawn, each present or not."""
    lines = st.tuples(*(st.one_of(st.just(""), values.map(
        lambda v, k=key: f"{k} = {v}\n")) for key, values in keys.items()))
    return lines.map("".join)


@st.composite
def _mc_case(draw):
    kind = draw(_tokens("iid", "corr", "lnS", None))
    document = "[experiment]\n" + ("" if kind is None else f"kind = {kind}\n")
    document += f"models = {draw(_joined(_MODELS))}\n"
    if kind == "lnS":
        document += draw(st.builds("{} = {}\n".format,
                                   st.sampled_from(["q", "q_over_qc"]),
                                   _joined(_LNS_ORDERS)))
    else:
        document += draw(_keys(k_theta=_joined(_WINDOWS),
                               k_rho=_joined(_WINDOWS)))
    document += draw(_keys(n=_joined(_SIZES), seed=_tokens("3")))
    # reps at most 3, from --reps or else from the document: an odd token
    # above 3 is not an integer
    reps = draw(st.one_of(st.none(), _tokens("2", "3")))
    if reps is None:
        document += f"reps = {draw(_tokens('2', '3'))}\n"
    if kind == "corr" or kind is None and draw(st.booleans()):
        document += f"[correlated]\ncov = {draw(_joined(_COVS))}\n" + draw(_keys(
            match=st.sampled_from(["gaussian", "hermite", "bogus"]),
            assumed_tau=_joined(_REALS), s=_joined(_REALS), kappa=_REALS,
            alpha=_REALS, beta=_REALS))
    argv = ["mc", "--config", "{ini}"] + ([] if reps is None else ["--reps", reps])
    return argv + draw(_options(seed=_tokens("3"), format=_FORMATS)), document


def _argv(*parts):
    """Cases of one command: argv pieces, each a token or a strategy of one
    token or of a list of them; and no INI document."""
    def flat(drawn):
        return [t for p in drawn for t in ([p] if isinstance(p, str) else p)]
    return st.tuples(*(st.just(p) if isinstance(p, str) else p
                       for p in parts)).map(lambda d: (flat(d), None))


_CASES = st.one_of(
    _argv("theory", "--model", _MODELS, "--n", _joined(_SIZES | _REALS),
          _options(q_grid=_joined(_REALS), format=_FORMATS)),
    _argv("sample", "--model", _MODELS, "--n", _SIZES, _options(seed=_tokens("5"))),
    _argv("synth", "--model", _MODELS, "--cov", _COVS, "--n", _SIZES,
          _options(match=st.sampled_from(["gaussian", "hermite"]))),
    _argv("estimate", "--input", st.sampled_from(["{iid}", "{series}"]),
          _options(k_theta=_WINDOWS, k_rho=_WINDOWS, format=_FORMATS),
          st.one_of(st.just([]), _REALS.map(lambda t: ["--corr", "--tau", t]),
                    _options(corr=None, tau=_REALS)),
          _options(s=_REALS, kappa=_REALS, alpha=_REALS, beta=_REALS)),
    _mc_case(),
)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """The INI path the fuzz writes, and an i.i.d. sample and a correlated
    series for estimate to read."""
    root = tmp_path_factory.mktemp("fuzz")
    files = {name: str(root / name) for name in ("ini", "iid", "series")}
    run_cli("sample", "--model", "lognormal", "--n", "2048", "--out", files["iid"])
    run_cli("synth", "--model", "lognormal", "--cov", "exp:tau=10",
            "--n", "4096", "--out", files["series"])
    return files


def _table_rows(out, fmt):
    """The data rows a table command printed: the CSV lines after the header
    as dicts, or the JSON document's rows."""
    body = strip_comment_lines(out)
    if fmt == "csv":
        return parse_table(data_lines(body))
    doc = json.loads(body)
    return doc.get("rows", doc.get("curves"))


def _spread_is_finite(out, rows):
    """Whether an lnS table of at least 2 reps gives se_lnS finite wherever
    mean_lnS is (true of every other table)."""
    reps = re.search(r'^\s*(?:# reps=|"reps": )(\d+)', out, re.M)
    if "se_lnS" not in rows[0] or int(reps[1]) < 2:
        return True
    return all(math.isfinite(float(r["se_lnS"])) for r in rows
               if math.isfinite(float(r["mean_lnS"])))


@settings(max_examples=150)
@given(case=_CASES)
@example(case=(["synth", "--model", "lognormal", "--cov", "exp:tau=5e-324",
                "--n", "64"], None))
@example(case=(["mc", "--config", "{ini}"], "[experiment]\nmodels = lognormal\n"
               "n = 512\nreps = 2\n[correlated]\ncov = exp:tau=5e-324\n"))
@example(case=(["mc", "--config", "{ini}"], _HUGE_N_INI))
@example(case=(["mc", "--config", "{ini}"], _HUGE_N_INI + "kind = lnS\nq = 1\n"))
@example(case=(["sample", "--model", "lognormal", "--n", str(10 ** 22)], None))
@example(case=(["synth", "--model", "lognormal", "--cov", "exp:tau=3",
                "--n", str(10 ** 22)], None))
@example(case=(["synth", "--model", "lognormal", "--cov", "exp:tau=3",
                "--n", str(2 ** 62)], None))
@example(case=(["synth", "--model", "slep:rho=1e300", "--cov", "tab:1",
                "--n", "64", "--match", "hermite"], None))
@example(case=(["theory", "--model", "logweibull:rho=1e10", "--n", "3",
                "--q-grid", "1e300"], None))
@example(case=(["mc", "--config", "{ini}", "--reps", "2"],
               "[experiment]\nmodels = lognormal\nn = 512\n[correlated]\n"
               "cov = exp:tau=inf\nalpha = nan\nassumed_tau = ,\n"))
@example(case=(["estimate", "--input", "{series}", "--k-theta", "0",
                "--k-rho", "-1", "--corr", "--tau", "3"], None))
@example(case=(["mc", "--config", "{ini}", "--reps", "2"],
               "[experiment]\nkind = lnS\nmodels = logweibull:rho=1e300\n"
               "q_over_qc = 3\n"))
@example(case=(["mc", "--config", "{ini}", "--reps", "50"],
               "[experiment]\nkind = lnS\nmodels = logweibull:rho=1e300\n"
               "q_over_qc = 3\n"))
@example(case=(["mc", "--config", "{ini}"],
               "[experiment]\nkind = lnS\nmodels = logweibull:rho=1e300\n"
               "q = 1e308\nn = 1000\nreps = 3\n"))
def test_cli_fuzz_exits_typed_and_quietly(fuzz_files, case):
    argv, document = case
    if document is not None:
        Path(fuzz_files["ini"]).write_text(document)
    argv = [a.format(**fuzz_files) for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(*argv)
    assert code in (0, 2, 3, 4), (argv, document, err)
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else None
    if code == 0 and (argv[0] in ("theory", "mc")
                      or argv[0] == "estimate" and fmt == "csv"):
        rows = _table_rows(out, fmt or "csv")
        assert rows, (argv, document, out)
        assert _spread_is_finite(out, rows), (argv, document, out)


# ------------------------------------------------- fuzz of estimate's input
#
# Sample files of ties, a few distinct values, values an ulp apart or an
# i.i.d. sample, scaled to the ends of the doubles and partly zeroed or
# negated, with n from 1 to 1000, under an optional '# seed=..., model=...'
# header, with '#' and blank lines anywhere, CRLF or tab-ended lines and an
# optional UTF-8 BOM; every window flag, --log-input and the --corr settings.
# Every run must exit 0, 2, 3 or 4 with no other exception and no warning; a
# run without --corr whose windows are outside their domain exits 2 unless
# its file is refused (4); and a successful one prints only finite numbers
# and fitted rho_hat on a window whose values are not all equal.

_FILE_VALUES = (19.4460711989558, 1.0, 0.5, 3.0, 50.0, 1e300, 1e-300, 1e-310,
                5e-324, 0.0, -2.0)
_FILE_MODELS = (tm.log_normal(), tm.log_weibull(2.0), tm.log_weibull(1e10),
                tm.strict_log_exp_power(3.0))
_FILE_SEEDS = ("0", "-1", "1000", "1.0", str(2 ** 64), "7" * 400, "x")


@st.composite
def _sample_text(draw):
    n = draw(st.one_of(st.sampled_from([1, 2, 3, 29, 30, 1000]),
                       st.integers(1, 1000), st.integers(100, 1000)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["tied", "few", "ulp"] + ["sample"] * 3))
    if kind == "sample":
        values = tm.sample_iid(draw(st.sampled_from(_FILE_MODELS)), n,
                               draw(st.integers(0, 9))).values
        with np.errstate(over="ignore", under="ignore"):
            values = values * draw(st.sampled_from([1.0, 1e-300, 1e300]))
    else:
        pool = draw(st.lists(st.sampled_from(_FILE_VALUES), min_size=1,
                             max_size=1 if kind == "tied" else 3))
        if kind == "ulp":
            for _ in range(3):
                pool.append(float(np.nextafter(pool[-1], math.inf)))
        values = rng.choice(pool, n)
    share = draw(st.sampled_from([0.0, 0.0, 0.0, 0.1, 0.5]))
    hit = rng.random(n) < share
    values[hit] = draw(st.sampled_from([0.0, -1.0])) * values[hit]
    lines = [repr(v) for v in values.tolist()]
    if draw(st.booleans()):
        model = draw(st.sampled_from(_FILE_MODELS))
        lines.insert(0, f"# seed={draw(st.sampled_from(_FILE_SEEDS))}, "
                        f"model={tm.format_model(model)}")
    for _ in range(draw(st.sampled_from([0, 0, 1, 3]))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "#", "# a note", " \t"])))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\t\n"]))
    bom = draw(st.sampled_from(["", "", "", "\ufeff"]))
    return bom + "".join(line + end for line in lines), n


@st.composite
def _estimate_case(draw):
    text, n = draw(_sample_text())
    argv = ["estimate", "--input", "-"]
    for flag in ("--k-theta", "--k-rho"):
        k = draw(st.sampled_from([None, None, None, -1, 0, 1, 2, 3, 28, 80,
                                  n, n + 1]))
        argv += [] if k is None else [flag, str(k)]
    argv += draw(st.sampled_from([[], [], ["--log-input"]]))
    if draw(st.booleans()):
        argv += ["--corr", "--tau", draw(st.sampled_from(["0", "1e-300", "3",
                                                          "1e300"]))]
        argv += draw(st.sampled_from([[], ["--s", "0"], ["--s", "3"]]))
    return argv + ["--format", draw(st.sampled_from(["csv", "json"]))], text


def _file_values(text):
    lines = text.removeprefix("\ufeff").split("\n")
    return np.array([float(line) for line in map(str.strip, lines)
                     if line and line[0] != "#"])


def _bad_window(argv, n):
    """Whether a run's windows are outside their domain at sample size n: a
    given k_theta outside [1, n], a given k_rho outside [2, n), or a default
    window at n < 8."""
    k = {flag: int(argv[argv.index(flag) + 1]) if flag in argv else None
         for flag in ("--k-theta", "--k-rho")}
    return (None in k.values() and n < 8
            or k["--k-theta"] is not None and not 1 <= k["--k-theta"] <= n
            or k["--k-rho"] is not None and not 2 <= k["--k-rho"] < n)


def _used_window(argv, text, payload):
    """The positive values rho_hat fitted: the top k_rho of the sample, or of
    the sieve's picks with --corr."""
    values = _file_values(text)
    if "--log-input" in argv:
        values = np.log(values)
    if "--corr" in argv:
        k = max(payload["k_theta"], payload["k_rho"])
        top = values[dep.sieve(values, payload["s"], payload["beta"],
                               max_points=k + 1)]
    else:
        top = np.sort(values)[::-1]
    window = top[:payload["k_rho"]]
    return window[window > 0.0]


@settings(max_examples=200)
@given(case=_estimate_case())
@example(case=(["estimate", "--input", "-", "--k-rho", "28", "--format", "csv"],
               "19.4460711989558\n" * 1000))
@example(case=(["estimate", "--input", "-", "--k-theta", "10", "--k-rho", "28",
                "--corr", "--tau", "3", "--format", "json"],
               "19.4460711989558\n" * 1000))
@example(case=(["estimate", "--input", "-", "--k-rho", "28", "--format", "csv"],
               "19.4460711989558\n" * 30))
@example(case=(["estimate", "--input", "-", "--format", "csv"],
               f"# seed={'7' * 400}, model=lognormal\r\n\r\n#\r\n" + "".join(
                   f"{v!r}\r\n"
                   for v in tm.sample_iid(_FILE_MODELS[0], 100, 3).values.tolist())))
@example(case=(["estimate", "--input", "-", "--k-theta", "1", "--k-rho", "1",
                "--format", "json"], "".join(f"{-v}\n" for v in range(30))))
def test_estimate_fuzz_exits_typed_and_quietly(case):
    argv, text = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(*argv, stdin_text=text)
    assert code in (0, 2, 3, 4), (argv, err)
    n = len(_file_values(text))
    if "--corr" not in argv and code != 4 and _bad_window(argv, n):
        # a window outside its domain is a usage error whatever the values
        assert code == 2, (argv, err)
    if code == 0:
        fmt = argv[argv.index("--format") + 1]
        [payload] = (_table_rows(out, fmt) if fmt == "csv"
                     else [json.loads(out)])
        payload = {key: float(v) for key, v in payload.items()}
        for key in ("k_theta", "k_rho"):
            payload[key] = int(payload[key])
        assert all(map(math.isfinite, payload.values())), (argv, out)
        window = _used_window(argv, text, payload)
        assert window[0] > window[-1], (argv, window)
