"""The benchmark's four workloads and the process that measures one of them.

Each workload defines its inputs (made from a seed), one operation, the
checks on the operation's output, and ``rel_err``, the accuracy of the
answer.  Run as a script, this file is the fresh workload process that
``run.py`` starts:

    python3 perfbench/workloads.py --workload iid_mc --seed 1 --seconds 25 \
        --mode measure --workdir perfbench/out/work-1

``--mode setup`` imports momentgate, makes one warm call and exits;
``measure`` then also runs the timed closed loop, whose first operation is
the reference operation (seed 0, checked against frozen values); ``trace``
runs the timed loop with the tracer's wrappers installed.  The process
prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from tracer import ROOT_SPAN, Tracer, wall_self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_SEED = 0
MIN_OPS = 3

# the estimate_file input: 10^6 log-Weibull (rho = 2) log-values, i.e.
# Y = sqrt(E) with E unit exponential, drawn from numpy's Philox stream
FILE_N = 10**6
SMALL_FILE_N = 1000
LNS_RATIOS = np.arange(0.1, 3.01, 0.05)  # the criterion-05 grid, in units of qc_exact

# The host-speed probe.  Other tenants of the shared host slow every
# operation by up to 1.7x, in stretches of seconds to minutes, so the
# measuring loop runs this fixed pure-Python loop after every operation,
# outside the operation's timing, and run.py rescales the run's operation
# times by PROBE_REF_S / (the probe's mean time in the run).  PROBE_REF_S is
# the probe's median time per call on the baseline host (2-vCPU Intel Xeon
# VM, Python 3.11.7).  The probe touches no momentgate code.
PROBE_CALLS = 10
PROBE_REF_S = 0.0125


def host_probe() -> float:
    """Mean seconds per call of the probe loop.

    The host can slow one vCPU and not the other, so the calls take turns
    on the CPUs this process may run on, with the calling thread pinned to
    each.
    """
    cpus = sorted(os.sched_getaffinity(0))
    elapsed = 0.0
    try:
        for k in range(PROBE_CALLS):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            t0 = perf_counter()
            acc = 0
            for i in range(150_000):
                acc += i * i
            elapsed += perf_counter() - t0
    finally:
        os.sched_setaffinity(0, cpus)
    return elapsed / PROBE_CALLS


def input_values(seed: int, n: int = FILE_N) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    return np.sqrt(rng.standard_exponential(n))


def write_input(path: Path, seed: int, n: int = FILE_N) -> None:
    """One value per line after a '# seed=..., model=...' header."""
    y = input_values(seed, n)
    with open(path, "w") as fh:
        fh.write(f"# seed={seed}, model=logweibull:rho=2\n")
        fh.write(("%.17g\n" * n) % tuple(y.tolist()))


def input_path(workdir: Path, seed: int, small: bool = False) -> Path:
    return Path(workdir) / (f"small-{seed}.txt" if small else f"input-{seed}.txt")


def _close(a, b) -> bool:
    """Equal up to rounding: numbers to 1e-9 relative, everything else exactly."""
    if isinstance(a, bool) or isinstance(b, bool) or not (
            isinstance(a, (int, float)) and isinstance(b, (int, float))):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b)) + 1e-12


def frozen_mismatches(summary: dict, frozen: dict) -> list[str]:
    """Differences between an operation's summary and the frozen reference."""
    out = []
    if summary.keys() != frozen.keys():
        return [f"keys {sorted(summary)} != {sorted(frozen)}"]
    for key in frozen:
        got, want = summary[key], frozen[key]
        if isinstance(want, list):
            if len(got) != len(want):
                out.append(f"{key}: {len(got)} entries, want {len(want)}")
                continue
            pairs = zip(got, want)
        else:
            pairs = [(got, want)]
        for i, (g, w) in enumerate(pairs):
            if isinstance(w, dict):
                bad = [c for c in w if c not in g or not _close(g[c], w[c])]
                if bad or g.keys() != w.keys():
                    out.append(f"{key}[{i}]: {bad or 'columns differ'}")
            elif not _close(g, w):
                out.append(f"{key}[{i}]: {g!r} != {w!r}")
    return out


def _finite_numbers(row: dict) -> bool:
    return all(math.isfinite(v) for v in row.values()
               if isinstance(v, (int, float)) and not isinstance(v, bool))


@dataclass
class Outcome:
    """What one operation produced, as the checks and metrics need it."""

    summary: dict           # the numbers compared with reference.json
    attempted: int          # replications (or CLI calls) tried
    failed: int             # of those, how many gave no answer (NaN)
    problems: list          # failed output checks
    cpu: float | None = None     # child CPU seconds, for the CLI workload
    rss_mb: float | None = None  # child peak RSS, for the CLI workload


class _McWorkload:
    """Shared run and checks for the run_iid / run_corr studies.

    Subclasses set ``rows`` and ``reps`` and define ``_config(seed, reps)``
    and ``_call(config)``.
    """

    def warm(self, seed: int) -> None:
        self._call(self._config(seed, 2))

    def run(self, seed: int) -> Outcome:
        report = self._call(self._config(seed, self.reps))
        rows = [dict(r) for r in report.rows]
        problems = []
        if len(rows) != self.rows:
            problems.append(f"{len(rows)} rows, want {self.rows}")
        for r in rows:
            extra = set(r) - set(report.columns)
            if extra:
                problems.append(f"row has columns outside the report: {sorted(extra)}")
            if r["reps_used"] + r["failures"] != self.reps:
                problems.append(f"cell {r['cell_id']}: reps_used + failures != reps")
            if not _finite_numbers(r):
                problems.append(f"cell {r['cell_id']} {r['estimator']}: non-finite value")
        attempted = sum(r["reps"] for r in rows)
        failed = sum(r["failures"] for r in rows)
        summary = {"columns": list(report.columns), "rows": rows}
        return Outcome(summary, attempted, failed, problems)


class IidMc(_McWorkload):
    """run_iid on the criterion-07 grid: logweibull and slep (rho = 2), n = 1000."""

    rows = 6
    reps = 500

    def __init__(self, workdir):
        from momentgate import montecarlo, tail_models as tm
        self.mc = montecarlo
        self.models = (tm.log_weibull(2.0), tm.strict_log_exp_power(2.0))

    def _config(self, seed, reps):
        return self.mc.ExperimentConfig(models=self.models, n_grid=(1000,),
                                        reps=reps, seed=seed)

    def _call(self, cfg):
        return self.mc.run_iid(cfg)

    @staticmethod
    def rel_err(summary) -> float:
        qc = [r["relative_mse"] for r in summary["rows"] if r["estimator"] == "qc"]
        return math.sqrt(sum(qc) / len(qc))


class CorrMc(_McWorkload):
    """run_corr on the criterion-09 grid: lognormal, n = 2^16, tau 10 and 100."""

    rows = 12
    reps = 20

    def __init__(self, workdir):
        from momentgate import dependence as dep, montecarlo, tail_models as tm
        self.mc = montecarlo
        self.corr = montecarlo.CorrelatedConfig(
            covs=(dep.ExponentialCov(10.0), dep.ExponentialCov(100.0)),
            kappa=0.08, alpha=0.01)
        self.models = (tm.log_normal(),)

    def _config(self, seed, reps):
        return self.mc.ExperimentConfig(models=self.models, n_grid=(65536,),
                                        reps=reps, seed=seed,
                                        correlated=self.corr)

    def _call(self, cfg):
        return self.mc.run_corr(cfg)

    @staticmethod
    def rel_err(summary) -> float:
        qc = [r["relative_mse"] for r in summary["rows"]
              if r["estimator"] == "qc" and r["corrected"]]
        return math.sqrt(sum(qc) / len(qc))


class LnS:
    """lnS_curve on lognormal at n = 100 and 1000, 59 orders, 50 reps."""

    ns = (100, 1000)
    reps = 50

    def __init__(self, workdir):
        from momentgate import montecarlo, tail_models as tm, theory
        self.mc = montecarlo
        self.model = tm.log_normal()
        self.grids = {n: LNS_RATIOS * theory.critical_curve(self.model, n).qc_exact
                      for n in self.ns}

    def warm(self, seed: int) -> None:
        self.mc.lnS_curve(self.model, [self.ns[0]], self.grids[self.ns[0]][:3], 2, seed)

    def run(self, seed: int) -> Outcome:
        rows, problems = [], []
        columns = None
        for n in self.ns:
            report = self.mc.lnS_curve(self.model, [n], self.grids[n], self.reps, seed)
            columns = list(report.columns)
            block = [dict(r) for r in report.rows]
            if [r["q"] for r in block] != self.grids[n].tolist():
                problems.append(f"n={n}: q column differs from the requested grid")
            if not all(_finite_numbers(r) for r in block):
                problems.append(f"n={n}: non-finite value")
            rows += block
        summary = {"columns": columns, "rows": rows}
        attempted = self.reps * len(self.ns)
        return Outcome(summary, attempted, 0, problems)

    @staticmethod
    def rel_err(summary) -> float:
        low = np.flatnonzero(LNS_RATIOS <= 0.5 + 1e-9)
        per_n = len(LNS_RATIOS)
        rows = summary["rows"]
        errs = [abs(r["mean_lnS"] - r["log_moment"]) / abs(r["log_moment"])
                for b in range(0, len(rows), per_n) for r in (rows[b + i] for i in low)]
        return max(errs)


class EstimateFile:
    """``momentgate estimate`` as a user runs it: a fresh interpreter per call."""

    def __init__(self, workdir):
        from momentgate import estimators
        # The CLI is single-threaded.  Pin this process, and so the CLI
        # children, to one CPU: the host-speed probe then measures the CPU
        # the operations ran on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.est = estimators
        self.workdir = Path(workdir)
        self.trace_spans = None  # set by the traced run: path for the child's spans
        self._expected = {}       # seed -> payload; the same for every operation

    def warm(self, seed: int) -> None:
        from momentgate import cli
        out = self.workdir / f"warm-{os.getpid()}.json"
        if cli.main(["estimate", "--input", str(input_path(self.workdir, seed, True)),
                     "--out", str(out)]) != 0:
            raise RuntimeError("warm-up estimate failed")

    def expected(self, seed: int) -> dict:
        """The CLI's payload, computed in-process from the same values."""
        if seed not in self._expected:
            from momentgate import tail_models as tm
            values = input_values(seed)
            e = self.est.qc_hat(tm.Sample(values=values, n=len(values), seed=seed))
            self._expected[seed] = {"theta_hat": e.theta_hat, "rho_hat": e.rho_hat,
                                    "qc_hat": e.qc_hat, "k_theta": e.k_theta,
                                    "k_rho": e.k_rho, "n": len(values)}
        return self._expected[seed]

    def run(self, seed: int) -> Outcome:
        path = str(input_path(self.workdir, seed))
        if self.trace_spans is None:
            cmd = [sys.executable, "-m", "momentgate.cli", "estimate", "--input", path]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "trace_cli.py"), str(self.trace_spans),
                   "estimate", "--input", path]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        problems = []
        payload = None
        if proc.returncode != 0:
            problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        else:
            try:
                payload = json.loads(proc.stdout)
            except ValueError:
                problems.append("output is not JSON")
        return Outcome({"payload": payload}, 1, 0, problems,
                       cpu=cpu, rss_mb=after.ru_maxrss / 1024.0)

    @staticmethod
    def rel_err(summary) -> float:
        p = summary["payload"]
        qc_approx = 2.0 * math.sqrt(math.log(p["n"]))  # rho (ln n)^(1 - 1/rho), rho = 2
        return abs(p["qc_hat"] - qc_approx) / qc_approx


WORKLOADS = {
    "iid_mc": IidMc,
    "corr_mc": CorrMc,
    "lnS": LnS,
    "estimate_file": EstimateFile,
}


def load_reference() -> dict:
    return json.loads((BENCH_DIR / "reference.json").read_text())


# ---------------------------------------------------------------------------
# the workload process
# ---------------------------------------------------------------------------

def _checked(wl, seed: int, outcome: Outcome) -> Outcome:
    """Checks that run outside the timed region; a failed check fails every result."""
    if isinstance(wl, EstimateFile):
        payload = outcome.summary["payload"]
        if payload is not None and payload != wl.expected(seed):
            outcome.problems.append("CLI output differs from in-process qc_hat")
    if outcome.problems:
        outcome.failed = outcome.attempted
    return outcome


def _loop(wl, seed: int, seconds: float, tracer=None):
    """Closed loop: each operation starts when the previous one has returned.

    Untraced, the host-speed probe runs after each operation.
    """
    ops = []
    t_stop = perf_counter() + seconds
    child_spans = getattr(wl, "trace_spans", None)
    while len(ops) < MIN_OPS or perf_counter() < t_stop:
        if tracer is not None:
            tracer.enabled = True
            token = tracer.begin(ROOT_SPAN)
        c0 = process_time()
        t0 = perf_counter()
        try:
            outcome = wl.run(seed)
            error = None
        except Exception as exc:  # a failing operation is counted, not fatal
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - t0
        cpu = process_time() - c0
        probe = host_probe() if tracer is None else None
        if tracer is not None:
            tracer.end(token)
            tracer.enabled = False
            if child_spans is not None and child_spans.exists():
                data = json.loads(child_spans.read_text())
                child_spans.unlink()
                tracer.merge_child([tuple(s) for s in data["spans"]], data["counts"],
                                   token[0], threading.get_ident())
        if outcome is None:
            ops.append({"wall": wall, "probe": probe, "cpu": cpu, "attempted": 1,
                        "failed": 1, "problems": [error]})
            continue
        _checked(wl, seed, outcome)
        ops.append({"wall": wall, "probe": probe,
                    "cpu": outcome.cpu if outcome.cpu is not None else cpu,
                    "rss_mb": outcome.rss_mb,
                    "attempted": outcome.attempted, "failed": outcome.failed,
                    "problems": outcome.problems})
    return ops


def _layer_stats(tracer, n_ops: int) -> dict:
    """Per-operation means of self time, calls, values and errors per name."""
    roots = [s for s in tracer.spans if s[1] == ROOT_SPAN]
    totals = {}
    driving = threading.get_ident()
    root_time = 0.0
    for root in roots:
        a, b = root[2], root[3]
        root_time += b - a
        inside = [s for s in tracer.spans if a <= s[2] and s[3] <= b]
        for name, sec in wall_self_times(inside, driving).items():
            totals[name] = totals.get(name, 0.0) + sec
    stats = {f"{name}.self_s": sec / n_ops for name, sec in totals.items()}
    calls = {}
    for s in tracer.spans:
        calls[s[1]] = calls.get(s[1], 0) + 1
    for name, c in calls.items():
        stats[f"{name}.calls"] = c / n_ops
    for key, c in tracer.counts().items():
        stats[key] = c / n_ops
    stats["bench.traced_op_mean_s"] = root_time / n_ops
    stats["bench.self_sum_s"] = sum(totals.values()) / n_ops
    return stats


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.workdir)
    wl.warm(args.seed)
    ready = perf_counter()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    result = {"ready": ready}
    tracer = None
    seconds = args.seconds
    if args.mode == "measure":
        # the reference operation is the first timed operation of the loop
        c0 = process_time()
        t0 = perf_counter()
        ref = wl.run(REFERENCE_SEED)
        wall = perf_counter() - t0
        cpu = process_time() - c0
        probe = host_probe()
        seconds -= perf_counter() - t0
        ref.problems += frozen_mismatches(ref.summary, load_reference()[args.workload])
        _checked(wl, REFERENCE_SEED, ref)
        result["reference"] = {
            "wall": wall, "probe": probe, "cpu": ref.cpu if ref.cpu is not None else cpu,
            "rss_mb": ref.rss_mb,
            "attempted": ref.attempted, "failed": ref.failed, "problems": ref.problems,
            "rel_err": wl.rel_err(ref.summary) if not ref.problems else math.nan}
    else:
        tracer = Tracer()
        tracer.install()
        if isinstance(wl, EstimateFile):
            wl.trace_spans = Path(args.workdir) / f"child-spans-{os.getpid()}.json"
    try:
        ops = _loop(wl, args.seed, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["ops"] = ops
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = _layer_stats(tracer, len(ops))
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(
                {"fields": ["id", "name", "start", "end", "parent", "thread"],
                 "spans": tracer.spans, "counts": dict(tracer.counts())}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
