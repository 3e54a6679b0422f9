"""momentgate benchmark: one workload, or all of them, measured end to end.

    python3 perfbench/run.py --workload iid_mc --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout that holds ``src/momentgate``; nothing needs
to be installed.  Each workload runs in fresh processes with
MOMENTGATE_THREADS set to the number of CPUs this process may run on.

With ``--trace 0`` the run reports the end-to-end metrics listed in
BENCHMARK.json: set-up time (median of several fresh processes), the median
wall and CPU seconds of one operation in a closed loop, rescaled by the
host's speed during the run as a fixed probe loop measures it (the raw
medians and quartiles are printed beside them), peak resident
memory, the share of replications that gave an answer, and the accuracy of
the reference study.  With ``--trace 1`` it runs the workload untraced and
then traced, each for half the time, and reports the per-layer metrics.

Every operation's output is checked; the reference operation (seed 0) must
also match the frozen values in reference.json.  The last line of standard
output is one JSON object; the whole record, with its environment block,
goes to perfbench/out/.  The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 2         # fresh set-up processes besides the measuring one
RUN_LIMIT = 170.0        # seconds per workload; the whole run must end within 180


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def threads() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""),
                MOMENTGATE_THREADS=str(threads()))


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, trace: int, seconds: float) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"
    return {
        "workload": workload, "seed": seed, "trace": bool(trace), "seconds": seconds,
        "nproc": os.cpu_count(), "affinity_cpus": threads(),
        "MOMENTGATE_THREADS": threads(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "git_sha": git_sha(),
        "load": os.getloadavg()[0],
    }


def spawn(args: list[str], workdir: Path, deadline: float) -> tuple[float, dict]:
    """Start a workload process, wait for it, return (start time, its JSON).

    The process gets its own process group, so that on time-out it is
    killed together with any CLI child it started.
    """
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), *args, "--workdir", str(workdir)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except BaseException as exc:  # time-out or interrupt: leave no process behind
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"workload process timed out: {' '.join(args)}") from None
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed ({proc.returncode}): {err.strip()[-2000:]}")
    return t0, json.loads(out.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "count": len(values)}


def host_speed(ops: list[dict]) -> float:
    """The host's speed in a run relative to the baseline host: PROBE_REF_S
    over the mean time of the probe that ran after each operation."""
    from workloads import PROBE_REF_S
    return PROBE_REF_S / statistics.fmean(op["probe"] for op in ops)


def prepare_inputs(workload: str, seed: int, workdir: Path) -> None:
    if workload != "estimate_file":
        return
    from workloads import REFERENCE_SEED, SMALL_FILE_N, input_path, write_input
    for s in {seed, REFERENCE_SEED}:
        write_input(input_path(workdir, s), s)
    write_input(input_path(workdir, seed, small=True), seed, SMALL_FILE_N)


def measure(workload: str, seed: int, seconds: float, workdir: Path,
            deadline: float) -> tuple[dict, dict]:
    """End-to-end metrics; returns (metrics, record details)."""
    setup = []
    for _ in range(SETUP_PROBES):
        t0, res = spawn(["--workload", workload, "--seed", str(seed), "--mode", "setup"], workdir,
                        deadline)
        setup.append(res["ready"] - t0)
    t0, res = spawn(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--mode", "measure"], workdir, deadline)
    setup.append(res["ready"] - t0)

    ops, ref = res["ops"], res["reference"]
    timed = [ref] + ops  # the reference operation is timed like the others
    attempted = sum(op["attempted"] for op in timed)
    failed = sum(op["failed"] for op in timed)
    rss = [op["rss_mb"] for op in timed if op.get("rss_mb") is not None]
    stats = {
        "setup_s": quartiles(setup),
        "op_s": quartiles([op["wall"] for op in timed]),
        "cpu_s": quartiles([op["cpu"] for op in timed]),
    }
    speed = host_speed(timed)
    metrics = {
        "setup_s": stats["setup_s"]["median"],
        "op_norm_s": stats["op_s"]["median"] * speed,
        "cpu_norm_s": stats["cpu_s"]["median"] * speed,
        "peak_rss_mb": max(rss) if rss else res["peak_rss_mb"],
        "ok_frac": 1.0 - failed / attempted,
        "rel_err": ref["rel_err"],
    }
    details = {"stats": stats, "host_speed": speed, "failed_frac": failed / attempted,
               "reference": ref, "ops": ops}
    return metrics, details


def trace(workload: str, seed: int, seconds: float, workdir: Path,
          deadline: float) -> tuple[dict, dict]:
    """Per-layer metrics from a traced run, beside an untraced one."""
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds / 2)]
    _, plain = spawn(common + ["--mode", "measure"], workdir, deadline)
    spans_file = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    _, traced = spawn(common + ["--mode", "trace", "--spans-out", str(spans_file)],
                      workdir, deadline)

    layers = dict(traced["layers"])
    walls = [op["wall"] for op in plain["ops"]]
    layers["bench.untraced_op_mean_s"] = statistics.fmean(walls)
    layers["bench.trace_overhead_s"] = (layers["bench.traced_op_mean_s"]
                                        - layers["bench.untraced_op_mean_s"])
    layers["montecarlo.cpu_per_wall"] = statistics.median(
        op["cpu"] / op["wall"] for op in plain["ops"])
    layers["montecarlo.failed_reps"] = statistics.fmean(op["failed"] for op in plain["ops"])
    details = {"reference": plain["reference"], "ops": plain["ops"] + traced["ops"],
               "traced_from": len(plain["ops"]), "spans_file": str(spans_file),
               "self_sum_s": layers["bench.self_sum_s"]}
    return layers, details


def problems_of(details: dict) -> list[str]:
    out = [f"reference: {p}" for p in details["reference"]["problems"]]
    for i, op in enumerate(details["ops"]):
        out += [f"op {i}: {p}" for p in op["problems"]]
    return out


def run_one(spec: dict, workload: str, seed: int, seconds: float, traced: int) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}-{workload}"
    workdir.mkdir(exist_ok=True)
    try:
        t0 = perf_counter()
        deadline = t0 + RUN_LIMIT
        prepare_inputs(workload, seed, workdir)
        input_s = perf_counter() - t0
        if traced:
            values, details = trace(workload, seed, seconds, workdir, deadline)
            wanted = spec["per_layer"]
        else:
            values, details = measure(workload, seed, seconds, workdir, deadline)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    problems = problems_of(details)
    if traced:
        total, parts = values["bench.traced_op_mean_s"], values["bench.self_sum_s"]
        if abs(total - parts) > 1e-6 * total:
            problems.append(f"self times add up to {parts:.9f} s, traced op is {total:.9f} s")
    ops = [details["reference"]] + details["ops"]
    record = {
        "environment": environment(workload, seed, traced, seconds),
        "input_s": input_s,
        "metrics": metrics,
        "details": details,
        "result": {"correct": not problems, "attempted": len(ops),
                   "failed": sum(1 for op in ops if op["failed"]), "metrics": metrics},
        "problems": problems,
    }
    name = f"{workload}-seed{seed}-trace{traced}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1))
    return record


def show(record: dict) -> None:
    env = record["environment"]
    print(f"== {env['workload']}  seed={env['seed']}  trace={int(env['trace'])}")
    print("environment: " + json.dumps(env))
    details = record["details"]
    for name, m in record["metrics"].items():
        print(f"{name:38s} {m['value']:.6g} {m['unit']}")
    for name, stat in details.get("stats", {}).items():
        print(f"{name:38s} median {stat['median']:.6g} s  (q1 {stat['q1']:.6g}, "
              f"q3 {stat['q3']:.6g}, n={stat['count']})")
    if "host_speed" in details:
        print(f"{'host_speed':38s} {details['host_speed']:.6g}  "
              "(op_norm_s = op_s median x host_speed)")
    if "failed_frac" in details:
        print(f"{'failed_frac':38s} {details['failed_frac']:.6g} ratio")
    if "self_sum_s" in details:
        m = record["metrics"]
        print(f"per-layer self_s sum {details['self_sum_s']:.6g} s = traced op mean "
              f"{m['bench.traced_op_mean_s']['value']:.6g} s; tracing overhead "
              f"{m['bench.trace_overhead_s']['value']:.6g} s")
    for p in record["problems"]:
        print(f"CHECK FAILED: {p}")


def main(argv=None) -> int:
    # turn SIGTERM into SystemExit, so that spawn() kills the workload processes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "momentgate" / "__init__.py").is_file():
        sys.stderr.write(f"error: no momentgate sources under {ROOT / 'src'}\n")
        return 2
    todo = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for wl in todo:
            record = run_one(spec, wl, args.seed, args.seconds, args.trace)
            show(record)
            results[wl] = record["result"]
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if args.workload == "all":
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{wl}.{k}": v for wl, r in results.items()
                              for k, v in r["metrics"].items()}}
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
