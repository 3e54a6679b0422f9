"""Summarise the run records in perfbench/out/ into one baseline record.

    python3 perfbench/summarize.py perfbench/records/baseline-<sha>.json

For every workload and end-to-end metric: the values of the untraced runs
(one per seed), their median and quartiles, and the spread (q3 - q1) /
median that BENCHMARK.json's bound is compared with; the same for the runs'
median op_s and cpu_s, which have no bound.  Per-layer metrics are taken
from the traced runs.
"""

import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "count": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main(out_path: str) -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    records = [json.loads(p.read_text()) for p in sorted((BENCH_DIR / "out").glob("*-trace*.json"))]
    summary = {"environment": None, "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        plain = [r for r in records if r["environment"]["workload"] == wl and not r["environment"]["trace"]]
        traced = [r for r in records if r["environment"]["workload"] == wl and r["environment"]["trace"]]
        entry = {"seeds": sorted(r["environment"]["seed"] for r in plain),
                 "all_correct": all(r["result"]["correct"] for r in plain + traced),
                 "end_to_end": {}, "per_layer": {}}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in sorted(plain, key=lambda r: r["environment"]["seed"])]
            if len(vals) >= 2:
                entry["end_to_end"][m["name"]] = dict(spread(vals), unit=m["unit"],
                                                      bound=m["bound"], values=vals)
        # the raw per-run medians, which BENCHMARK.json does not bound
        entry["medians"] = {}
        for name in ("op_s", "cpu_s"):
            vals = [r["details"]["stats"][name]["median"]
                    for r in sorted(plain, key=lambda r: r["environment"]["seed"])]
            if len(vals) >= 2:
                entry["medians"][name] = dict(spread(vals), unit="s", values=vals)
        for r in traced:
            entry["per_layer"][str(r["environment"]["seed"])] = {
                k: v["value"] for k, v in r["metrics"].items()}
        summary["workloads"][wl] = entry
        if plain and summary["environment"] is None:
            env = dict(plain[0]["environment"])
            for key in ("workload", "seed", "trace", "load"):
                env.pop(key)
            summary["environment"] = env
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    Path(out_path).write_text(json.dumps(summary, indent=1) + "\n")
    for wl, entry in summary["workloads"].items():
        for name, s in entry["end_to_end"].items():
            flag = "ok" if s["spread"] <= s["bound"] / 3 else ("WIDE" if s["spread"] > s["bound"] else "over 1/3")
            print(f"{wl:14s} {name:12s} median {s['median']:.6g} {s['unit']:6s} "
                  f"spread {s['spread']:.4f} bound {s['bound']} {flag}")
        for name, s in entry["medians"].items():
            print(f"{wl:14s} {name:12s} median {s['median']:.6g} {s['unit']:6s} "
                  f"spread {s['spread']:.4f} (not bounded)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
