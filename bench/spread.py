"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workloads solve simulate --seeds 1-10 --seconds 20

Runs bench/run.py once per (workload, seed), one run at a time, and prints
for each metric its median, quartiles and spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json.  `--write FILE`
stores the runs, the summary and the provenance of the last run as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=["solve", "simulate", "generate", "oracle"])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--write", help="JSON file for runs and summary")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "wall_s": time.perf_counter() - start, **result})
            print(f"{workload} seed {seed} ({runs[-1]['wall_s']:.0f} s): " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        summary = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        record = json.loads((ROOT / ".bench_out" /
                             f"{workload}-seed{args.seeds[-1]}-trace0.json").read_text())
        report["workloads"][workload] = {
            "runs": runs,
            "summary": summary,
            "spread": {k: v["spread"] for k, v in summary.items()},
            "provenance": record["provenance"],
        }
        for name, s in summary.items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {workload:9s} {name:16s} median {s['median']:11.5g}  "
                  f"q1 {s['q1']:11.5g}  q3 {s['q3']:11.5g}  spread {s['spread']:.4f}"
                  f"  bound {bounds[name]}{flag}")
    if args.write:
        Path(args.write).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
