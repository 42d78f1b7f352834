"""Smoke check of the benchmark itself.

    python3 bench/smoke.py

Runs every workload at minimal size (one cycle of cases) untraced and
traced, and fails unless each run exits 0, passes its correctness gate,
fails no case and emits exactly the metrics BENCHMARK.json names, with
their units.  Then runs the benchmark in a directory holding only
BENCHMARK.json and bench/, where it must exit non-zero without printing a
result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                missing = sorted(set(expected[trace]) - set(units))
                extra = sorted(set(units) - set(expected[trace]))
                problems.append(f"{label}: metrics differ; missing {missing}, extra {extra}")
            if not result["correct"] or result["attempted"] < 1 or result["failed"]:
                problems.append(f"{label}: correct={result['correct']}, "
                                f"attempted={result['attempted']}, "
                                f"failed={result['failed']}")
            print(f"ok  {label}: {result['attempted']} cases, "
                  f"{result['failed']} failed", flush=True)

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, "solve", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("without the source tree the benchmark must fail without a result")
    else:
        print(f"ok  without the source tree: exit {proc.returncode}, no result")

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
