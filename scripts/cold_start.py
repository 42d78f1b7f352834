#!/usr/bin/env python3
"""Cold-start wall time of the CLI, parent against this working tree.

    python3 scripts/cold_start.py PARENT_REV --runs 10 --out BENCH_16.json

Extracts the committed files of PARENT_REV (`git archive`) into a temporary
directory and byte-compiles both trees' src/ (bench_pairs.compile_sources),
so that no timed run compiles a goldgen module. For each of `python -c
pass`, `goldgen solve`, `goldgen simulate` and `goldgen generate` it times
--runs fresh subprocesses per tree, alternating which tree goes first.
solve and simulate read the README config; generate expands its initial
positions as a seed to depth 2 (N=3, 42 nodes). It prints each side's
median and the parent's median over the change's. The record, with every
run, each side's quartiles, machine info and the compile commands, goes
under the key "cold_start" of --out, which is created or, if it exists,
updated in place (bench_pairs.update_json).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, compile_sources, extract, git, quartiles, update_json

POSITIONS = [[0.9, 0.1], [-0.2, -0.5], [-0.8, 0.6]]
README_CONFIG = {
    "n": 3,
    "mu": [2, 2],
    "model": {"kind": "generation", "seed_kind": "linear_seed",
              "a": [0.5, 0.0], "depth": 2},
    "initial": {"positions": POSITIONS,
                "velocities": [[0.1, -0.2], [0.25, 0.1], [-0.15, 0.05]]},
    "grid": {"t0": 0.0, "t1": 6.283185307179586, "dt_out": 0.02617993877991494},
}
GENERATE_CONFIG = {"seed_coeffs": POSITIONS, "depth": 2}


def timed(argv: list[str], tree: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    subprocess.run(argv, cwd=tree, env=env, check=True, capture_output=True)
    return time.perf_counter() - start


def machine() -> dict:
    import numpy
    import scipy

    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or platform.machine()
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_rev")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", required=True, help="JSON file, e.g. BENCH_<pr>.json")
    args = ap.parse_args(argv)
    parent_commit = git("rev-parse", args.parent_rev)
    tmp = Path(tempfile.mkdtemp(prefix="cold_start-"))
    try:
        parent = tmp / "parent"
        extract(parent_commit, parent)
        trees = {"parent": parent, "change": ROOT}
        commands = {"pass": [sys.executable, "-c", "pass"]}
        for command, config in (("solve", README_CONFIG),
                                ("simulate", README_CONFIG),
                                ("generate", GENERATE_CONFIG)):
            path = tmp / f"{command}.json"
            path.write_text(json.dumps(config))
            commands[command] = [sys.executable, "-m", "goldgen.cli", command,
                                 "--config", str(path), "--output",
                                 str(tmp / f"{command}.out")]
        record = {"parent_commit": parent_commit, "runs": args.runs,
                  "machine": machine(), "commands": {},
                  "compiled": {side: compile_sources(tree)
                               for side, tree in trees.items()}}
        for command, cmd in commands.items():
            times = {"parent": [], "change": []}
            for i in range(args.runs):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    times[side].append(timed(cmd, trees[side]))
            stats = {side: dict(quartiles(values), runs=values)
                     for side, values in times.items()}
            speedup = stats["parent"]["median"] / stats["change"]["median"]
            record["commands"][command] = dict(stats, speedup=speedup)
            print(f"{command:9s} parent {stats['parent']['median']:.3f} s  change "
                  f"{stats['change']['median']:.3f} s  x{speedup:.2f}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    update_json(args.out, {"cold_start": record})
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
