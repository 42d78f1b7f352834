#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs.

    python3 scripts/bench_pairs.py PARENT_REV --workload simulate solve \\
        --pairs 10 --seconds 20 --seeds 101-110 --out BENCH_11.json

Extracts the committed files of PARENT_REV (`git archive`) into a temporary
directory, byte-compiles both trees' src/ (`compile_sources`; the out file
records the commands), and runs each tree's own, unmodified bench/run.py
there and in this working tree, one run at a time.  Pair i uses the i-th
named seed on both sides; even pairs run the parent first, odd pairs the
change.  For every end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, the change's median as a multiple of the parent's, and
how many pairs the change won (strictly better in the metric's direction)
and whether a claimed gain holds ("claim_holds": won at least 9 of 10
pairs, and the change's median is beyond the parent's quartile distance).
The out file holds every run's result and both sides' provenance as
bench/run.py records it (machine, versions, commit or source hash, seed);
an existing out file is replaced.

Each workload then gets one traced run per side (`--trace 1`, first seed),
whose per-layer metrics go under "traced".  A run stops after the first
whole cycle of cases past its time.  A traced `simulate` cycle outlasts
TRACED_SECONDS, so both sides trace the same 16 cases and their counts (RHS
calls, steps, rejections) compare one to one; the faster side of another
workload may trace more cycles.

A pair takes about 2 x (--seconds + 15) s; this is not a test.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_SECONDS = 1.0


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(commit: str, dest: Path) -> None:
    """The committed files of `commit` (`git archive`), unpacked into dest."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def compile_sources(tree: Path) -> str:
    """Byte-compile every module under tree/src, stale or not, and return
    the command as run in `tree`.  compileall writes .pyc files even under
    PYTHONDONTWRITEBYTECODE, so neither side of a pair compiles goldgen in a
    timed run (or in the bench's setup_s), where only the freshly unpacked
    parent would have to."""
    cmd = ["python", "-m", "compileall", "-q", "-f", "src"]
    subprocess.run([sys.executable, *cmd[1:]], cwd=tree, check=True, capture_output=True)
    return " ".join(cmd)


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0):
    """One bench/run.py run in `tree`: its result line and its provenance."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=900 + 5 * seconds,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py in {tree} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((tree / ".bench_out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record["provenance"]


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        par = [p["parent"]["metrics"][name]["value"] for p in pairs]
        chg = [p["change"]["metrics"][name]["value"] for p in pairs]
        wins = sum((c > q) if higher else (c < q) for q, c in zip(par, chg))
        sp, sc = quartiles(par), quartiles(chg)
        # the gain in the median exceeds the parent's quartile distance
        gain = (sc["median"] - sp["median"]) * (1 if higher else -1)
        beyond = gain > sp["q3"] - sp["q1"]
        out[name] = {
            "better": m["better"], "bound": m["bound"], "parent": sp, "change": sc,
            "ratio": sc["median"] / sp["median"] if sp["median"] else None,
            "wins": wins, "pairs": len(pairs), "beyond_parent_iqr": beyond,
            # what a claimed gain must show: 9 of 10 pairs won, and beyond
            "claim_holds": wins >= 0.9 * len(pairs) and beyond,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_rev")
    ap.add_argument("--workload", nargs="+", required=True,
                    choices=("solve", "simulate", "generate", "oracle"))
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seeds", type=seed_list, required=True,
                    help="one seed per pair, e.g. 101-110 or 7,9,12")
    ap.add_argument("--out", required=True, help="JSON file, e.g. BENCH_<pr>.json")
    args = ap.parse_args(argv)
    if len(args.seeds) < args.pairs:
        ap.error(f"{args.pairs} pairs need {args.pairs} seeds, got {len(args.seeds)}")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent_commit = git("rev-parse", args.parent_rev)

    report = {"parent_rev": args.parent_rev, "parent_commit": parent_commit,
              "change_commit": git("rev-parse", "HEAD"),
              "change_dirty": bool(git("status", "--porcelain", "--", "src", "bench")),
              "seconds": args.seconds, "seeds": args.seeds[:args.pairs], "workloads": {}}
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        parent = tmp / "parent"
        extract(parent_commit, parent)
        trees = {"parent": parent, "change": ROOT}
        report["compiled"] = {side: compile_sources(tree)
                              for side, tree in trees.items()}
        for workload in args.workload:
            pairs, provenance = [], {}
            for i, seed in enumerate(args.seeds[:args.pairs]):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side], provenance[side] = run_bench(
                        trees[side], workload, seed, args.seconds)
                pairs.append(pair)
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                    f"{side} items_per_kref={pair[side]['metrics']['items_per_kref']['value']:.5g}"
                    for side in order), flush=True)
            summary = summarize(pairs, metrics)
            report["workloads"][workload] = {
                "summary": summary, "provenance": provenance, "pairs": pairs}
            for name, s in summary.items():
                print(f"  {workload:9s} {name:15s} parent {s['parent']['median']:10.5g} "
                      f"[{s['parent']['q1']:.5g}, {s['parent']['q3']:.5g}]  change "
                      f"{s['change']['median']:10.5g} [{s['change']['q1']:.5g}, "
                      f"{s['change']['q3']:.5g}]  x{s['ratio'] or float('nan'):.3f}  "
                      f"won {s['wins']}/{s['pairs']}  claim holds: "
                      f"{'yes' if s['claim_holds'] else 'no'}")
            seed = args.seeds[0]
            traced = {side: run_bench(trees[side], workload, seed, TRACED_SECONDS,
                                      trace=1)[0]["metrics"]
                      for side in ("parent", "change")}
            report["workloads"][workload]["traced"] = dict(seed=seed, **traced)
            for name in traced["parent"]:
                p, c = (traced[side][name]["value"] for side in ("parent", "change"))
                print(f"  {workload:9s} traced {name:32s} parent {p:12.6g}  "
                      f"change {c:12.6g}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
