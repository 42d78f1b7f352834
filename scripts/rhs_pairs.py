#!/usr/bin/env python3
"""In-process `dynamics.integrate` timings, parent against this working tree.

    python3 scripts/rhs_pairs.py PARENT_REV --seed 5 --rounds 10 --out BENCH_<pr>.json

Extracts the committed files of PARENT_REV (`git archive`) into a temporary
directory and starts one worker interpreter per tree, each importing its
own goldgen.  Both get the inputs of the 16 `simulate` case kinds of the
bench seed (bench/workloads.py of this tree) and lift them through their own
`build_initial_state`, outside any timing.  Each round then times one
`integrate` call per kind and side (best of REPS calls), the kinds one after
the other and the sides alternating which goes first, so host drift hits
both alike.  The bench's 20 s runs mix all kinds; this splits the change by
model, N and depth.

It prints, per kind, the median over rounds of parent time / change time
with its quartiles, both sides' steps, rejections and RHS calls (which must
match: the change may not alter the step sequence), and the largest
relative difference of x and v (max |change - parent| / max(1, max
|parent|)) over the output grid.  It gives no single verdict: each side
runs in its own worker process, whose offset a sum of one side's times
would read as a gain or a loss; `bench_pairs.py`'s alternating bench pairs
give one.  With --out the record, with machine info and every round's
times, goes under the key "rhs_pairs" of that file, which is created or,
if it exists, updated in place.

A round takes about 2 x REPS times the summed integrate time of the 16 kinds
(about 9 s on 2 cores); this is not a test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, extract, git, quartiles

KINDS = 16  # len(workloads.PATH_KINDS): one simulate cycle
REPS = 3


def worker() -> int:
    """Serve one tree: read the configs, then one JSON request per line."""
    import numpy as np

    from goldgen import config, dynamics

    cases = []
    for raw in json.loads(sys.stdin.readline()):
        cfg = config.parse_config(raw)
        x0, v0 = dynamics.build_initial_state(*cfg.initial, cfg.mu, cfg.tolerances)
        cases.append((cfg.model, x0, v0, cfg.grid.times(), cfg.tolerances))
    print(json.dumps("ready"), flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        args = cases[req["kind"]]
        if req["reps"] == 0:  # the run itself, for comparison
            traj = dynamics.integrate(*args)
            reply = {"steps": traj.steps, "rejected": traj.rejected,
                     "rhs_calls": traj.rhs_calls, "min_gap": traj.min_gap,
                     **{k: np.stack([a.real, a.imag]).tolist()
                        for k, a in (("x", traj.x), ("v", traj.v))}}
        else:
            best = np.inf
            for _ in range(req["reps"]):
                start = time.perf_counter()
                dynamics.integrate(*args)
                best = min(best, time.perf_counter() - start)
            reply = best
        print(json.dumps(reply), flush=True)
    return 0


class Worker:
    def __init__(self, tree: Path, configs: list):
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker"],
            cwd=tree, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.proc.stdin.write(json.dumps(configs) + "\n")
        self.proc.stdin.flush()
        self.read()

    def ask(self, kind: int, reps: int):
        self.proc.stdin.write(json.dumps({"kind": kind, "reps": reps}) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def rel_diff(a: list, b: list) -> float:
    import numpy as np

    a, b = np.asarray(a), np.asarray(b)
    return float(np.abs(a - b).max() / max(1.0, np.abs(b).max()))


def main(argv=None) -> int:
    if argv is None and sys.argv[1:] == ["--worker"]:
        return worker()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_rev")
    ap.add_argument("--seed", type=int, default=5, help="bench seed of the inputs")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--out", help="JSON file to update, e.g. BENCH_<pr>.json")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    import workloads
    from cold_start import machine

    cases = [workloads.make_case("simulate", args.seed, i) for i in range(KINDS)]
    configs = [c.params for c in cases]
    parent_commit = git("rev-parse", args.parent_rev)
    tmp = Path(tempfile.mkdtemp(prefix="rhs_pairs-"))
    workers = {}
    try:
        extract(parent_commit, tmp / "parent")
        for side, tree in (("parent", tmp / "parent"), ("change", ROOT)):
            workers[side] = Worker(tree, configs)
        runs = {side: [w.ask(k, 0) for k in range(KINDS)] for side, w in workers.items()}
        times = {side: [[] for _ in range(KINDS)] for side in workers}
        for r in range(args.rounds):
            for k in range(KINDS):
                for side in ("parent", "change") if (r + k) % 2 == 0 else ("change", "parent"):
                    times[side][k].append(workers[side].ask(k, REPS))
    finally:
        for w in workers.values():
            w.close()
        shutil.rmtree(tmp, ignore_errors=True)

    kinds = []
    print(f"{'kind':22s} {'ratio':>6s} {'[q1, q3]':>14s}  steps/rejected/rhs parent | change"
          "   rel diff x, v")
    for k, case in enumerate(cases):
        par, chg = runs["parent"][k], runs["change"][k]
        ratios = [p / c for p, c in zip(times["parent"][k], times["change"][k])]
        q = quartiles(ratios)
        counts = {side: [run[key] for key in ("steps", "rejected", "rhs_calls")]
                  for side, run in (("parent", par), ("change", chg))}
        diff = {key: rel_diff(chg[key], par[key]) for key in ("x", "v")}
        kinds.append({"kind": case.kind, "ratio": q, "counts": counts,
                      "min_gap": {"parent": par["min_gap"], "change": chg["min_gap"]},
                      "rel_diff": diff,
                      "times": {side: times[side][k] for side in times}})
        same = "" if counts["parent"] == counts["change"] else "  COUNTS DIFFER"
        print(f"{case.kind:22s} x{q['median']:.3f} [{q['q1']:.3f}, {q['q3']:.3f}]  "
              f"{'/'.join(map(str, counts['parent']))} | "
              f"{'/'.join(map(str, counts['change']))}   "
              f"{diff['x']:.1e}, {diff['v']:.1e}{same}", flush=True)
    if args.out:
        out = Path(args.out)
        report = json.loads(out.read_text()) if out.exists() else {}
        report["rhs_pairs"] = {
            "parent_commit": parent_commit, "seed": args.seed, "rounds": args.rounds,
            "reps": REPS, "machine": machine(), "kinds": kinds}
        out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
