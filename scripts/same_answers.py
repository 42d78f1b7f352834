#!/usr/bin/env python3
"""Same answers: every bench case and every `verify` residual, parent
against this working tree.

    python3 scripts/same_answers.py PARENT_REV [--seeds 5 11] [--out FILE]

Extracts the committed files of PARENT_REV (`bench_pairs.extract`) into a
temporary directory and runs one worker interpreter per tree, each importing
its own goldgen and its own bench/workloads.py.  The worker code (`collect`
and `integrator_counters` below) comes from this tree and runs against both
`src/` trees, so it must work with the parent's API as well as this one's.
A worker runs the first CASES cases of the `solve`, `simulate`, `generate`
and `oracle` workloads for each seed through `make_case`, `prepare` and
`execute`, the bench's own entry points (read, never edited), and then
every `verify` suite, as `goldgen verify all` does.

Per case it compares the output and the console text: for the CLI
workloads the bytes of the file the case writes and what the command
printed (the work directory's path masked), for `oracle` the tree's JSON
and the `repr` of the deviations from the closed form; an error counts as
console text.  A `simulate` case also runs `dynamics.integrate` in process
on the case's config and compares the `repr` of the trajectory's min_gap
and counters ("counters"), which the console line rounds or leaves out.  A
case that differs gets the largest absolute and relative difference
(|c - p| / max(|p|, |c|)) over the numbers of its output, console text
and counters, inf when the two hold different counts of numbers.  Each
`verify` residual is compared by `repr`.  It prints one line per difference
and a summary, writes the lot as JSON with --out, and exits 1 when anything
differs.  Timing is `bench_pairs.py`'s job, not this one's.

A run over the default seeds takes about 15 s on 2 cores.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, extract, git

WORKLOADS = ("solve", "simulate", "generate", "oracle")
CASES = 16  # per workload and seed: one cycle of the solve/simulate kinds
# one BLAS thread, as bench/run.py runs its cases
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def collect(seeds: list, cases: int, suites: list | None) -> dict:
    """The outputs of this interpreter's goldgen, run from a tree's root:
    {"cases": [{workload, seed, index, kind, output, console, counters}],
     "verify": {"suite: check": repr(residual)}}."""
    sys.path.insert(0, "bench")
    import workloads

    import goldgen
    from goldgen import verify
    from goldgen.errors import GoldgenError

    src = Path("src").resolve()
    if src not in Path(goldgen.__file__).resolve().parents:
        raise RuntimeError(f"imported {goldgen.__file__}, not the tree's {src}")
    records = []
    with tempfile.TemporaryDirectory(prefix="same_answers-") as workdir:
        for seed in seeds:
            for workload in WORKLOADS:
                for index in range(cases):
                    case = workloads.make_case(workload, seed, index)
                    workloads.prepare(case, workdir)
                    result = workloads.execute(case)
                    output = console = ""
                    if isinstance(result, Exception):
                        console = f"{type(result).__name__}: {result}"
                    elif case.workload == "oracle":
                        tree, _, deviation = result
                        output, console = tree.to_json(), repr(deviation)
                    else:
                        console = result[1]
                        # the next seed's case reuses the path: leave nothing
                        with contextlib.suppress(FileNotFoundError):
                            output = Path(case.output).read_text(encoding="utf-8")
                            os.remove(case.output)
                    records.append({
                        "workload": workload, "seed": seed, "index": index,
                        "kind": case.kind, "output": output,
                        "console": console.replace(workdir, "<workdir>"),
                        "counters": integrator_counters(case.argv[-1])
                        if workload == "simulate" else ""})
    residuals = {}
    for name in suites or verify.SUITES:
        try:
            for c in verify.SUITES[name]():
                residuals[f"{name}: {c.name}"] = repr(c.residual)
        except GoldgenError as e:
            residuals[f"{name}: engine failure"] = f"{type(e).__name__}: {e}"
    return {"cases": records, "verify": residuals}


def integrator_counters(config_path: str) -> str:
    """`repr` of min_gap and the counters of the trajectory that `goldgen
    simulate` integrates for the config file, or the error it raises."""
    from goldgen import dynamics
    from goldgen.config import load_config
    from goldgen.errors import GoldgenError

    cfg = load_config(config_path)
    times = cfg.grid.times
    if callable(times):  # a tree from before `Grid.times` became a property
        times = times()
    try:
        x0, v0 = dynamics.build_initial_state(*cfg.initial, cfg.mu, cfg.tolerances)
        t = dynamics.integrate(cfg.model, x0, v0, times, cfg.tolerances)
    except GoldgenError as e:
        return f"{type(e).__name__}: {e}"
    return (f"min_gap {t.min_gap!r}, steps {t.steps!r}, rejected_error "
            f"{t.rejected_error!r}, rejected_guard {t.rejected_guard!r}, "
            f"rhs_calls {t.rhs_calls!r}")


def run_tree(tree: Path, seeds: list, cases: int, suites: list | None) -> dict:
    """collect() in a worker interpreter with tree's src/ first on its path."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **THREAD_ENV)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker"],
        cwd=tree, env=env, capture_output=True, text=True,
        input=json.dumps({"seeds": seeds, "cases": cases, "suites": suites}))
    if proc.returncode != 0:
        raise RuntimeError(f"worker in {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def difference(parent: str, change: str) -> dict:
    """Largest absolute and relative difference between the numbers of two
    texts, number by number; inf when their counts differ."""
    a, b = ([float(s) for s in NUMBER.findall(text)] for text in (parent, change))
    if len(a) != len(b):
        return {"max_abs": math.inf, "max_rel": math.inf}
    worst_abs = worst_rel = 0.0
    for p, c in zip(a, b):
        if p == c or (math.isnan(p) and math.isnan(c)):
            continue
        d = abs(c - p)
        rel = d / max(abs(p), abs(c))
        if math.isnan(rel):  # inf or NaN against a number
            d = rel = math.inf
        worst_abs, worst_rel = max(worst_abs, d), max(worst_rel, rel)
    return {"max_abs": worst_abs, "max_rel": worst_rel}


def compare(parent: dict, change: dict) -> dict:
    """Case by case and residual by residual, the two trees' collect()."""
    cases = []
    for p, c in zip(parent["cases"], change["cases"], strict=True):
        rec = {key: p[key] for key in ("workload", "seed", "index", "kind")}
        rec["output_identical"] = p["output"] == c["output"]
        rec["console_identical"] = p["console"] == c["console"]
        rec["counters_identical"] = p["counters"] == c["counters"]
        rec["identical"] = (rec["output_identical"] and rec["console_identical"]
                            and rec["counters_identical"])
        if not rec["identical"]:
            rec.update(difference(*("\n".join((r["output"], r["console"], r["counters"]))
                                    for r in (p, c))))
        cases.append(rec)
    residuals = []
    for name in sorted(set(parent["verify"]) | set(change["verify"])):
        p, c = parent["verify"].get(name), change["verify"].get(name)
        rec = {"check": name, "parent": p, "change": c, "identical": p == c}
        if p != c:
            rec.update(difference(p or "", c or ""))
        residuals.append(rec)
    return {
        "identical": all(r["identical"] for r in cases + residuals),
        "summary": {
            "cases": len(cases), "cases_identical": sum(r["identical"] for r in cases),
            "verify": len(residuals),
            "verify_identical": sum(r["identical"] for r in residuals)},
        "cases": cases, "verify": residuals}


def main(argv=None) -> int:
    if argv is None and sys.argv[1:] == ["--worker"]:
        req = json.loads(sys.stdin.read())
        print(json.dumps(collect(req["seeds"], req["cases"], req["suites"])))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_rev")
    ap.add_argument("--seeds", type=int, nargs="+", default=[5, 11])
    ap.add_argument("--out", help="JSON file for the full report")
    args = ap.parse_args(argv)

    parent_commit = git("rev-parse", args.parent_rev)
    tmp = Path(tempfile.mkdtemp(prefix="same_answers-"))
    try:
        extract(parent_commit, tmp / "parent")
        outputs = {side: run_tree(tree, args.seeds, CASES, None)
                   for side, tree in (("parent", tmp / "parent"), ("change", ROOT))}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report = {"parent_rev": args.parent_rev, "parent_commit": parent_commit,
              "change_commit": git("rev-parse", "HEAD"),
              "change_dirty": bool(git("status", "--porcelain", "--", "src", "bench")),
              "seeds": args.seeds, "cases_per_workload": CASES,
              **compare(outputs["parent"], outputs["change"])}
    for rec in report["cases"]:
        if not rec["identical"]:
            print(f"{rec['workload']:8s} seed {rec['seed']} case {rec['index']} "
                  f"({rec['kind']}): differs, max abs {rec['max_abs']:.3g}, "
                  f"max rel {rec['max_rel']:.3g}")
    for rec in report["verify"]:
        if not rec["identical"]:
            print(f"verify {rec['check']}: {rec['parent']} -> {rec['change']}")
    s = report["summary"]
    print(f"cases identical: {s['cases_identical']}/{s['cases']}; verify residuals "
          f"identical: {s['verify_identical']}/{s['verify']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if report["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
