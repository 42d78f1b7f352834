#!/usr/bin/env python3
"""Same answers: every bench case, every `verify` residual and the root
corpus's zeros, parent against this working tree.

    python3 scripts/same_answers.py PARENT_REV [--seeds 5 11] [--out FILE]

Extracts the committed files of PARENT_REV (`bench_pairs.extract`) into a
temporary directory and runs one worker interpreter per tree, each importing
its own goldgen and its own bench/workloads.py.  The worker code (`collect`
below) comes from this tree and runs against both `src/` trees; it calls
only the bench's entry points, `verify.SUITES` and `polycore.zeros_batch`,
which both trees keep.  A worker runs the first CASES cases of the `solve`,
`simulate`, `generate` and `oracle` workloads for each seed through
`make_case`, `prepare` and `execute`, the bench's own entry points (read,
never edited), then every `verify` suite, as `goldgen verify all` does, and
then solves each row of the root corpus (`root_rows`) alone with
`zeros_batch` at the default tolerances.  The corpus reaches the root
finder's stall and step-floor exits, which no bench case takes.

Each kind's records are one map from name to text: "cases" holds a bench
case's output and console text as "<workload> seed <s> case <i> (<kind>)
output" and "... console" (the file a CLI case writes and what it printed,
the work directory masked; `oracle`'s tree JSON and the `repr` of its
deviations; an error is console text), "verify" each residual's `repr`,
"roots" each corpus row's zeros' `repr` and any error as `Type: message`.
`simulate`'s console line holds every integrator counter and the min gap's
`repr`.  One rule compares two maps: a record is identical, differs (with
the largest absolute and relative difference, |c - p| / max(|p|, |c|),
over its numbers; inf when their counts differ), or is added or removed.
It prints each record that is not identical and one summary line per
kind, writes the lot as JSON with --out (texts of up to SHORT_TEXT
characters included: not the case files), and exits 1 unless every record
is identical.  Timing is `bench_pairs.py`'s job, not this one's.

A run over the default seeds takes about 7 s on 2 cores.
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

import numpy as np
from bench_pairs import ROOT, extract, git

WORKLOADS = ("solve", "simulate", "generate", "oracle")
CASES = 16  # per workload and seed: one cycle of the solve/simulate kinds
SHORT_TEXT = 1000  # longest text the report copies: corpus rows, not case files
# one BLAS thread, as bench/run.py runs its cases
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def root_rows() -> dict:
    """The root corpus, by name: Wilkinson 1-12 (12 stalls), the clustered
    quintic, multiple zeros, rows that leave by the step floor ([1e200,
    1e300], [1e120, 1e200, 1], large beside tiny), rows with a coefficient
    whose finite parts have a modulus past float range, linear rows and
    seeded rows of N 2-8 at scales 2^-60..2^60."""
    rows = {f"wilkinson {n}": np.poly(np.arange(1, n + 1))[1:] for n in range(1, 13)}
    for d in (1e-2, 1e-4, 1e-6, 1e-7, 1e-8):
        rows[f"clustered {d:g}"] = np.poly([1 + d, 1 - d, -0.5 + 1j, -0.5 - 1j, 0.3j])[1:]
    big = -1.5e308 + 1.5e308j  # |big| overflows
    rows.update({"(z+1)^2": [2, 1], "z^2": [0, 0], "[1e200, 1e300]": [1e200, 1e300],
                 "[1e120, 1e200, 1]": [1e120, 1e200, 1], "z^10 + 1e40": [0] * 9 + [1e40],
                 "tiny beside large": [0.7 - 0.2j, 1e-100 * (0.3 + 0.4j)],
                 "large beside tiny": [1e100 * (0.7 - 0.2j), 0.3 + 0.4j],
                 "modulus overflows": [big], "[0, modulus overflows]": [0, big]})
    for k in (-60, -35, -20, 0, 60):
        rows[f"linear (0.3+0.4j)*2^{k}"] = [(0.3 + 0.4j) * 2.0**k]
    rng = np.random.default_rng(0)
    for i in range(40):
        n, k = int(rng.integers(2, 9)), int(rng.integers(-60, 61))
        z = np.ldexp(rng.uniform(-1, 1, (2, n)), k)
        rows[f"seeded {i}: N={n} at 2^{k}"] = np.poly(z[0] + 1j * z[1])[1:]
    return rows


def collect(seeds: list, cases: int, suites: list | None) -> dict:
    """The outputs of this interpreter's goldgen, run from a tree's root,
    one map from record name to text per kind: {"cases": {"<case> output"
    or "<case> console": text}, "verify": {"suite: check": repr(residual)},
    "roots": {row name: repr(zeros) [+ "; Type: message"]}}."""
    sys.path.insert(0, "bench")
    import workloads

    import goldgen
    from goldgen import polycore, verify
    from goldgen.errors import GoldgenError

    src = Path("src").resolve()
    if src not in Path(goldgen.__file__).resolve().parents:
        raise RuntimeError(f"imported {goldgen.__file__}, not the tree's {src}")
    texts = {}
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
                    name = f"{workload} seed {seed} case {index} ({case.kind})"
                    texts[f"{name} output"] = output
                    texts[f"{name} console"] = console.replace(workdir, "<workdir>")
    residuals = {}
    for name in suites or verify.SUITES:
        try:
            for c in verify.SUITES[name]():
                residuals[f"{name}: {c.name}"] = repr(c.residual)
        except GoldgenError as e:
            residuals[f"{name}: engine failure"] = f"{type(e).__name__}: {e}"
    roots = {}
    for name, row in root_rows().items():
        zeros, errors = polycore.zeros_batch(np.array([row], dtype=complex))
        roots[name] = repr(zeros[0].tolist()) + "".join(
            f"; {type(e).__name__}: {e}" for e in errors.values())
    return {"cases": texts, "verify": residuals, "roots": roots}


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
    """Kind by kind and name by name, the two trees' collect(): each record
    identical, differing, or added or removed (in one tree only)."""
    records, summary = {}, {}
    for kind, old in parent.items():
        new = change[kind]
        records[kind] = []
        for name in [*old, *(name for name in new if name not in old)]:
            p, c = old.get(name), new.get(name)
            status = ("identical" if p == c else "added" if p is None
                      else "removed" if c is None else "differs")
            rec = {"name": name, "status": status}
            if status == "differs":
                rec.update(difference(p, c))
            if len(p or "") <= SHORT_TEXT and len(c or "") <= SHORT_TEXT:
                rec.update(parent=p, change=c)
            records[kind].append(rec)
        summary[kind] = {status: sum(r["status"] == status for r in records[kind])
                         for status in ("identical", "differs", "added", "removed")}
    return {"identical": all(r["status"] == "identical"
                             for recs in records.values() for r in recs),
            "summary": summary, **records}


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
    for kind, s in report["summary"].items():
        for rec in report[kind]:
            if rec["status"] != "identical":
                moved = (f", max abs {rec['max_abs']:.3g}, max rel {rec['max_rel']:.3g}"
                         if "max_abs" in rec else "")
                print(f"{kind} {rec['name']}: {rec['status']}{moved}")
        print(f"{kind}: {s['identical']}/{s['identical'] + s['differs']} identical, "
              f"{s['added']} added, {s['removed']} removed")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if report["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
