"""The timing scripts, one of which imports the other, parse their options,
and `same_answers.py` measures what moved between two trees."""

import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# run with --help: a run takes minutes
TIMING_SCRIPTS = ["bench_pairs.py", "same_answers.py"]


def test_every_script_is_run():
    # a script added without a test, or a test of a deleted one, fails here
    assert set(TIMING_SCRIPTS) == {p.name for p in SCRIPTS.glob("*.py")}


@pytest.mark.parametrize("name", TIMING_SCRIPTS)
def test_timing_script_help_exits_0(monkeypatch, capsys, name):
    # scripts/ is on sys.path as when the script is run directly, so a
    # broken import between them fails here; --help times nothing
    path = SCRIPTS / name
    monkeypatch.syspath_prepend(str(SCRIPTS))
    monkeypatch.setattr(sys, "argv", [str(path), "--help"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_compile_sources_writes_bytecode(monkeypatch, tmp_path):
    # both trees of a timing pair are byte-compiled before any run, stale
    # bytecode or not, so neither side times compiling goldgen
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from bench_pairs import compile_sources

    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text("X = 1\n")
    cmd = compile_sources(tmp_path)
    assert "compileall" in cmd and "-f" in cmd.split()
    assert list((tmp_path / "src" / "pkg" / "__pycache__").glob("mod.*.pyc"))


def test_same_answers_against_itself(monkeypatch):
    # one case per workload and one verify suite, the working tree on both
    # sides, each in its own worker interpreter
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from same_answers import ROOT, compare, root_rows, run_tree

    report = compare(*(run_tree(ROOT, [5], 1, ["isochrony"]) for _ in range(2)))
    assert [r["workload"] for r in report["cases"]] == [
        "solve", "simulate", "generate", "oracle"]
    rows = len(root_rows())
    assert report["summary"] == {"cases": 4, "cases_identical": 4, "verify": 8,
                                 "verify_identical": 8, "verify_added": 0,
                                 "verify_removed": 0, "roots": rows,
                                 "roots_identical": rows}
    assert report["identical"]


def test_same_answers_measures_what_moved(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from same_answers import compare

    case = {"workload": "solve", "seed": 5, "index": 0, "kind": "iso N=3 depth=0",
            "output": "t,x1_re\n0,0.5\n1,-2\n", "console": "wrote <workdir>/case1.csv"}
    moved = dict(case, output="t,x1_re\n0,0.5\n1,-2.0000000000000004\n")
    # simulate's console line carries its steps, rejections, RHS calls and
    # min gap: one more step differs even when the CSVs agree
    line = ("wrote <workdir>/case1.csv: 241 samples, %d steps (0 rejected: 0 error, "
            "0 guard), 1039 RHS calls, min gap %r")
    run = dict(case, workload="simulate", console=line % (173, 0.30000000000000004))
    # a root corpus row holds its zeros' repr and, when refused, its error
    stall = "[(1+0j), (2+0j)]; RootSolveFailed: Aberth iteration stalled"
    report = compare(
        {"cases": [case, case, run, run],
         "verify": {"s: a": "0.0", "s: b": "1e-15", "s: old": "2.0"},
         "roots": {"r1": "[(-1+0j)]", "r2": "[(-1e-19-2e-19j)]", "r3": stall}},
        {"cases": [case, moved, dict(run, console=line % (174, 0.30000000000000004)),
                   dict(run, console=line % (173, 0.3))],
         "verify": {"s: a": "4e-16", "s: b": "1e-15", "s: new": "2.0"},
         "roots": {"r1": "[(-1+0j)]", "r2": "[(-1e-19-3e-19j)]", "r3": stall}})
    assert not report["identical"]
    same, diff, steps, gap = report["cases"]
    assert same["identical"] and "max_abs" not in same
    assert not diff["output_identical"] and diff["console_identical"]
    assert diff["max_abs"] == 4.440892098500626e-16
    assert diff["max_rel"] == 4.440892098500626e-16 / 2.0000000000000004
    assert steps["output_identical"] and not steps["console_identical"]
    assert not steps["identical"] and steps["max_abs"] == 1.0
    # a min_gap that moves past the fourth digit still differs
    assert gap["output_identical"] and not gap["console_identical"]
    assert not gap["identical"]
    assert gap["max_abs"] == 0.30000000000000004 - 0.3
    # a renamed check is one removed and one added, not a difference
    a, b, new, old = report["verify"]
    assert [a["identical"], b["identical"]] == [False, True]
    assert a["max_abs"] == 4e-16
    assert new == {"check": "s: new", "parent": None, "change": "2.0",
                   "identical": False, "status": "added"}
    assert old == {"check": "s: old", "parent": "2.0", "change": None,
                   "identical": False, "status": "removed"}
    assert {key: report["summary"][key] for key in (
        "verify", "verify_identical", "verify_added", "verify_removed", "roots",
        "roots_identical")} == {
        "verify": 2, "verify_identical": 1, "verify_added": 1, "verify_removed": 1,
        "roots": 3, "roots_identical": 2}
    # one moved zero: its imaginary part, relative to the larger
    r1, r2, r3 = report["roots"]
    assert r1["identical"] and r3["identical"] and "max_abs" not in r1
    assert r2 == {"row": "r2", "parent": "[(-1e-19-2e-19j)]",
                  "change": "[(-1e-19-3e-19j)]", "identical": False,
                  "max_abs": 3e-19 - 2e-19, "max_rel": (3e-19 - 2e-19) / 3e-19}


def test_bench_pairs_replaces_the_out_file(monkeypatch, tmp_path):
    # the git calls and the bench runs are faked; only the report is real,
    # and it replaces the file at --out, keys that run did not write included
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_pairs

    def extract(commit, dest):
        dest.mkdir()

    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench_pairs, "extract", extract)
    monkeypatch.setattr(bench_pairs, "compile_sources", lambda tree: "compiled")
    metrics = {m["name"]: {"value": 1.0} for m in json.loads(
        (SCRIPTS.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    monkeypatch.setattr(bench_pairs, "run_bench",
                        lambda *args, **kwargs: ({"metrics": metrics}, {}))

    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"stale": {}, "seeds": [9]}))
    assert bench_pairs.main(["HEAD", "--workload", "solve", "--pairs", "2",
                             "--seconds", "1", "--seeds", "1-2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert "stale" not in report
    assert report["seeds"] == [1, 2]
    assert report["compiled"] == {"parent": "compiled", "change": "compiled"}
    assert list(report["workloads"]) == ["solve"]
    assert report["workloads"]["solve"]["summary"]["items_per_kref"]["pairs"] == 2
