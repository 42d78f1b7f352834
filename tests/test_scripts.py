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
    assert [r["name"].split()[0] for r in report["cases"]] == [
        w for w in ("solve", "simulate", "generate", "oracle") for _ in range(2)]
    assert [r["name"].split()[-1] for r in report["cases"]] == ["output", "console"] * 4

    def counts(identical):
        return {"identical": identical, "differs": 0, "added": 0, "removed": 0}

    assert report["summary"] == {"cases": counts(8), "verify": counts(8),
                                 "roots": counts(len(root_rows()))}
    assert report["identical"]


def test_same_answers_measures_what_moved(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import same_answers

    def case(index, workload, output, console):
        name = f"{workload} seed 5 case {index} (iso N=3 depth=0)"
        return {f"{name} output": output, f"{name} console": console}

    # a case file longer than SHORT_TEXT, whose texts the report leaves out
    csv = "t,x1_re\n" + "0,0.5\n" * 200 + "1,-2\n"
    moved = csv.replace("1,-2", "1,-2.0000000000000004")
    wrote = "wrote <workdir>/case1.csv"
    # simulate's console line carries its steps, rejections, RHS calls and
    # min gap: one more step differs even when the CSVs agree
    line = ("wrote <workdir>/case1.csv: 241 samples, %d steps (0 rejected: 0 error, "
            "0 guard), 1039 RHS calls, min gap %r")
    gap = 0.30000000000000004
    # a root corpus row holds its zeros' repr and, when refused, its error
    stall = "[(1+0j), (2+0j)]; RootSolveFailed: Aberth iteration stalled"
    parent = {
        "cases": {**case(0, "solve", csv, wrote), **case(1, "solve", csv, wrote),
                  **case(2, "simulate", csv, line % (173, gap)),
                  **case(3, "simulate", csv, line % (173, gap))},
        "verify": {"s: a": "0.0", "s: b": "1e-15", "s: old": "2.0"},
        "roots": {"r1": "[(-1+0j)]", "r2": "[(-1e-19-2e-19j)]", "r3": stall}}
    change = {
        "cases": {**case(0, "solve", csv, wrote), **case(1, "solve", moved, wrote),
                  **case(2, "simulate", csv, line % (174, gap)),
                  **case(3, "simulate", csv, line % (173, 0.3))},
        "verify": {"s: a": "4e-16", "s: b": "1e-15", "s: new": "2.0"},
        "roots": {"r1": "[(-1+0j)]", "r2": "[(-1e-19-3e-19j)]", "r3": stall}}
    report = same_answers.compare(parent, change)
    assert not report["identical"]
    statuses = [r["status"] for r in report["cases"]]
    # output and console of: the same case, a moved output number, one
    # more step, and a min_gap that moves past its fourth digit
    assert statuses == ["identical", "identical", "differs", "identical",
                        "identical", "differs", "identical", "differs"]
    same, _, diff, _, _, steps, _, moved_gap = report["cases"]
    assert same == {"name": "solve seed 5 case 0 (iso N=3 depth=0) output",
                    "status": "identical"}
    assert diff["max_abs"] == 4.440892098500626e-16
    assert diff["max_rel"] == 4.440892098500626e-16 / 2.0000000000000004
    assert "parent" not in diff
    assert steps["max_abs"] == 1.0 and steps["parent"] == line % (173, gap)
    assert moved_gap["max_abs"] == gap - 0.3
    # a renamed check is one removed and one added, not a difference
    a, b, old, new = report["verify"]
    assert a == {"name": "s: a", "status": "differs", "max_abs": 4e-16,
                 "max_rel": 1.0, "parent": "0.0", "change": "4e-16"}
    assert b["status"] == "identical"
    assert old == {"name": "s: old", "status": "removed", "parent": "2.0", "change": None}
    assert new == {"name": "s: new", "status": "added", "parent": None, "change": "2.0"}
    # one moved zero: its imaginary part, relative to the larger
    r1, r2, r3 = report["roots"]
    assert r1["status"] == r3["status"] == "identical" and "max_abs" not in r1
    assert r2 == {"name": "r2", "status": "differs", "max_abs": 3e-19 - 2e-19,
                  "max_rel": (3e-19 - 2e-19) / 3e-19, "parent": "[(-1e-19-2e-19j)]",
                  "change": "[(-1e-19-3e-19j)]"}
    assert report["summary"] == {
        "cases": {"identical": 5, "differs": 3, "added": 0, "removed": 0},
        "verify": {"identical": 1, "differs": 1, "added": 1, "removed": 1},
        "roots": {"identical": 2, "differs": 1, "added": 0, "removed": 0}}

    # main prints each record that is not identical, one summary line per
    # kind, and exits 1; the parent tree and the workers are faked
    monkeypatch.setattr(same_answers, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(same_answers, "extract", lambda commit, dest: None)
    monkeypatch.setattr(same_answers, "run_tree", lambda tree, *args: (
        change if tree == same_answers.ROOT else parent))
    assert same_answers.main(["HEAD"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("cases solve seed 5 case 1 (iso N=3 depth=0) output: differs, "
                      "max abs 4.44e-16, max rel 2.22e-16")
    assert out[3] == "cases: 5/8 identical, 0 added, 0 removed"
    assert out[4:8] == ["verify s: a: differs, max abs 4e-16, max rel 1",
                        "verify s: old: removed", "verify s: new: added",
                        "verify: 1/2 identical, 1 added, 1 removed"]
    assert out[-1] == "roots: 2/3 identical, 0 added, 0 removed"


def test_bench_pairs_replaces_the_out_file(monkeypatch, tmp_path, capsys):
    # the git calls and the bench runs are faked; only the report is real,
    # and it replaces the file at --out, keys that run did not write included
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_pairs

    def extract(commit, dest):
        dest.mkdir()

    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench_pairs, "extract", extract)
    monkeypatch.setattr(bench_pairs, "compile_sources", lambda tree: "compiled")
    names = [m["name"] for m in json.loads(
        (SCRIPTS.parent / "BENCHMARK.json").read_text())["end_to_end"]]

    def run_bench(tree, *args, **kwargs):
        # every metric of the change reads 2, of the parent 1
        value = 2.0 if tree == bench_pairs.ROOT else 1.0
        return {"metrics": {name: {"value": value} for name in names}}, {}

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)

    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"stale": {}, "seeds": [9]}))
    assert bench_pairs.main(["HEAD", "--workload", "solve", "--pairs", "2",
                             "--seconds", "1", "--seeds", "1-2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert "stale" not in report
    assert report["seeds"] == [1, 2]
    assert report["compiled"] == {"parent": "compiled", "change": "compiled"}
    assert list(report["workloads"]) == ["solve"]
    summary = report["workloads"]["solve"]["summary"]
    assert summary["items_per_kref"]["pairs"] == 2
    # a higher-is-better metric that rose won both pairs; a lower-is-better
    # one that rose lost both
    assert summary["items_per_kref"]["claim_holds"]
    assert not summary["case_p50_ref"]["claim_holds"]
    printed = capsys.readouterr().out
    assert "won 2/2  claim holds: yes" in printed and "won 0/2  claim holds: no" in printed
    # BENCH_28's solve won 9 of 10 pairs, but its median gain (x1.018) lies
    # inside the parent's quartile distance: no claim holds
    recorded = json.loads((SCRIPTS.parent / "BENCH_28.json").read_text())
    solve = bench_pairs.summarize(recorded["workloads"]["solve"]["pairs"], [
        {"name": "items_per_kref", "better": "higher", "bound": 0.2}])["items_per_kref"]
    assert solve["wins"] == 9 and not solve["beyond_parent_iqr"]
    assert not solve["claim_holds"]
