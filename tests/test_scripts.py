"""The experiment scripts run to completion on their default inputs and
print failures in the CLI's format, and the timing scripts, which import
each other, parse their options."""

import runpy
import sys
from pathlib import Path

import pytest

from goldgen import permgen, solvers
from goldgen.errors import DegenerateZeros, TrackingAmbiguity

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name):
    """Run a script as __main__ with no arguments; its exit code must be 0.
    Returns what it printed."""
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", ["generation_demo.py", "period_sweep.py",
                                  "isochrony_decay.py"])
def test_script_exits_0(monkeypatch, capsys, name):
    assert run_script(monkeypatch, capsys, name)


@pytest.mark.parametrize("name", ["bench_pairs.py", "cold_start.py",
                                  "rhs_pairs.py", "same_answers.py"])
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


def test_period_sweep_names_the_failed_level(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise TrackingAmbiguity("a zero moves too far", level=0)

    monkeypatch.setattr(solvers, "solve_generation_path", refuse)
    out = run_script(monkeypatch, capsys, "period_sweep.py")
    assert "mu=1     TrackingAmbiguity (level 0): a zero moves too far" in out


def test_generation_demo_names_the_error_type(monkeypatch, capsys):
    expand = permgen.generation_tree

    def with_failure(*args, **kwargs):
        tree = expand(*args, **kwargs)
        tree.failed[(1, 2)] = DegenerateZeros("near-multiple root: gap 0")
        return tree

    monkeypatch.setattr(permgen, "generation_tree", with_failure)
    out = run_script(monkeypatch, capsys, "generation_demo.py")
    assert "  mu=[1, 2]: DegenerateZeros: near-multiple root: gap 0\n" in out


def test_rhs_pairs_flags_differing_counts(monkeypatch):
    # the timing pair may not change the step sequence: main exits 1 on
    # the kinds named here, those whose steps, rejections or RHS calls differ
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from rhs_pairs import count_mismatches

    def kind(name, parent, change):
        return {"kind": name, "counts": {"parent": parent, "change": change}}

    same = [kind("iso N=3 depth=0", [127, 0, 763], [127, 0, 763])]
    assert count_mismatches(same) == []
    assert count_mismatches(same + [
        kind("lin a=0.5 N=3 depth=1", [97, 0, 583], [97, 1, 589]),
        kind("iso N=4 depth=1", [214, 1, 1291], [215, 1, 1291]),
    ]) == ["lin a=0.5 N=3 depth=1", "iso N=4 depth=1"]


def test_same_answers_against_itself(monkeypatch):
    # one case per workload and one verify suite, the working tree on both
    # sides, each in its own worker interpreter
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from same_answers import ROOT, compare, run_tree

    report = compare(*(run_tree(ROOT, [5], 1, ["isochrony"]) for _ in range(2)))
    assert [r["workload"] for r in report["cases"]] == [
        "solve", "simulate", "generate", "oracle"]
    assert report["summary"] == {"cases": 4, "cases_identical": 4,
                                 "verify": 2, "verify_identical": 2}
    assert report["identical"]


def test_same_answers_measures_what_moved(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from same_answers import compare

    case = {"workload": "solve", "seed": 5, "index": 0, "kind": "iso N=3 depth=0",
            "output": "t,x1_re\n0,0.5\n1,-2\n", "console": "wrote <workdir>/case1.csv"}
    moved = dict(case, output="t,x1_re\n0,0.5\n1,-2.0000000000000004\n")
    report = compare({"cases": [case, case], "verify": {"s: a": "0.0", "s: b": "1e-15"}},
                     {"cases": [case, moved], "verify": {"s: a": "4e-16", "s: b": "1e-15"}})
    assert not report["identical"]
    same, diff = report["cases"]
    assert same["identical"] and "max_abs" not in same
    assert not diff["output_identical"] and diff["console_identical"]
    assert diff["max_abs"] == 4.440892098500626e-16
    assert diff["max_rel"] == 4.440892098500626e-16 / 2.0000000000000004
    assert [r["identical"] for r in report["verify"]] == [False, True]
    assert report["verify"][0]["max_abs"] == 4e-16
