"""The experiment scripts run to completion on their default inputs, and
the timing scripts, which import each other, parse their options."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["generation_demo.py", "period_sweep.py",
                                  "isochrony_decay.py"])
def test_script_exits_0(monkeypatch, capsys, name):
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("name", ["bench_pairs.py", "cold_start.py",
                                  "rhs_pairs.py"])
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
