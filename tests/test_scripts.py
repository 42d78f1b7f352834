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
