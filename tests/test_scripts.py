"""The experiment scripts run to completion on their default inputs."""

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
