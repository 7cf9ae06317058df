import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_torus_bump_demo_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["torus_bump_demo.py", "--n", "32"])
    with pytest.raises(SystemExit) as info:
        runpy.run_path(str(SCRIPTS / "torus_bump_demo.py"), run_name="__main__")
    assert info.value.code == 0
    assert "Newton steps per grid: 64x64 " in capsys.readouterr().out
