"""Smoke runs of the example scripts: each runs in-process on small
arguments, exits 0 and prints its headline."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args, headline", [
    ("two_point_concentration.py", ["--count", "3", "--steps", "3"], "limit C/2 = "),
    ("gaussian_refinement_study.py", ["--halvings", "1"], "worst rel var err"),
    ("flow_distance_demo.py", ["--steps", "2"], "triangle holds: True"),
])
def test_script_runs(script, args, headline, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [script, *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(headline in line for line in lines) == 1
