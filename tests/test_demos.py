"""Smoke tests: each demo script runs end to end and prints its results table."""

import runpy
import sys
from pathlib import Path

import pytest

from edgeflight.planner import PlannerKind

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script, args, header", [
    ("single_mission.py", [], "distance"),
    ("batch_table.py", ["1"], "mean duration"),
], ids=["single_mission", "batch_table"])
def test_demo_prints_its_results_table(script, args, header, monkeypatch, capsys):
    path = DEMOS / script
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    runpy.run_path(str(path), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith("policy") and header in line)
    rows = [line.split()[0] for line in lines[head + 1:head + 1 + len(PlannerKind)]]
    assert rows == [k.value for k in PlannerKind]
