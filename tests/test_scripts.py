"""Smoke tests: the experiment scripts run to completion and report success."""

import importlib.util
from pathlib import Path

import pytest

import tschirn.decide as decide_mod

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["decision_dump", "root_ladder", "table_patterns",
                                  "worked_examples"])
def test_script_main_returns_zero(name, capsys):
    assert load(name).main() == 0
    assert capsys.readouterr().out


def test_table_patterns_marks_a_failed_row(capsys, monkeypatch):
    # a row whose pattern disagrees fails by table_rows' verdict, as in selftest
    monkeypatch.setattr(decide_mod, "FACTOR_PATTERNS",
                        {**decide_mod.FACTOR_PATTERNS, ("S3", "S3", "Equal"): (6,)})
    assert load("table_patterns").main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines if line.endswith("MISMATCH")] == [
        ["S3", "S3", "Equal"]]
    assert lines[-1] == "1 row(s) disagreed with the prediction"
