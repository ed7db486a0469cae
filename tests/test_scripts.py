"""Smoke tests: the experiment scripts run to completion and report success."""

import importlib.util
from pathlib import Path

import pytest

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
