"""The README's examples: each CLI-tour command that shows output prints
those lines, and the library quickstart runs."""

import re
import shlex
from pathlib import Path

import pytest

from tschirn import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _tour():
    """(argv, expected lines) of each ``$ tschirn`` command with output; a
    last line ``...`` means that more output follows."""
    out = []
    for entry in _block("CLI tour", "console").split("$ tschirn ")[1:]:
        command, *lines = entry.strip().splitlines()
        if lines:
            out.append(pytest.param(shlex.split(command), lines, id=command))
    return out


@pytest.mark.parametrize("argv, expected", _tour())
def test_cli_tour(argv, expected, capsys):
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    if expected[-1] == "...":
        expected = expected[:-1]
        printed = printed[: len(expected)]
    assert printed == expected


def test_cli_tour_is_read():
    assert len(_tour()) == 5


def test_library_quickstart():
    namespace = {}
    exec(_block("Library quickstart", "python"), namespace)
    assert namespace["equal"] is True
    assert namespace["witness"].as_tuple() == (3, -1, 1)
    assert namespace["report"].relation == "ContainsQuadratic"
    assert namespace["report"].observed_pattern == (3, 3)
