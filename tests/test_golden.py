"""Golden CLI outputs: ``decide-iso`` and ``classify``, as text and as
``--json``, on the eleven table rows, two pairs on the multiple-root locus
(S3 and C3), an A = 0 pair across square classes and the pairs of
``scripts/worked_examples.py``.  Each run's exit code and stdout are compared
byte for byte with ``tests/data/golden_cli.json``, so a speedup of the
decision path can show that it changed no verdict, witness or document.

To rewrite the data file after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from tschirn import cli
from tschirn.decide import TABLE_INSTANCES

DATA = Path(__file__).resolve().parent / "data" / "golden_cli.json"


def _arg(triple) -> str:
    return ",".join(str(v) for v in triple)


PAIRS = [(_arg(a), _arg(b)) for a, b in TABLE_INSTANCES.values()] + [
    # on the multiple-root locus: b is an affine image of X^3 + kX + k with
    # k = -A_a^3 / D_a; S3, then C3 (a is the Shanks cubic m = 1)
    ("0,-1,-1", "3,177/23,-85/23"),
    ("1,-4,1", "3,-49,53"),
    # A = 0: X^3 - 2 against X^3 - X - 1, discriminants -108 and -23
    ("0,0,2", "0,-1,1"),
    # scripts/worked_examples.py
    ("0,3,-2", "3,-3,3"),
    ("-3,-4,-1", "-1,-2,1"),
]

CASES = [
    [command, "--a", a, "--b", b] + extra
    for a, b in PAIRS
    for command in ("decide-iso", "classify")
    for extra in ([], ["--json"])
]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue()}


def _expected():
    return {" ".join(run["argv"]): run for run in json.loads(DATA.read_text())}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_is_byte_identical(argv):
    assert _run(argv) == _expected()[" ".join(argv)]


def test_data_covers_exactly_the_cases():
    assert sorted(_expected()) == sorted(" ".join(argv) for argv in CASES)


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps([_run(argv) for argv in CASES], indent=1) + "\n")
    sys.exit(0)
