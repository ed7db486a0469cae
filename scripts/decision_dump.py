#!/usr/bin/env python3
"""Print the library's answers on the benchmark corpus, one line per item.

For items 0 .. K-1 of ``perfbench.corpus.decide_item`` and of
``classify_item`` at one seed, a line holds the verdict and witness of
``decide_same_splitting``, the document of ``classify_subfield``
(``to_dict``, keys sorted) and the tuples of ``all_rational_transformations``,
or the ``MathDomainError`` a call raised where it does not apply.  The text
is stable, so two trees give identical dumps exactly when they give the same
answers:

    PYTHONPATH=src python scripts/decision_dump.py --seed 61 --items 400 > a.txt
    cmp a.txt b.txt

Only the corpus is read from ``perfbench``; nothing there changes.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.corpus import classify_item, decide_item  # noqa: E402
from tschirn import (  # noqa: E402
    CubicTriple,
    all_rational_transformations,
    classify_subfield,
    decide_same_splitting,
)
from tschirn.fields import MathDomainError  # noqa: E402


def _coeffs(w) -> str:
    return "(" + ", ".join(str(c) for c in w.as_tuple()) + ")"


def _answer(fn, a, b, show) -> str:
    try:
        return show(fn(a, b))
    except MathDomainError as exc:
        return f"error: {exc}"


def line(kind: str, i: int, item: dict) -> str:
    a, b = CubicTriple(*item["a"]), CubicTriple(*item["b"])
    equal, w = decide_same_splitting(a, b)
    report = _answer(classify_subfield, a, b,
                     lambda r: json.dumps(r.to_dict(), sort_keys=True))
    ws = _answer(all_rational_transformations, a, b,
                 lambda ws: "[" + ", ".join(map(_coeffs, ws)) + "]")
    witness = None if w is None else _coeffs(w)
    return f"{kind} {i} decide {equal} {witness} | classify {report} | all {ws}"


def main(argv=()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=61)
    parser.add_argument("--items", type=int, default=13,
                        help="items of each corpus")
    ns = parser.parse_args(argv)
    for kind, item in (("decide", decide_item), ("classify", classify_item)):
        for i in range(ns.items):
            print(line(kind, i, item(ns.seed, i)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
