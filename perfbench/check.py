"""Answer checker for the tschirn benchmark.

Each check compares what the program returned with what the corpus built
(corpus.py), using the corpus's own Fraction arithmetic; it imports nothing
from ``tschirn``.  A check returns None when the answer is right and a short
failure type otherwise.  ``self_check`` plants one error of each kind and
confirms that the checker reports all of them.
"""

from __future__ import annotations

from fractions import Fraction as Q

import corpus


def decide(item, result):
    """result is (equal, witness coefficients or None)."""
    equal, witness = result
    if equal != item["equal"]:
        return "wrong_verdict"
    if not equal:
        return None if witness is None else "unexpected_witness"
    if witness is None:
        return "missing_witness"
    if not corpus.maps_roots(item["a"], item["b"], witness):
        return "bad_witness"
    return None


def classify(item, doc):
    """doc is the schema-1 JSON document printed by `tschirn classify`."""
    if doc.get("schema") != 1 or doc.get("command") != "classify":
        return "bad_document"
    res = doc["result"]
    if (res["g_a"], res["g_b"]) != (item["g_a"], item["g_b"]):
        return "wrong_galois_types"
    if res["relation"] != item["relation"]:
        return "wrong_relation"
    if res["degenerate"] != item["degenerate"] or res["swapped"] != item["swapped"]:
        return "wrong_flags"
    predicted = item["predicted"]
    if res["predicted_pattern"] != (None if predicted is None else list(predicted)):
        return "wrong_pattern"
    if res["observed_pattern"] != list(item["observed"]):
        return "wrong_pattern"
    witness = doc.get("witness")
    if (witness is not None) != (item["relation"] == "Equal"):
        return "missing_witness" if witness is None else "unexpected_witness"
    if witness is not None:
        a, b = item["pair"]
        if not corpus.maps_roots(a, b, [Q(c) for c in witness]):
            return "bad_witness"
    return None


def scan(item, result):
    """result is (pairs, classes) of the scan of one row m; the corpus gives
    the row's share of the 11 known pairs and the classes they form."""
    pairs, classes = result
    if tuple(map(tuple, pairs)) != item["pairs"]:
        return "wrong_scan_pairs"
    if tuple(map(tuple, classes)) != item["classes"]:
        return "wrong_scan_classes"
    return None


def resolvent_ff(result, oracle):
    """result and oracle are (F0, F1, F2); the oracle comes from the coset
    product over all six root pairings."""
    for index in (2, 1, 0):
        if result[index] != oracle[index]:
            return f"F{index}_differs_from_oracle"
    return None


def self_check() -> list:
    """Feed the checker one corrupted witness, one flipped verdict and one
    wrong factor pattern, next to the honest answers.  Returns the list of
    problems (empty when every planted error is caught and no honest answer
    is rejected)."""
    # X^3 + 3X + 2 and X^3 - 3X^2 - 3X - 3: equal fields, u = 3 - X + X^2.
    pair = {"a": (Q(0), Q(3), Q(-2)), "b": (Q(3), Q(-3), Q(3)), "equal": True}
    witness = (Q(3), Q(-1), Q(1))
    # X^3 - 2 against (X - 1)(X^2 + 3) (the quadratic subfield Q(sqrt -3)).
    row = {"g_a": "S3", "g_b": "C2", "relation": "ContainsQuadratic",
           "predicted": (3, 3), "observed": (3, 3), "degenerate": False,
           "swapped": False, "pair": ((Q(0), Q(0), Q(2)), (Q(1), Q(3), Q(3)))}
    report = {"g_a": "S3", "g_b": "C2", "relation": "ContainsQuadratic",
              "predicted_pattern": [3, 3], "observed_pattern": [3, 3],
              "degenerate": False, "swapped": False}
    doc = {"schema": 1, "command": "classify", "result": report, "witness": None}
    wrong = {**doc, "result": {**report, "observed_pattern": [6]}}
    cases = (
        ("honest witness", decide(pair, (True, witness)), None),
        ("corrupted witness", decide(pair, (True, (Q(4), Q(-1), Q(1)))),
         "bad_witness"),
        ("flipped verdict", decide(pair, (False, None)), "wrong_verdict"),
        ("honest report", classify(row, doc), None),
        ("wrong pattern", classify(row, wrong), "wrong_pattern"),
    )
    return [f"{name}: checker said {got!r}, expected {want!r}"
            for name, got, want in cases if got != want]
