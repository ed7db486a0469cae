#!/usr/bin/env python3
"""Print the subfield classification table with a live instance per row.

Each row of the table pairs the Galois types of two irreducible cubics
with the relation between the splitting field of the second and that of
the first, and predicts the factor-degree pattern of the nondegenerate
sextic resolvent.  The script classifies one concrete instance per row
and reports the observed pattern next to the prediction.
"""

import sys

from tschirn.decide import FACTOR_PATTERNS, TABLE_INSTANCES, classify_subfield
from tschirn.resolvent import CubicTriple


def main() -> int:
    header = (f"{'Gal(a)':<7}{'Gal(b)':<7}{'relation':<18}"
              f"{'predicted':<14}{'observed':<14}instance")
    print(header)
    print("-" * len(header))
    failures = 0
    for key, (a_vals, b_vals) in TABLE_INSTANCES.items():
        report = classify_subfield(CubicTriple(*a_vals), CubicTriple(*b_vals))
        observed_key = (report.g_a.tag, report.g_b.tag, report.relation)
        pattern = FACTOR_PATTERNS[key]
        pred = ",".join(str(d) for d in pattern)
        obs = ",".join(str(d) for d in report.observed_pattern)
        ok = (observed_key == key and report.predicted_pattern == pattern
              and report.observed_pattern == pattern)
        failures += not ok
        print(f"{key[0]:<7}{key[1]:<7}{key[2]:<18}{pred:<14}{obs:<14}"
              f"a={a_vals} b={b_vals}" + ("" if ok else "  MISMATCH"))
    if failures:
        print(f"{failures} row(s) disagreed with the prediction")
        return 1
    print("all rows match the predicted factor patterns")
    return 0


if __name__ == "__main__":
    sys.exit(main())
