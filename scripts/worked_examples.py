#!/usr/bin/env python3
"""Walk through the two worked examples of the decision procedure.

Example 1 (degenerate resolvent): a = X^3 + 3X + 2 and b the shifted
copy X^3 - 3X^2 - 3X - 3.  The sextic resolvent degenerates, the
factorization shortcut produces the double and simple roots directly,
and the single rational transformation is recovered from them.

Example 2 (cyclic pair): a = X^3 + 3X^2 - 4X + 1 and b = X^3 + X^2 - 2X
- 1 generate the same cyclic cubic field; all three rational
transformations between them are listed and re-verified.
"""

import sys

from tschirn.decide import (
    all_rational_transformations,
    decide_same_splitting,
    galois_type,
    verify_transformation,
)
from tschirn.resolvent import (
    CubicTriple,
    cubic_invariants,
    degeneracy_indicator,
    degenerate_f2_blocks,
    resolvent_F0,
    resolvent_F1,
    resolvent_F2,
    tschirn_image,
)


def fmt(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def show_invariants(label: str, s: CubicTriple) -> None:
    inv = cubic_invariants(s)
    print(f"  {label} = {s.poly()}   [{galois_type(s).tag}]")
    print(f"    A = {inv.A}, B = {inv.B}, C = {inv.C}, D = {inv.D}")


def show_pair(title: str, a: CubicTriple, b: CubicTriple) -> None:
    print(title)
    show_invariants("a", a)
    show_invariants("b", b)
    ind = degeneracy_indicator(a, b)
    print(f"  degeneracy indicator As^3 Bt^2 - 27 At^3 Ds = {ind}")

    print(f"  F2 = {resolvent_F2(a, b)}")
    print(f"  F1 = {resolvent_F1(a, b)}")
    print(f"  F0~ = {resolvent_F0(a, b)}")

    if ind == 0:
        double, simple, _ = degenerate_f2_blocks(a, b)
        print(f"  degenerate split: double root {-double.coeffs[0]},"
              f" simple root {-simple.coeffs[0]}")

    equal, witness = decide_same_splitting(a, b)
    print(f"  same splitting field: {equal}")
    if equal:
        for w in all_rational_transformations(a, b):
            image = tschirn_image(a, w.as_tuple())
            ok = verify_transformation(a, b, w)
            print(f"    witness c = {fmt(w.as_tuple())}"
                  f" -> image {fmt(image.as_tuple())}  verified = {ok}")
    print()


def main() -> int:
    show_pair(
        "Example 1: degenerate resolvent, witness by factorization shortcut",
        CubicTriple(0, 3, -2),
        CubicTriple(3, -3, 3),
    )
    show_pair(
        "Example 2: cyclic pair with three rational transformations",
        CubicTriple(-3, -4, -1),
        CubicTriple(-1, -2, 1),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
