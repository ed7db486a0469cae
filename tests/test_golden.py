"""Golden CLI outputs: ``decide-iso`` and ``classify``, as text and as
``--json``, on the eleven table rows, two pairs on the multiple-root locus
(S3 and C3), an A = 0 pair across square classes and the pairs of
``scripts/worked_examples.py``; ``decide-iso`` also on a reducible C2
pair, a split pair, a reducible pair with roots of 61 digits, two
equal A = 0 pairs, one with an affine-only witness, and a locus pair and a
C2 pair of rational height about 10^12 whose witnesses have denominators; ``transform`` on each of the first pairs' first cubics with an
integer, a rational and a zero-c2 coefficient triple; ``factor`` on
resolvent sextics, X^24 + 1, products of sextics with large coefficients
and inputs with repeated factors; and
``resolvent`` with each index on a generic pair, an A = 0 locus pair, a
pair on the multiple-root locus and two B_s = 0 pairs, one with G split
over Q and one with G irreducible, and ``--index 0`` on two pairs whose
second cubic has a triple root: one on the locus, one with A_a = A_b = 0;
``invariants`` on the first cubics, a triple root and two triples with
denominators; ``reduce`` to each normal form, with the A = 0 alternate
and the errors; ``family`` of each kind, by one parameter and by height, and its usage and domain errors; a
small ``scan``, and the usage errors of a negative ``--height`` and an
empty ``scan`` range; ``classify`` on inputs it swaps, ``transform`` onto an
inseparable image, ``decide-iso`` and ``classify`` on ``--monic-a`` and
``--monic-b`` inputs, ``factor`` on a constant, the fast ``selftest``,
``invariants`` and ``decide-iso`` on integers of 2,402 and 5,002 digits,
``scan --jobs 0``, and ``classify`` in both orders on X^3 - 2 and a cubic
on the multiple-root locus with the A = 0 hop target of X^3 - 2 but not
with X^3 - 2.
Each run's exit code (that of ``SystemExit`` for a usage error), stdout
and stderr (kept when not empty) are compared
byte for byte with
``tests/data/golden_cli.json``, so a speedup of the decision path, of the
image kernel or of the factorizer can show that it changed no verdict,
witness, document, factorization or resolvent.

To rewrite the data file after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import functools
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

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

# decide-iso branches that PAIRS does not reach: two reducible C2 cubics
# over one quadratic field, two split cubics, an equal A = 0 pair,
# X^3 - 2 against its image (3, -3, 1) under 1 + X + X^2, and the A = 0
# pair X^3 - 2, X^3 - 16, whose only witness is the affine 2X
DECIDE_PAIRS = (("1,3,3", "0,3,0"), ("6,11,6", "0,-1,0"), ("0,0,2", "3,-3,1"),
                ("0,0,2", "0,0,16"),
                # (X - r)(X^2 - 2) and (X - s)(X^2 - 8), r = 10^60 + 7 and
                # s = -3 10^59 + 11: the root search on 61-digit roots
                (f"{10**60 + 7},-2,{-2 * (10**60 + 7)}",
                 f"{-3 * 10**59 + 11},-8,{-8 * (-3 * 10**59 + 11)}"),
                # heights about 10^12, witnesses with three denominators: a
                # pair on the multiple-root locus, and (X - r)(X^2 - g)
                # against (X - s)((X - f)^2 - e^2 g), a C2 pair
                ("2345/6612,44844011/255024840,-668953319031/5246030975360",
                 "1/2,-61130623/13398324732,7865234915/116118814344"),
                ("804331/501212,-656501/3391,-528044105831/1699609892",
                 "-100508/30411,-498618073375/412494804,-86437093396/103123701"))

CASES += [
    ["decide-iso", "--a", a, "--b", b] + extra
    for a, b in DECIDE_PAIRS
    for extra in ([], ["--json"])
]

# integer, rational, zero c2
TRANSFORM_COEFFS = ("3,-1,1", "-1/2,2/3,5/7", "7/3,-2,0")

CASES += [
    ["transform", "--a", a, "--c", c] + extra
    for a in dict.fromkeys(a for a, _ in PAIRS)
    for c in TRANSFORM_COEFFS
    for extra in ([], ["--json"])
]



def _times(*polys) -> str:
    """The product of integer polynomials (constant first), as --coeffs."""
    out = [1]
    for g in polys:
        prod = [0] * (len(out) + len(g) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(g):
                prod[i + j] += x * y
        out = prod
    return ",".join(str(c) for c in out)


# sextics with 12-, 30- and 20-digit coefficients, not monic
SEXTICS = (
    (-671280706895, -366229300755, -850781218568, -863891468888,
     225583620466, 879391951716, 6),
    (389447619940, 327022681666, 447023118272, -661466571887,
     732353987233, 563172181477, 8),
    (-559447214009298417224191252806, 258073884009380985667251810129,
     166457714554952008640697915896, -826696116799390218391099532142,
     -297673083036978600540750462385, -131324705893612756851072379441, 2),
    (806834391486201904387936090638, 377461505918975312336322431410,
     -535760540172943856465121081064, -283114742051355435087003516619,
     533896717011407490707731731895, 676182650016111384374707140975, 3),
    (-74424940653326630363, 62388803177251679541, -11184475058606095448,
     75762937250057497977, 19229079516000108485, 85294493343863531209, 8),
)

FACTOR_COEFFS = (
    # F2 of the A != 0 forms that decide factors, for the table rows
    # S3/S3 Equal, S3/S3 QuadraticMeet, C3/C3 Equal and S3/S3 TrivialMeet
    "-152/529,-165/529,225/529,11/23,-30/23,0,1",
    "-28920783024/196327588830261845,-2066557536/72202832700625,"
    "76527504/72202832700625,-236232/8497225,17496/8497225,0,1",
    "42,-91,49,13,-14,0,1",
    "31/13824,1/64,1/64,-1/8,-1/4,0,1",
    # X^24 + 1 = (X^8 + 1) Phi_48(X)
    ",".join(["1"] + ["0"] * 23 + ["1"]),
    _times(SEXTICS[0], SEXTICS[1]),
    _times(SEXTICS[2], SEXTICS[3]),
    _times(SEXTICS[0], SEXTICS[2], SEXTICS[4]),
    # (X + 1)^2 (X^2 + 2)^3
    _times((1, 1), (1, 1), (2, 0, 1), (2, 0, 1), (2, 0, 1)),
    # X^2 - 3 (5 7 ... 29)^2: squarefree, but modulo no prime 5..29
    _times((-3 * (5 * 7 * 11 * 13 * 17 * 19 * 23 * 29) ** 2, 0, 1)),
    # X^2 - 3 (5 7 ... 47)^2: squarefree, but modulo no prime 5..47
    _times((-3 * (5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43
                  * 47) ** 2, 0, 1)),
    # a squared sextic with a 12-digit constant, times a linear factor
    _times((123456789012, 3, 5, 7, 11, 13, 1), (123456789012, 3, 5, 7, 11, 13, 1),
           (12345678901234567, 1)),
)

CASES += [
    ["factor", "--coeffs", c] + extra
    for c in FACTOR_COEFFS
    for extra in ([], ["--json"])
]

RESOLVENT_PAIRS = (
    # generic: the 6x6 transport of all of F2
    ("1,2,3", "2,3,5"),
    # A_a = A_b = 0 on the locus: the 3x3 transport of X^3 + B_t/D_s
    ("0,0,2", "0,0,3"),
    # on the multiple-root locus: simple root times cubic block
    ("0,3,-2", "3,-3,3"),
    # B_a = 0, so F2 = G^2: G split over Q, then G irreducible
    ("0,-1,0", "7,14,8"),
    ("0,1,0", "0,-1,1"),
)

CASES += [
    ["resolvent", "--a", a, "--b", b, "--index", i] + extra
    for a, b in RESOLVENT_PAIRS
    for i in "012"
    for extra in ([], ["--json"])
]
# on the locus with A_b = 0: b = (X - 1)^3 has a triple root (exit 1)
CASES.append(["resolvent", "--a", "-4,-5,1", "--b", "3,3,1", "--index", "0"])
# A_a = A_b = 0: the same triple root, named before the A = 0 closed form
CASES.append(["resolvent", "--a", "3,3,4", "--b", "3,3,1", "--index", "0"])

# the first cubics of PAIRS, (X - 1)^3, whose D = 0 leaves the Galois
# type undefined, and two triples with denominators, whose C and E are read
# off a scaled integer model: ell = 12, and three denominators of height
# about 10^12 with ell about 2.9 10^13
CASES += [
    ["invariants", "--a", a] + extra
    for a in list(dict.fromkeys(a for a, _ in PAIRS)) + [
        "3,3,1", "1/2,-3/4,5/6",
        "271828182845/999331,-314159265358/7919,141421356237/3617"]
    for extra in ([], ["--json"])
]

REDUCE_CASES = (
    ("depressed", "1,2,3"), ("depressed", "-1/2,2/3,5/7"),
    ("one-param", "1,2,3"), ("one-param", "-1/2,2/3,5/7"),
    # A = 0: the alternate form, reached by a quadratic witness
    ("one-param", "0,0,2"), ("one-param", "3,3,4"),
    # B = 0: a shifted perfect cube has no family member (exit 1)
    ("one-param", "0,-1,0"),
    # Shanks' m = 1, and the cyclic cubic of the worked example
    ("shanks", "1,-4,1"), ("shanks", "-3,-4,-1"),
    # an S3 cubic is not cyclic (exit 1)
    ("shanks", "1,2,3"),
)

CASES += [
    ["reduce", "--a", a, "--to", to] + extra
    for to, a in REDUCE_CASES
    for extra in ([], ["--json"])
]

FAMILY_ARGS = (
    ["--kind", "s3", "--a", "-7", "--u", "2"],
    ["--kind", "s3", "--a", "1/2", "--height", "2"],
    ["--kind", "c3", "--m", "1", "--z", "2/3"],
    ["--kind", "c3", "--m", "-1", "--height", "2"],
)

CASES += [
    ["family"] + args + extra
    for args in FAMILY_ARGS
    for extra in ([], ["--json"])
]

CASES += [
    ["scan", "--m-min", "-1", "--m-max", "5", "--n-max", "60"] + extra
    for extra in ([], ["--json"])
]

CASES += [
    argv + extra
    for argv in (
        # #G_a < #G_b: classify swaps the inputs and warns
        ["classify", "--a", "6,11,6", "--b", "0,0,2"],
        # the zero transformation collapses the roots
        ["transform", "--a", "0,0,2", "--c", "0,0,0"],
        # the worked example's degenerate pair, given as plain monic cubics
        ["decide-iso", "--monic-a", "0,3,2", "--monic-b", "-3,-3,-3"],
        ["classify", "--monic-a", "0,3,2", "--monic-b", "-3,-3,-3"],
        # a constant: no factors, an empty degree pattern
        ["factor", "--coeffs", "5"],
        ["selftest"],
    )
    for extra in ([], ["--json"])
]

# family usage errors (exit 2): a missing parameter, both or neither of the
# single parameter and --height, and the other kind's parameters; then
# a(4a + 27) = 0 outside the s3 family (exit 1)
CASES += [
    ["family", "--kind"] + args
    for args in (
        ["s3", "--u", "2"],
        ["c3", "--z", "2"],
        ["s3", "--a", "-7"],
        ["s3", "--a", "-7", "--u", "2", "--height", "1"],
        ["c3", "--m", "1"],
        ["c3", "--m", "1", "--z", "2", "--height", "1"],
        ["c3", "--m", "1", "--u", "2", "--height", "1"],
        ["s3", "--a", "-7", "--u", "2", "--m", "5"],
        ["s3", "--a", "0", "--u", "1"],
        ["s3", "--a", "-27/4", "--height", "1"],
    )
]

# usage errors (exit 2): a negative --height, an empty --m-min..--m-max
# range, no worker process
CASES += [
    ["family", "--kind", "s3", "--a", "-7", "--height", "-3"],
    ["scan", "--m-min", "3", "--m-max", "1", "--n-max", "10"],
    ["scan", "--m-min", "0", "--m-max", "1", "--n-max", "10", "--jobs", "0"],
]

# integers past Python's default limit of 4,300 digits on int/str
# conversion: a D of 4,804 digits, and X^3 - 10^5001, which splits over
# Q(sqrt(-3)) as X^3 + 1 does
CASES += [
    ["invariants", "--a", "0,-3,1" + "0" * 2400 + "7"],
    ["decide-iso", "--a", "0,0,1" + "0" * 5001, "--b", "0,0,-1"],
]

# X^3 - 2 against an S3 cubic that is on the multiple-root locus with the
# A = 0 hop target (0, -3, 2917/54) of X^3 - 2, but not with X^3 - 2: with
# one A = 0 there is no hop, and the pair is classified off the locus
CASES += [
    ["classify", "--a", a, "--b", b] + extra
    for a, b in (("0,0,2", "0,3,-2915/54"), ("0,3,-2915/54", "0,0,2"))
    for extra in ([], ["--json"])
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        # the selftest pins record the default seed
        os.environ.pop("TSCHIRN_SEED", None)
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # a usage error, raised by argparse
            code = exc.code
    run = {"argv": list(argv), "code": code, "stdout": out.getvalue()}
    if err.getvalue():
        run["stderr"] = err.getvalue()
    return run


@functools.cache
def _expected():
    """The data file by joined argv, parsed once for all the cases."""
    return {" ".join(run["argv"]): run for run in json.loads(DATA.read_text())}


def _case_id(index: int, argv) -> str:
    """The argv as one line, or, past 80 characters, its first 60 and the
    case's index, so that an integer of thousands of digits makes no id of
    thousands of characters."""
    line = " ".join(argv)
    return line if len(line) <= 80 else f"{line[:60]}...#{index}"


@pytest.mark.parametrize("argv", CASES,
                         ids=[_case_id(i, argv) for i, argv in enumerate(CASES)])
def test_output_is_byte_identical(argv):
    assert _run(argv) == _expected()[" ".join(argv)]


def test_data_covers_exactly_the_cases():
    assert sorted(_expected()) == sorted(" ".join(argv) for argv in CASES)


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps([_run(argv) for argv in CASES], indent=1) + "\n")
    sys.exit(0)
