#!/usr/bin/env python3
"""Cost of the integer root search of a cubic against the height of its roots.

For each height 10^e of the ladder, the script builds seeded monic integer
cubics of two kinds and runs ``factorq._cubic_integer_roots`` on them:

- planted: (X - r)(X^2 + aX + b) with r, a, b drawn up to 10^e, whose
  integer roots include r;
- root-free: the same product plus 5 * 7 * ... * 47 * k.  It still has a
  root mod every sieve prime, so it passes the tables and reaches the search,
  but it has no integer root unless k is drawn unluckily (the script checks
  the answer against r and reports a mismatch).

It reports, per kind and height, the median and the largest number of
evaluations of H and H' in the search, and the median time of one search.
The evaluations are counted from the arguments of each call of the lift
``factorq._lifted_root``: for each candidate root mod l, one of H' mod l,
one of H and one of H' for each squaring of the modulus up to its limit, and
one exact evaluation of H.  When a candidate before the last one is a root,
this counts the later ones too, so it is an upper bound.

    PYTHONPATH=src python scripts/root_ladder.py            # a short ladder
    PYTHONPATH=src python scripts/root_ladder.py --full     # up to 10^4003
    PYTHONPATH=src python scripts/root_ladder.py --json     # as JSON
"""

import argparse
import json
import math
import random
import statistics
import sys
import time

from tschirn import factorq

SHORT = (2, 12, 45, 300)
FULL = (2, 12, 45, 300, 1207, 4003)
SIEVE = math.prod(factorq._SIEVE_PRIMES)


def cubics(exponent: int, count: int, seed: int):
    """(kind, planted root r, H) for count cubics of each kind."""
    rng = random.Random(f"{seed}:{exponent}")
    height = 10**exponent
    for _ in range(count):
        r, a, b = (rng.randint(-height, height) for _ in range(3))
        H = [-r * b, b - r * a, a - r, 1]  # (X - r)(X^2 + aX + b)
        yield "planted", r, H
        yield "root-free", r, [H[0] + SIEVE * rng.randint(1, height), *H[1:]]


def evaluations(H: list) -> int:
    """Evaluations of H and H' while the roots of H are searched."""
    calls = []
    lift = factorq._lifted_root

    def counted(c0, c1, c2, xs, ell, limit):
        m, steps = ell, 0
        while m < limit:
            m, steps = m * m, steps + 1
        calls.append(len(xs) * (2 * steps + 2))
        return lift(c0, c1, c2, xs, ell, limit)

    factorq._lifted_root = counted
    try:
        factorq._cubic_integer_roots(H)
    finally:
        factorq._lifted_root = lift
    return sum(calls)


def seconds(H: list) -> float:
    """The least of three timed searches."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        factorq._cubic_integer_roots(H)
        best = min(best, time.perf_counter() - start)
    return best


def ladder(exponents, count: int, seed: int) -> list:
    rows = []
    for e in exponents:
        by_kind: dict = {}
        for kind, r, H in cubics(e, count, seed):
            roots = factorq._cubic_integer_roots(H)
            ok = r in roots if kind == "planted" else not roots
            stats = by_kind.setdefault(kind, ([], [], []))
            stats[0].append(evaluations(H))
            stats[1].append(seconds(H))
            stats[2].append(ok)
        for kind, (evals, secs, oks) in by_kind.items():
            rows.append({"exponent": e, "kind": kind, "cubics": len(oks),
                         "evaluations_median": statistics.median(evals),
                         "evaluations_max": max(evals),
                         "search_ms_median": round(1e3 * statistics.median(secs), 4),
                         "correct": all(oks)})
    return rows


def main(argv=()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help=f"heights 10^e for e in {FULL}")
    parser.add_argument("--count", type=int, default=5,
                        help="cubics of each kind per height")
    parser.add_argument("--seed", type=int, default=26)
    parser.add_argument("--json", action="store_true")
    ns = parser.parse_args(argv)
    rows = ladder(FULL if ns.full else SHORT, ns.count, ns.seed)
    if ns.json:
        print(json.dumps(rows, indent=1))
    else:
        print(f"{'height':<10}{'kind':<11}{'evals':>7}{'max':>6}{'ms':>11}")
        for row in rows:
            print(f"10^{row['exponent']:<7}{row['kind']:<11}"
                  f"{row['evaluations_median']:>7}{row['evaluations_max']:>6}"
                  f"{row['search_ms_median']:>11}"
                  + ("" if row["correct"] else "  WRONG"))
    return 0 if all(row["correct"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
