"""Reference speed for the benchmark's timings.

On a shared 2-CPU virtual machine the speed of the same Python code drifts
by up to 1.7x over tens of seconds, so two 15-second runs of the same
program can differ by 30%.  The benchmark
therefore times a fixed snippet of Python arithmetic (small-integer loops,
Fractions and small objects with operator methods, like the library's own
work, but no library code) before every operation, and reports each
operation's latency scaled to the speed at which the snippet takes
REFERENCE_NS:

    latency_reported = latency_measured * REFERENCE_NS / snippet_time

where snippet_time is the median of the snippet readings taken just before
and just after the operation and, for short operations, of those taken
around the operations within about 0.1 s of it.  The raw timings are printed
too.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_NS = 500_000
WINDOW = 10


class _Residue:
    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p, self.v = p, v % p

    def __add__(self, other):
        return _Residue(self.p, self.v + other.v)

    def __mul__(self, other):
        return _Residue(self.p, self.v * other.v)


def _snippet():
    # Small-integer loop arithmetic (as in the scan) ...
    s = 0
    for y in range(800):
        s += (y * y * y + 7 * y + 3) // (y + 1)
    # ... Fractions with growing numerators (as in the decisions) ...
    acc, x = Fraction(0), Fraction(7, 3)
    for k in range(1, 16):
        acc += x**3 * k / (k + 7) - acc / 5
    # ... and many small objects with operator methods (as F_p arithmetic).
    xs = [_Residue(101, i) for i in range(60)]
    r = _Residue(101, 0)
    for a in xs:
        for b in xs[:3]:
            r = r + a * b
    return s, acc, r


def sample() -> int:
    """Nanoseconds the snippet takes now."""
    start = time.perf_counter_ns()
    _snippet()
    return time.perf_counter_ns() - start


def factor(samples) -> float:
    """The scale REFERENCE_NS / median(samples)."""
    return REFERENCE_NS / statistics.median(samples)


def factors(samples, latencies):
    """The scale for each op.  samples[i] is the reading taken just before
    op i and samples[-1] one taken after the last op, so op i lies between
    samples[i] and samples[i + 1]; the scale uses those two and, for short
    ops, the readings of the ops within about 0.1 s on either side (at most
    WINDOW), since the speed can change within a second."""
    k = min(WINDOW, int(0.1e9 // statistics.median(latencies)))
    return [factor(samples[max(0, i - k): i + k + 2]) for i in range(len(latencies))]
