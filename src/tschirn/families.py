"""Normal forms and parametric families of cubics with a shared splitting
field: the depressed form, the one-parameter family X^3 + aX + a, Shanks'
simplest cubics, the explicit b(u) / n(z) parameterizations, and an exact
integer scan for equal-splitting Shanks pairs.

The scan asks whether a monic integer cubic has an integer root, through
``factorq._cubic_integer_roots``.  That search first looks the cubic up in
``factorq._cubic_root_tables``, of the roots of Y^3 + aY + b mod each prime
l from 5 to 47: an integer root is also a root mod every l, so no root mod
some l proves no integer root.  Only the few cubics that pass every table go
on to the exact search, which lifts a root mod l to the one candidate and
tests it, so every "has a root" answer is still exact."""

from __future__ import annotations

import os
from fractions import Fraction
from math import gcd

from .decide import TschirnCoeffs, _avoid_zero_A, galois_type, verify_transformation
from .factorq import _cubic_integer_roots, is_square_rat
from .fields import QQ, MathDomainError, Record
from .resolvent import CubicTriple, cubic_invariants, shanks_delta, shanks_triple


class NormalForm(Record):
    """A normal-form cubic together with a verified witness onto it.

    kind is one of "depressed" (X^3 + S2 X - S3), "one-param"
    (X^3 + aX + a), "one-param-alt" (the Y^3 - 3Y - (B + 1/B) form used
    when A = 0), or "shanks" (X^3 - mX^2 - (m+3)X - 1); params carries the
    kind's parameters in that order.
    """

    kind: str
    params: tuple
    target: CubicTriple
    witness: TschirnCoeffs


def _checked(kind: str, params: tuple, a: CubicTriple, target: CubicTriple,
             witness: TschirnCoeffs) -> NormalForm:
    if not verify_transformation(a, target, witness):
        raise MathDomainError(f"{kind} normal form failed to verify")
    return NormalForm(kind, params, target, witness)


def reduce_depressed(a: CubicTriple) -> NormalForm:
    """Shift X -> X - a1/3, landing on X^3 + S2 X - S3 with S2 = -A/3 and
    S3 = B/27."""
    inv = cubic_invariants(a)
    s2, s3 = -inv.A / 3, inv.B / 27
    a1 = QQ(a.values()[0])
    return _checked(
        "depressed",
        (s2, s3),
        a,
        CubicTriple(0, s2, s3),
        TschirnCoeffs(-a1 / 3, 1, 0),
    )


def reduce_one_param(a: CubicTriple) -> NormalForm:
    """Scale the depressed form onto the family member X^3 + a*X + a* with
    a* = -27A^3/B^2.  When A = 0 the scaling degenerates; the alternate
    normal form Y^3 - 3Y - (B + 1/B) is returned instead, reached by a
    quadratic witness."""
    inv = cubic_invariants(a)
    if inv.B == 0:
        raise MathDomainError("B = 0: shifted perfect cube, no family member")
    if inv.A == 0:
        target, hop = _avoid_zero_A(a)
        return NormalForm("one-param-alt", (inv.B + 1 / inv.B,), target, hop)
    a2, a3 = -inv.A / 3, inv.B / 27
    astar = a2**3 / a3**2
    a1 = QQ(a.values()[0])
    return _checked(
        "one-param",
        (astar,),
        a,
        CubicTriple(0, astar, -astar),
        TschirnCoeffs(a1 * a2 / (3 * a3), -a2 / a3, 0),
    )


def reduce_shanks(a: CubicTriple) -> tuple[NormalForm, NormalForm]:
    """Map a cyclic cubic affinely onto Shanks' family, once for each square
    root Delta of D: m = -(3 Delta + B)/(2 Delta) with witness
    ((E - Delta)/(2 Delta), -A/Delta, 0).  The two candidate parameters
    satisfy m1 + m2 + 3 = 0; results are ordered by parameter."""
    kind = galois_type(a)
    if kind.tag != "C3":
        raise MathDomainError(f"Galois type {kind} is not C3; D_a must be a "
                              "nonzero square with the cubic irreducible")
    inv = cubic_invariants(a)
    delta_pos = is_square_rat(inv.D)
    forms = []
    for delta in (delta_pos, -delta_pos):
        m = -(3 * delta + inv.B) / (2 * delta)
        witness = TschirnCoeffs((inv.E - delta) / (2 * delta), -inv.A / delta, 0)
        forms.append(_checked("shanks", (m,), a, shanks_triple(m), witness))
    forms.sort(key=lambda nf: nf.params[0])
    return tuple(forms)


def family_s3(a, u) -> Fraction:
    """The second parameter b(u) such that X^3 + aX + a and X^3 + bX + b
    have the same splitting field:
    b = a (u^2 + 9u - 3a)^3 / (u^3 - 2au^2 - 9au - 2a^2 - 27a)^2."""
    a, u = QQ(a), QQ(u)
    if a * (4 * a + 27) == 0:
        raise MathDomainError("a(4a + 27) = 0: parameter outside the family")
    den = u**3 - 2 * a * u**2 - 9 * a * u - 2 * a**2 - 27 * a
    if den == 0:
        raise MathDomainError("u^3 - 2au^2 - 9au - 2a^2 - 27a = 0")
    return a * (u**2 + 9 * u - 3 * a) ** 3 / den**2


def family_c3(m, z) -> tuple[Fraction, Fraction]:
    """The two parameters n(z) such that the Shanks cubics at m and n have
    the same splitting field."""
    m, z = QQ(m), QQ(z)
    den = m * z * (z + 1) + z**3 + 3 * z**2 - 1
    if den == 0:
        raise MathDomainError("mz(z+1) + z^3 + 3z^2 - 1 = 0")
    n1 = (m * (z**3 - 3 * z - 1) - 9 * z * (z + 1)) / den
    n2 = -(m * (z**3 + 3 * z**2 - 1) + 3 * (z**3 - 3 * z - 1)) / den
    return n1, n2


def rationals_by_height(max_height: int):
    """All reduced rationals of height max(|num|, den) up to max_height,
    ordered by height and then numerically."""
    for h in range(1, max_height + 1):
        yield from sorted({
            sign * Fraction(num, den)
            for num in range(h + 1)
            for den in (range(1, h + 1) if num == h else (h,))
            if gcd(num, den) == 1
            for sign in (1, -1)
        })


# --------------------------------------------------------------------------
# Integer scan over Shanks pairs.
# --------------------------------------------------------------------------


def shanks_pair_equal(m: int, n: int) -> bool:
    """Whether the Shanks cubics at integer parameters m and n share a
    splitting field.  Decided by an integer rational-root test on the two
    cubic factors of the pair resolvent, rescaled to the monic integral
    models Y^3 - (Da Db) Y -+ k Da Db with k = (m-n) resp. -(m+n+3).  A
    factor with no root mod one of the sieve primes 5..47 has no integer
    root (reduce an integer root mod l), so tables of the cubics with a
    root mod l reject almost every pair before the exact root search runs."""
    if m == n:
        return True
    prod = int(shanks_delta(m) * shanks_delta(n))
    return bool(_cubic_integer_roots([-(m - n) * prod, -prod, 0, 1])
                or _cubic_integer_roots([(m + n + 3) * prod, -prod, 0, 1]))


def _scan_row(args) -> list:
    m, n_max = args
    return [(m, n) for n in range(m + 1, n_max + 1) if shanks_pair_equal(m, n)]


class ScanResult(Record):
    """Equal-splitting pairs found by an integer scan, with their
    transitive classes."""

    m_range: tuple
    n_max: int
    pairs: tuple
    classes: tuple

    def to_dict(self) -> dict:
        return {
            "m_range": list(self.m_range),
            "n_max": self.n_max,
            "pairs": [list(p) for p in self.pairs],
            "classes": [list(c) for c in self.classes],
        }


def _merge_classes(pairs) -> tuple:
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for m, n in pairs:
        parent[find(m)] = find(n)
    groups: dict = {}
    for x in parent:
        groups.setdefault(find(x), []).append(x)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def Pool(processes: int):
    """A ``multiprocessing.Pool``; the module is imported only when a scan
    fans out, so importing tschirn does not load it."""
    from multiprocessing import Pool as pool

    return pool(processes)


def scan_equal_splitting(m_range, n_max: int, jobs: int = 1) -> ScanResult:
    """Scan integer pairs (m, n) with m in m_range, m < n <= n_max, for
    Shanks cubics with equal splitting fields.  Rows are independent, so
    they can be fanned out over worker processes, at most jobs and at most
    one per CPU; output is deterministic and independent of the
    partitioning.  A range m_range must have step 1."""
    if isinstance(m_range, range):
        if m_range.step != 1:
            raise ValueError(f"m_range needs step 1, got {m_range!r}")
        m_range = (m_range.start, m_range.stop - 1)
    m_min, m_max = m_range
    tasks = [(m, n_max) for m in range(m_min, m_max + 1)]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with Pool(workers) as pool:
            rows = pool.map(_scan_row, tasks)
    else:
        rows = [_scan_row(task) for task in tasks]
    pairs = tuple(pair for row in rows for pair in row)
    return ScanResult((m_min, m_max), n_max, pairs, _merge_classes(pairs))
