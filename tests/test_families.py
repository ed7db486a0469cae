"""Normal-form reductions, the explicit same-field parameterizations, and
the integer scan over Shanks pairs."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tschirn.factorq as factorq
import tschirn.families as families
from tschirn.decide import decide_same_splitting, galois_type, verify_transformation
from tschirn.families import (
    NormalForm,
    ScanResult,
    family_c3,
    family_s3,
    rationals_by_height,
    reduce_depressed,
    reduce_one_param,
    reduce_shanks,
    scan_equal_splitting,
    shanks_pair_equal,
)
from tschirn.factorq import _cubic_integer_roots, rational_roots
from tschirn.fields import QQ, MathDomainError
from tschirn.poly import UniPoly, poly_discriminant
from tschirn.resolvent import (
    CubicTriple,
    cubic_invariants,
    resolvent_H,
    shanks_triple,
    tschirn_image,
)

small_rat = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def random_c3_triple(rng):
    m = rng.randint(-6, 6)
    while True:
        c = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        if c[1] or c[2]:
            return tschirn_image(shanks_triple(m), c)


class TestReduceDepressed:
    def test_known_shift(self):
        nf = reduce_depressed(CubicTriple(3, -3, 3))
        assert nf.kind == "depressed"
        assert nf.params == (-6, 8)
        assert nf.target == CubicTriple(0, -6, 8)
        assert nf.witness.as_tuple() == (-1, 1, 0)

    def test_already_depressed(self):
        nf = reduce_depressed(CubicTriple(0, -7, 7))
        assert nf.params == (-7, 7)
        assert nf.witness.as_tuple() == (0, 1, 0)

    @given(small_rat, small_rat, small_rat)
    @settings(max_examples=40)
    def test_witness_verifies(self, a1, a2, a3):
        a = CubicTriple(a1, a2, a3)
        nf = reduce_depressed(a)
        assert verify_transformation(a, nf.target, nf.witness)
        inv = cubic_invariants(a)
        assert nf.params == (-inv.A / 3, inv.B / 27)


class TestReduceOneParam:
    def test_known_reduction(self):
        nf = reduce_one_param(CubicTriple(3, -3, 3))
        assert nf.kind == "one-param"
        assert nf.params == (Fraction(-27, 8),)
        assert nf.target == CubicTriple(0, Fraction(-27, 8), Fraction(27, 8))
        assert nf.witness.as_tuple() == (Fraction(-3, 4), Fraction(3, 4), 0)

    def test_family_member_is_fixed_point(self):
        nf = reduce_one_param(CubicTriple(0, -7, 7))
        assert nf.params == (-7,)
        assert nf.witness.as_tuple() == (0, 1, 0)

    def test_parameter_formula(self):
        a = CubicTriple(1, -4, 2)
        inv = cubic_invariants(a)
        nf = reduce_one_param(a)
        assert nf.params[0] == -27 * inv.A**3 / inv.B**2

    def test_zero_A_falls_back_to_alternate_form(self):
        nf = reduce_one_param(CubicTriple(0, 0, 2))
        assert nf.kind == "one-param-alt"
        assert nf.params == (Fraction(2917, 54),)
        assert nf.target == CubicTriple(0, -3, Fraction(2917, 54))
        assert nf.witness.as_tuple() == (0, 3, Fraction(1, 6))
        assert verify_transformation(CubicTriple(0, 0, 2), nf.target, nf.witness)

    def test_perfect_cube_rejected(self):
        with pytest.raises(MathDomainError):
            reduce_one_param(CubicTriple(3, 3, 1))

    def test_random_irreducible_inputs(self):
        rng = random.Random(5)
        done = 0
        while done < 6:
            a = CubicTriple(*(Fraction(rng.randint(-6, 6)) for _ in range(3)))
            if not cubic_invariants(a).D or rational_roots(a.poly()):
                continue
            nf = reduce_one_param(a)
            eq, _ = decide_same_splitting(a, nf.target)
            assert eq
            if nf.kind == "one-param":
                astar = nf.params[0]
                assert astar * (4 * astar + 27) != 0
                assert verify_transformation(a, nf.target, nf.witness)
            done += 1


class TestReduceShanks:
    def test_known_candidates(self):
        forms = reduce_shanks(CubicTriple(-1, -2, 1))
        assert [nf.params[0] for nf in forms] == [-2, -1]
        assert forms[0].witness.as_tuple() == (-1, -1, 0)
        assert forms[1].witness.as_tuple() == (0, 1, 0)
        for nf in forms:
            assert nf.target == shanks_triple(nf.params[0])

    def test_trace_zero_example(self):
        forms = reduce_shanks(CubicTriple(0, -3, 1))
        assert [nf.params[0] for nf in forms] == [-3, 0]

    def test_family_fixed_points(self):
        for m in (-2, 0, 1, 5):
            forms = reduce_shanks(shanks_triple(m))
            assert m in {nf.params[0] for nf in forms}
            assert {nf.params[0] for nf in forms} == {m, -m - 3}

    def test_candidates_sum(self):
        rng = random.Random(3)
        for _ in range(5):
            a = random_c3_triple(rng)
            forms = reduce_shanks(a)
            m1, m2 = (nf.params[0] for nf in forms)
            assert m1 + m2 + 3 == 0
            for nf in forms:
                assert verify_transformation(a, nf.target, nf.witness)

    def test_non_cyclic_rejected(self):
        with pytest.raises(MathDomainError):
            reduce_shanks(CubicTriple(0, 3, -2))     # non-square discriminant
        with pytest.raises(MathDomainError):
            reduce_shanks(CubicTriple.from_roots((0, 1, 2)))
        with pytest.raises(MathDomainError):
            reduce_shanks(CubicTriple.from_roots((1, 1, 2)))


class TestFamilyS3:
    def test_known_value(self):
        b = family_s3(-7, 1)
        assert b == Fraction(-208537, 28561)
        assert resolvent_H(Fraction(-7), b).eval(Fraction(1)) == 0

    def test_resolvent_annihilates_parameter(self):
        rng = random.Random(9)
        for _ in range(20):
            a = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
            u = Fraction(rng.randint(-20, 20), rng.randint(1, 3))
            if a * (4 * a + 27) == 0:
                continue
            try:
                b = family_s3(a, u)
            except MathDomainError:
                continue
            assert resolvent_H(a, b).eval(u) == 0

    def test_same_splitting_field(self):
        rng = random.Random(21)
        hits = 0
        while hits < 8:
            u = Fraction(rng.randint(-20, 20), rng.randint(1, 3))
            try:
                b = family_s3(-7, u)
            except MathDomainError:
                continue
            eq, _ = decide_same_splitting(
                CubicTriple(0, -7, 7), CubicTriple(0, b, -b)
            )
            assert eq, u
            hits += 1

    def test_closure_pairs(self):
        for a, b in ((-7, -189), (-9, -27), (-6, 54)):
            assert 4 * a * b + 27 * a + 27 * b == 0

    def test_singular_parameters_rejected(self):
        with pytest.raises(MathDomainError):
            family_s3(0, 1)
        with pytest.raises(MathDomainError):
            family_s3(Fraction(-27, 4), 1)
        with pytest.raises(MathDomainError):
            family_s3(Fraction(-27, 2), 0)   # denominator vanishes at u = 0

    def test_denominator_discriminant(self):
        for a in (Fraction(-7), Fraction(2), Fraction(5, 3)):
            den = UniPoly(QQ, (-2 * a**2 - 27 * a, -9 * a, -2 * a, 1))
            assert poly_discriminant(den) == -(a**2) * (4 * a + 27) ** 3


class TestFamilyC3:
    def test_zero_gives_mirror_pair(self):
        for m in (Fraction(5), Fraction(-1), Fraction(7, 2)):
            assert family_c3(m, 0) == (m, -m - 3)

    def test_one_gives_closed_forms(self):
        for m in (Fraction(5), Fraction(2), Fraction(-4)):
            n1, n2 = family_c3(m, 1)
            assert n1 == -3 * (m + 6) / (2 * m + 3)
            assert n2 == -3 * (m - 3) / (2 * m + 3)

    def test_small_height_search_finds_known_neighbor(self):
        hits = []
        for z in rationals_by_height(30):
            try:
                ns = family_c3(-1, z)
            except MathDomainError:
                continue
            if Fraction(5) in ns:
                hits.append(z)
                break
        assert hits == [Fraction(1, 2)]

    def test_same_splitting_field(self):
        rng = random.Random(27)
        done = 0
        while done < 5:
            m = Fraction(rng.randint(-4, 6))
            z = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            try:
                n1, n2 = family_c3(m, z)
            except MathDomainError:
                continue
            for n in (n1, n2):
                eq, _ = decide_same_splitting(shanks_triple(m), shanks_triple(n))
                assert eq, (m, z, n)
            done += 1

    def test_singular_parameter_rejected(self):
        with pytest.raises(MathDomainError):
            family_c3(Fraction(-3, 2), 1)

    def test_denominator_discriminant(self):
        for m in (Fraction(-1), Fraction(2), Fraction(7, 2)):
            den = UniPoly(QQ, (-1, m, m + 3, 1))
            assert poly_discriminant(den) == (m**2 + 3 * m + 9) ** 2


class TestRationalsByHeight:
    def test_leading_order(self):
        assert list(rationals_by_height(2)) == [
            Fraction(-1), Fraction(0), Fraction(1),
            Fraction(-2), Fraction(-1, 2), Fraction(1, 2), Fraction(2),
        ]

    def test_complete_and_duplicate_free(self):
        seen = list(rationals_by_height(6))
        assert len(seen) == len(set(seen))
        brute = {
            Fraction(p, q)
            for q in range(1, 7)
            for p in range(-6, 7)
            if max(abs(Fraction(p, q).numerator), Fraction(p, q).denominator) <= 6
        }
        assert set(seen) == brute

    def test_heights_nondecreasing(self):
        heights = [
            max(abs(r.numerator), r.denominator) for r in rationals_by_height(8)
        ]
        assert heights == sorted(heights)


class TestIntegerRootFinder:
    @given(
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=-40, max_value=40),
    )
    @settings(max_examples=120)
    def test_matches_brute_force(self, p, q):
        bound = 1 + max(abs(p), abs(q))
        brute = any(
            y * y * y + p * y + q == 0 for y in range(-bound, bound + 1)
        )
        assert bool(_cubic_integer_roots([q, p, 0, 1])) == brute

    @given(
        st.integers(min_value=-2000, max_value=2000),
        st.integers(min_value=-2000, max_value=2000),
    )
    @settings(max_examples=80)
    def test_constructed_roots_found(self, r, s):
        # (Y - r)(Y^2 + rY + s) = Y^3 + (s - r^2) Y - rs
        assert r in _cubic_integer_roots([-r * s, s - r * r, 0, 1])

    def test_large_known_case(self):
        # the (-1, 5) Shanks pair: Y^3 - 343Y + 2058 has the roots -21, 7, 14
        assert _cubic_integer_roots([2058, -343, 0, 1]) == [-21, 7, 14]

    def test_grid_matches_brute_force(self):
        # an integer root y has |y| <= 1 + max(|p|, |q|)
        grid = range(-300, 301, 7)
        rooted = {(p, -y * y * y - p * y) for p in grid for y in range(-301, 302)}
        for p in grid:
            for q in grid:
                expect = (p, q) in rooted
                assert bool(_cubic_integer_roots([q, p, 0, 1])) == expect, (p, q)

    def test_planted_roots_found(self):
        rng = random.Random(7)
        for _ in range(20_000):
            r, s = rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9)
            # (Y - r)(Y^2 + rY + s) = Y^3 + (s - r^2) Y - rs
            p, q = s - r * r, -r * s
            assert r in _cubic_integer_roots([q, p, 0, 1])


class TestShanksScan:
    def test_pair_predicate(self):
        assert shanks_pair_equal(-1, 5)
        assert shanks_pair_equal(0, 3)
        assert shanks_pair_equal(2, 2389)
        assert shanks_pair_equal(4, 4)
        assert not shanks_pair_equal(0, 1)
        assert not shanks_pair_equal(-1, 54)

    def test_mirror_parameter_detected(self):
        # n = -m-3 always shares the field; the minus factor gains the root 0
        assert shanks_pair_equal(-5, 2)
        assert shanks_pair_equal(-10, 7)

    def test_predicate_agrees_with_decision_procedure(self):
        rng = random.Random(31)
        for _ in range(10):
            m, n = rng.randint(-8, 8), rng.randint(-8, 8)
            want, _ = decide_same_splitting(shanks_triple(m), shanks_triple(n))
            assert shanks_pair_equal(m, n) == want, (m, n)

    def test_small_scan_frozen(self):
        res = scan_equal_splitting((-1, 5), 100)
        assert res.pairs == (
            (-1, 5), (-1, 12), (0, 3), (0, 54), (1, 66), (3, 54), (5, 12)
        )
        assert res.classes == ((-1, 5, 12), (0, 3, 54), (1, 66))
        assert res.m_range == (-1, 5) and res.n_max == 100

    def test_scan_deterministic_across_jobs(self):
        single = scan_equal_splitting((-1, 5), 100)
        assert scan_equal_splitting((-1, 5), 100, jobs=2) == single
        assert scan_equal_splitting(range(-1, 6), 100) == single

    def test_worker_pool_capped_by_cpu_count(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(task) for task in tasks]

        monkeypatch.setattr(families, "Pool", SerialPool)
        monkeypatch.setattr(families.os, "cpu_count", lambda: 3)
        single = scan_equal_splitting((-1, 5), 100)
        assert scan_equal_splitting((-1, 5), 100, jobs=64) == single
        two_rows = scan_equal_splitting((-1, 0), 100)
        assert scan_equal_splitting((-1, 0), 100, jobs=64) == two_rows
        monkeypatch.setattr(families.os, "cpu_count", lambda: None)
        assert scan_equal_splitting((-1, 5), 100, jobs=64) == single
        assert sizes == [3, 2]

    def test_import_leaves_multiprocessing_unloaded(self):
        code = ("import sys, tschirn, tschirn.cli; "
                "sys.exit('multiprocessing' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_range_step_other_than_one_rejected(self):
        for m_range in (range(0, 12, 5), range(5, 0, -1)):
            with pytest.raises(ValueError, match="step 1"):
                scan_equal_splitting(m_range, 100)

    def test_empty_range(self):
        res = scan_equal_splitting((5, 4), 100)
        assert res.pairs == () and res.classes == ()

    def test_classes_are_cross_equal(self):
        res = scan_equal_splitting((-1, 5), 100)
        rng = random.Random(33)
        for cls in res.classes:
            m, n = rng.sample(cls, 2)
            eq, _ = decide_same_splitting(shanks_triple(m), shanks_triple(n))
            assert eq

    def test_serialization(self):
        res = scan_equal_splitting((0, 1), 70)
        d = res.to_dict()
        assert d["pairs"] == [[0, 3], [0, 54], [1, 66]]
        assert d["classes"] == [[0, 3, 54], [1, 66]]


def _has_integer_root_by_divisors(p, q):
    """Brute force for q != 0: an integer root of Y^3 + pY + q divides q."""
    n = abs(q)
    divisors = set()
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            divisors.update((d, -d, n // d, -n // d))
    return any(y * y * y + p * y + q == 0 for y in divisors)


# Y^3 + pY + q with |p| <= 10^4 and 0 < |q| <= 10^5: free coefficients (most
# have no integer root), and (Y - r)(Y^2 + rY + s), which has the root r.
_free_cubics = st.tuples(
    st.integers(min_value=-10**4, max_value=10**4),
    st.integers(min_value=-10**5, max_value=10**5).filter(bool),
)
_rooted_cubics = st.builds(
    lambda r, s: (s - r * r, -r * s),
    st.integers(min_value=-90, max_value=90),
    st.integers(min_value=-2000, max_value=2000),
).filter(lambda pq: abs(pq[0]) <= 10**4 and 0 < abs(pq[1]) <= 10**5)

# every equal pair of the acceptance scan m in [-1, 12], n <= 2500
_KNOWN_SCAN_PAIRS = ((-1, 5), (-1, 12), (-1, 1259), (0, 3), (0, 54), (1, 66),
                     (2, 2389), (3, 54), (5, 12), (5, 1259), (12, 1259))


class TestRootSieve:
    @given(st.one_of(_free_cubics, _rooted_cubics))
    @settings(max_examples=300)
    def test_sieved_test_matches_divisor_search(self, pq):
        p, q = pq
        assert bool(_cubic_integer_roots([q, p, 0, 1])) == (
            _has_integer_root_by_divisors(p, q)
        )

    def test_pair_predicate_matches_decision_on_scan_range(self):
        rng = random.Random(61)
        pairs = set(_KNOWN_SCAN_PAIRS)
        while len(pairs) < 150:
            m = rng.randint(-1, 12)
            pairs.add((m, rng.randint(m + 1, 2500)))
        for m, n in sorted(pairs):
            want, _ = decide_same_splitting(shanks_triple(m), shanks_triple(n))
            assert shanks_pair_equal(m, n) == want, (m, n)
            assert want == ((m, n) in _KNOWN_SCAN_PAIRS), (m, n)

    def test_sieve_rejects_before_the_lift(self, monkeypatch):
        # (roots found, lifts run) for each root test of the scan
        tests, lifts = [], []
        roots, lift = families._cubic_integer_roots, factorq._lifted_root

        def counted_roots(H):
            before = len(lifts)
            found = roots(H)
            tests.append((found, len(lifts) - before))
            return found

        def counted_lift(*args):
            lifts.append(args)
            return lift(*args)

        monkeypatch.setattr(families, "_cubic_integer_roots", counted_roots)
        monkeypatch.setattr(factorq, "_lifted_root", counted_lift)
        res = scan_equal_splitting((-1, 5), 100)
        assert len(res.pairs) == 7
        # 1,370 root tests of 686 pairs; only the 7 cubics that have an
        # integer root pass every table, so the rest reach no lift
        assert len(tests) == 1370
        assert sum(1 for found, _ in tests if found) == 7
        assert all(not n for found, n in tests if not found)
