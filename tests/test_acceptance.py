"""End-to-end acceptance gates.

Each test prints exactly one pass/fail line for its criterion, including the
measured runtime against the stated budget, then asserts both correctness
and the budget.
"""

import random
import time
from fractions import Fraction

from tschirn.decide import (
    all_rational_transformations,
    classify_subfield,
    decide_same_splitting,
    verify_transformation,
)
from tschirn.factorq import factor_over_Fp, factor_over_Q, rational_roots
from tschirn.families import scan_equal_splitting
from tschirn.fields import QQ, PrimeField, gf_build
from tschirn.poly import (
    RootTuple,
    UniPoly,
    poly_discriminant,
    poly_gcd,
)
from tschirn.resolvent import (
    CubicTriple,
    cubic_invariants,
    degeneracy_indicator,
    degenerate_f2_blocks,
    oracle_resolvent,
    resolvent_F0,
    resolvent_F1,
    resolvent_F2,
    resolvent_F2_char3,
    resolvent_G0_char3,
    resolvent_H,
    sextic_generic,
    tschirn_image,
)

X = UniPoly.X(QQ)


def _run(num: int, name: str, budget: float, body) -> None:
    start = time.perf_counter()
    failure = None
    try:
        body()
    except BaseException as exc:
        failure = exc
    elapsed = time.perf_counter() - start
    ok = failure is None and elapsed < budget
    print(
        f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} "
        f"({elapsed:.2f}s, budget {budget:.0f}s)"
    )
    if failure is not None:
        raise failure
    assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeds {budget:.0f}s"


def test_criterion_01_invariant_identity():
    def body():
        rng = random.Random(101)
        for _ in range(100):
            a = CubicTriple(
                *(Fraction(rng.randint(-60, 60), rng.randint(1, 8))
                  for _ in range(3))
            )
            inv = cubic_invariants(a)
            assert 4 * inv.A**3 - inv.B**2 == 27 * inv.D

    _run(1, "invariant identity on 100 seeded triples", 1.0, body)


def _random_split_pair(rng):
    pool = [Fraction(n, d) for n in range(-10, 11) for d in (1, 2, 3)]
    while True:
        xs = tuple(rng.sample(pool, 3))
        ys = tuple(rng.sample(pool, 3))
        s, t = CubicTriple.from_roots(xs), CubicTriple.from_roots(ys)
        js, jt = cubic_invariants(s), cubic_invariants(t)
        if js.D and jt.D and js.B and degeneracy_indicator(s, t):
            return RootTuple(xs=xs, ys=ys), s, t


def test_criterion_02_oracle_equivalence():
    def body():
        rng = random.Random(202)
        builders = (resolvent_F0, resolvent_F1, resolvent_F2)
        for _ in range(25):
            rt, s, t = _random_split_pair(rng)
            for index in (0, 1, 2):
                assert oracle_resolvent(rt, index) == builders[index](s, t)

    _run(2, "brute-force coset oracle equals all three resolvents "
            "on 25 seeded root tuples", 5.0, body)


def test_criterion_03_discriminant_closed_form():
    def body():
        rng = random.Random(303)
        done = 0
        while done < 25:
            s = CubicTriple(
                *(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                  for _ in range(3))
            )
            t = CubicTriple(
                *(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                  for _ in range(3))
            )
            js, jt = cubic_invariants(s), cubic_invariants(t)
            if not js.D or not jt.D:
                continue
            expected = (
                js.B**6 * jt.D**3 * degeneracy_indicator(s, t) ** 2 / js.D**15
            )
            assert poly_discriminant(resolvent_F2(s, t)) == expected
            done += 1

    _run(3, "resolvent discriminant closed form on 25 pairs", 5.0, body)


def test_criterion_04_degenerate_worked_example():
    def body():
        a, b = CubicTriple(0, 3, -2), CubicTriple(3, -3, 3)
        ja, jb = cubic_invariants(a), cubic_invariants(b)
        assert (ja.A, ja.B, ja.C, ja.D) == (-9, -54, 9, -216)
        assert (jb.A, jb.B, jb.D) == (18, 216, -864)
        assert degeneracy_indicator(a, b) == 0

        half = Fraction(1, 2)
        assert resolvent_F2(a, b) == (X + half) ** 2 * (X - 1) * UniPoly(
            QQ, (Fraction(-3, 4), Fraction(-3, 4), 0, 1)
        )
        assert resolvent_F1(a, b) == UniPoly(QQ, (Fraction(7, 4), -1, 1)) * (
            X + 1
        ) * UniPoly(QQ, (Fraction(1, 4), Fraction(3, 4), 0, 1))
        assert resolvent_F0(a, b) == X**2 * (X - 3) * UniPoly(
            QQ, (-4, 0, -3, 1)
        )

        assert degenerate_f2_blocks(a, b)[1] == X - 1
        equal, witness = decide_same_splitting(a, b)
        assert equal and witness.as_tuple() == (3, -1, 1)
        assert verify_transformation(a, b, witness)
        ws = all_rational_transformations(a, b)
        assert tuple(w.as_tuple() for w in ws) == ((3, -1, 1),)

    _run(4, "degenerate worked example reproduced end to end", 1.0, body)


def test_criterion_05_cyclic_worked_example():
    def body():
        a, b = CubicTriple(-3, -4, -1), CubicTriple(-1, -2, 1)
        ja, jb = cubic_invariants(a), cubic_invariants(b)
        assert (ja.A, ja.B, ja.C, ja.D) == (21, -189, 259, 49)
        assert (jb.A, jb.B, jb.D) == (7, 7, 49)

        assert resolvent_F2(a, b) == (X - 1) ** 2 * (X + 2) * UniPoly(
            QQ, (Fraction(-13, 7), -3, 0, 1)
        )
        f1 = resolvent_F1(a, b)
        assert f1 == (X - 3) * (X - 4) * (X + 7) * UniPoly(
            QQ, (Fraction(-601, 7), -37, 0, 1)
        )
        f0 = resolvent_F0(a, b)
        assert f0 == (X + 3) * (X + 2) * (X - 4) * UniPoly(
            QQ, (Fraction(71, 7), -14, 1, 1)
        )

        ws = all_rational_transformations(a, b)
        found = tuple(w.as_tuple() for w in ws)
        assert found == ((-3, 3, 1), (-2, 4, 1), (4, -7, -2))
        for w in ws:
            assert verify_transformation(a, b, w)
        # every witness coordinate shows up among the rational roots of the
        # matching resolvent
        assert set(rational_roots(f1)) == {c1 for _, c1, _ in found}
        assert set(rational_roots(f0)) == {c0 for c0, _, _ in found}

    _run(5, "cyclic worked example with all three witnesses", 1.0, body)


def test_criterion_06_one_param_family_list():
    def body():
        for a_par, b_par in ((-7, -189), (-9, -27), (-6, 54)):
            a = CubicTriple(0, a_par, -a_par)
            b = CubicTriple(0, b_par, -b_par)
            equal, witness = decide_same_splitting(a, b)
            assert equal and verify_transformation(a, b, witness)

    _run(6, "same-splitting-field family pairs decided with witnesses",
         1.0, body)


_TABLE_INSTANCES = (
    ("S3", "S3", "TrivialMeet", (6,), (
        ((0, 3, -2), (0, -1, 1)),
        ((0, 3, -2), (0, 0, 2)),
        ((0, 0, 2), (0, -1, 1)),
    )),
    ("S3", "S3", "QuadraticMeet", (3, 3), (
        ((0, 0, 2), (0, 0, 3)),
        ((0, 0, 2), (0, 0, 5)),
        ((0, 0, 3), (0, 0, 5)),
    )),
    ("S3", "S3", "Equal", (1, 2, 3), (
        ((0, -1, -1), (2, 3, 1)),
        ((0, -1, -1), (5, 10, 1)),
        ((1, 1, 2), (0, -7, 10)),
    )),
    ("S3", "C3", "TrivialMeet", (6,), (
        ((0, 0, 2), (0, -3, 1)),
        ((0, 3, -2), (0, -3, 1)),
        ((0, 3, -2), (1, -4, 1)),
    )),
    ("S3", "C2", "NotContains", (6,), (
        ((0, 0, 2), (0, -2, 0)),
        ((0, 0, 2), (1, 1, 1)),
        ((0, 3, -2), (0, -2, 0)),
    )),
    ("S3", "C2", "ContainsQuadratic", (3, 3), (
        ((0, 0, 2), (1, 3, 3)),
        ((0, 0, 3), (1, 3, 3)),
        ((0, 0, 5), (1, 3, 3)),
    )),
    ("S3", "Id", "ProperContains", (6,), (
        ((0, 0, 2), (6, 11, 6)),
        ((0, 3, -2), (6, 11, 6)),
        ((0, 0, 3), (0, -1, 0)),
    )),
    ("C3", "C3", "TrivialMeet", (3, 3), (
        ((0, -3, 1), (1, -4, 1)),
        ((0, -3, 1), (2, -5, 1)),
        ((1, -4, 1), (2, -5, 1)),
    )),
    ("C3", "C3", "Equal", (1, 1, 1, 3), (
        ((-1, -2, 1), (5, -8, 1)),
        ((1, -4, 1), (66, -69, 1)),
        ((2, -5, 1), (2389, -2392, 1)),
    )),
    ("C3", "C2", "TrivialMeet", (6,), (
        ((0, -3, 1), (1, 3, 3)),
        ((1, -4, 1), (1, 1, 1)),
        ((2, -5, 1), (2, 4, 8)),
    )),
    ("C3", "Id", "ProperContains", (3, 3), (
        ((0, -3, 1), (6, 11, 6)),
        ((1, -4, 1), (0, -1, 0)),
        ((5, -8, 1), (6, 11, 6)),
    )),
)


def test_criterion_07_subfield_table_conformance():
    def body():
        rows_seen = set()
        for g_a, g_b, relation, pattern, instances in _TABLE_INSTANCES:
            assert len(instances) >= 3
            for a_vals, b_vals in instances:
                report = classify_subfield(
                    CubicTriple(*a_vals), CubicTriple(*b_vals)
                )
                assert (report.g_a.tag, report.g_b.tag) == (g_a, g_b)
                assert report.relation == relation
                assert not report.degenerate
                assert report.predicted_pattern == pattern
                assert report.observed_pattern == pattern
            rows_seen.add((g_a, g_b, relation))
        assert len(rows_seen) == 11

    _run(7, "all 11 subfield table rows, 3 instances each", 30.0, body)


_SCAN_PAIRS = ((-1, 5), (-1, 12), (-1, 1259), (0, 3), (0, 54), (1, 66),
               (2, 2389), (3, 54), (5, 12), (5, 1259), (12, 1259))
_SCAN_CLASSES = ((-1, 5, 12, 1259), (0, 3, 54), (1, 66), (2, 2389))


def test_criterion_08_integer_scan():
    def body():
        t0 = time.perf_counter()
        single = scan_equal_splitting((-1, 12), 2500)
        single_elapsed = time.perf_counter() - t0
        assert single.pairs == _SCAN_PAIRS
        assert single.classes == _SCAN_CLASSES
        assert single_elapsed < 300

        t0 = time.perf_counter()
        parallel = scan_equal_splitting((-1, 12), 2500, jobs=8)
        parallel_elapsed = time.perf_counter() - t0
        assert parallel == single
        assert parallel_elapsed < 60

    _run(8, "integer scan m in [-1,12], n <= 2500 matches the known "
            "pair list", 360.0, body)


def test_criterion_09_generic_sextics():
    def body():
        def sample(rng):
            while True:
                s = Fraction(rng.randint(-12, 12), rng.randint(1, 3))
                t = Fraction(rng.randint(-12, 12), rng.randint(1, 3))
                if s and t and 4 * s + 27 != 0:
                    return s, t

        def scaled(f2):
            return f2.compose(UniPoly(QQ, (0, 3))) / QQ(3**6)

        recipes = (
            ("S3,S3", lambda s, t: scaled(resolvent_F2(
                CubicTriple(0, s, -s), CubicTriple(0, t, -t))), True),
            ("S3,C3", lambda s, t: resolvent_F2(
                CubicTriple(0, s, -s), CubicTriple(t, -t - 3, 1)), True),
            ("S3,C2", lambda s, t: scaled(resolvent_F2(
                CubicTriple(0, s, -s), CubicTriple(0, -t, 0))), True),
            ("S3,Id", lambda s, t: scaled(resolvent_F2(
                CubicTriple(0, s, -s), CubicTriple(0, -1, 0))), False),
            ("C3,C2", lambda s, t: resolvent_F2(
                CubicTriple(s, -s - 3, 1), CubicTriple(0, -t, 0)), True),
        )
        for idx, (pair, build, two_params) in enumerate(recipes):
            rng = random.Random(900 + idx)
            for _ in range(30):
                s, t = sample(rng)
                args = (s, t) if two_params else (s,)
                assert sextic_generic(pair, *args) == build(s, t)

        rng = random.Random(909)
        done = 0
        while done < 25:
            a = Fraction(rng.randint(-20, 20))
            b = Fraction(rng.randint(-20, 20))
            if a == b or a * b == 0 or (4 * a + 27) * (4 * b + 27) == 0:
                continue
            assert poly_discriminant(resolvent_H(a, b)) == (
                a**10 * b**4 * (4 * a + 27) ** 15 * (4 * b + 27) ** 3
            )
            done += 1

    _run(9, "five generic sextic families at 30 points each plus the "
            "sextic discriminant at 25 points", 10.0, body)


def test_criterion_10_char3_suite():
    def body():
        K = gf_build(3, 3, 0)
        elements = list(K.elements())
        rng = random.Random(1000)

        def split_tuple():
            while True:
                xs = tuple(rng.sample(elements, 3))
                ys = tuple(rng.sample(elements, 3))
                if sum(xs, K.zero) != K.zero and sum(ys, K.zero) != K.zero:
                    return xs, ys

        for _ in range(25):
            xs, ys = split_tuple()
            s = CubicTriple.from_roots(xs)
            t = CubicTriple.from_roots(ys)
            rt = RootTuple(xs=xs, ys=ys)
            assert resolvent_F2_char3(s, t) == oracle_resolvent(rt, 2)

        for _ in range(25):
            s_par = rng.choice(elements[1:])
            t_par = rng.choice(elements[1:])
            g0 = resolvent_G0_char3(s_par, t_par)
            assert poly_discriminant(g0) == t_par**15 / s_par**3

    _run(10, "characteristic-3 resolvent vs oracle over GF(27) plus its "
             "discriminant law", 10.0, body)


def test_criterion_11_factorizer_soundness():
    def body():
        rng = random.Random(1100)
        primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                  59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109)

        def to_fp(poly, field):
            return UniPoly(
                field,
                [field(c.numerator) / field(c.denominator)
                 for c in poly.coeffs],
            )

        for _ in range(200):
            degree = rng.randint(1, 6)
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                      for _ in range(degree)]
            coeffs.append(Fraction(rng.randint(1, 9)))
            f = UniPoly(QQ, coeffs)
            fac = factor_over_Q(f)
            assert fac.expand() == f

            radical = UniPoly.one(QQ)
            for g, _ in fac.factors:
                radical = radical * g
            if radical.degree == 0:
                continue
            denominators = {c.denominator for c in radical.coeffs}
            good = []
            for p in primes:
                if any(d % p == 0 for d in denominators):
                    continue
                field = PrimeField(p)
                rp = to_fp(radical, field)
                if rp.degree != radical.degree:
                    continue
                if poly_gcd(rp, rp.derivative()).degree != 0:
                    continue
                good.append((field, rp))
                if len(good) == 3:
                    break
            assert len(good) == 3, "ran out of candidate primes"
            for field, rp in good:
                direct = factor_over_Fp(rp).degree_pattern()
                refined = []
                for g, _ in fac.factors:
                    refined.extend(
                        factor_over_Fp(to_fp(g, field)).degree_pattern()
                    )
                assert tuple(sorted(refined)) == direct

    _run(11, "200 factorizations re-expand exactly with mod-p degree "
             "refinement at 3 good primes", 30.0, body)
