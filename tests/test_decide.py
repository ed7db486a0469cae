"""Decision procedures: Galois types, same-splitting-field tests with
verified witnesses, coefficient recovery, the multiple-root branch, and the
subfield classification table."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tschirn.decide as decide_mod
import tschirn.factorq as factorq_mod
import tschirn.resolvent as resolvent_mod
import tschirn.zpoly as zpoly_mod
from tschirn.decide import (
    FACTOR_PATTERNS,
    TABLE_INSTANCES,
    GaloisType,
    SubfieldReport,
    TschirnCoeffs,
    all_rational_transformations,
    classify_subfield,
    compose_transformations,
    decide_same_splitting,
    galois_type,
    invert_transformation,
    recover_coeffs,
    verify_transformation,
)
from tschirn.factorq import factor_over_Q, is_square_rat, rational_roots
from tschirn.families import family_c3, family_s3
from tschirn.fields import QQ, MathDomainError
from tschirn.poly import UniPoly
from tschirn.resolvent import (
    CubicTriple,
    cubic_invariants,
    degeneracy_indicator,
    degenerate_f2_blocks,
    resolvent_F0_degenerate,
    resolvent_F1,
    resolvent_F2,
    shanks_triple,
    tschirn_image,
)

PAIR_DEGEN = (CubicTriple(0, 3, -2), CubicTriple(3, -3, 3))
PAIR_CYCLIC = (CubicTriple(-3, -4, -1), CubicTriple(-1, -2, 1))

small_int = st.integers(min_value=-6, max_value=6)


def random_irreducible(rng, bound=6):
    while True:
        a = CubicTriple(*(Fraction(rng.randint(-bound, bound)) for _ in range(3)))
        if cubic_invariants(a).D and not rational_roots(a.poly()):
            return a


def random_equal_pair(rng):
    """(a, b, coeffs) with b the image of a under a random transformation."""
    a = random_irreducible(rng)
    while True:
        c = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
        if c[1] or c[2]:
            return a, tschirn_image(a, c), c


class TestGaloisType:
    def test_known_types(self):
        assert galois_type(CubicTriple(0, 3, -2)).tag == "S3"
        assert galois_type(CubicTriple(-1, -2, 1)).tag == "C3"
        assert galois_type(CubicTriple(6, 11, 6)).tag == "Id"
        assert galois_type(CubicTriple(1, 3, 3)).tag == "C2"

    def test_orders(self):
        assert [GaloisType(t).order for t in ("S3", "C3", "C2", "Id")] == [6, 3, 2, 1]
        with pytest.raises(ValueError):
            GaloisType("D4")

    def test_inseparable_rejected(self):
        with pytest.raises(MathDomainError):
            galois_type(CubicTriple.from_roots((1, 1, 2)))

    @given(small_int, small_int, small_int)
    @settings(max_examples=30)
    def test_split_cubics_are_trivial(self, x, y, z):
        if len({x, y, z}) < 3:
            return
        assert galois_type(CubicTriple.from_roots((x, y, z))).tag == "Id"

    def test_c3_has_square_discriminant(self):
        for m in (0, 1, 2, 5):
            g = galois_type(shanks_triple(m))
            assert g.tag == "C3"


class TestVerifyTransformation:
    def test_known_witnesses(self):
        a, b = PAIR_DEGEN
        assert verify_transformation(a, b, (3, -1, 1))
        assert not verify_transformation(a, b, (3, -1, 2))
        a2, b2 = PAIR_CYCLIC
        assert verify_transformation(a2, b2, (4, -7, -2))
        assert verify_transformation(a2, b2, TschirnCoeffs(-3, 3, 1))

    def test_identity(self):
        a = CubicTriple(1, -4, 2)
        assert verify_transformation(a, a, (0, 1, 0))

    def test_compose_and_invert(self):
        rng = random.Random(7)
        for _ in range(5):
            a, b, c = random_equal_pair(rng)
            inv = invert_transformation(a, c)
            assert verify_transformation(b, a, inv)
            round_trip = compose_transformations(a, c, inv)
            assert round_trip.as_tuple() == (0, 1, 0)

    def test_invert_rejects_constant(self):
        a = CubicTriple(0, 3, -2)
        with pytest.raises(MathDomainError):
            invert_transformation(a, (5, 0, 0))


class TestRecoverCoeffs:
    def test_known_degenerate_pair(self):
        a, b = PAIR_DEGEN
        w = recover_coeffs(a, b, Fraction(1))
        assert w.as_tuple() == (3, -1, 1)

    def test_known_cyclic_pair(self):
        a, b = PAIR_CYCLIC
        w = recover_coeffs(a, b, Fraction(-2))
        assert w.as_tuple() == (4, -7, -2)

    def test_identity_recovery(self):
        a = CubicTriple(2, -3, 5)
        assert recover_coeffs(a, a, Fraction(0)).as_tuple() == (0, 1, 0)

    def test_non_root_rejected(self):
        a, b = PAIR_DEGEN
        with pytest.raises(ValueError):
            recover_coeffs(a, b, Fraction(17))

    def test_multiple_root_rejected(self):
        a, b = PAIR_DEGEN
        with pytest.raises(MathDomainError):
            recover_coeffs(a, b, Fraction(-1, 2))

    def test_recovery_on_random_equal_pairs(self):
        rng = random.Random(11)
        for _ in range(6):
            a, b, _ = random_equal_pair(rng)
            if not degeneracy_indicator(a, b):
                continue
            for c2 in rational_roots(resolvent_F2(a, b)):
                w = recover_coeffs(a, b, c2)
                assert verify_transformation(a, b, w)


class TestDegenerateFactorization:
    """The closed-form blocks of F2 on the multiple-root locus."""

    def test_known_simple_roots(self):
        for (a, b), root in ((PAIR_DEGEN, 1), (PAIR_CYCLIC, -2)):
            _, simple, _ = degenerate_f2_blocks(a, b)
            assert simple == UniPoly(QQ, (-root, 1))

    def test_simple_root_formula(self):
        a, b = PAIR_DEGEN
        ja, jb = cubic_invariants(a), cubic_invariants(b)
        double, simple, cubic = degenerate_f2_blocks(a, b)
        assert -simple.coeffs[0] == -6 * jb.A**2 / (ja.A * jb.B)
        assert double.degree == 1 and simple.degree == 1 and cubic.degree == 3

    def test_nondegenerate_pair_rejected(self):
        with pytest.raises(MathDomainError):
            degenerate_f2_blocks(CubicTriple(0, 3, -2), CubicTriple(0, -1, 1))


class TestDecideSameSplitting:
    def test_one_parameter_family_pair(self):
        eq, w = decide_same_splitting(
            CubicTriple(0, -7, 7), CubicTriple(0, -189, 189)
        )
        assert eq and verify_transformation(
            CubicTriple(0, -7, 7), CubicTriple(0, -189, 189), w
        )

    def test_self_pair(self):
        a = CubicTriple(0, -1, -1)
        eq, w = decide_same_splitting(a, a)
        assert eq and w.as_tuple() == (0, 1, 0)

    def test_cyclic_family_pair(self):
        eq, w = decide_same_splitting(shanks_triple(1), shanks_triple(66))
        assert eq and verify_transformation(shanks_triple(1), shanks_triple(66), w)

    def test_unrelated_pair(self):
        assert decide_same_splitting(
            CubicTriple(0, 3, -2), CubicTriple(0, -1, 1)
        ) == (False, None)

    def test_degenerate_pairs_equal(self):
        for a, b in (PAIR_DEGEN, PAIR_CYCLIC):
            eq, w = decide_same_splitting(a, b)
            assert eq and verify_transformation(a, b, w)

    def test_pure_cube_pairs(self):
        eq, w = decide_same_splitting(CubicTriple(0, 0, 2), CubicTriple(0, 0, 16))
        assert eq and verify_transformation(
            CubicTriple(0, 0, 2), CubicTriple(0, 0, 16), w
        )
        assert decide_same_splitting(
            CubicTriple(0, 0, 2), CubicTriple(0, 0, 3)
        ) == (False, None)

    def test_constructed_equal_pairs(self):
        rng = random.Random(13)
        for _ in range(8):
            a, b, _ = random_equal_pair(rng)
            eq, w = decide_same_splitting(a, b)
            assert eq, (a, b)
            assert verify_transformation(a, b, w)

    def test_symmetry(self):
        rng = random.Random(17)
        for _ in range(6):
            a, b, _ = random_equal_pair(rng)
            assert decide_same_splitting(b, a)[0]
        pairs = [
            (CubicTriple(0, 3, -2), CubicTriple(0, -1, 1)),
            (CubicTriple(0, 0, 2), CubicTriple(0, 0, 3)),
            (shanks_triple(0), shanks_triple(1)),
        ]
        for a, b in pairs:
            assert decide_same_splitting(a, b)[0] == decide_same_splitting(b, a)[0]

    def test_split_cubics(self):
        a = CubicTriple.from_roots((1, 2, 4))
        b = CubicTriple.from_roots((-3, 0, 5))
        eq, w = decide_same_splitting(a, b)
        assert eq and verify_transformation(a, b, w)

    def test_quadratic_pairs(self):
        gauss_a = CubicTriple(1, 1, 1)    # (X-1)(X^2+1)
        gauss_b = CubicTriple(2, 4, 8)    # (X-2)(X^2+4)
        eq, w = decide_same_splitting(gauss_a, gauss_b)
        assert eq and verify_transformation(gauss_a, gauss_b, w)
        other = CubicTriple(1, 2, 2)          # (X-1)(X^2+2)
        assert decide_same_splitting(gauss_a, other) == (False, None)

    def test_mixed_reducibility_never_equal(self):
        assert decide_same_splitting(
            CubicTriple(0, 3, -2), CubicTriple.from_roots((0, 1, 2))
        ) == (False, None)
        assert decide_same_splitting(
            CubicTriple.from_roots((0, 1, 2)), CubicTriple(1, 1, 1)
        ) == (False, None)

    def test_inseparable_rejected(self):
        with pytest.raises(MathDomainError):
            decide_same_splitting(
                CubicTriple.from_roots((1, 1, 2)), CubicTriple(0, 3, -2)
            )


class TestAllRationalTransformations:
    def test_cyclic_degenerate_pair_has_three(self):
        ws = all_rational_transformations(*PAIR_CYCLIC)
        assert tuple(w.as_tuple() for w in ws) == (
            (-3, 3, 1),
            (-2, 4, 1),
            (4, -7, -2),
        )

    def test_s3_degenerate_pair_has_one(self):
        ws = all_rational_transformations(*PAIR_DEGEN)
        assert tuple(w.as_tuple() for w in ws) == ((3, -1, 1),)

    def test_counts_match_galois_type(self):
        rng = random.Random(19)
        for _ in range(6):
            a, b, _ = random_equal_pair(rng)
            ws = all_rational_transformations(a, b)
            expected = 3 if galois_type(a).tag == "C3" else 1
            assert len(ws) == expected, (a, b)
            for w in ws:
                assert verify_transformation(a, b, w)

    @pytest.mark.parametrize(
        "pair, expected",
        [(((0, -1, -1), (2, 3, 1)), ((0, 1, 1),)),  # generic S3, off the locus
         (((-3, -4, -1), (-1, -2, 1)),  # PAIR_CYCLIC, on the locus
          ((-3, 3, 1), (-2, 4, 1), (4, -7, -2)))],
    )
    def test_no_root_search_above_degree_three(self, monkeypatch, pair, expected):
        a, b = CubicTriple(*pair[0]), CubicTriple(*pair[1])
        calls = _counting(
            monkeypatch, [factorq_mod, decide_mod, resolvent_mod], "rational_roots"
        )
        ws = all_rational_transformations(a, b)
        assert tuple(w.as_tuple() for w in ws) == expected
        assert calls and max(f.degree for f, in calls) <= 3

    def test_unequal_pair_empty(self):
        assert all_rational_transformations(
            CubicTriple(0, 3, -2), CubicTriple(0, -1, 1)
        ) == ()

    def test_reducible_rejected(self):
        with pytest.raises(MathDomainError):
            all_rational_transformations(
                CubicTriple.from_roots((0, 1, 2)), CubicTriple(0, 3, -2)
            )


def _locus_pairs(count):
    """Seeded irreducible pairs on the multiple-root locus: with
    k = -A_a^3 / D_a, b = X^3 + kX + k satisfies A_a^3 B_b^2 = 27 A_b^3 D_a."""
    rng = random.Random(29)
    pairs = []
    while len(pairs) < count:
        a = random_irreducible(rng)
        ja = cubic_invariants(a)
        if not (ja.A and ja.B):
            continue
        k = -ja.A**3 / ja.D
        b = CubicTriple(0, k, -k)
        jb = cubic_invariants(b)
        if jb.D and jb.A * jb.B and not rational_roots(b.poly()):
            pairs.append((a, b))
    return pairs


class TestMultipleRootLocus:
    def test_consumers_agree(self):
        """Every witness lies on F0, F1 and F2, and the decision picks one."""
        for a, b in _locus_pairs(15) + [PAIR_CYCLIC]:
            assert degeneracy_indicator(a, b) == 0
            ws = all_rational_transformations(a, b)
            f0 = resolvent_F0_degenerate(a, b)
            f1, f2 = resolvent_F1(a, b), resolvent_F2(a, b)
            for w in ws:
                assert f0.eval(w.c0) == f1.eval(w.c1) == f2.eval(w.c2) == 0
            equal, witness = decide_same_splitting(a, b)
            assert equal and witness in ws


irreducible_cubics = (
    st.tuples(small_int, small_int, small_int)
    .map(lambda v: CubicTriple(*(Fraction(x) for x in v)))
    .filter(lambda a: cubic_invariants(a).D and not rational_roots(a.poly()))
)


class TestMetamorphic:
    """Invariances of the decision over small irreducible cubics."""

    @given(irreducible_cubics, irreducible_cubics)
    @settings(max_examples=40, deadline=None)
    def test_symmetric(self, a, b):
        assert decide_same_splitting(a, b)[0] == decide_same_splitting(b, a)[0]

    @given(irreducible_cubics, irreducible_cubics,
           st.tuples(small_int, small_int, small_int))
    @settings(max_examples=40, deadline=None)
    def test_separable_image_keeps_the_field(self, a, b, u):
        image = tschirn_image(a, u)
        assume(cubic_invariants(image).D)
        equal, w = decide_same_splitting(a, image)
        assert equal and verify_transformation(a, image, w)
        assert decide_same_splitting(image, b)[0] == decide_same_splitting(a, b)[0]

    @given(st.integers(min_value=-30, max_value=30),
           st.fractions(min_value=-9, max_value=9, max_denominator=4))
    @settings(max_examples=40, deadline=None)
    def test_family_s3_partners_are_equal(self, s, u):
        a = CubicTriple(0, s, -s)
        assume(cubic_invariants(a).D and not rational_roots(a.poly()))
        try:
            t = family_s3(s, u)
        except MathDomainError:
            assume(False)
        b = CubicTriple(0, t, -t)
        assume(cubic_invariants(b).D)
        equal, w = decide_same_splitting(a, b)
        assert equal and verify_transformation(a, b, w)

    @given(st.integers(min_value=-6, max_value=8),
           st.fractions(min_value=-5, max_value=5, max_denominator=3))
    @settings(max_examples=40, deadline=None)
    def test_family_c3_partners_are_equal(self, m, z):
        try:
            partners = family_c3(m, z)
        except MathDomainError:
            assume(False)
        a = shanks_triple(m)
        for n in partners:
            b = shanks_triple(n)
            if rational_roots(b.poly()):
                continue
            equal, w = decide_same_splitting(a, b)
            assert equal and verify_transformation(a, b, w)
            # a cyclic field has three automorphisms
            assert len(all_rational_transformations(a, b)) == 3

    @pytest.mark.parametrize("a, b, on_locus, count", [
        (shanks_triple(-1), shanks_triple(Fraction(-55, 13)), False, 3),
        (shanks_triple(-1), shanks_triple(Fraction(16, 13)), False, 3),
        (shanks_triple(-1), shanks_triple(12), True, 3),
        (CubicTriple(0, -1, -1),
         tschirn_image(CubicTriple(0, -1, -1), (1, 2, 1)), False, 1),
    ])
    def test_transformation_count_on_and_off_the_locus(self, a, b, on_locus,
                                                       count):
        # S3 on the locus: see test_s3_degenerate_pair_has_one
        assert (degeneracy_indicator(a, b) == 0) == on_locus
        assert galois_type(a).tag == ("C3" if count == 3 else "S3")
        ws = all_rational_transformations(a, b)
        assert len(ws) == count
        assert all(verify_transformation(a, b, w) for w in ws)

    @given(irreducible_cubics, st.tuples(small_int, small_int, small_int))
    @settings(max_examples=40, deadline=None)
    def test_transformation_count_matches_galois_type(self, a, u):
        image = tschirn_image(a, u)
        assume(cubic_invariants(image).D)
        count = {"C3": 3, "S3": 1}[galois_type(a).tag]
        assert len(all_rational_transformations(a, image)) == count


class TestClassifySubfield:
    def test_equal_s3_pair(self):
        a = CubicTriple(0, -1, -1)
        b = tschirn_image(a, (1, 2, 1))
        r = classify_subfield(a, b)
        assert (r.g_a.tag, r.g_b.tag, r.relation) == ("S3", "S3", "Equal")
        if not r.degenerate:
            assert r.predicted_pattern == (1, 2, 3)
            assert r.observed_pattern == (1, 2, 3)
        assert verify_transformation(a, b, r.witness)

    def test_cyclic_equal_rows(self):
        r = classify_subfield(shanks_triple(0), shanks_triple(3))
        assert (r.relation, r.degenerate) == ("Equal", True)
        assert r.predicted_pattern is None
        assert r.observed_pattern == (1, 1, 1, 3)
        r2 = classify_subfield(shanks_triple(-1), shanks_triple(5))
        assert (r2.relation, r2.degenerate) == ("Equal", False)
        assert r2.predicted_pattern == (1, 1, 1, 3) == r2.observed_pattern

    def test_contains_quadratic_row(self):
        r = classify_subfield(CubicTriple(0, 0, 2), CubicTriple(1, 3, 3))
        assert (r.g_a.tag, r.g_b.tag) == ("S3", "C2")
        assert r.relation == "ContainsQuadratic"
        assert r.predicted_pattern == (3, 3) == r.observed_pattern
        assert r.normalized_a and not r.swapped

    def test_swap_is_reported(self):
        r = classify_subfield(CubicTriple(1, 3, 3), CubicTriple(0, 0, 2))
        assert r.swapped
        assert (r.g_a.tag, r.g_b.tag) == ("S3", "C2")
        assert r.observed_pattern == (3, 3)

    def test_all_eleven_rows_once(self):
        cases = [
            (CubicTriple(0, 3, -2), CubicTriple(0, -1, 1),
             ("S3", "S3", "TrivialMeet"), (6,)),
            (CubicTriple(0, 0, 2), CubicTriple(0, 0, 3),
             ("S3", "S3", "QuadraticMeet"), (3, 3)),
            (CubicTriple(0, -1, -1), tschirn_image(CubicTriple(0, -1, -1), (0, 1, 1)),
             ("S3", "S3", "Equal"), (1, 2, 3)),
            (CubicTriple(0, 3, -2), shanks_triple(0),
             ("S3", "C3", "TrivialMeet"), (6,)),
            (CubicTriple(0, 0, 2), CubicTriple(0, -2, 0),
             ("S3", "C2", "NotContains"), (6,)),
            (CubicTriple(0, 0, 2), CubicTriple(1, 3, 3),
             ("S3", "C2", "ContainsQuadratic"), (3, 3)),
            (CubicTriple(0, 3, -2), CubicTriple(6, 11, 6),
             ("S3", "Id", "ProperContains"), (6,)),
            (shanks_triple(0), shanks_triple(1),
             ("C3", "C3", "TrivialMeet"), (3, 3)),
            (shanks_triple(-1), shanks_triple(5),
             ("C3", "C3", "Equal"), (1, 1, 1, 3)),
            (shanks_triple(0), CubicTriple(1, 3, 3),
             ("C3", "C2", "TrivialMeet"), (6,)),
            (shanks_triple(0), CubicTriple(6, 11, 6),
             ("C3", "Id", "ProperContains"), (3, 3)),
        ]
        seen = set()
        for a, b, key, pattern in cases:
            r = classify_subfield(a, b)
            assert (r.g_a.tag, r.g_b.tag, r.relation) == key
            assert not r.degenerate
            assert r.predicted_pattern == pattern == r.observed_pattern
            assert FACTOR_PATTERNS[key] == pattern
            seen.add(key)
        assert len(seen) == len(FACTOR_PATTERNS) == 11

    def test_degenerate_reports_observation_only(self):
        r = classify_subfield(*PAIR_DEGEN)
        assert r.degenerate and r.predicted_pattern is None
        assert r.observed_pattern == (1, 1, 1, 3)
        assert r.relation == "Equal"
        assert verify_transformation(*PAIR_DEGEN, r.witness)

    def test_both_reducible_rejected(self):
        with pytest.raises(MathDomainError):
            classify_subfield(CubicTriple(1, 1, 1), CubicTriple(6, 11, 6))

    def test_inseparable_rejected(self):
        with pytest.raises(MathDomainError):
            classify_subfield(CubicTriple.from_roots((2, 2, 3)), CubicTriple(1, 3, 3))

    def test_report_serialization(self):
        r = classify_subfield(CubicTriple(0, 0, 2), CubicTriple(1, 3, 3))
        d = r.to_dict()
        assert d["relation"] == "ContainsQuadratic"
        assert d["predicted_pattern"] == [3, 3]
        assert d["witness"] is None
        assert d["normalized_a"] is True

    def test_random_equal_pairs_match_table(self):
        rng = random.Random(23)
        hits = 0
        while hits < 6:
            a, b, _ = random_equal_pair(rng)
            r = classify_subfield(a, b)
            assert r.relation == "Equal"
            if r.degenerate:
                continue
            expected = (1, 2, 3) if r.g_a.tag == "S3" else (1, 1, 1, 3)
            assert r.predicted_pattern == expected == r.observed_pattern
            hits += 1


def _counting(monkeypatch, targets, attr, counts_call=lambda *a: True):
    """Replace ``attr`` in every module of ``targets`` by one wrapper that
    counts the calls for which ``counts_call(*args)`` holds."""
    original = getattr(targets[0], attr)
    calls = []

    def wrapper(*args, **kwargs):
        if counts_call(*args):
            calls.append(args)
        return original(*args, **kwargs)

    for module in targets:
        monkeypatch.setattr(module, attr, wrapper)
    return calls


#: An S3 and a C3 pair on the multiple-root locus (b an affine image of
#: X^3 + kX + k with k = -A_a^3 / D_a; the C3 cubic a is Shanks' m = 1).
LOCUS_PAIRS = [((0, -1, -1), (3, Fraction(177, 23), Fraction(-85, 23))),
               ((1, -4, 1), (3, -49, 53))]


class TestComputedOnce:
    """Each derived fact of a decision is computed once."""

    @pytest.mark.parametrize(
        "pair",
        [((0, 3, -2), (0, -1, 1)),   # generic S3 pairs with A != 0: unequal
         ((0, -1, -1), (2, 3, 1))],  # and equal
    )
    def test_invariants_once_per_triple(self, monkeypatch, pair):
        a, b = CubicTriple(*pair[0]), CubicTriple(*pair[1])
        assert cubic_invariants(a).A and cubic_invariants(b).A
        assert degeneracy_indicator(a, b)
        # fresh triples: the checks above filled the caches of the first ones
        a, b = CubicTriple(*pair[0]), CubicTriple(*pair[1])
        # over Q the cross-check of D is the integer discriminant of the
        # integer model; the resultant route is for F_p and GF(p^k) only
        calls = _counting(monkeypatch, [zpoly_mod], "discriminant")
        resultant = _counting(monkeypatch, [resolvent_mod], "poly_discriminant")
        decide_same_splitting(a, b)
        assert len(calls) == 2 and not resultant

    def test_classify_factors_f2_once(self, monkeypatch):
        a, b = (CubicTriple(*v) for v in TABLE_INSTANCES[("S3", "S3", "Equal")])
        calls = _counting(monkeypatch, [factorq_mod, decide_mod], "factor_over_Q")
        report = classify_subfield(a, b)
        assert report.relation == "Equal" and report.observed_pattern == (1, 2, 3)
        assert len(calls) <= 3

    @pytest.mark.parametrize(
        "pair",
        [((1, 3, 3), (0, 3, 0)),     # reducible: both C2
         ((0, 3, -2), (3, -3, 3))],  # irreducible, on the locus
    )
    def test_no_factoring_off_the_generic_branch(self, monkeypatch, pair):
        a, b = CubicTriple(*pair[0]), CubicTriple(*pair[1])
        calls = _counting(monkeypatch, [factorq_mod, decide_mod], "factor_over_Q")
        eq, w = decide_same_splitting(a, b)
        assert eq and verify_transformation(a, b, w)
        assert not calls

    @pytest.mark.parametrize(
        "pair",
        [TABLE_INSTANCES[("S3", "S3", "TrivialMeet")],
         ((0, -3, 1), (0, 3, -2)),   # C3 against S3
         ((0, 0, 2), (0, -1, 1))],   # A = 0: X^3 - 2 against X^3 - X - 1
    )
    def test_no_resolvent_across_square_classes(self, monkeypatch, pair):
        a, b = CubicTriple(*pair[0]), CubicTriple(*pair[1])
        assert is_square_rat(cubic_invariants(a).D * cubic_invariants(b).D) is None
        f2 = _counting(monkeypatch, [resolvent_mod, decide_mod], "resolvent_F2")
        fq = _counting(monkeypatch, [factorq_mod, decide_mod], "factor_over_Q")
        assert decide_same_splitting(a, b) == (False, None)
        assert all_rational_transformations(a, b) == ()
        assert not f2 and not fq

    @pytest.mark.parametrize("pair", LOCUS_PAIRS)
    def test_classify_does_not_factor_on_the_locus(self, monkeypatch, pair):
        a, b = CubicTriple(*pair[0]), CubicTriple(*pair[1])
        calls = _counting(monkeypatch, [factorq_mod, decide_mod], "factor_over_Q")
        report = classify_subfield(a, b)
        assert report.degenerate and report.relation == "Equal"
        assert report.observed_pattern == (1, 1, 1, 3)
        assert not calls

    @pytest.mark.parametrize(
        "pair",
        [((6, 11, 6), (0, -1, 0)),  # Id: roots 1, 2, 3 and -1, 0, 1
         ((1, 3, 3), (0, 3, 0))],   # C2: (X-1)(X^2+3) and X(X^2+3)
    )
    def test_one_root_search_per_reducible_cubic(self, monkeypatch, pair):
        a, b = CubicTriple(*pair[0]), CubicTriple(*pair[1])
        calls = _counting(monkeypatch, [decide_mod], "rational_roots",
                          lambda f: f.degree == 3)
        eq, w = decide_same_splitting(a, b)
        assert eq and verify_transformation(a, b, w)
        assert len(calls) == 2


class TestShortcutsAgainstFactoring:
    """The two facts that let decide and classify skip factoring F2, checked
    against factor_over_Q on seeded pairs."""

    def test_no_rational_f2_root_across_square_classes(self):
        rng = random.Random(31)
        pairs = []
        while len(pairs) < 10:
            a = random_irreducible(rng)
            b = (shanks_triple(rng.randint(-4, 6)) if len(pairs) % 3 == 0
                 else random_irreducible(rng))
            if is_square_rat(cubic_invariants(a).D * cubic_invariants(b).D) is None:
                pairs.append((a, b))
        for a, b in pairs:
            (an, _), (bn, _) = decide_mod._avoid_zero_A(a), decide_mod._avoid_zero_A(b)
            f2 = factor_over_Q(resolvent_F2(an, bn))
            assert all(g.degree > 1 for g, _ in f2), (a, b)
            assert not decide_same_splitting(a, b)[0]

    def test_locus_pattern_matches_factoring(self):
        """Irreducible S3 and C3 cubics a, and reducible ones, which reach
        the closed form's other two cubic-block patterns."""
        rng = random.Random(37)
        kinds = (
            lambda: random_irreducible(rng),
            lambda: tschirn_image(shanks_triple(rng.randint(-3, 8)),
                                  (rng.randint(-2, 2), rng.choice((-2, -1, 1, 2)), 0)),
            lambda: CubicTriple(*(Fraction(rng.randint(-6, 6)) for _ in range(3))),
            lambda: CubicTriple.from_roots(rng.sample(range(-5, 6), 3)),
        )
        seen = set()
        for i in range(60):
            a = kinds[i % 4]()
            ja = cubic_invariants(a)
            if not (ja.A and ja.B and ja.D):
                continue
            k = -ja.A**3 / ja.D
            lam = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
            b = tschirn_image(CubicTriple(0, k, -k), (rng.randint(-3, 3), lam, 0))
            if not cubic_invariants(b).D:
                continue
            assert not degeneracy_indicator(a, b)
            expected = factor_over_Q(resolvent_F2(a, b)).degree_pattern()
            assert decide_mod._degenerate_f2_pattern(a, b) == expected, (a, b)
            if rational_roots(a.poly()):
                seen.add(expected)
            else:
                report = classify_subfield(a, b)
                assert report.degenerate and report.observed_pattern == expected
                seen.add(galois_type(a).tag)
        assert seen == {"S3", "C3", (1, 1, 1, 1, 2), (1,) * 6}


def _sympy_poly(a: CubicTriple):
    x = sympy.Symbol("X")
    coeffs = (1, -a.a1, a.a2, -a.a3)
    return sympy.Poly([sympy.Rational(QQ(c).numerator, QQ(c).denominator)
                       for c in coeffs], x)


def _sympy_same_field(a: CubicTriple, b: CubicTriple) -> bool:
    """For irreducible cubics, equal splitting fields exactly when Q(alpha)
    and Q(beta) are isomorphic.  ``field_isomorphism(x, y)`` asks whether x
    lies in Q(y) inside C, so one root of f_a is tried against every root of
    f_b."""
    fa, fb = _sympy_poly(a), _sympy_poly(b)
    alpha = sympy.CRootOf(fa, 0)
    return any(sympy.field_isomorphism(alpha, sympy.CRootOf(fb, j)) is not None
               for j in range(3))


def _oracle_pairs():
    rng = random.Random(2024)
    pairs = [random_equal_pair(rng)[:2] for _ in range(12)]
    pairs += [(random_irreducible(rng), random_irreducible(rng)) for _ in range(12)]
    # Shanks pairs: equal ones from the classes of the acceptance scan
    for m, n in ((-1, 5), (0, 3), (5, 12), (0, 1), (2, 3), (-1, 0)):
        pairs.append((shanks_triple(m), shanks_triple(n)))
    return pairs


class TestSympyOracle:
    def test_decisions_match_field_isomorphism(self):
        pairs = _oracle_pairs()
        verdicts = [decide_same_splitting(a, b)[0] for a, b in pairs]
        assert verdicts == [_sympy_same_field(a, b) for a, b in pairs]
        # the seeded corpus covers both verdicts and both irreducible types
        assert sum(verdicts) >= 15 and len(verdicts) - sum(verdicts) >= 12

    def test_galois_types_match_galois_group(self):
        tags = {"S3": "S3", "A3": "C3"}
        seen = set()
        for a, b in _oracle_pairs():
            for t in (a, b):
                group = sympy.galois_group(_sympy_poly(t), by_name=True)[0]
                assert galois_type(t).tag == tags[group.name]
                seen.add(group.name)
        assert seen == {"S3", "A3"}
