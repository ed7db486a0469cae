"""Decision procedures: Galois types, same-splitting-field tests with
verified witnesses, coefficient recovery, the multiple-root branch, and the
subfield classification table."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tschirn.decide as decide_mod
import tschirn.factorq as factorq_mod
import tschirn.poly as poly_mod
import tschirn.resolvent as resolvent_mod
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
from tschirn.poly import UniPoly, linear_solve
from tschirn.resolvent import (
    CubicTriple,
    cubic_invariants,
    degeneracy_indicator,
    degenerate_f2_blocks,
    recovery_polys,
    resolvent_F0,
    resolvent_F1,
    resolvent_F2,
    shanks_triple,
    tschirn_image,
    _image_formulas,
    _recovery_at,
    _trace_u0,
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

    def test_closed_forms_match_polynomial_algebra(self):
        # compose and invert on the integer model against v(u) mod f and
        # the linear system on 1, u, u^2 in Q[X]/f, at rational triples
        # with ell > 1 and rational coefficients
        rng = random.Random(23)

        def rat():
            return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**4))

        for _ in range(20):
            a = CubicTriple(rat(), rat(), rat())
            f = a.poly()
            u, v = (tuple(rat() for _ in range(3)) for _ in range(2))
            comp = UniPoly(QQ, v).compose(UniPoly(QQ, u)) % f
            assert compose_transformations(a, u, v).as_tuple() == tuple(
                comp[i] for i in range(3))
            uf = UniPoly(QQ, u) % f
            powers = [UniPoly.one(QQ), uf, uf * uf % f]
            rows = [[powers[j][i] for j in range(3)] for i in range(3)]
            assert invert_transformation(a, u).as_tuple() == linear_solve(
                QQ, rows, (0, 1, 0))

    @staticmethod
    def _image_on_fractions(a, c) -> tuple:
        # no integer model: c reduced mod f3(a) in Q[X], then the triple of
        # multiplication by u on Q[X]/f3(a)
        u = UniPoly(QQ, [QQ(x) for x in c]) % a.poly()
        return _image_formulas(*a.values(), *(u[i] for i in range(3)))

    @staticmethod
    def _rational_pair(rng, length=3):
        """(a, b, c): a with rational coefficients, c a random coefficient
        list and b the image of a under c, computed on Fractions."""
        def rat():
            return Fraction(rng.randint(-10**9, 10**9), rng.randint(2, 10**4))

        a = CubicTriple(rat(), rat(), rat())
        c = tuple(rat() for _ in range(length))
        return a, CubicTriple(*TestVerifyTransformation._image_on_fractions(a, c)), c

    def test_integer_route_matches_fraction_image(self):
        # ell, mu > 1 on both models, and lists longer than 3, which are
        # reduced mod f3(a) first
        rng = random.Random(41)
        scaled = 0
        for n in range(80):
            a, b, c = self._rational_pair(rng, 3 + n % 4)
            scaled += a._model[1] > 1 and b._model[1] > 1
            other = self._rational_pair(rng)[1]
            for t in (b, other, CubicTriple(b.a1, b.a2 + 1, b.a3)):
                expected = self._image_on_fractions(a, c) == t.values()
                assert verify_transformation(a, t, c) is expected
            assert verify_transformation(a, b, c)
        assert scaled >= 75

    def test_rejects_one_coefficient_perturbations(self):
        # a wrong power of ell or mu in the integer comparison would accept
        # some of these
        rng = random.Random(43)
        for _ in range(25):
            a, b, c = self._rational_pair(rng)
            assert verify_transformation(a, b, c)
            ell, mu = a._model[1], b._model[1]
            bumps = (lambda x: x + 1, lambda x: x - 1, lambda x: x * ell,
                     lambda x: x / ell, lambda x: x * mu, lambda x: x / mu,
                     lambda x: -x)
            for j in range(3):
                for bump in bumps:
                    if bump(c[j]) != c[j]:
                        w = c[:j] + (bump(c[j]),) + c[j + 1:]
                        assert not verify_transformation(a, b, w)
                    vals = list(b.values())
                    if bump(vals[j]) != vals[j]:
                        vals[j] = bump(vals[j])
                        assert not verify_transformation(a, CubicTriple(*vals), c)


class TestRecoverCoeffs:
    def test_integer_recovery_matches_recovery_polys(self):
        # _recovery_at on the integer models against Q12(c2)/D12(c2) and the
        # trace condition on Fractions, at any c2: rational triples with
        # ell > 1 and heights of 20 digits and more.  It takes c2 as the ints
        # of _model_c2 and gives the witness as ints, (k, m) without a
        # common factor
        rng = random.Random(29)

        def rat(digits):
            return Fraction(rng.randint(-10**digits, 10**digits),
                            rng.randint(2, 10**6))

        for digits in (3, 20, 24, 30):
            for _ in range(15):
                s, t = (CubicTriple(*(rat(digits) for _ in range(3)))
                        for _ in range(2))
                assert s._model[1] > 1 and t._model[1] > 1
                c2 = rat(digits)
                q12, d12 = recovery_polys(s, t)
                c1 = q12.eval(c2) / d12.eval(c2)
                k, m = _recovery_at(s, t, *decide_mod._model_c2(s, t, c2))
                assert math.gcd(*k, m) == 1
                assert decide_mod._model_witness(s, k, m).as_tuple() == (
                    _trace_u0(s, t, c1, c2, QQ), c1, c2)

    def test_integer_recover_returns_the_transformation(self):
        # b the image of a rational a under u with 20-digit coefficients:
        # the witness recovered at c2 = u2 is u, as recovery_polys gives it
        rng = random.Random(31)
        for _ in range(6):
            base = random_irreducible(rng)
            a = tschirn_image(base, (Fraction(rng.randint(1, 6), 7), 1, 0))
            u = tuple(Fraction(rng.randint(-10**20, 10**20), rng.randint(1, 10**3))
                      for _ in range(3))
            b = tschirn_image(a, u)
            assert a._model[1] > 1 and degeneracy_indicator(a, b)
            q12, d12 = recovery_polys(a, b)
            c1 = q12.eval(u[2]) / d12.eval(u[2])
            w = decide_mod._recover(a, b, *decide_mod._model_c2(a, b, u[2]))
            assert w.as_tuple() == (_trace_u0(a, b, c1, u[2], QQ), c1, u[2]) == u

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


class TestOneVerificationPerWitness:
    """With no A = 0 hop, the walk checks the witness it builds as ints on
    the models once (_model_maps), and _stitch passes it on, so
    decide_same_splitting verifies it exactly once."""

    @pytest.mark.parametrize(
        "a, b",
        [TABLE_INSTANCES[("S3", "S3", "Equal")], ((0, 3, -2), (3, -3, 3)),
         ((1, 3, 3), (0, 3, 0)), ((6, 11, 6), (0, -1, 0))],
        ids=["generic", "locus", "c2", "split"],
    )
    def test_equal_pair_is_verified_once(self, monkeypatch, a, b):
        a, b = CubicTriple(*a), CubicTriple(*b)
        assert cubic_invariants(a).A and cubic_invariants(b).A
        calls = _counting(monkeypatch, [resolvent_mod, decide_mod], "_model_maps")
        equal, w = decide_same_splitting(a, b)
        assert equal and len(calls) == 1
        assert verify_transformation(a, b, w)

    @pytest.mark.parametrize(
        "a, b, message",
        [((0, 3, -2), (3, -3, 3), "recovered coefficients"),
         ((1, 3, 3), (0, 3, 0), "reducible-pair witness"),
         ((6, 11, 6), (0, -1, 0), "reducible-pair witness"),
         (*TABLE_INSTANCES[("S3", "S3", "Equal")], "recovered coefficients")],
        ids=["locus", "c2", "split", "generic"],
    )
    def test_int_check_can_fail(self, monkeypatch, a, b, message):
        # an image off by one in e3 fails the check on every branch that
        # builds a witness, so the check is not bypassed
        image = resolvent_mod._image_formulas

        def off_by_one(*args):
            e1, e2, e3 = image(*args)
            return e1, e2, e3 + 1

        a, b = CubicTriple(*a), CubicTriple(*b)
        assert decide_same_splitting(a, b)[0]
        monkeypatch.setattr(resolvent_mod, "_image_formulas", off_by_one)
        with pytest.raises(MathDomainError, match=message):
            decide_same_splitting(a, b)


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
        # the resolvent layer searches no roots: F0 reads G and the fibers
        # as blocks
        assert not hasattr(resolvent_mod, "rational_roots")
        calls = _counting(monkeypatch, [factorq_mod, decide_mod], "rational_roots")
        cubic = _counting(monkeypatch, [factorq_mod, decide_mod],
                          "_cubic_integer_roots")
        ws = all_rational_transformations(a, b)
        assert tuple(w.as_tuple() for w in ws) == expected
        # one search per input cubic, on its integer model; F2 is factored
        # or read off the locus, and the fiber is a quadratic
        assert len(cubic) == 2 and all(len(H) == 4 for H, in cubic)
        assert all(f.degree <= 3 for f, in calls)

    def test_unequal_pair_empty(self):
        assert all_rational_transformations(
            CubicTriple(0, 3, -2), CubicTriple(0, -1, 1)
        ) == ()

    def test_reducible_rejected(self):
        with pytest.raises(MathDomainError):
            all_rational_transformations(
                CubicTriple.from_roots((0, 1, 2)), CubicTriple(0, 3, -2)
            )

    def test_inseparable_rejected(self):
        # one separability check, with decide's and classify's message
        with pytest.raises(MathDomainError, match="D_a = 0"):
            all_rational_transformations(
                CubicTriple.from_roots((1, 1, 2)), CubicTriple(0, 3, -2)
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
            f0 = resolvent_F0(a, b)
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


def _branch_pairs():
    """Seeded pairs through every branch of the decision walk."""
    rng = random.Random(41)
    pairs = [((1, 3, 3), (0, 3, 0)), ((1, 3, 3), (0, 1, 0)),  # C2/C2
             ((6, 11, 6), (0, -1, 0)),                        # Id/Id
             ((0, 3, -2), (0, -1, 1)), ((0, -3, 1), (0, 3, -2)),  # two classes
             ((0, 0, 2), (3, -3, 1)), ((3, -3, 1), (0, 0, 2)),  # A = 0 on one side
             ((0, 0, 2), (0, 0, 16)), ((0, 0, 2), (0, 0, 3)),   # and on both
             *LOCUS_PAIRS]
    pairs += [p for pair in TABLE_INSTANCES.values() for p in (pair, pair[::-1])]
    pairs = [tuple(CubicTriple(*t) for t in pair) for pair in pairs]
    pairs += [PAIR_DEGEN, PAIR_CYCLIC]
    pairs += [random_equal_pair(rng)[:2] for _ in range(4)]
    pairs += [(random_irreducible(rng), random_irreducible(rng)) for _ in range(4)]
    return pairs


class TestEntryPointsAgree:
    """decide_same_splitting, classify_subfield and all_rational_transformations
    read one walk, so they agree on every branch of it."""

    @pytest.mark.parametrize("a, b", _branch_pairs())
    def test_verdicts_witnesses_and_hops_agree(self, a, b):
        equal, w = decide_same_splitting(a, b)
        assert not equal or verify_transformation(a, b, w)
        reducible = [bool(rational_roots(t.poly())) for t in (a, b)]
        if all(reducible):
            with pytest.raises(MathDomainError):
                classify_subfield(a, b)
        else:
            report = classify_subfield(a, b)
            assert (report.relation == "Equal") == equal
            # an equal pair has one Galois type, so classify does not swap it
            assert report.witness == w
            # classify hops each irreducible cubic with A = 0, in its order
            first, second = (b, a) if report.swapped else (a, b)
            for t, hopped in ((first, report.normalized_a),
                              (second, report.normalized_b)):
                assert hopped == (not rational_roots(t.poly())
                                  and cubic_invariants(t).A == 0)
        if any(reducible):
            with pytest.raises(MathDomainError):
                all_rational_transformations(a, b)
        else:
            ws = all_rational_transformations(a, b)
            assert bool(ws) == equal and (not equal or w in ws)

    def test_pairs_cover_every_branch(self):
        branches = set()
        for a, b in _branch_pairs():
            ja, jb = cubic_invariants(a), cubic_invariants(b)
            if rational_roots(a.poly()) or rational_roots(b.poly()):
                branches.add("reducible")
            elif is_square_rat(ja.D * jb.D) is None:
                branches.add("two classes")
            elif not (ja.A and jb.A):
                branches.add(f"A = 0 on {(not ja.A) + (not jb.A)}")
            elif degeneracy_indicator(a, b) == 0:
                branches.add("locus")
            else:
                branches.add(f"generic {decide_same_splitting(a, b)[0]}")
        assert branches == {"reducible", "two classes", "A = 0 on 1", "A = 0 on 2",
                            "locus", "generic True", "generic False"}


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
        # over Q the cross-check of D is the Bezout discriminant of the
        # integer model, and no resultant runs through the poly module
        calls = _counting(monkeypatch, [resolvent_mod], "_bezout_discriminant")
        resultant = _counting(monkeypatch, [poly_mod], "poly_resultant")
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

    @pytest.mark.parametrize("pair",
                             [*LOCUS_PAIRS, TABLE_INSTANCES[("S3", "S3", "Equal")]])
    @pytest.mark.parametrize("entry", [classify_subfield, all_rational_transformations],
                             ids=["classify", "transformations"])
    def test_locus_root_once(self, monkeypatch, entry, pair):
        # the walk reads the locus root once, and its readers take it from
        # the record
        a, b = CubicTriple(*pair[0]), CubicTriple(*pair[1])
        calls = _counting(monkeypatch, [decide_mod], "_model_locus_root")
        entry(a, b)
        assert len(calls) == 1

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
        [TABLE_INSTANCES[("S3", "S3", "Equal")],
         TABLE_INSTANCES[("S3", "S3", "QuadraticMeet")],
         # A = 0: X^3 - 2 against its image under 1 + X + X^2 (A != 0)
         ((0, 0, 2), tschirn_image(CubicTriple(0, 0, 2), (1, 1, 1)).as_tuple())],
    )
    def test_squarefree_f2_runs_no_yun_step(self, monkeypatch, pair):
        # F2 off the locus is squarefree, and a sieve prime 5..47 proves it,
        # so factor_over_Q takes no gcd over Q
        a, b = CubicTriple(*pair[0]), CubicTriple(*pair[1])
        factored = _counting(monkeypatch, [factorq_mod], "_factor_monic_int_squarefree")
        gcds = _counting(monkeypatch, [factorq_mod], "poly_gcd")
        decide_same_splitting(a, b)
        classify_subfield(a, b)
        assert factored and not gcds

    @pytest.mark.parametrize(
        "pair",
        [((6, 11, 6), (0, -1, 0)),  # Id: roots 1, 2, 3 and -1, 0, 1
         ((1, 3, 3), (0, 3, 0))],   # C2: (X-1)(X^2+3) and X(X^2+3)
    )
    def test_one_root_search_per_reducible_cubic(self, monkeypatch, pair):
        a, b = CubicTriple(*pair[0]), CubicTriple(*pair[1])
        # the search runs on the integer model kept on each triple
        calls = _counting(monkeypatch, [factorq_mod, decide_mod],
                          "_cubic_integer_roots")
        rebuilt = _counting(monkeypatch, [factorq_mod, decide_mod],
                            "rational_roots", lambda f: f.degree == 3)
        eq, w = decide_same_splitting(a, b)
        assert eq and verify_transformation(a, b, w)
        assert len(calls) == 2 and not rebuilt

    @pytest.mark.parametrize(
        "pair, hops",
        [(TABLE_INSTANCES[("S3", "S3", "Equal")], 0),  # generic, equal
         (((0, 3, -2), (3, -3, 3)), 0),               # on the locus
         (((1, 3, 3), (0, 3, 0)), 0),                 # reducible, C2
         (((0, 0, 2), (3, -3, 1)), 1),                # A_a = 0
         (((0, 0, 2), (0, 0, 16)), 2)],               # A_a = A_b = 0
    )
    def test_one_integer_model_per_triple(self, monkeypatch, pair, hops):
        # a, b and each A = 0 hop's target build their integer model once,
        # and it serves the invariants, roots, recovery and verification;
        # no other route builds a model of a cubic
        a, b = CubicTriple(*pair[0]), CubicTriple(*pair[1])
        calls = _counting(monkeypatch, [resolvent_mod], "_integer_model")
        rebuilt = _counting(monkeypatch, [factorq_mod], "integer_model",
                            lambda c: len(c) == 4)
        eq, w = decide_same_splitting(a, b)
        assert eq and verify_transformation(a, b, w)
        assert len(calls) == 2 + hops and not rebuilt

    @pytest.mark.parametrize(
        "coeffs", [(0, 0, 2), (Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6))])
    def test_a_triple_builds_its_model_on_first_read(self, monkeypatch, coeffs):
        # constructing a triple builds no model; the first read builds it
        # once and later reads find it on the triple
        calls = _counting(monkeypatch, [resolvent_mod], "_integer_model")
        t = CubicTriple(*coeffs)
        assert not calls and "_model" not in vars(t)
        assert t._model is t._model and len(calls) == 1

    @pytest.mark.parametrize(
        "pair",
        [*LOCUS_PAIRS, ((0, 3, -2), (3, -3, 3)),
         ((1, 3, 3), (0, 3, 0)),    # reducible: C2
         ((6, 11, 6), (0, -1, 0))],  # and split
    )
    def test_witness_stays_on_the_models(self, monkeypatch, pair):
        # the locus and reducible witnesses are built and checked as ints,
        # with no Fraction turned back into model coordinates, and their
        # Fractions are built once, for the returned value
        a, b = CubicTriple(*pair[0]), CubicTriple(*pair[1])
        coords = _counting(monkeypatch, [resolvent_mod, decide_mod], "_model_coords")
        built = _counting(monkeypatch, [decide_mod], "_model_witness")
        verified = _counting(monkeypatch, [decide_mod], "verify_transformation")
        equal, w = decide_same_splitting(a, b)
        assert equal and len(built) == 1
        assert not coords and not verified

    @pytest.mark.parametrize(
        "pair",
        [((1, 3, 3), (0, 3, 0)),     # reducible
         ((0, 3, -2), (0, -1, 1)),   # different square classes
         ((0, 0, 2), (0, -1, 1)),    # A_a = 0, different square classes
         ((0, 3, -2), (3, -3, 3))],  # on the locus
    )
    def test_no_rational_invariants_off_the_hop(self, monkeypatch, pair):
        # these branches read D, A and the square class off the integer
        # models, and build no CubicInvariants
        a, b = CubicTriple(*pair[0]), CubicTriple(*pair[1])
        built = _counting(monkeypatch, [resolvent_mod], "_compute_invariants")
        decide_same_splitting(a, b)
        assert not built

    def test_the_hop_reads_B_off_the_model(self, monkeypatch):
        # X^3 - 2 against X^3 - 16: each A = 0 hop reads B off its input's
        # integer model, so CubicInvariants are built only for the two hop
        # targets (0, -3, B + 1/B)
        a, b = CubicTriple(0, 0, 2), CubicTriple(0, 0, 16)
        built = _counting(monkeypatch, [resolvent_mod], "_compute_invariants")
        equal, w = decide_same_splitting(a, b)
        assert equal and w.as_tuple() == (0, 2, 0)
        assert [s.as_tuple() for s, _ in built] == [
            (0, -3, Fraction(2917, 54)), (0, -3, Fraction(186625, 432))]

    def test_classify_builds_no_invariants_on_the_locus(self, monkeypatch):
        # the closed form's cubic block is read off the integer models
        a, b = CubicTriple(0, 3, -2), CubicTriple(3, -3, 3)
        built = _counting(monkeypatch, [resolvent_mod], "_compute_invariants")
        report = classify_subfield(a, b)
        assert report.degenerate and report.observed_pattern == (1, 1, 1, 3)
        assert not built

    def test_model_check_runs_on_the_decision_path(self, monkeypatch):
        # the cross-check of D runs as each triple builds its integer model
        discriminant = resolvent_mod._bezout_discriminant
        monkeypatch.setattr(resolvent_mod, "_bezout_discriminant",
                            lambda *c: discriminant(*c) + 1)
        a, b = (CubicTriple(*v) for v in TABLE_INSTANCES[("S3", "S3", "Equal")])
        with pytest.raises(AssertionError, match="discriminant routes disagree"):
            decide_same_splitting(a, b)

    def test_model_check_survives_optimize(self):
        # the checks raise AssertionError explicitly, so python -O keeps them
        code = ("import tschirn.resolvent as r; d = r._bezout_discriminant; "
                "r._bezout_discriminant = lambda *c: d(*c) + 1; "
                "from tschirn import CubicTriple, decide_same_splitting; "
                "decide_same_splitting(CubicTriple(0, -1, -1), CubicTriple(2, 3, 1))")
        src = str(Path(decide_mod.__file__).resolve().parent.parent)
        run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 1
        assert "AssertionError: discriminant routes disagree" in run.stderr


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


def _sympy_degrees(fa: sympy.Poly, fb: sympy.Poly) -> list:
    """The degrees of the factors of f_b over Q(alpha), alpha a root of f_a,
    sorted, from sympy's factorization over the algebraic field."""
    field = sympy.QQ.algebraic_field(sympy.CRootOf(fa, 0))
    return sorted(g.degree() for g, _ in
                  sympy.Poly(fb.as_expr(), fb.gen, domain=field).factor_list()[1])


def _sympy_same_field(a: CubicTriple, b: CubicTriple) -> bool:
    """For irreducible cubics, equal splitting fields exactly when Q(alpha)
    and Q(beta) are isomorphic, that is, when f_b has a root in Q(alpha),
    alpha a root of f_a: such a root generates Q(alpha), whose Galois closure
    is each splitting field; and if the splitting fields agree, the cubic
    subfields Q(beta_j) are the conjugates Q(alpha_i), so one beta_j lies in
    Q(alpha).  Read off the factor degrees (_sympy_degrees)."""
    return 1 in _sympy_degrees(_sympy_poly(a), _sympy_poly(b))


def _oracle_pairs():
    rng = random.Random(2024)
    pairs = [random_equal_pair(rng)[:2] for _ in range(12)]
    pairs += [(random_irreducible(rng), random_irreducible(rng)) for _ in range(12)]
    # Shanks pairs: equal ones from the classes of the acceptance scan
    for m, n in ((-1, 5), (0, 3), (5, 12), (0, 1), (2, 3), (-1, 0)):
        pairs.append((shanks_triple(m), shanks_triple(n)))
    return pairs


_ORDER = {"S3": 6, "C3": 3, "C2": 2, "Id": 1}


def _sympy_type(f: sympy.Poly) -> str:
    linear = sum(g.degree() == 1 for g, _ in f.factor_list()[1])
    if linear:
        return {1: "C2", 3: "Id"}[linear]
    return {"S3": "S3", "A3": "C3"}[sympy.galois_group(f, by_name=True)[0].name]


def _sympy_relation(a: CubicTriple, b: CubicTriple) -> tuple:
    """(g_a, g_b, relation) of classify_subfield from sympy alone, with no
    F2, FACTOR_PATTERNS or witness: the Galois types, the square class of
    disc(f_a) disc(f_b), and the degrees of the factors of f_b over Q(alpha),
    alpha a root of f_a, with a the cubic of the larger group.  For
    irreducible f_b a linear factor means Q(beta) is a conjugate of Q(alpha),
    so the splitting fields agree; otherwise f_b stays irreducible, and the
    fields can share only Q(sqrt(D)).  A reducible f_b keeps its factors."""
    fa, fb = _sympy_poly(a), _sympy_poly(b)
    ga, gb = _sympy_type(fa), _sympy_type(fb)
    if _ORDER[ga] < _ORDER[gb]:
        fa, fb, ga, gb = fb, fa, gb, ga
    degrees = _sympy_degrees(fa, fb)
    same_class = sympy.sqrt(sympy.discriminant(fa) * sympy.discriminant(fb)).is_rational
    if gb in ("Id", "C2"):
        assert degrees == ([1, 1, 1] if gb == "Id" else [1, 2])
        relation = ("ProperContains" if gb == "Id"
                    else "TrivialMeet" if ga == "C3"
                    else "ContainsQuadratic" if same_class else "NotContains")
    elif degrees != [3]:
        assert degrees == ([1, 2] if ga == "S3" else [1, 1, 1])
        relation = "Equal"
    else:
        relation = ("QuadraticMeet" if ga == gb == "S3" and same_class
                    else "TrivialMeet")
    return ga, gb, relation


def _relation_oracle_pairs():
    rng = random.Random(43)
    pairs = [*TABLE_INSTANCES.values(), *LOCUS_PAIRS,
             ((0, 0, 2), (0, 0, 16)), ((0, 0, 2), (3, -3, 1)),  # A = 0
             ((0, -3, 1), (-1, -2, 1))]  # C3 of conductors 9 and 7
    pairs += [pair[::-1] for pair in TABLE_INSTANCES.values()]  # classify swaps
    pairs = [tuple(CubicTriple(*t) for t in pair) for pair in pairs]
    pairs += [random_equal_pair(rng)[:2] for _ in range(3)]
    pairs += [(random_irreducible(rng), random_irreducible(rng)) for _ in range(3)]
    for m in (1, 1, 2, 3):  # (X - k)(X^2 - m D_a) against an S3 cubic a
        while True:
            a = random_irreducible(rng)
            d = m * cubic_invariants(a).D
            k = rng.randint(-3, 3)
            b = CubicTriple(k, -d, -k * d)
            if (is_square_rat(cubic_invariants(a).D) is None
                    and len(rational_roots(b.poly())) == 1):
                break
        pairs.append((a, b))
    return pairs


class TestSympyOracle:
    def test_classify_relations_match_sympy(self):
        seen = set()
        for a, b in _relation_oracle_pairs():
            r = classify_subfield(a, b)
            assert (r.g_a.tag, r.g_b.tag, r.relation) == _sympy_relation(a, b), (a, b)
            seen.add(r.relation)
        # every relation classify can report
        assert seen == {key[2] for key in FACTOR_PATTERNS}

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
