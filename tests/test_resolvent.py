"""Resolvent constructors against the brute-force coset oracle and the
closed-form identities they must satisfy."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tschirn.factorq as factorq_mod
import tschirn.resolvent as resolvent_mod
from tschirn.factorq import factor_over_Q, rational_roots
from tschirn.fields import QQ, MathDomainError, PrimeField, gf_build
from tschirn.poly import (
    RootTuple,
    UniPoly,
    poly_discriminant,
    poly_gcd,
    poly_resultant,
    vandermonde_solve,
)
from tschirn.resolvent import (
    CubicTriple,
    _bezout_discriminant,
    _double_root_fiber,
    _trace_u0,
    cubic_invariants,
    cyclic_F2_pm,
    cyclic_h_pm,
    degeneracy_indicator,
    degenerate_f2_blocks,
    oracle_resolvent,
    recovery_h_list,
    recovery_polys,
    resolvent_F0,
    resolvent_F0_char3_depressed,
    resolvent_F1,
    resolvent_F2,
    resolvent_F2_char3,
    resolvent_F2_split,
    resolvent_G0_char3,
    resolvent_G2,
    resolvent_H,
    sextic_generic,
    shanks_delta,
    shanks_triple,
    tschirn_image,
)

X = UniPoly.X(QQ)

# Known pair with a multiple resolvent root: X^3+3X+2 vs X^3-3X^2-3X-3.
PAIR_DEGEN = (CubicTriple(0, 3, -2), CubicTriple(3, -3, 3))
# Known cyclic pair: X^3+3X^2-4X+1 vs X^3+X^2-2X-1.
PAIR_CYCLIC = (CubicTriple(-3, -4, -1), CubicTriple(-1, -2, 1))

small_rat = st.fractions(
    min_value=-9, max_value=9, max_denominator=4
)
# numerators and denominators up to 10^12
huge_rat = st.builds(
    Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**12)
)
IMAGE_FIELDS = {
    "F_2": PrimeField(2),
    "F_3": PrimeField(3),
    "F_7": PrimeField(7),
    "GF(5^2)": gf_build(5, 2, 0),
}


def rand_field_elt(K, rng, nonzero=False):
    els = list(K.elements())
    while True:
        e = els[rng.randrange(len(els))]
        if e or not nonzero:
            return e


def random_split_roottuple(rng, require_nondegenerate=True):
    """Distinct rational roots on both sides, with D_s, B_s nonzero (and the
    transport denominator nonzero when asked for)."""
    while True:
        pool = [Fraction(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(9)]
        xs = tuple(pool[:3])
        ys = tuple(pool[3:6])
        if len(set(xs)) < 3 or len(set(ys)) < 3:
            continue
        s = CubicTriple.from_roots(xs)
        t = CubicTriple.from_roots(ys)
        js, jt = cubic_invariants(s), cubic_invariants(t)
        if not js.D or not jt.D or not js.B:
            continue
        if require_nondegenerate and not degeneracy_indicator(s, t):
            continue
        return RootTuple(xs=xs, ys=ys), s, t


def gf27_split_instances(mk_a, mk_b, count):
    """(s, t, xs, ys) with both parametrized cubics split over GF(27)."""
    K = gf_build(3, 3, 0)
    els = list(K.elements())

    def roots_of(tr):
        f = tr.poly(K)
        rs = [e for e in els if not f.eval(e)]
        return tuple(rs) if len(rs) == 3 else None

    out = []
    for s in els:
        if not s:
            continue
        ra = roots_of(mk_a(K, s))
        if not ra:
            continue
        for t in els:
            if not t:
                continue
            rb = roots_of(mk_b(K, t))
            if not rb:
                continue
            out.append((K, s, t, ra, rb))
            if len(out) >= count:
                return out
        # keep scanning other s values
    if not out:
        raise AssertionError("no split instances found over GF(27)")
    return out


# --------------------------------------------------------------------------
# CubicTriple and invariants.
# --------------------------------------------------------------------------


class TestCubicTriple:
    def test_poly_encoding(self):
        f = CubicTriple(1, -2, 5).poly()
        assert f == UniPoly(QQ, (-5, -2, -1, 1))

    def test_from_poly_round_trip(self):
        tr = CubicTriple(Fraction(1, 2), -3, Fraction(7, 3))
        assert CubicTriple.from_poly(tr.poly()).values() == tr.values()

    def test_from_poly_rejects_non_cubic(self):
        with pytest.raises(ValueError):
            CubicTriple.from_poly(UniPoly(QQ, (1, 1)))

    def test_from_roots(self):
        tr = CubicTriple.from_roots((1, 2, 3))
        assert tr.as_tuple() == (6, 11, 6)
        assert tr.poly() == UniPoly.from_roots(QQ, (1, 2, 3))

    def test_field_detection(self):
        F3 = PrimeField(3)
        assert CubicTriple(1, 2, 3).field is QQ
        assert CubicTriple(F3(1), 2, 0).field is F3


class TestInvariants:
    def test_known_values(self):
        a, b = PAIR_DEGEN
        ja, jb = cubic_invariants(a), cubic_invariants(b)
        assert (ja.A, ja.B, ja.C, ja.D, ja.E) == (-9, -54, 9, -216, 18)
        assert (jb.A, jb.B, jb.D) == (18, 216, -864)
        a2, b2 = PAIR_CYCLIC
        ja2, jb2 = cubic_invariants(a2), cubic_invariants(b2)
        assert (ja2.A, ja2.B, ja2.C, ja2.D) == (21, -189, 259, 49)
        assert (jb2.A, jb2.B, jb2.D) == (7, 7, 49)

    @given(st.tuples(small_rat, small_rat, small_rat))
    def test_identity_4A3_B2_27D(self, tr):
        inv = cubic_invariants(CubicTriple(*tr))
        assert 4 * inv.A**3 - inv.B**2 == 27 * inv.D

    @given(st.tuples(small_rat, small_rat, small_rat))
    def test_discriminant_matches_resultant_route(self, tr):
        s = CubicTriple(*tr)
        assert cubic_invariants(s).D == poly_discriminant(s.poly())

    @given(st.tuples(*[st.builds(Fraction, st.integers(-10**12, 10**12),
                                 st.integers(1, 10**4))] * 3))
    @settings(max_examples=200)
    def test_integer_route_matches_fraction_closed_form(self, tr):
        # over Q the invariants come from the integer model and are scaled
        # back; here they are evaluated on the Fractions directly
        s1, s2, s3 = tr
        inv = cubic_invariants(CubicTriple(s1, s2, s3))
        assert (inv.A, inv.B, inv.C, inv.D, inv.E) == (
            s1 * s1 - 3 * s2,
            2 * s1**3 - 9 * s1 * s2 + 27 * s3,
            s1**4 - 4 * s1 * s1 * s2 + s2 * s2 + 6 * s1 * s3,
            s1 * s1 * s2 * s2 - 4 * s2**3 - 4 * s1**3 * s3
            + 18 * s1 * s2 * s3 - 27 * s3 * s3,
            s1 * s2 - 9 * s3,
        )
        assert all(isinstance(v, Fraction) for v in (inv.A, inv.B, inv.C, inv.D, inv.E))
        assert inv.D == poly_discriminant(CubicTriple(s1, s2, s3).poly())

    def test_char3_specialization(self):
        K = gf_build(3, 2, 1)
        rng = random.Random(5)
        for _ in range(10):
            s1, s2, s3 = (rand_field_elt(K, rng) for _ in range(3))
            inv = cubic_invariants(CubicTriple(s1, s2, s3))
            assert inv.A == s1**2
            assert inv.B == -(s1**3)
            assert inv.D == s1**2 * s2**2 - s2**3 - s1**3 * s3

    def test_zero_discriminant_rejected_by_resolvents(self):
        s = CubicTriple.from_roots((1, 1, 2))  # repeated root, D = 0
        t = CubicTriple(0, -1, 0)
        with pytest.raises(MathDomainError):
            resolvent_F2(s, t)
        with pytest.raises(MathDomainError):
            resolvent_F1(s, t)


def _disc_by_roots(xs):
    x1, x2, x3 = xs
    return ((x1 - x2) * (x1 - x3) * (x2 - x3)) ** 2


def _coeffs_of_roots(xs):
    """(c0, c1, c2) of the monic cubic (X - x1)(X - x2)(X - x3)."""
    x1, x2, x3 = xs
    return -(x1 * x2 * x3), x1 * x2 + x1 * x3 + x2 * x3, -(x1 + x2 + x3)


#: The finite fields of the Bezout check: resolvent-ff's three, and
#: characteristics 2 and 3, where f' = 3X^2 + 2 c2 X + c1 loses degree.
BEZOUT_FIELDS = {
    "F_101": PrimeField(101),
    "GF(5^2)": gf_build(5, 2, 0),
    "GF(7^3)": gf_build(7, 3, 0),
    "F_2": PrimeField(2),
    "F_3": PrimeField(3),
    "GF(2^3)": gf_build(2, 3, 0),
    "GF(3^2)": gf_build(3, 2, 0),
    "GF(3^3)": gf_build(3, 3, 0),
}


class TestBezoutDiscriminant:
    """The 3x3 Bezout determinant that cross-checks D, against the resultant
    discriminant and against the product of squared root differences."""

    @given(st.tuples(*[st.integers(-(10**30), 10**30)] * 3))
    @settings(max_examples=200)
    def test_rational_matches_resultant_route(self, c):
        f = UniPoly(QQ, (*c, 1))
        assert _bezout_discriminant(*c) == poly_discriminant(f)

    @given(st.tuples(*[st.integers(-(10**10), 10**10)] * 3))
    @settings(max_examples=200)
    def test_rational_matches_root_differences(self, xs):
        assert _bezout_discriminant(*_coeffs_of_roots(xs)) == _disc_by_roots(xs)

    @pytest.mark.parametrize("name", list(BEZOUT_FIELDS))
    def test_finite_fields(self, name):
        K = BEZOUT_FIELDS[name]
        rng = random.Random(name)
        for _ in range(60):
            c = tuple(rand_field_elt(K, rng) for _ in range(3))
            assert _bezout_discriminant(*c) == poly_discriminant(UniPoly(K, (*c, K.one)))
            xs = tuple(rand_field_elt(K, rng) for _ in range(3))
            assert _bezout_discriminant(*_coeffs_of_roots(xs)) == _disc_by_roots(xs)
        # f' = 0 in characteristic 3 when c1 = c2 = 0, and Disc = -27 c0^2
        if K.char == 3:
            c0 = rand_field_elt(K, rng, nonzero=True)
            assert _bezout_discriminant(c0, K.zero, K.zero) == K.zero

    def test_off_q_check_runs_in_resolvent_f2(self, monkeypatch):
        # on fresh GF(7^3) triples the cross-check runs as F2 reads the
        # invariants, and a route that disagrees stops it
        K = BEZOUT_FIELDS["GF(7^3)"]
        rng = random.Random(73)
        pairs = []
        while len(pairs) < 3:
            xs, ys = ([rand_field_elt(K, rng) for _ in range(3)] for _ in range(2))
            s, t = CubicTriple.from_roots(xs), CubicTriple.from_roots(ys)
            if cubic_invariants(s).D and cubic_invariants(t).D:
                resolvent_F2(s, t)
                pairs.append((CubicTriple(*s.as_tuple()), CubicTriple(*t.as_tuple())))
        discriminant = resolvent_mod._bezout_discriminant
        monkeypatch.setattr(resolvent_mod, "_bezout_discriminant",
                            lambda *c: discriminant(*c) + 1)
        for s, t in pairs:
            with pytest.raises(AssertionError, match="discriminant routes disagree"):
                resolvent_F2(s, t)


# --------------------------------------------------------------------------
# Coset oracle vs closed forms.
# --------------------------------------------------------------------------


class TestOracleAgreement:
    def test_oracle_matches_closed_forms(self):
        rng = random.Random(20260814)
        for _ in range(12):
            rt, s, t = random_split_roottuple(rng)
            assert oracle_resolvent(rt, 2) == resolvent_F2(s, t)
            assert oracle_resolvent(rt, 1) == resolvent_F1(s, t)
            assert oracle_resolvent(rt, 0) == resolvent_F0(s, t)

    def test_oracle_degree_and_monic(self):
        rt = RootTuple(xs=(Fraction(1), Fraction(2), Fraction(4)),
                       ys=(Fraction(0), Fraction(3), Fraction(5)))
        f = oracle_resolvent(rt, 2)
        assert f.degree == 6 and f.lc == QQ(1)

    def test_oracle_n2(self):
        rt = RootTuple(xs=(Fraction(0), Fraction(1)), ys=(Fraction(2), Fraction(5)))
        f = oracle_resolvent(rt, 0)
        # two transformations u(X) = 2+3X and u(X) = 5-3X
        assert f == (X - 2) * (X - 5)

    def test_oracle_index_range(self):
        rt = RootTuple(xs=(Fraction(0), Fraction(1)), ys=(Fraction(2), Fraction(5)))
        with pytest.raises(ValueError):
            oracle_resolvent(rt, 2)

    def test_recovery_maps_hold_on_cosets(self):
        rng = random.Random(99)
        for _ in range(6):
            rt, s, t = random_split_roottuple(rng)
            q12, d12 = recovery_polys(s, t)
            s1, s2, _ = s.values()
            t1 = t.values()[0]
            for tau in itertools.permutations(range(3)):
                u0, u1, u2 = vandermonde_solve(rt, tau)
                assert u1 * d12.eval(u2) == q12.eval(u2)
                n_val = (t1 - (s1**2 - 2 * s2) * u2) * d12.eval(u2) - s1 * q12.eval(u2)
                assert 3 * u0 * d12.eval(u2) == n_val


# --------------------------------------------------------------------------
# Discriminant identities.
# --------------------------------------------------------------------------


class TestDiscriminantIdentities:
    @given(
        st.tuples(small_rat, small_rat, small_rat),
        st.tuples(small_rat, small_rat, small_rat),
    )
    @settings(max_examples=40)
    def test_disc_f2_closed_form(self, tr_s, tr_t):
        s, t = CubicTriple(*tr_s), CubicTriple(*tr_t)
        js, jt = cubic_invariants(s), cubic_invariants(t)
        if not js.D or not jt.D:
            return
        f2 = resolvent_F2(s, t)
        expected = (
            js.B**6 * jt.D**3 * (js.A**3 * jt.B**2 - 27 * jt.A**3 * js.D) ** 2
            / js.D**15
        )
        assert poly_discriminant(f2) == expected

    @given(
        st.tuples(small_rat, small_rat, small_rat),
        st.tuples(small_rat, small_rat, small_rat),
    )
    @settings(max_examples=40)
    def test_degeneracy_indicator_symmetric_form(self, tr_s, tr_t):
        s, t = CubicTriple(*tr_s), CubicTriple(*tr_t)
        js, jt = cubic_invariants(s), cubic_invariants(t)
        lhs = degeneracy_indicator(s, t)
        assert lhs == js.A**3 * jt.B**2 - 27 * jt.A**3 * js.D
        rhs = 4 * js.A**3 * jt.A**3 - 27 * (jt.A**3 * js.D + js.A**3 * jt.D)
        assert lhs == rhs

    def test_disc_H(self):
        rng = random.Random(3)
        for _ in range(8):
            a = Fraction(rng.randint(-20, 20))
            b = Fraction(rng.randint(-20, 20))
            if a == b or a == 0 or b == 0 or 4 * a + 27 == 0:
                continue
            h = resolvent_H(a, b)
            assert h.degree == 6 and h.lc == a - b
            assert poly_discriminant(h) == a**10 * b**4 * (4 * a + 27) ** 15 * (
                4 * b + 27
            ) ** 3

    def test_disc_cyclic_h(self):
        for m, n in [(Fraction(-1), Fraction(5)), (Fraction(0), Fraction(3)),
                     (Fraction(2), Fraction(7)), (Fraction(1, 2), Fraction(-5, 3))]:
            hp, hm = cyclic_h_pm(m, n)
            da, db = shanks_delta(m), shanks_delta(n)
            assert poly_discriminant(hp) == da**2 * db**2 / (m - n) ** 4
            assert poly_discriminant(hm) == da**2 * db**2 / (m + n + 3) ** 4

    def test_disc_cyclic_f2_pm(self):
        for m, n in [(Fraction(-1), Fraction(5)), (Fraction(2), Fraction(9))]:
            plus, minus = cyclic_F2_pm(m, n)
            da, db = shanks_delta(m), shanks_delta(n)
            assert poly_discriminant(plus) == db**2 * (
                2 * m * n + 3 * m + 3 * n + 18
            ) ** 2 / da**4
            assert poly_discriminant(minus) == db**2 * (
                2 * m * n + 3 * m + 3 * n - 9
            ) ** 2 / da**4

    def test_disc_G0_char3(self):
        for k, seed in ((2, 1), (3, 0)):
            K = gf_build(3, k, seed)
            rng = random.Random(17)
            hits = 0
            while hits < 8:
                s = rand_field_elt(K, rng, nonzero=True)
                t = rand_field_elt(K, rng, nonzero=True)
                g0 = resolvent_G0_char3(s, t)
                assert poly_discriminant(g0) == t**15 / s**3
                hits += 1

    def test_disc_f2_char3(self):
        K = gf_build(3, 3, 0)
        rng = random.Random(23)
        hits = 0
        while hits < 8:
            s = CubicTriple(*(rand_field_elt(K, rng) for _ in range(3)))
            t = CubicTriple(*(rand_field_elt(K, rng) for _ in range(3)))
            js, jt = cubic_invariants(s), cubic_invariants(t)
            s1, t1 = s.values(K)[0], t.values(K)[0]
            if not s1 or not t1 or not js.D:
                continue
            f2 = resolvent_F2_char3(s, t)
            assert poly_discriminant(f2) == s1**30 * t1**12 * jt.D**3 / js.D**15
            hits += 1


# --------------------------------------------------------------------------
# Known end-to-end pairs.
# --------------------------------------------------------------------------


class TestKnownDegeneratePair:
    """X^3+3X+2 vs X^3-3X^2-3X-3: resolvent with a double root."""

    def test_degenerate_detected(self):
        a, b = PAIR_DEGEN
        assert degeneracy_indicator(a, b) == 0

    def test_f2_factor_product(self):
        a, b = PAIR_DEGEN
        expected = (
            (X + Fraction(1, 2)) ** 2
            * (X - 1)
            * UniPoly(QQ, (Fraction(-3, 4), Fraction(-3, 4), 0, 1))
        )
        assert resolvent_F2(a, b) == expected

    def test_f1_factor_product(self):
        a, b = PAIR_DEGEN
        expected = (
            UniPoly(QQ, (Fraction(7, 4), -1, 1))
            * (X + 1)
            * UniPoly(QQ, (Fraction(1, 4), Fraction(3, 4), 0, 1))
        )
        assert resolvent_F1(a, b) == expected

    def test_f0_degenerate_assembly(self):
        a, b = PAIR_DEGEN
        assert resolvent_F0(a, b) == X**2 * (X - 3) * UniPoly(
            QQ, (-4, 0, -3, 1)
        )

    def test_closed_form_blocks(self):
        a, b = PAIR_DEGEN
        double, simple, cubic = degenerate_f2_blocks(a, b)
        assert double == X + Fraction(1, 2)
        assert simple == X - 1
        assert cubic == UniPoly(QQ, (Fraction(-3, 4), Fraction(-3, 4), 0, 1))
        assert double**2 * simple * cubic == resolvent_F2(a, b)
        # the simple root stays clear of the cubic block
        assert cubic.eval(Fraction(1)) != 0

    def test_recovery_at_simple_root(self):
        a, b = PAIR_DEGEN
        q12, d12 = recovery_polys(a, b)
        assert q12.eval(Fraction(1)) == 78732
        assert d12.eval(Fraction(1)) == -78732
        ja, jb = cubic_invariants(a), cubic_invariants(b)
        assert d12.eval(Fraction(1)) == -9 * ja.B * ja.A * jb.A
        u1 = q12.eval(Fraction(1)) / d12.eval(Fraction(1))
        assert u1 == -1
        s1, s2, _ = a.values()
        u0 = (b.values()[0] - s1 * u1 - (s1**2 - 2 * s2) * 1) / 3
        assert u0 == 3

    def test_witness_maps_a_to_b(self):
        a, b = PAIR_DEGEN
        img = tschirn_image(a, (3, -1, 1))
        assert img.values() == b.values()


class TestKnownCyclicPair:
    """X^3+3X^2-4X+1 vs X^3+X^2-2X-1: six rational transformations."""

    def test_f2_factor_product(self):
        a, b = PAIR_CYCLIC
        expected = (X - 1) ** 2 * (X + 2) * UniPoly(QQ, (Fraction(-13, 7), -3, 0, 1))
        assert resolvent_F2(a, b) == expected

    def test_f1_factor_product(self):
        a, b = PAIR_CYCLIC
        expected = (X - 3) * (X - 4) * (X + 7) * UniPoly(
            QQ, (Fraction(-601, 7), -37, 0, 1)
        )
        assert resolvent_F1(a, b) == expected

    def test_f0_degenerate_assembly(self):
        a, b = PAIR_CYCLIC
        expected = (X + 3) * (X + 2) * (X - 4) * UniPoly(
            QQ, (Fraction(71, 7), -14, 1, 1)
        )
        assert resolvent_F0(a, b) == expected

    def test_all_three_rational_witnesses(self):
        a, b = PAIR_CYCLIC
        for coeffs in ((4, -7, -2), (-3, 3, 1), (-2, 4, 1)):
            assert tschirn_image(a, coeffs).values() == b.values()

    def test_double_root_fiber_block(self):
        # the two transformations above u2 = 1 contribute (X+3)(X+2) to F0
        a, b = PAIR_CYCLIC
        f0 = resolvent_F0(a, b)
        assert f0 % ((X + 3) * (X + 2)) == UniPoly.zero(QQ)


class TestDegenerateSplitPairs:
    """Rational split pairs on the multiple-root locus, checked against the
    oracle end to end (these exercise the double-root fiber quadratic)."""

    def find_pairs(self, count):
        vals = [Fraction(k) for k in range(-4, 5)]
        out = []
        for xs in itertools.combinations(vals, 3):
            s = CubicTriple.from_roots(xs)
            js = cubic_invariants(s)
            if not js.D or not js.B or not js.A:
                continue
            for ys in itertools.combinations(vals, 3):
                t = CubicTriple.from_roots(ys)
                jt = cubic_invariants(t)
                if not jt.D or not jt.A or not jt.B:
                    continue
                if degeneracy_indicator(s, t) == 0:
                    out.append((xs, ys, s, t))
                    if len(out) >= count:
                        return out
        return out

    def test_degenerate_f0_matches_oracle(self):
        pairs = self.find_pairs(4)
        assert pairs, "no split degenerate pairs in the search range"
        for xs, ys, s, t in pairs:
            rt = RootTuple(xs=xs, ys=ys)
            assert resolvent_F0(s, t) == oracle_resolvent(rt, 0)
            double, simple, cubic = degenerate_f2_blocks(s, t)
            assert double**2 * simple * cubic == oracle_resolvent(rt, 2)


class TestF0Degenerate:
    """F0 where D12 vanishes at double roots of F2, read from closed forms."""

    def test_locus_pair_runs_no_factorization(self, monkeypatch):
        # factor_over_Q takes a gcd over Q only on inputs that no sieve
        # prime proves squarefree, so count the integer factorizer as well
        calls = []
        for name in ("poly_gcd", "_factor_monic_int_squarefree"):
            original = getattr(factorq_mod, name)

            def counting(*args, _original=original):
                calls.append(args)
                return _original(*args)

            monkeypatch.setattr(factorq_mod, name, counting)
        a, b = PAIR_DEGEN
        assert resolvent_F0(a, b) == X**2 * (X - 3) * UniPoly(
            QQ, (-4, 0, -3, 1)
        )
        assert calls == []

    def test_zero_A_locus_pairs_match_oracle(self):
        # shifted pure cubics (X - k)^3 - g^3 have A = 0, so every pair of
        # them is on the locus with F2 = X^3 (X^3 + B_t/D_s); both fields
        # hold a primitive cube root of unity w, and GF(4) has characteristic 2
        rng = random.Random(13)
        for F in (PrimeField(13), gf_build(2, 2, 0)):
            els = list(F.elements())
            w = next(e for e in els if e**3 == 1 and e != 1)
            for _ in range(3):
                (k, g), (k2, g2) = (
                    (rng.choice(els), rng.choice(els[1:])) for _ in range(2)
                )
                xs = tuple(k + g * w**i for i in range(3))
                ys = tuple(k2 + g2 * w**i for i in range(3))
                s, t = CubicTriple.from_roots(xs), CubicTriple.from_roots(ys)
                assert cubic_invariants(s).A == cubic_invariants(t).A == 0
                assert degeneracy_indicator(s, t) == 0
                assert resolvent_F0(s, t) == oracle_resolvent(RootTuple(xs, ys), 0)

    def test_zero_A_locus_pairs_over_Q_reduce_to_the_F13_oracle(self):
        # (X - k)^3 - c with c a cube mod 13 (1, 5, 8, 12), irreducible
        # over Q: the answer over Q, reduced mod 13, is the coset product of
        # the roots mod 13
        F = PrimeField(13)
        for s, t in (
            (CubicTriple(0, 0, 5), CubicTriple(0, 0, 18)),
            (CubicTriple(3, 3, 6), CubicTriple(-6, 12, 4)),
            (CubicTriple(0, 0, -5), CubicTriple(3, 3, 22)),
        ):
            assert cubic_invariants(s).A == cubic_invariants(t).A == 0
            assert not rational_roots(s.poly()) and not rational_roots(t.poly())
            f0 = resolvent_F0(s, t)
            reduced = UniPoly(F, [F(c.numerator) / F(c.denominator)
                                  for c in f0.coeffs])
            xs, ys = (
                tuple(x for x in F.elements() if not u.poly(F).eval(x))
                for u in (s, t)
            )
            assert reduced == oracle_resolvent(RootTuple(xs, ys), 0)

    def test_zero_B_s_split_pairs_match_oracle(self):
        # roots in arithmetic progression give B_s = 0, so F2 is a square
        for xs in ((-1, 0, 1), (0, 1, 2)):
            for ys in ((1, 2, 4), (-3, 0, 5)):
                xs_q = tuple(Fraction(x) for x in xs)
                ys_q = tuple(Fraction(y) for y in ys)
                s, t = CubicTriple.from_roots(xs_q), CubicTriple.from_roots(ys_q)
                assert cubic_invariants(s).B == 0
                rt = RootTuple(xs=xs_q, ys=ys_q)
                assert resolvent_F0(s, t) == oracle_resolvent(rt, 0)

    def test_zero_B_s_pairs_without_split_G_match_the_GF_5_6_oracle(self):
        # F2 = G^2 with G irreducible over Q, or with one rational root;
        # the answer over Q, reduced mod 5, is the coset product of the
        # roots in GF(5^6), where every cubic over F_5 splits
        F, K = PrimeField(5), gf_build(5, 6, 0)
        els = list(K.elements())
        rng = random.Random(7)
        for a, b in (
            ((0, 1, 0), (0, -1, 1)),
            ((-3, -1, 3), (-4, -4, -4)),
            ((-3, -1, 3), (-4, -4, 0)),
            ((-3, 0, 2), (-4, -4, -4)),
        ):
            s, t = CubicTriple(*a), CubicTriple(*b)
            f2 = resolvent_F2(s, t)
            g = UniPoly(QQ, (f2[3] / 2, f2[4] / 2, 0, 1))
            assert cubic_invariants(s).B == 0 and g * g == f2
            assert len(rational_roots(g)) < 3
            f0 = resolvent_F0(s, t)
            reduced = UniPoly(F, [F(c.numerator) / F(c.denominator)
                                  for c in f0.coeffs])
            xs, ys = (tuple(_split_roots(K, CubicTriple(*e).poly(K), els, rng))
                      for e in (a, b))
            assert UniPoly(K, [K(c.val) for c in reduced.coeffs]) == (
                oracle_resolvent(RootTuple(xs, ys), 0)
            )

    def test_zero_B_s_with_G_not_squarefree_rejected(self):
        # t = (X - 1)^2 (X - 2) has D_t = 0, and Disc G = 3^6 D_t / (4 D_s^2)
        split_s = CubicTriple.from_roots((Fraction(-1), Fraction(0), Fraction(1)))
        t = CubicTriple.from_roots((Fraction(1), Fraction(1), Fraction(2)))
        with pytest.raises(MathDomainError, match="G squarefree"):
            resolvent_F0(split_s, t)

    @pytest.mark.parametrize("name", ["Q", "F_101", "GF(5^2)", "GF(2^3)"])
    def test_double_root_fiber_is_the_e2_defect_of_the_image(self, name):
        # q0 + q1 u1 + q2 u1^2 = -3 (e2 - t2) for the image of u0 + u1 X +
        # c X^2, u0 from the trace condition, at any triples, c and u1
        field = {"Q": QQ, "F_101": PrimeField(101), "GF(5^2)": gf_build(5, 2, 0),
                 "GF(2^3)": gf_build(2, 3, 0)}[name]
        rng = random.Random(name)

        def draw():
            if field is QQ:
                return Fraction(rng.randint(-30, 30), rng.randint(1, 5))
            return rand_field_elt(field, rng)

        for _ in range(20):
            s, t = (CubicTriple(*(draw() for _ in range(3))) for _ in range(2))
            c, u1 = draw(), draw()
            q0, q1, q2 = _double_root_fiber(s, t, c)
            img = tschirn_image(s, (_trace_u0(s, t, u1, c, field), u1, c))
            assert q0 + q1 * u1 + q2 * u1 * u1 == -3 * (img.a2 - t.values(field)[1])

    def test_triple_root_t_on_the_locus_is_named(self):
        # A_s B_s != 0 and A_t = 0 on the locus: f3(t) = (X - 1)^3, over Q
        # and over F_7 alike
        for F in (QQ, PrimeField(7)):
            s, t = (CubicTriple(*(F(v) for v in e))
                    for e in ((-4, -5, 1), (3, 3, 1)))
            assert cubic_invariants(s).A and cubic_invariants(s).B
            assert not cubic_invariants(t).D and degeneracy_indicator(s, t) == 0
            with pytest.raises(MathDomainError, match="triple root"):
                resolvent_F0(s, t)

    def test_triple_root_t_with_zero_A_s_is_named(self):
        # A_s = A_t = 0 with B_s != 0: f3(t) = (X - 1)^3 has B_t = 0 too,
        # named before the A_s = A_t = 0 closed form is tried
        for F in (QQ, PrimeField(101)):
            s, t = (CubicTriple(*(F(v) for v in e))
                    for e in ((3, 3, 4), (3, 3, 1)))
            js, jt = cubic_invariants(s), cubic_invariants(t)
            assert js.B and not (js.A or jt.A or jt.B)
            with pytest.raises(MathDomainError, match="triple root"):
                resolvent_F0(s, t)

    def test_characteristic_3_is_named(self):
        # A = s1^2 and B = 2 s1^3 in characteristic 3, so t1 = 0 puts any
        # pair with s1 != 0 on the locus, while D_t = -t2^3 stays nonzero;
        # off the locus, 3 D12 = 0 all the same
        F = PrimeField(3)
        s, t = (CubicTriple(*(F(v) for v in e)) for e in ((1, 0, 1), (0, 1, 0)))
        assert cubic_invariants(s).A and cubic_invariants(s).B
        assert not cubic_invariants(t).A and cubic_invariants(t).D
        assert degeneracy_indicator(s, t) == 0
        s2, t2 = (CubicTriple(*(F(v) for v in e)) for e in ((1, 2, 0), (2, 0, 1)))
        assert cubic_invariants(s2).B and degeneracy_indicator(s2, t2)
        for a, b in ((s, t), (s2, t2)):
            with pytest.raises(MathDomainError,
                               match="characteristic 3: use resolvent_F0_char3"):
                resolvent_F0(a, b)


def _split_roots(K, f, els, rng):
    """The roots of a squarefree f that splits over K, |K| odd, by
    Cantor-Zassenhaus: gcd(f, (X + a)^((|K| - 1)/2) - 1) is a proper
    factor of f for about half of all a in K."""
    if f.degree == 1:
        return [-f[0] / f[1]]
    while True:
        g, base, e = UniPoly.one(K), UniPoly(K, (rng.choice(els), 1)), len(els) // 2
        while e:
            if e & 1:
                g = g * base % f
            base, e = base * base % f, e >> 1
        d = poly_gcd(f, g - 1)
        if 0 < d.degree < f.degree:
            return _split_roots(K, d, els, rng) + _split_roots(K, f // d, els, rng)


class TestF0Transport:
    """F0 off the multiple-root locus, the characteristic polynomial of u0
    on K[Y]/(F2), against the coset oracle.  It needs no interpolation
    points, so it answers over fields with fewer than seven elements."""

    def test_F5_pairs_match_the_oracle_in_GF_5_6(self):
        # every cubic over F_5 splits over GF(5^6)
        F, K = PrimeField(5), gf_build(5, 6, 0)
        els = list(K.elements())
        rng = random.Random(5)
        done = 0
        while done < 4:
            a, b = ([rng.randrange(5) for _ in range(3)] for _ in range(2))
            s, t = (CubicTriple(*(F(v) for v in e)) for e in (a, b))
            js, jt = cubic_invariants(s), cubic_invariants(t)
            if not (js.D and jt.D and js.B and degeneracy_indicator(s, t)):
                continue
            xs, ys = (tuple(_split_roots(K, CubicTriple(*e).poly(K), els, rng))
                      for e in (a, b))
            f0 = resolvent_F0(s, t)
            assert UniPoly(K, [K(c.val) for c in f0.coeffs]) == oracle_resolvent(
                RootTuple(xs, ys), 0
            )
            done += 1

    @pytest.mark.parametrize("name", ["F_7", "F_101", "GF(5^2)", "GF(7^3)",
                                      "GF(2^3)"])
    def test_split_pairs_match_oracle(self, name):
        # on and off the multiple-root locus, B_s = 0 included; over GF(2^3)
        # every pair is on the locus
        field = {"F_7": PrimeField(7), "F_101": PrimeField(101),
                 "GF(5^2)": gf_build(5, 2, 0), "GF(7^3)": gf_build(7, 3, 0),
                 "GF(2^3)": gf_build(2, 3, 0)}[name]
        els = list(field.elements())
        rng = random.Random(name)
        for _ in range(60):
            xs, ys = (tuple(rng.sample(els, 3)) for _ in range(2))
            s, t = CubicTriple.from_roots(xs), CubicTriple.from_roots(ys)
            assert resolvent_F0(s, t) == oracle_resolvent(RootTuple(xs, ys), 0)


# --------------------------------------------------------------------------
# Recovery data.
# --------------------------------------------------------------------------


class TestRecoveryData:
    def test_h_list_inverts_D12_mod_F2(self):
        rng = random.Random(41)
        done = 0
        while done < 8:
            s = CubicTriple(*(Fraction(rng.randint(-6, 6)) for _ in range(3)))
            t = CubicTriple(*(Fraction(rng.randint(-6, 6)) for _ in range(3)))
            js, jt = cubic_invariants(s), cubic_invariants(t)
            if not js.D or not jt.D or not js.B:
                continue
            if not degeneracy_indicator(s, t):
                continue
            f2 = resolvent_F2(s, t)
            _, d12 = recovery_polys(s, t)
            h = UniPoly(QQ, recovery_h_list(s, t))
            d0 = 3 * js.B * degeneracy_indicator(s, t) ** 2
            assert (h * d12) % f2 == UniPoly.constant(QQ, QQ(d0))
            done += 1

    def test_D12_0_vanishes_exactly_on_degenerate_locus(self):
        a, b = PAIR_DEGEN
        ja = cubic_invariants(a)
        assert 3 * ja.B * degeneracy_indicator(a, b) ** 2 == 0
        assert ja.B != 0
        # both known pairs are degenerate; swap in a pair off the locus
        c = CubicTriple(0, -1, 0)
        assert degeneracy_indicator(a, c) != 0
        assert 3 * ja.B * degeneracy_indicator(a, c) ** 2 != 0

    def test_transport_denominator_vanishes_iff_degenerate(self):
        rng = random.Random(43)
        done = 0
        while done < 10:
            s = CubicTriple(*(Fraction(rng.randint(-5, 5)) for _ in range(3)))
            t = CubicTriple(*(Fraction(rng.randint(-5, 5)) for _ in range(3)))
            js, jt = cubic_invariants(s), cubic_invariants(t)
            if not js.D or not jt.D or not js.B or not js.A or not jt.A or not jt.B:
                continue
            f2 = resolvent_F2(s, t)
            _, d12 = recovery_polys(s, t)
            den = poly_resultant(f2, 3 * d12)
            assert bool(den) == bool(degeneracy_indicator(s, t))
            done += 1


class TestMixedFieldPair:
    def test_integer_triple_is_read_in_the_other_field(self):
        """A pair of an integer triple and a GF(5^2) triple is computed in
        GF(5^2), in either order."""
        K = gf_build(5, 2, 0)
        rng = random.Random(47)
        done = 0
        while done < 8:
            ints = CubicTriple(*(rng.randint(-9, 9) for _ in range(3)))
            ff = CubicTriple(*(rand_field_elt(K, rng) for _ in range(3)))
            for s, t in ((ints, ff), (ff, ints)):
                ks, kt = CubicTriple(*s.values(K)), CubicTriple(*t.values(K))
                js = cubic_invariants(ks)
                if not (js.D and js.B and degeneracy_indicator(ks, kt)):
                    continue
                for fn in (resolvent_F0, resolvent_F1, resolvent_F2,
                           recovery_polys, degeneracy_indicator):
                    assert fn(s, t) == fn(ks, kt), fn.__name__
                done += 1


# --------------------------------------------------------------------------
# Depressed parameter families (closed forms for s1 = t1 = 0).
# --------------------------------------------------------------------------


class TestDepressedClosedForms:
    @staticmethod
    def displays(S2, S3, T2, T3):
        D = -4 * S2**3 - 27 * S3**2
        f2 = UniPoly(QQ, (
            729 * (S3**2 * T2**3 - S2**3 * T3**2) / D**3,
            -243 * S2 * T2 * T3 / D**2,
            81 * S2**2 * T2**2 / D**2,
            27 * T3 / D,
            -18 * S2 * T2 / D,
            0, QQ(1)))
        f1 = UniPoly(QQ, (
            (4 * S2**6 * T2**3 + 108 * S2**3 * S3**2 * T2**3
             + 729 * S3**4 * T2**3 + 27 * S2**6 * T3**2) / D**3,
            81 * S2**2 * S3 * T2 * T3 / D**2,
            9 * S2**4 * T2**2 / D**2,
            27 * S3 * T3 / D,
            6 * S2**2 * T2 / D,
            0, QQ(1)))
        f0 = UniPoly(QQ, (
            64 * S2**6 * (S3**2 * T2**3 - S2**3 * T3**2) / D**3,
            -32 * S2**6 * T2 * T3 / D**2,
            16 * S2**6 * T2**2 / D**2,
            8 * S2**3 * T3 / D,
            -8 * S2**3 * T2 / D,
            0, QQ(1)))
        return f0, f1, f2

    def test_depressed_resolvents_match_displays(self):
        rng = random.Random(7)
        done = 0
        while done < 8:
            S2, S3, T2, T3 = (Fraction(rng.randint(-6, 6)) for _ in range(4))
            if S3 == 0 or -4 * S2**3 - 27 * S3**2 == 0:
                continue
            s = CubicTriple(0, S2, S3)
            t = CubicTriple(0, T2, T3)
            f0d, f1d, f2d = self.displays(S2, S3, T2, T3)
            assert resolvent_F2(s, t) == f2d
            assert resolvent_F1(s, t) == f1d
            if degeneracy_indicator(s, t):
                assert resolvent_F0(s, t) == f0d
            done += 1


# --------------------------------------------------------------------------
# Cyclic (Shanks) family.
# --------------------------------------------------------------------------


class TestCyclicFamily:
    def test_shanks_triple_poly(self):
        m = Fraction(5)
        assert shanks_triple(m).poly() == UniPoly(QQ, (-1, -(m + 3), -m, 1))
        inv = cubic_invariants(shanks_triple(m))
        assert inv.A == shanks_delta(m)
        assert inv.B == (2 * m + 3) * shanks_delta(m)
        assert inv.D == shanks_delta(m) ** 2

    @given(small_rat, small_rat)
    @settings(max_examples=30)
    def test_product_equals_f2(self, m, n):
        plus, minus = cyclic_F2_pm(m, n)
        assert plus * minus == resolvent_F2(shanks_triple(m), shanks_triple(n))

    def test_matches_generic_split(self):
        for m, n in [(Fraction(0), Fraction(0)), (Fraction(0), Fraction(3)),
                     (Fraction(-1), Fraction(5)), (Fraction(2), Fraction(7))]:
            assert cyclic_F2_pm(m, n) == resolvent_F2_split(
                shanks_triple(m), shanks_triple(n)
            )

    def test_known_values_at_zero(self):
        plus, minus = cyclic_F2_pm(0, 0)
        assert plus == X**3 - X
        assert minus == X**3 - X + Fraction(1, 3)

    @given(small_rat, small_rat)
    @settings(max_examples=30)
    def test_minus_is_mirror_of_plus_substituted(self, m, n):
        _, minus = cyclic_F2_pm(m, n)
        plus_sub, _ = cyclic_F2_pm(m, -n - 3)
        mirrored = -plus_sub.compose(-X)
        assert minus == mirrored

    @given(small_rat)
    def test_opposite_parameters_share_root_zero(self, m):
        _, minus = cyclic_F2_pm(m, -m - 3)
        assert minus[0] == 0 and minus.eval(QQ(0)) == 0

    @given(small_rat, small_rat)
    @settings(max_examples=30)
    def test_degeneracy_factorization(self, m, n):
        a, b = shanks_triple(m), shanks_triple(n)
        da, db = cubic_invariants(a).D, cubic_invariants(b).D
        assert degeneracy_indicator(a, b) == da * db * (
            2 * m * n + 3 * m + 3 * n + 18
        ) * (2 * m * n + 3 * m + 3 * n - 9)

    def test_complete_splitting_anchors(self):
        for m, n in [(-1, 5), (0, 54), (-1, 1259), (5, 1259)]:
            plus, _ = cyclic_F2_pm(m, n)
            assert len(rational_roots(plus)) == 3
        for m, n in [(-1, 12), (0, 3), (1, 66), (2, 2389), (3, 54), (5, 12),
                     (12, 1259)]:
            _, minus = cyclic_F2_pm(m, n)
            assert len(rational_roots(minus)) == 3

    def test_f2_minus_at_0_3(self):
        _, minus = cyclic_F2_pm(0, 3)
        assert minus == X**3 - 3 * X + 2
        assert minus == (X - 1) ** 2 * (X + 2)

    def test_h_pm_split_anchors(self):
        hp, _ = cyclic_h_pm(Fraction(-1), Fraction(5))
        assert len(rational_roots(hp)) == 3
        _, hm = cyclic_h_pm(Fraction(0), Fraction(3))
        assert len(rational_roots(hm)) == 3

    def test_h_pm_domain_errors(self):
        with pytest.raises(MathDomainError):
            cyclic_h_pm(Fraction(2), Fraction(2))
        with pytest.raises(MathDomainError):
            cyclic_h_pm(Fraction(2), Fraction(-5))

    def test_split_requires_square_ratio(self):
        s = CubicTriple.from_roots((0, 1, 2))    # D = 4
        t = CubicTriple(0, -2, 0)                # D = 32; ratio 8 not square
        with pytest.raises(MathDomainError):
            resolvent_F2_split(s, t)

    def test_square_ratio_pairs_factor_into_cubic_blocks(self):
        rng = random.Random(77)
        done = 0
        while done < 5:
            rt, s, t = random_split_roottuple(rng, require_nondegenerate=False)
            plus, minus = resolvent_F2_split(s, t)   # split roots => squares
            assert plus * minus == resolvent_F2(s, t)
            whole = sorted(
                h.degree
                for h, mult in factor_over_Q(resolvent_F2(s, t)).factors
                for _ in range(mult)
            )
            pieces = sorted(
                h.degree
                for part in (plus, minus)
                for h, mult in factor_over_Q(part).factors
                for _ in range(mult)
            )
            assert whole == pieces
            assert all(d <= 3 for d in whole)
            done += 1


# --------------------------------------------------------------------------
# One-parameter S3 family: H(a,b) and G2.
# --------------------------------------------------------------------------


class TestFamilyResolvents:
    def test_H_is_difference_of_family_forms(self):
        a, b = Fraction(2), Fraction(5)
        u = UniPoly(QQ, (-3 * a, 9, 1))
        v = UniPoly(QQ, (-2 * a**2 - 27 * a, -9 * a, -2 * a, 1))
        assert resolvent_H(a, b) == a * u**3 - b * v**2

    def test_G2_matches_f2_specialization(self):
        rng = random.Random(11)
        done = 0
        while done < 8:
            s = Fraction(rng.randint(-9, 9))
            t = Fraction(rng.randint(-9, 9))
            if s == 0 or t == 0 or 4 * s + 27 == 0:
                continue
            assert resolvent_G2(s, t) == resolvent_F2(
                CubicTriple(0, s, -s), CubicTriple(0, t, -t)
            )
            done += 1

    def test_G2_and_H_share_rational_root_behaviour(self):
        # same-splitting-field parameter pairs for X^3+aX+a
        for a, b in [(-7, -189), (-9, -27), (-6, 54)]:
            g2 = resolvent_G2(Fraction(a), Fraction(b))
            assert rational_roots(g2), (a, b)
            h = resolvent_H(Fraction(a), Fraction(b))
            assert rational_roots(h.monic()), (a, b)


# --------------------------------------------------------------------------
# The five generic sextics, char != 3.
# --------------------------------------------------------------------------


class TestGenericSextics:
    def sample_params(self, rng):
        while True:
            s = Fraction(rng.randint(-12, 12), rng.randint(1, 3))
            t = Fraction(rng.randint(-12, 12), rng.randint(1, 3))
            if s and t and 4 * s + 27 != 0:
                return s, t

    def test_s3_s3_matches_scaled_f2(self):
        rng = random.Random(61)
        for _ in range(8):
            s, t = self.sample_params(rng)
            f2 = resolvent_F2(CubicTriple(0, s, -s), CubicTriple(0, t, -t))
            built = f2.compose(UniPoly(QQ, (0, 3))) / QQ(3**6)
            assert sextic_generic("S3,S3", s, t) == built

    def test_s3_c3_matches_f2(self):
        rng = random.Random(62)
        for _ in range(8):
            s, t = self.sample_params(rng)
            f2 = resolvent_F2(CubicTriple(0, s, -s), CubicTriple(t, -t - 3, 1))
            assert sextic_generic("S3,C3", s, t) == f2

    def test_s3_c2_matches_scaled_f2(self):
        rng = random.Random(63)
        for _ in range(8):
            s, t = self.sample_params(rng)
            f2 = resolvent_F2(CubicTriple(0, s, -s), CubicTriple(0, -t, 0))
            built = f2.compose(UniPoly(QQ, (0, 3))) / QQ(3**6)
            assert sextic_generic("S3,C2", s, t) == built

    def test_s3_id_matches_scaled_f2(self):
        rng = random.Random(64)
        for _ in range(8):
            s, _ = self.sample_params(rng)
            f2 = resolvent_F2(CubicTriple(0, s, -s), CubicTriple(0, -1, 0))
            built = f2.compose(UniPoly(QQ, (0, 3))) / QQ(3**6)
            assert sextic_generic("S3,Id", s) == built

    def test_c3_c2_matches_f2(self):
        rng = random.Random(65)
        for _ in range(8):
            s, t = self.sample_params(rng)
            f2 = resolvent_F2(CubicTriple(s, -s - 3, 1), CubicTriple(0, -t, 0))
            assert sextic_generic("C3,C2", s, t) == f2

    def test_c3_c2_exact_coefficients_at_1_1(self):
        g = sextic_generic("C3,C2", Fraction(1), Fraction(1))
        w = Fraction(13)
        assert g == UniPoly(QQ, (
            -Fraction(25) / w**4, 0, 9 / w**2, 0, -6 / w, 0, 1))

    def test_degenerate_locus_expressions(self):
        rng = random.Random(66)
        for _ in range(8):
            s, t = self.sample_params(rng)
            w = t**2 + 3 * t + 9
            ws = s**2 + 3 * s + 9
            assert degeneracy_indicator(
                CubicTriple(0, s, -s), CubicTriple(0, t, -t)
            ) == -729 * s**2 * t**2 * (4 * s * t + 27 * s + 27 * t)
            assert degeneracy_indicator(
                CubicTriple(0, s, -s), CubicTriple(t, -t - 3, 1)
            ) == 729 * s**2 * w**2 * (w + s)
            assert degeneracy_indicator(
                CubicTriple(0, s, -s), CubicTriple(0, -t, 0)
            ) == 729 * s**2 * t**3 * (4 * s + 27)
            assert degeneracy_indicator(
                CubicTriple(s, -s - 3, 1), CubicTriple(0, -t, 0)
            ) == -729 * t**3 * ws**2

    def test_integral_model_rescaling(self):
        s = Fraction(2)
        k = s * (4 * s + 27)
        h = sextic_generic("S3,Id", s).compose(UniPoly(QQ, (0, 1 / k))) * k**6
        assert h == UniPoly(QQ, (
            s**2 * (4 * s + 27) ** 3, 0, s**2 * (4 * s + 27) ** 2, 0,
            -2 * s * (4 * s + 27), 0, 1))

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            sextic_generic("C3,C3", Fraction(1), Fraction(1))
        with pytest.raises(MathDomainError):
            sextic_generic("S3,S3", Fraction(0), Fraction(1))
        # tuple form and {1} alias accepted
        assert sextic_generic(("S3", "Id"), Fraction(2)) == sextic_generic(
            "S3,{1}", Fraction(2)
        )


#: The row's cubic families at a parameter u: X^3 + uX + u, the Shanks-type
#: X^3 - uX^2 - (u + 3)X - 1, X^3 - uX and X^3 - X.
_FAMILIES = {"S3": lambda u: (0, u, -u), "C3": lambda u: (u, -u - 3, 1),
             "C2": lambda u: (0, -u, 0), "Id": lambda u: (0, -1, 0)}

#: sympy's name and the order of the Galois group of each row's sextic at a
#: generic specialization: S3 x S3, S3 x C3, S3 x C2, S3 and C3 x C2.
_SEXTIC_GROUPS = {"S3,S3": ("G36m", 36), "S3,C3": ("G18", 18),
                  "S3,C2": ("D6", 12), "S3,Id": ("S3", 6), "C3,C2": ("C6", 6)}


def _sympy_poly(coeffs):
    """The sympy Poly of rational coefficients given constant first."""
    import sympy

    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in map(Fraction, reversed(coeffs))], sympy.Symbol("x"))


def _sympy_cubic_type(triple) -> str:
    """The Galois type of f3(triple), from sympy's factor degrees and the
    square class of its discriminant."""
    import sympy

    f = _sympy_poly(CubicTriple(*triple).poly().coeffs)
    degrees = sorted(g.degree() for g, m in f.factor_list()[1] for _ in range(m))
    if degrees != [3]:
        return {(1, 2): "C2", (1, 1, 1): "Id"}[tuple(degrees)]
    return "C3" if sympy.sqrt(f.discriminant()).is_rational else "S3"


class TestSexticOracle:
    """sextic_generic against sympy's galois_group at seeded rational (s, t),
    independent of the formulas the rows are built from.

    A specialization is generic when each cubic has its row's Galois type,
    the sextic is squarefree (off the multiple-root locus, where F2 has a
    double root) and, in the rows S3,S3 and S3,C2, the quadratic subfields
    Q(sqrt(D_a)) and Q(sqrt(D_b)) differ.  Only the others may be reducible
    or have a smaller group: X^3 + sX + s has a rational root or a square
    discriminant at some s, and X^3 - tX a rational root at a square t;
    the two fields meet in Q(sqrt(D)) when D_a D_b is a square, and F2 then
    has the pattern (3, 3) of QuadraticMeet and ContainsQuadratic, or
    (1, 2, 3) when two S3 fields are equal."""

    #: Specializations with D_a D_b a square, D = -s^2 (4s + 27) for
    #: X^3 + sX + s and 4t^3 for X^3 - tX: equal fields, then QuadraticMeet,
    #: and ContainsQuadratic.
    MEETS = {"S3,S3": [(1, 1), (1, Fraction(97, 4))], "S3,C2": [(1, -31)]}

    @pytest.mark.parametrize("row", list(_SEXTIC_GROUPS))
    def test_galois_group_matches_sympy(self, row):
        import sympy
        from sympy.polys.numberfields.galoisgroups import galois_group

        rng = random.Random(f"sextic/{row}")
        params = [[Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 3))
                   for _ in "st"] for _ in range(6)]
        ga, gb = row.split(",")
        generic, meets = 0, 0
        for s, t in params + self.MEETS.get(row, []):
            a, b = (_FAMILIES[g](u) for g, u in ((ga, s), (gb, t)))
            f = _sympy_poly(sextic_generic(row, s, t).coeffs)
            types = (_sympy_cubic_type(a), _sympy_cubic_type(b))
            if types != (ga, gb) or not f.discriminant():
                continue
            degrees = sorted(g.degree() for g, m in f.factor_list()[1] for _ in range(m))
            da, db = (_sympy_poly(CubicTriple(*c).poly().coeffs).discriminant()
                      for c in (a, b))
            if row in self.MEETS and sympy.sqrt(da * db).is_rational:
                assert degrees in ([3, 3], [1, 2, 3]), (row, s, t)
                meets += 1
                continue
            assert degrees == [6], (row, s, t)
            group, _ = galois_group(f, by_name=True)
            assert (group.name, group.get_perm_group().order()) == _SEXTIC_GROUPS[row]
            generic += 1
        assert generic >= 3 and meets == len(self.MEETS.get(row, []))


# --------------------------------------------------------------------------
# Characteristic 3.
# --------------------------------------------------------------------------


class TestChar3Resolvents:
    def random_char3_pair(self, K, rng):
        while True:
            s = CubicTriple(*(rand_field_elt(K, rng) for _ in range(3)))
            t = CubicTriple(*(rand_field_elt(K, rng) for _ in range(3)))
            js = cubic_invariants(s)
            if s.values(K)[0] and t.values(K)[0] and js.D:
                return s, t

    def test_f2_char3_equals_generic_f2(self):
        for k, seed in ((2, 1), (3, 0)):
            K = gf_build(3, k, seed)
            rng = random.Random(31 + k)
            for _ in range(6):
                s, t = self.random_char3_pair(K, rng)
                assert resolvent_F2_char3(s, t) == resolvent_F2(s, t)

    def test_f2_char3_matches_oracle(self):
        hits = gf27_split_instances(
            lambda K, s: CubicTriple(s, -s - 3, K.one),
            lambda K, t: CubicTriple(t, -t - 3, K.one),
            4,
        )
        for K, s, t, xs, ys in hits:
            a = CubicTriple(s, -s - 3, K.one)
            b = CubicTriple(t, -t - 3, K.one)
            rt = RootTuple(xs=xs, ys=ys)
            assert resolvent_F2_char3(a, b) == oracle_resolvent(rt, 2)

    def test_f2_char3_preconditions(self):
        K = gf_build(3, 2, 1)
        with pytest.raises(MathDomainError):
            resolvent_F2_char3(CubicTriple(K.zero, K.one, K.one),
                               CubicTriple(K.one, K.one, K.one))
        with pytest.raises(MathDomainError):
            resolvent_F2_char3(CubicTriple(*(QQ(1), QQ(1), QQ(1))),
                               CubicTriple(*(QQ(1), QQ(1), QQ(1))))

    def test_f2_char3_equal_parameters_kill_constant(self):
        K = gf_build(3, 3, 0)
        rng = random.Random(37)
        for _ in range(5):
            s, _ = self.random_char3_pair(K, rng)
            f2 = resolvent_F2_char3(s, s)
            assert f2[0] == K.zero

    def test_f0_depressed_char3_matches_oracle(self):
        hits = gf27_split_instances(
            lambda K, s: CubicTriple(K.zero, s, -s),
            lambda K, t: CubicTriple(K.zero, t, -t),
            4,
        )
        for K, s, t, xs, ys in hits:
            a = CubicTriple(K.zero, s, -s)
            b = CubicTriple(K.zero, t, -t)
            rt = RootTuple(xs=xs, ys=ys)
            assert resolvent_F0_char3_depressed(a, b) == oracle_resolvent(rt, 0)

    def test_g0_is_depressed_f0_specialization(self):
        K = gf_build(3, 3, 0)
        rng = random.Random(53)
        for _ in range(6):
            s = rand_field_elt(K, rng, nonzero=True)
            t = rand_field_elt(K, rng, nonzero=True)
            assert resolvent_G0_char3(s, t) == resolvent_F0_char3_depressed(
                CubicTriple(K.zero, s, -s), CubicTriple(K.zero, t, -t)
            )

    def test_char3_displays_need_char3(self):
        with pytest.raises(MathDomainError):
            resolvent_G0_char3(Fraction(1), Fraction(2))
        K5 = PrimeField(5)
        with pytest.raises(MathDomainError):
            resolvent_F0_char3_depressed(
                CubicTriple(K5.zero, K5(1), K5(1)),
                CubicTriple(K5.zero, K5(1), K5(1)),
            )


class TestChar3GenericSextics:
    """Each char-3 family row equals the constant-coefficient resolvent of
    its cubic pair at parameter slot sigma = 1/s, checked against the coset
    oracle on split specializations over GF(27)."""

    def oracle_check(self, pair, mk_a, mk_b, count=3):
        hits = gf27_split_instances(mk_a, mk_b, count)
        for K, s, t, xs, ys in hits:
            rt = RootTuple(xs=xs, ys=ys)
            got = sextic_generic(pair, K.one / s, t)
            assert got == oracle_resolvent(rt, 0), (pair, s, t)

    def test_s3_s3_row(self):
        self.oracle_check(
            "S3,S3",
            lambda K, s: CubicTriple(K.zero, s, -s),
            lambda K, t: CubicTriple(K.zero, t, -t),
        )

    def test_s3_c3_row(self):
        self.oracle_check(
            "S3,C3",
            lambda K, s: CubicTriple(K.zero, s, -s),
            lambda K, t: CubicTriple(t, -t - 3, K.one),
        )

    def test_s3_c2_row(self):
        self.oracle_check(
            "S3,C2",
            lambda K, s: CubicTriple(K.zero, s, -s),
            lambda K, t: CubicTriple(K.zero, -t, K.zero),
        )

    def test_s3_id_row(self):
        K = gf_build(3, 3, 0)
        els = [e for e in K.elements() if e]
        done = 0
        for s in els:
            a = CubicTriple(K.zero, s, -s)
            f = a.poly(K)
            roots = tuple(e for e in K.elements() if not f.eval(e))
            if len(roots) != 3:
                continue
            ys = (K.zero, K.one, -K.one)
            rt = RootTuple(xs=roots, ys=ys)
            got = sextic_generic("S3,Id", K.one / s)
            assert got == oracle_resolvent(rt, 0)
            done += 1
            if done >= 3:
                break
        assert done

    def test_c3_c2_row(self):
        self.oracle_check(
            "C3,C2",
            lambda K, s: CubicTriple(s, -s - 3, K.one),
            lambda K, t: CubicTriple(K.zero, -t, K.zero),
        )

    def test_s3_s3_equals_g0(self):
        K = gf_build(3, 3, 0)
        rng = random.Random(71)
        for _ in range(6):
            sigma = rand_field_elt(K, rng, nonzero=True)
            t = rand_field_elt(K, rng, nonzero=True)
            assert sextic_generic("S3,S3", sigma, t) == (
                resolvent_G0_char3(K.one / sigma, t)
            )

    def test_s3_id_equals_s3_c2_at_t_one(self):
        K = gf_build(3, 2, 1)
        for sigma in (K((2, 0)), K((0, 1)), K((1, 2))):
            assert sextic_generic("S3,Id", sigma) == sextic_generic(
                "S3,C2", sigma, K.one
            )

    def test_other_characteristics_rejected(self):
        K5, K25 = PrimeField(5), gf_build(5, 2, 0)
        for sigma, t in ((K5(2), K5(3)), (K25.one, K25.gen()), (1, K5(3))):
            with pytest.raises(MathDomainError):
                sextic_generic("S3,S3", sigma, t)


# --------------------------------------------------------------------------
# Tschirnhausen images.
# --------------------------------------------------------------------------


class TestTschirnImage:
    def test_identity_transformation(self):
        s = CubicTriple(1, -4, 2)
        assert tschirn_image(s, (0, 1, 0)).values() == s.values()

    def test_constant_shift(self):
        s = CubicTriple.from_roots((1, 2, 4))
        shifted = tschirn_image(s, (5, 1, 0))
        assert shifted.values() == CubicTriple.from_roots((6, 7, 9)).values()

    @given(
        st.tuples(small_rat, small_rat, small_rat),
        st.tuples(small_rat, small_rat, small_rat),
    )
    @settings(max_examples=25)
    def test_image_via_split_roots(self, roots, coeffs):
        if len(set(roots)) < 3:
            return
        s = CubicTriple.from_roots(roots)
        u = UniPoly(QQ, coeffs)
        images = [u.eval(QQ(r)) for r in roots]
        expected = CubicTriple.from_roots(images)
        assert tschirn_image(s, coeffs).values() == expected.values()

    @pytest.mark.parametrize("name", sorted(IMAGE_FIELDS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_image_is_coset_product_over_finite_fields(self, name, data):
        # roots may repeat: the identity holds for any root tuple, and F_2
        # has only two elements
        field = IMAGE_FIELDS[name]
        elements = st.sampled_from(list(field.elements()))
        roots = data.draw(st.lists(elements, min_size=3, max_size=3))
        coeffs = data.draw(st.lists(elements, min_size=1, max_size=5))
        u = UniPoly(field, coeffs)
        expected = CubicTriple.from_roots([u.eval(x) for x in roots])
        assert tschirn_image(CubicTriple.from_roots(roots), coeffs) == expected

    @given(
        st.lists(huge_rat, min_size=3, max_size=3),
        st.lists(huge_rat, min_size=1, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_image_is_coset_product_over_Q(self, roots, coeffs):
        u = UniPoly(QQ, coeffs)
        expected = CubicTriple.from_roots([u.eval(x) for x in roots])
        assert tschirn_image(CubicTriple.from_roots(roots), coeffs) == expected

    def test_composition_matches_modular_composition(self):
        s = CubicTriple.from_roots((0, 1, 3))
        c1 = (1, 2, 0)
        mid = tschirn_image(s, c1)
        c2 = (0, -1, 1)
        f = s.poly()
        u1 = UniPoly(QQ, c1)
        u2 = UniPoly(QQ, c2)
        comp = u2.compose(u1) % f
        direct = tschirn_image(mid, c2)
        via_composition = tschirn_image(s, tuple(comp[i] for i in range(3)))
        assert direct.values() == via_composition.values()
