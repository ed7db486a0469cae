"""Tests for factorization over Q and F_p, rational roots, square testing."""

import json
import math
import random
from fractions import Fraction
from itertools import count
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import tschirn.decide as decide_mod
import tschirn.factorq as factorq_mod
from tschirn import zpoly
from tschirn.decide import decide_same_splitting
from tschirn.fields import QQ, PrimeField, is_prime
from tschirn.poly import UniPoly, poly_discriminant
from tschirn.resolvent import CubicTriple, cubic_invariants, resolvent_F2, tschirn_image
from tschirn.factorq import (
    Factorization,
    _cubic_integer_roots,
    _factor_fp,
    _factor_monic_int_squarefree,
    _good_prime,
    factor_over_Fp,
    factor_over_Q,
    integer_model,
    is_square_rat,
    rational_roots,
)


def qpoly(*coeffs) -> UniPoly:
    return UniPoly(QQ, coeffs)


def _sympy_factors(f: UniPoly) -> dict:
    """{monic rational irreducible: multiplicity} of f, by sympy."""
    x = sympy.symbols("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)]
    out: dict = {}
    for g, m in sympy.Poly(coeffs, x, domain="QQ").factor_list()[1]:
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(g.all_coeffs())]
        monic = UniPoly(QQ, cs).monic()
        out[monic] = out.get(monic, 0) + m
    return out


small_rats = st.fractions(min_value=-9, max_value=9, max_denominator=4)


# ------------------------------------------------------------------- F_p


class TestFactorOverFp:
    def test_split_quadratic_f5(self):
        F = PrimeField(5)
        fac = factor_over_Fp(UniPoly(F, [1, 0, 1]))
        assert fac.unit == F.one
        assert [g.coeffs for g, m in fac.factors] == [(F(2), F(1)), (F(3), F(1))]
        assert all(m == 1 for _, m in fac.factors)

    def test_irreducible_cubic_f2(self):
        F = PrimeField(2)
        f = UniPoly(F, [1, 1, 0, 1])
        fac = factor_over_Fp(f)
        assert fac.factors == ((f, 1),)

    def test_f2_full_split(self):
        F = PrimeField(2)
        # X^6 + X^5 + X^3 + X^2 = X^2 (X+1)^2 (X^2+X+1)
        f = (
            UniPoly(F, [0, 1]) ** 2
            * UniPoly(F, [1, 1]) ** 2
            * UniPoly(F, [1, 1, 1])
        )
        fac = factor_over_Fp(f)
        assert fac.degree_pattern() == (1, 1, 1, 1, 2)
        assert fac.expand() == f

    def test_pth_power_branch(self):
        F = PrimeField(3)
        # X^6 + 1 = (X^2 + 1)^3 over F_3 (derivative vanishes identically).
        f = UniPoly(F, [1, 0, 0, 0, 0, 0, 1])
        fac = factor_over_Fp(f)
        assert fac.factors == ((UniPoly(F, [1, 0, 1]), 3),)

    def test_unit_tracked(self):
        F = PrimeField(7)
        f = UniPoly(F, [3, 0, 3])  # 3(X^2 + 1); X^2+1 splits mod 7? -1 is not QR
        fac = factor_over_Fp(f)
        assert fac.unit == F(3)
        assert fac.expand() == f

    def test_deterministic(self):
        F = PrimeField(11)
        f = UniPoly(F, [5, 3, 0, 2, 0, 0, 1])
        assert factor_over_Fp(f) == factor_over_Fp(f)

    @given(st.lists(st.integers(0, 6), min_size=6, max_size=6))
    @settings(max_examples=60)
    def test_reexpansion_random_sextic_f7(self, coeffs):
        F = PrimeField(7)
        f = UniPoly(F, coeffs + [1])
        fac = factor_over_Fp(f)
        assert fac.expand() == f
        for g, _ in fac.factors:
            assert g.lc == F.one

    def test_rejects_zero_and_wrong_field(self):
        F = PrimeField(5)
        with pytest.raises(ValueError):
            factor_over_Fp(UniPoly.zero(F))
        with pytest.raises(TypeError):
            factor_over_Fp(qpoly(1, 1))


# --------------------------------------------------------------------- Q


class TestFactorOverQ:
    def test_difference_of_squares(self):
        fac = factor_over_Q(qpoly(-1, 0, 1))
        assert fac.unit == 1
        assert fac.factors == ((qpoly(-1, 1), 1), (qpoly(1, 1), 1))

    def test_displayed_sextic_with_double_root(self):
        # (X + 1/2)^2 (X - 1) (X^3 - (3/4)X - 3/4)
        half = Fraction(1, 2)
        cubic = qpoly(Fraction(-3, 4), Fraction(-3, 4), 0, 1)
        f = qpoly(half, 1) ** 2 * qpoly(-1, 1) * cubic
        fac = factor_over_Q(f)
        assert dict(fac.factors) == {
            qpoly(half, 1): 2,
            qpoly(-1, 1): 1,
            cubic: 1,
        }

    def test_displayed_sextic_with_cubic_over_7(self):
        # (X - 1)^2 (X + 2) (X^3 - 3X - 13/7)
        cubic = qpoly(Fraction(-13, 7), -3, 0, 1)
        f = qpoly(-1, 1) ** 2 * qpoly(2, 1) * cubic
        fac = factor_over_Q(f)
        assert dict(fac.factors) == {qpoly(-1, 1): 2, qpoly(2, 1): 1, cubic: 1}

    def test_cyclotomic_sextics(self):
        # X^6 - 1 = (X-1)(X+1)(X^2+X+1)(X^2-X+1)
        fac = factor_over_Q(qpoly(-1, 0, 0, 0, 0, 0, 1))
        assert fac.degree_pattern() == (1, 1, 2, 2)
        # Phi_7 is irreducible of degree 6.
        phi7 = qpoly(1, 1, 1, 1, 1, 1, 1)
        assert factor_over_Q(phi7).factors == ((phi7, 1),)

    def test_recombination_needed(self):
        # X^4 + 1 is irreducible over Q but splits modulo every prime, so
        # the subset-recombination step must reassemble it.
        f = qpoly(1, 0, 0, 0, 1)
        assert factor_over_Q(f).factors == ((f, 1),)

    def test_recombination_two_quadratics(self):
        f = qpoly(-2, 0, 1) * qpoly(-3, 0, 1) * qpoly(-6, 0, 1)
        fac = factor_over_Q(f)
        assert dict(fac.factors) == {
            qpoly(-2, 0, 1): 1,
            qpoly(-3, 0, 1): 1,
            qpoly(-6, 0, 1): 1,
        }

    def test_unit_and_denominators(self):
        f = qpoly(Fraction(3, 2), Fraction(3, 2)) * qpoly(-2, 1)
        fac = factor_over_Q(f)
        assert fac.unit == Fraction(3, 2)
        assert fac.expand() == f

    def test_high_multiplicity(self):
        f = qpoly(-1, 1) ** 3 * qpoly(2, 1) ** 2
        fac = factor_over_Q(f)
        assert dict(fac.factors) == {qpoly(-1, 1): 3, qpoly(2, 1): 2}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_over_Q(UniPoly.zero(QQ))

    @given(st.lists(small_rats, min_size=1, max_size=6), small_rats)
    @settings(max_examples=50, deadline=None)
    def test_reexpansion_random(self, coeffs, lead):
        if not lead:
            lead = Fraction(1)
        f = UniPoly(QQ, coeffs + [lead])
        fac = factor_over_Q(f)
        assert fac.expand() == f
        for g, _ in fac.factors:
            assert g.lc == 1

    def test_sympy_cross_check(self):
        # Independent oracle: sympy's factor_list on seeded random sextics.
        rng = random.Random(20260814)
        for _ in range(20):
            coeffs = [rng.randint(-8, 8) for _ in range(6)] + [rng.choice([1, 2, 3])]
            f = UniPoly(QQ, coeffs)
            assert dict(factor_over_Q(f).factors) == _sympy_factors(f), coeffs

    def test_degree_pattern_refines_mod_p(self):
        # At a good prime, factoring each rational irreducible factor mod p
        # reproduces exactly the degree pattern of f mod p: the rational
        # pattern is a coarsening of every good-prime pattern.
        from tschirn.poly import poly_gcd

        rng = random.Random(99)
        checked = 0
        while checked < 8:
            coeffs = [rng.randint(-9, 9) for _ in range(6)] + [1]
            f = UniPoly(QQ, coeffs)
            fac = factor_over_Q(f)
            if any(m > 1 for _, m in fac.factors):
                continue  # want squarefree f so good primes exist
            checked += 1
            good_primes = []
            p = 5
            while len(good_primes) < 3:
                if p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
                    F = PrimeField(p)
                    fp = UniPoly(F, coeffs)
                    if poly_gcd(fp, fp.derivative()).degree == 0:
                        good_primes.append((F, fp))
                p += 2
            for F, fp in good_primes:
                direct = factor_over_Fp(fp).degree_pattern()
                refined = []
                for g, _ in fac.factors:
                    gp = UniPoly(F, [int(c) for c in g.coeffs])
                    refined.extend(factor_over_Fp(gp).degree_pattern())
                assert tuple(sorted(refined)) == direct


def _corpus_like_f2s(rng, n: int) -> list:
    """F2 of n seeded pairs shaped like the benchmark corpus: random cubics
    with rational coefficients, Tschirnhausen images (F2 has a rational
    root), Shanks pairs (C3) and the A = 9 forms of pure cubics that the A = 0
    hop produces (F2 splits as two cubics)."""
    def rat(h):
        return Fraction(rng.randint(-10**h, 10**h),
                        rng.randint(1, 10**(h // 2) + 1))

    out = []
    while len(out) < n:
        kind = len(out) % 4
        if kind == 3:
            m, k = rng.sample(range(2, 60), 2)
            s, t = (CubicTriple(0, -3, 27 * v + Fraction(1, 27 * v)) for v in (m, k))
        elif kind == 2:
            m, k = rng.randint(-20, 20), rng.randint(-20, 20)
            s, t = CubicTriple(m, -(m + 3), 1), CubicTriple(k, -(k + 3), 1)
        else:
            h = rng.randint(1, 6)
            s = CubicTriple(rat(h), rat(h), rat(h))
            t = (CubicTriple(rat(h), rat(h), rat(h)) if kind == 0
                 else tschirn_image(s, (rat(2), rat(2), rat(2))))
        js, jt = cubic_invariants(s), cubic_invariants(t)
        if js.A and jt.A and js.D and jt.D:
            out.append(resolvent_F2(s, t))
    return out


def _golden_factor_inputs() -> list:
    """The --coeffs of the ``tschirn factor`` runs in the golden CLI data:
    resolvent sextics, X^24 + 1, products of sextics with 12- to 30-digit
    coefficients, inputs with repeated factors and the constant 5."""
    data = Path(__file__).resolve().parent / "data" / "golden_cli.json"
    runs = json.loads(data.read_text())
    coeffs = dict.fromkeys(r["argv"][2] for r in runs if r["argv"][0] == "factor")
    return [UniPoly(QQ, [Fraction(c) for c in text.split(",")]) for text in coeffs]


class TestFactorOverQAgainstSympy:
    """factor_over_Q against sympy's factor_list: factors and multiplicities."""

    def test_corpus_like_resolvents(self):
        patterns = set()
        for f in _corpus_like_f2s(random.Random(2026), 40):
            fac = factor_over_Q(f)
            assert dict(fac.factors) == _sympy_factors(f), f
            patterns.add(fac.degree_pattern())
        # the pairs reach the irreducible, (3, 3) and rational-root patterns
        assert {(6,), (3, 3)} <= patterns and any(1 in p for p in patterns)

    def test_golden_factor_inputs(self):
        inputs = _golden_factor_inputs()
        assert len(inputs) == 13
        for f in inputs:
            assert dict(factor_over_Q(f).factors) == _sympy_factors(f), f

    def test_seeded_products_with_multiplicities(self):
        # h1^e1 h2^e2 ... with random monic h_i of degree 1-3 (reducible or
        # repeated at times) and e_i <= 4: the gcd fallback of factor_over_Q
        rng = random.Random(2024)
        repeated = 0
        for _ in range(30):
            f = qpoly(rng.choice((1, 2, -3)))
            for _ in range(rng.randint(1, 3)):
                d = rng.randint(1, 3)
                h = qpoly(*([Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                             for _ in range(d)] + [1]))
                f = f * h ** rng.randint(1, 4)
            fac = factor_over_Q(f)
            assert dict(fac.factors) == _sympy_factors(f), f
            assert fac.expand() == f
            repeated += any(m > 1 for _, m in fac.factors)
        assert repeated >= 20


class TestSquarefreeShortcut:
    """factor_over_Q takes a gcd over Q only when no sieve prime 5..47
    proves the input squarefree."""

    def _gcd_calls(self, monkeypatch, f):
        calls = []
        original = factorq_mod.poly_gcd

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(factorq_mod, "poly_gcd", counting)
        fac = factor_over_Q(f)
        return fac, len(calls)

    def test_squarefree_input_runs_no_gcd(self, monkeypatch):
        f = qpoly(-2, 0, 1) * qpoly(-3, 0, 1) * qpoly(-6, 0, 1)
        fac, calls = self._gcd_calls(monkeypatch, f)
        assert calls == 0 and fac.degree_pattern() == (2, 2, 2)

    def test_repeated_factor_runs_a_gcd(self, monkeypatch):
        f = qpoly(1, 1) ** 2 * qpoly(2, 0, 1)
        fac, calls = self._gcd_calls(monkeypatch, f)
        assert calls >= 1
        assert dict(fac.factors) == {qpoly(1, 1): 2, qpoly(2, 0, 1): 1}

    def test_squarefree_modulo_no_sieve_prime_runs_a_gcd(self, monkeypatch):
        # Disc(X^2 - 3c^2) = 12c^2 with c = 5 * 7 * ... * 47
        c = math.prod(factorq_mod._SIEVE_PRIMES)
        f = qpoly(-3 * c * c, 0, 1)
        fac, calls = self._gcd_calls(monkeypatch, f)
        assert calls >= 1 and fac.factors == ((f, 1),)

    def test_squarefree_modulo_no_sieve_prime_tests_each_prime_once(self, monkeypatch):
        # the gcd is 1, so the search for a good prime starts past 47
        c = math.prod(factorq_mod._SIEVE_PRIMES)
        f = qpoly(-3 * c * c, 0, 1)
        tested = []
        original = factorq_mod._squarefree_prime

        def recording(H, primes):
            def seen():
                for q in primes:
                    tested.append(q)
                    yield q

            return original(H, seen())

        monkeypatch.setattr(factorq_mod, "_squarefree_prime", recording)
        assert factor_over_Q(f).factors == ((f, 1),)
        assert tested == [*factorq_mod._SIEVE_PRIMES, 53]

    def test_known_failures_count_towards_the_hadamard_stop(self):
        # 5, 7, ..., 47 divide Disc(X^2 - 3c^2) = 12c^2; 53 does not
        c = math.prod(factorq_mod._SIEVE_PRIMES)
        H = [-3 * c * c, 0, 1]
        assert _good_prime(H, len(factorq_mod._SIEVE_PRIMES)) == 53
        # more known failures than half the bits of the Hadamard bound
        with pytest.raises(AssertionError, match="not squarefree"):
            _good_prime(H, 200)


class TestHenselLift:
    def test_lift_to_least_sufficient_power(self, monkeypatch):
        # (X^2 + X + 1)(X^2 - 2)(X^3 - 3): p = 5, four modular factors, and
        # 5^5 is the least power of 5 at least 2 * bound + 1, so the steps go
        # 5 -> 25 -> 625 -> 3125, the last one cut from 625^2
        H = [6, 6, 3, -5, -5, -1, 1, 1]
        p = _good_prime(H)
        bound = (1 << 7) * (math.isqrt(sum(c * c for c in H)) + 1)
        N = next(n for n in count(1) if p**n >= 2 * bound + 1)
        assert (p, N) == (5, 5)
        modular = [g for g, _ in _factor_fp([c % p for c in H], p)]
        assert len(modular) == 4

        lifts = []
        original = factorq_mod._hensel_tree

        def recording(f, mod_factors, q, m_final):
            out = original(f, mod_factors, q, m_final)
            lifts.append((mod_factors, m_final, out))
            return out

        monkeypatch.setattr(factorq_mod, "_hensel_tree", recording)
        assert len(_factor_monic_int_squarefree(H)) == 3
        mod_factors, m_final, lifted = lifts[-1]  # the outermost call
        assert mod_factors == modular and m_final == p**N
        product = [1]
        for g, g0 in zip(lifted, modular):
            assert g[-1] == 1 and len(g) == len(g0)
            assert all(0 <= c < m_final for c in g)
            assert zpoly.mod(g, p) == list(g0)
            product = zpoly.mul(product, g, m_final)
        assert product == zpoly.mod(H, m_final)


# ----------------------------------------------------- roots and squares


class TestRationalRoots:
    def test_half_roots(self):
        assert rational_roots(qpoly(Fraction(-1, 4), 0, 1)) == [
            Fraction(-1, 2),
            Fraction(1, 2),
        ]

    def test_multiplicity(self):
        f = qpoly(-1, 1) ** 2 * qpoly(1, 0, 1)
        assert rational_roots(f) == [1, 1]

    def test_no_roots(self):
        assert rational_roots(qpoly(1, 0, 1)) == []

    def test_roots_actually_vanish(self):
        f = qpoly(-6, 11, -6, 1) * qpoly(5, 0, 1)
        for r in rational_roots(f):
            assert f.eval(r) == 0

    @given(st.lists(st.integers(-6, 6), min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_completeness_against_divisor_candidates(self, coeffs):
        f = UniPoly(QQ, coeffs + [1])
        found = set(rational_roots(f))
        # Monic integer polynomial: any rational root is an integer dividing
        # the constant term.
        c0 = f.coeffs[0]
        assert all(r.denominator == 1 for r in found)
        candidates = set()
        c0n = abs(int(c0))
        if c0n == 0:
            candidates.add(Fraction(0))
            nonzero = [c for c in f.coeffs if c]
            c0n = abs(int(nonzero[0])) if nonzero[0].denominator == 1 else 0
        for d in range(1, c0n + 1):
            if c0n % d == 0:
                candidates.add(Fraction(d))
                candidates.add(Fraction(-d))
        brute = {r for r in candidates if f.eval(r) == 0}
        # every brute-force root is reported, and nothing false is reported
        assert brute <= set(found)
        assert all(f.eval(r) == 0 for r in found)


def _factored_roots(f: UniPoly) -> list:
    """Rational roots with multiplicity, ascending, from the linear factors
    of factor_over_Q: the route rational_roots takes for other degrees."""
    roots = []
    for g, m in factor_over_Q(f).factors:
        if g.degree == 1:
            roots.extend([-g.coeffs[0]] * m)
    return sorted(roots)


def _from_roots(r, s, t) -> UniPoly:
    return qpoly(-r * s * t, r * s + r * t + s * t, -(r + s + t), 1)


HEIGHT = 10**12
big_ints = st.integers(-HEIGHT, HEIGHT)
# roots of height up to 10^4, so the coefficients reach about 10^12
root_rats = st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(1, 36))
coeff_rats = st.builds(Fraction, big_ints, st.integers(1, 10**3))


@st.composite
def shaped_cubics(draw):
    """Monic rational cubics of every root shape the search must handle:
    three distinct roots, (X - r)^2 (X - s), (X - r)^3, a zero root, two
    roots next to a critical point, one root and an irreducible quadratic,
    and free coefficients (almost always irreducible)."""
    shape = draw(st.sampled_from(
        ("split", "double", "triple", "zero", "near_critical", "lin_quad", "free")))
    r, s = draw(root_rats), draw(root_rats)
    if shape == "split":
        return _from_roots(r, s, draw(root_rats))
    if shape == "double":
        return _from_roots(r, r, s)
    if shape == "triple":
        return _from_roots(r, r, r)
    if shape == "zero":
        return qpoly(0, draw(coeff_rats), draw(coeff_rats), 1)
    if shape == "near_critical":
        # a critical point lies between r and r + delta
        return _from_roots(r, r + Fraction(draw(st.sampled_from((1, 2))), r.denominator), s)
    if shape == "lin_quad":
        return qpoly(-r, 1) * qpoly(draw(coeff_rats), draw(coeff_rats), 1)
    return qpoly(draw(coeff_rats), draw(coeff_rats), draw(coeff_rats), 1)


@st.composite
def integer_cubics(draw):
    """Monic integer cubics [c0, c1, c2, 1]: from integer roots at and
    next to the critical points, with a zero root, or free."""
    shape = draw(st.sampled_from(("roots", "near_critical", "lin_quad", "free")))
    r, s = draw(st.integers(-10**4, 10**4)), draw(st.integers(-10**4, 10**4))
    if shape == "free":
        return [draw(big_ints), draw(big_ints), draw(big_ints), 1]
    if shape == "lin_quad":
        p, q = draw(st.integers(-10**8, 10**8)), draw(st.integers(-10**8, 10**8))
        return [-r * q, q - r * p, p - r, 1]  # (X - r)(X^2 + pX + q)
    if shape == "roots":
        roots = (r, draw(st.sampled_from((r, s, 0))), draw(st.sampled_from((r, s, 0))))
    else:
        roots = (r, r + draw(st.integers(0, 3)), s)
    return [int(c) for c in _from_roots(*map(Fraction, roots)).coeffs]


class TestCubicRootSearch:
    """rational_roots on a cubic over Q searches the integer roots of its
    integer model instead of factoring; checked against factor_over_Q."""

    @given(shaped_cubics())
    @settings(max_examples=300, deadline=None)
    def test_matches_factoring_route(self, f):
        roots = rational_roots(f)
        assert roots == _factored_roots(f)
        assert roots == sorted(roots)
        assert all(isinstance(r, Fraction) and not f.eval(r) for r in roots)

    @given(shaped_cubics(), st.builds(Fraction, st.integers(-99, 99).filter(bool),
                                      st.integers(1, 99)))
    @settings(max_examples=100, deadline=None)
    def test_non_monic_input(self, f, lead):
        assert rational_roots(f * lead) == _factored_roots(f * lead)

    @given(integer_cubics())
    @settings(max_examples=300, deadline=None)
    def test_integer_search_matches_factoring_route(self, H):
        expected = _factored_roots(UniPoly(QQ, H))
        assert all(r.denominator == 1 for r in expected)
        assert _cubic_integer_roots(H) == [int(r) for r in expected]

    @pytest.mark.parametrize(
        "roots",
        [(0, 0, 0), (2, 2, -1), (-1, 2, 2), (5, 5, 5), (0, 0, 7), (0, 3, 4),
         (-2, 0, 2), (1, 2, 3), (10**6, 10**6 + 1, -10**6),
         (Fraction(1, 2), Fraction(1, 2), Fraction(-2, 3)),
         (Fraction(-7, 6), Fraction(1, 4), 0)],
    )
    def test_root_shapes(self, roots):
        f = _from_roots(*map(Fraction, roots))
        assert rational_roots(f) == sorted(map(Fraction, roots))

    @pytest.mark.parametrize(
        "coeffs",
        [(-2, 0, 0), (1, -3, 0), (-1, 0, Fraction(1, 2)), (HEIGHT + 1, 0, 0),
         (3, 0, 1), (Fraction(1, 9), 5, 0)],
    )
    def test_no_roots(self, coeffs):
        f = qpoly(*coeffs, 1)
        assert rational_roots(f) == [] == _factored_roots(f)

    def test_integer_model(self):
        f = qpoly(Fraction(-5, 12), Fraction(1, 6), Fraction(-3, 4), 1)
        H, ell = integer_model(f.coeffs)
        assert ell == 12 and H[-1] == 1
        assert all(isinstance(c, int) for c in H)
        assert UniPoly(QQ, H) == UniPoly(QQ, [c * ell**(3 - i) for i, c in enumerate(f.coeffs)])
        assert integer_model(qpoly(-6, 11, -6, 1).coeffs) == ([-6, 11, -6, 1], 1)


class TestRootSieve:
    """The root tables shared by _cubic_integer_roots and the scan of
    families: an integer root is a root mod every sieve prime."""

    def test_tables_match_brute_force(self):
        # a byte is 0 for no root, else kind + 1 + y: one simple root y,
        # three distinct roots with y the least, or a repeated root y
        single, three, repeated = (factorq_mod._SINGLE, factorq_mod._THREE,
                                   factorq_mod._REPEATED)
        tables = factorq_mod._cubic_root_tables()
        assert tuple(ell for ell, _ in tables) == factorq_mod._SIEVE_PRIMES
        for ell, table in tables:
            assert len(table) == ell * ell
            for a in range(ell):
                for b in range(ell):
                    roots = [y for y in range(ell) if (y**3 + a * y + b) % ell == 0]
                    multiple = [y for y in roots if (3 * y * y + a) % ell == 0]
                    code = table[a * ell + b]
                    if not roots:
                        assert code == 0, (ell, a, b)
                        continue
                    kind, y = code & 0xC0, (code & 0x3F) - 1
                    # distinct roots: 1, 3, or 2 for a double root (1 for
                    # the triple root of Y^3, a = b = 0)
                    n_roots = {single: 1, three: 3,
                               repeated: 1 if a == b == 0 else 2}[kind]
                    assert len(roots) == n_roots, (ell, a, b)
                    assert (kind == repeated) == bool(multiple), (ell, a, b)
                    assert y == (multiple or roots)[0], (ell, a, b)

    @given(st.integers(-10**15, 10**15), st.integers(-10**15, 10**15),
           st.integers(-10**15, 10**15), st.integers(0, 2))
    @settings(max_examples=300)
    def test_planted_root_passes_the_sieve(self, r, p, q, k):
        # H = (X - r)(X^2 + pX + q) with c2 = p - r = k mod 3: the change of
        # variable Y = 3X + c2 is exercised in every residue class
        p -= (p - r - k) % 3
        H = [-r * q, q - r * p, p - r, 1]
        assert H[2] % 3 == k
        assert r in _cubic_integer_roots(H)

    @pytest.mark.parametrize(
        "pair",
        [((0, 3, -2), (0, -1, 1)),   # S3 TrivialMeet, different square classes
         ((0, -1, -1), (2, 3, 1))],  # S3 Equal
    )
    def test_tables_reject_before_the_lift(self, monkeypatch, pair):
        calls = {}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counting(decide_mod, "_cubic_integer_roots")
        counting(factorq_mod, "_lifted_root")
        decide_same_splitting(CubicTriple(*pair[0]), CubicTriple(*pair[1]))
        # both cubics are searched once, and neither is lifted
        assert calls == {"_cubic_integer_roots": 2}


class TestLiftedRoots:
    """The lift from a root mod a sieve prime, against sympy's integer
    roots, and its cost on a root of 4,004 digits."""

    @staticmethod
    def _sympy_roots(H) -> list:
        x = sympy.symbols("x")
        roots = sympy.Poly(list(reversed(H)), x).ground_roots()
        return sorted(int(r) for r, m in roots.items() for _ in range(m))

    @staticmethod
    def _seeded_cubics():
        rng = random.Random(26)
        sieve = math.prod(factorq_mod._SIEVE_PRIMES)
        for e in (2, 12, 40, 100, 300):
            height = 10**e
            for _ in range(6):
                r, s, t, a, b = (rng.randint(-height, height) for _ in range(5))
                H = [-r * b, b - r * a, a - r, 1]  # (X - r)(X^2 + aX + b)
                yield H
                for roots in ((r, r, s), (r, r, r), (r, s, t)):  # double, triple, split
                    yield [int(c) for c in _from_roots(*map(Fraction, roots)).coeffs]
                yield [H[0] + sieve * rng.randint(1, height), *H[1:]]  # passes the sieve
        # Disc = 12 c^2 (r^2 - 3c^2)^2 is divisible by every sieve prime, and
        # no table has a simple root: the roots come mod the first prime past 47
        yield [3 * sieve * sieve * 10**30, -3 * sieve * sieve, -(10**30), 1]
        # (X - r)(X^2 - d), d = 1 + 5 * 7 * ... * 47 not a square: X^2 - d
        # splits mod every sieve prime, so the lift starts from three roots,
        # and the least one need not lead to r
        d = 1 + sieve
        for r in range(2, 40, 3):
            yield [r * d, -d, -r, 1]

    def test_matches_sympy_ground_roots(self):
        found = 0
        for H in self._seeded_cubics():
            roots = _cubic_integer_roots(H)
            assert roots == self._sympy_roots(H), H
            found += bool(roots)
        assert found >= 120

    @pytest.mark.parametrize("past_47, lifted_at", [((), 53), ((53,), 59)],
                             ids=["at-53", "53-divides-too"])
    def test_no_isolating_sieve_prime(self, monkeypatch, past_47, lifted_at):
        # (X - r)(X^2 - 3c^2): every prime dividing c divides the discriminant
        c = math.prod(factorq_mod._SIEVE_PRIMES + past_47)
        H = [3 * c * c * 10**30, -3 * c * c, -(10**30), 1]
        primes = []
        original = factorq_mod._lifted_root

        def recording(c0, c1, c2, xs, ell, limit):
            primes.append(ell)
            return original(c0, c1, c2, xs, ell, limit)

        monkeypatch.setattr(factorq_mod, "_lifted_root", recording)
        assert _cubic_integer_roots(H) == [10**30]
        assert primes == [lifted_at]

    def test_planted_root_of_4004_digits_takes_at_most_100_evaluations(self, monkeypatch):
        rng = random.Random(4004)
        r = rng.randint(10**4003, 10**4004 - 1)
        H = [-r * 7, 7 - r * 3, 3 - r, 1]  # (X - r)(X^2 + 3X + 7)
        evaluations = []
        original = factorq_mod._lifted_root

        def counting(c0, c1, c2, xs, ell, limit):
            # each candidate: H' mod ell, then H and H' at each squaring of
            # the modulus up to limit, then H exactly
            m, steps = ell, 0
            while m < limit:
                m, steps = m * m, steps + 1
            evaluations.append(len(xs) * (2 * steps + 2))
            return original(c0, c1, c2, xs, ell, limit)

        monkeypatch.setattr(factorq_mod, "_lifted_root", counting)
        assert _cubic_integer_roots(H) == [r]
        assert len(evaluations) == 1 and evaluations[0] <= 100


@st.composite
def shaped_quadratics(draw):
    """Rational quadratics, not always monic: a double root, two distinct
    roots, X^2 - n with n not a square, and free coefficients (almost
    always irreducible)."""
    shape = draw(st.sampled_from(("double", "split", "non_square", "free")))
    r, s = draw(root_rats), draw(root_rats)
    if shape == "double":
        f = qpoly(-r, 1) ** 2
    elif shape == "split":
        f = qpoly(-r, 1) * qpoly(-s, 1)
    elif shape == "non_square":
        n = draw(st.integers(2, 10**6).filter(lambda n: math.isqrt(n) ** 2 != n))
        f = qpoly(-Fraction(n, r.denominator**2), 0, 1)
    else:
        f = qpoly(draw(coeff_rats), draw(coeff_rats), 1)
    return f * draw(st.builds(Fraction, st.integers(-99, 99).filter(bool),
                              st.integers(1, 99)))


class TestQuadraticRoots:
    """rational_roots on a quadratic over Q takes one isqrt on its integer
    model instead of factoring; checked against factor_over_Q."""

    @given(shaped_quadratics())
    @settings(max_examples=300, deadline=None)
    def test_matches_factoring_route(self, f):
        roots = rational_roots(f)
        assert roots == _factored_roots(f)
        assert all(isinstance(r, Fraction) and not f.eval(r) for r in roots)

    @pytest.mark.parametrize(
        "coeffs, roots",
        [((Fraction(1, 4), -1), [Fraction(1, 2)] * 2), ((2, 0), []), ((0, 0), [0, 0]),
         ((-6, 1), [-3, 2]), ((Fraction(-2, 27), Fraction(1, 9)), [Fraction(-1, 3), Fraction(2, 9)])],
    )
    def test_root_shapes(self, coeffs, roots):
        assert rational_roots(qpoly(*coeffs, 1)) == roots


class TestIsSquareRat:
    def test_perfect_square(self):
        assert is_square_rat(Fraction(49)) == 7

    def test_negative(self):
        assert is_square_rat(Fraction(-216)) is None

    def test_fraction(self):
        assert is_square_rat(Fraction(4, 9)) == Fraction(2, 3)

    def test_zero(self):
        assert is_square_rat(Fraction(0)) == 0

    def test_non_square(self):
        assert is_square_rat(Fraction(8)) is None
        assert is_square_rat(Fraction(49, 2)) is None

    @given(small_rats)
    def test_square_round_trip(self, r):
        s = is_square_rat(r * r)
        assert s == abs(r)


def test_factorization_expand_empty():
    fac = Factorization(Fraction(5), ())
    assert fac.expand() == UniPoly(QQ, [5])


class TestGoodPrime:
    """The Hensel prime is chosen on int lists; it must be the least prime
    p >= 5 not dividing the discriminant, as the resultant route gives."""

    @staticmethod
    def _by_discriminant(H):
        disc = poly_discriminant(UniPoly(QQ, H))
        p = 5
        while not (is_prime(p) and disc.numerator % p):
            p += 2
        return p

    @given(st.lists(st.integers(-30, 30), min_size=2, max_size=6))
    @settings(max_examples=150)
    def test_matches_discriminant_route(self, low):
        H = low + [1]
        if poly_discriminant(UniPoly(QQ, H)) == 0:
            with pytest.raises(AssertionError):
                _good_prime(H)
        else:
            assert _good_prime(H) == self._by_discriminant(H)

    def test_examples(self):
        # Disc(X^2 - 5 * 7 * 11) = 4 * 385 rules out 5, 7 and 11
        assert _good_prime([-385, 0, 1]) == 13
        assert _good_prime([1, 0, 0, 0, 0, 1]) == 7  # X^5 + 1 = (X + 1)^5 mod 5

    @pytest.mark.parametrize(
        "H", [[0, 0, 1], [4, -4, 1], [-4, 8, -5, 1], [0, 0, 0, 0, 0, 0, 1]]
    )
    def test_not_squarefree_raises(self, H):
        with pytest.raises(AssertionError):
            _good_prime(H)
