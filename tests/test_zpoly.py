"""The int-list polynomial kernel against UniPoly over PrimeField, and
factor_over_Fp (built on it) against brute-force irreducibility checks."""

from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tschirn import zpoly
from tschirn.factorq import factor_over_Fp
from tschirn.fields import PrimeField
from tschirn.poly import UniPoly, poly_gcd

PRIMES = (2, 3, 5, 101)


@st.composite
def poly_pair(draw, max_degree=7):
    """(p, a, b): two reduced, trimmed int lists over F_p, b nonzero."""
    p = draw(st.sampled_from(PRIMES))
    coeffs = st.lists(st.integers(0, p - 1), max_size=max_degree + 1)
    a = zpoly.trim(draw(coeffs))
    b = zpoly.trim(draw(coeffs))
    if not b:
        b = [draw(st.integers(1, p - 1))]
    return p, a, b


def up(p, c) -> UniPoly:
    return UniPoly(PrimeField(p), c)


def ints(f: UniPoly) -> list:
    return [c.val for c in f.coeffs]


def deg(a) -> int:
    return len(a) - 1


@given(poly_pair())
def test_mul_matches_unipoly(case):
    p, a, b = case
    assert zpoly.mul(a, b, p) == ints(up(p, a) * up(p, b))


@given(poly_pair())
def test_divmod_matches_unipoly(case):
    p, a, b = case
    q, r = divmod(up(p, a), up(p, b))
    assert zpoly.divmod_mod(a, b, p) == (ints(q), ints(r))


@given(poly_pair())
def test_gcd_matches_unipoly(case):
    p, a, b = case
    assert zpoly.gcd(a, b, p) == ints(poly_gcd(up(p, a), up(p, b)))


@given(poly_pair())
def test_xgcd_bezout_and_degree_bounds(case):
    p, a, b = case
    g, s, t = zpoly.xgcd(a, b, p)
    assert g == ints(poly_gcd(up(p, a), up(p, b)))
    assert zpoly.add(zpoly.mul(s, a, p), zpoly.mul(t, b, p), p) == g
    if deg(g) < min(deg(a), deg(b)):
        assert deg(s) < deg(b) - deg(g)
        assert deg(t) < deg(a) - deg(g)


@given(poly_pair(max_degree=4), st.integers(0, 40))
def test_powmod_matches_unipoly(case, e):
    p, base, modulus = case
    if deg(modulus) < 1:
        modulus = modulus + [1]
    expect = UniPoly.one(PrimeField(p)) % up(p, modulus)
    for _ in range(e):
        expect = expect * up(p, base) % up(p, modulus)
    assert zpoly.powmod(base, e, modulus, p) == ints(expect)


@given(poly_pair(), st.integers(1, 4))
def test_divmod_by_monic_modulo_prime_power(case, e):
    p, a, b = case
    m = p**e
    b = b + [1]
    q, r = zpoly.divmod_mod(a, b, m)
    assert zpoly.add(zpoly.mul(q, b, m), r, m) == a
    assert len(r) < len(b)


@given(poly_pair())
def test_divmod_monic_over_z(case):
    _, a, b = case
    b = [c - 3 for c in b] + [1]  # monic with negative coefficients
    q, r = zpoly.divmod_monic(a, b)
    back = [0] * max(len(a), len(q) + len(b) - 1, len(r))
    for i, qi in enumerate(q):
        for j, bj in enumerate(b):
            back[i + j] += qi * bj
    for i, ri in enumerate(r):
        back[i] += ri
    assert zpoly.trim(back) == a
    assert len(r) < len(b)


# ------------------------------------------------- factor_over_Fp soundness


def monic_polys(p, d):
    """Every monic polynomial of degree d over F_p."""
    for low in product(range(p), repeat=d):
        yield up(p, list(low) + [1])


def assert_complete_factorization(f: UniPoly):
    p = f.field.p
    fac = factor_over_Fp(f)
    assert fac.expand() == f
    for g, m in fac.factors:
        assert m >= 1 and g.lc == 1
        for d in range(1, g.degree // 2 + 1):
            assert all(g % h for h in monic_polys(p, d)), (g, d)


@st.composite
def small_fp_poly(draw):
    """Nonzero f over F_p, p <= 5, degree <= 5, often with repeated factors
    or as a p-th power (f' = 0)."""
    p = draw(st.sampled_from((2, 3, 5)))
    shape = draw(st.sampled_from(("plain", "repeated", "pth-power")))
    low = st.lists(st.integers(0, p - 1), min_size=1, max_size=2)
    if shape == "pth-power":
        g = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=5 // p))
        coeffs = [0] * (p * len(g) + 1)
        for i, c in enumerate(g + [1]):
            coeffs[p * i] = c
        return up(p, coeffs)
    if shape == "repeated":
        g = up(p, draw(low) + [1])
        h = up(p, draw(st.lists(st.integers(0, p - 1), max_size=2)) + [1])
        f = g**2 * h
        if f.degree > 5:
            f = g**2
        return f * draw(st.integers(1, p - 1))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=5))
    return up(p, coeffs + [draw(st.integers(1, p - 1))])


@given(small_fp_poly())
@settings(max_examples=150)
def test_factor_over_fp_is_complete(f):
    assert_complete_factorization(f)


def test_factor_over_fp_pth_power_and_repeated_examples():
    F3 = PrimeField(3)
    # X^6 + 2X^3 + 1 = (X^3 + 1)^2 = (X + 1)^6 over F_3
    f = UniPoly(F3, [1, 0, 0, 2, 0, 0, 1])
    assert factor_over_Fp(f).factors == ((UniPoly(F3, [1, 1]), 6),)
    F2 = PrimeField(2)
    # X^4 + X^2 + 1 = (X^2 + X + 1)^2 over F_2
    g = UniPoly(F2, [1, 0, 1, 0, 1])
    assert factor_over_Fp(g).factors == ((UniPoly(F2, [1, 1, 1]), 2),)
    for h in (f, g):
        assert_complete_factorization(h)


# Every irreducible cubic and quartic over F_2, and three of the six quintics.
F2_SAME_DEGREE = (
    ([1, 1, 0, 1], [1, 0, 1, 1]),
    ([1, 1, 0, 0, 1], [1, 0, 0, 1, 1], [1, 1, 1, 1, 1]),
    ([1, 0, 1, 0, 0, 1], [1, 0, 0, 1, 0, 1], [1, 1, 1, 1, 0, 1]),
)


@pytest.mark.parametrize("irreducibles", F2_SAME_DEGREE)
@pytest.mark.parametrize("cofactor", [[], [[1, 1, 1], [1, 1, 1]], [[0, 1], [1, 1]]],
                         ids=["alone", "square", "X(X+1)"])
def test_f2_products_of_same_degree_irreducibles(irreducibles, cofactor):
    """Over F_2 the equal-degree split of two or more irreducibles of one
    degree d >= 2 runs on the trace map."""
    for n in range(2, len(irreducibles) + 1):
        planted = list(irreducibles[:n]) + cofactor
        f = up(2, [1])
        for g in planted:
            f = f * up(2, g)
        expect = sorted(Counter(map(tuple, planted)).items(),
                        key=lambda kv: (len(kv[0]), kv[0]))
        assert [(tuple(ints(g)), m) for g, m in factor_over_Fp(f).factors] == expect
        assert_complete_factorization(f)

