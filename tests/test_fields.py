"""Tests for exact scalar arithmetic (Q, F_p, GF(p^k))."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tschirn.fields import (
    QQ,
    ExtField,
    FpElement,
    PrimeField,
    field_of,
    gf_build,
    is_prime,
    rat_format,
    rat_parse,
)

# ---------------------------------------------------------------- rationals


class TestRatParse:
    def test_integer(self):
        assert rat_parse("-27") == Fraction(-27)

    def test_fraction_reduces(self):
        assert rat_parse("3/6") == Fraction(1, 2)

    def test_leading_plus(self):
        assert rat_parse("+4/2") == Fraction(2)

    def test_zero_numerator(self):
        assert rat_parse("0/5") == Fraction(0)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            rat_parse("1/0")

    @pytest.mark.parametrize("bad", ["", "1/2/3", "1.5", "a", "1/-2", "/3", "2/"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            rat_parse(bad)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_round_trip(self, p, q):
        r = Fraction(p, q)
        assert rat_parse(rat_format(r)) == r


def test_qq_coercion():
    assert QQ(3) == Fraction(3)
    assert QQ(Fraction(1, 2)) == Fraction(1, 2)
    assert QQ.char == 0
    assert field_of(Fraction(1, 3)) is QQ
    assert field_of(7) is QQ
    with pytest.raises(TypeError):
        QQ(1.5)


# ---------------------------------------------------------------- primality


def test_is_prime_small_sieve():
    sieve = [False, False] + [True] * 999
    for i in range(2, 32):
        if sieve[i]:
            for j in range(i * i, 1001, i):
                sieve[j] = False
    for n in range(1001):
        assert is_prime(n) == sieve[n], n


def test_is_prime_large():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**61 + 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


# ---------------------------------------------------------------- F_p


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(10)
    with pytest.raises(ValueError):
        PrimeField(1 << 62)


def test_fp_basic_arithmetic():
    F = PrimeField(7)
    a, b = F(3), F(5)
    assert a + b == F(1)
    assert a - b == F(5)
    assert a * b == F(1)
    assert a / b == a * b.inverse()
    assert b.inverse() * b == F.one
    assert -a == F(4)
    assert a**6 == F.one  # Fermat
    assert 2 + a == F(5)  # int on the left
    assert 1 / b == b.inverse()


def test_fp_zero_inverse():
    F = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()


def test_fp_mixed_moduli_rejected():
    with pytest.raises(TypeError):
        PrimeField(5)(2) + PrimeField(7)(3)


@given(
    st.sampled_from([2, 3, 5, 7, 11, 101]),
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(-50, 50),
)
def test_fp_ring_axioms(p, x, y, z):
    F = PrimeField(p)
    a, b, c = F(x), F(y), F(z)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + F.zero == a
    assert a * F.one == a
    if b:
        assert (a / b) * b == a


# ---------------------------------------------------------------- GF(p^k)


def test_gf_build_gf4():
    K = gf_build(2, 2, 0)
    assert K.modulus == (1, 1, 1)  # X^2 + X + 1, the only choice
    x = K.gen()
    assert x * x == x + 1  # X^2 = X + 1 mod the modulus
    assert x**3 == K.one


def test_gf_build_gf27_seed0():
    K = gf_build(3, 3, 0)
    assert K.modulus == (1, 2, 0, 1)  # X^3 + 2X + 1, first in counter order
    x = K.gen()
    assert x**3 + 2 * x + 1 == K.zero


def test_gf_build_tests_each_candidate_once(monkeypatch):
    import tschirn.fields as fields_mod

    calls = []
    real = fields_mod._irreducible_mod_p
    monkeypatch.setattr(fields_mod, "_irreducible_mod_p",
                        lambda f, p: calls.append(tuple(f)) or real(f, p))
    K = gf_build(3, 3, 0)
    # counter values j = 0..7; the eighth, 1 + 2*3, is the modulus
    assert len(calls) == 8 and len(set(calls)) == 8
    assert calls[-1] == K.modulus


def test_gf_build_degree_one():
    K = gf_build(3, 1, 0)
    assert K.modulus == (0, 1)  # the polynomial X itself
    assert K(5) == K(2)


def test_gf_build_seed_wraparound():
    # All seeds produce a valid field; nearby seeds give the same modulus
    # when no irreducible lies between them.
    K0 = gf_build(2, 2, 3)
    assert K0.modulus == (1, 1, 1)
    K1 = gf_build(2, 2, 4)  # wraps past X^2+X+1 back to the start
    assert K1.modulus == (1, 1, 1)


def test_ext_field_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        ExtField(2, 2, (1, 0, 1))  # X^2 + 1 = (X+1)^2 over F_2


@pytest.mark.parametrize("modulus, p", [
    ((0, 0, 1), 3),  # X^2
    ((1, 0, 2, 0, 1), 3),  # (X^2 + 1)^2, a square of an irreducible quadratic
    ((1, 1, 0, 1, 1), 2),  # (X + 1)^2 (X^2 + X + 1)
])
def test_ext_field_rejects_non_squarefree_modulus(modulus, p):
    with pytest.raises(ValueError, match="reducible"):
        ExtField(p, len(modulus) - 1, modulus)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gf_degree_one_generator_is_root_of_modulus(p):
    for seed in range(p):
        K = gf_build(p, 1, seed)
        assert K.gen() == K(-K.modulus[0])


@pytest.mark.parametrize("p, k", [(2, 4), (3, 3), (5, 2), (7, 3)])
def test_gf_powers_match_repeated_products(p, k):
    K = gf_build(p, k, 0)
    x = K.gen()
    for a in (K.zero, K.one, x, x + 1, 2 * x * x - x + 1):
        power = K.one
        for n in range(2 * (p**k - 1) + 2):
            assert a**n == power, (a, n)
            power = power * a
        if a:
            assert a**-1 == a.inverse()
            assert a**-3 * a**3 == K.one
        else:
            with pytest.raises(ZeroDivisionError):
                a**-1


def test_gf27_all_inverses():
    K = gf_build(3, 3, 0)
    n = 0
    for a in K.elements():
        if a:
            assert a * a.inverse() == K.one
            n += 1
    assert n == 26


def test_gf27_multiplicative_order():
    K = gf_build(3, 3, 0)
    for a in K.elements():
        if a:
            assert a**26 == K.one


def test_gf27_frobenius_fixed_field():
    # x -> x^3 fixes exactly the prime field inside GF(27).
    K = gf_build(3, 3, 0)
    fixed = [a for a in K.elements() if a**3 == a]
    assert len(fixed) == 3
    assert all(a in (K(0), K(1), K(2)) for a in fixed)


def test_gf_coercion_of_lists():
    K = gf_build(3, 3, 0)
    x = K.gen()
    assert K([1, 0, 0, 1]) == 1 + x**3  # reduced mod the modulus
    assert K([0, 0, 0, 1]) == x**3


@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
@settings(max_examples=60)
def test_gf27_ring_axioms(i, j, k):
    K = gf_build(3, 3, 0)
    els = list(K.elements())
    a, b, c = els[i], els[j], els[k]
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a - a == K.zero
    if b:
        assert (a / b) * b == a


def test_gf_element_int_mixing():
    K = gf_build(5, 2, 0)
    x = K.gen()
    assert 2 * x + 3 == K([3, 2])
    assert (x + 1) - 1 == x
