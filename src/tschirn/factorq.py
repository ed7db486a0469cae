"""Complete univariate factorization over Q and over F_p, rational-root
extraction, and exact square testing.

Over F_p: squarefree decomposition (with the p-th-root step), distinct-degree
splitting (``zpoly.distinct_degree``), then Cantor–Zassenhaus equal-degree
splitting driven by a PRNG seeded deterministically from the input, so
output is reproducible; for p = 2 it splits by the trace map instead of a
(p^d - 1)/2 power.  This core works on the int lists of ``zpoly``;
``factor_over_Fp`` converts from and to ``UniPoly`` only at its entry and
exit.

Over Q: take the monic integer model ell^d f(X/ell) (``integer_model``) of
the monic input g.  If gcd(H, H') = 1 modulo a prime p in 5..47, H is
squarefree over Q and is factored with that p at once; only otherwise is
the squarefree part g / gcd(g, g') factored, through its own integer model,
and each factor's multiplicity read by exact division of gcd(g, g').  A
squarefree H is factored modulo a good prime p with the int-list F_p core,
Hensel-lifted (binary factor tree, quadratic steps in ``zpoly``
arithmetic, the last one cut) to p^N, the least power of p above twice the
Landau–Mignotte coefficient bound, and its factor subsets are recombined
exhaustively.

Rational roots of a quadratic or a cubic over Q need no factoring: they
are the integer roots of its monic integer model divided by ell.  A
quadratic's come from one isqrt of its discriminant
(``_quadratic_integer_roots``); a cubic's are found by exact integer
bisection over its monotone segments, with the last two from the quotient
quadratic (``_cubic_integer_roots``), unless no root mod some prime 5..47
proves first that there is none (``_cubic_root_tables``, shared with the
scan of ``families``).  Roots of other degrees are read off
``factor_over_Q``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, count, islice

from . import zpoly
from .fields import QQ, PrimeField, field_of, is_prime
from .poly import UniPoly, poly_gcd

# Primes tried by factor_over_Q for a proof that its input is squarefree,
# and the moduli of the cubic root sieve (_cubic_root_tables).
_SIEVE_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# --------------------------------------------------------------------------
# Factorization container.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """unit · Π factor^multiplicity = the input, factors monic irreducible,
    sorted by (degree, ascending-coefficient lexicographic order)."""

    unit: object
    factors: tuple  # of (UniPoly, int)

    def expand(self) -> UniPoly:
        field = self.factors[0][0].field if self.factors else field_of(self.unit)
        out = UniPoly.constant(field, self.unit)
        for g, m in self.factors:
            out = out * g**m
        return out

    def degree_pattern(self) -> tuple:
        """Factor degrees with multiplicity, sorted ascending: e.g. (1,1,1,3)."""
        degs = []
        for g, m in self.factors:
            degs.extend([g.degree] * m)
        return tuple(sorted(degs))

    def __iter__(self):
        return iter(self.factors)


# --------------------------------------------------------------------------
# The monic integer model of a monic rational polynomial.
# --------------------------------------------------------------------------


def integer_model(coeffs) -> tuple:
    """(H, ell) for the ascending coefficients (ints or Fractions) of a
    monic rational f of degree d: ell is the lcm of their denominators and
    H = ell^d f(X / ell), a monic polynomial with integer coefficients, as
    an int list.  The roots of H are ell times the roots of f.

    >>> integer_model((Fraction(1, 4), Fraction(-1, 2), 0, 1))
    ([16, -8, 0, 1], 4)
    """
    ell = math.lcm(*(c.denominator for c in coeffs))
    d = len(coeffs) - 1
    return [c.numerator * (ell ** (d - i) // c.denominator)
            for i, c in enumerate(coeffs)], ell


# --------------------------------------------------------------------------
# Factorization over F_p, on int lists (see zpoly).
# --------------------------------------------------------------------------


def _pth_root_fp(f: list, p: int) -> list:
    """For f with f' = 0 over F_p: the unique h with h(X)^p = f(X).
    (Coefficients of F_p are their own p-th roots.)"""
    return f[::p]


def _squarefree_decompose_fp(f: list, p: int) -> dict:
    """Monic f over F_p -> {squarefree monic part (tuple): multiplicity}."""
    out: dict = {}
    if len(f) <= 1:
        return out
    c = zpoly.gcd(f, zpoly.mod([i * f[i] for i in range(1, len(f))], p), p)
    w = zpoly.divmod_mod(f, c, p)[0]
    i = 1
    while len(w) > 1:
        y = zpoly.gcd(w, c, p)
        z = tuple(zpoly.divmod_mod(w, y, p)[0])
        if len(z) > 1:
            out[z] = out.get(z, 0) + i
        w = y
        c = zpoly.divmod_mod(c, y, p)[0]
        i += 1
    if len(c) > 1:
        for g, m in _squarefree_decompose_fp(_pth_root_fp(c, p), p).items():
            out[g] = out.get(g, 0) + m * p
    return out


def _equal_degree_split_fp(f: list, d: int, p: int, rng: random.Random) -> list:
    """Cantor–Zassenhaus split of a product of degree-d irreducibles: by the
    gcd with r^((p^d - 1)/2) - 1 for odd p, and with the trace
    r + r^2 + r^4 + ... + r^(2^(d-1)) for p = 2."""
    if len(f) - 1 == d:
        return [f]
    while True:
        r = zpoly.trim([rng.randrange(p) for _ in range(len(f) - 1)])
        if len(r) < 2:
            continue
        g = zpoly.gcd(f, r, p)
        if len(g) == 1:
            if p == 2:
                s = t = r
                for _ in range(d - 1):
                    s = zpoly.powmod(s, 2, f, 2)
                    t = zpoly.add(t, s, 2)
            else:
                t = zpoly.sub(zpoly.powmod(r, (p**d - 1) // 2, f, p), [1], p)
            g = zpoly.gcd(f, t, p)
        if 1 < len(g) < len(f):
            return _equal_degree_split_fp(g, d, p, rng) + _equal_degree_split_fp(
                zpoly.divmod_mod(f, g, p)[0], d, p, rng
            )


def _factor_fp(f: list, p: int) -> list:
    """Monic f over F_p of degree >= 1 -> [(monic irreducible as an int
    tuple, multiplicity)], sorted by (degree, coefficients)."""
    rng = random.Random(f"fp:{p}:" + ",".join(str(c) for c in f))
    found: dict = {}
    for piece, mult in _squarefree_decompose_fp(f, p).items():
        for prod, d in zpoly.distinct_degree(piece, p):
            for h in _equal_degree_split_fp(prod, d, p, rng):
                h = tuple(h)
                found[h] = found.get(h, 0) + mult
    return sorted(found.items(), key=lambda kv: (len(kv[0]), kv[0]))


def factor_over_Fp(f: UniPoly) -> Factorization:
    """Complete factorization over a prime field (deterministic output)."""
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    F = f.field
    if not isinstance(F, PrimeField):
        raise TypeError("factor_over_Fp expects a polynomial over a prime field")
    if f.degree == 0:
        return Factorization(f.lc, ())
    g = zpoly.monic([c.val for c in f.coeffs], F.p)
    factors = tuple((UniPoly(F, h), m) for h, m in _factor_fp(g, F.p))
    return Factorization(f.lc, factors)


# --------------------------------------------------------------------------
# Factorization over Q: Hensel lifting and recombination on int lists.
# --------------------------------------------------------------------------


def _product(polys, m: int) -> list:
    out = [1]
    for g in polys:
        out = zpoly.mul(out, g, m)
    return out


def _hensel_step(f, g, h, s, t, M: int):
    """One quadratic lift of the factors (von zur Gathen–Gerhard, Alg.
    15.10): from modulus m to any M with m | M | m^2, returning monic g1 ≡ g
    and h1 ≡ h (mod m) with f ≡ g1·h1 (mod M).

    Preconditions: f ≡ g·h (mod m), s·g + t·h ≡ 1 (mod m), g and h monic,
    deg s < deg h, deg t < deg g.  All polynomials are int lists.
    """
    add, sub, mul = zpoly.add, zpoly.sub, zpoly.mul
    e = sub(f, mul(g, h, M), M)
    q, r = zpoly.divmod_mod(mul(s, e, M), h, M)
    g1 = add(add(g, mul(t, e, M), M), mul(q, g, M), M)
    h1 = add(h, r, M)
    assert g1 and g1[-1] == 1 and h1 and h1[-1] == 1, "Hensel step broke monicity"
    return g1, h1


def _cofactor_step(g1, h1, s, t, M: int):
    """The second half of the lift: cofactors s1 ≡ s, t1 ≡ t (mod m) with
    s1·g1 + t1·h1 ≡ 1 (mod M) for the g1, h1 that _hensel_step returned,
    m | M | m^2."""
    add, sub, mul = zpoly.add, zpoly.sub, zpoly.mul
    b = sub(add(mul(s, g1, M), mul(t, h1, M), M), [1], M)
    c, d = zpoly.divmod_mod(mul(s, b, M), h1, M)
    s1 = sub(s, d, M)
    t1 = sub(sub(t, mul(t, b, M), M), mul(c, g1, M), M)
    return s1, t1


def _lift_pair(f, g, h, s, t, p: int, m_final: int):
    """Lift f ≡ g·h (mod p), with s·g + t·h ≡ 1 (mod p), to f ≡ g·h
    (mod m_final), m_final a power of p: quadratic steps m -> m^2, the last
    one cut to m_final, which divides its m^2.  The cofactors are not lifted
    on the last step, since nothing reads them after it."""
    m = p
    while m < m_final:
        m = min(m * m, m_final)
        g, h = _hensel_step(f, g, h, s, t, m)
        if m < m_final:
            s, t = _cofactor_step(g, h, s, t, m)
    return g, h


def _hensel_tree(f: list, mod_factors: list, p: int, m_final: int) -> list:
    """Lift every factor in the binary product tree to modulus m_final
    (f is reduced modulo m_final and ≡ Π mod_factors modulo p)."""
    if len(mod_factors) == 1:
        return [f]
    half = len(mod_factors) // 2
    g0 = _product(mod_factors[:half], p)
    h0 = _product(mod_factors[half:], p)
    one, s, t = zpoly.xgcd(g0, h0, p)
    assert one == [1], "factors not coprime mod p (image not squarefree)"
    g, h = _lift_pair(f, g0, h0, s, t, p, m_final)
    return _hensel_tree(g, mod_factors[:half], p, m_final) + _hensel_tree(
        h, mod_factors[half:], p, m_final
    )


def _center(c: int, m: int) -> int:
    return c - m if c > m // 2 else c


def _squarefree_prime(H: list, primes):
    """The first p of primes with gcd(H, H') = 1 modulo p, or None.  For
    monic H such a p proves Disc H != 0 (Res(H, H') reduces to the
    resultant modulo p, which is not 0), so H is squarefree over Q."""
    dH = [i * H[i] for i in range(1, len(H))]
    return next((p for p in primes
                 if zpoly.gcd(zpoly.mod(H, p), zpoly.mod(dH, p), p) == [1]), None)


def _good_prime(H: list) -> int:
    """The least prime p >= 5 modulo which the monic H stays squarefree.  A
    prime that fails divides Disc H, which, unless 0, is below the Hadamard
    bound 2^b of the Sylvester matrix of H and H'; so more than b/2 failures
    prove that H is not squarefree."""
    dH = [i * H[i] for i in range(1, len(H))]
    norm_H, norm_dH = (math.isqrt(sum(c * c for c in g)) + 1 for g in (H, dH))
    b = (norm_H ** (len(H) - 2) * norm_dH ** (len(H) - 1)).bit_length()
    p = _squarefree_prime(H, islice(filter(is_prime, count(5, 2)), b // 2 + 1))
    if p is None:
        raise AssertionError("H is not squarefree")
    return p


def _factor_monic_int_squarefree(H: list, p=None) -> list:
    """Monic squarefree integer polynomial -> monic integer irreducibles,
    via the prime p modulo which H is squarefree (found by _good_prime when
    not given)."""
    d = len(H) - 1
    if d <= 1:
        return [H]
    p = p or _good_prime(H)
    modular = [g for g, _ in _factor_fp([c % p for c in H], p)]
    if len(modular) == 1:
        return [H]
    # Landau–Mignotte: coefficients of any monic factor are bounded by
    # 2^deg · ||H||_2; lift to the least power of p above twice that.
    bound = (1 << d) * (math.isqrt(sum(c * c for c in H)) + 1)
    m_final = p
    while m_final < 2 * bound + 1:
        m_final *= p
    lifted = _hensel_tree(zpoly.mod(H, m_final), modular, p, m_final)

    result = []
    remaining = list(range(len(lifted)))
    current = list(H)
    k = 1
    while 2 * k <= len(remaining):
        found = False
        for subset in combinations(remaining, k):
            cand = _product([lifted[i] for i in subset], m_final)
            cand = [_center(c, m_final) for c in cand]
            q, r = zpoly.divmod_monic(current, cand)
            if not r:
                result.append(cand)
                current = q
                remaining = [i for i in remaining if i not in subset]
                found = True
                break
        if not found:
            k += 1
    if len(current) - 1 > 0:
        result.append(current)
    return result


def _factor_squarefree_q(H: list, ell: int, p=None) -> list:
    """Monic rational irreducibles of the squarefree monic q whose integer
    model (integer_model) is (H, ell); p as for _factor_monic_int_squarefree."""
    out = []
    for hj in _factor_monic_int_squarefree(H, p):
        # hj(ell X) / ell^d is the monic rational factor of q
        d = len(hj) - 1
        out.append(UniPoly(QQ, (Fraction(c, ell ** (d - i))
                                for i, c in enumerate(hj))))
    return out


def factor_over_Q(f: UniPoly) -> Factorization:
    """Complete factorization into monic rational irreducibles, with unit.
    When no prime of _SIEVE_PRIMES proves the monic input g squarefree, the
    squarefree part g / c, c = gcd(g, g'), is factored instead: a factor h
    of multiplicity m in g has multiplicity m - 1 in c, found by exact
    division of c, one divmod per power of h."""
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    if f.field != QQ:
        raise TypeError("factor_over_Q expects a polynomial over Q")
    unit = f.lc
    g = f.monic()
    if g.degree == 0:
        return Factorization(unit, ())
    H, ell = integer_model(g.coeffs)
    p = _squarefree_prime(H, _SIEVE_PRIMES)
    if p is not None:
        factors = [(h, 1) for h in _factor_squarefree_q(H, ell, p)]
    else:
        factors = []
        c = poly_gcd(g, g.derivative())
        for h in _factor_squarefree_q(*integer_model((g // c).coeffs)):
            m = 1
            while c.degree >= h.degree and not (qr := divmod(c, h))[1]:
                c, m = qr[0], m + 1
            factors.append((h, m))
    factors.sort(key=lambda hm: (hm[0].degree, hm[0].coeffs))
    return Factorization(unit, tuple(factors))


# --------------------------------------------------------------------------
# Rational roots and exact squares.
# --------------------------------------------------------------------------


def rational_roots(f: UniPoly) -> list:
    """All rational roots with multiplicity, ascending.  A quadratic or a
    cubic over Q is not factored: its roots are ell^-1 times the integer
    roots of its monic integer model (see integer_model,
    _quadratic_integer_roots and _cubic_integer_roots).  Other degrees read
    the linear factors of factor_over_Q."""
    if not f:
        raise ValueError("every rational is a root of the zero polynomial")
    if f.degree in (2, 3) and f.field is QQ:
        H, ell = integer_model((f if f.lc == 1 else f.monic()).coeffs)
        search = _cubic_integer_roots if f.degree == 3 else _quadratic_integer_roots
        return [Fraction(r, ell) for r in search(H)]
    roots = []
    for g, m in factor_over_Q(f).factors:
        if g.degree == 1:
            roots.extend([-g.coeffs[0]] * m)
    return sorted(roots)


@cache
def _cubic_root_tables() -> tuple:
    """For each sieve prime l, the pair (l, table): table[a*l + b] is 1 when
    Y^3 + aY + b has a root mod l, else 0.  Built on first use."""
    tables = []
    for ell in _SIEVE_PRIMES:
        table = bytearray(ell * ell)
        for a in range(ell):
            for y in range(ell):
                table[a * ell + (-(y * y * y + a * y)) % ell] = 1
        tables.append((ell, bytes(table)))
    return tuple(tables)


def _cubic_integer_roots(H: list) -> list:
    """The integer roots, with multiplicity and ascending, of the monic
    integer cubic H = [c0, c1, c2, 1], with no factoring.

    Y = 3X + c2 gives 27 H = Y^3 + pY + q with the p, q below, so no root
    of Y^3 + pY + q mod a sieve prime l != 3 proves that H has none; a
    cubic that passes every prime goes to _searched_integer_roots."""
    c0, c1, c2 = H[0], H[1], H[2]
    p, q = 9 * c1 - 3 * c2 * c2, 27 * c0 - 9 * c1 * c2 + 2 * c2 * c2 * c2
    for ell, table in _cubic_root_tables():
        if not table[p % ell * ell + q % ell]:
            return []
    return _searched_integer_roots(c0, c1, c2)


def _searched_integer_roots(c0: int, c1: int, c2: int) -> list:
    """_cubic_integer_roots([c0, c1, c2, 1]), by exact search.

    H' = 3X^2 + 2 c2 X + c1 vanishes at (-c2 -+ sqrt(c2^2 - 3 c1)) / 3.
    With s = isqrt(c2^2 - 3 c1) and e1, e2 the floors of (-c2 -+ s) / 3,
    the critical points lie in (e1 - 1, e1 + 1) and [e2, e2 + 1), so the
    integers within 2 of e1 and e2 are tried directly and H is strictly
    monotone on [.., e1 - 2], [e1 + 2, e2 - 2] and [e2 + 2, ..]; with no
    critical points it increases everywhere.  Each segment, cut to the
    Fujiwara bound on the roots, is bisected exactly.  The first root r
    found is divided out and the quotient quadratic solved with isqrt."""

    def h(x: int) -> int:
        return ((x + c2) * x + c1) * x + c0

    # Fujiwara: |root| <= 2 max(|c2|, |c1|^(1/2), |c0/2|^(1/3)); a power
    # of two above each root of a coefficient keeps this exact.
    bound = 2 * max(abs(c2), 1 << -(-abs(c1).bit_length() // 2),
                    1 << -(-abs(c0).bit_length() // 3))
    segments = [(-bound, bound, 1)]
    root = None
    crit = c2 * c2 - 3 * c1
    if crit > 0:
        s = math.isqrt(crit)
        e1, e2 = (-c2 - s) // 3, (-c2 + s) // 3
        root = next((x for e in (e1, e2) for x in range(e - 2, e + 3) if not h(x)), None)
        segments = [(-bound, e1 - 2, 1), (e1 + 2, e2 - 2, -1), (e2 + 2, bound, 1)]
    for lo, hi, sign in segments:
        if root is not None:
            break
        root = _monotone_integer_root(h, lo, hi, sign)
    if root is None:
        return []
    # H = (X - root)(X^2 + q1 X + q0)
    q1 = c2 + root
    q0 = c1 + root * q1
    if c0 + root * q0:
        raise AssertionError("integer cubic root search found a non-root")
    return sorted([root] + _quadratic_integer_roots([q0, q1, 1]))


def _quadratic_integer_roots(H: list) -> list:
    """The integer roots, with multiplicity and ascending, of the monic
    integer quadratic H = [q0, q1, 1]: (-q1 -+ t) / 2 when the discriminant
    is the square t^2, else none."""
    q0, q1 = H[0], H[1]
    disc = q1 * q1 - 4 * q0
    t = math.isqrt(disc) if disc >= 0 else -1
    if t * t != disc:
        return []
    # t and q1 have the same parity, since disc = q1^2 mod 4
    return [(-q1 - t) // 2, (-q1 + t) // 2]


def _monotone_integer_root(h, lo: int, hi: int, sign: int):
    """The integer root of h in [lo, hi], on which sign * h increases
    strictly, or None; by exact bisection."""
    if lo > hi or sign * h(lo) > 0 or sign * h(hi) < 0:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sign * h(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return next((x for x in (lo, hi) if not h(x)), None)


def is_square_rat(r: Fraction):
    """The nonnegative rational square root of r, or None."""
    if r < 0:
        return None
    pn = math.isqrt(r.numerator)
    pd = math.isqrt(r.denominator)
    if pn * pn == r.numerator and pd * pd == r.denominator:
        return Fraction(pn, pd)
    return None
