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
(``_quadratic_integer_roots``).  A cubic with no root mod some prime 5..47
has none (``_cubic_root_tables``, shared with the scan of ``families``);
otherwise a root mod such a prime is lifted by Newton's step to a power of
the prime above twice the root bound, the one candidate is tested exactly,
and the quotient quadratic gives the rest (``_cubic_integer_roots``).
Roots of other degrees are read off ``factor_over_Q``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cache
from itertools import combinations, count, islice

from . import zpoly
from .fields import QQ, PrimeField, Record, field_of, is_prime
from .poly import UniPoly, poly_gcd

# The moduli of the cubic root sieve and of factor_over_Q's squarefree test.
_SIEVE_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# --------------------------------------------------------------------------
# Factorization container.
# --------------------------------------------------------------------------


class Factorization(Record):
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
        return tuple(sorted(g.degree for g, m in self.factors for _ in range(m)))

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
    dens = [c.denominator for c in coeffs]
    ell = math.lcm(*dens)
    if ell == 1:
        return [c.numerator for c in coeffs], 1
    d = len(coeffs) - 1
    return [c.numerator * (ell ** (d - i) // dens[i]) for i, c in enumerate(coeffs)], ell


# --------------------------------------------------------------------------
# Factorization over F_p, on int lists (see zpoly).
# --------------------------------------------------------------------------


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
        # c' = 0, so c = h(X)^p with h = c[::p] (F_p is fixed by x -> x^p)
        for g, m in _squarefree_decompose_fp(c[::p], p).items():
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
            return (_equal_degree_split_fp(g, d, p, rng)
                    + _equal_degree_split_fp(zpoly.divmod_mod(f, g, p)[0], d, p, rng))


def _factor_fp(f: list, p: int) -> list:
    """Monic f over F_p of degree >= 1 -> [(monic irreducible as an int
    tuple, multiplicity)], sorted by (degree, coefficients)."""
    rng = random.Random(f"fp:{p}:" + ",".join(str(c) for c in f))
    found: dict = {}
    for piece, mult in _squarefree_decompose_fp(f, p).items():
        for prod, d in zpoly.distinct_degree(piece, p):
            for h in map(tuple, _equal_degree_split_fp(prod, d, p, rng)):
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
    return (_hensel_tree(g, mod_factors[:half], p, m_final)
            + _hensel_tree(h, mod_factors[half:], p, m_final))


def _center(c: int, m: int) -> int:
    return c - m if c > m // 2 else c


def _squarefree_prime(H: list, primes):
    """The first p of primes with gcd(H, H') = 1 modulo p, or None.  For
    monic H such a p proves Disc H != 0 (Res(H, H') reduces to the
    resultant modulo p, which is not 0), so H is squarefree over Q."""
    dH = [i * H[i] for i in range(1, len(H))]
    return next((p for p in primes
                 if zpoly.gcd(zpoly.mod(H, p), zpoly.mod(dH, p), p) == [1]), None)


def _good_prime(H: list, failed: int = 0) -> int:
    """The least prime p >= 5, past the first `failed` ones, modulo which the
    monic H stays squarefree.  A failing prime divides Disc H, which, unless
    0, is below the Hadamard bound 2^b of the Sylvester matrix of H and H';
    so more than b/2 failures, the skipped ones included, prove H not squarefree."""
    dH = [i * H[i] for i in range(1, len(H))]
    norm_H, norm_dH = (math.isqrt(sum(c * c for c in g)) + 1 for g in (H, dH))
    b = (norm_H ** (len(H) - 2) * norm_dH ** (len(H) - 1)).bit_length()
    p = _squarefree_prime(H, islice(filter(is_prime, count(5, 2)), failed, b // 2 + 1))
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

    result, remaining, current, k = [], list(range(len(lifted))), list(H), 1
    while 2 * k <= len(remaining):
        for subset in combinations(remaining, k):
            cand = [_center(c, m_final)
                    for c in _product([lifted[i] for i in subset], m_final)]
            q, r = zpoly.divmod_monic(current, cand)
            if not r:
                result.append(cand)
                current = q
                remaining = [i for i in remaining if i not in subset]
                break
        else:
            k += 1
    if len(current) - 1 > 0:
        result.append(current)
    return result


def _factor_squarefree_q(H: list, ell: int, p=None) -> list:
    """Monic rational irreducibles of the squarefree monic q whose integer
    model (integer_model) is (H, ell); p as for _factor_monic_int_squarefree."""
    # hj(ell X) / ell^d is the monic rational factor of q, d = deg hj
    return [UniPoly(QQ, map(Fraction, hj, [ell ** k for k in reversed(range(len(hj)))]))
            for hj in _factor_monic_int_squarefree(H, p)]


def factor_over_Q(f: UniPoly) -> Factorization:
    """Complete factorization into monic rational irreducibles, with unit.
    When no prime of _SIEVE_PRIMES proves the monic input g squarefree and
    c = gcd(g, g') is not 1, the squarefree part g / c is factored instead:
    a factor h of multiplicity m in g has multiplicity m - 1 in c, found by
    exact division of c, one divmod per power of h."""
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
    if p is None and (c := poly_gcd(g, g.derivative())).degree == 0:
        # g is squarefree, and the sieve primes, the least ones, have failed
        p = _good_prime(H, len(_SIEVE_PRIMES))
    if p is not None:
        factors = [(h, 1) for h in _factor_squarefree_q(H, ell, p)]
    else:
        factors = []
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
    return sorted(-g.coeffs[0] for g, m in factor_over_Q(f).factors if g.degree == 1
                  for _ in range(m))


# The kinds of root table bytes (_cubic_root_tables), in order of preference.
_SINGLE, _THREE, _REPEATED = 0, 64, 128


@cache
def _cubic_root_tables() -> tuple:
    """For each sieve prime l, the pair (l, table): table[a*l + b] is 0 when
    Y^3 + aY + b has no root mod l, else kind + 1 + y for the kind _SINGLE
    of one simple root y, _THREE of three distinct roots, y the least, or
    _REPEATED of a repeated root y.  Built on first use."""
    tables = []
    for ell in _SIEVE_PRIMES:
        table = bytearray(ell * ell)
        for y in range(ell):  # ascending, so a cell first sees its least root
            # y is a repeated root of Y^3 + aY + b when 3y^2 + a = 0
            double, cube = -3 * y * y % ell, y * y * y
            for a in range(ell):
                i = a * ell + (-cube - a * y) % ell
                if a == double:
                    table[i] = _REPEATED + 1 + y
                elif table[i] < _THREE:
                    # a second simple root brings a third, also simple
                    table[i] += _THREE if table[i] else _SINGLE + 1 + y
        tables.append((ell, bytes(table)))
    return tuple(tables)


def _cubic_integer_roots(H: list) -> list:
    """The integer roots, with multiplicity and ascending, of the monic
    integer cubic H = [c0, c1, c2, 1], with no factoring.

    Y = 3X + c2 gives 27 H = Y^3 + pY + q with the p, q below, and Y = X
    gives H itself when c2 = 0, so no root of Y^3 + pY + q mod a sieve
    prime l != 3 proves that H has none; a cubic that passes every prime
    goes to _searched_integer_roots."""
    c0, c1, c2 = H[0], H[1], H[2]
    if c2:
        p = 3 * (3 * c1 - c2 * c2)
        q = 27 * c0 - c2 * (p + c2 * c2)  # 27c0 - 9c1c2 + 2c2^3
    else:
        p, q = c1, c0
    for ell, table in _cubic_root_tables():
        if not table[p % ell * ell + q % ell]:
            return []
    return _searched_integer_roots(c0, c1, c2, p, q)


def _searched_integer_roots(c0: int, c1: int, c2: int, p: int, q: int) -> list:
    """_cubic_integer_roots([c0, c1, c2, 1]), p and q as there, by p-adic
    lifting (Loos, SIAM J. Comput. 12 (1983)): the candidates are the lifts
    (_lifted_root) of the roots mod l of Y^3 + pY + q, mapped back to X, for
    the first sieve prime l with one simple root, else with three, else,
    unless Delta = -4p^3 - 27q^2 = 0 puts the repeated root in closed form,
    for the first l past 47 not dividing Delta (Frobenius is even when Delta
    is a square, so then the first with three).  The first root r found is
    divided out and the quotient quadratic solved with isqrt."""
    code, ell = 255, 0  # 255 >> 6 is above every kind
    for prime, table in _cubic_root_tables():
        if (c := table[p % prime * prime + q % prime]) >> 6 < code >> 6:
            code, ell = c, prime
            if c < _THREE or c < _REPEATED and _is_square(-4 * p**3 - 27 * q * q):
                break
    if code > _REPEATED and not (disc := -4 * p * p * p - 27 * q * q):
        # H = (X - r)^2 (X - s): 9c0 - c1c2 = 2r(r - s)^2, c2^2 - 3c1 = (r - s)^2
        crit = c2 * c2 - 3 * c1
        root = (9 * c0 - c1 * c2) // (2 * crit) if crit else -c2 // 3
    else:
        if code > _REPEATED:
            ell = next(r for r in filter(is_prime, count(53, 2)) if disc % r)
        y0, pl, ql = code % 64 - 1 if code < _REPEATED else 0, p % ell, q % ell
        ys = [y0] if code < _THREE else [
            y for y in range(y0, ell) if not (y * y * y + pl * y + ql) % ell]
        # above twice Fujiwara's 2 max(|c2|, |c1|^(1/2), |c0/2|^(1/3))
        limit = 4 << max(c2.bit_length(), (c1.bit_length() + 1) // 2,
                         (c0.bit_length() + 2) // 3)
        u = pow(3, -1, ell) if c2 else 1
        root = _lifted_root(c0, c1, c2, [(y - c2) * u % ell for y in ys], ell, limit)
        if root is None:
            return []
    # H = (X - root)(X^2 + q1 X + q0)
    q1 = c2 + root
    q0 = c1 + root * q1
    if c0 + root * q0:
        raise AssertionError("integer cubic root search found a non-root")
    return sorted([root] + _quadratic_integer_roots([q0, q1, 1]))


def _lifted_root(c0: int, c1: int, c2: int, xs, ell: int, limit: int):
    """The integer root r of H = X^3 + c2 X^2 + c1 X + c0 with 2|r| < limit
    and r = x mod the prime ell for an x of xs, simple roots of H mod ell,
    or None.  Newton's steps x - H(x) s and s (2 - H'(x) s), s = 1/H'(x),
    lift x and s from mod m to mod m^2 until m >= limit, one evaluation of
    H and one of H' each; the symmetric residue is then the one candidate,
    and one exact evaluation of H decides."""
    for x in xs:
        m, s = ell, pow((3 * x + 2 * c2) * x + c1, -1, ell)
        while m < limit:
            s = s * (2 - ((3 * x + 2 * c2) * x + c1) * s) % m
            x, m = (x - (((x + c2) * x + c1) * x + c0) * s) % (m * m), m * m
        x = _center(x, m)
        if not ((x + c2) * x + c1) * x + c0:
            return x
    return None


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


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def is_square_rat(r: Fraction):
    """The nonnegative rational square root of r, or None."""
    if r < 0:
        return None
    pn = math.isqrt(r.numerator)
    pd = math.isqrt(r.denominator)
    if pn * pn == r.numerator and pd * pd == r.denominator:
        return Fraction(pn, pd)
    return None
