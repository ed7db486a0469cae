"""Polynomials as ascending int lists, over Z and over Z/m.

The one low-level polynomial kernel of the package: ``fields`` reduces
and inverts GF(p^k) elements with it and ``factorq`` runs F_p factoring
and Hensel lifting on it; both use its distinct-degree step, ``fields``
to test a modulus for irreducibility.  A polynomial is a list (or tuple)
of ints, constant term first; results are trimmed lists, so the zero
polynomial is ``[]``.  The functions taking a modulus ``m`` return
coefficients reduced into [0, m); gcd, xgcd, powmod and distinct_degree
need a prime modulus ``p``.  Algorithms are the classical ones (von zur
Gathen–Gerhard, *Modern Computer Algebra*, ch. 2-3 and 14).
"""

from __future__ import annotations

from itertools import zip_longest


def trim(a: list) -> list:
    """Drop trailing zero coefficients in place; returns ``a``."""
    while a and a[-1] == 0:
        a.pop()
    return a


def mod(a, m: int) -> list:
    """Coefficients reduced modulo m."""
    return trim([c % m for c in a])


def add(a, b, m: int) -> list:
    return trim([(x + y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def sub(a, b, m: int) -> list:
    return trim([(x - y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def scale(a, c: int, m: int) -> list:
    return trim([x * c % m for x in a])


def mul(a, b, m: int) -> list:
    """Product modulo m."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % m
    return trim(out)


def monic(a, p: int) -> list:
    """a divided by its leading coefficient (a nonzero, lc a unit mod p)."""
    return scale(a, pow(a[-1], -1, p), p)


def divmod_mod(a, b, m: int):
    """(q, r) with a = q·b + r modulo m and deg r < deg b.

    a is trimmed with coefficients in [0, m), as every function here
    returns them; b is trimmed and nonzero with a leading coefficient that
    is a unit modulo m (any nonzero one when m is prime, 1 for the Hensel
    moduli).
    """
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(0, len(r) - db)
    while len(r) > db:
        k = len(r) - 1 - db
        c = r.pop() * inv % m
        q[k] = c
        for i in range(db):
            r[k + i] = (r[k + i] - c * b[i]) % m
        trim(r)
    return trim(q), r


def divmod_monic(a, b):
    """(q, r) with a = q·b + r over Z, for trimmed a and monic b (exact)."""
    r = list(a)
    db = len(b) - 1
    q = [0] * max(0, len(r) - db)
    while len(r) > db:
        k = len(r) - 1 - db
        c = q[k] = r.pop()
        for i in range(db):
            r[k + i] -= c * b[i]
        trim(r)
    return trim(q), r


def gcd(a, b, p: int) -> list:
    """Monic gcd modulo the prime p (``[]`` when both are zero)."""
    while b:
        a, b = b, divmod_mod(a, b, p)[1]
    return monic(a, p) if a else []


def xgcd(a, b, p: int):
    """(g, s, t) modulo the prime p: g the monic gcd and s·a + t·b = g.

    a and b are not both zero.  When deg g < min(deg a, deg b) the
    cofactors satisfy deg s < deg b − deg g and deg t < deg a − deg g.
    """
    r0, r1 = mod(a, p), mod(b, p)
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        q, r = divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
        t0, t1 = t1, sub(t0, mul(q, t1, p), p)
    inv = pow(r0[-1], -1, p)
    return scale(r0, inv, p), scale(s0, inv, p), scale(t0, inv, p)


def powmod(base, e: int, modulus, p: int) -> list:
    """base^e modulo the polynomial ``modulus`` and the prime p."""
    result = [1]
    base = divmod_mod(base, modulus, p)[1]
    while e:
        if e & 1:
            result = divmod_mod(mul(result, base, p), modulus, p)[1]
        base = divmod_mod(mul(base, base, p), modulus, p)[1]
        e >>= 1
    return result


def distinct_degree(f, p: int) -> list:
    """Monic f over F_p -> [(g_d, d)], d ascending: g_d = gcd(v, X^(p^d) - X)
    with v what is left of f, and the last part is the rest once its degree
    is below 2(d + 1).  For squarefree f, g_d is the product of the degree-d
    irreducible factors.  For any f the first part is (f, deg f) iff f is
    irreducible: a factor g with deg g <= deg f / 2, repeated or not, is
    found by step deg g."""
    x = [0, 1]
    out = []
    h = x
    v = f
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = powmod(h, p, v, p)
        g = gcd(v, sub(h, x, p), p)
        if len(g) > 1:
            out.append((g, d))
            v = divmod_mod(v, g, p)[0]
            h = divmod_mod(h, v, p)[1]
    if len(v) > 1:
        out.append((v, len(v) - 1))
    return out

