"""Seeded inputs for the tschirn benchmark, with the answer each one must get.

Everything here is built from ``fractions.Fraction`` and ``int`` arithmetic
of its own: nothing is imported from ``tschirn``.  A change to the library
therefore never changes the inputs or the expected answers.

A cubic is a triple t = (e1, e2, e3) of Fractions meaning
f(X) = X^3 - e1 X^2 + e2 X - e3 (the library's sign convention).  A
transformation u is (c0, c1, c2), meaning u(X) = c0 + c1 X + c2 X^2.

Item ``i`` of a workload is drawn from its own ``random.Random`` seeded by
(seed, workload, i), so any item can be rebuilt on its own and the same seed
always gives the same sequence.  Items come in blocks whose composition is
fixed (only the order inside a block is shuffled), so every run sees the
same mix of branches and verdicts.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as Q
from itertools import permutations

# --------------------------------------------------------------------------
# Arithmetic on cubics over Q.
# --------------------------------------------------------------------------


def invariants(t):
    """(A, B, D) of a cubic triple; D is its discriminant."""
    s1, s2, s3 = t
    A = s1 * s1 - 3 * s2
    B = 2 * s1**3 - 9 * s1 * s2 + 27 * s3
    D = (s1 * s1 * s2 * s2 - 4 * s2**3 - 4 * s1**3 * s3
         + 18 * s1 * s2 * s3 - 27 * s3 * s3)
    return A, B, D


def indicator(s, t):
    """A_s^3 B_t^2 - 27 A_t^3 D_s: zero exactly on the multiple-root locus."""
    As, _, Ds = invariants(s)
    At, Bt, _ = invariants(t)
    return As**3 * Bt * Bt - 27 * At**3 * Ds


def hop_a0(t):
    """The normal form (0, -3, B + 1/B) that stands in for a cubic with A = 0
    in the decision; t itself otherwise."""
    A, B, _ = invariants(t)
    return t if A else (Q(0), Q(-3), B + 1 / B)


def height(t) -> int:
    return max(max(abs(c.numerator), c.denominator) for c in t)


def is_square(q: Q) -> bool:
    if q < 0:
        return False
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return n * n == q.numerator and d * d == q.denominator


def from_roots(r1, r2, r3):
    return (Q(r1 + r2 + r3), Q(r1 * r2 + r1 * r3 + r2 * r3), Q(r1 * r2 * r3))


def affine(t, lam, mu):
    """The cubic whose roots are lam * x + mu for the roots x of t."""
    e1, e2, e3 = t
    return (
        lam * e1 + 3 * mu,
        lam * lam * e2 + 2 * lam * mu * e1 + 3 * mu * mu,
        lam**3 * e3 + lam * lam * mu * e2 + lam * mu * mu * e1 + mu**3,
    )


def _mulmod(r, s, t):
    """Product of two residues c0 + c1 X + c2 X^2 modulo f(t; X)."""
    e1, e2, e3 = t
    c = [Q(0)] * 5
    for i in range(3):
        for j in range(3):
            c[i + j] += r[i] * s[j]
    for k in (4, 3):  # X^3 = e1 X^2 - e2 X + e3
        ck = c[k]
        c[k - 1] += ck * e1
        c[k - 2] -= ck * e2
        c[k - 3] += ck * e3
    return c[0], c[1], c[2]


def image(t, u):
    """The cubic whose roots are u(x) for the roots x of t: the
    characteristic polynomial of multiplication by u on Q[X]/f(t)."""
    u = tuple(Q(c) for c in u)
    x = (Q(0), Q(1), Q(0))
    cols = [u, _mulmod(u, x, t)]
    cols.append(_mulmod(cols[1], x, t))
    m = [[cols[j][i] for j in range(3)] for i in range(3)]
    tr = m[0][0] + m[1][1] + m[2][2]
    minors = (m[0][0] * m[1][1] - m[0][1] * m[1][0]
              + m[0][0] * m[2][2] - m[0][2] * m[2][0]
              + m[1][1] * m[2][2] - m[1][2] * m[2][1])
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return tr, minors, det


def maps_roots(a, b, u) -> bool:
    """Whether u sends the roots of a onto the roots of b: f_b(u(X)) is 0
    modulo f_a(X), and the image of a under u is b (so no two roots of a
    land on the same root of b)."""
    u = tuple(Q(c) for c in u)
    b1, b2, b3 = b
    u2 = _mulmod(u, u, a)
    u3 = _mulmod(u2, u, a)
    rem = tuple(u3[i] - b1 * u2[i] + b2 * u[i] for i in range(3))
    rem = (rem[0] - b3, rem[1], rem[2])
    return not any(rem) and image(a, u) == tuple(Q(c) for c in b)


_SMALL_PRIMES = [p for p in range(2, 200) if all(p % q for q in range(2, p))]


def irreducible(t) -> bool:
    """True when some prime below 200 proves f(t) irreducible: the monic
    integer model L^3 f(Y/L) has no root modulo that prime."""
    L = math.lcm(*(c.denominator for c in t))
    c2 = int(-t[0] * L)
    c1 = int(t[1] * L * L)
    c0 = int(-t[2] * L**3)
    for p in _SMALL_PRIMES:
        a2, a1, a0 = c2 % p, c1 % p, c0 % p
        if all((((y + a2) * y + a1) * y + a0) % p for y in range(p)):
            return True
    return False


def shanks(m):
    """Shanks' simplest cubic X^3 - m X^2 - (m + 3) X - 1."""
    return (Q(m), Q(-(m + 3)), Q(1))


def pure(m):
    """X^3 - m (A = 0)."""
    return (Q(0), Q(0), Q(m))


def lin_quad(r, p, q):
    """(X - r)(X^2 + p X + q)."""
    r, p, q = Q(r), Q(p), Q(q)
    return (r - p, q - r * p, r * q)


# Equal-splitting classes of simplest cubic fields for m in [-1, 12] and
# n <= 2500 (the acceptance scan): two members of one class give the same
# field, members of different classes give different fields.
SHANKS_CLASSES = ((-1, 5, 12, 1259), (0, 3, 54), (1, 66), (2, 2389))
SCAN_PAIRS = ((-1, 5), (-1, 12), (-1, 1259), (0, 3), (0, 54), (1, 66),
              (2, 2389), (3, 54), (5, 12), (5, 1259), (12, 1259))
_SHANKS_SMALL = (-1, 0, 1, 2, 3, 5, 12, 54, 66)
_CUBE_FREE = (2, 3, 5, 6, 7, 10, 11, 13, 17, 19)
_PRIMES = (2, 3, 5, 7, 11, 13)


# --------------------------------------------------------------------------
# Random building blocks.
# --------------------------------------------------------------------------


def _rand_u(rng):
    """A transformation with a nonzero quadratic part and small height."""
    return (rng.randint(-3, 3), rng.randint(-3, 3),
            rng.choice((-2, -1, 1, 2)))


def _base_s3(rng, avoid_class=None):
    """A small irreducible cubic with Galois group S3, A != 0 and B != 0.
    With avoid_class, its discriminant is also not in the square class of
    avoid_class (so the two quadratic subfields differ)."""
    while True:
        t = (Q(rng.randint(-5, 5)), Q(rng.randint(-9, 9)),
             Q(rng.choice((-1, 1)) * rng.randint(1, 9)))
        A, B, D = invariants(t)
        if not A or not B or not D or is_square(D):
            continue
        if avoid_class is not None and is_square(D * avoid_class):
            continue
        if irreducible(t):
            return t


def _generic_image(rng, t):
    """A quadratic image of t with A != 0 (the image has the same field)."""
    while True:
        img = image(t, _rand_u(rng))
        A, _, D = invariants(img)
        if A and D:
            return img


def _shanks_image(rng, m):
    return _generic_image(rng, shanks(m))


def _rand_lin_quad(rng, disc_class=None, avoid_class=None):
    """(X - r)(X^2 + pX + q) with an irreducible quadratic factor whose
    discriminant is disc_class * e^2 when disc_class is given, and not in
    the square class of avoid_class when that is given."""
    while True:
        r, p = rng.randint(-6, 6), rng.randint(-6, 6)
        if disc_class is not None:
            e = Q(rng.randint(1, 4), rng.randint(1, 3))
            q = (p * p - disc_class * e * e) / 4
        else:
            q = Q(rng.randint(-9, 9))
        disc = p * p - 4 * q
        if is_square(disc):
            continue
        if avoid_class is not None and is_square(disc * avoid_class):
            continue
        return lin_quad(r, p, q)


def _rand_split(rng):
    return from_roots(*rng.sample(range(-9, 10), 3))


def _scale(rng, t, decade):
    """An affine image of t (same splitting field) whose height has about
    `decade` digits; t's own height is kept when it is already larger."""
    lam = 1
    digits = len(str(height(t)))
    if decade > digits:
        lam = max(1, int(10 ** ((decade - digits) / 3) * rng.uniform(0.4, 1.0)))
    mu = rng.randint(-lam, lam)
    lam = Q(lam * rng.choice((-1, 1)), rng.choice((1, 1, 1, 2, 3)))
    return affine(t, lam, Q(mu))


def _digits(a, b) -> int:
    return len(str(max(height(a), height(b))))


# --------------------------------------------------------------------------
# The `decide` workload.
# --------------------------------------------------------------------------

# One block of 40 decisions: 60% generic irreducible, 15% on the multiple-
# root locus, 10% with A = 0 and 15% reducible; 20 equal and 20 not equal.
# Each entry is (branch tag, expected verdict, construction).
DECIDE_BLOCK = (
    [("generic", True, "s3_image")] * 6
    + [("generic", True, "c3_image")] * 3
    + [("generic", False, "s3_other_class")] * 6
    + [("generic", False, "pure_images")] * 4
    + [("generic", False, "c3_vs_s3")] * 3
    + [("generic", False, "c3_other_class")] * 2
    + [("degenerate", True, "locus_s3")] * 4
    + [("degenerate", True, "locus_c3")] * 2
    + [("a0", True, "pure_square")]
    + [("a0", True, "pure_image")]
    + [("a0", False, "pure_primes")]
    + [("a0", False, "pure_vs_s3")]
    + [("reducible", True, "split_split")]
    + [("reducible", True, "c2_same_class")] * 2
    + [("reducible", False, "c2_other_class")]
    + [("reducible", False, "c2_vs_s3")]
    + [("reducible", False, "split_vs_c2")]
)


def _locus_partner(rng, a):
    """A cubic on the multiple-root locus with a: an affine image of
    X^3 + kX + k with k = -A_a^3 / D_a."""
    A, _, D = invariants(a)
    k = -A**3 / D
    lam = Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
    return affine((Q(0), k, -k), lam, Q(rng.randint(-3, 3)))


def _decide_pair(rng, kind):
    if kind == "s3_image":
        base = _base_s3(rng)
        return _generic_image(rng, base), _generic_image(rng, base)
    if kind == "c3_image":
        cls = rng.choice(SHANKS_CLASSES)
        return (_shanks_image(rng, rng.choice(cls)),
                _shanks_image(rng, rng.choice(cls)))
    if kind == "s3_other_class":
        a = _base_s3(rng)
        b = _base_s3(rng, avoid_class=invariants(a)[2])
        return _generic_image(rng, a), _generic_image(rng, b)
    if kind == "pure_images":
        p, q = rng.sample(_PRIMES, 2)
        return _generic_image(rng, pure(p)), _generic_image(rng, pure(q))
    if kind == "c3_vs_s3":
        return (_shanks_image(rng, rng.choice(_SHANKS_SMALL)),
                _generic_image(rng, _base_s3(rng)))
    if kind == "c3_other_class":
        c1, c2 = rng.sample(SHANKS_CLASSES, 2)
        return (_shanks_image(rng, rng.choice(c1)),
                _shanks_image(rng, rng.choice(c2)))
    if kind == "locus_s3":
        a = _generic_image(rng, _base_s3(rng))
        return a, _locus_partner(rng, a)
    if kind == "locus_c3":
        a = _shanks_image(rng, rng.choice(_SHANKS_SMALL))
        return a, _locus_partner(rng, a)
    if kind == "pure_square":
        m = rng.choice(_CUBE_FREE)
        return pure(m), pure(m * m * rng.choice((1, -1)) * rng.randint(1, 3) ** 3)
    if kind == "pure_image":
        m = rng.choice(_CUBE_FREE)
        return pure(m), _generic_image(rng, pure(m))
    if kind == "pure_primes":
        p, q = rng.sample(_PRIMES, 2)
        return pure(p), pure(q)
    if kind == "pure_vs_s3":
        # D of X^3 - m is -27 m^2, in the class of -3.
        return pure(rng.choice(_CUBE_FREE)), _base_s3(rng, avoid_class=Q(-3))
    if kind == "split_split":
        return _rand_split(rng), _rand_split(rng)
    if kind == "c2_same_class":
        a = _rand_lin_quad(rng)
        return a, _rand_lin_quad(rng, disc_class=invariants(a)[2])
    if kind == "c2_other_class":
        a = _rand_lin_quad(rng)
        return a, _rand_lin_quad(rng, avoid_class=invariants(a)[2])
    if kind == "c2_vs_s3":
        return _rand_lin_quad(rng), _base_s3(rng)
    if kind == "split_vs_c2":
        return _rand_split(rng), _rand_lin_quad(rng)
    raise ValueError(kind)


def _block_slot(seed, workload, i, block):
    n = len(block)
    order = list(range(n))
    random.Random(f"{seed}/{workload}/block/{i // n}").shuffle(order)
    return block[order[i % n]]


def decide_item(seed: int, i: int) -> dict:
    """Decision i of the `decide` corpus: the pair, its expected verdict, its
    branch tag and its height decade.  Heights are log-uniform over
    10^1..10^12."""
    tag, equal, kind = _block_slot(seed, "decide", i, DECIDE_BLOCK)
    rng = random.Random(f"{seed}/decide/{i}")
    a, b = _decide_pair(rng, kind)
    while tag == "generic" and not indicator(a, b):
        a, b = _decide_pair(rng, kind)
    decade = rng.randint(1, 12)
    a, b = _scale(rng, a, decade), _scale(rng, b, decade)
    if rng.random() < 0.5:
        a, b = b, a
    return {"a": a, "b": b, "equal": equal, "tag": tag, "kind": kind,
            "decade": _digits(a, b)}


# --------------------------------------------------------------------------
# The `classify` workload.
# --------------------------------------------------------------------------

# (Galois type of a, of b, relation, factor pattern of F2, construction),
# one per row of the subfield table, plus two pairs on the multiple-root
# locus, where F2 = (X - r)^2 (X + 2r) (cubic) and no row is predicted.
CLASSIFY_BLOCK = (
    ("S3", "S3", "TrivialMeet", (6,), "s3_other_class"),
    ("S3", "S3", "QuadraticMeet", (3, 3), "pure_images"),
    ("S3", "S3", "Equal", (1, 2, 3), "s3_image"),
    ("S3", "C3", "TrivialMeet", (6,), "s3_vs_c3"),
    ("S3", "C2", "NotContains", (6,), "s3_vs_c2_other"),
    ("S3", "C2", "ContainsQuadratic", (3, 3), "s3_vs_c2_same"),
    ("S3", "Id", "ProperContains", (6,), "s3_vs_split"),
    ("C3", "C3", "TrivialMeet", (3, 3), "c3_other_class"),
    ("C3", "C3", "Equal", (1, 1, 1, 3), "c3_image"),
    ("C3", "C2", "TrivialMeet", (6,), "c3_vs_c2"),
    ("C3", "Id", "ProperContains", (3, 3), "c3_vs_split"),
    ("S3", "S3", "Equal", (1, 1, 1, 3), "locus_s3"),
    ("C3", "C3", "Equal", (1, 1, 1, 3), "locus_c3"),
)

_ORDER = {"S3": 6, "C3": 3, "C2": 2, "Id": 1}


def _classify_pair(rng, kind):
    if kind in ("s3_other_class", "pure_images", "s3_image", "c3_other_class",
                "c3_image", "locus_s3", "locus_c3"):
        return _decide_pair(rng, kind)
    if kind == "s3_vs_c3":
        return (_generic_image(rng, _base_s3(rng)),
                _shanks_image(rng, rng.choice(_SHANKS_SMALL)))
    a = (_shanks_image(rng, rng.choice(_SHANKS_SMALL)) if kind.startswith("c3")
         else _generic_image(rng, _base_s3(rng)))
    if kind.endswith("split"):
        return a, _rand_split(rng)
    if kind == "s3_vs_c2_same":
        return a, _rand_lin_quad(rng, disc_class=invariants(a)[2])
    if kind == "s3_vs_c2_other":
        return a, _rand_lin_quad(rng, avoid_class=invariants(a)[2])
    if kind == "c3_vs_c2":
        return a, _rand_lin_quad(rng)
    raise ValueError(kind)


def classify_item(seed: int, i: int) -> dict:
    """Classification i: one instance of a subfield-table row (or of the
    multiple-root locus) with its expected report.  Heights are log-uniform
    over 10^1..10^12; the cubic with the larger Galois group is passed
    second half the time, so the report must say it swapped them."""
    ga, gb, relation, pattern, kind = _block_slot(
        seed, "classify", i, CLASSIFY_BLOCK)
    rng = random.Random(f"{seed}/classify/{i}")
    locus = kind.startswith("locus")
    while True:
        a, b = _classify_pair(rng, kind)
        # the classification hops b only when it is irreducible
        bn = hop_a0(b) if gb in ("S3", "C3") else b
        if (indicator(hop_a0(a), bn) == 0) == locus:
            break
    decade = rng.randint(1, 12)
    a, b = _scale(rng, a, decade), _scale(rng, b, decade)
    swapped = _ORDER[ga] > _ORDER[gb] and rng.random() < 0.5
    # (every irreducible cubic here has A != 0)
    tag = ("reducible" if gb in ("C2", "Id")
           else "degenerate" if locus else "generic")
    return {
        "a": b if swapped else a,
        "b": a if swapped else b,
        # the report describes the pair after the swap, i.e. (a, b)
        "pair": (a, b),
        "g_a": ga,
        "g_b": gb,
        "relation": relation,
        "predicted": None if locus else pattern,
        "observed": pattern,
        "degenerate": locus,
        "swapped": swapped,
        "tag": tag,
        "kind": kind,
        "decade": _digits(a, b),
    }


# --------------------------------------------------------------------------
# The `resolvent-ff` workload: split root tuples over finite fields.
# --------------------------------------------------------------------------


class GF:
    """GF(p^k) as int tuples (ascending powers) modulo the first monic
    irreducible of degree k in counter order; k = 1 is F_p itself."""

    def __init__(self, p: int, k: int):
        self.p, self.k = p, k
        self.modulus = self._first_irreducible() if k > 1 else (0, 1)
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)

    def _first_irreducible(self):
        p, k = self.p, self.k
        for j in range(p**k):
            low = [(j // p**i) % p for i in range(k)]
            # degree 2 and 3: irreducible iff no root in F_p
            if all((sum(c * x**i for i, c in enumerate(low)) + x**k) % p
                   for x in range(p)):
                return tuple(low) + (1,)
        raise ValueError("no irreducible modulus")

    def add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple((a - b) % self.p for a, b in zip(x, y))

    def mul(self, x, y):
        p, k, mod = self.p, self.k, self.modulus
        c = [0] * (2 * k - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    c[i + j] += a * b
        for d in range(2 * k - 2, k - 1, -1):
            top = c[d] % p
            if top:
                for i in range(k):
                    c[d - k + i] -= top * mod[i]
            c[d] = 0
        return tuple(v % p for v in c[:k])

    def inv(self, x):
        out, base, e = self.one, x, self.p**self.k - 2
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def scalar(self, n: int):
        return ((n % self.p,) + (0,) * (self.k - 1))

    def random(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.k))


FF_FIELDS = tuple(GF(p, k) for p, k in ((101, 1), (5, 2), (7, 3)))


def _elementary(F, xs):
    x1, x2, x3 = xs
    e1 = F.add(F.add(x1, x2), x3)
    e2 = F.add(F.add(F.mul(x1, x2), F.mul(x1, x3)), F.mul(x2, x3))
    e3 = F.mul(F.mul(x1, x2), x3)
    return e1, e2, e3


def _ff_admissible(F, xs, ys) -> bool:
    """The closed forms need B_s != 0 and six distinct u2 values (off the
    multiple-root locus); the F0 transport also needs D12(u2) != 0 at
    every root u2 of F2, D12(Y) = 3 B_s A_s A_t - 9 B_s D_s Y^2."""
    if len(set(xs)) < 3 or len(set(ys)) < 3:
        return False
    mul, sub, add, c = F.mul, F.sub, F.add, F.scalar

    def AB(e):
        e1, e2, e3 = e
        A = sub(mul(e1, e1), mul(c(3), e2))
        B = add(sub(mul(c(2), mul(e1, mul(e1, e1))), mul(c(9), mul(e1, e2))),
                mul(c(27), e3))
        return A, B

    As, Bs = AB(_elementary(F, xs))
    At, _ = AB(_elementary(F, ys))
    if Bs == F.zero:
        return False
    x1, x2, x3 = xs
    vd = mul(mul(sub(x1, x2), sub(x1, x3)), sub(x2, x3))
    Ds = mul(vd, vd)
    weights = [F.inv(mul(sub(xs[i], xs[(i + 1) % 3]), sub(xs[i], xs[(i + 2) % 3])))
               for i in range(3)]
    u2s = set()
    base = mul(c(3), mul(Bs, mul(As, At)))
    lead = mul(c(9), mul(Bs, Ds))
    for tau in permutations(range(3)):
        u2 = F.zero
        for i in range(3):
            u2 = add(u2, mul(ys[tau[i]], weights[i]))
        if sub(base, mul(lead, mul(u2, u2))) == F.zero:
            return False
        u2s.add(u2)
    return len(u2s) == 6


def ff_item(seed: int, i: int) -> dict:
    """Root tuples (xs, ys) over F_101, GF(5^2) or GF(7^3) in turn, chosen so
    that F0, F1 and F2 are all defined."""
    F = FF_FIELDS[i % len(FF_FIELDS)]
    p, k = F.p, F.k
    rng = random.Random(f"{seed}/resolvent-ff/{i}")
    while True:
        xs = tuple(F.random(rng) for _ in range(3))
        ys = tuple(F.random(rng) for _ in range(3))
        if _ff_admissible(F, xs, ys):
            break
    return {"p": p, "k": k, "modulus": F.modulus, "xs": xs, "ys": ys,
            "s": _elementary(F, xs), "t": _elementary(F, ys),
            "tag": f"GF({p}^{k})" if k > 1 else f"F_{p}"}


# --------------------------------------------------------------------------
# Workload table.
# --------------------------------------------------------------------------

SCAN_M_RANGE, SCAN_N_MAX = (-1, 12), 2500


def _classes(pairs):
    """Transitive classes of the pairs, each sorted, in sorted order."""
    classes = []
    for pair in pairs:
        joined = set(pair)
        for c in [c for c in classes if c & joined]:
            joined |= c
            classes.remove(c)
        classes.append(joined)
    return tuple(sorted(tuple(sorted(c)) for c in classes))


def scan_item(seed: int, i: int) -> dict:
    """Row i of the acceptance scan (m in [-1, 12], m < n <= 2500): every 14
    consecutive items are the 14 rows in an order shuffled by the seed, so
    together they are one whole scan.  The expected pairs and classes are
    the row's share of the 11 known pairs."""
    rows = list(range(SCAN_M_RANGE[0], SCAN_M_RANGE[1] + 1))
    random.Random(f"{seed}/scan/{i // len(rows)}").shuffle(rows)
    m = rows[i % len(rows)]
    pairs = tuple(p for p in SCAN_PAIRS if p[0] == m)
    return {"m_range": (m, m), "n_max": SCAN_N_MAX, "pairs": pairs,
            "classes": _classes(pairs), "pairs_tested": SCAN_N_MAX - m,
            "tag": f"m={m}"}


ITEMS = {
    "decide": decide_item,
    "classify": classify_item,
    "scan": scan_item,
    "resolvent-ff": ff_item,
}

# Items per block: a run that ends on a block boundary has exactly the
# workload's intended mix.
BLOCK = {
    "decide": len(DECIDE_BLOCK),
    "classify": len(CLASSIFY_BLOCK),
    "scan": SCAN_M_RANGE[1] - SCAN_M_RANGE[0] + 1,
    "resolvent-ff": len(FF_FIELDS),
}
