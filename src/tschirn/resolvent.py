"""Resolvent constructors for cubic Tschirnhausen theory, plus the
brute-force coset oracle that recomputes every resolvent from explicit
root tuples.

Sign convention used throughout: the parameter triple s = (s1, s2, s3)
encodes the monic cubic

    f3(s; X) = X^3 - s1 X^2 + s2 X - s3,

so the si are the elementary symmetric functions of the roots.  The
associated invariants are

    A = s1^2 - 3 s2,                 B = 2 s1^3 - 9 s1 s2 + 27 s3,
    C = s1^4 - 4 s1^2 s2 + s2^2 + 6 s1 s3,
    D = Disc f3 = s1^2 s2^2 - 4 s2^3 - 4 s1^3 s3 + 18 s1 s2 s3 - 27 s3^2,
    E = s1 s2 - 9 s3,

linked by the identity 4 A^3 - B^2 = 27 D in every characteristic.

For two cubics with root tuples (x_i), (y_i) and a Tschirnhausen
transformation u(X) = u0 + u1 X + u2 X^2 sending x_i to y_{tau(i)}, the
resolvent F_i(s, t; X) is the product of (X - u_i) over all 3! cosets.
F2 and F1 have closed forms.  F0 is the characteristic polynomial of the
rational recovery map u0(u2) on K[Y]/(F2), or on the blocks of F2 where
that map is defined, times that of u0 on the fibers of the double roots
of F2 where it degenerates, in every characteristic but 3.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import permutations

from . import zpoly
from .factorq import is_square_rat
from .fields import QQ, MathDomainError, Record, field_of
from .poly import RootTuple, UniPoly, charpoly, vandermonde_solve

# --------------------------------------------------------------------------
# Parameter triples and invariants.
# --------------------------------------------------------------------------


class _cached(cached_property):
    """cached_property without the lock that its first read takes up to
    Python 3.11: the value goes into the instance dict and shadows this."""

    def __get__(self, obj, owner=None):
        return self if obj is None else obj.__dict__.setdefault(
            self.attrname, self.func(obj))


class CubicTriple(Record):
    """(a1, a2, a3) encoding f3(a; X) = X^3 - a1 X^2 + a2 X - a3."""

    a1: object
    a2: object
    a3: object

    @property
    def field(self):
        for v in (self.a1, self.a2, self.a3):
            f = field_of(v)
            if f is not QQ:
                return f
        return QQ

    def values(self, field=None):
        field = field or self.field
        return field(self.a1), field(self.a2), field(self.a3)

    def poly(self, field=None) -> UniPoly:
        field = field or self.field
        a1, a2, a3 = self.values(field)
        return UniPoly(field, (-a3, a2, -a1, field.one))

    @classmethod
    def from_poly(cls, f: UniPoly) -> "CubicTriple":
        if f.degree != 3:
            raise ValueError("expected a cubic")
        g = f.monic()
        return cls(-g.coeffs[2], g.coeffs[1], -g.coeffs[0])

    @classmethod
    def from_roots(cls, roots) -> "CubicTriple":
        from .poly import elementary_symmetric

        e1, e2, e3 = elementary_symmetric(roots)
        return cls(e1, e2, e3)

    @_cached
    def _invariants(self) -> "CubicInvariants":
        return _compute_invariants(self, self.field)

    @_cached
    def _model(self) -> tuple:
        """Over Q: (H, ell, A, B, D) of _integer_model, built on the first
        read; C and E are left to cubic_invariants, on demand."""
        return _integer_model(self.a1, self.a2, self.a3)


def _integer_model(a1, a2, a3) -> tuple:
    """(H, ell, A, B, D), all ints, for f3(a) over Q: ell is the lcm of the
    denominators, H = X^3 - t1 X^2 + t2 X - t3 with t_i = ell^i a_i, and
    A, B, D those of (t1, t2, t3), checked (_checked_abd).  They are all
    that decide reads; C and E come on demand (_compute_invariants)."""
    ell = math.lcm(d1 := a1.denominator, d2 := a2.denominator, d3 := a3.denominator)
    t1, t2, t3 = (a1.numerator * (ell // d1), a2.numerator * (ell * ell // d2),
                  a3.numerator * (ell**3 // d3))
    return [-t3, t2, -t1, 1], ell, *_checked_abd(t1, t2, t3)


class CubicInvariants(Record):
    A: object
    B: object
    C: object
    D: object
    E: object


def cubic_invariants(s: CubicTriple) -> CubicInvariants:
    """A, B, C, D, E of the triple in its field, computed once per triple and
    kept on it.  A, B and D are checked in every field (_checked_abd):
    4A^3 - B^2 = 27D, and D against the Bezout determinant of the cubic and
    its derivative.  Over Q the checks run once, on ints, as the triple
    builds its model (_integer_model); C and E come from it on demand."""
    return s._invariants


def _checked_abd(s1, s2, s3) -> tuple:
    """(A, B, D) of (s1, s2, s3), in any commutative ring, on the shared
    products q = s1^2 and p = s1 s2, and both checks: D against
    _bezout_discriminant, and 4A^3 - B^2 = 27D."""
    q, p = s1 * s1, s1 * s2
    A, B = q - 3 * s2, s1 * (q + q) - 9 * p + 27 * s3
    D = p * p - 4 * s2 * s2 * s2 - s3 * (4 * q * s1 - 18 * p + 27 * s3)
    if D != _bezout_discriminant(-s3, s2, -s1):
        raise AssertionError("discriminant routes disagree")
    if 4 * A**3 - B**2 != 27 * D:
        raise AssertionError("4A^3 - B^2 = 27D violated")
    return A, B, D


def _invariants_ce(s1, s2, s3) -> tuple:
    """(C, E) of (s1, s2, s3), in any commutative ring."""
    return s1**4 - 4 * s1**2 * s2 + s2**2 + 6 * s1 * s3, s1 * s2 - 9 * s3


def _bezout_discriminant(c0, c1, c2):
    """Disc f = -Res(f, f') of f = X^3 + c2 X^2 + c1 X + c0, in any
    commutative ring, as the determinant of the 3x3 Bezout matrix of f and
    f', which is -Res(f, f').  The identity holds over Z, so it holds in
    characteristics 2 and 3 too, where f' drops degree.  The rows are (c1^2 -
    2 c0 c2, m, c1), (m, 2 c2^2 - 2 c1, 2 c2), (c1, 2 c2, 3), m = c1 c2 - 3 c0,
    expanded along the first, with 2x and 3x as sums: no int is lifted to an
    element over GF(p^k)."""
    x, t, m = c0 * c2, c2 + c2, c1 * c2 - (c0 + c0 + c0)
    d = (y := c2 * c2 - c1) + y
    return ((c1 * c1 - x - x) * (d + d + d - t * t) - m * (m + m + m - t * c1)
            + c1 * (m * t - d * c1))


def _compute_invariants(s: CubicTriple, field) -> CubicInvariants:
    """A..E of s in field.  Over Q: A, B, D of the model and C, E of its t_i,
    divided by ell^weight, the weights being 2, 3, 4, 6, 3."""
    if field is QQ:
        H, ell, A, B, D = s._model
        C, E = _invariants_ce(-H[2], H[1], -H[0])
        return CubicInvariants(*(Fraction(v, ell**w) for v, w in
                                 zip((A, B, C, D, E), (2, 3, 4, 6, 3))))
    s1, s2, s3 = s.values(field)
    (A, B, D), (C, E) = _checked_abd(s1, s2, s3), _invariants_ce(s1, s2, s3)
    return CubicInvariants(A, B, C, D, E)


def _common_field(s: CubicTriple, t: CubicTriple):
    return s.field if s.field is not QQ else t.field


def _pair(s: CubicTriple, t: CubicTriple):
    """(field, invariants of s, invariants of t) for a pair function, in the
    first non-rational field of s and t, so that an integer triple pairs
    with a GF(p^k) one."""
    field = _common_field(s, t)
    return field, _invariants_in(s, field), _invariants_in(t, field)


def _invariants_in(s: CubicTriple, field) -> CubicInvariants:
    return cubic_invariants(s) if field == s.field else _compute_invariants(s, field)


# --------------------------------------------------------------------------
# Images of cubics under Tschirnhausen transformations.
# --------------------------------------------------------------------------


def tschirn_image(s: CubicTriple, coeffs) -> CubicTriple:
    """The triple of g(X) = Prod (X - u(alpha_i)) for u = c0 + c1 X + c2 X^2,
    alpha_i the roots of f3(s), from _image_formulas in the field of s; a
    longer list is first reduced mod f3(s)."""
    field = s.field
    return CubicTriple(*_image_formulas(*s.values(field),
                                        *_reduced(s, coeffs, field)))


def _model_maps(s: CubicTriple, t: CubicTriple, k, m) -> bool:
    """Whether u = (k0 + k1 beta + k2 beta^2)/m, in the model coordinates of
    s (_model_coords), maps f3(s) onto f3(t) over Q, on ints: the image has
    the triple E_i / m^i, (E1, E2, E3) = _image_formulas of v = m u on the
    model of s, and t has t_i / mu^i, so they agree iff E_i mu^i == t_i m^i."""
    H, Ht, mu = s._model[0], t._model[0], t._model[1]
    e = _image_formulas(-H[2], H[1], -H[0], *k)
    return (e[0] * mu == -Ht[2] * m and e[1] * mu * mu == Ht[1] * m * m
            and e[2] * mu**3 == -Ht[0] * m**3)


def _reduced(s: CubicTriple, coeffs, field) -> list:
    """coeffs in field, reduced mod f3(s) when longer than 3, padded to 3."""
    c = [field(x) for x in coeffs]
    if len(c) > 3:
        c = list((UniPoly(field, c) % s.poly(field)).coeffs)
    return (c + [field.zero] * 3)[:3]


def _model_coords(s: CubicTriple, coeffs) -> tuple:
    """(k, m), ints, with u = (k0 + k1 beta + k2 beta^2)/m for the rational
    u = c0 + c1 alpha + c2 alpha^2: m = d ell^2, d the lcm of the
    denominators, and k_j = c_j m / ell^j."""
    c, ell = _reduced(s, coeffs, QQ), s._model[1]
    d = math.lcm(*(x.denominator for x in c))
    return ([x.numerator * (d // x.denominator) * ell ** (2 - j)
             for j, x in enumerate(c)], d * ell * ell)


def _model_mul(s: CubicTriple, x, y) -> list:
    """x y in Z[beta] = Z[X]/(H), on coordinate lists in 1, beta, beta^2."""
    xy = [sum(x[i] * y[k - i] for i in range(max(0, k - 2), min(k, 2) + 1))
          for k in range(5)]
    r = zpoly.divmod_monic(zpoly.trim(xy), s._model[0])[1]
    return (r + [0, 0, 0])[:3]


def _image_formulas(s1, s2, s3, c0, c1, c2) -> tuple:
    """(e1, e2, e3) of u = c0 + c1 X + c2 X^2 on the roots of f3(s), in any
    commutative ring.  The multiplication-by-u matrix has the columns u,
    u alpha, u alpha^2 reduced by alpha^3 = s1 alpha^2 - s2 alpha + s3:

        [ c0   c2 s3   s3 w         ]
        [ c1   p       c2 s3 - s2 w ]   w = c1 + c2 s1,  p = c0 - c2 s2.
        [ c2   w       p + s1 w     ]"""
    w = c1 + c2 * s1
    p = c0 - c2 * s2
    m01, m02 = c2 * s3, s3 * w
    m12, m22 = m01 - s2 * w, p + s1 * w
    minor0 = p * m22 - m12 * w
    return (
        c0 + p + m22,
        c0 * (p + m22) - m01 * c1 - m02 * c2 + minor0,
        c0 * minor0 - m01 * (c1 * m22 - m12 * c2) + m02 * (c1 * w - p * c2),
    )


# --------------------------------------------------------------------------
# The brute-force coset oracle.
# --------------------------------------------------------------------------


def oracle_resolvent(rt: RootTuple, index: int) -> UniPoly:
    """Prod over all n! cosets of (X - u_index), u from the Vandermonde solve.

    This is the defining construction of the resolvents; the closed-form
    F_i are validated against it.
    """
    n = rt.n
    if not 0 <= index < n:
        raise ValueError(f"coefficient index {index} outside 0..{n-1}")
    field = rt.field
    out = UniPoly.one(field)
    for tau in permutations(range(n)):
        u = vandermonde_solve(rt, tau)
        out = out * UniPoly(field, (-u[index], field.one))
    return out


# --------------------------------------------------------------------------
# Closed-form sextic resolvents F2, F1 and the recovery data for F0.
# --------------------------------------------------------------------------


def _require_nonzero(value, name: str):
    if not value:
        raise MathDomainError(f"{name} must be nonzero")
    return value


def _sextic(field, a, v, js: CubicInvariants, jt: CubicInvariants) -> UniPoly:
    """The closed form that F2 (a = A_s, v = -1) and F1 (a = C_s,
    v = s1 s2 - s3) share:

        X^6 - 2 a A_t/D_s X^4 - v B_t/D_s X^3 + a^2 A_t^2/D_s^2 X^2
            + v a A_t B_t/D_s^2 X + (v^2 A_t^3 D_s - a^3 D_t)/D_s^3,

    with one inverse 1/D_s and its square for every denominator."""
    At, Bt, Dt = jt.A, jt.B, jt.D
    inv = field.one / _require_nonzero(js.D, "D_s = Disc f3(s)")
    inv2, aAt = inv * inv, a * At
    return UniPoly(
        field,
        (
            (v * v * At**3 - a**3 * Dt * inv) * inv2,
            v * aAt * Bt * inv2,
            aAt * aAt * inv2,
            -(v * Bt) * inv,
            -2 * aAt * inv,
            field.zero,
            field.one,
        ),
    )


def resolvent_F2(s: CubicTriple, t: CubicTriple) -> UniPoly:
    """The sextic whose roots are the quadratic coefficients u2 of the six
    Tschirnhausen transformations from f3(s) to f3(t)."""
    field, js, jt = _pair(s, t)
    return _sextic(field, js.A, -1, js, jt)


def resolvent_F1(s: CubicTriple, t: CubicTriple) -> UniPoly:
    """The sextic whose roots are the linear coefficients u1."""
    field, js, jt = _pair(s, t)
    s1, s2, s3 = s.values(field)
    return _sextic(field, js.C, s1 * s2 - s3, js, jt)


def recovery_polys(s: CubicTriple, t: CubicTriple):
    """(Q12, D12) as polynomials in u2: the recovery map u1 = Q12/D12."""
    field, js, jt = _pair(s, t)
    s1, _, _ = s.values(field)
    As, Bs, Ds = js.A, js.B, js.D
    At, Bt = jt.A, jt.B
    q12 = UniPoly(
        field,
        (
            3 * As**2 * Bt,
            -(At * (6 * As**3 - Bs**2 + 2 * As * Bs * s1)),
            field.zero,
            6 * Ds * (As**2 + Bs * s1),
        ),
    )
    d12 = UniPoly(field, (3 * Bs * As * At, field.zero, -9 * Bs * Ds))
    return q12, d12


def _recovery_at(s: CubicTriple, t: CubicTriple, n, d) -> tuple:
    """(k, m), ints, the transformation at u2 = c2 = ell^2 n / (mu d) over Q
    in the model coordinates of s (_model_coords): u1 = Q12(c2)/D12(c2) and
    u0 from the trace condition.  With s1, s2, ell, a, b, delta of the model
    of s, t1, mu, alpha, beta of that of t, E = ell^5 mu^2 D12(c2) / d^2 and
    N = ell^4 mu^3 d^3 Q12(c2): m = 3 mu d E, k1 = 3 N = m u1 / ell, k2 = 3 n E
    and k0 = t1 d E - s1 N - (s1^2 - 2 s2) n E = m u0, divided by their gcd."""
    Hs, ell, a, b, delta = s._model
    Ht, mu, alpha, beta, _ = t._model
    E = 3 * b * (a * alpha * d * d - 3 * delta * n * n)
    if not E:
        raise MathDomainError("D_{1,2}(c2) = 0: c2 is a multiple resolvent "
                              "root; use the multiple-root branch")
    s1, a2 = -Hs[2], a * a
    N = (3 * a2 * beta * d**3 + 6 * delta * (a2 + b * s1) * n**3
         - alpha * (6 * a2 * a - b * b + 2 * a * b * s1) * n * d * d)
    k = (-Ht[2] * d * E - s1 * N - (s1 * s1 - 2 * Hs[1]) * n * E, 3 * N, 3 * n * E)
    g = math.gcd(*k, m := 3 * mu * d * E)
    return [x // g for x in k], m // g


def recovery_h_list(s: CubicTriple, t: CubicTriple) -> list:
    """The paper's display of 1/D12 mod F2: coefficients h_0..h_5 with
    1/D12 = (1/D12^0) * sum h_i u2^i mod F2, where the u2-free denominator
    is D12^0 = 3 B_s degeneracy_indicator(s, t)^2.  No decision path uses
    it; resolvent_F0 inverts 3 D12 modulo its block of F2 by the extended
    Euclidean algorithm instead."""
    _, js, jt = _pair(s, t)
    As, Ds = js.A, js.D
    At, Bt, Dt = jt.A, jt.B, jt.D
    return [
        4 * As**2 * At**2 * (As**3 * Bt**2 + 27 * At**3 * Ds - 27 * Bt**2 * Ds),
        27 * Bt * Ds * (4 * As**3 * At**3 + 9 * At**3 * Ds - 9 * As**3 * Dt),
        -3 * As * At * Ds * (5 * As**3 * Bt**2 + 135 * At**3 * Ds - 54 * Bt**2 * Ds),
        -270 * As**2 * At**2 * Bt * Ds**2,
        9 * Ds**2 * (As**3 * Bt**2 + 27 * At**3 * Ds),
        162 * As * At * Bt * Ds**3,
    ]


def degeneracy_indicator(s: CubicTriple, t: CubicTriple):
    """A_s^3 B_t^2 - 27 A_t^3 D_s; zero exactly when F2 has multiple roots
    (given B_s D_t != 0), which is also when the recovery map degenerates."""
    _, js, jt = _pair(s, t)
    return js.A**3 * jt.B**2 - 27 * jt.A**3 * js.D


def _trace_u0(s: CubicTriple, t: CubicTriple, u1, u2, field):
    """u0 from the trace condition 3 u0 + s1 u1 + (s1^2 - 2 s2) u2 = t1."""
    s1, s2, _ = s.values(field)
    return (t.values(field)[0] - s1 * u1 - (s1**2 - 2 * s2) * u2) / 3


def _double_root_fiber(s: CubicTriple, t: CubicTriple, c) -> tuple:
    """(q0, q1, q2) of A_s u1^2 + (B_s + 2 E_s) c u1 + C_s c^2 - A_t, whose
    roots are the u1 of the two transformations over a double root u2 = c
    of F2 at which D12 vanishes.  It is -3 (e2 of the image - t2), u0 from
    the trace condition, in any commutative ring; c is a field element or
    a polynomial in c."""
    _, js, jt = _pair(s, t)
    return c * c * js.C - jt.A, c * (js.B + 2 * js.E), js.A


def _fiber_block(g: UniPoly, s: CubicTriple, t: CubicTriple, field):
    """Monic image in u0 of the fibers over the roots of g, a monic
    squarefree block of double roots of F2: the characteristic polynomial
    of multiplication by u0 = a + m u1, a = u0(0, c), m = -s1/3, on
    K[c, u1]/(g(c), fiber).  By u1^2 = -(q1 u1 + q0)/q2, q2 = A_s != 0, it
    is [[a, m], [-m q0/q2, a - m q1/q2]] over K[c]/(g) in the basis 1, u1."""
    c = UniPoly.X(field)
    q0, q1, q2 = _double_root_fiber(s, t, c)
    a, m = _trace_u0(s, t, 0, c, field), -s.values(field)[0] / 3
    blocks = ((a, m * UniPoly.one(field)), (-m * q0 / q2, a - m * q1 / q2))
    return charpoly(field, [x + y for p, r in blocks
                            for x, y in zip(_mul_rows(p, g), _mul_rows(r, g))])


def _mul_rows(p: UniPoly, h: UniPoly) -> list:
    """The coefficient lists of p Y^i mod h, i < deg h: the transpose of
    the matrix of multiplication by p on K[Y]/(h), same char poly."""
    y, rows = UniPoly.X(h.field), [p % h]
    for _ in range(h.degree - 1):
        rows.append(rows[-1] * y % h)
    return [[r[i] for i in range(h.degree)] for r in rows]


def _transport_block(h: UniPoly, s: CubicTriple, t: CubicTriple, field):
    """Monic image of the monic u2-block h under the recovery map
    u0 = N/(3 D12), the trace condition at u1 = Q12/D12: the characteristic
    polynomial of multiplication by g = N (3 D12)^-1 on K[Y]/(h), whose
    eigenvalues are g at the roots of h.  The inverse, by the extended
    Euclidean algorithm, exists exactly when Res(h, 3 D12) != 0."""
    q12, d12 = recovery_polys(s, t)
    r0, r1, inv, v = h, 3 * d12 % h, UniPoly.zero(field), UniPoly.one(field)
    while r1:  # inv * 3 D12 = r0 and v * 3 D12 = r1 mod h
        q, r = divmod(r0, r1)
        r0, r1, inv, v = r1, r, v, inv - q * v
    if r0.degree:
        raise MathDomainError(
            "transport denominator Res(h, 3*D12) = 0: degenerate pair"
        )
    y = UniPoly.X(field)
    n_poly = 3 * d12 * _trace_u0(s, t, 0, y, field) - s.values(field)[0] * q12
    return charpoly(field, _mul_rows(n_poly * (inv / r0.lc), h))


def resolvent_F0(s: CubicTriple, t: CubicTriple) -> UniPoly:
    """The sextic whose roots are the constant coefficients u0, computed by
    transporting the roots of F2 through the recovery map, in every
    characteristic but 3.  The map degenerates at double roots of F2, whose
    fibers add their image in u0 (_fiber_block): the double root of
    degenerate_f2_blocks on the locus, and every root of G when B_s = 0 and
    F2 = G^2.  If A_s = A_t = 0, F2 = X^3 (X^3 + B_t/D_s), and the fiber of
    u2 = 0 (u1^3 = B_t/B_s, 3 u0 = t1 - s1 u1) adds (X - t1/3)^3 +
    (s1/3)^3 B_t/B_s."""
    field = _common_field(s, t)
    if field.char == 3:
        raise MathDomainError("F0 divides by 3 in characteristic 3: use "
                              "resolvent_F0_char3_depressed or sextic_generic")
    f2 = resolvent_F2(s, t)
    js, jt = _invariants_in(s, field), _invariants_in(t, field)
    if js.B and degeneracy_indicator(s, t):
        return _transport_block(f2, s, t, field)
    if js.B and not (jt.A or jt.B):
        # on the locus, A_s B_s != 0 and A_t = 0 force B_t = 0 as well
        raise MathDomainError(
            "f3(t) = (X - t1/3)^3 has a triple root: A_t = B_t = 0"
        )
    if js.B and not js.A:
        # on the locus A_s = 0 forces A_t = 0
        s1, t1 = s.values(field)[0], t.values(field)[0]
        k = jt.B / js.B
        fiber = (UniPoly.X(field) - t1 / 3) ** 3 + (s1 / 3) ** 3 * k
        return fiber * _transport_block(UniPoly(field, f2.coeffs[3:]), s, t, field)
    if js.B:
        double, simple, cubic = degenerate_f2_blocks(s, t)
        out = _transport_block(simple * cubic, s, t, field)
        return out * _fiber_block(double, s, t, field)
    # D12 = 0 and F2 = G^2 with G = X^3 + p X + q, p = f2[4]/2, q = f2[3]/2
    p, q = f2[4] / 2, f2[3] / 2
    if not 4 * p**3 + 27 * q**2:
        raise MathDomainError("B_s = 0 needs F2 = G^2 with G squarefree")
    return _fiber_block(UniPoly(field, (q, p, 0, 1)), s, t, field)


def degenerate_f2_blocks(s: CubicTriple, t: CubicTriple):
    """The closed-form split of F2 on the degenerate locus
    A_s^3 B_t^2 = 27 A_t^3 D_s (requires A_s A_t != 0, whence B_t != 0):

        F2 = (X - r)^2 (X + 2r) (X^3 - 3 r^2 X + r^3 (B_t^2 / A_t^3 - 2)),

    r = 3 A_t^2 / (A_s B_t).  Returns (double_root_factor, simple_factor,
    cubic_factor).
    """
    r = _locus_root(s, t)
    if degeneracy_indicator(s, t):
        raise MathDomainError(
            "closed-form split needs the degenerate locus "
            "A_s^3 B_t^2 - 27 A_t^3 D_s = 0"
        )
    field, _, jt = _pair(s, t)
    q = r**3 * (jt.B**2 / jt.A**3 - 2)
    return (
        UniPoly(field, (-r, field.one)),
        UniPoly(field, (2 * r, field.one)),
        UniPoly(field, (q, -3 * r * r, field.zero, field.one)),
    )


def _locus_root(s: CubicTriple, t: CubicTriple):
    """r = 3 A_t^2 / (A_s B_t): on the multiple-root locus, the double root
    of F2, whose simple root is -2r (see degenerate_f2_blocks)."""
    _, js, jt = _pair(s, t)
    _require_nonzero(js.A * jt.A, "A_s * A_t")
    _require_nonzero(jt.B, "B_t")
    return 3 * jt.A**2 / (js.A * jt.B)


def resolvent_F2_split(s: CubicTriple, t: CubicTriple):
    """Over Q with D_s D_t a nonzero square: the two cubic factors
    F2(+-) = X^3 - (A_s A_t / D_s) X + (B_t -+ B_s e) / (2 D_s), where
    e = sqrt(D_t / D_s).  Their product is F2."""
    field = QQ
    js, jt = _invariants_in(s, field), _invariants_in(t, field)
    _require_nonzero(js.D, "D_s")
    _require_nonzero(jt.D, "D_t")
    e = is_square_rat(jt.D / js.D)
    if e is None:
        raise MathDomainError(
            "split form needs D_s * D_t to be a nonzero rational square"
        )
    lin = -(js.A * jt.A) / js.D
    plus = UniPoly(field, ((jt.B - js.B * e) / (2 * js.D), lin, field.zero, field.one))
    minus = UniPoly(field, ((jt.B + js.B * e) / (2 * js.D), lin, field.zero, field.one))
    return plus, minus


# --------------------------------------------------------------------------
# Characteristic-3 displays.
# --------------------------------------------------------------------------


def resolvent_F2_char3(s: CubicTriple, t: CubicTriple) -> UniPoly:
    """F2 in characteristic 3 (display form; equals the generic F2 mod 3)."""
    field, js, jt = _pair(s, t)
    if field.char != 3:
        raise MathDomainError("characteristic-3 display needs a char-3 field")
    s1, _, _ = s.values(field)
    t1, _, _ = t.values(field)
    _require_nonzero(s1 * t1, "s1 * t1")
    Ds, Dt = js.D, jt.D
    _require_nonzero(Ds, "D_s")
    return UniPoly(
        field,
        (
            (t1**6 * Ds - s1**6 * Dt) / Ds**3,
            s1**2 * t1**5 / Ds**2,
            s1**4 * t1**4 / Ds**2,
            -(t1**3) / Ds,
            s1**2 * t1**2 / Ds,
            field.zero,
            field.one,
        ),
    )


def resolvent_F0_char3_depressed(s: CubicTriple, t: CubicTriple) -> UniPoly:
    """F0 in characteristic 3 for depressed triples (s1 = t1 = 0)."""
    field = _common_field(s, t)
    if field.char != 3:
        raise MathDomainError("characteristic-3 display needs a char-3 field")
    s1, s2, s3 = s.values(field)
    t1, t2, t3 = t.values(field)
    if s1 or t1:
        raise MathDomainError("depressed display needs s1 = t1 = 0")
    _require_nonzero(s2, "s2")
    return UniPoly(
        field,
        (
            (s2**3 * t3**2 - s3**2 * t2**3) / s2**3,
            t2 * t3,
            t2**2,
            t3,
            -t2,
            field.zero,
            field.one,
        ),
    )


def resolvent_G0_char3(s, t) -> UniPoly:
    """G0(s,t;X) = F0(0,s,-s,0,t,-t;X) in characteristic 3 (one-parameter
    S3 x S3 family); discriminant t^15 / s^3."""
    a, b = CubicTriple(0, s, -s), CubicTriple(0, t, -t)
    field = _common_field(a, b)
    if field.char != 3:
        raise MathDomainError("characteristic-3 display needs a char-3 field")
    _require_nonzero(field(s), "s")
    return resolvent_F0_char3_depressed(a, b)


# --------------------------------------------------------------------------
# One-parameter families (char != 3): H, G2, Shanks cubics, the +- split.
# --------------------------------------------------------------------------


def resolvent_H(a, b) -> UniPoly:
    """H(a,b;X) = a(X^2+9X-3a)^3 - b(X^3-2aX^2-9aX-2a^2-27a)^2, the
    resolvent of the one-parameter family X^3 + aX + a; leading
    coefficient a - b."""
    field = QQ
    a = field(a)
    b = field(b)
    u = UniPoly(field, (-3 * a, 9, 1))
    v = UniPoly(field, (-2 * a**2 - 27 * a, -9 * a, -2 * a, 1))
    return a * u**3 - b * v**2


def resolvent_G2(s, t) -> UniPoly:
    """G2(s,t;X) = F2(0,s,-s,0,t,-t;X) for the family X^3 + sX + s."""
    field = QQ
    s = field(s)
    t = field(t)
    d = -(s**2) * (4 * s + 27)
    _require_nonzero(d, "s^2 (4s + 27)")
    return UniPoly(
        field,
        (
            -729 * s**2 * t**2 * (s - t) / d**3,
            243 * s * t**2 / d**2,
            81 * s**2 * t**2 / d**2,
            -27 * t / d,
            -18 * s * t / d,
            field.zero,
            field.one,
        ),
    )


def shanks_triple(m) -> CubicTriple:
    """The simplest-cubic-field triple: f3 = X^3 - mX^2 - (m+3)X - 1."""
    m = QQ(m)
    return CubicTriple(m, -(m + 3), QQ(1))


def shanks_delta(m):
    """Delta = m^2 + 3m + 9; the discriminant of the Shanks cubic is Delta^2."""
    m = QQ(m)
    return m**2 + 3 * m + 9


def cyclic_F2_pm(m, n):
    """The two cubic factors of F2 for a pair of Shanks cubics:
    F2(+-) = X^3 - (Db/Da) X -+ ((m-n) resp. -(m+n+3)) Db/Da^2."""
    m, n = QQ(m), QQ(n)
    da, db = shanks_delta(m), shanks_delta(n)
    lin = -db / da
    plus = UniPoly(QQ, (-(m - n) * db / da**2, lin, QQ(0), QQ(1)))
    minus = UniPoly(QQ, ((m + n + 3) * db / da**2, lin, QQ(0), QQ(1)))
    return plus, minus


def cyclic_h_pm(m, n):
    """Integral models h(+-)(m,n;Z) of the cyclic-pair resolvents, with
    Disc h(+-) = Da^2 Db^2 / (m-n)^4 resp. (m+n+3)^4."""
    m, n = QQ(m), QQ(n)
    if m == n:
        raise MathDomainError("h+ needs m != n")
    if m + n + 3 == 0:
        raise MathDomainError("h- needs m + n + 3 != 0")
    hp = UniPoly(
        QQ,
        (
            QQ(-1),
            -(m * n + 3 * m + 9) / (m - n),
            -(m * n + 3 * n + 9) / (m - n),
            QQ(1),
        ),
    )
    hm = UniPoly(
        QQ,
        (
            QQ(-1),
            (m * n - 9) / (m + n + 3),
            (m * n + 3 * m + 3 * n) / (m + n + 3),
            QQ(1),
        ),
    )
    return hp, hm


# --------------------------------------------------------------------------
# The five two-parameter generic sextics.
# --------------------------------------------------------------------------

_PAIRS = ("S3,S3", "S3,C3", "S3,C2", "S3,Id", "C3,C2")


def _normalize_pair(pair) -> str:
    if isinstance(pair, (tuple, list)):
        pair = ",".join(str(p) for p in pair)
    pair = pair.replace(" ", "").replace("{1}", "Id").replace("1", "Id")
    if pair not in _PAIRS:
        raise ValueError(f"unknown group pair {pair!r}; expected one of {_PAIRS}")
    return pair


def sextic_generic(pair, s, t=None) -> UniPoly:
    """Two-parameter generic sextics for pairs of cubic Galois groups.

    Each pair names the groups of the two underlying cubic families:
    S3 -> X^3 + sX + s, C3 -> the cyclic family X^3 - sX^2 - (s+3)X - 1,
    C2 -> X^3 - tX, Id -> X^3 - X.  The pair (S3,Id) is (S3,C2) at t = 1,
    so it ignores t.  The field of the parameters picks the mode; any field
    other than Q or one of characteristic 3 raises MathDomainError.

    Rational parameters (char != 3 mode): built on F2 of the pair, with the
    (S3,*) rows rescaled by X -> 3X and 3^-6 when the second family is
    depressed.

    Parameters in a characteristic-3 field: built on F0 of the pair; the
    first argument is the slot sigma = 1/s of the S3/C3 family parameter,
    so sextic_generic(pair, sigma, t) equals F0 of the pair at s = 1/sigma.
    Every char-3 row is polynomial in (sigma, t); each row is validated
    against the brute-force coset oracle over GF(27).
    """
    pair = _normalize_pair(pair)
    if pair == "S3,Id":
        pair, t = "S3,C2", None
    # ints and Fractions carry no field: they are rationals
    field = getattr(s, "field", None) or getattr(t, "field", QQ)
    if field is not QQ:
        if field.char != 3:
            raise MathDomainError(
                "generic sextics need rational or characteristic-3 parameters"
            )
        return _sextic_generic_char3(pair, field, s, t)
    s = field(s)
    t = field(t) if t is not None else field.one
    k = s * (4 * s + 27)
    if pair == "S3,S3":
        _require_nonzero(k, "s (4s + 27)")
        return UniPoly(
            field,
            (
                (s - t) * t**2 / (s**4 * (4 * s + 27) ** 3),
                t**2 / (s**3 * (4 * s + 27) ** 2),
                t**2 / (s**2 * (4 * s + 27) ** 2),
                t / (s**2 * (4 * s + 27)),
                2 * t / k,
                field.zero,
                field.one,
            ),
        )
    if pair == "S3,C3":
        _require_nonzero(k, "s (4s + 27)")
        w = t**2 + 3 * t + 9
        return UniPoly(
            field,
            (
                w**2
                * (4 * s * t**2 + 27 * t**2 + 12 * s * t + 9 * s + 81 * t + 243)
                / (s**4 * (4 * s + 27) ** 3),
                3 * (2 * t + 3) * w**2 / (s**3 * (4 * s + 27) ** 2),
                9 * w**2 / (s**2 * (4 * s + 27) ** 2),
                -(2 * t + 3) * w / (s**2 * (4 * s + 27)),
                -6 * w / k,
                field.zero,
                field.one,
            ),
        )
    if pair == "S3,C2":
        _require_nonzero(k, "s (4s + 27)")
        return UniPoly(
            field,
            (
                t**3 / (s**4 * (4 * s + 27) ** 3),
                field.zero,
                t**2 / (s**2 * (4 * s + 27) ** 2),
                field.zero,
                -2 * t / k,
                field.zero,
                field.one,
            ),
        )
    # C3,C2
    w = s**2 + 3 * s + 9
    _require_nonzero(w, "s^2 + 3s + 9")
    return UniPoly(
        field,
        (
            -((2 * s + 3) ** 2) * t**3 / w**4,
            field.zero,
            9 * t**2 / w**2,
            field.zero,
            -6 * t / w,
            field.zero,
            field.one,
        ),
    )


def _sextic_generic_char3(pair: str, field, s, t) -> UniPoly:
    s = field(s)
    t = field(t) if t is not None else field.one
    if pair == "S3,S3":
        return UniPoly(
            field,
            (
                -(t**2) * (s * t - 1),
                -(t**2),
                t**2,
                -t,
                -t,
                field.zero,
                field.one,
            ),
        )
    if pair == "S3,C3":
        return UniPoly(
            field,
            (
                s**2 * t**6 + s * t**4 - s * t**3 + field.one,
                -t * (s * t**3 + 1),
                -t * (s * t**3 - t + 1),
                s * t**3 - t**2 + 1,
                t * (t + 1),
                t,
                field.one,
            ),
        )
    if pair == "S3,C2":
        return UniPoly(
            field,
            (
                s * t**3,
                field.zero,
                t**2,
                field.zero,
                t,
                field.zero,
                field.one,
            ),
        )
    # C3,C2: F0((1/s, -1/s-3, 1), (0,-t,0)) = X^6 + tX^4 + t^2X^2
    # - s^2 t^3 (s^2+1)^2, derived by resultant transport and checked
    # against the coset oracle at every split specialization over GF(27)
    return UniPoly(
        field,
        (
            -(s**2) * t**3 * (s**2 + field.one) ** 2,
            field.zero,
            t**2,
            field.zero,
            t,
            field.zero,
            field.one,
        ),
    )
