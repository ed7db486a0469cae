"""Decision procedures for cubic splitting fields over Q.

Provides the Galois type of a separable cubic, an exact test for whether two
cubics generate the same splitting field (with an explicit Tschirnhausen
transformation as witness), coefficient recovery at rational resolvent roots,
the closed-form branch for resolvents with a multiple root, and the full
subfield classification by factorization pattern of the degree-six resolvent.

decide_same_splitting, classify_subfield and all_rational_transformations
read one walk of the branches (_walk), which takes each test once, in this
order: D_a D_b != 0; the integer roots of both models, where a reducible
cubic is compared by its roots (classify instead orders the pair by Galois
group); the square class of D_a D_b; the A = 0 hop of each irreducible
cubic; then F2, read from its closed form on the multiple-root locus and
factored by factor_over_Q elsewhere.  Two cubics in different square classes
are unequal with no resolvent built: an S3 splitting field has exactly one
quadratic subfield, Q(sqrt(D)), and a C3 one has none while its D is a
square, so equal splitting fields force Q(sqrt(D_a)) = Q(sqrt(D_b)), i.e.
D_a D_b a square.  The witness is recovered at the rational root of F2 of
least height and verified once, and again only when composed with a hop.

Everything here works over Q; the arithmetic is exact throughout.  Each
triple keeps one monic integer model (H, ell) with the invariants A, B, D
of H, built from its three coefficients on first use and checked once
against a 3x3 Bezout discriminant (see cubic_invariants), and the branches
run on its ints: the tests D != 0 and of the square class (D_H = ell^6 D),
the root search of the reducibility test, the locus root, the recovery of
the witness at a root of F2, the reducible witnesses, the composition and
inversion of the A = 0 hops in Z[X]/(H), and the verification of every
witness, which compares the image of a's model with b's model
(_model_maps).  A witness the walk builds stays in model coordinates (k, m)
until that check passes, and its Fractions are built once, for the value
returned.
Rational invariants are built only for an A = 0 hop and for F2 off the
locus.  A transformation witness is a triple (c0, c1, c2) meaning
u(X) = c0 + c1 X + c2 X^2, and it certifies g3(a, c; X) = f3(b; X), i.e. u
maps the roots of f3(a) onto those of f3(b).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .factorq import factor_over_Q, rational_roots, _cubic_integer_roots, _is_square
from .fields import QQ, MathDomainError
from .poly import UniPoly
from .resolvent import (
    CubicTriple,
    cubic_invariants,
    resolvent_F2,
    tschirn_image,
    _double_root_fiber,
    _model_coords,
    _model_maps,
    _model_mul,
    _recovery_at,
    _trace_u0,
)

_ORDERS = {"S3": 6, "C3": 3, "C2": 2, "Id": 1}

#: Table of irreducible-factor degree patterns of the u2-resolvent, keyed by
#: (Galois type of a, Galois type of b, field relation), valid off the
#: multiple-root locus with the types ordered so #G_a >= #G_b.
FACTOR_PATTERNS = {
    ("S3", "S3", "TrivialMeet"): (6,),
    ("S3", "S3", "QuadraticMeet"): (3, 3),
    ("S3", "S3", "Equal"): (1, 2, 3),
    ("S3", "C3", "TrivialMeet"): (6,),
    ("S3", "C2", "NotContains"): (6,),
    ("S3", "C2", "ContainsQuadratic"): (3, 3),
    ("S3", "Id", "ProperContains"): (6,),
    ("C3", "C3", "TrivialMeet"): (3, 3),
    ("C3", "C3", "Equal"): (1, 1, 1, 3),
    ("C3", "C2", "TrivialMeet"): (6,),
    ("C3", "Id", "ProperContains"): (3, 3),
}


def _relation(ga: str, gb: str, same_class: bool, equal: bool) -> str:
    """The relation of a FACTOR_PATTERNS row for Galois types ga, gb, with
    #G_a >= #G_b and a irreducible.  Short of equal, two splitting fields
    can share only a quadratic subfield: Q(sqrt(D)) for S3 and C2, none for
    C3 and Id, whose D is a square.  So S3 meets S3, and contains C2, exactly
    when D_a D_b is a square; other irreducible pairs meet trivially, and an
    Id field, Q, lies in every field."""
    if equal:
        return "Equal"
    if gb == "Id":
        return "ProperContains"
    if ga == "S3" and gb == "C2":
        return "ContainsQuadratic" if same_class else "NotContains"
    if ga == gb == "S3" and same_class:
        return "QuadraticMeet"
    return "TrivialMeet"


#: One nondegenerate instance (a, b) per table row, keyed like
#: FACTOR_PATTERNS; ``selftest`` and ``scripts/table_patterns.py`` run them.
TABLE_INSTANCES = {
    ("S3", "S3", "TrivialMeet"): ((0, 3, -2), (0, -1, 1)),
    ("S3", "S3", "QuadraticMeet"): ((0, 0, 2), (0, 0, 3)),
    ("S3", "S3", "Equal"): ((0, -1, -1), (2, 3, 1)),
    ("S3", "C3", "TrivialMeet"): ((0, 0, 2), (0, -3, 1)),
    ("S3", "C2", "NotContains"): ((0, 0, 2), (0, -2, 0)),
    ("S3", "C2", "ContainsQuadratic"): ((0, 0, 2), (1, 3, 3)),
    ("S3", "Id", "ProperContains"): ((0, 0, 2), (6, 11, 6)),
    ("C3", "C3", "TrivialMeet"): ((0, -3, 1), (1, -4, 1)),
    ("C3", "C3", "Equal"): ((-1, -2, 1), (5, -8, 1)),
    ("C3", "C2", "TrivialMeet"): ((0, -3, 1), (1, 3, 3)),
    ("C3", "Id", "ProperContains"): ((0, -3, 1), (6, 11, 6)),
}


@dataclass(frozen=True)
class GaloisType:
    """Isomorphism type of the Galois group of a separable cubic over Q."""

    tag: str

    def __post_init__(self):
        if self.tag not in _ORDERS:
            raise ValueError(f"unknown Galois type {self.tag!r}")

    @property
    def order(self) -> int:
        return _ORDERS[self.tag]

    def __str__(self) -> str:
        return self.tag


@dataclass(frozen=True)
class TschirnCoeffs:
    """Coefficients of u(X) = c0 + c1 X + c2 X^2 defining a transformation."""

    c0: Fraction
    c1: Fraction
    c2: Fraction

    def __post_init__(self):
        if not type(self.c0) is type(self.c1) is type(self.c2) is Fraction:
            for name in ("c0", "c1", "c2"):
                object.__setattr__(self, name, QQ(getattr(self, name)))

    def as_tuple(self) -> tuple:
        return (self.c0, self.c1, self.c2)

    def __iter__(self):
        return iter(self.as_tuple())


@dataclass(frozen=True)
class SubfieldReport:
    """Outcome of the subfield classification for an ordered cubic pair."""

    g_a: GaloisType
    g_b: GaloisType
    relation: str
    predicted_pattern: tuple | None
    observed_pattern: tuple
    degenerate: bool
    witness: TschirnCoeffs | None
    swapped: bool
    normalized_a: bool
    normalized_b: bool

    def to_dict(self) -> dict:
        return {
            "g_a": self.g_a.tag,
            "g_b": self.g_b.tag,
            "relation": self.relation,
            "predicted_pattern": list(self.predicted_pattern)
            if self.predicted_pattern is not None
            else None,
            "observed_pattern": list(self.observed_pattern),
            "degenerate": self.degenerate,
            "witness": [str(c) for c in self.witness.as_tuple()]
            if self.witness is not None
            else None,
            "swapped": self.swapped,
            "normalized_a": self.normalized_a,
            "normalized_b": self.normalized_b,
        }


# --------------------------------------------------------------------------
# Galois type.
# --------------------------------------------------------------------------


def galois_type(a: CubicTriple) -> GaloisType:
    """Galois group type of f3(a; X) over Q from its rational roots and the
    square class of the discriminant."""
    H, _, _, _, D = a._model
    if not D:
        raise MathDomainError("discriminant is 0: the cubic is inseparable")
    return _galois_type(_cubic_integer_roots(H), D)


def _galois_type(roots: list, D) -> GaloisType:
    """galois_type from the integer roots of the model and its D != 0."""
    if roots:
        return GaloisType("Id" if len(roots) == 3 else "C2")
    return GaloisType("C3" if _is_square(D) else "S3")


# --------------------------------------------------------------------------
# Witness algebra: verify, compose, invert.
# --------------------------------------------------------------------------


def verify_transformation(a: CubicTriple, b: CubicTriple, c) -> bool:
    """True iff Resultant_Y(f3(a;Y), X - (c0 + c1 Y + c2 Y^2)) = f3(b;X).
    Over Q it runs on ints: _model_maps on the model coordinates of c in a
    (_model_coords), as the decision walk runs it on the witnesses it builds."""
    if a.field is QQ and b.field is QQ:
        return _model_maps(a, b, *_model_coords(a, c))
    image = tschirn_image(a, c)
    field = image.field if image.field is not QQ else b.field
    return image.values(field) == b.values(field)


def compose_transformations(a: CubicTriple, first, then) -> TschirnCoeffs:
    """The transformation sending a root x of f3(a) to then(first(x)),
    reduced modulo f3(a): then = sum (n_j / d) X^j at u = first(alpha) =
    U/m in Z[beta] (_model_coords) is sum n_j m^(deg - j) U^j / (d m^deg),
    by Horner's rule."""
    U, m = _model_coords(a, first)
    v = [QQ(x) for x in then]
    d = math.lcm(*(x.denominator for x in v))
    n = [x.numerator * (d // x.denominator) for x in v]
    acc, scale = [n[-1], 0, 0], 1
    for nj in reversed(n[:-1]):
        scale *= m
        acc = _model_mul(a, acc, U)
        acc[0] += nj * scale
    return _model_witness(a, acc, d * scale)


def invert_transformation(a: CubicTriple, c) -> TschirnCoeffs:
    """Given a transformation u from a onto some image triple, the
    transformation v with v(u(X)) = X mod f3(a), i.e. the inverse map from
    the image back to a.  Requires u to generate Q[X]/f3(a).  Cramer's rule
    on v0 + v1 u + v2 u^2 = beta/ell in Z[beta], u = U/m, u^2 = W/m^2."""
    U, m = _model_coords(a, c)
    W = _model_mul(a, U, U)
    den = a._model[1] * (U[1] * W[2] - U[2] * W[1])
    if not den:
        raise MathDomainError("singular linear system: matrix determinant is 0")
    return TschirnCoeffs(*(Fraction(x, den) for x in (
        W[0] * U[2] - U[0] * W[2], m * W[2], -m * m * U[2])))


# --------------------------------------------------------------------------
# Coefficient recovery at a resolvent root.
# --------------------------------------------------------------------------


def recover_coeffs(a: CubicTriple, b: CubicTriple, c2) -> TschirnCoeffs:
    """Lift a rational root c2 of the u2-resolvent to the full coefficient
    triple (c0, c1, c2) of the corresponding transformation."""
    c2 = QQ(c2)
    if resolvent_F2(a, b).eval(c2):
        raise ValueError(f"{c2} is not a root of the u2-resolvent of the pair")
    return _recover(a, b, *_model_c2(a, b, c2))


def _model_c2(a: CubicTriple, b: CubicTriple, c2) -> tuple:
    """(n, d), ints, with c2 = ell^2 n / (mu d), as _recovery_at takes it."""
    return c2.numerator * b._model[1], c2.denominator * a._model[1] ** 2


def _recover(a: CubicTriple, b: CubicTriple, n, d) -> TschirnCoeffs:
    """recover_coeffs at (n, d) of _model_c2, without the root test, which
    rebuilds F2: for callers that took c2 from F2's roots."""
    return _checked_witness(a, b, *_recovery_at(a, b, n, d),
                            "recovered coefficients do not transform a into b "
                            "(inconsistent inputs)")


def _checked_witness(a: CubicTriple, b: CubicTriple, k, m, failure: str):
    """The witness (k, m) in a's model coordinates, checked on ints first."""
    if not _model_maps(a, b, k, m):
        raise MathDomainError(failure)
    return _model_witness(a, k, m)


def _model_witness(a: CubicTriple, k, m) -> TschirnCoeffs:
    """c_j = k_j ell^j / m: the inverse of _model_coords."""
    ell = a._model[1]
    return TschirnCoeffs(Fraction(k[0], m), Fraction(k[1] * ell, m),
                         Fraction(k[2] * ell * ell, m))


# --------------------------------------------------------------------------
# Same-splitting-field decision.
# --------------------------------------------------------------------------


def _height_key(r: Fraction):
    return (max(abs(r.numerator), r.denominator), r)


def _witness_key(w: TschirnCoeffs):
    height = max(max(abs(c.numerator), c.denominator) for c in w.as_tuple())
    return (height, w.as_tuple())


def _avoid_zero_A(a: CubicTriple):
    """Replace a cubic with A = 0 by a transformation-equivalent triple with
    A = 9, returning (triple, hop witness); identity when A is already
    nonzero.  Valid only when B is not 0 or +-1, which holds for every
    separable irreducible input."""
    if a._model[2]:
        return a, None
    B = cubic_invariants(a).B
    if B in (0, 1, -1):
        raise MathDomainError(
            f"A = 0 normalization undefined for B = {B} (reducible or "
            "inseparable cubic)"
        )
    a1 = QQ(a.values()[0])
    hop = TschirnCoeffs(a1 * a1 / B - a1, 3 - 6 * a1 / B, QQ(9) / B)
    target = CubicTriple(0, -3, B + 1 / B)
    if not verify_transformation(a, target, hop):
        raise MathDomainError("A = 0 normalization failed to verify")
    return target, hop


def _stitch(a: CubicTriple, hop_a, core: TschirnCoeffs, b: CubicTriple, hop_b):
    """Compose hop_a (a -> a'), core (a' -> b') and the inverse of hop_b
    (b -> b') into a single witness from a to b.  The caller has verified
    core on (a', b'), so with no hop it is returned as it is."""
    if hop_a is None and hop_b is None:
        return core
    w = core if hop_a is None else compose_transformations(a, hop_a, core)
    if hop_b is not None:
        w = compose_transformations(a, w, invert_transformation(b, hop_b))
    if not verify_transformation(a, b, w):
        raise MathDomainError("composed witness failed verification")
    return w


def _decide_reducible(a: CubicTriple, b: CubicTriple, ra: list, rb: list):
    """The witness from a onto b, or None when their splitting fields
    differ, for separable cubics, at least one of them reducible, from the
    integer roots ra and rb of their integer models.  Splitting fields of
    degree 3 or 6 (no root), 2 (one root) and 1 (three roots) never agree;
    fields of equal degree 1 or 2 are compared directly.  The witness
    U(Z) = (k0 + k1 Z + k2 Z^2)/den between the models gives
    u(X) = U(ell_a X)/ell_b."""
    if len(ra) != len(rb):
        return None
    if len(ra) == 3:
        k, den = _split_witness(ra, rb)
    else:
        k, den = _quadratic_pair_witness(a._model[0], b._model[0], ra[0], rb[0])
        if k is None:
            return None
    return _checked_witness(a, b, k, den * b._model[1],
                            "reducible-pair witness failed verification")


def _split_witness(xs, ys) -> tuple:
    """(k, V) with U(x_i) = y_i: Lagrange's V U = sum_i w_i prod_{j != i}
    (Z - x_j), V = (x2 - x1)(x3 - x1)(x3 - x2)."""
    (x1, x2, x3), (y1, y2, y3) = xs, ys
    w1, w2, w3 = y1 * (x3 - x2), -y2 * (x3 - x1), y3 * (x2 - x1)
    k = (w1 * x2 * x3 + w2 * x1 * x3 + w3 * x1 * x2,
         -(w1 * (x2 + x3) + w2 * (x1 + x3) + w3 * (x1 + x2)),
         w1 + w2 + w3)
    return k, (x2 - x1) * (x3 - x1) * (x3 - x2)


def _quadratic_pair_witness(H, H2, x, y) -> tuple:
    """(k, den) with U sending the roots of H = (Z - x) q, q = Z^2 + P Z + Q
    irreducible, to those of H2 = (Z - y)(Z^2 + P2 Z + Q2), or (None, None)
    when the discriminants g, g2 of the quadratics differ in square class.
    L = e Z + (e P - P2)/2, e = sqrt(g2/g), maps the roots of q to those of
    the other quadratic; U = L + lam q, lam = (y - L(x))/q(x)."""
    P, P2 = H[2] + x, H2[2] + y
    Q, Q2 = H[1] + x * P, H2[1] + y * P2
    g, g2 = P * P - 4 * Q, P2 * P2 - 4 * Q2
    s = math.isqrt(g * g2) if g * g2 >= 0 else -1
    if s * s != g * g2:
        return None, None
    g, qx = abs(g), (x + P) * x + Q  # e = s/g
    N = 2 * g * y - 2 * s * x - s * P + g * P2  # 2 g qx lam
    return ((s * P - g * P2) * qx + N * Q, 2 * s * qx + N * P, N), 2 * g * qx


def _model_locus_root(an, bn):
    """On the multiple-root locus, _locus_root(an, bn) as the ints (n, d) of
    _recovery_at, else None, from the invariants of the integer models:
    degeneracy_indicator(an, bn) is (a^3 beta^2 - 27 alpha^3 delta) / (ell mu)^6."""
    _, _, a, _, delta = an._model
    _, _, alpha, beta, _ = bn._model
    if a**3 * beta**2 != 27 * alpha**3 * delta:
        return None
    return 3 * alpha * alpha, a * beta


def _degenerate_f2_pattern(an, bn) -> tuple:
    """The degree pattern of F2(an, bn) on the multiple-root locus, read off
    the closed form F2 = (X - r)^2 (X + 2r) (cubic) of degenerate_f2_blocks
    without factoring.  The cubic block is Y^3 - 3 r^2 Y + r^3 (k - 2), with
    k = B_bn^2 / A_bn^3 = beta^2 / alpha^3 on the model of bn; at Y = r s /
    alpha, r != 0, it is r^3 / alpha^3 (s^3 - 3 alpha^2 s + beta^2 - 2 alpha^3),
    so the pattern depends on bn alone.  The block has discriminant
    27^4 A_bn^6 D_bn / (A_an^6 B_bn^4) != 0, so it has 0, 1 or 3 rational
    roots and factors as (3), (1, 2) or (1, 1, 1)."""
    _, _, alpha, beta, _ = bn._model
    block = [beta * beta - 2 * alpha**3, -3 * alpha * alpha, 0, 1]
    n = len(_cubic_integer_roots(block))
    return {0: (1, 1, 1, 3), 1: (1, 1, 1, 1, 2), 3: (1,) * 6}[n]


class _Decision(NamedTuple):
    """The facts of one _walk for a pair (a, b), in the walk's order, which
    classify may have swapped.  A fact past the branch where the walk
    stopped keeps its default.  an, hop_a, bn, hop_b are _avoid_zero_A of
    each irreducible cubic (a reducible b keeps its form); f2 is F2(an, bn)
    factored, off the locus; c2_roots are the roots of F2 at which the
    witness from a onto b is recovered, least height first, for irreducible
    cubics in one square class, as the ints (n, d) of _recovery_at, like
    the locus root; types are classify's (g_a, g_b)."""

    roots: tuple
    same_class: bool | None = None
    an: CubicTriple | None = None
    hop_a: TschirnCoeffs | None = None
    bn: CubicTriple | None = None
    hop_b: TschirnCoeffs | None = None
    locus_root: tuple | None = None
    f2: object = None
    c2_roots: tuple = ()
    witness: TschirnCoeffs | None = None
    types: tuple | None = None
    swapped: bool = False


def _walk(a: CubicTriple, b: CubicTriple, classify: bool = False) -> _Decision:
    """Take the decision branches for (a, b) once, in the order of the
    module docstring.  For classify the pair is ordered by Galois group
    after the root search, a must be irreducible, and F2 is built across
    square classes too, for its pattern.  On the locus the recoverable root
    is the simple root -2r of the closed form, read without building its
    blocks; elsewhere F2 is squarefree and they are its linear factors."""
    Da, Db = a._model[4], b._model[4]
    if not Da:
        raise MathDomainError("D_a = 0: first cubic is inseparable")
    if not Db:
        raise MathDomainError("D_b = 0: second cubic is inseparable")
    ra, rb = _cubic_integer_roots(a._model[0]), _cubic_integer_roots(b._model[0])
    types, swapped = None, False
    if classify:
        ga, gb = _galois_type(ra, Da), _galois_type(rb, Db)
        swapped = ga.order < gb.order
        if swapped:
            a, b, ra, rb, ga, gb = b, a, rb, ra, gb, ga
        if ra:
            raise MathDomainError(
                "classification requires at least one irreducible cubic; got "
                f"Galois types ({ga}, {gb})"
            )
        types = (ga, gb)
    elif ra or rb:
        return _Decision((ra, rb), witness=_decide_reducible(a, b, ra, rb))
    same_class = _is_square(Da * Db)
    if not (same_class or classify):
        return _Decision((ra, rb), False)
    an, hop_a = _avoid_zero_A(a)
    bn, hop_b = (b, None) if rb else _avoid_zero_A(b)
    r = _model_locus_root(an, bn)
    f2 = None if r is not None else factor_over_Q(resolvent_F2(an, bn))
    c2_roots, witness = (), None
    if same_class and not rb:
        c2_roots = ((-2 * r[0], r[1]),) if r is not None else tuple(
            _model_c2(an, bn, c) for c in sorted(
                (-g.coeffs[0] for g, _ in f2 if g.degree == 1), key=_height_key))
        if c2_roots:
            witness = _stitch(a, hop_a, _recover(an, bn, *c2_roots[0]), b, hop_b)
    return _Decision((ra, rb), same_class, an, hop_a, bn, hop_b, r, f2,
                     c2_roots, witness, types, swapped)


def decide_same_splitting(a: CubicTriple, b: CubicTriple):
    """Whether f3(a) and f3(b) generate the same splitting field over Q.

    Returns (equal, witness); witness is a TschirnCoeffs transforming a into
    b whenever equal is True (and None otherwise)."""
    witness = _walk(a, b).witness
    return witness is not None, witness


def all_rational_transformations(a: CubicTriple, b: CubicTriple) -> tuple:
    """Every transformation over Q from a onto b, sorted by coefficient
    height.  Both cubics must be irreducible (and separable).  One is
    recovered at each recoverable root of F2, and on the multiple-root
    locus the fiber over the double root r adds those with c2 = r."""
    d = _walk(a, b)
    if d.roots[0] or d.roots[1]:
        raise MathDomainError(
            "transformation enumeration requires both cubics irreducible"
        )
    found = [_recover(d.an, d.bn, *c2) for c2 in d.c2_roots[1:]]
    if d.locus_root is not None:
        n, den = d.locus_root
        r = Fraction(d.an._model[1] ** 2 * n, d.bn._model[1] * den)
        for u1 in rational_roots(UniPoly(QQ, _double_root_fiber(d.an, d.bn, r))):
            cand = (_trace_u0(d.an, d.bn, u1, r, QQ), u1, r)
            if verify_transformation(d.an, d.bn, cand):
                found.append(TschirnCoeffs(*cand))
    out = [_stitch(a, d.hop_a, w, b, d.hop_b) for w in found]
    if d.witness is not None:  # recovered by the walk at the first root
        out.append(d.witness)
    return tuple(sorted(out, key=_witness_key))


# --------------------------------------------------------------------------
# Subfield classification.
# --------------------------------------------------------------------------


def classify_subfield(a: CubicTriple, b: CubicTriple) -> SubfieldReport:
    """Full classification of the relation between the splitting fields,
    with the resolvent factorization pattern checked against the predicted
    table row (predictions are not claimed on the multiple-root locus)."""
    d = _walk(a, b, classify=True)
    ga, gb = d.types
    relation = _relation(ga.tag, gb.tag, d.same_class, d.witness is not None)
    degenerate = d.locus_root is not None
    return SubfieldReport(
        g_a=ga,
        g_b=gb,
        relation=relation,
        predicted_pattern=None if degenerate
        else FACTOR_PATTERNS[(ga.tag, gb.tag, relation)],
        observed_pattern=_degenerate_f2_pattern(d.an, d.bn) if degenerate
        else d.f2.degree_pattern(),
        degenerate=degenerate,
        witness=d.witness,
        swapped=d.swapped,
        normalized_a=d.hop_a is not None,
        normalized_b=d.hop_b is not None,
    )
