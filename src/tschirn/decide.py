"""Decision procedures for cubic splitting fields over Q.

Provides the Galois type of a separable cubic, an exact test for whether two
cubics generate the same splitting field (with an explicit Tschirnhausen
transformation as witness), coefficient recovery at rational resolvent roots,
the closed-form branch for resolvents with a multiple root, and the full
subfield classification by factorization pattern of the degree-six resolvent.

decide_same_splitting takes its branches in this order: a reducible cubic is
compared by its rational roots; two irreducible cubics whose discriminants
lie in different square classes are unequal; the rest go through the A = 0
hop to F2, whose rational roots are read from the closed form on the
multiple-root locus and from factor_over_Q elsewhere.  The exit needs no
resolvent: an S3 splitting field has exactly one quadratic subfield,
Q(sqrt(D)), and a C3 one has none while its D is a square, so equal
splitting fields force Q(sqrt(D_a)) = Q(sqrt(D_b)), i.e. D_a D_b a square.
classify_subfield uses the same exit, and on the locus it reads the factor
pattern of F2 off the same closed form instead of factoring.

Everything here works over Q; the rational arithmetic is exact throughout.
A transformation witness is a triple (c0, c1, c2) meaning u(X) = c0 + c1 X +
c2 X^2, and it certifies g3(a, c; X) = f3(b; X), i.e. u maps the roots of
f3(a) onto the roots of f3(b).
"""

from dataclasses import dataclass
from fractions import Fraction

from .factorq import factor_over_Q, is_square_rat, rational_roots
from .fields import QQ, MathDomainError
from .poly import UniPoly, lagrange_interpolate, linear_solve
from .resolvent import (
    CubicTriple,
    cubic_invariants,
    degeneracy_indicator,
    degenerate_f2_blocks,
    recovery_polys,
    resolvent_F2,
    tschirn_image,
    _double_root_fiber,
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

RELATIONS = (
    "Equal",
    "ProperContains",
    "QuadraticMeet",
    "TrivialMeet",
    "ContainsQuadratic",
    "NotContains",
)


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
        for name in ("c0", "c1", "c2"):
            object.__setattr__(self, name, QQ(getattr(self, name)))

    def as_tuple(self) -> tuple:
        return (self.c0, self.c1, self.c2)

    def poly(self) -> UniPoly:
        return UniPoly(QQ, self.as_tuple())


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
    inv = cubic_invariants(a)
    if not inv.D:
        raise MathDomainError("discriminant is 0: the cubic is inseparable")
    n_rational = len(rational_roots(a.poly()))
    if n_rational == 3:
        return GaloisType("Id")
    if n_rational == 1:
        return GaloisType("C2")
    return GaloisType("C3" if is_square_rat(inv.D) is not None else "S3")


# --------------------------------------------------------------------------
# Witness algebra: verify, compose, invert.
# --------------------------------------------------------------------------


def _coeff_tuple(c) -> tuple:
    if isinstance(c, TschirnCoeffs):
        return c.as_tuple()
    return tuple(c)


def verify_transformation(a: CubicTriple, b: CubicTriple, c) -> bool:
    """True iff Resultant_Y(f3(a;Y), X - (c0 + c1 Y + c2 Y^2)) = f3(b;X)."""
    image = tschirn_image(a, _coeff_tuple(c))
    field = image.field if image.field is not QQ else b.field
    return image.values(field) == b.values(field)


def compose_transformations(a: CubicTriple, first, then) -> TschirnCoeffs:
    """The transformation sending a root x of f3(a) to then(first(x)),
    reduced modulo f3(a)."""
    f = a.poly()
    u = UniPoly(QQ, _coeff_tuple(first))
    v = UniPoly(QQ, _coeff_tuple(then))
    comp = v.compose(u) % f
    return TschirnCoeffs(comp[0], comp[1], comp[2])


def invert_transformation(a: CubicTriple, c) -> TschirnCoeffs:
    """Given a transformation u from a onto some image triple, the
    transformation v with v(u(X)) = X mod f3(a), i.e. the inverse map from
    the image back to a.  Requires u to generate Q[X]/f3(a)."""
    f = a.poly()
    u = UniPoly(QQ, _coeff_tuple(c)) % f
    powers = [UniPoly.one(QQ), u, (u * u) % f]
    rows = [[powers[j][i] for j in range(3)] for i in range(3)]
    sol = linear_solve(QQ, rows, (QQ(0), QQ(1), QQ(0)))
    return TschirnCoeffs(*sol)


# --------------------------------------------------------------------------
# Coefficient recovery at a resolvent root.
# --------------------------------------------------------------------------


def recover_coeffs(a: CubicTriple, b: CubicTriple, c2) -> TschirnCoeffs:
    """Lift a rational root c2 of the u2-resolvent to the full coefficient
    triple (c0, c1, c2) of the corresponding transformation."""
    c2 = QQ(c2)
    if resolvent_F2(a, b).eval(c2):
        raise ValueError(f"{c2} is not a root of the u2-resolvent of the pair")
    q12, d12 = recovery_polys(a, b)
    den = d12.eval(c2)
    if not den:
        raise MathDomainError(
            "D_{1,2}(c2) = 0: c2 is a multiple resolvent root; "
            "use the multiple-root branch"
        )
    c1 = q12.eval(c2) / den
    w = TschirnCoeffs(_trace_u0(a, b, c1, c2, QQ), c1, c2)
    if not verify_transformation(a, b, w):
        raise MathDomainError(
            "recovered coefficients do not transform a into b "
            "(inconsistent inputs)"
        )
    return w


# --------------------------------------------------------------------------
# Same-splitting-field decision.
# --------------------------------------------------------------------------


def _height_key(r: Fraction):
    return (max(abs(r.numerator), r.denominator), r)


def _witness_key(w: TschirnCoeffs):
    height = max(
        max(abs(c.numerator), c.denominator) for c in w.as_tuple()
    )
    return (height, w.as_tuple())


def _avoid_zero_A(a: CubicTriple):
    """Replace a cubic with A = 0 by a transformation-equivalent triple with
    A = 9, returning (triple, hop witness); identity when A is already
    nonzero.  Valid only when B is not 0 or +-1, which holds for every
    separable irreducible input."""
    inv = cubic_invariants(a)
    if inv.A:
        return a, None
    B = inv.B
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
    (b -> b') into a single witness from a to b."""
    w = core
    if hop_a is not None:
        w = compose_transformations(a, hop_a, w)
    if hop_b is not None:
        w = compose_transformations(a, w, invert_transformation(b, hop_b))
    if not verify_transformation(a, b, w):
        raise MathDomainError("composed witness failed verification")
    return w


def _decide_reducible(a: CubicTriple, b: CubicTriple, ra: list, rb: list):
    """Same-splitting-field test for separable cubics, at least one of them
    reducible, from their rational roots ra and rb.  Splitting fields of
    degree 3 or 6 (no root), 2 (one root) and 1 (three roots) never agree;
    fields of equal degree 1 or 2 are compared directly."""
    if len(ra) != len(rb):
        return False, None
    if len(ra) == 3:
        u = lagrange_interpolate(QQ, tuple(zip(ra, rb)))
        w = TschirnCoeffs(u[0], u[1], u[2])
        if not verify_transformation(a, b, w):
            raise MathDomainError("split-cubic witness failed verification")
        return True, w
    if not _same_square_class(a, b):
        return False, None
    return True, _quadratic_pair_witness(a, b, ra[0], rb[0])


def _quadratic_pair_witness(a: CubicTriple, b: CubicTriple, r_a, r_b):
    """Witness between two cubics that each factor as linear x irreducible
    quadratic over one quadratic field: match the rational roots r_a, r_b
    and map the quadratic roots through the square-root identification."""
    q_a = a.poly() // UniPoly(QQ, (-r_a, QQ(1)))
    q_b = b.poly() // UniPoly(QQ, (-r_b, QQ(1)))
    p, q = q_a[1], q_a[0]
    pp, qp = q_b[1], q_b[0]
    e = is_square_rat((pp * pp - 4 * qp) / (p * p - 4 * q))
    if e is None:
        raise MathDomainError(
            "quadratic factors generate different fields: discriminant "
            "ratio is not a square"
        )
    lin = UniPoly(QQ, ((e * p - pp) / 2, e))
    lam = (r_b - lin.eval(r_a)) / q_a.eval(r_a)
    u = lin + q_a * lam
    w = TschirnCoeffs(u[0], u[1], u[2])
    if not verify_transformation(a, b, w):
        raise MathDomainError("quadratic-pair witness failed verification")
    return w


def decide_same_splitting(a: CubicTriple, b: CubicTriple):
    """Whether f3(a) and f3(b) generate the same splitting field over Q.

    Returns (equal, witness); witness is a TschirnCoeffs transforming a into
    b whenever equal is True (and None otherwise).

    Branches, in order: a reducible cubic goes to _decide_reducible; two
    irreducible cubics whose discriminants lie in different square classes
    are unequal, with no resolvent built; otherwise the A = 0 hop and the
    resolvent F2 decide.  The exit is sound because equal splitting fields
    have the same quadratic subfields: Q(sqrt(D_a)) = Q(sqrt(D_b)) for S3,
    and for C3 each D is itself a square.  Either way D_a D_b is a square."""
    if not cubic_invariants(a).D:
        raise MathDomainError("D_a = 0: first cubic is inseparable")
    if not cubic_invariants(b).D:
        raise MathDomainError("D_b = 0: second cubic is inseparable")
    ra, rb = rational_roots(a.poly()), rational_roots(b.poly())
    if ra or rb:
        return _decide_reducible(a, b, ra, rb)
    if not _same_square_class(a, b):
        return False, None
    return _decide_irreducible(a, *_avoid_zero_A(a), b, *_avoid_zero_A(b))


def _same_square_class(a: CubicTriple, b: CubicTriple) -> bool:
    """Whether D_a D_b is a rational square (the discriminants are cached)."""
    return is_square_rat(cubic_invariants(a).D * cubic_invariants(b).D) is not None


def _recoverable_f2_roots(an, bn, f2=None) -> list:
    """The rational roots c2 of F2(an, bn) at which recover_coeffs applies,
    for irreducible an and bn with A != 0.  On the multiple-root locus this
    is the closed-form simple root; elsewhere F2 is squarefree and the roots
    come from f2, the factorization of F2(an, bn), which is computed here
    when the caller has none."""
    if not degeneracy_indicator(an, bn):
        _, simple, _ = degenerate_f2_blocks(an, bn)
        return [-simple.coeffs[0]]
    if f2 is None:
        f2 = factor_over_Q(resolvent_F2(an, bn))
    return [-g.coeffs[0] for g, _ in f2 if g.degree == 1]


def _decide_irreducible(a, an, hop_a, b, bn, hop_b, f2=None):
    """(equal, witness) for irreducible separable a and b, given their A != 0
    forms (an, hop_a) and (bn, hop_b) from _avoid_zero_A; the witness is
    recovered at the least-height root of _recoverable_f2_roots."""
    roots = _recoverable_f2_roots(an, bn, f2)
    if not roots:
        return False, None
    c2 = min(roots, key=_height_key)
    return True, _stitch(a, hop_a, recover_coeffs(an, bn, c2), b, hop_b)


def _degenerate_f2_pattern(an, bn) -> tuple:
    """The degree pattern of F2(an, bn) on the multiple-root locus, read off
    the closed form F2 = (X - r)^2 (X + 2r) (cubic) of degenerate_f2_blocks
    without factoring.  The cubic block has discriminant
    27^4 A_bn^6 D_bn / (A_an^6 B_bn^4) != 0, so it has 0, 1 or 3 rational
    roots and factors as (3), (1, 2) or (1, 1, 1)."""
    n = len(rational_roots(degenerate_f2_blocks(an, bn)[2]))
    return {0: (1, 1, 1, 3), 1: (1, 1, 1, 1, 2), 3: (1,) * 6}[n]


def all_rational_transformations(a: CubicTriple, b: CubicTriple) -> tuple:
    """Every transformation over Q from a onto b, sorted by coefficient
    height.  Both cubics must be irreducible (and separable)."""
    if not (cubic_invariants(a).D and cubic_invariants(b).D):
        raise MathDomainError("inseparable cubic: discriminant is 0")
    if rational_roots(a.poly()) or rational_roots(b.poly()):
        raise MathDomainError(
            "transformation enumeration requires both cubics irreducible"
        )
    if not _same_square_class(a, b):
        return ()
    an, hop_a = _avoid_zero_A(a)
    bn, hop_b = _avoid_zero_A(b)
    found = [recover_coeffs(an, bn, c2) for c2 in _recoverable_f2_roots(an, bn)]
    if not degeneracy_indicator(an, bn):
        # the fiber over the double root
        c = -degenerate_f2_blocks(an, bn)[0].coeffs[0]
        for u1 in rational_roots(_double_root_fiber(an, bn, c, QQ)):
            cand = (_trace_u0(an, bn, u1, c, QQ), u1, c)
            if verify_transformation(an, bn, cand):
                found.append(TschirnCoeffs(*cand))
    out = [_stitch(a, hop_a, w, b, hop_b) for w in found]
    return tuple(sorted(out, key=_witness_key))


# --------------------------------------------------------------------------
# Subfield classification.
# --------------------------------------------------------------------------


def classify_subfield(a: CubicTriple, b: CubicTriple) -> SubfieldReport:
    """Full classification of the relation between the splitting fields,
    with the resolvent factorization pattern checked against the predicted
    table row (predictions are not claimed on the multiple-root locus)."""
    ja, jb = cubic_invariants(a), cubic_invariants(b)
    if not ja.D:
        raise MathDomainError("D_a = 0: first cubic is inseparable")
    if not jb.D:
        raise MathDomainError("D_b = 0: second cubic is inseparable")
    same_square_class = _same_square_class(a, b)
    ga, gb = galois_type(a), galois_type(b)
    swapped = ga.order < gb.order
    if swapped:
        a, b, ga, gb = b, a, gb, ga
    if ga.tag not in ("S3", "C3"):
        raise MathDomainError(
            "classification requires at least one irreducible cubic; got "
            f"Galois types ({ga}, {gb})"
        )
    an, hop_a = _avoid_zero_A(a)
    if gb.tag in ("S3", "C3"):
        bn, hop_b = _avoid_zero_A(b)
    else:
        bn, hop_b = b, None
    degenerate = not degeneracy_indicator(an, bn)
    if degenerate:
        f2, observed = None, _degenerate_f2_pattern(an, bn)
    else:
        f2 = factor_over_Q(resolvent_F2(an, bn))
        observed = f2.degree_pattern()
    witness = None
    if gb.tag == "Id":
        relation = "ProperContains"
    elif gb.tag == "C2":
        if same_square_class:
            relation = "ContainsQuadratic"
        elif ga.tag == "C3":
            relation = "TrivialMeet"
        else:
            relation = "NotContains"
    elif not same_square_class:
        # unequal by the exit in decide_same_splitting
        relation = "TrivialMeet"
    else:
        equal, witness = _decide_irreducible(a, an, hop_a, b, bn, hop_b, f2)
        if equal:
            relation = "Equal"
        elif ga.tag == gb.tag == "S3":
            relation = "QuadraticMeet"
        else:
            relation = "TrivialMeet"

    predicted = (
        None if degenerate else FACTOR_PATTERNS[(ga.tag, gb.tag, relation)]
    )
    return SubfieldReport(
        g_a=ga,
        g_b=gb,
        relation=relation,
        predicted_pattern=predicted,
        observed_pattern=observed,
        degenerate=degenerate,
        witness=witness,
        swapped=swapped,
        normalized_a=hop_a is not None,
        normalized_b=hop_b is not None,
    )
