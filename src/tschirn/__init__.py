"""Exact-arithmetic tools for cubic splitting-field problems over Q.

Decides whether two cubics generate the same splitting field, classifies how
their root fields nest, and exhibits explicit Tschirnhausen transformations
as checkable witnesses.  Everything is exact (Fraction / F_p / GF(p^k)).
"""

from types import ModuleType as _ModuleType

from .decide import (
    FACTOR_PATTERNS,
    GaloisType,
    SubfieldReport,
    TschirnCoeffs,
    all_rational_transformations,
    classify_subfield,
    compose_transformations,
    decide_same_splitting,
    galois_type,
    invert_transformation,
    recover_coeffs,
    verify_transformation,
)
from .factorq import (
    Factorization,
    factor_over_Fp,
    factor_over_Q,
    is_square_rat,
    rational_roots,
)
from .families import (
    NormalForm,
    ScanResult,
    family_c3,
    family_s3,
    rationals_by_height,
    reduce_depressed,
    reduce_one_param,
    reduce_shanks,
    scan_equal_splitting,
    shanks_pair_equal,
)
from .fields import (
    QQ,
    ExtField,
    FpElement,
    GFElement,
    MathDomainError,
    PrimeField,
    Rat,
    RationalField,
    field_of,
    gf_build,
    is_prime,
    rat_parse,
)
from .poly import (
    RootTuple,
    UniPoly,
    elementary_symmetric,
    linear_solve,
    poly_discriminant,
    poly_gcd,
    poly_resultant,
    vandermonde_solve,
)
from .resolvent import (
    CubicInvariants,
    CubicTriple,
    cubic_invariants,
    cyclic_F2_pm,
    cyclic_h_pm,
    degeneracy_indicator,
    degenerate_f2_blocks,
    oracle_resolvent,
    recovery_h_list,
    recovery_polys,
    resolvent_F0,
    resolvent_F0_char3_depressed,
    resolvent_F1,
    resolvent_F2,
    resolvent_F2_char3,
    resolvent_F2_split,
    resolvent_G0_char3,
    resolvent_G2,
    resolvent_H,
    sextic_generic,
    shanks_delta,
    shanks_triple,
    tschirn_image,
)

# The imports above are the one list of public names.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

__version__ = "0.1.0"
