"""The library's nine frozen records: construction, equality, hashing, repr,
frozenness, the checks their constructors make, and pickling (``scan
--jobs`` sends records through a process pool); and that importing the
package loads neither ``dataclasses`` nor ``inspect``."""

import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from tschirn import (
    QQ,
    CubicInvariants,
    CubicTriple,
    Factorization,
    GaloisType,
    MathDomainError,
    NormalForm,
    RootTuple,
    ScanResult,
    SubfieldReport,
    TschirnCoeffs,
    UniPoly,
    classify_subfield,
    cubic_invariants,
    factor_over_Q,
    reduce_depressed,
    scan_equal_splitting,
)

_X3_2 = UniPoly(QQ, (F(-2), F(0), F(0), F(1)))
_WITNESS = TschirnCoeffs(F(-1, 3), 1, 0)

# name: (class, field names, values, other values, repr of the values)
CASES = {
    "GaloisType": (
        GaloisType, ("tag",), ("S3",), ("C3",), "GaloisType(tag='S3')"),
    "TschirnCoeffs": (
        TschirnCoeffs, ("c0", "c1", "c2"), (F(0), F(2), F(0)), (F(0), F(2), F(1)),
        "TschirnCoeffs(c0=Fraction(0, 1), c1=Fraction(2, 1), c2=Fraction(0, 1))"),
    "SubfieldReport": (
        SubfieldReport,
        ("g_a", "g_b", "relation", "predicted_pattern", "observed_pattern",
         "degenerate", "witness", "swapped", "normalized_a", "normalized_b"),
        (GaloisType("S3"), GaloisType("C3"), "TrivialMeet", (6,), (6,), False,
         None, False, True, False),
        (GaloisType("S3"), GaloisType("C3"), "TrivialMeet", (6,), (6,), False,
         None, False, False, False),
        "SubfieldReport(g_a=GaloisType(tag='S3'), g_b=GaloisType(tag='C3'), "
        "relation='TrivialMeet', predicted_pattern=(6,), observed_pattern=(6,), "
        "degenerate=False, witness=None, swapped=False, normalized_a=True, "
        "normalized_b=False)"),
    "Factorization": (
        Factorization, ("unit", "factors"), (F(1), ((_X3_2, 1),)),
        (F(2), ((_X3_2, 1),)),
        "Factorization(unit=Fraction(1, 1), factors=((X^3 - 2, 1),))"),
    "NormalForm": (
        NormalForm, ("kind", "params", "target", "witness"),
        ("depressed", (F(5, 3), F(65, 27)), CubicTriple(0, F(5, 3), F(65, 27)),
         _WITNESS),
        ("depressed", (F(5, 3), F(65, 27)), CubicTriple(0, F(5, 3), F(65, 28)),
         _WITNESS),
        "NormalForm(kind='depressed', params=(Fraction(5, 3), Fraction(65, 27)), "
        "target=CubicTriple(a1=0, a2=Fraction(5, 3), a3=Fraction(65, 27)), "
        "witness=TschirnCoeffs(c0=Fraction(-1, 3), c1=Fraction(1, 1), "
        "c2=Fraction(0, 1)))"),
    "ScanResult": (
        ScanResult, ("m_range", "n_max", "pairs", "classes"),
        ((0, 1), 60, ((0, 3), (0, 54)), ((0, 3, 54),)),
        ((0, 1), 61, ((0, 3), (0, 54)), ((0, 3, 54),)),
        "ScanResult(m_range=(0, 1), n_max=60, pairs=((0, 3), (0, 54)), "
        "classes=((0, 3, 54),))"),
    "RootTuple": (
        RootTuple, ("xs", "ys"), ((1, 2, 3), (4, 5, 6)), ((1, 2, 3), (4, 5, 7)),
        "RootTuple(xs=(1, 2, 3), ys=(4, 5, 6))"),
    "CubicTriple": (
        CubicTriple, ("a1", "a2", "a3"), (F(0), F(0), F(2)), (F(0), F(0), F(3)),
        "CubicTriple(a1=Fraction(0, 1), a2=Fraction(0, 1), a3=Fraction(2, 1))"),
    "CubicInvariants": (
        CubicInvariants, ("A", "B", "C", "D", "E"),
        (F(0), F(54), F(0), F(-108), F(-18)), (F(0), F(54), F(1), F(-108), F(-18)),
        "CubicInvariants(A=Fraction(0, 1), B=Fraction(54, 1), C=Fraction(0, 1), "
        "D=Fraction(-108, 1), E=Fraction(-18, 1))"),
}

each_record = pytest.mark.parametrize("case", sorted(CASES))


def _build(case):
    cls, names, values, other, text = CASES[case]
    return cls, names, cls(*values), cls(*other), text


@each_record
def test_positional_keyword_and_mixed_construction_agree(case):
    cls, names, rec, _, _ = _build(case)
    values = CASES[case][2]
    assert cls(**dict(zip(names, values))) == rec
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == rec
    assert tuple(getattr(rec, name) for name in names) == values


@each_record
def test_wrong_arguments_raise_type_error(case):
    cls, names, _, _, _ = _build(case)
    values = CASES[case][2]
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


@each_record
def test_equality_and_hash_follow_the_values(case):
    cls, _, rec, other, _ = _build(case)
    values = CASES[case][2]
    twin = cls(*values)
    assert twin == rec and not twin != rec and hash(twin) == hash(rec)
    assert rec != other and not rec == other
    assert rec != values and values != rec


@each_record
def test_a_record_of_another_class_is_never_equal(case):
    cls, _, rec, _, _ = _build(case)
    values = CASES[case][2]
    lookalike = type(cls.__name__, (cls,), {})(*values)
    assert rec != lookalike and lookalike != rec
    assert not rec == lookalike and not lookalike == rec
    assert repr(lookalike) == repr(rec)


@each_record
def test_repr_names_every_field(case):
    _, _, rec, _, text = _build(case)
    assert repr(rec) == text


@each_record
def test_assignment_and_deletion_raise(case):
    _, names, rec, _, text = _build(case)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.no_such_field = 1
    assert repr(rec) == text


@each_record
def test_pickle_round_trip(case):
    cls, names, rec, _, text = _build(case)
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls and back == rec and hash(back) == hash(rec)
    assert repr(back) == text
    with pytest.raises(AttributeError):
        setattr(back, names[0], None)


def test_constructor_checks():
    with pytest.raises(ValueError, match="unknown Galois type 'D4'"):
        GaloisType("D4")
    assert GaloisType(tag="C2").order == 2
    with pytest.raises(ValueError, match="outside 2..6"):
        RootTuple((1,), (2,))
    with pytest.raises(ValueError, match="equal length"):
        RootTuple((1, 2, 3), (4, 5))
    with pytest.raises(MathDomainError, match="repeated entry in ys"):
        RootTuple(xs=(1, 2, 3), ys=(4, 5, 4))
    for t in (TschirnCoeffs(0, 2, 0), TschirnCoeffs(c0=0, c1=F(4, 2), c2=False)):
        assert all(type(c) is F for c in t.as_tuple())
        assert repr(t) == CASES["TschirnCoeffs"][4]


@each_record
def test_the_library_builds_the_pinned_records(case):
    a, c3 = CubicTriple(F(0), F(0), F(2)), CubicTriple(F(0), F(-3), F(1))
    built = {
        "GaloisType": lambda: classify_subfield(a, c3).g_a,
        "TschirnCoeffs": lambda: TschirnCoeffs(0, 2, 0),
        "SubfieldReport": lambda: classify_subfield(a, c3),
        "Factorization": lambda: factor_over_Q(_X3_2),
        "NormalForm": lambda: reduce_depressed(CubicTriple(F(1), F(2), F(3))),
        "ScanResult": lambda: scan_equal_splitting((0, 1), 60),
        "RootTuple": lambda: RootTuple((1, 2, 3), (4, 5, 6)),
        "CubicTriple": lambda: a,
        "CubicInvariants": lambda: cubic_invariants(a),
    }[case]()
    assert repr(built) == CASES[case][4]
    assert built == _build(case)[2]


def test_a_cached_model_leaves_equality_hash_and_repr_alone():
    a, b = CubicTriple(F(0), F(0), F(2)), CubicTriple(F(0), F(0), F(2))
    assert a._model and cubic_invariants(a).B == 54
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    back = pickle.loads(pickle.dumps(a))
    assert back == b and cubic_invariants(back) == cubic_invariants(b)


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # python -S: no site module, which may import either of them itself
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tschirn, tschirn.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
