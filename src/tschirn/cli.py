"""Command-line front end.

Subcommands map one-to-one onto library operations: invariants, resolvent,
factor, decide-iso, classify, transform, reduce, family, scan, and a
selftest driver.  Output is deterministic for identical argv; --json emits
a stable schema-1 document.  Each command builds that document's result
once; its text is one ``key = value`` line per result entry (then per extra
top-level key, such as the witness), unless the command prints its own
lines, and a ``warning:`` line per diagnostic.  Exit codes: 0 success, 1
mathematical precondition failure, 2 usage error.

Cubic inputs: --a a1,a2,a3 encodes X^3 - a1 X^2 + a2 X - a3 (the sign
convention used throughout); --monic-a c2,c1,c0 encodes the plain monic
X^3 + c2 X^2 + c1 X + c0 as an alternative.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from fractions import Fraction
from functools import cache

# Lets option values like "-1,-2,1" or "-27/8" parse as arguments rather
# than being mistaken for option names.
_NEGATIVE_VALUE = re.compile(r"^-\d+(/\d+)?(,.*)?$")

from .decide import (
    FACTOR_PATTERNS,
    TABLE_INSTANCES,
    all_rational_transformations,
    classify_subfield,
    decide_same_splitting,
    galois_type,
    verify_transformation,
)
from .factorq import factor_over_Q
from .families import (
    family_c3,
    family_s3,
    rationals_by_height,
    reduce_depressed,
    reduce_one_param,
    reduce_shanks,
    scan_equal_splitting,
)
from .fields import QQ, MathDomainError, gf_build, rat_parse
from .poly import RootTuple, UniPoly
from .resolvent import (
    CubicInvariants,
    CubicTriple,
    cubic_invariants,
    degeneracy_indicator,
    oracle_resolvent,
    resolvent_F0,
    resolvent_F1,
    resolvent_F2,
    tschirn_image,
    _checked_abd,
    _invariants_ce,
)

_SEED_ENV = "TSCHIRN_SEED"
_JOBS_ENV = "TSCHIRN_JOBS"


# --------------------------------------------------------------------------
# Argument parsing.
# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line on stderr, exit code 2."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def _rat(text: str) -> Fraction:
    try:
        return rat_parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"not a rational: {text!r} (expected p or p/q)"
        ) from exc


def _env_int(parser: argparse.ArgumentParser, name: str, default: int) -> int:
    text = os.environ.get(name, str(default))
    try:
        return int(text)
    except ValueError:
        parser.error(f"${name} must be an integer, got {text!r}")


def _rat_list(text: str) -> tuple:
    if not text.strip():
        raise argparse.ArgumentTypeError("empty coefficient list")
    return tuple(_rat(p) for p in text.split(","))


def _rat_triple(text: str) -> tuple:
    values = _rat_list(text)
    if len(values) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated rationals, got {text!r}"
        )
    return values


def _resolve_triple(parser: argparse.ArgumentParser, ns, name: str) -> CubicTriple:
    paper = getattr(ns, name)
    monic = getattr(ns, f"monic_{name}")
    if (paper is None) == (monic is None):
        parser.error(f"give exactly one of --{name} or --monic-{name}")
    if paper is not None:
        return CubicTriple(*paper)
    c2, c1, c0 = monic
    return CubicTriple(-c2, c1, -c0)


def _add_triple(sub: argparse.ArgumentParser, name: str, required_help: str):
    sub.add_argument(
        f"--{name}",
        type=_rat_triple,
        metavar="a1,a2,a3",
        help=f"{required_help} as X^3 - a1 X^2 + a2 X - a3",
    )
    sub.add_argument(
        f"--monic-{name}",
        dest=f"monic_{name}",
        type=_rat_triple,
        metavar="c2,c1,c0",
        help=f"{required_help} as the monic X^3 + c2 X^2 + c1 X + c0",
    )


# --------------------------------------------------------------------------
# Rendering.
# --------------------------------------------------------------------------


def _triple_str(t: CubicTriple) -> str:
    return ",".join(str(v) for v in t.values())


def _render_plain(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


def _plain_lines(doc: dict) -> list:
    return [f"{key} = {_render_plain(value)}" for key, value in doc.items()]


def _emit(ns, command: str, inputs: dict, result, text_lines=None,
          diagnostics=(), **extra) -> None:
    """Print the schema-1 document, with ``extra`` as further top-level
    keys, or its text as the module docstring states."""
    if ns.json:
        doc = {"schema": 1, "command": command, "inputs": inputs,
               "result": result, "diagnostics": list(diagnostics), **extra}
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    if text_lines is None:
        text_lines = _plain_lines({**result, **extra})
    for line in text_lines:
        print(line)
    for diag in diagnostics:
        print(f"warning: {diag}")


def _witness_list(coeffs):
    return [str(c) for c in coeffs.as_tuple()] if coeffs is not None else None


# --------------------------------------------------------------------------
# Subcommand handlers.
# --------------------------------------------------------------------------


def _cmd_invariants(parser, ns) -> int:
    a = _resolve_triple(parser, ns, "a")
    inv = cubic_invariants(a)
    diagnostics = []
    gtype = None
    if inv.D == 0:
        diagnostics.append("D = 0: inseparable (repeated roots)")
    else:
        gtype = galois_type(a).tag
    result = {
        "A": str(inv.A), "B": str(inv.B), "C": str(inv.C),
        "D": str(inv.D), "E": str(inv.E), "galois_type": gtype,
    }
    _emit(ns, "invariants", {"a": _triple_str(a)}, result,
          _plain_lines({**result, "galois_type": gtype or "undefined"}),
          diagnostics)
    return 0


def _cmd_resolvent(parser, ns) -> int:
    a = _resolve_triple(parser, ns, "a")
    b = _resolve_triple(parser, ns, "b")
    # B_s = 0 gives F2 = G^2, whatever the indicator reads
    locus = not cubic_invariants(a).B or degeneracy_indicator(a, b) == 0
    builder = {0: resolvent_F0, 1: resolvent_F1, 2: resolvent_F2}[ns.index]
    poly = builder(a, b)
    diagnostics = []
    if locus:
        diagnostics.append("degenerate locus: the sextic has a multiple root")
    result = {
        "index": ns.index,
        "poly": str(poly),
        "coeffs": [str(poly[i]) for i in range(7)],
    }
    _emit(ns, "resolvent", {"a": _triple_str(a), "b": _triple_str(b),
                            "index": str(ns.index)},
          result, [f"F{ns.index} = {poly}"], diagnostics)
    return 0


def _cmd_factor(parser, ns) -> int:
    f = UniPoly(QQ, ns.coeffs)
    if not f:
        parser.error("cannot factor the zero polynomial")
    fac = factor_over_Q(f)
    result = {
        "input": str(f),
        "unit": str(fac.unit),
        "factors": [[str(g), m] for g, m in fac.factors],
        "degree_pattern": list(fac.degree_pattern()),
    }
    lines = [f"input = {f}", f"unit = {fac.unit}"]
    lines += [f"factor = ({g})^{m}" if m > 1 else f"factor = {g}"
              for g, m in fac.factors]
    lines.append(f"degree_pattern = {_render_plain(result['degree_pattern'])}")
    _emit(ns, "factor", {"coeffs": [str(c) for c in ns.coeffs]}, result, lines)
    return 0


def _cmd_decide_iso(parser, ns) -> int:
    a = _resolve_triple(parser, ns, "a")
    b = _resolve_triple(parser, ns, "b")
    equal, witness = decide_same_splitting(a, b)
    result = {"equal": equal}
    # the text names a witness only when there is one
    _emit(ns, "decide-iso", {"a": _triple_str(a), "b": _triple_str(b)},
          result, None if witness else _plain_lines(result),
          witness=_witness_list(witness))
    return 0


def _cmd_classify(parser, ns) -> int:
    a = _resolve_triple(parser, ns, "a")
    b = _resolve_triple(parser, ns, "b")
    report = classify_subfield(a, b)
    result = report.to_dict()
    witness = result.pop("witness")
    diagnostics = []
    if report.degenerate:
        diagnostics.append(
            "degenerate locus: factorization pattern observed, not predicted"
        )
    if report.swapped:
        diagnostics.append("inputs swapped so that #G_a >= #G_b")
    _emit(ns, "classify", {"a": _triple_str(a), "b": _triple_str(b)}, result,
          diagnostics=diagnostics, witness=witness)
    return 0


def _cmd_transform(parser, ns) -> int:
    a = _resolve_triple(parser, ns, "a")
    image = tschirn_image(a, ns.coeffs)
    diagnostics = []
    if cubic_invariants(image).D == 0:
        diagnostics.append("image is inseparable: the transformation "
                           "collapses roots")
    _emit(ns, "transform", {"a": _triple_str(a), "c": _render_plain(ns.coeffs)},
          {"image": _triple_str(image), "poly": str(image.poly())},
          diagnostics=diagnostics)
    return 0


def _form_dict(nf) -> dict:
    return {
        "kind": nf.kind,
        "params": [str(p) for p in nf.params],
        "target": _triple_str(nf.target),
        "target_poly": str(nf.target.poly()),
        "witness": _witness_list(nf.witness),
    }


def _cmd_reduce(parser, ns) -> int:
    a = _resolve_triple(parser, ns, "a")
    if ns.to == "depressed":
        forms = (reduce_depressed(a),)
    elif ns.to == "one-param":
        forms = (reduce_one_param(a),)
    else:
        forms = reduce_shanks(a)
    result = {"forms": [_form_dict(nf) for nf in forms]}
    _emit(ns, "reduce", {"a": _triple_str(a), "to": ns.to}, result,
          [line for form in result["forms"] for line in _plain_lines(form)])
    return 0


# per kind: the family parameter, the free variable, the partner values as
# a tuple, and their name in the text
_FAMILIES = {
    "s3": ("a", "u", lambda a, u: (family_s3(a, u),), "b"),
    "c3": ("m", "z", family_c3, "n"),
}


def _cmd_family(parser, ns) -> int:
    param, var, build, name = _FAMILIES[ns.kind]
    fixed, single = getattr(ns, param), getattr(ns, var)
    if fixed is None:
        parser.error(f"--kind {ns.kind} needs --{param}")
    for flag in _FAMILIES["c3" if ns.kind == "s3" else "s3"][:2]:
        if getattr(ns, flag) is not None:
            parser.error(f"--kind {ns.kind} takes no --{flag}")
    if (single is None) == (ns.height is None):
        parser.error(f"give exactly one of --{var} or --height")
    if ns.height is not None and ns.height < 1:
        parser.error(f"--height must be at least 1, got {ns.height}")
    if ns.kind == "s3" and fixed * (4 * fixed + 27) == 0:
        raise MathDomainError("a(4a + 27) = 0: parameter outside the family")
    rows, lines = [], []
    for x in [single] if single is not None else rationals_by_height(ns.height):
        try:
            values = [str(v) for v in build(fixed, x)]
        except MathDomainError:
            if single is not None:
                raise
            continue
        rows.append([str(x), *values])
        lines.append(f"{var} = {x} -> {name} = {', '.join(values)}")
    inputs = {"kind": ns.kind, param: str(fixed),
              var: None if single is None else str(single), "height": ns.height}
    _emit(ns, "family", inputs,
          {"kind": ns.kind, param: str(fixed), "values": rows}, lines)
    return 0


def _cmd_scan(parser, ns) -> int:
    if ns.m_max < ns.m_min:
        parser.error(f"empty range: --m-max {ns.m_max} is below --m-min {ns.m_min}")
    jobs = ns.jobs if ns.jobs is not None else _env_int(parser, _JOBS_ENV, 1)
    res = scan_equal_splitting((ns.m_min, ns.m_max), ns.n_max, jobs=jobs)
    lines = [f"pair = {m},{n}" for m, n in res.pairs]
    lines += [f"class = {','.join(str(x) for x in cls)}" for cls in res.classes]
    lines.append(f"pairs = {len(res.pairs)}")
    lines.append(f"classes = {len(res.classes)}")
    _emit(ns, "scan",
          {"m_min": ns.m_min, "m_max": ns.m_max, "n_max": ns.n_max},
          res.to_dict(), text_lines=lines)
    return 0


# --------------------------------------------------------------------------
# Self-test suite.
# --------------------------------------------------------------------------


def _random_triple(rng) -> CubicTriple:
    return CubicTriple(
        *(Fraction(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(3))
    )


def _random_split_pair(rng):
    pool = [Fraction(n, d) for n in range(-10, 11) for d in (1, 2, 3)]
    while True:
        xs = tuple(rng.sample(pool, 3))
        ys = tuple(rng.sample(pool, 3))
        s, t = CubicTriple.from_roots(xs), CubicTriple.from_roots(ys)
        js, jt = cubic_invariants(s), cubic_invariants(t)
        if js.D and jt.D and js.B and degeneracy_indicator(s, t):
            return xs, ys


def _check_invariant_identity(rng) -> bool:
    """A..E from the formulas on the Fractions of a triple, where
    _checked_abd runs both invariant checks, against cubic_invariants,
    which reads them off the integer model."""
    for _ in range(100):
        a = _random_triple(rng)
        (A, B, D), (C, E) = _checked_abd(*a.as_tuple()), _invariants_ce(*a.as_tuple())
        if CubicInvariants(A, B, C, D, E) != cubic_invariants(a):
            return False
    return True


def _matches_oracle(xs, ys) -> bool:
    """F0, F1 and F2 of the cubics with roots xs and ys against the coset
    oracle."""
    s, t = CubicTriple.from_roots(xs), CubicTriple.from_roots(ys)
    rt = RootTuple(xs=xs, ys=ys)
    return all(oracle_resolvent(rt, i) == builder(s, t) for i, builder
               in enumerate((resolvent_F0, resolvent_F1, resolvent_F2)))


def _check_oracle(rng) -> bool:
    return all(_matches_oracle(*_random_split_pair(rng)) for _ in range(5))


def _check_finite_field_oracle(rng) -> bool:
    """F0, F1 and F2 against the coset oracle on split pairs over GF(5^2)
    and GF(7^3), with moduli drawn from the seed, the multiple-root locus
    and B_s = 0 included.  Each field's products are first checked against
    its inverses, so a wrong product fails here instead of stalling a
    division that waits for a leading coefficient to cancel."""
    for p, k in ((5, 2), (7, 3)):
        K = gf_build(p, k, rng.randrange(p**k))
        els = list(K.elements())
        if any(a * a.inverse() != K.one for a in els[1:]):
            return False
        for _ in range(3):
            if not _matches_oracle(tuple(rng.sample(els, 3)),
                                   tuple(rng.sample(els, 3))):
                return False
    return True


def _check_degenerate_example() -> bool:
    a, b = CubicTriple(0, 3, -2), CubicTriple(3, -3, 3)
    ja, jb = cubic_invariants(a), cubic_invariants(b)
    if (ja.A, ja.B, ja.C, ja.D) != (-9, -54, 9, -216):
        return False
    if (jb.A, jb.B, jb.D) != (18, 216, -864):
        return False
    if degeneracy_indicator(a, b) != 0:
        return False
    equal, witness = decide_same_splitting(a, b)
    return equal and witness.as_tuple() == (3, -1, 1)


def _check_cyclic_example() -> bool:
    a, b = CubicTriple(-3, -4, -1), CubicTriple(-1, -2, 1)
    ja, jb = cubic_invariants(a), cubic_invariants(b)
    if (ja.A, ja.B, ja.C, ja.D) != (21, -189, 259, 49):
        return False
    if (jb.A, jb.B, jb.D) != (7, 7, 49):
        return False
    found = tuple(w.as_tuple() for w in all_rational_transformations(a, b))
    return found == ((-3, 3, 1), (-2, 4, 1), (4, -7, -2))


def _check_family_list() -> bool:
    for a_par, b_par in ((-7, -189), (-9, -27), (-6, 54)):
        s, t = CubicTriple(0, a_par, -a_par), CubicTriple(0, b_par, -b_par)
        equal, witness = decide_same_splitting(s, t)
        if not equal or not verify_transformation(s, t, witness):
            return False
    return True


def _check_perturbation_detected() -> bool:
    """The oracle comparison must flag a deliberately corrupted resolvent."""
    xs, ys = (1, 2, 3), (0, 1, -1)
    rt = RootTuple(xs=xs, ys=ys)
    s, t = CubicTriple.from_roots(xs), CubicTriple.from_roots(ys)
    honest = resolvent_F2(s, t)
    corrupted = honest + UniPoly(QQ, (0, 1))
    oracle = oracle_resolvent(rt, 2)
    return honest == oracle and corrupted != oracle


def _check_table_rows() -> bool:
    for key, (a_vals, b_vals) in TABLE_INSTANCES.items():
        report = classify_subfield(CubicTriple(*a_vals), CubicTriple(*b_vals))
        if (report.g_a.tag, report.g_b.tag, report.relation) != key:
            return False
        pattern = FACTOR_PATTERNS[key]
        if report.degenerate or report.predicted_pattern != pattern:
            return False
        if report.observed_pattern != pattern:
            return False
    return True


_SCAN_PAIRS = ((-1, 5), (-1, 12), (-1, 1259), (0, 3), (0, 54), (1, 66),
               (2, 2389), (3, 54), (5, 12), (5, 1259), (12, 1259))
_SCAN_CLASSES = ((-1, 5, 12, 1259), (0, 3, 54), (1, 66), (2, 2389))


def _check_scan(jobs: int) -> bool:
    res = scan_equal_splitting((-1, 12), 2500, jobs=jobs)
    return res.pairs == _SCAN_PAIRS and res.classes == _SCAN_CLASSES


def _cmd_selftest(parser, ns) -> int:
    seed = _env_int(parser, _SEED_ENV, 0)
    rng = random.Random(seed)
    jobs = ns.jobs if ns.jobs is not None else _env_int(parser, _JOBS_ENV, 1)
    checks = [
        ("invariant-identity", lambda: _check_invariant_identity(rng)),
        ("oracle-vs-resolvents", lambda: _check_oracle(rng)),
        ("worked-example-degenerate", _check_degenerate_example),
        ("worked-example-cyclic", _check_cyclic_example),
        ("one-param-family-list", _check_family_list),
        ("harness-detects-perturbation", _check_perturbation_detected),
    ]
    if ns.level == "full":
        checks.append(("subfield-table-rows", _check_table_rows))
        checks.append(("finite-field-resolvents",
                       lambda: _check_finite_field_oracle(rng)))
        checks.append(("shanks-integer-scan", lambda: _check_scan(jobs)))
    outcomes, lines = [], []
    for name, check in checks:
        # a check that raises fails, and the rest still run
        try:
            ok = bool(check())
        except Exception as exc:
            print(f"error: {name} raised {exc!r}", file=sys.stderr)
            ok = False
        outcomes.append({"name": name, "ok": ok})
        lines.append(f"{'ok' if ok else 'FAIL'} - {name}")
    passed = sum(1 for o in outcomes if o["ok"])
    failed = len(outcomes) - passed
    lines.append(f"passed = {passed}, failed = {failed}")
    _emit(ns, "selftest", {"level": ns.level, "seed": seed},
          {"level": ns.level, "checks": outcomes,
           "passed": passed, "failed": failed},
          text_lines=lines)
    return 0 if failed == 0 else 1


# --------------------------------------------------------------------------
# Parser wiring.
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tschirn",
        description="Exact splitting-field decisions for cubics over Q via "
                    "Tschirnhausen resolvents.",
    )
    parser._negative_number_matcher = _NEGATIVE_VALUE
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, handler, help_text):
        p = subs.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_VALUE
        p.add_argument("--json", action="store_true",
                       help="emit a schema-1 JSON document")
        p.set_defaults(handler=handler)
        return p

    p = sub("invariants", _cmd_invariants,
            "A, B, C, D, E and the Galois type of a cubic")
    _add_triple(p, "a", "the cubic")

    p = sub("resolvent", _cmd_resolvent,
            "the degree-6 coefficient resolvent of a pair of cubics")
    _add_triple(p, "a", "source cubic")
    _add_triple(p, "b", "target cubic")
    p.add_argument("--index", type=int, choices=(0, 1, 2), default=2,
                   help="which transformation coefficient (default 2)")

    p = sub("factor", _cmd_factor, "factor a rational polynomial")
    p.add_argument("--coeffs", type=_rat_list, required=True,
                   metavar="c0,c1,...", help="coefficients, constant first")

    p = sub("decide-iso", _cmd_decide_iso,
            "decide equality of splitting fields, with witness")
    _add_triple(p, "a", "first cubic")
    _add_triple(p, "b", "second cubic")

    p = sub("classify", _cmd_classify,
            "classify how the two splitting fields nest")
    _add_triple(p, "a", "first cubic")
    _add_triple(p, "b", "second cubic")

    p = sub("transform", _cmd_transform,
            "apply a Tschirnhausen transformation c0 + c1 x + c2 x^2")
    _add_triple(p, "a", "the cubic")
    p.add_argument("--c", dest="coeffs", type=_rat_triple, required=True,
                   metavar="c0,c1,c2", help="transformation coefficients")

    p = sub("reduce", _cmd_reduce, "map a cubic onto a normal form")
    _add_triple(p, "a", "the cubic")
    p.add_argument("--to", choices=("depressed", "one-param", "shanks"),
                   required=True, help="which normal form")

    p = sub("family", _cmd_family,
            "enumerate same-splitting-field family parameters")
    p.add_argument("--kind", choices=("s3", "c3"), required=True)
    p.add_argument("--a", type=_rat, help="parameter of X^3 + aX + a (s3)")
    p.add_argument("--m", type=_rat, help="Shanks parameter (c3)")
    p.add_argument("--u", type=_rat, help="single s3 parameter")
    p.add_argument("--z", type=_rat, help="single c3 parameter")
    p.add_argument("--height", type=int,
                   help="enumerate parameters of height up to this bound")

    p = sub("scan", _cmd_scan,
            "integer scan for equal-splitting Shanks pairs")
    p.add_argument("--m-min", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--jobs", type=int, default=None,
                   help=f"worker processes (default ${_JOBS_ENV} or 1)")

    p = sub("selftest", _cmd_selftest, "run the built-in verification suite")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for the full-level scan")

    return parser


@cache
def _main_parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call and kept for the
    rest of the process: parsing leaves no state in an argparse parser, and
    building one costs more than most commands."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command and return its exit code; may be called repeatedly
    in one process."""
    parser = _main_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.handler(parser, ns)
    except MathDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
