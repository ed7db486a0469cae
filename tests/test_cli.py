"""Command-line interface: subcommand behavior, JSON schema, exit codes,
and output determinism."""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import tschirn.resolvent as resolvent_mod
from tschirn import cli
from tschirn.decide import TABLE_INSTANCES, all_rational_transformations
from tschirn.fields import PrimeField
from tschirn.poly import RootTuple, UniPoly
from tschirn.resolvent import CubicInvariants, CubicTriple, oracle_resolvent, resolvent_F2


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestInvariants:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--a", "0,3,-2")
        assert code == 0
        assert out.splitlines() == [
            "A = -9", "B = -54", "C = 9", "D = -216", "E = 18",
            "galois_type = S3",
        ]

    def test_inseparable_warning(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--a", "0,0,0")
        assert code == 0
        assert "A = 0" in out and "D = 0" in out
        assert "warning: D = 0: inseparable" in out
        assert "galois_type = undefined" in out

    def test_json_document(self, capsys):
        code, doc, _ = run_json(capsys, "invariants", "--a", "0,3,-2")
        assert code == 0
        assert doc["schema"] == 1
        assert doc["command"] == "invariants"
        assert doc["inputs"] == {"a": "0,3,-2"}
        assert doc["result"]["D"] == "-216"
        assert doc["result"]["galois_type"] == "S3"
        assert doc["diagnostics"] == []

    def test_monic_alias(self, capsys):
        _, doc_paper, _ = run_json(capsys, "invariants", "--a", "0,0,2")
        _, doc_monic, _ = run_json(capsys, "invariants", "--monic-a", "0,0,-2")
        assert doc_paper["result"] == doc_monic["result"]


class TestResolvent:
    def test_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "resolvent", "--a", "-3,-4,-1",
                               "--b", "-1,-2,1")
        assert code == 0
        expect = resolvent_F2(CubicTriple(-3, -4, -1), CubicTriple(-1, -2, 1))
        assert out.splitlines()[0] == f"F2 = {expect}"

    def test_degenerate_warning_and_f0_error(self, capsys):
        code, out, _ = run_cli(capsys, "resolvent", "--a", "0,3,-2",
                               "--b", "3,-3,3")
        assert code == 0 and "degenerate locus" in out
        # on the locus F0 maps the double-root fiber onto u0: it vanishes
        # at the u0 of every transformation
        code, doc, _ = run_json(capsys, "resolvent", "--a", "0,3,-2",
                                "--b", "3,-3,3", "--index", "0")
        assert code == 0
        assert "degenerate locus" in " ".join(doc["diagnostics"])
        f0 = [Fraction(c) for c in doc["result"]["coeffs"]]
        found = all_rational_transformations(CubicTriple(0, 3, -2),
                                             CubicTriple(3, -3, 3))
        assert found
        for w in found:
            u0 = w.as_tuple()[0]
            assert sum(c * u0**i for i, c in enumerate(f0)) == 0

    def test_zero_B_s_names_the_precondition(self, capsys):
        # X^3 - X has B = 0, so D12 vanishes identically and F2 = G^2 has
        # only double roots, although the indicator of the pair is -26244
        code, out, _ = run_cli(capsys, "resolvent", "--a", "0,-1,0",
                               "--b", "7,14,8", "--index", "0")
        assert code == 0
        rt = RootTuple(xs=tuple(Fraction(x) for x in (-1, 0, 1)),
                       ys=tuple(Fraction(y) for y in (1, 2, 4)))
        assert out.splitlines() == [
            f"F0 = {oracle_resolvent(rt, 0)}",
            "warning: degenerate locus: the sextic has a multiple root",
        ]
        # G irreducible over Q: both cubics split mod 101, where the coset
        # product says the same
        code, doc, _ = run_json(capsys, "resolvent", "--a", "0,1,0",
                                "--b", "0,-1,1", "--index", "0")
        assert code == 0 and doc["diagnostics"]
        F = PrimeField(101)
        xs, ys = (tuple(x for x in F.elements() if not f.poly(F).eval(x))
                  for f in (CubicTriple(0, 1, 0), CubicTriple(0, -1, 1)))
        assert len(xs) == len(ys) == 3
        coeffs = [Fraction(c) for c in doc["result"]["coeffs"]]
        assert all(c.denominator == 1 for c in coeffs)
        assert UniPoly(F, [int(c) for c in coeffs]) == oracle_resolvent(
            RootTuple(xs, ys), 0
        )
        # t = (X - 1)^2 (X - 2) is inseparable, and so is G
        code, _, err = run_cli(capsys, "resolvent", "--a", "0,-1,0",
                               "--b", "4,5,2", "--index", "0")
        assert code == 1
        assert err.splitlines() == [
            "error: B_s = 0 needs F2 = G^2 with G squarefree"
        ]

    def test_zero_A_locus_pair_has_f0(self, capsys):
        # X^3 - 2 and X^3 - 3: every transformation is u1 X or u2 X^2, so
        # all six u0 are 0; both cubics split mod 307, where the coset
        # product says the same
        code, out, _ = run_cli(capsys, "resolvent", "--a", "0,0,2",
                               "--b", "0,0,3", "--index", "0")
        assert code == 0
        assert out.splitlines() == [
            "F0 = X^6",
            "warning: degenerate locus: the sextic has a multiple root",
        ]
        F = PrimeField(307)
        xs, ys = (tuple(x for x in F.elements() if x**3 == c) for c in (2, 3))
        assert oracle_resolvent(RootTuple(xs, ys), 0) == UniPoly.X(F) ** 6

    def test_json_coeffs(self, capsys):
        code, doc, _ = run_json(capsys, "resolvent", "--a", "0,3,-2",
                                "--b", "3,-3,3")
        assert code == 0
        assert doc["result"]["coeffs"] == [
            "3/16", "3/4", "9/16", "-1", "-3/2", "0", "1"
        ]


class TestFactor:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--coeffs", "2,-3,0,1")
        assert code == 0
        assert out.splitlines() == [
            "input = X^3 - 3*X + 2",
            "unit = 1",
            "factor = (X - 1)^2",
            "factor = X + 2",
            "degree_pattern = 1,1,1",
        ]

    def test_minus_one_coefficient_text(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--coeffs",
                               "1,0,0,0,0,0,0,0,0,0,0,0,1")
        assert code == 0
        assert out.splitlines() == [
            "input = X^12 + 1",
            "unit = 1",
            "factor = X^4 + 1",
            "factor = X^8 - X^4 + 1",
            "degree_pattern = 4,8",
        ]

    def test_rational_coefficients(self, capsys):
        code, doc, _ = run_json(capsys, "factor", "--coeffs", "-1/4,0,1")
        assert code == 0
        assert doc["result"]["factors"] == [["X - 1/2", 1], ["X + 1/2", 1]]


class TestDecideIso:
    def test_family_pair(self, capsys):
        code, out, _ = run_cli(capsys, "decide-iso", "--a", "0,-7,7",
                               "--b", "0,-189,189")
        assert code == 0
        assert out.splitlines() == ["equal = true", "witness = 84,27,-18"]

    def test_unequal_pair_json(self, capsys):
        code, doc, _ = run_json(capsys, "decide-iso", "--a", "0,0,2",
                                "--b", "0,0,3")
        assert code == 0
        assert doc["result"] == {"equal": False}
        assert doc["witness"] is None

    def test_inseparable_input_fails(self, capsys):
        code, _, err = run_cli(capsys, "decide-iso", "--a", "0,0,0",
                               "--b", "0,3,-2")
        assert code == 1
        assert "D" in err


class TestClassify:
    def test_degenerate_worked_example(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--a", "0,3,-2",
                                "--b", "3,-3,3")
        assert code == 0
        result = doc["result"]
        assert result["relation"] == "Equal"
        assert result["degenerate"] is True
        assert result["predicted_pattern"] is None
        assert result["observed_pattern"] == [1, 1, 1, 3]
        assert doc["witness"] == ["3", "-1", "1"]
        assert any("degenerate" in d for d in doc["diagnostics"])

    def test_swap_reported(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--a", "1,3,3",
                                "--b", "0,0,2")
        assert code == 0
        assert doc["result"]["swapped"] is True
        assert doc["result"]["relation"] == "ContainsQuadratic"
        assert doc["result"]["observed_pattern"] == [3, 3]

    def test_text_mode(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--a", "0,0,2",
                               "--b", "1,3,3")
        assert code == 0
        lines = out.splitlines()
        assert "relation = ContainsQuadratic" in lines
        assert "predicted_pattern = 3,3" in lines
        assert "witness = none" in lines


class TestTransform:
    def test_worked_example_witness(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "--a", "0,3,-2",
                               "--c", "3,-1,1")
        assert code == 0
        assert out.splitlines()[0] == "image = 3,-3,3"

    def test_collapse_warning(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "--a", "0,3,-2",
                               "--c", "5,0,0")
        assert code == 0
        assert "inseparable" in out


class TestReduce:
    def test_one_param(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "--a", "3,-3,3",
                               "--to", "one-param")
        assert code == 0
        assert out.splitlines() == [
            "kind = one-param",
            "params = -27/8",
            "target = 0,-27/8,27/8",
            "target_poly = X^3 - 27/8*X - 27/8",
            "witness = -3/4,3/4,0",
        ]

    def test_shanks_with_negative_triple_argument(self, capsys):
        code, doc, _ = run_json(capsys, "reduce", "--a", "-1,-2,1",
                                "--to", "shanks")
        assert code == 0
        forms = doc["result"]["forms"]
        assert [f["params"] for f in forms] == [["-2"], ["-1"]]
        assert forms[0]["witness"] == ["-1", "-1", "0"]

    def test_depressed(self, capsys):
        code, doc, _ = run_json(capsys, "reduce", "--a", "3,-3,3",
                                "--to", "depressed")
        assert code == 0
        assert doc["result"]["forms"][0]["target"] == "0,-6,8"

    def test_non_cyclic_shanks_fails(self, capsys):
        code, _, err = run_cli(capsys, "reduce", "--a", "0,3,-2",
                               "--to", "shanks")
        assert code == 1
        assert "C3" in err


class TestFamily:
    def test_s3_single_value(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--kind", "s3", "--a", "-7",
                               "--u", "1")
        assert code == 0
        assert out.strip() == "u = 1 -> b = -208537/28561"

    def test_c3_single_value(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--kind", "c3", "--m", "-1",
                               "--z", "1/2")
        assert code == 0
        assert out.strip() == "z = 1/2 -> n = 5, -8"

    def test_height_enumeration(self, capsys):
        code, doc, _ = run_json(capsys, "family", "--kind", "s3", "--a", "-7",
                                "--height", "1")
        assert code == 0
        assert doc["result"]["values"] == [
            ["-1", "-15379/1681"], ["0", "-1323/169"], ["1", "-208537/28561"]
        ]

    def test_singular_parameter_fails(self, capsys):
        code, _, err = run_cli(capsys, "family", "--kind", "s3", "--a", "0",
                               "--u", "1")
        assert code == 1
        assert "4a + 27" in err

    def test_u_and_height_conflict(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["family", "--kind", "s3", "--a", "-7",
                      "--u", "1", "--height", "2"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv, flag", [
        (["--kind", "c3", "--m", "1", "--u", "2", "--height", "1"], "--u"),
        (["--kind", "c3", "--m", "1", "--z", "2", "--a", "-7"], "--a"),
        (["--kind", "s3", "--a", "-7", "--u", "2", "--m", "5"], "--m"),
        (["--kind", "s3", "--a", "-7", "--height", "1", "--z", "2"], "--z"),
    ])
    def test_other_kinds_parameter_is_a_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as info:
            cli.main(["family"] + argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: tschirn: --kind {argv[1]} takes no {flag}"
        ]

    @pytest.mark.parametrize("height", ["0", "-3"])
    def test_height_below_one_is_a_usage_error(self, capsys, height):
        for kind in (["s3", "--a", "-7"], ["c3", "--m", "1"]):
            with pytest.raises(SystemExit) as info:
                cli.main(["family", "--kind", *kind, "--height", height])
            assert info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                f"error: tschirn: --height must be at least 1, got {height}"
            ]


class TestScan:
    def test_empty_m_range_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["scan", "--m-min", "3", "--m-max", "1", "--n-max", "10"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: tschirn: empty range: --m-max 1 is below --m-min 3"
        ]

    def test_small_scan_text(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--m-min", "-1", "--m-max", "2",
                               "--n-max", "70")
        assert code == 0
        assert out.splitlines() == [
            "pair = -1,5",
            "pair = -1,12",
            "pair = 0,3",
            "pair = 0,54",
            "pair = 1,66",
            "class = -1,5,12",
            "class = 0,3,54",
            "class = 1,66",
            "pairs = 5",
            "classes = 3",
        ]

    def test_jobs_do_not_change_output(self, capsys):
        _, single, _ = run_cli(capsys, "scan", "--m-min", "-1", "--m-max", "2",
                               "--n-max", "70")
        _, multi, _ = run_cli(capsys, "scan", "--m-min", "-1", "--m-max", "2",
                              "--n-max", "70", "--jobs", "3")
        assert single == multi

    def test_jobs_env_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("TSCHIRN_JOBS", "2")
        _, doc, _ = run_json(capsys, "scan", "--m-min", "0", "--m-max", "1",
                             "--n-max", "70")
        assert doc["result"]["pairs"] == [[0, 3], [0, 54], [1, 66]]


class TestSelftest:
    def test_fast_level_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "passed = 6, failed = 0"
        assert all(line.startswith("ok - ") for line in lines[:-1])
        assert "ok - harness-detects-perturbation" in lines

    def test_full_level_checks_the_finite_field_resolvents(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--level", "full")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "passed = 9, failed = 0"
        assert "ok - finite-field-resolvents" in lines

    def test_finite_field_check_fails_on_a_wrong_resolvent(self, monkeypatch):
        # F2 in place of F1: the oracle of index 1 tells them apart
        monkeypatch.setattr(cli, "resolvent_F1", resolvent_F2)
        assert not cli._check_finite_field_oracle(random.Random(0))

    def test_a_raising_check_fails_and_the_rest_run(self, capsys, monkeypatch):
        def raising(rng):
            raise AssertionError("4A^3 - B^2 = 27D violated")

        monkeypatch.setattr(cli, "_check_invariant_identity", raising)
        code, out, err = run_cli(capsys, "selftest")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "FAIL - invariant-identity"
        assert all(line.startswith("ok - ") for line in lines[1:-1])
        assert lines[-1] == "passed = 5, failed = 1"
        assert err == ("error: invariant-identity raised "
                       "AssertionError('4A^3 - B^2 = 27D violated')\n")
        code, doc, err = run_json(capsys, "selftest")
        assert code == 1 and err.startswith("error: invariant-identity ")
        assert doc["result"]["checks"][0] == {"name": "invariant-identity",
                                              "ok": False}
        assert doc["result"]["failed"] == 1

    def test_a_wrong_invariant_fails_the_identity_check(self, capsys, monkeypatch):
        # a wrong C keeps 4A^3 - B^2 = 27D, so only the comparison with the
        # formulas on the Fractions can catch it
        compute = resolvent_mod._compute_invariants

        def wrong_c(s, field):
            inv = compute(s, field)
            return CubicInvariants(inv.A, inv.B, inv.C + 1, inv.D, inv.E)

        monkeypatch.setattr(resolvent_mod, "_compute_invariants", wrong_c)
        code, out, err = run_cli(capsys, "selftest")
        assert code == 1
        assert out.splitlines()[0] == "FAIL - invariant-identity"
        assert "invariant-identity raised" not in err

    def test_seed_env_changes_nothing_observable(self, capsys, monkeypatch):
        monkeypatch.setenv("TSCHIRN_SEED", "12345")
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert out.splitlines()[-1] == "passed = 6, failed = 0"

    def test_json_report(self, capsys):
        code, doc, _ = run_json(capsys, "selftest")
        assert code == 0
        assert doc["result"]["failed"] == 0
        assert {c["name"] for c in doc["result"]["checks"]} >= {
            "invariant-identity", "oracle-vs-resolvents",
            "worked-example-degenerate", "worked-example-cyclic",
            "one-param-family-list", "harness-detects-perturbation",
        }


class TestPlumbing:
    def test_identical_argv_identical_bytes(self, capsys):
        _, first, _ = run_cli(capsys, "classify", "--a", "0,3,-2",
                              "--b", "3,-3,3", "--json")
        _, second, _ = run_cli(capsys, "classify", "--a", "0,3,-2",
                               "--b", "3,-3,3", "--json")
        assert first == second

    def test_json_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "decide-iso", "--a", "0,-7,7",
                            "--b", "0,-189,189", "--json")
        doc = json.loads(out)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out

    def test_usage_errors_exit_two(self):
        for argv in (
            [],
            ["invariants"],
            ["invariants", "--a", "1,2"],
            ["invariants", "--a", "1,2,x"],
            ["invariants", "--a", "1,2,3", "--monic-a", "1,2,3"],
            ["decide-iso", "--a", "1,2,3"],
            ["nonsense"],
        ):
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
            assert info.value.code == 2, argv

    def test_one_line_errors_exit_two(self, capsys, monkeypatch):
        cases = [
            ({}, ["factor", "--coeffs", "0"]),
            ({}, ["factor", "--coeffs", "0,0"]),
            ({"TSCHIRN_JOBS": "two"},
             ["scan", "--m-min", "0", "--m-max", "1", "--n-max", "10"]),
            ({"TSCHIRN_SEED": "1.5"}, ["selftest"]),
        ]
        for text in ("1.5", "1e3", "1/0"):
            cases.append(({}, ["decide-iso", "--a", f"{text},2,3",
                               "--b", "0,0,2"]))
        # an empty entry is an error, not a dropped coefficient
        for argv in (["factor", "--coeffs", "1,,2"], ["factor", "--coeffs", "1,2,"],
                     ["factor", "--coeffs", ",1"], ["factor", "--coeffs", "1, ,2"],
                     ["invariants", "--a", "0,,3,-2"]):
            cases.append(({}, argv))
        for env, argv in cases:
            with monkeypatch.context() as mp:
                for name, value in env.items():
                    mp.setenv(name, value)
                with pytest.raises(SystemExit) as info:
                    cli.main(argv)
            assert info.value.code == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), argv

    def test_error_exit_has_no_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tschirn", "factor", "--coeffs", "0,0"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: tschirn: cannot factor the zero polynomial\n"

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tschirn", "decide-iso",
             "--a", "0,-7,7", "--b", "0,-189,189"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "equal = true" in proc.stdout


def _triple_arg(values) -> str:
    return ",".join(str(v) for v in values)


# Runs of main in one process, each with the $TSCHIRN_JOBS it sees: every
# kind of exit, and the environment changed between two scans.
_SCAN = ["scan", "--m-min", "-1", "--m-max", "1", "--n-max", "70"]
_SESSION = [
    *((None, ["classify", "--a", _triple_arg(a), "--b", _triple_arg(b), "--json"])
      for a, b in TABLE_INSTANCES.values()),
    (None, ["classify", "--a", "0,3,-2", "--b", "3,-3,3"]),
    (None, ["decide-iso", "--a", "0,-7,7", "--b", "0,-189,189", "--json"]),
    (None, ["factor", "--coeffs", "2,-3,0,1"]),
    (None, ["invariants", "--a", "1,2,3", "--monic-a", "1,2,3"]),
    (None, ["decide-iso", "--a", "1,2"]),
    (None, ["nonsense"]),
    (None, ["decide-iso", "--a", "0,0,0", "--b", "0,3,-2"]),
    (None, ["--help"]),
    (None, ["classify", "--help"]),
    ("1", _SCAN),
    ("two", _SCAN),
    ("2", _SCAN + ["--json"]),
    ("1", _SCAN),
]


def _session(capsys, monkeypatch) -> list:
    """(exit code, stdout, stderr) of each run of _SESSION."""
    monkeypatch.setenv("COLUMNS", "80")
    outcomes = []
    for jobs, argv in _SESSION:
        if jobs is None:
            monkeypatch.delenv("TSCHIRN_JOBS", raising=False)
        else:
            monkeypatch.setenv("TSCHIRN_JOBS", jobs)
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    return outcomes


class TestReentrantMain:
    """main keeps one parser per process; each call must behave as if it
    had built its own."""

    def test_repeated_calls_match_a_fresh_parser(self, capsys, monkeypatch):
        first = _session(capsys, monkeypatch)
        again = _session(capsys, monkeypatch)
        with monkeypatch.context() as mp:
            mp.setattr(cli, "_main_parser", cli.build_parser)
            fresh = _session(capsys, monkeypatch)
        assert first == again == fresh
        codes = [code for code, _, _ in first]
        assert set(codes) == {0, 1, 2}
        assert codes[-4:] == [0, 2, 0, 0]
        assert first[-4][1] == first[-1][1]
        assert first[-3][2] == (
            "error: tschirn: $TSCHIRN_JOBS must be an integer, got 'two'\n")

    def test_one_parser_per_process(self, capsys, monkeypatch):
        build_parser = cli.build_parser
        built = []

        def counting_build_parser():
            parser = build_parser()
            built.append(parser)
            return parser

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._main_parser.cache_clear()
        try:
            _session(capsys, monkeypatch)
            assert len(built) == 1
        finally:
            cli._main_parser.cache_clear()
        fresh = build_parser(), build_parser()
        assert fresh[0] is not fresh[1] and built[0] not in fresh
