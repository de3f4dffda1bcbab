"""Command-line interface: verbs, exit codes, determinism, round trips."""

import dataclasses
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qmb.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DEGREE_CAP,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_UNSAT,
    EXIT_USAGE,
    main,
)
from qmb import minors
from qmb.exprparse import parse_element, parse_laurent
from qmb.minors import MinorId, quantum_minor
from qmb.ore import extend_to_power, solve_witness, witness_from_json, witness_to_file
from qmb.scalars import Q, LaurentQ


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the README's chain D[{3},{3}] D[{2,3},{2,3}] against t[1,1], and its last minor alone
CHAIN_ARGV = ["ore", "--n", "3", "--minor-rows", "3", "--minor-cols", "3",
              "--minor-rows", "2,3", "--minor-cols", "2,3", "--elem", "t[1,1]"]
MINOR_ARGV = ["ore", "--n", "3", "--minor-rows", "2,3", "--minor-cols", "2,3", "--elem", "t[1,1]"]


def extend_last_link(data):
    """A chain file whose last link clears against the square of its minor; that
    link replays, and the chain's powers, scale and cofactor are restated to match."""
    chain = witness_from_json(data)
    last = extend_to_power(chain.links[-1], 2)
    stated = dataclasses.replace(chain, links=[*chain.links[:-1], last]).to_json()
    data.update({key: stated[key] for key in ("powers", "scale", "cofactor")}, links=stated["links"])


class TestNf:
    def test_cross_relation_output(self, capsys):
        code, out, _ = run(capsys, "nf", "--n", "2", "t[2,2]*t[1,1]")
        assert code == EXIT_OK
        got = parse_element(out.strip(), 2)
        t = lambda i, j: parse_element(f"t[{i},{j}]", 2)  # noqa: E731
        assert got == t(1, 1) * t(2, 2) - (Q - Q**-1) * (t(1, 2) * t(2, 1))

    def test_round_trip(self, capsys):
        code, out, _ = run(capsys, "nf", "--n", "2", "(q^-1 - q) * t[1,2] t[2,1] + t[1,1]")
        assert code == EXIT_OK
        assert parse_element(out.strip(), 2).render() == out.strip()

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "nf", "--n", "3", "D[{1,2},{2,3}] * t[1,1] - q*t[3,3]")
        _, out2, _ = run(capsys, "nf", "--n", "3", "D[{1,2},{2,3}] * t[1,1] - q*t[3,3]")
        assert out1 == out2

    def test_syntax_error_exit(self, capsys):
        code, _, err = run(capsys, "nf", "--n", "2", "t[1,1] +")
        assert code == EXIT_USAGE
        assert "syntax error" in err

    def test_out_of_range_index(self, capsys):
        code, _, err = run(capsys, "nf", "--n", "2", "t[3,1]")
        assert code == EXIT_USAGE
        assert "out of range" in err

    def test_deep_nesting_is_a_syntax_error(self, capsys):
        code, out, err = run(capsys, "nf", "--n", "2", "(" * 300 + "t[1,1]" + ")" * 300)
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("qmb: syntax error") and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["t[1,1]^" + "9" * 4301, "9" * 4301 + " t[1,1]",
                                      "t[1," + "1" * 4301 + "]", "q^" + "1" * 4301],
                             ids=["exponent", "coefficient", "label", "q-exponent"])
    def test_integers_past_the_digit_limit_exit_on_the_cap(self, capsys, text):
        # the same bound as an exponent of 4300 nines, read before the integer is formed
        code, out, err = run(capsys, "nf", "--n", "2", text)
        assert code == EXIT_DEGREE_CAP
        assert out == "" and err.startswith("qmb: ") and err.count("\n") == 1
        assert "4301 digits" in err and "1111" not in err and "9999" not in err

    def test_exponent_over_the_cap_is_named_by_its_length(self, capsys):
        # 4300 nines is within the digit limit, so the exponent is formed and
        # refused on the cap, with its digit count in place of its digits
        code, out, err = run(capsys, "nf", "--n", "2", "t[1,1]^" + "9" * 4300)
        assert code == EXIT_DEGREE_CAP
        assert out == "" and err.startswith("qmb: ") and err.count("\n") == 1
        assert "exponent of 4300 digits exceeds cap 16" in err and "9999" not in err
        assert "exponent 17 exceeds cap 16" in run(capsys, "nf", "--n", "2", "t[1,1]^17")[2]

    def test_only_ascii_digits_are_integers(self, capsys):
        code, out, err = run(capsys, "nf", "--n", "2", "t[\u0661,\u0662] \u0663")  # Arabic-Indic 1, 2, 3
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("qmb: syntax error") and err.count("\n") == 1

    def test_degree_cap_exit(self, capsys, monkeypatch):
        monkeypatch.setenv("QMB_MAX_DEGREE", "2")
        code, _, err = run(capsys, "nf", "--n", "2", "t[1,1]*t[1,1]*t[1,1]")
        assert code == EXIT_DEGREE_CAP

    def test_a_word_past_the_recursion_limit_exits_on_the_cap(self, capsys, monkeypatch):
        # appending t[1,1] to 1,020 sorted letters recurses once per letter;
        # the kernel refuses it as past the cap, not as a nesting error
        monkeypatch.setenv("QMB_MAX_DEGREE", "10000")
        code, out, err = run(capsys, "nf", "--n", "2", "t[1,2]^340 t[2,1]^340 t[2,2]^340 t[1,1]")
        assert code == EXIT_DEGREE_CAP
        assert out == "" and "recursion depth" in err and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["2^1000000000", "(1+q)^2000", "(1+q)^8000", "t[1,1]^17",
                                      "((((1+q)^16)^16)^16)^16", "(((2^16)^16)^16)^16"])
    def test_exponent_over_the_cap_exits_before_the_power(self, capsys, text):
        started = time.perf_counter()
        code, out, err = run(capsys, "nf", "--n", "1", text)
        assert time.perf_counter() - started < 1.0
        assert code == EXIT_DEGREE_CAP
        assert out == "" and err.startswith("qmb: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text, expected", [
        ("t[1,1]^2", "(1) * t[1,1] t[1,1]"), ("2^16", "(65536) * 1"),
        ("q^100000", "(q^100000) * 1"), ("q^-3", "(q^-3) * 1"),
        ("(1+q)^16", "(1 + 16*q + 120*q^2 + 560*q^3 + 1820*q^4 + 4368*q^5 + 8008*q^6 + 11440*q^7"
                     " + 12870*q^8 + 11440*q^9 + 8008*q^10 + 4368*q^11 + 1820*q^12 + 560*q^13"
                     " + 120*q^14 + 16*q^15 + q^16) * 1"),
    ])
    def test_exponents_within_the_cap_and_on_q(self, capsys, text, expected):
        assert run(capsys, "nf", "--n", "1", text) == (EXIT_OK, expected + "\n", "")


class TestMinorVerb:
    def test_matches_library(self, capsys):
        code, out, _ = run(capsys, "minor", "--n", "3", "--rows", "1,2", "--cols", "1,3")
        assert code == EXIT_OK
        assert out.strip() == quantum_minor(3, (1, 2), (1, 3)).render()

    def test_expression_D_equals_minor_verb(self, capsys):
        _, out, _ = run(capsys, "nf", "--n", "3", "D[{1,2},{1,3}]")
        assert out.strip() == quantum_minor(3, (1, 2), (1, 3)).render()

    def test_bad_labels(self, capsys):
        code, _, err = run(capsys, "minor", "--n", "2", "--rows", "1,2", "--cols", "1,3")
        assert code == EXIT_PRECONDITION

    @pytest.mark.parametrize("argv", [
        ("nf", "--n", "0", "1"),
        ("minor", "--n", "-1", "--rows", "1", "--cols", "1"),
        ("suite", "--n", "0"),
    ], ids=["nf", "minor", "suite"])
    def test_nonpositive_n_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_USAGE
        assert "positive integer" in capsys.readouterr().err


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("nf", "--n", "\u0663", "t[3,3]"),  # Arabic-Indic 3
        ("minor", "--n", "3", "--rows", "\u0661,\u0662", "--cols", "1,3"),
        ("identity", "--kind", "centrality", "--n", "3", "--rows", "1", "--cols", "1", "--k", "\u0661", "--l", "1"),
        ("minor", "--n", "3", "--rows", "1,2", "--cols", "1_0,3"),
    ], ids=["n", "rows", "k", "underscore"])
    def test_integer_options_take_ascii_digits_only(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_USAGE
        assert "expected " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("nf", "--n", "9" * 5000, "1"),
        ("minor", "--n", "3", "--rows", "1," + "9" * 5000, "--cols", "1,3"),
    ], ids=["n", "rows"])
    def test_integer_options_past_the_digit_limit_name_the_count(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_USAGE
        assert len(err.encode()) < 300 and "5000 digits" in err and "9999" not in err

    @pytest.mark.parametrize("value", ["1_7", "١٦", "9" * 5000],  # Arabic-Indic 16
                             ids=["underscore", "arabic-indic", "5000-digits"])
    def test_degree_cap_variable_takes_ascii_digits_only(self, capsys, monkeypatch, value):
        monkeypatch.setenv("QMB_MAX_DEGREE", value)
        code, out, err = run(capsys, "nf", "--n", "2", "t[1,1]^17")
        assert code == EXIT_PRECONDITION
        assert out == "" and err.startswith("qmb: QMB_MAX_DEGREE") and err.count("\n") == 1
        assert len(err.encode()) < 300 and "9999" not in err

    @pytest.mark.parametrize("argv", [
        ("ore", "--n", "2", "--minor-rows", "2", "--minor-cols", "2", "--elem", "t[1,1]", "--max-power", "0"),
        ("ore", "--n", "2", "--minor-rows", "2", "--minor-cols", "2", "--elem", "t[1,1]", "--max-power", "-3"),
        ("suite", "--n", "2", "--size-cap", "0"),
    ], ids=["max-power-0", "max-power-negative", "size-cap-0"])
    def test_nonpositive_bound_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_USAGE
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("identity", "--n", "3", "--kind", "centrality", "--rows", "1", "--cols", "1"),
        ("identity", "--n", "3", "--kind", "muir", "--rows", "1", "--cols", "1"),
        ("identity", "--n", "3", "--kind", "membership", "--rows", "1", "--cols", "1", "--k", "3", "--l", "3"),
        ("ore", "--n", "3", "--minor-rows", "1", "--minor-rows", "2", "--minor-cols", "1", "--elem", "t[1,1]"),
    ], ids=["missing-k-l", "missing-cols2", "missing-element", "unequal-minor-labels"])
    def test_usage_error_exit(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("qmb: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("ore", "--n", "2", "--minor-rows", "2", "--minor-cols", "2", "--elem", "t[1,1]"),
        ("identity", "--n", "3", "--kind", "centrality", "--rows", "1", "--cols", "1", "--k", "1", "--l", "1"),
    ], ids=["ore", "identity"])
    def test_format_only_on_verbs_that_honour_it(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "text"])
        assert exc.value.code == EXIT_USAGE


class TestFileErrors:
    """Every OS error on a file is a precondition failure with one ``qmb:`` line."""

    def test_verify_a_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify-witness", str(tmp_path))
        assert code == EXIT_PRECONDITION
        assert out == "" and err.startswith("qmb: ") and err.count("\n") == 1

    def test_output_to_a_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "nf", "--n", "2", "t[1,1]", "--out", str(tmp_path))
        assert code == EXIT_PRECONDITION
        assert out == "" and err.startswith("qmb: ") and err.count("\n") == 1

    def test_verify_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, "verify-witness", str(path))
        assert code == EXIT_PRECONDITION
        assert out == "" and err.startswith("qmb: malformed witness file") and err.count("\n") == 1


class TestMinorSizeBound:
    """A minor past the size bound is refused before its permutations are summed."""

    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("permutations enumerated")

        monkeypatch.setattr(minors, "permutations", refuse)

    def test_minor_verb(self, capsys, no_enumeration):
        labels = ",".join(map(str, range(1, 9)))
        started = time.perf_counter()
        code, out, err = run(capsys, "minor", "--n", "8", "--rows", labels, "--cols", labels)
        assert time.perf_counter() - started < 1.0
        assert code == EXIT_DEGREE_CAP
        assert out == "" and err.startswith("qmb: ") and err.count("\n") == 1

    def test_witness_file(self, capsys, tmp_path, no_enumeration):
        labels = list(range(1, 10))
        path = tmp_path / "w.json"
        path.write_text(json.dumps({
            "schema": "qmb-witness-v1", "n": 9, "minor": {"rows": labels, "cols": labels},
            "element": "t[1,1]", "side": "left-form", "power": 1, "target_power": 1, "scale": "1",
            "cofactor": "t[1,1]", "derivation": {}, "denominator_zeros": [], "infeasible_powers": [],
            "certified": True}))
        started = time.perf_counter()
        code, out, err = run(capsys, "verify-witness", str(path))
        assert time.perf_counter() - started < 1.0
        assert code == EXIT_DEGREE_CAP
        assert out == "" and err.startswith("qmb: ") and err.count("\n") == 1


class TestCommutatorVerb:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "commutator", "--n", "2", "t[1,1]", "t[2,2]")
        assert code == EXIT_OK
        assert parse_element(out.strip(), 2) == parse_element("(q - q^-1) * t[1,2] t[2,1]", 2)


class TestIdentityVerb:
    def test_verified(self, capsys):
        code, out, _ = run(
            capsys, "identity", "--n", "3", "--kind", "centrality",
            "--rows", "1,2", "--cols", "1,2", "--k", "1", "--l", "2",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["status"] == "verified"
        assert data["residual"] == "0"

    def test_not_applicable(self, capsys):
        code, out, _ = run(
            capsys, "identity", "--n", "3", "--kind", "centrality",
            "--rows", "1,2", "--cols", "1,2", "--k", "3", "--l", "3",
        )
        assert code == EXIT_PRECONDITION

    @pytest.mark.parametrize("labels", [
        ["--kind", "centrality", "--rows", "1", "--cols", "1", "--k", "9", "--l", "9"],
        ["--kind", "gap-one", "--rows", "7", "--cols", "1", "--k", "1", "--l", "2"],
        ["--kind", "muir", "--rows", "1,9", "--cols", "1,2", "--cols2", "3,4"],
    ])
    def test_labels_outside_the_algebra_are_refused(self, capsys, labels):
        """A generator or minor that does not exist at n is an error, not a not-applicable result."""
        code, out, err = run(capsys, "identity", "--n", "3", *labels)
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err.startswith("qmb: ") and err.count("\n") == 1

    def test_gap_r_inferred(self, capsys):
        code, out, _ = run(
            capsys, "identity", "--n", "4", "--kind", "gap-r",
            "--rows", "1,2,4", "--cols", "1,2,4", "--k", "4", "--l", "3",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["convention"]["row_reading"] == "same-row"

    @pytest.mark.parametrize("kind, k, l", [
        ("centrality", 1, 3), ("q-commutation", 3, 1), ("gap-one", 1, 2), ("gap-r", 1, 2),
    ])
    def test_columns_are_read_as_a_set(self, capsys, kind, k, l):
        argv = ["identity", "--n", "3", "--kind", kind, "--rows", "1,2", "--k", str(k), "--l", str(l)]
        sorted_cols = run(capsys, *argv, "--cols", "1,3")
        assert sorted_cols[0] == EXIT_OK
        assert run(capsys, *argv, "--cols", "3,1") == sorted_cols

    def test_no_gap_index_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["identity", "--n", "4", "--kind", "gap-r", "--rows", "1,2,4", "--cols", "1,2,4",
                  "--k", "4", "--l", "3", "--r", "2"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --r 2" in capsys.readouterr().err

    def test_membership_failure_exit(self, capsys):
        code, out, _ = run(
            capsys, "identity", "--n", "3", "--kind", "membership",
            "--rows", "1", "--cols", "1", "--k", "3", "--l", "3",
            "--element", "t[1,2]*t[2,1]",
        )
        assert code == EXIT_CHECK_FAILED


class TestSuiteVerb:
    def test_small_suite_exit_zero(self, capsys):
        code, out, _ = run(capsys, "suite", "--n", "2", "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["all_verified"] is True

    def test_text_summary(self, capsys):
        code, out, _ = run(capsys, "suite", "--n", "2", "--format", "text", "--no-membership")
        assert code == EXIT_OK
        assert "centrality" in out
        assert "convention" in out

    def test_reports_are_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "suite", "--n", "2", "--format", "json")
        _, out2, _ = run(capsys, "suite", "--n", "2", "--format", "json")
        assert out1 == out2


class TestOreVerb:
    def test_witness_file(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        code, _, _ = run(
            capsys, "ore", "--n", "2", "--minor-rows", "2", "--minor-cols", "2",
            "--elem", "t[1,1]", "--side", "left", "--max-power", "5",
            "--out", str(path),
        )
        assert code == EXIT_OK
        data = json.loads(path.read_text())
        assert data["power"] == 2
        assert data["certified"] is True
        code2, out2, _ = run(capsys, "verify-witness", str(path))
        assert code2 == EXIT_OK

    def test_unsat_exit(self, capsys):
        code, _, err = run(
            capsys, "ore", "--n", "2", "--minor-rows", "2", "--minor-cols", "2",
            "--elem", "t[1,1]", "--side", "left", "--max-power", "1",
        )
        assert code == EXIT_UNSAT

    def test_default_scan_passes_the_old_power_guess(self, capsys, tmp_path):
        # power 5 is minimal, above minor size + element degree = 4
        path = tmp_path / "w.json"
        argv = ["ore", "--n", "3", "--minor-rows", "1,3", "--minor-cols", "1,3",
                "--elem", "t[2,2] t[2,2]", "--side", "left", "--strategy", "solver"]
        code, _, _ = run(capsys, *argv, "--out", str(path))
        assert code == EXIT_OK
        assert json.loads(path.read_text())["power"] == 5
        assert run(capsys, "verify-witness", str(path))[0] == EXIT_OK
        assert run(capsys, *argv, "--max-power", "4")[0] == EXIT_UNSAT

    def test_default_scan_ends_at_the_degree_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("QMB_MAX_DEGREE", "8")
        code, _, err = run(capsys, "ore", "--n", "3", "--minor-rows", "1,3", "--minor-cols", "1,3",
                           "--elem", "t[2,2] t[2,2]", "--strategy", "solver")
        assert code == EXIT_DEGREE_CAP
        assert err.startswith("qmb: ") and err.count("\n") == 1

    @pytest.mark.parametrize("changes, expected", [
        ({"power": 3, "infeasible_powers": []}, EXIT_CHECK_FAILED),
        ({"power": 3}, EXIT_PRECONDITION),  # power 2 is feasible but not listed
        ({"side": "sideways"}, EXIT_PRECONDITION),
        ({"power": -1}, EXIT_PRECONDITION),
        ({"power": 0, "target_power": 0}, EXIT_PRECONDITION),
        ({"target_power": 0}, EXIT_PRECONDITION),
        ({"scale": "0", "cofactor": "0"}, EXIT_PRECONDITION),
        ({"element": "0", "cofactor": "0"}, EXIT_PRECONDITION),
        ({"cofactor": None}, EXIT_PRECONDITION),  # None removes the key
        ({"power": 1000000}, EXIT_DEGREE_CAP),
        ({"n": 0}, EXIT_PRECONDITION),
        ({"n": 10**18}, EXIT_DEGREE_CAP),
        ({"cofactor": "t[1,"}, EXIT_PRECONDITION),
        ({"infeasible_powers": 5}, EXIT_PRECONDITION),
        ({"power": 1}, EXIT_PRECONDITION),  # power 1 is listed as infeasible
        ({"infeasible_powers": [{"power": 1}, {"power": 1}]}, EXIT_PRECONDITION),
        ({"infeasible_powers": [{"power": "1"}]}, EXIT_PRECONDITION),
        ({"element": "t[1,1] + t[1,1] t[1,1]"}, EXIT_PRECONDITION),  # inhomogeneous: no records
        ({"denominator_zeros": ["1 + q"]}, EXIT_PRECONDITION),  # scale 1 has no factors
        ({"power": 2.9}, EXIT_PRECONDITION),
        ({"target_power": True}, EXIT_PRECONDITION),
        ({"n": 2.5}, EXIT_PRECONDITION),
        ({"scale": "1/0"}, EXIT_PRECONDITION),
        ({"cofactor": "(" * 300 + "t[1,1]" + ")" * 300}, EXIT_PRECONDITION),
        ({"minor": {"rows": [True], "cols": [2]}}, EXIT_PRECONDITION),
        ({"scale": "t[1,1]"}, EXIT_PRECONDITION),
        ({"scale": " + ".join(f"{1 + k % 9}*q^{k}" for k in range(400))}, EXIT_PRECONDITION),
        # a true equation, with the zeros its scale once reported, but a scale that is not a monomial
        ({"scale": "1 + q", "cofactor": "(1 + q) * ((1) * t[1,1] t[2,2] + (q^-3 - q) * t[1,2] t[2,1])",
          "denominator_zeros": ["1 + q"]}, EXIT_PRECONDITION),
        ({"cofactor": "(1+q)^8000 * t[1,1]"}, EXIT_DEGREE_CAP),
        (lambda d: d.update(powers=[3, 2]), EXIT_PRECONDITION),
        (lambda d: d["links"].reverse(), EXIT_PRECONDITION),
        (lambda d: d["minors"].reverse(), EXIT_PRECONDITION),
        (lambda d: d.update(links=[]), EXIT_PRECONDITION),
        (lambda d: d["links"][0]["infeasible_powers"][0].update(rank=0), EXIT_PRECONDITION),
        (lambda d: d["minors"].insert(0, {"rows": [1], "cols": [1]}), EXIT_PRECONDITION),
        # every link replays on its own; only the link conditions reject these two
        (extend_last_link, (EXIT_PRECONDITION, "link 1 must have the chain's n and side, and target power 1")),
        (lambda d: d.update(element="t[1,2]"), (EXIT_PRECONDITION, "link 0 must clear the chain's element")),
    ], ids=["wrong-power", "partial-infeasible", "unknown-side", "negative-power", "zero-powers",
            "zero-target-power", "zero-scale", "zero-element", "missing-key", "huge-power", "zero-n", "huge-n",
            "unparsable-cofactor",
            "bad-infeasible-non-list", "bad-infeasible-at-power", "bad-infeasible-repeated",
            "bad-infeasible-non-integer", "infeasible-inhomogeneous", "wrong-denominator-zeros",
            "float-power", "bool-target-power", "float-n", "zero-denominator-scale", "deep-nesting",
            "bool-label", "word-scale", "dense-degree-399-scale", "non-monomial-scale", "huge-exponent-cofactor",
            "chain-powers-changed", "chain-links-reversed",
            "chain-minors-reversed", "chain-no-links", "chain-link-infeasible-misstated",
            "chain-extra-minor", "chain-last-link-extended", "chain-element-changed"])
    def test_tampered_witness_exit(self, capsys, tmp_path, changes, expected):
        # a dict replaces keys of a single witness file; a function tampers a solver chain file;
        # an expected (code, text) also names the broken condition
        expected, named = expected if isinstance(expected, tuple) else (expected, "")
        path = tmp_path / "w.json"
        if callable(changes):
            run(capsys, *CHAIN_ARGV, "--strategy", "solver", "--out", str(path))
        else:
            run(
                capsys, "ore", "--n", "2", "--minor-rows", "2", "--minor-cols", "2",
                "--elem", "t[1,1]", "--out", str(path),
            )
        data = json.loads(path.read_text())
        if callable(changes):
            changes(data)
        else:
            data.update(changes)
        path.write_text(json.dumps({k: v for k, v in data.items() if v is not None}))
        code, out, err = run(capsys, "verify-witness", str(path))
        assert code == expected and named in err
        assert out == "" and err.startswith("qmb: ") and err.count("\n") == 1

    def test_power_past_the_digit_limit_exits_on_the_cap(self, capsys, tmp_path):
        # the minor power's degree, 2 * (4300 nines), has more digits than
        # Python writes out: it is refused on the cap by its digit count
        path = tmp_path / "w.json"
        run(capsys, "ore", "--n", "2", "--minor-rows", "1,2", "--minor-cols", "1,2",
            "--elem", "t[1,1]", "--out", str(path))
        data = json.loads(path.read_text())
        data["power"] = int("9" * 4300)
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify-witness", str(path))
        assert code == EXIT_DEGREE_CAP
        assert out == "" and err.startswith("qmb: ") and err.count("\n") == 1
        assert "of 4301 digits exceeds cap" in err and "9999" not in err

    def test_runs_without_sympy(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setitem(sys.modules, "sympy", None)  # any import of it fails
        path = tmp_path / "w.json"
        argv = ["ore", "--n", "3", "--minor-rows", "1,3", "--minor-cols", "1,3",
                "--elem", "t[1,1] t[2,2] + 2*q*t[1,2] t[2,1]", "--strategy", "solver", "--out", str(path)]
        assert run(capsys, *argv)[0] == EXIT_OK
        assert run(capsys, "verify-witness", str(path))[0] == EXIT_OK
        data = json.loads(path.read_text())
        data.update(scale="2*q", cofactor=f"2*q * ({data['cofactor']})")
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify-witness", str(path))
        assert code == EXIT_OK and json.loads(out)["certified"] is True

    def test_feasible_power_listed_as_infeasible(self, capsys, tmp_path):
        # a power-6 witness whose file claims powers 1 and 2 infeasible;
        # the element's minimal power is 2, so power 2 is feasible
        w = solve_witness(2, MinorId((2,), (2,)), parse_element("t[1,1]", 2))
        records = w.infeasible + [dict(w.infeasible[0], power=2)]
        path = tmp_path / "w.json"
        witness_to_file(dataclasses.replace(extend_to_power(w, 3), infeasible=records), str(path))
        code, out, err = run(capsys, "verify-witness", str(path))
        assert code == EXIT_PRECONDITION
        assert out == "" and "infeasible_powers" in err and err.count("\n") == 1

    def test_large_n(self, capsys):
        code, out, _ = run(capsys, "ore", "--n", "40", "--minor-rows", "1", "--minor-cols", "1",
                           "--elem", "t[1,2]")
        assert code == EXIT_OK
        assert json.loads(out)["certified"] is True

    @pytest.mark.parametrize("argv", [
        ("ore", "--n", "1000000000000000000", "--minor-rows", "1", "--minor-cols", "1", "--elem", "t[1,1]"),
        ("identity", "--n", "1000000000000000000", "--kind", "q-commutation", "--rows", "1", "--cols", "1",
         "--k", "1", "--l", "2"),
        ("suite", "--n", "1001"),
    ], ids=["ore", "identity", "suite"])
    def test_matrix_size_over_the_bound(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_DEGREE_CAP
        assert out == "" and err.startswith("qmb: ") and err.count("\n") == 1

    # the constructive witness has power 5, above the minimal power 3
    @pytest.mark.parametrize("chain", [False, True], ids=["one-minor", "two-minors"])
    def test_max_power_bounds_the_constructive_route(self, capsys, chain):
        argv = ["ore", "--n", "3", "--minor-rows", "1,3", "--minor-cols", "1,3", "--elem", "t[2,2]",
                "--strategy", "constructive"]
        if chain:
            argv += ["--minor-rows", "2", "--minor-cols", "2"]
        code, out, err = run(capsys, *argv, "--max-power", "1")
        assert code == EXIT_UNSAT
        assert out == "" and err.startswith("qmb: ") and err.count("\n") == 1
        assert run(capsys, *argv, "--max-power", "4")[0] == EXIT_UNSAT
        code, out, _ = run(capsys, *argv, "--max-power", "5")
        assert code == EXIT_OK
        data = json.loads(out)
        assert (data["powers"] == [5, 1]) if chain else (data["power"] == 5)

    def test_chain_max_power(self, capsys):
        # each link needs power 2
        code, out, err = run(capsys, *CHAIN_ARGV, "--max-power", "1")
        assert code == EXIT_UNSAT
        assert out == "" and err.startswith("qmb: ") and err.count("\n") == 1

    @pytest.mark.parametrize("strategy", ["solver", "constructive", "both"])
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("chain", [False, True], ids=["one-minor", "two-minors"])
    def test_every_written_file_verifies(self, capsys, tmp_path, chain, side, strategy):
        path = tmp_path / "w.json"
        argv = CHAIN_ARGV if chain else MINOR_ARGV
        assert run(capsys, *argv, "--side", side, "--strategy", strategy, "--out", str(path))[0] == EXIT_OK
        data = json.loads(path.read_text())
        code, out, _ = run(capsys, "verify-witness", str(path))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["certified"] is True and report["side"] == data["side"]
        key = "powers" if chain else "power"
        assert report[key] == data[key] and ("power" if chain else "powers") not in report

    def test_chain_output(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        code, _, _ = run(
            capsys, "ore", "--n", "3",
            "--minor-rows", "3", "--minor-cols", "3",
            "--minor-rows", "2,3", "--minor-cols", "2,3",
            "--elem", "t[1,1]", "--strategy", "constructive",
            "--out", str(path),
        )
        assert code == EXIT_OK
        data = json.loads(path.read_text())
        assert data["schema"] == "qmb-chain-witness-v1"
        assert data["certified"] is True

    @pytest.mark.parametrize("side, powers", [("left", [6, 2]), ("right", [2, 6])])
    def test_chain_over_the_cap_only_as_a_whole_verifies(self, capsys, tmp_path, side, powers):
        # D[{1,2},{1,3}] D[{1,3},{1,2}] against t[2,2]: every link is within the
        # degree cap, the chain's own equation (degree 17) is not
        path = tmp_path / "chain.json"
        argv = ["ore", "--n", "3", "--minor-rows", "1,2", "--minor-cols", "1,3", "--minor-rows", "1,3",
                "--minor-cols", "1,2", "--elem", "t[2,2]", "--side", side, "--strategy", "constructive"]
        assert run(capsys, *argv, "--out", str(path))[0] == EXIT_OK
        code, out, _ = run(capsys, "verify-witness", str(path))
        assert code == EXIT_OK and json.loads(out)["powers"] == powers

    def test_zero_element_rejected(self, capsys):
        code, _, err = run(
            capsys, "ore", "--n", "2", "--minor-rows", "2", "--minor-cols", "2",
            "--elem", "t[1,1] - t[1,1]",
        )
        assert code == EXIT_PRECONDITION

    def test_witness_output_is_byte_identical(self, capsys):
        argv = ["ore", "--n", "2", "--minor-rows", "2", "--minor-cols", "2",
                "--elem", "t[1,1]", "--strategy", "both"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


def spawn(argv, *, buffered=True, **kwargs):
    """``python -m qmb.cli ARGV`` as a child process, stdout buffered as it is
    for a user unless ``buffered`` is false."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "qmb.cli", *argv], stderr=subprocess.PIPE,
                          env=env, timeout=60, **kwargs)


class TestProcessBoundary:
    """``python -m qmb.cli`` ends through ``cli.run`` without the interpreter's
    teardown; what it writes and returns is what ``main`` gives in process."""

    @pytest.mark.parametrize("argv, code", [
        (("suite", "--n", "3", "--format", "json"), EXIT_OK),  # 284 KB, past a pipe's buffer
        (("nf", "--n", "2", "t[1,1] +"), EXIT_USAGE),
        (("identity", "--n", "3", "--kind", "centrality", "--rows", "1,2", "--cols", "1,2",
          "--k", "3", "--l", "3"), EXIT_PRECONDITION),
        (("ore", "--n", "2", "--minor-rows", "2", "--minor-cols", "2", "--elem", "t[1,1]",
          "--max-power", "1"), EXIT_UNSAT),
        (("identity", "--n", "3", "--kind", "membership", "--rows", "1", "--cols", "1",
          "--k", "3", "--l", "3", "--element", "t[1,2]*t[2,1]"), EXIT_CHECK_FAILED),
        (("nf", "--n", "2", "t[1,1]^17"), EXIT_DEGREE_CAP),
    ], ids=["0-suite", "2-syntax", "3-not-applicable", "4-unsat", "5-membership", "6-degree-cap"])
    def test_every_status_and_output_match_main(self, capsys, argv, code):
        want = run(capsys, *argv)
        proc = spawn(argv)
        assert want[0] == code
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == want

    def test_witness_file_matches_main(self, capsys, tmp_path):
        argv = ["ore", "--n", "3", "--minor-rows", "1,2", "--minor-cols", "1,2", "--elem", "t[3,3] t[1,3]"]
        want = run(capsys, *argv, "--out", str(tmp_path / "main.json"))
        proc = spawn([*argv, "--out", str(tmp_path / "child.json")])
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == want == (EXIT_OK, "", "")
        assert (tmp_path / "child.json").read_bytes() == (tmp_path / "main.json").read_bytes()

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("sink", ["full-disk", "closed-pipe"])
    def test_an_output_error_exits_3(self, sink, buffered):
        argv = ["nf", "--n", "2", "t[2,2] t[1,1]"]
        if sink == "full-disk":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            with open("/dev/full", "w") as full:
                proc = spawn(argv, buffered=buffered, stdout=full)
        else:
            read, write = os.pipe()
            os.close(read)
            try:
                proc = spawn(argv, buffered=buffered, stdout=write)
            finally:
                os.close(write)
        err = proc.stderr.decode()
        assert proc.returncode == EXIT_PRECONDITION, err
        assert err.startswith("qmb: ") and err.count("\n") == 1

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv, code", [
        (("--help",), EXIT_PRECONDITION),
        (("nf", "--help"), EXIT_PRECONDITION),
        (("nf", "--n", "2", "--bogus", "t[1,1]"), EXIT_USAGE),
    ], ids=["help", "verb-help", "bad-option"])
    def test_argparse_exits_into_a_full_disk(self, argv, code, buffered):
        """argparse's own exits keep the documented statuses: help that cannot
        be written exits 3 with one ``qmb:`` line; a bad option writes only
        to stderr and exits 2."""
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "w") as full:
            proc = spawn(argv, buffered=buffered, stdout=full)
        err = proc.stderr.decode()
        assert proc.returncode == code, err
        if code == EXIT_PRECONDITION:
            assert err.startswith("qmb: ") and err.count("\n") == 1
        else:
            assert err.startswith("usage: qmb ") and err.endswith("unrecognized arguments: --bogus\n")

    def test_help_is_written_whole(self):
        proc = spawn(["--help"])
        assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
        assert proc.stdout.decode().startswith("usage: qmb ")


class TestParserDetails:
    def test_implicit_multiplication(self):
        assert parse_element("t[1,1] t[2,2]", 2) == parse_element("t[1,1]*t[2,2]", 2)

    def test_powers(self):
        assert parse_element("t[1,1]^2", 2) == parse_element("t[1,1]*t[1,1]", 2)
        assert parse_element("q^-2 * 1", 2) == parse_element("q^-1 * q^-1", 2)

    def test_q_exponent_at_the_digit_limit_reads(self):
        assert parse_laurent("q^" + "9" * 4300) == LaurentQ.q_power(10**4300 - 1)

    def test_negative_exponent_only_on_q(self):
        with pytest.raises(Exception):
            parse_element("t[1,1]^-1", 2)

    def test_rational_constants(self):
        e = parse_element("1/2 * t[1,1]", 2)
        assert e == parse_element("t[1,1]", 2).scale(__import__("fractions").Fraction(1, 2))

    def test_division_by_q_rejected(self):
        with pytest.raises(Exception):
            parse_element("t[1,1] / q", 2)

    def test_unit_renders_and_parses(self):
        e = parse_element("q^-1 + q", 3)
        assert parse_element(e.render(), 3) == e

    def test_zero_round_trip(self):
        e = parse_element("0", 2)
        assert e.is_zero()
        assert e.render() == "0"

    def test_round_trip_across_operation_outputs(self):
        # elements produced by the library's operations parse back exactly
        import random

        from qmb.algebra import commutator, normal_form
        from qmb.minors import quantum_minor as qm
        from qmb.ore import LEFT, solve_witness
        from qmb.minors import MinorId
        from qmb.scalars import LaurentQ

        rng = random.Random(13)
        produced = [
            qm(3, (1, 2), (1, 3)),
            commutator(parse_element("t[1,1]", 3), parse_element("t[2,2]", 3)),
            solve_witness(2, MinorId((2,), (2,)), parse_element("t[1,1]", 2), LEFT).cofactor,
        ]
        for _ in range(25):
            n = rng.choice((2, 3))
            terms = [
                (LaurentQ({rng.randint(-2, 2): Fraction(rng.randint(-3, 3), rng.choice((1, 2)))}),
                 tuple((rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 3))))
                for _ in range(2)
            ]
            produced.append(normal_form(n, terms))
        for e in produced:
            assert parse_element(e.render(), e.n) == e
