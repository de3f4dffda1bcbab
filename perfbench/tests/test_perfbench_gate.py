"""The benchmark's correctness gate: negative controls and seeded inputs.

Each control hands the gate a result that ``qmb verify-witness`` alone would
not (or not always) reject, and requires it to be counted as a failure.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from qmb.algebra import Element  # noqa: E402
from qmb.exprparse import parse_element  # noqa: E402
from qmb.minors import MinorId  # noqa: E402
from qmb.ore import LEFT, RIGHT, solve_witness, witness_generator_constructive  # noqa: E402
from qmb.scalars import LaurentQ  # noqa: E402

N = 3
MINOR = MinorId((1, 2), (1, 2))
T13 = Element.generator(N, 1, 3)
T31 = Element.generator(N, 3, 1)
QUESTION = (N, MINOR, T13, LEFT)


@pytest.fixture(scope="module")
def witness():
    return solve_witness(*QUESTION)


def tampered(w, **changes):
    """The tampered witness, or the exception raised while building it."""
    try:
        return dataclasses.replace(w, **changes)
    except Exception as exc:  # a witness type that refuses the tampering is a caught control
        return exc


def gate(results, tmp_path, questions=(QUESTION,), solver=True):
    problems, _ = workloads.ore_gate(list(questions), list(results), solver, tmp_path)
    return [bool(p) for p in problems]


def test_valid_witness_passes(witness, tmp_path):
    assert gate([witness], tmp_path) == [False]


def test_tampered_cofactor_fails(witness, tmp_path):
    bad = tampered(witness, cofactor=witness.cofactor + Element.generator(N, 2, 2))
    assert gate([bad], tmp_path) == [True]


def test_zero_scale_fails(witness, tmp_path):
    # scale 0 with cofactor 0 satisfies the witness equation for any element
    bad = tampered(witness, scale=LaurentQ.zero(), cofactor=Element.zero(N))
    assert gate([bad], tmp_path) == [True]


def test_witness_for_another_element_fails(tmp_path):
    other = solve_witness(N, MINOR, T31, LEFT)
    assert gate([other], tmp_path) == [True]


def test_wrong_side_fails(witness, tmp_path):
    assert gate([witness], tmp_path, questions=[(N, MINOR, T13, RIGHT)]) == [True]


def test_missing_infeasibility_evidence_fails(tmp_path):
    w = solve_witness(N, MinorId((1,), (1,)), parse_element("t[1,2] t[2,3] + q t[1,3] t[2,2]", N), LEFT)
    assert w.power > 1
    bad = tampered(w, infeasible=[])
    question = (N, w.minor, w.element, LEFT)
    assert gate([w, bad], tmp_path, questions=[question, question]) == [False, True]


def test_raised_call_fails(tmp_path):
    assert gate([RuntimeError("boom")], tmp_path) == [True]


def test_constructive_witness_needs_no_infeasibility_list(tmp_path):
    w = witness_generator_constructive(N, MINOR, 1, 3, LEFT)
    assert gate([w], tmp_path, solver=False) == [False]


def test_vacuous_witness_file_fails(witness, tmp_path):
    # the witness file checker replays this file to a zero residual
    from qmb.ore import witness_from_json

    data = witness.to_json()
    data.update(scale="0", cofactor="0")
    problems = workloads.witness_problems(witness_from_json(data), True, *QUESTION, True, tmp_path / "w.json")
    assert "zero scale" in problems


class FakeReport:
    def __init__(self, statuses, conventions):
        self.results = [type("R", (), {"status": s})() for s in statuses]
        self.conventions = conventions

    def counts(self):
        return {name: {"verified": n} for name, n in workloads.SUITE_COUNTS.items()}


def test_suite_gate_catches_a_failed_configuration():
    ok = FakeReport(["verified"] * 3, workloads.SUITE_CONVENTIONS)
    assert workloads.suite_problems(ok) == []
    assert workloads.suite_problems(FakeReport(["verified", "failed"], workloads.SUITE_CONVENTIONS))


def test_suite_gate_catches_a_convention_change():
    conventions = json.loads(json.dumps(workloads.SUITE_CONVENTIONS))
    conventions["muir"]["removed<added"] = -1
    assert workloads.suite_problems(FakeReport(["verified"], conventions))


def test_ore_items_cover_every_proper_minor_and_one_interior_item():
    items = workloads.ore_items()
    assert len(items) == len(set(items)) == 2 * (16 + 36 + 16) * 16 - 7
    interior = [it for it in items if workloads._is_interior(it)]
    assert interior == [workloads.OreItem(*workloads.INTERIOR)]


def test_cli_cases_are_seeded():
    assert workloads.cli_cases(5) == workloads.cli_cases(5) != workloads.cli_cases(6)
    assert len(workloads.cli_cases(5)) == workloads.CLI_CASES


def test_cli_products_of_two_gap_generators_take_the_solver_route():
    # seed 304 drew this question for the constructive route, which needs
    # normal forms of degree 18, past the default cap of 16 (exit 6)
    from qmb.algebra import DegreeCapError
    from qmb.ore import witness_for_element

    minor, elem = MinorId((1, 3), (2, 3)), parse_element("t[2,1] t[2,1]", N)
    with pytest.raises(DegreeCapError):
        witness_for_element(N, minor, elem, RIGHT, "constructive")
    assert witness_for_element(N, minor, elem, RIGHT, "solver").certified
    case = workloads.cli_cases(304)[9]
    assert (case.rows, case.cols, case.expr, case.strategy) == ((1, 3), (2, 3), "t[2,1] t[2,1]", "solver")
