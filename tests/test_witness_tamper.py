"""Tampered witness files.

Every file the checker accepts must say what it certifies: ``verify_witness_file``
either rejects a file (ValueError, CertificateError or DegreeCapError) or
returns a witness whose ``n``, ``power``, ``target_power`` and ``side`` are the
file's values, of the same JSON type, and whose equation replays under the
independent numeric reducer of ``test_numeric_replay``.

The base files are solver and constructive witnesses in both forms at n = 2
and n = 3; each example replaces one top-level key, or the minor's rows or
columns, by a drawn value or removes it.

Chain files get the same treatment: the chain of ``D[{3},{3}] D[{2,3},{2,3}]``
against ``t[1,1]`` at n = 3, solver and constructive, in both forms, with one
chain key, one key of a link, or a link's minor rows or columns replaced.  An
accepted chain file must report the file's ``n``, ``side`` and ``powers``, and
its links and its own equation must replay under the numeric reducer.
"""

import copy
import json
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qmb.algebra import DegreeCapError
from qmb.exprparse import parse_element
from qmb.minors import MinorId
from qmb.ore import (
    LEFT,
    RIGHT,
    CertificateError,
    ChainWitness,
    multi_minor_witness,
    verify_witness_file,
    witness_for_element,
)

from test_numeric_replay import replay_witness

QUESTIONS = [
    (2, MinorId((2,), (2,)), "t[1,1]"),
    (3, MinorId((1, 2), (1, 3)), "t[1,2] t[3,3]"),
]
BASES = [
    witness_for_element(n, minor, parse_element(elem, n), side, strategy).to_json()
    for n, minor, elem in QUESTIONS for side in (LEFT, RIGHT) for strategy in ("solver", "constructive")
]
KEYS = [(key,) for key in BASES[0]] + [("minor", "rows"), ("minor", "cols")]
CHAIN_MINORS = [MinorId((3,), (3,)), MinorId((2, 3), (2, 3))]
CHAIN_BASES = [
    multi_minor_witness(3, CHAIN_MINORS, parse_element("t[1,1]", 3), side, strategy).to_json()
    for side in (LEFT, RIGHT) for strategy in ("solver", "constructive")
]
CHAIN_KEYS = [(key,) for key in CHAIN_BASES[0]] + [
    ("links", i) + key for i in (0, 1) for key in KEYS]
DEEP = "(" * 300 + "t[1,1]" + ")" * 300
MISSING = object()
VALUES = [-1, 0, 1, 2, 3, 17, 40, 2.5, 2.9, True, False, MISSING, [], {},
          "1/0", DEEP, "t[1,", "0", "q^-1"]


def _at(data, path):
    for key in path:
        data = data[key]
    return data


@st.composite
def tampered_files(draw, bases=BASES, keys=KEYS):
    data = copy.deepcopy(draw(st.sampled_from(bases)))
    path = draw(st.sampled_from(keys))
    other = _at(draw(st.sampled_from(bases)), path)
    value = draw(st.sampled_from(VALUES + [other]))
    holder = _at(data, path[:-1])
    if value is MISSING:
        del holder[path[-1]]
    else:
        holder[path[-1]] = copy.deepcopy(value)
    return data


def test_bases_cover_the_infeasibility_evidence():
    assert any(base["infeasible_powers"] for base in BASES)
    assert {base["side"] for base in BASES} == {LEFT, RIGHT} and {base["n"] for base in BASES} == {2, 3}


@settings(derandomize=True, database=None, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=tampered_files())
def test_accepted_files_say_what_they_certify(data, tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(data))
    try:
        w = verify_witness_file(str(path))
    except (ValueError, CertificateError, DegreeCapError):
        return
    for key in ("n", "power", "target_power", "side"):
        assert type(getattr(w, key)) is type(data[key]) and getattr(w, key) == data[key], key
    for q0 in (Fraction(2), Fraction(-3, 2)):
        assert replay_witness(w, q0) == {}


def test_chain_bases_cover_both_routes_and_verify(tmp_path):
    assert {base["side"] for base in CHAIN_BASES} == {LEFT, RIGHT}
    assert any(link["infeasible_powers"] for base in CHAIN_BASES for link in base["links"])
    assert {tuple(base["powers"]) for base in CHAIN_BASES} == {(2, 2), (4, 2)}
    path = tmp_path / "chain.json"
    for base in CHAIN_BASES:
        path.write_text(json.dumps(base))
        assert verify_witness_file(str(path)).to_json() == base


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=tampered_files(CHAIN_BASES, CHAIN_KEYS))
def test_accepted_chain_files_say_what_they_certify(data, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(data))
    try:
        w = verify_witness_file(str(path))
    except (ValueError, CertificateError, DegreeCapError):
        return
    assert isinstance(w, ChainWitness)
    for key in ("n", "side", "powers"):
        assert json.dumps(getattr(w, key)) == json.dumps(data[key]), key
    for q0 in (Fraction(2), Fraction(-3, 2)):
        assert replay_witness(w, q0) == {}
        for link in w.links:
            assert replay_witness(link, q0) == {}
