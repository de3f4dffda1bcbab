"""Witness solver, constructive engine, composition calculus, chains, files."""

import copy
import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from qmb import algebra, clear_caches, minors, ore
from qmb.algebra import Element, MultiDegree, basis_monomials
from qmb.exprparse import parse_element
from qmb.minors import MinorId, minor_element, quantum_minor
from qmb.ore import (
    LEFT,
    RIGHT,
    SIDES,
    CertificateError,
    ChainWitness,
    OreWitness,
    UnsatWithinBound,
    compose_product,
    compose_sum,
    extend_to_power,
    multi_minor_witness,
    reduce_relative,
    scale_witness,
    solve_witness,
    verify_witness_file,
    witness_for_element,
    witness_from_json,
    witness_generator_constructive,
    witness_to_file,
)
from qmb.scalars import ONE, Q, Q_MINUS_QINV, LaurentQ

from test_numeric_replay import replay_witness


def gen(n, i, j):
    return Element.generator(n, i, j)


M22 = MinorId((2,), (2,))          # D = t[2,2] at n = 2
MFULL2 = MinorId((1, 2), (1, 2))   # the central determinant at n = 2


class TestEnumerateBasis:
    def test_examples(self):
        assert basis_monomials(2, (1, 1), (1, 1)) == [
            ((1, 1), (2, 2)),
            ((1, 2), (2, 1)),
        ]
        assert basis_monomials(2, (1, 0), (0, 1)) == [((1, 2),)]
        assert len(basis_monomials(3, (1, 1, 1), (1, 1, 1))) == 6

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            MultiDegree((1, 0), (1, 1))


class TestSolver:
    def test_minor_clears_itself(self):
        D = minor_element(2, MFULL2)
        w = solve_witness(2, MFULL2, D, LEFT)
        assert w.power == 1
        assert w.cofactor == D

    def test_central_determinant(self):
        w = solve_witness(2, MFULL2, gen(2, 1, 1), LEFT)
        assert w.power == 1
        assert w.cofactor == gen(2, 1, 1)

    def test_minimal_power_two_with_frozen_cofactor(self):
        w = solve_witness(2, M22, gen(2, 1, 1), LEFT)
        assert w.power == 2
        assert len(w.infeasible) == 1 and w.infeasible[0]["power"] == 1
        expected = parse_element(
            "t[1,1]*t[2,2] - (q - q^-1)*(1 + q^-2)*t[1,2]*t[2,1]", 2
        )
        assert w.cofactor == expected
        assert w.scale == ONE

    def test_unsat_reported_distinctly(self):
        with pytest.raises(UnsatWithinBound) as exc:
            solve_witness(2, M22, gen(2, 1, 1), LEFT, m_max=1)
        assert exc.value.infeasible

    def test_zero_element_is_an_input_error(self):
        with pytest.raises(ValueError):
            solve_witness(2, M22, Element.zero(2), LEFT)

    def test_inhomogeneous_split(self):
        e = gen(2, 1, 1) + gen(2, 1, 2) * gen(2, 2, 1)
        w = solve_witness(2, M22, e, LEFT)
        assert w.certified
        assert w.derivation["rule"] == "split"

    def test_right_form(self):
        w = solve_witness(2, M22, gen(2, 1, 1), RIGHT)
        assert w.power == 2
        D = minor_element(2, M22)
        assert (gen(2, 1, 1) * D**2 - D * w.cofactor).is_zero()

    def test_residual_is_checked_on_construction(self):
        D = minor_element(2, M22)
        with pytest.raises(CertificateError):
            OreWitness(
                n=2, minor=M22, element=gen(2, 1, 1), side=LEFT,
                power=1, cofactor=gen(2, 1, 1),
            ).certify()


class TestConstructiveGenerators:
    def test_central_case(self):
        w = witness_generator_constructive(2, MFULL2, 1, 1, LEFT)
        assert (w.power, w.cofactor) == (1, gen(2, 1, 1))
        assert w.derivation["rule"] == "central"

    def test_q_commuting_case(self):
        w = witness_generator_constructive(3, MinorId((1, 2), (1, 2)), 3, 1, LEFT)
        assert w.power == 1
        assert w.derivation["rule"] == "q-commute"
        assert w.cofactor == gen(3, 3, 1).scale(Q)  # measured exponent -1

    def test_gap_case_cross_checked_against_solver(self):
        minor = MinorId((1, 2), (1, 3))
        wc = witness_generator_constructive(3, minor, 1, 2, LEFT)
        ws = solve_witness(3, minor, gen(3, 1, 2), LEFT)
        assert wc.derivation["rule"] == "gap-recursion"
        assert ws.power <= wc.power

    def test_row_gap_via_transposition(self):
        minor = MinorId((1, 3), (1, 2))
        wc = witness_generator_constructive(3, minor, 2, 1, LEFT)
        assert wc.derivation["rule"] == "transposed-gap"

    def test_outside_case(self):
        wc = witness_generator_constructive(2, M22, 1, 1, LEFT)
        assert wc.derivation["rule"] == "outside"
        assert wc.power == 2

    def test_every_generator_every_small_minor(self):
        n = 3
        for m in (1, 2):
            for K in combinations((1, 2, 3), m):
                for L in combinations((1, 2, 3), m):
                    minor = MinorId(K, L)
                    for k in (1, 2, 3):
                        for l in (1, 2, 3):
                            for side in (LEFT, RIGHT):
                                w = witness_generator_constructive(n, minor, k, l, side)
                                assert w.certified
                                assert w.scale == ONE


def test_n3_generator_witnesses_are_pinned():
    """The canonical JSON of all 648 n = 3 generator witnesses, both routes and
    both forms, hashed in a fixed order; any change to a witness, a cofactor's
    text or a derivation tree changes the hash."""
    n = 3
    digest = hashlib.sha256()
    count = 0
    for route in ("solver", "constructive"):
        for side in SIDES:
            for m in (1, 2):
                for K in combinations((1, 2, 3), m):
                    for L in combinations((1, 2, 3), m):
                        minor = MinorId(K, L)
                        for k in (1, 2, 3):
                            for l in (1, 2, 3):
                                if route == "solver":
                                    w = solve_witness(n, minor, gen(n, k, l), side)
                                else:
                                    w = witness_generator_constructive(n, minor, k, l, side)
                                digest.update(json.dumps(w.to_json(), sort_keys=True).encode())
                                count += 1
    assert count == 648
    assert digest.hexdigest() == "9eb8925d7681471c78c723d82a76d7c07992b1c90a10d7d6c4d596c4c2d20d3c"


CHAIN_MINORS = [MinorId((3,), (3,)), MinorId((2, 3), (2, 3))]  # the README's chain at n = 3


@pytest.mark.parametrize("side, strategy, digest", [
    (LEFT, "constructive", "d1b6c5837c5597f4e7a273837d09183494771dedab80450f6bc076032396a31e"),
    (LEFT, "solver", "ba018cb7d6a42032b899c8fc690326baa3804fa789b2697f6d52670fbe798d88"),
    (RIGHT, "constructive", "ea13ec445e40a7e58f8fa4d49b1405d872f6e371ac2ab91d9a51668e36ee70df"),
    (RIGHT, "solver", "3ed9516c3278e597747a17eed000f8c8d6673b0b33aed5bda22d63d7b6327f60"),
])
def test_n3_chain_witnesses_are_pinned(side, strategy, digest):
    """The canonical JSON of the chain against t[1,1]: powers, scale, cofactor and every link."""
    chain = multi_minor_witness(3, CHAIN_MINORS, gen(3, 1, 1), side, strategy)
    assert hashlib.sha256(json.dumps(chain.to_json(), sort_keys=True).encode()).hexdigest() == digest


def test_n4_interior_solver_witness_is_pinned():
    """The 370 x 120 system of D[{1,3,4},{1,2,4}] against t[2,3] (left form),
    the largest the n = 4 solver sweep solves: its witness, the power and the
    rank evidence of the infeasible powers are pinned."""
    w = solve_witness(4, MinorId((1, 3, 4), (1, 2, 4)), gen(4, 2, 3), LEFT)
    assert w.power == 3
    assert [(r["power"], r["rank"], r["equations"], r["unknowns"]) for r in w.infeasible] == [
        (1, 1, 14, 1), (2, 24, 120, 24)]
    text = json.dumps(w.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7a68c7be5bfd14a52769bef1955c2b3375234fedef72c44ab013b94fdf89bcc3")


class TestCompositions:
    def test_product_of_central_witnesses(self):
        w1 = witness_generator_constructive(2, MFULL2, 1, 1, LEFT)
        w2 = witness_generator_constructive(2, MFULL2, 2, 2, LEFT)
        w = compose_product(w1, w2)
        assert w.power == 1
        assert w.cofactor == w1.cofactor * w2.cofactor

    def test_minor_squared(self):
        D = minor_element(2, MFULL2)
        wD = solve_witness(2, MFULL2, D, LEFT)
        w = compose_product(wD, wD)
        assert w.power == 1
        assert w.cofactor == D * D

    def test_product_against_solver(self):
        w11 = witness_generator_constructive(2, M22, 1, 1, LEFT)
        wp = compose_product(w11, w11)
        ws = solve_witness(2, M22, gen(2, 1, 1) * gen(2, 1, 1), LEFT)
        assert wp.certified and ws.certified
        assert ws.power <= wp.power

    def test_sum_power_alignment(self):
        w1 = witness_generator_constructive(2, MFULL2, 1, 1, LEFT)   # power 1
        w2 = witness_generator_constructive(2, M22, 1, 1, LEFT)      # power 2
        with pytest.raises(ValueError):
            compose_sum(w1, w2)  # different minors rejected
        w3 = witness_generator_constructive(2, M22, 1, 2, LEFT)
        w = compose_sum(w2, w3)
        assert w.power == max(w2.power, w3.power)
        assert w.element == w2.element + w3.element

    def test_sum_of_central_witnesses(self):
        w1 = witness_generator_constructive(2, MFULL2, 1, 1, LEFT)
        w2 = witness_generator_constructive(2, MFULL2, 1, 2, LEFT)
        w = compose_sum(w1, w2)
        assert w.power == 1

    def test_relative_reduction_reproduces_minimal_witness(self):
        # pair: t[1,1] clears D = t[2,2] up to the defect (q - q^-1) t[1,2] t[2,1]
        n = 2
        r = gen(n, 1, 1)
        defect = (gen(n, 1, 2) * gen(n, 2, 1)).scale(Q_MINUS_QINV)
        w12 = witness_generator_constructive(n, M22, 1, 2, LEFT)
        w21 = witness_generator_constructive(n, M22, 2, 1, LEFT)
        w_defect = scale_witness(compose_product(w12, w21), Q_MINUS_QINV)
        assert w_defect.element == defect
        w = reduce_relative(n, M22, r, (r, 1), w_defect, LEFT)
        assert w.power == 2
        solver = solve_witness(n, M22, r, LEFT)
        assert w.cofactor == solver.cofactor

    def test_relative_pair_mismatch_rejected(self):
        n = 2
        r = gen(n, 1, 1)
        w12 = witness_generator_constructive(n, M22, 1, 2, LEFT)
        with pytest.raises(ValueError):
            reduce_relative(n, M22, r, (r, 1), w12, LEFT)

    def test_relative_zero_defect_returns_the_pair(self):
        # a central element: the pair (t, 1) is already exact, any defect
        # witness argument is ignored
        n = 2
        r = gen(n, 2, 2)
        dummy = witness_generator_constructive(n, M22, 1, 2, LEFT)
        w = reduce_relative(n, M22, r, (r, 1), dummy, LEFT)
        assert (w.power, w.cofactor) == (1, r)

    def test_sum_with_zero_element_witness_pads_power(self):
        # a zero-element witness is never produced by the public entry
        # points, but summation with one is just power padding
        n = 2
        wz = OreWitness(
            n=n, minor=M22, element=Element.zero(n), side=LEFT,
            power=3, cofactor=Element.zero(n),
        ).certify()
        w1 = witness_generator_constructive(n, M22, 1, 1, LEFT)
        w = compose_sum(w1, wz)
        assert w.element == w1.element
        assert w.power == max(w1.power, 3)
        assert w.certified

    def test_extend_to_power(self):
        w = witness_generator_constructive(2, MFULL2, 1, 1, LEFT)
        assert extend_to_power(w, 1) is w
        w3 = extend_to_power(w, 3)
        assert w3.target_power == 3
        assert w3.power % 3 == 0
        assert w3.certified

    def test_extend_gap_witness(self):
        w = witness_generator_constructive(2, M22, 1, 1, LEFT)  # power 2
        w2 = extend_to_power(w, 2)
        assert w2.target_power == 2
        assert w2.certified

    def test_extend_pads_to_a_multiple_of_the_target(self):
        # the solver clears t[2,2] t[1,1] against t[1,1] at power 1; clearing
        # its cofactor once more costs power 2, and 3 is padded to 4
        t = lambda i, j: gen(3, i, j)  # noqa: E731
        w = solve_witness(3, MinorId((1,), (1,)), t(2, 2) * t(1, 1), LEFT)
        w2 = extend_to_power(w, 2)
        assert (w2.power, w2.target_power, w2.derivation["detail"]["pad"]) == (4, 2, 1)
        assert w2.certified
        for q0 in (Fraction(2), Fraction(-3, 2)):
            assert replay_witness(w2, q0) == {}

    def test_extend_rejects_bad_power(self):
        w = witness_generator_constructive(2, MFULL2, 1, 1, LEFT)
        with pytest.raises(ValueError):
            extend_to_power(w, 0)


class TestCertifyOnce:
    """Each public witness function replays its result once, at its return."""

    @pytest.fixture
    def residual_calls(self, monkeypatch):
        calls = []
        replay = OreWitness.residual

        def counted(w):
            calls.append(w)
            return replay(w)

        monkeypatch.setattr(OreWitness, "residual", counted)
        return calls

    def test_cold_generator_witness_replays_once_per_cache_entry(self, residual_calls):
        clear_caches()
        w = witness_generator_constructive(3, MinorId((1, 3), (1, 3)), 2, 2, RIGHT)
        assert w.derivation["rule"] == "mirror"
        assert len(residual_calls) == len(ore._GEN_WITNESS_CACHE) > 2

    def test_warm_compositions_replay_once(self, residual_calls):
        g = {(i, j, side): witness_generator_constructive(2, M22, i, j, side)
             for i in (1, 2) for j in (1, 2) for side in (LEFT, RIGHT)}
        for compose in (
            lambda: compose_product(g[1, 1, LEFT], g[1, 1, LEFT]),
            lambda: compose_product(g[2, 1, RIGHT], g[1, 1, RIGHT]),
            lambda: compose_sum(g[1, 1, LEFT], g[1, 2, LEFT]),
            lambda: extend_to_power(g[1, 1, LEFT], 2),
            lambda: extend_to_power(g[1, 2, RIGHT], 3),
        ):
            residual_calls.clear()
            assert compose().certified
            assert len(residual_calls) == 1

    def test_returned_witnesses_are_frozen(self):
        minor = MinorId((1, 2), (1, 3))
        w = witness_generator_constructive(3, minor, 1, 2, LEFT)
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.cofactor = Element.zero(3)
        again = witness_generator_constructive(3, minor, 1, 2, LEFT)
        assert again == w and again.certified and again.residual().is_zero()
        chain = multi_minor_witness(2, [M22], gen(2, 1, 1), LEFT)
        with pytest.raises(dataclasses.FrozenInstanceError):
            chain.powers = [1]


def test_clear_caches_empties_every_cache():
    def sizes():
        return [len(algebra._APPEND_CACHE), minors._minor_columns_cached.cache_info().currsize,
                ore._minor_power.cache_info().currsize, len(ore._GEN_WITNESS_CACHE)]

    clear_caches()
    witness_generator_constructive(3, MinorId((1, 2), (1, 3)), 1, 2, LEFT)
    assert all(sizes())
    # products walk the right factor's prefix trie; no word-pair table fills
    assert not algebra._WORD_MUL_CACHE
    a = gen(3, 2, 1) + gen(3, 1, 2) * gen(3, 3, 3)
    b = gen(3, 1, 1) * gen(3, 2, 2) + gen(3, 1, 1) * gen(3, 3, 1) - gen(3, 2, 1)
    assert len(a.terms()) > 1 and len(b.terms()) > 1 and not (a * b).is_zero()
    assert not algebra._WORD_MUL_CACHE
    clear_caches()
    assert sizes() == [0, 0, 0, 0]


class TestWitnessForElement:
    def test_unit(self):
        w = witness_for_element(2, M22, Element.unit(2), LEFT)
        assert w.power == 1
        assert w.cofactor == Element.unit(2)

    def test_single_generator_delegates(self):
        w = witness_for_element(2, M22, gen(2, 1, 1), LEFT)
        ws = witness_generator_constructive(2, M22, 1, 1, LEFT)
        assert w.power == ws.power

    def test_both_strategies_cross_validate(self):
        e = parse_element("t[1,3] t[3,1] + q * t[2,2]", 3)
        minor = MinorId((2, 3), (2, 3))
        w = witness_for_element(3, minor, e, LEFT, "both")
        assert w.certified
        assert w.derivation["rule"] == "cross-validated"

    def test_graded_splitting_matches_componentwise_sums(self):
        n = 2
        e = gen(n, 1, 1) + (gen(n, 1, 2) * gen(n, 2, 1)).scale(Q)
        ws = solve_witness(n, M22, e, LEFT)
        comps = list(e.homogeneous_components().values())
        parts = [solve_witness(n, M22, c, LEFT) for c in comps]
        agg = parts[0]
        for p in parts[1:]:
            agg = compose_sum(agg, p)
        assert ws.certified and agg.certified
        assert ws.element == agg.element

    def test_multidegree_forcing(self):
        w = solve_witness(2, M22, gen(2, 1, 1), LEFT)
        D = minor_element(2, M22)
        lhs_deg = (D**w.power * w.element).multidegree()
        assert w.cofactor.multidegree() == lhs_deg.minus(D.multidegree())

    @pytest.mark.parametrize("side", SIDES)
    def test_randomized_compositions_replay(self, side):
        rng = random.Random(71)
        n = 2
        minor = M22
        gens = [(1, 1), (1, 2), (2, 1), (2, 2)]
        pool = [witness_generator_constructive(n, minor, i, j, side) for i, j in gens]
        for _ in range(30):
            op = rng.choice(("product", "sum", "scale", "power"))
            w1 = rng.choice(pool)
            if op == "product":
                w = compose_product(w1, rng.choice(pool))
            elif op == "sum":
                w2 = rng.choice(pool)
                if (w1.element + w2.element).is_zero():
                    continue
                w = compose_sum(w1, w2)
            elif op == "scale":
                w = scale_witness(w1, LaurentQ({rng.randint(-1, 1): rng.choice((1, 2, -1))}))
            else:
                w = extend_to_power(w1, rng.randint(1, 2))
            assert w.certified
            assert w.residual().is_zero()


class TestTransposeDuality:
    def test_transposed_witness_stays_left_form(self):
        # a certified left witness for (D^K_L, e) transposes to a certified
        # left witness for (D^L_K, transpose(e)) with the same power
        n = 3
        minor = MinorId((1, 2), (1, 3))
        w = witness_generator_constructive(n, minor, 1, 2, LEFT)
        Dt = quantum_minor(n, (1, 3), (1, 2))
        lhs = Dt**w.power * w.element.transpose()
        rhs = w.cofactor.transpose() * Dt
        assert (lhs.scale(w.scale) - rhs).is_zero()


class TestChains:
    def test_single_minor_chain_reduces(self):
        ch = multi_minor_witness(2, [M22], gen(2, 1, 1), LEFT)
        assert ch.powers == [2]
        assert ch.certified

    def test_principal_minors_chain(self):
        n = 3
        minors = [MinorId((3,), (3,)), MinorId((2, 3), (2, 3))]
        ch = multi_minor_witness(n, minors, gen(n, 1, 1), LEFT)
        assert ch.certified
        # replay by hand
        Ds = [minor_element(n, m) for m in minors]
        lhs = Ds[0] ** ch.powers[0] * Ds[1] ** ch.powers[1] * ch.element
        rhs = ch.cofactor * (Ds[0] * Ds[1])
        assert (lhs.scale(ch.scale) - rhs).is_zero()

    def test_mixed_chain(self):
        ch = multi_minor_witness(2, [MFULL2, M22], gen(2, 1, 2), LEFT)
        assert ch.certified

    def test_right_chain(self):
        ch = multi_minor_witness(2, [MFULL2, M22], gen(2, 1, 2), RIGHT)
        assert ch.certified

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            multi_minor_witness(2, [], gen(2, 1, 1))

    @pytest.mark.parametrize("side", SIDES)
    def test_chain_keeps_only_its_links(self, side):
        ch = multi_minor_witness(3, CHAIN_MINORS, gen(3, 1, 1), side, "solver")
        assert [f.name for f in dataclasses.fields(ChainWitness)] == [
            "n", "minors", "element", "side", "links", "certified"]
        # the links clear in order: the last minor first in the left form
        cleared = ch.links if side == RIGHT else ch.links[::-1]
        assert [w.minor for w in cleared] == CHAIN_MINORS
        assert ch.powers == [w.power for w in cleared]
        assert ch.scale == ch.links[0].scale * ch.links[1].scale
        assert ch.cofactor == ch.links[-1].cofactor
        assert ch.links[0].element == ch.element and ch.links[1].element == ch.links[0].cofactor

    def test_power_bound_applies_to_every_link(self):
        with pytest.raises(UnsatWithinBound):
            multi_minor_witness(3, CHAIN_MINORS, gen(3, 1, 1), LEFT, "solver", m_max=1)
        assert multi_minor_witness(3, CHAIN_MINORS, gen(3, 1, 1), LEFT, "solver", m_max=2).powers == [2, 2]


class TestWitnessFiles:
    def test_round_trip_and_verify(self, tmp_path):
        w = solve_witness(2, M22, gen(2, 1, 1), LEFT)
        path = tmp_path / "witness.json"
        witness_to_file(w, str(path))
        again = verify_witness_file(str(path))
        assert again.certified
        assert again.power == w.power
        assert again.cofactor == w.cofactor

    def test_tampered_file_rejected(self, tmp_path):
        w = solve_witness(2, M22, gen(2, 1, 1), LEFT)
        path = tmp_path / "witness.json"
        witness_to_file(w, str(path))
        data = json.loads(path.read_text())
        data["cofactor"] = "(1) * t[1,1]"
        path.write_text(json.dumps(data))
        with pytest.raises(CertificateError):
            verify_witness_file(str(path))

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError):
            witness_from_json({"schema": "nope"})

    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("strategy", ["solver", "constructive"])
    def test_chain_round_trip_and_verify(self, tmp_path, side, strategy):
        ch = multi_minor_witness(3, CHAIN_MINORS, gen(3, 1, 1), side, strategy)
        path = tmp_path / "chain.json"
        witness_to_file(ch, str(path))
        data = json.loads(path.read_text())
        assert witness_from_json(data) == dataclasses.replace(
            ch, certified=False, links=[dataclasses.replace(w, certified=False) for w in ch.links])
        assert verify_witness_file(str(path)) == ch
        assert type(witness_from_json(data["links"][0])) is OreWitness

    def test_chain_links_are_single_witnesses(self):
        data = multi_minor_witness(3, CHAIN_MINORS, gen(3, 1, 1), LEFT).to_json()
        data["links"][0] = copy.deepcopy(data)
        with pytest.raises(ValueError, match="each a single witness"):
            witness_from_json(data)


class TestDenominatorReporting:
    def test_scale_factors_are_irreducible(self):
        from qmb.ore import _factor_scale

        scale = (Q - ONE) * (Q + ONE) * LaurentQ({0: 2})
        factors = _factor_scale(scale)
        rendered = sorted(f.render() for f in factors)
        assert rendered == ["-1 + q", "1 + q"]

    def test_trivial_scale_reports_nothing(self):
        from qmb.ore import _factor_scale

        assert _factor_scale(ONE) == []

    def test_excluded_points_evaluate_to_zero(self):
        from qmb.ore import _factor_scale
        from fractions import Fraction

        scale = LaurentQ({2: 1, 0: -1})  # q^2 - 1
        factors = _factor_scale(scale)
        roots = {Fraction(1), Fraction(-1)}
        for f in factors:
            assert any(f.specialize(r) == 0 for r in roots)

    def test_composed_witness_lists_each_factor_once(self, tmp_path):
        w = solve_witness(2, M22, gen(2, 1, 1), LEFT)
        scaled = dataclasses.replace(w, scale=Q + ONE, cofactor=w.cofactor.scale(Q + ONE))
        product = compose_product(scaled, scaled)
        assert product.scale == (Q + ONE) * (Q + ONE)
        assert product.to_json()["denominator_zeros"] == ["1 + q"]
        path = tmp_path / "w.json"
        witness_to_file(product, str(path))
        assert verify_witness_file(str(path)).denominator_zeros == [Q + ONE]
