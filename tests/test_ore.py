"""Witness solver, constructive engine, composition calculus, chains, files."""

import copy
import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from qmb import algebra, clear_caches, identities, minors, ore
from qmb.algebra import ANTITRANSPOSE, TRANSPOSE, Element, MultiDegree, basis_monomials
from qmb.cli import EXIT_CHECK_FAILED, EXIT_PRECONDITION, main
from qmb.exprparse import parse_element
from qmb.identities import generator_position
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

from test_linalg import assert_agrees_with_oracle
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
# against t[2,2], constructive: links within the cap, the chain's equation above it
OVER_CAP_MINORS = [MinorId((1, 2), (1, 3)), MinorId((1, 3), (1, 2))]


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


@pytest.mark.parametrize("m, record", [
    (1, {"rank": 1, "unknowns": 1, "equations": 72}),
    (2, {"rank": 120, "unknowns": 120, "equations": 2202}),
])
def test_n5_infeasible_power_records_are_pinned(m, record):
    """The first two systems of D[{1,2,4,5},{1,2,4,5}] against t[3,3] (left
    form) at n = 5, whose witness has power 3: both are inconsistent."""
    solved, found = ore._solve_at_power(5, MinorId((1, 2, 4, 5), (1, 2, 4, 5)), gen(5, 3, 3), LEFT, m)
    assert solved is None
    assert found == {"power": m, "reason": "inconsistent linear system", **record}


PROPER_N3 = [MinorId(K, L) for m in (1, 2) for K in combinations((1, 2, 3), m) for L in combinations((1, 2, 3), m)]


def law_power(minor, k, l):
    """The minimal-power law (README, a conjecture): 1, plus 1 for a row label
    in a gap of K, 1 for a column label in a gap of L, and 1 when both labels
    are outside and on the same side (both below or both above)."""
    K, L = minor.rows, minor.cols
    k_out, l_out = k not in K, l not in L
    return (1 + (k_out and K[0] < k < K[-1]) + (l_out and L[0] < l < L[-1])
            + (k_out and l_out and ((k < K[0] and l < L[0]) or (k > K[-1] and l > L[-1]))))


def proper_items(n):
    """Every proper minor x every generator x both forms at size ``n``."""
    labels = range(1, n + 1)
    return [(MinorId(K, L), k, l, side) for side in SIDES for m in range(1, n)
            for K in combinations(labels, m) for L in combinations(labels, m) for k in labels for l in labels]


@pytest.mark.parametrize("n, items", [(3, 324), (4, 2176)])
def test_solver_powers_follow_the_minimal_power_law(n, items):
    """Every proper minor x every generator x both forms: the solver's
    minimal power equals the law, which reaches 1, 2 and 3."""
    seen = {}
    for minor, k, l, side in proper_items(n):
        law = law_power(minor, k, l)
        assert solve_witness(n, minor, gen(n, k, l), side).power == law, (minor, k, l, side)
        seen[law] = seen.get(law, 0) + 1
    assert sum(seen.values()) == items and sorted(seen) == [1, 2, 3]


def test_solver_systems_have_full_column_rank_and_laurent_solutions(monkeypatch):
    """README lemma 2: every system is unit-triangular on its leading rows, so
    its rank is its column count, feasible or not, its solution is Laurent and
    every solver witness has scale 1.  Every n = 3 generator question, both
    forms, and a seeded sample of two-term elements with rational and Laurent
    coefficients.  A plain rational Gauss elimination at q = 5/7 checks the
    rank, the consistency and the solution of every system independently.
    From cold caches, each system is solved once per orbit under the
    antitranspose and the transpose (:func:`ore._solve_at_power`)."""
    clear_caches()
    systems = []
    real = ore.solve_linear

    def recording(columns, target):
        sol = real(columns, target)
        systems.append((columns, target, sol))
        return sol

    monkeypatch.setattr(ore, "solve_linear", recording)
    n, rng = 3, random.Random(83)
    elements = [gen(n, k, l) for k in (1, 2, 3) for l in (1, 2, 3)]
    while len(elements) < 9 + 24:
        d = MultiDegree.of_word(n, [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(2, 3))])
        words = basis_monomials(n, d.rows, d.cols)
        if len(words) > 1:
            coeffs = (LaurentQ({rng.randint(-2, 2): Fraction(rng.randint(1, 5), rng.randint(1, 4))}),
                      LaurentQ({rng.randint(-2, 0): rng.randint(-3, -1), rng.randint(1, 2): rng.randint(1, 3)}))
            elements.append(Element(n, list(zip(rng.sample(words, 2), coeffs))))
    for side in SIDES:
        for minor in PROPER_N3:
            for e in elements:
                assert solve_witness(n, minor, e, side).scale == ONE
    assert (len(systems), sum(not sol.consistent for _, _, sol in systems)) == (1292, 476)
    for columns, target, sol in systems:
        assert sol.rank == len(columns)
        assert sol.solution is None or all(type(x) is LaurentQ for x in sol.solution)
        assert_agrees_with_oracle(columns, target, sol)


def solve_directly(n, minor, element, side, m):
    """``_solve_at_power`` with neither the transpose nor the memo: the
    right-form system of the question itself, by the memo's uncached core."""
    if side == LEFT:
        minor, element = minor.image(ANTITRANSPOSE, n), element.antitranspose()
    cofactor, record = ore._solve_right.__wrapped__(n, minor, element, m)
    return cofactor if cofactor is None or side == RIGHT else cofactor.antitranspose(), record


@pytest.mark.parametrize("n, sample", [(3, None), (4, 200)])
def test_memoised_solves_equal_the_direct_solves(n, sample, monkeypatch):
    """Every n = 3 item (324) and a seeded sample of 200 n = 4 items: the
    witness solved through the transpose and the memo is the one solved
    from the question's own system."""
    items = proper_items(n)
    if sample is not None:
        items = random.Random(24).sample(items, sample)
    assert len(items) == (324 if n == 3 else 200)
    questions = [(n, minor, gen(n, k, l), side) for minor, k, l, side in items]
    clear_caches()
    memoised = [solve_witness(*q).to_json() for q in questions]
    if n == 3:  # the four questions of an orbit share their systems
        info = ore._solve_right.cache_info()
        assert info.hits > 2 * info.misses
    clear_caches()
    monkeypatch.setattr(ore, "_solve_at_power", solve_directly)
    assert [solve_witness(*q).to_json() for q in questions] == memoised
    assert ore._solve_right.cache_info().currsize == 0


def test_the_memo_hands_each_caller_its_own_records(tmp_path, capsys):
    """A caller that changes a record it was given changes neither a later
    solve of the question or of its images, nor the re-derivation that
    ``verify-witness`` makes of a file stating the changed record."""
    n, minor, t = 3, MinorId((1, 3), (1, 3)), gen(3, 2, 2)  # power 3: two records
    clear_caches()
    w = solve_witness(n, minor, t, LEFT)
    true = copy.deepcopy(w.infeasible)
    w.infeasible[0]["rank"] += 1
    image = minor.image(ANTITRANSPOSE, n)  # the right question with the same system
    for again in (solve_witness(n, minor, t, LEFT), solve_witness(n, image, t.antitranspose(), RIGHT)):
        assert again.infeasible == true
    path = tmp_path / "w.json"
    witness_to_file(w, str(path))
    assert main(["verify-witness", str(path)]) == EXIT_PRECONDITION
    assert "infeasible_powers" in capsys.readouterr().err


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


def mirrored(x, C):
    """``x * C`` walked with ``C`` on the left: ``τ(τC * τx)`` (README lemma 1)."""
    return (C.antitranspose() * x.antitranspose()).antitranspose()


def interior(minor, k, l):
    """``k`` and ``l`` outside the minor's labels, strictly inside their ranges."""
    K, L = minor.rows, minor.cols
    return k not in K and l not in L and K[0] < k < K[-1] and L[0] < l < L[-1]


class TestMinorOnTheLeft:
    """The replay walks each clearance product with the minor on the left: the
    right form's scaled side ``e * P`` as ``flip(flip(P) * flip(e))``, the left
    form's cleared side ``cofactor * C`` as ``flip(flip(C) * flip(cofactor))``,
    and a power ``D^k`` as ``D * D^(k-1)``."""

    def test_every_n3_flip_walked_side_equals_the_direct_product(self):
        """All 648 n = 3 generator witnesses, both routes and both forms: the
        side walked through the flip equals the product walked directly."""
        n, count = 3, 0
        for side in SIDES:
            for minor in PROPER_N3:
                D = minor_element(n, minor)
                for k in (1, 2, 3):
                    for l in (1, 2, 3):
                        for w in (solve_witness(n, minor, gen(n, k, l), side),
                                  witness_generator_constructive(n, minor, k, l, side)):
                            if side == RIGHT:
                                got, want = ore._minor_first(n, [(minor, w.power)], w.element, False), w.element * D ** w.power
                            else:
                                got, want = ore._minor_first(n, [(minor, 1)], w.cofactor, False), w.cofactor * D
                            assert got == want, (minor, k, l, side)
                            count += 1
        assert count == 648

    @pytest.mark.parametrize("route", ["solver", "constructive"])
    def test_a_changed_right_form_cofactor_term_fails_the_replay(self, route, tmp_path, capsys):
        """One coefficient of a right-form cofactor times q: the residual is
        the directly walked difference of the two sides, it is nonzero, and
        the witness and its file both fail."""
        minor = MinorId((1, 3), (1, 3))
        w = witness_for_element(3, minor, gen(3, 2, 2), RIGHT, route)
        assert len(w.cofactor.terms()) > 1 and w.power > 1
        word, coeff = w.cofactor.terms()[1]
        bad = dataclasses.replace(w, certified=False, cofactor=w.cofactor + Element(3, [(word, coeff * Q - coeff)]))
        D = minor_element(3, minor)
        direct = (w.element * D ** w.power).scale(w.scale) - D * bad.cofactor
        assert bad.residual() == direct and not direct.is_zero()
        with pytest.raises(CertificateError):
            bad.certify()
        path = tmp_path / "witness.json"
        witness_to_file(bad, str(path))
        assert main(["verify-witness", str(path)]) == EXIT_CHECK_FAILED
        assert capsys.readouterr().err.startswith("qmb: ")

    @pytest.mark.parametrize("side", SIDES)
    def test_a_two_minor_chain_replays_in_both_forms(self, side):
        """``D[{1,3},{1,3}]`` and ``t[2,3]`` do not commute, so ``flip(P)`` and
        ``flip(C)`` hold the flipped minors' powers in reverse order.  The
        chain replays to zero, its flip-walked side equals the direct product,
        and a changed cofactor leaves the direct difference."""
        n, minors = 3, [MinorId((1, 3), (1, 3)), MinorId((2,), (3,))]
        D1, D2 = (minor_element(n, m) for m in minors)
        assert D1 * D2 != D2 * D1
        chain = multi_minor_witness(n, minors, gen(n, 2, 2), side, "solver")
        assert chain.certified and chain.residual().is_zero() and max(chain.powers) == 3
        a1, a2 = chain.powers
        P, C, X = D1 ** a1 * D2 ** a2, D1 * D2, chain.cofactor
        if side == LEFT:
            got, want = ore._minor_first(n, [(m, 1) for m in minors], X, False), X * C
            assert (P * chain.element).scale(chain.scale) == want
        else:
            got, want = ore._minor_first(n, list(zip(minors, chain.powers)), chain.element, False), chain.element * P
            assert want.scale(chain.scale) == C * X
        assert got == want
        last = chain.links[-1]
        word, coeff = last.cofactor.terms()[0]
        bad = dataclasses.replace(chain, links=chain.links[:-1] + [dataclasses.replace(
            last, certified=False, cofactor=last.cofactor + Element(n, [(word, coeff * Q - coeff)]))])
        if side == LEFT:
            direct = (P * chain.element).scale(chain.scale) - bad.cofactor * C
        else:
            direct = (chain.element * P).scale(chain.scale) - C * bad.cofactor
        assert bad.residual() == direct and not direct.is_zero()

    def test_every_n3_witness_mirrors_exactly(self):
        """All 648 n = 3 generator witnesses, both routes and both forms."""
        n, count = 3, 0
        for side in SIDES:
            for minor in PROPER_N3:
                C = minor_element(n, minor)
                for k in (1, 2, 3):
                    for l in (1, 2, 3):
                        for w in (solve_witness(n, minor, gen(n, k, l), side),
                                  witness_generator_constructive(n, minor, k, l, side)):
                            assert mirrored(w.cofactor, C) == w.cofactor * C, (minor, k, l, side)
                            count += 1
        assert count == 648

    def test_a_sample_of_n4_left_witnesses_mirrors_exactly(self):
        """A seeded sample of 200 left-form n = 4 items, on both routes; the
        interior items, which take seconds each from cold caches, are left out."""
        items = [(minor, k, l) for minor, k, l, side in proper_items(4) if side == LEFT and not interior(minor, k, l)]
        for minor, k, l in random.Random(27).sample(items, 200):
            C = minor_element(4, minor)
            for w in (solve_witness(4, minor, gen(4, k, l), LEFT),
                      witness_generator_constructive(4, minor, k, l, LEFT)):
                assert mirrored(w.cofactor, C) == w.cofactor * C, (minor, k, l)

    @pytest.mark.parametrize("n", [3, 4])
    def test_minor_powers_equal_the_element_powers(self, n):
        clear_caches()
        labels = range(1, n + 1)
        for m in labels:
            for K in combinations(labels, m):
                for L in combinations(labels, m):
                    minor = MinorId(K, L)
                    for k in range(4):
                        assert ore._minor_power(n, minor, k) == minor_element(n, minor) ** k, (minor, k)

    @pytest.mark.parametrize("route", ["solver", "constructive"])
    def test_a_changed_cofactor_term_fails_the_replay(self, route, tmp_path, capsys):
        """One coefficient of a left-form cofactor times q: the residual is the
        directly walked difference of the two sides, it is nonzero, and the
        witness and its file both fail."""
        minor = MinorId((1, 3), (1, 3))
        w = witness_for_element(3, minor, gen(3, 2, 2), LEFT, route)
        assert len(w.cofactor.terms()) > 1
        word, coeff = w.cofactor.terms()[1]
        bad = dataclasses.replace(w, certified=False, cofactor=w.cofactor + Element(3, [(word, coeff * Q - coeff)]))
        D = minor_element(3, minor)
        direct = (D ** w.power * w.element).scale(w.scale) - bad.cofactor * D
        assert bad.residual() == direct and not direct.is_zero()
        with pytest.raises(CertificateError):
            bad.certify()
        path = tmp_path / "witness.json"
        witness_to_file(bad, str(path))
        assert main(["verify-witness", str(path)]) == EXIT_CHECK_FAILED
        assert capsys.readouterr().err.startswith("qmb: ")


def test_clear_caches_empties_every_cache():
    def sizes():
        return [len(algebra._APPEND_CACHE), minors._minor_columns_cached.cache_info().currsize,
                ore._minor_power.cache_info().currsize, ore._solve_right.cache_info().currsize,
                len(ore._GEN_WITNESS_CACHE)]

    clear_caches()
    witness_generator_constructive(3, MinorId((1, 2), (1, 3)), 1, 2, LEFT)
    solve_witness(3, MinorId((1, 2), (1, 3)), gen(3, 1, 2), LEFT)
    assert all(sizes())
    # products walk the right factor's prefix trie; no word-pair table fills
    assert not algebra._WORD_MUL_CACHE
    a = gen(3, 2, 1) + gen(3, 1, 2) * gen(3, 3, 3)
    b = gen(3, 1, 1) * gen(3, 2, 2) + gen(3, 1, 1) * gen(3, 3, 1) - gen(3, 2, 1)
    assert len(a.terms()) > 1 and len(b.terms()) > 1 and not (a * b).is_zero()
    assert not algebra._WORD_MUL_CACHE
    clear_caches()
    assert sizes() == [0, 0, 0, 0, 0]


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


def claim(w):
    """Every field of ``w`` but its derivation and its certified flag."""
    return w.n, w.minor, w.element, w.side, w.power, w.target_power, w.cofactor, w.scale, w.infeasible


class TestWitnessImage:
    """``ore._witness_image``: tau and T map a witness to a witness of the
    image question (README lemma 1), with the side swapped under tau."""

    def test_every_n3_solver_witness(self):
        """All 324 n = 3 solver witnesses: each image certifies and is the
        solver's witness for the image question, infeasibility records too."""
        n, count = 3, 0
        for minor, k, l, side in proper_items(n):
            w = solve_witness(n, minor, gen(n, k, l), side)
            for g in (ANTITRANSPOSE, TRANSPOSE):
                image = ore._witness_image(g, w, "image", {}).certify()
                assert image.side == (SIDES[1 - SIDES.index(side)] if g is ANTITRANSPOSE else side)
                assert claim(image) == claim(solve_witness(n, image.minor, image.element, image.side))
                assert claim(ore._witness_image(g, image, "image", {})) == claim(w)
                assert image.derivation == {"rule": "image", "children": [w.derivation]}
                count += 1
        assert count == 648

    def test_a_sample_of_n3_constructive_witnesses_on_both_mirror_branches(self):
        """A seeded sample of n = 3 constructive witnesses: right-form ones,
        which the route forms as tau of a left witness (``mirror``), and
        left-form row gaps, formed as T of a column gap (``transposed-gap``).
        Both images of each certify; the image under the branch's own map is
        the constructive witness it was formed from."""
        n, rng = 3, random.Random(35)
        items = proper_items(n)
        mirror = [it for it in items if it[3] == RIGHT]
        row_gaps = [(minor, k, l, side) for minor, k, l, side in items
                    if side == LEFT and generator_position(minor.rows, minor.cols, k, l) == "row-gap"]
        branches = {"mirror": ANTITRANSPOSE, "transposed-gap": TRANSPOSE}
        seen = set()
        for minor, k, l, side in rng.sample(mirror, 40) + rng.sample(row_gaps, 4):
            w = witness_generator_constructive(n, minor, k, l, side)
            seen.add(w.derivation["rule"])
            for g in (ANTITRANSPOSE, TRANSPOSE):
                image = ore._witness_image(g, w, "image", {}).certify()
                if g is branches[w.derivation["rule"]]:
                    source = witness_generator_constructive(n, image.minor, *g.letter((k, l), n), image.side)
                    assert claim(image) == claim(source)
                    assert w.derivation["children"] == [source.derivation]
        assert seen == set(branches)


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


@pytest.fixture
def no_reducer(monkeypatch):
    """Cold caches, and every call of the agenda reducer fails: no library
    path may reach it."""

    def refuse(*args, **kwargs):
        raise AssertionError("the agenda reducer was called")

    clear_caches()
    monkeypatch.setattr(algebra, "reduce_terms", refuse)


class TestReducedInput:
    def test_witnesses_need_no_reducer_once_the_minors_are_expanded(self, no_reducer):
        """Minors are expanded in normal form, and products and the
        antitranspose keep words sorted: with the reducer refused from the
        start, both witnesses certify."""
        n = 3
        gap, outside = MinorId((1, 3), (1, 3)), MinorId((1, 2), (1, 2))
        left = solve_witness(n, gap, gen(n, 2, 2), LEFT)  # t[2,2] sits in a gap of both sets
        right = witness_generator_constructive(n, outside, 3, 3, RIGHT)  # t[3,3] is outside both sets
        for w, minor, side in ((left, gap, LEFT), (right, outside, RIGHT)):
            assert w.certified and (w.minor, w.side) == (minor, side)
            assert w.residual().is_zero()

    def test_no_library_path_calls_the_reducer(self, no_reducer):
        """The identity sweep, a witness for each route and side, and term
        lists with unsorted words all run on the product kernel alone."""
        n = 3
        assert identities.run_suite(n_max=3, size_cap=2).all_verified()
        minor = MinorId((1, 3), (1, 2))
        for strategy in ("solver", "constructive"):
            for side in SIDES:
                w = witness_for_element(n, minor, gen(n, 2, 2), side, strategy)
                assert w.certified and w.residual().is_zero()
        w = ((3, 3), (2, 1), (1, 1))
        expected = gen(n, 3, 3) * gen(n, 2, 1) * gen(n, 1, 1)
        assert Element(n, [(w, 1)]) == algebra.normal_form(n, [(1, w)]) == expected


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

    def test_power_bound_applies_to_the_constructive_route(self):
        # the constructive witness has power 5; the minimal power is 3
        minor, t22 = MinorId((1, 3), (1, 3)), gen(3, 2, 2)
        assert witness_for_element(3, minor, t22, LEFT, "constructive").power == 5
        with pytest.raises(UnsatWithinBound):
            witness_for_element(3, minor, t22, LEFT, "constructive", m_max=4)
        assert witness_for_element(3, minor, t22, LEFT, "constructive", m_max=5).power == 5
        assert witness_for_element(3, minor, t22, LEFT, "both", m_max=3).power == 3
        chain = [minor, MinorId((2,), (2,))]
        with pytest.raises(UnsatWithinBound):
            multi_minor_witness(3, chain, t22, LEFT, "constructive", m_max=4)
        assert multi_minor_witness(3, chain, t22, LEFT, "constructive", m_max=5).powers == [5, 1]

    @pytest.mark.parametrize("side, powers", [(LEFT, [6, 2]), (RIGHT, [2, 6])])
    def test_a_chain_over_the_cap_only_as_a_whole_certifies(self, monkeypatch, side, powers):
        """Every link is within the cap; the chain's own equation has degree 17."""
        chain = multi_minor_witness(3, OVER_CAP_MINORS, gen(3, 2, 2), side, "constructive")
        assert chain.certified and chain.powers == powers
        with pytest.raises(algebra.DegreeCapError, match="normal-form degree 17 "):
            chain.residual()
        monkeypatch.setenv(algebra.DEGREE_CAP_ENV, "24")
        assert chain.residual().is_zero()

    def test_certify_takes_replayed_links_in_clearing_order(self):
        chain = multi_minor_witness(3, CHAIN_MINORS, gen(3, 1, 1), LEFT, "solver")
        unreplayed = witness_from_json(chain.links[0].to_json())
        assert chain.links[0].to_json()["certified"] is True and not unreplayed.certified
        for links in ([unreplayed, chain.links[1]], witness_from_json(chain.to_json()).links):
            with pytest.raises(CertificateError, match="only through certified links"):
                dataclasses.replace(chain, certified=False, links=links).certify()
        with pytest.raises(ValueError, match="link 0 must clear the chain's element against D"):
            dataclasses.replace(chain, certified=False, links=chain.links[::-1]).certify()
        assert dataclasses.replace(chain, certified=False).certify() == chain


def replays_to_zero(chain, monkeypatch):
    """The chain's own equation replays to zero, the cap raised only as far as its degree."""
    degree = sum(k * m.size() for m, k in zip(chain.minors, chain.powers)) + chain.element.degree()
    with monkeypatch.context() as patch:
        patch.setenv(algebra.DEGREE_CAP_ENV, str(max(degree, algebra.degree_cap())))
        return chain.residual().is_zero()


def fails_in_a_link(n, minors, element, side):
    """Whether clearing ``element`` link by link meets the degree cap inside a link."""
    for minor in (minors[::-1] if side == LEFT else minors):
        try:
            element = witness_for_element(n, minor, element, side, "constructive").cofactor
        except algebra.DegreeCapError:
            return True
    return False


class TestChainSweep:
    """The paper's claim for sets of several minors, on a seeded sample of the
    5,832 n = 3 chains: every ordered pair of proper minors, every generator,
    both forms."""

    CASES = [(pair, (k, l), side) for pair in [(a, b) for a in PROPER_N3 for b in PROPER_N3]
             for k in (1, 2, 3) for l in (1, 2, 3) for side in SIDES]

    def test_sample_certifies_on_both_routes(self, tmp_path, monkeypatch):
        assert len(self.CASES) == 5832
        path = tmp_path / "chain.json"
        for minors, (k, l), side in random.Random(89).sample(self.CASES, 150):
            t = gen(3, k, l)
            solved = multi_minor_witness(3, minors, t, side, "solver")
            assert solved.certified and all(w.scale == ONE for w in solved.links)
            assert replays_to_zero(solved, monkeypatch)
            witness_to_file(solved, str(path))
            assert verify_witness_file(str(path)) == solved
            try:
                built = multi_minor_witness(3, minors, t, side, "constructive")
            except algebra.DegreeCapError:
                assert fails_in_a_link(3, minors, t, side)
                continue
            assert built.certified and built.links[0].power >= solved.links[0].power
            assert replays_to_zero(built, monkeypatch)

    def test_roadmap_example(self):
        """The constructive first link has power 5 and a cofactor of degree 9;
        clearing it against D[{1,2},{1,2}] needs degree 17, over the cap."""
        minors, t22 = [MinorId((1, 2), (1, 2)), MinorId((1, 3), (1, 3))], gen(3, 2, 2)
        assert multi_minor_witness(3, minors, t22, LEFT, "solver").powers == [3, 3]
        with pytest.raises(algebra.DegreeCapError, match="normal-form degree 17 "):
            multi_minor_witness(3, minors, t22, LEFT, "constructive")


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
        """A scale is zero or a monomial c*q^k, a unit with no irreducible
        factor to report; a scale with a non-unit factor is refused."""
        from qmb.exprparse import parse_laurent
        from qmb.ore import _factor_scale

        for text in ("0", "1", "2*q^3", "-1/2*q^-1"):
            assert _factor_scale(parse_laurent(text)) == []
        with pytest.raises(ValueError, match="monomial"):
            _factor_scale((Q - ONE) * (Q + ONE) * LaurentQ({0: 2}))

    def test_excluded_points_evaluate_to_zero(self):
        """A monomial scale is nonzero at every admissible q, so it excludes
        no point; q^2 - 1, which would exclude q = 1 and q = -1, is refused."""
        from qmb.ore import _factor_scale
        from fractions import Fraction

        for scale in (LaurentQ({0: 1}), LaurentQ({3: 2}), LaurentQ({-1: Fraction(-1, 2)})):
            assert _factor_scale(scale) == []
            for q0 in (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3)):
                assert scale.specialize(q0) != 0
        with pytest.raises(ValueError, match="monomial"):
            _factor_scale(LaurentQ({2: 1, 0: -1}))

    def test_trivial_scale_reports_nothing(self):
        from qmb.ore import _factor_scale

        assert _factor_scale(ONE) == []

    def test_composed_witness_lists_each_factor_once(self, tmp_path):
        w = solve_witness(2, M22, gen(2, 1, 1), LEFT)
        two_q = LaurentQ({1: 2})
        scaled = dataclasses.replace(w, scale=two_q, cofactor=w.cofactor.scale(two_q))
        product = compose_product(scaled, scaled)
        assert product.scale == LaurentQ({2: 4})
        assert product.to_json()["denominator_zeros"] == []
        path = tmp_path / "w.json"
        witness_to_file(product, str(path))
        assert verify_witness_file(str(path)).denominator_zeros == []
        with pytest.raises(ValueError, match="monomial"):
            dataclasses.replace(w, scale=Q + ONE, cofactor=w.cofactor.scale(Q + ONE)).to_json()
