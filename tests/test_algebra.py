"""Normal form, grading, and structural maps of the algebra."""

import random
from fractions import Fraction
from itertools import product

import pytest

from qmb.algebra import (
    ContextMismatchError,
    DegreeCapError,
    Element,
    MultiDegree,
    _word_mul,
    basis_monomials,
    commutative_product,
    commutator,
    normal_form,
    reduce_terms,
)
from qmb.minors import quantum_minor
from qmb.scalars import ONE, Q, QINV, Q_MINUS_QINV, LaurentQ


def t(n, i, j):
    return Element.generator(n, i, j)


def rand_word(rng, n, max_len):
    return tuple((rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, max_len)))


def rand_element(rng, n, max_len=3, n_terms=3):
    terms = []
    for _ in range(n_terms):
        coeff = LaurentQ({rng.randint(-2, 2): rng.randint(-3, 3)})
        terms.append((coeff, rand_word(rng, n, max_len)))
    return normal_form(n, terms)


class TestRelations:
    """The six defining relation families, straight from the presentation."""

    def test_same_row(self):
        assert t(2, 1, 2) * t(2, 1, 1) == QINV * (t(2, 1, 1) * t(2, 1, 2))
        assert t(2, 1, 1) * t(2, 1, 2) == Q * (t(2, 1, 2) * t(2, 1, 1))

    def test_same_column(self):
        assert t(2, 2, 1) * t(2, 1, 1) == QINV * (t(2, 1, 1) * t(2, 2, 1))

    def test_cross_commuting(self):
        assert t(2, 2, 1) * t(2, 1, 2) == t(2, 1, 2) * t(2, 2, 1)

    def test_cross_correction(self):
        got = t(2, 2, 2) * t(2, 1, 1)
        expected = t(2, 1, 1) * t(2, 2, 2) - Q_MINUS_QINV * (t(2, 1, 2) * t(2, 2, 1))
        assert got == expected

    def test_commutator_examples(self):
        assert commutator(t(2, 1, 1), t(2, 1, 1)).is_zero()
        assert commutator(t(2, 1, 1), t(2, 2, 2)) == Q_MINUS_QINV * (t(2, 1, 2) * t(2, 2, 1))
        assert commutator(t(2, 1, 2), t(2, 2, 1)).is_zero()


class TestNormalForm:
    def test_sorted_word_is_fixed_point(self):
        w = ((1, 1), (1, 1))
        e = normal_form(2, [(1, w)])
        assert e.terms() == [(w, ONE)]

    def test_termination_and_sortedness(self):
        e = normal_form(2, [(1, ((2, 2), (1, 1), (1, 1)))])
        for word, _ in e.terms():
            assert all(word[i] <= word[i + 1] for i in range(len(word) - 1))

    def test_idempotent_and_linear(self):
        rng = random.Random(11)
        for _ in range(25):
            x = rand_element(rng, 3)
            y = rand_element(rng, 3)
            again = normal_form(3, [(c, w) for w, c in x.terms()])
            assert again == x
            assert (x + y) - y == x

    def test_confluence_strategies_agree(self):
        rng = random.Random(23)
        for _ in range(200):
            word = rand_word(rng, 3, 5)
            left = reduce_terms([(ONE, word)], strategy="leftmost")
            right = reduce_terms([(ONE, word)], strategy="rightmost")
            assert left == right

    def test_agenda_matches_cached_multiplication(self):
        rng = random.Random(31)
        for _ in range(50):
            u = tuple(sorted(rand_word(rng, 3, 3)))
            v = tuple(sorted(rand_word(rng, 3, 3)))
            via_mul = Element(3, [(u, 1)]) * Element(3, [(v, 1)])
            via_agenda = normal_form(3, [(1, u + v)])
            assert via_mul == via_agenda

    def test_prefix_trie_product_matches_agenda(self):
        """Multi-term products, whose right factors share prefixes, against the
        independent reducer under both strategies."""

        def agenda(n, a, b, strategy):
            return normal_form(n, [(ca * cb, u + v) for u, ca in a.terms() for v, cb in b.terms()], strategy)

        def coeff(rng):
            return LaurentQ({rng.randint(-2, 2): rng.choice((-3, -2, -1, 1, 2, 3))})

        rng = random.Random(41)
        cases = []
        for n in (3, 4):
            for _ in range(12):
                left = {tuple(sorted(rand_word(rng, n, 3))) for _ in range(rng.randint(2, 8))}
                # every prefix of a few sorted stems: a branching trie
                stems = [tuple(sorted(rand_word(rng, n, 4))) for _ in range(2)]
                right = sorted({s[:k] for s in stems for k in range(len(s) + 1)})[:8]
                a = Element(n, [(w, coeff(rng)) for w in left])
                b = Element(n, [(w, coeff(rng)) for w in right])
                if len(a.terms()) >= 2 and len(b.terms()) >= 2:
                    cases.append((n, a, b))
            # (t11 + t12)(t11 - q^-1 t12): the two t11 t12 terms cancel
            a = t(n, 1, 1) + t(n, 1, 2)
            b = t(n, 1, 1) - QINV * t(n, 1, 2)
            assert (a * b).coeff(((1, 1), (1, 2))).is_zero()
            cases.append((n, a, b))
        # right factors in which one word is a proper prefix of another
        assert sum(any(u != v and u == v[:len(u)] for u, _ in b.terms() for v, _ in b.terms())
                   for _, _, b in cases) >= 10
        for n, a, b in cases:
            for strategy in ("leftmost", "rightmost"):
                assert a * b == agenda(n, a, b, strategy)
            for (u, _), (v, _) in product(a.terms(), b.terms()):
                assert dict(_word_mul(u, v)) == dict(normal_form(n, [(1, u + v)]).terms())

    def test_associativity_random(self):
        rng = random.Random(5)
        for _ in range(60):
            a = rand_element(rng, 3, 2)
            b = rand_element(rng, 3, 2)
            c = rand_element(rng, 3, 2)
            assert (a * b) * c == a * (b * c)

    def test_context_mismatch_rejected(self):
        with pytest.raises(ContextMismatchError):
            t(2, 1, 1) * t(3, 1, 1)

    def test_out_of_range_generator_rejected(self):
        with pytest.raises(ValueError):
            Element.generator(2, 3, 1)


class TestMultiDegree:
    def test_direct_count(self):
        e = t(2, 1, 2) * t(2, 2, 1)
        assert e.multidegree() == MultiDegree((1, 1), (1, 1))

    def test_minor_is_homogeneous(self):
        D = quantum_minor(2, (1, 2), (1, 2))
        assert D.multidegree() == MultiDegree((1, 1), (1, 1))

    def test_inhomogeneous_flagged(self):
        e = t(2, 1, 1) + t(2, 1, 1) * t(2, 2, 2)
        assert e.multidegree() is None
        comps = e.homogeneous_components()
        assert len(comps) == 2

    def test_every_rewrite_step_preserves_multidegree(self):
        from qmb.algebra import rewrite_pair

        n = 4
        gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for x in gens:
            for y in gens:
                if not x > y:
                    continue
                before = MultiDegree.of_word(n, (x, y))
                for _, pair in rewrite_pair(x, y):
                    assert MultiDegree.of_word(n, pair) == before

    def test_multiplication_adds_multidegrees(self):
        rng = random.Random(17)
        for _ in range(30):
            u = rand_word(rng, 3, 3)
            v = rand_word(rng, 3, 3)
            a = Element(3, [(u, 1)])
            b = Element(3, [(v, 1)])
            ab = a * b
            if ab.is_zero():
                continue
            assert ab.multidegree() == MultiDegree.of_word(3, u + v)


class TestTranspose:
    def test_generator(self):
        assert t(3, 1, 2).transpose() == t(3, 2, 1)

    def test_homomorphism(self):
        rng = random.Random(41)
        for _ in range(40):
            x = rand_element(rng, 3)
            y = rand_element(rng, 3)
            assert (x * y).transpose() == x.transpose() * y.transpose()

    def test_antitranspose_reverses_products(self):
        rng = random.Random(43)
        for _ in range(40):
            x = rand_element(rng, 3)
            y = rand_element(rng, 3)
            assert (x * y).antitranspose() == y.antitranspose() * x.antitranspose()

    def test_involutions(self):
        rng = random.Random(47)
        x = rand_element(rng, 3)
        assert x.transpose().transpose() == x
        assert x.antitranspose().antitranspose() == x


class TestSpecialize:
    def test_classical_commutativity(self):
        e = t(2, 2, 2) * t(2, 1, 1) - t(2, 1, 1) * t(2, 2, 2)
        assert e.specialize(1) == {}

    def test_determinant_limit(self):
        D = quantum_minor(2, (1, 2), (1, 2))
        assert D.specialize(1) == {
            ((1, 1), (2, 2)): Fraction(1),
            ((1, 2), (2, 1)): Fraction(-1),
        }

    def test_scalar(self):
        e = Q * t(2, 1, 1)
        assert e.specialize(2) == {((1, 1),): Fraction(2)}

    def test_specialization_is_multiplicative_at_one(self):
        rng = random.Random(53)
        for _ in range(40):
            a = rand_element(rng, 3, 2)
            b = rand_element(rng, 3, 2)
            lhs = (a * b).specialize(1)
            rhs = commutative_product(a.specialize(1), b.specialize(1))
            assert lhs == rhs

    def test_zero_point_rejected(self):
        with pytest.raises(ValueError):
            t(2, 1, 1).specialize(0)


def brute_force_component_dimension(n, rows, cols):
    """Independent oracle: enumerate all n x n nonnegative matrices directly."""
    total = sum(rows)
    cells = [(i, j) for i in range(n) for j in range(n)]
    count = 0
    for alloc in product(range(total + 1), repeat=len(cells)):
        if sum(alloc) != total:
            continue
        r = [0] * n
        c = [0] * n
        for (i, j), v in zip(cells, alloc):
            r[i] += v
            c[j] += v
        if tuple(r) == tuple(rows) and tuple(c) == tuple(cols):
            count += 1
    return count


class TestBasisEnumeration:
    def test_two_contingency_tables(self):
        words = basis_monomials(2, (1, 1), (1, 1))
        assert sorted(words) == [(((1, 1)), ((2, 2))), (((1, 2)), ((2, 1)))]

    def test_single_cell(self):
        assert basis_monomials(2, (1, 0), (0, 1)) == [((1, 2),)]

    def test_unit_margins_count(self):
        words = basis_monomials(3, (1, 1, 1), (1, 1, 1))
        assert len(words) == 6

    @pytest.mark.parametrize(
        "n,rows,cols",
        [
            (2, (1, 1), (1, 1)),
            (2, (2, 1), (1, 2)),
            (2, (2, 2), (2, 2)),
            (3, (1, 1, 1), (1, 1, 1)),
            (3, (2, 1, 0), (1, 1, 1)),
            (3, (0, 2, 1), (1, 0, 2)),
            (3, (1, 0, 1), (0, 2, 0)),
        ],
    )
    def test_against_brute_force(self, n, rows, cols):
        words = basis_monomials(n, rows, cols)
        assert len(set(words)) == len(words)
        for w in words:
            assert MultiDegree.of_word(n, w) == MultiDegree(rows, cols)
            assert all(w[i] <= w[i + 1] for i in range(len(w) - 1))
        assert len(words) == brute_force_component_dimension(n, rows, cols)

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            basis_monomials(2, (1, 0), (1, 1))

    def test_large_n_does_not_recurse_per_cell(self):
        rows, cols = [0] * 40, [0] * 40
        rows[0] = rows[39] = cols[1] = cols[38] = 1
        assert basis_monomials(40, tuple(rows), tuple(cols)) == [((1, 2), (40, 39)), ((1, 39), (40, 2))]

    def test_pbw_dimension_equals_component_span(self):
        # products of all degree-2 generator pairs stay inside the enumerated basis
        n = 2
        words = set(basis_monomials(n, (1, 1), (1, 1)))
        for g1 in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for g2 in ((1, 1), (1, 2), (2, 1), (2, 2)):
                e = Element(n, [((g1,), 1)]) * Element(n, [((g2,), 1)])
                for w, _ in e.terms():
                    if MultiDegree.of_word(n, w) == MultiDegree((1, 1), (1, 1)):
                        assert w in words


class TestNoZeroDivisors:
    def test_spot_check(self):
        rng = random.Random(61)
        for _ in range(80):
            n = rng.choice((2, 3))
            a = rand_element(rng, n, 3, 2)
            b = rand_element(rng, n, 3, 2)
            if a.is_zero() or b.is_zero():
                continue
            da, db = a.multidegree(), b.multidegree()
            if da is None:
                a = list(a.homogeneous_components().values())[0]
            if db is None:
                b = list(b.homogeneous_components().values())[0]
            assert not (a * b).is_zero()


class TestDegreeCap:
    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("QMB_MAX_DEGREE", "3")
        a = Element(2, [(((1, 1),) * 2, 1)])
        with pytest.raises(DegreeCapError):
            a * a

    def test_cap_allows_boundary(self, monkeypatch):
        monkeypatch.setenv("QMB_MAX_DEGREE", "4")
        a = Element(2, [(((1, 1),) * 2, 1)])
        assert not (a * a).is_zero()


class TestDegenerateSize:
    def test_n1_is_commutative_polynomials(self):
        x = t(1, 1, 1)
        assert x * x == Element(1, [(((1, 1), (1, 1)), 1)])
        assert commutator(x, x * x).is_zero()
        assert quantum_minor(1, (1,), (1,)) == x
