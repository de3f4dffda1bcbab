"""Quantum minor construction and probing."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from qmb import minors
from qmb.algebra import ANTITRANSPOSE, FLIP, IDENTITY, TRANSPOSE, DegreeCapError, Element, MultiDegree, commutator
from qmb.exprparse import parse_element
from qmb.minors import (
    MAX_MATRIX_SIZE,
    MAX_MINOR_SIZE,
    MinorId,
    check_matrix_size,
    column_replace,
    index_set,
    qcommutation_exponent,
    qcommutation_probe,
    quantum_minor,
    quantum_minor_columns,
)
from qmb.scalars import Q, LaurentQ


def t(n, i, j):
    return Element.generator(n, i, j)


class TestConstruction:
    def test_one_by_one(self):
        assert quantum_minor(3, (2,), (3,)) == t(3, 2, 3)

    def test_two_by_two(self):
        D = quantum_minor(2, (1, 2), (1, 2))
        assert D == t(2, 1, 1) * t(2, 2, 2) - Q * (t(2, 1, 2) * t(2, 2, 1))

    def test_rectangular_labels(self):
        # oracle: direct two-permutation enumeration
        D = quantum_minor(3, (1, 2), (1, 3))
        expected = t(3, 1, 1) * t(3, 2, 3) - Q * (t(3, 1, 3) * t(3, 2, 1))
        assert D == expected

    def test_permutation_sum_oracle(self):
        # independent expansion with explicit inversion counting
        n, K, L = 3, (1, 2, 3), (1, 2, 3)
        total = Element.zero(n)
        for perm in permutations(range(3)):
            inv = sum(
                1 for a in range(3) for b in range(a + 1, 3) if perm[a] > perm[b]
            )
            word = Element.unit(n)
            for i in range(3):
                word = word * t(n, K[i], L[perm[i]])
            total = total + word.scale(LaurentQ({inv: (-1) ** inv}))
        assert quantum_minor(3, K, L) == total

    def test_cardinality_mismatch_rejected(self):
        with pytest.raises(ValueError):
            quantum_minor(3, (1, 2), (1,))
        with pytest.raises(ValueError):
            MinorId((1, 2), (3,))

    def test_unsorted_column_list_is_a_different_element(self):
        sorted_minor = quantum_minor_columns(3, (1, 2), (1, 2))
        swapped = quantum_minor_columns(3, (1, 2), (2, 1))
        assert sorted_minor != swapped
        assert qcommutation_probe(sorted_minor, swapped) == 0  # distinct, yet they commute


class TestAntitranspose:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_element_of_the_image_is_the_image_of_the_element(self, n):
        for size in range(1, n + 1):
            for rows in combinations(range(1, n + 1), size):
                for cols in combinations(range(1, n + 1), size):
                    minor = MinorId(rows, cols)
                    image = minor.image(ANTITRANSPOSE, n)
                    assert minors.minor_element(n, image) == minors.minor_element(n, minor).antitranspose()
                    assert image.image(ANTITRANSPOSE, n) == minor


def reference_sets(g, n, K, L):
    """The tests' own image of the minor ``D[K,L]`` under each map, as its
    ``(rows, cols)``: T swaps the sets, F maps each label ``x`` to ``n+1-x``."""
    def star(X):
        return tuple(sorted(n + 1 - x for x in X))
    return {IDENTITY: (K, L), TRANSPOSE: (L, K), FLIP: (star(K), star(L)), ANTITRANSPOSE: (star(L), star(K))}[g]


class TestImage:
    def test_every_proper_minor_at_n_up_to_5(self):
        """``MinorId.image`` is the minor the validating constructor names,
        with its hash, and its element is the map's image of the minor's."""
        checked = 0
        for n in (2, 3, 4, 5):
            for m in range(1, n):
                for K in combinations(range(1, n + 1), m):
                    for L in combinations(range(1, n + 1), m):
                        minor = MinorId(K, L)
                        for g in (IDENTITY, TRANSPOSE, FLIP, ANTITRANSPOSE):
                            image, want = minor.image(g, n), MinorId(*reference_sets(g, n, K, L))
                            assert (image, hash(image)) == (want, hash(want))
                            assert minors.minor_element(n, image) == g.element(minors.minor_element(n, minor))
                        checked += 1
        assert checked == 340


def flip(e):
    """The flip ``t[i,j] -> t[n+1-i, n+1-j]``: the transpose of the antitranspose."""
    return e.antitranspose().transpose()


class TestFlip:
    """README lemma 1a, on which ``identities.run_suite`` derives mirrored results."""

    def test_the_flip_of_a_minor_is_the_minor_of_the_flipped_sets(self):
        checked = 0
        for n in (2, 3, 4, 5):
            for m in range(1, n):
                for K in combinations(range(1, n + 1), m):
                    for L in combinations(range(1, n + 1), m):
                        Ks, Ls = sorted(n + 1 - x for x in K), sorted(n + 1 - x for x in L)
                        assert flip(quantum_minor(n, K, L)) == quantum_minor(n, Ks, Ls)
                        checked += 1
        assert checked == 340  # every proper minor at 2 <= n <= 5

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_the_flip_reverses_products(self, n):
        rng = random.Random(61 + n)

        def element():
            words = [tuple((rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 3)))
                     for _ in range(3)]
            return Element(n, [(w, LaurentQ({rng.randint(-2, 2): rng.randint(-3, 3)})) for w in words])

        for _ in range(20):
            a, b = element(), element()
            assert flip(a * b) == flip(b) * flip(a)

    def test_the_flip_is_the_letter_map(self):
        n = 4
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert flip(t(n, i, j)) == t(n, n + 1 - i, n + 1 - j)


class TestSizeBound:
    def test_largest_size_expands(self):
        labels = range(1, MAX_MINOR_SIZE + 1)
        assert MAX_MINOR_SIZE == 7
        assert len(quantum_minor(7, labels, labels).terms()) == 5040

    @pytest.mark.parametrize("build", [
        lambda labels: quantum_minor(8, labels, labels),
        lambda labels: quantum_minor_columns(8, labels, labels[::-1]),
        lambda labels: parse_element("D[{1,2,3,4,5,6,7,8},{1,2,3,4,5,6,7,8}]", 8),
    ], ids=["quantum_minor", "quantum_minor_columns", "expression"])
    def test_larger_minor_refused_before_enumerating(self, monkeypatch, build):
        def refuse(*args):
            raise AssertionError("permutations enumerated")

        monkeypatch.setattr(minors, "permutations", refuse)
        with pytest.raises(DegreeCapError):
            build(tuple(range(1, 9)))

    def test_matrix_size_bound(self):
        assert MAX_MATRIX_SIZE == 1000
        check_matrix_size(MAX_MATRIX_SIZE)
        for n in (MAX_MATRIX_SIZE + 1, 10**18):
            with pytest.raises(DegreeCapError):
                check_matrix_size(n)


class TestColumnReplace:
    def test_first_position(self):
        assert column_replace((1, 3), 1, 2) == (2, 3)

    def test_last_position(self):
        assert column_replace((1, 2, 5), 3, 4) == (1, 2, 4)

    def test_resorts(self):
        assert column_replace((2, 3), 1, 1) == (1, 3)
        assert column_replace((1, 2, 4), 1, 3) == (2, 3, 4)

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            column_replace((1, 3), 1, 3)

    def test_index_set_validation(self):
        with pytest.raises(ValueError):
            index_set((2, 1))
        with pytest.raises(ValueError):
            index_set(())


class TestCentrality:
    @pytest.mark.parametrize("n", [2, 3])
    def test_full_minor_is_central(self, n):
        D = quantum_minor(n, tuple(range(1, n + 1)), tuple(range(1, n + 1)))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert commutator(t(n, i, j), D).is_zero(), (i, j)


class TestProbe:
    def test_self_commutation(self):
        D = quantum_minor(3, (1, 2), (2, 3))
        assert qcommutation_probe(D, D) == 0

    def test_central_pair(self):
        D = quantum_minor(2, (1, 2), (1, 2))
        assert qcommutation_probe(D, t(2, 1, 1)) == 0

    def test_single_interchange_sign_measured(self):
        a = quantum_minor(3, (1, 2), (1, 3))
        b = quantum_minor(3, (1, 2), (2, 3))
        # measured once, frozen: removed label 1 < added label 2 gives +1
        assert qcommutation_probe(a, b) == 1
        assert qcommutation_probe(b, a) == -1

    def test_non_q_commuting_pair(self):
        D = quantum_minor(3, (1, 3), (1, 3))
        assert qcommutation_probe(t(3, 2, 1), D) is None

    @pytest.mark.parametrize("a, b", [
        (quantum_minor(3, (1, 2), (1, 3)), quantum_minor(3, (1, 2), (2, 3))),
        (t(3, 1, 3), quantum_minor(3, (1, 2), (1, 2))),
        (quantum_minor(4, (1, 3), (2, 4)), quantum_minor(4, (1, 3), (1, 4))),
    ], ids=["minor-pair", "generator-minor", "minor-pair-n4"])
    def test_exponent_of_swapped_products_is_negated(self, a, b):
        ab, ba = a * b, b * a
        r = qcommutation_exponent(ab, ba)
        assert r in (1, -1) and r == qcommutation_probe(a, b)
        assert qcommutation_exponent(ba, ab) == -r

    def test_exponent_of_non_q_commuting_products_is_none_both_ways(self):
        a, b = t(3, 2, 1), quantum_minor(3, (1, 3), (1, 3))
        assert qcommutation_exponent(a * b, b * a) is None
        assert qcommutation_exponent(b * a, a * b) is None

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            qcommutation_probe(Element.zero(2), t(2, 1, 1))
        with pytest.raises(ValueError):
            qcommutation_probe(t(2, 1, 1), Element.zero(2))

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            qcommutation_probe(t(2, 1, 1) + Element.unit(2), t(2, 1, 1))
        with pytest.raises(ValueError):
            qcommutation_probe(t(2, 1, 1), t(2, 1, 1) + Element.unit(2))


def homogeneous_pool(rng, n):
    """Generators, minors of size at least 2, seeded two-letter generator
    words, and seeded products of a generator or minor with a minor: every
    one homogeneous.  The exponents of the pairs drawn from it lie in
    [-4, 4], the range ``brute_exponent`` tries."""
    gens = [t(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    mins = [quantum_minor(n, K, L) for m in range(2, n + 1)
            for K in combinations(range(1, n + 1), m) for L in combinations(range(1, n + 1), m)]
    words = [rng.choice(gens) * rng.choice(gens) for _ in range(6)]
    products = [rng.choice(gens + mins) * rng.choice(mins) for _ in range(6)]
    return gens + mins + words + products


def brute_exponent(ab, ba):
    """The r in [-4, 4] with ``ab == q^r ba``, found by trying each, or None."""
    hits = [r for r in range(-4, 5) if ab == ba.scale(LaurentQ.q_power(r))]
    assert len(hits) <= 1
    return hits[0] if hits else None


class TestExponentOnTermMaps:
    def test_equals_the_brute_force_reference(self):
        rng = random.Random(211)
        seen = set()
        for n in (2, 3):
            pool = homogeneous_pool(rng, n)
            for _ in range(80):
                a, b = rng.choice(pool), rng.choice(pool)
                ab, ba = a * b, b * a
                r = qcommutation_exponent(ab, ba)
                assert r == brute_exponent(ab, ba), (a, b)
                seen.add(r)
        assert {None, 0, 1, -1, 2, -2} <= seen

    def test_both_products_zero(self):
        assert qcommutation_exponent(Element.zero(3), Element.zero(3)) == 0

    def test_equal_term_counts_with_a_missing_word(self):
        w1, w2, w3 = ((1, 1), (2, 2)), ((1, 2), (2, 1)), ((1, 1), (2, 1))
        assert qcommutation_exponent(Element(2, [(w1, 1)]), Element(2, [(w2, 1)])) is None
        # the first word of ab matches with r = 0, but ba's second word is not in ab
        ab = Element._make(2, {w1: LaurentQ(1), w2: LaurentQ(1)})
        ba = Element._make(2, {w1: LaurentQ(1), w3: LaurentQ(1)})
        assert qcommutation_exponent(ab, ba) is None

    def test_first_inserted_word_need_not_be_the_smallest(self):
        a, b = quantum_minor(3, (1, 2), (1, 3)), quantum_minor(3, (1, 2), (2, 3))
        ab, ba = a * b, b * a
        terms = ab.terms()
        backwards = Element._make(3, dict(reversed(terms)))
        assert next(iter(backwards._t)) != terms[0][0] and backwards == ab
        assert qcommutation_exponent(backwards, ba) == brute_exponent(ab, ba) == 1
        # a coefficient off on the smallest word only is still caught
        off = dict(reversed(terms))
        off[terms[0][0]] = off[terms[0][0]] * 2
        assert qcommutation_exponent(Element._make(3, off), ba) is None


class TestMinorInvariants:
    @pytest.mark.parametrize("n,K,L", [(3, (1, 2), (1, 3)), (4, (2, 4), (1, 3)), (3, (2,), (3,))])
    def test_homogeneity(self, n, K, L):
        D = quantum_minor(n, K, L)
        rows = tuple(1 if i in K else 0 for i in range(1, n + 1))
        cols = tuple(1 if j in L else 0 for j in range(1, n + 1))
        assert D.multidegree() == MultiDegree(rows, cols)

    def test_transpose_swaps_index_sets(self):
        """Every minor at n <= 5, so every proper minor that the identity
        sweep derives results for by T (the antitranspose analogue is
        ``TestAntitranspose``); the witness solver relies on both."""
        proper = 0
        for n in (1, 2, 3, 4, 5):
            for m in range(1, n + 1):
                for K in combinations(range(1, n + 1), m):
                    for L in combinations(range(1, n + 1), m):
                        minor = MinorId(K, L)
                        assert minor.image(TRANSPOSE, n) == MinorId(L, K)
                        assert minor.image(TRANSPOSE, n).image(TRANSPOSE, n) == minor
                        image = minors.minor_element(n, minor).transpose()
                        assert minors.minor_element(n, minor.image(TRANSPOSE, n)) == image
                        if m < n:
                            proper += 1
        assert proper == 340  # every proper minor at 2 <= n <= 5

    def test_images_are_minors_the_constructor_accepts(self):
        """``MinorId.image`` skips the validation;
        each image is the minor that the validating constructor names."""
        for n in (1, 2, 3, 4):
            for m in range(1, n + 1):
                for K in combinations(range(1, n + 1), m):
                    for L in combinations(range(1, n + 1), m):
                        minor = MinorId(K, L)
                        for image in (minor.image(g, n) for g in (TRANSPOSE, ANTITRANSPOSE, FLIP)):
                            checked = MinorId(image.rows, image.cols)
                            assert (image, hash(image)) == (checked, hash(checked))
                            assert type(image.rows) is type(image.cols) is tuple

    def test_the_constructor_validates_its_labels(self):
        for rows, cols in [((2, 1), (1, 2)), ((1, 1), (1, 2)), ((), ()), ((1, 2), [1, 2.0])]:
            with pytest.raises(ValueError):
                MinorId(rows, cols)

    def test_classical_limit_is_the_determinant(self):
        # oracle: ordinary determinant via signed permutation sum
        n, K, L = 3, (1, 3), (2, 3)
        D = quantum_minor(n, K, L)
        m = len(K)
        expected = {}
        for perm in permutations(range(m)):
            inv = sum(1 for a in range(m) for b in range(a + 1, m) if perm[a] > perm[b])
            word = tuple(sorted((K[i], L[perm[i]]) for i in range(m)))
            expected[word] = expected.get(word, Fraction(0)) + Fraction((-1) ** inv)
        expected = {w: c for w, c in expected.items() if c}
        assert D.specialize(1) == expected
