"""Normal form, grading, and structural maps of the algebra."""

import random
import time
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest

from qmb import algebra, clear_caches, identities, ore
from qmb.algebra import (
    ANTITRANSPOSE,
    FLIP,
    IDENTITY,
    TRANSPOSE,
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
from qmb.minors import MinorId, minor_element, quantum_minor
from qmb.ore import LEFT, SIDES, solve_witness, witness_generator_constructive
from qmb.scalars import ONE, Q, QINV, Q_MINUS_QINV, LaurentQ


def t(n, i, j):
    return Element.generator(n, i, j)


def rand_word(rng, n, max_len):
    return tuple((rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, max_len)))


def mapped_word(n, name, w):
    """The word of the images of ``w``'s letters under ``Element.<name>``, unsorted."""
    if name == "transpose":
        return tuple((j, i) for i, j in w)
    return tuple((n + 1 - j, n + 1 - i) for i, j in reversed(w))


def reference(n, terms, strategy="leftmost"):
    """The normal form of ``[(coeff, word), ...]`` by the agenda reducer, the
    tests' reference, which no library path calls."""
    return Element._make(n, reduce_terms([(LaurentQ.coerce(c), tuple(w)) for c, w in terms], strategy))


def agenda_product(n, a, b, strategy="leftmost"):
    """``a * b`` by the agenda reducer over the pairwise concatenations."""
    return reference(n, [(ca * cb, u + v) for u, ca in a.terms() for v, cb in b.terms()], strategy)


def rand_element(rng, n, max_len=3, n_terms=3):
    terms = []
    for _ in range(n_terms):
        coeff = LaurentQ({rng.randint(-2, 2): rng.randint(-3, 3)})
        terms.append((coeff, rand_word(rng, n, max_len)))
    return normal_form(n, terms)


def overlap_defects(n):
    """Whether each overlap ``x y z`` (x > y > z) fails to resolve: the normal
    forms of its two one-step reductions ``r(x y) z`` and ``x r(y z)`` differ."""
    gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    defects = {}
    for z, y, x in combinations(gens, 3):
        left = reduce_terms([(c, w + (z,)) for c, w in algebra.rewrite_pair(x, y)])
        right = reduce_terms([(c, (x,) + w) for c, w in algebra.rewrite_pair(y, z)])
        defects[x, y, z] = left != right
    return defects


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

    def test_each_rule_makes_its_word_smaller(self):
        """Termination: each rule's output words are smaller than ``x y`` in the
        length-lexicographic order, and use only the labels of ``x y``."""
        gens = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        for y, x in combinations(gens, 2):
            for _, w in algebra.rewrite_pair(x, y):
                assert len(w) == 2 and w < (x, y)
                assert {g[0] for g in w} <= {x[0], y[0]} and {g[1] for g in w} <= {x[1], y[1]}

    @pytest.mark.parametrize("n, overlaps", [(3, 84), (4, 560)])
    def test_every_overlap_resolves(self, n, overlaps):
        """Confluence by the diamond lemma (README): every overlap resolves at
        n = 3, which covers every n; n = 4 is checked as well."""
        assert len(overlap_defects(n)) == overlaps
        assert not [xyz for xyz, defect in overlap_defects(n).items() if defect]

    def test_a_corrupted_rule_leaves_an_overlap_unresolved(self, monkeypatch):
        rewrite_pair = algebra.rewrite_pair

        def sign_flipped(x, y):
            return [(c if w == (y, x) else -c, w) for c, w in rewrite_pair(x, y)]

        monkeypatch.setattr(algebra, "rewrite_pair", sign_flipped)
        assert [xyz for xyz, defect in overlap_defects(3).items() if defect]

    def test_agenda_matches_cached_multiplication(self):
        rng = random.Random(31)
        for _ in range(50):
            u = tuple(sorted(rand_word(rng, 3, 3)))
            v = tuple(sorted(rand_word(rng, 3, 3)))
            via_mul = Element(3, [(u, 1)]) * Element(3, [(v, 1)])
            via_agenda = reference(3, [(1, u + v)])
            assert via_mul == via_agenda

    def test_prefix_trie_product_matches_agenda(self):
        """Multi-term products, whose right factors share prefixes, against the
        independent reducer under both strategies."""

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
                assert a * b == agenda_product(n, a, b, strategy)
            for (u, _), (v, _) in product(a.terms(), b.terms()):
                assert dict(_word_mul(u, v)) == reduce_terms([(ONE, u + v)])

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


SCALARS = [1, 2, Fraction(1, 3), QINV**2, 1 + Q, -Q**3 + QINV]


def seeded_elements(seed):
    """Seeded elements at n <= 4: random sums, a minor, a rational multiple,
    the unit and a scalar."""
    rng = random.Random(seed)
    out = []
    for n in (1, 2, 3, 4):
        out += [rand_element(rng, n) for _ in range(4)]
        out += [quantum_minor(n, tuple(range(1, n + 1)), tuple(range(1, n + 1))),
                rand_element(rng, n).scale(Fraction(2, 5)), Element.unit(n), Element.scalar(n, 1 - Q)]
    return [x for x in out if not x.is_zero()]


@pytest.fixture
def products(monkeypatch):
    """The arguments of every ``_mul_terms`` call, recorded through the module global."""
    calls = []
    walk = algebra._mul_terms

    def record(left, right):
        calls.append((left, right))
        return walk(left, right)

    monkeypatch.setattr(algebra, "_mul_terms", record)
    return calls


class TestScalarFactors:
    """A product with a factor ``{(): c}`` is ``scale(c)`` of the other factor."""

    @pytest.mark.parametrize("s", SCALARS, ids=str)
    def test_a_scalar_factor_is_a_scale(self, s):
        for x in seeded_elements(61):
            c = Element.scalar(x.n, s)
            assert c * x == agenda_product(x.n, c, x) == x.scale(s)
            assert x * c == agenda_product(x.n, x, c) == x.scale(s)

    def test_no_scalar_product_reaches_the_walk(self, products):
        xs = seeded_elements(67)
        products.clear()  # the products that built the elements
        for x in xs:
            for s in SCALARS:
                c = Element.scalar(x.n, s)
                c * x, x * c
        assert products == []
        # a factor with a scalar term beside a word is not a scalar
        x = t(3, 2, 1) + Element.scalar(3, 2)
        assert x * t(3, 1, 1) == agenda_product(3, x, t(3, 1, 1))
        assert len(products) == 1

    def test_scaling_by_one_returns_the_element(self):
        for x in seeded_elements(71):
            for one in (1, Fraction(1), ONE):
                assert x.scale(one) is x
        for n in (1, 2, 3, 4):
            assert Element.unit(n) ** 3 == Element.unit(n)
            assert Element.unit(n) ** 0 == Element.unit(n)

    def test_the_cap_and_the_sizes_are_checked_first(self, monkeypatch):
        x = Element._make(2, {((1, 1),) * 3: ONE})
        monkeypatch.setenv("QMB_MAX_DEGREE", "2")
        for product in (lambda: Element.scalar(2, 2) * x, lambda: x * Element.unit(2)):
            with pytest.raises(DegreeCapError):
                product()
        with pytest.raises(ContextMismatchError):
            Element.unit(3) * t(2, 1, 1)


class TestSubtraction:
    def test_difference_equals_the_sum_with_the_negation(self):
        rng = random.Random(73)
        for n in (1, 2, 3, 4):
            for _ in range(12):
                a, b = rand_element(rng, n), rand_element(rng, n)
                # half of a's terms again in b, with the same coefficients: those words cancel
                shared = a.terms()[: len(a.terms()) // 2 + 1] if rng.random() < 0.5 else []
                b = b + Element._make(n, dict(shared))
                diff = a - b
                assert diff == a + (-b)
                assert diff == reference(n, [(c, w) for w, c in a.terms()] + [(-c, w) for w, c in b.terms()])
                assert all(not c.is_zero() for c in diff._t.values())

    def test_every_word_or_some_words_cancel(self):
        a = t(3, 1, 1) * t(3, 2, 2) + t(3, 1, 3).scale(Q)
        assert (a - a)._t == {}
        b = t(3, 1, 3).scale(Q) + t(3, 3, 1)
        assert (a - b)._t == {((1, 1), (2, 2)): ONE, ((3, 1),): -ONE}
        assert (a - Element.zero(3)) == a and (Element.zero(3) - a) == -a

    def test_only_elements_of_one_size_subtract(self):
        with pytest.raises(ContextMismatchError):
            t(2, 1, 1) - t(3, 1, 1)
        with pytest.raises(TypeError):
            t(2, 1, 1) - 1


@pytest.fixture
def fallbacks(monkeypatch):
    """The products that leave the packed path, recorded through the kernel's
    private ``_fallback`` hook."""
    calls = []
    exact = algebra._fallback

    def record(left, right):
        calls.append((left, right))
        return exact(left, right)

    monkeypatch.setattr(algebra, "_fallback", record)
    return calls


def packed_digits(value):
    """The balanced base-2^64 digits of a packed coefficient's integer, lowest first."""
    _, p = value
    digits = []
    while p:
        c = (p + 2**63) % 2**64 - 2**63
        digits.append(c)
        p = (p - c) // 2**64
    return digits


class TestPackedKernel:
    """README lemma 3: the product kernel packs each coefficient into one
    integer while every digit lies in [-2^20, 2^20) and there are at most 64
    digits, and otherwise walks the product again on LaurentQ."""

    LIM = 2**20

    @staticmethod
    def cases(rng, big):
        """Seeded products at n <= 4 whose right factors carry the coefficient
        ``big``, digits that borrow across a digit boundary (-1 + q^5 packs
        as 2^320 - 1) and a span of 64 digits, the most that packs."""
        small = [ONE, -ONE, LaurentQ({0: -1, 5: 1}), Q_MINUS_QINV, LaurentQ({-3: 2, 1: -3})]
        wide = [LaurentQ(big), LaurentQ(-big), LaurentQ({0: -1, 5: big}), LaurentQ({-2: -1, 61: 1}),
                LaurentQ({0: big, 1: -1})]
        out = []
        for n in (2, 3, 4):
            for _ in range(6):
                a = Element(n, [(tuple(sorted(rand_word(rng, n, 3))), rng.choice(small)) for _ in range(3)])
                b = Element(n, [(tuple(sorted(rand_word(rng, n, 3))), rng.choice(wide)) for _ in range(3)])
                if a and b:
                    out.append((n, a, b))
            # big * (t11 t12 - q^-1 t12 t11): the two t11 t12 terms cancel
            a = t(n, 1, 1) + t(n, 1, 2)
            b = Element(n, [(((1, 1),), big), (((1, 2),), -big * QINV)])
            out.append((n, a, b))
            # a left coefficient at the bound, times one generator: every state stays in range
            out.append((n, Element(n, [(((n, n),), big), (((n, 1),), -big)]), t(n, 1, 1)))
        return out

    @classmethod
    def outside(cls, c):
        """Whether a coefficient breaks the invariant, read off its terms."""
        exps = [e for e, _ in c.terms]
        return max(exps) - min(exps) >= 64 or not all(type(v) is int and -cls.LIM <= v < cls.LIM
                                                      for _, v in c.terms)

    @pytest.mark.parametrize("big", [2**20 - 1, 2**20], ids=["packed", "fallback"])
    def test_products_at_the_coefficient_bound(self, fallbacks, big):
        """Each product equals the agenda reducer's under both strategies, and
        takes the fallback exactly when an input coefficient breaks the
        invariant (no state of these products leaves it)."""
        fell = 0
        for n, a, b in self.cases(random.Random(71), big):
            del fallbacks[:]
            ab = a * b
            must = any(self.outside(c) for _, c in a.terms() + b.terms())
            assert bool(fallbacks) == must
            fell += must
            for strategy in ("leftmost", "rightmost"):
                assert ab == agenda_product(n, a, b, strategy)
            if b.coeff(((1, 2),)) == -big * QINV and len(b.terms()) == 2:
                assert ab.coeff(((1, 1), (1, 2))).is_zero()
        assert (fell > 5) if big == 2**20 else not fell

    def test_a_state_past_the_bound_falls_back(self, fallbacks):
        """Every input inside, but ``left * t11^3`` reaches 2 (2^20 - 1) in a
        state: the walk checks each state and takes the fallback.  The same
        coefficient on the right factor enters no state and stays packed."""
        c = self.LIM - 1
        u, v = ((2, 2),) * 3, ((1, 1),) * 3
        via_left = Element(2, [(u, c)]) * Element(2, [(v, 1)])
        assert len(fallbacks) == 1
        assert via_left == agenda_product(2, Element(2, [(u, c)]), Element(2, [(v, 1)]))
        assert any(abs(x) > c for _, cf in via_left.terms() for _, x in cf.terms)
        assert Element(2, [(u, 1)]) * Element(2, [(v, c)]) == via_left
        assert len(fallbacks) == 1

    def test_a_sum_across_a_wide_exponent_gap_falls_back(self, fallbacks):
        """Two packed values of one word whose exponents lie 10^9 apart are not
        added as integers (that integer would have 6.4 * 10^10 bits): in a
        state and in the final sum alike, the product takes the fallback."""
        wide = Element(2, [(((1, 1), (2, 2)), 1), (((1, 2), (2, 1)), LaurentQ.q_power(10**9))])
        for a, b in ((wide, t(2, 1, 1)), (t(2, 2, 2), wide)):
            del fallbacks[:]
            started = time.perf_counter()
            ab = a * b
            assert time.perf_counter() - started < 1.0
            assert len(fallbacks) == 1
            assert ab == agenda_product(2, a, b)

    def test_a_wide_state_keeps_the_tabled_walk(self, fallbacks):
        """In ``t22^8 t11^8`` at n = 2 the coefficient of ``t12^8 t21^8``
        spans 73 digits (q^-64 to q^8), so the last state leaves the
        invariant.  The walk on LaurentQ reads the same table and takes
        milliseconds, on the product and on the same product written as one
        word (the agenda reducer takes over a minute on that word).  The
        result matches the product formed one generator at a time and, at
        q = 1, the commutative product."""
        started = time.perf_counter()
        ab = t(2, 2, 2) ** 8 * t(2, 1, 1) ** 8
        assert time.perf_counter() - started < 2.0
        assert len(fallbacks) == 1
        wide = ab.coeff(((1, 2),) * 8 + ((2, 1),) * 8)
        assert (wide.min_exp(), wide.max_exp()) == (-64, 8)
        chain = t(2, 2, 2) ** 8
        for _ in range(8):
            chain = chain * t(2, 1, 1)
        assert chain == ab
        assert len(ab.terms()) == 9
        for w, cf in ab.terms():
            assert cf.specialize(1) == (1 if w == ((1, 1),) * 8 + ((2, 2),) * 8 else 0)
        word = ((2, 2),) * 8 + ((1, 1),) * 8
        started = time.perf_counter()
        assert normal_form(2, [(1, word)]) == Element(2, [(word, 1)]) == ab
        assert time.perf_counter() - started < 2.0

    @pytest.mark.parametrize("n, rows, cols", [(2, (1, 2), (1, 2)), (3, (1, 2), (2, 3)), (3, (2, 3), (1, 2))])
    def test_minor_powers_stay_packed(self, fallbacks, n, rows, cols):
        """A 2 x 2 minor to the power 8 (degree 16, the default cap) stays
        inside the invariant and takes milliseconds."""
        d = quantum_minor(n, rows, cols)
        started = time.perf_counter()
        d8 = d**8
        assert time.perf_counter() - started < 2.0
        assert not fallbacks
        assert d8 == (d**4) * (d**4) == d * d**7

    def test_an_entry_past_the_bound_is_formed_exactly(self, fallbacks, monkeypatch):
        """The append entry of ``t12^32 t21^32 t22^32`` and ``t11`` leaves the
        invariant itself: the table does not store it, and the walk on
        LaurentQ forms it there, equal to the agenda reducer's result."""
        monkeypatch.setenv("QMB_MAX_DEGREE", "100")
        word = ((1, 2),) * 32 + ((2, 1),) * 32 + ((2, 2),) * 32
        with pytest.raises(algebra._Unpackable):
            algebra._append_gen(word, (1, 1))
        ab = Element(2, [(word, 1)]) * t(2, 1, 1)
        assert len(fallbacks) == 1
        assert (word, (1, 1)) not in algebra._APPEND_CACHE
        for strategy in ("leftmost", "rightmost"):
            assert ab == agenda_product(2, Element(2, [(word, 1)]), t(2, 1, 1), strategy)

    def test_every_out_of_order_entry_formed_on_laurentq(self, fallbacks, monkeypatch):
        """With every out-of-order append kept off the table, the walk on
        LaurentQ forms each such entry over ``rewrite_pair``.  Seeded products
        at n = 2, 3, 4 equal the packed product and the agenda reducer's
        under both strategies, and all three rule cases are formed."""
        tabled = algebra._append_gen
        seen = set()

        def sorted_only(word, g):
            if word and word[-1] > g:
                (a, b), (c, d) = word[-1], g
                seen.add("same row or column" if a == c or b == d else "b < d" if b < d else "b > d")
                raise algebra._Unpackable
            return tabled(word, g)

        rng = random.Random(89)
        products = fell = 0
        for n in (2, 3, 4):
            for _ in range(8):
                a, b = rand_element(rng, n), rand_element(rng, n)
                if not (a and b):
                    continue
                packed = a * b
                del fallbacks[:]
                with monkeypatch.context() as m:
                    m.setattr(algebra, "_append_gen", sorted_only)
                    forced = a * b
                products += 1
                fell += bool(fallbacks)
                assert forced == packed
                for strategy in ("leftmost", "rightmost"):
                    assert forced == agenda_product(n, a, b, strategy)
        assert seen == {"same row or column", "b < d", "b > d"}
        assert products >= 20 and fell > 3 * products // 4

    SCALARS = pytest.mark.parametrize("c, falls_back", [
        (2**20, True), (10**30, True), (Fraction(1, 3), True), (LaurentQ.q_power(100000), False),
        (LaurentQ({0: 1, 100: 1}), True),
    ], ids=["2^20", "10^30", "1/3", "q^100000", "1+q^100"])

    @SCALARS
    def test_unsorted_term_lists_equal_the_reducer(self, fallbacks, c, falls_back):
        """Seeded unsorted term lists at n = 2, 3, 4, every coefficient a
        multiple of ``c``, with repeated words and terms that cancel as written
        and after rewriting: the kernel's normal form equals the agenda
        reducer's under both strategies, on the walk that ``c`` selects."""
        c = LaurentQ.coerce(c)
        rng = random.Random(97)
        for n in (2, 3, 4):
            for _ in range(6):
                words = [rand_word(rng, n, 5) for _ in range(4)]
                terms = [(c * LaurentQ({rng.randint(-2, 2): rng.choice((-2, -1, 1, 3))}), w) for w in words]
                terms += [(c, words[0]), (c, words[1]), (-c, words[1])]
                # t12 t11 = q^-1 t11 t12, so these two cancel only once rewritten
                terms += [(c, ((1, 2), (1, 1))), (-c * QINV, ((1, 1), (1, 2)))]
                rng.shuffle(terms)
                del fallbacks[:]
                nf = normal_form(n, terms)
                assert bool(fallbacks) == falls_back
                assert Element(n, [(w, cf) for cf, w in terms]) == nf
                for strategy in ("leftmost", "rightmost"):
                    assert nf == reference(n, terms, strategy)

    @SCALARS
    def test_linearity_across_the_two_paths(self, fallbacks, c, falls_back):
        """``(c a) b == c (a b)`` and ``a (b c) == (a b) c``: a product with the
        scaled factor takes the fallback whenever ``c`` leaves the invariant (a
        power of q only moves the exponent), the other does not."""
        rng = random.Random(73)
        for n in (2, 3, 4):
            for _ in range(4):
                a, b = rand_element(rng, n), rand_element(rng, n)
                a += t(n, 1, 1)  # a coefficient 1, so c * a holds c itself
                b += t(n, n, n)
                del fallbacks[:]
                ab = a * b
                assert not fallbacks
                assert (a * c) * b == ab * c
                assert bool(fallbacks) == falls_back
                del fallbacks[:]
                assert a * (b * c) == ab * c
                assert bool(fallbacks) == falls_back

    def test_the_check_is_the_invariant(self):
        """One biased add and one mask accept a packed integer exactly when
        it has at most 64 digits, all in [-2^20, 2^20)."""
        rng = random.Random(79)
        inner = [-self.LIM, -self.LIM + 1, -1, 0, 1, self.LIM - 1]
        outer = [-2**62, -self.LIM - 1, self.LIM, 2**62]
        seen = set()
        for _ in range(3000):
            digits = [rng.choice(inner if rng.random() < 0.98 else outer)
                      for _ in range(rng.choice((1, 2, 5, 63, 64, 65)))]
            digits[0] = digits[0] or 1
            digits[-1] = digits[-1] or -1
            value = (rng.randint(-5, 5), sum(c << (64 * k) for k, c in enumerate(digits)))
            assert packed_digits(value) == digits
            inside = len(digits) <= 64 and all(-self.LIM <= c < self.LIM for c in digits)
            try:
                algebra._check([value])
                accepted = True
            except algebra._Unpackable:
                accepted = False
            assert accepted == inside
            seen.add((len(digits), inside))
        assert {(64, True), (64, False), (65, False), (1, True), (1, False)} <= seen

    def test_append_table_holds_the_invariant(self):
        """From cold caches, the n = 3 sweep, an n = 4 constructive witness and
        the product of its cofactor (degree 9) with the minor on the right fill
        the table; every entry's digits lie inside the packing bound and every
        entry equals the reducer's normal form of its append.  The witness's
        own replay walks the minor on the left, so only the direct product
        keys entries by suffixes of long words."""
        clear_caches()
        assert identities.run_suite(n_max=3).all_verified()
        w = witness_generator_constructive(4, MinorId((1, 3), (2, 4)), 2, 3, LEFT)
        assert w.certified
        assert not (w.cofactor * minor_element(4, w.minor)).is_zero()
        assert len(algebra._APPEND_CACHE) >= 300
        for (word, g), entry in algebra._APPEND_CACHE.items():
            for w, value in entry:
                digits = packed_digits(value)
                assert digits[0] != 0 and len(digits) <= 64
                assert all(-self.LIM <= c < self.LIM for c in digits)
            expected = reduce_terms([(ONE, word + (g,))])
            assert {w: algebra._unpack(v) for w, v in entry} == expected

    def test_the_table_holds_only_out_of_order_appends(self):
        """From cold caches, the n = 3 sweep and an n = 4 constructive witness
        fill the table, and every key ``(word, g)`` has ``word[-1] > g``: an
        append that stays sorted is a concatenation and is never stored."""
        clear_caches()
        assert identities.run_suite(n_max=3).all_verified()
        assert witness_generator_constructive(4, MinorId((1, 3), (2, 4)), 2, 3, LEFT).certified
        assert algebra._APPEND_CACHE
        assert all(word and word[-1] > g for word, g in algebra._APPEND_CACHE)

    def test_no_key_holds_a_letter_at_most_its_generator(self):
        """README lemma 5: the walk reads the entry of the suffix past the
        letters at most ``g``, so after the n = 3 sweep and an n = 4
        constructive witness, from cold caches, every key ``(word, g)`` has
        ``word[0] > g``."""
        clear_caches()
        assert identities.run_suite(n_max=3).all_verified()
        assert witness_generator_constructive(4, MinorId((1, 3), (2, 4)), 2, 3, LEFT).certified
        assert algebra._APPEND_CACHE
        assert all(word and word[0] > g for word, g in algebra._APPEND_CACHE)

    @pytest.mark.parametrize("c, falls_back", [(LaurentQ({-1: 2, 3: -1}), False), (Fraction(1, 3), True)],
                             ids=["packed", "1/3"])
    def test_a_prefixed_append_equals_the_reducer(self, fallbacks, c, falls_back):
        """Seeded sorted words at n = 2, 3, 4 with a non-empty prefix of
        letters at most ``g`` and a letter above it: the kernel's ``c * word *
        g`` equals the agenda reducer's, on the packed walk or, for a rational
        ``c``, on ``_fallback``, and the table gains no key with a prefix."""
        clear_caches()
        rng = random.Random(101)
        for n in (2, 3, 4):
            checked = 0
            while checked < 12:
                word = tuple(sorted(rand_word(rng, n, 6)))
                g = (rng.randint(1, n), rng.randint(1, n))
                if not 0 < bisect_right(word, g) < len(word):
                    continue
                del fallbacks[:]
                got = Element(n, [(word, c)]) * t(n, *g)
                assert bool(fallbacks) == falls_back
                assert got == reference(n, [(c, word + (g,))])
                checked += 1
        assert all(word[0] > g for word, g in algebra._APPEND_CACHE)

    def test_a_prefix_rides_on_an_entry_past_the_bound(self, fallbacks, monkeypatch):
        """The entry of ``t12^32 t21^32 t22^32`` and ``t11`` leaves the
        invariant; with the prefix ``t11`` in front, ``_Unpackable`` comes from
        the suffix, the walk on LaurentQ forms the entry, and the product is
        ``t11`` times the product without the prefix."""
        monkeypatch.setenv("QMB_MAX_DEGREE", "100")
        word = ((1, 2),) * 32 + ((2, 1),) * 32 + ((2, 2),) * 32
        bare = Element(2, [(word, 1)]) * t(2, 1, 1)
        del fallbacks[:]
        prefixed = Element(2, [(((1, 1),) + word, 1)]) * t(2, 1, 1)
        assert len(fallbacks) == 1
        assert prefixed == t(2, 1, 1) * bare
        assert prefixed.terms() == [(((1, 1),) + w, cf) for w, cf in bare.terms()]

    def test_a_sorted_append_is_the_concatenation_and_is_not_stored(self):
        """A sorted append, onto the empty word too, returns the concatenation
        with coefficient 1 = (0, 1) and leaves the table as it was."""
        clear_caches()
        t(2, 2, 2) * t(2, 1, 1)  # an out-of-order append, so the table is not empty
        size = len(algebra._APPEND_CACHE)
        assert size
        for word, g in [((), (1, 1)), ((), (3, 3)), (((1, 1), (2, 2)), (2, 2)), (((1, 2),) * 3, (2, 1)),
                        (((1, 1), (2, 1)), (3, 3))]:
            assert algebra._append_gen(word, g) == ((word + (g,), (0, 1)),)
        assert len(algebra._APPEND_CACHE) == size


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

    def test_rows_or_columns_alone_do_not_make_one_multidegree(self):
        rng = random.Random(79)
        for n in (2, 3, 4):
            for _ in range(10):
                u = rand_word(rng, n, 4)
                x = normal_form(n, [(1, u), (Q, tuple(rng.sample(u, len(u))))])
                assert x.is_zero() or x.multidegree() == MultiDegree.of_word(n, u)
        # same rows, different column multisets; and the reverse
        assert Element(2, [(((1, 1), (2, 1)), 1), (((1, 2), (2, 2)), 1)]).multidegree() is None
        assert Element(2, [(((1, 1), (1, 2)), 1), (((2, 1), (2, 2)), 1)]).multidegree() is None


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

    @pytest.mark.parametrize("n, name", [pytest.param(n, "antitranspose", id=str(n)) for n in (1, 2, 3, 4)]
                             + [pytest.param(n, "transpose", id=f"transpose-{n}") for n in (1, 2, 3, 4)])
    def test_antitranspose_maps_each_sorted_word_to_one_sorted_word(self, n, name):
        """The lemma behind the solver's one form, and its transpose analogue:
        the reference reducer sends the image of a PBW word to the sorted
        image of its letters, with coefficient 1, and so does the map."""
        letters = sorted((i, j) for i in range(1, n + 1) for j in range(1, n + 1))
        for length in range(5):
            for w in combinations_with_replacement(letters, length):
                image = mapped_word(n, name, w)
                expected = [(tuple(sorted(image)), ONE)]
                assert reference(n, [(1, image)]).terms() == expected
                assert getattr(Element(n, [(w, 1)]), name)().terms() == expected

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("name", ["antitranspose", "transpose"])
    def test_maps_equal_the_normal_form_of_the_mapped_words(self, n, name):
        rng = random.Random(59 + n)
        for _ in range(30):
            # every word repeats a letter
            gs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(4)]
            words = [(g,) + rand_word(rng, n, 3) + (g,) for g in gs]
            x = normal_form(n, [(LaurentQ({rng.randint(-2, 2): rng.randint(1, 3)}), w) for w in words])
            assert getattr(x, name)() == reference(n, [(c, mapped_word(n, name, w)) for w, c in x.terms()])

    def test_involutions(self):
        rng = random.Random(47)
        x = rand_element(rng, 3)
        assert x.transpose().transpose() == x
        assert x.antitranspose().antitranspose() == x


def flip_sample(seed):
    """Seeded elements at n <= 5 for the flip: random sums, a rational
    multiple, a minor, a minor's square and a scalar."""
    rng = random.Random(seed)
    out = []
    for n in (1, 2, 3, 4, 5):
        K = tuple(sorted(rng.sample(range(1, n + 1), (n + 1) // 2)))
        L = tuple(sorted(rng.sample(range(1, n + 1), len(K))))
        out += [rand_element(rng, n, 4, 4) for _ in range(6)]
        out += [rand_element(rng, n).scale(Fraction(2, 5)), quantum_minor(n, K, L),
                quantum_minor(n, K, L) ** 2, Element.scalar(n, 1 - Q)]
    return [x for x in out if not x.is_zero()]


class TestFlip:
    """``FLIP.element``: ``t[i,j] -> t[n+1-i, n+1-j]`` with every word
    reversed (README lemma 1a), formed without sorting."""

    def test_the_flip_is_the_transpose_of_the_antitranspose(self):
        xs = flip_sample(83)
        assert {x.n for x in xs} == {1, 2, 3, 4, 5}
        for x in xs:
            y = FLIP.element(x)
            assert y == x.antitranspose().transpose()
            assert all(list(w) == sorted(w) for w in y._t)
            assert FLIP.element(y) == x

    def test_the_flip_reverses_products(self):
        rng = random.Random(89)
        for n in (2, 3, 4):
            for _ in range(25):
                x, y = rand_element(rng, n), rand_element(rng, n)
                assert FLIP.element(x * y) == FLIP.element(y) * FLIP.element(x)
        for n, rows, cols in ((3, (1, 2), (2, 3)), (4, (1, 3), (2, 4))):
            D = quantum_minor(n, rows, cols)
            x = rand_element(rng, n, 4, 4)
            assert FLIP.element(x * D) == FLIP.element(D) * FLIP.element(x)
            assert FLIP.element(D) == quantum_minor(n, *(tuple(n + 1 - v for v in reversed(s)) for s in (rows, cols)))


GROUP = (IDENTITY, TRANSPOSE, FLIP, ANTITRANSPOSE)


def reference_letter(g, n, letter):
    """The tests' own table of the four maps: the image of ``letter``, and
    whether the map reverses products."""
    i, j = letter
    return {IDENTITY: ((i, j), False), TRANSPOSE: ((j, i), False),
            FLIP: ((n + 1 - i, n + 1 - j), True), ANTITRANSPOSE: ((n + 1 - j, n + 1 - i), True)}[g]


def reference_image(g, x):
    """``g`` of ``x`` as the normal form of the letter-mapped words, each
    reversed when ``g`` reverses products: no use of lemma 1's shortcut."""
    def mapped(w):
        letters = [reference_letter(g, x.n, a)[0] for a in w]
        return letters[::-1] if reference_letter(g, x.n, (1, 1))[1] else letters
    return normal_form(x.n, [(c, mapped(w)) for w, c in x.terms()])


class TestSymmetry:
    """``algebra.Symmetry``, the one owner of the group {1, T, F, tau}
    (README lemmas 1 and 1a), against the tests' own table of the maps."""

    def test_the_group_law(self):
        assert {(g.swap, g.reflect) for g in GROUP} == {(a, b) for a in (False, True) for b in (False, True)}
        for g in GROUP:
            assert g.then(g) is IDENTITY
            assert IDENTITY.then(g) is g
            assert g.sign == (-1 if reference_letter(g, 2, (1, 1))[1] else 1)
            for h in GROUP:
                assert g.then(h) is h.then(g)
        assert TRANSPOSE.then(FLIP) is ANTITRANSPOSE

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_letter(self, n):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for g in GROUP:
                    image, reverses = reference_letter(g, n, (i, j))
                    assert (g.letter((i, j), n), g.reflect) == (image, reverses)
                    assert g.element(t(n, i, j)) == reference_image(g, t(n, i, j)) == t(n, *image)

    def test_seeded_elements(self):
        xs = flip_sample(83)
        for x in xs:
            for g in GROUP:
                y = g.element(x)
                assert y == reference_image(g, x)
                assert all(list(w) == sorted(w) for w in y._t)
                for h in GROUP:
                    assert h.element(y) == g.then(h).element(x)

    def test_images_share_one_object_per_letter(self):
        """A map forms one image per distinct letter of the element mapped,
        and every image word reads it."""
        for x in flip_sample(97):
            for g in (TRANSPOSE, FLIP, ANTITRANSPOSE):
                letters = [a for w in g.element(x)._t for a in w]
                assert len(set(map(id, letters))) == len(set(letters))

    def test_products_are_kept_or_reversed(self):
        rng = random.Random(101)
        for n in (2, 3, 4):
            for _ in range(10):
                x, y = rand_element(rng, n), rand_element(rng, n)
                for g in GROUP:
                    gx, gy = g.element(x), g.element(y)
                    assert g.element(x * y) == (gy * gx if g.reflect else gx * gy)


@pytest.fixture
def systems(monkeypatch):
    """Every ``(D, basis, columns)`` the solver builds, recorded through its
    module global ``word_products``."""
    calls = []
    build = algebra.word_products

    def record(D, basis):
        out = build(D, basis)
        calls.append((D, basis, out))
        return out

    monkeypatch.setattr(ore, "word_products", record)
    clear_caches()
    return calls


class TestWordProducts:
    """``word_products`` gives ``D * b`` for every basis word ``b`` of a
    system from one walk; each one equals the product formed alone."""

    @staticmethod
    def assert_columns(D, basis, columns):
        assert columns.keys() == set(basis) and len(set(basis)) == len(basis)
        for b in basis:
            assert columns[b] == D * Element._make(D.n, {b: ONE}), (D, b)

    @staticmethod
    def items(n):
        labels = range(1, n + 1)
        return [(MinorId(K, L), k, l, side) for m in range(1, n) for K in combinations(labels, m)
                for L in combinations(labels, m) for k in labels for l in labels for side in SIDES]

    def test_every_n3_system(self, systems):
        for minor, k, l, side in self.items(3):
            solve_witness(3, minor, t(3, k, l), side)
        assert len(systems) == 114
        for D, basis, columns in systems:
            self.assert_columns(D, basis, columns)

    def test_a_seeded_n4_sample(self, systems):
        def interior(minor, k, l):  # seconds each from cold caches
            K, L = minor.rows, minor.cols
            return k not in K and l not in L and K[0] < k < K[-1] and L[0] < l < L[-1]

        items = [it for it in self.items(4) if not interior(*it[:3])]
        for minor, k, l, side in random.Random(97).sample(items, 150):
            solve_witness(4, minor, t(4, k, l), side)
        assert len(systems) > 100
        assert max(len(basis) for _, basis, _ in systems) > 20
        for D, basis, columns in systems:
            self.assert_columns(D, basis, columns)

    @pytest.mark.parametrize("c", [2**20, Fraction(1, 3)], ids=["bound", "rational"])
    def test_a_system_outside_the_invariant_is_walked_exactly(self, fallbacks, c):
        D = quantum_minor(3, (1, 3), (1, 3)).scale(c)
        basis = basis_monomials(3, (1, 2, 1), (2, 1, 1))
        del fallbacks[:]
        columns = algebra.word_products(D, basis)
        assert len(fallbacks) == 1
        self.assert_columns(D, basis, columns)

    def test_the_cap_is_checked_as_for_a_product(self, monkeypatch):
        D = quantum_minor(3, (1, 2), (1, 2))
        monkeypatch.setenv("QMB_MAX_DEGREE", "3")
        for words in ([((1, 1), (3, 3))], [((1, 1),), ((2, 2), (3, 3))]):
            with pytest.raises(DegreeCapError):
                algebra.word_products(D, words)
            with pytest.raises(DegreeCapError):
                D * Element._make(3, {words[-1]: ONE})
        assert algebra.word_products(D, [((3, 3),)]) == {((3, 3),): D * t(3, 3, 3)}
        assert algebra.word_products(D, []) == {}


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


def weight(word):
    """README lemma 2's weight: t[i,j] weighs i*j."""
    return sum(i * j for i, j in word)


class TestLeadingWords:
    """README lemma 2: a product of sorted words leads with their union."""

    def test_product_of_sorted_words(self):
        rng = random.Random(67)
        for _ in range(500):
            n = rng.randint(1, 5)
            u, v = (tuple(sorted(rand_word(rng, n, 4))) for _ in range(2))
            # pairs that are out of order across the factors and share a row or a column
            s = sum(1 for x in u for y in v if x > y and (x[0] == y[0] or x[1] == y[1]))
            lead = tuple(sorted(u + v))
            terms = dict(normal_form(n, [(1, u + v)]).terms())
            assert terms.pop(lead) == LaurentQ.q_power(-s)
            assert all(weight(w) < weight(lead) for w in terms)

    def test_minor_coefficients_are_signed_powers_of_q(self):
        """Every coefficient of every minor at n <= 5 is +-q^k, and the diagonal
        word leads with coefficient 1."""
        for n in range(1, 6):
            for m in range(1, n + 1):
                for rows in combinations(range(1, n + 1), m):
                    for cols in combinations(range(1, n + 1), m):
                        terms = dict(quantum_minor(n, rows, cols).terms())
                        assert all(c.is_monomial() and abs(c.terms[0][1]) == 1 for c in terms.values())
                        diagonal = tuple(zip(rows, cols))
                        assert terms.pop(diagonal) == ONE
                        assert all(weight(w) < weight(diagonal) for w in terms)


class TestDegreeCap:
    WORD = ((2, 2), (1, 2), (1, 1), (2, 1))  # unsorted, of degree 4

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("QMB_MAX_DEGREE", "3")
        a = Element(2, [(((1, 1),) * 2, 1)])
        with pytest.raises(DegreeCapError):
            a * a
        # term lists share one check, in Element(n, terms) and normal_form alike
        with pytest.raises(DegreeCapError):
            Element(2, [(self.WORD, 1)])
        with pytest.raises(DegreeCapError):
            normal_form(2, [(1, self.WORD[:1]), (1, self.WORD)])

    def test_cap_allows_boundary(self, monkeypatch):
        monkeypatch.setenv("QMB_MAX_DEGREE", "4")
        a = Element(2, [(((1, 1),) * 2, 1)])
        assert not (a * a).is_zero()
        product = t(2, 2, 2) * t(2, 1, 2) * t(2, 1, 1) * t(2, 2, 1)
        assert Element(2, [(self.WORD, 1)]) == normal_form(2, [(1, self.WORD)]) == product

    @pytest.mark.parametrize("c", [ONE, LaurentQ(Fraction(1, 3))], ids=["packed", "fallback"])
    def test_a_word_past_the_recursion_limit_hits_the_cap(self, monkeypatch, fallbacks, c):
        """An append recurses once per letter, so with the cap raised a
        1,020-letter word times ``t11`` is refused as ``DegreeCapError`` on
        either walk, and the append table serves the next product."""
        monkeypatch.setenv("QMB_MAX_DEGREE", "10000")
        word = ((1, 2),) * 340 + ((2, 1),) * 340 + ((2, 2),) * 340
        with pytest.raises(DegreeCapError, match="recursion depth"):
            Element._make(2, {word: c}) * t(2, 1, 1)
        assert bool(fallbacks) == (c != ONE)
        short = ((1, 2),) * 10 + ((2, 1),) * 10 + ((2, 2),) * 10
        assert Element._make(2, {short: c}) * t(2, 1, 1) == reference(2, [(c, short + ((1, 1),))])


class TestDegenerateSize:
    def test_n1_is_commutative_polynomials(self):
        x = t(1, 1, 1)
        assert x * x == Element(1, [(((1, 1), (1, 1)), 1)])
        assert commutator(x, x * x).is_zero()
        assert quantum_minor(1, (1,), (1,)) == x
