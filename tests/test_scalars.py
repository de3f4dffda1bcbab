"""Exact scalar arithmetic tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmb.exprparse import ExprSyntaxError, parse_laurent
from qmb.scalars import ONE, Q, QINV, Q_MINUS_QINV, LaurentQ, QRational


def L(**terms):
    # L(e2=3) -> 3*q^2 ; keys like em1 mean exponent -1
    parsed = {}
    for key, coeff in terms.items():
        e = int(key[1:].replace("m", "-"))
        parsed[e] = Fraction(coeff)
    return LaurentQ(parsed)


class TestLaurentArithmetic:
    def test_inverse_pair(self):
        assert Q * QINV == ONE

    def test_difference_of_squares(self):
        assert Q_MINUS_QINV * (Q + QINV) == LaurentQ({2: 1, -2: -1})

    def test_gap_coefficient_identity(self):
        # q^-1 (q - q^-1) == 1 - q^-2, the bridge between the two gap formulas
        assert QINV * Q_MINUS_QINV == ONE - LaurentQ.q_power(-2)

    def test_canonical_uniqueness(self):
        a = LaurentQ([(2, Fraction(1)), (0, Fraction(3)), (2, Fraction(-1))])
        assert a == LaurentQ(3)
        assert a.terms == ((0, Fraction(3)),)

    def test_zero_pruning(self):
        assert (Q - Q).is_zero()
        assert LaurentQ({5: 0}).is_zero()

    def test_negative_power_of_monomial_only(self):
        assert LaurentQ.q_power(3) ** -2 == LaurentQ.q_power(-6)
        with pytest.raises(ValueError):
            (Q + ONE) ** -1


class TestSpecialize:
    def test_classical_limit_kills_deformation(self):
        assert Q_MINUS_QINV.specialize(1) == 0
        assert (ONE - LaurentQ.q_power(-2)).specialize(1) == 0

    def test_plain_value(self):
        assert LaurentQ.q_power(2).specialize(2) == 4
        assert L(e0=3, em1=1).specialize(Fraction(1, 2)) == 5

    def test_zero_point_rejected(self):
        with pytest.raises(ValueError):
            Q.specialize(0)


class TestQRational:
    def test_inverse_cancels(self):
        x = QRational(ONE, Q_MINUS_QINV)
        assert x * QRational(Q_MINUS_QINV) == QRational(ONE)

    def test_exact_laurent_division(self):
        got = QRational(ONE - LaurentQ.q_power(-2)) / QRational(QINV)
        assert got == QRational(Q_MINUS_QINV)
        assert got.is_laurent()

    def test_gcd_reduction(self):
        got = QRational(LaurentQ({2: 1, 0: -1}), LaurentQ({1: 1, 0: -1}))
        assert got == QRational(Q + ONE)

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            QRational(ONE) / QRational(0)
        with pytest.raises(ZeroDivisionError):
            QRational(ONE, LaurentQ(0))

    def test_denominator_normalization_unique(self):
        a = QRational(Q, LaurentQ({1: 2, 3: -2}))
        b = QRational(-Q, LaurentQ({1: -2, 3: 2}))
        assert a == b
        assert a.den.min_exp() == 0
        assert a.den.terms[-1][1] > 0


laurents = st.builds(
    LaurentQ,
    st.dictionaries(
        st.integers(min_value=-4, max_value=4),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        max_size=4,
    ),
)


class TestRingAxioms:
    @given(laurents, laurents, laurents)
    @settings(max_examples=150, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(laurents, laurents)
    @settings(max_examples=100, deadline=None)
    def test_specialize_is_a_ring_homomorphism(self, a, b):
        for q0 in (Fraction(1), Fraction(2), Fraction(-3, 2)):
            assert (a * b).specialize(q0) == a.specialize(q0) * b.specialize(q0)
            assert (a + b).specialize(q0) == a.specialize(q0) + b.specialize(q0)

    @given(laurents)
    @settings(max_examples=150, deadline=None)
    def test_render_parse_round_trip(self, a):
        assert parse_laurent(a.render()) == a

    @pytest.mark.parametrize("text", ["1/0", "3/00", "q + 2/0*q^2"])
    def test_zero_denominator_rejected(self, text):
        with pytest.raises(ValueError):
            parse_laurent(text)

    def test_word_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_laurent("t[1,1]")


class TestDivexact:
    def test_exact(self):
        p = Q_MINUS_QINV * (Q + QINV) * LaurentQ({0: Fraction(3, 2)})
        assert p.divexact(Q + QINV) == Q_MINUS_QINV * LaurentQ({0: Fraction(3, 2)})

    def test_inexact_rejected(self):
        with pytest.raises(ValueError):
            (Q + ONE).divexact(Q - ONE)

    def test_gcd_primitive_positive(self):
        a = LaurentQ({3: 2, 1: -2})   # 2q(q^2 - 1)
        b = LaurentQ({2: 4, 1: -8, 0: 4})  # 4(q-1)^2
        g = LaurentQ.gcd(a, b)
        assert g == LaurentQ({1: 1, 0: -1})


class TestFastPaths:
    """The shortcuts for LaurentQ operands, monomial gcds and unit denominators
    return the same canonical values as the general paths."""

    @staticmethod
    def rand_laurent(rng, size=4):
        return LaurentQ({rng.randint(-3, 3): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                         for _ in range(rng.randint(0, size))})

    @staticmethod
    def rand_monomial(rng):
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))
        return LaurentQ({rng.randint(-4, 4): c})

    def test_gcd_with_a_monomial_is_one(self):
        rng = random.Random(11)
        for _ in range(200):
            a, m = self.rand_laurent(rng), self.rand_monomial(rng)
            assert LaurentQ.gcd(a, m) == ONE
            assert LaurentQ.gcd(m, a) == ONE

    def test_unit_denominator_is_canonical(self):
        rng = random.Random(12)
        for _ in range(200):
            a, m = self.rand_laurent(rng), self.rand_monomial(rng)
            for value in (QRational(a), QRational(a * m, m), QRational(a, ONE)):
                assert value == QRational(a)
                assert value.den.is_one()
                assert value.num.terms == a.terms

    def test_mixed_operands_are_canonical(self):
        rng = random.Random(13)
        for _ in range(200):
            a = self.rand_laurent(rng)
            x = rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 3))])
            plus = dict(a.terms)
            plus[0] = plus.get(0, 0) + x
            minus = dict(a.terms)
            minus[0] = minus.get(0, 0) - x
            times = {e: c * x for e, c in a.terms}
            negated = {e: -c for e, c in minus.items()}
            for got, want in ((a + x, plus), (x + a, plus), (a - x, minus), (x - a, negated),
                              (a * x, times), (x * a, times), (a + LaurentQ(x), plus),
                              (a - LaurentQ(x), minus), (a * LaurentQ(x), times)):
                assert got.terms == LaurentQ(want).terms

    def test_fraction_results_are_canonical(self):
        # an integral Fraction sum or product is stored as int, as the constructor does
        def typed(p):
            return [(e, c, type(c)) for e, c in p.terms]

        half = LaurentQ({0: Fraction(1, 2)})
        assert typed(half + half) == typed(half * LaurentQ(2)) == [(0, 1, int)]
        rng = random.Random(14)
        for _ in range(200):
            a, b = self.rand_laurent(rng), self.rand_laurent(rng)
            plus = dict(a.terms)
            for e, c in b.terms:
                plus[e] = plus.get(e, 0) + c
            times: dict = {}
            for e1, c1 in a.terms:
                for e2, c2 in b.terms:
                    times[e1 + e2] = times.get(e1 + e2, 0) + c1 * c2
            assert typed(a + b) == typed(LaurentQ(plus))
            assert typed(a * b) == typed(LaurentQ(times))
            assert typed(LaurentQ(list(a.terms) + list(b.terms))) == typed(LaurentQ(plus))

    def test_equality_matches_the_general_path(self):
        """``==`` takes a LaurentQ operand first; against int, Fraction and
        LaurentQ operands, either way round, it answers as the general path:
        the term tuples of the operand coerced to a LaurentQ."""
        def general(a, x):
            return a.terms == (x if isinstance(x, LaurentQ) else LaurentQ(x)).terms

        rng = random.Random(15)
        for _ in range(300):
            a = self.rand_laurent(rng, 2)
            c = dict(a.terms).get(0, 0) if len(a.terms) < 2 else rng.randint(-3, 3)
            for x in (c, Fraction(c), Fraction(rng.randint(-5, 5), rng.randint(1, 3)), LaurentQ(c),
                      LaurentQ(dict(a.terms)), self.rand_laurent(rng, 2)):
                assert (a == x) is (x == a) is general(a, x)
                assert (a != x) is (x != a) is (not general(a, x))
        assert ONE == 1 and 1 == ONE and LaurentQ({0: Fraction(1, 2)}) == Fraction(1, 2)
        assert ONE == QRational(ONE) and QRational(Q) == Q and Q != QRational(ONE)
        for other in (1.0, "1", None, (0, 1)):
            assert ONE != other and not (ONE == other)

    def test_other_operands_are_left_to_their_own_type(self):
        a = Q + ONE
        for other in (1.5, "q", [1], object(), None):
            for op in (lambda: a + other, lambda: other + a, lambda: a - other,
                       lambda: a * other, lambda: other * a):
                with pytest.raises(TypeError):
                    op()
        assert a + QRational(ONE, a) == QRational(a * a + ONE, a)
