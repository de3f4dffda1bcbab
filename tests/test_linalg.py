"""Sparse exact elimination over Q(q), checked against a plain rational
solver at specialized q."""

import random
from fractions import Fraction

from qmb.algebra import Element
from qmb.linalg import solve_linear
from qmb.scalars import ONE, LaurentQ, QRational


def columns_of(A, b):
    """The dense system ``A x = b`` as sparse columns and a target keyed by row index."""
    cols = len(A[0]) if A else 0
    columns = [{i: row[j] for i, row in enumerate(A) if row[j]} for j in range(cols)]
    return columns, {i: v for i, v in enumerate(b) if v}


def fraction_gauss(A, b):
    """Independent oracle: naive Gaussian elimination over Fraction.

    Returns ``(rank, x)``: the leftmost independent columns pivot, free
    columns are zero, and ``x`` is None when the system is inconsistent."""
    rows, cols = len(A), len(A[0]) if A else 0
    M = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(A, b)]
    r = 0
    piv_cols = []
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        f = M[r][c]
        M[r] = [v / f for v in M[r]]
        for i in range(rows):
            if i != r and M[i][c]:
                g = M[i][c]
                M[i] = [v - g * w for v, w in zip(M[i], M[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, rows):
        if M[i][cols]:
            return r, None
    x = [Fraction(0)] * cols
    for i, c in enumerate(piv_cols):
        x[c] = M[i][cols]
    return r, x


def rand_laurent(rng):
    return LaurentQ({rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(rng.randint(0, 3))})


class TestSolveLinear:
    def test_known_system(self):
        q = LaurentQ.q_power(1)
        A = [[q, ONE], [ONE, q]]
        b = [q * q + ONE, q + q]
        sol = solve_linear(*columns_of(A, b))
        assert sol.consistent
        x, y = sol.solution
        assert QRational(q) * x + y == QRational(q * q + ONE)
        assert x + QRational(q) * y == QRational(q + q)

    def test_inconsistent_detected(self):
        A = [[ONE], [ONE]]
        b = [ONE, ONE + ONE]
        sol = solve_linear(*columns_of(A, b))
        assert not sol.consistent
        assert sol.rank == 1

    def test_random_consistent_systems_solved_exactly(self):
        # systems consistent by construction: b = A x_true
        rng = random.Random(97)
        for _ in range(50):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 4)
            A = [[rand_laurent(rng) for _ in range(cols)] for _ in range(rows)]
            x_true = [rand_laurent(rng) for _ in range(cols)]
            b = []
            for i in range(rows):
                acc = LaurentQ.zero()
                for j in range(cols):
                    acc = acc + A[i][j] * x_true[j]
                b.append(acc)
            sol = solve_linear(*columns_of(A, b))
            assert sol.consistent
            for i in range(rows):
                acc = QRational(0)
                for j in range(cols):
                    acc = acc + QRational(A[i][j]) * sol.solution[j]
                assert acc == QRational(b[i]), "exact solve does not satisfy the system"

    def test_random_inconsistency_agrees_with_specialized_oracle(self):
        # when the exact solver reports a solution it must also specialize;
        # when the specialized system is already unsolvable at a generic
        # point, the exact system cannot be solvable with denominators
        # regular there
        rng = random.Random(101)
        q0 = Fraction(5, 7)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 3)
            A = [[rand_laurent(rng) for _ in range(cols)] for _ in range(rows)]
            b = [rand_laurent(rng) for _ in range(rows)]
            sol = solve_linear(*columns_of(A, b))
            A0 = [[v.specialize(q0) for v in row] for row in A]
            b0 = [v.specialize(q0) for v in b]
            _, oracle = fraction_gauss(A0, b0)
            if sol.consistent:
                try:
                    x0 = [x.specialize(q0) for x in sol.solution]
                except ZeroDivisionError:
                    continue
                for i in range(rows):
                    assert sum(a * x for a, x in zip(A0[i], x0)) == b0[i]
                assert oracle is not None

    def test_sparse_systems_match_the_specialized_oracle(self):
        # tall sparse systems like the solver's, with columns that combine
        # earlier ones (so free columns exist) and right-hand sides inside
        # and outside the span: rank, consistency and the solution with the
        # leftmost pivot columns and free columns zero agree with the
        # oracle at a generic point
        rng = random.Random(4099)
        q0 = Fraction(5, 7)
        seen = {True: 0, False: 0}
        for _ in range(12):
            rows = rng.randint(30, 60)
            cols = rng.randint(10, 25)
            A = [[LaurentQ.zero()] * cols for _ in range(rows)]
            for j in range(cols):
                if j >= 2 and rng.random() < 0.3:
                    a, b = rng.sample(range(j), 2)
                    ca, cb = rand_laurent(rng), rand_laurent(rng)
                    for i in range(rows):
                        A[i][j] = ca * A[i][a] + cb * A[i][b]
                else:
                    for i in range(rows):
                        if rng.random() < 0.1:
                            A[i][j] = rand_laurent(rng)
            for inside in (True, False):
                if inside:
                    x_true = [rand_laurent(rng) for _ in range(cols)]
                    b = [sum((A[i][j] * x_true[j] for j in range(cols)), LaurentQ.zero())
                         for i in range(rows)]
                else:
                    b = [rand_laurent(rng) if rng.random() < 0.1 else LaurentQ.zero()
                         for _ in range(rows)]
                sol = solve_linear(*columns_of(A, b))
                A0 = [[v.specialize(q0) for v in row] for row in A]
                rank0, x0 = fraction_gauss(A0, [v.specialize(q0) for v in b])
                assert sol.rank == rank0
                assert sol.consistent == (x0 is not None)
                seen[sol.consistent] += 1
                if sol.consistent:
                    assert [x.specialize(q0) for x in sol.solution] == x0
                    for i in range(rows):
                        acc = sum((QRational(A[i][j]) * sol.solution[j] for j in range(cols)), QRational(0))
                        assert acc == QRational(b[i])
        assert seen[True] >= 12 and seen[False] >= 6

    def test_solution_verifies_even_with_denominators(self):
        q = LaurentQ.q_power(1)
        A = [[q - LaurentQ.q_power(-1)]]
        b = [ONE]
        sol = solve_linear(*columns_of(A, b))
        assert sol.consistent
        x = sol.solution[0]
        assert QRational(A[0][0]) * x == QRational(ONE)
        assert not x.is_laurent()

    def test_inputs_are_left_unchanged(self):
        q = LaurentQ.q_power(1)
        columns = [{0: q, 1: ONE}, {0: ONE, 2: q - ONE}, {1: q}]
        target = {0: q + ONE, 2: q}
        before = [dict(c) for c in columns], dict(target)
        sol = solve_linear(columns, target)
        assert sol.consistent and sol.equations == 3
        assert ([dict(c) for c in columns], dict(target)) == before

    def test_empty_target_gives_the_zero_solution(self):
        q = LaurentQ.q_power(1)
        sol = solve_linear([{0: q, 1: ONE}, {0: ONE, 1: q}, {1: ONE}], {})
        assert sol.consistent and sol.rank == 2 and sol.equations == 2
        assert sol.solution == [QRational(0)] * 3

    def test_empty_column_is_free_and_zero(self):
        q = LaurentQ.q_power(1)
        sol = solve_linear([{0: q}, {}, {1: ONE}], {0: q, 1: ONE + ONE})
        assert sol.consistent and sol.rank == 2 and sol.equations == 2
        assert sol.solution == [QRational(ONE), QRational(0), QRational(ONE + ONE)]

    def test_row_keys_may_be_words(self):
        # x1 * t11 + x2 * (t12 + t21) + x3 * t21 == 2 t11 - q t12 + t21 in the
        # n = 2 algebra: the term maps of elements are columns as they stand
        q = LaurentQ.q_power(1)
        gen = lambda i, j: Element.generator(2, i, j)
        columns = [gen(1, 1), gen(1, 2) + gen(2, 1), gen(2, 1)]
        target = gen(1, 1).scale(2) - gen(1, 2).scale(q) + gen(2, 1)
        sol = solve_linear([c._t for c in columns], target._t)
        assert sol.consistent and sol.rank == 3 and sol.equations == 3
        assert sol.solution == [QRational(ONE + ONE), QRational(-q), QRational(q + ONE)]
        numbered = {w: i for i, w in enumerate(target._t)}
        by_index = solve_linear([{numbered[w]: v for w, v in c._t.items()} for c in columns],
                                {numbered[w]: v for w, v in target._t.items()})
        assert by_index == sol

