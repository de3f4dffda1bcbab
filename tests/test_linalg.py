"""Forward substitution over Laurent polynomials on systems in a pivot order,
checked against a plain rational solver at specialized q."""

import random
from fractions import Fraction

import pytest

from qmb.algebra import Element
from qmb.linalg import solve_linear
from qmb.scalars import ONE, Q, QINV, LaurentQ, QRational


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


Q0 = Fraction(5, 7)


def specialized(columns, target, q0=Q0):
    """The sparse system at ``q = q0`` as a dense matrix and right-hand side."""
    keys = list(dict.fromkeys(key for col in (*columns, target) for key in col))
    A = [[col[k].specialize(q0) if k in col else Fraction(0) for col in columns] for k in keys]
    return A, [target[k].specialize(q0) if k in target else Fraction(0) for k in keys]


def assert_agrees_with_oracle(columns, target, sol, q0=Q0):
    """Rank, consistency and the solution at ``q0`` agree with :func:`fraction_gauss`."""
    rank0, x0 = fraction_gauss(*specialized(columns, target, q0))
    assert sol.rank == rank0 == len(columns)
    assert sol.consistent == (x0 is not None)
    if sol.consistent:
        assert [x.specialize(q0) for x in sol.solution] == x0


def rand_laurent(rng):
    return LaurentQ({rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(rng.randint(0, 3))})


def rand_monomial(rng):
    return LaurentQ({rng.randint(-3, 3): Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))})


def triangular_system(rng, rows, cols, density=0.15):
    """Tall sparse columns in a pivot order: column j has a monomial with a
    rational coefficient in its pivot row, which no later column touches, and
    random Laurent entries in rows that are no earlier column's pivot."""
    keys = rng.sample(range(10 * rows), rows)  # row keys need not be 0, 1, ...
    pivots = keys[:cols]
    columns = []
    for j in range(cols):
        allowed = keys[cols:] + pivots[j + 1:]
        col = {k: v for k in allowed if rng.random() < density for v in [rand_laurent(rng)] if v}
        col[pivots[j]] = rand_monomial(rng)
        columns.append(col)
    return columns


def combination(columns, x):
    """``sum_j x[j] * columns[j]`` as a term map."""
    out = {}
    for col, xj in zip(columns, x):
        for k, v in col.items():
            s = out.get(k, LaurentQ.zero()) + xj * v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


class TestSolveLinear:
    def test_inconsistent_detected(self):
        A = [[ONE], [ONE]]
        b = [ONE, ONE + ONE]
        sol = solve_linear(*columns_of(A, b))
        assert not sol.consistent
        assert sol.rank == 1

    def test_known_system(self):
        # q x = q^2 + q and x + q y = q^2 + q: x = q + 1, y = q - q^-1
        b = Q * Q + Q
        sol = solve_linear(*columns_of([[Q, LaurentQ.zero()], [ONE, Q]], [b, b]))
        assert sol.consistent and sol.rank == 2 and sol.equations == 2
        assert sol.solution == [Q + ONE, Q - QINV]

    def test_random_consistent_systems_solved_exactly(self):
        # systems consistent by construction: b = A x_true, with x_true found
        # again exactly, entries zero included
        rng = random.Random(97)
        for _ in range(50):
            cols = rng.randint(1, 5)
            columns = triangular_system(rng, rng.randint(cols, 8), cols, density=0.5)
            x_true = [rand_laurent(rng) for _ in range(cols)]
            sol = solve_linear(columns, combination(columns, x_true))
            assert sol.consistent and sol.rank == cols
            assert sol.solution == x_true
            assert all(type(x) is LaurentQ for x in sol.solution)

    def test_random_inconsistency_agrees_with_specialized_oracle(self):
        # random right-hand sides, mostly outside the span: the verdict, and a
        # solution when there is one, agree with the oracle at a generic point
        rng = random.Random(101)
        seen = {True: 0, False: 0}
        for _ in range(40):
            cols = rng.randint(1, 3)
            columns = triangular_system(rng, rng.randint(cols, cols + 3), cols, density=0.6)
            rows = sorted({k for col in columns for k in col})
            target = {k: v for k in rows for v in [rand_laurent(rng)] if v}
            sol = solve_linear(columns, target)
            assert_agrees_with_oracle(columns, target, sol)
            seen[sol.consistent] += 1
        assert seen[True] >= 10 and seen[False] >= 20

    def test_sparse_systems_match_the_specialized_oracle(self):
        # tall sparse unit-triangular systems like the solver's, with
        # right-hand sides inside and outside the span: the rank is the
        # column count, and consistency and the solution at a generic point
        # agree with the oracle; a solution is exact
        rng = random.Random(4099)
        seen = {True: 0, False: 0}
        for _ in range(12):
            cols = rng.randint(10, 25)
            columns = triangular_system(rng, rng.randint(cols + 5, 60), cols)
            rows = sorted({k for col in columns for k in col})
            inside = combination(columns, [rand_laurent(rng) for _ in range(cols)])
            outside = {k: v for k in rows if rng.random() < 0.1 for v in [rand_laurent(rng)] if v}
            for target in (inside, outside):
                sol = solve_linear(columns, target)
                assert_agrees_with_oracle(columns, target, sol)
                seen[sol.consistent] += 1
                if sol.consistent:
                    assert combination(columns, sol.solution) == target
        assert seen[True] >= 12 and seen[False] >= 6

    # no column order makes these triangular with monomials on the diagonal,
    # so they are refused rather than eliminated over the fraction field
    @pytest.mark.parametrize("columns", [
        [{0: Q - QINV}],
        [{0: Q}, {}, {1: ONE}],
        [{0: Q, 1: ONE}, {0: ONE, 1: Q}],
        [{0: ONE + Q, 1: ONE}, {1: Q}],
    ], ids=["binomial", "empty-column", "no-private-row", "private-binomial"])
    def test_a_system_with_no_pivot_order_is_refused(self, columns):
        with pytest.raises(ValueError, match="no monomial entry"):
            solve_linear(columns, {0: ONE})

    def test_inputs_are_left_unchanged(self):
        q = LaurentQ.q_power(1)
        columns = [{0: q, 1: ONE}, {1: ONE, 2: q - ONE}, {2: q}]
        target = {0: q + ONE, 2: q}
        before = [dict(c) for c in columns], dict(target)
        sol = solve_linear(columns, target)
        assert sol.consistent and sol.equations == 3
        assert ([dict(c) for c in columns], dict(target)) == before

    def test_empty_target_gives_the_zero_solution(self):
        q = LaurentQ.q_power(1)
        sol = solve_linear([{0: q, 1: ONE}, {1: q, 2: ONE}, {2: ONE}], {})
        assert sol.consistent and sol.rank == 3 and sol.equations == 3
        assert sol.solution == [LaurentQ.zero()] * 3

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

