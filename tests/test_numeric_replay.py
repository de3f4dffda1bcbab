"""Independent numeric replay of certified witnesses.

A witness computed with q as a formal parameter must stay valid at every
numeric q that avoids its excluded denominator zeros.  This module re-checks
witness equations at several rational values of q through a small reducer
written from scratch over plain Fractions: separate data structures, separate
reduction loop, no shared code with the package's engine beyond the relation
constants themselves.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

from qmb.algebra import Element, reduce_terms
from qmb.minors import MinorId
from qmb.ore import LEFT, RIGHT, solve_witness, witness_generator_constructive
from qmb.scalars import ONE


def reduce_numeric(n, q0, terms):
    """Normal form over Fraction coefficients at numeric q = q0."""
    qinv = Fraction(1) / q0
    corr = q0 - qinv
    acc = {}
    agenda = [(Fraction(c), tuple(w)) for c, w in terms]
    while agenda:
        c, w = agenda.pop()
        if not c:
            continue
        pos = -1
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                pos = i
                break
        if pos < 0:
            s = acc.get(w, Fraction(0)) + c
            if s:
                acc[w] = s
            elif w in acc:
                del acc[w]
            continue
        (a, b), (cc, d) = w[pos], w[pos + 1]
        rest_pre, rest_post = w[:pos], w[pos + 2 :]
        if a == cc or b == d:
            agenda.append((c * qinv, rest_pre + ((cc, d), (a, b)) + rest_post))
        elif b < d:
            agenda.append((c, rest_pre + ((cc, d), (a, b)) + rest_post))
        else:
            agenda.append((c, rest_pre + ((cc, d), (a, b)) + rest_post))
            agenda.append((-c * corr, rest_pre + ((cc, b), (a, d)) + rest_post))
    return acc


def numeric_minor(n, q0, rows, cols):
    m = len(rows)
    terms = []
    for perm in permutations(range(m)):
        inv = sum(1 for i in range(m) for j in range(i + 1, m) if perm[i] > perm[j])
        word = tuple((rows[i], cols[perm[i]]) for i in range(m))
        terms.append((Fraction(-q0) ** inv, word))
    return reduce_numeric(n, q0, terms)


def numeric_value(elem: Element, q0):
    return {w: c for w, c in elem.specialize(q0).items()}


def numeric_product(n, q0, p1, p2):
    terms = []
    for w1, c1 in p1.items():
        for w2, c2 in p2.items():
            terms.append((c1 * c2, w1 + w2))
    return reduce_numeric(n, q0, terms)


def numeric_power(n, q0, p, m):
    out = {(): Fraction(1)}
    for _ in range(m):
        out = numeric_product(n, q0, out, p)
    return out


def replay_witness(w, q0):
    """Re-check the witness equation at numeric q = q0 with the independent reducer.

    A single witness has ``D^power`` on the scaled side and ``D^target_power``
    on the cleared side; a chain (it has ``minors``) has
    ``D_1^{a_1} ... D_p^{a_p}`` and ``D_1 ... D_p``."""
    n = w.n
    if hasattr(w, "minors"):
        scaled, cleared = list(zip(w.minors, w.powers)), [(m, 1) for m in w.minors]
    else:
        scaled, cleared = [(w.minor, w.power)], [(w.minor, w.target_power)]

    def minor_product(factors):
        out = {(): Fraction(1)}
        for minor, k in factors:
            D = numeric_minor(n, q0, minor.rows, minor.cols)
            out = numeric_product(n, q0, out, numeric_power(n, q0, D, k))
        return out

    e = numeric_value(w.element, q0)
    cof = numeric_value(w.cofactor, q0)
    s = w.scale.specialize(q0)
    Dp = minor_product(scaled)
    Dt = minor_product(cleared)
    if w.side == LEFT:
        lhs = numeric_product(n, q0, Dp, e)
        rhs = numeric_product(n, q0, cof, Dt)
    else:
        lhs = numeric_product(n, q0, e, Dp)
        rhs = numeric_product(n, q0, Dt, cof)
    lhs = {k: v * s for k, v in lhs.items()}
    diff = dict(lhs)
    for k, v in rhs.items():
        nv = diff.get(k, Fraction(0)) - v
        if nv:
            diff[k] = nv
        elif k in diff:
            del diff[k]
    return diff


Q_POINTS = [Fraction(2), Fraction(3, 2), Fraction(-1), Fraction(5), Fraction(-7, 3)]


class TestNumericReplay:
    def test_reducer_agrees_with_engine_on_random_products(self):
        rng = random.Random(321)
        for _ in range(40):
            n = rng.choice((2, 3))
            w1 = tuple((rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 3)))
            w2 = tuple((rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 3)))
            exact = Element(n, [(w1, 1)]) * Element(n, [(w2, 1)])
            for q0 in (Fraction(2), Fraction(-3, 2)):
                assert numeric_value(exact, q0) == reduce_numeric(n, q0, [(1, w1 + w2)])

    def test_rewrite_rule_agrees_on_every_generator_pair(self):
        """Every out-of-order generator pair ``x > y`` at n = 3 and n = 4, both
        through the packed append (``Element``) and through ``rewrite_pair``
        (``reduce_terms``), equals the reducer above at two values of q."""
        cases = set()
        for n in (3, 4):
            gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
            for y, x in combinations(gens, 2):
                (a, b), (c, d) = x, y
                cases.add("q-swap" if a == c or b == d else "commute" if b < d else "correction")
                packed = Element(n, [((x, y), 1)])
                rewritten = Element._make(n, reduce_terms([(ONE, (x, y))]))
                for q0 in (Fraction(2), Fraction(-3, 2)):
                    expected = reduce_numeric(n, q0, [(1, (x, y))])
                    assert numeric_value(packed, q0) == expected, (x, y, q0)
                    assert numeric_value(rewritten, q0) == expected, (x, y, q0)
        assert cases == {"q-swap", "commute", "correction"}

    def test_solver_witnesses_replay_numerically(self):
        cases = [
            (2, MinorId((2,), (2,)), (1, 1)),
            (2, MinorId((1, 2), (1, 2)), (1, 2)),
            (3, MinorId((1, 2), (1, 3)), (1, 2)),
            (3, MinorId((2, 3), (2, 3)), (1, 1)),
        ]
        for n, minor, (k, l) in cases:
            for side in (LEFT, RIGHT):
                w = solve_witness(n, minor, Element.generator(n, k, l), side)
                excluded = {
                    root
                    for f in w.denominator_zeros
                    for root in Q_POINTS
                    if f.specialize(root) == 0
                }
                for q0 in Q_POINTS:
                    if q0 in excluded:
                        continue
                    assert replay_witness(w, q0) == {}, (minor, k, l, side, q0)

    def test_constructive_witnesses_replay_numerically(self):
        n = 3
        for m in (1, 2):
            for K in combinations((1, 2, 3), m):
                minor = MinorId(K, K)
                for k, l in ((1, 2), (3, 3), (2, 1)):
                    w = witness_generator_constructive(n, minor, k, l, LEFT)
                    for q0 in (Fraction(2), Fraction(-3, 2)):
                        assert replay_witness(w, q0) == {}, (minor, k, l, q0)
