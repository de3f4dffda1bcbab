"""Exact linear algebra over the rational-function field in q.

A system arrives as sparse columns: each unknown's column, and the target,
map a row key (for the solver, a PBW word) to its nonzero entry, so no dense
grid is ever built.  The systems are mostly zeros (the largest at n = 4,
370 x 120, is 3 % nonzero), so each row is a dict ``{column: QRational}``
holding only its nonzero entries, and Gauss-Jordan elimination runs over the
canonical rational functions.  Columns are visited left to right, so the
pivot columns are the leftmost independent ones and free columns are set to
zero; since every value is canonical, the solution does not depend on which
row supplies a pivot, nor on how the rows are numbered.

The elimination itself assumes nothing about the system.  The witness
systems of :mod:`qmb.ore` are unit-triangular on their leading rows (README
lemma 2), so they have full column rank and a feasible one has a Laurent
solution: every entry has denominator 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Optional, Sequence

from .scalars import QRational

_QZERO = QRational(0)


@dataclass(frozen=True)
class LinearSolution:
    """Outcome of solving ``A x = b`` over rational functions in q.

    ``solution`` is None when the system is inconsistent.  Free columns (if
    any) are set to zero.  ``rank`` is the rank of the coefficient matrix and
    ``equations`` its number of rows, the distinct row keys.
    """

    solution: Optional[list[QRational]]
    rank: int
    consistent: bool
    equations: int


def _size(v: QRational) -> int:
    return len(v.num.terms) + len(v.den.terms)


def solve_linear(columns: Sequence[Mapping], target: Mapping) -> LinearSolution:
    """Solve ``sum_j x_j * columns[j] == target``, reading but never changing the maps.

    Each map takes a row key to a nonzero LaurentQ; rows are numbered by first appearance."""
    cols = len(columns)
    # sparse augmented rows; the right-hand side sits under key ``cols``
    keyed: dict[Hashable, dict[int, QRational]] = {}
    for j, col in enumerate((*columns, target)):
        for key, v in col.items():
            keyed.setdefault(key, {})[j] = QRational(v)
    R = list(keyed.values())

    free = set(range(len(R)))  # rows that have not supplied a pivot
    pivots: list[tuple[int, int]] = []  # (column, row), row scaled to 1 there
    for c in range(cols):
        candidates = [i for i in free if c in R[i]]
        if not candidates:
            continue
        # fewest nonzeros, then the smallest entry, then the lowest index
        p = min(candidates, key=lambda i: (len(R[i]), _size(R[i][c]), i))
        free.discard(p)
        head = R[p].pop(c)
        prow = {j: v / head for j, v in R[p].items()}
        R[p] = prow
        for row in R:
            if c not in row:
                continue
            f = row.pop(c)
            for j, v in prow.items():
                s = row.get(j, _QZERO) - f * v
                if s:
                    row[j] = s
                else:
                    row.pop(j, None)
        pivots.append((c, p))

    rank = len(pivots)
    # every column is now eliminated outside its pivot row, so a row that
    # supplied no pivot holds at most its right-hand side
    if any(R[i] for i in free):
        return LinearSolution(None, rank, False, len(R))
    x = [_QZERO] * cols
    for c, p in pivots:
        x[c] = R[p].get(cols, _QZERO)
    return LinearSolution(x, rank, True, len(R))

