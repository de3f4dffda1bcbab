"""Exact forward substitution over Laurent polynomials in q.

A system arrives as sparse columns: each unknown's column, and the target,
map a row key (for the solver, a PBW word) to its nonzero LaurentQ entry, so
no dense grid is built.  Each column must hold a monomial ``c*q^k`` in a row,
its *pivot*, that no later column touches; a system without this order
raises ``ValueError``.  The pivot rows form a triangular block with
monomials on its diagonal, so the rank is the number of columns and one
forward pass, dividing only by monomials, finds the one candidate solution.
The check is made on every call, so the verdict holds for any input; the
witness systems of :mod:`qmb.ore` pass it (README lemma 2(c)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .scalars import LaurentQ

_ZERO = LaurentQ.zero()


@dataclass(frozen=True)
class LinearSolution:
    """Outcome of solving ``A x = b`` over Laurent polynomials in q.

    ``solution`` is None when the system is inconsistent.  ``rank`` is the
    rank of the coefficient matrix, its number of columns, and ``equations``
    its number of rows, the distinct row keys.
    """

    solution: Optional[list[LaurentQ]]
    rank: int
    consistent: bool
    equations: int


def solve_linear(columns: Sequence[Mapping], target: Mapping) -> LinearSolution:
    """Solve ``sum_j x_j * columns[j] == target``, reading but never changing the maps.

    Each unknown is read off its pivot row of the residual, which starts as
    the target, and its column is subtracted; the system is consistent
    exactly when nothing is left."""
    rows: set = set()  # in the reverse pass: the rows the later columns touch
    pivots = []
    for j in range(len(columns) - 1, -1, -1):
        col = columns[j]
        p = next((key for key, v in col.items() if key not in rows and v.is_monomial()), None)
        if p is None:
            raise ValueError(f"column {j} has no monomial entry in a row that no later column touches")
        pivots.append(p)
        rows.update(col)
    rows.update(target)

    residual = dict(target)
    x = []
    for col, p in zip(columns, reversed(pivots)):
        r = residual.get(p)
        if r is None:
            x.append(_ZERO)
            continue
        xj = r * col[p] ** -1
        x.append(xj)
        neg = -xj
        for key, v in col.items():
            s = residual.get(key, _ZERO) + neg * v
            if s:
                residual[key] = s
            else:
                del residual[key]
    consistent = not residual
    return LinearSolution(x if consistent else None, len(columns), consistent, len(rows))
