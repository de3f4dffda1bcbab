"""Quantum minors and q-commutation probing.

A quantum minor is the q-determinant of a square submatrix: the signed
permutation sum with weights ``(-q)^inv(sigma)`` where ``inv`` counts
inversions.  Minors are built directly from that sum (submatrix sizes at desk
scale make the m! enumeration trivial; a minor larger than ``MAX_MINOR_SIZE``
raises ``DegreeCapError``) and stored in normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Optional, Sequence

from .algebra import DegreeCapError, Element, Symmetry, _check_cap
from .scalars import LaurentQ

IndexSet = tuple[int, ...]


def index_set(labels: Iterable[int]) -> IndexSet:
    """Validate and return a strictly increasing, nonempty label tuple."""
    t = tuple(labels)
    if not t:
        raise ValueError("index set must be nonempty")
    if any(type(v) is not int for v in t):
        raise ValueError(f"labels must be integers, got {t!r}")
    if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"labels must be strictly increasing, got {t!r}")
    return t


@dataclass(frozen=True)
class MinorId:
    """Names the minor with row set ``rows`` and column set ``cols``."""

    rows: IndexSet
    cols: IndexSet

    def __post_init__(self):
        object.__setattr__(self, "rows", index_set(self.rows))
        object.__setattr__(self, "cols", index_set(self.cols))
        if len(self.rows) != len(self.cols):
            raise ValueError(
                f"row and column sets must have equal cardinality, got {self.rows} and {self.cols}"
            )

    @classmethod
    def _make(cls, rows: IndexSet, cols: IndexSet) -> "MinorId":
        """A minor from label tuples that are valid by construction (an
        :meth:`image`), without validating them again."""
        out = object.__new__(cls)
        object.__setattr__(out, "rows", rows)
        object.__setattr__(out, "cols", cols)
        return out

    def size(self) -> int:
        return len(self.rows)

    def label(self) -> str:
        r = ",".join(map(str, self.rows))
        c = ",".join(map(str, self.cols))
        return f"D[{{{r}}},{{{c}}}]"

    def image(self, g: Symmetry, n: int) -> "MinorId":
        """The minor whose element is ``g.element`` of this one's: ``g`` maps
        the row and column sets (README lemmas 1 and 1a)."""
        return MinorId._make(*g.sets(self.rows, self.cols, n))


def inversions(perm: Sequence[int]) -> int:
    count = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                count += 1
    return count


# The largest minor expanded.  An m x m minor sums m! words.  On a 2-vCPU VM
# (Python 3.11), m = 7 expands in 0.07 s; at m = 8, ``D * t[1,1]`` takes 18 s
# and 700 MB, and at m = 9 the expansion alone takes 13 s.
MAX_MINOR_SIZE = 7

# The largest matrix size n.  Multidegrees are lists of length n, so the cost
# of even one generator grows with n: on the same VM, ``qmb ore`` for
# ``t[2,2]`` against ``D[{1},{1}]`` takes 0.12 s and 16 MB at n = 10^3 and
# 1.6 s and 85 MB at n = 10^6; at n = 10^18 the list alone is a MemoryError.
MAX_MATRIX_SIZE = 1000


def check_matrix_size(n: int) -> None:
    """Refuse a matrix size above ``MAX_MATRIX_SIZE`` (``DegreeCapError``)."""
    if n > MAX_MATRIX_SIZE:
        raise DegreeCapError(f"matrix size {n} exceeds the largest supported size {MAX_MATRIX_SIZE}")


@lru_cache(maxsize=4096)
def _minor_columns_cached(n: int, rows: tuple, cols: tuple) -> Element:
    """Every expansion of a minor passes here, after the one check of its
    labels against ``n``; one past ``MAX_MINOR_SIZE`` is refused before its
    permutations are enumerated.  The rows increase, so the m! words are
    sorted and distinct: the sum is already in normal form."""
    if min(rows + cols) < 1 or max(rows + cols) > n:
        raise ValueError(f"labels must lie in 1..n for the matrix size n = {n}")
    m = len(rows)
    if m > MAX_MINOR_SIZE:
        raise DegreeCapError(f"a minor of size {m} exceeds the largest expanded size {MAX_MINOR_SIZE}")
    _check_cap(m)
    terms = {}
    for perm in permutations(range(m)):
        inv = inversions(perm)
        terms[tuple((rows[i], cols[perm[i]]) for i in range(m))] = LaurentQ({inv: (-1) ** inv})
    return Element._make(n, terms)


def quantum_minor_columns(n: int, rows: Iterable[int], col_list: Sequence[int]) -> Element:
    """Permutation-sum q-determinant over an explicitly ordered column list.

    The column list may be unsorted; the sum is taken literally over the list
    as given.  Column lists in different orders give genuinely different
    elements (the q-determinant is not alternating), which is why the sorted
    form below is the canonical one.
    """
    rows = index_set(rows)
    cols = tuple(col_list)
    if len(set(cols)) != len(cols):
        raise ValueError(f"column labels must be distinct, got {cols!r}")
    if len(rows) != len(cols):
        raise ValueError("row and column lists must have equal length")
    return _minor_columns_cached(n, rows, cols)


def quantum_minor(n: int, rows: Iterable[int], cols: Iterable[int]) -> Element:
    """The quantum minor ``D`` for sorted row and column sets."""
    return minor_element(n, MinorId(rows, cols))


def minor_element(n: int, minor: MinorId) -> Element:
    """The expanded minor (``MinorId`` checks its labels, but not against ``n``)."""
    return _minor_columns_cached(n, minor.rows, minor.cols)


def column_replace(labels: Iterable[int], position: int, label: int) -> IndexSet:
    """Replace the entry at 1-based ``position`` with ``label`` and re-sort.

    The new label must not already occur in the list.
    """
    t = index_set(labels)
    if not (1 <= position <= len(t)):
        raise ValueError(f"position {position} out of range for {t!r}")
    if label in t:
        raise ValueError(f"label {label} already present in {t!r}")
    replaced = t[: position - 1] + (label,) + t[position:]
    return tuple(sorted(replaced))


def qcommutation_probe(a: Element, b: Element) -> Optional[int]:
    """The unique integer r with ``NF(ab) = q^r NF(ba)``, or None.

    Both inputs must be nonzero and homogeneous; the probe measures the
    exponent, it never assumes one.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("q-commutation probe requires nonzero inputs")
    if a.multidegree() is None or b.multidegree() is None:
        raise ValueError("q-commutation probe requires homogeneous inputs")
    return qcommutation_exponent(a * b, b * a)


def qcommutation_exponent(ab: Element, ba: Element) -> Optional[int]:
    """The unique integer r with ``ab = q^r ba`` for two formed products
    ``ab`` and ``ba`` of nonzero homogeneous elements, or None.  ``r`` is read
    from any one word of ``ab`` and checked on every word of ``ba`` by one shift."""
    if len(ab._t) != len(ba._t):
        return None
    if not ab._t:
        return 0
    w, c = next(iter(ab._t.items()))
    if w not in ba._t:
        return None
    r = c.min_exp() - ba._t[w].min_exp()
    if all(ab._t.get(v) == cv.shift(r) for v, cv in ba._t.items()):
        return r
    return None
