"""The quantum matrix algebra on an n x n array of generators.

Elements are finite Laurent-coefficient combinations of normal-ordered words
in the generators ``t[i,j]``.  A word is normal-ordered when its letters are
non-decreasing in the lexicographic order on ``(row, col)``; the defining
quadratic relations orient into a terminating, confluent rewrite system with
respect to that order, so every element has a unique normal form (a PBW
basis representation).

The rewrite rule for an adjacent out-of-order pair ``x = t[a,b]``,
``y = t[c,d]`` with ``(a,b) > (c,d)``:

* same row or same column:        ``x y -> q^-1 y x``
* ``a > c`` and ``b < d``:        ``x y -> y x``
* ``a > c`` and ``b > d``:        ``x y -> y x - (q - q^-1) t[c,b] t[a,d]``

Every rule preserves the multiset of row labels and of column labels, so the
algebra is graded by that pair of multisets (the multidegree); all searches
downstream are confined to finite multidegree components.

Every normal form comes from one routine, ``_mul_terms``, except that of a
product with a scalar factor ``{(): c}``: the scalar is central and the other
factor already normal, so that product is ``scale(c)``.  A product walks
the right factor's words as a prefix trie, extending the whole left factor
one generator at a time, and the walk hands back each right word's state
``left * v``: a product sums them with the right factor's coefficients, and
``word_products`` keeps each, which gives the solver all the columns of a
system from one walk.  A term list, whose words need not be sorted, is the
right factor of ``1 * terms``.  The walk splits each state word before its
first letter above the generator: the letters before never move (README
lemma 5), so they are put back in front of the normal form of the rest times
the generator.  That normal form, for a non-empty rest, comes from the
append table, keyed by the rest, every letter of which is above the
generator; the table is the only rewrite cache.  The agenda reducer
``reduce_terms`` is kept only as the tests' independent reference.

Inside the walk and in the table a coefficient ``q^e * sum_k c_k q^k`` is
packed into the pair ``(e, P)``, ``P = sum_k c_k B^k`` with ``B = 2^64``
(Kronecker substitution): a product is ``(e1 + e2, P1 * P2)``, a sum one
shift and one add, a zero test ``not P``.  The invariant (README lemma 3):
every digit ``c_k`` is an integer in ``[-2^20, 2^20)``, there are at most 64
of them, and ``c_0 != 0``.  Proof sketch: a digit of a product of two
such values is a sum of at most 64 products of digits, so at most ``2^46`` in
absolute value; a trie step adds at most ``len(state)`` products into one
word, the final accumulation at most ``len(right)``, and both are checked
below ``2^17``, so every digit stays below ``2^63`` and the balanced base-B
digits of ``P`` are the true coefficients.  Every state and table entry is
re-checked with one biased add and one mask (``_check``), which accepts
exactly the values inside the invariant.  A rational coefficient, a digit
outside the range, exponents 64 or more apart in one coefficient or one sum,
or a state or entry that fails the check sends the whole product to
``_fallback``: the same walk on ``LaurentQ``, exact on any coefficients,
which reads the table's entries unpacked.  It forms an entry that fails the
check, for that product alone, as ``word[:-1]`` times the normal form of
``word[-1] g`` that ``rewrite_pair`` gives, so the rule is written packed in
``_append_gen`` and on ``LaurentQ`` in ``rewrite_pair``.  Elements and the
API keep ``LaurentQ``.
"""

from __future__ import annotations

import math
import os
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .scalars import ONE, Q_MINUS_QINV, QINV, LaurentQ, ScalarLike

Gen = tuple[int, int]
Word = tuple[Gen, ...]

DEGREE_CAP_ENV = "QMB_MAX_DEGREE"
_DEFAULT_DEGREE_CAP = 16


class ContextMismatchError(ValueError):
    """Raised when elements from different-size algebras are combined."""


class DegreeCapError(RuntimeError):
    """Raised when a normal-form computation would exceed the degree cap."""


def _read_int(text: str) -> int:
    """``text`` as an integer in ASCII digits ``[0-9]+``: no sign, no ``_``,
    no other script's digits.  Anything else raises ``ValueError``; digits
    past Python's integer-digit limit raise ``DegreeCapError``, which names
    their count, before any conversion.  Every integer ``qmb`` reads from
    text (the INT token, the CLI options, ``QMB_MAX_DEGREE``) goes through it."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError("not an integer in ASCII digits")
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit:
        raise DegreeCapError(f"an integer of {len(text)} digits exceeds the integer limit of {limit} digits")
    return int(text)


def degree_cap() -> int:
    raw = os.environ.get(DEGREE_CAP_ENV)
    if raw is None:
        return _DEFAULT_DEGREE_CAP
    try:
        cap = _read_int(raw.strip())
    except ValueError:
        raise ValueError(f"{DEGREE_CAP_ENV} must be an integer in ASCII digits, got {raw!r}") from None
    except DegreeCapError as exc:
        raise ValueError(f"{DEGREE_CAP_ENV}: {exc}") from None
    if cap < 1:
        raise ValueError(f"{DEGREE_CAP_ENV} must be positive")
    return cap


def _check_cap(deg: int, what: str = "normal-form degree") -> None:
    cap = degree_cap()
    if deg > cap:
        shown = deg
        if deg.bit_length() > 64:  # named by its digit count, found without writing it
            d = int(math.log10(deg))  # out: Python refuses past its integer-digit limit
            while 10**d <= deg:
                d += 1
            shown = f"of {d} digits"
        raise DegreeCapError(f"{what} {shown} exceeds cap {cap} (set {DEGREE_CAP_ENV} to raise)")


# -- word-level rewriting ------------------------------------------------------

_LIM = 1 << 20  # every digit c satisfies -_LIM <= c < _LIM
_SPAN = 64  # digits per packed value, at most
_MAX_TERMS = 1 << 17  # contributions to one word of one sum, fewer than this
_DIGIT = (1 << 64) - 1
_HALF = 1 << 63
_BIAS = sum(_LIM << (64 * k) for k in range(_SPAN))
# (P + _BIAS) & _OUTSIDE == 0 exactly when P satisfies the invariant
_OUTSIDE = ~sum(((2 * _LIM) - 1) << (64 * k) for k in range(_SPAN))

Packed = tuple[int, int]


class _Unpackable(Exception):
    """A coefficient outside the packing invariant (README lemma 3)."""


def _check(values: Iterable[Packed]) -> None:
    """Raise ``_Unpackable`` unless every value satisfies the invariant; one
    digit in range passes at once, a longer value needs one add and one mask."""
    for _, p in values:
        if not -_LIM <= p < _LIM and (p + _BIAS) & _OUTSIDE:
            raise _Unpackable


def _pack(cf: LaurentQ) -> Packed:
    t = cf._terms
    e0 = t[0][0]
    if t[-1][0] - e0 >= _SPAN:
        raise _Unpackable
    p = 0
    for e, c in t:
        if type(c) is not int or not -_LIM <= c < _LIM:
            raise _Unpackable
        p += c << ((e - e0) << 6)
    return (e0, p)


# one shared object per monomial +-q^k, packed and unpacked: most coefficients
# of the append table and of products are such monomials
_PACKED_UNITS: dict[Packed, Packed] = {}
_LAURENT_UNITS: dict[Packed, LaurentQ] = {}


def _shared(v: Packed) -> Packed:
    return _PACKED_UNITS.setdefault(v, v) if v[1] == 1 or v[1] == -1 else v


def _unpack(v: Packed) -> LaurentQ:
    e, p = v
    if p == 1 or p == -1:
        out = _LAURENT_UNITS.get(v)
        if out is None:
            out = _LAURENT_UNITS[v] = LaurentQ._raw(((e, p),))
        return out
    terms = []
    while p:
        c = ((p + _HALF) & _DIGIT) - _HALF
        if c:
            terms.append((e, c))
        p = (p - c) >> 64
        e += 1
    return LaurentQ._raw(tuple(terms))


_P_ONE: Packed = (0, 1)
_QINV_MINUS_Q = 1 - (1 << 128)  # q^-1 - q is (-1, _QINV_MINUS_Q)
_MINUS_QMQI = -Q_MINUS_QINV

# (sorted word whose every letter is above the generator, generator) -> tuple of (sorted word, packed coefficient)
_APPEND_CACHE: dict[tuple[Word, Gen], tuple[tuple[Word, Packed], ...]] = {}


def _append_gen(word: Word, g: Gen) -> tuple[tuple[Word, Packed], ...]:
    """Normal form of (sorted word) * (generator), as sorted words with packed coefficients.

    A sorted append is the concatenation, formed on demand.  Every other call
    has every letter of ``word`` above ``g``: ``_walk`` passes only the suffix
    of a state word past ``bisect_right(word, g)`` and puts the prefix, whose
    letters never move (README lemma 5), back in front.  So no key holds a
    letter at most its generator.  Every output letter is at most max(word
    letters, g), so appending a dominating letter stays sorted; the recursion
    below relies on this.  Its correction term ``p t[c,b] t[a,d]`` is walked,
    so its prefixes are split too.  An entry outside the packing invariant
    raises ``_Unpackable`` and is not stored.
    """
    if not word or word[-1] <= g:
        return ((word + (g,), _P_ONE),)
    key = (word, g)
    hit = _APPEND_CACHE.get(key)
    if hit is not None:
        return hit
    x = word[-1]
    p = word[:-1]
    a, b = x
    c, d = g
    if a == c or b == d:
        out = tuple((w + (x,), _shared((e - 1, cp))) for w, (e, cp) in _append_gen(p, g))
    elif b < d:
        out = tuple((w + (x,), cf) for w, cf in _append_gen(p, g))
    else:
        acc: dict[Word, Packed] = {w + (x,): cf for w, cf in _append_gen(p, g)}
        for _, corr in _walk({p: _P_ONE}, (((c, b), (a, d)),), _append_gen, _add_scaled, _check_state):
            _add_scaled(acc, corr.items(), (-1, _QINV_MINUS_Q))
        _check(acc.values())
        out = tuple(sorted((w, _shared(v)) for w, v in acc.items()))
    _APPEND_CACHE[key] = out
    return out


def _add_scaled(acc: dict[Word, Packed], terms: Iterable[tuple[Word, Packed]], c: Packed, pre: Word = ()) -> None:
    """``acc += c * pre * terms`` on packed values, dropping words whose coefficient
    cancels; a sum whose lowest digit cancels drops its zero low digits, and
    a sum of values whose exponents lie 64 or more apart is not formed."""
    ce, cp = c
    for w, (e, p) in terms:
        w = pre + w
        e += ce
        p *= cp
        s = acc.get(w)
        if s is None:
            acc[w] = (e, p)
            continue
        se, sp = s
        gap = e - se
        if not gap:
            sp += p
            if not sp:
                del acc[w]
                continue
            while not sp & _DIGIT:
                sp >>= 64
                se += 1
            acc[w] = (se, sp)
        elif 0 < gap < _SPAN:
            acc[w] = (se, sp + (p << (gap << 6)))
        elif -_SPAN < gap < 0:
            acc[w] = (e, p + (sp << (-gap << 6)))
        else:  # the shifted integer would be as long as the gap
            raise _Unpackable


def _add_exact(acc: dict[Word, LaurentQ], terms: Iterable[tuple[Word, LaurentQ]], c: LaurentQ, pre: Word = ()) -> None:
    """``acc += c * pre * terms`` on ``LaurentQ``, dropping words whose coefficient cancels."""
    for w, cf in terms:
        w = pre + w
        s = acc.get(w)
        s = c * cf if s is None else s + c * cf
        if s.is_zero():
            acc.pop(w, None)
        else:
            acc[w] = s


def _check_state(state: dict[Word, Packed]) -> None:
    """Raise ``_Unpackable`` unless the state has fewer than ``2^17`` words, all packed."""
    if len(state) >= _MAX_TERMS:
        raise _Unpackable
    _check(state.values())


def _walk(left: dict, words: Iterable[Word], entry, add, check=None):
    """Yield ``(v, left * v)`` for each word ``v`` of ``words``, in sorted
    order and in either arithmetic: ``entry(w, g)`` is the append entry of
    ``(w, g)`` and ``add(acc, terms, c, pre)`` is ``acc += c * pre * terms``.
    ``check``, if given, is called on every state formed.  A state word ``w``
    is split at ``k = bisect_right(w, g)``: ``w[:k]`` never moves (README
    lemma 5), so the entry read is that of the suffix ``w[k:]``, empty when
    ``w g`` is sorted.

    The words are visited in sorted order, so words that share a prefix are
    adjacent.  The walk holds the states ``(prefix, left * prefix)`` along the
    current word; a state is extended one generator at a time, and every
    shared prefix is multiplied once.  Every extension is a new dict, so a
    state handed back never changes: ``_mul_terms`` sums the states with the
    right factor's coefficients (``_total``), ``word_products`` keeps each
    one (``_each``).
    """
    stack: list[tuple[Word, dict]] = [((), left)]
    for v in sorted(words):
        while stack[-1][0] != v[: len(stack[-1][0])]:
            stack.pop()
        prefix, state = stack[-1]
        for g in v[len(prefix) :]:
            nxt: dict = {}
            for w, cf in state.items():
                k = bisect_right(w, g)
                add(nxt, entry(w[k:], g), cf, w[:k])
            if check:
                check(nxt)
            prefix, state = prefix + (g,), nxt
            stack.append((prefix, state))
        yield v, state


def _same(cf: LaurentQ) -> LaurentQ:
    return cf


def _total(states, coeffs: dict, add, unpack=_same) -> dict:
    """The sum of a walk's states, each times its word's coefficient in ``coeffs``."""
    acc: dict = {}
    for v, state in states:
        add(acc, state.items(), coeffs[v])
    return {w: unpack(cf) for w, cf in acc.items()}


def _each(states, coeffs: dict, add, unpack=_same) -> dict:
    """Each of a walk's states by its word, unpacked; ``coeffs`` are not read."""
    return {v: {w: unpack(cf) for w, cf in state.items()} for v, state in states}


def _fallback(left: dict[Word, LaurentQ], words: Iterable[Word]):
    """The walk of ``left`` by ``words`` (``_walk``) on ``LaurentQ``, exact on
    any coefficients.  Table entries are read unpacked.  An entry outside the
    invariant has ``word[-1] > g`` (an append that stays sorted always packs);
    it is formed, for this walk only, by the same walk as ``word[:-1]``
    times the normal form of ``word[-1] g``, read from ``rewrite_pair``."""
    memo: dict = {}

    def entry(word: Word, g: Gen) -> tuple[tuple[Word, LaurentQ], ...]:
        out = memo.get((word, g))
        if out is None:
            try:
                out = tuple((w, _unpack(v)) for w, v in _append_gen(word, g))
            except _Unpackable:
                pair = {p: c for c, p in rewrite_pair(word[-1], g)}
                out = tuple(_total(_walk({word[:-1]: ONE}, pair, entry, _add_exact), pair, _add_exact).items())
            memo[(word, g)] = out
        return out

    return _walk(left, words, entry, _add_exact)


def _kernel(left: dict[Word, LaurentQ], right: dict[Word, LaurentQ], fold) -> dict:
    """``fold(states, coeffs, add, unpack)`` on the walk of ``left`` by the
    words of ``right``, where only ``left``'s words need be sorted: packed,
    with the append table and ``_check_state``, or, if that walk leaves the
    packing invariant anywhere, again on ``LaurentQ`` by ``_fallback``.  An
    append recurses once per letter of the suffix it is given, the letters
    above the generator, so a suffix past Python's recursion limit raises
    ``DegreeCapError``."""
    try:
        try:
            if max(len(left), len(right)) >= _MAX_TERMS:
                raise _Unpackable
            coeffs = {v: _pack(cf) for v, cf in right.items()}
            states = _walk({w: _pack(cf) for w, cf in left.items()}, coeffs, _append_gen, _add_scaled, _check_state)
            return fold(states, coeffs, _add_scaled, _unpack)
        except _Unpackable:
            return fold(_fallback(left, right), right, _add_exact)
    except RecursionError:
        deg = max(map(len, left)) + max(map(len, right))
        raise DegreeCapError(f"normal-form degree {deg} exceeds the rewrite's recursion depth") from None


def _mul_terms(left: dict[Word, LaurentQ], right: dict[Word, LaurentQ]) -> dict[Word, LaurentQ]:
    """Normal form of ``left * right``, where only ``left``'s words need be
    sorted: the states of one walk, summed with ``right``'s coefficients."""
    return _kernel(left, right, _total)


def word_products(left: "Element", words: Sequence[Word]) -> dict[Word, "Element"]:
    """``left * v`` for each sorted word ``v`` of ``words``, by word: the
    states of one walk, so ``left`` is packed once and a prefix that words
    share is walked once.  The cap is checked as ``Element.__mul__`` checks
    it, on ``left``'s degree plus the longest word's length, before any walk;
    the size checks and the fallback are those of every product."""
    if not left._t or not words:
        return {v: Element.zero(left.n) for v in words}
    _check_cap(left.degree() + max(map(len, words)))
    return {v: Element._make(left.n, t) for v, t in _kernel(left._t, dict.fromkeys(words, ONE), _each).items()}


# Kept, unfilled and delegating, only because the benchmark's tracer reads
# both names; the benchmark change that drops the word_mul metrics deletes them.
_WORD_MUL_CACHE: dict[tuple[Word, Word], tuple[tuple[Word, LaurentQ], ...]] = {}


def _word_mul(u: Word, v: Word) -> tuple[tuple[Word, LaurentQ], ...]:
    """Normal form of the concatenation of two sorted words."""
    return tuple(sorted(_mul_terms({u: ONE}, {v: ONE}).items()))


def rewrite_pair(x: Gen, y: Gen) -> list[tuple[LaurentQ, Word]]:
    """One rewrite step on the out-of-order adjacent pair ``x y`` (``x > y``)."""
    a, b = x
    c, d = y
    if a == c or b == d:
        return [(QINV, (y, x))]
    if b < d:
        return [(ONE, (y, x))]
    return [(ONE, (y, x)), (_MINUS_QMQI, ((c, b), (a, d)))]


def reduce_terms(
    terms: Iterable[tuple[LaurentQ, Word]],
    strategy: str = "leftmost",
) -> dict[Word, LaurentQ]:
    """Rewrite an arbitrary term list to normal form with an explicit agenda.

    ``strategy`` picks which out-of-order adjacent pair to reduce first
    (``leftmost`` or ``rightmost``); the result is strategy-independent, which
    the test suite exercises as confluence evidence.  No library path calls
    it: it is the tests' reference, independent of ``_mul_terms`` but for
    ``rewrite_pair``, and never merges equal words on its agenda.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rightmost = strategy == "rightmost"
    acc: dict[Word, LaurentQ] = {}
    agenda: list[tuple[LaurentQ, Word]] = [(cf, w) for cf, w in terms]
    while agenda:
        cf, w = agenda.pop()
        if cf.is_zero():
            continue
        pos = -1
        rng: Iterable[int] = range(len(w) - 2, -1, -1) if rightmost else range(len(w) - 1)
        for i in rng:
            if w[i] > w[i + 1]:
                pos = i
                break
        if pos < 0:
            s = acc.get(w)
            s = cf if s is None else s + cf
            if s.is_zero():
                acc.pop(w, None)
            else:
                acc[w] = s
            continue
        for c2, pair in rewrite_pair(w[pos], w[pos + 1]):
            agenda.append((cf * c2, w[:pos] + pair + w[pos + 2 :]))
    return acc


# -- multidegree ---------------------------------------------------------------


@dataclass(frozen=True)
class MultiDegree:
    """Row-label and column-label counts of a homogeneous element."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        if sum(self.rows) != sum(self.cols):
            raise ValueError("row and column counts must have equal totals")

    @classmethod
    def of_word(cls, n: int, word: Word) -> "MultiDegree":
        rows = [0] * n
        cols = [0] * n
        for i, j in word:
            rows[i - 1] += 1
            cols[j - 1] += 1
        return cls(tuple(rows), tuple(cols))

    def minus(self, other: "MultiDegree") -> Optional["MultiDegree"]:
        """Componentwise difference, or None when any entry would go negative."""
        rows = tuple(a - b for a, b in zip(self.rows, other.rows))
        cols = tuple(a - b for a, b in zip(self.cols, other.cols))
        if any(v < 0 for v in rows) or any(v < 0 for v in cols):
            return None
        return MultiDegree(rows, cols)


# -- elements ------------------------------------------------------------------


def _validate_gen(n: int, g: Gen) -> None:
    if not (isinstance(g, tuple) and len(g) == 2):
        raise ValueError(f"generator index must be a (row, col) pair, got {g!r}")
    i, j = g
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"generator t[{i},{j}] out of range for n = {n}")


class Element:
    """An algebra element in canonical normal form.

    Immutable value type: a sparse association from normal-ordered words to
    nonzero Laurent coefficients, tagged with the matrix size ``n``.
    """

    __slots__ = ("n", "_t")

    def __init__(self, n: int, terms: Optional[Iterable[tuple[Word, ScalarLike]]] = None):
        """The normal form of ``terms``, ``(word, coeff)`` pairs with words in
        any order, each within the degree cap, from ``_mul_terms``."""
        if n < 1:
            raise ValueError("matrix size n must be at least 1")
        self.n = n
        acc: dict[Word, LaurentQ] = {}
        for word, cf in terms or ():
            word = tuple(word)
            for g in word:
                _validate_gen(n, g)
            _check_cap(len(word))
            _add_exact(acc, ((word, LaurentQ.coerce(cf)),), ONE)
        self._t: dict[Word, LaurentQ] = _mul_terms({(): ONE}, acc)

    @classmethod
    def _make(cls, n: int, terms: dict[Word, LaurentQ]) -> "Element":
        out = object.__new__(cls)
        out.n = n
        out._t = terms
        return out

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Element":
        return cls._make(n, {})

    @classmethod
    def unit(cls, n: int) -> "Element":
        return cls._make(n, {(): ONE})

    @classmethod
    def scalar(cls, n: int, value: ScalarLike) -> "Element":
        value = LaurentQ.coerce(value)
        return cls._make(n, {} if value.is_zero() else {(): value})

    @classmethod
    def generator(cls, n: int, i: int, j: int) -> "Element":
        _validate_gen(n, (i, j))
        return cls._make(n, {((i, j),): ONE})

    # -- queries ----------------------------------------------------------

    def terms(self) -> list[tuple[Word, LaurentQ]]:
        """Terms in the global word order: by length, then lexicographically."""
        return sorted(self._t.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def coeff(self, word: Word) -> LaurentQ:
        return self._t.get(tuple(word), LaurentQ.zero())

    def is_zero(self) -> bool:
        return not self._t

    def degree(self) -> int:
        """Maximal word length (0 for scalars; -1 for the zero element)."""
        if not self._t:
            return -1
        return max(len(w) for w in self._t)

    def multidegree(self) -> Optional[MultiDegree]:
        """The common multidegree of all words, or None when inhomogeneous."""
        if not self._t:
            return None
        degs = {MultiDegree.of_word(self.n, w) for w in self._t}
        if len(degs) > 1:
            return None
        return degs.pop()

    def homogeneous_components(self) -> dict[MultiDegree, "Element"]:
        comps: dict[MultiDegree, dict[Word, LaurentQ]] = {}
        for w, c in self._t.items():
            comps.setdefault(MultiDegree.of_word(self.n, w), {})[w] = c
        return {d: Element._make(self.n, t) for d, t in sorted(comps.items(), key=lambda kv: (kv[0].rows, kv[0].cols))}

    # -- arithmetic --------------------------------------------------------

    def _check_context(self, other: "Element") -> None:
        if self.n != other.n:
            raise ContextMismatchError(f"mixing algebras of size {self.n} and {other.n}")

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        self._check_context(other)
        acc = dict(self._t)
        for w, c in other._t.items():
            s = acc.get(w)
            s = c if s is None else s + c
            if s.is_zero():
                acc.pop(w, None)
            else:
                acc[w] = s
        return Element._make(self.n, acc)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element._make(self.n, {w: -c for w, c in self._t.items()})

    def scale(self, value: ScalarLike) -> "Element":
        """``value * self``; ``self`` itself when ``value`` is 1 (elements are immutable)."""
        value = LaurentQ.coerce(value)
        if value.is_zero():
            return Element.zero(self.n)
        if value.is_one():
            return self
        return Element._make(self.n, {w: c * value for w, c in self._t.items()})

    def __mul__(self, other: Union["Element", ScalarLike]) -> "Element":
        """The normal form of the product.  A scalar factor ``{(): c}`` is
        central and the other factor is already normal, so that product is
        ``scale(c)``; every other product comes from ``_mul_terms``."""
        if isinstance(other, (int, Fraction, LaurentQ)):
            return self.scale(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._check_context(other)
        a, b = self._t, other._t
        if not a or not b:
            return Element.zero(self.n)
        _check_cap(self.degree() + other.degree())
        if len(a) == 1 and () in a:
            return other.scale(a[()])
        if len(b) == 1 and () in b:
            return self.scale(b[()])
        return Element._make(self.n, _mul_terms(a, b))

    def __rmul__(self, other: ScalarLike) -> "Element":
        if isinstance(other, (int, Fraction, LaurentQ)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, m: int) -> "Element":
        if m < 0:
            raise ValueError("negative powers are not defined in the algebra")
        out = Element.unit(self.n)
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base if m > 1 else base
            m >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.n == other.n and self._t == other._t

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.terms())))

    def __bool__(self) -> bool:
        return bool(self._t)

    # -- structural maps ---------------------------------------------------

    def transpose(self) -> "Element":
        """Image under the transpose T, ``t[i,j] -> t[j,i]`` (an algebra map)."""
        return TRANSPOSE.element(self)

    def antitranspose(self) -> "Element":
        """Image under the antitranspose tau, ``t[i,j] -> t[n+1-j, n+1-i]``, which reverses products."""
        return ANTITRANSPOSE.element(self)

    def specialize(self, q0: Union[int, Fraction]) -> dict[Word, Fraction]:
        """Coefficients evaluated at ``q = q0``; at ``q0 = 1`` the keys read as
        commutative monomials (each word is already the sorted multiset)."""
        q0 = Fraction(q0)
        if not q0:
            raise ValueError("specialization point q0 must be nonzero")
        out: dict[Word, Fraction] = {}
        for w, c in self._t.items():
            v = c.specialize(q0)
            if v:
                out[w] = v
        return out

    # -- text --------------------------------------------------------------

    def render(self) -> str:
        """Canonical text: ``(coeff) * t[i,j] ...`` terms joined by `` + ``."""
        if not self._t:
            return "0"
        parts = []
        for w, c in self.terms():
            mono = " ".join(f"t[{i},{j}]" for i, j in w) if w else "1"
            parts.append(f"({c.render()}) * {mono}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Element(n={self.n}, {self.render()!r})"


# -- the symmetry group {1, T, F, tau} -------------------------------------------


class Symmetry:
    """A map of the group {1, T, F, tau} of O_q(M_n) as two bits (README lemmas
    1 and 1a): ``swap``, the transpose T, exchanges rows and columns; ``reflect``,
    the flip F, sends every label ``x`` to ``n+1-x`` and reverses products, so
    it negates the exponent of ``a b = q^e b a`` (``sign``).  The antitranspose
    tau = T F sets both bits, and composition is their XOR (:meth:`then`).  The
    four maps are ``IDENTITY``, ``TRANSPOSE``, ``FLIP`` and ``ANTITRANSPOSE``."""

    __slots__ = ("swap", "reflect", "sign")

    def __init__(self, swap: bool, reflect: bool):
        self.swap, self.reflect, self.sign = swap, reflect, -1 if reflect else 1

    def then(self, other: "Symmetry") -> "Symmetry":
        """This map followed by ``other``; the group is abelian, so either order."""
        return _GROUP[self.swap ^ other.swap][self.reflect ^ other.reflect]

    def labels(self, xs: Sequence[int], n: int) -> tuple[int, ...]:
        """The image of an increasing label sequence, increasing again."""
        return tuple(n + 1 - x for x in reversed(xs)) if self.reflect else tuple(xs)

    def sets(self, rows: Sequence[int], cols: Sequence[int], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The images of a row set and a column set, as ``(rows, cols)``."""
        return self.labels(cols if self.swap else rows, n), self.labels(rows if self.swap else cols, n)

    def letter(self, g: Gen, n: int) -> Gen:
        """The image of the generator ``t[i,j]``, given as ``(i, j)``."""
        i, j = g[::-1] if self.swap else g
        return (n + 1 - i, n + 1 - j) if self.reflect else (i, j)

    def element(self, x: Element) -> Element:
        """The image of ``x`` word by word, with coefficient 1 (README lemma 1).
        Reflecting alone reverses the letter order, so the image of a word read
        from its last letter is sorted; only a map that swaps sorts.  One image
        is formed per distinct letter of ``x``, and every image word reads it."""
        if not (self.swap or self.reflect):
            return x
        image = {g: self.letter(g, x.n) for g in {g for w in x._t for g in w}}.__getitem__
        if self.swap:
            return Element._make(x.n, {tuple(sorted(map(image, w))): c for w, c in x._t.items()})
        return Element._make(x.n, {tuple(map(image, reversed(w))): c for w, c in x._t.items()})


_GROUP = tuple(tuple(Symmetry(swap, reflect) for reflect in (False, True)) for swap in (False, True))  # [swap][reflect]
(IDENTITY, FLIP), (TRANSPOSE, ANTITRANSPOSE) = _GROUP


def normal_form(n: int, terms: Iterable[tuple[ScalarLike, Iterable[Gen]]]) -> Element:
    """Normal form of an unreduced term list ``[(coeff, word), ...]``, by
    ``Element(n, terms)`` and so by the product kernel."""
    return Element(n, ((word, cf) for cf, word in terms))


def commutator(a: Element, b: Element) -> Element:
    """``NF(ab - ba)``."""
    return a * b - b * a


def commutative_product(p: dict[Word, Fraction], r: dict[Word, Fraction]) -> dict[Word, Fraction]:
    """Product in the commutative polynomial ring (specialized images live there)."""
    out: dict[Word, Fraction] = {}
    for w1, c1 in p.items():
        for w2, c2 in r.items():
            w = tuple(sorted(w1 + w2))
            s = out.get(w, Fraction(0)) + c1 * c2
            if s:
                out[w] = s
            elif w in out:
                del out[w]
    return out


# -- PBW bases of multidegree components ----------------------------------------


def basis_monomials(n: int, rows: tuple[int, ...], cols: tuple[int, ...]) -> list[Word]:
    """All normal-ordered words of the given multidegree.

    These are in bijection with n x n nonnegative-integer matrices having the
    prescribed row and column sums (the entry ``m[i][j]`` is the multiplicity
    of the letter ``t[i,j]``); the word lists the letters in sorted order.
    """
    if len(rows) != n or len(cols) != n:
        raise ValueError("row and column count vectors must have length n")
    if any(v < 0 for v in rows) or any(v < 0 for v in cols):
        raise ValueError("counts must be nonnegative")
    if sum(rows) != sum(cols):
        raise ValueError(f"unbalanced multidegree: row total {sum(rows)} != column total {sum(cols)}")

    # one row at a time: every way to spread the row's count over the
    # columns that still have room, so no recursion grows with n
    states: list[tuple[Word, tuple[int, ...]]] = [((), tuple(cols))]
    for i, target in enumerate(rows, start=1):
        if not target:
            continue
        grown = []
        for word, room in states:
            fills = [(word, room, target)]
            for j, r in enumerate(room):
                if r:
                    fills = [(w + ((i, j + 1),) * k, rest[:j] + (rest[j] - k,) + rest[j + 1 :], left - k)
                             for w, rest, left in fills for k in range(min(left, r) + 1)]
            grown.extend((w, rest) for w, rest, left in fills if not left)
        states = grown
    return sorted(word for word, _ in states)
