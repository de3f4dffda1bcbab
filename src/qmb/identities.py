"""Machine verification of the quantum-minor commutation identities.

Every check computes an exact residual (an :class:`~qmb.algebra.Element`);
``verified`` means the residual is identically zero; there are no
tolerances.  Where the source statements are ambiguous (a ``q^{±1}``
exponent, an unbound index, an unsorted replaced label list), the checks try
the candidate readings and record which one verifies; nothing is assumed.

The constructive witness engine in :mod:`qmb.ore` composes the statements
verified here: :func:`generator_position` (every generator check's guard),
:func:`gap_correction_terms` and :func:`commutator_terms`.

The resolved conventions the sweep discovers, for reference:

* generator/minor q-commutation: exponent ``-1`` when the outside label sits
  above the range of its set, ``+1`` when below;
* minors with a single interchanged column label: exponent ``+1`` exactly
  when the removed label is smaller than the added one (:func:`check_muir_pair`
  forms the two products of such a pair once and reads the exponent from them
  once; the reversed pair's is its negation);
* the single-gap identity holds with the correction factors ordered
  generator first: ``D t - q^-1 t D = (1-q^-2) t[k,l_1] D'``;
* the general-gap identity holds with the correction row equal to the row
  of the commuted generator and replaced column sets re-sorted.

:func:`run_suite` checks one centrality and q-commutation configuration per
orbit of the group {1, T, F, tau} of :class:`~qmb.algebra.Symmetry` (README,
lemmas 1 and 1a): the transpose T (swap), the flip F (reflect) and the
antitranspose tau = T F (both).  It checks one Muir configuration per orbit
of the flip alone: T and tau map a column interchange to a row interchange,
which the sweep does not make.  The result at each image of a verified one
is derived by relabelling: :func:`_image` maps the configuration, one
geometry table per bit the geometry, and the map's sign the exponent (T
keeps it, F and tau negate it).  A failed result is never mirrored, so every
image in its orbit is checked directly, as is every fixed point of the group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterable, Optional, Sequence

from .algebra import ANTITRANSPOSE, FLIP, TRANSPOSE, Element, Symmetry, commutator
from .minors import column_replace, qcommutation_exponent, qcommutation_probe, quantum_minor, quantum_minor_columns
from .scalars import LaurentQ, ONE, QINV, Q_MINUS_QINV

VERIFIED = "verified"
FAILED = "failed"
NOT_APPLICABLE = "not-applicable"

_GAP_COEFF = QINV * Q_MINUS_QINV  # equals 1 - q^-2


@dataclass
class CheckResult:
    """Outcome of one identity check at one configuration."""

    identity: str
    config: dict
    status: str
    residual: Optional[Element] = None
    convention: Optional[dict] = None

    def to_json(self) -> dict:
        out = {
            "identity": self.identity,
            "config": self.config,
            "status": self.status,
            "residual": None if self.residual is None else self.residual.render(),
        }
        if self.convention is not None:
            out["convention"] = self.convention
        return out


def _cfg(n, K, L, **extra) -> dict:
    return {"n": n, "K": list(K), "L": list(L), **extra}


def _first_verified(identity: str, cfg: dict, lhs: Element, readings: Iterable[tuple[dict, Element]]) -> CheckResult:
    """VERIFIED under the first ``(convention, rhs)`` of ``readings`` with
    ``rhs == lhs``, or FAILED with the first reading's residual and every
    convention key None.  ``readings`` is drawn lazily, so no right-hand side
    past the verifying one is formed."""
    first = None
    for convention, rhs in readings:
        residual = lhs - rhs
        if residual.is_zero():
            return CheckResult(identity, cfg, VERIFIED, residual, convention)
        first = first or (convention, residual)
    convention, residual = first
    return CheckResult(identity, cfg, FAILED, residual, dict.fromkeys(convention))


def generator_position(K: Sequence[int], L: Sequence[int], k: int, l: int) -> str:
    """Where ``t[k,l]`` sits relative to the minor on rows ``K`` and columns ``L``:
    ``central`` (both labels inside), ``{row,col}-outside-{below,above}`` (one
    inside, the other outside the range of its set: q-commuting),
    ``column-gap``/``row-gap`` (the row/column label inside, the other within
    the range of its set) or ``outside``.  The generator checks' guards and
    the constructive witness engine dispatch on it."""
    row_in, col_in = k in K, l in L
    if row_in and col_in:
        return "central"
    if row_in:
        return "col-outside-below" if l < min(L) else "col-outside-above" if l > max(L) else "column-gap"
    if col_in:
        return "row-outside-below" if k < min(K) else "row-outside-above" if k > max(K) else "row-gap"
    return "outside"


def check_centrality(n: int, K: Sequence[int], L: Sequence[int], k: int, l: int) -> CheckResult:
    """Generators indexed inside both sets commute with the minor exactly."""
    K, L = tuple(K), tuple(sorted(L))
    cfg = _cfg(n, K, L, k=k, l=l)
    if generator_position(K, L, k, l) != "central":
        return CheckResult("centrality", cfg, NOT_APPLICABLE)
    residual = commutator(Element.generator(n, k, l), quantum_minor(n, K, L))
    return CheckResult("centrality", cfg, VERIFIED if residual.is_zero() else FAILED, residual)


def check_qcommutation(n: int, K: Sequence[int], L: Sequence[int], k: int, l: int) -> CheckResult:
    """t[k,l] q-commutes with the minor when one label is inside its set and
    the other lies outside the range of its set; the exponent is measured."""
    K, L = tuple(K), tuple(sorted(L))
    cfg = _cfg(n, K, L, k=k, l=l)
    geometry = generator_position(K, L, k, l)
    if not geometry.endswith(("below", "above")):
        return CheckResult("q-commutation", cfg, NOT_APPLICABLE)
    D = quantum_minor(n, K, L)
    t = Element.generator(n, k, l)
    e = qcommutation_probe(t, D)
    conv = {"geometry": geometry, "exponent": e}
    if e in (1, -1):
        return CheckResult("q-commutation", cfg, VERIFIED, Element.zero(n), conv)
    expected = -1 if geometry.endswith("above") else 1
    residual = t * D - (LaurentQ.q_power(expected) * (D * t))
    return CheckResult("q-commutation", cfg, FAILED, residual, conv)


def check_muir_pair(n: int, K: Sequence[int], L: Sequence[int], Lprime: Sequence[int]) -> tuple[CheckResult, CheckResult]:
    """The Muir checks of ``(L, L')`` and of ``(L', L)`` from the products ``D_L D_L'`` and ``D_L' D_L``,
    formed once; the exponent is read once, and the reversed one is its negation."""
    K, L, Lp = tuple(K), tuple(sorted(L)), tuple(sorted(Lprime))
    if len(set(L) ^ set(Lp)) > 2:
        return (CheckResult("muir", _cfg(n, K, L, Lprime=list(Lp)), NOT_APPLICABLE),
                CheckResult("muir", _cfg(n, K, Lp, Lprime=list(L)), NOT_APPLICABLE))
    DL = quantum_minor(n, K, L)
    DLp = quantum_minor(n, K, Lp)
    ab, ba = DL * DLp, DLp * DL
    r = None if L == Lp else qcommutation_exponent(ab, ba)
    return _muir_result(n, K, L, Lp, ab, ba, r), _muir_result(n, K, Lp, L, ba, ab, None if r is None else -r)


def _muir_result(n: int, K: tuple, L: tuple, Lp: tuple, ab: Element, ba: Element, r: Optional[int]) -> CheckResult:
    """The Muir check of ``(L, L')`` from ``ab = D_L D_L'``, ``ba = D_L' D_L`` and ``r`` (``ab = q^r ba``, or None)."""
    cfg = _cfg(n, K, L, Lprime=list(Lp))
    if L == Lp:
        residual = ab - ba
        conv = {"exponent": 0, "geometry": "identical"}
        return CheckResult("muir", cfg, VERIFIED if residual.is_zero() else FAILED, residual, conv)
    ((removed,), (added,)) = set(L) - set(Lp), set(Lp) - set(L)
    geometry = "removed<added" if removed < added else "removed>added"
    if r in (1, -1):
        return CheckResult("muir", cfg, VERIFIED, Element.zero(n), {"geometry": geometry, "exponent": r})
    return CheckResult("muir", cfg, FAILED, ab - ba, {"geometry": geometry, "exponent": r})


def _gap_lhs(n, K, L, k, l) -> Element:
    D = quantum_minor(n, K, L)
    t = Element.generator(n, k, l)
    return D * t - (QINV * (t * D))


def _gap_terms(K, L, k, l, r, row_reading: str, column_reading: str) -> list:
    """The general-gap expansion under one reading: ``(coeff, (row, col), columns)``
    for each correction term ``coeff * t[row,col] * D^K_columns``."""
    row = k if row_reading == "same-row" else max(K)
    terms = []
    for u in range(1, r + 1):
        lu = L[u - 1]
        weight = LaurentQ({(u - r): (-1) ** (u - r)})  # (-q)^(u-r)
        if column_reading == "sorted":
            columns = column_replace(L, u, l)
        else:
            columns = L[: u - 1] + (l,) + L[u:]
        terms.append((weight * _GAP_COEFF, (row, lu), columns))
    return terms


def _gap_rhs(n, K, L, k, l, r, **reading) -> Element:
    out = Element.zero(n)
    for coeff, (row, col), columns in _gap_terms(K, L, k, l, r, **reading):
        out = out + (Element.generator(n, row, col) * quantum_minor_columns(n, K, columns)).scale(coeff)
    return out


def check_gap_one(n: int, K: Sequence[int], L: Sequence[int], k: int, l: int) -> CheckResult:
    """Single-gap commutation: k in K, l_1 < l < l_2.

    Both factor orders of the correction term are tried; the verifying order
    is recorded (the generator-first order is the one that holds; the
    minor-first order differs by exactly one power of q).
    """
    K, L = tuple(K), tuple(sorted(L))
    if generator_position(K, L, k, l) != "column-gap" or gap_index(L, l) != 1:
        return CheckResult("gap-one", _cfg(n, K, L, k=k, l=l), NOT_APPLICABLE)
    return _gap_one(n, K, L, k, l, _gap_lhs(n, K, L, k, l))


def _gap_one(n: int, K: tuple, L: tuple, k: int, l: int, lhs: Element) -> CheckResult:
    """The gap-one check of an applicable configuration, whose ``lhs`` is formed."""
    # the general-gap expansion at gap index 1 is this one term
    ((coeff, (row, col), Lp),) = gap_correction_terms(n, K, L, k, l)
    Dp = quantum_minor(n, K, Lp)
    t1 = Element.generator(n, row, col)
    orders = (("generator-first", t1, Dp), ("minor-first", Dp, t1))
    return _first_verified("gap-one", _cfg(n, K, L, k=k, l=l), lhs,
                           (({"factor_order": name}, (a * b).scale(coeff)) for name, a, b in orders))


GAP_READINGS = [
    {"row_reading": "same-row", "column_reading": "sorted"},
    {"row_reading": "max-row", "column_reading": "sorted"},
    {"row_reading": "same-row", "column_reading": "as-written"},
    {"row_reading": "max-row", "column_reading": "as-written"},
]


def check_gap_r(n: int, K: Sequence[int], L: Sequence[int], k: int, l: int) -> CheckResult:
    """General-gap commutation: k in K, l_r < l < l_{r+1}.

    The gap index ``r`` is derived (:func:`gap_index`) and recorded in the
    config.  The unbound row index of the correction factors and the ordering
    of the replaced column lists are both ambiguous in the source statement;
    every combination is tried and the verifying reading recorded.
    """
    K, L = tuple(K), tuple(sorted(L))
    if generator_position(K, L, k, l) != "column-gap":
        return CheckResult("gap-r", _cfg(n, K, L, k=k, l=l, r=gap_index(L, l)), NOT_APPLICABLE)
    return _gap_r(n, K, L, k, l, _gap_lhs(n, K, L, k, l))


def _gap_r(n: int, K: tuple, L: tuple, k: int, l: int, lhs: Element) -> CheckResult:
    """The gap-r check of an applicable configuration, whose ``lhs`` is formed."""
    r = gap_index(L, l)
    return _first_verified("gap-r", _cfg(n, K, L, k=k, l=l, r=r), lhs,
                           ((dict(reading), _gap_rhs(n, K, L, k, l, r, **reading)) for reading in GAP_READINGS))


def gap_correction_terms(n: int, K: tuple, L: tuple, k: int, l: int) -> list[tuple[LaurentQ, tuple[int, int], tuple]]:
    """The verified expansion of ``D t - q^-1 t D`` for the gap configuration.

    Returns ``[(coeff, (row, col), replaced_column_set), ...]``: the terms of
    the reading that :func:`check_gap_r` verifies (same row, sorted column
    sets), whose sum of ``coeff * t[row,col] * D^K_{set}`` is the commutation
    defect.  The terms are not re-checked here.  The constructive witness
    engine consumes them in ``qmb.ore._reduce_relative``, which compares the
    defect of the pair ``(q^-1 t, 1)`` with the negated sum exactly (and
    raises ValueError on a mismatch), and the returned witness is replayed.
    """
    L = tuple(sorted(L))
    return _gap_terms(K, L, k, l, gap_index(L, l), **GAP_READINGS[0])


def gap_index(L: Sequence[int], l: int) -> int:
    """The ``r`` with ``l_r < l < l_{r+1}``: how many labels of ``L`` lie below ``l``."""
    return sum(1 for x in L if x < l)


# -- subalgebra membership (outside-generator commutators) ----------------------


def commutator_terms(t: Element, terms: Iterable[tuple[LaurentQ, tuple]]) -> list[tuple]:
    """The letter-by-letter expansion of ``t e - e t`` for a generator ``t`` and
    ``e = sum coeff * word`` (words need not be normal-ordered).  Each letter's
    commutator with ``t`` is zero or one term ``lam * pair``; for every nonzero
    one this gives ``(word, position, (coeff * lam, word with pair at position))``."""
    out = []
    for coeff, w in terms:
        for i, g in enumerate(w):
            comm = commutator(t, Element.generator(t.n, *g))
            if comm.is_zero():
                continue
            ((pair, lam),) = comm.terms()
            out.append((w, i, (coeff * lam, w[:i] + pair + w[i + 1 :])))
    return out


def check_E0_membership(
    n: int,
    K: Sequence[int],
    L: Sequence[int],
    outside: tuple[int, int],
    e_terms: Iterable[tuple[LaurentQ, Sequence[tuple[int, int]]]],
) -> CheckResult:
    """Certify that the commutator of an outside generator with ``e`` stays in
    the subalgebra generated by the letters with row in K or column in L.

    ``e`` is given as a term list over that subalgebra's generators (words
    need not be normal-ordered).  The commutator is expanded letter by letter
    (:func:`commutator_terms`); each elementary commutator is either zero or
    proportional to a product of two generators, and the leaf certifies when
    both of those generators are again subalgebra generators.  The residual is the sum of the offending
    leaf contributions, so the check verifies exactly when every leaf
    certifies (or the offenders cancel).

    The expansion is not replayed against :func:`commutator` here: both sides
    would come from the same product kernel, so the replay would check the
    kernel against itself.  The tests check that the expansion, summed by the
    independent agenda reducer ``reduce_terms``, equals the kernel's
    commutator for every check of the n <= 3 sweep.
    """
    K, L = tuple(K), tuple(sorted(L))
    kp, lp = outside
    cfg = _cfg(n, K, L, outside=[kp, lp])
    if generator_position(K, L, kp, lp) != "outside":
        return CheckResult("e0-membership", cfg, NOT_APPLICABLE)
    e0 = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if generator_position(K, L, i, j) != "outside"}
    tp = Element.generator(n, kp, lp)

    e_terms = [(LaurentQ.coerce(c), tuple(tuple(g) for g in w)) for c, w in e_terms]
    for _, w in e_terms:
        for g in w:
            if g not in e0:
                raise ValueError(f"letter t[{g[0]},{g[1]}] is not a subalgebra generator for K={K}, L={L}")

    leaves = []
    obstruction = Element.zero(n)
    for w, i, (c, word) in commutator_terms(tp, e_terms):
        # the pair is proportional to t[kp, g.col] t[g.row, lp]
        g = w[i]
        f1, f2 = (kp, g[1]), (g[0], lp)
        ok = f1 in e0 and f2 in e0
        leaves.append(
            {
                "word": [list(x) for x in w],
                "position": i,
                "letter": list(g),
                "factors": [list(f1), list(f2)],
                "factors_in_subalgebra": ok,
            }
        )
        if not ok:
            obstruction = obstruction + Element(n, [(word, c)])

    status = VERIFIED if obstruction.is_zero() else FAILED
    return CheckResult(
        "e0-membership", cfg, status, obstruction,
        {"leaves": leaves, "leaf_count": len(leaves)},
    )


# -- the sweep -------------------------------------------------------------------


@dataclass
class SuiteReport:
    params: dict
    results: list[CheckResult] = field(default_factory=list)
    conventions: dict = field(default_factory=dict)

    def counts(self) -> dict:
        by: dict[str, dict[str, int]] = {}
        for r in self.results:
            slot = by.setdefault(r.identity, {VERIFIED: 0, FAILED: 0, NOT_APPLICABLE: 0})
            slot[r.status] += 1
        return by

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == FAILED]

    def all_verified(self) -> bool:
        return not self.failures()

    def to_json(self) -> dict:
        return {
            "schema": "qmb-suite-report-v1",
            "params": self.params,
            "counts": self.counts(),
            "conventions": self.conventions,
            "all_verified": self.all_verified(),
            "results": [r.to_json() for r in self.results],
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for name, slot in sorted(self.counts().items()):
            lines.append(
                f"{name:16s} verified {slot[VERIFIED]:5d}   failed {slot[FAILED]:3d}   n/a {slot[NOT_APPLICABLE]:3d}"
            )
        for key, val in sorted(self.conventions.items()):
            lines.append(f"convention {key}: {val}")
        return lines


def _minor_shapes(n_max: int, size_cap: Optional[int]):
    """Minor shapes the sweep ranges over; proper minors only (size < n)."""
    for n in range(2, n_max + 1):
        top = n - 1 if size_cap is None else min(size_cap, n - 1)
        for m in range(1, top + 1):
            for K in combinations(range(1, n + 1), m):
                for L in combinations(range(1, n + 1), m):
                    yield n, K, L


# -- the symmetry group {1, T, F, tau} on the swept results ----------------------


def _swaps(*pairs: tuple[str, str]) -> dict:
    return {a: b for pair in pairs for a, b in (pair, pair[::-1])}


# One geometry table per bit of a Symmetry: swap exchanges rows and columns,
# reflect reverses every label order (below <-> above, removed<added <-> removed>added).
_SWAPPED = _swaps(("row-outside-below", "col-outside-below"), ("row-outside-above", "col-outside-above"))
_REFLECTED = _swaps(("row-outside-below", "row-outside-above"), ("col-outside-below", "col-outside-above"),
                    ("removed<added", "removed>added"))

# The maps a verified result is filed under.  T and tau take a Muir pair (a
# column interchange) to a row interchange, which the sweep does not make.
_GENERATOR_IMAGES = (TRANSPOSE, FLIP, ANTITRANSPOSE)
_MUIR_IMAGES = (FLIP,)


def _image(g: Symmetry, cfg: dict) -> dict:
    """The configuration ``g`` maps ``cfg`` to, in the same key order: the
    minor's sets mapped, and the generator ``t[k,l]``, or the column set
    ``L'`` of a Muir configuration (which only maps that do not swap reach)."""
    n = cfg["n"]
    K, L = g.sets(cfg["K"], cfg["L"], n)
    if "k" in cfg:
        k, l = g.letter((cfg["k"], cfg["l"]), n)
        return {"n": n, "K": list(K), "L": list(L), "k": k, "l": l}
    return {"n": n, "K": list(K), "L": list(L), "Lprime": list(g.labels(cfg["Lprime"], n))}


def _convention(g: Symmetry, conv: Optional[dict]) -> Optional[dict]:
    """The convention at the image under ``g`` of a verified result: the geometry
    through the table of each bit set, and the exponent times ``g.sign``."""
    if conv is None:
        return None
    geometry = _SWAPPED[conv["geometry"]] if g.swap else conv["geometry"]
    return {"geometry": _REFLECTED[geometry] if g.reflect else geometry, "exponent": g.sign * conv["exponent"]}


def _mirror(pending: dict, res: CheckResult, images: Sequence[Symmetry]) -> None:
    """File the image of ``res`` under each of ``images`` in ``pending``,
    unless a result or a marker is filed there already.  A failed ``res``
    files the marker None at each image instead, so each is checked
    directly and no verified image is filed over it later."""
    for g in images:
        cfg = _image(g, res.config)
        # the sweep's key: the configuration's values in order, lists as tuples
        key = tuple(tuple(v) if type(v) is list else v for v in cfg.values())
        if key not in pending:
            pending[key] = None if res.status != VERIFIED else CheckResult(
                res.identity, cfg, VERIFIED, Element.zero(cfg["n"]), _convention(g, res.convention))


MEMBERSHIP_N_MAX = 3
MEMBERSHIP_WORD_LEN = 2


def run_suite(n_max: int = 4, size_cap: Optional[int] = 3, include_membership: bool = True) -> SuiteReport:
    """Exhaustive sweep of every applicable identity configuration within caps.

    Sweeps proper minors (size below n); the full-size central minor is a
    separate single check exposed by the minors module tests.  Membership
    checks range over words in the letters of the minor's own submatrix, the
    case the main localization argument consumes.

    The centrality and q-commutation checks are made once per orbit of the
    group {1, T, F, tau} (:class:`~qmb.algebra.Symmetry`).  Each verified
    result files its images under T, F and tau in ``pending`` (:func:`_mirror`),
    which the sweep reads when it reaches that configuration.
    A failed result files the marker None instead, so every image in its
    orbit is checked directly; so is every fixed point of the group.  The
    Muir checks are made once per orbit of the flip alone, since T and tau
    map a column interchange to a row interchange: the two products of a
    Muir pair give the results of ``(L, L')`` and ``(L', L)``, and the flip
    images of both.  The report is the one that checking every configuration
    directly gives.
    """
    report = SuiteReport(
        params={
            "n_max": n_max,
            "size_cap": size_cap,
            "include_membership": include_membership,
            "membership_n_max": MEMBERSHIP_N_MAX,
            "membership_word_len": MEMBERSHIP_WORD_LEN,
        }
    )
    results = report.results
    # results filed ahead, keyed by configuration: the images of verified
    # results, reversed Muir pairs, and None at the images of a failed result.
    # An image the sweep has passed (a fixed point's own configuration, or an
    # earlier member of the orbit of a result checked after a failure) is
    # filed too, and never read.
    pending: dict[tuple, Optional[CheckResult]] = {}
    for n, K, L in _minor_shapes(n_max, size_cap):
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                if generator_position(K, L, k, l) == "column-gap":
                    # both gap checks read the one commutator formed here
                    lhs = _gap_lhs(n, K, L, k, l)
                    results.append(_gap_r(n, K, L, k, l, lhs))
                    if gap_index(L, l) == 1:
                        results.append(_gap_one(n, K, L, k, l, lhs))
                    continue
                key = (n, K, L, k, l)
                res = pending.pop(key, None)
                if res is None:
                    # the guards of the other generator checks decide which apply
                    res = check_centrality(*key)
                    if res.status == NOT_APPLICABLE:
                        res = check_qcommutation(*key)
                        if res.status == NOT_APPLICABLE:
                            continue
                    _mirror(pending, res, _GENERATOR_IMAGES)
                results.append(res)
        # minors differing in one column label: the products of the pair
        # (L, L') also give the result of (L', L)
        for position in range(1, len(L) + 1):
            for b in range(1, n + 1):
                if b not in L:
                    Lp = column_replace(L, position, b)
                    key = (n, K, L, Lp)
                    res = pending.pop(key, None)
                    if res is None:
                        res, back = check_muir_pair(*key)
                        pending[n, K, Lp, L] = back
                        _mirror(pending, res, _MUIR_IMAGES)
                        _mirror(pending, back, _MUIR_IMAGES)
                    results.append(res)

    if include_membership:
        for n, K, L in _minor_shapes(min(n_max, MEMBERSHIP_N_MAX), size_cap):
            inner = [(i, j) for i in K for j in L]
            outside = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if generator_position(K, L, i, j) == "outside"
            ]
            words: list[tuple] = [()]
            for length in range(1, MEMBERSHIP_WORD_LEN + 1):
                words.extend(product(inner, repeat=length))
            for op in outside:
                for w in words:
                    results.append(check_E0_membership(n, K, L, op, [(ONE, w)]))

    exponents: dict[str, dict[str, set]] = {"q-commutation": {}, "muir": {}}
    gap_one: set = set()
    gap_r: set = set()
    for res in results:
        c = res.convention
        if res.identity in exponents and c["exponent"] is not None:
            exponents[res.identity].setdefault(c["geometry"], set()).add(c["exponent"])
        elif res.identity == "gap-r" and res.status == VERIFIED:
            gap_r.add((c["row_reading"], c["column_reading"]))
        elif res.identity == "gap-one" and res.status == VERIFIED:
            gap_one.add(c["factor_order"])

    def collapse(d: dict[str, set]) -> dict:
        return {k: (sorted(v)[0] if len(v) == 1 else sorted(v)) for k, v in sorted(d.items())}

    report.conventions = {
        "q-commutation": collapse(exponents["q-commutation"]),
        "muir": collapse(exponents["muir"]),
        "gap-one-factor-order": sorted(gap_one),
        "gap-r-reading": sorted(map(list, gap_r)),
    }
    return report
