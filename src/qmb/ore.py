"""Certified Ore-condition witnesses for multiplicative sets of quantum minors.

A witness certifies one instance of the Ore condition for an element ``e``
against the set generated by a minor ``D``:

* left form:   ``scale * D^power * e  ==  cofactor * D^target_power``
* right form:  ``scale * e * D^power  ==  D^target_power * cofactor``

The right form is the left form in the opposite algebra (every product
read in reverse order), so one body of code serves both forms; the
solver asks right-form questions only (see :func:`_solve_at_power`).

``scale`` is a central Laurent scalar: zero or a monomial ``c*q^k`` in a
witness file, and ``1`` in every witness either route produces, because
every solver system is unit-triangular on its leading rows and so has a
unique, Laurent solution (README lemma 2).  ``target_power`` is 1 except for
intermediate witnesses produced by :func:`extend_to_power`.  A single
witness is replayed once, at its return, by an independent normal-form
computation, so no uncertified witness ever escapes; a chain is certified by
its links' replays plus the link conditions (:func:`_check_links`).

A :class:`ChainWitness` keeps only its links, one single-minor witness per
minor of an ordered product; its powers, scale and cofactor follow from them.

Two independent routes produce witnesses:

* :func:`solve_witness`: forward substitution over Laurent polynomials in
  the multidegree-forced PBW component, with the basis ordered by
  decreasing weight, scanning powers upward (the oracle, with minimality
  and infeasibility evidence);
* :func:`witness_generator_constructive` / :func:`witness_for_element`:
  composition of the verified commutation identities, never solving a
  generic linear system.  It dispatches on the sweep's own statements:
  ``generator_position``, ``gap_correction_terms`` and ``commutator_terms``
  of :mod:`qmb.identities`.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial, reduce
from itertools import count
from typing import Optional, Sequence

from .algebra import (ANTITRANSPOSE, FLIP, IDENTITY, TRANSPOSE, Element, Symmetry, _check_cap, basis_monomials,
                      commutator, word_products)
from .exprparse import ExprSyntaxError, parse_element, parse_laurent
from .identities import commutator_terms, gap_correction_terms, generator_position
from .linalg import solve_linear
from .minors import MinorId, check_matrix_size, minor_element, qcommutation_probe
from .scalars import ONE, QINV, LaurentQ

LEFT = "left-form"
RIGHT = "right-form"
SIDES = (LEFT, RIGHT)


class CertificateError(RuntimeError):
    """A witness equation failed to replay to a zero residual."""


class UnsatWithinBound(RuntimeError):
    """No witness within the requested power bound: the solver found none up
    to it (``infeasible`` holds its records), or the constructive route's
    witness exceeds it (``infeasible`` is empty)."""

    def __init__(self, message: str, infeasible: list[dict]):
        super().__init__(message)
        self.infeasible = infeasible


def _times(side: str, a: Element, b: Element) -> Element:
    """``a * b`` in the left form, ``b * a`` in the right form."""
    return a * b if side == LEFT else b * a


@lru_cache(maxsize=1024)
def _minor_power(n: int, minor: MinorId, k: int) -> Element:
    """Cached powers of a minor; witness certification reuses them heavily.
    A power past the degree cap is refused before any recursion.  ``D^k`` is
    formed as ``D * D^(k-1)`` (powers of one element commute), so the append
    entries the product reads are keyed by suffixes of the minor's own short
    words, not of the power's (README, "The product kernel")."""
    _check_cap(k * minor.size())
    if k == 0:
        return Element.unit(n)
    return minor_element(n, minor) * _minor_power(n, minor, k - 1)


def _minor_first(n: int, pairs: list, x: Element, on_left: bool) -> Element:
    """``P * x`` when ``on_left``, else ``x * P``, for ``P`` the product of the
    ``(minor, power)`` factors ``pairs`` in order, walked with a minor power
    on the left either way: ``x * P`` is formed as ``F(F(P) * F(x))``.  The
    flip F is an anti-automorphism and an involution that maps ``D[K,L]`` to
    ``D[K*,L*]`` (README lemma 1a), so ``F(P)`` is the product of the cached
    powers of the flipped minors in reverse order, and no minor power is
    relabelled."""
    if on_left:
        return reduce(operator.mul, [_minor_power(n, m, k) for m, k in pairs]) * x
    flipped = reduce(operator.mul, [_minor_power(n, m.image(FLIP, n), k) for m, k in reversed(pairs)])
    return FLIP.element(flipped * FLIP.element(x))


def _residual(w, scaled: list, cleared: list) -> Element:
    """The two sides of ``w``'s equation subtracted: zero when they are equal,
    their exact difference otherwise.  ``scaled`` and ``cleared`` list
    ``(minor, power)`` factors, whose products ``P`` and ``C`` stand in
    ``scale * P * element == cofactor * C`` (left form) or
    ``scale * element * P == C * cofactor`` (right form).  Both sides are
    exact normal forms, each walked minor first (:func:`_minor_first`): the
    right form's scaled side and the left form's cleared side through the
    flip (README, "The product kernel", orientation)."""
    lhs = _minor_first(w.n, scaled, w.element, w.side == LEFT).scale(w.scale)
    rhs = _minor_first(w.n, cleared, w.cofactor, w.side == RIGHT)
    return Element.zero(w.n) if lhs == rhs else lhs - rhs


def _json_head(w, schema: str) -> dict:
    """The keys both witness schemas write."""
    return {"schema": schema, "n": w.n, "element": w.element.render(), "side": w.side,
            "scale": w.scale.render(), "cofactor": w.cofactor.render(), "certified": w.certified}


@dataclass(frozen=True)
class OreWitness:
    n: int
    minor: MinorId
    element: Element
    side: str
    power: int
    cofactor: Element
    scale: LaurentQ = ONE
    target_power: int = 1
    derivation: dict = field(default_factory=dict)
    infeasible: list[dict] = field(default_factory=list)
    certified: bool = False

    @property
    def denominator_zeros(self) -> list[LaurentQ]:
        """The values of q this witness excludes: none (see :func:`_factor_scale`)."""
        return _factor_scale(self.scale)

    def residual(self) -> Element:
        return _residual(self, [(self.minor, self.power)], [(self.minor, self.target_power)])

    def certify(self) -> "OreWitness":
        """A copy marked certified once the equation replays to zero."""
        res = self.residual()
        if not res.is_zero():
            raise CertificateError(f"witness for {self.element.render()} against {self.minor.label()}^{self.power} "
                                   f"({self.side}) has nonzero residual {res.render()}")
        return replace(self, certified=True)

    def to_json(self) -> dict:
        return {
            **_json_head(self, "qmb-witness-v1"),
            "minor": {"rows": list(self.minor.rows), "cols": list(self.minor.cols)},
            "power": self.power,
            "target_power": self.target_power,
            "derivation": self.derivation,
            "denominator_zeros": [f.render() for f in self.denominator_zeros],
            "infeasible_powers": self.infeasible,
        }


def _check_side(side: str) -> None:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")


def _check_question(n: int, element: Element, side: str) -> None:
    _check_side(side)
    if element.is_zero():
        raise ValueError("cannot witness the zero element")
    if element.n != n:
        raise ValueError("element size does not match n")


def _node(rule: str, detail: Optional[dict] = None, children: Optional[list[dict]] = None) -> dict:
    out = {"rule": rule}
    if detail:
        out["detail"] = detail
    if children:
        out["children"] = children
    return out


# -- the exact linear solver ------------------------------------------------------


def _solve_at_power(n: int, minor: MinorId, element: Element, side: str, m: int):
    """The cofactor at a fixed power, or None and the record when infeasible.
    Right-form systems ``e * D^m == D * x`` only: the question is mapped by
    tau if it is a left one, and then by T if that gives the smaller key
    ``(rows, cols, sorted words)`` (README lemma 1).  The mapped question has
    the same system up to renaming; it is solved through the per-process memo
    :func:`_solve_right`, and the same map, an involution, maps its cofactor
    back.  A record counts only, so it is the same for all four questions;
    each caller gets its own copy."""
    first = ANTITRANSPOSE if side == LEFT else IDENTITY
    questions = [(minor.image(g, n), g.element(element), g) for g in (first, first.then(TRANSPOSE))]
    minor, element, g = min(questions, key=lambda q: (q[0].rows, q[0].cols, sorted(q[1]._t)))
    cofactor, record = _solve_right(n, minor, element, m)
    return (None, dict(record)) if cofactor is None else (g.element(cofactor), None)


@lru_cache(maxsize=1024)
def _solve_right(n: int, minor: MinorId, element: Element, m: int):
    """The right-form system ``e * D^m == D * x`` at power ``m``: the cofactor,
    or None and the record.  The target ``e * D^m`` is walked minor first
    (:func:`_minor_first`), and the columns ``D * b``, one per basis word, are
    the states of one walk of ``D`` by the whole basis
    (:func:`qmb.algebra.word_products`), so ``D`` is packed once per system
    and a prefix that basis words share is walked once."""
    D = minor_element(n, minor)
    target = _minor_first(n, [(minor, m)], element, False)
    x_deg = target.multidegree().minus(D.multidegree())  # (m - 1) deg D + deg e: never negative
    # heaviest first (``t[i,j]`` weighs i*j; a stable sort) is the pivot order
    # the solver requires: by README lemma 2(c) no later column touches the
    # leading word of ``D * b``
    basis = sorted(basis_monomials(n, x_deg.rows, x_deg.cols),
                   key=lambda w: sum(i * j for i, j in w), reverse=True)
    products = word_products(D, basis)
    columns = [products[b]._t for b in basis]
    sol = solve_linear(columns, target._t)
    if not sol.consistent:
        return None, {"power": m, "reason": "inconsistent linear system", "rank": sol.rank,
                      "unknowns": len(basis), "equations": sol.equations}
    return Element._make(n, {b: c for b, c in zip(basis, sol.solution) if c}), None


def _factor_scale(scale: LaurentQ) -> list[LaurentQ]:
    """The values of q a witness of this scale excludes: none.  A scale must be
    zero or a monomial ``c*q^k`` (README lemma 2 gives every question a
    scale-1 witness), and a monomial vanishes at no admissible q; any other
    scale raises ``ValueError``."""
    if scale.is_zero() or scale.is_monomial():
        return []
    raise ValueError(f"a witness scale must be zero or a monomial c*q^k, not a sum of {len(scale.terms)} terms")


def solve_witness(
    n: int,
    minor: MinorId,
    element: Element,
    side: str = LEFT,
    m_max: Optional[int] = None,
) -> OreWitness:
    """Minimal-power witness by exact linear solving in the forced component.

    Scans powers upward; every infeasible smaller power is recorded with the
    rank evidence.  Inhomogeneous elements are split by multidegree and the
    component witnesses summed.  Without ``m_max`` the scan ends at a witness
    or at the degree cap (``DegreeCapError``); with it, past ``m_max``
    (``UnsatWithinBound``).
    """
    _check_question(n, element, side)
    if element.multidegree() is None:
        comps = list(element.homogeneous_components().values())
        witnesses = [_solve_homogeneous(n, minor, c, side, m_max) for c in comps]
        split = _node("split", {"components": len(comps)}, [w.derivation for w in witnesses])
        out = replace(reduce(_compose_sum, witnesses), derivation=split)
    else:
        out = _solve_homogeneous(n, minor, element, side, m_max)
    return out.certify()


def _solve_homogeneous(n: int, minor: MinorId, element: Element, side: str, m_max: Optional[int]) -> OreWitness:
    infeasible: list[dict] = []
    for m in count(1) if m_max is None else range(1, m_max + 1):
        cofactor, record = _solve_at_power(n, minor, element, side, m)
        if cofactor is None:
            infeasible.append(record)
            continue
        return OreWitness(
            n=n,
            minor=minor,
            element=element,
            side=side,
            power=m,
            cofactor=cofactor,
            derivation=_node("solver", {"power": m, "infeasible_below": len(infeasible)}),
            infeasible=infeasible,
        )
    raise UnsatWithinBound(
        f"no witness for {element.render()} against {minor.label()} ({side}) up to power {m_max}",
        infeasible,
    )


# -- composition calculus ----------------------------------------------------------
# Each ``_name`` builder composes without replaying; the public ``name``
# certifies its result once.  A replay of an intermediate equation cannot make
# a wrong final one right, so nested compositions are not replayed.


def _require_compatible(w1: OreWitness, w2: OreWitness) -> None:
    if w1.minor != w2.minor or w1.side != w2.side or w1.n != w2.n:
        raise ValueError("witnesses must share the minor and the side")
    if w1.target_power != 1 or w2.target_power != 1:
        raise ValueError("composition requires plain witnesses (target power 1)")


def _scale_witness(w: OreWitness, factor: LaurentQ) -> OreWitness:
    factor = LaurentQ.coerce(factor)
    if factor.is_zero():
        raise ValueError("cannot witness the zero element")
    return replace(w, element=w.element.scale(factor), cofactor=w.cofactor.scale(factor), infeasible=[],
                   certified=False, derivation=_node("scale", {"factor": factor.render()}, [w.derivation]))


def scale_witness(w: OreWitness, factor: LaurentQ) -> OreWitness:
    """Witness for ``factor * element`` (central scalar factor)."""
    return _scale_witness(w, factor).certify()


def _extend_to_power(w: OreWitness, j: int) -> OreWitness:
    if j < 1:
        raise ValueError("target power must be positive")
    if w.target_power != 1:
        raise ValueError("can only extend a plain witness")
    if j == 1:
        return w
    n, minor, side = w.n, w.minor, w.side
    P, R, S = w.power, w.cofactor, w.scale
    children = [w.derivation]
    for p in range(1, j):
        wr = _witness_constructive(n, minor, R, side)
        children.append(wr.derivation)
        P += wr.power
        S = S * wr.scale
        R = wr.cofactor
    M = -(-P // j)  # ceil
    pad = j * M - P
    if pad:
        R = _times(side, _minor_power(n, minor, pad), R)
    return replace(w, power=j * M, cofactor=R, scale=S, target_power=j, infeasible=[], certified=False,
                   derivation=_node("power", {"target": j, "pad": pad}, children))


def extend_to_power(w: OreWitness, j: int) -> OreWitness:
    """Re-derive a witness clearing the element against ``D^j`` instead of ``D``.

    Iteratively clears the running cofactor against the minor, raising the
    cleared power by one each step, then pads on the left so the total power
    is a multiple of ``j``.  ``j == 1`` returns ``w`` itself.
    """
    out = _extend_to_power(w, j)
    return w if out is w else out.certify()


def _combined(rule: str, w1: OreWitness, w2: OreWitness, element: Element, power: int, cofactor: Element):
    """The witness that ``rule`` composes from ``w1`` and ``w2``; their scales multiply."""
    return OreWitness(n=w1.n, minor=w1.minor, element=element, side=w1.side, power=power, cofactor=cofactor,
                      scale=w1.scale * w2.scale, derivation=_node(rule, None, [w1.derivation, w2.derivation]))


def _compose_product(w1: OreWitness, w2: OreWitness) -> OreWitness:
    _require_compatible(w1, w2)
    element = w1.element * w2.element
    if element.is_zero():
        raise ValueError("product of witnessed elements is zero")
    # the side picks the factor whose witness is re-derived against the power
    # the other one consumes; the cofactors then chain in factor order
    if w1.side == LEFT:
        ext = w1 = _extend_to_power(w1, w2.power)
    else:
        ext = w2 = _extend_to_power(w2, w1.power)
    return _combined("product", w1, w2, element, ext.power, w1.cofactor * w2.cofactor)


def compose_product(w1: OreWitness, w2: OreWitness) -> OreWitness:
    """Witness for ``e1 * e2`` from witnesses for the factors.

    One factor's witness is re-derived against the power the other factor's
    witness consumes, then the two clearances chain: left form clears the
    right factor first, right form the left factor.
    """
    return _compose_product(w1, w2).certify()


def _compose_sum(w1: OreWitness, w2: OreWitness) -> OreWitness:
    _require_compatible(w1, w2)
    n, minor, side = w1.n, w1.minor, w1.side
    element = w1.element + w2.element
    if element.is_zero():
        raise ValueError("sum of witnessed elements is zero")
    M = max(w1.power, w2.power)
    pad1 = _minor_power(n, minor, M - w1.power)
    pad2 = _minor_power(n, minor, M - w2.power)
    cofactor = _times(side, pad1, w1.cofactor).scale(w2.scale) + _times(side, pad2, w2.cofactor).scale(w1.scale)
    return _combined("sum", w1, w2, element, M, cofactor)


def compose_sum(w1: OreWitness, w2: OreWitness) -> OreWitness:
    """Witness for ``e1 + e2``; powers align by padding to the larger one
    (powers of the minor commute with each other)."""
    return _compose_sum(w1, w2).certify()


def _reduce_relative(
    n: int, minor: MinorId, element: Element, pair: tuple[Element, int], e_witness: OreWitness, side: str
) -> OreWitness:
    _check_side(side)
    if e_witness.side != side or e_witness.minor != minor or e_witness.n != n:
        raise ValueError("defect witness must match the minor and side")
    if e_witness.target_power != 1:
        raise ValueError("defect witness must be a plain witness")
    r0, m0 = pair
    D = minor_element(n, minor)
    Dm0 = _minor_power(n, minor, m0)
    if side == LEFT:
        defect = r0 * D - Dm0 * element
    else:
        defect = element * Dm0 - D * r0
    if defect.is_zero():
        # the pair is already an exact clearance
        return OreWitness(
            n=n, minor=minor, element=element, side=side, power=m0, cofactor=r0,
            derivation=_node("relative", {"base_power": m0, "defect": "zero"}),
        )
    if defect != e_witness.element:
        raise ValueError(
            "relative pair mismatch: the pair's defect does not equal the witnessed element"
        )
    se, me, re_ = e_witness.scale, e_witness.power, e_witness.cofactor
    Dme = _minor_power(n, minor, me)
    if side == LEFT:
        cofactor = (Dme * r0).scale(se) - re_
    else:
        cofactor = (r0 * Dme).scale(se) + re_
    return OreWitness(
        n=n,
        minor=minor,
        element=element,
        side=side,
        power=m0 + me,
        cofactor=cofactor,
        scale=se,
        derivation=_node("relative", {"base_power": m0}, [e_witness.derivation]),
    )


def reduce_relative(
    n: int, minor: MinorId, element: Element, pair: tuple[Element, int], e_witness: OreWitness, side: str = LEFT
) -> OreWitness:
    """Witness for ``element`` from a clearance that is exact only modulo a
    witnessed defect.

    ``pair = (r0, m0)`` must satisfy (left form) ``NF(r0 D - D^m0 element) ==
    e_witness.element``; the defect's witness then upgrades the pair to an
    exact witness of power ``m0 + e_witness.power``.
    """
    return _reduce_relative(n, minor, element, pair, e_witness, side).certify()


# -- constructive witnesses for generators -----------------------------------------


_GEN_WITNESS_CACHE: dict[tuple, OreWitness] = {}


def witness_generator_constructive(n: int, minor: MinorId, k: int, l: int, side: str = LEFT) -> OreWitness:
    """Certified witness for the generator ``t[k,l]``, by case analysis on the
    position of ``(k, l)`` relative to the minor's index sets; no generic
    linear solving anywhere on this path.  Certified once, on entering the cache."""
    _check_side(side)
    key = (n, minor.rows, minor.cols, k, l, side)
    out = _GEN_WITNESS_CACHE.get(key)
    if out is None:
        out = _GEN_WITNESS_CACHE[key] = _generator_witness(n, minor, k, l, side).certify()
    return out


def _witness_image(g: Symmetry, w: OreWitness, rule: str, detail: dict) -> OreWitness:
    """``w``'s image under ``g``, uncertified, derived by the node ``rule``: minor, element and
    cofactor mapped, the side swapped if ``g`` reflects, and the rest kept (README lemma 1)."""
    return replace(w, minor=w.minor.image(g, w.n), element=g.element(w.element), cofactor=g.element(w.cofactor),
                   side={LEFT: RIGHT, RIGHT: LEFT}[w.side] if g.reflect else w.side,
                   infeasible=[dict(r) for r in w.infeasible], derivation=_node(rule, detail, [w.derivation]),
                   certified=False)


def _generator_witness(n: int, minor: MinorId, k: int, l: int, side: str) -> OreWitness:
    if side == RIGHT:
        # the antitranspose turns right clearances into left ones for the mirrored minor
        g = ANTITRANSPOSE
        left = witness_generator_constructive(n, minor.image(g, n), *g.letter((k, l), n), LEFT)
        return _witness_image(g, left, "mirror", {"map": "t[i,j] -> t[n+1-j,n+1-i]"})

    t = Element.generator(n, k, l)
    t_witness = partial(OreWitness, n=n, minor=minor, element=t, side=side)
    K, L = minor.rows, minor.cols
    D = minor_element(n, minor)
    position = generator_position(K, L, k, l)

    if position == "central":
        return t_witness(power=1, cofactor=t, derivation=_node("central", {"k": k, "l": l}))
    if position == "column-gap":
        # the commutation defect expands over minors with one replaced column
        # label, each q-commuting with D
        w_terms = []
        for coeff, (row, col), Lp in gap_correction_terms(n, K, L, k, l):
            w_t = witness_generator_constructive(n, minor, row, col, LEFT)
            replaced = MinorId(K, Lp)
            w_D = _qcommuting_witness(minor, minor_element(n, replaced), D, {"minor": replaced.label()})
            w_terms.append(_scale_witness(_compose_product(w_t, w_D), coeff))
        # pair: q^-1 t clears D up to the (negated) defect
        w_neg = _scale_witness(reduce(_compose_sum, w_terms), LaurentQ(-1))
        out = _reduce_relative(n, minor, t, (t.scale(QINV), 1), w_neg, LEFT)
        return replace(out, derivation=_node("gap-recursion", {"k": k, "l": l}, [out.derivation]))
    if position == "row-gap":
        # transpose to a column gap for the transposed minor
        left = witness_generator_constructive(n, minor.image(TRANSPOSE, n), l, k, LEFT)
        return _witness_image(TRANSPOSE, left, "transposed-gap", {"k": k, "l": l})
    if position != "outside":  # one label inside, the other outside its set's range
        return _qcommuting_witness(minor, t, D, {"k": k, "l": l})
    # outside on both indices: the commutator with D expands over words in
    # the subalgebra generated by letters sharing a row with K or a column
    # with L, all of which are already witnessed
    if commutator(t, D).is_zero():
        return t_witness(power=1, cofactor=t,
                         derivation=_node("central", {"k": k, "l": l, "note": "commutes outright"}))
    expansion = [term for _, _, term in commutator_terms(t, [(c, w) for w, c in D.terms()])]
    # _reduce_relative compares the expansion with the defect exactly
    w_defect = _witness_for_terms(n, minor, expansion, LEFT)
    out = _reduce_relative(n, minor, t, (t, 1), w_defect, LEFT)
    return replace(out, derivation=_node("outside", {"k": k, "l": l}, [out.derivation]))


def _qcommuting_witness(minor: MinorId, x: Element, D: Element, detail: dict) -> OreWitness:
    """Power-1 left witness ``D x == q^-e x D`` for the measured exponent ``e``."""
    e = qcommutation_probe(x, D)
    if e is None:
        raise CertificateError(f"expected {x.render()} to q-commute with {minor.label()}")
    return OreWitness(
        n=x.n, minor=minor, element=x, side=LEFT, power=1, cofactor=x.scale(LaurentQ.q_power(-e)),
        derivation=_node("q-commute", {**detail, "exponent": e}),
    )


def _witness_for_word(n: int, minor: MinorId, word: tuple, side: str) -> OreWitness:
    """Witness for a product of generators, composed right to left so that
    power extensions only ever recurse into already-cleared cofactors."""
    if not word:
        return OreWitness(
            n=n, minor=minor, element=Element.unit(n), side=side, power=1,
            cofactor=Element.unit(n), derivation=_node("unit"),
        )
    if all(generator_position(minor.rows, minor.cols, *g) == "central" for g in word):
        # sorted: a commutator expansion's pair letters are never central, so
        # this word is a suffix of an element's word or of what follows a pair
        elem = Element._make(n, {word: ONE})
        return OreWitness(
            n=n, minor=minor, element=elem, side=side, power=1, cofactor=elem,
            derivation=_node("central-word", {"length": len(word)}),
        )
    acc = _witness_for_word(n, minor, word[1:], side)
    g = word[0]
    w_g = witness_generator_constructive(n, minor, g[0], g[1], side)
    return _compose_product(w_g, acc)


def _witness_for_terms(n: int, minor: MinorId, terms: Sequence[tuple[LaurentQ, tuple]], side: str) -> OreWitness:
    if not terms:
        raise ValueError("cannot witness an empty expression")
    return reduce(_compose_sum, [_scale_witness(_witness_for_word(n, minor, word, side), coeff)
                                 for coeff, word in terms])


def _witness_constructive(n: int, minor: MinorId, element: Element, side: str) -> OreWitness:
    words = element.terms()
    if len(words) == 1 and not words[0][0]:
        # scalar multiple of the unit
        coeff = words[0][1]
        return OreWitness(
            n=n, minor=minor, element=element, side=side, power=1,
            cofactor=Element.scalar(n, coeff),
            derivation=_node("unit", {"coefficient": coeff.render()}),
        )
    return _witness_for_terms(n, minor, [(c, w) for w, c in words], side)


def witness_for_element(
    n: int,
    minor: MinorId,
    element: Element,
    side: str = LEFT,
    strategy: str = "constructive",
    m_max: Optional[int] = None,
) -> OreWitness:
    """Witness for an arbitrary nonzero element.

    ``constructive`` decomposes into monomials of generator witnesses;
    ``solver`` solves componentwise; ``both`` runs the two routes and
    cross-validates (both certificates must replay; powers may differ), and
    returns the solver witness.  On every route a returned witness has power
    at most ``m_max``: a constructive witness above it raises
    ``UnsatWithinBound``, although a smaller power may exist."""
    if strategy == "solver":
        return solve_witness(n, minor, element, side, m_max)
    if strategy == "both":
        ws = solve_witness(n, minor, element, side, m_max)
        wc = witness_for_element(n, minor, element, side, "constructive")
        return replace(ws, derivation=_node(
            "cross-validated",
            {"constructive_power": wc.power, "solver_power": ws.power},
            [ws.derivation, wc.derivation],
        ))
    if strategy != "constructive":
        raise ValueError(f"unknown strategy {strategy!r}")
    _check_question(n, element, side)
    w = _witness_constructive(n, minor, element, side)
    if m_max is not None and w.power > m_max:
        raise UnsatWithinBound(f"the constructive witness for {element.render()} against {minor.label()} "
                               f"({side}) has power {w.power}, above the bound {m_max}", [])
    return w.certify()


# -- multi-minor chains --------------------------------------------------------------


def _clearing_order(side: str, seq: Sequence) -> list:
    """A chain's minors, or its links, in clearing order: last minor first in the left form."""
    return list(seq[::-1] if side == LEFT else seq)


@dataclass(frozen=True)
class ChainWitness:
    """A chained clearance against an ordered product of minors.

    Left form:  ``scale * D_1^{a_1} ... D_p^{a_p} * element == cofactor * (D_1 D_2 ... D_p)``
    Right form: ``scale * element * D_1^{a_1} ... D_p^{a_p} == (D_1 D_2 ... D_p) * cofactor``

    ``links`` are single-minor witnesses in clearing order, each clearing the
    cofactor of the one before; ``powers``, ``scale`` and ``cofactor`` follow
    from them, and so does the equation (README lemma 4), which :meth:`residual` replays whole.
    """

    n: int
    minors: list[MinorId]
    element: Element
    side: str
    links: list[OreWitness]
    certified: bool = False

    @property
    def powers(self) -> list[int]:
        """``a_i``: the power of the link against ``D_i``."""
        return [w.power for w in _clearing_order(self.side, self.links)]

    @property
    def scale(self) -> LaurentQ:
        return reduce(operator.mul, [w.scale for w in self.links])

    @property
    def cofactor(self) -> Element:
        return self.links[-1].cofactor

    def residual(self) -> Element:
        return _residual(self, list(zip(self.minors, self.powers)), [(m, 1) for m in self.minors])

    def certify(self) -> "ChainWitness":
        """A copy marked certified once its links are certified and meet the link conditions."""
        if not all(link.certified for link in self.links):
            raise CertificateError("a chain is certified only through certified links")
        _check_links(self)
        return replace(self, certified=True)

    def to_json(self) -> dict:
        return {
            **_json_head(self, "qmb-chain-witness-v1"),
            "minors": [{"rows": list(m.rows), "cols": list(m.cols)} for m in self.minors],
            "powers": self.powers,
            "links": [w.to_json() for w in self.links],
        }


def _check_links(w: ChainWitness) -> None:
    """Raise ValueError, naming the condition, unless ``w``'s links meet the link conditions of README lemma 4."""
    if not w.links or len(w.links) != len(w.minors):
        raise ValueError("malformed chain: a chain has one link per minor, and at least one")
    for i, (link, minor) in enumerate(zip(w.links, _clearing_order(w.side, w.minors))):
        if (link.n, link.side, link.target_power) != (w.n, w.side, 1):
            raise ValueError(f"malformed chain: link {i} must have the chain's n and side, and target power 1")
        if (link.minor, link.element) != (minor, w.links[i - 1].cofactor if i else w.element):
            cleared = f"the cofactor of link {i - 1}" if i else "the chain's element"
            raise ValueError(f"malformed chain: link {i} must clear {cleared} against {minor.label()}")


def multi_minor_witness(
    n: int,
    minors: Sequence[MinorId],
    element: Element,
    side: str = LEFT,
    strategy: str = "constructive",
    m_max: Optional[int] = None,
) -> ChainWitness:
    """Chained witness against the product of several minors.

    Left form clears the element first against the last minor, then clears
    each successive cofactor against the minor before it, so the set element
    on the cleared side is the product in the given order.  Each link is
    ``witness_for_element`` with ``strategy`` and ``m_max``; the chain's
    powers, scale, cofactor and certificate follow from its links.
    """
    if not minors:
        raise ValueError("need at least one minor")
    links: list[OreWitness] = []
    for minor in _clearing_order(side, minors):
        current = links[-1].cofactor if links else element
        links.append(witness_for_element(n, minor, current, side, strategy, m_max))
    return ChainWitness(n=n, minors=list(minors), element=element, side=side, links=links).certify()


# -- witness files ---------------------------------------------------------------------

# each schema's keys that the reader re-derives from the rest of the file
DERIVED_KEYS = {"qmb-witness-v1": ("denominator_zeros",), "qmb-chain-witness-v1": ("powers", "scale", "cofactor")}


def witness_to_file(w: OreWitness | ChainWitness, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(w.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_int(data: dict, key: str) -> int:
    """``data[key]``, which must be a JSON integer of at least 1."""
    value = data[key]
    if type(value) is not int or value < 1:
        raise ValueError(f"malformed witness file: {key} must be an integer >= 1, got {value!r}")
    return value


def witness_from_json(data: dict) -> OreWitness | ChainWitness:
    """The (uncertified) witness a ``to_json`` dict states; every key that
    ``to_json`` writes must be present, and each of ``DERIVED_KEYS`` must be
    what ``to_json`` derives.  A chain's links are single witnesses, read
    uncertified, that must meet the link conditions (:func:`_check_links`)."""
    if data["schema"] not in DERIVED_KEYS:
        raise ValueError(f"unsupported witness schema {data['schema']!r}")
    n = _json_int(data, "n")
    check_matrix_size(n)
    element = parse_element(data["element"], n)
    if data["schema"] == "qmb-witness-v1":
        w = OreWitness(
            n=n,
            minor=MinorId(tuple(data["minor"]["rows"]), tuple(data["minor"]["cols"])),
            element=element,
            side=data["side"],
            power=_json_int(data, "power"),
            cofactor=parse_element(data["cofactor"], n),
            scale=parse_laurent(data["scale"]),
            target_power=_json_int(data, "target_power"),
            derivation=data["derivation"],
            infeasible=data["infeasible_powers"],
        )
    else:
        if any(link["schema"] != "qmb-witness-v1" for link in data["links"]):
            raise ValueError("malformed witness file: a chain's links are each a single witness")
        w = ChainWitness(n=n, minors=[MinorId(tuple(m["rows"]), tuple(m["cols"])) for m in data["minors"]],
                         element=element, side=data["side"], links=[witness_from_json(link) for link in data["links"]])
        _check_links(w)
    stated = w.to_json()
    missing = stated.keys() - data.keys()
    if missing:
        raise ValueError(f"malformed witness file: missing {sorted(missing)}")
    for key in DERIVED_KEYS[data["schema"]]:
        if json.dumps(data[key]) != json.dumps(stated[key]):
            raise ValueError(f"{key} must be {json.dumps(stated[key])}, derived from the rest of the file")
    return w


def _verified(w: OreWitness) -> OreWitness:
    """``w`` certified, once its infeasibility evidence is re-derived and matches."""
    _check_side(w.side)
    if w.scale.is_zero() or w.element.is_zero():
        raise ValueError("vacuous witness: the scale or the element is zero")
    if w.infeasible != []:
        if w.element.multidegree() is None:
            raise ValueError("an inhomogeneous element lists no infeasible powers")
        records = [_solve_at_power(w.n, w.minor, w.element, w.side, m)[1] for m in range(1, w.power)]
        if json.dumps(w.infeasible, sort_keys=True) != json.dumps(records, sort_keys=True):
            raise ValueError(f"infeasible_powers must be [] or the solver's records for powers "
                             f"1 .. {w.power - 1}")
    return w.certify()


def verify_witness_file(path: str) -> OreWitness | ChainWitness:
    """Re-check a witness or chain file bit-exactly; raises CertificateError on failure.

    Before the replay, everything the file states beside its equation is
    re-derived and compared: ``DERIVED_KEYS`` (a single witness's
    ``denominator_zeros``; a chain's powers, scale and cofactor, from its
    links), and ``infeasible_powers`` (empty, or the solver's record for every
    power below ``power``) by solving at each of those powers.  A chain's
    links are each checked and replayed so, which certifies the chain.  A
    malformed, vacuous or misstated file raises ValueError, and so does a
    scale that is neither zero nor a monomial ``c*q^k``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("malformed witness file: JSON nested too deeply") from None
    try:
        w = witness_from_json(data)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed witness file: missing or mistyped {exc}") from None
    except ExprSyntaxError as exc:
        raise ValueError(f"malformed witness file: {exc}") from None
    if isinstance(w, OreWitness):
        return _verified(w)
    return replace(w, links=[_verified(link) for link in w.links]).certify()
