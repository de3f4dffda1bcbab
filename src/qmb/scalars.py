"""Exact scalar arithmetic for the workbench.

Three nested coefficient domains, all exact:

* rationals (``fractions.Fraction``),
* Laurent polynomials in the deformation parameter ``q`` with rational
  coefficients (:class:`LaurentQ`),
* the fraction field of rational functions in ``q`` (:class:`QRational`).

``LaurentQ`` is the coefficient type of the API, of elements and of the
linear solver.  The product kernel (``algebra._mul_terms``) packs it into
one integer per coefficient for the length of a product and converts back
(README lemma 3).  The fraction field serves the public API alone, and no
computation uses it.  All values are immutable and canonical: two values
are equal iff their canonical forms are identical, so equality is cheap and
hashing is safe.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

ScalarLike = Union[int, Fraction, "LaurentQ"]

_FR_ZERO = Fraction(0)


def _norm_coeff(c):
    """Coefficients are stored as int whenever possible (int arithmetic is
    several times faster than Fraction); int and Fraction mix transparently
    in comparisons and hashing."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    return _norm_coeff(Fraction(c))


class LaurentQ:
    """A Laurent polynomial in ``q`` over the rationals.

    Canonical form: a tuple of ``(exponent, coefficient)`` pairs sorted by
    ascending exponent with every coefficient nonzero.  Instances are
    immutable; arithmetic re-canonicalizes.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[int, Fraction, Mapping[int, Fraction], Iterable[tuple[int, Fraction]], None] = None):
        if terms is None:
            self._terms: tuple[tuple[int, Fraction], ...] = ()
            return
        if isinstance(terms, (int, Fraction)):
            c = _norm_coeff(terms)
            self._terms = ((0, c),) if c else ()
            return
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = terms
        acc: dict[int, Fraction] = {}
        for e, c in items:
            c = _norm_coeff(c)
            if not c:
                continue
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s if type(s) is int else _norm_coeff(s)
            elif e in acc:
                del acc[e]
        self._terms = tuple(sorted(acc.items()))

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, terms: tuple[tuple[int, Fraction], ...]) -> "LaurentQ":
        out = object.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls) -> "LaurentQ":
        return _ZERO

    @classmethod
    def q_power(cls, e: int) -> "LaurentQ":
        """The monomial ``q^e`` (``e`` may be negative)."""
        return cls._raw(((e, 1),))

    @staticmethod
    def coerce(value: ScalarLike) -> "LaurentQ":
        if isinstance(value, LaurentQ):
            return value
        if isinstance(value, (int, Fraction)):
            return LaurentQ(value)
        raise TypeError(f"cannot interpret {value!r} as a Laurent polynomial in q")

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        if len(self._terms) != 1:
            return False
        e, c = self._terms[0]
        return e == 0 and c == 1

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return self._terms[0][0]

    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return self._terms[-1][0]

    def constant_value(self) -> Fraction:
        """The value as a plain rational; raises unless q-free."""
        if not self._terms:
            return _FR_ZERO
        if len(self._terms) == 1 and self._terms[0][0] == 0:
            return Fraction(self._terms[0][1])
        raise ValueError(f"{self} is not constant in q")

    # -- arithmetic --------------------------------------------------------

    # Each operator tests ``type(other) is LaurentQ`` first: the isinstance
    # test against Fraction goes through the ABC machinery and costs several
    # times more than the arithmetic on small operands.  An integral Fraction
    # result is stored as int, as the constructor does; ``type(s) is int``
    # keeps the all-int path to one identity test per term.

    def __add__(self, other: ScalarLike) -> "LaurentQ":
        if type(other) is not LaurentQ:
            if not isinstance(other, (int, Fraction, LaurentQ)):
                return NotImplemented
            other = LaurentQ.coerce(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        acc = dict(self._terms)
        for e, c in other._terms:
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s if type(s) is int else _norm_coeff(s)
            elif e in acc:
                del acc[e]
        return LaurentQ._raw(tuple(sorted(acc.items())))

    __radd__ = __add__

    def __neg__(self) -> "LaurentQ":
        return LaurentQ._raw(tuple((e, -c) for e, c in self._terms))

    def __sub__(self, other: ScalarLike) -> "LaurentQ":
        if type(other) is not LaurentQ:
            if not isinstance(other, (int, Fraction, LaurentQ)):
                return NotImplemented
            other = LaurentQ.coerce(other)
        return self + (-other)

    def __rsub__(self, other: ScalarLike) -> "LaurentQ":
        return (-self) + LaurentQ.coerce(other)

    def __mul__(self, other: ScalarLike) -> "LaurentQ":
        if type(other) is not LaurentQ:
            if not isinstance(other, (int, Fraction, LaurentQ)):
                return NotImplemented
            other = LaurentQ.coerce(other)
        if not self._terms or not other._terms:
            return _ZERO
        if other.is_one():
            return self
        if self.is_one():
            return other
        acc: dict[int, Fraction] = {}
        for e1, c1 in self._terms:
            for e2, c2 in other._terms:
                e = e1 + e2
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s if type(s) is int else _norm_coeff(s)
                elif e in acc:
                    del acc[e]
        return LaurentQ._raw(tuple(sorted(acc.items())))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentQ":
        if n < 0:
            if len(self._terms) != 1:
                raise ValueError(f"negative power of non-monomial {self}")
            e, c = self._terms[0]
            return LaurentQ._raw(((e * n, _norm_coeff(Fraction(c) ** n)),))
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> "LaurentQ":
        """Multiply by ``q^k``."""
        return LaurentQ._raw(tuple((e + k, c) for e, c in self._terms))

    # -- structure ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(other) is LaurentQ:
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            other = LaurentQ(other)
        if not isinstance(other, LaurentQ):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def specialize(self, q0: Union[int, Fraction]) -> Fraction:
        """Evaluate at ``q = q0``; ``q0 = 0`` is rejected."""
        q0 = Fraction(q0)
        if not q0:
            raise ValueError("specialization point q0 must be nonzero")
        return sum((q0**e * c for e, c in self._terms), _FR_ZERO)

    def divexact(self, other: "LaurentQ") -> "LaurentQ":
        """Exact division; raises ``ValueError`` when the division leaves a remainder."""
        if not other._terms:
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if not self._terms:
            return _ZERO
        s1, num = _dense(self)
        s2, den = _dense(other)
        quo, rem = _poly_divmod(num, den)
        if any(rem):
            raise ValueError(f"{self} is not divisible by {other}")
        return _from_dense(s1 - s2, quo)

    @staticmethod
    def gcd(a: "LaurentQ", b: "LaurentQ") -> "LaurentQ":
        """Polynomial gcd of the polynomial parts, primitive with positive leading coefficient.

        Monomial factors ``q^k`` are units of the Laurent ring and are ignored,
        so the gcd with a monomial is one.
        """
        if len(a._terms) == 1 or len(b._terms) == 1:
            return _ONE
        if a.is_zero() and b.is_zero():
            return _ZERO
        if a.is_zero():
            return _primitive(b)
        if b.is_zero():
            return _primitive(a)
        _, pa = _dense(a)
        _, pb = _dense(b)
        g = _poly_gcd(pa, pb)
        return _primitive(_from_dense(0, g))

    # -- text --------------------------------------------------------------

    def render(self) -> str:
        """Canonical text, terms in ascending q-exponent, e.g. ``-q^-1 + q``."""
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for e, c in self._terms:
            neg = c < 0
            mag = -c if neg else c
            if e == 0:
                body = str(mag)
            else:
                qpart = "q" if e == 1 else f"q^{e}"
                body = qpart if mag == 1 else f"{mag}*{qpart}"
            if not pieces:
                pieces.append(("-" if neg else "") + body)
            else:
                pieces.append(("- " if neg else "+ ") + body)
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentQ({self.render()!r})"


_ZERO = LaurentQ._raw(())
_ONE = LaurentQ._raw(((0, 1),))

#: Frequently used constants.
Q = LaurentQ.q_power(1)
QINV = LaurentQ.q_power(-1)
Q_MINUS_QINV = Q - QINV
ONE = _ONE
ZERO = _ZERO


# -- dense helpers (internal) ------------------------------------------------


def _dense(p: LaurentQ) -> tuple[int, list[Fraction]]:
    """Split off the lowest power: ``p = q^shift * (c_0 + c_1 q + ...)``, c_0 != 0.

    Coefficients come back as Fraction so the division-based helpers below
    stay in exact rational arithmetic."""
    shift = p.min_exp()
    top = p.max_exp()
    coeffs = [_FR_ZERO] * (top - shift + 1)
    for e, c in p.terms:
        coeffs[e - shift] = Fraction(c)
    return shift, coeffs


def _from_dense(shift: int, coeffs: list[Fraction]) -> LaurentQ:
    return LaurentQ._raw(tuple((shift + i, _norm_coeff(c)) for i, c in enumerate(coeffs) if c))


def _poly_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    if len(num) < len(den):
        return [_FR_ZERO], num
    quo = [_FR_ZERO] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if not c:
            continue
        f = c / lead
        quo[i - dd] = f
        for j in range(dd + 1):
            num[i - dd + j] -= f * den[j]
    while len(num) > 1 and not num[-1]:
        num.pop()
    return quo, num


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    b = list(b)
    while any(b):
        _, r = _poly_divmod(a, b)
        a, b = b, r
    while len(a) > 1 and not a[-1]:
        a.pop()
    return a


def _primitive(p: LaurentQ) -> LaurentQ:
    """Strip the q-power unit and rescale to primitive integer coefficients, positive leading."""
    if p.is_zero():
        return _ZERO
    shift, coeffs = _dense(p)
    from math import gcd as igcd, lcm

    den = lcm(*(c.denominator for c in coeffs if c)) if any(coeffs) else 1
    ints = [int(c * den) for c in coeffs]
    g = 0
    for v in ints:
        g = igcd(g, abs(v))
    if g == 0:
        return _ZERO
    if ints[-1] < 0:
        g = -g
    return _from_dense(0, [Fraction(v, g) for v in ints])


# -- rational functions ------------------------------------------------------


class QRational:
    """An element of the fraction field of rational functions in ``q``.

    Stored reduced (numerator and denominator coprime) with the denominator
    normalized to lowest q-exponent 0, primitive integer coefficients and a
    positive leading coefficient, so representations are unique.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: ScalarLike, den: ScalarLike = 1):
        num = LaurentQ.coerce(num)
        den = LaurentQ.coerce(den)
        if den.is_one():  # already canonical
            self._num = num
            self._den = _ONE
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self._num = _ZERO
            self._den = _ONE
            return
        g = LaurentQ.gcd(num, den)
        if not g.is_one():
            num = num.divexact(g)
            den = den.divexact(g)
        # normalize the denominator to a canonical unit multiple
        shift = den.min_exp()
        den = den.shift(-shift)
        num = num.shift(-shift)
        canon = _primitive(den)
        unit = den.divexact(canon)  # a rational multiple of a q-power
        num = num.divexact(unit)
        self._num = num
        self._den = canon

    @classmethod
    def _raw(cls, num: LaurentQ, den: LaurentQ) -> "QRational":
        out = object.__new__(cls)
        out._num = num
        out._den = den
        return out

    @property
    def num(self) -> LaurentQ:
        return self._num

    @property
    def den(self) -> LaurentQ:
        return self._den

    def is_zero(self) -> bool:
        return self._num.is_zero()

    def is_laurent(self) -> bool:
        return self._den.is_one()

    @staticmethod
    def coerce(value: Union[ScalarLike, "QRational"]) -> "QRational":
        if isinstance(value, QRational):
            return value
        return QRational(LaurentQ.coerce(value))

    def __add__(self, other) -> "QRational":
        other = QRational.coerce(other)
        return QRational(self._num * other._den + other._num * self._den, self._den * other._den)

    __radd__ = __add__

    def __neg__(self) -> "QRational":
        return QRational._raw(-self._num, self._den)

    def __sub__(self, other) -> "QRational":
        return self + (-QRational.coerce(other))

    def __rsub__(self, other) -> "QRational":
        return (-self) + QRational.coerce(other)

    def __mul__(self, other) -> "QRational":
        other = QRational.coerce(other)
        return QRational(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QRational":
        other = QRational.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return QRational(self._num * other._den, self._den * other._num)

    def __rtruediv__(self, other) -> "QRational":
        return QRational.coerce(other) / self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, LaurentQ)):
            other = QRational.coerce(other)
        if not isinstance(other, QRational):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def specialize(self, q0: Union[int, Fraction]) -> Fraction:
        d = self._den.specialize(q0)
        if not d:
            raise ZeroDivisionError(f"denominator {self._den} vanishes at q = {q0}")
        return self._num.specialize(q0) / d

    def render(self) -> str:
        if self._den.is_one():
            return self._num.render()
        return f"({self._num.render()}) / ({self._den.render()})"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"QRational({self.render()!r})"
