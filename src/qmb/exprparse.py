"""Expression language for elements, and the canonical text round-trip.

Grammar (whitespace insensitive):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/')? factor)*       juxtaposition multiplies;
                                                   '/' only between rational
                                                   constants
    factor  := ['-'] atom ['^' exponent]
    atom    := 't' '[' INT ',' INT ']'
             | 'D' '[' '{' INT (',' INT)* '}' ',' '{' INT (',' INT)* '}' ']'
             | 'q' | INT | '(' expr ')'
    exponent:= INT | '-' INT                       negative only on the bare q;
                                                   on any other base at most
                                                   the degree cap, and so is
                                                   the q-span of the power
    INT     := [0-9]+                              ASCII digits only, at most
                                                   Python's integer-digit limit

The canonical element text ``(coeff) * t[i,j] t[k,l] ...`` produced by
``Element.render`` parses back bit-exactly, and so does the canonical
Laurent text of ``LaurentQ.render`` through :func:`parse_laurent`.
"""

from __future__ import annotations

import re
import sys
from typing import Optional

from .algebra import DegreeCapError, Element, _check_cap, _read_int
from .minors import quantum_minor
from .scalars import LaurentQ


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_TOKEN = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<name>[tDq])|(?P<punct>[\[\]{}(),^*/+-])|(?P<bad>\S))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            break
        if m.group("bad"):
            raise ExprSyntaxError(f"unexpected character {m.group('bad')!r}", m.start("bad"))
        kind = "int" if m.group("int") else ("name" if m.group("name") else "punct")
        value = m.group(kind)
        tokens.append((kind, value, m.start() + len(m.group(0)) - len(value)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ExprSyntaxError(f"expected {value!r}, found {val or 'end of input'!r}", pos)

    def parse(self) -> Element:
        out = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {val!r}", pos)
        return out

    def expr(self) -> Element:
        out = self.term()
        while True:
            kind, val, _ = self.peek()
            if val == "+":
                self.next()
                out = out + self.term()
            elif val == "-":
                self.next()
                out = out - self.term()
            else:
                return out

    def term(self) -> Element:
        out = self.factor()
        while True:
            kind, val, pos = self.peek()
            if val == "*":
                self.next()
                out = out * self.factor()
            elif val == "/":
                self.next()
                divisor = self.factor()
                out = self._divide(out, divisor, pos)
            elif kind in ("int", "name") or val == "(":
                out = out * self.factor()
            else:
                return out

    def _divide(self, num: Element, den: Element, pos: int) -> Element:
        d = _scalar(den)
        if d is None or d.is_zero() or d.min_exp() != 0 or d.max_exp() != 0:
            raise ExprSyntaxError("division is only defined by nonzero rational constants", pos)
        return num.scale(1 / d.constant_value())

    def factor(self) -> Element:
        kind, val, pos = self.peek()
        if val == "-":
            self.next()
            return -self.factor()
        base, is_q = self.atom()
        kind, val, _ = self.peek()
        if val == "^":
            self.next()
            exp = self.exponent(allow_negative=is_q)
            if is_q:
                return Element.scalar(self.n, LaurentQ.q_power(exp))
            # a power of any other base grows its degree, the q-span and the
            # size of its coefficients with the exponent, so all three are
            # bounded before it is formed
            _check_cap(exp, "exponent")
            coeffs = [c for _, c in base.terms()]
            if coeffs:
                span = max(c.max_exp() for c in coeffs) - min(c.min_exp() for c in coeffs)
                _check_cap(exp * span, "q-span of the power")
            bits = max((max(v.numerator.bit_length(), v.denominator.bit_length())
                        for c in coeffs for _, v in c.terms), default=0)
            limit = sys.get_int_max_str_digits()
            if limit and exp * bits > limit:
                raise DegreeCapError(f"coefficients of {exp * bits} bits in the power exceed the integer limit of {limit} digits")
            return base**exp
        return base

    def exponent(self, allow_negative: bool) -> int:
        kind, val, pos = self.next()
        neg = False
        if val == "-":
            if not allow_negative:
                raise ExprSyntaxError("negative exponents are only allowed on q", pos)
            neg = True
            kind, val, pos = self.next()
        if kind != "int":
            raise ExprSyntaxError(f"expected an integer exponent, found {val!r}", pos)
        return -_read_int(val) if neg else _read_int(val)

    def _int(self) -> int:
        kind, val, pos = self.next()
        if kind != "int":
            raise ExprSyntaxError(f"expected an integer, found {val or 'end of input'!r}", pos)
        return _read_int(val)

    def _index_list(self) -> tuple[int, ...]:
        self.expect("{")
        labels = [self._int()]
        while self.peek()[1] == ",":
            self.next()
            labels.append(self._int())
        self.expect("}")
        return tuple(labels)

    def atom(self) -> tuple[Element, bool]:
        kind, val, pos = self.next()
        if kind == "int":
            return Element.scalar(self.n, _read_int(val)), False
        if val == "q":
            return Element.scalar(self.n, LaurentQ.q_power(1)), True
        if val == "t":
            self.expect("[")
            i = self._int()
            self.expect(",")
            j = self._int()
            self.expect("]")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ExprSyntaxError(f"t[{i},{j}] is out of range for n = {self.n}", pos)
            return Element.generator(self.n, i, j), False
        if val == "D":
            self.expect("[")
            rows = self._index_list()
            self.expect(",")
            cols = self._index_list()
            self.expect("]")
            try:
                minor = quantum_minor(self.n, rows, cols)
            except ValueError as exc:
                raise ExprSyntaxError(str(exc), pos) from None
            return minor, False
        if val == "(":
            out = self.expr()
            self.expect(")")
            return out, False
        raise ExprSyntaxError(f"unexpected token {val or 'end of input'!r}", pos)


def parse_element(text: str, n: int) -> Element:
    """Parse an expression into a normal-form element of the size-n algebra.

    The parser recurses at every bracket and every unary sign; nesting past
    Python's recursion limit is a syntax error."""
    try:
        return _Parser(text, n).parse()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", 0) from None


def _scalar(e: Element) -> Optional[LaurentQ]:
    """The Laurent scalar ``e`` is a multiple of the unit by; None when a word survives."""
    terms = e.terms()
    if any(word for word, _ in terms):
        return None
    return terms[0][1] if terms else LaurentQ.zero()


def parse_laurent(text: str) -> LaurentQ:
    """Read a Laurent scalar in the expression grammar (the canonical text of
    ``LaurentQ.render`` among it), bit-exactly; text whose value is not a
    scalar is a syntax error."""
    value = _scalar(parse_element(text, 1))
    if value is None:
        raise ExprSyntaxError(f"expected a Laurent scalar, got {text!r}", 0)
    return value
