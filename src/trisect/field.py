"""Exact arithmetic over Q and over the quadratic extension Q(w), w^2 + w + 1 = 0.

Every quantity in the package is either a reduced rational
(`fractions.Fraction`) or an element of Q(w) written on the basis {1, w}.
Nothing in here is floating point.  Linear algebra over either field goes
through one exact elimination routine, `rref`.
"""

from __future__ import annotations

import re
from fractions import Fraction

_CHUNK = re.compile(r"[+-]?[^+-]+")


class Eis:
    """Element a + b*w of Q(w), with w a primitive cube root of unity.

    The basis representation is canonical: two elements are equal iff their
    (a, b) pairs are equal.  w^2 is stored as -1 - w.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError("Q(w) coefficients must be exact, not floating point")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("Eis values are immutable")

    @staticmethod
    def _coerce(value):
        if isinstance(value, Eis):
            return value
        if isinstance(value, (int, Fraction)):
            return Eis(value)
        return NotImplemented

    def __eq__(self, other):
        other = Eis._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        # an element equal to an int or Fraction must hash like it
        return hash((self.a, self.b)) if self.b else hash(self.a)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __add__(self, other):
        other = Eis._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Eis(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return Eis(-self.a, -self.b)

    def __sub__(self, other):
        other = Eis._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Eis(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = Eis._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # (a + b w)(c + d w) = ac + (ad + bc) w + bd w^2,  w^2 = -1 - w
        ac = self.a * other.a
        bd = self.b * other.b
        return Eis(ac - bd, self.a * other.b + self.b * other.a - bd)

    __rmul__ = __mul__

    def conj(self) -> "Eis":
        """Image under the nontrivial field automorphism, w -> w^2."""
        return Eis(self.a - self.b, -self.b)

    def norm(self) -> Fraction:
        """Field norm to Q: norm(a + b w) = a^2 - a b + b^2, zero only at zero."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def inverse(self) -> "Eis":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        c = self.conj()
        return Eis(c.a / n, c.b / n)

    def __truediv__(self, other):
        other = Eis._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        out = Eis(1)
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base
            exponent >>= 1
        return out

    def is_rational(self) -> bool:
        return not self.b

    def __str__(self):
        if not self.b:
            return str(self.a)
        mag = abs(self.b)
        wpart = "w" if mag == 1 else f"{mag}·w"
        if not self.a:
            return wpart if self.b > 0 else "-" + wpart
        return f"{self.a} {'+' if self.b > 0 else '-'} {wpart}"

    __repr__ = __str__


W = Eis(0, 1)

_W_POWERS = (Eis(1), W, Eis(-1, -1))


def w_pow(k: int) -> Eis:
    """w raised to any integer power (period three)."""
    return _W_POWERS[k % 3]


def parse_rational(text: str) -> Fraction:
    """A rational literal such as '-3/4'; a zero denominator is as malformed
    as any other bad literal, so it raises ValueError too."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_eis(text: str) -> Eis:
    """Inverse of str(): accepts e.g. '0', '-2 + w', '1/3 - 5·w', '2*w'."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty Q(w) literal")
    a = Fraction(0)
    b = Fraction(0)
    pos = 0
    for m in _CHUNK.finditer(s):
        if m.start() != pos:
            raise ValueError(f"cannot parse Q(w) literal {text!r}")
        pos = m.end()
        chunk = m.group()
        body = chunk.lstrip("+-")
        sign = -1 if chunk.startswith("-") else 1
        if body == "w":
            b += sign
        elif body.endswith(("·w", "*w")):
            b += sign * parse_rational(body[:-2])
        else:
            a += sign * parse_rational(body)
    if pos != len(s):
        raise ValueError(f"cannot parse Q(w) literal {text!r}")
    return Eis(a, b)


def rref(rows) -> list:
    """Reduced row echelon form of a matrix over Q or Q(w) by exact
    Gauss-Jordan elimination: the nonzero rows, each with leading entry 1 and
    zeros above and below it.  The form is unique, so it is a canonical basis
    of the row space and its length is the rank.  Entries are ints,
    Fractions or `Eis` values; a ragged matrix raises ValueError."""
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix")
    rows = [list(row) for row in rows if any(row)]
    pivot_row = 0
    for col in range(len(rows[0]) if rows else 0):
        src = next((r for r in range(pivot_row, len(rows)) if rows[r][col]), None)
        if src is None:
            continue
        rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
        inv = Fraction(1) / rows[pivot_row][col]
        rows[pivot_row] = [inv * x for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
    return rows[:pivot_row]
