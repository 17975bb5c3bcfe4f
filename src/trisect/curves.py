"""Plane projective curves over Q(w) and exact local intersection numbers.

A `Form` is a homogeneous polynomial in x0, x1, x2.  `fulton_mult` computes
the local intersection multiplicity of two forms at a projective point by the
classical axiomatic recursion (restrict to a line, eliminate, peel off the
line factor), entirely in exact arithmetic.  A shared component through the
point yields the `INFINITE` sentinel, never a wrong integer.
"""

from __future__ import annotations

from math import comb

from .field import Eis, parse_eis, parse_rational

Monomial = tuple[int, int, int]

VAR_NAMES = ("x0", "x1", "x2")


class _Infinite:
    """Sentinel for an infinite local intersection multiplicity."""

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


def _coerce_eis(value) -> Eis:
    if isinstance(value, Eis):
        return value
    return Eis(value)


class Form:
    """Homogeneous polynomial in x0, x1, x2 with coefficients in Q(w)."""

    __slots__ = ("coeffs", "degree")

    def __init__(self, coeffs: dict):
        clean = {}
        for mono, c in coeffs.items():
            c = _coerce_eis(c)
            if c:
                clean[tuple(mono)] = c
        degrees = {sum(m) for m in clean}
        if len(degrees) > 1:
            raise ValueError(f"not homogeneous: degrees {sorted(degrees)}")
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "degree", degrees.pop() if degrees else -1)

    def __setattr__(self, name, value):
        raise AttributeError("Form values are immutable")

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Eis(0)) + c
        return Form(out)

    def __neg__(self):
        return Form({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Form):
            out = {}
            for m1, c1 in self.coeffs.items():
                for m2, c2 in other.coeffs.items():
                    m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                    out[m] = out.get(m, Eis(0)) + c1 * c2
            return Form(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Form":
        c = _coerce_eis(c)
        return Form({m: c * v for m, v in self.coeffs.items()})

    def monic(self) -> "Form":
        """Scale so the lex-largest monomial has coefficient one."""
        if not self.coeffs:
            return self
        lead = max(self.coeffs)
        return self.scale(self.coeffs[lead].inverse())

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for mono in sorted(self.coeffs, reverse=True):
            c = self.coeffs[mono]
            factors = []
            for name, e in zip(VAR_NAMES, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(f"({c})")
            elif c == Eis(1):
                parts.append(body)
            elif c.is_rational() and c.a.denominator == 1 and c.a > 0:
                parts.append(f"{c.a}*{body}")
            else:
                parts.append(f"({c})*{body}")
        return " + ".join(parts)

    __repr__ = __str__


def linear_form(c0, c1, c2) -> Form:
    return Form({(1, 0, 0): c0, (0, 1, 0): c1, (0, 0, 1): c2})


def parse_form(text: str) -> Form:
    """Parse the format emitted by Form.__str__ (plus leading signs).

    A literal with no leading sign gets a `+`, so every term has a sign;
    an empty literal is then one empty term."""
    s = text.strip()
    if not s.startswith(("+", "-")):
        s = "+" + s
    coeffs: dict[Monomial, Eis] = {}
    # the first piece is the empty text before the first sign
    for sign, term in _split_top(s, "+-")[1:]:
        mono, coef = _parse_term(term)
        coef = -coef if sign == "-" else coef
        coeffs[mono] = coeffs.get(mono, Eis(0)) + coef
    return Form(coeffs)


def _split_top(text: str, separators: str) -> list:
    """Split text at each separator outside parentheses, as (separator,
    piece) pairs; the first piece has the empty separator."""
    pieces = []
    depth = 0
    sep, start = "", 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in separators:
            pieces.append((sep, text[start:i]))
            sep, start = ch, i + 1
    pieces.append((sep, text[start:]))
    return pieces


def _parse_term(term: str) -> tuple[Monomial, Eis]:
    term = term.strip()
    if not term:
        raise ValueError("empty term in form literal")
    coef = Eis(1)
    expo = [0, 0, 0]
    for _, factor in _split_top(term, "*"):
        factor = factor.strip()
        if factor.startswith("("):
            if not factor.endswith(")"):
                raise ValueError(f"unbalanced parentheses in {term!r}")
            coef = coef * parse_eis(factor[1:-1])
        elif factor.startswith("x"):
            if "^" in factor:
                name, _, e = factor.partition("^")
                power = int(e)
            else:
                name, power = factor, 1
            if name not in VAR_NAMES:
                raise ValueError(f"unknown variable {name!r}")
            expo[VAR_NAMES.index(name)] += power
        else:
            coef = coef * Eis(parse_rational(factor))
    return (expo[0], expo[1], expo[2]), coef


class ProjPoint:
    """Point of the projective plane over Q(w), stored in canonical scale.

    The first nonzero coordinate is normalised to one, so equality and
    hashing are plain tuple comparisons.
    """

    __slots__ = ("coords",)

    def __init__(self, c0, c1, c2):
        coords = (_coerce_eis(c0), _coerce_eis(c1), _coerce_eis(c2))
        for c in coords:
            if c:
                inv = c.inverse()
                coords = tuple(inv * x for x in coords)
                break
        else:
            raise ValueError("projective point needs a nonzero coordinate")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("ProjPoint values are immutable")

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __str__(self):
        return "[" + " : ".join(str(c) for c in self.coords) + "]"

    __repr__ = __str__


def line_intersection(l1: Form, l2: Form) -> ProjPoint:
    """Meeting point of two distinct lines, by the coefficient cross product."""
    if l1.degree != 1 or l2.degree != 1:
        raise ValueError("line_intersection expects degree-one forms")
    a = [l1.coeffs.get(m, Eis(0)) for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    b = [l2.coeffs.get(m, Eis(0)) for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    cross = (a[1] * b[2] - a[2] * b[1],
             a[2] * b[0] - a[0] * b[2],
             a[0] * b[1] - a[1] * b[0])
    if not any(cross):
        raise ValueError("lines coincide")
    return ProjPoint(*cross)


# ---------------------------------------------------------------------------
# Local intersection multiplicity
# ---------------------------------------------------------------------------

BiPoly = dict  # {(i, j): Eis} meaning sum of c * u^i * v^j


def dehomogenize(form: Form, chart: int) -> BiPoly:
    """Set x_chart = 1; the two remaining variables become (u, v) in index
    order.  Injective on monomials of a fixed degree, so nonzero forms map
    to nonzero polynomials."""
    rest = [i for i in range(3) if i != chart]
    out: BiPoly = {}
    for m, c in form.coeffs.items():
        out[(m[rest[0]], m[rest[1]])] = c
    return out


def _translate(poly: BiPoly, p: Eis, q: Eis) -> BiPoly:
    """Substitute u -> u + p, v -> v + q."""
    out: BiPoly = {}
    for (i, j), c in poly.items():
        for di in range(i + 1):
            partial = c * comb(i, di) * p ** (i - di)
            for dj in range(j + 1):
                term = partial * comb(j, dj) * q ** (j - dj)
                if term:
                    key = (di, dj)
                    out[key] = out.get(key, Eis(0)) + term
    return {k: v for k, v in out.items() if v}


def _restriction(poly: BiPoly) -> dict:
    """The univariate polynomial poly(u, 0)."""
    return {i: c for (i, j), c in poly.items() if j == 0}


def _peel_v(poly: BiPoly) -> BiPoly:
    return {(i, j - 1): c for (i, j), c in poly.items()}


def _combine(alpha: Eis, g: BiPoly, beta: Eis, shift: int, f: BiPoly) -> BiPoly:
    """alpha * g - beta * u^shift * f."""
    out = {k: alpha * c for k, c in g.items()}
    for (i, j), c in f.items():
        key = (i + shift, j)
        out[key] = out.get(key, Eis(0)) - beta * c
    return {k: v for k, v in out.items() if v}


def _local_mult(f: BiPoly, g: BiPoly, budget: int):
    """Intersection multiplicity of f and g at the origin of the (u, v) plane.

    Infinite multiplicity is certified exactly, in one of three ways: the
    line v = 0 divides both polynomials; the elimination step cancels one
    polynomial completely (so one divided a constant multiple of the other);
    or the running total passes `budget`, the Bezout bound of the original
    forms, which only an unbounded accumulation can do because every summand
    is a valid lower-bound contribution to the true multiplicity.
    """
    total = 0
    while True:
        if not f or not g:
            return INFINITE
        if f.get((0, 0)) or g.get((0, 0)):
            return total
        a = _restriction(f)
        b = _restriction(g)
        if not a and not b:
            return INFINITE
        if not a:
            total += min(b)  # ord_u of g(u, 0)
            if total > budget:
                return INFINITE
            f = _peel_v(f)
            continue
        if not b:
            total += min(a)
            if total > budget:
                return INFINITE
            g = _peel_v(g)
            continue
        ra, rb = max(a), max(b)
        if ra > rb:
            f, g = g, f
            a, b = b, a
            ra, rb = rb, ra
        g = _combine(a[ra], g, b[rb], rb - ra, f)


def fulton_mult(f: Form, g: Form, point: ProjPoint):
    """Local intersection multiplicity of two curves at a point.

    Returns a nonnegative integer, or INFINITE when the curves share a
    component through the point.  Zero iff the point misses one of the
    curves: the constant term of a translated polynomial is the curve's
    value at the point scaled to x_chart = 1, and `_local_mult` tests it
    first.
    """
    if f.degree < 1 or g.degree < 1:
        raise ValueError("intersection multiplicity needs curves of degree >= 1")
    chart = max(i for i in range(3) if point.coords[i])
    scale = point.coords[chart].inverse()
    # the point in the chart's (u, v) coordinates, in index order as in
    # dehomogenize
    p, q = (c * scale for i, c in enumerate(point.coords) if i != chart)
    fa = _translate(dehomogenize(f, chart), p, q)
    ga = _translate(dehomogenize(g, chart), p, q)
    return _local_mult(fa, ga, f.degree * g.degree)
