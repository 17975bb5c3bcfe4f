"""Torsion points of an elliptic curve and intersection combinatorics of
curves and divisors on its third symmetric product.

Points live in E[M] = (Z/M)^2 but are stored at their minimal level, so
equality, hashing and set algebra work across working levels and the order
of a point is just its level.  A working level M is always a multiple of 6
(both the two- and three-torsion must be visible); computations that would
need more torsion than E[M] holds raise InsufficientLevelError instead of
silently returning partial answers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from typing import NamedTuple

from .fixtures import load_entries

DEFAULT_LEVEL = 24


class InsufficientLevelError(ValueError):
    """A computation needs torsion beyond the working level."""


def check_level(m: int) -> int:
    if m < 6 or m % 6:
        raise InsufficientLevelError(f"working level must be a positive multiple of 6, got {m}")
    return m


# TorsionPt, Triple, AffineMap and Locus stay dataclasses: a tuple-backed
# torsion value moves the locus latencies, so it is measured as its own change
@dataclass(frozen=True, order=True)
class TorsionPt:
    """Element of the torsion group (Q/Z)^2, stored at its minimal level.

    The invariant gcd(a, b, level) == 1 (with the origin at level 1) makes
    the representation canonical: points constructed at different working
    levels compare equal exactly when they are the same point, and the group
    order of the point equals `level`.
    """

    level: int
    a: int
    b: int

    @staticmethod
    def make(level: int, a: int, b: int) -> "TorsionPt":
        if level < 1:
            raise ValueError("level must be positive")
        a %= level
        b %= level
        g = gcd(gcd(a, b), level)
        return TorsionPt(level // g, a // g, b // g)

    @property
    def order(self) -> int:
        return self.level

    def coords_at(self, m: int) -> tuple[int, int]:
        if m % self.level:
            raise InsufficientLevelError(f"{self} does not lie in E[{m}]")
        s = m // self.level
        return (self.a * s, self.b * s)

    def __add__(self, other: "TorsionPt") -> "TorsionPt":
        m = lcm(self.level, other.level)
        sa, sb = self.coords_at(m)
        oa, ob = other.coords_at(m)
        return TorsionPt.make(m, sa + oa, sb + ob)

    def __neg__(self) -> "TorsionPt":
        return TorsionPt.make(self.level, -self.a, -self.b)

    def __sub__(self, other: "TorsionPt") -> "TorsionPt":
        return self + (-other)

    def __rmul__(self, k: int) -> "TorsionPt":
        if not isinstance(k, int):
            return NotImplemented
        return TorsionPt.make(self.level, k * self.a, k * self.b)

    __mul__ = __rmul__

    def __str__(self):
        return f"({Fraction(self.a, self.level)}, {Fraction(self.b, self.level)})"

    __repr__ = __str__


ORIGIN = TorsionPt(1, 0, 0)

# The eight nonzero three-torsion points, named by the four +/- classes.
ETA = {
    1: TorsionPt.make(3, 0, 1),
    2: TorsionPt.make(3, 1, 0),
    3: TorsionPt.make(3, 1, 1),
    4: TorsionPt.make(3, 1, 2),
}

# The three nonzero two-torsion points.
XI = {
    1: TorsionPt.make(2, 0, 1),
    2: TorsionPt.make(2, 1, 0),
    3: TorsionPt.make(2, 1, 1),
}

THREE_TORSION = tuple(sorted(
    TorsionPt.make(3, a, b) for a in range(3) for b in range(3)
    if (a, b) != (0, 0)))


def class_rep(pt: TorsionPt) -> TorsionPt:
    """Representative of {p, -p} for a nonzero three-torsion point."""
    if pt.level != 3:
        raise ValueError(f"{pt} is not a nonzero three-torsion point")
    return min(pt, -pt)


CLASS_REPS = tuple(sorted({class_rep(p) for p in THREE_TORSION}))


# a dataclass: see TorsionPt
@dataclass(frozen=True, order=True)
class Triple:
    """Unordered triple of torsion points (an effective degree-three cycle)."""

    points: tuple[TorsionPt, TorsionPt, TorsionPt]

    @staticmethod
    def of(p: TorsionPt, q: TorsionPt, r: TorsionPt) -> "Triple":
        return Triple(tuple(sorted((p, q, r))))

    @property
    def total(self) -> TorsionPt:
        p, q, r = self.points
        return p + q + r

    def __str__(self):
        return "{" + " + ".join(str(p) for p in self.points) + "}"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Loci: curves and hypersurfaces of the third symmetric product
# ---------------------------------------------------------------------------

CURVE1 = "CURVE1"
SURFACE_D = "SURFACE_D"
SURFACE_F = "SURFACE_F"
SURFACE_Y = "SURFACE_Y"


# a dataclass: see TorsionPt
@dataclass(frozen=True, order=True)
class AffineMap:
    """x -> shift + mult * x on the torsion group."""

    shift: TorsionPt
    mult: int

    def __call__(self, x: TorsionPt) -> TorsionPt:
        s = self.shift
        m = lcm(s.level, x.level)
        u, v = m // s.level, self.mult * (m // x.level)
        return TorsionPt.make(m, s.a * u + v * x.a, s.b * u + v * x.b)


# a dataclass: see TorsionPt
@dataclass(frozen=True)
class Locus:
    """A subvariety of the third symmetric product, described exactly.

    CURVE1 is the image of the elliptic curve under three affine maps,
    x -> {m1(x), m2(x), m3(x)}.  SURFACE_D(u) is the divisor of triples with
    u among their points; SURFACE_F(u) the divisor of triples with sum u;
    SURFACE_Y the divisor of triples where one point is the sum of the other
    two.
    """

    kind: str
    label: str
    maps: tuple[AffineMap, AffineMap, AffineMap] | tuple = ()
    anchor: TorsionPt | None = None

    def constants_level(self) -> int:
        levels = [m.shift.level for m in self.maps]
        if self.anchor is not None:
            levels.append(self.anchor.level)
        return lcm(*levels) if levels else 1

    def mult_gcd(self) -> int:
        """The gcd of a curve's multipliers, 1 if all are 0."""
        return gcd(*(mp.mult for mp in self.maps)) or 1

    def __str__(self):
        return self.label

    __repr__ = __str__


def curve_locus(label: str, maps) -> Locus:
    maps = tuple(AffineMap(s, k) for (s, k) in maps)
    if len(maps) != 3:
        raise ValueError("a CURVE1 locus needs exactly three affine maps")
    return Locus(CURVE1, label, maps=maps)


def locus_D(u: TorsionPt) -> Locus:
    return Locus(SURFACE_D, f"D{u}", anchor=u)


def locus_F(u: TorsionPt) -> Locus:
    return Locus(SURFACE_F, f"F{u}", anchor=u)


def locus_Y() -> Locus:
    return Locus(SURFACE_Y, "Y")


def locus_A(i: int) -> Locus:
    """Triples {xi_i, x, -x}: antidiagonal translates through a two-torsion
    point.  Index 0 names the origin."""
    xi = ORIGIN if i == 0 else XI[i]
    return curve_locus(f"A[xi{i}]", ((xi, 0), (ORIGIN, 1), (ORIGIN, -1)))


def locus_N(pt: TorsionPt) -> Locus:
    """Triples {x, x + eta, x + 2 eta} for eta in the +/- class of pt."""
    rep = class_rep(pt)
    return curve_locus(f"N{rep}", ((ORIGIN, 1), (rep, 1), (2 * rep, 1)))


def locus_line(i: int) -> Locus:
    """Triples {xi_i, x, x + xi_i}."""
    xi = XI[i]
    return curve_locus(f"l{i}", ((xi, 0), (ORIGIN, 1), (xi, 1)))


def locus_Gamma() -> Locus:
    """Triples {x, x + xi_1, x + xi_2}."""
    return curve_locus("Gamma", ((ORIGIN, 1), (XI[1], 1), (XI[2], 1)))


# ---------------------------------------------------------------------------
# Enumeration and membership
# ---------------------------------------------------------------------------

def _triples(curve: Locus, m: int, params) -> frozenset:
    """The curve's triples at the parameters x = (i, j)/(d*m) for (i, j) in
    `params`, with d the gcd of the multipliers k (see `Locus.mult_gcd`).

    These are the parameters whose three images lie in E[m]: the points k*x
    all lie in E[m] exactly when d*x does, as d is an integer combination of
    the k.  With y = d*x = (i, j)/m, an image is s + (k/d)*y."""
    d = curve.mult_gcd()
    maps = [(*mp.shift.coords_at(m), mp.mult // d) for mp in curve.maps]
    make = TorsionPt.make
    return frozenset(Triple.of(*[make(m, sa + c * i, sb + c * j)
                                 for sa, sb, c in maps]) for i, j in params)


@lru_cache(maxsize=None)
def curve_triples(locus: Locus, m: int) -> frozenset:
    """All triples of the curve whose three points lie in E[m]."""
    check_level(m)
    if locus.kind != CURVE1:
        raise ValueError("curve_triples expects a CURVE1 locus")
    if m % locus.constants_level():
        raise InsufficientLevelError(
            f"{locus} has constants of level {locus.constants_level()}, not visible in E[{m}]")
    # x -> d*x maps the m^2 parameters (i, j)/(d*m) onto E[m]: every triple
    return _triples(locus, m, product(range(m), repeat=2))


def member(locus: Locus, triple: Triple) -> bool:
    """Exact membership of a triple in a locus, at any level."""
    p, q, r = triple.points
    if locus.kind == SURFACE_D:
        return locus.anchor in triple.points
    if locus.kind == SURFACE_F:
        return triple.total == locus.anchor
    if locus.kind == SURFACE_Y:
        return p == q + r or q == p + r or r == p + q
    # CURVE1: a map x -> s + k*x with k != 0 sends the parameter to one of
    # the triple's points p, so the parameter solves k*x = p - s.
    moving = [mp for mp in locus.maps if mp.mult]
    if not moving:
        return Triple.of(*(mp.shift for mp in locus.maps)) == triple
    mp = min(moving, key=lambda f: abs(f.mult))
    return any(Triple.of(*(f(x) for f in locus.maps)) == triple
               for pt in triple.points for x in coset(mp.mult, pt - mp.shift))


def intersect_loci(l1: Locus, l2: Locus, m: int = DEFAULT_LEVEL) -> frozenset:
    """Triples of E[m]^3 lying on both loci, one a curve and the other a
    surface, in either order.

    A surface meets a curve where one of the surface's linear conditions
    a*x = t holds at the curve parameter x: the coset of solutions, exact at
    any level, with the solutions whose images lie in E[m] kept.
    """
    check_level(m)
    for locus in (l1, l2):
        if m % locus.constants_level():
            raise InsufficientLevelError(
                f"{locus} needs level {locus.constants_level()} | m, got {m}")
    if l1.kind != CURVE1:
        l1, l2 = l2, l1
    if l1.kind != CURVE1 or l2.kind == CURVE1:
        raise ValueError(f"need a curve and a surface to intersect: {l1} and {l2}")
    conditions = _conditions(l2, l1)
    if (0, ORIGIN) in conditions:  # the curve lies inside the surface
        return curve_triples(l1, m)
    # a == 0 conditions read 0*x = t with t != 0, as the curve is not inside;
    # solutions x with the same y = d*x (see `_triples`) share a triple
    n = l1.mult_gcd() * m
    return _triples(l1, m, {(i % m, j % m) for a, t in conditions if a
                            for x in coset(a, t) if n % x.level == 0
                            for i, j in [x.coords_at(n)]})


def _conditions(surface: Locus, curve: Locus) -> list:
    """The surface's defining condition on the curve parameter x, as linear
    equations a*x = t, any one of which puts the image triple on the surface.

    With the curve's maps x -> s_i + k_i*x: D_u needs k_i*x = u - s_i for
    some i, F_u needs (sum k)*x = u - (sum s), and Y needs
    (k_i - k_j - k_k)*x = s_j + s_k - s_i for the summed point i.
    """
    maps = curve.maps
    if surface.kind == SURFACE_D:
        return [(mp.mult, surface.anchor - mp.shift) for mp in maps]
    if surface.kind == SURFACE_F:
        return [(sum(mp.mult for mp in maps),
                 surface.anchor - (maps[0].shift + maps[1].shift + maps[2].shift))]
    if surface.kind == SURFACE_Y:
        return [(maps[i].mult - maps[j].mult - maps[k].mult,
                 maps[j].shift + maps[k].shift - maps[i].shift)
                for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1))]
    raise ValueError(f"not a surface locus: {surface}")


def contains_locus(surface: Locus, curve: Locus) -> bool:
    """Exact symbolic test that a curve locus lies inside a surface locus.

    Correctness does not depend on any working level: the curve lies in the
    surface exactly when one of the surface's linear conditions is the
    identity 0*x = 0, and a condition a*x = t with a != 0 holds only on a
    coset of E[|a|], never on the whole curve.
    """
    if curve.kind != CURVE1:
        raise ValueError("contains_locus expects a CURVE1 second argument")
    return (0, ORIGIN) in _conditions(surface, curve)


def coset(a: int, t: TorsionPt) -> list:
    """Every torsion point x with a*x = t, for a != 0: the coset
    t/a + E[|a|], whose points lie in E[|a| * order(t)]."""
    n, sign = abs(a), (1 if a > 0 else -1)
    return [TorsionPt.make(n * t.level, sign * t.a + i * t.level,
                           sign * t.b + j * t.level)
            for i in range(n) for j in range(n)]


def solve_linear(a: int, t: TorsionPt, m: int = DEFAULT_LEVEL) -> frozenset:
    """All x in E[m] with a*x = t for a != 0, complete or an error.

    The full solution set of a*x = t is a coset x0 + E[|a|] whose
    points all have order |a| * order(t) up to the coset's torsion, so it
    lies inside E[m] exactly when |a| * order(t) divides m; any other m would
    return a wrong (partial or empty) answer and raises instead.
    """
    check_level(m)
    if a == 0:
        raise ValueError("solve_linear needs a != 0")
    needed = abs(a) * t.order
    if m % needed:
        raise InsufficientLevelError(
            f"solutions of {a}*x = {t} live in E[{needed}], not complete in E[{m}]")
    return frozenset(coset(a, t))


# ---------------------------------------------------------------------------
# The fibre intersection table and the base point enumeration
# ---------------------------------------------------------------------------

def fibre_intersection_rule(p: TorsionPt, q: TorsionPt):
    """Intersection of the two elliptic fibrations attached to distinct
    nonzero three-torsion points p and q: the common fibres, with
    multiplicities.

    When q = -p the two fibrations share the three curves of the remaining
    classes, transversally.  Otherwise they meet transversally along the
    class of p + q and with simple contact along the class of p - q.
    """
    if p.level != 3 or q.level != 3 or p == q:
        raise ValueError("the rule needs two distinct nonzero three-torsion points")
    if q == -p:
        skip = class_rep(p)
        return tuple((rep, 1) for rep in CLASS_REPS if rep != skip)
    return tuple(sorted(((class_rep(p + q), 1), (class_rep(p - q), 2))))


def common_fibre_classes(points) -> tuple:
    """Classes of fibres shared by every fibration in `points` (all four
    classes when `points` is empty)."""
    excluded = {class_rep(p) for p in points}
    return tuple(rep for rep in CLASS_REPS if rep not in excluded)


def intersection_term(xs, ds, m: int = DEFAULT_LEVEL) -> frozenset:
    """One term of the expanded eightfold intersection: the fibrations of the
    points in `xs` intersected with the divisors D_u for u in `ds`.

    The fibrations cut the union of their common fibres; at least four
    distinct D anchors kill the term outright (a triple has three points),
    exactly three pin a single candidate triple, and two leave a curve-level
    computation in E[m].
    """
    check_level(m)
    anchors = sorted(set(ds))
    if len(anchors) >= 4:
        return frozenset()
    common = common_fibre_classes(xs)
    if not common:
        return frozenset()
    if len(anchors) == 3:
        candidate = Triple.of(*anchors)
        if any(member(locus_N(rep), candidate) for rep in common):
            return frozenset((candidate,))
        return frozenset()
    if len(anchors) == 2:
        d1, d2 = (locus_D(u) for u in anchors)
        out = set()
        for rep in common:
            for t in intersect_loci(locus_N(rep), d1, m):
                if member(d2, t):
                    out.add(t)
        return frozenset(out)
    raise ValueError("a term needs at least two divisor constraints to be finite")


class TermRecord(NamedTuple):
    xs: tuple
    ds: tuple
    triples: frozenset


class BasePointReport(NamedTuple):
    base_points: frozenset
    terms: tuple
    nonempty_terms: tuple
    candidate_b_terms: tuple


def enumerate_base_points(m: int = DEFAULT_LEVEL) -> BasePointReport:
    """Expand the eightfold intersection of (fibration union boundary
    divisor) over all nonzero three-torsion points into 256 terms and
    collect the surviving triples.

    For each three-torsion point eta one factor contributes either its
    elliptic fibration or the boundary divisor D at 2*eta.  The expansion
    evaluates every choice exactly; the result is the set of common points
    of the eight original unions.
    """
    check_level(m)
    terms = []
    points = set()
    for choice in product((True, False), repeat=8):
        xs = tuple(eta for eta, chosen in zip(THREE_TORSION, choice) if chosen)
        ds = tuple(sorted({2 * eta for eta, chosen in zip(THREE_TORSION, choice)
                           if not chosen}))
        triples = intersection_term(xs, ds, m)
        terms.append(TermRecord(xs, ds, triples))
        points.update(triples)
    nonempty = tuple(t for t in terms if t.triples)
    b_candidates = tuple(t for t in terms if len(t.ds) == 3)
    return BasePointReport(frozenset(points), tuple(terms), nonempty, b_candidates)


def expected_base_points() -> frozenset:
    """The four triples {0, eta, 2 eta}, one per three-torsion class."""
    return frozenset(Triple.of(ORIGIN, ETA[i], 2 * ETA[i]) for i in (1, 2, 3, 4))


# ---------------------------------------------------------------------------
# The meeting table as printed in its fixture file
# ---------------------------------------------------------------------------

_PT3 = re.compile(r"\((\d),\s*(\d)\)")
_NCURVE = re.compile(r"N\((\d),\s*(\d)\)\*(\d)")


def _parse_pt3(text: str) -> TorsionPt:
    m = _PT3.fullmatch(text.strip())
    if not m:
        raise ValueError(f"bad three-torsion coordinates: {text!r}")
    return TorsionPt.make(3, int(m.group(1)), int(m.group(2)))


def printed_intersection_table() -> dict:
    """The table from bielliptic_table.txt: 28 unordered pairs of nonzero
    three-torsion classes -> ((fibre class, multiplicity), ...)."""
    table = {}
    for label, value, _ in load_entries("bielliptic_table.txt"):
        _, ptext, qtext = label.split()
        p, q = _parse_pt3(ptext), _parse_pt3(qtext)
        curves = []
        for piece in value.split("+"):
            m = _NCURVE.fullmatch(piece.strip())
            if not m:
                raise ValueError(f"bad table value piece: {piece!r}")
            curves.append((TorsionPt.make(3, int(m.group(1)), int(m.group(2))),
                           int(m.group(3))))
        table[frozenset((p, q))] = tuple(sorted(curves))
    return table
