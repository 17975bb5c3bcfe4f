"""Numerical intersection theory for the symmetric products of an elliptic
curve and for the Neron-Severi lattices of the surfaces built on them.

Divisor classes on the third symmetric product are integer pairs (a, b)
meaning a*D + b*F, where D is the boundary divisor class of triples through
a fixed point and F a fibre of the sum map; the ring relations are D^3 = 1,
D^2 F = 1, D F^2 = 0, F^3 = 0.  On the second symmetric product classes are
pairs a*h + b*f with h^2 = 1, h.f = 1, f^2 = 0.  Everything returns exact
integers or Fractions.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial
from typing import NamedTuple

from .field import rref
from .fixtures import load_entries

Class2 = tuple[int, int]


def certify(holds: bool, step: str) -> None:
    """Raise ArithmeticError unless a step of a certificate holds.  Unlike an
    assert, the check is not stripped by python -O."""
    if not holds:
        raise ArithmeticError(f"certificate step fails: {step}")


# ---------------------------------------------------------------------------
# Third symmetric product
# ---------------------------------------------------------------------------

E3_CANONICAL: Class2 = (-3, 1)   # K = -3 D + F
E3_BOUNDARY: Class2 = (4, -1)    # the diagonal-type divisor class 4 D - F


def triple_product_e3(c1: Class2, c2: Class2, c3: Class2) -> int:
    """Cup product of three divisor classes on the third symmetric product."""
    (a1, b1), (a2, b2), (a3, b3) = c1, c2, c3
    return a1 * a2 * a3 + a1 * a2 * b3 + a1 * b2 * a3 + b1 * a2 * a3


def chi_symmetric_power(n: int, a: int, b: int) -> int:
    """Euler characteristic of the line bundle a*D + b*F on the n-th
    symmetric product: (a + n b) * (a+1) * ... * (a+n-1) / n!.

    Always an integer: the last n-1 factors are divisible by (n-1)!, and
    modulo n the numerator agrees with a*(a+1)*...*(a+n-1), a product of n
    consecutive integers.
    """
    if n < 1:
        raise ValueError("symmetric power needs n >= 1")
    num = a + n * b
    for i in range(1, n):
        num *= a + i
    value = Fraction(num, factorial(n))
    certify(value.denominator == 1, "integral Euler characteristic")
    return int(value)


class CohomologyCase(Enum):
    """Which cohomology groups of a*D + b*F on the n-th symmetric product can
    be nonzero."""

    ONLY_H0 = "h^0 only"
    ONLY_H1 = "h^1 only"
    ONLY_HN1 = "h^(n-1) only"
    ONLY_HN = "h^n only"
    ALL_VANISH = "all vanish"
    TORSION_DEPENDENT = "depends on the torsion order of the fibre summand"


def cohomology_case(n: int, a: int, b: int) -> CohomologyCase:
    slope = a + n * b
    if -n < a < 0:
        return CohomologyCase.ALL_VANISH
    if slope == 0:
        return CohomologyCase.TORSION_DEPENDENT
    if a >= 0:
        return CohomologyCase.ONLY_H0 if slope > 0 else CohomologyCase.ONLY_H1
    return CohomologyCase.ONLY_HN1 if slope > 0 else CohomologyCase.ONLY_HN


class CurveNumbers(NamedTuple):
    """A curve on the third symmetric product, reduced to its two pairing
    numbers against the boundary class D and the sum fibre F."""

    dot_d: int
    dot_f: int

    def pair(self, cls: Class2) -> int:
        a, b = cls
        return a * self.dot_d + b * self.dot_f


FIBRE_CLASS_CURVE = CurveNumbers(1, 3)   # the fibres of a bielliptic fibration
TWO_TORSION_LINE = CurveNumbers(1, 2)    # the lines through a two-torsion point


# ---------------------------------------------------------------------------
# Second symmetric product
# ---------------------------------------------------------------------------

E2_CANONICAL: Class2 = (-2, 1)   # K = -2 h + f


def pair_e2(c1: Class2, c2: Class2) -> int:
    (a1, b1), (a2, b2) = c1, c2
    return a1 * a2 + a1 * b2 + a2 * b1


def genus_e2(cls: Class2) -> int:
    """Arithmetic genus of a curve class on the second symmetric product."""
    twice = pair_e2(cls, cls) + pair_e2(cls, E2_CANONICAL)
    if twice % 2:
        raise ArithmeticError(f"adjunction parity fails for {cls}")
    return 1 + twice // 2


def chi_e2(cls: Class2) -> int:
    return chi_symmetric_power(2, cls[0], cls[1])


# ---------------------------------------------------------------------------
# Numerical invariants of a minimal surface
# ---------------------------------------------------------------------------

class NoetherInvariants(NamedTuple):
    chi: int
    c2: int
    h11: int


def noether_invariants(pg: int, q: int, ksq: int) -> NoetherInvariants:
    """chi(O), the topological Euler number, and h^{1,1} from (p_g, q, K^2)."""
    chi = 1 - q + pg
    c2 = 12 * chi - ksq
    h11 = c2 - 2 + 4 * q - 2 * pg
    return NoetherInvariants(chi, c2, h11)


# ---------------------------------------------------------------------------
# Splittings of a canonical curve with K^2 = 3, K ample
# ---------------------------------------------------------------------------

KSQ = 3
CANONICAL_GENUS = 4  # p_a of a canonical curve: 1 + (K^2 + K^2)/2


def component_genus(kdeg: int, selfint: int) -> int:
    if (selfint + kdeg) % 2:
        raise ArithmeticError("adjunction parity fails")
    return 1 + (selfint + kdeg) // 2


def _admissible(kdeg: int, selfint: int) -> bool:
    """Constraints on one reduced component: the index bound
    K^2 * A^2 <= (K.A)^2, adjunction parity, nonnegative genus."""
    return (KSQ * selfint <= kdeg * kdeg
            and (selfint + kdeg) % 2 == 0
            and 2 + selfint + kdeg >= 0)


class Splitting(NamedTuple):
    """A numerically consistent splitting of the canonical curve into
    reduced irreducible pieces: (K.A, A.A) per component plus the pairwise
    products forced by K = sum of the components."""

    label: str
    components: tuple
    pairwise: tuple
    genera: tuple


_SIGNATURES = {
    (((2, -2), (1, -3)), ((0, 1, 4),)): "1a",
    (((2, 0), (1, -1)), ((0, 1, 2),)): "1b",
    (((1, -1), (1, -1), (1, -1)), ((0, 1, 1), (0, 2, 1), (1, 2, 1))): "2a",
    (((1, -1), (1, -1), (1, -3)), ((0, 1, 0), (0, 2, 2), (1, 2, 2))): "2b",
}


def enumerate_splittings(lo: int = -12, hi: int = 4) -> tuple:
    """All numerical splittings of the canonical curve into two or three
    reduced components, searching self-intersections in [lo, hi].

    At most one component may be rational (the canonical system has no two
    rational pieces through it), the degrees K.A_i are positive with sum
    K^2 = 3, and the pairwise products are forced linearly by pairing
    K = sum A_j against each component.
    """
    found = []
    # two components: K.A = 2, K.B = 1 up to order
    for a_sq in range(lo, hi + 1):
        if not _admissible(2, a_sq):
            continue
        ab = 2 - a_sq                 # from (A + B).A = K.A
        b_sq = 1 - ab                 # from (A + B).B = K.B
        if not lo <= b_sq <= hi or not _admissible(1, b_sq):
            continue
        genera = (component_genus(2, a_sq), component_genus(1, b_sq))
        # a rational A (A.A = -4) forces p_a(B) = -1; a rational B forces
        # p_a(A) = 1
        certify(genera.count(0) <= 1, "at most one rational component of two")
        found.append((((2, a_sq), (1, b_sq)), ((0, 1, ab),), genera))
    # three components: K.A_i = 1 each
    singles = [s for s in range(hi, lo - 1, -1) if _admissible(1, s)]
    for s1, s2, s3 in combinations_with_replacement(singles, 3):
        twice = (1 - s1 - s2 + s3, 1 - s1 - s3 + s2, 1 - s2 - s3 + s1)
        # _admissible(1, s) makes each s odd, so each of these is even
        certify(all(t % 2 == 0 for t in twice), "integral pairings of three")
        x, y, z = (t // 2 for t in twice)   # A1.A2, A1.A3, A2.A3
        genera = tuple(component_genus(1, s) for s in (s1, s2, s3))
        if genera.count(0) > 1:
            continue
        found.append((((1, s1), (1, s2), (1, s3)),
                      ((0, 1, x), (0, 2, y), (1, 2, z)), genera))
    out = []
    for components, pairwise, genera in found:
        label = _SIGNATURES.get((components, pairwise), "?")
        out.append(Splitting(label, components, pairwise, genera))
    return tuple(sorted(out, key=lambda s: s.label))


# ---------------------------------------------------------------------------
# The two non-reduced patterns, excluded by explicit certificates
# ---------------------------------------------------------------------------

class ObstructionCertificate(NamedTuple):
    """An impossibility witnessed by two clashing exact numbers, together
    with the intermediate values that force them."""

    pattern: str
    conflict: tuple      # ((label, value), (label, value))
    derived: tuple       # ((label, value), ...)
    conclusion: str


def certificate_triple_component() -> ObstructionCertificate:
    """A canonical curve equal to three times one component: the component
    self-intersection would be K^2 / 9, not an integer."""
    forced = Fraction(KSQ, 9)
    certify(forced.denominator != 1, "non-integral A.A")
    return ObstructionCertificate(
        pattern="3A",
        conflict=(("canonical self-intersection", KSQ),
                  ("divisor of 9*A.A for integer A.A", 9)),
        derived=(("forced component self-intersection", forced),),
        conclusion="9*(A.A) = 3 has no integer solution",
    )


def certificate_double_component() -> ObstructionCertificate:
    """A canonical curve equal to 2A + B: the numbers force A.(A+B) = 1,
    below the minimum 2 that a 2-connected canonical divisor imposes."""
    degrees = [(ka, kb) for ka in range(1, 4) for kb in range(1, 4)
               if 2 * ka + kb == KSQ]
    certify(degrees == [(1, 1)], "K-degrees (1, 1)")
    ka, kb = degrees[0]
    # A.A: adjunction parity makes it odd, the index bound caps it at 0, and
    # p_a(2A) = 2 + 2 A.A must be nonnegative for the connected double
    a_candidates = [s for s in range(-3, 1)
                    if (s + ka) % 2 == 0 and KSQ * s <= ka * ka and 2 + 2 * s >= 0]
    certify(a_candidates == [-1], "A.A = -1")
    a_sq = a_candidates[0]
    pa_2a = 2 + 2 * a_sq
    # B.B from genus additivity: p_a(K) = p_a(2A) + p_a(B) + 2 A.B - 1
    solutions = []
    for b_sq in range(-3, 1):
        if not _admissible(kb, b_sq):
            continue
        pa_b = component_genus(kb, b_sq)
        ab = Fraction(CANONICAL_GENUS - pa_2a - pa_b + 1, 2)
        if ab.denominator == 1:
            solutions.append((b_sq, pa_b, int(ab)))
    certify(solutions == [(-1, 1, 2)], "(B.B, p_a(B), A.B) = (-1, 1, 2)")
    b_sq, pa_b, ab = solutions[0]
    connect = a_sq + ab
    return ObstructionCertificate(
        pattern="2A+B",
        conflict=(("A.(A+B)", connect),
                  ("two-connectedness minimum for a canonical divisor", 2)),
        derived=(("K.A", ka), ("K.B", kb), ("A.A", a_sq), ("p_a(2A)", pa_2a),
                 ("B.B", b_sq), ("p_a(B)", pa_b), ("A.B", ab)),
        conclusion="the double component meets the rest of the curve too little",
    )


# ---------------------------------------------------------------------------
# Second-symmetric-product classes of the splitting components
# ---------------------------------------------------------------------------

_E2_TERM = re.compile(r"([+-]?)(\d*)([hf])")


def parse_e2_class(text: str) -> Class2:
    s = text.replace(" ", "")
    h = f = 0
    pos = 0
    for m in _E2_TERM.finditer(s):
        if m.start() != pos:
            raise ValueError(f"bad class literal {text!r}")
        pos = m.end()
        value = int(m.group(2) or "1")
        if m.group(1) == "-":
            value = -value
        if m.group(3) == "h":
            h += value
        else:
            f += value
    if pos != len(s) or not s:
        raise ValueError(f"bad class literal {text!r}")
    return (h, f)


def format_e2_class(cls: Class2) -> str:
    h, f = cls
    parts = []
    for value, symbol in ((h, "h"), (f, "f")):
        if not value:
            continue
        body = symbol if abs(value) == 1 else f"{abs(value)}{symbol}"
        if not parts:
            parts.append(body if value > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if value > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


@lru_cache(maxsize=None)
def splitting_image_classes() -> dict:
    """Fixture classes on the second symmetric product, one row per
    splitting component: label -> ((component name, class), ...)."""
    table: dict[str, list] = {}
    for label, value, _ in load_entries("e2_classes.txt"):
        _, case, comp = label.split()
        table.setdefault(case, []).append((comp, parse_e2_class(value)))
    return {case: tuple(rows) for case, rows in table.items()}


def albanese_degrees(case: str) -> tuple:
    """Degree of each component of a splitting over the elliptic base: the
    pairing of its image class with the sum-map fibre."""
    fibre = (0, 1)
    return tuple(pair_e2(cls, fibre) for _, cls in splitting_image_classes()[case])


# ---------------------------------------------------------------------------
# Exact lattice ranks and relation checking
# ---------------------------------------------------------------------------

def lattice_rank(rows) -> int:
    """Rank of an integer (or rational) matrix: the length of its reduced
    row echelon form over Q.  Floats are refused, since rounding can change
    the rank."""
    if any(isinstance(x, float) for row in rows for x in row):
        raise TypeError("lattice entries must be exact, not floating point")
    return len(rref([[Fraction(x) for x in row] for row in rows]))


def relation_residual(lhs, rhs) -> tuple:
    """Difference of two integer combinations of pairing vectors; the zero
    tuple exactly when the relation pairs to zero against the whole basis.
    Each side is an iterable of (coefficient, vector)."""
    lhs = list(lhs)
    rhs = list(rhs)
    width = len((lhs + rhs)[0][1])
    total = [0] * width
    for sign, side in ((1, lhs), (-1, rhs)):
        for coeff, vec in side:
            if len(vec) != width:
                raise ValueError("pairing vectors of unequal length")
            for i, v in enumerate(vec):
                total[i] += sign * coeff * v
    return tuple(total)


@lru_cache(maxsize=None)
def _gram_fixture() -> dict:
    grams: dict[str, dict] = {"gram10": {}, "gram9": {}}
    orders: dict[str, tuple] = {}
    pairings: dict[str, tuple] = {}
    for label, value, _ in load_entries("gram_fixtures.txt"):
        parts = label.split()
        if parts[0] in grams and parts[1] == "order":
            orders[parts[0]] = tuple(value.split())
        elif parts[0] in grams and parts[1] == "row":
            grams[parts[0]][parts[2]] = tuple(int(x) for x in value.split())
        elif parts[0] == "pairings":
            pairings[parts[1]] = tuple(int(x) for x in value.split())
        else:
            raise ValueError(f"unrecognised gram fixture label {label!r}")
    return {"orders": orders, "grams": grams, "pairings": pairings}


def gram_matrix(name: str) -> tuple[tuple, tuple]:
    """(basis order, rows) for 'gram10' or 'gram9'."""
    data = _gram_fixture()
    order = data["orders"][name]
    rows = tuple(data["grams"][name][cls] for cls in order)
    for i, row in enumerate(rows):
        for j in range(len(order)):
            if row[j] != rows[j][i]:
                raise ValueError(f"{name} is not symmetric at {order[i]}, {order[j]}")
    return order, rows


def pairing_vector(name: str) -> tuple:
    """Pairings of a named curve against the gram9 basis; basis classes give
    their own rows."""
    data = _gram_fixture()
    if name in data["pairings"]:
        return data["pairings"][name]
    order, rows = gram_matrix("gram9")
    if name in order:
        return rows[order.index(name)]
    raise KeyError(name)


def canonical_relations() -> tuple:
    """The three linear equivalences among the distinguished classes, as
    (name, lhs, rhs) triples of integer combinations of pairing vectors."""
    v = pairing_vector
    rel1 = ("3K ~ 3G + A1 + A2 + A3",
            ((3, v("K")),),
            ((3, v("G")), (1, v("A1")), (1, v("A2")), (1, v("A3"))))
    rel2 = ("F0 + 3G ~ 2K + M1 + M2 + M3 + M4",
            ((1, v("F0")), (3, v("G"))),
            ((2, v("K")), (1, v("M1")), (1, v("M2")), (1, v("M3")), (1, v("M4"))))
    rel3 = ("F0 + N1 + N2 + N3 + N4 ~ 2K + G",
            ((1, v("F0")), (1, v("N1")), (1, v("N2")), (1, v("N3")), (1, v("N4"))),
            ((2, v("K")), (1, v("G"))))
    return (rel1, rel2, rel3)


class DerivedPairing(NamedTuple):
    """The fibre-of-genus-two degree against the albanese fibre, derived
    from the first relation and cross-checked against the other two."""

    value: int
    residuals: tuple


def derive_albanese_genus2_pairing() -> DerivedPairing:
    kf = 2 * 3 - 2            # adjunction: the albanese fibre has genus 3
    af = (0, 0, 0)            # translate curves lie inside albanese fibres
    f_sq = 0                  # fibres are disjoint
    mf = (1, 1, 1, 1)         # fixed-pair curves are sections of the albanese
    nf = (3, 3, 3, 3)         # fibre-class curves are trisections
    gf3 = Fraction(3 * kf - sum(af), 3)
    certify(gf3.denominator == 1, "integral genus-two fibre degree")
    gf = int(gf3)
    res1 = 3 * kf - 3 * gf - sum(af)
    res2 = f_sq + 3 * gf - 2 * kf - sum(mf)
    res3 = f_sq + sum(nf) - 2 * kf - gf
    return DerivedPairing(gf, (res1, res2, res3))
