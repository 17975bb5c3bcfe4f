"""Constructions only the tests use: oracles and extra loci built from the
library's public pieces."""

from functools import lru_cache
from math import lcm

from trisect.curves import Form, ProjPoint
from trisect.expr import Lit, Statement, Sum, Sym, Term
from trisect.field import Eis, w_pow
from trisect.heisenberg import printed_eigencubics
from trisect.torsion import (ETA, ORIGIN, THREE_TORSION, XI, Locus,
                             TorsionPt, Triple, curve_locus,
                             fibre_intersection_rule)


# --- plane curves -----------------------------------------------------------

def evaluate(form: Form, point: ProjPoint) -> Eis:
    """The value of a form at the point's stored coordinates, monomial by
    monomial: the incidence oracle, apart from the translation that
    `fulton_mult` makes."""
    coords = point.coords
    total = Eis(0)
    for (e0, e1, e2), c in form.coeffs.items():
        total = total + c * coords[0] ** e0 * coords[1] ** e1 * coords[2] ** e2
    return total


def partial(form: Form, index: int) -> Form:
    """Derivative of a form in the variable x_index."""
    out = {}
    for m, c in form.coeffs.items():
        if m[index]:
            lowered = list(m)
            lowered[index] -= 1
            out[tuple(lowered)] = c * m[index]
    return Form(out)


def is_singular_at(curve: Form, point: ProjPoint) -> bool:
    """True when all three partials vanish at the point (by the Euler
    relation the curve itself then vanishes there too)."""
    return all(not evaluate(partial(curve, i), point) for i in range(3))


def order_along(form: Form, p: ProjPoint, q: ProjPoint) -> int | None:
    """Order at t = 0 of form(p + t*q), the intersection multiplicity at p
    of the curve and the line through p and q, expanded term by term; None
    when the line lies on the curve."""
    poly = [Eis(0)] * (form.degree + 1)
    for mono, c in form.coeffs.items():
        term = [c]
        for a, b, e in zip(p.coords, q.coords, mono):
            for _ in range(e):
                # multiply by a + b*t
                term = [a * x + b * y
                        for x, y in zip(term + [Eis(0)], [Eis(0)] + term)]
        poly = [x + y for x, y in zip(poly, term)]
    return next((k for k, c in enumerate(poly) if c), None)


# --- the invariant pencil ---------------------------------------------------

def pencil_generators() -> tuple[Form, Form]:
    """The two invariant cubics spanning the pencil."""
    return printed_eigencubics()[(0, 0)]


def in_pencil(form: Form) -> bool:
    f0, f_inf = pencil_generators()
    lam = form.coeffs.get((3, 0, 0), Eis(0))
    mu = form.coeffs.get((1, 1, 1), Eis(0))
    return form == f0.scale(lam) + f_inf.scale(mu)


def base_points() -> tuple[ProjPoint, ...]:
    """The nine common points of all pencil members."""
    pts = []
    for k in range(3):
        m = -w_pow(k)
        pts.extend((ProjPoint(0, 1, m), ProjPoint(1, 0, m), ProjPoint(1, m, 0)))
    return tuple(pts)


# --- torsion loci and the fibre table ---------------------------------------

def grid(m: int):
    """All points of E[m]."""
    return (TorsionPt.make(m, i, j) for i in range(m) for j in range(m))


def triple_level(triple: Triple) -> int:
    """The least level M with all three points of the triple in E[M]."""
    return lcm(*(p.level for p in triple.points))


def _images(curve: Locus, x) -> Triple:
    """The curve's triple at the parameter x, through the group law."""
    return Triple.of(*(mp.shift + mp.mult * x for mp in curve.maps))


def _lcm_of_mults(curve: Locus) -> int:
    return lcm(*(abs(mp.mult) for mp in curve.maps if mp.mult))


@lru_cache(maxsize=None)
def curve_triples_oracle(curve: Locus, m: int) -> frozenset:
    """Brute force for `torsion.curve_triples`: the parameter runs over
    E[g*m] with g the lcm of the nonzero multipliers, and the images are
    filtered to E[m].  A parameter x with k*x in E[m] lies in E[|k|*m], so
    every triple in E[m]^3 arises."""
    out = set()
    for x in grid(_lcm_of_mults(curve) * m):
        t = _images(curve, x)
        if all(m % p.level == 0 for p in t.points):
            out.add(t)
    return frozenset(out)


def member_oracle(curve: Locus, triple: Triple) -> bool:
    """Brute force for `torsion.member` on a curve: a parameter x with
    k*x = p - s for a point p of the triple and a map's shift s lies in
    E[|k|*b], b the lcm of the levels of the triple and the shifts, so a
    search of E[g*b] is complete (g as in `curve_triples_oracle`)."""
    bound = lcm(triple_level(triple), *(mp.shift.level for mp in curve.maps))
    return any(_images(curve, x) == triple
               for x in grid(_lcm_of_mults(curve) * bound))


def locus_M(i: int) -> Locus:
    """Triples {x, eta_i, 2 eta_i}: a moving point plus a fixed three-torsion
    pair."""
    eta = ETA[i]
    return curve_locus(f"M{i}", ((ORIGIN, 1), (eta, 0), (2 * eta, 0)))


def locus_B(i: int, j: int) -> Locus:
    """Triples {xi_i, x, x + xi_j}, i != j."""
    if i == j:
        raise ValueError("locus_B needs two distinct two-torsion indices")
    return curve_locus(f"B{i}{j}", ((XI[i], 0), (ORIGIN, 1), (XI[j], 1)))


def build_intersection_table() -> dict:
    """The rule evaluated on all 28 unordered pairs of distinct nonzero
    three-torsion points."""
    table = {}
    for i, p in enumerate(THREE_TORSION):
        for q in THREE_TORSION[i + 1:]:
            table[frozenset((p, q))] = fibre_intersection_rule(p, q)
    return table


# --- the statement language -------------------------------------------------

def statement_text(stmt: Statement) -> str:
    """The statement written out in the grammar `parse_statement` reads."""
    return (f"{stmt.head} {stmt.context}: "
            + ", ".join(_sum_text(e) for e in stmt.exprs))


def _sum_text(expr: Sum) -> str:
    out = []
    for i, (sign, term) in enumerate(expr.terms):
        text = _term_text(term)
        if i == 0:
            out.append(f"-{text}" if sign == "-" else text)
        else:
            out.append(f"{sign} {text}")
    return " ".join(out)


def _term_text(term: Term) -> str:
    return "*".join(f"({_sum_text(f)})" if isinstance(f, Sum) else _factor_text(f)
                    for f in term.factors)


def _factor_text(factor) -> str:
    if isinstance(factor, Lit):
        return str(factor.value)
    if isinstance(factor, Sym):
        return factor.name
    return f"{factor.value}{factor.name}"
