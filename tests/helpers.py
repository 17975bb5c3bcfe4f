"""Constructions only the tests use: oracles and extra loci built from the
library's public pieces."""

from trisect.curves import Form, ProjPoint
from trisect.field import Eis, w_pow
from trisect.heisenberg import printed_eigencubics
from trisect.torsion import (ETA, ORIGIN, THREE_TORSION, XI, Locus,
                             curve_locus, fibre_intersection_rule)


# --- plane curves -----------------------------------------------------------

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
    return all(not partial(curve, i).evaluate(point) for i in range(3))


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
