"""The order-27 group acting on plane cubics: character spaces and the
intersection pattern of the eigencubics with the four triangle members of the
invariant pencil.

The group is generated by the cyclic coordinate shift and the diagonal
automorphism diag(1, w^2, w); both have order three and commute up to the
scalar w, so degree-three forms carry an honest action of the quotient
(Z/3)^2 and split into nine character spaces.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .curves import Form, ProjPoint, fulton_mult, line_intersection, parse_form
from .field import Eis, rref, w_pow
from .fixtures import load_entries

Char = tuple[int, int]

CHARACTERS: tuple[Char, ...] = tuple((a, b) for a in range(3) for b in range(3))
NONZERO_CHARS: tuple[Char, ...] = tuple(c for c in CHARACTERS if c != (0, 0))
TRIANGLE_CLASSES: tuple[Char, ...] = ((1, 0), (0, 1), (1, 1), (1, 2))

DEGREE3_MONOMIALS = tuple(sorted(
    ((i, j, 3 - i - j) for i in range(4) for j in range(4 - i)), reverse=True))


def act_sigma(form: Form) -> Form:
    """Coordinate shift x_i -> x_{i-1}: exponents (a, b, c) -> (b, c, a)."""
    return Form({(m[1], m[2], m[0]): c for m, c in form.coeffs.items()})


def act_tau(form: Form) -> Form:
    """Diagonal map x_i -> w^{-i} x_i: the coefficient of x0^a x1^b x2^c is
    scaled by w^{-(b + 2c)}."""
    return Form({m: w_pow(-(m[1] + 2 * m[2])) * c for m, c in form.coeffs.items()})


def char_class(char: Char) -> Char:
    """Representative of {c, -c} among the four triangle class labels."""
    a, b = char[0] % 3, char[1] % 3
    if (a, b) == (0, 0):
        raise ValueError("the zero character has no triangle class")
    return min((a, b), ((-a) % 3, (-b) % 3))


def char_add(c1: Char, c2: Char) -> Char:
    return ((c1[0] + c2[0]) % 3, (c1[1] + c2[1]) % 3)


def char_neg(c: Char) -> Char:
    return ((-c[0]) % 3, (-c[1]) % 3)


def character_projection(form: Form, char: Char) -> Form:
    """Average of the nine translates against the character (a, b): the
    translate by the diagonal map t times, then the shift s times, is
    weighted by w^-(a*s + b*t)."""
    a, b = char
    out = Form({})
    diagonal = form
    for t in range(3):
        translate = diagonal
        for s in range(3):
            out = out + translate.scale(w_pow(-(a * s + b * t)))
            translate = act_sigma(translate)
        diagonal = act_tau(diagonal)
    return out.scale(Eis(Fraction(1, 9)))


def decompose_degree3(char: Char) -> tuple[Form, ...]:
    """Reduced monic basis of the character space of `char` in the
    degree-three forms, from the projections of the ten monomials.

    The nine spaces together have dimension ten: the invariant space is a
    pencil and every nonzero character space is a line.
    """
    rows = []
    for mono in DEGREE3_MONOMIALS:
        proj = character_projection(Form({mono: Eis(1)}), char)
        rows.append([proj.coeffs.get(m, Eis(0)) for m in DEGREE3_MONOMIALS])
    return tuple(Form(dict(zip(DEGREE3_MONOMIALS, row))) for row in rref(rows))


# ---------------------------------------------------------------------------
# Fixtures: the eigencubics and triangles as printed in hesse_fixtures.txt
# ---------------------------------------------------------------------------

class Triangle(NamedTuple):
    factors: tuple[Form, Form, Form]
    product: Form
    vertices: tuple[ProjPoint, ProjPoint, ProjPoint]


def _parse_char(text: str) -> Char:
    inner = text.strip()[1:-1]
    a, b = inner.split(",")
    return (int(a), int(b))


@lru_cache(maxsize=None)
def printed_eigencubics() -> dict:
    """Fixture forms: char -> tuple of monic forms (a pair for the invariant
    character, a single form for the rest)."""
    table: dict[Char, list[Form]] = {}
    for label, value, _ in load_entries("hesse_fixtures.txt"):
        if not label.startswith("cubic"):
            continue
        char = _parse_char(label.split()[1])
        table.setdefault(char, []).append(parse_form(value))
    return {char: tuple(forms) for char, forms in table.items()}


@lru_cache(maxsize=None)
def triangles() -> dict:
    """Fixture triangles: class -> the triangle with its sides, their
    product and its three vertices."""
    out = {}
    for label, value, _ in load_entries("hesse_fixtures.txt"):
        if not label.startswith("triangle"):
            continue
        char = _parse_char(label.split()[1])
        factors = tuple(parse_form(part) for part in value.split(";"))
        if len(factors) != 3 or any(f.degree != 1 for f in factors):
            raise ValueError(f"triangle {char} must have three line factors")
        product = factors[0] * factors[1] * factors[2]
        verts = tuple(line_intersection(factors[i], factors[j])
                      for i, j in ((0, 1), (0, 2), (1, 2)))
        out[char] = Triangle(factors, product, verts)
    return out


# ---------------------------------------------------------------------------
# Vertex containment and pencil pair intersections, checked pointwise
# ---------------------------------------------------------------------------

def contains_vertices(char: Char, triangle: Char) -> bool:
    """The claim: the eigencubic of `char` passes through the vertices of the
    triangle of class `triangle` exactly when the two classes differ, and
    then with local multiplicity three at each vertex."""
    return triangle != char_class(char)


def verify_vertex_containment(char: Char, triangle: Char) -> tuple:
    """Local multiplicities of the eigencubic of `char` and the triangle of
    class `triangle` at the triangle's three vertices; a vertex lies on the
    cubic exactly when its multiplicity is not zero."""
    curve = printed_eigencubics()[char][0]
    tri = triangles()[triangle]
    return tuple(fulton_mult(curve, tri.product, v) for v in tri.vertices)


def expected_pair_pattern(c1: Char, c2: Char) -> dict:
    """The claim for two eigencubics: their nine Bezout intersection points
    all sit at triangle vertices, with this multiplicity at each vertex of
    the triangle of each class, from the character sum and difference."""
    if c2 == char_neg(c1):
        skip = char_class(c1)
        return {cls: 1 for cls in TRIANGLE_CLASSES if cls != skip}
    return {char_class(char_add(c1, c2)): 1,
            char_class(char_add(c1, char_neg(c2))): 2}


def verify_pencil_pairs(c1: Char, c2: Char) -> tuple:
    """Local multiplicities of the eigencubics of two characters at the
    vertices of each triangle: ((triangle class, (m, m, m)), ...)."""
    eigen = printed_eigencubics()
    f, g = eigen[c1][0], eigen[c2][0]
    return tuple((cls, tuple(fulton_mult(f, g, v) for v in tri.vertices))
                 for cls, tri in triangles().items())
