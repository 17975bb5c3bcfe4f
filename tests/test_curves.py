from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trisect.curves import (INFINITE, Form, ProjPoint, fulton_mult,
                            line_intersection, linear_form, parse_form)
from trisect.field import Eis, W, rref
from trisect.fixtures import load_entries

from helpers import evaluate, is_singular_at


X0 = linear_form(1, 0, 0)
X1 = linear_form(0, 1, 0)
X2 = linear_form(0, 0, 1)
ORIGIN = ProjPoint(0, 0, 1)  # origin of the affine chart x2 = 1


def test_form_basics():
    f = parse_form("x0^3 + (w)*x1^3 + (-1 - w)*x2^3")
    assert f.degree == 3
    assert f.coeffs[(0, 3, 0)] == W
    assert evaluate(f, ProjPoint(1, 1, 1)) == Eis(0)
    assert parse_form(str(f)) == f
    g = X0 * X1 - X1 * X0
    assert not g and g.degree == -1
    with pytest.raises(ValueError):
        Form({(1, 0, 0): 1, (2, 0, 0): 1})


def test_form_parse_round_trip_samples():
    samples = [
        "x0*x1*x2",
        "x0^2*x1 + (w)*x1^2*x2 + (-1 - w)*x2^2*x0",
        "2*x0^2 + (1/3)*x1*x2",
        "(-2)*x0 + x1",
        "+x0",
        "-x0^3 + 2*x1^3 + (w)*x2^3",
    ]
    for s in samples:
        f = parse_form(s)
        assert parse_form(str(f)) == f


def test_fixture_form_literals_round_trip():
    # the ten cubics and the twelve triangle sides of the pencil fixture
    literals = [part for _, value, _ in load_entries("hesse_fixtures.txt")
                for part in value.split(";")]
    assert len(literals) == 22
    for text in literals:
        f = parse_form(text)
        assert parse_form(str(f)) == f


def test_malformed_form_literals():
    for bad in (
        "",                 # empty literal
        "x0 + ",            # empty term
        "(w*x0",            # unbalanced parentheses
        "x3",               # unknown variable
        "x0^a",             # exponent that is not an integer
        "x0 + x1^2",        # terms of different degrees
        "--x0",             # empty term between two signs
        "x0 - - x1",        # the same inside the literal
        "x0*",              # empty trailing factor
        "*x0",              # empty leading factor
        "(1/0)*x0",         # zero denominators, in a Q(w) coefficient
        "1/0*x0",           # and in a plain number
        "(1 + 3/0·w)*x0",
    ):
        with pytest.raises(ValueError):
            parse_form(bad)


def test_proj_point_canonicalisation():
    assert ProjPoint(0, 2, 2 * W) == ProjPoint(0, 1, W)
    assert ProjPoint(3, 6, 9) == ProjPoint(1, 2, 3)
    assert hash(ProjPoint(0, 2, 4)) == hash(ProjPoint(0, 1, 2))
    with pytest.raises(ValueError):
        ProjPoint(0, 0, 0)


def test_line_intersection():
    p = line_intersection(X0, X1)
    assert p == ProjPoint(0, 0, 1)
    with pytest.raises(ValueError):
        line_intersection(X0, X0.scale(W))


def test_transversal_lines():
    assert fulton_mult(X0, X1, ORIGIN) == 1
    # meeting point elsewhere: multiplicity zero
    assert fulton_mult(X0, X1, ProjPoint(0, 1, 0)) == 0


def test_conic_line_tangency():
    conic = parse_form("x0*x2 + (-1)*x1^2")
    assert fulton_mult(conic, X1, ORIGIN) == 1   # transversal branch
    assert fulton_mult(conic, X0, ORIGIN) == 2   # tangent line


def test_cusp_and_node():
    cusp = parse_form("x1^2*x2 + (-1)*x0^3")  # v^2 = u^3 at the chart origin
    assert fulton_mult(cusp, X1, ORIGIN) == 3
    assert fulton_mult(cusp, X0, ORIGIN) == 2
    assert is_singular_at(cusp, ORIGIN)
    node = parse_form("x1^2*x2 + (-1)*x0^3 + (-1)*x0^2*x2")
    assert fulton_mult(node, X1, ORIGIN) == 2
    assert is_singular_at(node, ORIGIN)
    assert not is_singular_at(parse_form("x0*x2 + (-1)*x1^2"), ORIGIN)


def test_total_contact_conics():
    # The two conics differ by x0^2, so they meet only at [0:0:1]; the whole
    # Bezout total 4 sits at that single point.
    c1 = parse_form("x0*x2 + (-1)*x1^2")
    c2 = parse_form("x0*x2 + (-1)*x1^2 + x0^2")
    assert fulton_mult(c1, c2, ORIGIN) == 4


def test_shared_component_is_infinite():
    f = X0 * X1
    g = X0 * X2
    assert fulton_mult(f, g, ProjPoint(0, 1, 1)) is INFINITE  # on x0 = 0
    assert fulton_mult(f, g, ProjPoint(1, 0, 0)) == 1         # x1 meets x2
    assert fulton_mult(f, f, ORIGIN) is INFINITE
    # multiple of the same line
    assert fulton_mult(X0, X0.scale(W), ProjPoint(0, 1, 0)) is INFINITE


def test_chart_choice_is_forced_by_largest_nonzero_coordinate():
    # A point with all coordinates nonzero: the algorithm works in chart 2.
    f = parse_form("x0 + (-1)*x1")
    g = parse_form("x0 + (-1)*x2")
    assert fulton_mult(f, g, ProjPoint(1, 1, 1)) == 1


# --- property tests ---------------------------------------------------------
#
# Random forms vanishing at [0:0:1]: any integer combination of the degree-2
# monomials other than x2^2.

_MONOS = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1)]
_coeff = st.integers(min_value=-3, max_value=3)


def _conic(cs):
    return Form(dict(zip(_MONOS, cs)))


conics = st.tuples(*[_coeff] * 5).map(_conic).filter(bool)


@given(conics, conics)
def test_mult_is_symmetric(f, g):
    assert fulton_mult(f, g, ORIGIN) == fulton_mult(g, f, ORIGIN)


@given(conics, conics, conics)
def test_mult_is_additive_over_products(f, g, h):
    lhs = fulton_mult(f, g * h, ORIGIN)
    mg = fulton_mult(f, g, ORIGIN)
    mh = fulton_mult(f, h, ORIGIN)
    if mg is INFINITE or mh is INFINITE:
        assert lhs is INFINITE
    else:
        assert lhs == mg + mh


# Lines and conics over Q(w) at points with small coordinates; a drawn flag
# moves a form through the point, so both verdicts occur.

def _form(degree, cs):
    monos = [m for m in product(range(degree + 1), repeat=3)
             if sum(m) == degree]
    return Form(dict(zip(monos, cs)))


def _through(form, point):
    """The form less the multiple of x_k^degree (x_k a nonzero coordinate of
    the point) that cancels its value there."""
    k = next(i for i in range(3) if point.coords[i])
    mono = tuple(form.degree if i == k else 0 for i in range(3))
    fix = evaluate(form, point) / point.coords[k] ** form.degree
    return form - Form({mono: fix})


_eis = st.builds(Eis, st.integers(-2, 2), st.integers(-2, 2))
_coeffs = st.lists(_eis, min_size=6, max_size=6)
plane_curves = st.builds(_form, st.sampled_from((1, 2)), _coeffs).filter(bool)
points = st.tuples(*[st.sampled_from((0, 1, -1, 2, W, -1 - W))] * 3).filter(
    any).map(lambda cs: ProjPoint(*cs))


@given(plane_curves, plane_curves, points, st.booleans(), st.booleans())
def test_mult_positive_iff_common_point(f, g, p, f_through, g_through):
    # two routes to incidence: the value of each form at p, and the constant
    # terms that fulton_mult reads after translating p to the origin
    f = _through(f, p) if f_through else f
    g = _through(g, p) if g_through else g
    assume(f and g)
    missed = bool(evaluate(f, p) or evaluate(g, p))
    assert (fulton_mult(f, g, p) == 0) == missed


@settings(max_examples=60)
@given(plane_curves, plane_curves, st.sampled_from((0, 1)), points,
       st.sampled_from(("shared", "through", "drawn")), st.data())
def test_mult_is_unchanged_by_adding_a_multiple(f, g, extra, p, kind, data):
    # Fulton's property (7): I_p(F, G) = I_p(F, G + A*F) for every form A of
    # degree deg G - deg F.  F passes through p.  G is F times a form of
    # degree `extra` (a shared component: INFINITE), a curve moved through
    # p, or a curve as drawn, which mostly misses p.
    f = _through(f, p)
    assume(f)
    if kind == "shared":
        g = f * data.draw(st.builds(_form, st.just(extra), _coeffs))
    elif kind == "through":
        g = _through(g, p)
    assume(g and g.degree >= f.degree)
    a = data.draw(st.builds(_form, st.just(g.degree - f.degree), _coeffs))
    h = g + a * f
    assume(h)
    assert fulton_mult(f, h, p) == fulton_mult(f, g, p)


def _substitute(form, matrix):
    """form(M x): x_i becomes the linear form on row i of M."""
    rows = [linear_form(*row) for row in matrix]
    out = Form({})
    for mono, c in form.coeffs.items():
        term = Form({(0, 0, 0): c})
        for row, e in zip(rows, mono):
            for _ in range(e):
                term = term * row
        out = out + term
    return out


_CHART_ORIGINS = tuple(ProjPoint(*(int(i == k) for i in range(3)))
                       for k in range(3))


@settings(max_examples=40, deadline=None)
@given(plane_curves, plane_curves, st.lists(_eis, min_size=9, max_size=9),
       st.one_of(st.sampled_from(_CHART_ORIGINS), points),
       st.sampled_from(("shared", "through", "drawn")), st.data())
def test_mult_is_unchanged_by_a_change_of_coordinates(f, g, entries, p, kind,
                                                       data):
    # Fulton's property (3): I_p(F, G) = I_q(F(Mx), G(Mx)) with M q = p, for
    # every invertible M over Q(w).  F passes through p; G shares a
    # component with F (INFINITE), is moved through p, or is as drawn.
    # Points at a chart origin put the translation's sign to the test.
    matrix = [entries[3 * i:3 * i + 3] for i in range(3)]
    assume(len(rref(matrix)) == 3)
    f = _through(f, p)
    assume(f)
    if kind == "shared":
        g = f * data.draw(st.builds(_form, st.just(1), _coeffs))
    elif kind == "through":
        g = _through(g, p)
    assume(g)
    solved = rref([row + [c] for row, c in zip(matrix, p.coords)])
    q = ProjPoint(*(row[3] for row in solved))
    assert fulton_mult(_substitute(f, matrix), _substitute(g, matrix), q) == (
        fulton_mult(f, g, p))
