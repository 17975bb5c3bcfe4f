from fractions import Fraction
from itertools import combinations

from trisect.checks import build_checks
from trisect.curves import Form, fulton_mult, parse_form
from trisect.field import Eis, W, w_pow
from trisect.heisenberg import (CHARACTERS, DEGREE3_MONOMIALS, NONZERO_CHARS,
                                TRIANGLE_CLASSES, act_sigma, act_tau,
                                char_class, char_neg, character_projection,
                                contains_vertices, decompose_degree3,
                                expected_pair_pattern, printed_eigencubics,
                                triangles, verify_pencil_pairs,
                                verify_vertex_containment)
from trisect.report import run_checks

from helpers import (base_points, evaluate, in_pencil, is_singular_at,
                     order_along, pencil_generators)

X0 = parse_form("x0")
X1 = parse_form("x1")


def test_generators_have_order_three():
    for mono in DEGREE3_MONOMIALS:
        f = Form({mono: Eis(1)})
        assert act_sigma(act_sigma(act_sigma(f))) == f
        assert act_tau(act_tau(act_tau(f))) == f


def test_commutation_up_to_scalar_on_linear_forms():
    # On degree one the two generators commute only up to the scalar w:
    # shift(diag(x)) = w^{-1} diag(shift(x)) for every coordinate.
    for f in (X0, X1, parse_form("x2")):
        lhs = act_sigma(act_tau(f))
        rhs = act_tau(act_sigma(f)).scale(w_pow(-1))
        assert lhs == rhs


def test_eigencubic_transformation_law():
    eigen = printed_eigencubics()
    for (a, b) in NONZERO_CHARS:
        f = eigen[(a, b)][0]
        assert act_sigma(f) == f.scale(w_pow(a))
        assert act_tau(f) == f.scale(w_pow(b))


def test_projection_is_idempotent_and_splits_space():
    for mono in DEGREE3_MONOMIALS[:4]:
        f = Form({mono: Eis(1)})
        total = Form({})
        for a in range(3):
            for b in range(3):
                p = character_projection(f, (a, b))
                assert character_projection(p, (a, b)) == p
                total = total + p
        assert total == f


def test_decomposition_matches_printed_forms():
    computed = {char: decompose_degree3(char) for char in CHARACTERS}
    printed = printed_eigencubics()
    # dimensions: 2 for the invariant character, 1 for the eight others
    assert len(computed[(0, 0)]) == 2
    for char in NONZERO_CHARS:
        assert len(computed[char]) == 1
        assert computed[char][0] == printed[char][0].monic()
    # the invariant space equals the printed span (both bases are reduced)
    assert set(computed[(0, 0)]) == {f.monic() for f in printed[(0, 0)]}
    # ten monic forms in all
    assert sum(len(v) for v in computed.values()) == 10


def test_triangles_are_singular_pencil_members():
    assert tuple(triangles()) == TRIANGLE_CLASSES
    for tri in triangles().values():
        assert in_pencil(tri.product)
        assert len(set(tri.vertices)) == 3
        for v in tri.vertices:
            assert is_singular_at(tri.product, v)


def test_base_points_lie_on_every_pencil_member():
    pts = base_points()
    assert len(set(pts)) == 9
    f0, f_inf = pencil_generators()
    for p in pts:
        assert not evaluate(f0, p) and not evaluate(f_inf, p)


def test_each_triangle_side_carries_three_base_points():
    pts = base_points()
    for tri in triangles().values():
        for side in tri.factors:
            assert sum(1 for p in pts if not evaluate(side, p)) == 3


def test_vertex_containment_claims():
    eigen = printed_eigencubics()
    contained = 0
    for char in NONZERO_CHARS:
        for tri in TRIANGLE_CLASSES:
            mults = verify_vertex_containment(char, tri)
            vertices = triangles()[tri].vertices
            # a vertex has multiplicity zero exactly when it misses the cubic
            assert [m == 0 for m in mults] == [
                bool(evaluate(eigen[char][0], v)) for v in vertices]
            if contains_vertices(char, tri):
                contained += 1
                assert mults == (3, 3, 3)
            else:
                assert 0 in mults
    assert contained == 24


def test_each_row_makes_its_own_multiplicity_calls(monkeypatch):
    # rows run in reverse order, so none can find a sibling's work cached:
    # a vertex row intersects at the triangle's three vertices, a pair row
    # at all twelve
    calls = []

    def counted(*args):
        calls.append(args)
        return fulton_mult(*args)
    monkeypatch.setattr("trisect.heisenberg.fulton_mult", counted)
    for check in reversed(build_checks(("heisenberg",))):
        before = len(calls)
        (result,) = run_checks([check], 24).results
        assert result.status == "PASS"
        family = check.check_id.split("-")[0]
        assert len(calls) - before == {"vertex": 3, "pair": 12}.get(family, 0)


def test_pair_row_reports_a_mixed_entry(monkeypatch):
    # a wrong value: the three vertices of one triangle disagree, so the row
    # fails and prints that triangle's three multiplicities, not one
    def mixed(c1, c2):
        return tuple((cls, (1, 2, 1) if cls == (1, 1) else mults)
                     for cls, mults in verify_pencil_pairs(c1, c2))
    monkeypatch.setattr("trisect.checks.verify_pencil_pairs", mixed)
    (check,) = [c for c in build_checks(("heisenberg",))
                if c.check_id == "pair-01-10"]
    (result,) = run_checks([check], 24).results
    assert result.status == "FAIL"
    assert result.expected == "T(1, 1)*1 + T(1, 2)*2 ; total 9"
    assert result.actual == "T(1, 1)*(1, 2, 1) + T(1, 2)*2 ; total 10"


def test_vertex_multiplicities_add_up_along_the_sides():
    # I_v(f, L1*L2*L3) is the sum of I_v(f, L) over the two sides L through
    # v, and I_v(f, L) is the order at t = 0 of f(v + t*u), with u the
    # side's other vertex
    eigen = printed_eigencubics()
    for char in NONZERO_CHARS:
        for cls, tri in triangles().items():
            expected = tuple(sum(order_along(eigen[char][0], v, u)
                                 for u in tri.vertices if u != v)
                             for v in tri.vertices)
            assert verify_vertex_containment(char, cls) == expected


def test_each_decomposition_row_makes_its_own_projections(monkeypatch):
    # rows run in reverse order, so none can find a sibling's work cached:
    # one character space takes the projections of the ten monomials
    calls = []

    def counted(*args):
        calls.append(args)
        return character_projection(*args)
    monkeypatch.setattr("trisect.heisenberg.character_projection", counted)
    rows = [c for c in build_checks(("heisenberg",))
            if c.paper_ref == "eigen-decomposition"]
    assert len(rows) == 10
    for check in reversed(rows):
        before = len(calls)
        (result,) = run_checks([check], 24).results
        assert result.status == "PASS"
        assert len(calls) - before == (
            90 if check.check_id == "character-dimensions" else 10)


def test_pencil_pair_claims():
    eigen = printed_eigencubics()
    pairs = list(combinations(NONZERO_CHARS, 2))
    assert len(pairs) == 28
    for c1, c2 in pairs:
        pattern = expected_pair_pattern(c1, c2)
        actual = verify_pencil_pairs(c1, c2)
        assert len(actual) == 4
        assert dict(actual) == {cls: (pattern.get(cls, 0),) * 3
                                for cls in TRIANGLE_CLASSES}
        # all of Bezout's nine points sit at the vertices
        assert sum(m for _, mults in actual for m in mults) == 9
        assert eigen[c1][0].degree * eigen[c2][0].degree == 9
    antipodal = [(c1, c2) for c1, c2 in pairs if c2 == char_neg(c1)]
    assert len(antipodal) == 4
    assert all(len(expected_pair_pattern(*pair)) == 3 for pair in antipodal)


def test_multiplication_count_of_the_heisenberg_instances(monkeypatch):
    # Eis products made by the 32 vertex and 28 pair instances, with the
    # fixtures parsed beforehand.  The count is deterministic.  fulton_mult
    # reads incidence from the translated constant terms and evaluates no
    # form first: the 252 calls at a common point save two evaluations
    # each, and the 180 calls at a vertex that misses a cubic pay for two
    # translations.
    printed_eigencubics()
    triangles()
    calls = 0
    mul = Eis.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)
    monkeypatch.setattr(Eis, "__mul__", counted)
    monkeypatch.setattr(Eis, "__rmul__", counted)
    for char in NONZERO_CHARS:
        for tri in TRIANGLE_CLASSES:
            verify_vertex_containment(char, tri)
    for c1, c2 in combinations(NONZERO_CHARS, 2):
        verify_pencil_pairs(c1, c2)
    assert calls == 63_705


def test_pair_pattern_worked_example():
    # characters (1,0) and (0,1): transversal on the triangle of their sum,
    # simple contact on the triangle of their difference
    pattern = expected_pair_pattern((1, 0), (0, 1))
    assert pattern == {(1, 1): 1, (1, 2): 2}
    # antipodal pair: transversal through the three other triangles
    pattern = expected_pair_pattern((1, 0), (2, 0))
    assert pattern == {(0, 1): 1, (1, 1): 1, (1, 2): 1}


def test_single_printed_multiplicity():
    # spot check: the (1,0) eigencubic meets the coordinate triangle's
    # vertex [0:0:1] not at all, and the (0,1) eigencubic meets the
    # coordinate triangle with multiplicity three there
    from trisect.curves import ProjPoint
    eigen = printed_eigencubics()
    tri = triangles()[(1, 0)]
    v = ProjPoint(0, 0, 1)
    assert v in tri.vertices
    assert fulton_mult(eigen[(1, 0)][0], tri.product, v) == 0
    assert fulton_mult(eigen[(0, 1)][0], tri.product, v) == 3


def test_containment_rule():
    assert not contains_vertices((1, 0), (1, 0))
    assert not contains_vertices((2, 0), (1, 0))
    assert contains_vertices((1, 0), (0, 1))
    assert contains_vertices((2, 2), (1, 2))


def test_char_class():
    assert char_class((2, 0)) == (1, 0)
    assert char_class((2, 2)) == (1, 1)
    assert char_class((2, 1)) == (1, 2)
    assert char_class((0, 2)) == (0, 1)
