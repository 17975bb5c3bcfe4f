"""Intersection numerics: symmetric-product products, Euler characteristics,
splitting enumeration, obstruction certificates, lattice ranks, relations."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisect.field import Eis, W, rref
from trisect.rings import (
    E2_CANONICAL,
    E3_BOUNDARY,
    E3_CANONICAL,
    FIBRE_CLASS_CURVE,
    TWO_TORSION_LINE,
    CohomologyCase,
    albanese_degrees,
    canonical_relations,
    certificate_double_component,
    certificate_triple_component,
    chi_e2,
    chi_symmetric_power,
    cohomology_case,
    component_genus,
    derive_albanese_genus2_pairing,
    enumerate_splittings,
    format_e2_class,
    genus_e2,
    gram_matrix,
    lattice_rank,
    noether_invariants,
    pair_e2,
    pairing_vector,
    parse_e2_class,
    relation_residual,
    splitting_image_classes,
    triple_product_e3,
)
from trisect.torsion import (
    ETA,
    XI,
    intersect_loci,
    locus_A,
    locus_D,
    locus_F,
    locus_line,
    locus_N,
)

from helpers import locus_M

D = (1, 0)
F = (0, 1)


# ---------------------------------------------------------------------------
# Third symmetric product
# ---------------------------------------------------------------------------

def test_monomial_products():
    assert triple_product_e3(D, D, D) == 1
    assert triple_product_e3(D, D, F) == 1
    assert triple_product_e3(D, F, F) == 0
    assert triple_product_e3(F, F, F) == 0


def test_canonical_class_is_numerically_trivial_in_top_degree():
    K = E3_CANONICAL
    assert triple_product_e3(K, K, K) == 0


small_class = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@given(small_class, small_class, small_class)
def test_triple_product_symmetric(c1, c2, c3):
    values = {triple_product_e3(*perm) for perm in itertools.permutations((c1, c2, c3))}
    assert len(values) == 1


@given(small_class, small_class, small_class, small_class)
def test_triple_product_linear_in_first_slot(c1, c2, c3, c4):
    summed = (c1[0] + c2[0], c1[1] + c2[1])
    assert (triple_product_e3(summed, c3, c4)
            == triple_product_e3(c1, c3, c4) + triple_product_e3(c2, c3, c4))


def test_chi_worked_values():
    assert chi_symmetric_power(3, 4, -1) == 5
    assert chi_symmetric_power(3, 3, -1) == 0
    assert chi_symmetric_power(2, 4, -1) == 5


@given(st.integers(1, 6), st.integers(-30, 30), st.integers(-30, 30))
def test_chi_always_integral(n, a, b):
    chi_symmetric_power(n, a, b)  # the internal assertion is the check


def test_cohomology_cases():
    assert cohomology_case(3, 4, -1) is CohomologyCase.ONLY_H0
    assert cohomology_case(3, 3, -1) is CohomologyCase.TORSION_DEPENDENT
    assert cohomology_case(3, -1, 0) is CohomologyCase.ALL_VANISH
    assert cohomology_case(3, -2, 0) is CohomologyCase.ALL_VANISH
    assert cohomology_case(3, 0, -1) is CohomologyCase.ONLY_H1
    assert cohomology_case(3, 2, 1) is CohomologyCase.ONLY_H0
    assert cohomology_case(3, -3, 1) is CohomologyCase.TORSION_DEPENDENT
    assert cohomology_case(3, -4, 1) is CohomologyCase.ONLY_HN
    assert cohomology_case(3, -6, 3) is CohomologyCase.ONLY_HN1


@given(st.integers(2, 5), st.integers(-12, 12), st.integers(-12, 12))
def test_cohomology_case_consistent_with_chi(n, a, b):
    """chi is h^0 - h^1 + ... so its sign must match the single surviving
    group, and it must vanish when all groups do."""
    case = cohomology_case(n, a, b)
    chi = chi_symmetric_power(n, a, b)
    if case is CohomologyCase.ALL_VANISH:
        assert chi == 0
    elif case is CohomologyCase.ONLY_H0:
        assert chi > 0
    elif case is CohomologyCase.ONLY_H1:
        assert chi < 0
    elif case is CohomologyCase.ONLY_HN1:
        assert chi * (-1) ** (n - 1) > 0
    elif case is CohomologyCase.ONLY_HN:
        assert chi * (-1) ** n > 0
    else:
        assert chi == 0


def test_curve_pairings():
    assert FIBRE_CLASS_CURVE.pair(E3_BOUNDARY) == 1
    assert FIBRE_CLASS_CURVE.pair(E3_CANONICAL) == 0
    assert TWO_TORSION_LINE.pair(E3_BOUNDARY) == 2
    assert TWO_TORSION_LINE.pair(E3_CANONICAL) == -1


def test_curve_numbers_match_torsion_enumeration():
    """The (".D", ".F") constants agree with set-theoretic counts of the
    enumerated loci at a working level (transverse anchors)."""
    u = ETA[1] + XI[1]
    n = locus_N(ETA[2])
    line = locus_line(1)
    assert len(intersect_loci(n, locus_D(u), 6)) == FIBRE_CLASS_CURVE.dot_d
    assert len(intersect_loci(n, locus_F(XI[2]), 6)) == FIBRE_CLASS_CURVE.dot_f
    assert len(intersect_loci(line, locus_D(u), 6)) == TWO_TORSION_LINE.dot_d
    assert len(intersect_loci(line, locus_F(ETA[1]), 6)) == TWO_TORSION_LINE.dot_f


# ---------------------------------------------------------------------------
# Second symmetric product
# ---------------------------------------------------------------------------

def test_pair_e2_basics():
    h, f = (1, 0), (0, 1)
    assert pair_e2(h, h) == 1
    assert pair_e2(h, f) == 1
    assert pair_e2(f, f) == 0
    assert pair_e2(E2_CANONICAL, E2_CANONICAL) == 0


def test_genus_and_chi_on_second_product():
    assert genus_e2((4, -1)) == 4
    assert chi_e2((4, -1)) == 5
    assert pair_e2((4, -2), (0, 1)) == 4


def test_e2_class_literals_round_trip():
    for text, cls in (("4h - 2f", (4, -2)), ("f", (0, 1)), ("3h - f", (3, -1)),
                      ("h", (1, 0)), ("2h - f", (2, -1)), ("-h + 2f", (-1, 2))):
        assert parse_e2_class(text) == cls
        assert parse_e2_class(format_e2_class(cls)) == cls
    with pytest.raises(ValueError):
        parse_e2_class("4g")
    with pytest.raises(ValueError):
        parse_e2_class("")


# ---------------------------------------------------------------------------
# Surface invariants
# ---------------------------------------------------------------------------

def test_noether_invariants():
    assert noether_invariants(1, 1, 3) == (1, 9, 9)
    assert noether_invariants(0, 0, 0) == (1, 12, 10)
    assert noether_invariants(3, 2, 6) == (2, 18, 18)


# ---------------------------------------------------------------------------
# Canonical-curve splittings
# ---------------------------------------------------------------------------

def test_exactly_four_splittings():
    splittings = enumerate_splittings()
    assert [s.label for s in splittings] == ["1a", "1b", "2a", "2b"]
    by_label = {s.label: s for s in splittings}
    assert by_label["1a"].components == ((2, -2), (1, -3))
    assert by_label["1a"].pairwise == ((0, 1, 4),)
    assert by_label["1b"].components == ((2, 0), (1, -1))
    assert by_label["1b"].pairwise == ((0, 1, 2),)
    assert by_label["2a"].components == ((1, -1), (1, -1), (1, -1))
    assert by_label["2a"].pairwise == ((0, 1, 1), (0, 2, 1), (1, 2, 1))
    assert by_label["2b"].components == ((1, -1), (1, -1), (1, -3))
    assert by_label["2b"].pairwise == ((0, 1, 0), (0, 2, 2), (1, 2, 2))
    assert by_label["1a"].genera == (1, 0)
    assert by_label["1b"].genera == (2, 1)
    assert by_label["2a"].genera == (1, 1, 1)
    assert by_label["2b"].genera == (1, 1, 0)


def test_splitting_search_is_bound_stable():
    assert enumerate_splittings() == enumerate_splittings(-24, 8)


def test_splitting_totals():
    """Each splitting reassembles K: degrees sum to K^2 and the full square
    expands back to K^2."""
    for s in enumerate_splittings():
        degrees = [kd for kd, _ in s.components]
        assert sum(degrees) == 3
        square = sum(sq for _, sq in s.components)
        square += 2 * sum(v for _, _, v in s.pairwise)
        assert square == 3
        for (kd, sq), g in zip(s.components, s.genera):
            assert component_genus(kd, sq) == g


def test_non_reduced_certificates():
    triple = certificate_triple_component()
    assert triple.pattern == "3A"
    assert triple.conflict[0][1] == 3 and triple.conflict[1][1] == 9
    assert triple.derived[0][1] == Fraction(1, 3)
    double = certificate_double_component()
    assert double.pattern == "2A+B"
    assert double.conflict[0][1] == 1 and double.conflict[1][1] == 2
    derived = dict(double.derived)
    assert derived["A.A"] == -1 and derived["B.B"] == -1
    assert derived["A.B"] == 2 and derived["p_a(2A)"] == 0


# ---------------------------------------------------------------------------
# Component images on the second symmetric product
# ---------------------------------------------------------------------------

def test_image_classes_per_case():
    table = splitting_image_classes()
    assert table["1a"] == (("A", (4, -2)), ("B", (0, 1)))
    assert table["1b"] == (("A", (3, -1)), ("B", (1, 0)))
    assert table["2a"] == (("A", (2, -1)), ("B1", (1, 0)), ("B2", (1, 0)))
    assert table["2b"] == (("A", (0, 1)), ("B1", (2, -1)), ("B2", (2, -1)))


def test_image_classes_sum_to_the_canonical_image():
    for rows in splitting_image_classes().values():
        total = (sum(c[0] for _, c in rows), sum(c[1] for _, c in rows))
        assert total == (4, -1)


def test_image_classes_preserve_genera():
    splittings = {s.label: s for s in enumerate_splittings()}
    for case, rows in splitting_image_classes().items():
        image_genera = sorted(genus_e2(c) for _, c in rows)
        assert image_genera == sorted(splittings[case].genera)


def test_albanese_degrees():
    assert albanese_degrees("1a") == (4, 0)
    assert albanese_degrees("1b") == (3, 1)
    assert albanese_degrees("2a") == (2, 1, 1)
    assert albanese_degrees("2b") == (0, 2, 2)


# ---------------------------------------------------------------------------
# Lattice ranks
# ---------------------------------------------------------------------------

def test_gram_ranks():
    sympy = pytest.importorskip("sympy")
    for name, expected in (("gram10", 10), ("gram9", 9)):
        order, rows = gram_matrix(name)
        assert len(order) == len(rows) == expected
        assert lattice_rank(rows) == expected
        assert sympy.Matrix([list(r) for r in rows]).rank() == expected


def test_gram_spot_entries():
    order, rows = gram_matrix("gram9")
    k = rows[order.index("K")]
    assert k[order.index("K")] == 3
    assert k[order.index("G")] == 2
    order10, rows10 = gram_matrix("gram10")
    gamma = rows10[order10.index("Gamma")]
    assert gamma[order10.index("Gamma")] == -2
    assert gamma[order10.index("K")] == 0
    assert gamma[order10.index("G")] == 1


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                          st.integers(-3, 3)), max_size=6))
def test_rank_invariant_under_unimodular_row_operations(shears):
    _, rows = gram_matrix("gram9")
    m = [list(r) for r in rows]
    for i, j, c in shears:
        if i == j:
            continue
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    assert lattice_rank(m) == 9


def test_lattice_rank_refuses_floats():
    with pytest.raises(TypeError):
        lattice_rank([[0.1, 0.2], [0.3, 0.6000000000000001]])


def test_lattice_rank_edge_cases():
    assert lattice_rank([]) == 0
    assert lattice_rank([[0, 0], [0, 0]]) == 0
    assert lattice_rank([[1, 2], [2, 4]]) == 1
    assert lattice_rank([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == 2
    with pytest.raises(ValueError):
        lattice_rank([[1, 2], [1]])
    # the ragged check runs before zero rows are dropped
    with pytest.raises(ValueError):
        lattice_rank([[0, 0], [0]])
    # the same elimination routine over Q(w): the second row is w times the
    # first, and the reduced form is unique
    assert rref([[W, 1], [W * W, W]]) == [[Eis(1), W * W]]
    assert rref([[W, 1], [1, W]]) == [[Eis(1), Eis(0)], [Eis(0), Eis(1)]]


# ---------------------------------------------------------------------------
# Relations among the distinguished classes
# ---------------------------------------------------------------------------

def test_canonical_relations_pair_to_zero():
    for name, lhs, rhs in canonical_relations():
        assert relation_residual(lhs, rhs) == (0,) * 9, name


def test_perturbed_relation_fails():
    _, lhs, rhs = canonical_relations()[0]
    assert any(relation_residual(((4, lhs[0][1]),), rhs))


def test_pairing_vector_sources():
    assert pairing_vector("A1")[0] == 1     # K.A = 1
    assert pairing_vector("F0")[0] == 4     # K.F = 4
    assert pairing_vector("K")[0] == 3      # K.K = 3
    with pytest.raises(KeyError):
        pairing_vector("nope")


def test_derived_albanese_pairing():
    derived = derive_albanese_genus2_pairing()
    assert derived.value == 4
    assert derived.residuals == (0, 0, 0)


def test_derivation_inputs_match_torsion_counts():
    """The set-theoretic counts behind the derivation: translate curves miss
    a generic sum fibre, fixed-pair curves are sections, fibre-class curves
    trisections."""
    assert len(intersect_loci(locus_A(1), locus_F(ETA[1]), 6)) == 0
    for i in (1, 2, 3, 4):
        assert len(intersect_loci(locus_M(i), locus_F(XI[1]), 6)) == 1
        assert len(intersect_loci(locus_N(ETA[i]), locus_F(XI[1]), 6)) == 3
