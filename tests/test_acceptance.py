"""Acceptance gate: one test per criterion, exact equality throughout.

Each test carries a `criterion` marker; the conftest hook prints one
pass/fail line per criterion at the end of the run.
"""

import json
import re
import time
from fractions import Fraction
from itertools import combinations

import pytest

from trisect.cli import main
from trisect.covers import (FeClass, derive_branch_class,
                            derive_image_classes, exclusion_certificates,
                            fe_chi, fe_genus, fe_pair, solve_cover_constraints)
from trisect.heisenberg import (CHARACTERS, NONZERO_CHARS,
                                TRIANGLE_CLASSES, char_class,
                                contains_vertices, decompose_degree3,
                                expected_pair_pattern, printed_eigencubics,
                                verify_pencil_pairs, verify_vertex_containment)
from trisect.rings import (albanese_degrees, canonical_relations,
                           certificate_double_component,
                           certificate_triple_component, chi_symmetric_power,
                           derive_albanese_genus2_pairing,
                           enumerate_splittings, gram_matrix, lattice_rank,
                           noether_invariants, relation_residual)
from trisect.torsion import (ETA, ORIGIN, XI, Triple, contains_locus,
                             enumerate_base_points, expected_base_points,
                             intersect_loci, locus_A, locus_D, locus_F,
                             locus_Gamma, locus_N, locus_Y, locus_line,
                             printed_intersection_table)

from helpers import build_intersection_table


@pytest.mark.criterion(1, "twisted Euler characteristics")
def test_criterion_1_twisted_euler():
    assert chi_symmetric_power(3, 4, -1) == 5
    for a in (-9, -6, -3, 0, 3, 6, 9):
        assert chi_symmetric_power(3, a, -(a // 3)) == 0


def _proportional(f, g) -> bool:
    monomial = next(iter(g.coeffs))
    if monomial not in f.coeffs:
        return False
    ratio = f.coeffs[monomial] / g.coeffs[monomial]
    return f == g.scale(ratio)


@pytest.mark.criterion(2, "character decomposition of cubics")
def test_criterion_2_eigencubics():
    computed = {char: decompose_degree3(char) for char in CHARACTERS}
    printed = printed_eigencubics()
    assert len(computed[(0, 0)]) == 2
    for char in NONZERO_CHARS:
        assert len(computed[char]) == 1
        assert _proportional(printed[char][0], computed[char][0])
    assert {f.monic() for f in printed[(0, 0)]} == set(computed[(0, 0)])


@pytest.mark.criterion(3, "vertex containment")
def test_criterion_3_vertex_containment():
    start = time.perf_counter()
    checks = {(char, tri): verify_vertex_containment(char, tri)
              for char in NONZERO_CHARS for tri in TRIANGLE_CLASSES}
    elapsed = time.perf_counter() - start
    assert len(checks) == 32
    for (char, tri), mults in checks.items():
        # the cubic contains the vertices exactly when the classes differ,
        # and then meets the triangle with multiplicity three at each
        assert contains_vertices(char, tri) == (tri != char_class(char))
        if tri != char_class(char):
            assert mults == (3, 3, 3)
        else:
            assert 0 in mults
    assert elapsed < 10.0


@pytest.mark.criterion(4, "pencil pair intersections")
def test_criterion_4_pencil_pairs():
    eigen = printed_eigencubics()
    pairs = list(combinations(NONZERO_CHARS, 2))
    assert len(pairs) == 28
    for c1, c2 in pairs:
        pattern = expected_pair_pattern(c1, c2)
        actual = verify_pencil_pairs(c1, c2)
        assert len(actual) == 4
        assert dict(actual) == {cls: (pattern.get(cls, 0),) * 3
                                for cls in TRIANGLE_CLASSES}
        assert (sum(m for _, mults in actual for m in mults)
                == eigen[c1][0].degree * eigen[c2][0].degree == 9)


@pytest.mark.criterion(5, "fibre intersection table")
def test_criterion_5_table_matches_transcription():
    built = build_intersection_table()
    printed = printed_intersection_table()
    assert len(built) == len(printed) == 28
    assert built == printed


@pytest.mark.criterion(6, "base point enumeration")
def test_criterion_6_base_points():
    report = enumerate_base_points(24)
    assert report.base_points == expected_base_points()
    assert len(report.base_points) == 4
    assert all(not term.triples for term in report.candidate_b_terms)


@pytest.mark.criterion(7, "torsion locus fixtures")
def test_criterion_7_torsion_fixtures():
    for level in (24, 48):
        assert intersect_loci(locus_N(ETA[1]), locus_D(ORIGIN),
                              level) == frozenset(
            (Triple.of(ORIGIN, ETA[1], 2 * ETA[1]),))
        for i in (1, 2, 3):
            assert intersect_loci(locus_line(i), locus_F(ORIGIN),
                                  level) == frozenset(
                (Triple.of(ORIGIN, XI[i], XI[i]),
                 Triple.of(XI[1], XI[2], XI[3])))
        assert intersect_loci(locus_Gamma(), locus_D(ORIGIN),
                              level) == frozenset(
            (Triple.of(ORIGIN, XI[1], XI[2]),
             Triple.of(ORIGIN, XI[1], XI[3]),
             Triple.of(ORIGIN, XI[2], XI[3])))
    assert contains_locus(locus_Y(), locus_A(0))
    for i in (1, 2, 3):
        assert contains_locus(locus_Y(), locus_line(i))
    assert (enumerate_base_points(24).base_points
            == enumerate_base_points(48).base_points)


@pytest.mark.criterion(8, "canonical splittings and certificates")
def test_criterion_8_splittings():
    splittings = {s.label: s for s in enumerate_splittings()}
    assert sorted(splittings) == ["1a", "1b", "2a", "2b"]
    assert splittings["1a"].components == ((2, -2), (1, -3))
    assert splittings["1b"].components == ((2, 0), (1, -1))
    assert splittings["2a"].components == ((1, -1), (1, -1), (1, -1))
    assert splittings["2b"].components == ((1, -1), (1, -1), (1, -3))
    certificates = (certificate_triple_component(),
                    certificate_double_component())
    assert [c.pattern for c in certificates] == ["3A", "2A+B"]
    for certificate in certificates:
        assert certificate.conflict[0][1] != certificate.conflict[1][1]
    assert albanese_degrees("1a") == (4, 0)
    assert albanese_degrees("1b") == (3, 1)
    assert albanese_degrees("2a") == (2, 1, 1)
    assert albanese_degrees("2b") == (0, 2, 2)


@pytest.mark.criterion(9, "lattice ranks and relations")
def test_criterion_9_lattice():
    assert lattice_rank(gram_matrix("gram10")[1]) == 10
    assert lattice_rank(gram_matrix("gram9")[1]) == 9
    assert noether_invariants(1, 1, 3) == (1, 9, 9)
    relations = canonical_relations()
    assert len(relations) == 3
    for _, lhs, rhs in relations:
        assert not any(relation_residual(lhs, rhs))
    assert derive_albanese_genus2_pairing().value == 4


@pytest.mark.criterion(10, "quotient branch families")
def test_criterion_10_cover_families():
    families, _ = solve_cover_constraints()
    assert [(f.label, f.n, f.t, f.chi) for f in families] == [
        ("a", 3, 7, 1), ("b", 1, 13, 2)]


@pytest.mark.criterion(11, "branch pipeline numbers")
def test_criterion_11_branch_pipeline():
    steps = dict(derive_branch_class())
    assert steps["branch class"] == FeClass(2, 6, 22)
    assert steps["positive branch part"] == FeClass(2, 6, 15)
    assert fe_chi(FeClass(2, 2, 6)) == 15
    images = dict(derive_image_classes())
    assert images["albanese image"] == FeClass(2, 4, 12)
    assert images["bicanonical image"] == FeClass(2, 2, 7)
    assert fe_genus(FeClass(2, 2, 7)) == 4
    assert fe_pair(FeClass(2, 2, 5), FeClass(2, 2, 7)) == 16


@pytest.mark.criterion(12, "bicanonical degree exclusions")
def test_criterion_12_exclusions():
    certificates = exclusion_certificates()
    assert [c.pattern for c in certificates] == [
        "d=4", "d=6 cone", "d=6 smooth quadric", "d=6 slope", "d=3"]
    conflicts = {c.pattern: (c.conflict[0][1], c.conflict[1][1])
                 for c in certificates}
    assert conflicts["d=4"] == (3, 4)
    assert conflicts["d=6 cone"] == (5, 4)
    assert conflicts["d=6 smooth quadric"] == (1, 0)
    assert conflicts["d=6 slope"] == (2, 1)
    assert conflicts["d=3"] == (1, 0)
    derived = {c.pattern: dict(c.derived) for c in certificates}
    assert derived["d=6 smooth quadric"]["K.L"] == 3
    assert derived["d=6 smooth quadric"]["L.L"] == 0
    assert derived["d=6 slope"]["slope"] == 3
    assert derived["d=3"][
        "K.Theta for a line not in the branch locus"] == Fraction(3, 2)
    for k in (1, 3, 5):
        assert Fraction(3 * k, 2).denominator == 2
    for certificate in certificates:
        assert certificate.conflict[0][1] != certificate.conflict[1][1]


@pytest.mark.criterion(13, "command line behavior")
def test_criterion_13_cli(capsys):
    assert main(["eval", "chi E(3): 4D-F"]) == 0
    assert capsys.readouterr().out == "5\n"

    assert main(["verify", "--suite", "field"]) == 0
    out = capsys.readouterr().out
    assert json.dumps(json.loads(out), indent=2) + "\n" == out

    assert main(["eval", "chi E(3): 4D -"]) == 2
    capsys.readouterr()
    assert main(["verify", "--torsion-level", "7"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "bogus"])
    assert info.value.code == 2
    capsys.readouterr()

    main(["verify"])
    first = capsys.readouterr().out
    main(["verify"])
    second = capsys.readouterr().out
    strip = lambda text: re.sub(r'"millis": \d+', '"millis": 0', text)
    assert strip(first).encode() == strip(second).encode()
