"""Check registry behind the `verify` command.

Each suite is one table of rows `(check_id, paper_ref, expected, actual[,
min_level])` pinning a library computation against an independently stated
expectation: a transcribed fixture, a worked value, or a second computation
route.  `actual` is called with the working torsion level; `expected` is a
plain value, or a callable of the level where it reads a fixture or runs a
second computation, so building the checks loads no fixture and runs no
library computation.  No row reads a record cached by another, so a row's
time is the cost of what it compares; `run_verify` parses the heisenberg
fixtures before the rows are timed.  The `paper_ref` field carries the
claim-catalog id documented in the README; the `check_id` names the
individual instance.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from itertools import combinations

from .covers import (FeClass, SurfaceInvariants, bicanonical_degree_options,
                     branch_multiplicity_table, branch_relations,
                     derive_branch_class, derive_image_classes,
                     double_cover_invariants, exclusion_certificates, fe_chi,
                     fe_genus, fe_pair, solve_cover_constraints,
                     verify_branch_table, verify_cover_constraints)
from .curves import fulton_mult, linear_form, parse_form, ProjPoint
from .field import Eis, W, parse_eis
from .heisenberg import (CHARACTERS, NONZERO_CHARS, TRIANGLE_CLASSES,
                         contains_vertices, decompose_degree3,
                         expected_pair_pattern, printed_eigencubics,
                         triangles, verify_pencil_pairs,
                         verify_vertex_containment)
from .report import SUITES, Check, run_checks
from .rings import (E3_BOUNDARY, E3_CANONICAL, FIBRE_CLASS_CURVE,
                    TWO_TORSION_LINE, albanese_degrees, canonical_relations,
                    certificate_double_component,
                    certificate_triple_component, chi_e2,
                    chi_symmetric_power, cohomology_case,
                    derive_albanese_genus2_pairing, enumerate_splittings,
                    format_e2_class, genus_e2, gram_matrix, lattice_rank,
                    noether_invariants, relation_residual,
                    splitting_image_classes, triple_product_e3)
from .torsion import (ETA, ORIGIN, THREE_TORSION, XI, Triple,
                      contains_locus, enumerate_base_points,
                      expected_base_points, fibre_intersection_rule,
                      intersect_loci, locus_A, locus_D, locus_F, locus_Gamma,
                      locus_N, locus_Y, locus_line, member,
                      printed_intersection_table, solve_linear)

__all__ = ["build_checks", "run_verify"]

# image of the canonical curve inside the second symmetric product, in the
# (section, fibre) basis
CANONICAL_IMAGE_E2 = (4, -1)


def _run(expected, actual, level):
    """Body of every check: the (expected, actual) pair at the level."""
    return (expected(level) if callable(expected) else expected), actual(level)


def _checks(suite: str, rows) -> list:
    """Turn the rows of one suite's table into checks."""
    return [Check(suite, check_id, paper_ref, partial(_run, expected, actual),
                  *min_level)
            for check_id, paper_ref, expected, actual, *min_level in rows]


def _certificate(cert) -> tuple:
    """The compared part of an obstruction certificate: its pattern, the two
    clashing values and the derived values."""
    return cert.pattern, (cert.conflict[0][1], cert.conflict[1][1]), cert.derived


def _step(steps, name: str, level):
    """Value of the named step of a derivation."""
    return dict(steps())[name]


# ---------------------------------------------------------------------------
# field
# ---------------------------------------------------------------------------

def _field_rows() -> tuple:
    x, y = Eis(2, -3), Eis(-1, 4)
    z = Eis(Fraction(-3, 2), 7)
    return (
        ("defining-relation", "eisenstein-arithmetic", "0",
         lambda _: str(W * W + W + Eis(1))),
        ("cube-of-generator", "eisenstein-arithmetic", "1",
         lambda _: str(W ** 3)),
        ("norm-multiplicative", "eisenstein-arithmetic", x.norm() * y.norm(),
         lambda _: (x * y).norm()),
        ("field-inverse", "eisenstein-arithmetic", "1",
         lambda _: str(z * z.inverse())),
        ("conjugation-ring-map", "eisenstein-arithmetic", x.conj() * y.conj(),
         lambda _: (x * y).conj()),
        ("parse-round-trip", "eisenstein-arithmetic", z,
         lambda _: parse_eis(str(z))),
    )


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def _curves_rows() -> tuple:
    x0 = linear_form(1, 0, 0)
    x1 = linear_form(0, 1, 0)
    x2 = linear_form(0, 0, 1)
    origin = ProjPoint(0, 0, 1)
    conic = parse_form("x0*x2 + (-1)*x1^2")
    conic2 = parse_form("x0*x2 + (-1)*x1^2 + x0^2")
    cusp = parse_form("x1^2*x2 + (-1)*x0^3")
    node = parse_form("x1^2*x2 + (-1)*x0^3 + (-1)*x0^2*x2")
    return (
        ("transversal-lines", "local-multiplicity", 1,
         lambda _: fulton_mult(x0, x1, origin)),
        ("tangent-conic", "local-multiplicity", 2,
         lambda _: fulton_mult(conic, x0, origin)),
        ("cusp-tangent", "local-multiplicity", 3,
         lambda _: fulton_mult(cusp, x1, origin)),
        ("node-branches", "local-multiplicity", 2,
         lambda _: fulton_mult(node, x1, origin)),
        ("total-contact-conics", "local-multiplicity", 4,
         lambda _: fulton_mult(conic, conic2, origin)),
        ("shared-component", "local-multiplicity", "INFINITE",
         lambda _: str(fulton_mult(x0 * x1, x0 * x2, ProjPoint(0, 1, 1)))),
    )


# ---------------------------------------------------------------------------
# heisenberg
# ---------------------------------------------------------------------------

def _cid(char) -> str:
    return f"{char[0]}{char[1]}"


def _containment_text(contained: bool, mults) -> str:
    if contained:
        return f"contained with local multiplicities {mults}"
    return "not contained"


def _vertex_expected(char, triangle, level) -> str:
    return _containment_text(contains_vertices(char, triangle), (3, 3, 3))


def _vertex_actual(char, triangle, level) -> str:
    mults = verify_vertex_containment(char, triangle)
    return _containment_text(0 not in mults, mults)


def _pattern_text(entries, total) -> str:
    parts = " + ".join(f"T{cls}*{mult}" for cls, mult in entries)
    return f"{parts} ; total {total}"


def _pair_expected(c1, c2, level) -> str:
    """The predicted pattern, and Bezout's bound for the printed cubics."""
    eigen = printed_eigencubics()
    return _pattern_text(sorted(expected_pair_pattern(c1, c2).items()),
                         eigen[c1][0].degree * eigen[c2][0].degree)


def _pair_actual(c1, c2, level) -> str:
    """The observed pattern: one entry per triangle met, a single
    multiplicity when the three vertices agree, and the finite total."""
    observed = []
    total = 0
    for cls, mults in sorted(verify_pencil_pairs(c1, c2)):
        finite = all(isinstance(m, int) for m in mults)
        if finite:
            total += sum(mults)
        if mults == (0, 0, 0):
            continue
        if finite and len(set(mults)) == 1:
            observed.append((cls, mults[0]))
        else:
            observed.append((cls, str(mults)))
    return _pattern_text(observed, total)


def _heisenberg_rows() -> list:
    rows = [(f"eigencubic-{_cid(char)}", "eigen-decomposition",
             partial(lambda c, _: printed_eigencubics()[c][0].monic(), char),
             partial(lambda c, _: decompose_degree3(c)[0], char))
            for char in NONZERO_CHARS]
    rows += [
        ("invariant-pencil", "eigen-decomposition",
         lambda _: sorted(str(f.monic()) for f in printed_eigencubics()[(0, 0)]),
         lambda _: sorted(str(f) for f in decompose_degree3((0, 0)))),
        ("character-dimensions", "eigen-decomposition", 10,
         lambda _: sum(len(decompose_degree3(c)) for c in CHARACTERS)),
    ]
    rows += [(f"vertex-{_cid(char)}-tri-{_cid(tri)}", "vertex-containment",
              partial(_vertex_expected, char, tri),
              partial(_vertex_actual, char, tri))
             for char in NONZERO_CHARS for tri in TRIANGLE_CLASSES]
    rows += [(f"pair-{_cid(c1)}-{_cid(c2)}", "pencil-pair-intersections",
              partial(_pair_expected, c1, c2), partial(_pair_actual, c1, c2))
             for c1, c2 in combinations(NONZERO_CHARS, 2)]
    return rows


# ---------------------------------------------------------------------------
# torsion
# ---------------------------------------------------------------------------

def _point_strings(triples) -> list:
    return sorted(str(t) for t in triples)


def _base_points(level) -> list:
    return _point_strings(enumerate_base_points(level).base_points)


def _boundary_terms(level) -> tuple:
    """The terms with three boundary factors, and the triples they keep."""
    terms = enumerate_base_points(level).candidate_b_terms
    return len(terms), sum(len(t.triples) for t in terms)


def _torsion_rows() -> list:
    sample = Triple.of(XI[1], ETA[2], XI[1] + ETA[2])
    rows = [
        ("solver-triple", "translation-solver", 9,
         lambda _: len(solve_linear(3, ETA[1], 36))),
        ("solver-double", "translation-solver", 4,
         lambda _: len(solve_linear(2, XI[1], 24))),
        ("surface-membership", "locus-membership", (True, False, True, True),
         lambda _: (member(locus_D(XI[1]), sample),
                    member(locus_D(XI[2]), sample),
                    member(locus_F(2 * XI[1] + 2 * ETA[2]), sample),
                    member(locus_Y(), sample))),
        ("contain-translate-sum", "locus-containment", True,
         lambda _: contains_locus(locus_F(XI[1]), locus_A(1))),
        ("contain-translate-coordinate", "locus-containment", True,
         lambda _: contains_locus(locus_D(XI[1]), locus_A(1))),
        ("contain-diagonal-line", "locus-containment", True,
         lambda _: contains_locus(locus_Y(), locus_line(1))),
        ("contain-diagonal-not-curve", "locus-containment", False,
         lambda _: contains_locus(locus_Y(), locus_Gamma())),
        ("contain-fibre-not-trisection", "locus-containment", False,
         lambda _: contains_locus(locus_F(ORIGIN), locus_N(ETA[1]))),
        ("count-trisection-coordinate", "section-counts", 1,
         lambda level: len(intersect_loci(locus_N(ETA[1]), locus_D(ORIGIN),
                                          level))),
        ("count-trisection-fibre", "section-counts", 3,
         lambda level: len(intersect_loci(locus_N(ETA[1]), locus_F(ORIGIN),
                                          level))),
        ("count-line-coordinate", "section-counts", 1,
         lambda level: len(intersect_loci(locus_line(1), locus_D(ORIGIN),
                                          level))),
        ("count-line-fibre", "section-counts", 2,
         lambda level: len(intersect_loci(locus_line(1), locus_F(ORIGIN),
                                          level))),
        # the two worked rule cells, stated directly
        ("rule-antipodal", "fibre-meeting-rule",
         tuple((rep, 1) for rep in (ETA[2], ETA[3], ETA[4])),
         lambda _: fibre_intersection_rule(ETA[1], -ETA[1])),
        ("rule-generic", "fibre-meeting-rule",
         tuple(sorted(((ETA[3], 1), (ETA[4], 2)))),
         lambda _: fibre_intersection_rule(ETA[1], ETA[2])),
    ]
    rows += [("table-{}{}x{}{}".format(*p.coords_at(3), *q.coords_at(3)),
              "fibre-table",
              partial(lambda cell, _: printed_intersection_table()[cell],
                      frozenset((p, q))),
              partial(lambda p, q, _: fibre_intersection_rule(p, q), p, q), 24)
             for i, p in enumerate(THREE_TORSION) for q in THREE_TORSION[i + 1:]]
    rows += [
        ("base-points", "base-point-set",
         lambda _: _point_strings(expected_base_points()), _base_points, 24),
        ("boundary-terms-empty", "base-point-set", (56, 0), _boundary_terms,
         24),
        ("surviving-terms", "base-point-set", 4,
         lambda level: len(enumerate_base_points(level).nonempty_terms), 24),
        ("level-stability", "base-point-set", _base_points,
         lambda level: _base_points(2 * level), 24),
    ]
    return rows


# ---------------------------------------------------------------------------
# ring
# ---------------------------------------------------------------------------

_SIGNATURE_EXPECTED = {
    "1a": (((2, -2), (1, -3)), ((0, 1, 4),), (1, 0)),
    "1b": (((2, 0), (1, -1)), ((0, 1, 2),), (2, 1)),
    "2a": (((1, -1), (1, -1), (1, -1)),
           ((0, 1, 1), (0, 2, 1), (1, 2, 1)), (1, 1, 1)),
    "2b": (((1, -1), (1, -1), (1, -3)),
           ((0, 1, 0), (0, 2, 2), (1, 2, 2)), (1, 1, 0)),
}

_ALBANESE_EXPECTED = {"1a": (4, 0), "1b": (3, 1),
                      "2a": (2, 1, 1), "2b": (0, 2, 2)}


def _splitting_signature(label, level) -> tuple:
    found = {s.label: s for s in enumerate_splittings()}[label]
    return found.components, found.pairwise, found.genera


def _class_sum(label, level) -> str:
    rows = splitting_image_classes()[label]
    return format_e2_class(tuple(sum(cls[i] for _, cls in rows) for i in (0, 1)))


def _genera_preserved(level) -> bool:
    by_label = {s.label: s for s in enumerate_splittings()}
    return all(sorted(genus_e2(cls) for _, cls in rows) ==
               sorted(by_label[label].genera)
               for label, rows in splitting_image_classes().items())


def _triple_component(level) -> tuple:
    pattern, conflict, derived = _certificate(certificate_triple_component())
    return pattern, conflict, derived[0][1]


def _ring_rows() -> list:
    d, f = (1, 0), (0, 1)
    rows = [
        ("triple-monomials", "triple-products", (1, 1, 0, 0),
         lambda _: (triple_product_e3(d, d, d), triple_product_e3(d, d, f),
                    triple_product_e3(d, f, f), triple_product_e3(f, f, f))),
        ("canonical-cube", "triple-products", 0,
         lambda _: triple_product_e3(E3_CANONICAL, E3_CANONICAL, E3_CANONICAL)),
        ("boundary-cube", "triple-products", 16,
         lambda _: triple_product_e3(E3_BOUNDARY, E3_BOUNDARY, E3_BOUNDARY)),
        ("chi-boundary", "twisted-euler", 5,
         lambda _: chi_symmetric_power(3, 4, -1)),
        ("chi-adjoint", "twisted-euler", 0,
         lambda _: chi_symmetric_power(3, 3, -1)),
        ("chi-square-boundary", "twisted-euler", 5,
         lambda _: chi_symmetric_power(2, 4, -1)),
        ("case-positive", "cohomology-split", "ONLY_H0",
         lambda _: cohomology_case(3, 4, -1).name),
        ("case-torsion", "cohomology-split", "TORSION_DEPENDENT",
         lambda _: cohomology_case(3, 3, -1).name),
        ("case-interior", "cohomology-split", "ALL_VANISH",
         lambda _: cohomology_case(3, -2, 0).name),
        ("case-deep", "cohomology-split", "ONLY_HN",
         lambda _: cohomology_case(3, -4, 1).name),
        ("fibre-curve-pairings", "curve-pairings", (0, 1),
         lambda _: (FIBRE_CLASS_CURVE.pair(E3_CANONICAL),
                    FIBRE_CLASS_CURVE.pair(E3_BOUNDARY))),
        ("torsion-line-pairings", "curve-pairings", (-1, 2),
         lambda _: (TWO_TORSION_LINE.pair(E3_CANONICAL),
                    TWO_TORSION_LINE.pair(E3_BOUNDARY))),
        ("canonical-model-numbers", "curve-pairings", (4, 5),
         lambda _: (genus_e2(CANONICAL_IMAGE_E2), chi_e2(CANONICAL_IMAGE_E2))),
        ("noether-main", "noether-formula", (1, 9, 9),
         lambda _: noether_invariants(1, 1, 3)),
        ("noether-plane", "noether-formula", (1, 12, 10),
         lambda _: noether_invariants(0, 0, 0)),
        ("noether-irregular", "noether-formula", (2, 18, 18),
         lambda _: noether_invariants(3, 2, 6)),
        ("splitting-labels", "canonical-splittings", ("1a", "1b", "2a", "2b"),
         lambda _: tuple(s.label for s in enumerate_splittings())),
    ]
    rows += [(f"splitting-{label}", "canonical-splittings", expected,
              partial(_splitting_signature, label))
             for label, expected in _SIGNATURE_EXPECTED.items()]
    rows += [
        ("splitting-window-stability", "canonical-splittings",
         lambda _: tuple(s.label for s in enumerate_splittings()),
         lambda _: tuple(s.label for s in enumerate_splittings(-24, 8))),
        ("exclusion-triple-component", "non-reduced-exclusions",
         ("3A", (3, 9), Fraction(1, 3)), _triple_component),
        ("exclusion-double-component", "non-reduced-exclusions",
         ("2A+B", (1, 2), (("K.A", 1), ("K.B", 1), ("A.A", -1), ("p_a(2A)", 0),
                           ("B.B", -1), ("p_a(B)", 1), ("A.B", 2))),
         lambda _: _certificate(certificate_double_component())),
    ]
    rows += [(f"albanese-{label}", "component-images", expected,
              partial(lambda label, _: albanese_degrees(label), label))
             for label, expected in _ALBANESE_EXPECTED.items()]
    rows += [(f"class-sum-{label}", "component-images",
              format_e2_class(CANONICAL_IMAGE_E2), partial(_class_sum, label))
             for label in ("1a", "1b", "2a", "2b")]
    rows.append(("genera-preserved", "component-images", True,
                 _genera_preserved))
    return rows


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

def _gram_spots(level) -> tuple:
    order9, rows9 = gram_matrix("gram9")
    order10, rows10 = gram_matrix("gram10")
    k, g = order9.index("K"), order9.index("G")
    gamma, g10 = order10.index("Gamma"), order10.index("G")
    return (rows9[k][k], rows9[k][g], rows9[g][g],
            rows10[gamma][gamma], rows10[gamma][g10])


def _lattice_rows() -> list:
    rows = [
        ("rank-extended", "lattice-ranks", 10,
         lambda _: lattice_rank(gram_matrix("gram10")[1])),
        ("rank-base", "lattice-ranks", 9,
         lambda _: lattice_rank(gram_matrix("gram9")[1])),
    ]
    # canonical_relations() states three relations
    rows += [(f"relation-{index + 1}", "divisor-relations", (0,) * 9,
              partial(lambda i, _: relation_residual(*canonical_relations()[i][1:]),
                      index))
             for index in range(3)]
    rows += [
        ("derived-pairing", "albanese-pairing", (4, (0, 0, 0)),
         lambda _: tuple(derive_albanese_genus2_pairing())),
        ("gram-spots", "lattice-ranks", (3, 2, 0, -2, 1), _gram_spots),
    ]
    return rows


# ---------------------------------------------------------------------------
# cover
# ---------------------------------------------------------------------------

def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")


_PIPELINE_EXPECTED = (
    ("fibre canonical degree", 2),
    ("h0(K + G)", 2),
    ("h0(K + 2G)", 4),
    ("base points", 7),
    ("quadric model degree", 4),
    ("h0(K + 3G)", 6),
    ("sextic model degree", 8),
    ("fibre branch degree", 6),
    ("contracted curves", 14),
    ("branch class", FeClass(2, 6, 22)),
    ("positive branch part", FeClass(2, 6, 15)),
    ("branch component", FeClass(2, 2, 5)),
    ("component arithmetic genus", 2),
    ("section branch points", 10),
    ("canonical curve genus", 4),
)

_BRANCH_TABLE_EXPECTED = {"column sums are 3": True,
                          "fibre degrees are 2": True,
                          "double points give genus 0": True,
                          "pairing vectors agree": True}

_IMAGE_EXPECTED = (
    ("albanese image", FeClass(2, 4, 12)),
    ("albanese multiplicities", {"x": 2, "m": 1, "n": 3}),
    ("bicanonical image", FeClass(2, 2, 7)),
    ("hyperplane section genus", 4),
    ("bicanonical image degree", 6),
    ("multiple-line class sections", 15),
)


def _albanese_meeting(level) -> tuple:
    albanese = FeClass(2, 4, 12)
    component = FeClass(2, 2, 5)
    mults = {"x": 2, "m": 1, "n": 3}
    sums = tuple(mults["x"] * sum(row[:6]) + mults["m"] * 4 * row[6]
                 + mults["n"] * 4 * row[7] for row in branch_multiplicity_table())
    return fe_pair(albanese, component), sums


def _family_constraints(index, level) -> bool:
    family = solve_cover_constraints()[0][index]
    return all(verify_cover_constraints(family, h) for h in range(6))


def _cover_rows() -> list:
    rows = [
        ("branch-numbers-main", "branch-numerology",
         (Fraction(-8), 6, -9, -18, 12),
         lambda _: tuple(branch_relations(3, 0, 7))),
        ("branch-numbers-alternate", "branch-numerology",
         (Fraction(-8), 2, -3, -6, 4),
         lambda _: tuple(branch_relations(1, 0, 13))),
        ("quotient-families", "quotient-families",
         (("a", 3, 7, 1, -6), ("b", 1, 13, 2, -1)),
         lambda _: tuple((f.label, f.n, f.t, f.chi, f.ksq_base)
                         for f in solve_cover_constraints()[0])),
        ("rejected-branch-counts", "quotient-families",
         ((0, Fraction(5, 2)), (2, Fraction(3, 2)), (4, Fraction(1, 2))),
         lambda _: tuple(tuple(r) for r in solve_cover_constraints()[1])),
        ("etale-double-cover", "double-cover-invariants", (6, 2, 3, 2),
         lambda _: tuple(double_cover_invariants(
             SurfaceInvariants(3, 1, 1, 1), 3, 0, 2))),
        ("ruled-surface-sections", "branch-pipeline", 15,
         lambda _: fe_chi(FeClass(2, 2, 6))),
        ("ruled-surface-genera", "branch-pipeline", (4, 2),
         lambda _: (fe_genus(FeClass(2, 2, 7)), fe_genus(FeClass(2, 2, 5)))),
    ]
    rows += [(f"constraints-family-{label}", "quotient-families", True,
              partial(_family_constraints, index))
             for index, label in enumerate(("a", "b"))]
    rows += [(f"pipeline-{_slug(name)}", "branch-pipeline", expected,
              partial(_step, derive_branch_class, name))
             for name, expected in _PIPELINE_EXPECTED]
    rows.append(("branch-table", "branch-table", _BRANCH_TABLE_EXPECTED,
                 lambda _: verify_branch_table()))
    rows += [(f"image-{_slug(name)}", "image-classes", expected,
              partial(_step, derive_image_classes, name))
             for name, expected in _IMAGE_EXPECTED]
    rows.append(("albanese-component-meeting", "image-classes",
                 (28, (28, 28, 28)), _albanese_meeting))
    return rows


# ---------------------------------------------------------------------------
# exclusion
# ---------------------------------------------------------------------------

_EXCLUSION_EXPECTED = (
    ("exclude-degree4", "d=4", (3, 4),
     (("image degree", 3),
      ("image canonical multiple of the hyperplane", -1),
      ("hyperplane pullback multiple of K", 2),
      ("residual multiple of K", -1))),
    ("exclude-degree6-cone", "d=6 cone", (5, 4),
     (("image degree", 2),
      ("image canonical multiple of the hyperplane", -2),
      ("hyperplane pullback multiple of K", 2),
      ("residual multiple of K", 1))),
    ("exclude-degree6-quadric", "d=6 smooth quadric", (1, 0),
     (("K.L", 3), ("L.L", 0))),
    ("exclude-degree6-slope", "d=6 slope", (2, 1),
     (("cover K^2", 6), ("cover chi", 2), ("cover p_g", 3),
      ("cover Euler number", 18), ("slope", Fraction(3)))),
    ("exclude-degree3", "d=3", (1, 0),
     (("K.Theta for a line not in the branch locus", Fraction(3, 2)),)),
)


def _exclusion_rows() -> list:
    rows = [("degree-options", "degree-exclusions",
             ((1, 12), (2, 6), (3, 4), (4, 3), (6, 2)),
             lambda _: bicanonical_degree_options())]
    rows += [(check_id, "degree-exclusions", (pattern, conflict, derived),
              partial(lambda i, _: _certificate(exclusion_certificates()[i]),
                      index))
             for index, (check_id, pattern, conflict, derived)
             in enumerate(_EXCLUSION_EXPECTED)]
    return rows


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

_ROWS = {
    "field": _field_rows,
    "curves": _curves_rows,
    "heisenberg": _heisenberg_rows,
    "torsion": _torsion_rows,
    "ring": _ring_rows,
    "lattice": _lattice_rows,
    "cover": _cover_rows,
    "exclusion": _exclusion_rows,
}


def build_checks(suites) -> tuple:
    """All checks of the requested suites, in canonical suite order.  The
    name "all" expands to every suite."""
    wanted = set(suites)
    if "all" in wanted:
        wanted = set(SUITES)
    unknown = wanted - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    out = []
    for suite in SUITES:
        if suite in wanted:
            out.extend(_checks(suite, _ROWS[suite]()))
    return tuple(out)


def run_verify(suites, torsion_level: int):
    """Build and run the requested suites at the given working level."""
    checks = build_checks(suites)
    if any(check.suite == "heisenberg" for check in checks):
        # parsed here, or the first row to read a fixture carries the parse
        triangles(), printed_eigencubics()
    return run_checks(checks, torsion_level)
