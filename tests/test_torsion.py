import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisect.checks import build_checks, run_verify
from trisect.report import run_checks
from trisect.torsion import (CLASS_REPS, CURVE1, DEFAULT_LEVEL, ETA,
                             ORIGIN, THREE_TORSION, XI, AffineMap,
                             InsufficientLevelError, Locus, TorsionPt, Triple,
                             check_level, common_fibre_classes,
                             contains_locus, curve_locus, curve_triples,
                             enumerate_base_points, expected_base_points,
                             fibre_intersection_rule, intersect_loci,
                             intersection_term, locus_A, locus_D, locus_F,
                             locus_Gamma, locus_N, locus_Y, locus_line, member,
                             printed_intersection_table, solve_linear)

from helpers import (build_intersection_table, curve_triples_oracle, grid,
                     locus_B, locus_M, member_oracle, triple_level)


# --- the torsion group ------------------------------------------------------

def test_canonical_level():
    assert TorsionPt.make(6, 2, 4) == TorsionPt.make(3, 1, 2)
    assert TorsionPt.make(24, 0, 8) == ETA[1]
    assert TorsionPt.make(24, 0, 0) == ORIGIN
    assert TorsionPt.make(5, 10, 5) == ORIGIN
    assert ETA[1].order == 3 and XI[2].order == 2 and ORIGIN.order == 1


def test_group_laws_across_levels():
    p = TorsionPt.make(4, 1, 0)
    q = TorsionPt.make(6, 0, 1)
    assert p + q == TorsionPt.make(12, 3, 2)
    assert p - p == ORIGIN
    assert 3 * ETA[2] == ORIGIN
    assert 2 * ETA[1] == -ETA[1]
    assert (p + q) - q == p


def test_coords_at():
    assert ETA[1].coords_at(24) == (0, 8)
    with pytest.raises(InsufficientLevelError):
        ETA[1].coords_at(4)


def test_triple_is_unordered_and_level_free():
    t1 = Triple.of(ETA[1], ORIGIN, 2 * ETA[1])
    t2 = Triple.of(TorsionPt.make(24, 0, 16), TorsionPt.make(6, 0, 2), ORIGIN)
    assert t1 == t2
    assert t1.total == ORIGIN
    assert triple_level(t1) == 3


def test_check_level():
    assert check_level(6) == 6
    for bad in (0, 4, 9, -6):
        with pytest.raises(InsufficientLevelError):
            check_level(bad)


# --- solve_linear -----------------------------------------------------------

def _coset_oracle(a: int, t: TorsionPt) -> frozenset:
    """Independent description of the solution set of a*x = t, a > 0: one
    explicit solution plus the full a-torsion."""
    x0 = TorsionPt.make(a * t.level, t.a, t.b)
    return frozenset(x0 + e for e in grid(a))


def test_solve_linear_matches_coset_oracle():
    for a in (1, 2, 3, 4):
        for t in (ORIGIN, ETA[1], XI[3], TorsionPt.make(6, 1, 5)):
            m = a * t.order
            while m % 6:
                m *= 2 if m % 2 else 3
            sols = solve_linear(a, t, m)
            assert sols == _coset_oracle(a, t)
            assert sols == frozenset(x for x in grid(m) if a * x == t)
            assert len(sols) == a * a


def test_solve_linear_examples():
    assert len(solve_linear(3, ETA[1], 36)) == 9
    sols = solve_linear(3, ETA[1], 36)
    assert all(3 * x == ETA[1] for x in sols)
    assert all(x.order == 9 for x in sols)
    assert len(solve_linear(2, XI[1], 24)) == 4
    assert len(solve_linear(1, ETA[4], 6)) == 1


def test_solve_linear_insufficient_level():
    # solutions of 3x = eta live in E[9]; E[12] holds none of them
    with pytest.raises(InsufficientLevelError):
        solve_linear(3, ETA[1], 12)
    with pytest.raises(InsufficientLevelError):
        solve_linear(2, TorsionPt.make(24, 1, 0), 24)


def test_solve_linear_degenerate():
    # a = 0 is no linear condition on x: the solver needs a != 0
    for t in (ORIGIN, XI[1]):
        with pytest.raises(ValueError):
            solve_linear(0, t, 6)
    assert solve_linear(-1, ETA[1], 6) == frozenset((-ETA[1],))


def test_solve_linear_negative_matches_negated():
    assert solve_linear(-3, ETA[1], 36) == frozenset(
        -x for x in solve_linear(3, -(-ETA[1]), 36))


# --- loci, membership, enumeration ------------------------------------------

NAMED_CURVES = [locus_A(1), locus_A(2), locus_A(3), locus_N(ETA[1]),
                locus_N(ETA[4]), locus_M(2), locus_line(1), locus_line(3),
                locus_Gamma(), locus_B(1, 2), locus_B(3, 1)]

NAMED_SURFACES = [locus_D(ORIGIN), locus_D(XI[1]), locus_D(ETA[2]),
                  locus_F(ORIGIN), locus_F(XI[2]), locus_Y()]


def test_enumerated_triples_are_members():
    for locus in NAMED_CURVES:
        triples = curve_triples(locus, 12)
        assert triples
        assert all(member(locus, t) for t in triples)


def test_membership_rejects_outsiders():
    far = Triple.of(TorsionPt.make(12, 1, 0), TorsionPt.make(12, 0, 1),
                    TorsionPt.make(12, 5, 7))
    assert not member(locus_A(1), far)
    assert not member(locus_N(ETA[1]), far)
    assert not member(locus_F(ORIGIN), far)  # sum is (1/2, 2/3) != 0


def test_surface_membership_closed_forms():
    t = Triple.of(XI[1], ETA[2], XI[1] + ETA[2])
    assert member(locus_D(XI[1]), t)
    assert not member(locus_D(XI[2]), t)
    assert member(locus_F(2 * XI[1] + 2 * ETA[2]), t)
    assert member(locus_Y(), t)
    assert not member(locus_Y(), Triple.of(XI[1], XI[2], ETA[1]))


def test_intersect_loci_dual_route():
    # the curve's enumerated triples that lie on the surface must be exactly
    # the triples of E[6]^3, found by brute force, that lie on both
    brute = {Triple.of(p, q, r) for p, q, r in product(grid(6), repeat=3)}
    for surface in (locus_D(XI[1]), locus_F(ORIGIN), locus_Y()):
        on_surface = [t for t in brute if member(surface, t)]
        for curve in (locus_N(ETA[1]), locus_A(2), locus_Gamma()):
            fast = intersect_loci(curve, surface, 6)
            slow = frozenset(t for t in on_surface if member(curve, t))
            assert fast == slow
            assert intersect_loci(surface, curve, 6) == fast


def _enumerated(curve, surface, m):
    """The second route: every triple of the curve in E[m]^3, by brute
    force, tested for membership of the surface."""
    return frozenset(t for t in curve_triples_oracle(curve, m)
                     if member(surface, t))


# multipliers -3..3, zero included; the lcm of the nonzero ones sets the
# size of the enumeration, so level 48 takes only the cheap ones
COSET_ROUTE_MULTS = {
    6: [(1, -1, 0), (2, -3, 1), (3, 0, -2), (-1, -1, 2), (0, 0, 0),
        (3, 3, -3), (-2, 1, 1), (2, 2, 0), (0, -3, 0), (1, 1, 1)],
    12: [(1, -1, 0), (2, -3, 1), (-3, 0, 2), (-2, 1, 1), (0, 0, 0)],
    24: [(1, 2, -1), (0, 3, -3), (-1, 0, 0)],
    48: [(1, -1, 0), (2, 0, -2), (1, 1, -2)],
}


def _coset_route_cases():
    """(curve, surface, level): seeded curves against D, F and Y with free
    anchors and anchors on the curve, then named curves inside a surface."""
    rng = random.Random(4)
    sixth = list(grid(6))
    for m, mult_list in COSET_ROUTE_MULTS.items():
        points = list(grid(12 if m % 12 == 0 else 6))
        for mults in mult_list:
            for _ in range(2):
                shifts = [rng.choice(sixth) for _ in mults]
                curve = curve_locus(f"c{mults}", zip(shifts, mults))
                x = rng.choice(points)
                images = [s + k * x for s, k in zip(shifts, mults)]
                for surface in (locus_Y(), locus_D(rng.choice(points)),
                                locus_F(rng.choice(points)),
                                locus_D(rng.choice(images)),
                                locus_F(images[0] + images[1] + images[2]),
                                locus_D(shifts[0]),
                                locus_F(shifts[0] + shifts[1] + shifts[2])):
                    yield curve, surface, m
    constant = curve_locus("const", ((XI[1], 0), (ETA[2], 0), (ORIGIN, 0)))
    for m in (6, 12, 24):
        for i in (1, 2, 3):
            yield locus_A(i), locus_F(XI[i]), m
            yield locus_A(i), locus_D(XI[i]), m
            yield locus_line(i), locus_Y(), m
        yield constant, locus_D(ETA[2]), m
        yield constant, locus_D(ETA[1]), m


def test_coset_route_matches_enumeration(monkeypatch):
    enumerated = []
    monkeypatch.setattr("trisect.torsion.curve_triples",
                        lambda curve, m: enumerated.append(curve)
                        or curve_triples(curve, m))
    whole_curves = cases = 0
    for curve, surface, m in _coset_route_cases():
        enumerated.clear()
        fast = intersect_loci(curve, surface, m)
        assert fast == _enumerated(curve, surface, m), (curve.maps, surface, m)
        assert intersect_loci(surface, curve, m) == fast
        # the enumeration is reached only for a curve inside the surface
        assert bool(enumerated) == contains_locus(surface, curve)
        whole_curves += bool(enumerated)
        cases += 1
    assert 0 < whole_curves < cases


@pytest.fixture
def make_calls(monkeypatch):
    """The level of each `TorsionPt.make` call the test makes."""
    make = TorsionPt.make
    calls = []

    def counted(level, a, b):
        calls.append(level)
        return make(level, a, b)
    monkeypatch.setattr(TorsionPt, "make", staticmethod(counted))
    return calls


def test_coset_route_work_is_independent_of_level(make_calls):
    counts = []
    for m in (24, 768):
        make_calls.clear()
        got = intersect_loci(locus_N(ETA[1]), locus_D(ORIGIN), m)
        assert got == frozenset((Triple.of(ORIGIN, ETA[1], 2 * ETA[1]),))
        counts.append(len(make_calls))
    assert counts[0] == counts[1]


# multipliers -3..3: a unit, no unit ({2, 3, -2}, {2, -2, 0}, {3, 0, 0}) or
# all zero; the oracles walk E[lcm*m], so the lcm falls as the level rises
# and level 48 takes curves with a unit multiplier only
DIFFERENTIAL_MULTS = {
    6: [(2, 3, -2), (2, -2, 0), (3, 0, 0), (0, 0, 0), (1, -3, 2), (-1, 1, 1)],
    12: [(2, 3, -2), (2, -2, 0), (3, 0, 0), (0, 0, 0), (-1, 2, 0), (1, 1, 1)],
    24: [(2, -2, 0), (3, 0, 0), (0, 0, 0), (1, -1, 2)],
    48: [(1, -1, 0), (-1, 1, 1)],
}


def test_enumeration_and_membership_match_brute_force():
    rng = random.Random(7)
    sixth = list(grid(6))
    verdicts = set()
    for m, mult_list in DIFFERENTIAL_MULTS.items():
        for mults in mult_list:
            curve = curve_locus(f"d{mults}",
                                [(rng.choice(sixth), k) for k in mults])
            triples = curve_triples(curve, m)
            assert triples == curve_triples_oracle(curve, m), (mults, m)
            # members, a member with one point moved, and free triples
            candidates = rng.sample(sorted(triples), min(2, len(triples)))
            p, q, r = candidates[0].points
            candidates.append(Triple.of(p, q, r + rng.choice(THREE_TORSION)))
            candidates += [Triple.of(*rng.sample(sixth, 3)) for _ in range(2)]
            for t in candidates:
                got = member(curve, t)
                assert got == member_oracle(curve, t), (mults, t)
                verdicts.add(got)
    assert verdicts == {True, False}


def test_enumeration_work_is_independent_of_multipliers(make_calls):
    counts = []
    for mults in ((2, 3, 0), (1, -1, 0)):
        curve = curve_locus(f"w{mults}", zip((XI[1], ETA[1], ORIGIN), mults))
        make_calls.clear()
        curve_triples.__wrapped__(curve, 12)
        counts.append(len(make_calls))
    # one make per image of each of the 12^2 parameters
    assert counts == [432, 432]


def test_intersect_loci_needs_a_curve():
    with pytest.raises(ValueError):
        intersect_loci(locus_D(XI[1]), locus_F(ORIGIN), 6)
    # and a surface: two curves are rejected as two surfaces are
    with pytest.raises(ValueError):
        intersect_loci(locus_N(ETA[1]), locus_line(1), 6)


def test_intersect_loci_insufficient_level():
    bad = curve_locus("c4", ((TorsionPt.make(4, 1, 0), 0),
                             (ORIGIN, 1), (ORIGIN, -1)))
    with pytest.raises(InsufficientLevelError):
        intersect_loci(bad, locus_D(ORIGIN), 6)
    with pytest.raises(InsufficientLevelError):
        intersect_loci(locus_N(ETA[1]), locus_D(ORIGIN), 7)


def test_contains_locus_symbolic():
    # translate curves sit inside the sum-divisor and the coordinate divisor
    for i in (1, 2, 3):
        assert contains_locus(locus_F(XI[i]), locus_A(i))
        assert contains_locus(locus_D(XI[i]), locus_A(i))
    assert not contains_locus(locus_F(ORIGIN), locus_A(1))
    # the diagonal divisor contains the two-torsion lines but not the fibres
    for i in (1, 2, 3):
        assert contains_locus(locus_Y(), locus_line(i))
    assert not contains_locus(locus_Y(), locus_N(ETA[1]))
    assert not contains_locus(locus_Y(), locus_M(1))
    assert not contains_locus(locus_Y(), locus_Gamma())
    # the N curves are trisections of the sum map, never inside a fibre
    for i in (1, 2, 3, 4):
        assert not contains_locus(locus_F(ORIGIN), locus_N(ETA[i]))
        assert not contains_locus(locus_D(ORIGIN), locus_N(ETA[i]))


def test_section_counts_against_divisors():
    # pairing numbers realised set-theoretically: N meets a coordinate
    # divisor once and a sum fibre three times; the two-torsion lines meet
    # them once and twice
    assert len(intersect_loci(locus_N(ETA[1]), locus_D(ORIGIN), 6)) == 1
    assert len(intersect_loci(locus_N(ETA[1]), locus_F(ORIGIN), 6)) == 3
    assert len(intersect_loci(locus_line(1), locus_D(ORIGIN), 6)) == 1
    assert len(intersect_loci(locus_line(1), locus_F(ORIGIN), 6)) == 2


def test_contains_locus_agrees_with_enumeration():
    for surface in NAMED_SURFACES:
        for curve in NAMED_CURVES:
            claimed = contains_locus(surface, curve)
            enumerated = all(member(surface, t)
                             for t in curve_triples_oracle(curve, 12))
            assert claimed == enumerated, (surface, curve)


def test_fibre_meets_coordinate_divisor_once():
    # each fibre class meets each divisor D_u in exactly one triple
    for rep in CLASS_REPS:
        for u in grid(6):
            assert len(intersect_loci(locus_N(rep), locus_D(u), 6)) == 1


# --- the intersection table and the base point enumeration ------------------

def test_rule_worked_example():
    got = fibre_intersection_rule(ETA[1], ETA[2])
    assert got == ((ETA[3], 1), (ETA[4], 2))
    got = fibre_intersection_rule(ETA[1], 2 * ETA[1])
    assert got == ((ETA[2], 1), (ETA[3], 1), (ETA[4], 1))


def test_table_matches_printed_fixture():
    computed = build_intersection_table()
    printed = printed_intersection_table()
    assert len(computed) == len(printed) == 28
    assert computed == printed


def test_common_fibre_classes():
    assert common_fibre_classes(()) == CLASS_REPS
    assert common_fibre_classes((ETA[1], 2 * ETA[1])) == (ETA[2], ETA[3], ETA[4])
    assert common_fibre_classes(THREE_TORSION) == ()


def test_worked_intersection_term():
    xs = (ETA[1], 2 * ETA[1], ETA[2], 2 * ETA[2], ETA[3], 2 * ETA[3])
    ds = (ETA[4], 2 * ETA[4])
    got = intersection_term(xs, ds, DEFAULT_LEVEL)
    assert got == frozenset((Triple.of(ORIGIN, ETA[4], 2 * ETA[4]),))


def test_base_point_enumeration():
    report = enumerate_base_points(DEFAULT_LEVEL)
    assert len(report.terms) == 256
    assert report.base_points == expected_base_points()
    assert len(report.base_points) == 4
    # the only surviving terms drop exactly one +/- pair of fibrations
    assert len(report.nonempty_terms) == 4
    for term in report.nonempty_terms:
        assert len(term.xs) == 6 and len(term.ds) == 2
        assert set(term.ds) == {term.ds[0], 2 * term.ds[0]}
    # every term with three divisor constraints dies
    assert len(report.candidate_b_terms) == 56
    assert all(not term.triples for term in report.candidate_b_terms)


SWEEP_LEVELS = (6, 12, 18, 24, 30, 36, 48, 96, 192, 384, 768)


def test_base_points_are_level_stable():
    at_6 = enumerate_base_points(6).base_points
    for level in SWEEP_LEVELS:
        assert enumerate_base_points(level).base_points == at_6, level


def test_torsion_suite_across_working_levels():
    # no FAIL or ERROR at any level; the fixture checks need 24-torsion and
    # SKIP below it
    for level in SWEEP_LEVELS:
        passed, skipped = (14, 32) if level < 24 else (46, 0)
        assert run_verify(("torsion",), level).summary == {
            "pass": passed, "fail": 0, "skip": skipped, "error": 0}, level


def test_each_base_point_row_runs_its_own_enumeration(monkeypatch):
    # rows run in reverse order, so none can find a sibling's work cached;
    # the stability row enumerates at the working level and at twice it
    levels = []

    def counted(m):
        levels.append(m)
        return enumerate_base_points(m)
    monkeypatch.setattr("trisect.checks.enumerate_base_points", counted)
    rows = [c for c in build_checks(("torsion",))
            if c.paper_ref == "base-point-set"]
    assert len(rows) == 4
    for check in reversed(rows):
        before = len(levels)
        (result,) = run_checks([check], 24).results
        assert result.status == "PASS"
        assert levels[before:] == (
            [24, 48] if check.check_id == "level-stability" else [24])


def test_boundary_row_reports_a_three_anchor_hit(monkeypatch):
    # a wrong value: every fibre curve accepts the candidate triple of its
    # three boundary anchors.  Of the 56 three-anchor terms, those whose five
    # fibrations share a fibre class then keep one triple each, and the row
    # fails with the count it saw
    met = sum(1 for xs in combinations(THREE_TORSION, 5)
              if common_fibre_classes(xs))
    assert met == 24

    def accepting(locus, triple):
        return locus.kind == CURVE1 or member(locus, triple)
    monkeypatch.setattr("trisect.torsion.member", accepting)
    (check,) = [c for c in build_checks(("torsion",))
                if c.check_id == "boundary-terms-empty"]
    (result,) = run_checks([check], 24).results
    assert result.status == "FAIL"
    assert (result.expected, result.actual) == ((56, 0), (56, met))


# --- property tests ----------------------------------------------------------

small_pts = st.builds(TorsionPt.make,
                      st.sampled_from([2, 3, 4, 6, 12]),
                      st.integers(0, 11), st.integers(0, 11))


@given(small_pts, small_pts)
@settings(max_examples=60)
def test_addition_is_commutative_and_cancels(p, q):
    assert p + q == q + p
    assert (p + q) - q == p
    assert p - p == ORIGIN


@given(small_pts)
@settings(max_examples=60)
def test_order_times_point_vanishes(p):
    assert p.order * p == ORIGIN
    if p.order > 1:
        assert (p.order - 1) * p != ORIGIN


@given(small_pts, small_pts, small_pts)
@settings(max_examples=60)
def test_triple_membership_is_representation_free(p, q, r):
    t = Triple.of(p, q, r)
    assert member(locus_D(p), t)
    assert member(locus_F(p + q + r), t)
    assert member(locus_Y(), Triple.of(p + q, p, q))
