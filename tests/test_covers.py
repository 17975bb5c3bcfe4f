"""Double-cover numerology: Hirzebruch arithmetic, branch constraint
families, the quadric-model pipeline, and the degree exclusions."""

import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trisect.covers import (
    BranchNumbers,
    FeClass,
    MixedSurfaceError,
    SurfaceInvariants,
    bicanonical_degree_options,
    branch_multiplicity_table,
    branch_relations,
    derive_branch_class,
    derive_image_classes,
    double_cover_invariants,
    exclusion_certificates,
    fe_canonical,
    fe_chi,
    fe_genus,
    fe_pair,
    solve_cover_constraints,
    verify_branch_table,
    verify_cover_constraints,
)


# ---------------------------------------------------------------------------
# Hirzebruch surfaces
# ---------------------------------------------------------------------------

def test_fe_pairing_basics():
    c0 = FeClass(2, 1, 0)
    fibre = FeClass(2, 0, 1)
    assert fe_pair(c0, c0) == -2
    assert fe_pair(c0, fibre) == 1
    assert fe_pair(fibre, fibre) == 0
    assert fe_pair(fe_canonical(2), fe_canonical(2)) == 8


def test_fe_mixed_surfaces_rejected():
    with pytest.raises(MixedSurfaceError):
        fe_pair(FeClass(1, 1, 0), FeClass(2, 1, 0))
    with pytest.raises(MixedSurfaceError):
        FeClass(0, 1, 1) + FeClass(2, 1, 1)


def test_fe_chi_and_genus():
    assert fe_chi(FeClass(2, 2, 6)) == 15
    assert fe_genus(FeClass(2, 2, 7)) == 4
    assert fe_genus(FeClass(2, 2, 5)) == 2
    assert fe_genus(FeClass(2, 0, 1)) == 0
    assert fe_genus(FeClass(2, 1, 0)) == 0


@given(st.integers(0, 4), st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
       st.tuples(st.integers(-8, 8), st.integers(-8, 8)))
def test_fe_pairing_symmetric(e, c1, c2):
    d1, d2 = FeClass(e, *c1), FeClass(e, *c2)
    assert fe_pair(d1, d2) == fe_pair(d2, d1)


@given(st.integers(0, 4), st.tuples(st.integers(-8, 8), st.integers(-8, 8)))
def test_fe_riemann_roch_consistency(e, c):
    """chi(D) + chi(-D) = 2 chi(O) + D.(D) ... specialised: genus and chi
    are linked by chi(D) = chi(O) + D^2 - (genus - 1) - D^2/... direct:
    chi(D) - 1 = D.(D-K)/2 and genus - 1 = D.(D+K)/2, so their sum is D^2."""
    d = FeClass(e, *c)
    dd = fe_pair(d, d)
    total = (fe_chi(d) - 1) + (fe_genus(d) - 1)
    assert total == dd


# ---------------------------------------------------------------------------
# Branch relations and constraint families
# ---------------------------------------------------------------------------

def test_branch_relations_worked_values():
    assert branch_relations(3, 0, 7) == BranchNumbers(-8, 6, -9, -18, 12)
    assert branch_relations(1, 0, 13) == BranchNumbers(-8, 2, -3, -6, 4)


def test_solver_families_and_rejections():
    families, rejected = solve_cover_constraints()
    assert [f.label for f in families] == ["a", "b"]
    fam_a, fam_b = families
    assert (fam_a.n, fam_a.t, fam_a.chi) == (3, 7, 1)
    assert (fam_b.n, fam_b.t, fam_b.chi) == (1, 13, 2)
    assert fam_a.ksq(0) == -6
    assert fam_b.ksq(0) == -1
    assert fam_a.ksq(4) == -10
    assert [r.n for r in rejected] == [0, 2, 4]
    assert all(r.chi.denominator == 2 for r in rejected)


def test_families_satisfy_unreduced_constraints():
    families, _ = solve_cover_constraints()
    for family in families:
        for h in range(0, 6):
            assert verify_cover_constraints(family, h)


def test_wrong_family_fails_constraints():
    families, _ = solve_cover_constraints()
    fam = families[0]
    bad = type(fam)(fam.label, fam.n, fam.t + 1, fam.chi, fam.ksq_base)
    assert not verify_cover_constraints(bad, 0)


def test_double_cover_invariants_unramified():
    base = SurfaceInvariants(3, 1, 1, 1)
    assert double_cover_invariants(base, 3, 0, 2) == SurfaceInvariants(6, 2, 3, 2)


def test_double_cover_parity_guard():
    with pytest.raises(ArithmeticError):
        double_cover_invariants(SurfaceInvariants(3, 1, 1, 1), 3, 1, 0)


# ---------------------------------------------------------------------------
# The quadric-model pipeline
# ---------------------------------------------------------------------------

def test_branch_class_pipeline():
    steps = dict(derive_branch_class())
    assert steps["h0(K + 2G)"] == 4
    assert steps["base points"] == 7
    assert steps["quadric model degree"] == 4
    assert steps["h0(K + 3G)"] == 6
    assert steps["sextic model degree"] == 8
    assert steps["branch class"] == FeClass(2, 6, 22)
    assert steps["positive branch part"] == FeClass(2, 6, 15)
    assert steps["branch component"] == FeClass(2, 2, 5)
    assert steps["component arithmetic genus"] == 2
    assert steps["section branch points"] == 10
    assert steps["canonical curve genus"] == 4


def test_branch_table_consistency():
    rows = branch_multiplicity_table()
    assert len(rows) == 3 and all(len(r) == 8 for r in rows)
    checks = verify_branch_table()
    assert all(checks.values()), checks


def test_malformed_branch_table_label_raises_under_optimize(tmp_path):
    # a copy of the package whose branch table has a mislabelled row; the
    # label check must survive python -O, which strips asserts
    package = Path(__file__).resolve().parents[1] / "src" / "trisect"
    copy = tmp_path / "trisect"
    shutil.copytree(package, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    table = copy / "fixtures" / "branch_table.txt"
    text = table.read_text(encoding="utf-8")
    table.write_text(text.replace("branch row B1", "branch col B1"),
                     encoding="utf-8")
    probe = ("from trisect.covers import branch_multiplicity_table\n"
             "branch_multiplicity_table()\n")
    result = subprocess.run([sys.executable, "-O", "-c", probe],
                            capture_output=True, text=True, timeout=120,
                            env=dict(os.environ, PYTHONPATH=str(tmp_path)))
    assert result.returncode != 0
    assert "ValueError" in result.stderr
    assert "branch col B1" in result.stderr


def test_image_classes():
    steps = dict(derive_image_classes())
    assert steps["albanese image"] == FeClass(2, 4, 12)
    assert steps["albanese multiplicities"] == {"x": 2, "m": 1, "n": 3}
    assert steps["bicanonical image"] == FeClass(2, 2, 7)
    assert steps["hyperplane section genus"] == 4
    assert steps["bicanonical image degree"] == 6
    assert steps["multiple-line class sections"] == 15


def test_albanese_image_meets_components_only_at_base_points():
    """The moving albanese image and each branch component intersect only at
    the fourteen blown-up points (their preimages upstairs are disjoint, one
    lying in fibres the other fixed).  So the full intersection degree on
    the Hirzebruch surface must equal the sum over those points of the
    products of the two multiplicity tables."""
    image_steps = dict(derive_image_classes())
    branch_steps = dict(derive_branch_class())
    alb = image_steps["albanese image"]
    alb_mult = image_steps["albanese multiplicities"]
    comp = branch_steps["branch component"]
    for row in branch_multiplicity_table():
        x_part = alb_mult["x"] * sum(row[:6])
        m_part = alb_mult["m"] * 4 * row[6]
        n_part = alb_mult["n"] * 4 * row[7]
        assert fe_pair(alb, comp) == x_part + m_part + n_part


# ---------------------------------------------------------------------------
# Degree options and exclusions
# ---------------------------------------------------------------------------

def test_degree_options():
    assert bicanonical_degree_options() == ((1, 12), (2, 6), (3, 4), (4, 3), (6, 2))


def test_exclusion_certificates():
    certs = exclusion_certificates()
    assert [c.pattern for c in certs] == [
        "d=4", "d=6 cone", "d=6 smooth quadric", "d=6 slope", "d=3"]
    by_pattern = {c.pattern: c for c in certs}

    deg4 = by_pattern["d=4"]
    assert deg4.conflict[0][1] == 3 and deg4.conflict[1][1] == 4
    assert dict(deg4.derived)["image degree"] == 3
    assert dict(deg4.derived)["residual multiple of K"] == -1

    cone = by_pattern["d=6 cone"]
    assert cone.conflict[0][1] == 5 and cone.conflict[1][1] == 4
    assert dict(cone.derived)["image degree"] == 2
    assert dict(cone.derived)["residual multiple of K"] == 1

    quadric = by_pattern["d=6 smooth quadric"]
    assert quadric.conflict[0][1] == 1 and quadric.conflict[1][1] == 0
    assert dict(quadric.derived)["K.L"] == 3

    slope = by_pattern["d=6 slope"]
    assert slope.conflict[0][1] == 2 and slope.conflict[1][1] == 1
    derived = dict(slope.derived)
    assert derived["cover K^2"] == 6 and derived["cover chi"] == 2
    assert derived["cover p_g"] == 3 and derived["cover Euler number"] == 18
    assert derived["slope"] == 3

    deg3 = by_pattern["d=3"]
    assert deg3.conflict[0][1] == 1 and deg3.conflict[1][1] == 0
    assert dict(deg3.derived)[
        "K.Theta for a line not in the branch locus"] == Fraction(3, 2)


def test_every_nontrivial_degree_has_a_certificate():
    """Each candidate degree above 1 is covered: 2 is handled by the
    constraint families (both force a reducible distinguished curve), and
    3, 4, 6 each carry explicit certificates."""
    certs = exclusion_certificates()
    covered = {c.pattern.split()[0] for c in certs}
    options = {f"d={d}" for d, _ in bicanonical_degree_options() if d > 2}
    assert options <= covered
    families, _ = solve_cover_constraints()
    assert len(families) == 2
