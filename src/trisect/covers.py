"""Double-cover numerology: involution quotients, branch-curve classes on
Hirzebruch surfaces, and the arithmetic that pins down or excludes each
candidate bicanonical degree.

The staging ground is a smooth surface with p_g = q = 1, K^2 = 3 whose
bicanonical map is composed with an involution.  Quotienting and resolving
produces a double cover of a smooth surface branched along a configuration
of rational curves; everything here manipulates the exact integer relations
that configuration must satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .fixtures import load_entries
from .rings import (
    FIBRE_CLASS_CURVE,
    ObstructionCertificate,
    RankTwoSurface,
    certify,
    gram_matrix,
    noether_invariants,
    pairing_vector,
)

KSQ = 3          # canonical self-intersection of the covered surface
CHI = 1          # its holomorphic Euler characteristic
BICANONICAL_SQ = 4 * KSQ   # (2K)^2 = 12


# ---------------------------------------------------------------------------
# Hirzebruch surfaces
# ---------------------------------------------------------------------------

class MixedSurfaceError(ValueError):
    """Raised when classes on Hirzebruch surfaces of different index meet."""


# a dataclass: report rows render it through str(), where a tuple renders as
# a list, and `fe * 3` must not repeat a tuple
@dataclass(frozen=True)
class FeClass:
    """Divisor class c0*C0 + l*L on the Hirzebruch surface of index e, where
    C0 is the section with C0^2 = -e and L a fibre."""

    e: int
    c0: int
    l: int

    def __add__(self, other: "FeClass") -> "FeClass":
        _same_surface(self, other)
        return FeClass(self.e, self.c0 + other.c0, self.l + other.l)

    def __sub__(self, other: "FeClass") -> "FeClass":
        _same_surface(self, other)
        return FeClass(self.e, self.c0 - other.c0, self.l - other.l)

    def __rmul__(self, scalar: int) -> "FeClass":
        return FeClass(self.e, scalar * self.c0, scalar * self.l)

    def __str__(self) -> str:
        return f"{self.c0}*C0 + {self.l}*L on F{self.e}"


def _same_surface(d1: FeClass, d2: FeClass) -> None:
    if d1.e != d2.e:
        raise MixedSurfaceError(f"classes live on F{d1.e} and F{d2.e}")


def hirzebruch(e: int) -> RankTwoSurface:
    """The Hirzebruch surface of index e on C0 and L: C0^2 = -e, C0.L = 1,
    L^2 = 0, K = -2 C0 - (e + 2) L, and chi(O) = 1 as on every rational
    surface."""
    return RankTwoSurface(((-e, 1), (1, 0)), (-2, -(e + 2)), 1)


def fe_pair(d1: FeClass, d2: FeClass) -> int:
    _same_surface(d1, d2)
    return hirzebruch(d1.e).pair((d1.c0, d1.l), (d2.c0, d2.l))


def fe_canonical(e: int) -> FeClass:
    return FeClass(e, *hirzebruch(e).canonical)


def fe_chi(d: FeClass) -> int:
    """Euler characteristic of O(d)."""
    return hirzebruch(d.e).chi((d.c0, d.l))


def fe_genus(d: FeClass) -> int:
    """Arithmetic genus of a curve in the class d."""
    return hirzebruch(d.e).genus((d.c0, d.l))


# ---------------------------------------------------------------------------
# Generic double-cover invariants
# ---------------------------------------------------------------------------

class SurfaceInvariants(NamedTuple):
    ksq: int
    chi: int
    pg: int
    q: int


def double_cover_invariants(base: SurfaceInvariants, kl_sq: int,
                            l_dot: int, h0: int) -> SurfaceInvariants:
    """Invariants of a double cover from the base surface: kl_sq is the
    self-intersection of (canonical + half-branch), l_dot the pairing of the
    half-branch class against that sum, h0 the sections it gains."""
    ksq = 2 * kl_sq
    chi2 = Fraction(2 * base.chi) + Fraction(l_dot, 2)
    if chi2.denominator != 1:
        raise ArithmeticError("half-branch pairing must be even")
    chi = int(chi2)
    pg = base.pg + h0
    q = 1 - chi + pg
    return SurfaceInvariants(ksq, chi, pg, q)


# ---------------------------------------------------------------------------
# Branch configurations of the bicanonical involution
# ---------------------------------------------------------------------------

class BranchNumbers(NamedTuple):
    """Intersection numbers of the half-branch class L and the positive part
    B' of the branch curve, for a configuration with n components of the
    K-degree-4 kind, h of the K-degree-2 kind, and t isolated fixed points."""

    l_sq: Fraction
    k_dot_l: int
    l_dot_bpos: int
    bpos_sq: int
    k_dot_bpos: int


def branch_relations(n: int, h: int, t: int) -> BranchNumbers:
    """The five pairing numbers forced by a branch curve made of n disjoint
    rational curves with self-intersection -6 and K-degree 4, h with
    self-intersection -4 and K-degree 2, and t nodal curves over the
    isolated fixed points."""
    return BranchNumbers(
        l_sq=Fraction(-(3 * n + 2 * h + t), 2),
        k_dot_l=2 * n + h,
        l_dot_bpos=-3 * n - 2 * h,
        bpos_sq=-6 * n - 4 * h,
        k_dot_bpos=4 * n + 2 * h,
    )


class CoverFamily(NamedTuple):
    """One numerical solution family of the quotient constraints.  The
    quotient's canonical self-intersection is ksq_base - h with h the free
    count of K-degree-2 branch components."""

    label: str
    n: int
    t: int
    chi: int
    ksq_base: int

    def ksq(self, h: int = 0) -> int:
        return self.ksq_base - h


class RejectedBranchCount(NamedTuple):
    n: int
    chi: Fraction


def solve_cover_constraints() -> tuple:
    """Solve the three constraints tying the quotient surface's K^2 and chi
    to the branch counts (n, h, t):

        (i)   2 K^2 + 5n + 2h - 3 = 0
        (ii)  4 K^2 + 9n + 4h - t + 4 chi = 0
        (iii) n - t + 8 chi - 4 = 0

    Eliminating K^2 and t gives chi = (5 - n)/2, so n must be odd; each odd
    n in 0..4 yields one family.  Returns (families, rejected)."""
    families = []
    rejected = []
    for n in range(0, 5):
        chi = Fraction(5 - n, 2)
        if chi.denominator != 1:
            rejected.append(RejectedBranchCount(n, chi))
            continue
        chi = int(chi)
        t = n + 8 * chi - 4
        certify(t == 4 * chi + 6 - n, "constraints (ii) and (iii) agree")
        ksq_base = Fraction(3 - 5 * n, 2)
        certify(ksq_base.denominator == 1, "integral quotient K^2")
        label = "a" if n == 3 else "b"
        families.append(CoverFamily(label, n, t, chi, int(ksq_base)))
    families.sort(key=lambda f: f.label)
    return tuple(families), tuple(rejected)


def verify_cover_constraints(family: CoverFamily, h: int) -> bool:
    """Independent check of a family against the unreduced constraint system,
    recomputed from the branch pairing numbers."""
    b = branch_relations(family.n, h, family.t)
    ksq = family.ksq(h)
    first = 4 * ksq + 4 * b.k_dot_bpos + b.bpos_sq - 2 * KSQ
    second = 4 * ksq + 6 * b.k_dot_l + 2 * b.l_sq + 4 * family.chi
    third = ksq + b.k_dot_l - family.chi + CHI
    return first == 0 and second == 0 and third == 0


# ---------------------------------------------------------------------------
# The quadric-model pipeline for the genus-2-pencil surface
# ---------------------------------------------------------------------------

def _solve_unique(predicate, candidates, what: str) -> int:
    hits = [c for c in candidates if predicate(c)]
    if len(hits) != 1:
        raise ArithmeticError(f"expected a unique solution for {what}, got {hits}")
    return hits[0]


def derive_branch_class() -> tuple:
    """Walk the numerical chain from the genus-2 pencil to the branch curve
    on the index-2 Hirzebruch surface, returning (name, value) steps.

    The pencil has fibre genus 2, seven reducible fibres, and the ambient
    surface has p_g = q = 1, K^2 = 3.
    """
    genus_pencil = 2
    k_dot_g = 2 * genus_pencil - 2      # adjunction with G^2 = 0
    h0_omega_g = genus_pencil           # sections of the fibre's canonical
    h0_k = 1                            # p_g
    h1_k = 1                            # q
    h0_k_plus_g = h0_k + h0_omega_g - h1_k
    h0_k_plus_2g = h0_k_plus_g + h0_omega_g
    base_points = KSQ + 2 * k_dot_g     # (K + 2G).K, all on the canonical curve
    quadric_degree = (KSQ + 4 * k_dot_g) - base_points   # (K+2G)^2 - 7
    h0_k_plus_3g = h0_k_plus_2g + h0_omega_g
    sextic_degree = (KSQ + 6 * k_dot_g) - base_points    # (K+3G)^2 - 7

    # the second morphism lands on the index-2 Hirzebruch surface in P^5
    hyperplane = FeClass(2, 1, 3)
    certify(fe_chi(hyperplane) == h0_k_plus_3g, "hyperplane sections")

    # branch degree on a fibre line: 2g + 2 since each pencil member is a
    # double cover of a line
    fibre_branch = 2 * genus_pencil + 2
    b_c0 = fibre_branch // 2

    # the cover formula fixes the fibre coefficient: blowing up the seven
    # base points gives K^2 = 3 - 7, and each of the fourteen triple points
    # of the positive branch part costs 2
    contracted = 2 * 7
    resolution_cost = 2 * contracted
    target = KSQ - base_points

    def cover_ksq(a: int) -> int:
        half = fe_canonical(2) + FeClass(2, b_c0, a)
        return 2 * fe_pair(half, half) - resolution_cost

    b_l = _solve_unique(lambda a: cover_ksq(a) == target, range(-64, 65),
                        "the fibre coefficient of the half-branch class")
    branch = 2 * FeClass(2, b_c0, b_l)
    positive_part = branch - FeClass(2, 0, 7)

    # each of the three components has fibre degree 2 and hyperplane degree
    # (K + 3G minus base points) paired with a branch component, which is 7
    comp_l = _solve_unique(
        lambda a: fe_pair(hyperplane, FeClass(2, 2, a)) == 7, range(-64, 65),
        "the fibre coefficient of a branch component")
    component = FeClass(2, 2, comp_l)
    certify(3 * component == positive_part, "three branch components")
    comp_genus = fe_genus(component)
    # two double points per component: geometric genus zero
    certify(comp_genus == 2, "branch component genus 2")

    # the canonical curve downstairs is the double cover of the negative
    # section: count branch points and apply Hurwitz
    sect = FeClass(2, 1, 0)
    sect_branch = fe_pair(branch, sect)
    canonical_genus = (sect_branch - 2) // 2

    return (
        ("fibre canonical degree", k_dot_g),
        ("h0(K + G)", h0_k_plus_g),
        ("h0(K + 2G)", h0_k_plus_2g),
        ("base points", base_points),
        ("quadric model degree", quadric_degree),
        ("h0(K + 3G)", h0_k_plus_3g),
        ("sextic model degree", sextic_degree),
        ("fibre branch degree", fibre_branch),
        ("contracted curves", contracted),
        ("branch class", branch),
        ("positive branch part", positive_part),
        ("branch component", component),
        ("component arithmetic genus", comp_genus),
        ("section branch points", sect_branch),
        ("canonical curve genus", canonical_genus),
    )


@lru_cache(maxsize=None)
def branch_multiplicity_table() -> tuple:
    """Transcribed multiplicities of the three branch components at the
    fourteen blown-up points, as rows over the column order
    (x21, x31, x12, x32, x13, x23, m, n)."""
    rows = []
    for label, value, _ in load_entries("branch_table.txt"):
        if not label.startswith("branch row "):
            raise ValueError(f"branch_table.txt: unexpected label {label!r}")
        rows.append(tuple(int(x) for x in value.split()))
    return tuple(rows)


def verify_branch_table() -> dict:
    """Consistency of the branch_table.txt fixture with the derived classes: every
    point is an ordinary triple point of the full positive part, every fibre
    is cut with total degree 2 by each component, the double points account
    exactly for the genus drop to zero, and the three columns indexed by the
    basis curves agree with the stored pairing vectors."""
    rows = branch_multiplicity_table()
    columns = ("x21", "x31", "x12", "x32", "x13", "x23", "m", "n")
    checks = {}
    checks["column sums are 3"] = all(
        sum(row[i] for row in rows) == 3 for i in range(len(columns)))
    fibres = ((columns.index("x23"), columns.index("x32")),
              (columns.index("x13"), columns.index("x31")),
              (columns.index("x12"), columns.index("x21")),
              (columns.index("m"), columns.index("n")))
    checks["fibre degrees are 2"] = all(
        row[i] + row[j] == 2 for row in rows for i, j in fibres)
    checks["double points give genus 0"] = all(
        sum(m * (m - 1) // 2 for m in row) == fe_genus(FeClass(2, 2, 5))
        for row in rows)
    vec = {name: pairing_vector(name) for name in ("A1", "A2", "A3")}
    order = gram_matrix("gram9")[0]
    agree = True
    for row, name in zip(rows, ("A1", "A2", "A3")):
        for col, basis in (("x12", "B12"), ("x13", "B13"), ("x23", "B23")):
            agree = agree and row[columns.index(col)] == vec[name][order.index(basis)]
        agree = agree and all(
            row[columns.index("m")] == vec[name][order.index(f"M{k}")]
            for k in (1, 2, 3, 4))
    checks["pairing vectors agree"] = agree
    return checks


def derive_image_classes() -> tuple:
    """Classes on the index-2 Hirzebruch surface of the two distinguished
    images: the albanese fibre (birational image) and the bicanonical
    hyperplane class (degree-2 image), plus the induced plane-model data."""
    # albanese fibre image a*C0 + b*L: fibre degree and section degree both 4
    alb_fibre_deg = 4              # pencil degree on the albanese fibre
    alb_sect_deg = 4               # canonical degree of the albanese fibre
    a = _solve_unique(
        lambda v: fe_pair(FeClass(2, v, 0), FeClass(2, 0, 1)) == alb_fibre_deg,
        range(0, 16), "albanese image ruling degree")
    b = _solve_unique(
        lambda v: fe_pair(FeClass(2, a, v), FeClass(2, 1, 0)) == alb_sect_deg,
        range(-64, 65), "albanese image fibre coefficient")
    albanese_image = FeClass(2, a, b)

    # base multiplicities of the moving albanese image, from the stored
    # pairing vectors: degree 2 at each x point, 1 at each m, 3 at each n
    f0 = pairing_vector("F0")
    order = gram_matrix("gram9")[0]
    x_mult = {f0[order.index(name)] for name in ("B12", "B13", "B23")}
    m_mult = {f0[order.index(f"M{k}")] for k in (1, 2, 3, 4)}
    certify(x_mult == {2} and m_mult == {1}, "albanese base multiplicities")
    albanese_multiplicities = {"x": 2, "m": 1, "n": FIBRE_CLASS_CURVE.dot_f}

    # bicanonical image class 2*C0 + b*L: the bicanonical system meets a
    # pencil member with degree (2K).G = 4 and the image map is 2:1 on it,
    # so the ruling degree is 2; the fibre coefficient comes from pairing
    # against a branch component, twice its K-degree plus the fourteen
    # corrections at the blown-up points
    two_k_dot_g = 2 * 2
    bic_ruling = two_k_dot_g // 2
    certify(bic_ruling == 2, "bicanonical ruling degree 2")
    component = FeClass(2, 2, 5)
    k_dot_a = 1                   # K-degree of a fixed branch curve upstairs
    pair_target = 2 * k_dot_a + 14
    bic_l = _solve_unique(
        lambda v: fe_pair(component, FeClass(2, bic_ruling, v)) == pair_target,
        range(-64, 65), "bicanonical image fibre coefficient")
    bicanonical_image = FeClass(2, bic_ruling, bic_l)

    hyperplane_genus = fe_genus(bicanonical_image)
    image_degree = fe_pair(bicanonical_image, bicanonical_image) - 14

    # the class cutting the multiple line of the sextic model: sections of
    # the bicanonical image class minus a fibre
    theta = bicanonical_image - FeClass(2, 0, 1)
    theta_sections = fe_chi(theta)   # higher cohomology vanishes (ample twist)

    return (
        ("albanese image", albanese_image),
        ("albanese multiplicities", albanese_multiplicities),
        ("bicanonical image", bicanonical_image),
        ("hyperplane section genus", hyperplane_genus),
        ("bicanonical image degree", image_degree),
        ("multiple-line class sections", theta_sections),
    )


# ---------------------------------------------------------------------------
# Candidate bicanonical degrees and their exclusions
# ---------------------------------------------------------------------------

def bicanonical_degree_options() -> tuple:
    """(degree of the map, degree of the image) pairs compatible with
    (2K)^2 = 12 and a nondegenerate image in P^3 (image degree at least 2)."""
    return tuple((d, BICANONICAL_SQ // d) for d in range(1, BICANONICAL_SQ + 1)
                 if BICANONICAL_SQ % d == 0 and BICANONICAL_SQ // d >= 2)


def _ramification_certificate(pattern: str, image_degree: int,
                              canonical_coeff: int) -> ObstructionCertificate:
    """Hurwitz bookkeeping shared by the degree-4 and degree-6-cone cases:
    the image has canonical class -(canonical_coeff)*hyperplane, the
    hyperplane pulls back to 2K, so the ramification divisor is linearly
    equivalent to (1 + 2*canonical_coeff)K; but the four distinguished
    curves, which sum to 4K, all lie in it."""
    pullback = 2                       # hyperplane pulls back to 2K
    ram = 1 + pullback * canonical_coeff
    contained = 4
    if pattern == "d=4":
        conclusion = ("the ramification class minus the four distinguished "
                      "curves would be -K, which has no sections")
    else:
        conclusion = ("the residual ramification equals K yet must contain "
                      "none of the four distinguished curves")
    return ObstructionCertificate(
        pattern=pattern,
        conflict=(("ramification multiple of K", ram),
                  ("multiple of K forced inside the ramification", contained)),
        derived=(("image degree", image_degree),
                 ("image canonical multiple of the hyperplane", -canonical_coeff),
                 ("hyperplane pullback multiple of K", pullback),
                 ("residual multiple of K", ram - contained)),
        conclusion=conclusion,
    )


def _exclude_degree4() -> ObstructionCertificate:
    # image: a cubic surface with rational double points, K = -H
    return _ramification_certificate("d=4", BICANONICAL_SQ // 4, 1)


def _exclude_degree6_cone() -> ObstructionCertificate:
    # image: the quadric cone, K = -2H
    return _ramification_certificate("d=6 cone", BICANONICAL_SQ // 6, 2)


def _exclude_degree6_smooth_quadric() -> ObstructionCertificate:
    # pullback of a ruling: L^2 = 0 and K.L = half the map degree
    k_dot_l = 6 // 2
    l_sq = 0
    parity = (k_dot_l + l_sq) % 2
    return ObstructionCertificate(
        pattern="d=6 smooth quadric",
        conflict=(("parity of K.L + L.L", parity),
                  ("parity forced by adjunction", 0)),
        derived=(("K.L", k_dot_l), ("L.L", l_sq)),
        conclusion="a curve class with odd K.L + L.L cannot exist",
    )


def _exclude_degree6_slope() -> ObstructionCertificate:
    # the cone case again, via the unramified double cover defined by the
    # 2-torsion difference of the ruling pullback and K
    base = SurfaceInvariants(KSQ, CHI, 1, 1)
    cover = double_cover_invariants(base, kl_sq=KSQ, l_dot=0, h0=2)
    certify(cover == SurfaceInvariants(6, 2, 3, 2), "cover invariants")
    inv = noether_invariants(cover.pg, cover.q, cover.ksq)
    certify(inv.chi == cover.chi, "Noether's formula for the cover")
    # base genus of the induced fibration: 8(g-1)(b-1) <= K^2 with fibre
    # genus at least 2 forces b = 1; Euler number 18 > 0 forces a singular
    # fibre, so the slope machinery applies
    certify(inv.c2 == 18, "cover Euler number 18")
    b_candidates = [b for b in range(1, 4)
                    if 8 * (2 - 1) * (b - 1) <= cover.ksq]
    certify(b_candidates == [1], "fibration base genus 1")
    base_genus = b_candidates[0]
    slope = Fraction(cover.ksq, cover.chi)
    # the slope inequality then pins the irregularity
    certify(slope < 4, "slope below 4")
    return ObstructionCertificate(
        pattern="d=6 slope",
        conflict=(("irregularity of the unramified cover", cover.q),
                  ("base genus forced by slope below 4", base_genus)),
        derived=(("cover K^2", cover.ksq), ("cover chi", cover.chi),
                 ("cover p_g", cover.pg), ("cover Euler number", inv.c2),
                 ("slope", slope)),
        conclusion="a slope-3 fibration would force irregularity 1, not 2",
    )


def _exclude_degree3() -> ObstructionCertificate:
    # an odd-degree plane curve on the image pulls back with K-degree 3k/2
    k = 1
    k_theta = Fraction(3 * k, 2)
    return ObstructionCertificate(
        pattern="d=3",
        conflict=(("parity of 2 K.Theta on an odd-degree plane curve",
                   (3 * k) % 2),
                  ("parity of an integer doubled", 0)),
        derived=(("K.Theta for a line not in the branch locus", k_theta),),
        conclusion=("the image would carry moving odd-degree plane curves, "
                    "whose pullbacks have non-integer K-degree"),
    )


def exclusion_certificates() -> tuple:
    """The five numerical obstructions that leave degree 1 as the only
    bicanonical degree for a generic member."""
    return (
        _exclude_degree4(),
        _exclude_degree6_cone(),
        _exclude_degree6_smooth_quadric(),
        _exclude_degree6_slope(),
        _exclude_degree3(),
    )
