"""Seeded query streams for the benchmark, and checks of their answers that
never call the function under test.

Three query kinds go through the public API:

* ``fulton``: ``curves.fulton_mult(f, g, p)``.  g is the graph
  v = phi(u) of a polynomial of degree 2-4 in affine coordinates centred at
  p, so it has one smooth branch at p, parametrised by t -> (t, phi(t)).  The
  true multiplicity is then ord_t f(t, phi(t)), computed here with this
  file's own Q(w) arithmetic.  f is s*g plus a remainder whose lowest-order
  monomial along the branch is unique, so each query's multiplicity is the
  stratum it was drawn for; s*g alone gives INFINITE.
* ``locus``: ``torsion.intersect_loci(curve, surface, m)``.  The answer is
  compared with a brute-force enumeration in plain integer pairs and the
  definitions of D_u, F_u and Y.
* ``eval``: ``expr.evaluate_statement(text)``.  The generator knows the class
  each subexpression denotes, and the answer is compared with a direct call
  into ``rings`` or ``covers``.

Every batch walks the same strata several times; the seed picks the
coefficients, points and shifts.  That keeps the latency distribution of
one seed's batch close to that of another, so run-to-run spread reflects the
program and the host, not the luck of the draw.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

INF = "INFINITE"

# ---------------------------------------------------------------------------
# Q(w) arithmetic on pairs (a, b) meaning a + b*w, w^2 = -1 - w
# ---------------------------------------------------------------------------

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def _mul(x, y):
    a, b = x
    c, d = y
    bd = b * d
    return (a * c - bd, a * d + b * c - bd)


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _neg(x):
    return (-x[0], -x[1])


# univariate polynomials in t: lists of Q(w) pairs, lowest degree first

def _padd(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] = _add(out[i], c)
    return out


def _pmul(p, q):
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == ZERO:
            continue
        for j, b in enumerate(q):
            out[i + j] = _add(out[i + j], _mul(a, b))
    return out


def _ppow(p, k):
    out = [ONE]
    for _ in range(k):
        out = _pmul(out, p)
    return out


def order_along(form: dict, param) -> object:
    """ord_t of form(param(t)), or INF when the composite vanishes
    identically.  `form` maps exponent triples to Q(w) pairs; `param` is
    three polynomials in t."""
    total = [ZERO]
    for mono, c in form.items():
        term = [c]
        for poly, e in zip(param, mono):
            if e:
                term = _pmul(term, _ppow(poly, e))
        total = _padd(total, term)
    return next((i for i, c in enumerate(total) if c != ZERO), INF)


# trivariate forms: dicts {(e0, e1, e2): Q(w) pair}

def _fmul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            out[m] = _add(out.get(m, ZERO), _mul(c1, c2))
    return {m: c for m, c in out.items() if c != ZERO}


def _fadd(f, g):
    out = dict(f)
    for m, c in g.items():
        out[m] = _add(out.get(m, ZERO), c)
    return {m: c for m, c in out.items() if c != ZERO}


def _fpow(f, k):
    out = {(0, 0, 0): ONE}
    for _ in range(k):
        out = _fmul(out, f)
    return out


# ---------------------------------------------------------------------------
# fulton queries
# ---------------------------------------------------------------------------

_INT_POOL = (1, -1, 2, -2, 3, -3)
_FRAC_POOL = (Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3),
              Fraction(-3, 4), Fraction(5, 2), Fraction(-4, 3))

# (degree of f, degree of g, multiplicity stratum, order of phi at 0):
# every batch walks this list once, so the mix is the same in every batch.
FULTON_STRATA = (
    (2, 2, 0, 1), (3, 2, 1, 1), (4, 3, 2, 1), (3, 4, 3, 1),
    (2, 3, 4, 2), (4, 2, 5, 2), (3, 3, 6, 2), (4, 4, 8, 2),
    (3, 2, INF, 1), (4, 3, INF, 2), (2, 2, 2, 2), (4, 4, 4, 1),
)


def _scalar(rng):
    pool = _FRAC_POOL + _INT_POOL
    a = Fraction(rng.choice(pool))
    b = Fraction(rng.choice(pool)) if rng.random() < 0.4 else Fraction(0)
    return (a, b)


def _point(rng):
    return (Fraction(rng.choice(_FRAC_POOL + _INT_POOL + (0,))), Fraction(0))


def _monomials(d):
    return [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]


def make_fulton(rng, stratum) -> dict:
    """One fulton query: forms f, g (as coefficient dicts in x0, x1, x2),
    the point [alpha : beta : 1], and the branch of g through it."""
    df, dg, target, ord_phi = stratum
    alpha, beta = _point(rng), _point(rng)
    # affine coordinates centred at the point: u = x0 - alpha x2, v = x1 - beta x2
    u = {(1, 0, 0): ONE, (0, 0, 1): _neg(alpha)}
    v = {(0, 1, 0): ONE, (0, 0, 1): _neg(beta)}
    z = {(0, 0, 1): ONE}
    phi = [ZERO] * (dg + 1)
    for i in range(ord_phi, dg + 1):
        phi[i] = _scalar(rng)

    def uvz(i, j, k, c):
        return _fmul({(0, 0, 0): c},
                     _fmul(_fpow(u, i), _fmul(_fpow(v, j), _fpow(z, k))))

    g = uvz(0, 1, dg - 1, ONE)
    for i in range(1, dg + 1):
        if phi[i] != ZERO:
            g = _fadd(g, uvz(i, 0, dg - i, _neg(phi[i])))
    f = {}
    if df >= dg:
        s = {}
        for mono in _monomials(df - dg):
            s = _fadd(s, uvz(*mono, _scalar(rng)))
        f = _fmul(s, g)
    if target != INF:
        # one monomial at exactly the target order along the branch, the
        # rest strictly above it
        val = {(i, j, k): i + ord_phi * j for i, j, k in _monomials(df)}
        lead = rng.choice(sorted(m for m, o in val.items() if o == target))
        f = _fadd(f, uvz(*lead, _scalar(rng)))
        for mono, o in sorted(val.items()):
            if o > target:
                f = _fadd(f, uvz(*mono, _scalar(rng)))
    param = ([alpha, ONE], _padd([beta], phi), [ONE])
    return {"kind": "fulton", "f": f, "g": g, "point": (alpha, beta, ONE),
            "param": param, "degrees": (df, dg), "stratum": target}


def fulton_oracle(query) -> object:
    return order_along(query["f"], query["param"])


# ---------------------------------------------------------------------------
# locus queries
# ---------------------------------------------------------------------------

def make_locus(rng, stratum, seen: list, on_curve: bool) -> dict:
    """A CURVE1 locus of three affine maps x -> shift + mult*x, with shifts
    of order dividing the level, against a surface D_u, F_u or Y.  The
    stratum (level, g, surface) fixes the level, the surface kind and the
    multipliers, g, -1 and 0 in a seeded order; level and g set the
    enumeration cost (g*level)^2.  A g of None repeats the latest curve of
    that level in `seen`, which the program's cache of curve enumerations
    can answer.  An anchor `on_curve` is a shift of the curve, so the
    intersection is often nonempty; otherwise it is any point of E[level]."""
    level, g, surface = stratum
    repeated = g is None
    if repeated:
        label, maps, level = next(s for s in reversed(seen) if s[2] == level)
    else:
        mults = [g, -1, 0]
        rng.shuffle(mults)
        maps = []
        for mult in mults:
            order = rng.choice([d for d in (1, 2, 3, 6) if level % d == 0])
            maps.append(((order, rng.randrange(order), rng.randrange(order)),
                         mult))
        maps = tuple(maps)
        # distinct labels keep distinct queries apart in the program's cache
        label = f"q{len(seen)}"
        seen.append((label, maps, level))
    anchor = None
    if surface != "Y":
        if on_curve:
            anchor = maps[rng.randrange(3)][0]
        else:
            anchor = (level, rng.randrange(level), rng.randrange(level))
    return {"kind": "locus", "label": label, "maps": maps,
            "surface": surface, "anchor": anchor, "level": level,
            "repeated": repeated}


def _at(pt, n):
    """A point (order, a, b) of E[order] written in E[n] coordinates."""
    order, a, b = pt
    s = n // order
    return ((a * s) % n, (b * s) % n)


def locus_oracle(query) -> frozenset:
    """Brute force: every parameter in E[g*m], images filtered to E[m], then
    the surface's defining condition.  Triples are sorted coordinate pairs
    in E[g*m]."""
    m = query["level"]
    mults = [abs(k) for _, k in query["maps"] if k]
    n = lcm(*mults) * m
    shifts = [(_at(s, n), k) for s, k in query["maps"]]
    anchor = _at(query["anchor"], n) if query["anchor"] else None
    surface = query["surface"]
    out = set()
    for x in range(n):
        for y in range(n):
            pts = [((sa + k * x) % n, (sb + k * y) % n)
                   for (sa, sb), k in shifts]
            if any((m * a) % n or (m * b) % n for a, b in pts):
                continue
            if surface == "D" and anchor not in pts:
                continue
            if surface == "F":
                total = (sum(a for a, _ in pts) % n, sum(b for _, b in pts) % n)
                if total != anchor:
                    continue
            if surface == "Y" and not any(
                    pts[i] == ((pts[j][0] + pts[k][0]) % n,
                               (pts[j][1] + pts[k][1]) % n)
                    for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1))):
                continue
            out.add(tuple(sorted(pts)))
    return frozenset(out)


def locus_answer_key(answer, query) -> frozenset:
    """The library's frozenset of Triples in the oracle's coordinates."""
    mults = [abs(k) for _, k in query["maps"] if k]
    n = lcm(*mults) * query["level"]
    return frozenset(tuple(sorted(_at((p.level, p.a, p.b), n)
                                  for p in t.points)) for t in answer)


# ---------------------------------------------------------------------------
# eval queries
# ---------------------------------------------------------------------------

_CONTEXTS = {
    "E(3)": {"D": (1, 0), "F": (0, 1), "K": (-3, 1)},
    "E(2)": {"h": (1, 0), "f": (0, 1), "K": (-2, 1)},
}


def _context_classes(context):
    if context in _CONTEXTS:
        return _CONTEXTS[context]
    e = int(context[1:])
    return {"C0": (1, 0), "L": (0, 1), "K": (-2, -(e + 2))}


def _class_expr(rng, classes, nested):
    """Text of a class-valued sum of three terms and the class it denotes:
    a multiple of a symbol, a multiple of a parenthesised sum (or of a
    symbol, when not `nested`) and a bare symbol.  The seed picks signs,
    symbols and multipliers; the shape is fixed, so parsing costs about the
    same in every batch."""
    names = sorted(classes)
    terms = []
    total = (0, 0)
    for index in range(3):
        sign = -1 if index and rng.random() < 0.5 else 1
        name = rng.choice(names)
        if index == 1 and nested:
            text, cls = _class_expr(rng, classes, False)
            k = rng.randint(2, 3)
            text, cls = f"{k}*({text})", (k * cls[0], k * cls[1])
        elif index < 2:
            k = rng.randint(2, 5)
            text, cls = f"{k}{name}", (k * classes[name][0], k * classes[name][1])
        else:
            text, cls = name, classes[name]
        if index == 0:
            terms.append(text)
        else:
            terms.append(f"{'+' if sign > 0 else '-'} {text}")
        total = (total[0] + sign * cls[0], total[1] + sign * cls[1])
    return " ".join(terms), total


# (head, context family): the mix every batch walks once
EVAL_STRATA = (
    ("chi", "E(3)"), ("chi", "E(2)"), ("chi", "F"), ("genus", "E(2)"),
    ("genus", "F"), ("pair", "E(2)"), ("pair", "F"), ("triple", "E(3)"),
)


def make_eval(rng, stratum) -> dict:
    head, family = stratum
    context = f"F{rng.randint(0, 3)}" if family == "F" else family
    classes = _context_classes(context)
    arity = {"pair": 2, "triple": 3}.get(head, 1)
    parts = [_class_expr(rng, classes, True) for _ in range(arity)]
    if arity == 1:
        text = parts[0][0]
    else:
        text = "*".join(f"({p})" for p, _ in parts)
    return {"kind": "eval", "text": f"{head} {context}: {text}",
            "head": head, "context": context,
            "classes": tuple(cls for _, cls in parts)}


def eval_oracle(query) -> tuple:
    from trisect import covers, rings
    head, context, classes = query["head"], query["context"], query["classes"]
    if context.startswith("F"):
        e = int(context[1:])
        fe = [covers.FeClass(e, *c) for c in classes]
        if head == "chi":
            return (covers.fe_chi(fe[0]),)
        if head == "genus":
            return (covers.fe_genus(fe[0]),)
        return (covers.fe_pair(*fe),)
    if head == "chi":
        n = 3 if context == "E(3)" else 2
        return (rings.chi_symmetric_power(n, *classes[0]),)
    if head == "genus":
        return (rings.genus_e2(classes[0]),)
    if head == "pair":
        return (rings.pair_e2(*classes),)
    return (rings.triple_product_e3(*classes),)


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

# Locus strata (level, g, surface) as in make_locus: levels 6 to 48, and
# three curves in eleven repeated (g None: the curve of that level drawn
# earlier in the same round).  Enumeration costs that rise in small steps
# keep the median away from a large gap between two strata's costs.  The
# costliest stratum, a new level-48 curve against F_u, comes twice, so the
# p90 falls inside its band: with one, it fell on the gap between 48 and the
# next level, and spread by 0.26 of its median between runs.
LOCUS_STRATA = (
    (6, 2, "D"), (12, 2, "F"), (18, 2, "Y"), (24, 1, "D"), (30, 1, "F"),
    (36, 1, "Y"), (48, 1, "F"), (48, 1, "F"),
    (12, None, "Y"), (30, None, "D"), (48, None, "D"),
)

# How often a batch walks each kind's strata: enough that the p90 of every
# kind has more than ten queries beyond it.
FULTON_ROUNDS = 10
LOCUS_ROUNDS = 10
EVAL_ROUNDS = 14


def make_batch(seed: int) -> list:
    """The queries-random batch of a seed: fulton and locus queries
    interleaved in a seeded order, then the eval statements in a block.

    An eval call takes about 0.05 ms in a block and twice that right after
    a locus or fulton call, whose work leaves the CPU caches cold.  How long
    refilling them took depended on the other tenants of a shared host:
    interleaved, the eval p50 of ten runs of the same code spread by 0.43
    of their median; in a block, by 0.05 to 0.16, as the other latencies
    did."""
    rng = random.Random(seed)
    queries = [make_fulton(rng, s) for s in FULTON_STRATA * FULTON_ROUNDS]
    seen: list = []
    # on-curve and free anchors alternate, so each stratum has half of each
    queries += [make_locus(rng, s, seen, index % 2 == 0)
                for index, s in enumerate(LOCUS_STRATA * LOCUS_ROUNDS)]
    rng.shuffle(queries)
    evals = make_evals(rng)
    rng.shuffle(evals)
    return queries + evals


def make_evals(rng) -> list:
    """Statements of every eval stratum, EVAL_ROUNDS times over."""
    return [make_eval(rng, s) for s in EVAL_STRATA * EVAL_ROUNDS]


def properties(batch) -> dict:
    """Input properties of a batch, for the record."""
    fulton = [q for q in batch if q["kind"] == "fulton"]
    loci = [q for q in batch if q["kind"] == "locus"]
    coeffs = [c for q in fulton for form in (q["f"], q["g"])
              for c in form.values()]
    non_integral = sum(1 for a, b in coeffs
                       if a.denominator != 1 or b.denominator != 1)
    hist: dict = {}
    for q in fulton:
        key = str(q["stratum"])
        hist[key] = hist.get(key, 0) + 1
    degrees: dict = {}
    for q in fulton:
        key = "x".join(map(str, q["degrees"]))
        degrees[key] = degrees.get(key, 0) + 1
    levels: dict = {}
    for q in loci:
        levels[str(q["level"])] = levels.get(str(q["level"]), 0) + 1
    return {
        "degree_mix": degrees,
        "non_integral_coeff_share": non_integral / max(1, len(coeffs)),
        "multiplicity_histogram": hist,
        "repeated_locus_share": sum(q["repeated"] for q in loci) / max(1, len(loci)),
        "level_mix": levels,
    }
