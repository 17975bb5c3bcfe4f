"""Spans and counters recorded from outside the program.

The benchmark installs wrappers around public functions after the program
is imported.  Modules such as ``heisenberg`` and ``checks`` import
``fulton_mult``, ``intersect_loci`` and others by name, so a wrapper is
written into every ``trisect`` module that holds the function, not only the
defining one; wrapping ``trisect.curves.fulton_mult`` alone sees none of the
calls the heisenberg suite makes.

Two passes never mix: the span pass times the layer boundaries, and the
count pass counts the hot tiny constructors (``Eis.__init__``,
``TorsionPt.make``), whose wrapper cost would otherwise inflate the spans.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from math import lcm

# (span name, module, attribute): plain functions replaced in every importer
SPANNED = (
    ("curves.fulton", "trisect.curves", "fulton_mult"),
    ("heisenberg.decompose", "trisect.heisenberg", "decompose_degree3"),
    ("heisenberg.containment", "trisect.heisenberg", "verify_vertex_containment"),
    ("heisenberg.pairs", "trisect.heisenberg", "verify_pencil_pairs"),
    ("torsion.base_points", "trisect.torsion", "enumerate_base_points"),
    ("torsion.intersect", "trisect.torsion", "intersect_loci"),
    ("rings.lattice_rank", "trisect.rings", "lattice_rank"),
    ("report.run_checks", "trisect.report", "run_checks"),
    ("report.render", "trisect.report", "render_json"),
    ("expr.parse", "trisect.expr", "parse_statement"),
)


def replace_everywhere(original, replacement) -> int:
    """Point every trisect module attribute bound to `original` at
    `replacement`; returns how many bindings changed."""
    changed = 0
    for name, module in list(sys.modules.items()):
        if not name.startswith("trisect") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


class Spans:
    """In-memory span log: [name, start_ns, end_ns, parent index]."""

    def __init__(self):
        self.log = []
        self._stack = []
        self.counters = {"torsion.curve_triples_misses": 0,
                         "torsion.params_enumerated": 0,
                         "torsion.triples_kept": 0}

    def wrap(self, name, fn):
        log, stack, clock = self.log, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(log)
            log.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                log[index][2] = clock()
        return traced

    def install(self) -> dict:
        """Wrap every spanned function; returns bindings changed per span."""
        import trisect.cli  # noqa: F401  (imports every module)
        from trisect import checks, expr, torsion

        bound = {}
        for name, module, attr in SPANNED:
            original = getattr(sys.modules[module], attr)
            bound[name] = bound.get(name, 0) + replace_everywhere(
                original, self.wrap(name, original))

        # curve_triples: a span plus cache misses and the parameters a miss
        # enumerates, (g*m)^2 with g the lcm of the nonzero multipliers
        cached = torsion.curve_triples
        counters = self.counters

        def curve_triples(locus, m):
            before = cached.cache_info().misses
            out = cached(locus, m)
            if cached.cache_info().misses > before:
                mults = [abs(mp.mult) for mp in locus.maps if mp.mult]
                counters["torsion.curve_triples_misses"] += 1
                counters["torsion.params_enumerated"] += (lcm(*mults) * m) ** 2
                counters["torsion.triples_kept"] += len(out)
            return out
        bound["torsion.curve_triples"] = replace_everywhere(
            cached, self.wrap("torsion.curve_triples", curve_triples))

        # each check's run, as a span named after its suite, and the build
        build = checks.build_checks

        def build_checks(suites):
            return tuple(dataclasses.replace(
                c, run=self.wrap(f"checks.{c.suite}", c.run))
                for c in build(suites))
        bound["checks.build"] = replace_everywhere(
            build, self.wrap("checks.build", build_checks))

        expr.Statement.evaluate = self.wrap("expr.evaluate",
                                            expr.Statement.evaluate)
        return bound

    def summary(self) -> dict:
        """Per span name: call count, inclusive seconds of the outermost
        spans, and self seconds (duration minus direct children)."""
        children = [0] * len(self.log)
        for name, start, end, parent in self.log:
            if parent >= 0:
                children[parent] += end - start
        out = {}
        for index, (name, start, end, parent) in enumerate(self.log):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start - children[index]) / 1e9
            ancestor = parent
            while ancestor >= 0 and self.log[ancestor][0] != name:
                ancestor = self.log[ancestor][3]
            if ancestor < 0:
                row["s"] += (end - start) / 1e9
        return out


class Counts:
    """Counts of the tiny constructors, and how many Eis values are built
    while a fulton_mult call is running."""

    def __init__(self):
        self.values = {"field.eis_new": 0, "field.eis_new_in_fulton": 0,
                       "torsion.pt_make": 0}
        self._depth = 0

    def install(self) -> None:
        import trisect.cli  # noqa: F401
        from trisect import curves, field, torsion

        values = self.values
        counts = self
        eis_init = field.Eis.__init__

        def init(self, a=0, b=0):
            values["field.eis_new"] += 1
            if counts._depth:
                values["field.eis_new_in_fulton"] += 1
            eis_init(self, a, b)
        field.Eis.__init__ = init

        make = torsion.TorsionPt.make

        def counted_make(level, a, b):
            values["torsion.pt_make"] += 1
            return make(level, a, b)
        torsion.TorsionPt.make = staticmethod(counted_make)

        fulton = curves.fulton_mult

        def fulton_mult(*args, **kwargs):
            counts._depth += 1
            try:
                return fulton(*args, **kwargs)
            finally:
                counts._depth -= 1
        replace_everywhere(fulton, fulton_mult)
