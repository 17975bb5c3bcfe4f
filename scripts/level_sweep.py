#!/usr/bin/env python3
"""Sweep the working torsion level and watch the torsion suite stabilise.

The set-theoretic counts and the surviving base-point set are claimed to be
independent of the working level once it is a multiple of 6 (the fixture
comparisons additionally need level 24).  This script runs the torsion suite
at a range of levels and reports pass/skip counts, timing, and whether the
base-point set matches the level-24 baseline.
"""

import time

from trisect.checks import run_verify
from trisect.torsion import enumerate_base_points

LEVELS = (6, 12, 18, 24, 30, 36, 48, 96, 192, 384, 768)


def main() -> None:
    print(f"{'level':>6} {'pass':>5} {'fail':>5} {'error':>5} {'skip':>5}"
          f" {'seconds':>8}  base points")
    baseline = None
    failures = 0
    for level in LEVELS:
        start = time.perf_counter()
        report = run_verify(("torsion",), level)
        points = enumerate_base_points(level).base_points
        elapsed = time.perf_counter() - start
        if baseline is None:
            baseline = points
        stable = "stable" if points == baseline else "DIFFERS"
        summary = report.summary
        print(f"{level:>6} {summary['pass']:>5} {summary['fail']:>5}"
              f" {summary['error']:>5} {summary['skip']:>5} {elapsed:>8.2f}"
              f"  {len(points)} {stable}")
        failures += summary["fail"] + summary["error"] + (points != baseline)
    raise SystemExit(1 if failures else 0)


if __name__ == "__main__":
    main()
