"""Verification report: runs registered checks and renders the results.

A check is a named computation returning an (expected, actual) pair; the
report records PASS when the two compare equal, FAIL otherwise, ERROR when
the computation raised, and SKIP when the requested working torsion level is
below what the check needs.
Reruns with the same arguments produce byte-identical JSON except for the
timing fields.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from . import __version__
from .torsion import check_level

SUITES = ("field", "curves", "heisenberg", "torsion", "ring", "lattice",
          "cover", "exclusion")


# a dataclass, not a NamedTuple: perfbench's traced run rebinds each
# check's `run` with dataclasses.replace
@dataclass(frozen=True)
class Check:
    """A registered verification step.  run(level) returns (expected,
    actual); the two are compared with ==."""

    suite: str
    check_id: str
    paper_ref: str
    run: Callable
    min_level: int = 6


class CheckResult(NamedTuple):
    suite: str
    check_id: str
    paper_ref: str
    status: str                 # PASS, FAIL, ERROR or SKIP
    expected: Optional[object]
    actual: Optional[object]
    millis: int

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "check_id": self.check_id,
            "paper_ref": self.paper_ref,
            "status": self.status,
            "expected": _plain(self.expected),
            "actual": _plain(self.actual),
            "millis": self.millis,
        }


class Report(NamedTuple):
    version: str
    torsion_level: int
    results: tuple

    @property
    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "skip": 0, "error": 0}
        for result in self.results:
            counts[result.status.lower()] += 1
        return counts

    @property
    def failed(self) -> bool:
        return any(r.status in ("FAIL", "ERROR") for r in self.results)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "torsion_level": self.torsion_level,
            "summary": self.summary,
            "results": [r.to_dict() for r in self.results],
        }


def _plain(value):
    """Normalise a check value for JSON: native scalars stay, everything
    else renders through str()."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        raise TypeError("floating point has no place in a report")
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return str(value)


def run_checks(checks, torsion_level: int) -> Report:
    check_level(torsion_level)
    results = []
    for check in checks:
        if torsion_level < check.min_level:
            reason = (f"skipped: needs torsion level {check.min_level},"
                      f" ran at {torsion_level}")
            results.append(CheckResult(check.suite, check.check_id,
                                       check.paper_ref, "SKIP", None,
                                       reason, 0))
            continue
        start = time.perf_counter_ns()
        try:
            expected, actual = check.run(torsion_level)
            # a value the renderers refuse fails this row, not the report
            _plain(expected), _plain(actual)
        except Exception as exc:
            # one broken check must not take the rest of the report down
            status, expected = "ERROR", None
            actual = f"{type(exc).__name__}: {exc}"
        else:
            status = "PASS" if expected == actual else "FAIL"
        millis = (time.perf_counter_ns() - start) // 1_000_000
        results.append(CheckResult(check.suite, check.check_id,
                                   check.paper_ref, status,
                                   expected, actual, int(millis)))
    return Report(__version__, torsion_level, tuple(results))


def render_json(report: Report) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


def render_markdown(report: Report) -> str:
    lines = [f"# Verification report (v{report.version})", ""]
    summary = report.summary
    lines.append(f"Working torsion level {report.torsion_level}; "
                 f"{summary['pass']} passed, {summary['fail']} failed, "
                 f"{summary['error']} raised an error, "
                 f"{summary['skip']} skipped.")
    by_suite: dict = {}
    for result in report.results:
        by_suite.setdefault(result.suite, []).append(result)
    for suite, results in by_suite.items():
        lines.append("")
        lines.append(f"## {suite}")
        lines.append("")
        lines.append("| check | claim | status | expected | actual | ms |")
        lines.append("| --- | --- | --- | --- | --- | --- |")
        for r in results:
            expected = "" if r.expected is None else _cell(r.expected)
            actual = "" if r.actual is None else _cell(r.actual)
            lines.append(f"| {r.check_id} | {r.paper_ref} | {r.status} "
                         f"| {expected} | {actual} | {r.millis} |")
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    text = str(_plain(value))
    return text.replace("|", "\\|")
