import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from trisect.checks import run_verify
from trisect.cli import main
from trisect.covers import derive_branch_class
from trisect.heisenberg import printed_eigencubics, triangles
from trisect.report import Check, run_checks


# sha256 of the default report's (suite, check_id, status, expected,
# actual) rows, one sorted-key JSON list per line as perfbench/run.py
# digests them: any change to a row's text shows here
REPORT_ROWS_SHA256 = (
    "50639b141d091a9d996e3483cc989652cfe131fab9fc8ae2e76be19b3fe8f6df")

SRC = Path(__file__).resolve().parents[1] / "src"


def _strip_millis(text: str) -> str:
    return re.sub(r'"millis": \d+', '"millis": 0', text)


def _rows_sha256(text: str) -> str:
    rows = [(r["suite"], r["check_id"], r["status"], r["expected"],
             r["actual"]) for r in json.loads(text)["results"]]
    lines = "\n".join(json.dumps(list(r), sort_keys=True) for r in rows)
    return hashlib.sha256(lines.encode()).hexdigest()


def _run_python(*args, hash_seed: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300)


def test_verify_json_shape(capsys):
    assert main(["verify", "--suite", "field"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["version", "torsion_level", "summary", "results"]
    assert payload["torsion_level"] == 24
    assert payload["summary"] == {"pass": 6, "fail": 0, "skip": 0,
                                  "error": 0}
    first = payload["results"][0]
    assert list(first) == ["suite", "check_id", "paper_ref", "status",
                           "expected", "actual", "millis"]


def test_verify_json_deterministic(capsys):
    main(["verify"])
    first = capsys.readouterr().out
    main(["verify"])
    second = capsys.readouterr().out
    assert _strip_millis(first).encode() == _strip_millis(second).encode()
    assert _rows_sha256(first) == REPORT_ROWS_SHA256


def test_verify_under_optimize_flag_gives_the_same_rows():
    # certificates must not live in asserts, which -O strips; the two hash
    # seeds show that no row depends on the iteration order of a set
    plain = _run_python("-m", "trisect.cli", "verify", hash_seed="0")
    optimized = _run_python("-O", "-m", "trisect.cli", "verify",
                            hash_seed="12345")
    assert plain.returncode == optimized.returncode == 0
    assert _strip_millis(optimized.stdout) == _strip_millis(plain.stdout)
    assert _rows_sha256(plain.stdout) == REPORT_ROWS_SHA256
    assert _rows_sha256(optimized.stdout) == REPORT_ROWS_SHA256


def test_verify_markdown(capsys):
    assert main(["verify", "--suite", "field", "--suite", "curves",
                 "--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert "## field" in out and "## curves" in out
    assert "## torsion" not in out
    assert "| check | claim | status | expected | actual | ms |" in out


def test_suite_selection(capsys):
    main(["verify", "--suite", "ring", "--suite", "lattice"])
    payload = json.loads(capsys.readouterr().out)
    assert {r["suite"] for r in payload["results"]} == {"ring", "lattice"}


def test_heisenberg_has_at_least_sixty_results(capsys):
    assert main(["verify", "--suite", "heisenberg"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["results"]) >= 60
    assert all(r["status"] == "PASS" for r in payload["results"])


def test_torsion_fixture_checks_skip_below_level_24(capsys):
    assert main(["verify", "--suite", "torsion",
                 "--torsion-level", "12"]) == 0
    payload = json.loads(capsys.readouterr().out)
    skipped = [r for r in payload["results"] if r["status"] == "SKIP"]
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["skip"] == len(skipped) == 32
    assert all(r["expected"] is None for r in skipped)
    assert all(r["actual"] == "skipped: needs torsion level 24, ran at 12"
               for r in skipped)
    table_rows = [r for r in payload["results"]
                  if r["check_id"].startswith("table-")]
    assert len(table_rows) == 28
    assert all(r["status"] == "SKIP" for r in table_rows)


def test_verify_at_level_six_runs_the_rest(capsys):
    assert main(["verify", "--suite", "torsion", "--torsion-level", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["pass"] > 0


def test_bad_torsion_level_is_a_usage_error(capsys):
    assert main(["verify", "--torsion-level", "7"]) == 2
    assert "trisect:" in capsys.readouterr().err


def test_unknown_arguments_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "bogus"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["verify", "--suite", "field", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["summary"]["pass"] == 6


def test_out_into_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert main(["verify", "--suite", "field", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("trisect:")
    assert not target.exists()


def test_empty_report_renders(capsys):
    from trisect.report import render_json, render_markdown
    report = run_checks([], 24)
    payload = json.loads(render_json(report))
    assert payload["summary"] == {"pass": 0, "fail": 0, "skip": 0,
                                  "error": 0}
    assert payload["results"] == []
    assert render_markdown(report).startswith("# Verification report")


def test_check_ids_unique_within_a_run(capsys):
    main(["verify"])
    payload = json.loads(capsys.readouterr().out)
    ids = [r["check_id"] for r in payload["results"]]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("suites, parsed", [(("all",), True),
                                            (("heisenberg",), True),
                                            (("field",), False)])
def test_heisenberg_fixtures_are_parsed_before_rows_are_timed(
        monkeypatch, suites, parsed):
    # a fixture parsed inside run_checks is charged to the first row that
    # reads it, while its siblings skip the parse
    fixtures = (triangles, printed_eigencubics)
    for loader in fixtures:
        loader.cache_clear()
    entered = []

    def run_checks_spy(rows, level):
        entered.append([loader.cache_info().currsize > 0
                        for loader in fixtures])
        return run_checks([], level)
    monkeypatch.setattr("trisect.checks.run_checks", run_checks_spy)
    run_verify(suites, 24)
    assert entered == [[parsed, parsed]]


def test_failure_exit_code(monkeypatch, capsys):
    broken = Check("field", "always-breaks", "eisenstein-arithmetic",
                   lambda level: (0, 1))
    report = run_checks([broken], 24)
    monkeypatch.setattr("trisect.cli.run_verify",
                        lambda suites, level: report)
    assert main(["verify"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["fail"] == 1


def test_raising_check_is_reported_and_the_rest_run(monkeypatch, capsys):
    def raises(level):
        raise ZeroDivisionError("inverse of zero in Q(w)")
    checks = [Check("field", "raises", "eisenstein-arithmetic", raises),
              Check("field", "passes", "eisenstein-arithmetic",
                    lambda level: (1, 1))]
    report = run_checks(checks, 24)
    assert [r.status for r in report.results] == ["ERROR", "PASS"]
    assert report.results[0].expected is None
    assert (report.results[0].actual
            == "ZeroDivisionError: inverse of zero in Q(w)")
    assert report.summary == {"pass": 1, "fail": 0, "skip": 0, "error": 1}
    monkeypatch.setattr("trisect.cli.run_verify",
                        lambda suites, level: report)
    assert main(["verify"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"][0]["expected"] is None
    assert main(["verify", "--format", "markdown"]) == 1
    assert "1 passed, 0 failed, 1 raised an error, 0 skipped." in (
        capsys.readouterr().out)


def test_renamed_derivation_step_is_an_error_row(monkeypatch):
    # a pipeline row looks its step up by name, so a renamed step cannot be
    # read as the value of another
    steps = tuple(("fibre degree" if name == "fibre canonical degree" else name,
                   value) for name, value in derive_branch_class())
    monkeypatch.setattr("trisect.checks.derive_branch_class", lambda: steps)
    rows = {r.check_id: r for r in run_verify(("cover",), 24).results}
    renamed = rows["pipeline-fibre-canonical-degree"]
    assert renamed.status == "ERROR"
    assert renamed.actual == "KeyError: 'fibre canonical degree'"
    assert rows["pipeline-h0-k-g"].status == "PASS"


def test_unrenderable_value_is_reported_and_the_rest_run(monkeypatch, capsys):
    checks = [Check("field", "floats", "eisenstein-arithmetic",
                    lambda level: (0.5, 0.5)),
              Check("field", "passes", "eisenstein-arithmetic",
                    lambda level: (1, 1))]
    report = run_checks(checks, 24)
    assert [r.status for r in report.results] == ["ERROR", "PASS"]
    assert report.results[0].expected is None
    assert (report.results[0].actual
            == "TypeError: floating point has no place in a report")
    monkeypatch.setattr("trisect.cli.run_verify",
                        lambda suites, level: report)
    assert main(["verify"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [r["status"] for r in payload["results"]] == ["ERROR", "PASS"]
    assert main(["verify", "--format", "markdown"]) == 1
    assert "1 passed, 0 failed, 1 raised an error, 0 skipped." in (
        capsys.readouterr().out)


def test_eval_worked_examples(capsys):
    assert main(["eval", "chi E(3): 4D - F"]) == 0
    assert capsys.readouterr().out == "5\n"
    assert main(["eval", "pair E(2): (4h - 2f)*f, h*h"]) == 0
    assert capsys.readouterr().out == "4, 1\n"
    assert main(["eval", "chi F2: 2C0 + 6L"]) == 0
    assert capsys.readouterr().out == "15\n"
    assert main(["eval",
                 "triple E(3): (4D - F)*(4D - F)*(4D - F)"]) == 0
    assert capsys.readouterr().out == "16\n"
    assert main(["eval", "chi E(3): " + "(" * 50 + "4D - F" + ")" * 50]) == 0
    assert capsys.readouterr().out == "5\n"


def test_eval_prints_values_past_the_int_string_limit(capsys):
    # the literal parses (4,000 digits), its chi has about 12,000
    a = 10 ** 4000 - 1
    assert main(["eval", "chi E(3): " + "9" * 4000 + "D"]) == 0
    out = capsys.readouterr().out.strip()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert int(out) == a * (a + 1) * (a + 2) // 6
    finally:
        sys.set_int_max_str_digits(limit)


def test_eval_errors_exit_2(capsys):
    assert main(["eval", "chi E(3): 4D -"]) == 2
    assert "trisect:" in capsys.readouterr().err
    assert main(["eval", "genus E(3): D"]) == 2
    assert "trisect:" in capsys.readouterr().err
    assert main(["eval", "chi E(3): " + "(" * 3000 + "D" + ")" * 3000]) == 2
    assert "nest deeper" in capsys.readouterr().err
    # more digits than Python converts from a string
    assert main(["eval", "chi E(3): " + "9" * 5000 + "D"]) == 2
    assert "too long" in capsys.readouterr().err
    assert main(["eval", "pair E(2): " + "9" * 5000]) == 2
    assert "too long" in capsys.readouterr().err
    assert main(["eval", "chi F" + "1" * 5000 + ": C0"]) == 2
    assert "too long" in capsys.readouterr().err
