"""Benchmark of the trisect checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` as it stands, so nothing needs installing.  Every sample is a fresh
child interpreter, started one at a time and waited for: the program's
``lru_cache``s would turn any in-process repeat into a cache hit.

Workloads (why each was chosen is in WORKLOADS below):

* ``verify-default``: ``trisect verify`` with no options; each process then
  answers the seed's eval statements (queries.py), which the command itself
  never evaluates;
* ``queries-random``: the seed's batch of Q(w) queries with denominators and
  loci at levels 6-48 (queries.py), one client in a closed loop.

A run repeats its one job, fixed by the seed, in fresh processes until the
time is up.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics (why a time is corrected for the speed of its process is said
above SETUP_EVERY_S):

* ``setup_s``: spawn to ``import trisect.cli`` plus ``build_checks(("all",))``
  done (import only, on queries-random), median of probes taken every
  SETUP_EVERY_S;
* ``process_s``: wall time of one fresh job process, spawn to the verify
  command's return or to the last answer, summed over its parts
  (steady_parts);
* ``peak_rss_mb``: median over those processes of ``ru_maxrss`` up to the
  same point;
* ``fulton_ms.p50/.p90``, ``locus_us.p50/.p90``, ``eval_us.p50/.p90``:
  latency of one ``fulton_mult``, ``intersect_loci`` or
  ``evaluate_statement`` call, each call's taken over its repeats
  (steady_parts), per kind; the kinds differ by about 1000x, so they are
  never pooled.

Failures are the result's ``failed`` over ``attempted``: a check that is not
PASS, every check of a verify report whose exit code, row count or digest
is wrong, every query whose answer fails its independent check, and every
job that gives no result.

With ``--trace 1`` it carries the per-layer metrics of a separate traced
run (see tracing.py).  Each line before the last is a JSON record of the
host, the sample counts and the query inputs, so a noisy run can be told
apart.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

WORKLOADS = {
    # The command every user and CI runs: all 8 suites at level 24, JSON.
    # Field, curves and heisenberg do most of the work (fulton_mult over
    # Q(w)); the latencies are those of the command's own fulton_mult and
    # intersect_loci calls.  The command makes no evaluate_statement call,
    # so each process then answers the seed's eval statements.
    "verify-default": {"job": "verify", "rows": 206, "build": True},
    # Seeded API queries alone: rational coefficients, loci at levels 6-48
    # and controlled repeats, so clearing denominators and uncached torsion
    # work show here.
    "queries-random": {"job": "queries", "build": False},
}

# On a shared 2-core host the same code ran fast or up to twice as slow, in
# phases from a fraction of a second to tens of seconds that consecutive
# processes share; the CPU time is user time.  So a run repeats one job,
# fixed by the seed, in fresh processes for the whole run, and each part of
# the job is timed at the speed of the run's fast phases (steady_parts).
SETUP_EVERY_S = 4.0
SETUP_PROBES = 8
# a latency percentile is reported with at least this many calls beyond it
# where the job makes that many (the verify command makes 12 intersect_loci
# calls)
TAIL_FLOOR = 10
END_TO_END_UNITS = {
    "setup_s": "s", "process_s": "s", "peak_rss_mb": "MB",
    "fulton_ms.p50": "ms", "fulton_ms.p90": "ms",
    "locus_us.p50": "us", "locus_us.p90": "us",
    "eval_us.p50": "us", "eval_us.p90": "us",
}
LATENCY_SCALE = {"fulton": ("fulton_ms", 1e6), "locus": ("locus_us", 1e3),
                 "eval": ("eval_us", 1e3)}
SUITES = ("field", "curves", "heisenberg", "torsion", "ring", "lattice",
          "cover", "exclusion")


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout."""


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONOPTIMIZE", "PYTHONPATH", "PYTHONHOME",
                        "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Child:
    """One child interpreter: its stdout and its wall time up to a marker
    line (or to exit)."""

    def __init__(self, args, marker=None):
        self.spawn_ns = time.perf_counter_ns()
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), *args], cwd=ROOT, env=_child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.marked = None
        lines = []
        try:
            if marker is not None:
                for line in self.proc.stdout:
                    if line.rstrip("\n") == marker:
                        self.marked = time.perf_counter() - self.start
                        break
                    lines.append(line)
            lines.append(self.proc.stdout.read())
            self.stderr = self.proc.stderr.read()
        finally:
            self.proc.wait()
            self.proc.stdout.close()
            self.proc.stderr.close()
        self.wall = time.perf_counter() - self.start
        self.stdout = "".join(lines)
        self.returncode = self.proc.returncode
        if self.marked is None:
            self.marked = self.wall

    def last_json(self):
        lines = self.stdout.strip().splitlines()
        if self.returncode != 0 or not lines:
            raise BenchError(f"child {self.proc.args[2:]} exited"
                             f" {self.returncode}: {self.stderr[-400:]}")
        return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# correctness of verify reports
# ---------------------------------------------------------------------------

def report_rows(text: str) -> list:
    """(suite, check_id, status, expected, actual) of every row of a JSON
    report; `millis` and any other keys are left out."""
    return [(r["suite"], r["check_id"], r["status"], r["expected"],
             r["actual"]) for r in json.loads(text)["results"]]


def digest(rows) -> str:
    text = "\n".join(json.dumps(list(r), sort_keys=True) for r in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def expected_digest(workload: str):
    digests = json.loads((HERE / "digests.json").read_text())
    return digests.get(workload)


def tally(out: dict, spec: dict, want, checked=None) -> tuple:
    """(attempted, failed, failure notes) of one job's output: every
    query, and for the verify job every check of its report.  A query fails
    its independent check, or, in a repeat run without one, gives another
    answer than the `checked` repeat did.  A check that is not PASS fails;
    all of them fail when the exit code, the row count or the digest of the
    report is wrong."""
    attempted, failed = out["attempted"], out["failed"]
    notes = list(out["failures"])
    if checked is not None:
        changed = sum(1 for mine, good in zip(out["answers"], checked)
                      if mine != good)
        changed += abs(len(out["answers"]) - len(checked))
        failed += changed
        if changed:
            notes.append(f"{changed} answers differ from the checked repeat")
    if spec["job"] == "verify":
        attempted += spec["rows"]
        try:
            rows = report_rows(out["report"])
        except (ValueError, KeyError, IndexError, TypeError):
            rows = []
        if (out["exit"] != 0 or len(rows) != spec["rows"]
                or digest(rows) != want):
            bad = spec["rows"]
        else:
            bad = sum(1 for r in rows if r[2] != "PASS")
        failed += bad
        if bad:
            notes.append(f"{bad} checks failed; exit {out['exit']}")
    return attempted, failed, notes


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def p90(values):
    return quantiles(values, n=10, method="inclusive")[8]


def host_record(when: str) -> dict:
    return {"when": when, "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "loadavg": os.getloadavg()}


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def _diffs(marks) -> list:
    return [b - a for a, b in zip(marks, marks[1:])]


def steady_parts(runs) -> tuple:
    """process_s in ns and each kind's call latencies in ns, from identical
    job processes, each process's times divided by its speed.

    The host runs the same code at full speed or at about half of it, in
    phases from a fraction of a second to tens of seconds.  A process's
    speed is the median over its calls of how much slower a call ran than
    its fastest repeat in the run; a call's latency is the median over the
    processes of its time over their speed.  A call whose every repeat fell
    in slow phases thus still reads at the speed of the run's fast phases,
    which its fastest repeat alone would not.

    A process is cut at the start and the end of each logged call before
    `done`.  Its parts are spawn to the first call, each call, each gap
    between two calls, and the last call to done; process_s is the sum of
    their latencies, less the parts logged with no kind: the benchmark's
    own work of building inputs."""
    rows, durations = [], []
    for run in runs:
        head = [c for c in run["calls"] if c[2] <= run["done_ns"]]
        rows.append(_diffs([run["spawn_ns"], *(t for c in head for t in c[1:]),
                            run["done_ns"]]))
        labels = ["gap", *(x for c in head for x in (c[0], "gap"))]
        timed = [c for c in run["calls"] if c[0] is not None]
        durations.append([end - start for _, start, end in timed])
        kinds = [c[0] for c in timed]
    shapes = {f"parts:{len(row)}" for row in rows} | {
        f"calls:{len(row)}" for row in durations}
    if len(shapes) != 2 or len(runs) < 2 or any(
            kinds.count(kind) < 2 for kind in LATENCY_SCALE):
        raise BenchError(f"repeats of one job made different or too few"
                         f" timed calls: {sorted(shapes)}")
    best = [max(1, min(column)) for column in zip(*durations)]
    speed = [median(d / b for d, b in zip(row, best)) for row in durations]
    latency = [median(d / s for d, s in zip(column, speed))
               for column in zip(*durations)]
    process = sum(median(v / s for v, s in zip(column, speed))
                  for label, column in zip(labels, zip(*rows))
                  if label is not None)
    return process, {kind: [x for x, k in zip(latency, kinds) if k == kind]
                     for kind in LATENCY_SCALE}


def measure(workload: str, seed: int, seconds: float) -> tuple:
    spec = WORKLOADS[workload]
    want = expected_digest(workload)
    setup_args = ["setup"] + (["--build"] if spec["build"] else [])
    job = [spec["job"], str(seed)]
    Child(setup_args, marker="ready")   # compile and cache the bytecode

    setups, walls, runs = [], [], []
    checked = None      # answer keys of the first job, checked in full
    attempted = failed = 0
    failures = []
    start = time.perf_counter()
    last_setup = None
    while True:
        if last_setup is None or time.perf_counter() - last_setup >= SETUP_EVERY_S:
            setups.append(Child(setup_args, marker="ready").marked)
            last_setup = time.perf_counter()
        elapsed = time.perf_counter() - start
        if elapsed + (median(walls) if walls else 0.0) > seconds:
            break
        child = Child(job if checked else [*job, "--check"], marker="done")
        walls.append(child.wall)
        try:
            out = child.last_json()
        except (BenchError, ValueError) as exc:
            attempted += 1
            failed += 1
            failures.append(str(exc))
            continue
        done = tally(out, spec, want, checked)
        attempted += done[0]
        failed += done[1]
        failures.extend(done[2])
        checked = checked or out["answers"]
        out["spawn_ns"] = child.spawn_ns
        runs.append(out)
    if not runs:
        raise BenchError(f"no {spec['job']} job gave a result:"
                         f" {failures[:3]}")
    while len(setups) < SETUP_PROBES:
        setups.append(Child(setup_args, marker="ready").marked)

    process_ns, latencies = steady_parts(runs)
    metrics = {"setup_s": median(setups), "process_s": process_ns / 1e9,
               "peak_rss_mb": median(r["rss_kb"] / 1024 for r in runs)}
    samples = {"setup": len(setups), "jobs": len(runs)}
    for kind, (name, scale) in LATENCY_SCALE.items():
        values = [value / scale for value in latencies[kind]]
        metrics[f"{name}.p50"] = median(values)
        metrics[f"{name}.p90"] = tail = p90(values)
        beyond = sum(1 for value in values if value > tail)
        samples[kind] = {"calls": len(values), "beyond_p90": beyond,
                         "floor": TAIL_FLOOR}
        if beyond < TAIL_FLOOR:
            print(f"run.py: {kind}: {beyond} of {len(values)} calls beyond"
                  f" p90, under {TAIL_FLOOR}", file=sys.stderr)
    record = {"samples": samples, "properties": runs[0].get("properties"),
              "failures": failures[:5]}
    return metrics, attempted, failed, record


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def _span_layers(out: dict) -> dict:
    spans, counters = out["spans"], out["counters"]

    def total(name, key="s"):
        return spans.get(name, {}).get(key, 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    layers = {
        "curves.fulton_calls": calls("curves.fulton"),
        "curves.fulton_s": total("curves.fulton"),
        "heisenberg.decompose_s": total("heisenberg.decompose"),
        "heisenberg.containment_s": total("heisenberg.containment"),
        "heisenberg.pairs_s": total("heisenberg.pairs"),
        "heisenberg.self_s": sum(total(f"heisenberg.{n}", "self_s")
                                 for n in ("decompose", "containment", "pairs")),
        "torsion.base_points_s": total("torsion.base_points"),
        "torsion.intersect_calls": calls("torsion.intersect"),
        "torsion.intersect_s": total("torsion.intersect"),
        "torsion.curve_triples_calls": calls("torsion.curve_triples"),
        "torsion.curve_triples_misses": counters["torsion.curve_triples_misses"],
        "torsion.curve_triples_s": total("torsion.curve_triples"),
        "torsion.params_enumerated": counters["torsion.params_enumerated"],
        "torsion.keep_ratio": (counters["torsion.triples_kept"]
                               / counters["torsion.params_enumerated"]
                               if counters["torsion.params_enumerated"] else 0.0),
        "rings.lattice_rank_calls": calls("rings.lattice_rank"),
        "rings.lattice_rank_s": total("rings.lattice_rank"),
        "checks.build_s": total("checks.build"),
        "report.run_checks_s": total("report.run_checks"),
        "report.render_s": total("report.render"),
        "expr.parse_s": total("expr.parse"),
        "expr.evaluate_s": total("expr.evaluate"),
    }
    for suite in SUITES:
        layers[f"checks.{suite}_s"] = total(f"checks.{suite}")
    return layers


def trace_run(workload: str, seed: int, seconds: float, out_dir: Path) -> tuple:
    """Untraced, span and count passes of the same job, alternating, at
    least two of each.  Returns per-layer metrics and a record."""
    spec = WORKLOADS[workload]
    want = expected_digest(workload)
    job = [spec["job"], str(seed), "--check"]
    passes = {"plain": [], "spans": [], "counts": []}
    attempted = failed = 0
    start = time.perf_counter()
    round_s = 0.0
    while (len(passes["plain"]) < 2
           or time.perf_counter() - start + round_s <= seconds):
        round_start = time.perf_counter()
        for name in passes:
            args = job if name == "plain" else ["trace", name, *job]
            child = Child(args, marker="done")
            out = child.last_json()
            out["wall_s"] = child.marked
            done = tally(out, spec, want)
            attempted += done[0]
            failed += done[1]
            passes[name].append(out)
        round_s = time.perf_counter() - round_start

    # counts come from the first pass and must repeat exactly in the others;
    # times are medians over the passes
    runs = [dict(_span_layers(spans), **counts["counters"])
            for spans, counts in zip(passes["spans"], passes["counts"])]
    layers = {key: value if _unit(key) == "count" else
              median([run[key] for run in runs])
              for key, value in runs[0].items()}
    unsteady = sorted({key for run in runs[1:] for key in run
                       if _unit(key) == "count" and run[key] != runs[0][key]})
    layers["trace.count_mismatches"] = len(unsteady)
    if unsteady:
        print(f"run.py: counts differ between passes of the same job:"
              f" {', '.join(unsteady)}", file=sys.stderr)
    layers["field.eis_per_fulton"] = (
        layers["field.eis_new_in_fulton"] / layers["curves.fulton_calls"]
        if layers["curves.fulton_calls"] else 0.0)

    # traced wall time of the process up to `done`, less the untraced one,
    # each the fastest of its passes
    traced = min(out["wall_s"] for out in passes["spans"])
    plain = min(out["wall_s"] for out in passes["plain"])
    layers["trace.overhead_s"] = traced - plain

    out_dir.mkdir(exist_ok=True)
    (out_dir / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed,
         "span_log": passes["spans"][0]["span_log"]}))
    record = {"passes": {k: len(v) for k, v in passes.items()},
              "bindings": passes["spans"][0]["bindings"],
              "unsteady_counts": unsteady}
    return layers, attempted, failed, record


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_fulton")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        print("run.py: refusing to run with -O: it strips the program's"
              " certificate asserts", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "trisect" / "cli.py").is_file():
        print(f"run.py: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    print(json.dumps(host_record("start")), flush=True)
    try:
        if args.trace:
            metrics, attempted, failed, record = trace_run(
                args.workload, args.seed, args.seconds, ROOT / ".bench_out")
            units = {name: _unit(name) for name in metrics}
        else:
            metrics, attempted, failed, record = measure(
                args.workload, args.seed, args.seconds)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record), flush=True)
    print(json.dumps(host_record("end")), flush=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
