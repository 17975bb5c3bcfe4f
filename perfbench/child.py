"""One fresh interpreter of the benchmark.  run.py starts it, one at a time.

    child.py setup [--build]          import trisect.cli (and build all checks)
    child.py JOB                      JOB is one of
             verify SEED [--check]    `trisect verify`, then SEED's eval statements
             queries SEED [--check]   answer SEED's queries-random batch
    child.py trace spans|counts JOB   JOB, traced (see tracing.py)

A job prints `done` when its command is over (the verify command has
returned, or the last query is answered), and notes the time and its peak
RSS up to there; then it prints one JSON line with a key for every answer;
with --check it first checks every answer by its independent route
(queries.py).  Untraced, a thin wrapper logs the start and end of every
call of fulton_mult, intersect_loci and evaluate_statement; it is written
into every trisect module that imports the function, so the calls the verify
command makes are timed too.

The program's caches live for one process, so every job starts cold.
`-O` strips the certificate asserts in covers.py and rings.py, which would
time a different program, so every mode refuses to run under it.
"""

import io
import json
import random
import resource
import sys
import time

# latency kind: (module, function)
TIMED = {"fulton": ("trisect.curves", "fulton_mult"),
         "locus": ("trisect.torsion", "intersect_loci"),
         "eval": ("trisect.expr", "evaluate_statement")}


def _refuse_optimized():
    if sys.flags.optimize:
        print("child: refusing to run with -O or PYTHONOPTIMIZE",
              file=sys.stderr)
        sys.exit(3)


def _setup(args):
    import trisect.cli  # noqa: F401
    if args == ["--build"]:
        from trisect.checks import build_checks
        build_checks(("all",))
    print("ready", flush=True)


# the timed calls, (kind, start_ns, end_ns) in call order
CALL_LOG = []


def _timed(kind, fn):
    clock = time.perf_counter_ns

    def timed(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            CALL_LOG.append((kind, start, clock()))
    return timed


def _install_timers():
    import trisect.cli  # noqa: F401  (imports every module)
    import tracing
    for kind, (module, attr) in TIMED.items():
        fn = getattr(sys.modules[module], attr)
        tracing.replace_everywhere(fn, _timed(kind, fn))


def _library_call(query):
    """The API call a generated query makes, with its inputs built: the
    module, the function's name in it (looked up at call time, so the
    installed wrapper is called) and the arguments."""
    from trisect import curves, expr, torsion
    from trisect.field import Eis
    kind = query["kind"]
    if kind == "fulton":
        f, g = (curves.Form({m: Eis(*c) for m, c in form.items()})
                for form in (query["f"], query["g"]))
        point = curves.ProjPoint(*(Eis(*c) for c in query["point"]))
        return curves, "fulton_mult", (f, g, point)
    if kind == "locus":
        curve = torsion.curve_locus(query["label"], tuple(
            (torsion.TorsionPt.make(*shift), mult)
            for shift, mult in query["maps"]))
        if query["surface"] == "Y":
            surface = torsion.locus_Y()
        else:
            make = torsion.locus_D if query["surface"] == "D" else torsion.locus_F
            surface = make(torsion.TorsionPt.make(*query["anchor"]))
        return torsion, "intersect_loci", (curve, surface, query["level"])
    return expr, "evaluate_statement", (query["text"],)


def _done() -> dict:
    """Mark the end of the job's command: its time, and the peak RSS so
    far in KiB, which the work after the mark does not raise."""
    now = time.perf_counter_ns()
    print("done", flush=True)
    return {"done_ns": now,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def _ask(calls) -> list:
    """Make each call in order, in a closed loop with one client; an
    exception is the answer."""
    answers = []
    for module, name, args in calls:
        try:
            answers.append(getattr(module, name)(*args))
        except Exception as exc:  # a failed query, counted by _checked
            answers.append(exc)
    return answers


def _answer_key(query, answer) -> str:
    """An answer as text that compares equal between processes."""
    import queries
    if isinstance(answer, Exception):
        return f"error {type(answer).__name__}"
    if query["kind"] == "locus":
        return repr(sorted(queries.locus_answer_key(answer, query)))
    return repr(answer)


def _checked(batch, answers, check) -> dict:
    """Each answer against its independent route when `check`; otherwise
    only raised exceptions fail here, and run.py compares the answer keys
    with those of a checked repeat."""
    import queries
    failed = []
    for i, (query, answer) in enumerate(zip(batch, answers)):
        if isinstance(answer, Exception):
            ok = False
        elif not check:
            ok = True
        elif query["kind"] == "fulton":
            ok = str(answer) == str(queries.fulton_oracle(query))
        elif query["kind"] == "locus":
            ok = (queries.locus_answer_key(answer, query)
                  == queries.locus_oracle(query))
        else:
            ok = answer == queries.eval_oracle(query)
        if not ok:
            failed.append(i)
    return {"attempted": len(batch), "failed": len(failed),
            "failures": [repr(answers[i])[:200] for i in failed[:5]],
            "answers": [_answer_key(q, a) for q, a in zip(batch, answers)]}


def _verify(seed, check, install) -> dict:
    """`trisect verify` with its report captured, then the eval statements
    of the seed: the verify command makes no evaluate_statement call."""
    install()
    from trisect.cli import main
    real, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = main(["verify"])
        report = sys.stdout.getvalue()
    finally:
        sys.stdout = real
    done = _done()
    import queries
    evals = queries.make_evals(random.Random(seed))
    answers = _ask([_library_call(q) for q in evals])
    return dict(_checked(evals, answers, check), exit=code, report=report,
                **done)


def _queries(seed, check, install) -> dict:
    """The seed's batch, asked once: a second walk in the same process ran
    up to 1.4 times as fast as the first, on a heap the first had grown, so
    every sample is a fresh process.  Building the inputs is logged with no
    kind: it is not the program's work."""
    import trisect.cli  # noqa: F401  (the program's imports come first)
    start = time.perf_counter_ns()
    import queries
    batch = queries.make_batch(seed)
    calls = [_library_call(q) for q in batch]
    CALL_LOG.append((None, start, time.perf_counter_ns()))
    install()
    answers = _ask(calls)
    done = _done()
    return dict(_checked(batch, answers, check),
                properties=queries.properties(batch), **done)


JOBS = ("verify", "queries")


def _run_job(args, install) -> dict:
    """args: JOB SEED [--check]"""
    job, seed, check = args[0], int(args[1]), args[2:] == ["--check"]
    if job == "queries":
        return _queries(seed, check, install)
    return _verify(seed, check, install)


def _job(args) -> dict:
    """The job, with the log of its timed calls."""
    out = _run_job(args, _install_timers)
    out["calls"] = CALL_LOG
    return out


def _trace(args):
    import tracing
    recorder = tracing.Spans() if args[0] == "spans" else tracing.Counts()
    bound = {}

    def install():
        bound.update(recorder.install() or {})

    out = _run_job(args[1:], install)
    if args[0] == "spans":
        out["spans"] = recorder.summary()
        out["counters"] = recorder.counters
        out["bindings"] = bound
        out["span_log"] = recorder.log
    else:
        out["counters"] = recorder.values
    return out


def main(argv):
    _refuse_optimized()
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        _setup(args)
    elif mode in JOBS:
        print(json.dumps(_job(argv)), flush=True)
    elif mode == "trace":
        print(json.dumps(_trace(args)), flush=True)
    else:
        sys.exit(f"child: unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
