#!/usr/bin/env python3
"""Reach audit: the statements of `src/trisect` that the README's commands
never run.

    python3 scripts/reach.py [--src DIR]

The commands run in this process through `trisect.cli.main`, with
`sys.settrace` recording each line run in a frame of the package (the
import included):

* `verify --out PATH`: all suites at the default level, as JSON;
* `verify --suite field --format markdown --out PATH`;
* `verify --suite torsion --torsion-level 6`, to stdout, for the SKIP rows;
* `eval` on one statement for every head and context, the README's four
  examples among them.

A statement in a function body is unreached when none of its own lines ran
(the header, for an `if`, `for`, `while` or `with`).  Never flagged: a
`raise`, a `return NotImplemented`, a docstring, an `except` body, and the
statements of a function or class in ALLOWED, each entry naming the caller
that reaches it outside these commands.  The script prints every flagged
statement, then the raw and the code line counts of the package (code
lines leave out blank lines, comments and docstrings), and exits 1 when it
flagged a statement or a command gave an unexpected exit status.

`--src` audits another source tree, such as an older checkout's `src`,
with this file's commands and allow-list.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import io
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# `eval` statements: the README's four examples, then the other pairs of a
# head and a context, one of them opening with a minus sign as the grammar
# allows.  A head that is undefined on its context is a usage error (exit
# 2), which is part of the traffic too.
EVALS = (
    ("chi E(3): 4D - F", 0),
    ("pair E(2): (4h - 2f)*f, h*h", 0),
    ("chi F2: 2C0 + 6L", 0),
    ("triple E(3): (4D - F)*(4D - F)*(4D - F)", 0),
    ("pair E(3): D*F", 2),
    ("genus E(3): 4D - F", 2),
    ("chi E(2): -f + 4h", 0),
    ("triple E(2): h*f*f", 2),
    ("genus E(2): K + (4h - f)", 0),
    ("pair F2: (2C0 + 7L)*(2C0 + 7L) - 14", 0),
    ("triple F2: C0*L*L", 2),
    ("genus F2: 2C0 + 7L", 0),
)

# (module.qualified name of a function or class, the caller that reaches it
# outside the audited commands, the statements it covers, each given by a
# piece of its first line; none means every statement of the definition)
ALLOWED = (
    # perfbench workloads
    ("torsion.curve_triples",
     "perfbench queries-random: a curve that lies inside the surface", ()),
    ("torsion.intersect_loci",
     "perfbench queries-random: a curve that lies inside the surface",
     ("return curve_triples(l1, m)",)),
    ("curves._local_mult",
     "perfbench fulton queries, both workloads: a branch tangent to v = 0,"
     " and the INFINITE sentinel of the README's local-multiplicity claim",
     ("return INFINITE", "total += min(b)", "if total > budget:",
      "f = _peel_v(f)", "continue")),
    # value types the README documents, with operators the commands skip
    ("field.Eis", "README library map: Q(w) values and their operators", ()),
    ("curves.Form", "README library map: forms over Q(w) and their operators", ()),
    ("curves.ProjPoint", "README library map: projective points", ()),
    ("curves._parse_term",
     "README library map: a form literal with a plain number, as Form prints",
     ("coef = coef * Eis(Fraction(factor))",)),
    ("torsion.Locus", "README library map: loci print as their labels",
     ("return self.label",)),
    ("torsion.intersect_loci",
     "README library map: the curve may come as either argument",
     ("l1, l2 = l2, l1",)),
    ("torsion.member",
     "README library map: a curve whose three maps are constant",
     ("return Triple.of(*(mp.shift for mp in locus.maps)) == triple",)),
    # reached only when a claim fails, each by the test it names
    ("checks._pair_actual",
     "reached only when a claim fails: a mixed entry, fed by"
     " tests/test_heisenberg.py::test_pair_row_reports_a_mixed_entry",
     ("observed.append((cls, str(mults)))",)),
    ("torsion.intersection_term",
     "reached only when a claim fails: a three-anchor term that meets, fed by"
     " tests/test_torsion.py::test_boundary_row_reports_a_three_anchor_hit",
     ("return frozenset((candidate,))",)),
    ("rings.format_e2_class",
     "reached only when a claim fails: a class sum with a zero coefficient,"
     " as tests/test_rings.py::test_e2_class_literals_round_trip prints one",
     ("continue",)),
)


def _commands(out_dir: Path) -> list:
    """(argv, expected exit status) of each audited command."""
    return [
        (["verify", "--out", str(out_dir / "report.json")], 0),
        (["verify", "--suite", "field", "--format", "markdown",
          "--out", str(out_dir / "report.md")], 0),
        (["verify", "--suite", "torsion", "--torsion-level", "6"], 0),
        *((["eval", text], status) for text, status in EVALS),
    ]


def run_traced(package: Path) -> tuple[set, list]:
    """Import `trisect` and run the commands under trace; the lines run in
    the package's files as (path, line), and each command that exited with
    an unexpected status."""
    prefix = str(package) + "/"
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    wrong = []
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(on_call)
        try:
            cli = importlib.import_module("trisect.cli")
            for argv, expected in _commands(Path(tmp)):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    status = cli.main(argv)
                if status != expected:
                    wrong.append(f"{' '.join(argv)}: exit {status}, expected {expected}")
        finally:
            sys.settrace(None)
    return seen, wrong


def _own_lines(node) -> range:
    """The lines of a statement outside its nested bodies."""
    header = {ast.If: "test", ast.While: "test", ast.For: "iter"}
    for kind, field in header.items():
        if isinstance(node, kind):
            return range(node.lineno, getattr(node, field).end_lineno + 1)
    if isinstance(node, ast.With):
        return range(node.lineno, node.items[-1].context_expr.end_lineno + 1)
    return range(node.lineno, node.end_lineno + 1)


def _is_exempt(node) -> bool:
    return (isinstance(node, ast.Raise)
            or (isinstance(node, ast.Return)
                and isinstance(node.value, ast.Name)
                and node.value.id == "NotImplemented"))


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _statements(tree: ast.Module, module: str):
    """(qualified function name, statement) for every statement in a
    function body that the audit judges: not a docstring, a nested
    definition, an exempt statement or in an `except` body."""
    def body(stmts, qualname, in_function):
        for i, node in enumerate(stmts):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield from body(node.body, f"{qualname}.{node.name}",
                                not isinstance(node, ast.ClassDef))
                continue
            if not in_function:
                continue
            if i == 0 and _is_docstring(node):
                continue
            if not isinstance(node, ast.Try) and not _is_exempt(node):
                yield qualname, node
            for field in ("body", "orelse", "finalbody"):
                yield from body(getattr(node, field, []), qualname, True)
            # except bodies are left out

    yield from body(tree.body, module, False)


def definitions(package: Path) -> set:
    """module.qualified name of every function and class in the package."""
    out = set()
    for path, module in _modules(package):
        def walk(nodes, prefix):
            for node in nodes:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    out.add(f"{prefix}.{node.name}")
                    walk(node.body, f"{prefix}.{node.name}")
                elif hasattr(node, "body"):
                    walk(node.body, prefix)
        walk(ast.parse(path.read_text(encoding="utf-8")).body, module)
    return out


def _modules(package: Path):
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield path, ".".join(parts) or "trisect"


def _allowed(qualname: str, source: str) -> bool:
    return any((qualname == name or qualname.startswith(name + "."))
               and (not pieces or any(piece in source for piece in pieces))
               for name, _, pieces in ALLOWED)


def judged_statements(package: Path):
    """(path, qualified name, statement, its first line) of every statement
    the audit judges."""
    for path, module in _modules(package):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for qualname, node in _statements(ast.parse(text), module):
            yield path, qualname, node, lines[node.lineno - 1].strip()


def unreached(package: Path, seen: set) -> list:
    """(path, line, qualified name, first line) of each flagged statement."""
    return [(path, node.lineno, qualname, source)
            for path, qualname, node, source in judged_statements(package)
            if not _allowed(qualname, source)
            and not any((str(path), n) in seen for n in _own_lines(node))]


def code_lines(text: str) -> int:
    """Lines holding a token other than a comment, not inside a docstring."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body \
                and _is_docstring(node.body[0]):
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def sizes(package: Path) -> tuple[int, int]:
    """(raw lines, code lines) over the package's Python files."""
    texts = [path.read_text(encoding="utf-8") for path, _ in _modules(package)]
    return (sum(len(t.splitlines()) for t in texts),
            sum(code_lines(t) for t in texts))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the source tree holding trisect (default: %(default)s)")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    package = src / "trisect"
    sys.path.insert(0, str(src))
    seen, wrong = run_traced(package)
    loaded = Path(sys.modules["trisect"].__file__).resolve().parent
    if loaded != package:
        print(f"reach: imported trisect from {loaded}, not {package}", file=sys.stderr)
        return 2
    flagged = unreached(package, seen)
    for path, line, qualname, source in flagged:
        print(f"{path.relative_to(src)}:{line}  {qualname}  {source}")
    for message in wrong:
        print(f"command: {message}")
    raw, code = sizes(package)
    print(f"{len(flagged)} unreached statements; src/trisect: {raw} raw lines,"
          f" {code} code lines")
    return 1 if flagged or wrong else 0


if __name__ == "__main__":
    sys.exit(main())
