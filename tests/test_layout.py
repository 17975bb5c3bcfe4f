"""Source layout: every top-level function and class in the library has a
caller in the library itself, so nothing in `src/` exists only for the
tests; the reach audit's allow-list names library code; the check registry
keeps no cache; the library holds no assert and no float literal; and
plain records are NamedTuples, with a stated reason for each dataclass."""

import ast
import dataclasses
import importlib.util
from pathlib import Path

from trisect.checks import build_checks

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trisect"

# entry points called from outside the package
ENTRY_POINTS = {("cli", "main")}

# the result caches of functools
CACHES = {"cache", "cached_property", "lru_cache"}


def _modules() -> dict:
    """Module name (relative to the package, "" for the package itself) ->
    parsed source."""
    return {("" if path.stem == "__init__" else path.stem):
            ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _imported_names(tree: ast.Module) -> set:
    """(module, name) of every `from <package module> import name`."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            module = node.module or ""
        elif node.module and node.module.startswith("trisect."):
            module = node.module[len("trisect."):]
        else:
            continue
        out.update((module, alias.name) for alias in node.names)
    return out


def _loaded_outside(tree: ast.Module, definition) -> bool:
    """True when the module loads the defined name anywhere outside the
    definition itself."""
    inside = {id(node) for node in ast.walk(definition)}
    return any(isinstance(node, ast.Name) and node.id == definition.name
               and isinstance(node.ctx, ast.Load) and id(node) not in inside
               for node in ast.walk(tree))


def test_every_top_level_definition_has_a_library_caller():
    modules = _modules()
    unused = []
    for name, tree in modules.items():
        imported = set().union(*(_imported_names(other)
                                 for other_name, other in modules.items()
                                 if other_name != name))
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef,
                                           ast.AsyncFunctionDef,
                                           ast.ClassDef)):
                continue
            if ((name, definition.name) in ENTRY_POINTS
                    or (name, definition.name) in imported
                    or _loaded_outside(tree, definition)):
                continue
            unused.append(f"{name}.{definition.name}")
    assert unused == []


def _name(node) -> str:
    """The name a decorator or a called expression ends in."""
    if isinstance(node, ast.Call):
        return _name(node.func)
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", "")


def test_check_registry_keeps_no_cache():
    # a record cached in the registry charges its cost to the first row
    # that reads it, and its siblings read 0 ms
    tree = _modules()["checks"]
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "functools" for alias in node.names}
    decorators = {_name(d) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  for d in node.decorator_list}
    assert not (imported | decorators) & CACHES


def _reach():
    """scripts/reach.py as a module; importing it runs no command."""
    spec = importlib.util.spec_from_file_location(
        "reach", ROOT / "scripts" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reach_allow_list_names_library_code():
    # a rename in src/ must update the list: each entry names a function or
    # class of the package, and each statement it covers is in it
    reach = _reach()
    defined = reach.definitions(PACKAGE)
    judged = [(qualname, source) for _, qualname, _, source
              in reach.judged_statements(PACKAGE)]
    stale = []
    for name, caller, pieces in reach.ALLOWED:
        if name not in defined or not caller:
            stale.append(name)
        stale.extend(f"{name}: {piece}" for piece in pieces
                     if not any(piece in source for qualname, source in judged
                                if qualname == name
                                or qualname.startswith(name + ".")))
    assert stale == []


def test_library_holds_no_assert_and_no_float_literal():
    # `python -O` strips asserts, so no check may rest on one; a float
    # literal would slip inexact values into exact arithmetic
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)
             or (isinstance(node, ast.Constant)
                 and isinstance(node.value, (float, complex)))]
    assert found == []


_TORSION_VALUE = "a tuple-backed torsion value is its own change"

# the only dataclasses of the library, each with the reason it is not a
# NamedTuple; every other record is one, as a NamedTuple is cheaper to build
DATACLASSES = {
    ("report", "Check"):
        "perfbench's traced run rebinds each check's run with"
        " dataclasses.replace",
    ("covers", "FeClass"):
        "report rows hold it and render it through str(), where a tuple"
        " renders as a list; and fe * 3 must not repeat a tuple",
    ("torsion", "TorsionPt"): _TORSION_VALUE,
    ("torsion", "Triple"): _TORSION_VALUE,
    ("torsion", "AffineMap"): _TORSION_VALUE,
    ("torsion", "Locus"): _TORSION_VALUE,
}


def test_dataclasses_are_the_listed_ones():
    found = {(path.stem, node.name)
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ClassDef)
             and any(_name(d) == "dataclass" for d in node.decorator_list)}
    assert found == set(DATACLASSES)


def test_every_check_takes_a_replaced_run():
    # the call perfbench's traced run makes on each check
    for check in build_checks(("all",)):
        traced = dataclasses.replace(check, run=print)
        assert traced.run is print and traced.check_id == check.check_id
