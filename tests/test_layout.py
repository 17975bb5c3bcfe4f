"""Source layout: every top-level function and class in the library has a
caller in the library itself, so nothing in `src/` exists only for the
tests, and the check registry keeps no cache."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trisect"

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
