"""numpy is the only runtime dependency: every module of the package imports
only the standard library, numpy, or the package itself. Every exported name
resolves, and the package itself uses it unless an acceptance gate is its one
caller."""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pseudotal"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "pseudotal"}


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_package(path):
    assert _top_level_imports(path) - ALLOWED == set()


def test_scan_sees_the_package():
    assert len(list(PACKAGE.glob("*.py"))) >= 9
    assert "numpy" in _top_level_imports(PACKAGE / "core.py")


# the package and each of its modules
MODULES = ["pseudotal"] + [
    f"pseudotal.{p.stem}" for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"
]


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


# public names that the command line never reaches, kept because an
# acceptance gate calls them
GATE_ONLY = {"average_precision": "gate 4", "benchmark_many": "gate 8"}


def _loaded_names(node: ast.AST) -> set[str]:
    """Every name read under `node`, bare or as an attribute; a `def`,
    `class`, assignment target or import is no read."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def _bound_names(node: ast.AST) -> set[str]:
    """Every bare name that `node` binds itself: its arguments (and those of
    the functions and lambdas it holds) and its assignment targets."""
    return {n.arg for n in ast.walk(node) if isinstance(n, ast.arg)} | {
        n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    }


def _called_names(stmt: ast.AST) -> set[str]:
    """The names a top-level function or class reaches: `_loaded_names`, less
    the bare names it binds itself, so a local variable that shares a
    function's name does not reach that function."""
    bound = _bound_names(stmt)
    return {
        n.attr if isinstance(n, ast.Attribute) else n.id
        for n in ast.walk(stmt)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
        and not (isinstance(n, ast.Name) and n.id in bound)
    }


def test_every_public_name_is_called():
    """Every `__all__` name and every top-level function or class of the
    package is reached from the command line (`cli.main` and the module-level
    tables), through the bodies of what it reaches; only GATE_ONLY is not."""
    bodies: dict[str, set[str]] = {}
    reached = {"main"}  # the console script's entry point
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(stmt.name, set()).update(_called_names(stmt))
            else:
                reached |= _loaded_names(stmt)
    todo = list(reached)
    while todo:
        for name in bodies.get(todo.pop(), set()) - reached:
            reached.add(name)
            todo.append(name)
    public = {name for module in MODULES for name in importlib.import_module(module).__all__}
    unreached = (public | set(bodies)) - reached
    assert sorted(unreached - set(GATE_ONLY)) == []
    assert sorted(set(GATE_ONLY) - unreached) == []  # a reached name is no gate-only name
    acceptance = (PACKAGE.parents[1] / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    assert sorted(set(GATE_ONLY) - _loaded_names(ast.parse(acceptance))) == []


def test_the_command_line_imports_no_rationals():
    """AP is summed on integers, so no subcommand pays for importing
    `fractions` (and `decimal`, which it imports)."""
    code = "import sys, pseudotal.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout == "[]\n"
