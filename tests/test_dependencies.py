"""numpy is the only runtime dependency: every module of the package imports
only the standard library, numpy, or the package itself. Every exported name
resolves."""
import ast
import importlib
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
