"""Every name a library module imports is used in that module, and every
private helper is used somewhere in the library.

No linter ships with the project, so this walks each module's syntax tree:
an imported name must appear as an ``ast.Name`` somewhere in the module.
``__init__.py`` re-exports its imports and is left out, as is
``from __future__``.  A module-level function or class whose name starts
with one underscore must be named (as a name, an attribute or an import)
by some top-level statement of the library other than its own definition,
so that no helper survives only for the tests.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "reebdraw"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def unreferenced_helpers(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private module-level function or class in
    ``sources`` (module name to source) that nothing else names."""
    defined: list[str] = []
    named: set[str] = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if stmt.name.startswith("_") and not stmt.name.startswith("__"):
                    own = stmt.name
                    defined.append(f"{module}.{own}")
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.ImportFrom):
                    named.update(alias.name for alias in node.names)
                    continue
                else:
                    continue
                if name != own:
                    named.add(name)
    return [qualified for qualified in defined if qualified.split(".")[1] not in named]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "from math import inf, lcm\nimport os.path\n\nx = lcm(2, 3)\n"
    assert unused_imports(source) == ["line 1: inf", "line 2: os"]


def test_every_private_helper_is_used_in_the_library():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_helpers(sources) == []


def test_the_check_sees_an_unused_helper():
    sources = {
        "a": "def _dead():\n    return _dead()\n\n"
             "def _local():\n    return 1\n\n"
             "class _Shown:\n    pass\n\n"
             "def f():\n    return _local()\n",
        "b": "from .a import _Shown\n\n"
             "def _by_attribute():\n    pass\n\n"
             "def g(m):\n    return m._by_attribute\n",
    }
    assert unreferenced_helpers(sources) == ["a._dead"]
