"""Every name a library module or test file imports is used in that file,
every private helper is used somewhere in the library, and the library's
modules import each other without a cycle as they load.

No linter ships with the project, so this walks each file's syntax tree:
an imported name must appear as an ``ast.Name`` somewhere in the file.
The library's ``__init__.py`` re-exports its imports and is left out, as is
``from __future__``.  A module-level function or class whose name starts
with one underscore, and a method (cached properties included) of a
module-level class whose name does, must be named (as a name, an attribute
or an import) somewhere in the library outside its own definition, so that
no helper survives only for the tests.  A public module-level function must
be exported in ``reebdraw.__all__``, named in the library outside its own
definition, or counted by the benchmark's tracer (``COUNTED`` in
``bench/spans.py``), so that no entry point survives only for the tests.

The command-line front end imports no private name from the library, so
each step it runs is one of the public functions that the benchmark's tracer
(``bench/spans.py``) wraps.  The tracer wraps a library function only where
it is defined, and names one it cannot find only during a traced run; each
name it needs must be a function defined in the module it is named after.
"""

from __future__ import annotations

import ast
import graphlib
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import FIVE_CHORDS_SOURCE

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "reebdraw"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))


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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _names_outside_own_definition(node: ast.AST, own: frozenset[str] = frozenset()) -> set[str]:
    """Every name, attribute and imported name under ``node``, leaving out a
    definition's mentions of itself inside its own body."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        own = own | {node.name}
    if isinstance(node, ast.Name):
        found = {node.id}
    elif isinstance(node, ast.Attribute):
        found = {node.attr}
    elif isinstance(node, ast.ImportFrom):
        found = {alias.name for alias in node.names}
    else:
        found = set()
    found -= own
    for child in ast.iter_child_nodes(node):
        found |= _names_outside_own_definition(child, own)
    return found


def unreferenced_helpers(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private module-level function or class, and
    ``module.Class.name`` of each private method of a module-level class, in
    ``sources`` (module name to source) that nothing else names."""
    defined: list[tuple[str, str]] = []  # (qualified name, name)
    named: set[str] = set()
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for module, source in sources.items():
        tree = ast.parse(source)
        for stmt in tree.body:
            if isinstance(stmt, (*defs, ast.ClassDef)) and _private(stmt.name):
                defined.append((f"{module}.{stmt.name}", stmt.name))
            if isinstance(stmt, ast.ClassDef):
                defined.extend((f"{module}.{stmt.name}.{f.name}", f.name)
                               for f in stmt.body if isinstance(f, defs) and _private(f.name))
        named |= _names_outside_own_definition(tree)
    return [qualified for qualified, name in defined if name not in named]


def uncalled_functions(sources: dict[str, str], exported: set[str], counted: set[str]) -> list[str]:
    """``module.name`` of each public module-level function in ``sources``
    (module name to source) that is not in ``exported``, not listed in
    ``counted`` as ``module.name``, and not named in any of ``sources``
    outside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reached = exported.union(*map(_names_outside_own_definition, trees.values()))
    return [f"{module}.{stmt.name}" for module, tree in trees.items() for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not stmt.name.startswith("_")
            and stmt.name not in reached and f"{module}.{stmt.name}" not in counted]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES + TEST_FILES,
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
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


def test_the_check_sees_an_unused_method():
    sources = {
        "a": "from functools import cached_property\n\n"
             "class Shape:\n"
             "    @cached_property\n    def _frame(self):\n        return self._frame\n\n"
             "    @cached_property\n    def _view(self):\n        return self._points()\n\n"
             "    def _points(self):\n        return 1\n\n"
             "    def __repr__(self):\n        return 's'\n",
        "b": "def f(shape):\n    return shape._view\n",
    }
    assert unreferenced_helpers(sources) == ["a.Shape._frame"]


def test_every_public_function_has_a_caller(monkeypatch):
    import reebdraw

    sources = {p.stem: p.read_text() for p in MODULES}
    counted = set(load_spans(monkeypatch).COUNTED)
    assert uncalled_functions(sources, set(reebdraw.__all__), counted) == []


def test_the_check_sees_an_uncalled_function():
    sources = {
        "a": "def dead():\n    return dead()\n\n"
             "def exported():\n    pass\n\n"
             "def counted():\n    pass\n\n"
             "def imported():\n    pass\n\n"
             "def local():\n    pass\n\n"
             "def f():\n    return local()\n\n"
             "def _private():\n    pass\n\n"
             "class Shape:\n    def method(self):\n        pass\n",
        "b": "from .a import imported\n\n"
             "def g(m):\n    return m.f()\n",
    }
    assert uncalled_functions(sources, {"exported"}, {"a.counted"}) == ["a.dead", "b.g"]


def import_cycle(sources: dict[str, str]) -> list[str]:
    """A cycle among the relative imports that ``sources`` (module name to
    source) run as they load, as ``graphlib`` reports it, or ``[]``.  Imports
    in function bodies and under ``if TYPE_CHECKING:`` do not run then."""
    graph = {}
    for module, source in sources.items():
        graph[module] = deps = set()
        stack: list[ast.AST] = [ast.parse(source)]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps |= {node.module} if node.module else {alias.name for alias in node.names}
            elif not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      or isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"):
                stack.extend(ast.iter_child_nodes(node))
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        return exc.args[1]
    return []


def test_the_library_imports_form_no_cycle():
    assert import_cycle({p.stem: p.read_text() for p in SRC.glob("*.py")}) == []


def test_the_check_sees_an_import_cycle():
    # b imports c only under TYPE_CHECKING and in a call, so only a and b form a cycle.
    sources = {"a": "from .b import f\n",
               "b": "if TYPE_CHECKING:\n    from .c import g\nfrom . import a\ndef f():\n    from .c import g\n",
               "c": "from .b import f\n"}
    assert import_cycle(sources) == ["a", "b", "a"]
    del sources["a"]
    assert import_cycle(sources) == []


def private_relative_imports(source: str) -> list[str]:
    """Each private name that ``source`` imports from its own package
    (``from .x import _y``), as ``line n: _y``."""
    return [f"line {node.lineno}: {alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if _private(alias.name)]


def test_the_cli_imports_no_private_library_name():
    assert private_relative_imports((SRC / "cli.py").read_text()) == []


def test_the_check_sees_a_private_relative_import():
    source = ("from os import _exit\nfrom .a import _b, c, __version__\n"
              "def f():\n    from ..d import (\n        e,\n        _g,\n    )\n")
    assert private_relative_imports(source) == ["line 2: _b", "line 4: _g"]


def misplaced(names, package: str = "reebdraw") -> list[str]:
    """Each ``module.function`` in ``names`` that is not a function defined
    in ``package.module``."""
    wrong = []
    for name in names:
        short, attr = name.split(".")
        fn = getattr(importlib.import_module(f"{package}.{short}"), attr, None)
        if not (inspect.isfunction(fn) and fn.__module__ == f"{package}.{short}"):
            wrong.append(name)
    return wrong


def load_spans(monkeypatch):
    """``bench/spans.py`` as a module, loaded without writing bytecode under ``bench/``."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_is_a_library_function(monkeypatch):
    spans = load_spans(monkeypatch)
    names = [*spans.REQUIRED, *spans.PRIVATE]
    assert "crossings.count_crossings_geometric" in names and "geometry.classify_segments" in spans.REQUIRED
    assert misplaced(names, spans.PACKAGE) == []


def test_the_check_sees_a_moved_or_missing_function(monkeypatch):
    import reebdraw.crossings
    import reebdraw.geometry

    monkeypatch.setattr(reebdraw.crossings, "count_crossings_geometric", lambda d: None)
    monkeypatch.setattr(reebdraw.crossings, "levels", reebdraw.geometry.on_segment)
    monkeypatch.delattr(reebdraw.geometry, "classify_segments")
    names = ["crossings.count_crossings_geometric", "crossings.levels", "geometry.classify_segments",
             "geometry.on_segment", "crossings.Drawing"]
    assert misplaced(names) == names[:3] + names[4:]


def test_gadget_verify_counts_its_drawing_under_a_traced_call(monkeypatch, tmp_path, capsys):
    # The tracer times ``gadget.drawing_s`` and ``gadget.drawing_attempts``
    # from the spans under ``arrangement_to_drawing``; a count the CLI reached
    # through a private helper would have no parent and land in the CLI's own time.
    import reebdraw.cli

    tracer = load_spans(monkeypatch).Tracer()
    graph = tmp_path / "triangle.json"
    graph.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}))
    tracer.install()
    try:
        code = reebdraw.cli.main(["gadget", "verify", "--graph", str(graph), "-o", str(tmp_path / "out.json")])
    finally:
        tracer.uninstall()
    counts = [s for s in tracer.spans if s.name == "crossings.count_crossings_geometric"]
    assert (code, capsys.readouterr().err, tracer.absent) == (0, "", [])
    assert counts and all(s.parent is not None and s.parent.name == "gadget.arrangement_to_drawing"
                          for s in counts)


def test_the_tracer_counts_the_counters_pair_tests(monkeypatch):
    # ``crossings.pair_tests`` and ``hit_ratio`` read the tracer's count of
    # ``geometry.classify_segments`` under ``count_crossings_geometric``; the
    # five-chords drawing takes 322 pair tests, and the counter makes no
    # ``on_segment`` call of its own.
    import reebdraw.crossings
    from reebdraw import OlaGraph, arrangement_to_drawing, ola_brute, ola_reduce

    source = OlaGraph(tuple(FIVE_CHORDS_SOURCE["vertices"]), tuple(map(tuple, FIVE_CHORDS_SOURCE["edges"])))
    best = ola_brute(source)
    d, cert = arrangement_to_drawing(ola_reduce(source, best.cost), best)
    tracer = load_spans(monkeypatch).Tracer()
    tracer.install()
    try:
        assert reebdraw.crossings.count_crossings_geometric(d) == cert
    finally:
        tracer.uninstall()
    on_segment = sum(n for (name, _), n in tracer.counts.items() if name == "geometry.on_segment")
    assert tracer.absent == []
    assert tracer.counts[("geometry.classify_segments", "crossings.count_crossings_geometric")] == 322
    assert on_segment == 0


def test_cli_start_up_loads_no_introspection_modules():
    # In a fresh interpreter: this process has imported ``inspect`` and ``ast``
    # itself.  ``dataclasses`` pulls in ``inspect``, which pulls in ``ast``,
    # ``dis`` and ``tokenize``, a cost every CLI process would pay at start-up;
    # an XML escape from ``xml.sax.saxutils`` pulls in ``urllib.request``.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import reebdraw.cli; reebdraw.cli.build_parser(); "
            "print(' '.join(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'xml', 'html', 'urllib'} "
            "& (set(sys.modules) - before))))")
    out = subprocess.run([sys.executable, "-I", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == []
