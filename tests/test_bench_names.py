"""The benchmark's tracer derives its per-layer metrics from library functions
named in ``bench/spans.py``'s ``REQUIRED`` tuple; a name that no longer
resolves raises the traced metric ``trace.absent_names``.  This reads the
tuple with ``ast``, without importing the benchmark, and checks each name."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def required_names() -> list[str]:
    """``REQUIRED`` of ``bench/spans.py``, with its starred tuples expanded."""
    tuples: dict[str, ast.expr] = {}
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            tuples[node.targets[0].id] = node.value

    def names(expr: ast.expr) -> list[str]:
        out = []
        for item in expr.elts:
            if isinstance(item, ast.Starred):
                out += names(tuples[item.value.id])
            else:
                out.append(ast.literal_eval(item))
        return out

    return names(tuples["REQUIRED"])


def test_required_names_resolve_to_library_functions():
    names = required_names()
    assert "crossings.count_crossings_geometric" in names and "geometry.classify_segments" in names
    absent = []
    for name in names:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"reebdraw.{module}"), attr, None)
        if not (inspect.isfunction(fn) and fn.__module__ == f"reebdraw.{module}"):
            absent.append(name)
    assert absent == []
