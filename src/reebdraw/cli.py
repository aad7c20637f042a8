"""Command-line front end.

Subcommands: validate, subdivide, layout, crossings, exact, stretch,
gadget (hexgrid | ola-reduce | ola-brute | verify), render.  Inputs are JSON
files ("-" for stdin); results go to stdout or ``-o``.  Exit codes: 0 on
success, 1 on any validation error, 2 when a search budget is exhausted.
Errors are written to stderr as one JSON object with ``error`` (stable code)
and ``message``.  ``gadget verify`` also exits 1, with no error, when its
drawing has more crossings than the reduction's budget: its result, with
``"ok": false``, still goes to stdout (and the SVG to ``--svg``).

``--seed`` exists for reproducing randomized test fixtures elsewhere; every
algorithm here is deterministic and ignores it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import jsonio
from .core import validate
from .crossings import (
    DEFAULT_SEARCH_BUDGET,
    count_crossings_geometric,
    exact_rgcn,
    realize_layered,
)
from .errors import BudgetExhaustedError, GraphStructureError, ReebError
from .gadget import (
    arrangement_to_drawing,
    ola_brute,
    ola_reduce,
    tri_hex_grid,
)
from .layout import (
    layout_auto,
    layout_bowtie,
    layout_caterpillar,
    layout_cycle,
    layout_heuristic,
    layout_path,
)
from .stretch import stretch
from .subdivide import subdivide, unsubdivide_drawing
from .svg import RenderOptions, render_svg


def _read(path: str) -> str:
    """An input file's text; bytes that are not UTF-8 are not JSON text (bad-json)."""
    try:
        if path == "-":
            return sys.stdin.read()
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphStructureError(f"malformed JSON: input is not UTF-8 text: {exc}", code="bad-json") from None


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _emit_json(obj, path: str | None) -> None:
    _write(json.dumps(obj, indent=2) + "\n", path)


def _maybe_svg(drawing, args, edge_parts=None) -> None:
    if args.svg:
        _write(render_svg(drawing, edge_parts=edge_parts), args.svg)


def _cmd_validate(args) -> int:
    g = jsonio.parse_graph(_read(args.input))
    report = validate(g)
    _emit_json(
        {
            "is_generic": report.is_generic,
            "is_subdivided": report.is_subdivided,
            "is_connected": report.is_connected,
            "violations": [
                {"rule": v.rule, "subject": v.subject, "message": v.message}
                for v in report.violations
            ],
        },
        args.output,
    )
    return 0


def _cmd_subdivide(args) -> int:
    g = jsonio.parse_graph(_read(args.input))
    g2, mapping = subdivide(g)
    _emit_json(
        {
            "graph": jsonio.graph_to_obj(g2),
            "map": {
                "paths": [list(p) for p in mapping.paths],
                "generated": {
                    v: {"edge": e, "position": p} for v, (e, p) in mapping.owner.items()
                },
            },
        },
        args.output,
    )
    return 0


_ALGORITHMS = {
    "auto": lambda g, budget: layout_auto(g, budget),
    "path": lambda g, budget: layout_path(g),
    "caterpillar": lambda g, budget: layout_caterpillar(g),
    "cycle": lambda g, budget: layout_cycle(g),
    "bowtie": lambda g, budget: layout_bowtie(g),
    "exact": lambda g, budget: _layout_exact(g, budget),
    "heuristic": lambda g, budget: layout_heuristic(g),
}


def _layout_exact(g, budget):
    res = exact_rgcn(g, budget)
    return unsubdivide_drawing(realize_layered(res.mapping.subdivided, res.ordering, res.count), res.mapping)


def _cmd_layout(args) -> int:
    g = jsonio.parse_graph(_read(args.input))
    drawing = _ALGORITHMS[args.algorithm](g, args.budget)
    _write(jsonio.serialize_drawing(drawing), args.output)
    _maybe_svg(drawing, args)
    return 0


def _cmd_crossings(args) -> int:
    d = jsonio.parse_drawing(_read(args.input))
    cert = count_crossings_geometric(d)
    _emit_json(jsonio.certificate_to_obj(cert), args.output)
    return 0


def _cmd_exact(args) -> int:
    g = jsonio.parse_graph(_read(args.input))
    res = exact_rgcn(g, args.budget)
    _emit_json(
        {
            "count": res.count,
            "ordering": jsonio.ordering_to_obj(res.ordering),
            "subdivided": jsonio.graph_to_obj(res.mapping.subdivided),
            "states": res.states,
        },
        args.output,
    )
    return 0


def _cmd_stretch(args) -> int:
    d = jsonio.parse_drawing(_read(args.input))
    out = stretch(d)
    _write(jsonio.serialize_drawing(out), args.output)
    _maybe_svg(out, args)
    return 0


def _cmd_render(args) -> int:
    d = jsonio.parse_drawing(_read(args.input))
    opts = RenderOptions(
        width=args.width,
        height=args.height,
        margin=args.margin,
        show_level_lines=args.level_lines,
    )
    _write(render_svg(d, opts), args.output)
    return 0


def _cmd_gadget_hexgrid(args) -> int:
    grid = tri_hex_grid(args.rows)
    _emit_json(
        {
            "rows": grid.rows,
            "graph": jsonio.graph_to_obj(grid.graph),
            "drawing": jsonio.drawing_to_obj(grid.drawing),
            "connector": grid.connector,
            "bottom_row": list(grid.bottom_row),
        },
        args.output,
    )
    _maybe_svg(grid.drawing, args)
    return 0


def _cmd_gadget_reduce(args) -> int:
    g = jsonio.parse_ola_graph(_read(args.graph))
    inst = ola_reduce(g, args.budget)
    _emit_json(jsonio.gadget_to_obj(inst), args.output)
    return 0


def _cmd_gadget_brute(args) -> int:
    g = jsonio.parse_ola_graph(_read(args.graph))
    best = ola_brute(g)
    _emit_json({"arrangement": best.ranks, "cost": best.cost}, args.output)
    return 0


def _cmd_gadget_verify(args) -> int:
    g = jsonio.parse_ola_graph(_read(args.graph))
    best = ola_brute(g)
    inst = ola_reduce(g, best.cost)
    drawing, cert = arrangement_to_drawing(inst, best)
    ok = cert.count <= inst.budget
    _emit_json(
        {
            "ok": ok,
            "arrangement_cost": best.cost,
            "crossings": cert.count,
            "budget": inst.budget,
        },
        args.output,
    )
    _maybe_svg(drawing, args, inst.edge_parts)
    return 0 if ok else 1


def _add_io(sub) -> None:
    sub.add_argument("input", help="input JSON file, or - for stdin")
    sub.add_argument("-o", "--output", help="output file (default stdout)")


@functools.cache  # one parser per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reebdraw",
        description="Draw Reeb graphs with provably few crossings; count crossings exactly.",
    )
    parser.add_argument("--seed", type=int, help="ignored; accepted for fixture tooling parity")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="classify a graph and list violations")
    _add_io(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("subdivide", help="split level-skipping edges")
    _add_io(p)
    p.set_defaults(func=_cmd_subdivide)

    p = sub.add_parser("layout", help="draw a graph")
    _add_io(p)
    p.add_argument("--algorithm", choices=sorted(_ALGORITHMS), default="auto")
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET,
                   help="state budget for the exact search")
    p.add_argument("--svg", help="also render the drawing to this SVG file")
    p.set_defaults(func=_cmd_layout)

    p = sub.add_parser("crossings", help="count crossings of a drawing exactly")
    _add_io(p)
    p.set_defaults(func=_cmd_crossings)

    p = sub.add_parser("exact", help="exact minimum crossing number with witness")
    _add_io(p)
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("stretch", help="straighten a crossing-free drawing")
    _add_io(p)
    p.add_argument("--svg", help="also render the result to this SVG file")
    p.set_defaults(func=_cmd_stretch)

    p = sub.add_parser("render", help="render a drawing to SVG")
    _add_io(p)
    p.add_argument("--width", type=int, default=800)
    p.add_argument("--height", type=int, default=600)
    p.add_argument("--margin", type=int, default=40)
    p.add_argument("--level-lines", action="store_true")
    p.set_defaults(func=_cmd_render)

    gadget = sub.add_parser("gadget", help="hardness gadget tooling")
    gsub = gadget.add_subparsers(dest="gadget_command", required=True)

    p = gsub.add_parser("hexgrid", help="triangular hexagonal grid")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_gadget_hexgrid)

    p = gsub.add_parser("ola-reduce", help="build the reduction instance")
    p.add_argument("--graph", required=True, help="plain graph JSON file")
    p.add_argument("--budget", type=int, required=True, help="arrangement budget k")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gadget_reduce)

    p = gsub.add_parser("ola-brute", help="exhaustive optimal arrangement")
    p.add_argument("--graph", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gadget_brute)

    p = gsub.add_parser("verify", help="end-to-end constructive bound check")
    p.add_argument("--graph", required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_gadget_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExhaustedError as exc:
        payload = {"error": exc.code, "message": str(exc)}
        if exc.best is not None:
            payload["best"] = exc.best
        print(json.dumps(payload), file=sys.stderr)
        return 2
    except ReebError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
