"""JSON schemas for graphs, drawings, orderings, and related values.

Rationals serialize as lowest-terms strings "p/q" (plain "p" for integers),
as JSON numbers cannot carry them exactly; one with more digits than Python
writes is ``too-many-digits``.  Parsers accept integers, decimal strings and
"p/q" strings, refuse an exponent that would scale a value past 4,300 digits,
and parse each distinct string once per document (one memo for heights, x
coordinates and bends, looked up inline).  The drawing reader walks the
graph edges and the drawing edges once each, checking only the schema and
that each drawing edge names its graph edge; the ``ReebGraph`` and
``Drawing`` constructors check the rest.  Each element passes on exact-type
tests (``type(v) is str``); only one that fails them takes the
``isinstance`` test that decides whether it is refused.

Of several faults, the first in this order is reported: the drawing
object; the graph object and its vertex and edge lists; vertex by vertex its
id, a duplicate id, its height; the edge pairs; the graph's edges one by one
(unknown endpoint, self-loop, equal heights); the x object and its values in
order; the drawing's edge list and its length; its edges one by one
(object, endpoints, match with the graph edge, bends); then the ``Drawing``
checks: a missing x before an unknown one, bends edge by edge, and
coincident vertices, named by the first clash in vertex order.
``ReebGraph`` keeps each height's exact ratio, read once, and ``Drawing``
builds its integer frame from those and one read of each x and bend
coordinate.  All serializers are byte-deterministic for identical inputs.

Drawings are written by template from the fixed schema, byte for byte as
``json.dumps(drawing_to_obj(d), indent=2)`` writes them (followed by a
newline): json's indent encoder is pure Python, and this is the last stage of
every ``layout`` and ``stretch``.  Vertex ids are strings or ints, each
encoded once.  The ``*_to_obj`` forms stay for graphs and the envelopes,
which json writes.

Graph schema::

    {"vertices": [{"id": "a", "height": "3/2"}, ...],
     "edges": [["a", "b"], ["a", "b"], ...]}       # duplicates = parallel edges

Drawing schema::

    {"graph": {...},
     "x": {"a": "0", ...},
     "edges": [{"endpoints": ["a", "b"], "bends": [["1/2", "3/4"], ...]}, ...]}

The i-th drawing edge corresponds to the i-th graph edge.  Plain graphs for
arrangement problems use ``{"vertices": ["a", ...], "edges": [["a","b"], ...]}``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable

from .core import Drawing, LevelOrdering, ReebGraph, _parse_fraction
from .crossings import CrossingCertificate
from .errors import GraphStructureError, ReebError
from .gadget import GadgetInstance, OlaGraph


def format_rational(value: Fraction) -> str:
    try:
        return str(value)
    except ValueError as exc:  # a numerator or denominator past Python's digit limit
        raise ReebError(f"cannot write a rational: {exc}", code="too-many-digits") from None


def parse_rational(value: Any, what: str = "value") -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise GraphStructureError(
            f"{what} must be an integer or an exact string, got {value!r}", code="bad-rational"
        )
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return _parse_fraction(value, what, "bad-rational")
    raise GraphStructureError(f"{what} must be an integer or string, got {type(value).__name__}",
                              code="bad-rational")


def _rational_reader() -> tuple[dict[str, Fraction], Callable[..., Fraction]]:
    """``(memo, read)``: a :func:`parse_rational` for one document that
    parses each distinct string once.  A caller looks a ``str`` value up in
    ``memo`` itself and calls ``read(value, what, name)`` only on a miss;
    ``read`` names the value ``what`` followed by ``name!r`` (just ``what``
    without a name), built only when the value is parsed.  Only successful
    parses are kept, so every value and error (the first bad use, with its
    name) is that of :func:`parse_rational`."""
    memo: dict[str, Fraction] = {}

    def read(value: Any, what: str, name: str | None = None) -> Fraction:
        q = parse_rational(value, what if name is None else f"{what} {name!r}")
        if type(value) is str:
            memo[value] = q
        return q

    return memo, read


def _loads(text: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also deep nesting, and an int past the digit limit
        raise GraphStructureError(f"malformed JSON: {exc}", code="bad-json") from None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GraphStructureError(message, code="bad-schema")


def _edge_pairs(items: list) -> list:
    """An ``edges`` list, bad-schema unless every item is a list of two ids."""
    _require(all(isinstance(p, list) and len(p) == 2 and isinstance(p[0], str) and isinstance(p[1], str)
                 for p in items), "each edge must be a pair of ids")
    return items


# ---------------------------------------------------------------------------
# Reeb graphs
# ---------------------------------------------------------------------------

def graph_to_obj(g: ReebGraph) -> dict:
    return {
        "vertices": [{"id": v, "height": format_rational(h)} for v, h in g.vertices.items()],
        "edges": [[a, b] for a, b in g.edges],
    }


def graph_from_obj(obj: Any) -> ReebGraph:
    return _graph_from_obj(obj, *_rational_reader())


def _graph_from_obj(obj: Any, memo: dict[str, Fraction], read: Callable[..., Fraction]) -> ReebGraph:
    _require(isinstance(obj, dict), "graph must be an object")
    _require(isinstance(obj.get("vertices"), list), "graph.vertices must be a list")
    _require(isinstance(obj.get("edges"), list), "graph.edges must be a list")
    heights: dict[str, Fraction] = {}
    for item in obj["vertices"]:
        if type(item) is not dict or type(vid := item.get("id")) is not str:
            _require(isinstance(item, dict) and isinstance(vid := item.get("id"), str),
                     "each vertex needs a string id")
        if vid in heights:
            raise GraphStructureError(f"duplicate vertex id {vid!r}", code="duplicate-vertex")
        if type(h := item.get("height")) is not str or (q := memo.get(h)) is None:
            q = read(h, "height of", vid)
        heights[vid] = q
    return ReebGraph(heights, _edge_pairs(obj["edges"]))


def _id_texts(ids: Iterable[Any]) -> tuple[dict, dict]:
    """Each vertex id as ``json.dumps`` writes it as a value and as an object
    key: a string escaped to ASCII both ways, an int bare and quoted."""
    values: dict[Any, str] = {}
    keys: dict[Any, str] = {}
    for v in ids:
        if isinstance(v, str):
            values[v] = keys[v] = encode_basestring_ascii(v)
        elif isinstance(v, int) and not isinstance(v, bool):
            values[v] = text = int.__repr__(v)
            keys[v] = f'"{text}"'
        else:
            raise TypeError(f"vertex ids must be str or int, not {type(v).__name__}")
    return values, keys


def _block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """A JSON array (or, with ``brackets="{}"``, an object) of ``items``, each
    already written, as ``indent=2`` lays it out at indent ``pad``."""
    if not items:
        return brackets
    inner = f"\n{pad}  "
    return f"{brackets[0]}{inner}{f',{inner}'.join(items)}\n{pad}{brackets[1]}"


def _graph_text(g: ReebGraph, ids: dict, heights: list[str], pad: str) -> str:
    """The graph object of ``graph_to_obj`` as ``json.dumps(indent=2)`` writes
    it at indent ``pad``, from its written ids and heights."""
    p = pad + "    "
    vertices = [f'{{\n{p}  "id": {ids[v]},\n{p}  "height": "{h}"\n{p}}}' for v, h in zip(g.vertices, heights)]
    edges = [f"[\n{p}  {ids[a]},\n{p}  {ids[b]}\n{p}]" for a, b in g.edges]
    return (f'{{\n{pad}  "vertices": {_block(vertices, pad + "  ")},'
            f'\n{pad}  "edges": {_block(edges, pad + "  ")}\n{pad}}}')


def parse_graph(text: str) -> ReebGraph:
    return graph_from_obj(_loads(text))


# ---------------------------------------------------------------------------
# Drawings
# ---------------------------------------------------------------------------

def drawing_to_obj(d: Drawing) -> dict:
    return {
        "graph": graph_to_obj(d.graph),
        "x": {v: format_rational(d.x[v]) for v in d.graph.vertices},
        "edges": [
            {
                "endpoints": [a, b],
                "bends": [[format_rational(px), format_rational(py)] for px, py in d.bends[i]],
            }
            for i, (a, b) in enumerate(d.graph.edges)
        ],
    }


def drawing_from_obj(obj: Any) -> Drawing:
    _require(isinstance(obj, dict), "drawing must be an object")
    memo, read = _rational_reader()
    g = _graph_from_obj(obj.get("graph"), memo, read)
    _require(isinstance(obj.get("x"), dict), "drawing.x must be an object")
    xs = {}
    for v, c in obj["x"].items():
        if type(c) is not str or (q := memo.get(c)) is None:
            q = read(c, "x of", v)
        xs[v] = q
    _require(isinstance(entries := obj.get("edges"), list), "drawing.edges must be a list")
    if len(entries) != len(g.edges):
        raise GraphStructureError(
            f"drawing lists {len(entries)} edges, graph has {len(g.edges)}", code="edge-mismatch"
        )
    bends = []
    for i, (entry, edge) in enumerate(zip(entries, g.edges)):
        if type(entry) is not dict:
            _require(isinstance(entry, dict), "each drawing edge must be an object")
        if type(eps := entry.get("endpoints")) is not list or len(eps) != 2:
            _require(isinstance(eps, list) and len(eps) == 2, "drawing edge needs two endpoints")
        a, b = eps
        if type(a) is not str or type(b) is not str:
            _require(isinstance(a, str) and isinstance(b, str), "drawing edge endpoints must be string ids")
        lo, hi = edge  # canonical, and never a self-loop: match it either way round
        if (a != lo or b != hi) and (a != hi or b != lo):
            raise GraphStructureError(
                f"drawing edge {i} endpoints {eps} do not match graph edge {list(edge)}",
                code="edge-mismatch",
            )
        if type(raw := entry.get("bends", [])) is not list:
            _require(isinstance(raw, list), "bends must be a list")
        if not raw:
            bends.append(())
            continue
        eb = []
        for pair in raw:
            if type(pair) is not list or len(pair) != 2:
                _require(isinstance(pair, list) and len(pair) == 2, "each bend must be an [x, y] pair")
            px, py = pair
            if type(px) is not str or (qx := memo.get(px)) is None:
                qx = read(px, "bend x")
            if type(py) is not str or (qy := memo.get(py)) is None:
                qy = read(py, "bend y")
            eb.append((qx, qy))
        bends.append(tuple(eb))
    return Drawing(graph=g, x=xs, bends=tuple(bends))


def serialize_drawing(d: Drawing) -> str:
    """``json.dumps(drawing_to_obj(d), indent=2) + "\\n"``, written from the
    schema: the rationals in the same order (heights, x, bends), so the same
    one is the first ``too-many-digits``, then each id once."""
    g = d.graph
    heights = [format_rational(h) for h in g.vertices.values()]
    xs = [format_rational(d.x[v]) for v in g.vertices]
    bends = [[f'[\n          "{format_rational(px)}",\n          "{format_rational(py)}"\n        ]'
              for px, py in eb] for eb in d.bends]
    ids, keys = _id_texts(g.vertices)
    x = [f'{keys[v]}: "{c}"' for v, c in zip(g.vertices, xs)]
    edges = [f'{{\n      "endpoints": [\n        {ids[a]},\n        {ids[b]}\n      ],'
             f'\n      "bends": {_block(eb, "      ")}\n    }}' for (a, b), eb in zip(g.edges, bends)]
    return (f'{{\n  "graph": {_graph_text(g, ids, heights, "  ")},\n  "x": {_block(x, "  ", "{}")},'
            f'\n  "edges": {_block(edges, "  ")}\n}}\n')


def parse_drawing(text: str) -> Drawing:
    return drawing_from_obj(_loads(text))


# ---------------------------------------------------------------------------
# Orderings, certificates, plain graphs
# ---------------------------------------------------------------------------

def ordering_to_obj(ordering: LevelOrdering) -> list[list[str]]:
    return [list(order) for order in ordering.orders]


def certificate_to_obj(cert: CrossingCertificate) -> dict:
    return {
        "count": cert.count,
        "crossings": [
            {
                "edges": list(pair.edges),
                "point": [format_rational(pair.point[0]), format_rational(pair.point[1])],
            }
            for pair in cert.pairs
        ],
    }


def ola_graph_from_obj(obj: Any) -> OlaGraph:
    _require(isinstance(obj, dict), "graph must be an object")
    _require(isinstance(obj.get("vertices"), list)
             and all(isinstance(v, str) for v in obj["vertices"]),
             "vertices must be a list of ids")
    _require(isinstance(obj.get("edges"), list), "edges must be a list")
    return OlaGraph(tuple(obj["vertices"]), _edge_pairs(obj["edges"]))


def parse_ola_graph(text: str) -> OlaGraph:
    return ola_graph_from_obj(_loads(text))


def gadget_to_obj(inst: GadgetInstance) -> dict:
    return {
        "graph": graph_to_obj(inst.graph),
        "vertex_parts": dict(inst.vertex_parts),
        "edge_parts": list(inst.edge_parts),
        "budget": inst.budget,
        "source": {
            "vertices": list(inst.source.vertices),
            "edges": [[a, b] for a, b in inst.source.edges],
            "budget": inst.source_budget,
        },
    }
