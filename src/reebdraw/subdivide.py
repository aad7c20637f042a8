"""Edge subdivision: normalize a Reeb graph so every edge spans consecutive levels.

Subdividing replaces each edge that skips levels with a path of generated
vertices, one per skipped level, and rewrites all heights as integer level
ranks.  The transform is reversible on drawings: cutting polylines at level
heights and, conversely, turning generated vertices back into bend points are
inverse operations that preserve the geometric crossing count exactly (both
directions only re-scale strips in y, which is an affine map inside each
strip).

Works for graphs with shared heights too: levels are dense ranks, so vertices
at equal heights land on one level.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import count
from typing import NamedTuple

from .core import GENERATED_ID_PREFIX, Drawing, LevelAssignment, ReebGraph, is_connected, levels
from .errors import GraphStructureError, LayoutError


class LeveledView(NamedTuple):
    """A leveled graph read per level, built once by :func:`_leveled`.

    ``lev`` holds its levels; ``strips[l]`` lists the edges between levels l
    and l + 1 as (lower vertex, upper vertex); ``down`` and ``up`` give each
    vertex's lower and upper neighbors, one entry per edge;
    ``level_vertices[l]`` lists level l's vertices in id order, and ``index``
    gives each vertex's position there.
    """

    lev: LevelAssignment
    strips: list[list[tuple[str, str]]]
    down: dict[str, list[str]]
    up: dict[str, list[str]]
    level_vertices: list[list[str]]
    index: dict[str, int]


def _leveled(g2: ReebGraph, lev: LevelAssignment) -> LeveledView:
    """The view of a leveled graph ``g2`` with levels ``lev``, in one pass over
    its edges; raises ``not-leveled`` at the first level-skipping edge."""
    strips: list[list[tuple[str, str]]] = [[] for _ in range(max(lev.count - 1, 0))]
    down: dict[str, list[str]] = {v: [] for v in g2.vertices}
    up: dict[str, list[str]] = {v: [] for v in g2.vertices}
    for i, (a, b) in enumerate(g2.edges):
        lo, hi = (a, b) if lev.level[a] < lev.level[b] else (b, a)
        if lev.level[hi] - lev.level[lo] != 1:
            raise GraphStructureError(
                f"layered counting requires consecutive-level edges; edge {i} ({a}, {b}) skips levels",
                code="not-leveled",
            )
        strips[lev.level[lo]].append((lo, hi))
        down[hi].append(lo)
        up[lo].append(hi)
    level_vertices = lev.by_level()
    index = {v: i for vs in level_vertices for i, v in enumerate(vs)}
    return LeveledView(lev, strips, down, up, level_vertices, index)


class SubdivisionMap(NamedTuple):
    """Bidirectional record linking original edges to their replacement paths.

    ``paths[i]`` lists the vertices of edge i's path from the lower original
    endpoint to the upper one; ``sub_edges[i]`` gives the corresponding edge
    indices in the subdivided graph.  ``owner`` maps each generated vertex to
    (original edge index, position within the path).  ``view`` is the
    subdivided graph's leveled view (:func:`_leveled`), and level k lies at
    ``level_heights[k]`` in the original; :func:`subdivide` derives both once.
    """

    original: ReebGraph
    subdivided: ReebGraph
    paths: tuple[tuple[str, ...], ...]
    sub_edges: tuple[tuple[int, ...], ...]
    owner: dict[str, tuple[int, int]]
    view: LeveledView
    level_heights: tuple[Fraction, ...]


class Subdivision(NamedTuple):
    graph: ReebGraph
    mapping: SubdivisionMap


def subdivide(g: ReebGraph) -> Subdivision:
    """Subdivide level-skipping edges; heights become integer level ranks.

    Every vertex of the output sits at its level rank, every output edge spans
    consecutive levels, and un-subdividing reproduces the input up to the
    height renaming.  Idempotent on already-leveled graphs (no generated
    vertices).  Generated ids continue a graph's ids after the largest when
    all of them are ints, and carry ``GENERATED_ID_PREFIX`` otherwise.
    """
    if not is_connected(g):
        raise LayoutError("subdivision requires a connected graph", code="disconnected")
    lev = levels(g)
    level2 = dict(lev.level)  # the output's levels, which are its heights
    edges2: list[tuple[str, str]] = []
    paths: list[tuple[str, ...]] = []
    sub_edges: list[tuple[int, ...]] = []
    owner: dict[str, tuple[int, int]] = {}

    # Integer ids go on past the largest one (bools are not ids of that kind);
    # any other graph gets prefixed names, made fresh against every id.
    ints = all(isinstance(v, int) and not isinstance(v, bool) for v in level2)
    next_int = count(max(level2, default=-1) + 1) if ints else None

    def fresh_id(base: str) -> str:
        name = base
        while name in level2:
            name = "_" + name
        return name

    for i in range(len(g.edges)):
        lo, hi = g.lower_upper(i)
        r_lo, r_hi = lev.level[lo], lev.level[hi]
        path = [lo]
        for k in range(r_lo + 1, r_hi):
            name = fresh_id(f"{GENERATED_ID_PREFIX}{i}_{k}") if next_int is None else next(next_int)
            level2[name] = k
            owner[name] = (i, len(path))
            path.append(name)
        path.append(hi)
        indices = []
        for a, b in zip(path, path[1:]):
            indices.append(len(edges2))
            edges2.append((a, b))
        paths.append(tuple(path))
        sub_edges.append(tuple(indices))

    g2 = ReebGraph({v: Fraction(k) for v, k in level2.items()}, tuple(edges2))
    view = _leveled(g2, LevelAssignment(level2, lev.count, tuple(map(Fraction, range(lev.count)))))
    return Subdivision(g2, SubdivisionMap(g, g2, tuple(paths), tuple(sub_edges), owner, view, lev.level_heights))


def unsubdivide_drawing(d2: Drawing, mapping: SubdivisionMap) -> Drawing:
    """Merge subdivision paths back into single edges with bends; counts are preserved.

    Generated vertices become bend points, surviving vertices keep their x
    coordinates, and y values are mapped strip-by-strip back to the original
    heights (strictly monotone piecewise-affine, so the geometric crossing
    count cannot change).
    """
    if d2.graph != mapping.subdivided:
        raise GraphStructureError("drawing does not match the subdivision's output graph", code="map-mismatch")
    heights = mapping.level_heights

    def back(y: Fraction) -> Fraction:
        k = int(y)
        if y == k:
            return heights[k]
        return heights[k] + (y - k) * (heights[k + 1] - heights[k])

    g = mapping.original
    xs = {v: d2.x[v] for v in g.vertices}
    bends: list[tuple[tuple[Fraction, Fraction], ...]] = []
    for i in range(len(g.edges)):
        pts: list[tuple[Fraction, Fraction]] = []
        path = mapping.paths[i]
        for j, sub in enumerate(mapping.sub_edges[i]):
            for (bx, by) in d2.bends[sub]:
                pts.append((bx, back(by)))
            if j < len(mapping.sub_edges[i]) - 1:
                mid = path[j + 1]
                pts.append((d2.x[mid], back(d2.graph.vertices[mid])))
        bends.append(tuple(pts))
    return Drawing(graph=g, x=xs, bends=tuple(bends))


def _level_passes(d: Drawing) -> tuple[list[int], tuple[tuple[tuple[int, int, int], ...], ...]]:
    """Where a drawing's edges pass the vertex heights on its integer frame:
    (heights, passes).  ``heights`` lists the distinct vertex heights bottom
    up; ``passes[i]`` holds, bottom up, a triple (r, num, den) for each
    ``heights[r]`` strictly between edge i's ends, where the edge's x is
    num / den and den is the height of the segment holding the point (a bend
    there is the top of the segment below it).  It has one entry per (edge,
    height it passes), so its one caller, ``subdivide_drawing``, builds it
    once per drawing, for its cut points, whose count is the same."""
    polys, vertex_pt, _, _ = d._scaled_polylines
    heights = sorted({y for _, y in vertex_pt.values()})
    level = {h: r for r, h in enumerate(heights)}
    passes = []
    for poly in polys:
        cuts = []
        k = 1
        for r in range(level[poly[0][1]] + 1, level[poly[-1][1]]):
            h = heights[r]
            while poly[k][1] < h:
                k += 1
            (ax, ay), (bx, by) = poly[k - 1], poly[k]
            cuts.append((r, ax * (by - ay) + (bx - ax) * (h - ay), by - ay))
        passes.append(tuple(cuts))
    return heights, tuple(passes)


def subdivide_drawing(d: Drawing, g: ReebGraph, mapping: SubdivisionMap) -> Drawing:
    """Cut a drawing's polylines at every level height; cut points become vertices.

    The cut points are where its edges pass the vertex heights
    (:func:`_level_passes`, built here once), whose exact frame x becomes
    each generated vertex's x, so the crossing count is preserved
    bit-exactly.  A bend at a level height is the cut point there; every
    other bend stays a bend of the piece holding it.
    """
    if g != mapping.original or d.graph != g:
        raise GraphStructureError("drawing does not match the subdivision's input graph", code="map-mismatch")
    polys, _, sx, _ = d._scaled_polylines
    heights, passes = _level_passes(d)
    xs: dict[str, Fraction] = {v: d.x[v] for v in g.vertices}
    bends2: list[list[tuple[Fraction, Fraction]]] = [[] for _ in mapping.subdivided.edges]
    for i, cuts in enumerate(passes):
        subs = mapping.sub_edges[i]
        if len(cuts) + 1 != len(subs):
            raise GraphStructureError(
                f"edge {i} cuts into {len(cuts) + 1} pieces, expected {len(subs)}",
                code="map-mismatch",
            )
        for (_, num, den), v in zip(cuts, mapping.paths[i][1:]):
            xs[v] = Fraction(num, den * sx)
        r_lo = bisect_left(heights, polys[i][0][1])
        for (px, _), (_, y) in zip(d.bends[i], polys[i][1:-1]):
            # Level k maps to height k, and the strip above it affinely onto (k, k + 1).
            k = bisect_right(heights, y) - 1
            if heights[k] != y:
                bends2[subs[k - r_lo]].append((px, k + Fraction(y - heights[k], heights[k + 1] - heights[k])))
    return Drawing(graph=mapping.subdivided, x=xs, bends=tuple(map(tuple, bends2)))
