"""Straighten crossing-free curved drawings, keeping the order at every height.

The *rows* of a drawing are the per-level orders of its subdivision: for each
distinct vertex height, bottom up, the vertices at that height and the edges
passing strictly through it, from left to right, each by number: vertex k of
``graph.vertices`` is k and edge i is n + i, so no vertex id, an int
included, is taken for an edge.  ``stretch`` redraws every
edge as one straight segment at the same heights and keeps every row, so the
output has no crossings and the same per-level vertex order.

Vertices are placed one at a time, each right of everything placed before.
The order comes from a peel.  The *star* of a vertex z is z plus its edges to
vertices still present; z is *exposed* when, in every row, nothing outside
its star lies right of a star object.  The peel repeatedly removes an exposed
vertex together with its star, the greatest by (x, id) first, and the
insertion order is the peel order reversed.  Removing an exposed star takes
a suffix of every row it touches, so z is blocked in a row until the first
object outside its star right of a star object is gone, and any such object
further right is gone by then.  So, before the peel starts, z is set to wait
on each object b of a row's adjacent pair (a, b) with a in its star and b
outside it, and each removed object releases the vertices waiting on it.
Removing a star never blocks another vertex, so the peel gets stuck only if
every peel order does; such a drawing is refused with code
``not-straightenable``.  That can happen on a crossing-free drawing: a
straight drawing with the same rows may still exist, but not one built by
placing each vertex right of all earlier ones.

At its turn, a vertex v was exposed among exactly the vertices placed so far,
so everything drawn that shares a height with v's star lies left of that star
in the input.  v goes at x = base + 2^k, base the last placed x, with the
least k that puts every such object strictly left of v's new edges.  Each
vertex placed strictly inside the y-range of a new edge gives a closed-form
integer lower bound on x, and those bounds clear the drawn segments too.
Placed x grows along the insertion order, so the edge from a neighbour u can
only be bounded by the vertices placed after u.

Inputs with crossings are rejected outright: stretching a drawing that has
crossings can force additional crossings, so silently proceeding would betray
the contract.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import itemgetter

from .core import Drawing, IntPoint
from .crossings import count_crossings_geometric
from .errors import GraphStructureError, InternalInvariantError, LayoutError
from .subdivide import _level_passes


def _rows(d: Drawing) -> list[list[int]]:
    """The drawing's rows, bottom up, holding numbered objects: vertex k of
    ``graph.vertices`` is k and edge i is n + i, for n vertices.

    Vertices and their integer x come from the integer frame, and each
    edge's x at a row from where the edges pass the vertex heights
    (``subdivide._level_passes``, built here once per drawing), as a
    fraction num / den with den at most D, the largest den there.  Two such
    fractions that differ, differ by at least 1 / D^2, so floor(x * D^2)
    orders them exactly.  On a drawing that passed the crossing check no two
    objects in a row share an x.
    """
    _, vertex_pt, _, _ = d._scaled_polylines
    heights, passes = _level_passes(d)
    level = {h: r for r, h in enumerate(heights)}
    scale = max((den for cuts in passes for _, _, den in cuts), default=1) ** 2
    keyed: list[list[tuple[int, int]]] = [[] for _ in heights]
    for k, (x, y) in enumerate(vertex_pt.values()):
        keyed[level[y]].append((x * scale, k))
    for i, cuts in enumerate(passes, len(vertex_pt)):
        for r, num, den in cuts:
            keyed[r].append((num * scale // den, i))
    return [[obj for _, obj in sorted(row, key=itemgetter(0))] for row in keyed]


def _insertion_order(d: Drawing, rows: list[list[int]]) -> tuple[str, ...]:
    """The peel order reversed (see the module docstring), from the
    drawing's ``_rows``, as vertex ids.

    z waits on every object b outside its star that lies right next to a
    star object a in some row: for each distinct adjacent pair (a, b), each
    owner of a (the vertex, or the edge's two ends) that does not own b.  A
    peel removes a suffix of every row it touches, so in each row the first
    such b blocks z until it is gone, and every other such b lies right of
    it and goes no later; z is exposed once none is left, even as its star
    loses edges.  Peeling z removes z and its edges to vertices not yet
    peeled, and each removed object releases its waiters.
    """
    g = d.graph
    names = list(g.vertices)
    n = len(names)
    index = {v: k for k, v in enumerate(names)}
    owners = [{k} for k in range(n)] + [{index[a], index[b]} for a, b in g.edges]
    # adjacency() keeps the order of graph.vertices, so its k-th entry is vertex k's.
    stars = [[k] + [n + i for _, i in ends] for k, ends in enumerate(g.adjacency().values())]
    waiting: dict[int, list[int]] = {}  # object -> the vertices waiting on it
    blockers = [0] * n
    for a, b in {pair for row in rows for pair in zip(row, row[1:])}:
        for z in owners[a] - owners[b]:
            waiting.setdefault(b, []).append(z)
            blockers[z] += 1

    rank = {k: r for r, k in enumerate(sorted(range(n), key=lambda k: (d.x[names[k]], names[k])))}
    exposed = sorted((-rank[z], z) for z in range(n) if not blockers[z])  # a heap, greatest rank first
    peeled: list[int] = []
    while exposed:
        z = heappop(exposed)[1]
        for obj in stars[z]:
            for w in waiting.pop(obj, ()):  # an edge to a peeled neighbour released its waiters then
                blockers[w] -= 1
                if not blockers[w]:
                    heappush(exposed, (-rank[w], w))
        peeled.append(z)
    if len(peeled) != n:
        raise LayoutError(
            f"placing each vertex right of the earlier ones cannot keep the order at every "
            f"height ({n - len(peeled)} vertices stay blocked)",
            code="not-straightenable",
        )
    return tuple(names[z] for z in reversed(peeled))


def _clearing_x(pu: IntPoint, yv: int, points: list[IntPoint]) -> int:
    """Least integer x at which the straight edge from pu to (x, yv) passes
    strictly right of every point strictly inside its y-range.

    Callers pass the points placed after pu only: the others lie left of pu,
    and so left of the edge.  Drawn segments need no bound of their own.  At
    each end of the y-range a segment shares with the edge, the segment is at
    a placed point (bounded here, or left of pu), or at height yv (left of
    every new x), or at height yu, where the peel keeps it left of pu or
    ending at pu.  Left of the edge at both ends, it stays left in between.
    """
    xu, yu = pu
    dy = abs(yv - yu)
    lo, hi = min(yu, yv), max(yu, yv)
    least = xu + 1
    for px, py in points:
        if lo < py < hi:
            least = max(least, xu + (px - xu) * dy // abs(py - yu) + 1)
    return least


def stretch(d: Drawing) -> Drawing:
    """Redraw a crossing-free drawing with straight segments only, keeping
    the left-to-right order of vertices and edges at every vertex height.

    Vertices are inserted in the peel order reversed, each at x = base + 2^k
    (the first at 0), where base is the last placed x and k is the least
    value that clears the integer lower bounds of ``_clearing_x``: each
    point placed strictly inside a new edge's y-range must lie strictly left
    of the edge.  The output keeps every row, so it has zero crossings and
    the same per-level vertex order as the input; the empty drawing is
    returned as is.

    Raises ``GraphStructureError`` on crossings (``has-crossings``) or
    parallel edges (``parallel-edges``), and ``LayoutError``
    (``not-straightenable``) when the peel gets stuck.
    """
    if count_crossings_geometric(d).count != 0:
        raise GraphStructureError("cannot stretch a drawing with crossings", code="has-crossings")
    g = d.graph
    if len(set(g.edges)) != len(g.edges):
        # Two straight segments between the same endpoints always coincide.
        raise GraphStructureError("parallel edges cannot be drawn as straight segments",
                                  code="parallel-edges")
    _, vertex_pt, _, _ = d._scaled_polylines
    rows = _rows(d)
    adjacency = g.adjacency()
    placed: list[IntPoint] = []  # in insertion order, so x increases
    turn: dict[str, int] = {}  # v -> its index in placed

    for v in _insertion_order(d, rows):
        yv = vertex_pt[v][1]
        x = 0
        if placed:
            base = placed[-1][0]
            least = max([base + 1] + [
                _clearing_x(placed[turn[u]], yv, placed[turn[u] + 1:])
                for u, _ in adjacency[v] if u in turn
            ])
            x = base + (1 << (least - base - 1).bit_length())
        turn[v] = len(placed)
        placed.append((x, yv))

    out = Drawing(graph=g, x={v: placed[i][0] for v, i in turn.items()})
    if _rows(out) != rows:
        raise InternalInvariantError("stretching changed a row")
    if count_crossings_geometric(out).count != 0:
        raise InternalInvariantError("stretched drawing has crossings")
    return out
