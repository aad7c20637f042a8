"""Straighten crossing-free curved drawings, keeping the order at every height.

The *rows* of a drawing are the per-level orders of its subdivision: for each
distinct vertex height, bottom up, the vertices at that height and the edges
passing strictly through it, from left to right, each by number: vertex k of
``graph.vertices`` is k and edge i is n + i, so no vertex id, an int
included, is taken for an edge.  ``stretch`` redraws every
edge as one straight segment at the same heights and keeps every row, so the
output has no crossings and the same per-level vertex order.

The rows are never built.  In a crossing-free drawing the x order of the
edges crossing a horizontal sweep line changes only at vertices, so one sweep
(``_sweep``) finds the rows' distinct adjacent pairs, which the peel reads,
and a log that fixes the rows, which the output must repeat.

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

from bisect import bisect_left
from heapq import heappop, heappush
from itertools import groupby
from operator import itemgetter

from .core import Drawing, IntPoint
from .crossings import count_crossings_geometric
from .errors import GraphStructureError, InternalInvariantError, LayoutError


def _sweep(d: Drawing, find_pairs: bool = True) -> tuple[set[tuple[int, int]], list[tuple[int, int]]]:
    """One bottom-up sweep of a crossing-free drawing's integer frame:
    (pairs, log).  ``pairs`` holds the rows' distinct adjacent pairs, if
    asked for; ``log`` holds (slot, k) for each vertex k by (height, x), the
    slot being where k's run starts in the line.

    The *line* holds the edges crossing the sweep line, by x.  At each
    height a binary search of integer cross products finds each vertex's
    slot, each edge reading its segment there from a pointer that only moves
    up.  No edge passes through a foreign vertex, so the slot is the run of
    the vertex's lower edges, empty if it has none.  The row is the line
    with each run replaced by its vertex, which adds its neighbours there to
    ``pairs``; the next line has each run replaced by the vertex's upper
    edges, by the slope of their first segments.  Two edges adjacent in a
    row were so in the row below or were made adjacent by its splices, so
    only those are checked: neither may end at the height, nor a vertex be
    slotted between them.

    The log fixes the rows of a drawing without parallel edges.  The first
    line is empty, and equal slots splice equal runs at equal positions, so
    two sweeps with equal logs move every line position alike.  Had some
    vertex's upper edges come in two orders, take the first of the moved
    ones to end: its end vertex's run holds its position in both sweeps, so
    in one of them another of those upper edges ends there too, and the two
    would share both ends.  So equal logs give equal lines and rows, and,
    the rows fixing every order within the line, equal rows equal logs.
    """
    polys, vertex_pt, _, _ = d._scaled_polylines
    n = len(vertex_pt)
    at = {p: k for k, p in enumerate(vertex_pt.values())}
    paths = [()] * n + list(polys)  # by object number
    low: list[list[int]] = [[] for _ in at]
    ups: list[list[int]] = [[] for _ in at]
    for e, poly in enumerate(polys, n):
        ups[at[poly[0]]].append(e)
        low[at[poly[-1]]].append(e)
    # Distinct slopes dx / dy differ by at least 1 / D^2, so floor(dx * D^2 / dy) orders them.
    scale = max((poly[1][1] - poly[0][1] for poly in polys), default=1) ** 2
    for (x, y), up in zip(at, ups):
        if len(up) > 1:
            up.sort(key=lambda e: (paths[e][1][0] - x) * scale // (paths[e][1][1] - y))
    top = [0] * n + [poly[-1][1] for poly in polys]
    seg = [1] * len(paths)  # edge e crosses the sweep line on its segment ending at paths[e][seg[e]]

    def side(e: int) -> int:  # negative iff edge e passes left of (x, y)
        path, s = paths[e], seg[e]
        while path[s][1] < y:
            s += 1
        seg[e] = s
        (ax, ay), (bx, by) = path[s - 1], path[s]
        return (ax - x) * (by - ay) + (bx - ax) * (y - ay)

    line: list[int] = []
    made: list[tuple[int, int]] = []  # the edges the last splices made adjacent
    pairs: set[tuple[int, int]] = set()
    log: list[tuple[int, ...]] = []
    for y, group in groupby(sorted((y, x, k) for (x, y), k in at.items()), key=itemgetter(0)):
        slots = []
        for _, x, k in group:  # side() reads this x and y
            slots.append((bisect_left(line, 0, key=side), k))
        log += slots
        if find_pairs:
            split = {line[p - 1] for p, k in slots if p and not low[k]}
            pairs.update(ab for ab in made if top[ab[0]] > y < top[ab[1]] and ab[0] not in split)
            end = -1
            for j, (p, k) in enumerate(slots):
                q = p + len(low[k])
                if end == p:
                    pairs.add((slots[j - 1][1], k))
                elif p:
                    pairs.add((line[p - 1], k))
                if q < len(line) and (j + 1 == len(slots) or slots[j + 1][0] != q):
                    pairs.add((k, line[q]))
                end = q
        made, shift, starts = [], 0, []
        for p, k in slots:
            starts.append(p + shift)
            line[p + shift:p + shift + len(low[k])] = ups[k]
            shift += len(ups[k]) - len(low[k])
        for p, (_, k) in zip(starts, slots) if find_pairs else ():  # after every splice of the height
            window = line[max(p - 1, 0):p + len(ups[k]) + 1]
            made += zip(window, window[1:])
    return pairs, log


def _insertion_order(d: Drawing, pairs: set[tuple[int, int]]) -> tuple[str, ...]:
    """The peel order reversed (see the module docstring), as vertex ids,
    from the rows' distinct adjacent pairs (``_sweep``).

    For each pair (a, b), each owner of a (the vertex, or the edge's two ends)
    that does not own b waits on b.  Peeling z removes z and its edges to
    vertices not yet peeled, and each removed object releases its waiters.
    """
    g = d.graph
    names = list(g.vertices)
    n = len(names)
    index = {v: k for k, v in enumerate(names)}
    owners = [(k,) for k in range(n)] + [(index[a], index[b]) for a, b in g.edges]
    # adjacency() keeps the order of graph.vertices, so its k-th entry is vertex k's.
    stars = [[k] + [n + i for _, i in ends] for k, ends in enumerate(g.adjacency().values())]
    waiting: dict[int, list[int]] = {}  # object -> the vertices waiting on it
    blockers = [0] * n
    for a, b in pairs:
        for z in owners[a]:
            if z not in owners[b]:
                waiting.setdefault(b, []).append(z)
                blockers[z] += 1

    xs = [x for x, _ in d._scaled_polylines[1].values()]  # x, scaled up on the integer frame
    rank = {k: r for r, k in enumerate(sorted(range(n), key=lambda k: (xs[k], names[k])))}
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
    pairs, log = _sweep(d)
    adjacency = g.adjacency()
    placed: list[IntPoint] = []  # in insertion order, so x increases
    turn: dict[str, int] = {}  # v -> its index in placed

    for v in _insertion_order(d, pairs):
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
    # The sweep holds on crossing-free drawings only, so the count goes first.
    if count_crossings_geometric(out).count != 0:
        raise InternalInvariantError("stretched drawing has crossings")
    if _sweep(out, find_pairs=False)[1] != log:
        raise InternalInvariantError("stretching changed a row")
    return out
