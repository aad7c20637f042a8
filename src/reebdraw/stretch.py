"""Straighten crossing-free curved drawings while preserving per-level order.

A crossing-free drawing orders its edges left-to-right wherever two edges
share a y interval; that relation is acyclic, and it induces an insertion
order on the vertices in which each new vertex only needs to connect to
vertices currently exposed on the right frontier.  Placing each vertex far
enough to the right therefore lets every edge be drawn as a straight segment
without hitting anything, keeping the left-to-right order of vertices on each
level intact.

Inputs with crossings are rejected outright: stretching a drawing that has
crossings can force additional crossings, so silently proceeding would betray
the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from math import lcm

from . import geometry
from .crossings import Drawing, count_crossings_geometric, per_level_order
from .errors import DegeneracyError, GraphStructureError, InternalInvariantError


@dataclass(frozen=True)
class EdgeLeftRightOrder:
    """Directed relation over edge indices: i -> j iff i and j share part of
    their open y intervals and i runs strictly left of j there."""

    edge_count: int
    left_of: tuple[tuple[int, ...], ...]  # successors: edges strictly to the right

    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        preds: list[list[int]] = [[] for _ in range(self.edge_count)]
        for i, succs in enumerate(self.left_of):
            for j in succs:
                preds[j].append(i)
        return tuple(tuple(p) for p in preds)


@dataclass(frozen=True)
class VertexInsertionOrder:
    sequence: tuple[str, ...]


def _x_at_half(poly, y2: int) -> tuple[int, int]:
    """x of a strictly y-monotone integer polyline at height y2 / 2, as a
    (numerator, positive denominator) pair; y2 / 2 lies inside its span."""
    for (ax, ay), (bx, by) in zip(poly, poly[1:]):
        if 2 * by >= y2:
            dy = 2 * (by - ay)
            return ax * dy + (bx - ax) * (y2 - 2 * ay), dy
    raise InternalInvariantError(f"height {y2}/2 outside polyline span")


def _edge_partial_order_unchecked(d: Drawing) -> EdgeLeftRightOrder:
    polys, _, _, sy = d._scaled_polylines
    n = len(polys)
    spans = [(poly[0][1], poly[-1][1]) for poly in polys]
    succs: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        lo_i, hi_i = spans[i]
        for j in range(i + 1, n):
            lo = max(lo_i, spans[j][0])
            hi = min(hi_i, spans[j][1])
            if lo >= hi:
                continue
            # Compare xi = ni/di and xj = nj/dj at the midpoint (lo + hi) / 2.
            (ni, di), (nj, dj) = _x_at_half(polys[i], lo + hi), _x_at_half(polys[j], lo + hi)
            if ni * dj == nj * di:
                raise DegeneracyError(f"edges {i} and {j} coincide at height {Fraction(lo + hi, 2 * sy)}")
            if ni * dj < nj * di:
                succs[i].append(j)
            else:
                succs[j].append(i)
    order = EdgeLeftRightOrder(n, tuple(tuple(s) for s in succs))
    _check_acyclic(order)
    return order


def _check_acyclic(order: EdgeLeftRightOrder) -> None:
    try:
        TopologicalSorter(dict(enumerate(order.left_of))).prepare()
    except CycleError:
        raise InternalInvariantError("left-right edge relation contains a cycle") from None


def edge_partial_order(d: Drawing) -> EdgeLeftRightOrder:
    """Left-right relation between edges of a crossing-free drawing.

    For each pair of edges with overlapping open y intervals, exactly one
    direction is recorded, decided by exact x comparison at the midpoint of
    the shared interval.  The comparison runs on the integer-scaled
    polylines: with doubled heights the midpoint is an integer, each x there
    is a fraction with a positive denominator, and the two are compared by
    cross-multiplication.
    """
    if count_crossings_geometric(d).count != 0:
        raise GraphStructureError("edge order is only defined for crossing-free drawings",
                                  code="has-crossings")
    return _edge_partial_order_unchecked(d)


def _vertex_insertion_order_unchecked(d: Drawing, order: EdgeLeftRightOrder) -> VertexInsertionOrder:
    g = d.graph
    preds = order.predecessors()
    incident = g.incident_edges()
    placed: set[str] = set()
    sequence: list[str] = []

    start = min(g.vertices, key=lambda v: (d.x[v], g.vertices[v], v))

    def free(v: str) -> bool:
        # Edges incident to v itself are drawn in the same step as v, so they
        # count as settled when checking v's obligations.
        def settled(i: int) -> bool:
            a, b = g.edges[i]
            return (a in placed or a == v) and (b in placed or b == v)

        for e in incident[v]:
            other = g.edges[e][0] if g.edges[e][1] == v else g.edges[e][1]
            if other not in placed:
                continue
            if any(not settled(p) for p in preds[e]):
                return False
        return True

    sequence.append(start)
    placed.add(start)
    # Ranked once by the unique key (x, id): the first free vertex is the least.
    remaining = [v for v in sorted(g.vertices, key=lambda v: (d.x[v], v)) if v != start]
    while remaining:
        k = next((k for k, v in enumerate(remaining) if free(v)), None)
        if k is None:
            raise InternalInvariantError("no free vertex found; drawing is not crossing-free")
        v = remaining.pop(k)
        sequence.append(v)
        placed.add(v)
    return VertexInsertionOrder(tuple(sequence))


def vertex_insertion_order(d: Drawing, order: EdgeLeftRightOrder) -> VertexInsertionOrder:
    """Greedy left-to-right vertex order: start at the leftmost (lowest on
    ties) vertex, then repeatedly take the free vertex with least x (ties by
    id).  A vertex is free when, for each edge to an already-placed vertex,
    every edge left of it joins placed vertices only."""
    if count_crossings_geometric(d).count != 0:
        raise GraphStructureError("insertion order is only defined for crossing-free drawings",
                                  code="has-crossings")
    return _vertex_insertion_order_unchecked(d, order)


def stretch(d: Drawing) -> Drawing:
    """Redraw a crossing-free drawing with straight segments only.

    Vertices are placed in insertion order, each at an x strictly beyond
    everything placed so far and pushed further right (doubling the offset)
    until its new straight edges verifiably intersect nothing.  The output has
    zero crossings and the same per-level vertex order as the input.

    Every placed x is an integer (0, then the last x plus a power of two), so
    the heights are scaled once by the lcm of their denominators and every
    test runs on exact integers.  Placed x grows along the insertion order, so
    a new edge from u, whose box spans x(u) to the new x, can only meet the
    segments drawn and the vertices placed from u's turn on; of those, only
    the ones whose closed y-range meets the edge's reach the exact predicates.
    Outside that box the predicates answer NONE / False, so every placement
    is decided as by testing everything.
    """
    if count_crossings_geometric(d).count != 0:
        raise GraphStructureError("cannot stretch a drawing with crossings", code="has-crossings")
    g = d.graph
    if len(set(g.edges)) != len(g.edges):
        # Two straight segments between the same endpoints always coincide.
        raise GraphStructureError("parallel edges cannot be drawn as straight segments",
                                  code="parallel-edges")
    order = _edge_partial_order_unchecked(d)
    insertion = _vertex_insertion_order_unchecked(d, order)

    sy = lcm(*(h.denominator for h in g.vertices.values()))
    y = {v: h.numerator * (sy // h.denominator) for v, h in g.vertices.items()}
    point: dict[str, tuple[int, int]] = {}
    placed: list[tuple[int, int]] = []  # points in insertion order, so x increases
    drawn: list[tuple[tuple[int, int], tuple[int, int], int, int, frozenset[str]]] = []  # a, b, y range, ends
    since: dict[str, tuple[int, int]] = {}  # v -> lengths of drawn and placed before v's turn
    incident = g.incident_edges()

    for v in insertion.sequence:
        neighbors = sorted(
            {g.edges[e][0] if g.edges[e][1] == v else g.edges[e][1] for e in incident[v]}
            & set(point)
        )
        x = 0
        if placed:
            base = placed[-1][0]
            offset = 1
            for _ in range(64):
                x = base + offset
                if _placement_clean(neighbors, (x, y[v]), point, placed, drawn, since):
                    break
                offset *= 2
            else:
                raise InternalInvariantError(f"could not place vertex {v!r} clear of obstacles")
        pv = point[v] = (x, y[v])
        since[v] = (len(drawn), len(placed))
        placed.append(pv)
        for u in neighbors:
            pu = point[u]
            drawn.append((pu, pv, min(pu[1], pv[1]), max(pu[1], pv[1]), frozenset((u, v))))

    out = Drawing(graph=g, x={v: p[0] for v, p in point.items()})
    if per_level_order(out) != per_level_order(d):
        raise InternalInvariantError("stretching changed a per-level vertex order")
    if count_crossings_geometric(out).count != 0:
        raise InternalInvariantError("stretched drawing has crossings")
    return out


def _placement_clean(neighbors, pv, point, placed, drawn, since) -> bool:
    """True if v's new straight edges, to ``pv`` on integer coordinates, miss
    all drawn segments and placed vertices."""
    for u in neighbors:
        a = point[u]
        y_lo, y_hi = min(a[1], pv[1]), max(a[1], pv[1])
        first_seg, first_vertex = since[u]
        for (c, e, c_lo, c_hi, ends) in drawn[first_seg:]:
            if c_hi < y_lo or y_hi < c_lo:
                continue
            kind, pt = geometry.classify_segments(a, pv, c, e)
            if kind == geometry.NONE:
                continue
            if kind == geometry.TOUCH and u in ends and pt == a:
                continue
            return False
        for pw in placed[first_vertex + 1:]:  # placed[first_vertex] is u
            if y_lo <= pw[1] <= y_hi and geometry.on_segment(pw, a, pv):
                return False
    # New edges pairwise share only v (collinear overlaps would slip past the
    # drawn-segment checks above).
    for i in range(len(neighbors)):
        for j in range(i + 1, len(neighbors)):
            kind, pt = geometry.classify_segments(point[neighbors[i]], pv, point[neighbors[j]], pv)
            if kind == geometry.NONE or (kind == geometry.TOUCH and pt == pv):
                continue
            return False
    return True
