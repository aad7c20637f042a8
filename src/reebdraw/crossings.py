"""Drawings, exact crossing counting, and the exact minimum-crossing search.

A drawing fixes each vertex at y equal to its height and assigns it a rational
x coordinate; each edge becomes a strictly y-monotone polyline (optional bend
points between the endpoint heights).  Crossings are counted two ways:

* geometrically, by exact segment-intersection tests over the polylines, and
* combinatorially for leveled graphs, as inversions between consecutive-level
  orderings (two strip edges cross iff their endpoint orders disagree).

The two counters agree on realized layered drawings, which is what makes the
enumeration in :func:`exact_rgcn` an exact oracle for the minimum crossing
number: every per-level ordering is realizable with exactly one crossing per
inverted pair, and every drawing induces per-level orderings with at least
that many crossings inside each strip.

Degenerate geometry (collinear overlaps, tangencies, three segments through a
point, a polyline through a foreign vertex) raises :class:`DegeneracyError`
instead of guessing a count.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Iterable, Sequence

from . import geometry
from .core import LevelAssignment, ReebGraph, is_connected, levels, validate
from .errors import (
    BudgetExhaustedError,
    DegeneracyError,
    GraphStructureError,
    InternalInvariantError,
    LayoutError,
)
from .subdivide import SubdivisionMap, subdivide

Point = tuple[Fraction, Fraction]

DEFAULT_SEARCH_BUDGET = 10_000_000


@dataclass(frozen=True)
class Drawing:
    """A concrete drawing: per-vertex x coordinates plus per-edge bend points.

    The y coordinate of every vertex is forced to its height.  ``bends[i]``
    lists edge i's interior bend points ordered by strictly increasing y,
    strictly between the endpoint heights; an empty tuple means a straight
    segment.  Cheap invariants (bend monotonicity, vertex coincidences) are
    checked here; incidence degeneracies are caught when counting.
    """

    graph: ReebGraph
    x: dict[str, Fraction]
    bends: tuple[tuple[Point, ...], ...] = ()

    def __post_init__(self):
        xs = dict(self.x)
        missing = [v for v in self.graph.vertices if v not in xs]
        if missing:
            raise GraphStructureError(f"missing x coordinate for vertex {missing[0]!r}", code="missing-x")
        extra = [v for v in xs if v not in self.graph.vertices]
        if extra:
            raise GraphStructureError(f"x coordinate for unknown vertex {extra[0]!r}", code="unknown-vertex")
        bends = tuple(tuple((Fraction(px), Fraction(py)) for px, py in eb) for eb in self.bends)
        if not bends:
            bends = tuple(() for _ in self.graph.edges)
        if len(bends) != len(self.graph.edges):
            raise GraphStructureError(
                f"bend list length {len(bends)} does not match edge count {len(self.graph.edges)}",
                code="edge-mismatch",
            )
        for i, eb in enumerate(bends):
            lo, hi = self.graph.lower_upper(i)
            y_prev = self.graph.vertices[lo]
            y_top = self.graph.vertices[hi]
            for (_, py) in eb:
                if not (y_prev < py < y_top):
                    raise GraphStructureError(
                        f"bend of edge {i} at y={py} breaks strict y-monotonicity",
                        code="bad-bend",
                    )
                y_prev = py
        points: dict[Point, str] = {}
        for v in self.graph.vertices:
            p = (Fraction(xs[v]), self.graph.vertices[v])
            if p in points:
                raise DegeneracyError(f"vertices {points[p]!r} and {v!r} coincide at {p}")
            points[p] = v
        object.__setattr__(self, "x", {v: Fraction(c) for v, c in xs.items()})
        object.__setattr__(self, "bends", bends)

    def point(self, v: str) -> Point:
        return (self.x[v], self.graph.vertices[v])

    def polyline(self, edge_index: int) -> tuple[Point, ...]:
        """Edge polyline from the lower endpoint to the upper one."""
        lo, hi = self.graph.lower_upper(edge_index)
        return (self.point(lo), *self.bends[edge_index], self.point(hi))


def per_level_order(d: Drawing) -> tuple[tuple[str, ...], ...]:
    """Left-to-right vertex order on each level of a drawing."""
    lev = levels(d.graph)
    out = []
    for l in range(lev.count):
        vs = sorted((v for v in d.graph.vertices if lev.level[v] == l),
                    key=lambda v: (d.x[v], v))
        out.append(tuple(vs))
    return tuple(out)


@dataclass(frozen=True)
class LevelOrdering:
    """Left-to-right vertex sequences, one per level (level 0 first)."""

    orders: tuple[tuple[str, ...], ...]

    @classmethod
    def from_lists(cls, lists: Iterable[Sequence[str]]) -> "LevelOrdering":
        return cls(tuple(tuple(lst) for lst in lists))

    def positions(self) -> dict[str, int]:
        pos: dict[str, int] = {}
        for order in self.orders:
            for i, v in enumerate(order):
                pos[v] = i
        return pos

    def mirrored(self) -> "LevelOrdering":
        return LevelOrdering(tuple(tuple(reversed(order)) for order in self.orders))


@dataclass(frozen=True)
class CrossingPair:
    """One transversal crossing between two edges, with its witness point."""

    edges: tuple[int, int]
    point: Point


@dataclass(frozen=True)
class CrossingCertificate:
    count: int
    pairs: tuple[CrossingPair, ...]


def _scaled_polylines(
    d: Drawing,
) -> tuple[list[list[tuple[int, int]]], dict[str, tuple[int, int]], int, int]:
    """Polylines and vertex points with coordinates scaled to integers;
    returns (polylines, vertex points, sx, sy).

    The scales cover every vertex, isolated ones included, so each scaled
    coordinate is exact.
    """
    bend_pts = [p for eb in d.bends for p in eb]
    sx = lcm(*(x.denominator for x in d.x.values()), *(px.denominator for px, _ in bend_pts))
    sy = lcm(*(h.denominator for h in d.graph.vertices.values()), *(py.denominator for _, py in bend_pts))

    def scaled(p: Point) -> tuple[int, int]:
        return (p[0].numerator * (sx // p[0].denominator), p[1].numerator * (sy // p[1].denominator))

    vertex_pt = {v: scaled(d.point(v)) for v in d.graph.vertices}
    polys = []
    for i, eb in enumerate(d.bends):
        lo, hi = d.graph.lower_upper(i)
        polys.append([vertex_pt[lo], *map(scaled, eb), vertex_pt[hi]])
    return polys, vertex_pt, sx, sy


def count_crossings_geometric(d: Drawing) -> CrossingCertificate:
    """Count transversal interior intersections between distinct edge polylines.

    Shared endpoints are not crossings.  A pair of edges meeting twice counts
    twice.  Collinear overlaps, touches away from shared vertices, three
    segments through one interior point, and polylines through foreign
    vertices all raise :class:`DegeneracyError`.

    Coordinates are scaled to integers once.  Every segment is strictly
    y-monotone, so it meets at most one point per height: the foreign-vertex
    check bisects a sorted list of the distinct vertex heights to those in the
    segment's closed y-range and looks up the one point of the segment there.
    It costs one lookup per (segment, vertex height in its range) instead of
    one test per (edge, vertex, segment).  The pair sweep runs over segments
    sorted by lower y; a segment meets only the later ones that start at or
    below its upper y (found by bisection), their stored x-extents reject most
    of those, and only the rest reach the exact intersection test.  The sweep
    thus costs O(n log n + P) for n segments and P pairs whose y-ranges overlap.
    """
    polys, vertex_pt, sx, sy = _scaled_polylines(d)

    # A polyline must not pass through any vertex other than its endpoints.
    # Report the first offender of the lowest edge, in ``graph.vertices`` order.
    rank = {v: k for k, v in enumerate(d.graph.vertices)}
    vertex_at = {p: v for v, p in vertex_pt.items()}
    heights = sorted({p[1] for p in vertex_pt.values()})
    for ei, poly in enumerate(polys):
        ends = d.graph.edges[ei]
        offenders = []
        for (ax, ay), (bx, by) in zip(poly, poly[1:]):
            dx, dy = bx - ax, by - ay
            for y in heights[bisect_left(heights, ay):bisect_right(heights, by)]:
                num = ax * dy + (y - ay) * dx
                if num % dy == 0:
                    v = vertex_at.get((num // dy, y))
                    if v is not None and v not in ends:
                        offenders.append(v)
        if offenders:
            v = min(offenders, key=rank.__getitem__)
            raise DegeneracyError(f"edge {ei} passes through vertex {v!r}")

    # Flatten to segments with their x-extent, remembering the owning edge;
    # polylines run upward, so a lies below b.  Sweep by y interval.
    segs = []
    for ei, poly in enumerate(polys):
        for a, b in zip(poly, poly[1:]):
            x_lo, x_hi = (a[0], b[0]) if a[0] <= b[0] else (b[0], a[0])
            segs.append((a[1], b[1], x_lo, x_hi, a, b, ei))
    segs.sort(key=itemgetter(0, 1))
    starts = [s[0] for s in segs]

    shared_cache: dict[tuple[int, int], frozenset[tuple[int, int]]] = {}

    def shared_points(ei: int, ej: int) -> frozenset[tuple[int, int]]:
        key = (ei, ej)
        got = shared_cache.get(key)
        if got is None:
            common = set(d.graph.edges[ei]) & set(d.graph.edges[ej])
            got = frozenset(vertex_pt[v] for v in common)
            shared_cache[key] = got
        return got

    hits: list[CrossingPair] = []
    seen_points: dict[tuple, set[int]] = {}
    for i, (_, y_hi_i, x_lo_i, x_hi_i, a, b, ei) in enumerate(segs):
        for j in range(i + 1, bisect_right(starts, y_hi_i)):
            _, _, x_lo_j, x_hi_j, c, dd, ej = segs[j]
            if ei == ej or x_hi_i < x_lo_j or x_hi_j < x_lo_i:
                continue
            kind, pt = geometry.classify_segments(a, b, c, dd)
            if kind == geometry.NONE:
                continue
            if kind == geometry.OVERLAP:
                raise DegeneracyError(f"edges {ei} and {ej} contain overlapping collinear segments")
            if kind == geometry.TOUCH:
                if pt in shared_points(*sorted((ei, ej))):
                    continue
                raise DegeneracyError(
                    f"edges {ei} and {ej} touch at {pt} without crossing transversally"
                )
            # Proper crossing.  Track concurrency: three distinct segments
            # through one interior point is degenerate.
            witnesses = seen_points.setdefault(pt, set())
            witnesses.add(i)
            witnesses.add(j)
            if len(witnesses) > 2:
                raise DegeneracyError(f"three or more segments concurrent at {pt}")
            e_lo, e_hi = sorted((ei, ej))
            hits.append(CrossingPair(edges=(e_lo, e_hi), point=(Fraction(pt[0], sx), Fraction(pt[1], sy))))

    hits.sort(key=lambda h: (h.edges, h.point))
    return CrossingCertificate(count=len(hits), pairs=tuple(hits))


def _inversions(seq: Sequence[int]) -> int:
    """Number of pairs i < j with seq[i] > seq[j] (strict), via merge counting."""
    arr = list(seq)
    if len(arr) < 2:
        return 0
    buf = arr[:]

    def rec(lo: int, hi: int) -> int:
        if hi - lo < 2:
            return 0
        mid = (lo + hi) // 2
        inv = rec(lo, mid) + rec(mid, hi)
        i, j, k = lo, mid, lo
        while i < mid and j < hi:
            if arr[i] <= arr[j]:
                buf[k] = arr[i]
                i += 1
            else:
                buf[k] = arr[j]
                inv += mid - i
                j += 1
            k += 1
        buf[k:hi] = arr[i:mid] if i < mid else arr[j:hi]
        arr[lo:hi] = buf[lo:hi]
        return inv

    return rec(0, len(arr))


def _strip_edges(g2: ReebGraph, lev: LevelAssignment) -> list[list[tuple[str, str]]]:
    """Edges grouped by strip; each as (lower vertex, upper vertex)."""
    strips: list[list[tuple[str, str]]] = [[] for _ in range(max(lev.count - 1, 0))]
    for i in range(len(g2.edges)):
        lo, hi = g2.lower_upper(i)
        strips[lev.level[lo]].append((lo, hi))
    return strips


def _strip_crossings(pairs: Iterable[tuple[int, int]]) -> int:
    """Crossings among strip edges given (lower position, upper position) pairs."""
    ordered = sorted(pairs)
    return _inversions([hi for _, hi in ordered])


def _check_ordering(g2: ReebGraph, lev: LevelAssignment, ordering: LevelOrdering) -> None:
    if len(ordering.orders) != lev.count:
        raise GraphStructureError(
            f"ordering has {len(ordering.orders)} levels, graph has {lev.count}",
            code="ordering-mismatch",
        )
    for l, order in enumerate(ordering.orders):
        expected = {v for v, lv in lev.level.items() if lv == l}
        if set(order) != expected or len(order) != len(expected):
            raise GraphStructureError(
                f"ordering for level {l} does not cover exactly that level's vertices",
                code="ordering-mismatch",
            )


def count_crossings_layered(g2: ReebGraph, ordering: LevelOrdering) -> int:
    """Crossings of a leveled graph under per-level orderings, by inversion counting.

    Two edges of the same strip with no shared endpoint cross iff their lower
    endpoints and upper endpoints are ordered oppositely; shared endpoints and
    parallel edges contribute nothing.
    """
    lev = levels(g2)
    for i, (a, b) in enumerate(g2.edges):
        if abs(lev.level[a] - lev.level[b]) != 1:
            raise GraphStructureError(
                f"layered counting requires consecutive-level edges; edge {i} ({a}, {b}) skips levels",
                code="not-leveled",
            )
    _check_ordering(g2, lev, ordering)
    pos = ordering.positions()
    total = 0
    for strip in _strip_edges(g2, lev):
        total += _strip_crossings((pos[lo], pos[hi]) for lo, hi in strip)
    return total


def realize_layered(g2: ReebGraph, ordering: LevelOrdering) -> Drawing:
    """Straight-line drawing of a leveled graph whose geometric count equals the layered count.

    Vertices sit at (position, height).  Parallel edges beyond the first copy
    get a small mid-strip bend, and when integer positions happen to be
    degenerate (three segments concurrent), per-level rational jitter is
    applied, shrinking deterministically until the exact geometric count
    matches the layered count.
    """
    target = count_crossings_layered(g2, ordering)
    lev = levels(g2)
    n = max(g2.vertex_count, 2)
    widths = [len(order) for order in ordering.orders]

    par_groups: dict[tuple[str, str], list[int]] = {}
    for i, pair in enumerate(g2.edges):
        par_groups.setdefault(pair, []).append(i)

    pos = ordering.positions()

    import random as _random

    def attempt(mode: int, fan_denom: int, seed: int, denom: int) -> Drawing:
        xs: dict[str, Fraction] = {}
        rng = _random.Random(seed)
        for l, order in enumerate(ordering.orders):
            for i, v in enumerate(order):
                x = Fraction(i)
                if mode == 1:
                    # Per-level shear: offset grows with the position index.
                    x += Fraction(i, 2 * max(widths[l], 1) * n * n)
                elif mode == 2:
                    # Fresh pseudo-random offsets per attempt: structured
                    # offset families can leave symmetric concurrencies (for
                    # example equal position sums meeting at mid-strip) exactly
                    # in place, so draw offsets with no algebraic relation to
                    # the positions.  The seed is fixed, so output stays
                    # deterministic.
                    x += Fraction(rng.randrange(1, 1 << 20), denom)
                xs[v] = x
        bends: list[tuple[Point, ...]] = [() for _ in g2.edges]
        for pair, members in par_groups.items():
            if len(members) < 2:
                continue
            lo, hi = (pair if g2.vertices[pair[0]] < g2.vertices[pair[1]] else (pair[1], pair[0]))
            mid_y = (g2.vertices[lo] + g2.vertices[hi]) / 2
            mid_x = (xs[lo] + xs[hi]) / 2
            for c, ei in enumerate(members[1:], start=1):
                bends[ei] = ((mid_x + Fraction(c, fan_denom), mid_y),)
        return Drawing(graph=g2, x=xs, bends=tuple(bends))

    schedule: list[tuple[int, int, int, int]] = [
        (0, 4 * (n + 1), 0, 1),
        (1, 8 * (n + 1), 0, 1),
    ]
    denom = (1 << 22) * n * n * n
    for t in range(40):
        schedule.append((2, denom, 6121 + 7919 * t, denom))
        denom *= 2

    for mode, fan_denom, seed, denom in schedule:
        try:
            d = attempt(mode, fan_denom, seed, denom)
            cert = count_crossings_geometric(d)
        except DegeneracyError:
            continue
        if cert.count == target:
            return d
    raise InternalInvariantError("could not realize layered ordering without degeneracy")


def barycenter_ordering(g2: ReebGraph, rounds: int = 10) -> LevelOrdering:
    """Deterministic barycenter-sweep ordering of a leveled graph.

    Starting from id-sorted levels, each level is reordered by the mean
    position of its lower neighbors (upward pass) then of its upper neighbors
    (downward pass), ``rounds`` times, ties broken by vertex id.
    """
    lev = levels(g2)
    orders: list[list[str]] = [sorted(vs) for vs in _split_levels(lev)]
    down_nbrs: dict[str, list[str]] = {v: [] for v in g2.vertices}
    up_nbrs: dict[str, list[str]] = {v: [] for v in g2.vertices}
    for i in range(len(g2.edges)):
        lo, hi = g2.lower_upper(i)
        down_nbrs[hi].append(lo)
        up_nbrs[lo].append(hi)

    def sweep(level_order: list[str], nbrs: dict[str, list[str]], pos: dict[str, int]) -> list[str]:
        pos_self = {v: i for i, v in enumerate(level_order)}

        def key(v: str):
            ns = nbrs[v]
            if not ns:
                return (Fraction(pos_self[v]), v)
            return (Fraction(sum(pos[w] for w in ns), len(ns)), v)

        return sorted(level_order, key=key)

    for _ in range(rounds):
        for l in range(1, lev.count):
            below = {v: i for i, v in enumerate(orders[l - 1])}
            orders[l] = sweep(orders[l], down_nbrs, below)
        for l in range(lev.count - 2, -1, -1):
            above = {v: i for i, v in enumerate(orders[l + 1])}
            orders[l] = sweep(orders[l], up_nbrs, above)
    return LevelOrdering.from_lists(orders)


def _dfs_level_orders(g2: ReebGraph, lev: LevelAssignment) -> list[list[str]]:
    """Order each level by depth-first discovery time; subtrees stay contiguous."""
    adj: dict[str, list[str]] = {v: [] for v in g2.vertices}
    for a, b in g2.edges:
        adj[a].append(b)
        adj[b].append(a)
    for v in adj:
        adj[v] = sorted(set(adj[v]))
    orders: list[list[str]] = [[] for _ in range(lev.count)]
    seen: set[str] = set()
    for root in sorted(g2.vertices, key=lambda v: (lev.level[v], v)):
        if root in seen:
            continue
        seen.add(root)
        stack = [root]
        while stack:
            v = stack.pop()
            orders[lev.level[v]].append(v)
            for w in reversed(adj[v]):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return orders


def _warm_start(g2: ReebGraph) -> int:
    """Upper bound for the exact search: the best of barycenter sweeps and a
    depth-first ordering, improved by one-vertex sifting until stable."""
    lev = levels(g2)
    if lev.count == 0:
        return 0
    strips = _strip_edges(g2, lev)

    def cost_of(orders: list[list[str]]) -> int:
        pos = {v: i for order in orders for i, v in enumerate(order)}
        return sum(
            _strip_crossings((pos[lo], pos[hi]) for lo, hi in strip)
            for strip in strips
        )

    def sift(orders: list[list[str]]) -> int:
        for _ in range(8):
            improved = False
            for l in range(lev.count):
                for v in list(orders[l]):
                    base = orders[l].index(v)
                    best_pos, best_cost = base, cost_of(orders)
                    for p in range(len(orders[l])):
                        if p == base:
                            continue
                        orders[l].remove(v)
                        orders[l].insert(p, v)
                        c = cost_of(orders)
                        if c < best_cost:
                            best_pos, best_cost = p, c
                        orders[l].remove(v)
                        orders[l].insert(base, v)
                    if best_pos != base:
                        orders[l].remove(v)
                        orders[l].insert(best_pos, v)
                        improved = True
            if not improved:
                break
        return cost_of(orders)

    candidates = [_dfs_level_orders(g2, lev)]
    for rounds in (1, 2, 4, 10):
        candidates.append([list(o) for o in barycenter_ordering(g2, rounds).orders])
    best = min(cost_of(orders) for orders in candidates)
    for orders in candidates[:2]:
        best = min(best, sift(orders))
        if best == 0:
            break
    return best


@dataclass(frozen=True)
class ExactResult:
    """Outcome of the exact search: minimum count plus a witnessing ordering.

    The ordering is over the subdivided graph (``graph``); ``mapping`` links it
    back to the input.  ``states`` is the number of search nodes explored.
    """

    count: int
    ordering: LevelOrdering
    graph: ReebGraph
    mapping: SubdivisionMap
    states: int


def _strip_lower_bound(strip: list[tuple[str, str]], w_lo: int, w_hi: int) -> int:
    """Crossings any ordering must pay inside one strip.

    A crossing-free two-layer graph has at most w_lo + w_hi - 1 (distinct)
    edges, so at least m - (w_lo + w_hi - 1) edges must each close a crossing.
    """
    distinct = len(set(strip))
    return max(0, distinct - (w_lo + w_hi - 1))


def exact_rgcn(g: ReebGraph, budget: int | None = DEFAULT_SEARCH_BUDGET) -> ExactResult:
    """Exact minimum crossing number over all drawings, with a witness ordering.

    Subdivides the graph, then minimizes the layered count over all per-level
    permutations by depth-first search: levels are fixed bottom-up, and within
    a level vertices are placed left to right, paying the inversions each
    placement closes against the strip below.  Already-paid inversions plus
    unavoidable-crossing bounds for undecided strips prune against the
    incumbent, which starts at the barycenter heuristic's cost.  Candidates
    are tried in lexicographic id order and only strict improvements replace
    the incumbent, so the returned witness is the lexicographically least
    optimal ordering.  Raises :class:`BudgetExhaustedError` (carrying the best
    bound found) once more than ``budget`` placements have been explored.
    """
    if not is_connected(g):
        raise LayoutError("exact search requires a connected graph", code="disconnected")
    g2, smap = subdivide(g)
    lev = levels(g2)
    level_vertices = [sorted(vs) for vs in _split_levels(lev)]
    strips = _strip_edges(g2, lev)

    if lev.count == 0:
        return ExactResult(0, LevelOrdering(()), g2, smap, 0)

    # Lower endpoints of each vertex's downward edges, per level.
    down_ends: list[dict[str, list[str]]] = [
        {v: [] for v in vs} for vs in level_vertices
    ]
    for l, strip in enumerate(strips):
        for lo, hi in strip:
            down_ends[l + 1][hi].append(lo)

    # future_lb[l]: crossings unavoidable in strips at or above level l.
    strip_lb = [
        _strip_lower_bound(strips[s], len(level_vertices[s]), len(level_vertices[s + 1]))
        for s in range(lev.count - 1)
    ]
    future_lb = [0] * (lev.count + 1)
    for s in range(lev.count - 2, -1, -1):
        future_lb[s] = future_lb[s + 1] + strip_lb[s]

    warm = _warm_start(g2)

    best_orders: list[tuple[tuple[str, ...], ...] | None] = [None]
    chosen: list[tuple[str, ...]] = []
    states = [0]
    found = [False]

    def pair_bound(low_positions: dict[str, list[int]], vs: list[str]) -> int:
        """Crossings the strip below must pay however this level is ordered:
        each vertex pair contributes at least the cheaper of its two relative
        orders."""
        total = 0
        for i in range(len(vs)):
            pi = low_positions[vs[i]]
            if not pi:
                continue
            for j in range(i + 1, len(vs)):
                pj = low_positions[vs[j]]
                if not pj:
                    continue
                i_first = sum(len(pi) - bisect_right(pi, p) for p in pj)
                j_first = sum(len(pj) - bisect_right(pj, p) for p in pi)
                total += min(i_first, j_first)
        return total

    # Iterative deepening: search for a completion of cost at most ``target``,
    # raising the target until one exists.  Earlier rounds prove no cheaper
    # completion exists, so the first completion found costs exactly the
    # minimum, and depth-first order makes it the lexicographically least.
    def fill_level(level: int, cost: int, target: int,
                   memo: dict[tuple[int, tuple[str, ...] | None], int]) -> None:
        if level == lev.count:
            best_orders[0] = tuple(chosen)
            found[0] = True
            return
        state = (level, chosen[level - 1] if level > 0 else None)
        seen = memo.get(state)
        if seen is not None and seen <= cost:
            return
        memo[state] = cost
        vs = level_vertices[level]
        below = {v: i for i, v in enumerate(chosen[level - 1])} if level > 0 else {}
        low_positions = {v: sorted(below[lo] for lo in down_ends[level][v]) for v in vs}
        if cost + pair_bound(low_positions, vs) + future_lb[level] > target:
            return
        perm: list[str] = []
        used: set[str] = set()
        paid: list[int] = []  # sorted lower positions of edges already placed

        def place(cost_here: int) -> None:
            if len(perm) == len(vs):
                chosen.append(tuple(perm))
                fill_level(level + 1, cost_here, target, memo)
                if not found[0]:
                    chosen.pop()
                return
            for v in vs:
                if found[0]:
                    return
                if v in used:
                    continue
                states[0] += 1
                if budget is not None and states[0] > budget:
                    raise BudgetExhaustedError(
                        f"exact search exceeded budget of {budget} states",
                        best=warm,
                    )
                # Edges placed earlier whose lower endpoint lies strictly
                # right of a new edge's lower endpoint now cross it.
                add = sum(len(paid) - bisect_right(paid, p) for p in low_positions[v])
                if cost_here + add + future_lb[level] > target:
                    continue
                perm.append(v)
                used.add(v)
                for p in low_positions[v]:
                    insort(paid, p)
                place(cost_here + add)
                if found[0]:
                    return
                for p in low_positions[v]:
                    paid.remove(p)
                used.remove(v)
                perm.pop()

        place(cost)

    minimum = None
    for target in range(future_lb[0], warm + 1):
        fill_level(0, 0, target, {})
        if found[0]:
            minimum = target
            break
    if minimum is None or best_orders[0] is None:
        # Unreachable: the warm-start cost itself is always attainable.
        raise InternalInvariantError("exact search finished without a witness")
    return ExactResult(
        count=minimum,
        ordering=LevelOrdering(best_orders[0]),
        graph=g2,
        mapping=smap,
        states=states[0],
    )


def _split_levels(lev: LevelAssignment) -> list[list[str]]:
    out: list[list[str]] = [[] for _ in range(lev.count)]
    for v, l in lev.level.items():
        out[l].append(v)
    return out
