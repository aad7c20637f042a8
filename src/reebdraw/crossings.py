"""Crossing counting, realization, heuristic orderings and the exact minimum search.

A drawing (:class:`reebdraw.core.Drawing`) fixes each vertex at y equal to its
height and assigns it a rational x coordinate; each edge becomes a strictly
y-monotone polyline (optional bend points between the endpoint heights).  Two
edges of one strip (between consecutive levels) cross iff the orders of their
ends on the two levels disagree; :func:`_strip_inversions` walks a strip by
this rule.  The layered counter sums its inversions.  The geometric counter
reads its level edges straight from the integer frame into their strips and
makes sweep records only for the other segments.  It gathers the pairs that
can meet in one candidate map, the level edges' pairs from those inversions
and the rest from the level strips and the x-slabs of the other segments,
each segment with later ones that start strictly below its top (a pair that
meets only where one ends and the other starts is settled elsewhere), and
then tests the map in sweep order.  The x-slabs also find the vertices that
lie on another edge.

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

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain, pairwise
from math import comb, inf, lcm
from operator import itemgetter, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import geometry
from .core import Drawing, LevelOrdering, Point, ReebGraph, _Value, is_connected, levels
from .errors import (
    BudgetExhaustedError,
    DegeneracyError,
    GraphStructureError,
    InternalInvariantError,
    LayoutError,
)
from .subdivide import LeveledView, SubdivisionMap, _leveled, subdivide

DEFAULT_SEARCH_BUDGET = 10_000_000


class CrossingPair(NamedTuple):
    """One transversal crossing between two edges, with its witness point."""

    edges: tuple[int, int]
    point: Point


class CrossingCertificate(_Value):
    count: int
    pairs: tuple[CrossingPair, ...]

    def __init__(self, count: int, pairs: tuple[CrossingPair, ...]):
        self.__dict__.update(count=count, pairs=pairs)


def count_crossings_geometric(d: Drawing) -> CrossingCertificate:
    """Count transversal interior intersections between distinct edge polylines.

    Shared endpoints are not crossings.  A pair of edges meeting twice counts
    twice.  Collinear overlaps, touches away from shared vertices, three
    segments through one interior point, and polylines through foreign
    vertices all raise :class:`DegeneracyError`.

    The count reads only the drawing's integer frame
    (``Drawing._scaled_polylines``) and builds its own index, the x-slabs of
    the non-level segments (:func:`_x_slabs`).  A level edge passes no vertex
    height, so a foreign vertex lies on a non-level segment: one of its own
    slab that starts at or below it, found by an integer cross product.

    The pair sweep visits segments sorted by lower y and tests each against
    the later ones whose x-extents overlap its own and that start strictly
    below its upper y.  One that starts at that height meets it at most in
    one point, an end of both: a vertex both edges share, no degeneracy; a
    bend on a vertex, which the foreign-vertex check refuses; or two edges'
    coinciding bends, where their segments that end there meet too, earlier
    in the sweep, and refuse.  A *level* edge has no bend and passes no vertex
    height, so its one segment spans one strip between consecutive heights.

    A level edge goes straight from the frame to its strip, keyed by the
    strip's lower y, as (lower x, upper x, edge).  Only the other segments
    become sweep records (the form of :func:`_record`), which are sorted, x-slabbed and
    checked against foreign vertices.  A record starts with its place in the
    sweep, (lower y, upper y, edge), so records compare in sweep order; a
    level edge gets its record only for a pair it joins.

    The pairs come in two phases.  First one candidate map {i: [j, ...]},
    for records i < j, each list ascending: :func:`_strip_pairs` gives the
    pairs with a level segment, strip by strip, and each non-level segment
    adds the later members of its x-slabs that start below its top, one
    slab's slice when it lies in one slab.  Then one loop tests the map's
    pairs in sweep order, which is the order of a scan over the whole
    y-window, so the first degeneracy is the same.  Both
    segments run upward, so a shared lower or upper end is an overlap iff
    they are collinear and a touch otherwise; other pairs take
    :func:`geometry.classify_segments`.  A proper crossing's point is one
    integer triple (:func:`geometry.crossing_point`), which keys the
    concurrency check.
    """
    polys, vertex_pt, sx, sy = d._scaled_polylines
    above = dict(pairwise(sorted({y for _, y in vertex_pt.values()})))  # each vertex height's next one
    strips: dict[int, list[tuple[int, int, int]]] = {}
    segs = []
    for ei, poly in enumerate(polys):
        if len(poly) == 2 and above[poly[0][1]] == poly[1][1]:
            strips.setdefault(poly[0][1], []).append((poly[0][0], poly[1][0], ei))
        else:
            # :func:`_record` written out: a call per segment costs about 4% of
            # the count on drawings whose edges are straight and non-level.
            for a, b in pairwise(poly):
                segs.append((a[1], b[1], ei, a[0], b[0], a, b) if a[0] <= b[0] else (a[1], b[1], ei, b[0], a[0], a, b))
    segs.sort()
    slabs, slab_starts, slab_range, x0, width = _x_slabs(segs) if segs else ((), (), (), 0, 1)

    # A polyline must not pass through a vertex other than its ends: report
    # the lowest such edge, then its first such vertex in ``graph.vertices`` order.
    through = []
    for k, p in enumerate(vertex_pt.values()) if segs else ():
        px, py = p
        m = (px - x0) // width
        for _, y_hi, ei, _, _, (ax, ay), (bx, by) in slabs[m][:bisect_right(slab_starts[m], py)] if 0 <= m < len(slabs) else ():
            if py <= y_hi and (bx - ax) * (py - ay) == (by - ay) * (px - ax) and p not in (polys[ei][0], polys[ei][-1]):
                through.append((ei, k))
    if through:
        ei, k = min(through)
        raise DegeneracyError(f"edge {ei} passes through vertex {list(vertex_pt)[k]!r}")

    pairs = _strip_pairs(strips, segs, polys)  # the candidate map; the non-level pairs join it here
    for i, (first, last) in zip(segs, slab_range):
        if first == last:  # most segments lie in one slab, whose slice is in sweep order
            later = slabs[first][bisect_right(slabs[first], i):bisect_left(slab_starts[first], i[1])]
        else:
            later = sorted({j for m in range(first, last + 1)
                            for j in slabs[m][bisect_right(slabs[m], i):bisect_left(slab_starts[m], i[1])]})
        if later:
            pairs[i] = sorted(later + pairs[i]) if i in pairs else later
    orient, classify = geometry.orient, geometry.classify_segments
    hits: list[CrossingPair] = []
    seen_points: dict[tuple[int, int, int], set[tuple]] = {}
    for i in sorted(pairs):
        _, _, ei, x_lo_i, x_hi_i, a, b = i
        for j in pairs[i]:
            _, _, ej, x_lo_j, x_hi_j, c, dd = j
            if x_hi_i < x_lo_j or x_hi_j < x_lo_i:
                continue
            if a == c or b == dd:
                kind = geometry.OVERLAP if orient(a, b, dd if a == c else c) == 0 else geometry.TOUCH
                pt = a if a == c else b
            else:
                kind, pt = classify(a, b, c, dd)
                if kind == geometry.NONE:
                    continue
            if kind == geometry.OVERLAP:
                raise DegeneracyError(f"edges {ei} and {ej} contain overlapping collinear segments")
            if kind == geometry.TOUCH:
                # Vertex points are distinct, so a point that is an end of
                # both edges is a vertex they share.
                if pt in (polys[ei][0], polys[ei][-1]) and pt in (polys[ej][0], polys[ej][-1]):
                    continue
                raise DegeneracyError(f"edges {ei} and {ej} touch at {pt} without crossing transversally")
            # Proper crossing.  Track concurrency: three distinct segments
            # through one interior point is degenerate.
            key = geometry.crossing_point(a, b, c, dd)
            witnesses = seen_points.setdefault(key, set())
            witnesses.update((i, j))
            xn, yn, den = key
            if len(witnesses) > 2:
                pt = (Fraction(xn, den), Fraction(yn, den))
                raise DegeneracyError(f"three or more segments concurrent at {pt}")
            e_lo, e_hi = sorted((ei, ej))
            hits.append(CrossingPair(edges=(e_lo, e_hi), point=(Fraction(xn, den * sx), Fraction(yn, den * sy))))

    hits.sort(key=lambda h: (h.edges, h.point))
    return CrossingCertificate(count=len(hits), pairs=tuple(hits))


def _strip_inversions(edges: Iterable[tuple[int, int, int]]) -> Iterator[tuple[tuple, list[int], int]]:
    """Walk one strip's edges, given as (lower position, upper position, tag), in
    sorted order; yield each edge, the tags ``owners`` of the earlier edges by
    upper position, and ``pos``, the first of them whose upper position exceeds
    its own.  The edge crosses exactly ``owners[pos:]``, earlier edges with its
    positions sit just before ``pos``, and ``owners`` grows as the walk goes on."""
    uppers: list[int] = []  # the upper positions so far, ascending, and their edges' tags
    owners: list[int] = []
    for edge in sorted(edges):
        _, hi, tag = edge
        pos = bisect_right(uppers, hi)
        yield edge, owners, pos
        uppers.insert(pos, hi)
        owners.insert(pos, tag)


def _record(a: tuple[int, int], b: tuple[int, int], ei: int) -> tuple:
    """The sweep record of edge ``ei``'s segment from ``a`` up to ``b``:
    (lower y, upper y, edge, lower x, upper x, a, b).  Its first three fields
    are its place in the sweep, so records sort and compare in sweep order.
    The counter builds the non-level segments' records inline, in this form;
    :func:`_strip_pairs` builds a level segment's for each pair it joins."""
    return (a[1], b[1], ei, a[0], b[0], a, b) if a[0] <= b[0] else (a[1], b[1], ei, b[0], a[0], a, b)


def _strip_pairs(strips: dict[int, list[tuple[int, int, int]]], segs: list[tuple],
                 polys: Sequence[tuple[tuple[int, int], ...]]) -> dict[tuple, list[tuple]]:
    """The pairs with a level segment that can meet, as {i: [j, ...]} for
    sweep records i < j, each list ascending.  ``strips`` holds each strip's
    level edges as (lower x, upper x, edge), keyed by its lower y; ``segs``
    holds the records of the other segments, in sweep order.  A level edge's
    record is built (from ``polys``) only for the pairs it joins.  A strip's
    level segments cross where :func:`_strip_inversions` over their (lower x,
    upper x) says, overlap iff both xs are equal, and meet otherwise only at
    shared vertices.  The strips are disjoint, so sorted by lower y a
    non-level segment bisects their bottoms and tops for those its open
    y-range crosses.  In each whose x-range meets its own, it bisects the
    spans sorted by lower x for those whose x-extents overlap its own, from
    its own lower x less the strip's widest span (``reach``).  That index is
    built only when both kinds of segment exist."""
    def level(e: int) -> tuple:
        return _record(*polys[e], e)

    pairs: dict[tuple, list[tuple]] = {}
    for strip in strips.values():
        last_lo = last_hi = None
        same = 0  # the segments walked just before this one with its ends: owners[pos - same:pos]
        for (lo, hi, k), owners, pos in _strip_inversions(strip):
            same = same + 1 if lo == last_lo and hi == last_hi else 0
            last_lo, last_hi = lo, hi
            if pos - same < len(owners):  # most segments cross and overlap nothing
                for j in owners[pos - same:]:
                    pairs.setdefault(level(min(j, k)), []).append(level(max(j, k)))
    if segs and strips:
        bottoms, tops, index = sorted(strips), [], []
        for y in bottoms:
            spans = sorted((lo, hi, k) if lo <= hi else (hi, lo, k) for lo, hi, k in strips[y])
            starts, x_his = list(map(itemgetter(0), spans)), list(map(itemgetter(1), spans))
            tops.append(polys[spans[0][2]][1][1])
            index.append((spans, starts, max(map(sub, x_his, starts)), max(x_his)))
        for n in segs:
            y_lo_n, y_hi_n, _, x_lo_n, x_hi_n, _, _ = n
            for spans, starts, reach, x_max in index[bisect_right(tops, y_lo_n):bisect_left(bottoms, y_hi_n)]:
                if starts[0] <= x_hi_n and x_lo_n <= x_max:
                    for _, x_hi, k in spans[bisect_left(starts, x_lo_n - reach):bisect_right(starts, x_hi_n)]:
                        if x_hi >= x_lo_n:
                            k = level(k)
                            pairs.setdefault(min(n, k), []).append(max(n, k))
    for js in pairs.values():
        js.sort()
    return pairs


def _x_slabs(segs: list[tuple]) -> tuple[list[list[tuple]], list[list[int]], list[tuple[int, int]], int, int]:
    """Cover the x-range of the sweep records ``segs`` (in sweep order) with
    equal slabs; returns each slab's members in sweep order and their lower
    ys, each record's first and last slab, and the left end x0 and the width,
    so that x lies in slab (x - x0) // width.  The counter gives it the
    non-level segments only: two x-overlapping ones share a slab, so a
    non-level segment's candidates among them, which the counter adds to its
    candidate map, are the later members of its slabs that start strictly
    below its upper y.  The slab width is the mean x-extent, but at least the
    range over the segment count: at most about one slab per segment."""
    x_los, x_his = list(map(itemgetter(3), segs)), list(map(itemgetter(4), segs))
    x0, n = min(x_los), len(segs)
    span = max(x_his) - x0
    width = max((sum(x_his) - sum(x_los)) // n, span // n, 1)
    slabs: list[list[tuple]] = [[] for _ in range(span // width + 1)]
    slab_starts: list[list[int]] = [[] for _ in slabs]
    slab_range = [((x_lo - x0) // width, (x_hi - x0) // width) for x_lo, x_hi in zip(x_los, x_his)]
    for seg, (first, last) in zip(segs, slab_range):
        for m in range(first, last + 1):
            slabs[m].append(seg)
            slab_starts[m].append(seg[0])
    return slabs, slab_starts, slab_range, x0, width


def _layered_cost(strips: list[list[tuple[str, str]]], orders: Sequence[Sequence[str]]) -> int:
    """Crossings of the strip edges under per-level orders (see :func:`count_crossings_layered`).
    The k-th edge walked crosses k - pos earlier edges, so a strip of m edges has C(m, 2) - sum(pos)."""
    pos = {v: i for order in orders for i, v in enumerate(order)}
    walks = chain.from_iterable(_strip_inversions([(pos[lo], pos[hi], i) for i, (lo, hi) in enumerate(strip)])
                                for strip in strips)
    return sum(comb(len(strip), 2) for strip in strips) - sum(map(itemgetter(2), walks))


def count_crossings_layered(g2: ReebGraph, ordering: LevelOrdering) -> int:
    """Crossings of a leveled graph under per-level orderings, counted by :func:`_strip_inversions`.

    Two edges of the same strip with no shared endpoint cross iff their lower
    endpoints and upper endpoints are ordered oppositely; shared endpoints and
    parallel edges contribute nothing.
    """
    view = _leveled(g2, levels(g2))
    if len(ordering.orders) != view.lev.count:
        raise GraphStructureError(
            f"ordering has {len(ordering.orders)} levels, graph has {view.lev.count}",
            code="ordering-mismatch",
        )
    for l, (order, expected) in enumerate(zip(ordering.orders, view.level_vertices)):
        if len(order) != len(expected) or set(order) != set(expected):
            raise GraphStructureError(
                f"ordering for level {l} does not cover exactly that level's vertices",
                code="ordering-mismatch",
            )
    return _layered_cost(view.strips, ordering.orders)


def realize_layered(g2: ReebGraph, ordering: LevelOrdering, count: int | None = None) -> Drawing:
    """Straight-line drawing of a leveled graph whose geometric count equals the layered count.

    Without ``count`` the ordering is first checked and counted by
    :func:`count_crossings_layered`.  A caller holding the layered count of a
    checked ordering, as every layout does, passes it; the drawing is certified
    against it, and :class:`InternalInvariantError` is raised if it is not attained.

    Vertices sit at (position, height); copies of a parallel edge after the
    first bend at mid-strip.  Integer positions come first.  If they are
    degenerate, vertices move onto the moment curve x = i + i^2 / S with
    S = 8 W^3, W the widest level.  Strip edges span one y-interval, so three
    are concurrent only if their points (x below, x above) are collinear; on
    the curve that takes three vertical, hence parallel, edges.  Mid-strip x
    values then differ by at least 1/(2S) except on (i -> j) and (j -> i),
    which cross there, so copy c bends by c * delta toward +x iff i <= j,
    with copies * delta < 1/(8 W S^2): every crossing stays, and no
    collinearity determinant moves by 1/S^2.  The count runs at most twice.
    """
    if count is None:
        count = count_crossings_layered(g2, ordering)
    copies: dict[tuple[str, str], list[int]] = {}
    for i, pair in enumerate(g2.edges):
        copies.setdefault(pair, []).append(i)
    parallel = [(pair, members) for pair, members in copies.items() if len(members) > 1]  # only these bend
    pos = ordering.positions()

    def drawing(place, lean) -> Drawing:
        xs = {v: place(i) for v, i in pos.items()}
        bends: list[tuple[Point, ...]] = [() for _ in g2.edges]
        for pair, members in parallel:
            lo, hi = (pair if g2.vertices[pair[0]] < g2.vertices[pair[1]] else (pair[1], pair[0]))
            mid_y = (g2.vertices[lo] + g2.vertices[hi]) / 2
            mid_x = (xs[lo] + xs[hi]) / 2
            step = lean(pos[lo], pos[hi])
            for c, ei in enumerate(members[1:], start=1):
                bends[ei] = ((mid_x + c * step, mid_y),)
        return Drawing(graph=g2, x=xs, bends=tuple(bends))

    fan = Fraction(1, 4 * (max(g2.vertex_count, 2) + 1))
    d = drawing(Fraction, lambda i, j: fan)
    try:
        if count_crossings_geometric(d).count == count:
            return d
    except DegeneracyError:
        pass
    w = max(map(len, ordering.orders), default=1)
    s = 8 * w ** 3
    multiplicity = max((len(members) for _, members in parallel), default=1)
    delta = Fraction(1, 8 * w * s * s * multiplicity)
    d = drawing(lambda i: i + Fraction(i * i, s), lambda i, j: delta if i <= j else -delta)
    if count_crossings_geometric(d).count != count:
        raise InternalInvariantError("layered ordering realized with a different crossing count")
    return d


def _pair_crossings(a: list[int], b: list[int]) -> tuple[int, int]:
    """Crossings between two same-level vertices' edges into one neighboring
    level, from the sorted neighbor positions of each: (with a's vertex on the
    left, with b's vertex on the left).  Edges to a shared neighbor never cross."""
    a_left = b_left = 0
    for p in b:
        a_left += len(a) - bisect_right(a, p)
        b_left += bisect_left(a, p)
    return a_left, b_left


def _pair_costs(lows: list[tuple[int, list[int]]], singles: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """The two-layer crossing matrix of one level against one neighboring level
    (Jünger & Mutzel, JGAA 1(1), 1997) as (i, j, c[i][j], c[j][i]) for each
    pair of vertices with edges into it, ``c[u][w]`` counting the crossings
    there when u is left of w.  ``lows`` lists the vertices with several such
    edges as (index, sorted neighbor positions), ``singles`` those with one as
    (index, neighbor position); a pair of singles costs one comparison."""
    pairs = [(i, j, *_pair_crossings(a, b)) for k, (i, a) in enumerate(lows) for j, b in lows[k + 1:]]
    pairs += [(i, j, *_pair_crossings(a, [p])) for i, a in lows for j, p in singles]
    pairs += [(i, j, p > q, q > p) for k, (i, p) in enumerate(singles) for j, q in singles[k + 1:]]
    return pairs


_BARYCENTER_SNAPSHOTS = (1, 2, 4, 10)


def barycenter_ordering(view: LeveledView) -> tuple[LevelOrdering, ...]:
    """Deterministic barycenter sweep of a leveled graph's view (:func:`_leveled`).

    Starting from id-sorted levels, each round reorders every level by the
    mean position of its lower neighbors (upward pass), then of its upper
    neighbors (downward pass), ties broken by vertex id; a vertex without such
    neighbors keeps its own position as its key.  Returns the orderings after
    rounds 1, 2, 4 and 10.

    Keys are integers: every mean is scaled by ``scale``, the lcm of the
    neighbor counts.  A level of one vertex never moves, and once a round
    leaves every level as it was, every later round does too.
    """
    down_nbrs, up_nbrs = view.down, view.up
    orders = view.level_vertices.copy()
    scale = lcm(*{len(ns) for nbrs in (down_nbrs, up_nbrs) for ns in nbrs.values() if ns})

    def sweep(l: int, nbrs: dict[str, list[str]], other: list[str]) -> None:
        if len(orders[l]) < 2:
            return
        pos = {v: i for i, v in enumerate(other)}
        keys = []
        for i, v in enumerate(orders[l]):
            ns = nbrs[v]
            keys.append((sum(pos[w] for w in ns) * (scale // len(ns)) if ns else i * scale, v))
        keys.sort()
        orders[l] = [v for _, v in keys]

    snapshots = []
    for rounds in range(1, _BARYCENTER_SNAPSHOTS[-1] + 1):
        start = orders.copy()
        for l in range(1, len(orders)):
            sweep(l, down_nbrs, orders[l - 1])
        for l in range(len(orders) - 2, -1, -1):
            sweep(l, up_nbrs, orders[l + 1])
        settled = orders == start
        if settled or rounds in _BARYCENTER_SNAPSHOTS:
            snapshots.append(LevelOrdering.from_lists(orders))
        if settled:
            break
    return tuple(snapshots + snapshots[-1:] * (len(_BARYCENTER_SNAPSHOTS) - len(snapshots)))


def _dfs_level_orders(view: LeveledView) -> list[list[str]]:
    """Order each level of a leveled graph's view by depth-first discovery
    time, neighbors in id order; subtrees stay contiguous."""
    level, down, up = view.lev.level, view.down, view.up
    orders: list[list[str]] = [[] for _ in view.level_vertices]
    seen: set[str] = set()
    for root in chain.from_iterable(view.level_vertices):
        if root in seen:
            continue
        seen.add(root)
        stack = [root]
        while stack:
            v = stack.pop()
            orders[level[v]].append(v)
            for w in sorted({*down[v], *up[v]}, reverse=True):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return orders


def _sift(orders: list[list[str]], down: dict[str, list[str]], up: dict[str, list[str]]) -> None:
    """One-vertex sifting, in place, for at most eight passes or until no vertex moves.

    Each pass visits the levels bottom-up, and each level's vertices in their
    order at the start of the visit.  A vertex moves to the leftmost position
    of least cost, and only if that is strictly cheaper than where it is.
    Moves are priced as in Matuszewski, Schönfeld & Molitor (GD 1999): from
    the level's crossing matrix ``c[u][w]``, the crossings in the two adjacent
    strips between the edges of u and of w when u is left of w (summed from
    :func:`_pair_costs`), pricing every position of one vertex costs O(W) in
    all.  The matrix depends only on the neighboring levels, so it is rebuilt
    when its level is visited.
    """
    for _ in range(8):
        improved = False
        for l, vs in enumerate(orders):
            w = len(vs)
            c = [[0] * w for _ in range(w)]
            for k, nbrs in ((l - 1, down), (l + 1, up)):
                at = {v: i for i, v in enumerate(orders[k])} if 0 <= k < len(orders) else {}
                lows = [(i, sorted(at[x] for x in nbrs[v])) for i, v in enumerate(vs) if len(nbrs[v]) > 1]
                singles = [(i, at[nbrs[v][0]]) for i, v in enumerate(vs) if len(nbrs[v]) == 1]
                for i, j, ij, ji in _pair_costs(lows, singles):
                    c[i][j] += ij
                    c[j][i] += ji
            cur = list(range(w))  # indices into vs, left to right
            for i in range(w):
                base = cur.index(i)
                gain = [0] * w  # cost change when vertex i moves to position p
                d = 0
                for p in range(base - 1, -1, -1):
                    d += c[i][cur[p]] - c[cur[p]][i]
                    gain[p] = d
                d = 0
                for p in range(base + 1, w):
                    d += c[cur[p]][i] - c[i][cur[p]]
                    gain[p] = d
                best = min(range(w), key=gain.__getitem__)
                if gain[best] < 0:
                    cur.insert(best, cur.pop(base))
                    improved = True
            orders[l] = [vs[i] for i in cur]
        if not improved:
            break


def _warm_start(view: LeveledView) -> tuple[int, LevelOrdering]:
    """The heuristic ordering of a leveled graph's view (:func:`_leveled`) and its cost.

    The candidates are, in order, the depth-first ordering and the barycenter
    snapshots after rounds 1, 2, 4 and 10, both read from the view; the first
    two are improved by sifting.  Returns the first candidate of least cost,
    summed by :func:`_layered_cost` as the layered counter sums it.  Every
    heuristic drawing realizes the ordering, and the exact search runs this
    only once its budget runs out.
    """
    if not view.level_vertices:
        return 0, LevelOrdering(())
    candidates = [_dfs_level_orders(view)]
    candidates += [[list(o) for o in snapshot.orders] for snapshot in barycenter_ordering(view)]
    best_cost, best_orders = None, candidates[0]
    for k, orders in enumerate(candidates):
        if k < 2:
            _sift(orders, view.down, view.up)
        cost = _layered_cost(view.strips, orders)
        if best_cost is None or cost < best_cost:
            best_cost, best_orders = cost, orders
            if cost == 0:
                break
    return best_cost, LevelOrdering.from_lists(best_orders)


class ExactResult(NamedTuple):
    """Outcome of the exact search: minimum count plus a witnessing ordering.

    The ordering is over the subdivided graph (``mapping.subdivided``); ``mapping``
    links it back to the input.  ``states`` counts the candidates tried, as the budget
    does, and ``rounds`` splits them by deepening round, as (target, states) pairs.
    """

    count: int
    ordering: LevelOrdering
    mapping: SubdivisionMap
    states: int
    rounds: tuple[tuple[int, int], ...] = ()


def _strip_lower_bound(strip: list[tuple[str, str]], w_lo: int, w_hi: int) -> int:
    """Crossings any ordering must pay inside one strip.

    A crossing-free two-layer graph has at most w_lo + w_hi - 1 (distinct)
    edges, so at least m - (w_lo + w_hi - 1) edges must each close a crossing.
    """
    distinct = len(set(strip))
    return max(0, distinct - (w_lo + w_hi - 1))


def _find(parent: list[int], flip: list[int], k: int) -> tuple[int, int]:
    """Root of k's component and k's parity relative to it, compressing the path."""
    path = []
    while parent[k] != k:
        path.append(k)
        k = parent[k]
    parity = 0
    for node in reversed(path):
        parity ^= flip[node]
        parent[node], flip[node] = k, parity
    return k, flip[path[0]] if path else 0


def _parity_tables(view: LeveledView) -> tuple[list[int], list[list[list[tuple[int, int, int]]]],
                                                list[list[list[tuple[int, int, int]]]] | None]:
    """The level-planarity parity system of a leveled graph's view, read per level
    while it grows one strip at a time, top down, in a union-find with parity.

    For u, w on one level, x_uw means "u is left of w".  Two edges (a, b) and
    (c, d) of a strip with a != c and b != d do not cross iff x_ac = x_bd;
    adding a strip joins these equalities, in O(m^2) for m distinct edges
    (Randerath et al., "A satisfiability formulation of problems on level
    graphs", ENDM 9, 2001).  A component whose equalities contradict each
    other holds an odd cycle: some strip edge pair in it crosses under every
    ordering.

    A level's *entries* are, per vertex index i, the triples (j, c, side)
    for the pairs (i, j) in a component c without an odd cycle: placing i
    left of j forces the variable at the root of c to ``side``.  Components
    are numbered from 0 in order of first appearance, so a level of width w
    names fewer than w * w of them.  Once strip L is added the system holds
    the strips >= L and no other, and the pass reads level L's number of
    components with an odd cycle and its entries, kept only for components
    that hold two or more of its pairs (one pair alone cannot be oriented
    both ways), each level numbered afresh.  Returns those two lists, and
    then, per level, the entries of the system of all strips, numbered once
    over all levels, or None when that system is contradictory: then no
    ordering is crossing-free.
    """
    level_vertices, strips, index = view.level_vertices, view.strips, view.index
    widths = list(map(len, level_vertices))
    node: list[dict[int, int]] = [{} for _ in level_vertices]  # i * width + j, i < j -> node
    pairs: list[list[tuple[int, int, int]]] = [[] for _ in level_vertices]  # (node, i, j)
    parent: list[int] = []
    flip: list[int] = []  # parity to the parent
    odd: list[bool] = []  # at a root: its component holds an odd cycle
    odd_count = 0

    def entries(l: int, names: dict[int, int], held: list[int]) -> list[list[tuple[int, int, int]]]:
        """Level l's entries, naming each new root c = len(held); held[c]
        counts the pairs read in component c."""
        row: list[list[tuple[int, int, int]]] = [[] for _ in range(widths[l])]
        for k, i, j in pairs[l]:
            root = parent[k]
            if root == k:
                parity = 0
            elif parent[root] == root:
                parity = flip[k]
            else:
                root, parity = _find(parent, flip, k)
            if odd[root]:
                continue
            c = names.get(root)
            if c is None:
                c = names[root] = len(held)
                held.append(0)
            held[c] += 1
            # x_ij = x_root ^ parity, so "i left of j" forces x_root = 1 ^ parity.
            row[i].append((j, c, 1 ^ parity))
            row[j].append((i, c, parity))
        return row

    suffix_odd = [0] * len(level_vertices)
    suffix_sides: list[list[list[tuple[int, int, int]]]] = [[] for _ in level_vertices]
    for l in range(len(level_vertices) - 1, -1, -1):
        edges = list(dict.fromkeys((index[a], index[b]) for a, b in strips[l])) if l < len(strips) else []
        if edges:
            w_lo, w_hi, lo_node, hi_node = widths[l], widths[l + 1], node[l], node[l + 1]
        for k, (a, b) in enumerate(edges):
            for c, d in edges[k + 1:]:
                if a == c or b == d:
                    continue
                # x_ac on level l and x_bd on level l + 1, each as (node, parity to it).
                key, pa = (a * w_lo + c, 0) if a < c else (c * w_lo + a, 1)
                ka = lo_node.get(key)
                if ka is None:
                    ka = lo_node[key] = len(parent)
                    parent.append(ka)
                    flip.append(0)
                    odd.append(False)
                    pairs[l].append((ka, *divmod(key, w_lo)))
                key, pb = (b * w_hi + d, 0) if b < d else (d * w_hi + b, 1)
                kb = hi_node.get(key)
                if kb is None:
                    kb = hi_node[key] = len(parent)
                    parent.append(kb)
                    flip.append(0)
                    odd.append(False)
                    pairs[l + 1].append((kb, *divmod(key, w_hi)))
                # The roots, read directly for a node at depth 0 or 1.
                ra = parent[ka]
                if ra == ka:
                    qa = 0
                elif parent[ra] == ra:
                    qa = flip[ka]
                else:
                    ra, qa = _find(parent, flip, ka)
                rb = parent[kb]
                if rb == kb:
                    qb = 0
                elif parent[rb] == rb:
                    qb = flip[kb]
                else:
                    rb, qb = _find(parent, flip, kb)
                if ra != rb:
                    parent[ra], flip[ra] = rb, qa ^ pa ^ qb ^ pb
                    if odd[ra]:
                        if odd[rb]:
                            odd_count -= 1
                        odd[rb] = True
                elif qa ^ pa != qb ^ pb and not odd[ra]:
                    odd[ra] = True
                    odd_count += 1
        suffix_odd[l] = odd_count
        held: list[int] = []
        row = entries(l, {}, held)
        suffix_sides[l] = [[e for e in triples if held[e[1]] > 1] for triples in row]
    if odd_count:
        return suffix_odd, suffix_sides, None
    names: dict[int, int] = {}
    held = []
    return suffix_odd, suffix_sides, [entries(l, names, held) for l in range(len(level_vertices))]


class _SearchTables(NamedTuple):
    """The exact search's start-time tables of a leveled graph's view, built by
    :func:`_search_tables` and read per level by :func:`_level_entry` and the
    candidate loop; each table but ``mirror_level`` is indexed by level.

    ``future_lb[l]`` is the crossings unavoidable in the strips at or above
    level l (:func:`_strip_lower_bound`).  ``multi`` lists the vertices with
    several lower edges, as (index in the level, their lower neighbors'
    indices in the level below); ``one_index`` and ``one_below`` list the
    indices of those with exactly one and that neighbor's index.
    ``caps[l][q][i]`` is up(q) * up(i), the product of two vertices' numbers
    of upper edges, for the exchange cut; the row of a vertex with one upper
    edge is the level's row of up(i) itself, so the rows are read-only.
    ``mirror_level`` is the first level with two or more vertices, or None.
    """

    future_lb: list[int]
    multi: list[list[tuple[int, list[int]]]]
    one_index: list[list[int]]
    one_below: list[list[int]]
    caps: list[list[list[int]]]
    mirror_level: int | None


def _search_tables(view: LeveledView) -> _SearchTables:
    """The exact search's start-time tables (see :class:`_SearchTables`)."""
    level_vertices, strips, down, up, index = view.level_vertices, view.strips, view.down, view.up, view.index
    future_lb = [0] * (len(level_vertices) + 1)
    for s in range(len(strips) - 1, -1, -1):
        future_lb[s] = future_lb[s + 1] + _strip_lower_bound(strips[s], *map(len, level_vertices[s:s + 2]))
    return _SearchTables(
        future_lb,
        [[(i, [index[x] for x in down[v]]) for i, v in enumerate(vs) if len(down[v]) > 1] for vs in level_vertices],
        [[i for i, v in enumerate(vs) if len(down[v]) == 1] for vs in level_vertices],
        [[index[down[v][0]] for v in vs if len(down[v]) == 1] for vs in level_vertices],
        [[ups if p == 1 else [p * q for q in ups] for p in ups] for ups in ([len(up[v]) for v in vs] for vs in level_vertices)],
        next((l for l, vs in enumerate(level_vertices) if len(vs) > 1), None),
    )


def _level_entry(tables: _SearchTables, level: int, below: list[int], cost: int, target: int,
                 memo: dict[int, int]) -> tuple[int, list[int], list[list[int]]] | None:
    """Enter ``level`` at ``cost``, in the round of ``target``, on ``below``,
    the finished order of the level under it as its vertices' indices left to
    right: the floor, regret row and drop rows, or None if the memo or the
    floor cuts the entry.  Callers enter only where ``cost`` plus
    ``tables.future_lb[level]`` is within the target.

    ``memo`` maps each order below at which the round entered this level and
    passed the floor to the least such cost; an entry at no lower cost is
    cut, and one that passes is stored.  With ``c[u][w]`` the crossings in
    the strip below when u is left of w (:func:`_pair_crossings`), the floor
    is ``cost`` plus ``future_lb[level]`` plus, over every pair of the level,
    the cheaper of ``c[u][w]`` and ``c[w][u]``; it stops at the first vertex
    that takes it past the target.  ``regret[u]`` sums ``max(0, c[u][w] -
    c[w][u])`` over the level, and ``drop[w][u]``, that term for w, is what
    placing w takes off u's regret.
    """
    # The memo key reads ``below``'s indices as digits in base its width.
    key = 0
    for i in below:
        key = key * len(below) + i
    seen = memo.get(key)
    if seen is not None and seen <= cost:
        return None
    # pos[i]: the position of vertex i of the level below in ``below``.
    pos = sorted(range(len(below)), key=below.__getitem__)
    # The floor counts only pairs with a vertex of several lower edges.
    # ``costs`` keeps (i, j, c[i][j], c[j][i]) for the pairs of two such,
    # for the regret rows.
    floor = cost + tables.future_lb[level]
    ones = list(map(pos.__getitem__, tables.one_below[level]))
    ranked = sorted(ones)
    lows: list[tuple[int, list[int]]] = []
    costs: list[tuple[int, int, int, int]] = []
    for i, xs in tables.multi[level]:
        a = sorted(map(pos.__getitem__, xs))
        for j, b in lows:
            ij, ji = _pair_crossings(a, b)
            floor += ij if ij < ji else ji
            costs.append((i, j, ij, ji))
        # A one-edge vertex crosses a's edges in both orders only when its
        # neighbor lies strictly inside a's span.
        n = len(a)
        for p in ranked[bisect_right(ranked, a[0]):bisect_left(ranked, a[-1])]:
            floor += min(bisect_left(a, p), n - bisect_right(a, p))
        if floor > target:
            return None
        lows.append((i, a))
    memo[key] = cost
    width = len(tables.caps[level])
    regret = [0] * width
    drop = [[0] * width for _ in range(width)]
    singles = list(zip(tables.one_index[level], ones))
    for i, a in lows:
        n = len(a)
        costs += [(i, j, n - bisect_right(a, p), bisect_left(a, p)) for j, p in singles]
    for i, j, ij, ji in costs:
        if ij > ji:
            regret[i] += ij - ji
            drop[j][i] = ij - ji
        elif ji > ij:
            regret[j] += ji - ij
            drop[i][j] = ji - ij
    # Two one-edge vertices cross iff the one whose neighbor lies further
    # right goes left, so a one-edge vertex j regrets each one whose
    # neighbor lies left of its own, and placing it takes 1 off the
    # regret of each whose neighbor lies right.
    by_position = [i for _, i in sorted(zip(ones, tables.one_index[level]))]
    for j, q in singles:
        regret[j] += bisect_left(ranked, q)
        for i in by_position[bisect_right(ranked, q):]:
            drop[j][i] = 1
    return floor, regret, drop


def exact_rgcn(g: ReebGraph, budget: int | None = DEFAULT_SEARCH_BUDGET) -> ExactResult:
    """Exact minimum crossing number over all drawings, with a witness ordering.

    Subdivides the graph, reads the view its map carries (``SubdivisionMap.view``),
    then minimizes the layered count over all per-level permutations by
    depth-first search: levels are fixed bottom-up, and within a level vertices
    are placed left to right.  Iterative deepening raises a target from the
    strip lower bounds until a completion of cost at most the target exists.
    It keeps no incumbent: the round at the optimum completes, and no ordering
    costs more than the ceiling, C(m, 2) summed over the strips' edge counts m.

    The bounds that run once per search or once per level entry are
    functions, which the tests' recursive form of this search also calls.
    :func:`_search_tables` builds the start-time tables: the strips' lower
    bounds above each level (``future_lb``, from :func:`_strip_lower_bound`),
    per level the vertices with several lower edges and those with one, the
    exchange caps and the mirror level.  :func:`_level_entry` does the
    level-entry work below.  The per-candidate cuts stay inline in the
    candidate loop, one line each, because a call per candidate slows the
    search by several percent.

    Pruning follows the two-layer bound of Jünger & Mutzel (JGAA 1(1), 1997).
    On entering a level, :func:`_level_entry` reads the crossing matrix
    ``c[u][w]``, the crossings in the strip below when u is left of w (as
    :func:`_pair_costs` gives it to sifting).  The *floor* is the cost so far
    plus, over every pair of the level, the cheaper of ``c[u][w]`` and
    ``c[w][u]``, plus the unavoidable crossings of the strips above.  A pair
    of vertices with one lower edge each never adds to it, so those pairs
    are filled in only once the floor is within the target, from their
    neighbors' ranks; the floor stops at the first vertex that takes it past
    the target.  Placing u next fixes it left of every unplaced w, which
    raises the floor by exactly u's *regret*, the sum of ``max(0, c[u][w] -
    c[w][u])``; a candidate is pruned when its raised floor exceeds the
    target, and once the level is full the floor less the strips above is
    the cost paid.  The same function keeps the memo: per round, the least
    cost at which each (level, order of the level below) was entered and
    passed the floor, and it refuses re-entries at no lower cost.
    Mirroring every level keeps the count, so on the mirror level, the first
    with two or more vertices, the first vertex must precede the last in id
    order.

    The *exchange cut* skips candidate i right after q, the vertex placed
    last, when i precedes q in id order, ``drop[q][i]`` is 0 and
    ``drop[i][q]`` is at least ``caps[q][i]`` = up(q) * up(i), their numbers
    of upper edges; the loop reads the level's caps table.  Swapping the
    two changes only the crossings between their edges: it saves
    ``drop[i][q]`` in the strip below and costs at most up(q) * up(i) in
    the strip above, so the swapped ordering is lex-smaller and costs no
    more.  The cut reads only the level and the order below, so the memo
    stays sound, and a swap at either end keeps the first vertex of the
    mirror level before its last.

    Every round also consults the level-planarity parity system (see
    :func:`_parity_tables`, built once before the first round): one equality
    per pair of strip edges that must not cross.  Placing i fixes "i left of
    j" for every unplaced j of its level, and each such pair orients its
    component of the system.

    A round of target 0 asks for a crossing-free ordering, and the system
    of all strips holds for every such ordering.  So when it is
    contradictory, deepening starts at ``max(future_lb[0], 1)``.  Otherwise
    round 0 prunes a candidate that orients a component both ways, on any
    level, the levels above included.  The memo stays sound: equalities
    link only pairs on levels s and s + 1, so on entering level L every
    component that reaches level L or above either also holds a pair on
    level L - 1, whose order (the memo key) fixed it, or has no fixed pair
    yet.

    Rounds of target 1 or more bound the crossings in the strips at or
    above the level being filled, from the system of those strips alone.
    On entering level L the orientation starts unset and ``bad`` holds
    the components with an odd cycle; a component that the placements orient
    both ways joins ``bad``.  Every component in ``bad`` forces a crossing
    in strips >= L, and no two force the same one, since distinct
    components share no equality.  The floor counts ``future_lb[L]`` for
    those strips, which the rest of the floor never counts, so a candidate
    is pruned when its raised floor, with ``max(future_lb[L], bad)`` in
    place of ``future_lb[L]``, exceeds the target.  The memo stays sound
    because the orientation starts afresh at each level entry and sees only
    the placements on level L.  In every round the subtree's outcome is a
    function of (L, order of level L - 1, cost) as before.

    The orientation is an int list indexed by the component numbers of
    :func:`_parity_tables`: -1 while unset, then the side a component was
    first given, plus 2 once it has been given both.  A trail lists each
    change, so that taking a placement back resets exactly what it set.

    Each round is one loop over an explicit stack, so no input is too deep:
    a frame per level entry (its ``drop`` rows, caps table, parity
    entries, orientation, trail, placed flags and order so far) holds a
    choice point per vertex placed (next candidate, floor, regret row,
    ``bad`` and the trail mark to unwind to when the placement is taken
    back).  A level's order is held only in its frame, and the frame above
    reads it once, on entry.

    Candidates are tried in id order and the first completion within the
    target ends the round, so the witness is the lexicographically least
    optimal ordering; it always passes the mirror cut, being no greater than
    its mirror.  ``states`` counts the candidates tried.  Raises
    :class:`BudgetExhaustedError` once more than ``budget`` have been tried,
    and only then runs the warm start (:func:`_warm_start`); the error carries
    its cost as ``best``, its ordering, over the subdivided graph, as
    ``ordering``, and the subdivision as ``mapping``.  Either ordering's
    layered count is the count it comes with.
    """
    if not is_connected(g):
        raise LayoutError("exact search requires a connected graph", code="disconnected")
    smap = subdivide(g).mapping
    view = smap.view
    lev, strips, level_vertices = view.lev, view.strips, view.level_vertices

    if lev.count == 0:
        return ExactResult(0, LevelOrdering(()), smap, 0)

    tables = _search_tables(view)

    # Round 0 runs only if the system of all strips is consistent, and then
    # prunes on it, with one orientation and trail over all levels.  Rounds
    # >= 1 read level L's suffix tables, the system of the strips >= L alone,
    # and orient afresh on each level entry.
    suffix_odd, suffix_sides, sides = _parity_tables(view)
    first_target = tables.future_lb[0] if tables.future_lb[0] > 0 or sides is not None else 1
    round_zero_orient = [-1] * sum(len(vs) ** 2 for vs in level_vertices)
    round_zero_trail: list[int] = []
    states = 0
    limit = inf if budget is None else budget

    def enter(level: int, below: list[int], cost: int, target: int, memo: list[dict[int, int]]) -> tuple | None:
        """The frame (width, mirror, above, drop, caps, entries, orient, trail, placed,
        perm, points) of ``level``, entered at ``cost`` on the finished order
        ``below`` of the level under it, or None if the memo or floor cuts it."""
        entry = _level_entry(tables, level, below, cost, target, memo[level])
        if entry is None:
            return None
        floor, regret, drop = entry
        width = len(regret)
        # ``bad`` counts the components of the parity system in use that
        # force a crossing in the strips >= level.
        if target == 0:
            entries, orient, trail, bad = sides[level], round_zero_orient, round_zero_trail, 0
        else:
            entries, orient, trail, bad = suffix_sides[level], [-1] * (width * width), [], suffix_odd[level]
        return (width, level == tables.mirror_level, tables.future_lb[level], drop, tables.caps[level],
                entries, orient, trail, [False] * width, [], [[0, floor, regret, bad, len(trail)]])

    def run_round(target: int) -> list[list[str]] | None:
        """One deepening round: the orders of the first completion within ``target``, or None."""
        nonlocal states
        memo: list[dict[int, int]] = [{} for _ in range(lev.count)]
        frame = enter(0, [], 0, target, memo)
        frames = [] if frame is None else [frame]
        while frames:
            width, mirror, above, drop, caps, entries, orient, trail, placed, perm, points = frames[-1]
            while True:
                start, floor, regret, bad, mark = point = points[-1]
                if start:
                    # A point past its first candidate holds a placement, and
                    # nothing completed after it: take it back.
                    placed[perm.pop()] = False
                    if len(trail) > mark:
                        for c in trail[mark:]:
                            orient[c] = orient[c] - 2 if orient[c] > 1 else -1
                        del trail[mark:]
                q = perm[-1] if perm else -1  # the vertex placed last
                room = target - floor  # the regret a candidate may add
                for i in range(start, width):
                    if placed[i]:
                        continue
                    states += 1
                    if states > limit:
                        best, ordering = _warm_start(view)
                        raise BudgetExhaustedError(f"exact search exceeded budget of {budget} states",
                                                   best=best, ordering=ordering, mapping=smap)
                    if regret[i] > room:
                        continue
                    if mirror and len(perm) + 1 < width:
                        # Mirror cut: a vertex after the first in id order must
                        # be left over to place last.
                        first = perm[0] if perm else i
                        if placed[first + 1:].count(False) == (i > first):
                            continue
                    if i < q and not drop[q][i] and drop[i][q] >= caps[q][i]:
                        continue  # the exchange cut
                    # The floor counts ``above`` for the strips >= level, and
                    # ``bad`` bounds them too, so i is pruned once ``bad``
                    # passes ``cap``.  Orient the components that fixing i
                    # left of every unplaced vertex fixes; each oriented
                    # both ways for the first time joins ``bad``.
                    cap = above + room - regret[i]
                    if bad > cap:
                        continue
                    bad_i = bad
                    for j, c, side in entries[i]:
                        if placed[j]:
                            continue
                        fixed = orient[c]
                        if fixed < 0:
                            orient[c] = side
                            trail.append(c)
                        elif fixed ^ side == 1:
                            orient[c] = fixed + 2
                            trail.append(c)
                            bad_i += 1
                            if bad_i > cap:
                                break
                    if bad_i > cap:
                        if len(trail) > mark:
                            for c in trail[mark:]:
                                orient[c] = orient[c] - 2 if orient[c] > 1 else -1
                            del trail[mark:]
                        continue
                    break
                else:
                    # Back up to the choice point below, which takes its placement back.
                    points.pop()
                    if not points:
                        frames.pop()
                        break
                    continue
                point[0] = i + 1
                perm.append(i)
                placed[i] = True
                if len(perm) < width:
                    points.append([0, floor + regret[i], list(map(sub, regret, drop[i])), bad_i, len(trail)])
                    continue
                if len(frames) == lev.count:
                    # Each level's frame is on the stack, its order complete.
                    return [[vs[k] for k in frame[-2]] for vs, frame in zip(level_vertices, frames)]
                frame = enter(len(frames), perm, floor + regret[i] - above, target, memo)
                if frame is not None:
                    frames.append(frame)
                break
        return None

    rounds = []
    for target in range(first_target, sum(comb(len(s), 2) for s in strips) + 1):
        before = states
        witness = run_round(target)
        rounds.append((target, states - before))
        if witness is not None:
            break
    else:
        # Unreachable: no ordering costs more than the ceiling.
        raise InternalInvariantError("exact search finished without a witness")
    return ExactResult(
        count=target,
        ordering=LevelOrdering.from_lists(witness),
        mapping=smap,
        states=states,
        rounds=tuple(rounds),
    )
