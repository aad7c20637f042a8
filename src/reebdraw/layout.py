"""Constructive layouts: paths, caterpillars, cycles, and an auto dispatcher.

Paths are drawn left to right, one column per vertex, so edge interiors occupy
disjoint x ranges and nothing can cross.  Caterpillars of any spine degree
reuse the path layout for the spine and hang legs on short offset segments
toward the open side of each spine vertex; the offset is chosen outside the
finite set at which a leg would lie along a spine edge, so the drawing is in
general position by construction.  Cycles are decomposed by their
alternation between the top and bottom level: the alternation count k fixes
integer key columns drawn like a bowtie, corridors between them carry the
connecting paths, each level is ordered by integer (column, step) keys, and
the construction emits exactly k-1 crossings.  The bowtie layout
is the fully alternating case, drawn straight in the key columns with the
provably minimal (N-2)/2 crossings.  Each layout certifies its count once.

Everything is deterministic: start vertices, traversal directions, corridor
keys, and tie-breaks are all fixed functions of the input.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .core import (
    Drawing,
    LevelAssignment,
    LevelOrdering,
    ReebGraph,
    ShapeClass,
    _spine_and_legs,
    _walk,
    classify_shape,
    levels,
)
from .crossings import (
    DEFAULT_SEARCH_BUDGET,
    _layered_cost,
    _warm_start,
    count_crossings_geometric,
    exact_rgcn,
    realize_layered,
)
from .errors import (
    BudgetExhaustedError,
    InternalInvariantError,
    LayoutError,
)
from .subdivide import subdivide, unsubdivide_drawing


# ---------------------------------------------------------------------------
# Paths and caterpillars
# ---------------------------------------------------------------------------

def layout_path(g: ReebGraph) -> Drawing:
    """Draw a path with vertex i at x = i; straight edges, certified once: zero crossings."""
    if classify_shape(g) != ShapeClass.PATH:
        raise LayoutError("layout_path requires a path graph", code="not-path")
    return _layout_path(g)


def _layout_path(g: ReebGraph) -> Drawing:
    """:func:`layout_path` of a graph already classified as a path."""
    order = _walk(set(g.vertices), g.adjacency())
    xs = {v: Fraction(i + 1) for i, v in enumerate(order)}
    d = Drawing(graph=g, x=xs)
    if count_crossings_geometric(d).count != 0:
        raise InternalInvariantError("path drawing is not crossing-free")
    return d


def layout_caterpillar(g: ReebGraph) -> Drawing:
    """Draw a caterpillar: path layout for the spine, legs as short offset segments.

    Spine vertex i sits at x = i + 1.  A leg leans at most ``base`` <= 1/4
    into one column, preferring the side whose spine edge departs against
    the leg's vertical direction, so it can meet only edges at its own spine
    vertex; legs of one group are ranked by height, so their dx/dy differ.
    A leg can only lie along a spine edge leaving on its side in its
    direction, when ``base`` = |dy_leg| k / (r |dy_spine|) for rank r of k;
    ``base`` is the largest 2^-j / 4 outside that finite set.  Certified
    once: zero crossings.
    """
    shape = classify_shape(g)
    if shape == ShapeClass.PATH:
        return _layout_path(g)
    if shape != ShapeClass.CATERPILLAR:
        raise LayoutError("layout_caterpillar requires a caterpillar", code="not-caterpillar")
    return _layout_caterpillar(g)


def _layout_caterpillar(g: ReebGraph) -> Drawing:
    """:func:`layout_caterpillar` of a graph already classified as a caterpillar."""
    spine, legs = _spine_and_legs(g)
    spine_x = {v: Fraction(i + 1) for i, v in enumerate(spine)}
    h = g.vertices

    # (vertex, side, leg, rank, group size) for every leg.
    placed: list[tuple[str, int, str, int, int]] = []
    forbidden: set[Fraction] = set()
    for i, v in enumerate(spine):
        right = spine[i + 1] if i + 1 < len(spine) else None
        left = spine[i - 1] if i > 0 else None
        ups = sorted((w for w in legs[v] if h[w] > h[v]), key=lambda w: (-h[w], w))
        downs = sorted((w for w in legs[v] if h[w] < h[v]), key=lambda w: (h[w], w))
        for group, up in ((ups, True), (downs, False)):
            # Lean toward a side whose spine edge leaves against the leg's
            # direction: right if it does, else left if it does, else right.
            right_ok = right is None or (h[right] > h[v]) != up
            left_ok = left is None or (h[left] > h[v]) != up
            side = 1 if right_ok or not left_ok else -1
            nbr = right if side == 1 else left
            for rank, w in enumerate(group, start=1):
                placed.append((v, side, w, rank, len(group)))
                if nbr is not None and (h[nbr] > h[v]) == up:
                    forbidden.add(abs(h[w] - h[v]) * len(group) / (rank * abs(h[nbr] - h[v])))

    base = Fraction(1, 4)
    while base in forbidden:
        base /= 2
    xs = dict(spine_x)
    for v, side, w, rank, k in placed:
        xs[w] = spine_x[v] + side * base * Fraction(rank, k)
    d = Drawing(graph=g, x=xs)
    if count_crossings_geometric(d).count != 0:
        raise InternalInvariantError("caterpillar drawing is not crossing-free")
    return d


# ---------------------------------------------------------------------------
# Cycle decomposition
# ---------------------------------------------------------------------------

class CycleDecomposition(NamedTuple):
    """A cycle's alternation structure between its top and bottom level.

    ``top`` is the top level's rank; the bottom level is level 0.  ``keys`` lists the alternating key vertices (first of each run of
    top-level visits, first of each bottom run) in cycle order, starting at
    the top; ``paths[j]`` is the cycle segment from ``keys[j]`` to the next
    key, endpoints included.  ``iteration_count`` is the number of top runs.
    """

    top: int
    keys: tuple[str, ...]
    iteration_count: int
    paths: tuple[tuple[str, ...], ...]


def top_down_iteration_number(g: ReebGraph) -> CycleDecomposition:
    """Count a cycle's alternations between its extreme levels and name the keys.

    A key is a top- or bottom-level visit on the other extreme from the
    extreme visit before it, cyclically, so keys alternate and each starts a
    run of visits to one extreme; the number of top keys is the iteration
    count.  The traversal is rotated to the key whose run holds its start,
    so every run is a contiguous stretch and each connecting path touches at
    most one extreme level beyond its endpoints.
    """
    if classify_shape(g) != ShapeClass.SINGLE_CYCLE:
        raise LayoutError("top-down iteration number requires a single cycle", code="not-single-cycle")
    return _decompose(g, levels(g))


def _decompose(g: ReebGraph, lev: LevelAssignment) -> CycleDecomposition:
    """:func:`top_down_iteration_number` of a single cycle with levels ``lev``, traversed from
    its least top-level vertex toward that vertex's least neighbor, ids compared as strings."""
    top = lev.count - 1
    start = min(v for v in g.vertices if lev.level[v] == top)
    adj = g.adjacency()
    first = min(adj[start], key=lambda t: (t[0], t[1]))
    order = [start]
    used = {first[1]}
    cur = first[0]
    while cur != start:
        order.append(cur)
        nxt = min((t for t in adj[cur] if t[1] not in used), key=lambda t: (t[0], t[1]))
        used.add(nxt[1])
        cur = nxt[0]
    ext = [i for i, v in enumerate(order) if lev.level[v] in (top, 0)]
    key_pos = [i for i, p in zip(ext, ext[-1:] + ext) if lev.level[order[i]] != lev.level[order[p]]]
    if key_pos[0] != 0:  # the start's run wraps around the end of the traversal
        s = key_pos.pop()
        order = order[s:] + order[:s]
        key_pos = [0] + [p + len(order) - s for p in key_pos]
    closed = order + order[:1]
    bounds = key_pos + [len(order)]
    return CycleDecomposition(
        top=top,
        keys=tuple(order[p] for p in key_pos),
        iteration_count=len(key_pos) // 2,
        paths=tuple(tuple(closed[a:b + 1]) for a, b in zip(bounds, bounds[1:])),
    )


# ---------------------------------------------------------------------------
# Cycle layouts
# ---------------------------------------------------------------------------

def _key_columns(dec: CycleDecomposition) -> dict[str, int]:
    """Key j (counted from 1) in column j, or its mirror 2k+1-j in the second half."""
    k = dec.iteration_count
    return {key: j if j <= k else 2 * k + 1 - j for j, key in enumerate(dec.keys, start=1)}


def layout_bowtie(g: ReebGraph) -> Drawing:
    """Draw a two-level alternating cycle with the minimal (N-2)/2 crossings.

    Every vertex is a key of the cycle's decomposition, and each is drawn in
    its key column: the first half goes in columns 1..n, the second half
    comes back over the same columns mirrored, which closes the cycle with a
    vertical segment.  Only the two-vertex cycle has parallel edges; its
    second edge bows out through half a column to the right.  Certified once:
    n-1 crossings.
    """
    if classify_shape(g) != ShapeClass.SINGLE_CYCLE:
        raise LayoutError("bowtie layout requires a single cycle", code="not-single-cycle")
    dec = _decompose(g, levels(g))
    if dec.top != 1:
        raise LayoutError("bowtie layout requires a cycle alternating between two levels",
                          code="not-alternating")
    n = dec.iteration_count
    xs = _key_columns(dec)
    bends = ()
    if g.vertex_count == 2:
        (a, b), _ = g.edges
        bends = ((), ((xs[a] + Fraction(1, 2), (g.vertices[a] + g.vertices[b]) / 2),))
    d = Drawing(graph=g, x=xs, bends=bends)
    cert = count_crossings_geometric(d)
    if cert.count != n - 1:
        raise InternalInvariantError(f"bowtie emitted {cert.count} crossings, expected {n - 1}")
    return d


def _cycle_level_ordering(level_vertices: list[list[str]], dec: CycleDecomposition) -> LevelOrdering:
    """Per-level orderings realizing the corridor scheme for a leveled cycle's ``level_vertices``.

    Keys sit in their key columns.  First-half connecting paths run
    left-to-right through the left half of the corridor right of their start
    column; second-half paths run right-to-left through the right half.
    Exactly the k-1 designated pairs invert.

    The i-th inner vertex of a path starting in column c stands for
    x = c + i / (2(len(path) - 1)) on a first-half path and c - i / (...) on
    a second-half one; every offset is below 1/2, exactly one path leaves
    each side of a key column, and its offset grows with i.  So each level
    sorts by the integer key (c, i) or (c, -i), keys at (c, 0), in the same
    order and with the same id tie-breaks as those x.
    """
    k = dec.iteration_count
    cols = _key_columns(dec)
    key = {v: (c, 0, v) for v, c in cols.items()}
    for j, path in enumerate(dec.paths, start=1):
        step = 1 if j <= k else -1
        for i, v in enumerate(path[1:-1], start=1):
            key[v] = (cols[path[0]], step * i, v)
    return LevelOrdering(tuple(tuple(sorted(vs, key=key.__getitem__)) for vs in level_vertices))


def layout_cycle(g: ReebGraph) -> Drawing:
    """Draw any single cycle with exactly k-1 crossings (k = iteration count).

    The cycle is leveled and its keys are drawn in their key columns, as in
    the bowtie; connecting paths are routed through disjoint corridors (free
    paths crossing-free, the k-1 designated pairs crossing once each), and
    the leveled drawing is merged back so the output is a drawing of the
    input graph.  Everything reads the subdivision map's view, so the levels
    are derived once; the ordering's layered count, summed once over its strips,
    is checked against k-1, and the realization certifies that count once.
    """
    if classify_shape(g) != ShapeClass.SINGLE_CYCLE:
        raise LayoutError("cycle layout requires a single cycle", code="not-single-cycle")
    return _layout_cycle(g)


def _layout_cycle(g: ReebGraph) -> Drawing:
    """:func:`layout_cycle` of a graph already classified as a single cycle."""
    g2, smap = subdivide(g)
    view = smap.view
    dec = _decompose(g2, view.lev)
    ordering = _cycle_level_ordering(view.level_vertices, dec)
    layered = _layered_cost(view.strips, ordering.orders)
    if layered != dec.iteration_count - 1:
        raise InternalInvariantError(
            f"cycle corridor ordering produced {layered} crossings, expected {dec.iteration_count - 1}"
        )
    return unsubdivide_drawing(realize_layered(g2, ordering, layered), smap)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def layout_heuristic(g: ReebGraph) -> Drawing:
    """Heuristic layout for graphs beyond the exact search budget.

    Draws the warm start's ordering of the subdivided graph: the best of a
    depth-first and four barycenter orderings, the first two after sifting
    (see :func:`_warm_start`), which is also what the exact search reports
    when its budget runs out.  Emits exactly that ordering's crossings.
    """
    g2, smap = subdivide(g)
    cost, ordering = _warm_start(smap.view)
    return unsubdivide_drawing(realize_layered(g2, ordering, cost), smap)


def layout_auto(g: ReebGraph, budget: int | None = DEFAULT_SEARCH_BUDGET) -> Drawing:
    """Dispatch on shape: path/caterpillar/cycle constructions, else exact search
    (realized from its witness ordering).  When the search budget runs out,
    draws the warm-start ordering that the budget error carries, as
    :func:`layout_heuristic` does, so the drawing has exactly the error's
    ``best`` crossings."""
    shape = classify_shape(g)
    if shape == ShapeClass.PATH:
        return _layout_path(g)
    if shape == ShapeClass.CATERPILLAR:
        return _layout_caterpillar(g)
    if shape == ShapeClass.SINGLE_CYCLE:
        return _layout_cycle(g)
    try:
        res = exact_rgcn(g, budget)
    except BudgetExhaustedError as exc:
        return unsubdivide_drawing(realize_layered(exc.mapping.subdivided, exc.ordering, exc.best), exc.mapping)
    return unsubdivide_drawing(realize_layered(res.mapping.subdivided, res.ordering, res.count), res.mapping)
