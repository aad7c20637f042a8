"""Shared generators and independent oracles for the test suite.

Everything takes an explicit ``random.Random`` so tests are reproducible.
The enumeration oracle here is deliberately independent of the search in
``reebdraw.crossings.exact_rgcn`` and of the library's counters: it tries
every per-level permutation and scores each strip pair by pair.
"""

from __future__ import annotations

import itertools
import random
import sys
from collections import Counter
from bisect import bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, inf, lcm
from operator import itemgetter, sub
from typing import Sequence
from xml.sax.saxutils import escape

from reebdraw import (
    BudgetExhaustedError,
    CrossingCertificate,
    CycleDecomposition,
    DegeneracyError,
    Drawing,
    GadgetInstance,
    GraphStructureError,
    InternalInvariantError,
    LayoutError,
    LevelAssignment,
    LevelOrdering,
    LinearArrangement,
    ReebGraph,
    RenderOptions,
    ShapeClass,
    classify_shape,
    count_crossings_geometric,
    count_crossings_layered,
    degree_profile,
    layout_path,
    levels,
    per_level_order,
    subdivide,
)
from reebdraw import geometry
from reebdraw.core import Point, _spine_and_legs, is_connected
from reebdraw.svg import PART_STYLES
from reebdraw.crossings import (
    DEFAULT_SEARCH_BUDGET,
    CrossingPair,
    ExactResult,
    _find,
    _level_entry,
    _pair_crossings,
    _search_tables,
    _strip_lower_bound,
    _warm_start,
)
from reebdraw.subdivide import SubdivisionMap, _level_passes, _leveled


def rand_height(rng: random.Random, lo: int = -10, hi: int = 10) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice([1, 2, 3, 4]))


def random_path_graph(n: int, rng: random.Random) -> ReebGraph:
    ids = [f"p{i}" for i in range(n)]
    heights: dict[str, Fraction] = {}
    prev = None
    for v in ids:
        h = rand_height(rng)
        while h == prev:
            h = rand_height(rng)
        heights[v] = h
        prev = h
    return ReebGraph.build(heights, list(zip(ids, ids[1:])))


def random_caterpillar_graph(n: int, rng: random.Random) -> ReebGraph:
    """Random path of max(2, n // 2) to n vertices with legs hung on it, every
    degree at most 3: each end takes up to two legs, each inner vertex one.

    Legs are added until n vertices are used, but each vertex stops taking
    legs at random, so a few graphs have fewer than n vertices.  Legs at the
    ends only extend the path, so about half the graphs are paths.  For
    higher spine degrees see ``random_wide_caterpillar_graph``.
    """
    spine_len = max(2, rng.randint(max(2, n // 2), n))
    base = random_path_graph(spine_len, rng)
    heights = dict(base.vertices)
    edges = list(base.edges)
    spine = [f"p{i}" for i in range(spine_len)]
    slots = {v: (1 if 0 < i < spine_len - 1 else 2) for i, v in enumerate(spine)}
    remaining = n - spine_len
    leg = 0
    for v in spine:
        while remaining > 0 and slots[v] > 0:
            leaf = f"l{leg}"
            leg += 1
            h = rand_height(rng)
            while h == heights[v]:
                h = rand_height(rng)
            heights[leaf] = h
            edges.append((v, leaf))
            slots[v] -= 1
            remaining -= 1
            if rng.random() < 0.5:
                break
    return ReebGraph.build(heights, edges)


def random_wide_caterpillar_graph(spine_len: int, rng: random.Random) -> ReebGraph:
    """Caterpillar whose spine vertices carry 3-4 legs each, so inner spine
    vertices have degree 5-6 and ends 4-5."""
    base = random_path_graph(spine_len, rng)
    heights = dict(base.vertices)
    edges = list(base.edges)
    for i in range(spine_len):
        v = f"p{i}"
        for _ in range(rng.randint(3, 4)):
            leaf = f"l{len(heights) - spine_len}"
            h = rand_height(rng)
            while h == heights[v]:
                h = rand_height(rng)
            heights[leaf] = h
            edges.append((v, leaf))
    return ReebGraph.build(heights, edges)


def distinct_height_path(n: int, rng: random.Random) -> ReebGraph:
    """Path p0 - p1 - ... of n vertices, one per height: a sample of range(10 n)."""
    ids = [f"p{i}" for i in range(n)]
    return ReebGraph.build(dict(zip(ids, rng.sample(range(10 * n), n))), list(zip(ids, ids[1:])))


def distinct_height_caterpillar(n: int, rng: random.Random) -> ReebGraph:
    """Caterpillar of n vertices, one per height (a sample of range(4 n)): a
    spine path of n // 2 to n - 1 vertices, and each other vertex a leg hung
    on a random spine vertex."""
    spine = [f"p{i}" for i in range(rng.randint(n // 2, n - 1))]
    legs = [f"l{i}" for i in range(n - len(spine))]
    heights = dict(zip(spine + legs, rng.sample(range(4 * n), n)))
    return ReebGraph.build(heights, list(zip(spine, spine[1:])) + [(rng.choice(spine), leg) for leg in legs])


def random_cycle_graph(n: int, rng: random.Random, max_level: int = 4) -> ReebGraph:
    """Cycle v0 - v1 - ... - v0 of n vertices with heights in 0..max_level, no
    two neighbors at one height and at least two heights.  Raises ValueError
    where no such heights exist: fewer than two vertices, a max_level below 1,
    or an odd cycle on the two heights 0 and 1, which cannot alternate."""
    if n < 2 or max_level < 1 or (max_level == 1 and n % 2):
        raise ValueError(f"no {n}-vertex cycle alternates within heights 0..{max_level}")
    ids = [f"v{i}" for i in range(n)]
    while True:
        hs = [rng.randint(0, max_level) for _ in range(n)]
        if all(hs[i] != hs[(i + 1) % n] for i in range(n)) and len(set(hs)) >= 2:
            return ReebGraph.build(
                dict(zip(ids, hs)),
                [(ids[i], ids[(i + 1) % n]) for i in range(n)],
            )


def distinct_height_cycle(n: int, rng: random.Random) -> ReebGraph:
    """Cycle c0 - c1 - ... - c0 of n vertices, one per height: a sample of range(10 n)."""
    ids = [f"c{i}" for i in range(n)]
    return ReebGraph.build(dict(zip(ids, rng.sample(range(10 * n), n))),
                           [(ids[i], ids[(i + 1) % n]) for i in range(n)])


def alternating_cycle(total: int) -> ReebGraph:
    ids = [f"v{i}" for i in range(total)]
    return ReebGraph.build(
        {v: 1 if i % 2 == 0 else 0 for i, v in enumerate(ids)},
        [(ids[i], ids[(i + 1) % total]) for i in range(total)],
    )


def random_connected_graph(n: int, rng: random.Random, extra: int | None = None) -> ReebGraph:
    """Random spanning tree plus a few extra (possibly parallel) edges."""
    ids = [f"v{i}" for i in range(n)]
    while True:
        hs = {v: rand_height(rng, -12, 12) for v in ids}
        edges = []
        ok = True
        for i in range(1, n):
            j = rng.randrange(i)
            if hs[ids[i]] == hs[ids[j]]:
                ok = False
                break
            edges.append((ids[i], ids[j]))
        if not ok:
            continue
        for _ in range(rng.randint(0, 3) if extra is None else extra):
            if n < 2:
                break
            a, b = rng.sample(ids, 2)
            if hs[a] != hs[b]:
                edges.append((a, b))
        return ReebGraph.build(hs, edges)


def deep_general_graph() -> ReebGraph:
    """A GENERAL graph on 602 levels: a path v0..v599 at heights 0..599, w at
    height 0 joined to v1 and v5, and z at height 605 joined to v3.  Its
    subdivided vertices plus levels pass 1,000, deep enough to overflow a
    search that recurses once per placed vertex."""
    heights = {f"v{i}": i for i in range(600)}
    heights.update(w=0, z=605)
    edges = [(f"v{i}", f"v{i + 1}") for i in range(599)]
    edges += [("w", "v1"), ("w", "v5"), ("z", "v3")]
    return ReebGraph.build(heights, edges)


def curved_copy(d: Drawing, rng: random.Random) -> Drawing:
    """Add random monotone bends to a crossing-free drawing, keeping it
    crossing-free (amplitude shrinks until the exact counter confirms)."""
    g = d.graph
    eps = Fraction(1, 8)
    for _ in range(40):
        bends = []
        for i in range(len(g.edges)):
            lo, hi = g.lower_upper(i)
            y0, y1 = g.vertices[lo], g.vertices[hi]
            x0, x1 = d.x[lo], d.x[hi]
            eb = []
            for t8 in sorted(rng.sample(range(1, 8), rng.randint(0, 2))):
                t = Fraction(t8, 8)
                y = y0 + (y1 - y0) * t
                x = x0 + (x1 - x0) * t + rng.randint(-3, 3) * eps
                eb.append((x, y))
            bends.append(tuple(eb))
        try:
            candidate = Drawing(graph=g, x=dict(d.x), bends=tuple(bends))
            if count_crossings_geometric(candidate).count == 0:
                return candidate
        except Exception:
            pass
        eps /= 2
    return d


def found_deadlock():
    """A crossing-free straight caterpillar on which ``reference_stretch``'s
    wait-for rule deadlocks: s2 waits for s4 (l0-s4 lies left of s1-s2) and
    s4 for s2 (s1-s2 lies left of s3-s4)."""
    g = ReebGraph.build({"s0": 0, "s1": -1, "s2": 1, "s3": 0, "s4": 3, "l0": 0},
                        [("s0", "s1"), ("s1", "s2"), ("s2", "s3"), ("s3", "s4"), ("l0", "s4")])
    return Drawing(graph=g, x={"s0": Fraction(0), "s1": Fraction(2), "s2": Fraction(3),
                               "s3": Fraction(4), "s4": Fraction(5), "l0": Fraction(1)})


def found_doubling():
    """A crossing-free straight caterpillar on which ``reference_stretch``
    finds no clean offset for s2 in 64 doublings."""
    g = ReebGraph.build({"s0": 0, "s1": -1, "s2": 0, "l0": 1, "l1": 3},
                        [("s0", "s1"), ("s1", "s2"), ("l0", "s2"), ("l1", "s0")])
    return Drawing(graph=g, x={"s0": Fraction(0), "l0": Fraction(1), "s1": Fraction(2),
                               "l1": Fraction(11, 4), "s2": Fraction(4)})


def enumerate_min_crossings(g: ReebGraph) -> int:
    """Independent oracle: subdivide, then try every per-level permutation,
    scoring each strip pair by pair with :func:`brute_strip_crossings`."""
    g2, _ = subdivide(g)
    lev = levels(g2)
    by_level: list[list[str]] = [[] for _ in range(lev.count)]
    for v in sorted(g2.vertices):
        by_level[lev.level[v]].append(v)
    strips = _strip_edges(g2, lev)
    best = None
    for combo in itertools.product(*(itertools.permutations(b) for b in by_level)):
        pos = {v: i for order in combo for i, v in enumerate(order)}
        c = sum(brute_strip_crossings([(pos[lo], pos[hi]) for lo, hi in strip]) for strip in strips)
        if best is None or c < best:
            best = c
    assert best is not None
    return best


def random_ordering(g2: ReebGraph, rng: random.Random) -> LevelOrdering:
    lev = levels(g2)
    by_level: list[list[str]] = [[] for _ in range(lev.count)]
    for v in sorted(g2.vertices):
        by_level[lev.level[v]].append(v)
    for group in by_level:
        rng.shuffle(group)
    return LevelOrdering.from_lists(by_level)


def counted_geometric_calls(monkeypatch, *modules) -> list:
    """Route each module's ``count_crossings_geometric`` through a wrapper that
    records every drawing it counts; returns that record."""
    calls: list = []
    counter = modules[0].count_crossings_geometric
    for module in modules:
        monkeypatch.setattr(module, "count_crossings_geometric", lambda d: calls.append(d) or counter(d))
    return calls


def counted_level_calls(monkeypatch) -> list:
    """Route ``levels`` through a wrapper that records every graph it levels,
    in each library module that reads it; returns that record.  The modules
    come from ``sys.modules``, because ``reebdraw.subdivide`` as an attribute
    is the function of that name."""
    calls: list = []
    for name in ("core", "subdivide", "crossings", "layout"):
        monkeypatch.setattr(sys.modules[f"reebdraw.{name}"], "levels", lambda g: calls.append(g) or levels(g))
    return calls


def counted_warm_starts(monkeypatch) -> list:
    """Route ``_warm_start`` through a wrapper that records every view it
    orders, in the search's module and in the layouts'; returns that record."""
    calls: list = []
    for name in ("crossings", "layout"):
        monkeypatch.setattr(sys.modules[f"reebdraw.{name}"], "_warm_start",
                            lambda view: calls.append(view) or _warm_start(view))
    return calls


def point(d: Drawing, v: str) -> tuple[Fraction, Fraction]:
    """Vertex ``v``'s point in drawing ``d``: (x, height)."""
    return (d.x[v], d.graph.vertices[v])


def polyline(d: Drawing, edge_index: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """Edge polyline from the lower endpoint to the upper one."""
    lo, hi = d.graph.lower_upper(edge_index)
    return (point(d, lo), *d.bends[edge_index], point(d, hi))


def _reference_scaled_polylines(d: Drawing) -> tuple[list[list[tuple[int, int]]], int, int]:
    """Polylines with coordinates scaled to integers; returns (polylines, sx, sy)."""
    polys = [polyline(d, i) for i in range(len(d.graph.edges))]
    sx = sy = 1
    for poly in polys:
        for (px, py) in poly:
            sx = sx * px.denominator // gcd(sx, px.denominator)
            sy = sy * py.denominator // gcd(sy, py.denominator)
    scaled = [
        [(int(px * sx), int(py * sy)) for (px, py) in poly]
        for poly in polys
    ]
    return scaled, sx, sy


def _reference_line_intersection(a, b, c, d) -> tuple[Fraction, Fraction]:
    """Intersection point of lines ab and cd, as ``Fraction``s.  Caller guarantees non-parallel."""
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = r[0] * s[1] - r[1] * s[0]
    t = Fraction((c[0] - a[0]) * s[1] - (c[1] - a[1]) * s[0], denom)
    return (a[0] + t * r[0], a[1] + t * r[1])


def reference_count_crossings_geometric(d: Drawing) -> CrossingCertificate:
    """Oracle: the original all-pairs geometric counter, kept verbatim.

    It tests every edge against every vertex for polylines through foreign
    vertices, so it is slow, but its answers (certificate, or exception class,
    code and message) are what ``count_crossings_geometric`` must reproduce.
    """
    polys, sx, sy = _reference_scaled_polylines(d)
    vertex_pt = {v: (int(d.x[v] * sx), int(d.graph.vertices[v] * sy)) for v in d.graph.vertices}

    # A polyline must not pass through any vertex other than its endpoints.
    for ei, poly in enumerate(polys):
        ends = set(d.graph.edges[ei])
        for v, p in vertex_pt.items():
            if v in ends:
                continue
            for a, b in zip(poly, poly[1:]):
                if min(a[1], b[1]) <= p[1] <= max(a[1], b[1]) and geometry.on_segment(p, a, b):
                    raise DegeneracyError(f"edge {ei} passes through vertex {v!r}")

    # Flatten to segments, remembering the owning edge; sweep by y interval.
    segs = []
    for ei, poly in enumerate(polys):
        for a, b in zip(poly, poly[1:]):
            lo, hi = (a, b) if a[1] <= b[1] else (b, a)
            segs.append((lo[1], hi[1], lo, hi, ei))
    segs.sort(key=lambda s: (s[0], s[1]))

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
    n = len(segs)
    for i in range(n):
        y_lo_i, y_hi_i, a, b, ei = segs[i]
        for j in range(i + 1, n):
            y_lo_j, y_hi_j, c, dd, ej = segs[j]
            if y_lo_j > y_hi_i:
                break
            if ei == ej:
                continue
            if max(a[0], b[0]) < min(c[0], dd[0]) or max(c[0], dd[0]) < min(a[0], b[0]):
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
            pt = _reference_line_intersection(a, b, c, dd)
            witnesses = seen_points.setdefault(pt, set())
            witnesses.add(i)
            witnesses.add(j)
            if len(witnesses) > 2:
                raise DegeneracyError(f"three or more segments concurrent at {pt}")
            e_lo, e_hi = sorted((ei, ej))
            hits.append(CrossingPair(edges=(e_lo, e_hi), point=(Fraction(pt[0], sx), Fraction(pt[1], sy))))

    hits.sort(key=lambda h: (h.edges, h.point))
    return CrossingCertificate(count=len(hits), pairs=tuple(hits))


def _reference_remap_y(y: Fraction, src_lo: Fraction, src_hi: Fraction, dst_lo: Fraction, dst_hi: Fraction) -> Fraction:
    return dst_lo + (y - src_lo) * (dst_hi - dst_lo) / (src_hi - src_lo)


def reference_subdivide_drawing(d: Drawing, g: ReebGraph, mapping: SubdivisionMap) -> Drawing:
    """Oracle: ``subdivide_drawing`` as it cut each polyline itself on
    ``Fraction`` coordinates, kept verbatim (with its ``_cut_polyline`` and
    ``_remap_y``).  Its output, or its refusal, is what the version reading
    the drawing's shared view of where edges pass the vertex heights must
    reproduce.
    """
    if g != mapping.original or d.graph != g:
        raise GraphStructureError("drawing does not match the subdivision's input graph", code="map-mismatch")
    heights = mapping.level_heights
    rank_of = {h: k for k, h in enumerate(heights)}

    def fwd(y: Fraction) -> Fraction:
        if y in rank_of:
            return Fraction(rank_of[y])
        k = bisect_right(heights, y) - 1
        return _reference_remap_y(y, heights[k], heights[k + 1], Fraction(k), Fraction(k + 1))

    xs: dict[str, Fraction] = {v: d.x[v] for v in g.vertices}
    bends2: list[tuple[tuple[Fraction, Fraction], ...]] = [()] * len(mapping.subdivided.edges)
    for i in range(len(g.edges)):
        poly = polyline(d, i)
        path = mapping.paths[i]
        cut_heights = [heights[k] for k in range(int(fwd(poly[0][1])) + 1, int(fwd(poly[-1][1])))]
        pieces = _reference_cut_polyline(poly, cut_heights)
        if len(pieces) != len(mapping.sub_edges[i]):
            raise GraphStructureError(
                f"edge {i} cuts into {len(pieces)} pieces, expected {len(mapping.sub_edges[i])}",
                code="map-mismatch",
            )
        for j, sub in enumerate(mapping.sub_edges[i]):
            piece = pieces[j]
            if j < len(pieces) - 1:
                xs[path[j + 1]] = piece[-1][0]
            bends2[sub] = tuple((px, fwd(py)) for px, py in piece[1:-1])
    return Drawing(graph=mapping.subdivided, x=xs, bends=tuple(bends2))


def _reference_cut_polyline(
    poly: tuple[tuple[Fraction, Fraction], ...], cut_heights: list[Fraction]
) -> list[list[tuple[Fraction, Fraction]]]:
    """Split a strictly y-monotone polyline at the given interior heights,
    which lie strictly above its start, in increasing order.

    A cut at a bend's height is met as the end of the segment below the
    bend, and there the cut point is the bend itself.
    """
    pieces: list[list[tuple[Fraction, Fraction]]] = []
    current: list[tuple[Fraction, Fraction]] = [poly[0]]
    k = 0
    for a, b in zip(poly, poly[1:]):
        while k < len(cut_heights) and cut_heights[k] <= b[1]:
            yc = cut_heights[k]
            k += 1
            xc = a[0] + (b[0] - a[0]) * (yc - a[1]) / (b[1] - a[1])
            current.append((xc, yc))
            pieces.append(current)
            current = [(xc, yc)]
        if current[-1] != b:
            current.append(b)
    pieces.append(current)
    return pieces


def _reference_fmt(value: float) -> str:
    return f"{value:.2f}"


def reference_render_svg(
    d: Drawing,
    opts: RenderOptions = RenderOptions(),
    edge_parts: Sequence[str] | None = None,
) -> str:
    """Oracle: the renderer on exact ``Fraction`` coordinates, kept verbatim
    (its ``_fmt`` renamed ``_reference_fmt``).  ``render_svg`` must produce
    the same bytes."""
    pts: list[tuple[Fraction, Fraction]] = [point(d, v) for v in d.graph.vertices]
    for i in range(len(d.graph.edges)):
        pts.extend(d.bends[i])
    if pts:
        min_x = min(p[0] for p in pts)
        max_x = max(p[0] for p in pts)
        min_y = min(p[1] for p in pts)
        max_y = max(p[1] for p in pts)
    else:
        min_x = max_x = min_y = max_y = Fraction(0)

    inner_w = opts.width - 2 * opts.margin
    inner_h = opts.height - 2 * opts.margin
    span_x = max_x - min_x
    span_y = max_y - min_y

    def sx(x: Fraction) -> float:
        if span_x == 0:
            return opts.margin + inner_w / 2
        return opts.margin + float((x - min_x) / span_x) * inner_w

    def sy(y: Fraction) -> float:
        if span_y == 0:
            return opts.margin + inner_h / 2
        # Flip: the greatest height lands at the top margin.
        return opts.margin + float((max_y - y) / span_y) * inner_h

    lines: list[str] = []
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{opts.width}" height="{opts.height}" '
        f'viewBox="0 0 {opts.width} {opts.height}">'
    )
    lines.append("<!-- y axis flipped: screen y = margin + (max_height - height) * scale -->")
    lines.append(f'<rect width="{opts.width}" height="{opts.height}" fill="white"/>')

    if opts.show_level_lines:
        for h in sorted(set(d.graph.vertices.values())):
            y = _reference_fmt(sy(h))
            lines.append(
                f'<line x1="{opts.margin}" y1="{y}" x2="{opts.width - opts.margin}" y2="{y}" '
                f'stroke="#d0d0d0" stroke-width="0.5"/>'
            )

    for i in range(len(d.graph.edges)):
        poly = polyline(d, i)
        points = " ".join(f"{_reference_fmt(sx(px))},{_reference_fmt(sy(py))}" for px, py in poly)
        color, dash = "#303030", None
        if edge_parts is not None and i < len(edge_parts):
            color, dash = PART_STYLES.get(edge_parts[i], (color, None))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        lines.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash_attr}/>'
        )

    for v in d.graph.vertices:
        px, py = point(d, v)
        lines.append(
            f'<circle cx="{_reference_fmt(sx(px))}" cy="{_reference_fmt(sy(py))}" r="3.0" fill="#1050a0">'
            f"<title>{escape(str(v))}</title></circle>"
        )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# Reference strip and neighbor builders, kept verbatim, each a pass of its
# own over the edges: the oracles below build their strips and neighbor
# lists with these, not with ``subdivide._leveled``.

def _strip_edges(g2: ReebGraph, lev: LevelAssignment) -> list[list[tuple[str, str]]]:
    """Edges grouped by strip; each as (lower vertex, upper vertex)."""
    strips: list[list[tuple[str, str]]] = [[] for _ in range(max(lev.count - 1, 0))]
    for i in range(len(g2.edges)):
        lo, hi = g2.lower_upper(i)
        strips[lev.level[lo]].append((lo, hi))
    return strips


def brute_strip_crossings(pairs: Sequence[tuple[int, int]]) -> int:
    """Oracle: crossings among one strip's edges, given as (lower position,
    upper position), tested pair by pair: two cross iff their ends' orders
    on the two levels disagree."""
    return sum((a - c) * (b - d) < 0 for (a, b), (c, d) in itertools.combinations(pairs, 2))


def _neighbors(g2: ReebGraph) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """Each vertex's lower and upper neighbors, one entry per edge."""
    down: dict[str, list[str]] = {v: [] for v in g2.vertices}
    up: dict[str, list[str]] = {v: [] for v in g2.vertices}
    for i in range(len(g2.edges)):
        lo, hi = g2.lower_upper(i)
        down[hi].append(lo)
        up[lo].append(hi)
    return down, up


def _reference_barycenter_ordering(g2: ReebGraph, rounds: int = 10) -> LevelOrdering:
    """The original barycenter sweep, kept verbatim except that the levels come
    from ``LevelAssignment.by_level``: ``rounds`` rounds from id-sorted levels."""
    lev = levels(g2)
    orders: list[list[str]] = lev.by_level()
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


def _reference_dfs_level_orders(g2: ReebGraph, lev: LevelAssignment) -> list[list[str]]:
    """Oracle: the depth-first ordering on its own adjacency, kept verbatim.

    Order each level by depth-first discovery time; subtrees stay contiguous."""
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


def reference_warm_start(g2: ReebGraph) -> int:
    """Oracle: the original warm-start cost, kept verbatim.

    It sifts by recounting every crossing for every trial position, so it is
    slow, but its cost is what ``crossings._warm_start`` must reproduce.
    """
    lev = levels(g2)
    if lev.count == 0:
        return 0
    strips = _strip_edges(g2, lev)

    def cost_of(orders: list[list[str]]) -> int:
        pos = {v: i for order in orders for i, v in enumerate(order)}
        return sum(brute_strip_crossings([(pos[lo], pos[hi]) for lo, hi in strip]) for strip in strips)

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

    candidates = [_reference_dfs_level_orders(g2, lev)]
    for rounds in (1, 2, 4, 10):
        candidates.append([list(o) for o in _reference_barycenter_ordering(g2, rounds).orders])
    best = min(cost_of(orders) for orders in candidates)
    for orders in candidates[:2]:
        best = min(best, sift(orders))
        if best == 0:
            break
    return best


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


def _reference_x_at(poly, y: Fraction) -> Fraction:
    """x coordinate of a strictly y-monotone polyline at height y."""
    for a, b in zip(poly, poly[1:]):
        if a[1] <= y <= b[1]:
            if a[1] == b[1]:
                return a[0]
            return a[0] + (b[0] - a[0]) * (y - a[1]) / (b[1] - a[1])
    raise InternalInvariantError(f"height {y} outside polyline span")


def reference_edge_partial_order(d: Drawing) -> EdgeLeftRightOrder:
    n = len(d.graph.edges)
    polys = [polyline(d, i) for i in range(n)]
    spans = [(poly[0][1], poly[-1][1]) for poly in polys]
    succs: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lo = max(spans[i][0], spans[j][0])
            hi = min(spans[i][1], spans[j][1])
            if lo >= hi:
                continue
            y = (lo + hi) / 2
            xi, xj = _reference_x_at(polys[i], y), _reference_x_at(polys[j], y)
            if xi == xj:
                raise DegeneracyError(f"edges {i} and {j} coincide at height {y}")
            if xi < xj:
                succs[i].append(j)
            else:
                succs[j].append(i)
    order = EdgeLeftRightOrder(n, tuple(tuple(s) for s in succs))
    _reference_check_acyclic(order)
    return order


def _reference_check_acyclic(order: EdgeLeftRightOrder) -> None:
    state = [0] * order.edge_count  # 0 unseen, 1 on stack, 2 done
    for root in range(order.edge_count):
        if state[root]:
            continue
        stack = [(root, iter(order.left_of[root]))]
        state[root] = 1
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                state[node] = 2
                stack.pop()
                continue
            if state[nxt] == 1:
                raise InternalInvariantError("left-right edge relation contains a cycle")
            if state[nxt] == 0:
                state[nxt] = 1
                stack.append((nxt, iter(order.left_of[nxt])))


def reference_vertex_insertion_order(d: Drawing, order: EdgeLeftRightOrder) -> VertexInsertionOrder:
    g = d.graph
    preds = order.predecessors()
    incident = {v: [i for _, i in adj] for v, adj in g.adjacency().items()}
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
    remaining = set(g.vertices) - placed
    while remaining:
        candidates = sorted((v for v in remaining if free(v)), key=lambda v: (d.x[v], v))
        if not candidates:
            raise InternalInvariantError("no free vertex found; drawing is not crossing-free")
        v = candidates[0]
        sequence.append(v)
        placed.add(v)
        remaining.remove(v)
    return VertexInsertionOrder(tuple(sequence))


def reference_rows(d: Drawing) -> tuple[tuple[str | int, ...], ...]:
    """Independent oracle for the order ``stretch`` keeps: for each distinct
    vertex height, bottom up, the vertex ids there and the indices of the
    edges whose polylines pass strictly through it, left to right, on
    unscaled ``Fraction`` coordinates."""
    g = d.graph
    rows = []
    for h in sorted(set(g.vertices.values())):
        row = [(d.x[v], v) for v in g.vertices if g.vertices[v] == h]
        for i in range(len(g.edges)):
            poly = polyline(d, i)
            if poly[0][1] < h < poly[-1][1]:
                row.append((_reference_x_at(poly, h), i))
        row.sort(key=lambda item: item[0])
        xs = [x for x, _ in row]
        assert len(set(xs)) == len(xs), f"two objects share x at height {h}"
        rows.append(tuple(obj for _, obj in row))
    return tuple(rows)


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

    Oracle: ``stretch`` built these rows, one entry per (object, height it
    passes), until one sweep (``stretch._sweep``) gave their adjacent pairs
    and a log that fixes them; kept verbatim.
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


def reference_peel_order(d: Drawing, rows: list[list[int]]) -> tuple[str, ...]:
    """Oracle: the peel order reversed that ``stretch`` used before its peel
    waited on objects, kept verbatim: each vertex waits on one (row,
    position) per row that blocks it, found by one left-to-right scan per
    row, and each peel walks the suffix it removes from every row.
    ``stretch._insertion_order`` must give the same order, or the same refusal.

    A peel removes a suffix of every row it touches, so each row is kept as
    its full list and a current length, and positions never change.  Let m be
    the first position of z's star in a row, and q the first position after m
    that holds an object outside the star.  z is exposed in that row exactly
    while the row is no longer than q, even as z's star loses edges (each is
    the tail of its rows when it goes).  So z waits on one blocker (row, q)
    per row that blocks it and becomes exposed when the last one is removed.

    One left-to-right scan per row finds every m and q, with every vertex
    present.  A star is *running* from its m until its q; at each position
    only the owners of the object before it (the vertex, or the edge's two
    ends) can be running.  An edge to a peeled neighbour lies at or past its
    row's current length, so at z's peel a row whose m is at or past its
    length holds no object of z's star, and in every other row m is still
    the star's first position.
    """
    g = d.graph
    names = list(g.vertices)
    n = len(names)
    index = {v: k for k, v in enumerate(names)}
    owners = [(k,) for k in range(n)] + [(index[a], index[b]) for a, b in g.edges]
    length = [len(row) for row in rows]
    firsts: list[dict[int, int]] = [{} for _ in names]  # z -> per row, the first position of its star
    waiting: dict[tuple[int, int], list[int]] = {}
    blockers = [0] * n
    for r, row in enumerate(rows):
        run: list[int] = []
        for p, obj in enumerate(row):
            own = owners[obj]
            for z in run:
                if z not in own:
                    waiting.setdefault((r, p), []).append(z)
                    blockers[z] += 1
            # The owners still running, and those whose star starts here.
            run = [z for z in own if z in run or firsts[z].setdefault(r, p) == p]

    rank = {k: r for r, k in enumerate(sorted(range(n), key=lambda k: (d.x[names[k]], names[k])))}
    exposed = sorted((-rank[z], z) for z in range(n) if not blockers[z])  # a heap, greatest rank first
    peeled: list[int] = []
    while exposed:
        z = heappop(exposed)[1]
        for r, m in firsts[z].items():
            if m >= length[r]:
                continue  # the row holds only edges to peeled neighbours
            for p in range(m, length[r]):
                for w in waiting.pop((r, p), ()):
                    blockers[w] -= 1
                    if not blockers[w]:
                        heappush(exposed, (-rank[w], w))
            length[r] = m
        peeled.append(z)
    if len(peeled) != n:
        raise LayoutError(
            f"placing each vertex right of the earlier ones cannot keep the order at every "
            f"height ({n - len(peeled)} vertices stay blocked)",
            code="not-straightenable",
        )
    return tuple(names[z] for z in reversed(peeled))


def reference_stretch(d: Drawing) -> Drawing:
    """Oracle: the ``stretch`` that ordered edges all-pairs, kept verbatim
    with its three helpers.

    It inserts vertices by a wait-for rule on the edge relation and doubles
    each offset until the new edges touch nothing, testing every new edge
    against every drawn segment and placed vertex on unscaled ``Fraction``
    coordinates.  Wherever its output keeps ``reference_rows`` and its
    insertion order (``reference_vertex_insertion_order``) equals the peel's,
    ``stretch`` must reproduce it byte for byte; its refusals for crossings,
    parallel edges and degeneracies too.
    """
    if count_crossings_geometric(d).count != 0:
        raise GraphStructureError("cannot stretch a drawing with crossings", code="has-crossings")
    g = d.graph
    if len(set(g.edges)) != len(g.edges):
        # Two straight segments between the same endpoints always coincide.
        raise GraphStructureError("parallel edges cannot be drawn as straight segments",
                                  code="parallel-edges")
    order = reference_edge_partial_order(d)
    insertion = reference_vertex_insertion_order(d, order)

    new_x: dict[str, Fraction] = {}
    drawn: list[tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction], frozenset[str]]] = []
    incident = {v: [i for _, i in adj] for v, adj in g.adjacency().items()}

    for v in insertion.sequence:
        if not new_x:
            new_x[v] = Fraction(0)
            continue
        neighbors = sorted(
            {g.edges[e][0] if g.edges[e][1] == v else g.edges[e][1] for e in incident[v]}
            & set(new_x)
        )
        base = max(new_x.values())
        offset = Fraction(1)
        for _ in range(64):
            x = base + offset
            pv = (x, g.vertices[v])
            if _reference_placement_clean(g, d, new_x, drawn, v, pv, neighbors):
                break
            offset *= 2
        else:
            raise InternalInvariantError(f"could not place vertex {v!r} clear of obstacles")
        new_x[v] = x
        for u in neighbors:
            drawn.append(((new_x[u], g.vertices[u]), pv, frozenset((u, v))))

    out = Drawing(graph=g, x=new_x)
    if per_level_order(out) != per_level_order(d):
        raise InternalInvariantError("stretching changed a per-level vertex order")
    if count_crossings_geometric(out).count != 0:
        raise InternalInvariantError("stretched drawing has crossings")
    return out


def _reference_placement_clean(g, d, new_x, drawn, v, pv, neighbors) -> bool:
    """True if v's new straight edges miss all drawn segments and vertices."""
    new_segs = [((new_x[u], g.vertices[u]), pv, u) for u in neighbors]
    for (a, b, u) in new_segs:
        for (c, e, ends) in drawn:
            kind, pt = geometry.classify_segments(a, b, c, e)
            if kind == geometry.NONE:
                continue
            if kind == geometry.TOUCH and u in ends and pt == (new_x[u], g.vertices[u]):
                continue
            return False
        for w, wx in new_x.items():
            if w == u:
                continue
            if geometry.on_segment((wx, g.vertices[w]), a, b):
                return False
    # New edges pairwise share only v (collinear overlaps would slip past the
    # drawn-segment checks above).
    for i in range(len(new_segs)):
        for j in range(i + 1, len(new_segs)):
            kind, pt = geometry.classify_segments(new_segs[i][0], new_segs[i][1],
                                                  new_segs[j][0], new_segs[j][1])
            if kind == geometry.NONE or (kind == geometry.TOUCH and pt == pv):
                continue
            return False
    return True


def reference_exact_rgcn(g: ReebGraph, budget: int | None = DEFAULT_SEARCH_BUDGET) -> ExactResult:
    """Oracle: the exact search with the per-candidate bound, kept verbatim.

    Its ``count``, witness and budget payload are what ``exact_rgcn`` must
    reproduce; ``exact_rgcn`` prunes harder, so it explores fewer states.

    Exact minimum crossing number over all drawings, with a witness ordering.

    Subdivides the graph, then minimizes the layered count over all per-level
    permutations by depth-first search: levels are fixed bottom-up, and within
    a level vertices are placed left to right, paying the inversions each
    placement closes against the strip below.  Already-paid inversions plus
    unavoidable-crossing bounds for undecided strips prune against the
    incumbent, which starts at the cost of the warm start's heuristic ordering
    (the best of a depth-first and four barycenter orderings, after sifting).
    Candidates are tried in lexicographic id order and only strict
    improvements replace the incumbent, so the returned witness is the
    lexicographically least optimal ordering.  Raises
    :class:`BudgetExhaustedError` once more than ``budget`` placements have
    been explored; it carries the warm start's cost as ``best`` and its
    ordering, over the subdivided graph, as ``ordering``.
    """
    if not is_connected(g):
        raise LayoutError("exact search requires a connected graph", code="disconnected")
    g2, smap = subdivide(g)
    lev = levels(g2)
    level_vertices = lev.by_level()
    strips = _strip_edges(g2, lev)

    if lev.count == 0:
        return ExactResult(0, LevelOrdering(()), smap, 0)

    down_ends, _ = _neighbors(g2)

    # future_lb[l]: crossings unavoidable in strips at or above level l.
    strip_lb = [
        _strip_lower_bound(strips[s], len(level_vertices[s]), len(level_vertices[s + 1]))
        for s in range(lev.count - 1)
    ]
    future_lb = [0] * (lev.count + 1)
    for s in range(lev.count - 2, -1, -1):
        future_lb[s] = future_lb[s + 1] + strip_lb[s]

    warm, warm_ordering = _warm_start(_leveled(g2, lev))

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
                total += min(_pair_crossings(pi, pj))
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
        low_positions = {v: sorted(below[lo] for lo in down_ends[v]) for v in vs}
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
                        ordering=warm_ordering,
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

        # ``place`` and ``fill_level`` refer to themselves: emptying their cells
        # breaks the cycle, which would hold ``memo`` until the collector runs.
        try:
            place(cost)
        finally:
            del place

    minimum = None
    try:
        for target in range(future_lb[0], warm + 1):
            fill_level(0, 0, target, {})
            if found[0]:
                minimum = target
                break
    finally:
        del fill_level
    if minimum is None or best_orders[0] is None:
        # Unreachable: the warm-start cost itself is always attainable.
        raise InternalInvariantError("exact search finished without a witness")
    return ExactResult(
        count=minimum,
        ordering=LevelOrdering(best_orders[0]),
        mapping=smap,
        states=states[0],
    )


# Reference parity builders, kept verbatim: a bottom-up build of the system
# of all strips and a top-down build of the suffix tables, each on its own
# union-find.  ``recursive_exact_rgcn`` runs on them, so comparing it with
# ``exact_rgcn`` also checks ``crossings._parity_tables``.


class _ParityUnion:
    """The level-planarity parity system of a leveled graph, grown one strip
    at a time in a union-find with parity.

    For u, w on one level, x_uw means "u is left of w".  Two edges (a, b) and
    (c, d) of a strip with a != c and b != d do not cross iff x_ac = x_bd, and
    :meth:`add_strip` joins these equalities, in O(m^2) per strip of m
    distinct edges (Randerath et al., "A satisfiability formulation of
    problems on level graphs", ENDM 9, 2001).  A component whose equalities
    contradict each other holds an odd cycle: some strip edge pair in it
    crosses under every ordering.  Variables are listed by level, so
    :meth:`entries` reads one level's in time linear in its pairs.
    """

    def __init__(self, level_vertices: list[list[str]]):
        self.index = {v: (l, i) for l, vs in enumerate(level_vertices) for i, v in enumerate(vs)}
        self.node: dict[tuple[str, str], int] = {}  # (u, w) with u before w in its level
        self.parent: list[int] = []
        self.flip: list[int] = []  # parity to the parent
        self.odd: list[bool] = []  # at a root: its component holds an odd cycle
        self.odd_count = 0
        self.pairs: list[list[tuple[int, int, int]]] = [[] for _ in level_vertices]  # (node, i, j)
        self.widths = [len(vs) for vs in level_vertices]

    def variable(self, u: str, w: str) -> tuple[int, int]:
        """x_uw as (node, parity relative to the node)."""
        key, parity = ((u, w), 0) if self.index[u] < self.index[w] else ((w, u), 1)
        k = self.node.get(key)
        if k is None:
            k = self.node[key] = len(self.parent)
            self.parent.append(k)
            self.flip.append(0)
            self.odd.append(False)
            (l, i), (_, j) = self.index[key[0]], self.index[key[1]]
            self.pairs[l].append((k, i, j))
        return k, parity

    def add_strip(self, strip: list[tuple[str, str]]) -> None:
        """Join the equalities of one strip's edge pairs."""
        parent, flip, odd = self.parent, self.flip, self.odd
        edges = list(dict.fromkeys(strip))
        for k, (a, b) in enumerate(edges):
            for c, d in edges[k + 1:]:
                if a == c or b == d:
                    continue
                ka, pa = self.variable(a, c)
                kb, pb = self.variable(b, d)
                ra, qa = _find(parent, flip, ka)
                rb, qb = _find(parent, flip, kb)
                if ra != rb:
                    parent[ra], flip[ra] = rb, qa ^ pa ^ qb ^ pb
                    if odd[ra]:
                        if odd[rb]:
                            self.odd_count -= 1
                        odd[rb] = True
                elif qa ^ pa != qb ^ pb and not odd[ra]:
                    odd[ra] = True
                    self.odd_count += 1

    def entries(self, level: int) -> list[list[tuple[int, int, int]]]:
        """Per vertex index i of ``level``, the entries (j, root, side) for the
        pairs (i, j) in a component without an odd cycle: placing i left of j
        forces the variable at the root of their component to ``side``."""
        row: list[list[tuple[int, int, int]]] = [[] for _ in range(self.widths[level])]
        for k, i, j in self.pairs[level]:
            root, parity = _find(self.parent, self.flip, k)
            if self.odd[root]:
                continue
            # x_ij = x_root ^ parity, so "i left of j" forces x_root = 1 ^ parity.
            row[i].append((j, root, 1 ^ parity))
            row[j].append((i, root, parity))
        return row


def _parity_system(level_vertices: list[list[str]],
                   strips: list[list[tuple[str, str]]]) -> list[list[list[tuple[int, int, int]]]] | None:
    """The parity system of all strips (see :class:`_ParityUnion`), frozen per
    level.  Returns None when it is contradictory: then no ordering is
    crossing-free.  Otherwise returns, per level, its :meth:`~_ParityUnion.entries`.
    """
    system = _ParityUnion(level_vertices)
    for strip in strips:
        system.add_strip(strip)
        if system.odd_count:
            return None
    return [system.entries(l) for l in range(len(level_vertices))]


def _suffix_tables(level_vertices: list[list[str]],
                   strips: list[list[tuple[str, str]]]) -> tuple[list[int], list[list[list[tuple[int, int, int]]]]]:
    """Per level L, the parity system of the strips at or above L alone:
    the number of its components that hold an odd cycle, and the
    :meth:`~_ParityUnion.entries` of level L's pairs, kept only for the
    components that hold two or more of them (one pair alone cannot be
    oriented both ways).

    One top-down pass builds them all: add strip L, then freeze level L,
    while the system holds the strips >= L and no other.
    """
    system = _ParityUnion(level_vertices)
    odd = [0] * len(level_vertices)
    sides: list[list[list[tuple[int, int, int]]]] = [[] for _ in level_vertices]
    for l in range(len(level_vertices) - 1, -1, -1):
        if l < len(strips):
            system.add_strip(strips[l])
        odd[l] = system.odd_count
        row = system.entries(l)
        pairs = Counter(c for entries in row for _, c, _ in entries)
        sides[l] = [[e for e in entries if pairs[e[1]] > 2] for entries in row]
    return odd, sides


def _orient(entries: list[tuple[int, int, int]], placed: list[bool],
            orient: dict[int, int], trail: list[int]) -> int:
    """Orient the components that placing a vertex left of every unplaced
    vertex of its level fixes, from its parity entries; returns how many
    components this orients both ways for the first time.

    ``orient`` maps a component to the side it was first given, plus 2 once
    it has been given both; ``trail`` lists each change, for :func:`_unwind`.
    ``exact_rgcn`` runs the same steps inline, on an int list.
    """
    clashes = 0
    for j, c, side in entries:
        if placed[j]:
            continue
        fixed = orient.get(c)
        if fixed is None:
            orient[c] = side
            trail.append(c)
        elif fixed ^ side == 1:
            orient[c] = fixed + 2
            trail.append(c)
            clashes += 1
    return clashes


def _unwind(orient: dict[int, int], trail: list[int], mark: int) -> None:
    """Undo the changes made to ``orient`` since the trail was ``mark`` long."""
    while len(trail) > mark:
        c = trail.pop()
        if orient[c] > 1:
            orient[c] -= 2
        else:
            del orient[c]


def recursive_exact_rgcn(g: ReebGraph, budget: int | None = DEFAULT_SEARCH_BUDGET) -> ExactResult:
    """Oracle: ``exact_rgcn``'s search written as two self-recursive
    closures, ``fill_level`` and ``place``.

    It shares the search's bounds with ``exact_rgcn``: the start-time tables
    (``crossings._search_tables``: ``future_lb``, the lower-edge tables, the
    exchange caps and the mirror level) and the level entry
    (``crossings._level_entry``: the memo, the floor, the regret and drop
    rows), and the candidate loop writes each cut as the same one line.  So
    it checks what the two searches do not share, through its ``count``,
    witness, ``states``, ``rounds`` and budget payload, which ``exact_rgcn``
    must reproduce exactly: the traversal on an explicit stack against this
    recursion, the int-list orientation against ``_orient`` and ``_unwind``,
    and ``crossings._parity_tables`` against the reference builders
    ``_parity_system`` and ``_suffix_tables``, which this one runs on.  The
    bounds' soundness is checked by ``reference_exact_rgcn``, which shares
    none of them, and by one property per cut.  It recurses once per placed
    vertex, so it needs a small graph.
    """
    if not is_connected(g):
        raise LayoutError("exact search requires a connected graph", code="disconnected")
    g2, smap = subdivide(g)
    lev = levels(g2)
    level_vertices = lev.by_level()
    strips = _strip_edges(g2, lev)

    if lev.count == 0:
        return ExactResult(0, LevelOrdering(()), smap, 0)

    view = _leveled(g2, lev)
    tables = _search_tables(view)
    warm, warm_ordering = _warm_start(view)

    # Round 0 runs only if the parity system is consistent, and then prunes
    # on it, with one orientation map and trail (see ``_orient``) over all
    # levels.  Rounds >= 1 build the suffix tables when the first of them
    # starts, and orient afresh on each level entry.
    sides = _parity_system(level_vertices, strips) if tables.future_lb[0] == 0 else None
    first_target = tables.future_lb[0] if tables.future_lb[0] > 0 or sides is not None else 1
    round_zero_orient: dict[int, int] = {}
    round_zero_trail: list[int] = []
    suffix_odd: list[int] = []
    suffix_sides: list[list[list[tuple[int, int, int]]]] = []

    # ``chosen`` holds the orders, as indices, of the levels placed so far.
    best_orders: list[tuple[list[int], ...] | None] = [None]
    chosen: list[list[int]] = []
    states = [0]
    limit = inf if budget is None else budget
    found = [False]

    def fill_level(level: int, cost: int, target: int,
                   memo: list[dict[int, int]]) -> None:
        if level == lev.count:
            best_orders[0] = tuple(chosen)
            found[0] = True
            return
        entry = _level_entry(tables, level, chosen[level - 1] if level > 0 else [], cost, target, memo[level])
        if entry is None:
            return
        floor, regret, drop = entry
        width = len(regret)
        caps = tables.caps[level]
        mirror = level == tables.mirror_level
        # ``bad`` counts the components of the parity system in use that
        # force a crossing in the strips >= level.
        if target == 0:
            entries, orient, trail, bad = sides[level], round_zero_orient, round_zero_trail, 0
        else:
            entries, orient, trail, bad = suffix_sides[level], {}, [], suffix_odd[level]
        above = tables.future_lb[level]
        perm: list[int] = []
        placed = [False] * width

        def place(floor_here: int, regret_here: list[int], bad_here: int) -> None:
            for i in range(width):
                if placed[i]:
                    continue
                states[0] += 1
                if states[0] > limit:
                    raise BudgetExhaustedError(
                        f"exact search exceeded budget of {budget} states",
                        best=warm,
                        ordering=warm_ordering,
                        mapping=smap,
                    )
                if floor_here + regret_here[i] > target:
                    continue
                if mirror and len(perm) + 1 < width:
                    # Mirror cut: a vertex after the first in id order must
                    # be left over to place last.
                    first = perm[0] if perm else i
                    if placed[first + 1:].count(False) == (i > first):
                        continue
                q = perm[-1] if perm else -1
                if i < q and not drop[q][i] and drop[i][q] >= caps[q][i]:
                    continue  # the exchange cut
                mark = len(trail)
                bad_i = bad_here + _orient(entries[i], placed, orient, trail) if entries[i] else bad_here
                # The floor counts ``above`` for the strips >= level, and
                # ``bad_i`` bounds them too.
                if bad_i > above and floor_here + regret_here[i] + bad_i - above > target:
                    if len(trail) > mark:
                        _unwind(orient, trail, mark)
                    continue
                perm.append(i)
                if len(perm) == width:
                    chosen.append(perm)
                    fill_level(level + 1, floor_here + regret_here[i] - above, target, memo)
                    if found[0]:
                        return
                    chosen.pop()
                else:
                    placed[i] = True
                    place(floor_here + regret_here[i], list(map(sub, regret_here, drop[i])), bad_i)
                    if found[0]:
                        return
                    placed[i] = False
                if len(trail) > mark:
                    _unwind(orient, trail, mark)
                perm.pop()

        # ``place`` and ``fill_level`` refer to themselves: emptying their cells
        # breaks the cycle, which would hold ``memo`` until the collector runs.
        try:
            place(floor, regret, bad)
        finally:
            del place

    rounds = []
    try:
        for target in range(first_target, warm + 1):
            if target and not suffix_sides:
                suffix_odd, suffix_sides = _suffix_tables(level_vertices, strips)
            before = states[0]
            fill_level(0, 0, target, [{} for _ in range(lev.count)])
            rounds.append((target, states[0] - before))
            if found[0]:
                break
    finally:
        del fill_level
    if best_orders[0] is None:
        # Unreachable: the warm-start cost itself is always attainable.
        raise InternalInvariantError("exact search finished without a witness")
    return ExactResult(
        count=target,
        ordering=LevelOrdering(tuple(tuple(vs[i] for i in perm) for vs, perm in zip(level_vertices, best_orders[0]))),
        mapping=smap,
        states=states[0],
        rounds=tuple(rounds),
    )


def reference_layout_caterpillar(g: ReebGraph) -> Drawing:
    """Oracle: the caterpillar layout with its shrink-and-retry loop, kept verbatim.

    Wherever it succeeds (spine degree <= 3), ``layout_caterpillar`` must return
    the same drawing.

    Draw a caterpillar: path layout for the spine, legs as short offset segments.

    Legs lean at most 1/4 column toward the side where the adjacent spine edge
    departs in the opposite vertical direction, so they stay clear of
    everything except (possibly) incidences that a deterministic shrink-and
    -retry loop removes.  Emits zero crossings.
    """
    shape = classify_shape(g)
    if shape == ShapeClass.PATH:
        return layout_path(g)
    if shape != ShapeClass.CATERPILLAR:
        raise LayoutError("layout_caterpillar requires a caterpillar", code="not-caterpillar")
    prof = degree_profile(g)
    spine, legs = _spine_and_legs(g)
    for v in spine:
        if prof.total[v] > 3:
            raise LayoutError(
                f"spine vertex {v!r} has degree {prof.total[v]}, legs would collide",
                code="degree",
            )

    spine_x = {v: Fraction(i + 1) for i, v in enumerate(spine)}
    spine_index = {v: i for i, v in enumerate(spine)}

    def open_side(v: str, up: bool) -> int:
        """+1 to lean right, -1 to lean left, preferring a side whose spine edge
        departs away from the leg's vertical direction."""
        i = spine_index[v]
        h = g.vertices[v]
        right_ok = i == len(spine) - 1 or (g.vertices[spine[i + 1]] < h) == up
        left_ok = i == 0 or (g.vertices[spine[i - 1]] < h) == up
        if right_ok:
            return 1
        if left_ok:
            return -1
        return 1

    base = Fraction(1, 4)
    for _ in range(40):
        xs = dict(spine_x)
        for v in spine:
            h = g.vertices[v]
            ups = sorted((w for w in legs[v] if g.vertices[w] > h),
                         key=lambda w: (-g.vertices[w], w))
            downs = sorted((w for w in legs[v] if g.vertices[w] < h),
                           key=lambda w: (g.vertices[w], w))
            for group, up in ((ups, True), (downs, False)):
                if not group:
                    continue
                side = open_side(v, up)
                for rank, w in enumerate(group, start=1):
                    xs[w] = spine_x[v] + side * base * Fraction(rank, len(group))
        d = Drawing(graph=g, x=xs)
        try:
            if count_crossings_geometric(d).count == 0:
                return d
        except DegeneracyError:
            pass
        base /= 2
    raise InternalInvariantError("caterpillar legs could not be placed cleanly")


def _reference_cycle_order(g: ReebGraph) -> list[str]:
    """Oracle: ``layout._cycle_order`` before the decomposition was rewritten, kept verbatim.

    Cycle traversal starting at the lexicographically least top-level vertex,
    stepping first toward its lexicographically least neighbor."""
    lev = levels(g)
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
    return order


def reference_top_down_iteration_number(g: ReebGraph) -> CycleDecomposition:
    """Oracle: the two-scan decomposition, kept verbatim.

    Count a cycle's alternations between its extreme levels and name the keys.

    The traversal is projected to T (top level) / B (bottom level) symbols,
    consecutive repeats collapse into runs (cyclically), and the number of T
    runs is the iteration count; each run's first vertex is a key.
    """
    if classify_shape(g) != ShapeClass.SINGLE_CYCLE:
        raise LayoutError("top-down iteration number requires a single cycle", code="not-single-cycle")
    lev = levels(g)
    top, bottom = lev.count - 1, 0
    order = _reference_cycle_order(g)

    def runs_of(seq: list[str]) -> list[tuple[str, list[int]]]:
        out: list[tuple[str, list[int]]] = []
        for i, v in enumerate(seq):
            if lev.level[v] not in (top, bottom):
                continue
            sym = "T" if lev.level[v] == top else "B"
            if out and out[-1][0] == sym:
                out[-1][1].append(i)
            else:
                out.append((sym, [i]))
        return out

    # The start vertex may sit mid-run (its run wrapping around the cycle);
    # rotate the traversal to that run's cyclic start so every run is a
    # contiguous stretch and each connecting path touches at most one extreme
    # level beyond its endpoints.
    runs = runs_of(order)
    if len(runs) > 1 and runs[-1][0] == runs[0][0]:
        order = order[runs[-1][1][0]:] + order[:runs[-1][1][0]]
        runs = runs_of(order)
    k = sum(1 for sym, _ in runs if sym == "T")

    keys = [order[positions[0]] for _, positions in runs]
    key_pos = [positions[0] for _, positions in runs]
    paths: list[tuple[str, ...]] = []
    for j in range(len(keys)):
        a = key_pos[j]
        if j + 1 < len(keys):
            paths.append(tuple(order[a:key_pos[j + 1] + 1]))
        else:
            paths.append(tuple(order[a:] + order[:1]))
    return CycleDecomposition(
        top=top,
        keys=tuple(keys),
        iteration_count=k,
        paths=tuple(paths),
    )


def reference_cycle_level_ordering(level_vertices: list[list[str]], dec: CycleDecomposition) -> LevelOrdering:
    """Oracle: the corridor order on rational x coordinates, kept verbatim.

    Key j (counted from 1) sits at x = j, or 2k+1-j in the second half; the
    i-th inner vertex of connecting path j sits at its start column plus
    i / (2(len(path) - 1)) on a first-half path, minus it on a second-half
    one.  Each level is sorted by (x, id).
    """
    k = dec.iteration_count
    vx = {key: Fraction(j if j <= k else 2 * k + 1 - j) for j, key in enumerate(dec.keys, start=1)}
    for j, path in enumerate(dec.paths, start=1):
        step = Fraction(1 if j <= k else -1, 2 * (len(path) - 1))
        for i, v in enumerate(path[1:-1], start=1):
            vx[v] = vx[path[0]] + i * step
    orders = [tuple(sorted(vs, key=lambda v: (vx[v], v))) for vs in level_vertices]
    return LevelOrdering(tuple(orders))


def reference_realize_layered(g2: ReebGraph, ordering: LevelOrdering) -> Drawing:
    """Oracle: the realization with its 42-entry retry schedule, kept verbatim.

    Wherever its first attempt (integer positions) certifies,
    ``realize_layered`` must return the same drawing.

    Straight-line drawing of a leveled graph whose geometric count equals the layered count.

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


def reference_certified_drawing(inst: GadgetInstance, f: LinearArrangement) -> tuple[Drawing, CrossingCertificate]:
    """Oracle: the gadget drawing with its 24 lane-offset wobbles, kept verbatim.

    Wherever its first wobble (the canonical offsets) is non-degenerate,
    ``arrangement_to_drawing`` must return the same drawing and certificate.

    Draw H with columns in arrangement order.

    Grid pairs face each other, strands run straight across the gap (extra
    copies fan out slightly at mid-gap), and each source edge travels through
    the lanes between column boxes: down from its top chain, across the gap
    diagonally (crossing exactly the skipped columns' strand bundles), and up
    to its bottom chain.  The geometric crossing count is at most the budget
    whenever the arrangement cost is within its own budget.  Returns the
    drawing with its crossing certificate.
    """
    plan = inst.plan
    if set(f.ranks) != set(inst.source.vertices):
        raise GraphStructureError("arrangement does not cover the source vertices",
                                  code="arrangement-mismatch")
    m = plan.strands
    pitch = plan.column_pitch
    width = plan.column_width

    def origin(u: str) -> Fraction:
        return Fraction((f.ranks[u] - 1) * pitch)

    xs = {v: origin(plan.owner[v]) + plan.local_x[v] for v in inst.graph.vertices}

    mid_gap = Fraction(plan.bottom_grid_top + plan.top_grid_base, 2)
    gap_lo = Fraction(2 * plan.bottom_grid_top + 1, 2)   # just above the bottom grids
    gap_hi = Fraction(2 * plan.top_grid_base - 1, 2)     # just below the top grids
    band_lo = Fraction(2 * plan.bottom_grid_base - 1, 2)  # just below the bottom grids
    band_hi = Fraction(2 * plan.top_grid_top + 1, 2)      # just above the top grids

    for wobble in range(24):
        shift = Fraction(wobble, 13 * (wobble + 1)) if wobble else Fraction(0)
        bends: list[tuple[tuple[Fraction, Fraction], ...]] = [() for _ in inst.graph.edges]
        fan = Fraction(1, 2 * (m + 1) * (wobble + 1))
        for edge_index, u, slot, copy in plan.strand_edges:
            if copy == 0:
                continue
            a, _ = inst.graph.edges[edge_index]
            bends[edge_index] = ((xs[a] + copy * fan, mid_gap),)
        for route in plan.e1_routes:
            top_u, bot_u = route.top_source, route.bottom_source
            sub = route.lane_offset + shift
            going_right = f.ranks[bot_u] > f.ranks[top_u]
            lane_top = origin(top_u) + width + sub if going_right else origin(top_u) - sub
            lane_bot = origin(bot_u) - sub if going_right else origin(bot_u) + width + sub
            bends[route.edge_index] = (
                (lane_bot, band_lo),
                (lane_bot, gap_lo),
                (lane_top, gap_hi),
                (lane_top, band_hi),
            )
        d = Drawing(graph=inst.graph, x=xs, bends=tuple(bends))
        try:
            return d, count_crossings_geometric(d)
        except DegeneracyError:
            continue
    raise InternalInvariantError("gadget drawing stayed degenerate under all lane offsets")


# ---------------------------------------------------------------------------
# The drawing reader before it read each value once: its schema checks, the
# rational parser, and the checks of the ReebGraph and Drawing constructors,
# kept verbatim.  ``reference_parse_drawing`` returns what ``drawing_value``
# returns for the Drawing it builds, or raises the error it raised.
# ---------------------------------------------------------------------------

_REFERENCE_MAX_DIGITS = 4300


def reference_parse_fraction(text: str, what: str, code: str) -> Fraction:
    """``Fraction(text)``, or a GraphStructureError with ``code`` naming the
    value ``what``.  A decimal exponent that would scale the value past
    4,300 digits is refused from the string, before the number is built."""
    try:
        # ``Fraction`` builds m * 10**s, or m over 10**-s, from the significand m and s, the
        # exponent less the digits after the point: refuse from the string what overflows.
        head, e, exp = text.strip().replace("_", "").lower().partition("e")
        if e and exp.lstrip("+-").isdecimal():
            shift = int(exp) - len(head.partition(".")[2])
            digits = len(head.lstrip("+-0.").replace(".", ""))
            if max(digits + max(shift, 0), 1 - shift) > _REFERENCE_MAX_DIGITS:
                raise ValueError(f"needs more than {_REFERENCE_MAX_DIGITS} digits")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise GraphStructureError(f"cannot parse {what} {text!r}: {exc}", code=code) from None


def _reference_parse_rational(value, what: str = "value") -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise GraphStructureError(
            f"{what} must be an integer or an exact string, got {value!r}", code="bad-rational"
        )
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return reference_parse_fraction(value, what, "bad-rational")
    raise GraphStructureError(f"{what} must be an integer or string, got {type(value).__name__}",
                              code="bad-rational")


def _reference_rational_reader():
    memo: dict[str, Fraction] = {}

    def read(value, what: str, name: str | None = None) -> Fraction:
        text = type(value) is str
        if text and (q := memo.get(value)) is not None:
            return q
        q = _reference_parse_rational(value, what if name is None else f"{what} {name!r}")
        if text:
            memo[value] = q
        return q

    return read


def _reference_require(cond: bool, message: str) -> None:
    if not cond:
        raise GraphStructureError(message, code="bad-schema")


def _reference_edge_pairs(items: list) -> list:
    _reference_require(all(isinstance(p, list) and len(p) == 2 and isinstance(p[0], str) and isinstance(p[1], str)
                           for p in items), "each edge must be a pair of ids")
    return items


def _reference_reeb_graph(vertices, edges) -> tuple[dict, tuple]:
    """``ReebGraph.__post_init__``'s checks: (vertices, canonical edges)."""
    verts = dict(vertices)
    ratios = {v: h.as_integer_ratio() for v, h in verts.items()}  # exact, faster than Fraction.__eq__
    canon = []
    for a, b in edges:
        ra, rb = ratios.get(a), ratios.get(b)
        if ra is None or rb is None:
            raise GraphStructureError(f"edge endpoint {a if ra is None else b!r} is not a declared vertex",
                                      code="unknown-vertex")
        if a == b:
            raise GraphStructureError(f"self-loop at vertex {a!r}", code="self-loop")
        if ra == rb:
            raise GraphStructureError(
                f"edge ({a!r}, {b!r}) joins two vertices of equal height {verts[a]}",
                code="horizontal-edge",
            )
        canon.append((a, b) if a <= b else (b, a))
    return verts, tuple(canon)


def _reference_exact(c) -> Fraction:
    return c if type(c) is Fraction else Fraction(c)


def _reference_drawing(graph: tuple[dict, tuple], x, bends) -> tuple:
    """``Drawing.__post_init__``'s checks and frame, as ``drawing_value``."""
    heights, edges = graph
    xs = {v: _reference_exact(x) for v, x in x.items()}
    missing = [v for v in heights if v not in xs]
    if missing:
        raise GraphStructureError(f"missing x coordinate for vertex {missing[0]!r}", code="missing-x")
    extra = [v for v in xs if v not in heights]
    if extra:
        raise GraphStructureError(f"x coordinate for unknown vertex {extra[0]!r}", code="unknown-vertex")
    bends = tuple(tuple((_reference_exact(px), _reference_exact(py)) for px, py in eb) if eb else ()
                  for eb in bends)
    bends = bends or ((),) * len(edges)
    if len(bends) != len(edges):
        raise GraphStructureError(
            f"bend list length {len(bends)} does not match edge count {len(edges)}",
            code="edge-mismatch",
        )
    ratios = {v: (xs[v].as_integer_ratio(), h.as_integer_ratio()) for v, h in heights.items()}
    bend_ratios = [(px.as_integer_ratio(), py.as_integer_ratio()) for eb in bends for px, py in eb]
    x_dens = {xd for (_, xd), _ in ratios.values()} | {xd for (_, xd), _ in bend_ratios}
    y_dens = {yd for _, (_, yd) in ratios.values()} | {yd for _, (_, yd) in bend_ratios}
    sx, sy = lcm(*x_dens), lcm(*y_dens)
    fx = {d: sx // d for d in x_dens}
    fy = {d: sy // d for d in y_dens}

    def scaled(ratio):
        (xn, xd), (yn, yd) = ratio
        return xn * fx[xd], yn * fy[yd]

    vertex_pt = {v: scaled(r) for v, r in ratios.items()}
    bend_pts = map(scaled, bend_ratios)
    polys = []
    for i, ((a, b), eb) in enumerate(zip(edges, bends)):
        lo, hi = vertex_pt[a], vertex_pt[b]
        if hi[1] < lo[1]:
            lo, hi = hi, lo
        if not eb:
            polys.append((lo, hi))
            continue
        pts = tuple(itertools.islice(bend_pts, len(eb)))
        y_prev = lo[1]
        for (_, y), (_, py) in zip(pts, eb):
            if not (y_prev < y < hi[1]):
                raise GraphStructureError(
                    f"bend of edge {i} at y={py} breaks strict y-monotonicity", code="bad-bend"
                )
            y_prev = y
        polys.append((lo, *pts, hi))
    points: dict[tuple[int, int], str] = {}
    for v, p in vertex_pt.items():
        if p in points:
            raise DegeneracyError(f"vertices {points[p]!r} and {v!r} coincide at {(xs[v], heights[v])}")
        points[p] = v
    return (list(heights.items()), edges, list(xs.items()), bends, (tuple(polys), list(vertex_pt.items()), sx, sy))


def _reference_graph_from_obj(obj, read) -> tuple[dict, tuple]:
    _reference_require(isinstance(obj, dict), "graph must be an object")
    _reference_require(isinstance(obj.get("vertices"), list), "graph.vertices must be a list")
    _reference_require(isinstance(obj.get("edges"), list), "graph.edges must be a list")
    heights: dict[str, Fraction] = {}
    for item in obj["vertices"]:
        _reference_require(isinstance(item, dict) and isinstance(vid := item.get("id"), str),
                           "each vertex needs a string id")
        if vid in heights:
            raise GraphStructureError(f"duplicate vertex id {vid!r}", code="duplicate-vertex")
        heights[vid] = read(item.get("height"), "height of", vid)
    return _reference_reeb_graph(heights, _reference_edge_pairs(obj["edges"]))


def reference_parse_drawing(obj) -> tuple:
    """Oracle: the drawing reader that parsed each value once per use, from
    a decoded JSON document.  Its value, or its error (class, code and
    message), is what ``jsonio.drawing_from_obj`` must reproduce."""
    _reference_require(isinstance(obj, dict), "drawing must be an object")
    read = _reference_rational_reader()
    g = _reference_graph_from_obj(obj.get("graph"), read)
    _reference_require(isinstance(obj.get("x"), dict), "drawing.x must be an object")
    xs = {v: read(c, "x of", v) for v, c in obj["x"].items()}
    _reference_require(isinstance(entries := obj.get("edges"), list), "drawing.edges must be a list")
    if len(entries) != len(g[1]):
        raise GraphStructureError(
            f"drawing lists {len(entries)} edges, graph has {len(g[1])}", code="edge-mismatch"
        )
    bends = []
    for i, (entry, edge) in enumerate(zip(entries, g[1])):
        _reference_require(isinstance(entry, dict), "each drawing edge must be an object")
        eps = entry.get("endpoints")
        _reference_require(isinstance(eps, list) and len(eps) == 2, "drawing edge needs two endpoints")
        a, b = eps
        _reference_require(isinstance(a, str) and isinstance(b, str), "drawing edge endpoints must be string ids")
        if ((a, b) if a <= b else (b, a)) != edge:
            raise GraphStructureError(
                f"drawing edge {i} endpoints {eps} do not match graph edge {list(edge)}",
                code="edge-mismatch",
            )
        raw = entry.get("bends", [])
        _reference_require(isinstance(raw, list), "bends must be a list")
        eb = []
        for pair in raw:
            _reference_require(isinstance(pair, list) and len(pair) == 2, "each bend must be an [x, y] pair")
            eb.append((read(pair[0], "bend x"), read(pair[1], "bend y")))
        bends.append(tuple(eb))
    return _reference_drawing(g, xs, tuple(bends))


def drawing_value(d: Drawing) -> tuple:
    """Everything a Drawing holds, dict orders included: (vertices, edges,
    x, bends, integer frame)."""
    polys, vertex_pt, sx, sy = d._scaled_polylines
    return (list(d.graph.vertices.items()), d.graph.edges, list(d.x.items()), d.bends,
            (polys, list(vertex_pt.items()), sx, sy))
