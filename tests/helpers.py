"""Shared generators and independent oracles for the test suite.

Everything takes an explicit ``random.Random`` so tests are reproducible.
The enumeration oracle here is deliberately independent of the search in
``reebdraw.crossings.exact_rgcn``: it tries every per-level permutation.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

from reebdraw import (
    CrossingCertificate,
    DegeneracyError,
    Drawing,
    LevelOrdering,
    ReebGraph,
    count_crossings_geometric,
    count_crossings_layered,
    levels,
    subdivide,
)
from reebdraw import geometry
from reebdraw.crossings import CrossingPair


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
    """Caterpillar with spine degrees at most 3 and at least one leg when room allows."""
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


def random_cycle_graph(n: int, rng: random.Random, max_level: int = 4) -> ReebGraph:
    ids = [f"v{i}" for i in range(n)]
    while True:
        hs = [rng.randint(0, max_level) for _ in range(n)]
        if all(hs[i] != hs[(i + 1) % n] for i in range(n)) and len(set(hs)) >= 2:
            return ReebGraph.build(
                dict(zip(ids, hs)),
                [(ids[i], ids[(i + 1) % n]) for i in range(n)],
            )


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


def enumerate_min_crossings(g: ReebGraph) -> int:
    """Independent oracle: subdivide, then try every per-level permutation."""
    g2, _ = subdivide(g)
    lev = levels(g2)
    by_level: list[list[str]] = [[] for _ in range(lev.count)]
    for v in sorted(g2.vertices):
        by_level[lev.level[v]].append(v)
    best = None
    for combo in itertools.product(*(itertools.permutations(b) for b in by_level)):
        c = count_crossings_layered(g2, LevelOrdering(tuple(combo)))
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


def _reference_scaled_polylines(d: Drawing) -> tuple[list[list[tuple[int, int]]], int, int]:
    """Polylines with coordinates scaled to integers; returns (polylines, sx, sy)."""
    polys = [d.polyline(i) for i in range(len(d.graph.edges))]
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
            witnesses = seen_points.setdefault(pt, set())
            witnesses.add(i)
            witnesses.add(j)
            if len(witnesses) > 2:
                raise DegeneracyError(f"three or more segments concurrent at {pt}")
            e_lo, e_hi = sorted((ei, ej))
            hits.append(CrossingPair(edges=(e_lo, e_hi), point=(Fraction(pt[0], sx), Fraction(pt[1], sy))))

    hits.sort(key=lambda h: (h.edges, h.point))
    return CrossingCertificate(count=len(hits), pairs=tuple(hits))
