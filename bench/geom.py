"""Exact crossing checks written for the benchmark, independent of reebdraw.

A drawing here is plain data parsed from the JSON files the CLI reads and
writes: ``heights`` and ``xs`` map vertex ids to Fractions, ``edges`` lists
(a, b) id pairs, and ``bends`` lists each edge's interior points.  Polylines
are scaled to integers and compared pairwise; the rules are the library's
own: shared endpoints are not crossings, every other contact (a touch,
an overlap, an edge through a foreign vertex, three segments through one
point) is degenerate.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class Degenerate(Exception):
    """The drawing has a contact that is neither a shared endpoint nor a crossing."""


def polylines(heights, xs, edges, bends):
    """Each edge as a list of points from its lower endpoint to its upper one."""
    out = []
    for (a, b), eb in zip(edges, bends):
        lo, hi = (a, b) if heights[a] < heights[b] else (b, a)
        out.append([(xs[lo], heights[lo]), *eb, (xs[hi], heights[hi])])
    return out


def _orient(a, b, c) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _within(p, a, b) -> bool:
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def count_crossings(heights, xs, edges, bends) -> int:
    """Number of transversal crossings between distinct edges; raises Degenerate."""
    polys = polylines(heights, xs, edges, bends)
    den_x = lcm(*(p[0].denominator for poly in polys for p in poly), 1)
    den_y = lcm(*(p[1].denominator for poly in polys for p in poly), 1)

    def scale(p):
        return (int(p[0] * den_x), int(p[1] * den_y))

    vertex_pt = {v: scale((Fraction(xs[v]), Fraction(heights[v]))) for v in heights}
    segs = []
    for ei, poly in enumerate(polys):
        pts = [scale(p) for p in poly]
        segs.extend((a, b, ei) for a, b in zip(pts, pts[1:]))
    segs.sort(key=lambda s: s[0][1])

    for a, b, ei in segs:
        for v, p in vertex_pt.items():
            if v not in edges[ei] and _within(p, a, b) and _orient(a, b, p) == 0:
                raise Degenerate(f"edge {ei} passes through vertex {v!r}")

    ends = [set(e) for e in edges]
    crossings = 0
    seen: dict[tuple[Fraction, Fraction], int] = {}
    for i, (a, b, ei) in enumerate(segs):
        for c, d, ej in segs[i + 1:]:
            if c[1] > b[1]:
                break
            if ei == ej:
                continue
            if max(a[0], b[0]) < min(c[0], d[0]) or max(c[0], d[0]) < min(a[0], b[0]):
                continue
            o1, o2, o3, o4 = _orient(a, b, c), _orient(a, b, d), _orient(c, d, a), _orient(c, d, b)
            if o1 * o2 < 0 and o3 * o4 < 0:
                # Witness point, to detect three segments through one point.
                r = (b[0] - a[0], b[1] - a[1])
                s = (d[0] - c[0], d[1] - c[1])
                t = Fraction((c[0] - a[0]) * s[1] - (c[1] - a[1]) * s[0], r[0] * s[1] - r[1] * s[0])
                pt = (a[0] + t * r[0], a[1] + t * r[1])
                seen[pt] = seen.get(pt, 0) + 1
                if seen[pt] > 1:
                    raise Degenerate(f"three or more segments meet at {pt}")
                crossings += 1
                continue
            contact = [p for p, o, (s0, s1) in ((c, o1, (a, b)), (d, o2, (a, b)), (a, o3, (c, d)), (b, o4, (c, d)))
                       if o == 0 and _within(p, s0, s1)]
            if not contact:
                continue
            shared = {vertex_pt[v] for v in ends[ei] & ends[ej]}
            if any(p not in shared for p in contact):
                raise Degenerate(f"edges {ei} and {ej} touch or overlap")
    return crossings


def strip_lower_bound(heights, edges) -> int:
    """Crossings every drawing must have, from the subdivided leveled graph.

    A crossing-free two-level graph with w_lo and w_hi vertices has at most
    w_lo + w_hi - 1 distinct edges, so each strip pays for any excess.
    """
    rank = {h: i for i, h in enumerate(sorted(set(heights.values())))}
    width = [0] * len(rank)
    for v in heights:
        width[rank[heights[v]]] += 1
    strips: list[set] = [set() for _ in range(max(len(rank) - 1, 0))]
    for i, (a, b) in enumerate(edges):
        if heights[a] > heights[b]:
            a, b = b, a
        lo, hi = rank[heights[a]], rank[heights[b]]
        path = [a] + [("sub", i, k) for k in range(lo + 1, hi)] + [b]
        for k in range(lo + 1, hi):
            width[k] += 1
        for k, (p, q) in enumerate(zip(path, path[1:])):
            strips[lo + k].add((p, q))
    return sum(max(0, len(s) - (width[k] + width[k + 1] - 1)) for k, s in enumerate(strips))


def level_orders(heights, xs) -> list[list[str]]:
    """Left-to-right vertex order on each height, lowest height first."""
    groups: dict[Fraction, list[str]] = {}
    for v, h in heights.items():
        groups.setdefault(h, []).append(v)
    return [sorted(groups[h], key=lambda v: (xs[v], v)) for h in sorted(groups)]
