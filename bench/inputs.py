"""Seeded input generators for the four workloads, as plain JSON objects.

Nothing here imports reebdraw: the inputs must be identical on every commit
the benchmark compares, so they cannot depend on the code under test.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from geom import Degenerate, count_crossings


def _graph_obj(heights, edges) -> dict:
    return {
        "vertices": [{"id": v, "height": str(Fraction(h))} for v, h in heights.items()],
        "edges": [[a, b] for a, b in edges],
    }


def _drawing_obj(heights, xs, edges, bends) -> dict:
    return {
        "graph": _graph_obj(heights, edges),
        "x": {v: str(xs[v]) for v in heights},
        "edges": [
            {"endpoints": [a, b], "bends": [[str(px), str(py)] for px, py in eb]}
            for (a, b), eb in zip(edges, bends)
        ],
    }


# ---------------------------------------------------------------------------
# layout_general: random connected graphs of shape GENERAL
# ---------------------------------------------------------------------------

def subdivided_size(heights, edges) -> int:
    """Vertex count after subdividing level-skipping edges."""
    rank = {h: i for i, h in enumerate(sorted(set(heights.values())))}
    return len(heights) + sum(abs(rank[heights[a]] - rank[heights[b]]) - 1 for a, b in edges)


def general_graph(rng: random.Random) -> tuple[dict, list]:
    """8-12 vertices, a spanning tree plus 1-4 extra edges, integer heights 0-6.

    Extra edges may be parallel.  Graphs whose every degree is 2 (a single
    cycle) are drawn again, so the shape is GENERAL.
    """
    while True:
        n = rng.randint(8, 12)
        ids = [f"v{i}" for i in range(n)]
        hs = [rng.randint(0, 6) for _ in range(n)]
        edges = []
        for i in range(1, n):
            parents = [j for j in range(i) if hs[j] != hs[i]]
            if not parents:
                break
            edges.append((ids[i], ids[rng.choice(parents)]))
        else:
            for _ in range(rng.randint(1, 4)):
                a, b = rng.sample(range(n), 2)
                while hs[a] == hs[b]:
                    a, b = rng.sample(range(n), 2)
                edges.append((ids[a], ids[b]))
            degree = [0] * n
            for a, b in edges:
                degree[int(a[1:])] += 1
                degree[int(b[1:])] += 1
            if any(d != 2 for d in degree):
                return dict(zip(ids, hs)), edges


def layout_cases(rng: random.Random, small: int, large: int) -> list[dict]:
    """General graphs in two fixed classes of subdivided size.

    Small graphs (at most 19 vertices after subdivision) are almost always
    solved by the exact search; large ones (35 to 40) mostly exhaust a
    200000-state budget.  Fixing how many of each a seed gets keeps the
    per-seed mix of solved and budget-bound searches constant.
    """
    picked = {"small": [], "large": []}
    want = {"small": small, "large": large}
    while any(len(picked[k]) < want[k] for k in want):
        heights, edges = general_graph(rng)
        size = subdivided_size(heights, edges)
        kind = "small" if size <= 19 else "large" if 35 <= size <= 40 else None
        if kind and len(picked[kind]) < want[kind]:
            picked[kind].append({"kind": kind, "heights": heights, "edges": edges,
                                 "obj": _graph_obj(heights, edges)})
    cases = picked["small"] + picked["large"]
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# crossings_hexgrid: canonical drawings of triangular hexagon stacks
# ---------------------------------------------------------------------------

def hexgrid_drawing(rows: int, rng: random.Random) -> dict:
    """The canonical crossing-free drawing of a stack of 1..rows hexagons.

    Row r sits at base level 2*(rows - r) with x offset rows - r; each
    hexagon spans four levels and shares side edges with its neighbours.
    Vertex ids are a seeded relabelling, so the geometry (and the work of
    counting it) depends only on ``rows``.
    """
    cells: dict[tuple[int, int], None] = {}
    edges: dict[tuple[tuple[int, int], tuple[int, int]], None] = {}
    for r in range(rows, 0, -1):
        base, off = 2 * (rows - r), rows - r
        for j in range(r):
            cx = off + 2 * j + 1
            bottom, top = (base, cx), (base + 3, cx)
            l1, r1 = (base + 1, cx - 1), (base + 1, cx + 1)
            l2, r2 = (base + 2, cx - 1), (base + 2, cx + 1)
            for c in (bottom, l1, r1, l2, r2, top):
                cells.setdefault(c)
            for a, b in ((bottom, l1), (bottom, r1), (l1, l2), (r1, r2), (l2, top), (r2, top)):
                edges.setdefault((a, b) if a <= b else (b, a))
    labels = rng.sample(range(10 ** 6), len(cells))
    name = {c: f"h{label:06d}" for c, label in zip(cells, labels)}
    heights = {name[c]: Fraction(c[0]) for c in cells}
    xs = {name[c]: Fraction(c[1]) for c in cells}
    pairs = [(name[a], name[b]) for a, b in edges]
    return _drawing_obj(heights, xs, pairs, [() for _ in pairs])


# ---------------------------------------------------------------------------
# stretch_curved: curved crossing-free drawings of paths and caterpillars
# ---------------------------------------------------------------------------

def caterpillar(rng: random.Random, n: int) -> tuple[dict, list, list]:
    """A path (one case in three) or caterpillar on n vertices.

    Returns heights, edges and the column order: each spine vertex is
    followed by its legs, so every edge spanning a column range leaves from
    the vertex at its left end and no two edges can cross.
    """
    if rng.random() < 1 / 3:
        spine_len = n
    else:
        spine_len = rng.randint(max(2, n // 2), n - 1)
    legs = [0] * spine_len
    for _ in range(n - spine_len):
        legs[rng.randrange(spine_len)] += 1
    ids, edges = [], []
    for i, k in enumerate(legs):
        s = f"s{i}"
        if i:
            edges.append((f"s{i - 1}", s))
        ids.append(s)
        for j in range(k):
            leaf = f"l{i}_{j}"
            ids.append(leaf)
            edges.append((s, leaf))
    while True:
        heights = {v: Fraction(rng.randint(0, 40)) for v in ids}
        if all(heights[a] != heights[b] for a, b in edges):
            return heights, edges, ids


def curved_drawing(rng: random.Random, n: int) -> dict:
    """A seeded caterpillar drawn crossing-free with monotone random bends.

    The straight column drawing is redrawn with new heights until it is in
    general position.  Bends then sit on eighths of each edge's height span,
    displaced sideways by up to three steps of a width that halves until the
    benchmark's own exact counter finds no contact.
    """
    while True:
        heights, edges, order = caterpillar(rng, n)
        xs = {v: Fraction(i) for i, v in enumerate(order)}
        try:
            if count_crossings(heights, xs, edges, [() for _ in edges]) == 0:
                break
        except Degenerate:
            continue
    step = Fraction(1, 8)
    while True:
        bends = []
        for a, b in edges:
            lo, hi = (a, b) if heights[a] < heights[b] else (b, a)
            eb = []
            for t8 in sorted(rng.sample(range(1, 8), rng.randint(0, 2))):
                t = Fraction(t8, 8)
                y = heights[lo] + (heights[hi] - heights[lo]) * t
                x = xs[lo] + (xs[hi] - xs[lo]) * t + rng.randint(-3, 3) * step
                eb.append((x, y))
            bends.append(eb)
        try:
            if count_crossings(heights, xs, edges, bends) == 0:
                return _drawing_obj(heights, xs, edges, bends)
        except Degenerate:
            pass
        step /= 2


# ---------------------------------------------------------------------------
# gadget_verify: connected source graphs for the arrangement reduction
# ---------------------------------------------------------------------------

#: Source graph shapes, as edge lists over vertices 0..n-1: the 4-vertex path,
#: cycle and K4, the house (5-cycle plus a chord), and the 5-cycle with both
#: chords from one vertex; 3 to 7 edges.  Random shapes made the median
#: latency swing by a third between seeds.  In this ladder the median
#: operation is K4, whose drawing is the same for every vertex naming.
GADGET_SHAPES: tuple[tuple[int, tuple[tuple[int, int], ...]], ...] = (
    (4, ((0, 1), (1, 2), (2, 3))),
    (4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    (4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3))),
    (5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4))),
    (5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (0, 3))),
)


#: K4 plus a pendant edge, and the vertex orders (the rank of each vertex's
#: name) on which ``gadget verify`` exits 1 with "gadget drawing stayed
#: degenerate under all lane offsets" at the commit that defined the
#: benchmark: 6 of all 120 orders, those that rank the pendant vertex third
#: and its K4 neighbour last.  Each such call tries all 24 lane offsets, 30-50 s
#: on a 2-vCPU VM, so this shape is not in the timed mix.
K4_PENDANT = (5, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)))
K4_PENDANT_DEGENERATE = (
    (0, 1, 3, 4, 2), (0, 3, 1, 4, 2), (1, 0, 3, 4, 2),
    (1, 3, 0, 4, 2), (3, 0, 1, 4, 2), (3, 1, 0, 4, 2),
)


def source_graph(rng: random.Random, shape: int, round_index: int) -> dict:
    """One of GADGET_SHAPES with vertex names drawn from ``rng``.

    Only the sorted order of the names decides the drawing (the arrangement
    solver breaks ties by it), and some orders need a second drawing attempt.
    A random order moved a run's throughput by 10% between seeds, so the
    order is a fixed function of the shape and the round: every seed runs
    the same mix of orders under different names.
    """
    n, _ = GADGET_SHAPES[shape]
    rank = random.Random(f"{shape}/{round_index}").sample(range(n), n)
    return named_graph(rng, GADGET_SHAPES[shape], rank)


def named_graph(rng: random.Random, shape, rank) -> dict:
    """``shape`` with vertex v named by the rank[v]-th smallest of n names drawn from ``rng``."""
    n, pairs = shape
    names = sorted(f"s{k:03d}" for k in rng.sample(range(1000), n))
    name = [names[rank[v]] for v in range(n)]
    return {"vertices": names, "edges": [sorted((name[a], name[b])) for a, b in pairs]}


def arrangement_cost(obj: dict) -> int:
    """Minimum linear-arrangement cost by trying every ordering."""
    ids = obj["vertices"]
    best = None
    for perm in itertools.permutations(range(len(ids))):
        rank = dict(zip(ids, perm))
        cost = sum(abs(rank[a] - rank[b]) for a, b in obj["edges"])
        best = cost if best is None else min(best, cost)
    return best
