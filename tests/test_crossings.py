from __future__ import annotations

import bisect
import contextlib
import gc
import importlib
import inspect
import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reebdraw import geometry
from reebdraw import (
    BudgetExhaustedError,
    DegeneracyError,
    Drawing,
    GraphStructureError,
    InternalInvariantError,
    LayoutError,
    LevelOrdering,
    OlaGraph,
    ReebError,
    ReebGraph,
    count_crossings_geometric,
    count_crossings_layered,
    exact_rgcn,
    layout_auto,
    layout_caterpillar,
    levels,
    ola_brute,
    ola_reduce,
    realize_layered,
    subdivide,
    tri_hex_grid,
)
from reebdraw.crossings import (
    ExactResult,
    _level_entry,
    _pair_crossings,
    _parity_tables,
    _search_tables,
    _strip_inversions,
    _warm_start,
    barycenter_ordering,
)
from reebdraw.gadget import arrangement_to_drawing
from reebdraw.jsonio import parse_graph
from reebdraw.subdivide import LeveledView, _level_passes, _leveled

from helpers import (
    _orient,
    _parity_system,
    _reference_barycenter_ordering,
    _reference_line_intersection,
    _reference_scaled_polylines,
    _strip_edges,
    alternating_cycle,
    brute_strip_crossings,
    counted_geometric_calls,
    counted_level_calls,
    counted_warm_starts,
    curved_copy,
    deep_general_graph,
    distinct_height_path,
    enumerate_min_crossings,
    point,
    polyline,
    random_caterpillar_graph,
    random_connected_graph,
    random_cycle_graph,
    random_ordering,
    random_path_graph,
    recursive_exact_rgcn,
    reference_count_crossings_geometric,
    reference_exact_rgcn,
    reference_realize_layered,
    reference_warm_start,
)
from test_cli import FIVE_CHORDS_SOURCE

FIXTURES = Path(__file__).parent / "fixtures"


def x_graph():
    return ReebGraph.build({"a": 0, "b": 0, "c": 1, "d": 1}, [("a", "d"), ("b", "c")])


class TestGeometricCounter:
    def test_two_inverted_edges_cross_once(self):
        d = Drawing(graph=x_graph(),
                    x={"a": Fraction(0), "b": Fraction(1), "c": Fraction(0), "d": Fraction(1)})
        cert = count_crossings_geometric(d)
        assert cert.count == 1
        assert cert.pairs[0].edges == (0, 1)
        assert cert.pairs[0].point == (Fraction(1, 2), Fraction(1, 2))

    def test_same_order_no_crossing(self):
        d = Drawing(graph=x_graph(),
                    x={"a": Fraction(1), "b": Fraction(0), "c": Fraction(0), "d": Fraction(1)})
        assert count_crossings_geometric(d).count == 0

    def test_path_layout_has_none(self):
        from reebdraw import layout_path

        rng = random.Random(0)
        d = layout_path(random_path_graph(8, rng))
        assert count_crossings_geometric(d).count == 0

    def test_bowtie_six_cycle_has_two(self):
        from reebdraw import layout_bowtie

        d = layout_bowtie(alternating_cycle(6))
        assert count_crossings_geometric(d).count == 2
        assert enumerate_min_crossings(alternating_cycle(6)) == 2

    def test_pair_crossing_twice_counts_twice(self):
        g = ReebGraph.build({"a": 0, "b": 3, "c": 0, "d": 3}, [("a", "b"), ("c", "d")])
        d = Drawing(
            graph=g,
            x={"a": Fraction(0), "b": Fraction(0), "c": Fraction(1), "d": Fraction(1)},
            bends=(((Fraction(2), Fraction(1)), (Fraction(2), Fraction(2))), ()),
        )
        assert count_crossings_geometric(d).count == 2

    def test_shared_endpoint_not_a_crossing(self):
        g = ReebGraph.build({"a": 0, "b": 1, "c": 1}, [("a", "b"), ("a", "c")])
        d = Drawing(graph=g, x={"a": Fraction(0), "b": Fraction(-1), "c": Fraction(1)})
        assert count_crossings_geometric(d).count == 0

    def test_overlapping_collinear_segments_degenerate(self):
        g = ReebGraph.build({"a": 0, "b": 2, "c": 1, "d": 3}, [("a", "b"), ("c", "d")])
        # c-d lies on the same line as a-b, shifted along it: overlap of positive length
        d = Drawing(graph=g, x={"a": Fraction(0), "b": Fraction(2), "c": Fraction(1), "d": Fraction(3)})
        with pytest.raises(DegeneracyError):
            count_crossings_geometric(d)

    def test_polyline_through_foreign_vertex_degenerate(self):
        g = ReebGraph.build({"a": 0, "b": 2, "v": 1, "w": 2}, [("a", "b"), ("v", "w")])
        d = Drawing(
            graph=g,
            x={"a": Fraction(0), "b": Fraction(2), "v": Fraction(1), "w": Fraction(5)},
        )
        # the straight edge a-b passes through v at (1, 1)
        with pytest.raises(DegeneracyError):
            count_crossings_geometric(d)

    def test_touch_at_bend_degenerate(self):
        g = ReebGraph.build({"a": 0, "b": 2, "c": 0, "d": 2}, [("a", "b"), ("c", "d")])
        d = Drawing(
            graph=g,
            x={"a": Fraction(0), "b": Fraction(0), "c": Fraction(-1), "d": Fraction(1)},
            bends=(((Fraction(0), Fraction(1)),), ()),
        )
        # c-d passes exactly through a-b's bend at (0, 1)
        with pytest.raises(DegeneracyError):
            count_crossings_geometric(d)

    def test_concurrent_triple_point_degenerate(self):
        g = ReebGraph.build(
            {"a": 0, "b": 2, "c": 0, "d": 2, "e": 0, "f": 2},
            [("a", "b"), ("c", "d"), ("e", "f")],
        )
        d = Drawing(
            graph=g,
            x={"a": Fraction(0), "b": Fraction(2), "c": Fraction(2), "d": Fraction(0),
               "e": Fraction(1), "f": Fraction(1)},
        )
        with pytest.raises(DegeneracyError):
            count_crossings_geometric(d)

    def test_level_pairs_need_no_geometric_test(self, monkeypatch):
        # Every edge of a hexagon grid joins consecutive heights with no bend,
        # so the strip orders settle every pair of its segments.
        d = tri_hex_grid(30).drawing
        bent = _bent(tri_hex_grid(3).drawing, random.Random(5), Fraction(1, 1000))
        calls = []
        for name in ("orient", "on_segment", "classify_segments", "crossing_point"):
            fn = getattr(geometry, name)
            monkeypatch.setattr(geometry, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
        assert count_crossings_geometric(d).count == 0
        assert calls == []
        _outcome(count_crossings_geometric, bent)  # bent edges: the patched tests do run
        assert "orient" in calls

    def test_sweep_visits_only_what_strip_orders_leave_open(self, monkeypatch):
        # Work guard on the five-chords gadget drawing: 1,680 segments, 1,225
        # of them level, 152 crossings.  The sweep visits the keys of its
        # candidate map, the 46 level and 406 non-level segments with a later
        # partner, and tests 322 pairs with ``classify_segments``.  Visiting
        # every segment with a closed y-window took 1,392 classifier and
        # 7,086 ``orient`` calls.
        import reebdraw.crossings

        source = OlaGraph(tuple(FIVE_CHORDS_SOURCE["vertices"]), tuple(map(tuple, FIVE_CHORDS_SOURCE["edges"])))
        best = ola_brute(source)
        d, cert = arrangement_to_drawing(ola_reduce(source, best.cost), best)
        calls = []
        for name in ("orient", "classify_segments"):
            fn = getattr(geometry, name)
            monkeypatch.setattr(geometry, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
        # The map starts as the dict ``_strip_pairs`` returns; the sweep adds
        # the non-level pairs to it and then visits its keys, sweep records
        # whose third field is the edge.
        maps = []
        strip_pairs = reebdraw.crossings._strip_pairs

        def kept_map(strips, segs, polys):
            maps.append((strip_pairs(strips, segs, polys), {e for strip in strips.values() for _, _, e in strip}))
            return maps[-1][0]

        monkeypatch.setattr(reebdraw.crossings, "_strip_pairs", kept_map)
        assert count_crossings_geometric(d) == cert
        (pairs, level), = maps
        visited_level = sum(i[2] in level for i in pairs)
        assert (cert.count, _segments(d), len(level), len(pairs), visited_level) == (152, 1680, 1225, 452, 46)
        assert (calls.count("classify_segments"), calls.count("orient")) == (322, 2804)

    def test_level_edges_build_no_sweep_record(self, monkeypatch):
        # Every edge of the rows-30 hexagon grid is level: all 1,485 go to
        # their strips as (lower x, upper x, edge), none becomes a sweep
        # record, and with no pair to test no level record is built either.
        import reebdraw.crossings

        d = tri_hex_grid(30).drawing
        records, seen = [], []
        record, strip_pairs = reebdraw.crossings._record, reebdraw.crossings._strip_pairs
        monkeypatch.setattr(reebdraw.crossings, "_record", lambda *args: records.append(args) or record(*args))
        monkeypatch.setattr(reebdraw.crossings, "_strip_pairs",
                            lambda strips, segs, polys: seen.append((strips, list(segs))) or strip_pairs(strips, segs, polys))
        assert count_crossings_geometric(d).count == 0
        (strips, segs), = seen
        assert (len(d.graph.edges), sum(map(len, strips.values())), len(segs), len(records)) == (1485, 1485, 0, 0)

    def test_crossing_point_is_the_intersection_in_lowest_terms(self):
        rng = random.Random(83)
        seen = 0
        while seen < 300:
            a, b, c, e = ((rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(4))
            kind, p = geometry.classify_segments(a, b, c, e)
            if kind != geometry.PROPER:
                continue
            seen += 1
            assert p is None
            xn, yn, den = geometry.crossing_point(a, b, c, e)
            assert den > 0 and math.gcd(xn, yn, den) == 1
            assert (Fraction(xn, den), Fraction(yn, den)) == _reference_line_intersection(a, b, c, e)

    def test_contact_without_a_crossing(self):
        # Collinear but disjoint; and an end of the first segment inside the second.
        assert geometry.classify_segments((0, 0), (1, 1), (2, 2), (3, 3)) == (geometry.NONE, None)
        assert geometry.classify_segments((1, 1), (2, 0), (0, 0), (2, 2)) == (geometry.TOUCH, (1, 1))

    def test_certificate_count_matches_pairs(self):
        rng = random.Random(2)
        for _ in range(20):
            g2, _ = subdivide(random_connected_graph(rng.randint(2, 7), rng))
            cert = count_crossings_geometric(realize_layered(g2, random_ordering(g2, rng)))
            assert cert.count == len(cert.pairs)


def _outcome(counter, d):
    """A counter's certificate, or the class, code and message of its refusal."""
    try:
        return counter(d)
    except ReebError as exc:
        return (type(exc), exc.code, str(exc))


# Coordinates on a coarse half-integer grid, so that shared heights, vertices
# on edges, bends on other edges and concurrent triples come up often.
_HALF = st.integers(min_value=-4, max_value=4).map(lambda k: Fraction(k, 2))


@st.composite
def coarse_drawings(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    names = [f"v{i}" for i in range(n)]
    heights = {v: Fraction(draw(st.integers(min_value=0, max_value=6)), 2) for v in names}
    pairs = [(a, b) for a in names for b in names if a < b and heights[a] != heights[b]]
    assume(pairs)
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=7))
    # Every vertex is an edge endpoint: the reference counter truncates the
    # coordinates of isolated vertices (see test_isolated_vertex_on_edge).
    used = {v for e in edges for v in e}
    g = ReebGraph.build({v: h for v, h in heights.items() if v in used}, edges)
    xs = {v: draw(_HALF) for v in g.vertices}
    bends = []
    for i in range(len(g.edges)):
        lo, hi = g.lower_upper(i)
        inner = [Fraction(k, 4) for k in range(int(4 * g.vertices[lo]) + 1, int(4 * g.vertices[hi]))]
        ys = sorted(draw(st.lists(st.sampled_from(inner), max_size=2, unique=True))) if inner else []
        bends.append(tuple((draw(_HALF), y) for y in ys))
    try:
        return Drawing(graph=g, x=xs, bends=tuple(bends))
    except ReebError:
        assume(False)


@st.composite
def grids_with_bent_edges(draw):
    """A hexagon grid's level edges plus 1-3 bent edges on the coarse grid
    around it, each end a grid vertex or a new one, with one or two bends at
    quarter heights: bends on level edges, at strip bounds, on vertices and
    on each other come up often."""
    base = tri_hex_grid(draw(st.integers(min_value=2, max_value=4))).drawing
    heights, xs = dict(base.graph.vertices), dict(base.x)
    top, right = int(max(heights.values())), int(max(xs.values()))
    coarse_x = st.integers(min_value=-2, max_value=2 * right + 2).map(lambda k: Fraction(k, 2))
    edges, bends = list(base.graph.edges), list(base.bends)
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        ends = []
        for side in "lu":
            if draw(st.booleans()):
                ends.append(draw(st.sampled_from(sorted(base.graph.vertices))))
            else:
                v = f"{side}{i}"
                heights[v] = Fraction(draw(st.integers(min_value=-2, max_value=2 * top + 2)), 2)
                xs[v] = draw(coarse_x)
                ends.append(v)
        lo, hi = sorted(heights[v] for v in ends)
        inner = [Fraction(k, 4) for k in range(int(4 * lo) + 1, int(4 * hi))]
        assume(inner)
        ys = sorted(draw(st.lists(st.sampled_from(inner), min_size=1, max_size=2, unique=True)))
        edges.append(tuple(ends))
        bends.append(tuple((draw(coarse_x), y) for y in ys))
    try:
        return Drawing(graph=ReebGraph(heights, tuple(edges)), x=xs, bends=tuple(bends))
    except ReebError:
        assume(False)


@st.composite
def level_strips_with_free_edges(draw):
    """Level edges between integer heights 0..top, some strips left empty,
    plus 1-3 non-level edges for the counter's strip lookup.  A non-level
    edge ends at a level vertex (sharing that end with level segments) or at
    a new vertex on an integer height, one below or above the levels too;
    it bends at quarter heights, so its segments start at a strip's bottom,
    end at its top, bend at a vertex height, span several strips or none,
    and, when drawn vertical, keep its lower end's x."""
    top = draw(st.integers(min_value=2, max_value=5))
    coarse_x = st.integers(min_value=-2, max_value=12).map(lambda k: Fraction(k, 2))
    heights, xs, rows = {}, {}, []
    for h in range(top + 1):
        rows.append([f"h{h}_{k}" for k in range(draw(st.integers(min_value=1, max_value=3)))])
        for v, x in zip(rows[-1], draw(st.lists(coarse_x, min_size=len(rows[-1]), max_size=3, unique=True))):
            heights[v], xs[v] = Fraction(h), x
    edges = []
    for below, above in itertools.pairwise(rows):
        strip = [(a, b) for a in below for b in above]
        edges += draw(st.lists(st.sampled_from(strip), max_size=3, unique=True))
    bends = [() for _ in edges]
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        h_lo = draw(st.integers(min_value=-1, max_value=top))
        ends = []
        for side, h in zip("lu", (h_lo, draw(st.integers(min_value=h_lo + 1, max_value=top + 1)))):
            if 0 <= h <= top and draw(st.booleans()):
                ends.append(draw(st.sampled_from(rows[h])))
            else:
                v = f"{side}{i}"
                heights[v], xs[v] = Fraction(h), draw(coarse_x)
                ends.append(v)
        lo, hi = ends
        inner = [Fraction(k, 4) for k in range(int(4 * heights[lo]) + 1, int(4 * heights[hi]))]
        ys = sorted(draw(st.lists(st.sampled_from(inner), max_size=3, unique=True))) if inner else []
        vertical = draw(st.booleans())
        if vertical and not hi.startswith("h"):
            xs[hi] = xs[lo]
        edges.append((lo, hi))
        bends.append(tuple((xs[lo] if vertical else draw(coarse_x), y) for y in ys))
    used = {v for e in edges for v in e}
    try:
        graph = ReebGraph({v: h for v, h in heights.items() if v in used}, tuple(edges))
        return Drawing(graph=graph, x={v: xs[v] for v in graph.vertices}, bends=tuple(bends))
    except ReebError:
        assume(False)


@st.composite
def strips_with_bends_at_vertex_heights(draw):
    """Level edges between integer heights 0..top, parallel copies allowed,
    plus 2-4 bent edges whose first bend sits at the next vertex height, so
    that their first segments share a strip's lower and upper y with its
    level segments; the edges come in a drawn order.  A bent edge starts at a
    level vertex.  Its first bend is drawn, or planted on an earlier bent
    edge's first bend (an overlap from one vertex, a touch otherwise); its
    later bends, at quarter heights, are drawn or planted on a level edge (a
    touch, an overlap when two land on one).  So one strip often holds
    several refusals among both kinds, and the sweep order picks the first."""
    top = draw(st.integers(min_value=2, max_value=4))
    coarse_x = st.integers(min_value=-2, max_value=10).map(lambda k: Fraction(k, 2))
    heights, xs, rows = {}, {}, []
    for h in range(top + 1):
        rows.append([f"h{h}_{k}" for k in range(draw(st.integers(min_value=1, max_value=3)))])
        for v, x in zip(rows[-1], draw(st.lists(coarse_x, min_size=len(rows[-1]), max_size=3, unique=True))):
            heights[v], xs[v] = Fraction(h), x
    level = []
    for below, above in itertools.pairwise(rows):
        level += draw(st.lists(st.sampled_from([(a, b) for a in below for b in above]), max_size=4))
    edges, bends, firsts = list(level), [() for _ in level], []
    for i in range(draw(st.integers(min_value=2, max_value=4))):
        h = draw(st.integers(min_value=0, max_value=top - 1))
        h_hi = draw(st.integers(min_value=h + 2, max_value=top + 1))
        lo = draw(st.sampled_from(rows[h]))
        if h_hi <= top and draw(st.booleans()):
            hi = draw(st.sampled_from(rows[h_hi]))
        else:
            hi = f"u{i}"
            heights[hi], xs[hi] = Fraction(h_hi), draw(coarse_x)
        same = [(x, y) for x, y in firsts if y == h + 1]
        firsts.append(draw(st.sampled_from(same)) if same and draw(st.booleans()) else (draw(coarse_x), Fraction(h + 1)))
        later = []
        for y in sorted(draw(st.lists(st.sampled_from([Fraction(k, 4) for k in range(4 * h + 5, 4 * h_hi) if k % 4]),
                                      max_size=2, unique=True))):
            on = [(a, b) for a, b in level if heights[a] < y < heights[b]]
            if on and draw(st.booleans()):
                a, b = draw(st.sampled_from(on))
                later.append((xs[a] + (y - heights[a]) * (xs[b] - xs[a]), y))
            else:
                later.append((draw(coarse_x), y))
        edges.append((lo, hi))
        bends.append((firsts[-1], *later))
    order = draw(st.permutations(range(len(edges))))
    used = {v for e in edges for v in e}
    try:
        graph = ReebGraph({v: h for v, h in heights.items() if v in used}, tuple(edges[k] for k in order))
        return Drawing(graph=graph, x={v: xs[v] for v in graph.vertices}, bends=tuple(bends[k] for k in order))
    except ReebError:
        assume(False)


class TestGeometricCounterOracle:
    @settings(max_examples=400, deadline=None)
    @given(coarse_drawings())
    def test_matches_reference_counter(self, d):
        assert _outcome(count_crossings_geometric, d) == _outcome(reference_count_crossings_geometric, d)

    @settings(max_examples=300, deadline=None)
    @given(grids_with_bent_edges())
    def test_matches_reference_counter_on_grids_with_bent_edges(self, d):
        assert _outcome(count_crossings_geometric, d) == _outcome(reference_count_crossings_geometric, d)

    @settings(max_examples=300, deadline=None)
    @given(level_strips_with_free_edges())
    def test_strip_lookup_matches_reference_counter(self, d):
        assert _outcome(count_crossings_geometric, d) == _outcome(reference_count_crossings_geometric, d)

    @settings(max_examples=300, deadline=None)
    @given(strips_with_bends_at_vertex_heights())
    def test_first_refusal_among_level_and_bent_segments_of_one_strip(self, d):
        assert _outcome(count_crossings_geometric, d) == _outcome(reference_count_crossings_geometric, d)

    def test_matches_reference_on_realized_orderings(self):
        rng = random.Random(41)
        for _ in range(20):
            g2, _ = subdivide(random_connected_graph(rng.randint(2, 8), rng))
            d = realize_layered(g2, random_ordering(g2, rng))
            assert count_crossings_geometric(d) == reference_count_crossings_geometric(d)


def _bent(d: Drawing, rng: random.Random, step: Fraction) -> Drawing:
    """A copy of ``d`` with up to two bends per edge, at eighths of the edge's
    height, moved off the straight line by multiples of ``step``: a coarse
    step makes shared points, collinear pieces and concurrent triples likely."""
    bends = []
    for i in range(len(d.graph.edges)):
        (x0, y0), (x1, y1) = (point(d, v) for v in d.graph.lower_upper(i))
        bends.append(tuple(
            (x0 + (x1 - x0) * Fraction(t, 8) + rng.randint(-2, 2) * step, y0 + (y1 - y0) * Fraction(t, 8))
            for t in sorted(rng.sample(range(1, 8), rng.randint(0, 2)))
        ))
    return Drawing(graph=d.graph, x=d.x, bends=tuple(bends))


def _segments(d: Drawing) -> int:
    return sum(len(eb) + 1 for eb in d.bends)


def _with_piece(base: Drawing, points: dict, edges: list, bends: list) -> tuple[Drawing, list[int]]:
    """``base`` plus a piece right of it: new vertices at ``points`` (x, y),
    x offset past the base, and new edges with their bends (same offset);
    returns the drawing and the new edges' indices."""
    dx = max(base.x.values()) + 5
    g = ReebGraph({**base.graph.vertices, **{v: Fraction(y) for v, (_, y) in points.items()}},
                  base.graph.edges + tuple(edges))
    xs = {**base.x, **{v: dx + x for v, (x, _) in points.items()}}
    moved = tuple(tuple((dx + x, Fraction(y)) for x, y in eb) for eb in bends)
    first = len(base.graph.edges)
    return Drawing(graph=g, x=xs, bends=base.bends + moved), list(range(first, first + len(edges)))


class TestCounterOracleAtScale:
    """Hundreds of segments across many x-slabs, against the reference counter."""

    def assert_matches(self, d):
        got = _outcome(count_crossings_geometric, d)
        assert got == _outcome(reference_count_crossings_geometric, d)
        return got

    P3 = OlaGraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    TRIANGLE = OlaGraph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))
    # K4 plus a pendant edge, named so that its drawing needs the second attempt.
    K4_PENDANT = OlaGraph(tuple("abcde"), (("a", "b"), ("a", "d"), ("a", "e"), ("b", "d"),
                                           ("b", "e"), ("d", "e"), ("e", "c")))

    @staticmethod
    def gadget_drawing(source):
        best = ola_brute(source)
        return arrangement_to_drawing(ola_reduce(source, best.cost), best)

    @pytest.mark.parametrize("source", [P3, TRIANGLE, K4_PENDANT], ids=["P3", "triangle", "K4-pendant"])
    def test_gadget_drawings(self, source):
        d, cert = self.gadget_drawing(source)
        assert _segments(d) >= 100
        assert self.assert_matches(Drawing(graph=d.graph, x=d.x, bends=d.bends)) == cert

    @pytest.mark.parametrize("source", [P3, TRIANGLE], ids=["P3", "triangle"])
    def test_bent_gadget_drawings(self, source):
        d, _ = self.gadget_drawing(source)
        rng = random.Random(len(source.edges))
        for step in (Fraction(1, 2), Fraction(1, 1000)):
            self.assert_matches(_bent(d, rng, step))

    def test_hexgrids(self):
        rng = random.Random(67)
        outcomes = []
        for rows in range(1, 9):
            d = tri_hex_grid(rows).drawing
            assert self.assert_matches(d).count == 0
            self.assert_matches(curved_copy(d, rng))
            for step in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 97)):
                outcomes.append(self.assert_matches(_bent(d, rng, step)))
        assert any(isinstance(o, tuple) for o in outcomes)  # some refusals
        assert any(not isinstance(o, tuple) and o.count for o in outcomes)  # some crossings

    def test_realized_orderings(self):
        rng = random.Random(71)
        sizes = []
        for _ in range(6):
            g2, _ = subdivide(random_connected_graph(rng.randint(12, 24), rng, extra=rng.randint(3, 12)))
            d = realize_layered(g2, random_ordering(g2, rng))
            sizes.append(_segments(d))
            self.assert_matches(d)
            for step in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 1024)):
                self.assert_matches(_bent(d, rng, step))
        assert max(sizes) >= 100

    @staticmethod
    def level_copy(d: Drawing, rng: random.Random, step: Fraction) -> Drawing:
        """``d`` with no bends and each vertex moved in x only, by a multiple
        of ``step`` (mostly -2 to 2) that keeps it apart from the vertices
        already moved at its height: a coarse step makes inverted, parallel and
        concurrent level edges likely."""
        taken, xs = set(), {}
        for v, x in d.x.items():
            k, way = rng.randint(-2, 2), rng.choice((-1, 1))
            while (x + k * step, d.graph.vertices[v]) in taken:
                k += way
            xs[v] = x + k * step
            taken.add((xs[v], d.graph.vertices[v]))
        return Drawing(graph=d.graph, x=xs)

    def test_all_level_drawings(self):
        rng = random.Random(79)
        outcomes = []
        for rows in range(2, 9):
            d = tri_hex_grid(rows).drawing
            for step in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
                outcomes.append(self.level_copy(d, rng, step))
            # Runs of 2, 3 and 4 identical level edges.
            for copies in ((0,), (0, 0), (0, 0, 3, 3, 3)):
                runs = ReebGraph(d.graph.vertices, d.graph.edges + tuple(d.graph.edges[k] for k in copies))
                outcomes.append(self.level_copy(Drawing(graph=runs, x=d.x), rng, Fraction(1, 2)))
        for _ in range(8):
            # Vertices at their integer positions in a random ordering.
            g2, _ = subdivide(random_connected_graph(rng.randint(6, 16), rng, extra=rng.randint(2, 8)))
            d = Drawing(graph=g2, x={v: Fraction(i) for v, i in random_ordering(g2, rng).positions().items()})
            outcomes.append(d)
            for step in (Fraction(1, 2), Fraction(1, 97)):
                outcomes.append(self.level_copy(d, rng, step))
        for d in outcomes:
            assert not any(d.bends) and not any(_level_passes(d)[1])  # every edge is level
        outcomes = [self.assert_matches(d) for d in outcomes]
        refusals = [o[2] for o in outcomes if isinstance(o, tuple)]
        assert any(not isinstance(o, tuple) and o.count for o in outcomes)  # level edges cross
        assert any("overlapping collinear" in m for m in refusals)  # parallel edges
        assert any(m.startswith("three or more segments concurrent") for m in refusals)

    def test_bent_edge_through_a_level_crossing(self):
        # a-b and c-d are level and cross at (1, 1/2); p-q bends at (1, 3/2),
        # so its lower segment, x = 1, passes that point too.
        d, _ = _with_piece(tri_hex_grid(8).drawing,
                           {"a": (0, 0), "b": (2, 1), "c": (2, 0), "d": (0, 1), "p": (1, 0), "q": (2, 2)},
                           [("a", "b"), ("c", "d"), ("p", "q")], [(), (), ((1, Fraction(3, 2)),)])
        got = self.assert_matches(d)
        assert got[2].startswith("three or more segments concurrent at")

    # Level edges between heights 0 and 1 (and one bent edge) to the right of
    # a hexagon grid: runs of identical edges, a fan of shared ends and
    # inverted pairs through one point; ``{k}`` is the piece's k-th edge.
    LEVEL_STRIPS = {
        "run-of-3": ({"u": (0, 0), "w": (1, 1)}, ["uw"] * 3, "edges {0} and {1} contain overlapping"),
        "run-of-4-after-its-crossing": ({"a": (0, 0), "b": (2, 1), "c": (2, 0), "d": (0, 1)},
                                        ["cd"] + ["ab"] * 4, "three or more segments concurrent at"),
        "run-of-4-before-its-crossing": ({"a": (0, 0), "b": (2, 1), "c": (2, 0), "d": (0, 1)},
                                         ["ab"] * 4 + ["cd"], "edges {0} and {1} contain overlapping"),
        "two-runs-crossing": ({"a": (0, 0), "b": (2, 1), "c": (2, 0), "d": (0, 1)},
                              ["cd", "ab", "cd", "ab", "cd"], "edges {0} and {2} contain overlapping"),
        "fan": ({"u": (0, 0), "t": (1, 0), "x": (-1, 1), "y": (0, 1), "z": (1, 1)},
                ["ux", "uy", "uz", "tx"], 2),
        "fan-with-a-run": ({"u": (0, 0), "t": (1, 0), "x": (-1, 1), "y": (0, 1), "z": (1, 1)},
                           ["ux", "tx", "uy", "uz", "uy", "uy"], "three or more segments concurrent at"),
        "bent-through-a-crossed-run": ({"a": (0, 0), "b": (2, 1), "c": (2, 0), "d": (0, 1), "p": (1, 0),
                                        "q": (2, 2)}, ["pq", "ab", "cd", "ab", "ab"],
                                       "edges {1} and {3} contain overlapping"),
    }

    @pytest.mark.parametrize("name", LEVEL_STRIPS)
    def test_degenerate_level_strips(self, name):
        points, edges, expected = self.LEVEL_STRIPS[name]
        # p-q bends at (1, 3/2), above the crossing of a-b and c-d at (1, 1/2).
        bends = [((1, Fraction(3, 2)),) if e == "pq" else () for e in edges]
        d, new = _with_piece(tri_hex_grid(8).drawing, points, [tuple(e) for e in edges], bends)
        got = self.assert_matches(d)
        if isinstance(expected, int):
            assert got.count == expected
        else:
            assert got[2].startswith(expected.format(*new))

    # Level edges a-b and c-d between heights 1 and 2 cross at (1, 3/2); e-f
    # is a vertical level edge at x = 4.  Each case adds bent edges (named by
    # their ends, ``{k}`` is the piece's k-th edge) that meet the strip at a
    # boundary the sweep's half-open y-window and strip pairing rely on.
    STRIP = {"a": (0, 1), "b": (2, 2), "c": (2, 1), "d": (0, 2), "e": (4, 1), "f": (4, 2)}
    BENT_THROUGH_A_STRIP = {
        # p-a's upper segment ends at a, where the level edge a-b starts.
        "ends-at-a-shared-vertex": ({"p": (-2, -1)}, {"pa": ((-1, 0),)}, 1),
        # p-q bends on c, the lower end of c-d.
        "bend-on-a-lower-vertex": ({"p": (3, -1), "q": (3, 4)}, {"pq": ((2, 1),)},
                                   "edge {3} passes through vertex"),
        # p-q bends at the strip's lower height off every vertex, then crosses e-f.
        "bend-at-the-lower-height": ({"p": (5, -1), "q": (2, 3)}, {"pq": ((5, 1),)}, 2),
        # p-q and r-s bend at one point inside the strip, away from the level edges.
        "bends-coincide-in-the-strip": ({"p": (5, 0), "q": (5, 3), "r": (7, 0), "s": (7, 3)},
                                        {"pq": ((6, Fraction(3, 2)),), "rs": ((6, Fraction(3, 2)),)},
                                        "edges {3} and {4} touch at"),
        # ... and at the strip's lower height.
        "bends-coincide-at-the-lower-height": ({"p": (5, 0), "q": (5, 3), "r": (7, 0), "s": (7, 3)},
                                               {"pq": ((6, 1),), "rs": ((6, 1),)}, "edges {3} and {4} touch at"),
        # p-q and p-r leave p along one line to one bend.
        "bends-coincide-after-a-shared-vertex": ({"p": (6, 0), "q": (5, 3), "r": (9, 3)},
                                                 {"pq": ((7, 1),), "pr": ((7, 1),)},
                                                 "edges {3} and {4} contain overlapping"),
        # A segment from height 5/4 to 7/4 crosses e-f.
        "crosses-one": ({"p": (3, 0), "q": (5, 3)}, {"pq": ((3, Fraction(5, 4)), (5, Fraction(7, 4)))}, 2),
        # a-q leaves a along a-b to a bend at height 5/4.  (A segment along a
        # level edge with neither end at a vertex touches it first.)
        "overlaps-one": ({"q": (3, 3)}, {"aq": ((Fraction(1, 2), Fraction(5, 4)),)},
                         "edges {3} and {0} contain overlapping"),
        # A segment from height 5/4 to 7/4 passes the crossing of a-b and c-d.
        "through-a-crossing": ({"p": (-1, 0), "q": (3, 3)}, {"pq": ((0, Fraction(5, 4)), (2, Fraction(7, 4)))},
                               "three or more segments concurrent at"),
    }

    @pytest.mark.parametrize("name", BENT_THROUGH_A_STRIP)
    def test_bent_edges_at_a_level_strip(self, name):
        points, bent, expected = self.BENT_THROUGH_A_STRIP[name]
        edges = [("a", "b"), ("c", "d"), ("e", "f"), *map(tuple, bent)]
        bends = [(), (), (), *bent.values()]
        d, new = _with_piece(tri_hex_grid(8).drawing, {**self.STRIP, **points}, edges, bends)
        got = self.assert_matches(d)
        if isinstance(expected, int):
            assert got.count == expected
        else:
            assert got[2].startswith(expected.format(*new))

    def test_bend_on_a_level_edge(self):
        # r-s bends at (1, 1/2), inside the level edge a-b.
        d, (ab, rs) = _with_piece(tri_hex_grid(8).drawing, {"a": (0, 0), "b": (2, 1), "r": (4, 0), "s": (5, 2)},
                                  [("a", "b"), ("r", "s")], [(), ((1, Fraction(1, 2)),)])
        got = self.assert_matches(d)
        assert got[2].startswith(f"edges {rs} and {ab} touch at")

    def test_collinear_continuation_out_of_a_shared_vertex(self):
        # v-a runs up at slope 1; v-b leaves v along it to a bend at (1, 1).
        # The shorter piece comes first in the sweep, so its edge is named first.
        d, (va, vb) = _with_piece(tri_hex_grid(8).drawing, {"v": (0, 0), "a": (4, 4), "b": (1, 3)},
                                  [("v", "a"), ("v", "b")], [(), ((1, 1),)])
        assert self.assert_matches(d) == (
            DegeneracyError, "degenerate", f"edges {vb} and {va} contain overlapping collinear segments")

    def test_two_edges_sharing_a_bend_point(self):
        # p-q and r-s both bend at (10, 2): they touch there, away from any vertex.
        base = tri_hex_grid(8).drawing
        d, (pq, rs) = _with_piece(base, {"p": (8, 0), "q": (8, 4), "r": (12, 1), "s": (12, 3)},
                                  [("p", "q"), ("r", "s")], [((10, 2),), ((10, 2),)])
        x = max(base.x.values()) + 15
        assert self.assert_matches(d) == (
            DegeneracyError, "degenerate",
            f"edges {pq} and {rs} touch at ({x}, 2) without crossing transversally")

    @pytest.mark.parametrize("points", [
        {"u": (0, 0), "v": (1, 2), "w": (2, 4)},
        {"u": (0, 0), "v": (0, 2), "w": (0, 4)},
        {"u": (0, 0), "v": (1, 2), "w": (3, 4)},
    ], ids=["collinear", "vertical", "bent"])
    def test_edge_ending_where_another_starts(self, points):
        # u-v ends at v, where v-w starts: they touch at their shared vertex only.
        d, _ = _with_piece(tri_hex_grid(8).drawing, points, [("u", "v"), ("v", "w")], [(), ()])
        assert self.assert_matches(d).count == 0

    def test_parallel_edges(self):
        base = tri_hex_grid(8).drawing
        d, (e0, e1) = _with_piece(base, {"u": (0, 0), "w": (1, 3)}, [("u", "w"), ("u", "w")], [(), ()])
        assert self.assert_matches(d) == (
            DegeneracyError, "degenerate", f"edges {e0} and {e1} contain overlapping collinear segments")
        d, _ = _with_piece(base, {"u": (0, 0), "w": (1, 3)}, [("u", "w"), ("u", "w")], [(), ((2, 1),)])
        assert self.assert_matches(d).count == 0


class TestDrawingRefusals:
    """Each check of ``Drawing`` keeps its class, code and message."""

    GRAPH = ReebGraph.build({"a": 0, "b": 1, "c": 2, "d": 1, "e": 1}, [("a", "b"), ("b", "c")])
    X = {"a": Fraction(0), "b": Fraction(2, 3), "c": Fraction(1), "d": Fraction(-1), "e": Fraction(5)}

    def refusal(self, **kwargs):
        with pytest.raises(ReebError) as exc:
            Drawing(graph=self.GRAPH, **{"x": self.X, **kwargs})
        return type(exc.value), exc.value.code, str(exc.value)

    def test_missing_x(self):
        xs = {v: x for v, x in self.X.items() if v not in "bd"}
        assert self.refusal(x=xs) == (GraphStructureError, "missing-x", "missing x coordinate for vertex 'b'")

    def test_unknown_vertex(self):
        xs = {**self.X, "z": Fraction(3), "y": Fraction(4)}
        assert self.refusal(x=xs) == (GraphStructureError, "unknown-vertex", "x coordinate for unknown vertex 'z'")

    def test_edge_mismatch(self):
        assert self.refusal(bends=((),)) == (
            GraphStructureError, "edge-mismatch", "bend list length 1 does not match edge count 2")

    @pytest.mark.parametrize("bends,y", [
        (((), ((Fraction(1), Fraction(3)),)), "3"),
        (((), ((Fraction(1), Fraction(3, 2)), (Fraction(1), Fraction(5, 4)))), "5/4"),
        ((((0, "1/2"),), ((1, 1),)), "1"),
    ], ids=["above", "not-increasing", "at-endpoint"])
    def test_bad_bend(self, bends, y):
        assert self.refusal(bends=bends) == (
            GraphStructureError, "bad-bend", f"bend of edge 1 at y={y} breaks strict y-monotonicity")

    def test_coincident_vertices(self):
        # d and e both sit on b; d comes first in graph order.
        xs = {**self.X, "d": Fraction(2, 3), "e": Fraction(4, 6)}
        assert self.refusal(x=xs) == (
            DegeneracyError, "degenerate", "vertices 'b' and 'd' coincide at (Fraction(2, 3), Fraction(1, 1))")

    TINY = Fraction(1, 10**40)

    @pytest.mark.parametrize("ys,y", [
        ((Fraction(3, 2), Fraction(3, 2) - TINY), Fraction(3, 2) - TINY),
        ((1 - TINY,), 1 - TINY),
        ((Fraction(3, 2), Fraction(2)), Fraction(2)),
        ((2 - TINY, Fraction(2)), Fraction(2)),
    ], ids=["just-below-the-previous-bend", "just-below-the-lower-end", "at-the-upper-end",
            "at-the-upper-end-after-a-close-bend"])
    def test_bad_bend_by_a_hair(self, ys, y):
        bends = ((), tuple((Fraction(1), py) for py in ys))
        assert self.refusal(bends=bends) == (
            GraphStructureError, "bad-bend", f"bend of edge 1 at y={y} breaks strict y-monotonicity")

    def test_bends_a_hair_inside_are_accepted(self):
        ys = (1 + self.TINY, Fraction(3, 2), Fraction(3, 2) + self.TINY, 2 - self.TINY)
        d = Drawing(graph=self.GRAPH, x=self.X, bends=((), tuple((Fraction(1), py) for py in ys)))
        assert [py for _, py in d.bends[1]] == list(ys)

    def test_bad_bend_is_reported_before_coincident_vertices(self):
        xs = {**self.X, "d": Fraction(2, 3), "e": Fraction(4, 6)}
        bends = ((), ((Fraction(1), Fraction(3, 2)), (Fraction(1), Fraction(3, 2) - self.TINY)))
        assert self.refusal(x=xs, bends=bends) == (
            GraphStructureError, "bad-bend",
            f"bend of edge 1 at y={Fraction(3, 2) - self.TINY} breaks strict y-monotonicity")

    def test_vertices_a_hair_apart_do_not_coincide(self):
        xs = {**self.X, "d": Fraction(2, 3) + self.TINY, "e": Fraction(2, 3) - self.TINY}
        assert Drawing(graph=self.GRAPH, x=xs).x == xs

    def test_coincidence_across_int_string_and_fraction(self):
        xs = {**self.X, "d": 5, "e": "5"}
        assert self.refusal(x={**xs, "b": Fraction(5)}) == (
            DegeneracyError, "degenerate", "vertices 'b' and 'd' coincide at (Fraction(5, 1), Fraction(1, 1))")

    def test_coordinates_become_fractions(self):
        d = Drawing(graph=self.GRAPH, x={"a": 0, "b": "2/3", "c": 1.5, "d": -1, "e": Fraction(5)},
                    bends=((("1/4", "1/2"),), ()))
        assert d.x == {"a": 0, "b": Fraction(2, 3), "c": Fraction(3, 2), "d": -1, "e": 5}
        assert all(type(x) is Fraction for x in d.x.values())
        assert d.bends == (((Fraction(1, 4), Fraction(1, 2)),), ())
        assert all(type(c) is Fraction for eb in d.bends for p in eb for c in p)


class TestIntegerFrame:
    """The frame the constructor builds equals the one the reference scales
    from the drawing's polylines, widened by the isolated vertices'
    denominators."""

    #: Denominators that many coordinates share: three of 40 digits, 1 and 6.
    DENS = (10**39 + 7, 3 * 10**39 + 1, 2**130, 1, 6)

    @classmethod
    def assert_matches_reference(cls, d: Drawing):
        polys, vertex_pt, sx, sy = d._scaled_polylines
        ref, rsx, rsy = _reference_scaled_polylines(d)
        assert sx == math.lcm(rsx, *(x.denominator for x in d.x.values()))
        assert sy == math.lcm(rsy, *(h.denominator for h in d.graph.vertices.values()))
        kx, ky = sx // rsx, sy // rsy
        assert polys == tuple(tuple((px * kx, py * ky) for px, py in poly) for poly in ref)
        assert list(vertex_pt.items()) == [(v, (int(d.x[v] * sx), int(h * sy)))
                                           for v, h in d.graph.vertices.items()]
        assert all(type(c) is int for p in vertex_pt.values() for c in p)

    @classmethod
    def random_drawing(cls, rng: random.Random) -> Drawing:
        """Up to 12 vertices at distinct points, some of them isolated; up to
        three bends per edge; coordinates as Fractions, ints and strings."""
        points: dict[tuple[Fraction, Fraction], str] = {}
        for i in range(rng.randint(1, 12)):
            points.setdefault((Fraction(rng.randint(-9, 9), rng.choice(cls.DENS)),
                               Fraction(rng.randint(-5, 5), rng.choice((1, 2, *cls.DENS)))), f"v{i}")
        heights = {v: h for (_, h), v in points.items()}
        pairs = [(a, b) for a in heights for b in heights if heights[a] < heights[b]]
        edges = rng.sample(pairs, min(len(pairs), rng.randint(0, len(heights))))
        bends = []
        for a, b in edges:
            den = rng.choice(cls.DENS[:3])
            lo, hi = math.floor(heights[a] * den) + 1, math.ceil(heights[b] * den) - 1
            ys = sorted({Fraction(rng.randint(lo, hi), den) for _ in range(rng.randint(0, 3))} if lo <= hi else ())
            bends.append(tuple((str(Fraction(rng.randint(-9, 9), rng.choice(cls.DENS))), y) for y in ys))
        spelled = {v: rng.choice((h, str(h), int(h) if h.denominator == 1 else h)) for v, h in heights.items()}
        xs = {v: rng.choice((x, str(x), int(x) if x.denominator == 1 else x)) for (x, _), v in points.items()}
        return Drawing(graph=ReebGraph.build(spelled, edges), x=xs, bends=tuple(bends))

    def test_seeded_drawings(self):
        rng = random.Random(83)
        isolated = bent = 0
        for _ in range(150):
            d = self.random_drawing(rng)
            self.assert_matches_reference(d)
            isolated += len(set(d.graph.vertices) - {v for e in d.graph.edges for v in e})
            bent += sum(map(len, d.bends))
        assert isolated > 100 and bent > 300

    def test_constructions(self):
        rng = random.Random(89)
        for rows in (1, 4):
            d = tri_hex_grid(rows).drawing
            self.assert_matches_reference(d)
            self.assert_matches_reference(curved_copy(d, rng))
        g2, _ = subdivide(random_connected_graph(10, rng, extra=4))
        self.assert_matches_reference(realize_layered(g2, random_ordering(g2, rng)))

    def test_the_empty_graph(self):
        d = Drawing(graph=ReebGraph.build({}, []), x={})
        assert d._scaled_polylines == ((), {}, 1, 1)

    def test_isolated_vertices_widen_the_scales(self):
        g = ReebGraph.build({"a": 0, "b": "1/2", "c": "2/3"}, [("a", "b")])
        d = Drawing(graph=g, x={"a": 0, "b": "1/4", "c": "5/7"}, bends=(((Fraction(1, 8), "1/4"),),))
        assert d._scaled_polylines == (
            (((0, 0), (7, 3), (14, 6)),), {"a": (0, 0), "b": (14, 6), "c": (40, 8)}, 56, 12)
        self.assert_matches_reference(d)


@st.composite
def leveled_graphs(draw, max_width=5):
    """Graphs whose edges all join consecutive levels, with parallel edges and
    isolated vertices; ids are shuffled so id order and level order disagree."""
    widths = draw(st.lists(st.integers(min_value=1, max_value=max_width), min_size=2, max_size=5))
    n = sum(widths)
    ids = iter(draw(st.permutations(range(n))))
    names = [[f"v{next(ids)}" for _ in range(w)] for w in widths]
    slots = [(a, b) for l in range(len(widths) - 1) for a in names[l] for b in names[l + 1]]
    # As many edges as vertices or more, so that many graphs need crossings.
    edges = draw(st.lists(st.sampled_from(slots), min_size=n, max_size=2 * n))
    return ReebGraph.build({v: l for l, level in enumerate(names) for v in level}, edges)


class TestWarmStart:
    @settings(max_examples=300, deadline=None)
    @given(leveled_graphs())
    def test_matches_reference_and_returns_its_ordering(self, g2):
        cost, ordering = _warm_start(_leveled(g2, levels(g2)))
        assert cost == reference_warm_start(g2)
        assert count_crossings_layered(g2, ordering) == cost

    @staticmethod
    def reference_snapshots(g2):
        return tuple(_reference_barycenter_ordering(g2, r) for r in (1, 2, 4, 10))

    @settings(max_examples=300, deadline=None)
    @given(leveled_graphs())
    def test_barycenter_snapshots_match_reference(self, g2):
        assert barycenter_ordering(_leveled(g2, levels(g2))) == self.reference_snapshots(g2)

    def test_barycenter_snapshots_match_reference_on_a_deep_graph(self):
        g2 = subdivide(deep_general_graph()).graph
        assert barycenter_ordering(_leveled(g2, levels(g2))) == self.reference_snapshots(g2)


def brute_vertex_through(d: Drawing) -> str | None:
    """The foreign-vertex refusal, by testing every (vertex, segment) pair in
    exact arithmetic: the first edge by index whose polyline holds a vertex
    other than its own ends, with its first such vertex in graph order."""
    for ei, ends in enumerate(d.graph.edges):
        pieces = list(itertools.pairwise(polyline(d, ei)))
        for v in d.graph.vertices:
            px, py = point(d, v)
            if v not in ends and any(ay <= py <= by and (bx - ax) * (py - ay) == (by - ay) * (px - ax)
                                     for (ax, ay), (bx, by) in pieces):
                return f"edge {ei} passes through vertex {v!r}"
    return None


@st.composite
def drawings_with_vertices_on_edges(draw):
    """A coarse drawing plus 1-3 new vertices, each put inside a segment of
    an edge, on one of its bends, or at the height of a segment's end but off
    the edge, in random places in the vertex order; some get an edge of their
    own, at a random edge index."""
    base = draw(coarse_drawings())
    heights, xs = dict(base.graph.vertices), dict(base.x)
    edges, bends = list(base.graph.edges), list(base.bends)
    order = list(heights)
    for k in range(draw(st.integers(min_value=1, max_value=3))):
        ei = draw(st.integers(min_value=0, max_value=len(base.graph.edges) - 1))
        poly = polyline(base, ei)
        places = ["inside", "end height"] + (["bend"] if base.bends[ei] else [])
        place = draw(st.sampled_from(places))
        if place == "bend":
            x, y = draw(st.sampled_from(base.bends[ei]))
        else:
            s = draw(st.integers(min_value=0, max_value=len(poly) - 2))
            (ax, ay), (bx, by) = poly[s], poly[s + 1]
            if place == "inside":
                t = Fraction(draw(st.integers(min_value=1, max_value=3)), 4)
                x, y = ax + t * (bx - ax), ay + t * (by - ay)
            else:
                x, y = draw(st.sampled_from([(ax, ay), (bx, by)]))
                x += draw(st.sampled_from([Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)]))
        v = f"n{k}"
        heights[v], xs[v] = y, x
        order.insert(draw(st.integers(min_value=0, max_value=len(order))), v)
        others = [w for w in order if heights[w] != y]
        if others and draw(st.booleans()):
            at = draw(st.integers(min_value=0, max_value=len(edges)))
            edges.insert(at, (v, draw(st.sampled_from(others))))
            bends.insert(at, ())
    try:
        return Drawing(graph=ReebGraph({w: heights[w] for w in order}, tuple(edges)), x=xs, bends=tuple(bends))
    except ReebError:
        assume(False)


class TestForeignVertexIndex:
    """The height index must see every vertex in a segment's closed y-range."""

    @staticmethod
    def bent_edge(extra):
        # Edge a-b runs (0,0) -> (2,1) -> (2,3) -> (0,4): a diagonal, a vertical
        # segment between two bends, and a diagonal back.
        heights = {"a": 0, "b": 4, **{v: y for v, (_, y) in extra.items()}}
        g = ReebGraph.build(heights, [("a", "b")])
        xs = {"a": Fraction(0), "b": Fraction(0), **{v: Fraction(x) for v, (x, _) in extra.items()}}
        bends = (((Fraction(2), Fraction(1)), (Fraction(2), Fraction(3))),)
        return Drawing(graph=g, x=xs, bends=bends)

    @pytest.mark.parametrize("y", [1, 2, 3], ids=["lower-bend", "inside", "upper-bend"])
    def test_vertex_on_the_vertical_segment_is_reported(self, y):
        # (2, 1) and (2, 3) are bends: each is an end of the vertical segment
        # and of a diagonal.  (2, 2) is interior to the vertical segment.
        d = self.bent_edge({"v": (2, y)})
        with pytest.raises(DegeneracyError, match=r"^edge 0 passes through vertex 'v'$"):
            count_crossings_geometric(d)

    def test_the_shared_view_lists_the_heights_between_the_ends(self):
        # Frame y is twice the height: vertex heights 0, 1, 2, 8 and bends at
        # 2 and 6.  At height 1 the edge is inside its first segment, at 2 it
        # is the bend, met as the top of the segment below it (x = 4 / 2).
        d = self.bent_edge({"v": (5, 1), "w": (-3, Fraction(1, 2))})
        assert _level_passes(d) == ([0, 1, 2, 8], (((1, 2, 2), (2, 4, 2)),))
        assert count_crossings_geometric(d).count == 0

    def test_vertices_at_segment_end_heights_off_the_edge_are_not_reported(self):
        # Same heights as the edge's ends and bends, other x: no degeneracy.
        extra = {"p": (5, 0), "q": (3, 1), "r": (Fraction(3, 2), 1), "s": (1, 3), "t": (-1, 4)}
        assert count_crossings_geometric(self.bent_edge(extra)).count == 0

    def test_first_vertex_in_graph_order_is_named(self):
        # The straight edge a-b passes through v at (0, 1) and w at (0, 3);
        # w comes first in graph order although v is lower on the edge.
        g = ReebGraph.build({"a": 0, "b": 4, "w": 3, "v": 1}, [("a", "b")])
        d = Drawing(graph=g, x={"a": Fraction(0), "b": Fraction(0), "w": Fraction(0), "v": Fraction(0)})
        with pytest.raises(DegeneracyError) as exc:
            count_crossings_geometric(d)
        assert str(exc.value) == "edge 0 passes through vertex 'w'"
        assert exc.value.code == "degenerate"
        assert str(exc.value) == _outcome(reference_count_crossings_geometric, d)[2]

    def test_lowest_edge_is_named(self):
        # Edge 1 (c-d) passes through u, edge 2 (a-b) through v.
        g = ReebGraph.build({"v": 1, "a": 0, "b": 2, "c": 0, "d": 2, "u": 1},
                            [("v", "d"), ("c", "d"), ("a", "b")])
        d = Drawing(graph=g, x={"v": Fraction(0), "a": Fraction(0), "b": Fraction(0),
                                "c": Fraction(4), "d": Fraction(6), "u": Fraction(5)})
        with pytest.raises(DegeneracyError, match=r"^edge 1 passes through vertex 'u'$"):
            count_crossings_geometric(d)

    def test_isolated_vertex_on_edge(self):
        # v has no edge; its x denominator appears nowhere else, so the
        # integer scale must include it for (1/2, 1) to be seen on a-b.
        g = ReebGraph.build({"a": 0, "b": 2, "v": 1}, [("a", "b")])
        d = Drawing(graph=g, x={"a": Fraction(0), "b": Fraction(1), "v": Fraction(1, 2)})
        with pytest.raises(DegeneracyError, match=r"^edge 0 passes through vertex 'v'$"):
            count_crossings_geometric(d)


    @settings(max_examples=300, deadline=None)
    @given(drawings_with_vertices_on_edges())
    def test_refusal_matches_a_check_of_every_vertex_against_every_segment(self, d):
        got = _outcome(count_crossings_geometric, d)
        want = brute_vertex_through(d)
        if want is not None:
            assert got == (DegeneracyError, "degenerate", want)
        else:
            assert not (isinstance(got, tuple) and "passes through vertex" in got[2])

    def test_the_counter_builds_no_pass_table(self, monkeypatch):
        # The pass table is Θ(n·L) on inputs with one vertex per height; the
        # counter finds foreign vertices in its own x-slabs instead.  On the
        # 2,400-vertex path those hold 4,794 entries, two per non-level
        # segment (2,397 of 2,399), and the check scans 4,794: linear in n.
        import reebdraw.crossings

        rng = random.Random(31)
        source = OlaGraph(tuple(FIVE_CHORDS_SOURCE["vertices"]), tuple(map(tuple, FIVE_CHORDS_SOURCE["edges"])))
        best = ola_brute(source)
        gadget, cert = arrangement_to_drawing(ola_reduce(source, best.cost), best)
        curved = [curved_copy(layout_caterpillar(random_caterpillar_graph(n, rng)), rng) for n in (40, 90, 150)]
        path = layout_auto(distinct_height_path(2400, random.Random(2400)))
        monkeypatch.setattr(importlib.import_module("reebdraw.subdivide"), "_level_passes",
                            lambda d: pytest.fail("the counter built the pass table"))
        assert count_crossings_geometric(tri_hex_grid(12).drawing).count == 0
        assert count_crossings_geometric(gadget) == cert
        assert [count_crossings_geometric(d).count for d in curved] == [0, 0, 0]

        x_slabs, index = reebdraw.crossings._x_slabs, []
        monkeypatch.setattr(reebdraw.crossings, "_x_slabs", lambda segs: index.append(x_slabs(segs)) or index[-1])
        assert count_crossings_geometric(path).count == 0
        (slabs, slab_starts, _, x0, width), = index
        scanned = 0
        for px, py in path._scaled_polylines[1].values():
            m = (px - x0) // width
            scanned += bisect.bisect_right(slab_starts[m], py) if 0 <= m < len(slabs) else 0
        assert (sum(map(len, slabs)), scanned) == (4794, 4794)


class TestLayeredCounter:
    def strip_pair(self, xa, xb, xc, xd):
        g = ReebGraph.build({"a": 0, "b": 0, "c": 1, "d": 1}, [("a", "c"), ("b", "d")])
        ordering = LevelOrdering((tuple(sorted(["a", "b"], key=lambda v: {"a": xa, "b": xb}[v])),
                                  tuple(sorted(["c", "d"], key=lambda v: {"c": xc, "d": xd}[v]))))
        return count_crossings_layered(g, ordering)

    def test_same_order_zero(self):
        assert self.strip_pair(0, 1, 0, 1) == 0

    def test_inverted_one(self):
        assert self.strip_pair(0, 1, 1, 0) == 1

    def test_alternating_four_cycle_minimum_is_one(self):
        assert enumerate_min_crossings(alternating_cycle(4)) == 1

    def test_parallel_edges_contribute_zero(self):
        g = ReebGraph.build({"a": 0, "b": 1}, [("a", "b"), ("a", "b")])
        ordering = LevelOrdering((("a",), ("b",)))
        assert count_crossings_layered(g, ordering) == 0

    def test_level_skipping_graph_rejected(self):
        g = ReebGraph.build({"a": 0, "b": 1, "c": 2},
                            [("a", "b"), ("b", "c"), ("a", "c")])
        # A wrong ordering too: the skipping edge is reported first.  The
        # realizer, given no count, checks the ordering the same way.
        for orders, check in itertools.product(
            ((("a",), ("b",), ("c",)), (("a",), ("c",), ("b",)), (("a", "b", "c"),)),
            (count_crossings_layered, realize_layered),
        ):
            with pytest.raises(GraphStructureError) as info:
                check(g, LevelOrdering(orders))
            assert info.value.code == "not-leveled"
            assert str(info.value) == (
                "layered counting requires consecutive-level edges; edge 2 (a, c) skips levels"
            )

    def test_ordering_mismatch_rejected(self):
        g = ReebGraph.build({"a": 0, "b": 0, "c": 1, "d": 1, "e": 2},
                            [("a", "c"), ("b", "d"), ("c", "e"), ("d", "e")])
        cases = [
            ((("a", "b"), ("c", "d")), "ordering has 2 levels, graph has 3"),
            # A missing vertex; a vertex from another level, with level 2 wrong
            # too; a duplicated vertex, the same set in a longer order.
            ((("a", "b"), ("c",), ("e",)), "level 1 "),
            ((("a", "b"), ("c", "e"), ("d",)), "level 1 "),
            ((("a", "b", "a"), ("c", "d"), ("e",)), "level 0 "),
        ]
        for (orders, message), check in itertools.product(cases, (count_crossings_layered, realize_layered)):
            with pytest.raises(GraphStructureError) as info:
                check(g, LevelOrdering(orders))
            assert info.value.code == "ordering-mismatch"
            assert message in str(info.value)

    def test_mirror_symmetry(self):
        rng = random.Random(12)
        for _ in range(30):
            g2, _ = subdivide(random_connected_graph(rng.randint(2, 8), rng))
            ordering = random_ordering(g2, rng)
            mirrored = LevelOrdering(tuple(order[::-1] for order in ordering.orders))
            assert count_crossings_layered(g2, ordering) == count_crossings_layered(g2, mirrored)

    @staticmethod
    def brute_count(g2, ordering):
        pos = ordering.positions()
        return sum(brute_strip_crossings([(pos[lo], pos[hi]) for lo, hi in strip])
                   for strip in _strip_edges(g2, levels(g2)))

    def test_matches_pairwise_oracle_on_random_orderings(self):
        # Low integer heights make many edges span one level, so strips hold
        # parallel edges (an extra copy of a tree edge) and fans of shared ends.
        rng = random.Random(97)
        parallel = 0
        for _ in range(200):
            n = rng.randint(3, 12)
            hs = {f"v{i}": rng.randint(0, 4) for i in range(n)}
            edges = []
            for i in range(1, n):
                j = rng.choice([j for j in range(i) if hs[f"v{j}"] != hs[f"v{i}"]] or [None])
                if j is None:
                    hs[f"v{i}"] = hs["v0"] + 1
                    j = 0
                edges.append((f"v{i}", f"v{j}"))
            edges += rng.choices(edges, k=rng.randint(1, 3))
            for _ in range(rng.randint(0, n)):
                a, b = rng.sample(sorted(hs), 2)
                if hs[a] != hs[b]:
                    edges.append((a, b))
            g2, _ = subdivide(ReebGraph.build(hs, edges))
            strips = _strip_edges(g2, levels(g2))
            parallel += sum(len(strip) - len(set(strip)) for strip in strips)
            for _ in range(3):
                ordering = random_ordering(g2, rng)
                assert count_crossings_layered(g2, ordering) == self.brute_count(g2, ordering)
        assert parallel >= 200

    def test_dense_reversed_strip(self):
        # Every edge between two levels of 40: any two edges without a shared
        # end cross exactly once, whatever the orders.
        lower, upper = [f"a{i:02d}" for i in range(40)], [f"b{i:02d}" for i in range(40)]
        g = ReebGraph.build({**dict.fromkeys(lower, 0), **dict.fromkeys(upper, 1)},
                            [(a, b) for a in lower for b in upper])
        ordering = LevelOrdering((tuple(lower), tuple(reversed(upper))))
        assert count_crossings_layered(g, ordering) == self.brute_count(g, ordering) == math.comb(40, 2) ** 2

    def test_strip_walk_yields_the_pairwise_crossings(self):
        rng = random.Random(101)
        for _ in range(300):
            m = rng.randint(0, 30)
            width = rng.randint(1, 6)  # few positions: many ties and shared ends
            edges = [(rng.randrange(width), rng.randrange(width), k) for k in range(m)]
            crossed, walked = set(), []
            for (lo, hi, k), owners, pos in _strip_inversions(edges):
                crossed |= {frozenset((j, k)) for j in owners[pos:]}
                # The earlier edges with the same positions sit just before pos.
                same = [j for j in walked if edges[j][:2] == (lo, hi)]
                assert owners[pos - len(same):pos] == same
                walked.append(k)
            assert walked == [k for _, _, k in sorted(edges)]
            assert crossed == {frozenset((i, j)) for (a, b, i), (c, d, j) in itertools.combinations(edges, 2)
                               if (a - c) * (b - d) < 0}

    def test_every_counter_walks_the_one_routine(self, monkeypatch):
        import reebdraw.crossings

        walked = []
        walk = reebdraw.crossings._strip_inversions
        monkeypatch.setattr(reebdraw.crossings, "_strip_inversions",
                            lambda edges: walked.append(1) or walk(edges))
        g2, _ = subdivide(alternating_cycle(4))
        count_crossings_layered(g2, random_ordering(g2, random.Random(3)))
        assert walked
        walked.clear()
        _warm_start(_leveled(g2, levels(g2)))
        assert walked
        walked.clear()
        assert count_crossings_geometric(tri_hex_grid(4).drawing).count == 0
        assert walked


class TestRealizeLayered:
    def test_single_edge(self):
        g = ReebGraph.build({"a": 0, "b": 1}, [("a", "b")])
        d = realize_layered(g, LevelOrdering((("a",), ("b",))))
        assert count_crossings_geometric(d).count == 0

    def test_alternating_four_cycle_all_orderings_agree(self):
        import itertools

        g = alternating_cycle(4)
        lows = [v for v in g.vertices if g.vertices[v] == 0]
        highs = [v for v in g.vertices if g.vertices[v] == 1]
        for lo in itertools.permutations(lows):
            for hi in itertools.permutations(highs):
                ordering = LevelOrdering((lo, hi))
                assert (
                    count_crossings_geometric(realize_layered(g, ordering)).count
                    == count_crossings_layered(g, ordering)
                )

    def test_ladder_identity_ordering_agrees(self):
        g = ReebGraph.build(
            {"a0": 0, "b0": 0, "a1": 1, "b1": 1, "a2": 2, "b2": 2},
            [("a0", "a1"), ("a1", "a2"), ("b0", "b1"), ("b1", "b2"), ("a0", "b1"), ("b0", "a1")],
        )
        ordering = LevelOrdering((("a0", "b0"), ("a1", "b1"), ("a2", "b2")))
        assert (
            count_crossings_geometric(realize_layered(g, ordering)).count
            == count_crossings_layered(g, ordering)
        )

    def test_parallel_edges_realized_without_spurious_crossings(self):
        g = ReebGraph.build({"a": 0, "b": 1}, [("a", "b")] * 3)
        d = realize_layered(g, LevelOrdering((("a",), ("b",))))
        assert count_crossings_geometric(d).count == 0

    def test_concurrent_integer_strip(self, monkeypatch):
        # At integer positions the three edges all pass through (1, 1/2).
        g = ReebGraph.build(
            {"a0": 0, "a1": 0, "a2": 0, "b0": 1, "b1": 1, "b2": 1},
            [("a0", "b2"), ("a1", "b1"), ("a2", "b0")],
        )
        ordering = LevelOrdering((("a0", "a1", "a2"), ("b0", "b1", "b2")))
        with pytest.raises(DegeneracyError):
            count_crossings_geometric(Drawing(graph=g, x={v: Fraction(int(v[1])) for v in g.vertices}))
        import reebdraw.crossings

        calls = counted_geometric_calls(monkeypatch, reebdraw.crossings)
        d = realize_layered(g, ordering)
        assert len(calls) == 2
        assert count_crossings_geometric(d).count == 3

    def test_parallel_pair_both_ways(self, monkeypatch):
        # (a0 -> b1) and (a1 -> b0) cross at mid-strip, where both second
        # copies bend there at integer positions; each pair has three copies.
        g = ReebGraph.build(
            {"a0": 0, "a1": 0, "b0": 1, "b1": 1},
            [("a0", "b1")] * 3 + [("a1", "b0")] * 3,
        )
        ordering = LevelOrdering((("a0", "a1"), ("b0", "b1")))
        import reebdraw.crossings

        calls = counted_geometric_calls(monkeypatch, reebdraw.crossings)
        d = realize_layered(g, ordering)
        assert len(calls) == 2
        assert count_crossings_geometric(d).count == count_crossings_layered(g, ordering) == 9

    def test_matches_reference(self, monkeypatch):
        # Byte-identical wherever the reference's integer positions certify;
        # the counts agree with the layered count everywhere.
        import helpers
        import reebdraw.crossings

        reference_calls = counted_geometric_calls(monkeypatch, helpers)
        calls = counted_geometric_calls(monkeypatch, reebdraw.crossings)
        rng = random.Random(33)
        second = 0
        for _ in range(150):
            g = random_connected_graph(rng.randint(2, 9), rng, extra=rng.randint(0, 5))
            g2, _ = subdivide(g)
            edges = list(g2.edges) + [rng.choice(g2.edges) for _ in range(rng.randint(0, 3))]
            g2 = ReebGraph.build(dict(g2.vertices), edges)
            ordering = random_ordering(g2, rng)
            reference_calls.clear()
            calls.clear()
            expected = reference_realize_layered(g2, ordering)
            d = realize_layered(g2, ordering)
            assert len(calls) <= 2
            target = count_crossings_layered(g2, ordering)
            assert count_crossings_geometric(d).count == target == count_crossings_geometric(expected).count
            if len(reference_calls) == 1:
                assert list(d.x.items()) == list(expected.x.items())
                assert d.bends == expected.bends
            else:
                second += 1
        assert second > 10

    def test_wrong_count_raises_without_a_drawing(self):
        # A given ``count`` is a precondition the certificate checks: a count
        # off by one either way is refused, never drawn.
        rng = random.Random(32)
        for _ in range(20):
            g2, _ = subdivide(random_connected_graph(rng.randint(2, 8), rng))
            ordering = random_ordering(g2, rng)
            count = count_crossings_layered(g2, ordering)
            for wrong in (count - 1, count + 1):
                with pytest.raises(InternalInvariantError):
                    realize_layered(g2, ordering, wrong)

    def test_agreement_on_random_pairs(self):
        rng = random.Random(31)
        for _ in range(60):
            g2, _ = subdivide(random_connected_graph(rng.randint(2, 8), rng))
            ordering = random_ordering(g2, rng)
            assert (
                count_crossings_geometric(realize_layered(g2, ordering)).count
                == count_crossings_layered(g2, ordering)
            )


class TestExactSearch:
    def test_any_path_is_planar(self):
        rng = random.Random(8)
        for _ in range(10):
            assert exact_rgcn(random_path_graph(rng.randint(2, 9), rng)).count == 0

    def test_any_caterpillar_is_planar(self):
        rng = random.Random(9)
        for _ in range(10):
            assert exact_rgcn(random_caterpillar_graph(rng.randint(2, 10), rng)).count == 0

    @pytest.mark.parametrize("total,expected", [(4, 1), (6, 2), (8, 3)])
    def test_alternating_cycles(self, total, expected):
        assert exact_rgcn(alternating_cycle(total)).count == expected
        assert enumerate_min_crossings(alternating_cycle(total)) == expected

    def test_matches_independent_enumeration(self):
        rng = random.Random(13)
        for _ in range(15):
            g = random_connected_graph(rng.randint(2, 6), rng)
            assert exact_rgcn(g).count == enumerate_min_crossings(g)

    def test_enumeration_shares_no_counter_with_the_search(self, monkeypatch):
        # The oracle scores each strip pair by pair, so it still finds every
        # minimum when the library's strip walk is broken.
        import reebdraw.crossings

        rng = random.Random(13)
        graphs = [random_connected_graph(rng.randint(2, 6), rng) for _ in range(5)]
        graphs += [alternating_cycle(total) for total in (4, 6, 8)]
        minima = [exact_rgcn(g).count for g in graphs]
        assert minima[-3:] == [1, 2, 3]

        def broken(edges):
            raise AssertionError("the enumeration oracle walked the library's strips")

        monkeypatch.setattr(reebdraw.crossings, "_strip_inversions", broken)
        assert [enumerate_min_crossings(g) for g in graphs] == minima

    def test_witness_achieves_the_minimum(self):
        rng = random.Random(14)
        for _ in range(15):
            g = random_connected_graph(rng.randint(2, 7), rng)
            res = exact_rgcn(g)
            assert count_crossings_layered(res.mapping.subdivided, res.ordering) == res.count

    def test_oracle_floor_under_layouts(self):
        from reebdraw import layout_auto

        rng = random.Random(15)
        for _ in range(15):
            g = random_cycle_graph(rng.randint(3, 8), rng)
            drawn = count_crossings_geometric(layout_auto(g)).count
            assert exact_rgcn(g).count <= drawn

    def test_invariant_under_monotone_relabeling(self):
        rng = random.Random(16)
        for _ in range(10):
            g = random_connected_graph(rng.randint(2, 7), rng)
            mapped = ReebGraph({v: 2 * h + 1 for v, h in g.vertices.items()}, g.edges)
            assert exact_rgcn(g).count == exact_rgcn(mapped).count

    def test_builds_the_leveled_view_once(self, monkeypatch):
        # ``subdivide`` levels its input once and emits the subdivided graph's
        # view; the search, the warm start, the cycle decomposition, the
        # certificate and the merge back all read it.  No layout recounts the
        # layered count that it already holds.
        import reebdraw.crossings
        from reebdraw import ShapeClass, classify_shape, layout_auto, layout_cycle, layout_heuristic

        calls = counted_level_calls(monkeypatch)
        layered = []
        monkeypatch.setattr(reebdraw.crossings, "count_crossings_layered", lambda *args: layered.append(args))

        def leveled(run, g, budget_runs_out=False):
            calls.clear()
            if budget_runs_out:
                with pytest.raises(BudgetExhaustedError):
                    run(g)
            else:
                run(g)
            return calls

        rng = random.Random(17)
        for _ in range(10):
            g = random_connected_graph(rng.randint(2, 7), rng)
            assert leveled(exact_rgcn, g) == [g]
            assert leveled(layout_heuristic, g) == [g]
            # Paths and caterpillars are drawn without leveling.
            drawn_directly = classify_shape(g) in (ShapeClass.PATH, ShapeClass.CATERPILLAR)
            assert leveled(layout_auto, g) == ([] if drawn_directly else [g])
        for g in (alternating_cycle(8), random_cycle_graph(9, rng)):
            assert leveled(layout_cycle, g) == [g]
            assert leveled(layout_auto, g) == [g]
            assert leveled(layout_heuristic, g) == [g]
        g = ReebGraph.build({"a": 0, "b": 1, "c": 3, "d": 2}, [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        assert leveled(layout_cycle, g) == [g]
        g = alternating_cycle(8)
        assert leveled(lambda g: exact_rgcn(g, budget=2), g, budget_runs_out=True) == [g]
        g = deep_general_graph()
        assert leveled(layout_auto, g) == [g]
        assert leveled(lambda g: layout_auto(g, budget=1), g) == [g]
        assert layered == []

    def test_warm_start_runs_only_when_the_budget_runs_out(self, monkeypatch):
        # The search keeps no incumbent: a solved search never runs the warm
        # start, and an exhausted one runs it once, for the error's payload.
        from reebdraw import layout_heuristic

        calls = counted_warm_starts(monkeypatch)
        rng = random.Random(18)
        for _ in range(10):
            exact_rgcn(random_connected_graph(rng.randint(2, 7), rng))
        exact_rgcn(alternating_cycle(8))
        exact_rgcn(parse_graph((FIXTURES / "min_one_bench_graph.json").read_text()))
        assert calls == []
        with pytest.raises(BudgetExhaustedError):
            exact_rgcn(alternating_cycle(8), budget=2)
        assert len(calls) == 1
        layout_heuristic(alternating_cycle(8))
        assert len(calls) == 2

    def test_derives_each_levels_vertices_once(self, monkeypatch):
        # The view lists each level's vertices, and their index, once; the
        # search, the warm start, the parity tables and the cycle ordering
        # all read them there, whether the search is solved or exhausted.
        from reebdraw import LevelAssignment, layout_cycle, layout_heuristic

        calls = []
        by_level = LevelAssignment.by_level
        monkeypatch.setattr(LevelAssignment, "by_level", lambda lev: calls.append(lev) or by_level(lev))

        def exhausted(g):
            with pytest.raises(BudgetExhaustedError):
                exact_rgcn(g, budget=2)

        fixture = parse_graph((FIXTURES / "min_one_bench_graph.json").read_text())
        runs = [(exact_rgcn, fixture), (exhausted, alternating_cycle(8)),
                (layout_heuristic, fixture), (layout_cycle, alternating_cycle(8))]
        for run, g in runs:
            calls.clear()
            run(g)
            assert len(calls) == 1, run.__name__

    def test_deepening_is_bounded(self, monkeypatch):
        # No ordering pays more than C(m, 2) crossings in a strip of m edges.
        # With lower bounds above that in every strip, no target the search
        # may try has a completion, so it must stop and say so.
        import reebdraw.crossings

        monkeypatch.setattr(reebdraw.crossings, "_strip_lower_bound",
                            lambda strip, w_lo, w_hi: math.comb(len(strip), 2) + 1)
        for g in (alternating_cycle(8), random_connected_graph(6, random.Random(5), extra=3)):
            with pytest.raises(InternalInvariantError):
                exact_rgcn(g)

    def test_budget_error_carries_bound(self):
        g = alternating_cycle(8)
        with pytest.raises(BudgetExhaustedError) as exc:
            exact_rgcn(g, budget=2)
        assert exc.value.best is not None
        assert exc.value.best >= 3
        # The carried ordering covers the subdivided graph's levels and attains the bound.
        g2, _ = subdivide(g)
        assert count_crossings_layered(g2, exc.value.ordering) == exc.value.best
        # The carried mapping is that of the graph the ordering covers.
        assert exc.value.mapping.subdivided == g2
        assert exc.value.mapping.original == g

    @staticmethod
    def crossings_garbage(run) -> list[str]:
        """Functions of ``reebdraw.crossings`` that ``run`` leaves in reference
        cycles.  The cyclic collector is off while ``run`` works, so whatever
        reference counting cannot free stays until the final collection,
        which saves it in ``gc.garbage``."""
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.garbage.clear()
            try:
                run()
            except BudgetExhaustedError:
                pass
            gc.collect()
            return [o.__qualname__ for o in gc.garbage
                    if inspect.isfunction(o) and o.__module__ == "reebdraw.crossings"]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()

    def test_search_leaves_no_reference_cycles(self):
        solved = random_connected_graph(8, random.Random(93), extra=3)
        assert self.crossings_garbage(lambda: exact_rgcn(solved)) == []
        exhausted = random_connected_graph(12, random.Random(17), extra=4)
        with pytest.raises(BudgetExhaustedError):
            exact_rgcn(exhausted, budget=2000)
        assert self.crossings_garbage(lambda: exact_rgcn(exhausted, budget=2000)) == []

    def test_work_on_the_hardest_criterion_4_graph(self):
        # Graph 29 of acceptance criterion 4's stream took 6,773,738 states
        # under the per-candidate bound; the level floor must need a tenth.
        rng = random.Random(104)
        for _ in range(30):
            g = random_connected_graph(rng.randint(2, 9), rng)
        assert exact_rgcn(g).states <= 677_373

    def test_work_on_the_hardest_criterion_4_graph_with_the_suffix_bound(self):
        # The same graph took 137,692 states before the suffix parity bound;
        # the bound must need a tenth.
        rng = random.Random(104)
        for _ in range(30):
            g = random_connected_graph(rng.randint(2, 9), rng)
        assert exact_rgcn(g).states <= 13_769

    def test_work_on_a_bench_graph_of_minimum_one(self):
        # Case 3 of the benchmark's ``layout_cases(Random(7), 8, 24)``.  Before
        # the suffix parity bound the search took 383,784 states, so a
        # 200,000-state budget drew the warm start's 5 crossings instead of 1;
        # the bound must need a hundredth.
        g = parse_graph((FIXTURES / "min_one_bench_graph.json").read_text())
        res = exact_rgcn(g)
        assert res.states <= 3_838
        assert res.count == 1
        # The witness of the search without the bound, at a budget of 1,000,000.
        assert [" ".join(order) for order in res.ordering.orders] == [
            "v0 v10",
            "__sub_0_1 v7 __sub_2_1 __sub_11_1 __sub_1_1 __sub_10_1 __sub_3_1 v5 __sub_9_1",
            "__sub_0_2 __sub_6_2 __sub_2_2 __sub_11_2 __sub_1_2 __sub_10_2 v4 __sub_5_2 __sub_9_2",
            "__sub_0_3 __sub_6_3 __sub_2_3 v8 __sub_1_3 __sub_10_3 __sub_8_3 __sub_5_3 __sub_9_3",
            "v1 __sub_2_4 __sub_7_4 __sub_1_4 __sub_10_4 __sub_8_4 v6",
            "v3 v2 v9",
        ]

    def test_work_on_a_level_planar_bench_graph(self):
        # Case 24 of the benchmark's ``layout_cases(Random(7), 8, 24)``.  Its
        # warm start is already crossing-free, yet round 0 took 555,387
        # states to find the least witness before the parity oracle; the
        # oracle must need a hundredth.
        g = parse_graph((FIXTURES / "level_planar_bench_graph.json").read_text())
        res = exact_rgcn(g)
        assert res.states <= 5_553
        assert res.count == 0
        # ``reference_exact_rgcn`` reaches this witness only after
        # 30,563,136 states (about 40 s), so it is frozen here.
        assert [" ".join(order) for order in res.ordering.orders] == [
            "v0",
            "__sub_0_1 __sub_10_1 __sub_1_1 __sub_11_1 v10 __sub_2_1 __sub_4_1 v6",
            "__sub_0_2 __sub_10_2 __sub_1_2 __sub_11_2 __sub_9_2 v4 __sub_2_2 __sub_4_2",
            "__sub_0_3 __sub_10_3 __sub_1_3 __sub_11_3 __sub_9_3 __sub_7_3 __sub_3_3 __sub_2_3 __sub_4_3 v9 v7",
            "__sub_0_4 __sub_10_4 __sub_1_4 v8 __sub_3_4 __sub_2_4 v5 __sub_6_4",
            "v1 v2 v3",
        ]

    def test_work_on_an_exhausted_bench_graph_with_the_exchange_cut(self):
        # Case 27 of the benchmark's ``layout_cases(Random(7), 8, 24)``.
        # Unbounded, the search took 3,739,753 states before the exchange
        # cut; the cut must need at most 0.45 of them.
        g = parse_graph((FIXTURES / "exhausted_bench_graph_27.json").read_text())
        res = exact_rgcn(g, budget=None)
        assert res.states <= 1_682_888
        assert res.count == 3
        assert res.rounds == ((1, 61_529), (2, 602_592), (3, 852_342))
        # The witness of the search without the cut.
        assert [" ".join(order) for order in res.ordering.orders] == [
            "v10 v1 v2 v7 v3 v8",
            "__sub_12_1 __sub_9_1 __sub_0_1 __sub_13_1 __sub_1_1 v4 __sub_11_1 __sub_2_1 __sub_7_1 v5 __sub_8_1",
            "__sub_12_2 __sub_9_2 __sub_0_2 __sub_13_2 __sub_1_2 __sub_11_2 __sub_2_2 __sub_7_2 __sub_14_2 v11 __sub_8_2",
            "__sub_12_3 v0 __sub_11_3 __sub_14_3 __sub_8_3",
            "v6 v9",
        ]

    @pytest.mark.parametrize("name,rounds", [("min_one_bench_graph.json", ((1, 293),)),
                                             ("level_planar_bench_graph.json", ((0, 63),)),
                                             ("tree_requiring_crossings.json", ((1, 23),))])
    def test_rounds_split_the_states_by_target(self, name, rounds):
        res = exact_rgcn(parse_graph((FIXTURES / name).read_text()))
        assert res.rounds == rounds
        assert sum(states for _, states in res.rounds) == res.states

    def test_deterministic_witness(self):
        rng = random.Random(17)
        for _ in range(5):
            g = random_connected_graph(rng.randint(3, 7), rng)
            assert exact_rgcn(g).ordering == exact_rgcn(g).ordering

    def test_disconnected_rejected(self):
        g = ReebGraph.build({"a": 0, "b": 1, "c": 0, "d": 1}, [("a", "b"), ("c", "d")])
        with pytest.raises(LayoutError) as exc:
            exact_rgcn(g)
        assert exc.value.code == "disconnected"


@st.composite
def search_graphs(draw):
    """Connected graphs on 2-8 vertices for the exact search.

    A stem of up to three vertices, chained one per level below all others,
    gives width-1 levels under the first wide one.  Heights 0-3 above it make
    edges skip levels, and extra edges may repeat an edge.
    """
    n = draw(st.integers(min_value=2, max_value=8))
    stem = draw(st.integers(min_value=0, max_value=min(3, n - 1)))
    heights = [i - stem for i in range(stem)]
    heights += draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n - stem, max_size=n - stem))
    edges = [(i - 1, i) for i in range(1, min(stem + 1, n))]
    for i in range(stem + 1, n):
        parents = [j for j in range(max(stem - 1, 0), i) if heights[j] != heights[i]]
        assume(parents)
        edges.append((draw(st.sampled_from(parents)), i))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if heights[a] != heights[b]]
    edges += draw(st.lists(st.sampled_from(edges + pairs), min_size=n // 2, max_size=2 * n))
    return ReebGraph.build({f"v{i}": h for i, h in enumerate(heights)},
                           [(f"v{a}", f"v{b}") for a, b in edges])


def search_outcome(search, g, budget):
    """(count, witness, states, rounds) of a search, or (best, ordering, None,
    None) if it runs out of budget."""
    try:
        res = search(g, budget=budget)
    except BudgetExhaustedError as exc:
        return exc.best, exc.ordering, None, None
    return res.count, res.ordering, res.states, res.rounds


@st.composite
def tree_graphs(draw):
    """Trees and caterpillars of any spine degree on 2-12 vertices, heights 0-5.

    Most of them are level-planar, so the search's round 0 succeeds or is
    pruned by the parity oracle.  A caterpillar's first ``spine`` vertices
    form a path and every later vertex is a leg of one of them.
    """
    n = draw(st.integers(min_value=2, max_value=12))
    spine = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=n)))
    heights = [draw(st.integers(min_value=0, max_value=5))]
    edges = []
    for i in range(1, n):
        if spine is None:
            parent = draw(st.integers(min_value=0, max_value=i - 1))
        else:
            parent = i - 1 if i < spine else draw(st.integers(min_value=0, max_value=spine - 1))
        heights.append(draw(st.sampled_from([h for h in range(6) if h != heights[parent]])))
        edges.append((f"v{parent}", f"v{i}"))
    return ReebGraph.build({f"v{i}": h for i, h in enumerate(heights)}, edges)


@st.composite
def long_edge_graphs(draw):
    """Connected graphs on 5-8 vertices with heights 0-6: a spanning tree plus
    1-4 extra edges, which may repeat an edge.  Edges skip up to six levels,
    so the subdivided graph is mostly long chains."""
    n = draw(st.integers(min_value=5, max_value=8))
    heights = draw(st.lists(st.integers(min_value=0, max_value=6), min_size=n, max_size=n))
    edges = []
    for i in range(1, n):
        parents = [j for j in range(i) if heights[j] != heights[i]]
        assume(parents)
        edges.append((draw(st.sampled_from(parents)), i))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if heights[a] != heights[b]]
    edges += draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4))
    return ReebGraph.build({f"v{i}": h for i, h in enumerate(heights)},
                           [(f"v{a}", f"v{b}") for a, b in edges])


def parity_tables(level_vertices, strips):
    """``_parity_tables`` of a view holding only these levels' vertices, their
    strips and each vertex's index in its level: the fields the tables read."""
    index = {v: i for vs in level_vertices for i, v in enumerate(vs)}
    return _parity_tables(LeveledView(None, strips, {}, {}, level_vertices, index))


def parity_system(g2):
    """The entries of the parity system of all strips, or None."""
    lev = levels(g2)
    return parity_tables(lev.by_level(), _strip_edges(g2, lev))[2]


def assert_search_matches_reference(g, small) -> None:
    # The recursive form of the same search must agree on everything: count,
    # witness, states and rounds, or the budget payload.
    for budget in (20_000, small):
        assert search_outcome(exact_rgcn, g, budget) == search_outcome(recursive_exact_rgcn, g, budget)
    count, witness, states, _ = search_outcome(exact_rgcn, g, 20_000)
    ref_count, ref_witness, ref_states, _ = search_outcome(reference_exact_rgcn, g, 20_000)
    if states is not None and ref_states is not None:
        assert (count, witness) == (ref_count, ref_witness)
    elif states is not None:
        assert count <= ref_count
    # Out of budget, both carry the warm start whatever the budget; a
    # budget of 0 always runs out.
    best, ordering, states, _ = search_outcome(exact_rgcn, g, small)
    if states is None:
        assert (best, ordering) == search_outcome(reference_exact_rgcn, g, 0)[:2]


class TestExactSearchOracle:
    @settings(max_examples=200, deadline=None)
    @given(search_graphs(), st.integers(min_value=1, max_value=40))
    def test_matches_reference_search(self, g, small):
        assert_search_matches_reference(g, small)

    @settings(max_examples=200, deadline=None)
    @given(tree_graphs(), st.integers(min_value=1, max_value=40))
    def test_matches_reference_search_on_trees(self, g, small):
        assert_search_matches_reference(g, small)

    @settings(max_examples=200, deadline=None)
    @given(long_edge_graphs(), st.integers(min_value=1, max_value=40))
    def test_matches_reference_search_on_long_edges(self, g, small):
        assert_search_matches_reference(g, small)

    def test_refuted_round_zero_keeps_the_reference_witness(self):
        # The tree fixture's parity system is contradictory, so the search
        # starts at target 1.
        g = parse_graph((FIXTURES / "tree_requiring_crossings.json").read_text())
        assert parity_system(subdivide(g).graph) is None
        res, ref = exact_rgcn(g), reference_exact_rgcn(g)
        assert (res.count, res.ordering) == (ref.count, ref.ordering)
        assert res.count == 1
        # Round 0 alone took 91 of the 131 states before the refutation.
        assert res.states <= 40 < ref.states

    def test_memo_skips_an_order_entered_before_at_no_greater_cost(self):
        # On this graph the search's level entry (``_level_entry``) meets the
        # order of a level below that the memo holds at a cost no greater
        # than the current one 8 times, and returns at once; a line tracer on
        # ``_level_entry`` counts those returns.
        g = random_connected_graph(10, random.Random(71))
        source, start = inspect.getsourcelines(_level_entry)
        skip = start + next(k for k, line in enumerate(source) if "seen <= cost" in line) + 1
        hits = []

        def lines(frame, event, arg):
            if event == "line" and frame.f_lineno == skip:
                hits.append(skip)
            return lines

        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: lines if frame.f_code.co_name == "_level_entry" else None)
        try:
            res = exact_rgcn(g)
        finally:
            sys.settrace(previous)
        assert len(hits) == 8
        assert (res.count, res.states) == (1, 1061)
        ref = recursive_exact_rgcn(g)
        assert (res.count, res.ordering, res.states) == (ref.count, ref.ordering, ref.states)


class TestExchangeCut:
    @settings(max_examples=200, deadline=None)
    @given(search_graphs())
    def test_no_witness_level_holds_a_pair_the_cut_skips(self, g):
        # The cut skips i right after q when i precedes q in id order and
        # putting q left of i costs at least up(q) * up(i) more in the strip
        # below.  Swapping such a pair gives a lex-smaller ordering that
        # costs no more, so the lex-least witness never holds one.
        try:
            res = exact_rgcn(g, budget=20_000)
        except BudgetExhaustedError:
            return
        view = _leveled(res.mapping.subdivided, levels(res.mapping.subdivided))
        for l, order in enumerate(res.ordering.orders):
            below = {v: p for p, v in enumerate(res.ordering.orders[l - 1])} if l else {}
            for q, i in zip(order, order[1:]):
                if view.index[i] > view.index[q]:
                    continue
                q_ends = [below[x] for x in view.down[q]]
                i_ends = [below[x] for x in view.down[i]]
                q_left = sum(x > y for x in q_ends for y in i_ends)
                i_left = sum(y > x for x in q_ends for y in i_ends)
                assert q_left - i_left < len(view.up[q]) * len(view.up[i]), (l, q, i)
        # The rounds run from the first target up to the count, and split the states.
        targets = [target for target, _ in res.rounds]
        assert targets == list(range(targets[0], res.count + 1))
        assert sum(states for _, states in res.rounds) == res.states


@st.composite
def level_entries(draw):
    """A level entry's inputs: the view of a graph of two levels, 1-6
    vertices each, where each upper vertex has 0-4 lower edges (parallel
    ones allowed), an order of the lower level, and a cost, a bound above
    and a slack for the target."""
    lower, upper = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    edges = [(f"a{draw(st.integers(0, lower - 1))}", f"b{i}")
             for i in range(upper) for _ in range(draw(st.integers(0, 4)))]
    g2 = ReebGraph.build({**{f"a{i}": 0 for i in range(lower)}, **{f"b{i}": 1 for i in range(upper)}}, edges)
    below = list(draw(st.permutations(range(lower))))
    return _leveled(g2, levels(g2)), below, draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 12))


class TestLevelEntry:
    @settings(max_examples=300, deadline=None)
    @given(level_entries())
    def test_matches_its_definition(self, case):
        # Every pair of the upper level against its definition, with
        # c[u][w] the crossings below when u is left of w: the floor, the
        # regret row, the drop rows, and a refusal exactly when the floor
        # passes the target.
        view, below, cost, above, slack = case
        tables = _search_tables(view)._replace(future_lb=[0, above, 0])
        target = cost + above + slack
        pos = {v: below.index(view.index[v]) for v in view.level_vertices[0]}
        ends = [sorted(pos[x] for x in view.down[v]) for v in view.level_vertices[1]]
        w = len(ends)
        c = [[0] * w for _ in range(w)]
        for u, v in itertools.combinations(range(w), 2):
            c[u][v], c[v][u] = _pair_crossings(ends[u], ends[v])
        floor = cost + above + sum(min(c[u][v], c[v][u]) for u, v in itertools.combinations(range(w), 2))
        regret = [sum(max(0, c[u][v] - c[v][u]) for v in range(w)) for u in range(w)]
        drop = [[max(0, c[u][v] - c[v][u]) for u in range(w)] for v in range(w)]
        memo: dict[int, int] = {}
        entry = _level_entry(tables, 1, below, cost, target, memo)
        if floor > target:
            assert entry is None
            assert memo == {}
            return
        assert entry == (floor, regret, drop)
        # The memo holds the order below at that cost now: an entry at no
        # lower cost is refused, and a cheaper one passes.
        assert _level_entry(tables, 1, below, cost, target, memo) is None
        if cost:
            assert _level_entry(tables, 1, below, cost - 1, target, memo) == (floor - 1, regret, drop)


OPTIONAL_CUTS = ("memo", "mirror", "exchange", "round zero parity", "suffix parity")


@contextlib.contextmanager
def only_cut(on):
    """Switch off every optional cut of ``exact_rgcn`` but ``on``, each by
    patching the table or function it reads: a memo that keeps nothing, no
    mirror level, caps that no drop reaches, and neutral parity tables (no
    entries, no odd cycles).  The floor and the regret test stay."""
    import reebdraw.crossings as crossings

    search_tables, level_entry, parity_tables = crossings._search_tables, crossings._level_entry, crossings._parity_tables

    def patched_tables(view):
        t = search_tables(view)
        if on != "mirror":
            t = t._replace(mirror_level=None)
        if on != "exchange":
            t = t._replace(caps=[[[math.inf] * len(row) for row in caps] for caps in t.caps])
        return t

    def patched_entry(tables, level, below, cost, target, memo):
        return level_entry(tables, level, below, cost, target, memo if on == "memo" else {})

    def patched_parity(view):
        suffix_odd, suffix_sides, sides = parity_tables(view)
        neutral = [[[] for _ in vs] for vs in view.level_vertices]
        if on != "suffix parity":
            suffix_odd, suffix_sides = [0] * len(suffix_odd), neutral
        return suffix_odd, suffix_sides, sides if on == "round zero parity" else neutral

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crossings, "_search_tables", patched_tables)
        mp.setattr(crossings, "_level_entry", patched_entry)
        mp.setattr(crossings, "_parity_tables", patched_parity)
        yield


class TestCutSoundness:
    @pytest.mark.parametrize("cut", OPTIONAL_CUTS)
    @settings(max_examples=200, deadline=None)
    @given(g=search_graphs())
    def test_one_cut_alone_keeps_count_and_witness(self, cut, g):
        # With one optional cut on and the others off, the search must still
        # find the reference search's count and lex-least witness.
        with only_cut(cut):
            count, witness, states, _ = search_outcome(exact_rgcn, g, 20_000)
        ref_count, ref_witness, ref_states, _ = search_outcome(reference_exact_rgcn, g, 20_000)
        if states is not None and ref_states is not None:
            assert (count, witness) == (ref_count, ref_witness)


def normalized(sides):
    """Parity entries with each row sorted, each component renamed by its
    first appearance, and each component flipped so its first side is 0."""
    names: dict[int, tuple[int, int]] = {}  # component -> (name, flip)
    out = []
    for rows in sides:
        out.append([])
        for row in rows:
            out[-1].append([])
            for j, c, side in sorted(row):
                name, flip = names.setdefault(c, (len(names), side))
                out[-1][-1].append((j, name, side ^ flip))
    return out


class TestParitySystem:
    def test_alternating_four_cycle_is_contradictory(self):
        # (a,b),(c,d) force x_ac = x_bd and (a,d),(c,b) force x_ac = x_db.
        assert parity_system(alternating_cycle(4)) is None

    def test_entries_of_a_crossing_free_pair(self):
        g = ReebGraph.build({"a": 0, "c": 0, "b": 1, "d": 1}, [("a", "b"), ("c", "d")])
        sides = parity_system(g)
        # One component links x_ac and x_bd; each placement forces its root
        # the same way on both levels, and the opposite placements force the
        # opposite value.
        (j_a, root, side_a), = sides[0][0]
        (j_b, root_b, side_b), = sides[1][0]
        assert (j_a, j_b, root, side_a) == (1, 1, root_b, side_b)
        assert sides[0][1] == [(0, root, 1 - side_a)]
        assert sides[1][1] == [(0, root, 1 - side_b)]

    def test_shared_endpoints_give_no_entries(self):
        # A star and parallel edges: every pair of edges shares an endpoint.
        g = ReebGraph.build({"a": 0, "b": 1, "c": 1, "d": 1}, [("a", "b"), ("a", "c"), ("a", "d"), ("a", "b")])
        assert parity_system(g) == [[[]], [[], [], []]]

    @settings(max_examples=300, deadline=None)
    @given(leveled_graphs())
    def test_matches_the_reference_builder(self, g2):
        # The one pass may name and orient components differently, and list
        # a row's entries in another order; nothing else may differ.
        lev = levels(g2)
        ref = _parity_system(lev.by_level(), _strip_edges(g2, lev))
        sides = parity_system(g2)
        assert (sides is None) == (ref is None)
        if ref is not None:
            assert normalized(sides) == normalized(ref)


def suffix_tables(g2):
    """Per level, the odd-cycle count and entries of the strips at or above it."""
    lev = levels(g2)
    return parity_tables(lev.by_level(), _strip_edges(g2, lev))[:2]


def suffix_bound(tables, level: int, order) -> int:
    """The suffix bound once level ``level``'s vertices are placed, by index,
    left to right in ``order``, as the search reads it."""
    odd, sides = tables
    placed = [False] * len(order)
    orient: dict[int, int] = {}
    trail: list[int] = []
    bad = odd[level]
    for i in order:
        bad += _orient(sides[level][i], placed, orient, trail)
        placed[i] = True
    return bad


def canonical(rows):
    """Suffix-table rows with each component renamed by its first appearance."""
    names: dict[int, int] = {}
    return [[(j, names.setdefault(c, len(names)), side) for j, c, side in row] for row in rows]


class TestSuffixTables:
    def test_odd_cycles_of_chained_alternating_four_cycles(self):
        # Strips 0 and 1 are each an alternating 4-cycle through the pair
        # (b, d) of level 1, so both odd cycles lie in one component.
        g = ReebGraph.build({"a": 0, "c": 0, "b": 1, "d": 1, "e": 2, "f": 2},
                            [("a", "b"), ("a", "d"), ("c", "b"), ("c", "d"),
                             ("b", "e"), ("b", "f"), ("d", "e"), ("d", "f")])
        assert suffix_tables(g)[0] == [1, 1, 0]

    def test_odd_cycles_of_two_alternating_four_cycles_joined_below(self):
        # Strip 1 holds two alternating 4-cycles, one through the pair (b, d)
        # of level 1 and one through (g, h).  Strip 0 links both pairs to
        # (a, c), which joins the two odd components into one.
        g = ReebGraph.build({"a": 0, "c": 0, "b": 1, "d": 1, "g": 1, "h": 1,
                             "e": 2, "f": 2, "p": 2, "q": 2},
                            [("b", "e"), ("b", "f"), ("d", "e"), ("d", "f"),
                             ("g", "p"), ("g", "q"), ("h", "p"), ("h", "q"),
                             ("a", "b"), ("c", "d"), ("a", "g"), ("c", "h")])
        assert suffix_tables(g)[0] == [1, 2, 0]

    def test_level_entries_come_only_from_the_strips_above(self):
        # Strip 1 links the pairs (b, d) and (b, g) of level 1 to (e, f).
        # Strip 0 links (d, g) to (a, c), but it lies below level 1, and its
        # component holds only one pair of level 0.
        g = ReebGraph.build({"a": 0, "c": 0, "b": 1, "d": 1, "g": 1, "e": 2, "f": 2},
                            [("b", "e"), ("d", "f"), ("g", "f"), ("a", "d"), ("c", "g")])
        odd, sides = suffix_tables(g)
        assert odd == [0, 0, 0]
        assert sides[0] == [[], []]
        assert sides[2] == [[], []]
        (j_bd, root, side_bd), (j_bg, root_bg, side_bg) = sides[1][0]
        assert (j_bd, j_bg, root_bg) == (1, 2, root)
        # x_bd = x_ef = x_bg, so "b left of d" and "b left of g" force the
        # root the same way; d and g have no pair with each other.
        assert side_bd == side_bg
        assert sides[1][1] == [(0, root, 1 - side_bd)]
        assert sides[1][2] == [(0, root, 1 - side_bg)]

    @settings(max_examples=200, deadline=None)
    @given(leveled_graphs())
    def test_each_level_sees_only_the_graph_above_it(self, g2):
        lev = levels(g2)
        level_vertices, strips = lev.by_level(), _strip_edges(g2, lev)
        odd, sides, _ = parity_tables(level_vertices, strips)
        for l in range(lev.count):
            top_odd, top_sides, _ = parity_tables(level_vertices[l:], strips[l:])
            assert odd[l:] == top_odd
            assert canonical(sides[l]) == canonical(top_sides[0])

    @settings(max_examples=200, deadline=None)
    @given(leveled_graphs())
    def test_components_are_numbered_once_over_all_levels(self, g2):
        # The search keeps one orientation per round, of sum(W^2) entries,
        # for every level: a suffix component named on two levels would be
        # oriented already when the second level is entered.
        lev = levels(g2)
        level_vertices = lev.by_level()
        _, suffix_sides, sides = parity_tables(level_vertices, _strip_edges(g2, lev))
        size = sum(len(vs) ** 2 for vs in level_vertices)
        level_of: dict[int, int] = {}
        for l, rows in enumerate(suffix_sides):
            for row in rows:
                for _, c, _ in row:
                    assert level_of.setdefault(c, l) == l, (c, level_of[c], l)
                    assert 0 <= c < size
        for rows in sides or []:
            for row in rows:
                assert all(0 <= c < size for _, c, _ in row)

    @settings(max_examples=300, deadline=None)
    @given(leveled_graphs(max_width=4))
    def test_bound_never_exceeds_the_crossings_above(self, g2):
        lev = levels(g2)
        level_vertices, strips = lev.by_level(), _strip_edges(g2, lev)
        perms = [list(itertools.permutations(range(len(vs)))) for vs in level_vertices]
        assume(math.prod(map(len, perms)) <= 3_000)
        tables = suffix_tables(g2)
        bounds = [{p: suffix_bound(tables, l, p) for p in ps} for l, ps in enumerate(perms)]
        for combo in itertools.product(*perms):
            pos = {vs[i]: k for vs, order in zip(level_vertices, combo) for k, i in enumerate(order)}
            above = 0
            for l in range(lev.count - 1, -1, -1):
                if l < len(strips):
                    above += brute_strip_crossings([(pos[lo], pos[hi]) for lo, hi in strips[l]])
                assert above >= bounds[l][combo[l]]


def assert_matches_reference(g) -> tuple[ExactResult, ExactResult]:
    res = exact_rgcn(g)
    ref = reference_exact_rgcn(g)
    assert (res.count, res.ordering) == (ref.count, ref.ordering)
    assert res.count == enumerate_min_crossings(g)
    return res, ref


class TestMirrorCutBoundaries:
    def test_every_level_of_width_one(self):
        # No level has two vertices, so there is no mirror level.
        g = ReebGraph.build({"a": 0, "b": 1, "c": 2}, [("a", "b"), ("b", "c"), ("a", "b")])
        res, _ = assert_matches_reference(g)
        assert res.count == 0
        assert res.states == 3

    def test_mirror_level_is_the_top_level(self):
        g = ReebGraph.build({"a": 0, "b": 1, "c": 2, "d": 2, "e": 2},
                            [("a", "b"), ("b", "c"), ("b", "d"), ("b", "e")])
        res, _ = assert_matches_reference(g)
        assert res.ordering.orders[-1] == ("c", "d", "e")

    def test_mirror_level_above_a_run_of_width_one_levels(self):
        # K_{3,2} between levels 3 and 4, reached through a chain.
        g = ReebGraph.build(
            {"a": 0, "b": 1, "c": 2, "d": 3, "e": 3, "f": 3, "g": 4, "h": 4},
            [("a", "b"), ("b", "c"), ("c", "d"), ("c", "e"), ("c", "f")]
            + [(x, y) for x in "def" for y in "gh"],
        )
        res, ref = assert_matches_reference(g)
        assert res.count == 3
        first, last = res.ordering.orders[3][0], res.ordering.orders[3][-1]
        assert first < last
        # The rounds below 3 fail; the cut skips the mirrored half of level
        # 3's orders, which the reference explores.
        assert res.states < ref.states

    def test_vertices_without_lower_neighbors(self):
        # c and f are local minima above the bottom level.
        g = ReebGraph.build(
            {"a": 0, "b": 1, "c": 1, "d": 2, "e": 2, "f": 2, "g": 3},
            [("a", "b"), ("b", "d"), ("b", "e"), ("c", "d"), ("c", "e"), ("f", "g"), ("d", "g")],
        )
        assert assert_matches_reference(g)[0].count == 1

    def test_parallel_edges_tie_lower_positions(self):
        g = ReebGraph.build(
            {"a": 0, "b": 0, "c": 1, "d": 1, "e": 1, "f": 2},
            [("a", "c"), ("a", "c"), ("a", "d"), ("b", "d"), ("b", "c"), ("b", "e"), ("b", "e"),
             ("c", "f"), ("d", "f"), ("e", "f")],
        )
        assert_matches_reference(g)
