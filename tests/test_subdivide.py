from __future__ import annotations

import random
from fractions import Fraction

import pytest

from reebdraw import (
    Drawing,
    GraphStructureError,
    LayoutError,
    ReebError,
    ReebGraph,
    count_crossings_geometric,
    exact_rgcn,
    levels,
    realize_layered,
    subdivide,
    subdivide_drawing,
    unsubdivide_drawing,
    validate,
)

from reebdraw.jsonio import serialize_drawing
from reebdraw.subdivide import _leveled

from helpers import (
    curved_copy,
    deep_general_graph,
    random_connected_graph,
    random_cycle_graph,
    random_ordering,
    reference_subdivide_drawing,
)


def test_long_edge_becomes_path_with_one_vertex_per_skipped_level():
    heights = {"a": 0, "b": 1, "c": 2, "d": 3, "e": 4, "f": 5}
    # a-f spans level ranks 0..5, so four generated vertices appear on ranks 1..4.
    g = ReebGraph.build(
        heights,
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("a", "f")],
    )
    g2, m = subdivide(g)
    long_edge = g.edges.index(("a", "f"))
    path = m.paths[long_edge]
    assert len(path) == 6
    ranks = [int(g2.vertices[v]) for v in path]
    assert ranks == [0, 1, 2, 3, 4, 5]


def test_consecutive_edge_untouched():
    g = ReebGraph.build({"a": 0, "b": 1}, [("a", "b")])
    g2, m = subdivide(g)
    assert g2.vertex_count == 2 and tuple(m.owner) == ()


def test_generated_count_matches_strip_recount():
    rng = random.Random(9)
    for _ in range(30):
        g = random_connected_graph(rng.randint(2, 9), rng)
        lev = levels(g)
        expected_extra = sum(
            abs(lev.level[a] - lev.level[b]) - 1 for a, b in g.edges
        )
        g2, m = subdivide(g)
        assert g2.vertex_count == g.vertex_count + expected_extra
        assert len(m.owner) == expected_extra
        assert validate(g2).is_connected
        # every output edge spans consecutive levels
        lev2 = levels(g2)
        assert all(abs(lev2.level[a] - lev2.level[b]) == 1 for a, b in g2.edges)


def test_heights_become_level_ranks():
    g = ReebGraph.build({"a": "-7/2", "b": "1/3", "c": 12}, [("a", "b"), ("b", "c")])
    g2, _ = subdivide(g)
    assert g2.vertices == {"a": Fraction(0), "b": Fraction(1), "c": Fraction(2)}


def test_idempotent_on_leveled_graphs():
    g = ReebGraph.build({"a": 0, "b": 1, "c": 2}, [("a", "b"), ("b", "c")])
    g2, m = subdivide(g)
    g3, m3 = subdivide(g2)
    assert tuple(m3.owner) == ()
    assert g3.vertices == g2.vertices and g3.edges == g2.edges


def test_emitted_view_equals_an_independent_one():
    # The warm start breaks ties by the order of the strip and neighbor
    # lists, so the view ``subdivide`` emits must equal, lists in order, the
    # one built from the subdivided graph's own levels.
    rng = random.Random(19)
    graphs = [random_connected_graph(rng.randint(1, 9), rng, extra=rng.randint(0, 5)) for _ in range(80)]
    graphs += [random_cycle_graph(rng.randint(2, 9), rng) for _ in range(20)]
    graphs.append(deep_general_graph())
    shared = parallel = 0
    for g in graphs:
        shared += len(set(g.vertices.values())) < g.vertex_count
        parallel += len(set(g.edges)) < len(g.edges)
        g2, m = subdivide(g)
        view, ref = m.view, _leveled(g2, levels(g2))
        assert view.lev == ref.lev and list(view.lev.level.items()) == list(ref.lev.level.items())
        assert view.strips == ref.strips
        assert list(view.down.items()) == list(ref.down.items())
        assert list(view.up.items()) == list(ref.up.items())
        assert view.level_vertices == levels(g2).by_level() and view.index == {
            v: vs.index(v) for vs in view.level_vertices for v in vs}
        assert m.level_heights == levels(g).level_heights
    assert shared > 20 and parallel > 5


def test_disconnected_rejected():
    g = ReebGraph.build({"a": 0, "b": 1, "c": 0, "d": 1}, [("a", "b"), ("c", "d")])
    with pytest.raises(LayoutError) as exc:
        subdivide(g)
    assert exc.value.code == "disconnected"


def test_generated_ids_avoid_collisions():
    g = ReebGraph.build({"__sub_0_1": 0, "b": 2, "mid": 1}, [("__sub_0_1", "b"), ("__sub_0_1", "mid")])
    g2, m = subdivide(g)
    assert len(set(g2.vertices)) == g2.vertex_count


def _int_ids(g: ReebGraph) -> ReebGraph:
    """``g`` with its ids renamed to the ints 0..n-1 in id order."""
    num = {v: k for k, v in enumerate(sorted(g.vertices))}
    return ReebGraph({num[v]: h for v, h in g.vertices.items()}, tuple((num[a], num[b]) for a, b in g.edges))


class TestIntegerIds:
    def test_generated_ids_continue_after_the_largest(self):
        heights = {3: 0, 7: 3, 5: 1, 2: 2}
        edges = [(3, 7), (3, 5), (7, 5), (2, 3)]
        _, m = subdivide(ReebGraph.build(heights, edges))
        assert (tuple(m.owner), m.paths) == ((8, 9, 10, 11), ((3, 8, 9, 7), (3, 5), (5, 10, 7), (3, 11, 2)))
        # The same generation order as the prefixed names of string ids.
        _, named = subdivide(ReebGraph.build({str(v): h for v, h in heights.items()},
                                             [(str(a), str(b)) for a, b in edges]))
        assert list(m.owner.values()) == list(named.owner.values())
        assert tuple(named.owner) == ("__sub_0_1", "__sub_0_2", "__sub_2_2", "__sub_3_1")

    def test_int_ids_lay_out_like_their_names(self):
        from reebdraw import layout_auto, layout_cycle

        rng = random.Random(40)
        for i in range(120):
            cycle = i % 2 == 1
            g = random_cycle_graph(rng.randint(3, 9), rng) if cycle else random_connected_graph(rng.randint(2, 7), rng)
            renamed = _int_ids(g)
            assert exact_rgcn(renamed).count == exact_rgcn(g).count
            assert (count_crossings_geometric(layout_auto(renamed)).count
                    == count_crossings_geometric(layout_auto(g)).count)
            if cycle:
                assert (count_crossings_geometric(layout_cycle(renamed)).count
                        == count_crossings_geometric(layout_cycle(g)).count)


class TestDrawingTransforms:
    def test_unsubdivide_identity_when_nothing_generated(self):
        g = ReebGraph.build({"a": 0, "b": 1}, [("a", "b")])
        g2, m = subdivide(g)
        d2 = Drawing(graph=g2, x={"a": Fraction(0), "b": Fraction(1)})
        d = unsubdivide_drawing(d2, m)
        assert d.x == d2.x and d.bends == ((),)

    def test_interior_vertices_become_bends(self):
        g = ReebGraph.build({"lo": 0, "hi": 3}, [("lo", "hi")], )
        # connect through so the graph is connected: single long edge suffices
        g = ReebGraph.build({"lo": 0, "m1": 1, "m2": 2, "hi": 3},
                            [("lo", "m1"), ("m1", "m2"), ("m2", "hi"), ("lo", "hi")])
        g2, m = subdivide(g)
        ordering = random_ordering(g2, random.Random(0))
        d2 = realize_layered(g2, ordering)
        d = unsubdivide_drawing(d2, m)
        long_edge = g.edges.index(("hi", "lo")) if ("hi", "lo") in g.edges else g.edges.index(("lo", "hi"))
        assert len(d.bends[long_edge]) >= 2  # the two generated vertices survive as bends
        assert set(d.x) == set(g.vertices)

    def test_cut_points_interpolate_exactly(self):
        g = ReebGraph.build({"lo": 0, "a": 1, "b": 2, "hi": 3},
                            [("lo", "a"), ("a", "b"), ("b", "hi"), ("lo", "hi")])
        d = Drawing(
            graph=g,
            x={"lo": Fraction(0), "a": Fraction(-1), "b": Fraction(-1), "hi": Fraction(3)},
        )
        g2, m = subdivide(g)
        d2 = subdivide_drawing(d, g, m)
        long_edge = 3
        path = m.paths[long_edge]
        # straight segment from (0,0) to (3,3) cut at heights 1 and 2
        assert d2.x[path[1]] == Fraction(1)
        assert d2.x[path[2]] == Fraction(2)

    def test_crossing_count_preserved_both_ways(self):
        rng = random.Random(17)
        for _ in range(25):
            g = random_connected_graph(rng.randint(2, 7), rng)
            g2, m = subdivide(g)
            d2 = realize_layered(g2, random_ordering(g2, rng))
            n2 = count_crossings_geometric(d2).count
            d = unsubdivide_drawing(d2, m)
            assert count_crossings_geometric(d).count == n2
            d2_again = subdivide_drawing(d, g, m)
            assert count_crossings_geometric(d2_again).count == n2

    def test_round_trip_keeps_vertex_positions(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_connected_graph(rng.randint(2, 7), rng)
            g2, m = subdivide(g)
            d2 = realize_layered(g2, random_ordering(g2, rng))
            d = unsubdivide_drawing(d2, m)
            back = subdivide_drawing(d, g, m)
            assert {v: back.x[v] for v in g.vertices} == {v: d2.x[v] for v in g.vertices}

    def test_zero_crossing_drawing_stays_zero(self):
        rng = random.Random(5)
        from reebdraw import layout_path
        from helpers import random_path_graph

        g = random_path_graph(7, rng)
        d = curved_copy(layout_path(g), rng)
        g2, m = subdivide(g)
        d2 = subdivide_drawing(d, g, m)
        assert count_crossings_geometric(d2).count == 0

    def test_mismatched_map_rejected(self):
        g = ReebGraph.build({"a": 0, "b": 1}, [("a", "b")])
        other = ReebGraph.build({"x": 0, "y": 1}, [("x", "y")])
        _, m = subdivide(g)
        d_other = Drawing(graph=other, x={"x": Fraction(0), "y": Fraction(1)})
        with pytest.raises(GraphStructureError) as exc:
            unsubdivide_drawing(d_other, m)
        assert exc.value.code == "map-mismatch"


def _bent_drawing(g: ReebGraph, rng: random.Random) -> Drawing:
    """``g`` at random x, with up to four bends per edge: some at level
    heights strictly inside the edge's range, some at random heights."""
    heights = levels(g).level_heights
    while True:
        xs = {v: Fraction(rng.randint(-40, 40), rng.randint(1, 6)) for v in g.vertices}
        if len({(x, g.vertices[v]) for v, x in xs.items()}) == len(xs):
            break
    bends = []
    for i in range(len(g.edges)):
        lo, hi = (g.vertices[v] for v in g.lower_upper(i))
        inner = [h for h in heights if lo < h < hi]
        ys = set(rng.sample(inner, min(len(inner), rng.randint(0, 2))))
        ys.update(lo + (hi - lo) * Fraction(rng.randint(1, 999), 1000) for _ in range(rng.randint(0, 2)))
        bends.append(tuple((Fraction(rng.randint(-40, 40), rng.randint(1, 6)), y) for y in sorted(ys)))
    return Drawing(graph=g, x=xs, bends=tuple(bends))


def _outcome(fn, *args):
    """A result, or the class, code and message of the refusal."""
    try:
        return fn(*args)
    except ReebError as exc:
        return (type(exc), exc.code, str(exc))


class TestSubdivideDrawingOracle:
    """``subdivide_drawing`` reads the drawing's shared view of where edges
    pass the vertex heights; the verbatim parent cut each polyline itself."""

    @staticmethod
    def assert_same(d, g, m) -> bool:
        """Both give the same drawing, or the same refusal; True on a drawing."""
        got, ref = _outcome(subdivide_drawing, d, g, m), _outcome(reference_subdivide_drawing, d, g, m)
        assert got == ref
        if isinstance(got, tuple):
            return False
        assert list(got.x.items()) == list(ref.x.items())
        assert serialize_drawing(got) == serialize_drawing(ref)
        return True

    def test_bent_drawings(self):
        rng = random.Random(83)
        drawn = at_level = long_edges = 0
        for _ in range(300):
            g = random_connected_graph(rng.randint(2, 8), rng)
            m = subdivide(g).mapping
            d = _bent_drawing(g, rng)
            if self.assert_same(d, g, m):
                drawn += 1
                at_level += sum(y in m.level_heights for eb in d.bends for _, y in eb)
                long_edges += sum(len(p) > 4 for p in m.paths)
        assert drawn > 280 and at_level > 600 and long_edges > 200

    def test_unsubdivided_and_curved_drawings(self):
        # Unsubdividing turns every generated vertex into a bend at a level height.
        rng = random.Random(89)
        for _ in range(40):
            g = random_connected_graph(rng.randint(3, 9), rng, extra=rng.randint(0, 4))
            g2, m = subdivide(g)
            d = unsubdivide_drawing(realize_layered(g2, random_ordering(g2, rng)), m)
            self.assert_same(d, g, m)
            self.assert_same(curved_copy(d, rng), g, m)

    def test_refusals_match_reference(self):
        # Edge 1 (a-c) passes level 1 and edge 0 (a-b) passes none.
        g = ReebGraph.build({"a": 0, "b": 1, "c": 3}, [("a", "b"), ("a", "c")])
        d = Drawing(graph=g, x={"a": Fraction(0), "b": Fraction(1), "c": Fraction(-1)})
        m = subdivide(g).mapping
        other = ReebGraph.build({"x": 0, "y": 1}, [("x", "y")])
        d_other = Drawing(graph=other, x={"x": Fraction(0), "y": Fraction(1)})
        short = m._replace(paths=(m.paths[0], ("a", "c")), sub_edges=(m.sub_edges[0], (1,)))
        long = m._replace(sub_edges=(m.sub_edges[0] * 2, m.sub_edges[1]))
        cases = [
            ((d_other, other, m), "drawing does not match the subdivision's input graph"),
            ((d, other, m), "drawing does not match the subdivision's input graph"),
            ((d, g, short), "edge 1 cuts into 2 pieces, expected 1"),
            ((d, g, long), "edge 0 cuts into 1 pieces, expected 2"),
        ]
        for args, message in cases:
            refusal = (GraphStructureError, "map-mismatch", message)
            assert _outcome(subdivide_drawing, *args) == refusal
            assert _outcome(reference_subdivide_drawing, *args) == refusal


def test_oracle_agrees_before_and_after_subdividing():
    rng = random.Random(29)
    for _ in range(20):
        g = random_connected_graph(rng.randint(2, 8), rng)
        g2, _ = subdivide(g)
        assert exact_rgcn(g).count == exact_rgcn(g2).count
