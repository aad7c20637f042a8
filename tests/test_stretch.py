from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reebdraw import (
    DegeneracyError,
    Drawing,
    GraphStructureError,
    ReebError,
    ReebGraph,
    geometry,
    count_crossings_geometric,
    edge_partial_order,
    layout_caterpillar,
    layout_path,
    per_level_order,
    stretch,
    vertex_insertion_order,
)
from reebdraw.jsonio import serialize_drawing
from reebdraw.stretch import _edge_partial_order_unchecked, _vertex_insertion_order_unchecked

from helpers import (
    curved_copy,
    random_caterpillar_graph,
    random_path_graph,
    reference_edge_partial_order,
    reference_stretch,
    reference_vertex_insertion_order,
)


def vertical_pair():
    g = ReebGraph.build({"a": 0, "b": 2, "c": 0, "d": 2}, [("a", "b"), ("c", "d")])
    d = Drawing(graph=g, x={"a": Fraction(0), "b": Fraction(0),
                            "c": Fraction(1), "d": Fraction(1)})
    return g, d


class TestEdgePartialOrder:
    def test_left_edge_precedes_right(self):
        g, d = vertical_pair()
        order = edge_partial_order(d)
        assert order.left_of[0] == (1,)
        assert order.left_of[1] == ()

    def test_disjoint_spans_incomparable(self):
        g = ReebGraph.build({"a": 0, "b": 1, "c": 2, "d": 3},
                            [("a", "b"), ("c", "d")])
        d = Drawing(graph=g, x={"a": Fraction(0), "b": Fraction(5),
                                "c": Fraction(0), "d": Fraction(5)})
        order = edge_partial_order(d)
        assert order.left_of == ((), ())

    def test_three_nested_curves_form_a_chain(self):
        g = ReebGraph.build(
            {"a1": 0, "b1": 3, "a2": 0, "b2": 3, "a3": 0, "b3": 3},
            [("a1", "b1"), ("a2", "b2"), ("a3", "b3")],
        )
        bends = (
            ((Fraction(-1), Fraction(1)),),
            ((Fraction(1), Fraction(2)),),
            ((Fraction(3), Fraction(1)),),
        )
        d = Drawing(
            graph=g,
            x={"a1": Fraction(0), "b1": Fraction(0), "a2": Fraction(1), "b2": Fraction(1),
               "a3": Fraction(2), "b3": Fraction(2)},
            bends=bends,
        )
        order = edge_partial_order(d)
        assert 1 in order.left_of[0] and 2 in order.left_of[1] and 2 in order.left_of[0]

    def test_crossing_drawing_rejected(self):
        g = ReebGraph.build({"a": 0, "b": 0, "c": 1, "d": 1}, [("a", "d"), ("b", "c")])
        d = Drawing(graph=g, x={"a": Fraction(0), "b": Fraction(1),
                                "c": Fraction(0), "d": Fraction(1)})
        with pytest.raises(GraphStructureError) as exc:
            edge_partial_order(d)
        assert exc.value.code == "has-crossings"


class TestVertexInsertionOrder:
    def test_single_edge_lower_left_first(self):
        g = ReebGraph.build({"a": 0, "b": 1}, [("a", "b")])
        d = Drawing(graph=g, x={"a": Fraction(0), "b": Fraction(1)})
        order = vertex_insertion_order(d, edge_partial_order(d))
        assert order.sequence == ("a", "b")

    def test_path_layout_inserts_left_to_right(self):
        rng = random.Random(1)
        g = random_path_graph(7, rng)
        d = layout_path(g)
        order = vertex_insertion_order(d, edge_partial_order(d))
        assert [d.x[v] for v in order.sequence] == sorted(d.x.values())

    def test_terminates_on_curved_planar_drawing(self):
        rng = random.Random(2)
        g = random_caterpillar_graph(10, rng)
        d = curved_copy(layout_caterpillar(g), rng)
        order = vertex_insertion_order(d, edge_partial_order(d))
        assert len(order.sequence) == g.vertex_count


class TestStretch:
    def test_already_straight_keeps_level_orders(self):
        rng = random.Random(3)
        g = random_caterpillar_graph(8, rng)
        d = layout_caterpillar(g)
        out = stretch(d)
        assert per_level_order(out) == per_level_order(d)
        assert count_crossings_geometric(out).count == 0

    def test_curved_drawing_straightens(self):
        rng = random.Random(4)
        g = random_caterpillar_graph(9, rng)
        d = curved_copy(layout_caterpillar(g), rng)
        out = stretch(d)
        assert all(not b for b in out.bends)
        assert count_crossings_geometric(out).count == 0
        assert per_level_order(out) == per_level_order(d)

    def test_s_shaped_legs(self):
        g = ReebGraph.build(
            {"s1": 0, "s2": 2, "s3": 1, "l1": 4, "l2": -2},
            [("s1", "s2"), ("s2", "s3"), ("s2", "l1"), ("s1", "l2")],
        )
        d0 = layout_caterpillar(g)
        sx = dict(d0.x)
        bends = [() for _ in g.edges]
        leg = g.edges.index(tuple(sorted(("s2", "l1"))))
        # an S-shaped leg: wiggle left then right on the way up
        x2 = sx["s2"]
        bends[leg] = ((x2 - Fraction(1, 3), Fraction(5, 2)), (x2 + Fraction(1, 3), Fraction(7, 2)))
        d = Drawing(graph=g, x=sx, bends=tuple(bends))
        assert count_crossings_geometric(d).count == 0
        out = stretch(d)
        assert all(not b for b in out.bends)
        assert count_crossings_geometric(out).count == 0

    def test_idempotent_on_level_orders(self):
        rng = random.Random(5)
        g = random_caterpillar_graph(9, rng)
        d = curved_copy(layout_caterpillar(g), rng)
        once = stretch(d)
        twice = stretch(once)
        assert per_level_order(once) == per_level_order(twice)

    def test_crossing_input_rejected(self):
        g = ReebGraph.build({"a": 0, "b": 0, "c": 1, "d": 1}, [("a", "d"), ("b", "c")])
        d = Drawing(graph=g, x={"a": Fraction(0), "b": Fraction(1),
                                "c": Fraction(0), "d": Fraction(1)})
        with pytest.raises(GraphStructureError) as exc:
            stretch(d)
        assert exc.value.code == "has-crossings"

    def test_parallel_edges_rejected(self):
        g = ReebGraph.build({"a": 0, "b": 1}, [("a", "b"), ("a", "b")])
        d = Drawing(
            graph=g,
            x={"a": Fraction(0), "b": Fraction(0)},
            bends=((), ((Fraction(1), Fraction(1, 2)),)),
        )
        with pytest.raises(GraphStructureError) as exc:
            stretch(d)
        assert exc.value.code == "parallel-edges"

    def test_output_partial_order_consistent_with_input(self):
        rng = random.Random(6)
        g = random_caterpillar_graph(8, rng)
        d = curved_copy(layout_caterpillar(g), rng)
        before = edge_partial_order(d)
        out = stretch(d)
        after = edge_partial_order(out)
        for i, succs in enumerate(before.left_of):
            for j in succs:
                # comparable pairs keep their direction
                assert i not in after.left_of[j]


def _outcome(fn, *args):
    """A result, or the class, code and message of the refusal."""
    try:
        return fn(*args)
    except ReebError as exc:
        return (type(exc), exc.code, str(exc))


_T = tuple(Fraction(k, 12) for k in (3, 4, 6, 8, 9))


@st.composite
def curved_caterpillars(draw):
    """Curved paths and caterpillars with heights, x values and bends on
    thirds, quarters and sixths, so that both integer scales exceed 1.

    Columns run spine vertex then its legs, so many drawings are crossing-free;
    small shifts and bends also give crossings, touches and coinciding edges,
    and one graph in six repeats an edge.
    """
    spine = draw(st.integers(min_value=2, max_value=6))
    legs = draw(st.lists(st.integers(min_value=0, max_value=spine - 1), max_size=4))
    cols = [[f"s{i}"] for i in range(spine)]
    edges = [(f"s{i}", f"s{i + 1}") for i in range(spine - 1)]
    for k, at in enumerate(legs):
        cols[at].append(f"l{k}")
        edges.append((f"s{at}", f"l{k}"))
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        edges.append(draw(st.sampled_from(edges)))
    names = [v for col in cols for v in col]
    heights = {v: Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from((1, 2, 3)))) for v in names}
    assume(all(heights[a] != heights[b] for a, b in edges))
    g = ReebGraph.build(heights, edges)
    unit = draw(st.sampled_from((Fraction(1), Fraction(1, 2), Fraction(2, 3))))
    xs = {v: i * unit + Fraction(draw(st.integers(-1, 1)), 4) for i, v in enumerate(names)}
    bends = []
    for i in range(len(g.edges)):
        lo, hi = g.lower_upper(i)
        ts = sorted(draw(st.lists(st.sampled_from(_T), max_size=2, unique=True)))
        bends.append(tuple(
            (xs[lo] + (xs[hi] - xs[lo]) * t + Fraction(draw(st.integers(-2, 2)), draw(st.sampled_from((2, 3, 6)))),
             heights[lo] + (heights[hi] - heights[lo]) * t)
            for t in ts
        ))
    try:
        return Drawing(graph=g, x=xs, bends=tuple(bends))
    except ReebError:
        assume(False)


class TestStretchOracle:
    @settings(max_examples=300, deadline=None)
    @given(curved_caterpillars())
    def test_matches_reference(self, d):
        out, ref = _outcome(stretch, d), _outcome(reference_stretch, d)
        if isinstance(ref, Drawing):
            assert isinstance(out, Drawing) and serialize_drawing(out) == serialize_drawing(ref)
        else:
            assert out == ref
        order = _outcome(_edge_partial_order_unchecked, d)
        assert order == _outcome(reference_edge_partial_order, d)
        if not isinstance(order, tuple):
            assert (_outcome(_vertex_insertion_order_unchecked, d, order)
                    == _outcome(reference_vertex_insertion_order, d, order))


def _record_calls(monkeypatch, name):
    """Record the arguments of every call to ``geometry.<name>`` made directly
    from ``reebdraw.stretch`` (not from the crossing counter, nor from inside
    another predicate)."""
    calls = []
    fn = getattr(geometry, name)

    def recorded(*args):
        if sys._getframe(1).f_globals["__name__"] == "reebdraw.stretch":
            calls.append(args)
        return fn(*args)

    monkeypatch.setattr(geometry, name, recorded)
    return calls


class TestStretchBoundaries:
    def test_offset_doubles_past_an_overlap(self):
        # u-w is straight; u-v bends at (2, 1).  The first candidate for v is
        # x = 2, where u-v would run over u-w and through w; doubling the
        # offset puts v at x = 3.
        g = ReebGraph.build({"u": 0, "w": 1, "v": 2}, [("u", "w"), ("u", "v")])
        d = Drawing(graph=g, x={"u": Fraction(0), "w": Fraction(1), "v": Fraction(3)},
                    bends=((), ((Fraction(2), Fraction(1)),)))
        out = stretch(d)
        assert out.x == {"u": 0, "w": 1, "v": 3}
        assert out == reference_stretch(d)

    def test_segment_and_vertex_at_an_end_height_are_tested(self, monkeypatch):
        # Inserted u, w, z, v.  New edge u-v spans y in [0, 1]; the drawn
        # segment w-z spans [1, 3] and ends at z = (2, 1): the closed ranges
        # meet at y = 1 only, and both z and w-z must still be tested.
        g = ReebGraph.build({"u": 1, "w": 3, "z": 1, "v": 0}, [("u", "w"), ("w", "z"), ("u", "v")])
        d = Drawing(graph=g, x={"u": Fraction(0), "w": Fraction(1), "z": Fraction(2), "v": Fraction(3)})
        segment_calls = _record_calls(monkeypatch, "classify_segments")
        vertex_calls = _record_calls(monkeypatch, "on_segment")
        out = stretch(d)
        assert out.x == {"u": 0, "w": 1, "z": 2, "v": 3}
        assert ((0, 1), (3, 0), (1, 3), (2, 1)) in segment_calls
        assert ((2, 1), (0, 1), (3, 0)) in vertex_calls

    def test_coincidence_message_names_the_unscaled_height(self):
        # Two straight a-b edges coincide; the midpoint of their span is
        # (1/3 + 5/2) / 2 = 17/12, on unscaled coordinates.
        g = ReebGraph.build({"a": Fraction(1, 3), "b": Fraction(5, 2)}, [("a", "b"), ("a", "b")])
        d = Drawing(graph=g, x={"a": Fraction(1, 2), "b": Fraction(5, 3)})
        with pytest.raises(DegeneracyError) as exc:
            _edge_partial_order_unchecked(d)
        assert str(exc.value) == "edges 0 and 1 coincide at height 17/12"
        assert _outcome(reference_edge_partial_order, d) == (DegeneracyError, "degenerate", str(exc.value))


class TestStretchWork:
    # classify_segments / on_segment calls made by the all-pairs placement
    # check on this input; the windowed check must make under a tenth of each.
    ALL_PAIRS_SEGMENT_TESTS = 19733
    ALL_PAIRS_VERTEX_TESTS = 19710

    def test_placement_tests_only_nearby_segments_and_vertices(self, monkeypatch):
        rng = random.Random(1)
        g = random_caterpillar_graph(200, rng)
        d = curved_copy(layout_caterpillar(g), rng)
        segment_calls = _record_calls(monkeypatch, "classify_segments")
        vertex_calls = _record_calls(monkeypatch, "on_segment")
        out = stretch(d)
        assert per_level_order(out) == per_level_order(d)
        assert len(segment_calls) < self.ALL_PAIRS_SEGMENT_TESTS // 10
        assert len(vertex_calls) < self.ALL_PAIRS_VERTEX_TESTS // 10
