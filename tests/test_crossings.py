from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reebdraw import (
    BudgetExhaustedError,
    DegeneracyError,
    Drawing,
    LevelOrdering,
    ReebError,
    ReebGraph,
    count_crossings_geometric,
    count_crossings_layered,
    exact_rgcn,
    realize_layered,
    subdivide,
)

from helpers import (
    alternating_cycle,
    enumerate_min_crossings,
    random_caterpillar_graph,
    random_connected_graph,
    random_cycle_graph,
    random_ordering,
    random_path_graph,
    reference_count_crossings_geometric,
)


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


class TestGeometricCounterOracle:
    @settings(max_examples=400, deadline=None)
    @given(coarse_drawings())
    def test_matches_reference_counter(self, d):
        assert _outcome(count_crossings_geometric, d) == _outcome(reference_count_crossings_geometric, d)

    def test_matches_reference_on_realized_orderings(self):
        rng = random.Random(41)
        for _ in range(20):
            g2, _ = subdivide(random_connected_graph(rng.randint(2, 8), rng))
            d = realize_layered(g2, random_ordering(g2, rng))
            assert count_crossings_geometric(d) == reference_count_crossings_geometric(d)


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
        with pytest.raises(Exception):
            count_crossings_layered(g, LevelOrdering((("a",), ("b",), ("c",))))

    def test_ordering_mismatch_rejected(self):
        g = ReebGraph.build({"a": 0, "b": 1}, [("a", "b")])
        with pytest.raises(Exception):
            count_crossings_layered(g, LevelOrdering((("a", "b"), ())))

    def test_mirror_symmetry(self):
        rng = random.Random(12)
        for _ in range(30):
            g2, _ = subdivide(random_connected_graph(rng.randint(2, 8), rng))
            ordering = random_ordering(g2, rng)
            assert count_crossings_layered(g2, ordering) == count_crossings_layered(
                g2, ordering.mirrored()
            )


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

    def test_witness_achieves_the_minimum(self):
        rng = random.Random(14)
        for _ in range(15):
            g = random_connected_graph(rng.randint(2, 7), rng)
            res = exact_rgcn(g)
            assert count_crossings_layered(res.graph, res.ordering) == res.count

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

    def test_budget_error_carries_bound(self):
        g = alternating_cycle(8)
        with pytest.raises(BudgetExhaustedError) as exc:
            exact_rgcn(g, budget=2)
        assert exc.value.best is not None
        assert exc.value.best >= 3

    def test_deterministic_witness(self):
        rng = random.Random(17)
        for _ in range(5):
            g = random_connected_graph(rng.randint(3, 7), rng)
            assert exact_rgcn(g).ordering == exact_rgcn(g).ordering

    def test_disconnected_rejected(self):
        g = ReebGraph.build({"a": 0, "b": 1, "c": 0, "d": 1}, [("a", "b"), ("c", "d")])
        with pytest.raises(Exception):
            exact_rgcn(g)
