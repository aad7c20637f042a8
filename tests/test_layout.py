from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebdraw import (
    BudgetExhaustedError,
    CrossingCertificate,
    InternalInvariantError,
    LayoutError,
    ReebGraph,
    ShapeClass,
    classify_shape,
    count_crossings_geometric,
    exact_rgcn,
    layout_auto,
    layout_bowtie,
    layout_caterpillar,
    layout_cycle,
    layout_heuristic,
    layout_path,
    levels,
    top_down_iteration_number,
)
from reebdraw.jsonio import parse_graph, serialize_drawing
from reebdraw.layout import _cycle_level_ordering, _decompose
from reebdraw.subdivide import subdivide

from helpers import (
    alternating_cycle,
    counted_geometric_calls,
    counted_warm_starts,
    distinct_height_cycle,
    enumerate_min_crossings,
    random_caterpillar_graph,
    random_connected_graph,
    random_cycle_graph,
    random_path_graph,
    random_wide_caterpillar_graph,
    reference_cycle_level_ordering,
    reference_layout_caterpillar,
    reference_top_down_iteration_number,
)

FIXTURES = Path(__file__).parent / "fixtures"


@st.composite
def caterpillars(draw):
    """Caterpillars of any spine degree: up to six legs per spine vertex.

    Spine edges rise or fall by 1 to 4.  A leg rises or falls by a multiple
    of 1/4, 1/8, 1/12 or 1/16, or repeats the height of an earlier leg on its
    vertex, so legs of equal height occur, and so do legs whose slope at
    offset 1/4 equals that of a spine edge leaving on their side in the same
    direction (|dy_leg| = r |dy_spine| / (4 k) for rank r of k).
    """
    spine = draw(st.integers(min_value=1, max_value=6))
    heights = {"s0": Fraction(draw(st.integers(-4, 4)))}
    edges = []
    for i in range(1, spine):
        step = draw(st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4)))
        heights[f"s{i}"] = heights[f"s{i - 1}"] + step
        edges.append((f"s{i - 1}", f"s{i}"))
    for i in range(spine):
        v = f"s{i}"
        legs: list[str] = []
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            w = f"l{len(heights) - spine}"
            if legs and draw(st.booleans()):
                heights[w] = heights[draw(st.sampled_from(legs))]
            else:
                dy = Fraction(draw(st.integers(1, 16)), draw(st.sampled_from((4, 8, 12, 16))))
                heights[w] = heights[v] + dy * draw(st.sampled_from((-1, 1)))
            legs.append(w)
            edges.append((v, w))
    if not edges:
        edges.append(("s0", "l0"))
        heights["l0"] = heights["s0"] + 1
    return ReebGraph.build(heights, edges)


@st.composite
def cycles_and_paths(draw):
    """Random cycles of 2-14 vertices with top levels 2-7, alternating cycles
    of 2-16 vertices, and paths, which every cycle routine must reject."""
    kind = draw(st.sampled_from(("cycle", "alternating", "path")))
    if kind == "alternating":
        return alternating_cycle(2 * draw(st.integers(min_value=1, max_value=8)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "path":
        return random_path_graph(draw(st.integers(min_value=2, max_value=8)), rng)
    n = draw(st.integers(min_value=2, max_value=14))
    return random_cycle_graph(n, rng, max_level=draw(st.integers(min_value=2, max_value=7)))


def unique_extrema_cycles(rng: random.Random, count: int) -> list[ReebGraph]:
    """``count`` random cycles with one topmost and one bottommost vertex."""
    out = []
    while len(out) < count:
        g = random_cycle_graph(rng.randint(4, 10), rng, max_level=6)
        per_level = levels(g).by_level()
        if len(per_level[0]) == len(per_level[-1]) == 1:
            out.append(g)
    return out


class TestLayoutPath:
    def test_two_vertices_at_columns_one_and_two(self):
        g = ReebGraph.build({"a": 0, "b": 1}, [("a", "b")])
        d = layout_path(g)
        assert sorted(d.x.values()) == [Fraction(1), Fraction(2)]

    def test_consecutive_columns(self):
        g = ReebGraph.build({"a": 0, "b": 2, "c": 1}, [("a", "b"), ("b", "c")])
        d = layout_path(g)
        assert d.x == {"a": Fraction(1), "b": Fraction(2), "c": Fraction(3)}

    def test_zero_crossings_on_random_paths(self):
        rng = random.Random(41)
        for _ in range(20):
            d = layout_path(random_path_graph(rng.randint(2, 8), rng))
            assert count_crossings_geometric(d).count == 0

    def test_non_path_rejected(self):
        g = alternating_cycle(4)
        with pytest.raises(LayoutError) as exc:
            layout_path(g)
        assert exc.value.code == "not-path"

    def test_certifies_once(self, monkeypatch):
        # layout_caterpillar and layout_auto reach layout_path on paths.
        import reebdraw.layout

        calls = counted_geometric_calls(monkeypatch, reebdraw.layout)
        rng = random.Random(43)
        for layout in (layout_path, layout_caterpillar, layout_auto):
            for _ in range(5):
                calls.clear()
                d = layout(random_path_graph(rng.randint(2, 8), rng))
                assert calls == [d]

    def test_refuses_a_drawing_that_fails_its_count(self, monkeypatch):
        import reebdraw.layout

        monkeypatch.setattr(reebdraw.layout, "count_crossings_geometric", lambda d: CrossingCertificate(1, ()))
        with pytest.raises(InternalInvariantError, match="path drawing is not crossing-free"):
            layout_path(random_path_graph(4, random.Random(1)))


class TestLayoutCaterpillar:
    def test_degenerate_caterpillar_matches_path_layout(self):
        g = ReebGraph.build({"a": 0, "b": 2, "c": 1}, [("a", "b"), ("b", "c")])
        assert layout_caterpillar(g).x == layout_path(g).x

    def test_spine_with_legs_has_zero_crossings(self):
        g = ReebGraph.build(
            {"s1": 0, "s2": 2, "s3": 1, "s4": 3, "u1": 3, "d1": -1, "u2": 5},
            [("s1", "s2"), ("s2", "s3"), ("s3", "s4"),
             ("s2", "u1"), ("s3", "d1"), ("s4", "u2")],
        )
        assert count_crossings_geometric(layout_caterpillar(g)).count == 0

    def test_zero_crossings_on_random_caterpillars(self):
        rng = random.Random(42)
        for _ in range(30):
            g = random_caterpillar_graph(rng.randint(2, 12), rng)
            d = layout_caterpillar(g)
            assert count_crossings_geometric(d).count == 0
            assert list(d.x.items()) == list(reference_layout_caterpillar(g).x.items())

    def test_refuses_a_drawing_that_fails_its_count(self, monkeypatch):
        import reebdraw.layout

        g = ReebGraph.build({"s1": 0, "s2": 2, "s3": 1, "u1": 3}, [("s1", "s2"), ("s2", "s3"), ("s2", "u1")])
        monkeypatch.setattr(reebdraw.layout, "count_crossings_geometric", lambda d: CrossingCertificate(1, ()))
        with pytest.raises(InternalInvariantError, match=r"^caterpillar drawing is not crossing-free$"):
            layout_caterpillar(g)

    def test_overloaded_spine_vertex_drawn_crossing_free(self):
        g = ReebGraph.build(
            {"s1": 0, "s2": 1, "s3": 0, "l1": 2, "l2": 3},
            [("s1", "s2"), ("s2", "s3"), ("s2", "l1"), ("s2", "l2")],
        )
        assert count_crossings_geometric(layout_caterpillar(g)).count == 0

    def test_leg_collinear_with_spine_edge_at_offset_one_quarter(self):
        # s2 is a local minimum of the spine s1-s2-s3, so its leg leans right
        # next to the rising spine edge; at offset 1/4 the leg's slope (1/4
        # over 1) equals the spine edge's (1 over 4), so the offset halves.
        g = ReebGraph.build(
            {"s1": 4, "s2": 0, "s3": 4, "l1": 1, "t1": 5, "t3": 5},
            [("s1", "s2"), ("s2", "s3"), ("s2", "l1"), ("s1", "t1"), ("s3", "t3")],
        )
        d = layout_caterpillar(g)
        assert d.x["l1"] == d.x["s2"] + Fraction(1, 8)
        assert count_crossings_geometric(d).count == 0
        assert d.x == reference_layout_caterpillar(g).x

    def test_certifies_once(self, monkeypatch):
        import reebdraw.layout

        calls = counted_geometric_calls(monkeypatch, reebdraw.layout)
        rng = random.Random(96)
        for _ in range(10):
            calls.clear()
            layout_caterpillar(random_wide_caterpillar_graph(rng.randint(2, 6), rng))
            assert len(calls) == 1

    @settings(max_examples=300, deadline=None)
    @given(caterpillars())
    def test_any_spine_degree_is_crossing_free(self, g):
        # Byte-identical to the reference wherever it draws (spine degree <= 3).
        d = layout_caterpillar(g)
        assert count_crossings_geometric(d).count == 0
        try:
            expected = reference_layout_caterpillar(g)
        except LayoutError as exc:
            assert exc.code == "degree"
            return
        assert list(d.x.items()) == list(expected.x.items())

    def test_paths_and_spines_take_one_walk(self, monkeypatch):
        import reebdraw.core
        import reebdraw.layout

        walks = []
        walk = reebdraw.core._walk
        for module in (reebdraw.core, reebdraw.layout):
            monkeypatch.setattr(module, "_walk", lambda *args: walks.append(args) or walk(*args))
        path = random_path_graph(6, random.Random(7))
        caterpillar = random_caterpillar_graph(9, random.Random(91))
        assert classify_shape(caterpillar) is ShapeClass.CATERPILLAR
        for call, g in ((layout_path, path), (layout_caterpillar, caterpillar), (classify_shape, caterpillar)):
            walks.clear()
            call(g)
            assert walks, call.__name__

    def test_each_layout_classifies_once(self, monkeypatch):
        # Work guard: the public layouts keep their shape guards, and what
        # they dispatch to does not classify again.  On this caterpillar
        # ``layout_auto`` classified 3 times and walked its spine 4 times.
        import reebdraw.core
        import reebdraw.layout

        shapes, walks = [], []
        classify, walk = reebdraw.core.classify_shape, reebdraw.core._walk
        for module in (reebdraw.core, reebdraw.layout):
            monkeypatch.setattr(module, "classify_shape", lambda g: shapes.append(g) or classify(g))
            monkeypatch.setattr(module, "_walk", lambda *args: walks.append(args) or walk(*args))
        caterpillar = random_caterpillar_graph(9, random.Random(91))
        for call, g, walked in ((layout_auto, caterpillar, 2), (layout_caterpillar, caterpillar, 2),
                                (layout_bowtie, alternating_cycle(6), 0), (layout_auto, alternating_cycle(6), 0),
                                (layout_cycle, random_cycle_graph(2, random.Random(3)), 0)):
            shapes.clear()
            walks.clear()
            call(g)
            assert (shapes, len(walks)) == ([g], walked), call.__name__

    def test_two_legs_same_side_on_end_vertex(self):
        g = ReebGraph.build(
            {"s1": 1, "s2": 0, "l1": 3, "l2": 2},
            [("s1", "s2"), ("s1", "l1"), ("s1", "l2")],
        )
        assert count_crossings_geometric(layout_caterpillar(g)).count == 0


class TestTopDownIterationNumber:
    def test_two_parallel_edges_is_one(self):
        g = ReebGraph.build({"a": 0, "b": 1}, [("a", "b"), ("a", "b")])
        dec = top_down_iteration_number(g)
        assert dec.iteration_count == 1
        assert len(dec.keys) == 2

    def test_consecutive_top_visits_collapse_into_one_run(self):
        # Two top visits separated only by a mid-level vertex share a run, so
        # the cycle alternates just once.
        g = ReebGraph.build(
            {"t1": 2, "m1": 1, "t2": 2, "b1": 0},
            [("t1", "m1"), ("m1", "t2"), ("t2", "b1"), ("b1", "t1")],
        )
        dec = top_down_iteration_number(g)
        assert dec.iteration_count == 1

    def test_true_double_alternation(self):
        # top, down to bottom, back to top, down to bottom: two alternations.
        g = ReebGraph.build(
            {"t1": 2, "m1": 1, "b1": 0, "m2": 1, "t2": 2, "m3": 1, "b2": 0, "m4": 1},
            [("t1", "m1"), ("m1", "b1"), ("b1", "m2"), ("m2", "t2"),
             ("t2", "m3"), ("m3", "b2"), ("b2", "m4"), ("m4", "t1")],
        )
        assert top_down_iteration_number(g).iteration_count == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_alternating_cycle_has_k_equal_n(self, n):
        dec = top_down_iteration_number(alternating_cycle(2 * n))
        assert dec.iteration_count == n

    def test_keys_alternate_and_paths_partition(self):
        rng = random.Random(6)
        for _ in range(30):
            g = random_cycle_graph(rng.randint(3, 10), rng)
            dec = top_down_iteration_number(g)
            assert len(dec.keys) == 2 * dec.iteration_count
            lev = levels(g)
            for i, key in enumerate(dec.keys):
                expected = dec.top if i % 2 == 0 else 0
                assert lev.level[key] == expected
            interior = [v for path in dec.paths for v in path[1:-1]]
            assert sorted(interior + list(dec.keys)) == sorted(g.vertices)

    def test_non_cycle_rejected(self):
        g = ReebGraph.build({"a": 0, "b": 1}, [("a", "b")])
        with pytest.raises(LayoutError):
            top_down_iteration_number(g)

    @settings(max_examples=300, deadline=None)
    @given(cycles_and_paths())
    def test_matches_the_two_scan_reference(self, g):
        try:
            expected = reference_top_down_iteration_number(g)
        except LayoutError as exc:
            with pytest.raises(LayoutError) as got:
                top_down_iteration_number(g)
            assert got.value.code == exc.code
            return
        assert top_down_iteration_number(g) == expected


class TestLayoutBowtie:
    @pytest.mark.parametrize("total,expected", [(2, 0), (4, 1), (6, 2), (8, 3)])
    def test_counts(self, total, expected):
        d = layout_bowtie(alternating_cycle(total))
        assert count_crossings_geometric(d).count == expected

    @pytest.mark.parametrize("total", [4, 6, 8])
    def test_matches_enumeration_minimum(self, total):
        g = alternating_cycle(total)
        assert count_crossings_geometric(layout_bowtie(g)).count == enumerate_min_crossings(g)

    def test_closing_edge_vertical(self):
        g = alternating_cycle(6)
        d = layout_bowtie(g)
        vertical = [
            i for i in range(len(g.edges))
            if d.x[g.edges[i][0]] == d.x[g.edges[i][1]] and not d.bends[i]
        ]
        assert len(vertical) == 2  # the turn edge and the closing edge

    def test_refuses_a_drawing_that_fails_its_count(self, monkeypatch):
        import reebdraw.layout

        count = reebdraw.layout.count_crossings_geometric
        monkeypatch.setattr(reebdraw.layout, "count_crossings_geometric",
                            lambda d: CrossingCertificate(count(d).count + 1, ()))
        with pytest.raises(InternalInvariantError, match=r"^bowtie emitted 3 crossings, expected 2$"):
            layout_bowtie(alternating_cycle(6))

    def test_three_level_cycle_rejected(self):
        g = ReebGraph.build({"a": 0, "b": 1, "c": 2, "d": 1},
                            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        with pytest.raises(LayoutError) as exc:
            layout_bowtie(g)
        assert exc.value.code == "not-alternating"


class TestLayoutCycle:
    def test_unique_extrema_gives_zero(self):
        g = ReebGraph.build({"a": 0, "b": 1, "c": 2, "d": 1},
                            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        assert count_crossings_geometric(layout_cycle(g)).count == 0

    def test_k_two_gives_one(self):
        g = ReebGraph.build(
            {"t1": 2, "m1": 1, "b1": 0, "m2": 1, "t2": 2, "m3": 1, "b2": 0, "m4": 1},
            [("t1", "m1"), ("m1", "b1"), ("b1", "m2"), ("m2", "t2"),
             ("t2", "m3"), ("m3", "b2"), ("b2", "m4"), ("m4", "t1")],
        )
        assert top_down_iteration_number(g).iteration_count == 2
        assert count_crossings_geometric(layout_cycle(g)).count == 1

    def test_emits_exactly_iterations_minus_one(self):
        rng = random.Random(77)
        for _ in range(40):
            g = random_cycle_graph(rng.randint(3, 12), rng)
            k = top_down_iteration_number(g).iteration_count
            assert count_crossings_geometric(layout_cycle(g)).count == k - 1

    def test_certifies_once(self, monkeypatch):
        import reebdraw.crossings
        import reebdraw.layout

        calls = counted_geometric_calls(monkeypatch, reebdraw.layout, reebdraw.crossings)
        rng = random.Random(79)
        for _ in range(20):
            calls.clear()
            layout_cycle(random_cycle_graph(rng.randint(2, 12), rng, max_level=rng.randint(2, 6)))
            assert len(calls) == 1

    def test_refuses_an_ordering_that_fails_its_count(self, monkeypatch):
        import reebdraw.layout

        cost = reebdraw.layout._layered_cost
        monkeypatch.setattr(reebdraw.layout, "_layered_cost", lambda strips, orders: cost(strips, orders) + 1)
        with pytest.raises(InternalInvariantError,
                           match=r"^cycle corridor ordering produced 2 crossings, expected 1$"):
            layout_cycle(alternating_cycle(4))

    def test_oracle_never_beats_promise_by_much(self):
        rng = random.Random(78)
        for _ in range(15):
            g = random_cycle_graph(rng.randint(3, 9), rng)
            k = top_down_iteration_number(g).iteration_count
            assert exact_rgcn(g).count <= k - 1


def pinned_random_cycles() -> list[ReebGraph]:
    """300 random cycles of 2-14 vertices with top levels 2-6, from ``Random(5)``."""
    rng = random.Random(5)
    return [random_cycle_graph(rng.randint(2, 14), rng, rng.randint(2, 6)) for _ in range(300)]


@pytest.mark.parametrize("n,max_level", [(4, 0), (4, -1), (3, 1), (7, 1), (1, 4), (0, 4)])
def test_random_cycle_graph_refuses_heights_no_cycle_can_take(n, max_level):
    with pytest.raises(ValueError):
        random_cycle_graph(n, random.Random(0), max_level)


def test_random_cycle_graph_alternates_an_even_cycle_on_two_heights():
    g = random_cycle_graph(6, random.Random(0), max_level=1)
    assert [g.vertices[f"v{i}"] for i in range(6)] in ([0, 1] * 3, [1, 0] * 3)


def layout_digest(layout, graphs) -> str:
    """sha256 of the serialized drawings of ``graphs``, one after another."""
    h = hashlib.sha256()
    for g in graphs:
        h.update(serialize_drawing(layout(g)).encode())
    return h.hexdigest()


class TestCycleConstructionBytes:
    # Digests taken before the corridor order moved from rational x
    # coordinates to integer keys; any change to a drawing shows here.
    def test_random_cycles(self):
        assert layout_digest(layout_cycle, pinned_random_cycles()) == (
            "ead3c364cfaa247081f83aa7438953193fd882e8da41be48d8f1a41619c7896a")

    def test_distinct_height_cycle(self):
        assert layout_digest(layout_cycle, [distinct_height_cycle(200, random.Random(0))]) == (
            "0e9a10463f2b9b4a3e7c5015e6246de682da0288df036e39be970e0cf6e404d5")

    def test_bowties(self):
        assert layout_digest(layout_bowtie, map(alternating_cycle, range(2, 41, 2))) == (
            "24d1d7081ac8013e596eeb51232457eb836fa22bb43e03dc1e660fb164bf73b1")

    def test_corridor_order_matches_the_rational_reference(self):
        for g in pinned_random_cycles() + [distinct_height_cycle(200, random.Random(0))]:
            g2, smap = subdivide(g)
            view = smap.view
            dec = _decompose(g2, view.lev)
            assert _cycle_level_ordering(view.level_vertices, dec) == (
                reference_cycle_level_ordering(view.level_vertices, dec))


class TestUniqueExtrema:
    def test_diamond(self):
        g = ReebGraph.build({"a": 0, "b": 1, "c": 2, "d": "3/2"},
                            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        assert count_crossings_geometric(layout_cycle(g)).count == 0

    def test_random_unique_extrema_cycles(self):
        for g in unique_extrema_cycles(random.Random(55), 10):
            assert count_crossings_geometric(layout_cycle(g)).count == 0

    def test_certifies_once(self, monkeypatch):
        import reebdraw.crossings
        import reebdraw.layout

        calls = counted_geometric_calls(monkeypatch, reebdraw.layout, reebdraw.crossings)
        for g in unique_extrema_cycles(random.Random(56), 10):
            calls.clear()
            layout_cycle(g)
            assert len(calls) == 1


class TestLayoutAuto:
    def test_caterpillar_dispatch(self):
        rng = random.Random(91)
        g = random_caterpillar_graph(9, rng)
        assert count_crossings_geometric(layout_auto(g)).count == 0

    def test_alternating_six_cycle(self):
        assert count_crossings_geometric(layout_auto(alternating_cycle(6))).count == 2

    def test_tree_fixture_needs_a_crossing(self):
        from pathlib import Path

        from reebdraw import jsonio

        text = (Path(__file__).parent / "fixtures" / "tree_requiring_crossings.json").read_text()
        g = jsonio.parse_graph(text)
        assert exact_rgcn(g).count >= 1
        drawn = layout_auto(g)
        assert count_crossings_geometric(drawn).count == exact_rgcn(g).count

    def test_exact_path_matches_oracle(self):
        rng = random.Random(92)
        for _ in range(10):
            g = random_connected_graph(rng.randint(3, 8), rng)
            drawn = count_crossings_geometric(layout_auto(g)).count
            assert drawn == exact_rgcn(g).count

    def test_wide_caterpillars_are_drawn_crossing_free(self):
        # Spine vertices of degree > 3 are drawn by the caterpillar
        # construction, like every other caterpillar.
        rng = random.Random(95)
        for _ in range(20):
            g = random_wide_caterpillar_graph(rng.randint(3, 6), rng)
            assert count_crossings_geometric(layout_auto(g, budget=200_000)).count == 0

    def test_caterpillars_never_reach_the_search(self, monkeypatch):
        import reebdraw.layout

        def no_search(*args, **kwargs):
            raise AssertionError("layout_auto searched a caterpillar")

        monkeypatch.setattr(reebdraw.layout, "exact_rgcn", no_search)
        rng = random.Random(97)
        for _ in range(20):
            g = random_wide_caterpillar_graph(rng.randint(1, 6), rng)
            assert count_crossings_geometric(layout_auto(g)).count == 0
        assert count_crossings_geometric(layout_auto(random_caterpillar_graph(9, rng))).count == 0

    def test_budget_fallback_uses_heuristic(self):
        # Ten barycenter rounds alone draw this graph with 3 crossings; the
        # search's warm start holds a crossing-free ordering.
        g = random_connected_graph(6, random.Random(5), extra=3)
        with pytest.raises(BudgetExhaustedError) as exc:
            exact_rgcn(g, budget=1)
        d = layout_auto(g, budget=1)
        assert set(d.x) == set(g.vertices)
        assert count_crossings_geometric(d).count == exc.value.best == 0
        assert count_crossings_geometric(layout_heuristic(g)).count == exc.value.best

    @pytest.mark.parametrize("name,best", [("exhausted_bench_graph_27.json", 9),
                                           ("exhausted_bench_graph_29.json", 5)])
    def test_exhausted_bench_graphs_draw_the_heuristic(self, name, best, monkeypatch):
        # Cases 27 and 29 of the benchmark's ``layout_cases(Random(7), 8, 24)``.
        # Their optima, 3 and 2, take 3,739,753 and 10,206,055 states, so a
        # 200,000-state budget runs out and the warm start is drawn.
        g = parse_graph((FIXTURES / name).read_text())
        calls = counted_warm_starts(monkeypatch)
        with pytest.raises(BudgetExhaustedError) as exc:
            exact_rgcn(g, budget=200_000)
        assert exc.value.best == best
        assert len(calls) == 1
        d = layout_auto(g, budget=200_000)
        assert len(calls) == 2
        assert count_crossings_geometric(d).count == best
        assert serialize_drawing(d) == serialize_drawing(layout_heuristic(g))
        assert len(calls) == 3

    def test_heuristic_deterministic(self):
        rng = random.Random(94)
        g = random_connected_graph(8, rng, extra=2)
        assert layout_heuristic(g).x == layout_heuristic(g).x
