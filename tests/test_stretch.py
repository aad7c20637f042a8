from __future__ import annotations

import importlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reebdraw import (
    CrossingCertificate,
    Drawing,
    GraphStructureError,
    InternalInvariantError,
    LayoutError,
    ReebError,
    ReebGraph,
    count_crossings_geometric,
    count_crossings_layered,
    layout_auto,
    layout_caterpillar,
    per_level_order,
    realize_layered,
    stretch,
    subdivide,
    unsubdivide_drawing,
)
from reebdraw.jsonio import serialize_drawing
from reebdraw.stretch import _insertion_order, _sweep

from helpers import (
    _rows,
    curved_copy,
    distinct_height_caterpillar,
    distinct_height_path,
    found_deadlock,
    found_doubling,
    random_caterpillar_graph,
    random_connected_graph,
    random_ordering,
    random_path_graph,
    reference_edge_partial_order,
    reference_peel_order,
    reference_rows,
    reference_stretch,
    reference_vertex_insertion_order,
)

# The package exports the function ``stretch`` under the module's name.
stretch_module = importlib.import_module("reebdraw.stretch")


def _outcome(fn, *args):
    """A result, or the class, code and message of the refusal."""
    try:
        return fn(*args)
    except ReebError as exc:
        return (type(exc), exc.code, str(exc))


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
        assert reference_rows(stretch(d)) == reference_rows(d)

    def test_empty_drawing(self):
        d = Drawing(graph=ReebGraph.build({}, []), x={})
        assert stretch(d) == d

    def test_refuses_an_output_that_changes_a_row(self, monkeypatch):
        rng = random.Random(7)
        d = curved_copy(layout_caterpillar(random_caterpillar_graph(8, rng)), rng)
        monkeypatch.setattr(stretch_module, "_sweep", lambda dd, find_pairs=True: _sweep(dd, find_pairs)
                            if dd is d else (set(), _sweep(dd, find_pairs)[1] + [()]))
        with pytest.raises(InternalInvariantError, match=r"^stretching changed a row$"):
            stretch(d)

    def test_refuses_an_output_that_fails_its_count(self, monkeypatch):
        rng = random.Random(7)
        d = curved_copy(layout_caterpillar(random_caterpillar_graph(8, rng)), rng)
        count = stretch_module.count_crossings_geometric
        monkeypatch.setattr(stretch_module, "count_crossings_geometric",
                            lambda dd: count(dd) if dd is d else CrossingCertificate(1, ()))
        with pytest.raises(InternalInvariantError, match=r"^stretched drawing has crossings$"):
            stretch(d)


def pocket_path():
    """A crossing-free path with p3 in a pocket between p1-p2 and p0-p1: a
    straight drawing with the same rows exists, but not one that places each
    vertex right of the earlier ones."""
    g = ReebGraph.build({"p0": Fraction(-2, 3), "p1": 3, "p2": 0, "p3": Fraction(1, 2), "l0": 9},
                        [("p0", "p1"), ("p1", "p2"), ("p2", "p3"), ("l0", "p0")])
    half = Fraction(1, 2)
    bends = (((Fraction(2), Fraction(0)), (Fraction(3), half)),
             ((Fraction(1), half),),
             (),
             ((Fraction(0), Fraction(0)), (Fraction(0), half), (Fraction(0), Fraction(3))))
    return Drawing(graph=g, x={"p0": Fraction(0), "p1": Fraction(1), "p2": Fraction(1),
                               "p3": Fraction(2), "l0": Fraction(0)}, bends=bends)


class TestStretchRegressions:
    @pytest.mark.parametrize("make, xs", [
        (found_deadlock, {"s0": 0, "l0": 1, "s1": 2, "s4": 3, "s2": 4, "s3": 5}),
        (found_doubling, {"s0": 0, "l1": 1, "l0": 2, "s1": 3, "s2": 4}),
    ])
    def test_found_caterpillars_straighten(self, make, xs):
        d = make()
        assert count_crossings_geometric(d).count == 0
        out = stretch(d)
        assert out.x == xs
        assert all(not b for b in out.bends)
        assert count_crossings_geometric(out).count == 0
        assert reference_rows(out) == reference_rows(d)

    def test_pocket_path_is_refused(self):
        d = pocket_path()
        assert count_crossings_geometric(d).count == 0
        with pytest.raises(LayoutError) as exc:
            stretch(d)
        assert exc.value.code == "not-straightenable"

    def test_random_crossing_free_level_orderings(self):
        # Paths, caterpillars and trees, each realized from a random
        # crossing-free ordering of its subdivision, straight and curved.
        rng = random.Random(10)
        trees = (random_path_graph, random_caterpillar_graph,
                 lambda n, r: random_connected_graph(n, r, extra=0))
        drawn = 0
        for i in range(300):
            g2, mapping = subdivide(trees[i % 3](rng.randint(2, 7), rng))
            for _ in range(50):
                ordering = random_ordering(g2, rng)
                if count_crossings_layered(g2, ordering) == 0:
                    break
            else:
                continue
            d = unsubdivide_drawing(realize_layered(g2, ordering, 0), mapping)
            for dd in (d, curved_copy(d, rng)):
                drawn += 1
                out, ref = _outcome(stretch, dd), _outcome(reference_stretch, dd)
                if isinstance(out, Drawing):
                    assert reference_rows(out) == reference_rows(dd)
                else:
                    assert out[:2] == (LayoutError, "not-straightenable")
                    assert not isinstance(ref, Drawing)
        assert drawn > 400


def _with_int_ids(d: Drawing) -> tuple[Drawing, dict[int, str]]:
    """The drawing with its ids renamed to ints 0..n-1 in id order, so every
    comparison of ids (edge orientation, ties in x) comes out the same; and
    the map back to the old ids."""
    old = sorted(d.graph.vertices)
    num = {v: k for k, v in enumerate(old)}
    g = ReebGraph({num[v]: h for v, h in d.graph.vertices.items()},
                  tuple((num[a], num[b]) for a, b in d.graph.edges))
    return Drawing(graph=g, x={num[v]: x for v, x in d.x.items()}, bends=d.bends), dict(enumerate(old))


class TestIntegerIds:
    # Integer vertex ids share no number with edge indices in the rows, so
    # renaming the ids changes no placement and no refusal.
    def test_int_ids_stretch_like_their_names(self):
        rng = random.Random(12)
        for i in range(300):
            d = layout_caterpillar((random_path_graph, random_caterpillar_graph)[i % 2](rng.randint(2, 14), rng))
            if i % 4 >= 2:
                d = curved_copy(d, rng)
            renamed, back = _with_int_ids(d)
            assert {back[k]: x for k, x in stretch(renamed).x.items()} == stretch(d).x

    def test_int_ids_are_refused_like_their_names(self):
        renamed, _ = _with_int_ids(pocket_path())
        assert _outcome(stretch, renamed) == _outcome(stretch, pocket_path())


def _peel_outcomes(d: Drawing) -> tuple:
    """The peel's order or refusal, and the reference peel's, on one drawing:
    the peel reads the sweep's pairs, the reference the oracle rows."""
    return _outcome(_insertion_order, d, _sweep(d)[0]), _outcome(reference_peel_order, d, _rows(d))


class TestPeelOrder:
    # The peel waits on objects from each row's adjacent pairs; the oracle
    # waits on (row, position) blockers and walks every removed suffix.

    def test_layouts_peel_like_the_reference(self):
        rng = random.Random(2026)
        trees = (random_path_graph, random_caterpillar_graph,
                 lambda n, r: random_connected_graph(n, r, extra=0))
        refused = 0
        for i in range(240):
            d = layout_auto(trees[i % 3](rng.randint(2, 24), rng))
            for dd in (d, curved_copy(d, rng)):
                if count_crossings_geometric(dd).count:
                    continue
                out, ref = _peel_outcomes(dd)
                assert out == ref
                refused += isinstance(out[0], type)
        assert refused > 0

    def test_pocket_path_is_refused_like_the_reference(self):
        out, ref = _peel_outcomes(pocket_path())
        assert out == ref
        assert out[:2] == (LayoutError, "not-straightenable")

    @pytest.mark.parametrize("make", [distinct_height_path, distinct_height_caterpillar])
    def test_distinct_heights_peel_like_the_reference(self, make):
        # One vertex per height: long edges pass many rows, so one adjacent
        # pair recurs across many rows.
        out, ref = _peel_outcomes(layout_auto(make(300, random.Random(300))))
        assert out == ref
        assert len(out) == 300


def _mirrored(d: Drawing) -> Drawing:
    """The drawing reflected in the y axis: every row reversed."""
    return Drawing(graph=d.graph, x={v: -x for v, x in d.x.items()},
                   bends=tuple(tuple((-x, y) for x, y in b) for b in d.bends))


def _swaps(d: Drawing, limit: int = 3) -> list[Drawing]:
    """Up to ``limit`` copies of the drawing with the x of two vertices of
    one height swapped, each still crossing-free; every such swap changes a
    row.  At most 40 pairs are tried."""
    g, out = d.graph, []
    same = [(u, w) for u, w in itertools.combinations(g.vertices, 2) if g.vertices[u] == g.vertices[w]]
    for u, w in same[:40]:
        try:
            swapped = Drawing(graph=g, x={**d.x, u: d.x[w], w: d.x[u]}, bends=d.bends)
            if count_crossings_geometric(swapped).count == 0:
                out.append(swapped)
        except ReebError:
            continue
        if len(out) == limit:
            break
    return out


def _crossing_free(d: Drawing) -> bool:
    try:
        return count_crossings_geometric(d).count == 0
    except ReebError:
        return False


_TREES = {"path": random_path_graph, "caterpillar": random_caterpillar_graph,
          "tree": lambda n, r: random_connected_graph(n, r, extra=0)}


@st.composite
def swept_drawings(draw):
    """Crossing-free layouts of paths, caterpillars and trees of up to 24
    vertices, and of distinct-height ladders of up to 200; half of them
    curved."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    kind = draw(st.sampled_from(sorted(_TREES) + ["ladder path", "ladder caterpillar"]))
    if kind.startswith("ladder"):
        make = distinct_height_path if kind == "ladder path" else distinct_height_caterpillar
        d = layout_auto(make(draw(st.integers(min_value=2, max_value=200)), rng))
    else:
        d = layout_auto(_TREES[kind](draw(st.integers(min_value=2, max_value=24)), rng))
    if draw(st.booleans()):
        d = curved_copy(d, rng)
    assume(_crossing_free(d))
    return d


class TestSweep:
    # The sweep against the rows it replaced (helpers._rows): the same
    # distinct adjacent pairs, and logs that are equal exactly when the rows are.

    @settings(max_examples=150, deadline=None)
    @given(swept_drawings())
    def test_pairs_are_the_rows_adjacent_pairs(self, d):
        pairs, log = _sweep(d)
        assert pairs == {pair for row in _rows(d) for pair in zip(row, row[1:])}
        assert _sweep(d, find_pairs=False) == (set(), log)

    @settings(max_examples=150, deadline=None)
    @given(swept_drawings())
    def test_logs_are_equal_exactly_when_rows_are(self, d):
        others = [_mirrored(d), *_swaps(d)]
        out = _outcome(stretch, d)
        if isinstance(out, Drawing):
            assert _sweep(out)[1] == _sweep(d)[1]
            others.append(out)
        for a, b in itertools.combinations([d, *others], 2):
            assert (_sweep(a)[1] == _sweep(b)[1]) == (_rows(a) == _rows(b))

    def test_refuses_an_output_with_two_vertices_of_one_height_swapped(self):
        rng = random.Random(43)
        refused = 0
        for i in range(400):
            d = layout_auto(_TREES[sorted(_TREES)[i % 3]](rng.randint(3, 16), rng))
            if i % 2:
                d = curved_copy(d, rng)
            out = _outcome(stretch, d)
            if not isinstance(out, Drawing):
                continue
            for swapped in _swaps(out, limit=1):
                assert _rows(swapped) != _rows(out)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(stretch_module, "Drawing", lambda graph, x: swapped)
                    with pytest.raises(InternalInvariantError, match=r"^stretching changed a row$"):
                        stretch(d)
                refused += 1
        assert refused > 20


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
        if isinstance(out, Drawing):
            rows = reference_rows(d)
            assert reference_rows(out) == rows
            if (isinstance(ref, Drawing) and reference_rows(ref) == rows
                    and reference_vertex_insertion_order(d, reference_edge_partial_order(d)).sequence
                    == _insertion_order(d, _sweep(d)[0])):
                assert serialize_drawing(out) == serialize_drawing(ref)
        else:
            assert not isinstance(ref, Drawing)
            assert out[1] != "internal"
            if {out[1], ref[1]} & {"has-crossings", "parallel-edges", "degenerate"}:
                assert out == ref


class TestStretchBoundaries:
    def test_offset_doubles_past_an_overlap(self):
        # u-w is straight; u-v bends at (2, 1).  The least x that puts w
        # strictly left of u-v is 3, so v skips x = 2 and lands at 3.
        g = ReebGraph.build({"u": 0, "w": 1, "v": 2}, [("u", "w"), ("u", "v")])
        d = Drawing(graph=g, x={"u": Fraction(0), "w": Fraction(1), "v": Fraction(3)},
                    bends=((), ((Fraction(2), Fraction(1)),)))
        out = stretch(d)
        assert out.x == {"u": 0, "w": 1, "v": 3}
        assert out == reference_stretch(d)

    def test_offset_rounds_up_to_a_power_of_two(self):
        # w = (1, 1) lies strictly inside u-v's y-range, so v needs x >= 4;
        # the offset from base 1 rounds up to 4.  The old doubling stopped at
        # x = 2, where u-v misses w but passes it on the left.
        g = ReebGraph.build({"u": 0, "w": 1, "v": 3}, [("u", "w"), ("u", "v")])
        d = Drawing(graph=g, x={"u": Fraction(0), "w": Fraction(1), "v": Fraction(3)},
                    bends=((), ((Fraction(2), Fraction(1)),)))
        out = stretch(d)
        assert out.x == {"u": 0, "w": 1, "v": 5}
        assert reference_rows(out) == reference_rows(d)
        assert reference_rows(reference_stretch(d)) != reference_rows(d)

    def test_segment_and_vertex_at_an_end_height_are_tested(self):
        # Inserted u, w, z, v.  New edge u-v spans y in [0, 1]; the drawn
        # segment w-z spans [1, 3] and ends at z = (2, 1): the closed ranges
        # meet at y = 1 only, where u-v is at u, so v goes at 3.
        g = ReebGraph.build({"u": 1, "w": 3, "z": 1, "v": 0}, [("u", "w"), ("w", "z"), ("u", "v")])
        d = Drawing(graph=g, x={"u": Fraction(0), "w": Fraction(1), "z": Fraction(2), "v": Fraction(3)})
        out = stretch(d)
        assert out.x == {"u": 0, "w": 1, "z": 2, "v": 3}


class TestStretchWork:
    # Placed vertices the bound would read on this input if every new edge
    # were tested against all of them; the windowed bound must read under a
    # tenth of that.
    ALL_PLACED = 19909

    def test_placement_tests_only_nearby_segments_and_vertices(self, monkeypatch):
        rng = random.Random(1)
        g = random_caterpillar_graph(200, rng)
        d = curved_copy(layout_caterpillar(g), rng)
        read = []
        clearing_x = stretch_module._clearing_x

        def counted(pu, yv, points):
            read.append(len(points))
            return clearing_x(pu, yv, points)

        monkeypatch.setattr(stretch_module, "_clearing_x", counted)
        out = stretch(d)
        assert reference_rows(out) == reference_rows(d)
        assert sum(read) < self.ALL_PLACED // 10

    def test_walks_each_drawing_once(self, monkeypatch):
        # Each drawing's integer frame is set when it is built.  One sweep
        # reads the input's frame and one the output's; neither they nor the
        # counter build the Θ(n·L) table of where edges pass the heights.
        rng = random.Random(5)
        bent = curved_copy(layout_caterpillar(random_caterpillar_graph(30, rng)), rng)
        d = Drawing(graph=bent.graph, x=bent.x, bends=bent.bends)
        assert "_scaled_polylines" not in vars(Drawing)
        assert "_scaled_polylines" in vars(d)
        monkeypatch.setattr(importlib.import_module("reebdraw.subdivide"), "_level_passes",
                            lambda dd: pytest.fail("stretch built the pass table"))
        swept = []
        monkeypatch.setattr(stretch_module, "_sweep", lambda dd, find_pairs=True: swept.append(dd)
                            or _sweep(dd, find_pairs))
        out = stretch(d)
        assert "_scaled_polylines" in vars(out)
        assert [id(dd) for dd in swept] == [id(d), id(out)]
