from __future__ import annotations

import inspect
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reebdraw import (
    CrossingCertificate,
    Drawing,
    GraphStructureError,
    LayoutError,
    LevelAssignment,
    OlaGraph,
    ReebGraph,
    RenderOptions,
    ShapeClass,
    classify_shape,
    degree_profile,
    levels,
    validate,
)
from reebdraw.crossings import CrossingPair

from helpers import random_connected_graph


class TestReebGraph:
    def test_build_parses_heights(self):
        g = ReebGraph.build({"a": "3/2", "b": 1, "c": "0.25"}, [("a", "b"), ("b", "c")])
        assert g.vertices["a"] == Fraction(3, 2)
        assert g.vertices["c"] == Fraction(1, 4)

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(GraphStructureError) as exc:
            ReebGraph.build({"a": 0}, [("a", "b")])
        assert exc.value.code == "unknown-vertex"

    def test_self_loop_rejected(self):
        with pytest.raises(GraphStructureError) as exc:
            ReebGraph.build({"a": 0}, [("a", "a")])
        assert exc.value.code == "self-loop"

    @pytest.mark.parametrize("height", [True, "abc", 1.5])
    def test_bad_height_rejected(self, height):
        with pytest.raises(GraphStructureError) as exc:
            ReebGraph.build({"a": height, "b": 2}, [("a", "b")])
        assert exc.value.code == "bad-height"

    def test_horizontal_edge_rejected(self):
        with pytest.raises(GraphStructureError) as exc:
            ReebGraph.build({"a": 1, "b": 1}, [("a", "b")])
        assert exc.value.code == "horizontal-edge"

    @pytest.mark.parametrize("heights", [{"a": 1, "b": Fraction(1)}, {"a": Fraction(2, 4), "b": Fraction(1, 2)}])
    def test_horizontal_edge_between_equal_values_rejected(self, heights):
        with pytest.raises(GraphStructureError) as exc:
            ReebGraph(heights, (("a", "b"),))
        assert exc.value.code == "horizontal-edge"

    @pytest.mark.parametrize("build", [lambda: ReebGraph({0: Fraction(0), "a": Fraction(1)}, ((0, "a"),)),
                                       lambda: OlaGraph((0, "a"), ((0, "a"),))], ids=["reeb", "ola"])
    def test_an_edge_whose_ids_do_not_compare_is_refused(self, build):
        # An edge is stored least id first, which an int and a str do not have.
        with pytest.raises(GraphStructureError) as exc:
            build()
        assert (exc.value.code, str(exc.value)) == (
            "unordered-ids", "edge (0, 'a') joins ids of types int and str, which do not compare")

    def test_mixed_ids_that_no_edge_compares_are_kept(self):
        g = ReebGraph({0: Fraction(0), 1: Fraction(1), "a": Fraction(0), "b": Fraction(1)}, ((1, 0), ("b", "a")))
        assert g.edges == ((0, 1), ("a", "b"))
        assert OlaGraph((0, "a"), ()).vertices == (0, "a")

    def test_parallel_edges_kept_with_multiplicity(self):
        g = ReebGraph.build({"a": 0, "b": 1}, [("a", "b"), ("b", "a")])
        assert g.edges == (("a", "b"), ("a", "b"))

    @pytest.mark.parametrize("height", ["1e999999999", "1e-999999999", "1e5000"])
    def test_height_past_the_digit_limit_is_refused_at_once(self, height):
        # The JSON reader's bounded parse, under the height's own error code:
        # building 10**999999999 would take minutes.
        start = time.process_time()
        with pytest.raises(GraphStructureError) as exc:
            ReebGraph.build({"a": 0, "b": height}, [("a", "b")])
        assert time.process_time() - start < 1
        assert (exc.value.code, str(exc.value)) == (
            "bad-height", f"cannot parse height {height!r}: needs more than 4300 digits")

    def test_height_at_the_digit_limit_is_accepted(self):
        g = ReebGraph.build({"a": 0, "b": "1e4299"}, [("a", "b")])
        assert g.vertices["b"] == 10 ** 4299


class TestDegreeProfile:
    def test_single_edge(self):
        g = ReebGraph.build({"a": 0, "b": 1}, [("a", "b")])
        prof = degree_profile(g)
        assert prof.total["a"] == 1 and prof.up["a"] == 1 and prof.down["a"] == 0

    def test_parallel_multiplicity(self):
        g = ReebGraph.build({"a": 0, "b": 1}, [("a", "b"), ("a", "b")])
        prof = degree_profile(g)
        assert prof.total["a"] == 2 and prof.up["a"] == 2

    def test_branch_vertex_one_down_two_up(self):
        g = ReebGraph.build(
            {"lo": 0, "v": 1, "u1": 2, "u2": 3},
            [("lo", "v"), ("v", "u1"), ("v", "u2")],
        )
        prof = degree_profile(g)
        assert prof.total["v"] == 3 and prof.down["v"] == 1 and prof.up["v"] == 2

    def test_degree_sum_is_twice_edge_count(self):
        rng = random.Random(1)
        for _ in range(25):
            g = random_connected_graph(rng.randint(1, 9), rng)
            prof = degree_profile(g)
            assert sum(prof.total.values()) == 2 * g.edge_count
            assert all(prof.down[v] + prof.up[v] == prof.total[v] for v in g.vertices)


class TestLevels:
    def test_distinct_heights(self):
        g = ReebGraph.build({"a": "1/2", "b": 2, "c": "73/10"}, [("a", "b"), ("b", "c")])
        assert levels(g).level == {"a": 0, "b": 1, "c": 2}

    def test_ties_share_a_level(self):
        g = ReebGraph.build({"a": 1, "b": 1, "c": 3}, [("a", "c"), ("b", "c")])
        lev = levels(g)
        assert lev.level == {"a": 0, "b": 0, "c": 1}
        assert lev.count == 2

    def test_empty_graph(self):
        lev = levels(ReebGraph({}, ()))
        assert lev.level == {} and lev.count == 0

    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**20))
    def test_invariant_under_monotone_height_maps(self, scale, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng.randint(1, 8), rng)
        mapped = ReebGraph(
            {v: 2 * scale * h + 1 for v, h in g.vertices.items()},
            g.edges,
        )
        assert levels(mapped).level == levels(g).level


class TestValidate:
    def test_small_path_is_generic_and_subdivided(self):
        g = ReebGraph.build({"a": 0, "b": 1}, [("a", "b")])
        rep = validate(g)
        assert rep.is_generic and rep.is_subdivided and rep.is_connected
        assert rep.violations == ()

    def test_degree_five_vertex_named(self):
        heights = {"v": 2, "a": 0, "b": 1, "c": 3, "d": 4, "e": 5}
        g = ReebGraph.build(heights, [("v", w) for w in "abcde"])
        rep = validate(g)
        assert not rep.is_generic
        assert any(v.rule == "degree-1-or-3" and v.subject == "v" for v in rep.violations)

    def test_level_skipping_edge_named(self):
        g = ReebGraph.build({"a": 0, "b": 1, "c": 2}, [("a", "b"), ("b", "c"), ("a", "c")])
        rep = validate(g)
        assert not rep.is_subdivided
        assert any(v.rule == "consecutive-levels" and "a-c" in v.subject for v in rep.violations)

    def test_flags_are_independent(self):
        # Generic but not leveled: a long edge between distinct heights.
        g = ReebGraph.build(
            {"a": 0, "b": 1, "c": 2, "d": 3},
            [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "d")],
        )
        rep = validate(g)
        assert not rep.is_subdivided

    def test_disconnected_reported_not_raised(self):
        g = ReebGraph.build({"a": 0, "b": 1, "c": 0, "d": 1}, [("a", "b"), ("c", "d")])
        rep = validate(g)
        assert not rep.is_connected
        assert any(v.rule == "connected" for v in rep.violations)

    def test_int_ids_are_reported_like_their_names(self):
        g = ReebGraph.build({0: 0, 1: 1, 2: 1, 3: 0, 4: 1}, [(0, 1), (0, 2), (3, 4)])
        named = ReebGraph.build({str(v): h for v, h in g.vertices.items()}, [(str(a), str(b)) for a, b in g.edges])
        assert [(v.rule, v.subject) for v in validate(g).violations] == [
            (v.rule, v.subject) for v in validate(named).violations]

    def test_mixed_id_kinds_are_reported_and_refused(self):
        # No edge joins an int id to a str id, so the graph is legal and
        # disconnected; each kind sorts on its own, ints first.
        from reebdraw import layout_auto, subdivide

        g = ReebGraph({0: Fraction(0), 1: Fraction(1), "a": Fraction(0), "b": Fraction(1)}, ((0, 1), ("a", "b")))
        assert [(v.rule, v.subject) for v in validate(g).violations] == [
            ("unique-heights", "0,a"), ("unique-heights", "1,b"), ("connected", "0;a")]
        assert levels(g).by_level() == [[0, "a"], [1, "b"]]
        for refuse in (classify_shape, subdivide, layout_auto):
            with pytest.raises(LayoutError) as exc:
                refuse(g)
            assert exc.value.code == "disconnected"


class TestClassifyShape:
    def test_path(self):
        g = ReebGraph.build({"a": 0, "b": 2, "c": 1, "d": 3},
                            [("a", "b"), ("b", "c"), ("c", "d")])
        assert classify_shape(g) == ShapeClass.PATH

    def test_caterpillar(self):
        g = ReebGraph.build(
            {"s1": 0, "s2": 1, "s3": 0, "l1": 2, "l2": -1},
            [("s1", "s2"), ("s2", "s3"), ("s2", "l1"), ("s1", "l2")],
        )
        assert classify_shape(g) == ShapeClass.CATERPILLAR

    def test_two_parallel_edges_form_a_cycle(self):
        g = ReebGraph.build({"a": 0, "b": 1}, [("a", "b"), ("a", "b")])
        assert classify_shape(g) == ShapeClass.SINGLE_CYCLE

    def test_lobster_is_tree_not_caterpillar(self):
        # A branch of length two off the middle of the spine makes the
        # non-leaf vertices branch, so they no longer form a path.
        g = ReebGraph.build(
            {"s1": 0, "s2": 1, "s3": 0, "s4": 1, "s5": 0, "m": 2, "tip": 3},
            [("s1", "s2"), ("s2", "s3"), ("s3", "s4"), ("s4", "s5"),
             ("s3", "m"), ("m", "tip")],
        )
        assert classify_shape(g) == ShapeClass.TREE

    def test_cycle_with_chord_is_general(self):
        g = ReebGraph.build(
            {"a": 0, "b": 1, "c": 2, "d": 1},
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")],
        )
        assert classify_shape(g) == ShapeClass.GENERAL

    def test_disconnected_rejected(self):
        g = ReebGraph.build({"a": 0, "b": 1, "c": 0, "d": 1}, [("a", "b"), ("c", "d")])
        with pytest.raises(LayoutError) as exc:
            classify_shape(g)
        assert exc.value.code == "disconnected"

    def test_deterministic(self):
        rng = random.Random(4)
        for _ in range(20):
            g = random_connected_graph(rng.randint(1, 8), rng)
            assert classify_shape(g) == classify_shape(g)


class TestValueTypes:
    """The five validating types are immutable values with a frozen
    dataclass's repr, equality, hash and constructor."""

    @staticmethod
    def values():
        g = ReebGraph.build({"b": 1, "a": 0}, [("b", "a")])
        return {
            "graph": (g, "ReebGraph(vertices={'b': Fraction(1, 1), 'a': Fraction(0, 1)}, edges=(('a', 'b'),))"),
            "drawing": (Drawing(g, {"a": 0, "b": Fraction(1, 2)}),
                        "Drawing(graph=ReebGraph(vertices={'b': Fraction(1, 1), 'a': Fraction(0, 1)}, "
                        "edges=(('a', 'b'),)), x={'a': Fraction(0, 1), 'b': Fraction(1, 2)}, bends=((),))"),
            "ola": (OlaGraph(["x", "y"], [("y", "x")]), "OlaGraph(vertices=('x', 'y'), edges=(('x', 'y'),))"),
            "options": (RenderOptions(width=300, margin=30),
                        "RenderOptions(width=300, height=600, margin=30, show_level_lines=False)"),
            "certificate": (CrossingCertificate(1, (CrossingPair((0, 1), (Fraction(1), Fraction(1, 2))),)),
                            "CrossingCertificate(count=1, pairs=(CrossingPair(edges=(0, 1), "
                            "point=(Fraction(1, 1), Fraction(1, 2))),))"),
        }

    def test_repr(self):
        for value, text in self.values().values():
            assert repr(value) == text

    def test_equality_holds_only_within_one_class(self):
        first, second = self.values(), self.values()
        for name, (value, _) in first.items():
            assert value == second[name][0] and not value != second[name][0]
            assert all(value != other for other_name, (other, _) in first.items() if other_name != name)

            class Sub(type(value)):
                pass

            copy = Sub.__new__(Sub)
            vars(copy).update(vars(value))
            assert value != copy and copy != value
            assert repr(copy) == Sub.__qualname__ + repr(value)[len(type(value).__name__):]
        assert CrossingCertificate(0, ()) != (0, ())
        assert OlaGraph(["x"], []) != OlaGraph(["y"], [])
        assert RenderOptions() != RenderOptions(margin=41)

    def test_assignment_and_deletion_refused(self):
        for value, _ in self.values().values():
            for name in (next(iter(vars(value))), "extra"):
                with pytest.raises(AttributeError):
                    setattr(value, name, None)
                with pytest.raises(AttributeError):
                    delattr(value, name)
        assert vars(self.values()["drawing"][0]).keys() >= {"graph", "x", "bends"}

    def test_hash(self):
        first, second = self.values(), self.values()
        for name in ("certificate", "ola", "options"):
            assert hash(first[name][0]) == hash(second[name][0])
        assert len({RenderOptions(), RenderOptions(), RenderOptions(height=500)}) == 2
        for name in ("graph", "drawing"):
            with pytest.raises(TypeError):
                hash(first[name][0])

    def test_construction_by_position_and_keyword(self):
        signatures = {
            ReebGraph: [("vertices", inspect.Parameter.empty), ("edges", inspect.Parameter.empty)],
            Drawing: [("graph", inspect.Parameter.empty), ("x", inspect.Parameter.empty), ("bends", ())],
            OlaGraph: [("vertices", inspect.Parameter.empty), ("edges", inspect.Parameter.empty)],
            RenderOptions: [("width", 800), ("height", 600), ("margin", 40), ("show_level_lines", False)],
            CrossingCertificate: [("count", inspect.Parameter.empty), ("pairs", inspect.Parameter.empty)],
        }
        for cls, params in signatures.items():
            assert [(p.name, p.default) for p in inspect.signature(cls).parameters.values()] == params
        g = ReebGraph({"a": Fraction(0), "b": Fraction(1)}, (("b", "a"),))
        assert g == ReebGraph(vertices={"a": Fraction(0), "b": Fraction(1)}, edges=[("a", "b")])
        assert Drawing(g, {"a": 0, "b": 1}, ((),)) == Drawing(graph=g, x={"a": 0, "b": 1})
        assert OlaGraph(("p", "q"), ()) == OlaGraph(vertices=["p", "q"], edges=[])
        assert RenderOptions(800, 600, 40, True) == RenderOptions(show_level_lines=True)
        assert CrossingCertificate(0, ()) == CrossingCertificate(count=0, pairs=())
        with pytest.raises(TypeError):
            Drawing(g)
        with pytest.raises(TypeError):
            RenderOptions(colour_by_part=True)

    def test_named_tuple_records_replace_a_field(self):
        lev = levels(ReebGraph.build({"a": 0, "b": 2}, [("a", "b")]))
        moved = lev._replace(count=3)
        assert moved == LevelAssignment(lev.level, 3, lev.level_heights) and lev.count == 2
