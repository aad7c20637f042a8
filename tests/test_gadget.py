from __future__ import annotations

import itertools

import pytest

from reebdraw import (
    BudgetExhaustedError,
    DegeneracyError,
    Drawing,
    GraphStructureError,
    LinearArrangement,
    OlaGraph,
    arrangement_to_drawing,
    count_crossings_geometric,
    extract_arrangement,
    ola_brute,
    ola_cost,
    ola_reduce,
    tri_hex_grid,
    validate,
)
from reebdraw.gadget import _certified_drawing

TRIANGLE = OlaGraph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))
P3 = OlaGraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
K2 = OlaGraph(("a", "b"), (("a", "b"),))


class TestTriHexGrid:
    @pytest.mark.parametrize("rows", list(range(1, 13)))
    def test_closed_form_counts(self, rows):
        grid = tri_hex_grid(rows)
        assert grid.graph.vertex_count == rows * rows + 4 * rows + 1
        assert grid.graph.edge_count == 3 * (rows * rows + 3 * rows) // 2

    @pytest.mark.parametrize("rows", [1, 2, 3, 5])
    def test_canonical_drawing_planar(self, rows):
        assert count_crossings_geometric(tri_hex_grid(rows).drawing).count == 0

    def test_small_examples(self):
        g1 = tri_hex_grid(1)
        assert g1.graph.vertex_count == 6 and g1.graph.edge_count == 6
        g2 = tri_hex_grid(2)
        assert g2.graph.vertex_count == 13 and g2.graph.edge_count == 15
        g3 = tri_hex_grid(3)
        assert g3.graph.vertex_count == 22 and g3.graph.edge_count == 27

    def test_degrees_at_most_three(self):
        from reebdraw import degree_profile

        prof = degree_profile(tri_hex_grid(4).graph)
        assert max(prof.total.values()) <= 3

    def test_connector_is_unique_topmost(self):
        grid = tri_hex_grid(3)
        top = max(grid.graph.vertices.values())
        tops = [v for v, h in grid.graph.vertices.items() if h == top]
        assert tops == [grid.connector]

    def test_bottom_row_ordered(self):
        grid = tri_hex_grid(3)
        assert len(grid.bottom_row) == 3
        xs = [grid.drawing.x[v] for v in grid.bottom_row]
        assert xs == sorted(xs)

    def test_invalid_rows_rejected(self):
        with pytest.raises(Exception):
            tri_hex_grid(0)


class TestOlaCost:
    def test_path_identity(self):
        assert ola_cost(P3, {"a": 1, "b": 2, "c": 3}) == 2

    def test_single_edge(self):
        assert ola_cost(K2, {"a": 1, "b": 2}) == 1

    def test_triangle_every_bijection_costs_four(self):
        for perm in itertools.permutations([1, 2, 3]):
            ranks = dict(zip(("a", "b", "c"), perm))
            assert ola_cost(TRIANGLE, ranks) == 4

    def test_non_bijection_rejected(self):
        with pytest.raises(GraphStructureError) as exc:
            ola_cost(P3, {"a": 1, "b": 1, "c": 3})
        assert exc.value.code == "not-bijection"


class TestOlaBrute:
    def test_path(self):
        assert ola_brute(P3).cost == 2

    def test_four_cycle(self):
        c4 = OlaGraph(("a", "b", "c", "d"),
                      (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")))
        best = ola_brute(c4)
        # independent check over all 24 bijections
        floor = min(
            sum(abs(r[x] - r[y]) for x, y in c4.edges)
            for perm in itertools.permutations([1, 2, 3, 4])
            for r in [dict(zip(sorted(c4.vertices), perm))]
        )
        assert best.cost == floor == 6

    def test_single_vertex(self):
        assert ola_brute(OlaGraph(("a",), ())).cost == 0

    def test_budget(self):
        big = OlaGraph(tuple("abcdefgh"), tuple(("a", x) for x in "bcdefgh"))
        with pytest.raises(BudgetExhaustedError):
            ola_brute(big, budget=10)


class TestOlaReduce:
    @pytest.mark.parametrize("g,k,expected", [(K2, 1, 0), (P3, 2, 3), (TRIANGLE, 4, 17)])
    def test_budget_formula(self, g, k, expected):
        assert ola_reduce(g, k).budget == expected

    def test_disconnected_rejected(self):
        g = OlaGraph(("a", "b", "c", "d"), (("a", "b"), ("c", "d")))
        with pytest.raises(GraphStructureError) as exc:
            ola_reduce(g, 3)
        assert exc.value.code == "disconnected"

    def test_structure_sizes(self):
        inst = ola_reduce(P3, 2)
        m, n = 2, 3
        grid_v = m * m + 4 * m + 1
        chain_v = sum(2 * d * n for d in (1, 2, 1))
        assert inst.graph.vertex_count == 2 * n * grid_v + chain_v
        parts = {}
        for p in inst.edge_parts:
            parts[p] = parts.get(p, 0) + 1
        assert parts["E1"] == m
        assert parts["E2"] == m * m * n
        assert parts["E4"] == 2 * n * (3 * (m * m + 3 * m) // 2)
        assert parts["E3"] == chain_v
        assert set(inst.vertex_parts.values()) == {"V1", "V2"}

    def test_h_is_connected(self):
        inst = ola_reduce(P3, 2)
        assert validate(inst.graph).is_connected

    def test_strand_bundles_have_m_squared_edges_per_pair(self):
        inst = ola_reduce(TRIANGLE, 4)
        per_source: dict[str, int] = {}
        for i, part in enumerate(inst.edge_parts):
            if part == "E2":
                owner = inst.plan.owner[inst.graph.edges[i][0]]
                per_source[owner] = per_source.get(owner, 0) + 1
        assert set(per_source.values()) == {9}


class TestArrangementDrawings:
    def test_single_edge_optimal_is_planar(self):
        best = ola_brute(K2)
        inst = ola_reduce(K2, best.cost)
        d = arrangement_to_drawing(inst, best)
        assert count_crossings_geometric(d).count == 0 == inst.budget

    def test_path_identity_within_bound(self):
        ranks = {"a": 1, "b": 2, "c": 3}
        arr = LinearArrangement.for_graph(P3, ranks)
        inst = ola_reduce(P3, arr.cost)
        d = arrangement_to_drawing(inst, arr)
        assert count_crossings_geometric(d).count <= inst.budget == 3

    def test_triangle_any_arrangement_within_bound(self):
        ranks = {"a": 2, "b": 1, "c": 3}
        arr = LinearArrangement.for_graph(TRIANGLE, ranks)
        inst = ola_reduce(TRIANGLE, arr.cost)
        assert count_crossings_geometric(arrangement_to_drawing(inst, arr)).count <= inst.budget

    def test_extract_is_inverse(self):
        best = ola_brute(P3)
        inst = ola_reduce(P3, best.cost)
        d = arrangement_to_drawing(inst, best)
        f1, f2 = extract_arrangement(d, inst)
        assert f1.ranks == best.ranks == f2.ranks

    def test_extract_of_mirrored_drawing_reverses(self):
        best = ola_brute(P3)
        inst = ola_reduce(P3, best.cost)
        d = arrangement_to_drawing(inst, best)
        mirrored = Drawing(
            graph=d.graph,
            x={v: -x for v, x in d.x.items()},
            bends=tuple(tuple((-bx, by) for bx, by in eb) for eb in d.bends),
        )
        f1, f2 = extract_arrangement(mirrored, inst)
        n = len(best.ranks) + 1
        assert f1.ranks == {v: n - r for v, r in best.ranks.items()}
        assert f1.ranks == f2.ranks

    def test_swapped_bottom_grids_detected(self):
        best = ola_brute(P3)
        inst = ola_reduce(P3, best.cost)
        d = arrangement_to_drawing(inst, best)
        a, b = inst.plan.bottom_connector["a"], inst.plan.bottom_connector["b"]
        xs = dict(d.x)
        xs[a], xs[b] = xs[b], xs[a]
        f1, f2 = extract_arrangement(Drawing(graph=d.graph, x=xs, bends=d.bends), inst)
        assert f1.ranks != f2.ranks

    def test_ambiguous_connector_positions_rejected(self):
        best = ola_brute(P3)
        inst = ola_reduce(P3, best.cost)
        d = arrangement_to_drawing(inst, best)
        xs = dict(d.x)
        xs[inst.plan.top_connector["a"]] = xs[inst.plan.top_connector["b"]]
        with pytest.raises(DegeneracyError):
            extract_arrangement(Drawing(graph=d.graph, x=xs, bends=d.bends), inst)

    def test_certified_drawing_carries_its_certificate(self):
        best = ola_brute(TRIANGLE)
        inst = ola_reduce(TRIANGLE, best.cost)
        d, cert = _certified_drawing(inst, best)
        assert d == arrangement_to_drawing(inst, best)
        assert cert == count_crossings_geometric(d)

    def test_arrangement_mismatch_rejected(self):
        best = ola_brute(P3)
        inst = ola_reduce(P3, best.cost)
        with pytest.raises(GraphStructureError):
            arrangement_to_drawing(inst, LinearArrangement({"x": 1, "y": 2}, 0))
