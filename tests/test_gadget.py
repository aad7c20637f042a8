from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from reebdraw import (
    BudgetExhaustedError,
    CrossingCertificate,
    DegeneracyError,
    Drawing,
    GraphStructureError,
    InternalInvariantError,
    LayoutError,
    LinearArrangement,
    OlaGraph,
    RenderOptions,
    arrangement_to_drawing,
    count_crossings_geometric,
    extract_arrangement,
    ola_brute,
    ola_cost,
    ola_reduce,
    render_svg,
    tri_hex_grid,
    validate,
)
from reebdraw.jsonio import certificate_to_obj, serialize_drawing

from helpers import counted_geometric_calls, reference_certified_drawing, reference_render_svg

TRIANGLE = OlaGraph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))
P3 = OlaGraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
K2 = OlaGraph(("a", "b"), (("a", "b"),))

#: K4 plus a pendant edge, and the six vertex orders (rank of each vertex's
#: name among a..e) on which every one of the old 24 lane-offset wobbles was
#: degenerate: the pendant vertex's name sorts third, its K4 neighbour's last.
K4_PENDANT = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4))
K4_PENDANT_ORDERS = (
    (0, 1, 3, 4, 2), (0, 3, 1, 4, 2), (1, 0, 3, 4, 2),
    (1, 3, 0, 4, 2), (3, 0, 1, 4, 2), (3, 1, 0, 4, 2),
)
HOUSE = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4))
FIVE_CYCLE_TWO_CHORDS = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (0, 3))

#: The benchmark's gadget source shapes: the 4-vertex path, cycle and K4, the
#: house, and the 5-cycle with both chords from one vertex.
BENCH_SHAPES = (
    ((0, 1), (1, 2), (2, 3)),
    ((0, 1), (1, 2), (2, 3), (0, 3)),
    ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)),
    HOUSE,
    FIVE_CYCLE_TWO_CHORDS,
)


def named(pairs, rank) -> OlaGraph:
    """Source graph on a..e with vertex v named by the rank[v]-th letter."""
    names = "abcde"[:len(rank)]
    return OlaGraph(tuple(names), tuple((names[rank[a]], names[rank[b]]) for a, b in pairs))


def shares_a_lane(d: Drawing, inst) -> bool:
    """Whether two E1 routes of ``d`` bend at one point below or above the grids."""
    routes = inst.plan.e1_routes
    return any(len({d.bends[r.edge_index][k] for r in routes}) < len(routes) for k in (0, -1))


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
        with pytest.raises(LayoutError) as exc:
            tri_hex_grid(0)
        assert exc.value.code == "bad-rows"

    def test_certifies_once(self, monkeypatch):
        import reebdraw.gadget

        calls = counted_geometric_calls(monkeypatch, reebdraw.gadget)
        for rows in range(1, 6):
            calls.clear()
            grid = tri_hex_grid(rows)
            assert calls == [grid.drawing]

    def test_refuses_a_patch_of_the_wrong_size(self, monkeypatch):
        import reebdraw.gadget

        patch = reebdraw.gadget._patch
        monkeypatch.setattr(reebdraw.gadget, "_patch", lambda rows: patch(rows + 1))
        with pytest.raises(InternalInvariantError,
                           match=r"^grid size mismatch: 22 vertices / 27 edges, expected 13 / 15$"):
            tri_hex_grid(2)

    def test_refuses_a_drawing_that_fails_its_count(self, monkeypatch):
        import reebdraw.gadget

        monkeypatch.setattr(reebdraw.gadget, "count_crossings_geometric", lambda d: CrossingCertificate(1, ()))
        with pytest.raises(InternalInvariantError, match="hexagon grid drawing is not crossing-free"):
            tri_hex_grid(2)


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
        assert str(exc.value) == "the gadget is connected only for connected inputs"

    @pytest.mark.parametrize("vertices,edges,connected", [
        ((), (), True),
        (("a",), (), True),
        (("a", "b"), (), False),
        (("a", "b", "c"), (("c", "a"), ("a", "b"), ("b", "a")), True),
        (("d", "a", "b", "c"), (("a", "b"), ("c", "d")), False),
        (("a", "b", "c"), (("b", "c"),), False),
    ])
    def test_is_connected(self, vertices, edges, connected):
        assert OlaGraph(vertices, edges).is_connected() is connected

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

    def test_bytes_are_pinned(self):
        # Digest taken before the connector chains were built in one loop
        # over both sides: heights, edges and parts of H in their insertion
        # order, and the plan, for every naming of each bench shape.
        h = hashlib.sha256()
        for pairs in BENCH_SHAPES:
            for rank in itertools.permutations(range(1 + max(map(max, pairs)))):
                inst = ola_reduce(named(pairs, rank), 10)
                h.update(repr((inst.graph.vertices, inst.graph.edges, inst.vertex_parts,
                               inst.edge_parts, inst.plan)).encode())
        assert h.hexdigest() == "862c1f85737f5ca282753a5cc7acf09f46d28692346f8cee189e731309f43107"

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
        d, _ = arrangement_to_drawing(inst, best)
        assert count_crossings_geometric(d).count == 0 == inst.budget

    def test_path_identity_within_bound(self):
        ranks = {"a": 1, "b": 2, "c": 3}
        arr = LinearArrangement.for_graph(P3, ranks)
        inst = ola_reduce(P3, arr.cost)
        d, _ = arrangement_to_drawing(inst, arr)
        assert count_crossings_geometric(d).count <= inst.budget == 3

    def test_triangle_any_arrangement_within_bound(self):
        ranks = {"a": 2, "b": 1, "c": 3}
        arr = LinearArrangement.for_graph(TRIANGLE, ranks)
        inst = ola_reduce(TRIANGLE, arr.cost)
        assert count_crossings_geometric(arrangement_to_drawing(inst, arr)[0]).count <= inst.budget

    def test_extract_is_inverse(self):
        best = ola_brute(P3)
        inst = ola_reduce(P3, best.cost)
        d, _ = arrangement_to_drawing(inst, best)
        f1, f2 = extract_arrangement(d, inst)
        assert f1.ranks == best.ranks == f2.ranks

    def test_extract_of_mirrored_drawing_reverses(self):
        best = ola_brute(P3)
        inst = ola_reduce(P3, best.cost)
        d, _ = arrangement_to_drawing(inst, best)
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
        d, _ = arrangement_to_drawing(inst, best)
        a, b = inst.plan.bottom_connector["a"], inst.plan.bottom_connector["b"]
        xs = dict(d.x)
        xs[a], xs[b] = xs[b], xs[a]
        f1, f2 = extract_arrangement(Drawing(graph=d.graph, x=xs, bends=d.bends), inst)
        assert f1.ranks != f2.ranks

    def test_ambiguous_connector_positions_rejected(self):
        best = ola_brute(P3)
        inst = ola_reduce(P3, best.cost)
        d, _ = arrangement_to_drawing(inst, best)
        xs = dict(d.x)
        xs[inst.plan.top_connector["a"]] = xs[inst.plan.top_connector["b"]]
        # Top connectors share one height, so equal x makes them coincide.
        with pytest.raises(DegeneracyError) as exc:
            Drawing(graph=d.graph, x=xs, bends=d.bends)
        assert str(exc.value) == "vertices 'a:T5_2' and 'b:T5_2' coincide at (Fraction(12, 1), Fraction(22, 1))"

    def test_certified_drawing_carries_its_certificate(self):
        best = ola_brute(TRIANGLE)
        inst = ola_reduce(TRIANGLE, best.cost)
        d, cert = arrangement_to_drawing(inst, best)
        assert (d, cert) == arrangement_to_drawing(inst, best)
        assert cert == count_crossings_geometric(d)

    def test_arrangement_mismatch_rejected(self):
        best = ola_brute(P3)
        inst = ola_reduce(P3, best.cost)
        with pytest.raises(GraphStructureError):
            arrangement_to_drawing(inst, LinearArrangement({"x": 1, "y": 2}, 0))
        other = ola_reduce(TRIANGLE, ola_brute(TRIANGLE).cost)
        with pytest.raises(GraphStructureError) as exc:
            extract_arrangement(arrangement_to_drawing(other, ola_brute(TRIANGLE))[0], inst)
        assert exc.value.code == "map-mismatch"

    def test_builds_on_the_integer_grid(self, monkeypatch):
        # Work guard on the benchmark's largest source (920 vertices in H):
        # the reduction makes one Fraction per level (72) and two per lane
        # offset (7 routes); the drawing one per (column, local x) (75), per
        # fanned strand (210), per gap height (5), per kappa (1) and per lane
        # origin (14).  Per vertex, they were 1,854 and 941.
        import reebdraw.gadget

        g = named(FIVE_CYCLE_TWO_CHORDS, (0, 1, 2, 3, 4))
        best = ola_brute(g)
        made = []

        def counting(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(reebdraw.gadget, "Fraction", counting)
        inst = ola_reduce(g, best.cost)
        assert (inst.graph.vertex_count, len(made)) == (920, 86)
        made.clear()
        arrangement_to_drawing(inst, best)
        assert len(made) == 305


class TestGenericLaneOffsets:
    @pytest.mark.parametrize("rank", K4_PENDANT_ORDERS)
    def test_k4_pendant_within_budget(self, rank, monkeypatch):
        import reebdraw.gadget

        g = named(K4_PENDANT, rank)
        best = ola_brute(g)
        inst = ola_reduce(g, best.cost)
        calls = counted_geometric_calls(monkeypatch, reebdraw.gadget)
        d, cert = arrangement_to_drawing(inst, best)
        assert len(calls) == 2
        assert cert.count <= inst.budget
        assert extract_arrangement(d, inst) == (best, best)

    def test_k4_pendant_second_drawing_renders_as_reference(self, monkeypatch):
        import reebdraw.gadget

        g = named(K4_PENDANT, K4_PENDANT_ORDERS[0])
        best = ola_brute(g)
        inst = ola_reduce(g, best.cost)
        calls = counted_geometric_calls(monkeypatch, reebdraw.gadget)
        d, _ = arrangement_to_drawing(inst, best)
        assert len(calls) == 2  # the canonical offsets were degenerate; this is the kappa drawing
        for opts in (RenderOptions(), RenderOptions(show_level_lines=True)):
            assert render_svg(d, opts, inst.edge_parts) == reference_render_svg(d, opts, inst.edge_parts)

    @pytest.mark.parametrize("pairs,rank", [
        (HOUSE, (0, 1, 2, 4, 3)), (HOUSE, (0, 1, 2, 3, 4)), (HOUSE, (0, 2, 1, 4, 3)),
        (FIVE_CYCLE_TWO_CHORDS, (0, 1, 2, 3, 4)), (FIVE_CYCLE_TWO_CHORDS, (0, 1, 2, 4, 3)),
        (FIVE_CYCLE_TWO_CHORDS, (0, 1, 3, 2, 4)), (FIVE_CYCLE_TWO_CHORDS, (0, 1, 3, 4, 2)),
    ])
    def test_matches_reference(self, pairs, rank, monkeypatch):
        # Byte-identical where the reference's canonical offsets certify; the
        # same count where it needed a later wobble.
        import helpers
        import reebdraw.gadget

        g = named(pairs, rank)
        best = ola_brute(g)
        inst = ola_reduce(g, best.cost)
        reference_calls = counted_geometric_calls(monkeypatch, helpers)
        calls = counted_geometric_calls(monkeypatch, reebdraw.gadget)
        expected, expected_cert = reference_certified_drawing(inst, best)
        d, cert = arrangement_to_drawing(inst, best)
        # A shared lane makes the canonical count refuse, so it is skipped.
        assert len(calls) == (1 if shares_a_lane(reference_calls[0], inst) else min(len(reference_calls), 2))
        assert cert.count == expected_cert.count <= inst.budget
        if len(reference_calls) == 1:
            assert list(d.x.items()) == list(expected.x.items())
            assert d.bends == expected.bends
            assert cert == expected_cert

    @pytest.mark.parametrize("pairs,rank,digest", [
        (HOUSE, (0, 1, 2, 3, 4), "94439e917217fc366dbc855851de2e795a1b87a8ac29c0412cf63a8d4e82261a"),
        (HOUSE, (0, 2, 1, 4, 3), "4c6c56c76f58be0c75cc4bf30333023e1455ebfdee842060b602fc0171493cbb"),
        (FIVE_CYCLE_TWO_CHORDS, (0, 1, 2, 4, 3), "bbfccba8d9c4bc58e7f484461831e030891570acb30df253b3755b96e9f2d5d7"),
    ])
    def test_a_shared_lane_counts_only_the_second_drawing(self, pairs, rank, digest, monkeypatch):
        # Two E1 routes share a lane at kappa = 0, so their canonical bends
        # coincide and that drawing's count refuses.  The second drawing is
        # the only one counted, and its JSON and certificate are byte for
        # byte those made by counting the canonical drawing first (digest).
        import helpers
        import reebdraw.gadget

        g = named(pairs, rank)
        best = ola_brute(g)
        inst = ola_reduce(g, best.cost)
        reference_calls = counted_geometric_calls(monkeypatch, helpers)
        reference_certified_drawing(inst, best)
        canonical = reference_calls[0]
        assert shares_a_lane(canonical, inst)
        with pytest.raises(DegeneracyError):
            count_crossings_geometric(canonical)
        calls = counted_geometric_calls(monkeypatch, reebdraw.gadget)
        d, cert = arrangement_to_drawing(inst, best)
        assert calls == [d]
        out = serialize_drawing(d) + json.dumps(certificate_to_obj(cert))
        assert hashlib.sha256(out.encode()).hexdigest() == digest
