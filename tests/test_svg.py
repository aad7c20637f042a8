from __future__ import annotations

import random
import re
from fractions import Fraction
from xml.etree import ElementTree

import pytest

from reebdraw import (
    Drawing,
    GraphStructureError,
    ReebGraph,
    RenderOptions,
    layout_bowtie,
    ola_brute,
    ola_reduce,
    arrangement_to_drawing,
    realize_layered,
    render_svg,
    subdivide,
    tri_hex_grid,
)
from reebdraw.gadget import OlaGraph

from helpers import (
    alternating_cycle,
    curved_copy,
    random_connected_graph,
    random_ordering,
    reference_render_svg,
)


def test_single_vertex_renders_centered_circle():
    g = ReebGraph({"a": Fraction(1)}, ())
    d = Drawing(graph=g, x={"a": Fraction(5)})
    svg = render_svg(d, RenderOptions(width=200, height=100, margin=10))
    match = re.search(r'<circle cx="([\d.]+)" cy="([\d.]+)"', svg)
    assert match is not None
    assert (float(match.group(1)), float(match.group(2))) == (100.0, 50.0)


def test_single_edge_renders_one_polyline():
    g = ReebGraph.build({"a": 0, "b": 1}, [("a", "b")])
    d = Drawing(graph=g, x={"a": Fraction(0), "b": Fraction(1)})
    svg = render_svg(d)
    points = re.findall(r'<polyline points="([^"]+)"', svg)
    assert len(points) == 1
    assert len(points[0].split()) == 2


def test_ids_holding_markup_render_as_text():
    ids = ["a<b&c", "</title><script>x()</script>", "x>y"]
    g = ReebGraph.build({v: k for k, v in enumerate(ids)}, [(ids[0], ids[1]), (ids[1], ids[2])])
    d = Drawing(graph=g, x={v: Fraction(k) for k, v in enumerate(ids)})
    svg = render_svg(d)
    assert svg == reference_render_svg(d)
    root = ElementTree.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    assert [title.text for title in root.iter(f"{ns}title")] == ids
    assert not list(root.iter(f"{ns}script"))

def test_y_axis_flipped():
    g = ReebGraph.build({"lo": 0, "hi": 10}, [("lo", "hi")])
    d = Drawing(graph=g, x={"lo": Fraction(0), "hi": Fraction(1)})
    svg = render_svg(d, RenderOptions(width=100, height=100, margin=10))
    circles = dict(re.findall(r'<circle cx="[\d.]+" cy="([\d.]+)" r="[\d.]+" fill="[^"]*"><title>(\w+)</title>', svg))
    by_id = {v: float(y) for y, v in circles.items()}
    assert by_id["hi"] < by_id["lo"]


def test_bowtie_segments_cross_on_screen():
    d = layout_bowtie(alternating_cycle(4))
    svg = render_svg(d)
    polys = re.findall(r'<polyline points="([^"]+)"', svg)
    segs = []
    for p in polys:
        pts = [tuple(map(float, xy.split(","))) for xy in p.split()]
        segs.extend(zip(pts, pts[1:]))

    def crosses(s, t):
        (x1, y1), (x2, y2) = s
        (x3, y3), (x4, y4) = t
        d1 = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
        d2 = (x2 - x1) * (y4 - y1) - (y2 - y1) * (x4 - x1)
        d3 = (x4 - x3) * (y1 - y3) - (y4 - y3) * (x1 - x3)
        d4 = (x4 - x3) * (y2 - y3) - (y4 - y3) * (x2 - x3)
        return d1 * d2 < 0 and d3 * d4 < 0

    assert sum(1 for i in range(len(segs)) for j in range(i + 1, len(segs))
               if crosses(segs[i], segs[j])) == 1


def test_byte_determinism():
    d = layout_bowtie(alternating_cycle(6))
    opts = RenderOptions(show_level_lines=True)
    assert render_svg(d, opts) == render_svg(d, opts)


def test_level_lines_toggle():
    d = layout_bowtie(alternating_cycle(4))
    with_lines = render_svg(d, RenderOptions(show_level_lines=True))
    without = render_svg(d)
    assert with_lines.count("<line") == 2
    assert without.count("<line") == 0


def test_color_by_part_styles_gadget_edges():
    g = OlaGraph(("a", "b"), (("a", "b"),))
    best = ola_brute(g)
    inst = ola_reduce(g, best.cost)
    d, _ = arrangement_to_drawing(inst, best)
    svg = render_svg(d, edge_parts=inst.edge_parts)
    assert 'stroke="#e07000"' in svg       # source edges in orange
    assert "stroke-dasharray" in svg       # strands dotted
    assert 'stroke="#c00000"' in svg       # chains red


def test_bad_options_rejected():
    with pytest.raises(GraphStructureError):
        RenderOptions(width=0)


@pytest.mark.parametrize("options, field", [
    ({"width": True, "margin": 0.25}, "width"),
    ({"width": float("inf")}, "width"),
    ({"height": float("-inf")}, "height"),
    ({"margin": float("nan")}, "margin"),
    ({"margin": "40"}, "margin"),
    ({"width": Fraction(800)}, "width"),
    ({"height": None, "margin": float("nan")}, "height"),
    ({"height": -1, "margin": False}, "height"),
], ids=["bool", "inf", "minus-inf", "nan", "string", "fraction", "first-of-two",
        "negative-before-bool"])
def test_size_options_must_be_finite_numbers(options, field):
    # Unchecked, a bool, NaN or infinity would reach the SVG text as it is
    # (width="True", points="nan,...", height="inf") and a string would
    # raise a bare TypeError.  The first bad size in field order is named.
    with pytest.raises(GraphStructureError) as exc:
        RenderOptions(**options)
    assert exc.value.code == "bad-options"
    assert str(exc.value).startswith(f"render option {field} must be ")


def test_float_and_large_int_sizes_accepted():
    opts = RenderOptions(width=10**30, height=600.0, margin=1)
    assert (opts.width, opts.height) == (10**30, 600.0)


@pytest.mark.parametrize("size", [
    {"width": 50, "height": 50}, {"width": 80}, {"height": 80},
], ids=["mirrored", "width-collapsed", "height-collapsed"])
def test_margins_that_leave_no_drawing_area_rejected(size):
    # With width 50 and margin 40, x = 0 would land at 40 and x = 1 at 10.
    with pytest.raises(GraphStructureError) as exc:
        RenderOptions(margin=40, **size)
    assert exc.value.code == "bad-options"
    assert "leaves no drawing area" in str(exc.value)


def test_margins_that_leave_one_pixel_accepted():
    opts = RenderOptions(width=81, height=81, margin=40)
    g = ReebGraph.build({"a": 0, "b": 1}, [("a", "b")])
    svg = render_svg(Drawing(graph=g, x={"a": Fraction(0), "b": Fraction(1)}), opts)
    assert 'cx="40.00" cy="41.00"' in svg and 'cx="41.00" cy="40.00"' in svg


class TestRendererOracle:
    """``render_svg`` reads the integer frame; the Fraction renderer it
    replaced must give the same bytes."""

    OPTIONS = (
        RenderOptions(),
        RenderOptions(show_level_lines=True),
        RenderOptions(width=333, height=127, margin=7, show_level_lines=True),
    )

    def assert_same(self, d, edge_parts=None):
        for opts in self.OPTIONS:
            assert render_svg(d, opts) == reference_render_svg(d, opts)
        opts = RenderOptions(show_level_lines=True)
        assert render_svg(d, opts, edge_parts) == reference_render_svg(d, opts, edge_parts)

    @pytest.mark.parametrize("source", [
        OlaGraph(("a", "b"), (("a", "b"),)),
        OlaGraph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c"))),
        OlaGraph(("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"))),
    ], ids=["K2", "triangle", "four-cycle"])
    def test_gadget_drawings(self, source):
        best = ola_brute(source)
        inst = ola_reduce(source, best.cost)
        d, _ = arrangement_to_drawing(inst, best)
        self.assert_same(d, inst.edge_parts)

    def test_curved_copies_and_realized_orderings(self):
        rng = random.Random(61)
        bent = 0
        for rows in (2, 4, 6):
            d = curved_copy(tri_hex_grid(rows).drawing, rng)
            bent += sum(map(len, d.bends))
            self.assert_same(d)
        for _ in range(10):
            g2, _ = subdivide(random_connected_graph(rng.randint(3, 12), rng, extra=0))
            d = realize_layered(g2, random_ordering(g2, rng))
            self.assert_same(d)
        assert bent > 0

    def test_single_vertex(self):
        d = Drawing(graph=ReebGraph({"a": Fraction(-7, 3)}, ()), x={"a": Fraction(5, 11)})
        self.assert_same(d)

    def test_empty_drawing(self):
        self.assert_same(Drawing(graph=ReebGraph({}, ()), x={}))

    def test_one_level(self):
        # Zero y-span: every vertex on one level, so no edges.
        g = ReebGraph({v: Fraction(3, 2) for v in "abc"}, ())
        self.assert_same(Drawing(graph=g, x={"a": Fraction(-1), "b": Fraction(2, 7), "c": Fraction(4)}))

    def test_all_vertical(self):
        # Zero x-span: a vertical path with a bend on the same vertical.
        g = ReebGraph.build({"a": 0, "b": "1/3", "c": 2}, [("a", "b"), ("b", "c")])
        d = Drawing(graph=g, x={v: Fraction(-5, 9) for v in "abc"},
                    bends=((), ((Fraction(-5, 9), Fraction(1)),)))
        self.assert_same(d)

    def test_negative_and_large_denominator_coordinates(self):
        big = 10 ** 12 + 39
        g = ReebGraph.build({"a": Fraction(-3, big), "b": Fraction(7, 3), "c": Fraction(-big, 7),
                             "d": Fraction(1, big + 2)},
                            [("a", "b"), ("c", "d"), ("c", "b")])
        d = Drawing(
            graph=g,
            x={"a": Fraction(-big, 13), "b": Fraction(1, big), "c": Fraction(-2, 3),
               "d": Fraction(big, 10 ** 6 + 3)},
            bends=(((Fraction(-1, 3 * big), Fraction(1, 10 ** 9 + 7)),),
                   ((Fraction(-big, 2), Fraction(-1, 3)),),
                   ((Fraction(-5, 7), Fraction(-big, 9)), (Fraction(1, 17), Fraction(2)))),
        )
        self.assert_same(d)
