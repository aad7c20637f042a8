from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

import reebdraw
from reebdraw import render_svg, tri_hex_grid
from reebdraw.cli import main
from reebdraw.jsonio import graph_to_obj, serialize_drawing

from helpers import (
    alternating_cycle,
    counted_geometric_calls,
    counted_level_calls,
    deep_general_graph,
    distinct_height_caterpillar,
    distinct_height_path,
)

GRAPH = {
    "vertices": [
        {"id": "a", "height": 0},
        {"id": "b", "height": 1},
        {"id": "c", "height": 2},
        {"id": "d", "height": 1},
    ],
    "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]],
}

FIXTURES = Path(__file__).parent / "fixtures"

OLA = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(GRAPH))
    return path


@pytest.fixture
def ola_file(tmp_path):
    path = tmp_path / "ola.json"
    path.write_text(json.dumps(OLA))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate(graph_file, capsys):
    code, out, err = run(capsys, "validate", graph_file)
    assert code == 0
    report = json.loads(out)
    assert report["is_subdivided"] is True
    assert report["is_generic"] is False


def test_layout_then_crossings(graph_file, tmp_path, capsys):
    drawing_path = tmp_path / "d.json"
    svg_path = tmp_path / "d.svg"
    code, _, _ = run(capsys, "layout", graph_file, "-o", drawing_path, "--svg", svg_path)
    assert code == 0
    assert svg_path.read_text().startswith("<svg")
    code, out, _ = run(capsys, "crossings", drawing_path)
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_layout_algorithm_choices(graph_file, capsys):
    for algorithm in ("auto", "cycle", "bowtie", "exact", "heuristic"):
        if algorithm == "bowtie":
            continue  # this input spans three levels
        code, out, _ = run(capsys, "layout", graph_file, "--algorithm", algorithm)
        assert code == 0, algorithm


def test_layout_wrong_algorithm_is_validation_error(graph_file, capsys):
    code, out, err = run(capsys, "layout", graph_file, "--algorithm", "path")
    assert code == 1
    assert json.loads(err)["error"] == "not-path"


def test_exact_and_budget_exit_codes(graph_file, capsys):
    code, out, _ = run(capsys, "exact", graph_file)
    assert code == 0
    assert json.loads(out)["count"] == 0
    code, _, err = run(capsys, "exact", graph_file, "--budget", "1")
    assert code == 2
    assert json.loads(err)["error"] == "budget-exhausted"


def test_exact_on_a_tree_requiring_crossings(capsys):
    code, out, _ = run(capsys, "exact", FIXTURES / "tree_requiring_crossings.json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["ordering"] == [
        ["v1", "v4", "v6"],
        ["__sub_4_1", "__sub_0_1", "__sub_5_1", "v2", "__sub_6_1"],
        ["v5", "v0", "v3", "v7"],
    ]
    heights = {"v0": "2", "v1": "0", "v2": "1", "v3": "2", "v4": "0", "v5": "2", "v6": "0", "v7": "2",
               "__sub_0_1": "1", "__sub_4_1": "1", "__sub_5_1": "1", "__sub_6_1": "1"}
    assert payload["subdivided"] == {
        "vertices": [{"id": v, "height": h} for v, h in heights.items()],
        "edges": [
            ["__sub_0_1", "v1"], ["__sub_0_1", "v0"], ["v0", "v2"], ["v2", "v3"], ["v2", "v4"],
            ["__sub_4_1", "v1"], ["__sub_4_1", "v5"], ["__sub_5_1", "v6"], ["__sub_5_1", "v0"],
            ["__sub_6_1", "v6"], ["__sub_6_1", "v7"],
        ],
    }
    # The per-candidate bound explored 729 states here.
    assert payload["states"] <= 729
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3fa0265f441565cb9fd48a7f9a84806d417546fafe0e05dfbb21a3d9f5be2e30")


def test_exact_on_a_level_planar_bench_graph(capsys):
    code, out, _ = run(capsys, "exact", FIXTURES / "level_planar_bench_graph.json")
    assert code == 0
    assert json.loads(out)["count"] == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d221790f23ffe0ca7069ee587637cc74996450d47aeccd1ddfe5c6763458686f")


def test_exact_on_a_bench_graph_of_minimum_one(capsys):
    code, out, _ = run(capsys, "exact", FIXTURES / "min_one_bench_graph.json")
    assert code == 0
    assert json.loads(out)["count"] == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fdc3203415ef5c16ea7ecffe418db4c74bdf02fbd1f33e8948675b7a4846744c")


def test_budget_exhaustion_bytes(capsys):
    # 100 states do not reach this graph's minimum of 1.  The exact paths
    # report the warm start's 5 crossings, and auto draws that ordering.
    path = FIXTURES / "min_one_bench_graph.json"
    payload = {"error": "budget-exhausted", "message": "exact search exceeded budget of 100 states", "best": 5}
    for argv in (["exact", path], ["layout", path, "--algorithm", "exact"]):
        assert run(capsys, *argv, "--budget", "100") == (2, "", json.dumps(payload) + "\n")
    for argv in (["--budget", "100"], ["--algorithm", "heuristic"]):
        code, out, err = run(capsys, "layout", path, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "5da9c592cc95ca5ad38382869da42c57bd9b08323905d489018408f8c2902a0b")


def test_exact_and_auto_layout_on_a_deep_graph(tmp_path, capsys):
    # The search holds its state on an explicit stack, so depth is no limit.
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(graph_to_obj(deep_general_graph()), indent=2) + "\n")
    code, out, _ = run(capsys, "exact", path)
    assert code == 0
    assert json.loads(out)["count"] == 0
    code, _, _ = run(capsys, "layout", path, "--algorithm", "auto")
    assert code == 0


def test_subdivide_roundtrip(graph_file, capsys):
    code, out, _ = run(capsys, "subdivide", graph_file)
    assert code == 0
    payload = json.loads(out)
    assert "graph" in payload and "map" in payload


def test_stretch_cli(graph_file, tmp_path, capsys):
    drawing_path = tmp_path / "d.json"
    run(capsys, "layout", graph_file, "-o", drawing_path)
    code, out, _ = run(capsys, "stretch", drawing_path)
    assert code == 0
    assert all(not e["bends"] for e in json.loads(out)["edges"])


def test_stretch_cli_empty_drawing(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"graph": {"vertices": [], "edges": []}, "x": {}, "edges": []}))
    code, out, _ = run(capsys, "stretch", path)
    assert code == 0
    assert json.loads(out) == {"graph": {"vertices": [], "edges": []}, "x": {}, "edges": []}


# A crossing-free path with p3 in a pocket between p1-p2 and p0-p1.
POCKET_PATH = {
    "graph": {
        "vertices": [{"id": "p0", "height": "-2/3"}, {"id": "p1", "height": "3"}, {"id": "p2", "height": "0"},
                     {"id": "p3", "height": "1/2"}, {"id": "l0", "height": "9"}],
        "edges": [["p0", "p1"], ["p1", "p2"], ["p2", "p3"], ["l0", "p0"]],
    },
    "x": {"p0": "0", "p1": "1", "p2": "1", "p3": "2", "l0": "0"},
    "edges": [
        {"endpoints": ["p0", "p1"], "bends": [["2", "0"], ["3", "1/2"]]},
        {"endpoints": ["p1", "p2"], "bends": [["1", "1/2"]]},
        {"endpoints": ["p2", "p3"], "bends": []},
        {"endpoints": ["l0", "p0"], "bends": [["0", "0"], ["0", "1/2"], ["0", "3"]]},
    ],
}


def test_stretch_cli_refuses_the_pocket_path(tmp_path, capsys):
    path = tmp_path / "pocket.json"
    path.write_text(json.dumps(POCKET_PATH))
    code, out, err = run(capsys, "stretch", path)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "not-straightenable"


def test_render_cli(graph_file, tmp_path, capsys):
    drawing_path = tmp_path / "d.json"
    run(capsys, "layout", graph_file, "-o", drawing_path)
    code, out, _ = run(capsys, "render", drawing_path, "--level-lines")
    assert code == 0
    assert out.startswith("<svg")


def test_render_cli_escapes_ids(tmp_path, capsys):
    ids = ["a<b&c", "</title><script>x()</script>"]
    drawing_path = tmp_path / "d.json"
    drawing_path.write_text(json.dumps({
        "graph": {"vertices": [{"id": ids[0], "height": "0"}, {"id": ids[1], "height": "1"}],
                  "edges": [ids]},
        "x": {ids[0]: "0", ids[1]: "1"},
        "edges": [{"endpoints": ids, "bends": []}],
    }))
    code, out, _ = run(capsys, "render", drawing_path)
    assert code == 0
    root = ElementTree.fromstring(out)
    assert [title.text for title in root.iter("{http://www.w3.org/2000/svg}title")] == ids

def test_render_margin_leaving_no_area_is_refused(graph_file, tmp_path, capsys):
    drawing_path = tmp_path / "d.json"
    run(capsys, "layout", graph_file, "-o", drawing_path)
    code, out, err = run(capsys, "render", drawing_path, "--width", 50, "--margin", 40)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "bad-options"


def test_gadget_subcommands(ola_file, tmp_path, capsys):
    code, out, _ = run(capsys, "gadget", "ola-brute", "--graph", ola_file)
    assert code == 0
    assert json.loads(out)["cost"] == 2

    code, out, _ = run(capsys, "gadget", "ola-reduce", "--graph", ola_file, "--budget", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["budget"] == 3
    assert set(payload["vertex_parts"].values()) == {"V1", "V2"}

    svg_path = tmp_path / "h.svg"
    code, out, _ = run(capsys, "gadget", "verify", "--graph", ola_file, "--svg", svg_path)
    assert code == 0
    result = json.loads(out)
    assert result["ok"] and result["crossings"] <= result["budget"]
    assert svg_path.exists()

    hex_svg = tmp_path / "hex.svg"
    code, out, _ = run(capsys, "gadget", "hexgrid", "--rows", "2", "--svg", hex_svg)
    assert code == 0
    assert json.loads(out)["rows"] == 2
    assert hex_svg.read_text() == render_svg(tri_hex_grid(2).drawing)


def test_gadget_verify_counts_the_drawing_once(ola_file, tmp_path, capsys, monkeypatch):
    import reebdraw.cli
    import reebdraw.gadget

    calls = []
    counter = reebdraw.gadget.count_crossings_geometric

    def counting(d):
        calls.append(d)
        return counter(d)

    for module in (reebdraw.cli, reebdraw.gadget):
        monkeypatch.setattr(module, "count_crossings_geometric", counting)
    code, out, _ = run(capsys, "gadget", "verify", "--graph", ola_file)
    assert code == 0
    assert len(calls) == 1
    assert json.loads(out)["crossings"] == counter(calls[0]).count


def test_gadget_verify_over_budget_exits_1_with_ok_false(ola_file, tmp_path, capsys, monkeypatch):
    # A drawing with more crossings than the reduction's budget is a result,
    # not an error: exit 1, "ok": false on stdout, nothing on stderr, and the
    # SVG is still written.
    import reebdraw.cli

    certified = reebdraw.cli.arrangement_to_drawing

    def over_budget(inst, best):
        d, cert = certified(inst, best)
        return d, reebdraw.CrossingCertificate(inst.budget + 1, cert.pairs)

    monkeypatch.setattr(reebdraw.cli, "arrangement_to_drawing", over_budget)
    svg_path = tmp_path / "h.svg"
    code, out, err = run(capsys, "gadget", "verify", "--graph", ola_file, "--svg", svg_path)
    result = json.loads(out)
    assert (code, err, result["ok"]) == (1, "", False)
    assert result["crossings"] == result["budget"] + 1
    assert svg_path.exists()


@pytest.mark.parametrize("rank", [
    (0, 1, 3, 4, 2), (0, 3, 1, 4, 2), (1, 0, 3, 4, 2),
    (1, 3, 0, 4, 2), (3, 0, 1, 4, 2), (3, 1, 0, 4, 2),
])
def test_gadget_verify_k4_plus_pendant(rank, tmp_path, capsys, monkeypatch):
    # K4 plus a pendant edge; vertex v is named by the rank[v]-th letter.
    # These six orders were degenerate under every old lane-offset wobble.
    import reebdraw.cli
    import reebdraw.gadget

    name = "abcde"
    pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4))
    path = tmp_path / "k4p.json"
    path.write_text(json.dumps({"vertices": list(name),
                                "edges": [[name[rank[a]], name[rank[b]]] for a, b in pairs]}))
    calls = counted_geometric_calls(monkeypatch, reebdraw.gadget, reebdraw.cli)
    code, out, _ = run(capsys, "gadget", "verify", "--graph", path)
    assert code == 0
    result = json.loads(out)
    assert result["ok"] is True
    assert result["crossings"] <= result["budget"]
    assert len(calls) == 2


K4_SOURCE = {"vertices": ["a", "b", "c", "d"],
             "edges": [["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"], ["c", "d"]]}
# K4 plus a pendant edge in the order (0, 1, 3, 4, 2) above: its drawing needs
# the second attempt.
K4_PENDANT_SOURCE = {"vertices": list("abcde"),
                     "edges": [["a", "b"], ["a", "d"], ["a", "e"], ["b", "d"], ["b", "e"],
                               ["d", "e"], ["e", "c"]]}
# The 5-cycle with both chords from one vertex: the benchmark's largest gadget
# source (920 vertices and 1,442 edges in H).
FIVE_CHORDS_SOURCE = {"vertices": list("abcde"),
                      "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["a", "e"],
                                ["a", "c"], ["a", "d"]]}
CURVED_DRAWING = {
    "graph": {
        "vertices": [{"id": "a", "height": "-1"}, {"id": "b", "height": "1/2"},
                     {"id": "c", "height": "7/3"}, {"id": "d", "height": "3/2"}],
        "edges": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]],
    },
    "x": {"a": "0", "b": "-3/4", "c": "5/7", "d": "11/10"},
    "edges": [
        {"endpoints": ["a", "b"], "bends": [["-2/3", "-1/4"]]},
        {"endpoints": ["a", "c"], "bends": [["1/3", "0"], ["2/5", "4/3"]]},
        {"endpoints": ["b", "d"], "bends": []},
        {"endpoints": ["c", "d"], "bends": [["13/8", "2"]]},
    ],
}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("source,counts,json_sha,svg_sha", [
    (K4_SOURCE, 1,
     "953825843ce342406221b1ea9053feb78c79b3c1a25de766033c5421c3c37216",
     "692ba4b15c67cc8014dc8751c07bce547a93375aafe54d8795f267ff46af190f"),
    (K4_PENDANT_SOURCE, 2,
     "5a1caa0f33839c1a95b99cacdbfc14f9693df967d5306779d5821c851b11575b",
     "d5dc9f7dca2869a9498e0215a890803d576752506bf5613efc5d9e9a66ed84aa"),
    (FIVE_CHORDS_SOURCE, 1,
     "227471dc24488162ad40d3c23aa31f48093c95ca36f0c64d185a19b3490cb586",
     "be54ffa9baf5c024b7f6692a2ddf105a660b8dbc289e522aeba2b2e9b08ce473"),
], ids=["K4", "K4-pendant", "five-chords"])
def test_gadget_verify_golden_bytes(source, counts, json_sha, svg_sha, tmp_path, capsys, monkeypatch):
    # Digests of the outputs before the renderer moved to the integer frame
    # (five-chords: before the gadget moved to its plan's integer grid); any
    # change to the drawing, the count or the SVG bytes shows here.
    import reebdraw.cli
    import reebdraw.gadget

    path = tmp_path / "source.json"
    path.write_text(json.dumps(source))
    calls = counted_geometric_calls(monkeypatch, reebdraw.gadget, reebdraw.cli)
    code, _, _ = run(capsys, "gadget", "verify", "--graph", path,
                     "-o", tmp_path / "out.json", "--svg", tmp_path / "out.svg")
    assert code == 0
    assert len(calls) == counts
    assert (_sha256(tmp_path / "out.json"), _sha256(tmp_path / "out.svg")) == (json_sha, svg_sha)


@pytest.mark.parametrize("source,sha", [
    (K4_SOURCE, "67ac6c576f4ed7e1693d5e2cb7df33b6abd388cf16cf2441dfab3ee3e16799fd"),
    (FIVE_CHORDS_SOURCE, "6ef2c680bd82a0dee600f95fddfbdf0c84c2e6ff55696cf4c6c20e7c05333d49"),
], ids=["K4", "five-chords"])
def test_gadget_ola_reduce_golden_bytes(source, sha, tmp_path, capsys):
    # Heights, parts and the budget of H as printed; any change to the
    # reduction shows here.
    path = tmp_path / "source.json"
    path.write_text(json.dumps(source))
    code, out, _ = run(capsys, "gadget", "ola-reduce", "--graph", path, "--budget", "10")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_render_level_lines_golden_bytes(tmp_path, capsys):
    path = tmp_path / "curved.json"
    path.write_text(json.dumps(CURVED_DRAWING))
    code, _, _ = run(capsys, "render", path, "--level-lines", "-o", tmp_path / "out.svg")
    assert code == 0
    assert _sha256(tmp_path / "out.svg") == "73d1e77ad7961b4910fefb09f7a52f55dfd7fcd559a61897c6e04a227e4ff77d"


CURVED_CATERPILLAR = {
    "graph": {
        "vertices": [{"id": "s1", "height": "0"}, {"id": "s2", "height": "2"},
                     {"id": "s3", "height": "-1/2"}, {"id": "l1", "height": "5/2"},
                     {"id": "l2", "height": "1"}, {"id": "l3", "height": "3/4"}],
        "edges": [["s1", "s2"], ["s2", "s3"], ["s1", "l1"], ["s2", "l2"], ["s3", "l3"]],
    },
    "x": {"s1": "0", "s2": "3", "s3": "6", "l1": "-2", "l2": "5/2", "l3": "15/2"},
    "edges": [
        {"endpoints": ["s1", "s2"], "bends": [["1/2", "1/2"], ["-1/3", "3/2"]]},
        {"endpoints": ["s2", "s3"], "bends": [["9/2", "0"], ["4", "1"]]},
        {"endpoints": ["s1", "l1"], "bends": [["-1", "1"], ["-7/4", "2"]]},
        {"endpoints": ["s2", "l2"], "bends": [["11/4", "3/2"]]},
        {"endpoints": ["s3", "l3"], "bends": [["7", "1/4"]]},
    ],
}
ESCAPED_IDS = {
    "graph": {
        "vertices": [{"id": 'q"uote', "height": 0}, {"id": "back\\slash", "height": 2},
                     {"id": "caf\u00e9", "height": 1}, {"id": "\U0001d11e\ttab", "height": 3}],
        "edges": [['q"uote', "caf\u00e9"], ["caf\u00e9", "back\\slash"], ["back\\slash", "\U0001d11e\ttab"]],
    },
    "x": {'q"uote': "0", "back\\slash": "1/3", "caf\u00e9": "-1/2", "\U0001d11e\ttab": "2"},
    "edges": [
        {"endpoints": ['q"uote', "caf\u00e9"], "bends": [["1/4", "1/2"]]},
        {"endpoints": ["caf\u00e9", "back\\slash"], "bends": [["-1", "3/2"]]},
        {"endpoints": ["back\\slash", "\U0001d11e\ttab"], "bends": []},
    ],
}


@pytest.mark.parametrize("drawing,sha", [
    (CURVED_CATERPILLAR, "a6f7b946a84a3424e7c625029dcda6c91c983cb28e8038c5406e3abaea0f4653"),
    (ESCAPED_IDS, "3b579cde7416c31b1a37281bad93e26362381ecb002c17e082f9efc82384effd"),
], ids=["curved-caterpillar", "escaped-ids"])
def test_stretch_golden_bytes(drawing, sha, tmp_path, capsys):
    # Digests of the outputs from before drawings were written by template;
    # any change to the placement, the peel or the written bytes (escaped
    # ids included) shows here.
    path = tmp_path / "curved.json"
    path.write_text(json.dumps(drawing))
    code, _, _ = run(capsys, "stretch", path, "-o", tmp_path / "out.json")
    assert code == 0
    assert _sha256(tmp_path / "out.json") == sha


CYCLE_K2 = {
    "vertices": [{"id": v, "height": h} for v, h in
                 [("t1", 2), ("m1", 1), ("b1", 0), ("m2", 1), ("t2", 2), ("m3", 1), ("b2", 0), ("m4", 1)]],
    "edges": [["t1", "m1"], ["m1", "b1"], ["b1", "m2"], ["m2", "t2"],
              ["t2", "m3"], ["m3", "b2"], ["b2", "m4"], ["m4", "t1"]],
}
ALTERNATING_SIX = {
    "vertices": [{"id": f"v{i}", "height": 1 - i % 2} for i in range(6)],
    "edges": [[f"v{i}", f"v{(i + 1) % 6}"] for i in range(6)],
}
PARALLEL_PAIR = {
    "vertices": [{"id": "a", "height": 0}, {"id": "b", "height": 1}],
    "edges": [["a", "b"], ["a", "b"]],
}


@pytest.mark.parametrize("graph,sha", [
    (distinct_height_path(2400, random.Random(2400)),
     "81dc41ce4cb720f9adbe63a7107f80a81866a4c0c94930ab5fe7f727633bf124"),
    (distinct_height_caterpillar(1200, random.Random(1200)),
     "49b15e6ea6b57963b8a120215e64ba620e9e414ee34256598cbe2da6c82982b6"),
], ids=["path-2400", "caterpillar-1200"])
def test_layout_bytes_with_one_vertex_per_height(graph, sha, tmp_path, capsys):
    # Long edges that pass many vertex heights: the certifying count's
    # foreign-vertex check sees each of them.
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_obj(graph), indent=2) + "\n")
    code, out, err = run(capsys, "layout", path, "--algorithm", "auto")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha


@pytest.mark.parametrize("algorithm,graph,json_sha,svg_sha", [
    ("cycle", CYCLE_K2,
     "375550c50c435062d4d7276948d16f0e521f444f3ab695fdab39997db11c8ae4",
     "19f8c8b550e8faa08cdae127fabc9534f2b451278494c5cfb81d1598a4987ba0"),
    ("bowtie", ALTERNATING_SIX,
     "0a8ea76104208daa25614d34a383aeef6d8b9c2c9701007d8659ce6b57b3bdab",
     "b611cda0a16ab248204304d6e959c6ad4243b118936babc741ec6e2272f934e8"),
    ("bowtie", PARALLEL_PAIR,
     "b1096457ce4eb501d91cc3a1bf5b2a283a22dcbdc719c421ea242639e221bf17",
     "be03c23ef876818efc55c241cffd4a5e8081633a147c71c0f08d39763238c911"),
], ids=["cycle-k2", "bowtie-six", "bowtie-two"])
def test_cycle_layout_golden_bytes(algorithm, graph, json_sha, svg_sha, tmp_path, capsys):
    # Digests of the outputs from before the cycle layouts shared one
    # decomposition; any change to the drawing or the SVG bytes shows here.
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    code, _, _ = run(capsys, "layout", "--algorithm", algorithm, path,
                     "-o", tmp_path / "out.json", "--svg", tmp_path / "out.svg")
    assert code == 0
    assert (_sha256(tmp_path / "out.json"), _sha256(tmp_path / "out.svg")) == (json_sha, svg_sha)


def test_crossings_cli_lists_each_crossing(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(ALTERNATING_SIX))
    assert run(capsys, "layout", "--algorithm", "bowtie", path, "-o", tmp_path / "d.json")[0] == 0
    pairs = [{"edges": [0, 4], "point": ["3/2", "1/2"]}, {"edges": [1, 3], "point": ["5/2", "1/2"]}]
    assert run(capsys, "crossings", tmp_path / "d.json") == (
        0, json.dumps({"count": 2, "crossings": pairs}, indent=2) + "\n", "")


ZIGZAG_PATH = {
    "vertices": [{"id": v, "height": h} for v, h in
                 [("p", "1/2"), ("q", 3), ("r", "-2/3"), ("s", 2), ("t", "7/4"), ("u", 0)]],
    "edges": [["q", "r"], ["p", "q"], ["s", "r"], ["t", "s"], ["u", "t"]],
}


@pytest.mark.parametrize("argv,json_sha,svg_sha", [
    (["layout", "--algorithm", "path", "{graph}"],
     "574c1bfaa1e490e60ae006284c0c51549c36f96b3a8b477301a98612ef55cfc1",
     "7e408c49bc997e4df6d944bda560484c74682b17da1fc972200658c71620c96b"),
    (["gadget", "hexgrid", "--rows", "3"],
     "90f60c8c60e1221904ceebf0f754c82e27ed8b9fd2f466b611c67abf2c0d20bb",
     "c3754c6339b23e689d639cd4e59ffb0d1b16fcf2ae84ac7710c72ee848935f56"),
], ids=["path", "hexgrid"])
def test_certified_constructions_golden_bytes(argv, json_sha, svg_sha, tmp_path, capsys, monkeypatch):
    # Digests of the outputs from before these constructions counted their
    # drawings; each now counts its drawing once and emits the same bytes.
    import reebdraw.cli
    import reebdraw.gadget
    import reebdraw.layout

    path = tmp_path / "g.json"
    path.write_text(json.dumps(ZIGZAG_PATH))
    calls = counted_geometric_calls(monkeypatch, reebdraw.layout, reebdraw.gadget, reebdraw.cli)
    code, _, _ = run(capsys, *(a.format(graph=path) for a in argv),
                     "-o", tmp_path / "out.json", "--svg", tmp_path / "out.svg")
    assert code == 0
    assert len(calls) == 1
    assert (_sha256(tmp_path / "out.json"), _sha256(tmp_path / "out.svg")) == (json_sha, svg_sha)


TREE = {
    "vertices": [{"id": "a", "height": 0}, {"id": "b", "height": 1}, {"id": "c", "height": 2}],
    "edges": [["a", "b"], ["a", "c"]],
}

# Inputs from outside the program that each command must refuse: the
# arguments before the input file, the file's content, the error code.
MALFORMED = {
    "bad-json": (["validate"], "{nope", "bad-json"),
    "caterpillar-on-a-cycle": (["layout", "--algorithm", "caterpillar"], GRAPH, "not-caterpillar"),
    "cycle-on-a-tree": (["layout", "--algorithm", "cycle"], TREE, "not-single-cycle"),
    "bowtie-on-a-tree": (["layout", "--algorithm", "bowtie"], TREE, "not-single-cycle"),
    "duplicate-vertex": (["gadget", "ola-reduce", "--budget", "1", "--graph"],
                         {"vertices": ["a", "a", "b"], "edges": [["a", "b"]]}, "duplicate-vertex"),
    "unknown-vertex": (["gadget", "ola-reduce", "--budget", "1", "--graph"],
                       {"vertices": ["a", "b"], "edges": [["a", "c"]]}, "unknown-vertex"),
    "self-loop": (["gadget", "ola-reduce", "--budget", "1", "--graph"],
                  {"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "b"]]}, "self-loop"),
    "no-edges": (["gadget", "ola-reduce", "--budget", "1", "--graph"], {"vertices": ["a"], "edges": []}, "no-edges"),
    "edge-mismatch": (["crossings"],
                      {"graph": TREE, "x": {"a": "0", "b": "0", "c": "1"},
                       "edges": [{"endpoints": ["a", "b"], "bends": []}, {"endpoints": ["b", "c"], "bends": []}]},
                      "edge-mismatch"),
    "not-utf-8": (["validate"], b"\xff\xfe\x00bad", "bad-json"),
    "deep-nesting": (["validate"], "[" * 100_000, "bad-json"),
    "long-integer": (["validate"], '{"vertices": [{"id": "a", "height": ' + "1" * 5000 + '}], "edges": []}',
                     "bad-json"),
}
for name, height in (("huge-exponent", "1e999999999"), ("huge-negative-exponent", "1e-999999999"),
                     ("exponent-past-the-digit-limit", "1e5000")):
    MALFORMED[name] = (["layout"], {"vertices": [{"id": "a", "height": 0}, {"id": "b", "height": height}],
                                    "edges": [["a", "b"]]}, "bad-rational")
# Results whose rationals have more digits than Python writes out: the second of
# two parallel edges bends at the mean of two heights with 4,300-digit
# denominators, and 10**-4300 has a 4,301-digit denominator.
MALFORMED["bend-past-the-digit-limit"] = (
    ["layout"], {"vertices": [{"id": "a", "height": f"1/{10 ** 4299 + 1}"},
                              {"id": "b", "height": f"1/{10 ** 4299 + 3}"}],
                 "edges": [["a", "b"], ["a", "b"]]}, "too-many-digits")
MALFORMED["height-past-the-digit-limit"] = (
    ["layout"], {"vertices": [{"id": "a", "height": "0." + "0" * 4299 + "1"}, {"id": "b", "height": 1}],
                 "edges": [["a", "b"]]}, "too-many-digits")
for command, endpoints in (("crossings", [1, "a"]), ("stretch", [None, "a"]), ("render", [["a"], "b"])):
    MALFORMED[f"{command}-endpoints-not-ids"] = (
        [command], {"graph": TREE, "x": {"a": "0", "b": "0", "c": "1"},
                    "edges": [{"endpoints": endpoints, "bends": []}, {"endpoints": ["a", "c"], "bends": []}]},
        "bad-schema")


@pytest.mark.parametrize("argv, content, error", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_is_exit_one(argv, content, error, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(content if isinstance(content, str) else json.dumps(content))
    code, out, err = run(capsys, *argv, bad)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == error


def test_dash_reads_stdin(graph_file, monkeypatch, capsys):
    # "-" reads the input from stdin, with the same result as the file, and
    # bytes that are not UTF-8 are refused there too.
    from_file = run(capsys, "layout", graph_file)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(GRAPH)))
    assert run(capsys, "layout", "-") == from_file
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe\x00bad"), encoding="utf-8"))
    code, out, err = run(capsys, "validate", "-")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "bad-json"


def test_cached_parser_keeps_no_state_between_calls(graph_file, tmp_path, capsys):
    # One parser serves every call in a process; each call must behave as with
    # a parser of its own, an argparse failure first included.
    import reebdraw.cli

    drawing = tmp_path / "d.json"
    drawing.write_text(serialize_drawing(tri_hex_grid(2).drawing))
    calls = (["layout"], ["--seed", "3", "validate", graph_file], ["layout", graph_file], ["crossings", drawing])

    def outcomes(fresh_parser_each_call):
        reebdraw.cli.build_parser.cache_clear()
        results = []
        for argv in calls:
            if fresh_parser_each_call:
                reebdraw.cli.build_parser.cache_clear()
            try:
                code = main([str(a) for a in argv])
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    shared = outcomes(fresh_parser_each_call=False)
    assert shared == outcomes(fresh_parser_each_call=True)
    assert [code for code, _, _ in shared] == [("SystemExit", 2), 0, 0, 0]


def test_parser_is_built_once_per_process(graph_file, capsys, monkeypatch):
    import argparse

    import reebdraw.cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    reebdraw.cli.build_parser.cache_clear()
    for _ in range(5):
        assert run(capsys, "validate", graph_file)[0] == 0
    assert built.count("reebdraw") == 1


def test_layout_at_the_digit_limit(tmp_path, capsys):
    # 10**4299 has the 4,300 digits Python still writes out.
    graph = {"vertices": [{"id": "a", "height": 0}, {"id": "b", "height": "1e4299"}, {"id": "c", "height": 1}],
             "edges": [["a", "b"], ["b", "c"]]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    code, out, _ = run(capsys, "layout", path)
    assert code == 0
    assert json.loads(out)["graph"]["vertices"][1]["height"] == str(10 ** 4299)


def test_layout_levels_the_input_once(tmp_path, capsys, monkeypatch):
    import reebdraw.crossings
    from reebdraw.jsonio import parse_graph

    calls = counted_level_calls(monkeypatch)
    layered = []
    monkeypatch.setattr(reebdraw.crossings, "count_crossings_layered", lambda *args: layered.append(args))
    for graph, algorithms in ((alternating_cycle(6), ("cycle", "exact", "heuristic", "auto")),
                              (deep_general_graph(), ("exact", "heuristic", "auto"))):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_obj(graph), indent=2) + "\n")
        for algorithm in algorithms:
            calls.clear()
            assert run(capsys, "layout", "--algorithm", algorithm, path)[0] == 0
            assert calls == [parse_graph(path.read_text())], algorithm
    assert layered == []


def test_empty_graph_is_accepted_everywhere(tmp_path, capsys):
    graph = tmp_path / "empty.json"
    graph.write_text(json.dumps({"vertices": [], "edges": []}))
    drawing = tmp_path / "empty-drawing.json"
    empty = {"graph": {"vertices": [], "edges": []}, "x": {}, "edges": []}
    drawing.write_text(json.dumps(empty))
    for argv in (["validate", graph], ["subdivide", graph], ["crossings", drawing], ["render", drawing]):
        assert run(capsys, *argv)[0] == 0, argv
    code, out, _ = run(capsys, "exact", graph)
    assert code == 0
    assert (json.loads(out)["count"], json.loads(out)["states"]) == (0, 0)
    for algorithm in ("auto", "heuristic", "exact"):
        code, out, _ = run(capsys, "layout", "--algorithm", algorithm, graph)
        assert code == 0
        assert json.loads(out) == empty, algorithm


def test_missing_file_is_io_error(tmp_path, capsys):
    code, _, err = run(capsys, "validate", tmp_path / "absent.json")
    assert code == 1
    assert json.loads(err)["error"] == "io"


def test_seed_flag_accepted_and_ignored(graph_file, capsys):
    code1, out1, _ = run(capsys, "--seed", "7", "layout", graph_file)
    code2, out2, _ = run(capsys, "--seed", "8", "layout", graph_file)
    assert code1 == code2 == 0
    assert out1 == out2


def crossed_drawing(**x) -> dict:
    """Six edges from height 0 to height 3, their top ends permuted, so that
    nine pairs cross (one edge bent); ``x`` overrides vertex x coordinates."""
    names = ["kiwi", "fig", "plum", "lime", "pear", "date"]
    tops = [5, 2, 0, 4, 1, 3]
    return {
        "graph": {"vertices": [{"id": f"lo_{n}", "height": "0"} for n in names]
                  + [{"id": f"hi_{n}", "height": "3"} for n in names],
                  "edges": [[f"lo_{n}", f"hi_{n}"] for n in names]},
        "x": {**{f"lo_{n}": str(2 * i) for i, n in enumerate(names)},
              **{f"hi_{n}": f"{3 * t}/2" for n, t in zip(names, tops)}, **x},
        "edges": [{"endpoints": [f"lo_{n}", f"hi_{n}"], "bends": [["1/3", "1"]] if n == "fig" else []}
                  for n in names],
    }


def test_output_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # String hashing is seeded per process, so a set or dict walk whose
    # order reached an output would show as bytes that differ between seeds.
    curved = tmp_path / "curved.json"
    curved.write_text(json.dumps(CURVED_CATERPILLAR))
    source = tmp_path / "source.json"
    source.write_text(json.dumps(FIVE_CHORDS_SOURCE))
    crossed = tmp_path / "crossed.json"
    crossed.write_text(json.dumps(crossed_drawing()))
    # Two pairs of vertices coincide; the reader names the first in vertex order.
    clashing = tmp_path / "clashing.json"
    clashing.write_text(json.dumps(crossed_drawing(hi_plum="15/2", lo_date="8")))
    graph = FIXTURES / "min_one_bench_graph.json"
    commands = {
        "layout-auto": ["layout", graph, "--algorithm", "auto"],
        "layout-heuristic": ["layout", graph, "--algorithm", "heuristic"],
        "exact": ["exact", graph],
        "stretch": ["stretch", curved],
        "gadget-verify": ["gadget", "verify", "--graph", source, "--svg", "out.svg"],
        "crossings": ["crossings", crossed],
        "crossings-refused": ["crossings", clashing],
    }
    src = str(Path(reebdraw.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs: dict[str, set] = {name: set() for name in commands}
    for seed in ("0", "1", "2"):
        for name, argv in commands.items():
            work = tmp_path / f"{name}-{seed}"
            work.mkdir()
            proc = subprocess.run([sys.executable, "-m", "reebdraw.cli", *map(str, argv)], cwd=work,
                                  env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                                  capture_output=True)
            assert proc.returncode == (1 if name == "crossings-refused" else 0), proc.stderr
            outputs[name].add((proc.stdout, proc.stderr, *(f.read_bytes() for f in sorted(work.iterdir()))))
    assert {name: len(seen) for name, seen in outputs.items()} == dict.fromkeys(commands, 1)
    assert json.loads(outputs["crossings"].pop()[0])["count"] == 9
    assert json.loads(outputs["crossings-refused"].pop()[1]) == {
        "error": "degenerate", "message": "vertices 'lo_pear' and 'lo_date' coincide at (Fraction(8, 1), Fraction(0, 1))"}
