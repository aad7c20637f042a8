from __future__ import annotations

import json

import pytest

from reebdraw.cli import main

GRAPH = {
    "vertices": [
        {"id": "a", "height": 0},
        {"id": "b", "height": 1},
        {"id": "c", "height": 2},
        {"id": "d", "height": 1},
    ],
    "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]],
}

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


def test_render_cli(graph_file, tmp_path, capsys):
    drawing_path = tmp_path / "d.json"
    run(capsys, "layout", graph_file, "-o", drawing_path)
    code, out, _ = run(capsys, "render", drawing_path, "--level-lines")
    assert code == 0
    assert out.startswith("<svg")


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

    code, out, _ = run(capsys, "gadget", "hexgrid", "--rows", "2")
    assert code == 0
    assert json.loads(out)["rows"] == 2


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


def test_malformed_input_is_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "validate", bad)
    assert code == 1
    assert json.loads(err)["error"] == "bad-json"


def test_missing_file_is_io_error(tmp_path, capsys):
    code, _, err = run(capsys, "validate", tmp_path / "absent.json")
    assert code == 1
    assert json.loads(err)["error"] == "io"


def test_seed_flag_accepted_and_ignored(graph_file, capsys):
    code1, out1, _ = run(capsys, "--seed", "7", "layout", graph_file)
    code2, out2, _ = run(capsys, "--seed", "8", "layout", graph_file)
    assert code1 == code2 == 0
    assert out1 == out2
