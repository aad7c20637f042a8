from __future__ import annotations

import copy
import json
import random
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reebdraw import (
    Drawing,
    GraphStructureError,
    ReebError,
    ReebGraph,
    layout_auto,
    stretch,
    tri_hex_grid,
)
from reebdraw import jsonio
from reebdraw.core import _parse_fraction
from reebdraw.jsonio import (
    drawing_from_obj,
    drawing_to_obj,
    graph_to_obj,
    parse_drawing,
    parse_graph,
    parse_ola_graph,
    parse_rational,
    serialize_drawing,
)

from helpers import (
    alternating_cycle,
    curved_copy,
    drawing_value,
    random_caterpillar_graph,
    random_connected_graph,
    reference_parse_drawing,
    reference_parse_fraction,
)


def outcome(f, *args):
    """``("ok", f(*args))``, or the error ``f`` raised as (class, code, message)."""
    try:
        return "ok", f(*args)
    except Exception as exc:
        return type(exc), getattr(exc, "code", None), str(exc)


class TestRationals:
    def test_forms(self):
        assert parse_rational(3) == Fraction(3)
        assert parse_rational("1/3") == Fraction(1, 3)
        assert parse_rational("0.25") == Fraction(1, 4)
        assert parse_rational("-7/2") == Fraction(-7, 2)

    def test_rejects_floats_and_garbage(self):
        for bad in (0.25, True, "x/y", "1/0", None):
            with pytest.raises(GraphStructureError):
                parse_rational(bad)

    @pytest.mark.parametrize("text, value", [
        ("1e4299", Fraction(10 ** 4299)),
        ("1e-4299", Fraction(1, 10 ** 4299)),
        ("0.5e3", Fraction(500)),
        ("-12.5E-3", Fraction(-1, 80)),
        ("1_0e1_0", Fraction(10 ** 11)),
    ])
    def test_exponents_within_the_digit_limit(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", [
        "1e4300", "1e-4300", "1e5000", "1e999999999", "1e-999999999", "0e5000", "0.001e4303",
        pytest.param("1e" + "9" * 5000, id="5000-digit-exponent"),
        pytest.param("1" * 200_000, id="200000-digits"),
        pytest.param("1" * 200_000 + "e", id="200000-digits-then-e"),
        pytest.param("1" * 200_000 + "e1", id="200000-digits-then-exponent"),
    ])
    def test_past_the_digit_limit_is_refused_at_once(self, text):
        # Refused from the string alone: building 10**999999999 takes minutes,
        # and reading a long digit string must stay linear in its length.
        start = time.process_time()
        with pytest.raises(GraphStructureError) as info:
            parse_rational(text, "height")
        assert time.process_time() - start < 1
        assert info.value.code == "bad-rational"

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.from_regex(r"\A[-+]?[0-9_]{1,6}(/[-+]?[0-9_]{0,6})?\Z"),
                     st.text(st.sampled_from("0123456789/-+._eE \t\xa0\u0663\u00b2x"), max_size=12)))
    @example("1/0")
    @example("-1/0")
    @example("-0/0")
    @example("+3")
    @example("007/010")
    @example("1_000/3")
    @example(" 3/4 ")
    @example("3/-4")
    @example("\u0663/\u0664")
    @example("\u00b2")
    @example("1" * 4301)
    @example("-" + "1" * 4301)
    @example("1/" + "1" * 4301)
    @example("1" * 4301 + "/" + "1" * 4302)
    def test_parse_matches_fraction_of_the_string(self, text):
        # Integers and "p/q" are built from two ints; the value, its exact
        # type and every error must be those of Fraction(text).
        got = outcome(_parse_fraction, text, "x", "bad")
        assert got == outcome(reference_parse_fraction, text, "x", "bad")
        assert got[0] != "ok" or type(got[1]) is Fraction


class TestGraphRoundTrip:
    def test_minimal(self):
        g = ReebGraph.build({"a": 0, "b": 1}, [("a", "b")])
        assert parse_graph(json.dumps(graph_to_obj(g), indent=2) + "\n") == g

    def test_exact_heights(self):
        g = parse_graph('{"vertices": [{"id": "a", "height": "1/3"}, '
                        '{"id": "b", "height": "0.25"}], "edges": [["a", "b"]]}')
        assert g.vertices["a"] == Fraction(1, 3)
        assert g.vertices["b"] == Fraction(1, 4)

    def test_parallel_edge_multiplicity(self):
        g = ReebGraph.build({"a": 0, "b": 1}, [("a", "b"), ("a", "b")])
        assert parse_graph(json.dumps(graph_to_obj(g), indent=2) + "\n").edges == g.edges

    def test_random_round_trips(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_connected_graph(rng.randint(1, 8), rng)
            assert parse_graph(json.dumps(graph_to_obj(g), indent=2) + "\n") == g

    def test_missing_endpoint_names_id(self):
        with pytest.raises(GraphStructureError) as exc:
            parse_graph('{"vertices": [{"id": "a", "height": 1}], "edges": [["a", "ghost"]]}')
        assert exc.value.code == "unknown-vertex"
        assert "ghost" in str(exc.value)

    def test_error_codes_distinct(self):
        cases = [
            ("bad-json", "{nope"),
            ("duplicate-vertex", '{"vertices": [{"id": "a", "height": 1}, {"id": "a", "height": 2}], "edges": []}'),
            ("self-loop", '{"vertices": [{"id": "a", "height": 1}], "edges": [["a", "a"]]}'),
            ("horizontal-edge", '{"vertices": [{"id": "a", "height": 1}, {"id": "b", "height": 1}], "edges": [["a", "b"]]}'),
            ("bad-schema", '{"vertices": [{"id": "a", "height": 1}], "edges": [["a"]]}'),
            ("bad-schema", '{"vertices": [{"id": "a", "height": 1}], "edges": [["a", 1]]}'),
        ]
        for code, text in cases:
            with pytest.raises(GraphStructureError) as exc:
                parse_graph(text)
            assert exc.value.code == code


class TestDrawingRoundTrip:
    def test_without_bends(self):
        d = layout_auto(ReebGraph.build({"a": 0, "b": 1}, [("a", "b")]))
        assert parse_drawing(serialize_drawing(d)) == d

    def test_with_rational_bends(self):
        g = ReebGraph.build({"a": 0, "b": 1}, [("a", "b")])
        d = Drawing(graph=g, x={"a": Fraction(0), "b": Fraction(0)},
                    bends=(((Fraction(1, 2), Fraction(3, 4)),),))
        text = serialize_drawing(d)
        assert parse_drawing(text) == d
        assert '"1/2"' in text and '"3/4"' in text

    def test_byte_deterministic(self):
        d = layout_auto(alternating_cycle(6))
        assert serialize_drawing(d) == serialize_drawing(parse_drawing(serialize_drawing(d)))

    def test_bend_with_decreasing_height_rejected(self):
        text = (
            '{"graph": {"vertices": [{"id": "a", "height": 0}, {"id": "b", "height": 2}],'
            ' "edges": [["a", "b"]]},'
            ' "x": {"a": "0", "b": "0"},'
            ' "edges": [{"endpoints": ["a", "b"], "bends": [["1", "3/2"], ["2", "1"]]}]}'
        )
        with pytest.raises(GraphStructureError) as exc:
            parse_drawing(text)
        assert exc.value.code == "bad-bend"

    def test_edge_list_mismatch_rejected(self):
        text = (
            '{"graph": {"vertices": [{"id": "a", "height": 0}, {"id": "b", "height": 2}],'
            ' "edges": [["a", "b"]]},'
            ' "x": {"a": "0", "b": "0"}, "edges": []}'
        )
        with pytest.raises(GraphStructureError) as exc:
            parse_drawing(text)
        assert exc.value.code == "edge-mismatch"

    @pytest.mark.parametrize("endpoints, message", [
        ([1, "a"], "drawing edge endpoints must be string ids"),
        ([None, "a"], "drawing edge endpoints must be string ids"),
        ([["a"], "b"], "drawing edge endpoints must be string ids"),
        ([1, 2], "drawing edge endpoints must be string ids"),
        (["a"], "drawing edge needs two endpoints"),
        ("ab", "drawing edge needs two endpoints"),
    ])
    def test_endpoints_must_be_two_string_ids(self, endpoints, message):
        text = json.dumps({
            "graph": {"vertices": [{"id": "a", "height": 0}, {"id": "b", "height": 2}], "edges": [["a", "b"]]},
            "x": {"a": "0", "b": "0"},
            "edges": [{"endpoints": endpoints, "bends": []}],
        })
        with pytest.raises(GraphStructureError) as exc:
            parse_drawing(text)
        assert (exc.value.code, str(exc.value)) == ("bad-schema", message)


def drawing_text(heights, xs, bends):
    """A drawing document of the edges a-b and c-d, heights and x as given."""
    return json.dumps({
        "graph": {"vertices": [{"id": v, "height": h} for v, h in heights.items()],
                  "edges": [["a", "b"], ["c", "d"]]},
        "x": xs,
        "edges": [{"endpoints": ["a", "b"], "bends": bends[0]},
                  {"endpoints": ["c", "d"], "bends": bends[1]}],
    })


class TestRationalMemo:
    """Each distinct rational string of a document is parsed once."""

    HEIGHTS = {"a": "0", "b": "2", "c": "0", "d": "2"}
    XS = {"a": "0", "b": "1", "c": "1", "d": "0"}
    BENDS = ([["1/2", "1"]], [["1/2", "3/2"], ["1", "7/4"]])

    @staticmethod
    def count_parses(monkeypatch):
        calls = []
        parse = jsonio.parse_rational

        def counting(value, what="value"):
            calls.append(value)
            return parse(value, what)

        monkeypatch.setattr(jsonio, "parse_rational", counting)
        return calls

    def test_drawing_parses_each_distinct_string_once(self, monkeypatch):
        calls = self.count_parses(monkeypatch)
        d = parse_drawing(drawing_text(self.HEIGHTS, self.XS, self.BENDS))
        assert sorted(calls) == ["0", "1", "1/2", "2", "3/2", "7/4"]
        assert d.graph.vertices == {"a": 0, "b": 2, "c": 0, "d": 2}
        assert d.x == {"a": 0, "b": 1, "c": 1, "d": 0}
        assert d.bends == (((Fraction(1, 2), 1),),
                           ((Fraction(1, 2), Fraction(3, 2)), (1, Fraction(7, 4))))

    def test_graph_parses_each_distinct_string_once(self, monkeypatch):
        calls = self.count_parses(monkeypatch)
        g = parse_graph(json.dumps({
            "vertices": [{"id": v, "height": h} for v, h in self.HEIGHTS.items()],
            "edges": [["a", "b"], ["c", "d"]]}))
        assert sorted(calls) == ["0", "2"]
        assert g.vertices == {"a": 0, "b": 2, "c": 0, "d": 2}

    @pytest.mark.parametrize("bad", ["1/0", "x"])
    def test_first_bad_use_is_reported(self, bad):
        with pytest.raises(GraphStructureError) as expected:
            parse_rational(bad, "height of 'b'")
        with pytest.raises(GraphStructureError) as exc:
            parse_drawing(drawing_text({**self.HEIGHTS, "b": bad}, {**self.XS, "a": bad}, self.BENDS))
        assert exc.value.code == "bad-rational"
        assert str(exc.value) == str(expected.value) == f"cannot parse height of 'b' {bad!r}: " + {
            "1/0": "Fraction(1, 0)", "x": "Invalid literal for Fraction: 'x'"}[bad]

    @pytest.mark.parametrize("bad", [1.0, True])
    def test_float_or_bool_after_a_repeated_equal_value_is_refused(self, bad):
        # "1" and 1 are read before; 1.0 and True compare equal to 1.
        heights = {**self.HEIGHTS, "b": 1}
        with pytest.raises(GraphStructureError) as exc:
            parse_drawing(drawing_text(heights, {**self.XS, "d": bad}, ([], [])))
        assert exc.value.code == "bad-rational"
        assert str(exc.value) == f"x of 'd' must be an integer or an exact string, got {bad!r}"


class TestSingleRead:
    """The reader and the constructors read each coordinate's exact ratio once."""

    @pytest.mark.parametrize("curved", [False, True], ids=["straight", "curved"])
    def test_one_ratio_read_per_coordinate(self, monkeypatch, curved):
        d = tri_hex_grid(12).drawing
        if curved:
            d = curved_copy(d, random.Random(3))
        bend_points = sum(map(len, d.bends))
        assert (bend_points > 0) == curved
        text = serialize_drawing(d)
        reads = []
        ratio = Fraction.as_integer_ratio
        monkeypatch.setattr(Fraction, "as_integer_ratio", lambda q: reads.append(q) or ratio(q))
        assert parse_drawing(text) == d
        # Each height, x and bend coordinate once.
        assert len(reads) == 2 * len(d.graph.vertices) + 2 * bend_points


class TestFirstOfTwoFaults:
    """Of two faults in a drawing, the reader reports the first in a fixed
    order.  ``first_error_drawings.json`` holds a valid ``base`` drawing,
    named ``faults`` (``[op, path, value]`` edits of it) and, for each pair of
    faults, the error code and message that an earlier reader, which made one
    pass over the edges per check, emitted."""

    TABLE = json.loads((Path(__file__).parent / "fixtures" / "first_error_drawings.json").read_text())

    @classmethod
    def drawing(cls, *faults):
        doc = copy.deepcopy(cls.TABLE["base"])
        for name in faults:
            op, path, *value = cls.TABLE["faults"][name]
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if op == "set":
                parent[path[-1]] = copy.deepcopy(value[0])
            elif op == "del":
                del parent[path[-1]]
            else:
                parent[path[-1]].append(copy.deepcopy(value[0]))
        return doc

    def test_base_is_valid(self):
        parse_drawing(json.dumps(self.drawing()))

    def test_each_fault_alone_is_refused(self):
        for name in self.TABLE["faults"]:
            with pytest.raises(ReebError):
                parse_drawing(json.dumps(self.drawing(name)))

    def test_first_error_is_pinned(self):
        rows = self.TABLE["rows"]
        assert len(rows) == 503
        wrong = []
        for first, second, code, message in rows:
            try:
                parse_drawing(json.dumps(self.drawing(first, second)))
                got = None
            except ReebError as exc:
                got = (exc.code, str(exc))
            if got != (code, message):
                wrong.append((first, second, got))
        assert wrong == []


class SubDict(dict):
    pass


class SubStr(str):
    pass


def _slots(node, path=()):
    """The path of every value inside a decoded document, parents first."""
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield path + (key,)
            yield from _slots(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _subclassed(node, rnd):
    """``node`` with some dicts (keys too) and strings made subclass instances."""
    if isinstance(node, dict):
        out = {_subclassed(k, rnd): _subclassed(v, rnd) for k, v in node.items()}
        return SubDict(out) if rnd.random() < 0.5 else out
    if isinstance(node, list):
        return [_subclassed(v, rnd) for v in node]
    return SubStr(node) if isinstance(node, str) and rnd.random() < 0.5 else node


_GRID = tri_hex_grid(2).drawing
READER_BASES = [
    TestFirstOfTwoFaults.TABLE["base"],
    json.loads(serialize_drawing(_GRID)),
    json.loads(serialize_drawing(curved_copy(_GRID, random.Random(4)))),
]
# The fault edits of the two-fault table, and values of every JSON kind.
READER_EDITS = [*TestFirstOfTwoFaults.TABLE["faults"].values(),
                *(["set", None, v] for v in ("b", "n0_1", "1/2", "x", "", 0, 7, -1, 0.5, 2.0, True, False, None,
                                             [], ["a", "b"], ["1", "1/2"], {}, {"id": "a", "height": "1"})),
                ["del", None], ["swap", None]]


@st.composite
def mutated_documents(draw):
    """A valid drawing document with up to three edits at random places:
    the table's faults, values of another kind, or two values swapped; then,
    half the time, some dicts and strings replaced by subclass instances."""
    doc = copy.deepcopy(draw(st.sampled_from(READER_BASES)))
    for _ in range(draw(st.integers(0, 3))):
        op, _, *value = draw(st.sampled_from(READER_EDITS))
        slots = list(_slots(doc))
        if op == "append":
            slots = [p for p in slots if isinstance(_at(doc, p), list)]
        if not slots:
            continue
        path = draw(st.sampled_from(slots))
        parent = _at(doc, path[:-1])
        if op == "set":
            parent[path[-1]] = copy.deepcopy(value[0])
        elif op == "del":
            del parent[path[-1]]
        elif op == "append":
            parent[path[-1]].append(copy.deepcopy(value[0]))
        else:
            other = draw(st.sampled_from(slots))
            if path[:len(other)] != other and other[:len(path)] != path:
                parent[path[-1]], _at(doc, other[:-1])[other[-1]] = _at(doc, other), parent[path[-1]]
    if draw(st.booleans()):
        doc = _subclassed(doc, draw(st.randoms(use_true_random=False)))
    return doc


class TestReaderOracle:
    """The reader against its verbatim predecessor (``reference_parse_drawing``)."""

    @settings(max_examples=400, deadline=None)
    @given(mutated_documents())
    @example(TestFirstOfTwoFaults.drawing("missing-x", "x-of-unknown-vertex"))
    @example({**READER_BASES[1], "x": {v: "0" for v in reversed(READER_BASES[1]["x"])}})
    @example({**READER_BASES[1], "x": {**READER_BASES[1]["x"], "zz": "1", "aa": "2"}})
    def test_same_drawing_or_same_first_error(self, doc):
        expected = outcome(reference_parse_drawing, doc)
        assert outcome(lambda obj: drawing_value(drawing_from_obj(obj)), doc) == expected


# Ids with characters that JSON escapes: quotes, backslashes, controls, DEL,
# non-ASCII, line separators and astral characters (written as surrogate pairs).
ID_CHARS = st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\xe9\u2028\U0001d11e\U0010ffff'))
RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@st.composite
def drawings(draw) -> Drawing:
    """Drawings with isolated vertices, parallel edges, bends, negative and
    fractional coordinates, and string or int ids (the empty one included)."""
    ids = draw(st.one_of(st.lists(st.text(ID_CHARS, max_size=4), unique=True, max_size=7),
                         st.lists(st.integers(-2 ** 70, 2 ** 70), unique=True, max_size=7)))
    heights = {v: draw(RATIONALS) for v in ids}
    pairs = [(a, b) for a, b in combinations(ids, 2) if heights[a] != heights[b]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
    xs = draw(st.lists(RATIONALS, min_size=len(ids), max_size=len(ids), unique=True))
    bends = []
    for a, b in edges:
        lo, hi = sorted((heights[a], heights[b]))
        steps = sorted(draw(st.sets(st.integers(1, 5), max_size=3)))
        bends.append(tuple((draw(RATIONALS), lo + (hi - lo) * Fraction(k, 6)) for k in steps))
    return Drawing(graph=ReebGraph(heights, tuple(edges)), x=dict(zip(ids, xs)), bends=tuple(bends))


class TestTemplateWriter:
    """The writers must give the bytes of ``json.dumps(..., indent=2)`` on the
    public ``*_to_obj`` forms, without running json's encoder."""

    @settings(max_examples=300, deadline=None)
    @given(drawings())
    @example(Drawing(graph=ReebGraph({}, ()), x={}))
    def test_matches_json_dumps(self, d):
        assert serialize_drawing(d) == json.dumps(drawing_to_obj(d), indent=2) + "\n"

    @pytest.mark.parametrize("big", [("height", "x"), ("x", "bend y"), ("height", "bend x")])
    def test_first_too_many_digits_is_the_oracles(self, big):
        # Each value too long to write has its own digit count, so the message
        # names the first one written.
        long = {where: Fraction(1, 10 ** (4400 + 10 * k)) for k, where in enumerate(big)}
        g = ReebGraph({"a": long.get("height", Fraction(-5)), "b": Fraction(20)}, (("a", "b"),))
        d = Drawing(graph=g, x={"a": long.get("x", Fraction(0)), "b": Fraction(1)},
                    bends=(((long.get("bend x", Fraction(1, 2)), long.get("bend y", Fraction(1, 2))),),))
        with pytest.raises(ReebError) as expected:
            drawing_to_obj(d)
        with pytest.raises(ReebError) as got:
            serialize_drawing(d)
        assert (got.value.code, str(got.value)) == ("too-many-digits", str(expected.value))

    @pytest.mark.parametrize("vid, kind", [(2.5, "float"), (True, "bool"), (None, "NoneType")])
    def test_refuses_an_id_neither_str_nor_int(self, vid, kind):
        g = ReebGraph({"a": Fraction(0), vid: Fraction(1)}, ())
        with pytest.raises(TypeError, match=f"^vertex ids must be str or int, not {kind}$"):
            serialize_drawing(Drawing(g, {"a": 0, vid: 1}))

    def test_runs_no_json_encoder(self, monkeypatch):
        # With an indent, json.dumps encodes through ``_make_iterencode``.
        d = stretch(layout_auto(random_caterpillar_graph(12, random.Random(5))))
        expected = json.dumps(drawing_to_obj(d), indent=2) + "\n"

        def refuse(*args, **kwargs):
            raise AssertionError("json's indent encoder ran")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        assert serialize_drawing(d) == expected


class TestOlaGraphParsing:
    def test_plain_graph(self):
        g = parse_ola_graph('{"vertices": ["a", "b"], "edges": [["a", "b"]]}')
        assert g.vertices == ("a", "b") and g.edges == (("a", "b"),)

    def test_bad_schema(self):
        for text in ('{"vertices": "ab", "edges": []}',
                     '{"vertices": ["a"], "edges": [["a"]]}',
                     '{"vertices": ["a"], "edges": [["a", 1]]}'):
            with pytest.raises(GraphStructureError) as exc:
                parse_ola_graph(text)
            assert exc.value.code == "bad-schema"
