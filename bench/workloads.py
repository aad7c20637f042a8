"""The four workloads: their cases, output checks and report lines.

Each case is one CLI invocation with its input file written up front.  The
checks run after the timed loop, once per case, and use the benchmark's own
parsing and geometry (``geom``) wherever that is cheap; only the exact
minimum for ``layout_general`` comes from the library's search.
"""

from __future__ import annotations

import json
import random
import statistics
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import inputs
from geom import Degenerate, count_crossings, level_orders, strip_lower_bound

LAYOUT_BUDGET = 200_000

END_TO_END = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_ops_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "crossings.search_s": "s", "crossings.search_states": "count",
    "crossings.search_completed_ratio": "ratio", "layout.fallbacks": "count",
    "crossings.warm_start_s": "s", "crossings.barycenter_s": "s", "layout.heuristic_s": "s",
    "crossings.realize_s": "s", "crossings.realize_attempts": "count",
    "crossings.geometric_s": "s", "crossings.geometric_calls": "count",
    "crossings.geometric_segments": "count", "crossings.pair_tests": "count",
    "crossings.vertex_tests": "count", "crossings.crossings_found": "count",
    "crossings.hit_ratio": "ratio",
    "stretch.stretch_s": "s", "stretch.segment_tests": "count", "stretch.vertex_tests": "count",
    "gadget.brute_s": "s", "gadget.reduce_s": "s", "gadget.drawing_s": "s",
    "gadget.drawing_attempts": "count", "svg.render_s": "s", "svg.bytes_out": "bytes",
    "jsonio.parse_s": "s", "jsonio.serialize_s": "s", "jsonio.bytes_in": "bytes",
    "jsonio.bytes_out": "bytes",
    "subdivide.subdivide_s": "s", "subdivide.unsubdivide_s": "s", "subdivide.vertices_out": "count",
    "core.classify_s": "s", "cli.overhead_s": "s",
    "trace.overhead_ratio": "ratio", "trace.absent_names": "count",
    "output.crossings_total": "count", "output.fail_ratio": "ratio", "output.probe_failures": "count",
}


@dataclass
class Case:
    name: str
    argv: list[str]
    source: str
    outputs: list[str]
    #: Scalars only: the checks re-read the input file, so the cases hold no
    #: parsed inputs through the timed loop and ``peak_rss_mib`` is the program's.
    data: dict
    crossings: int | None = None  # certified crossings of the output, set by the check
    notes: dict = field(default_factory=dict)


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _read(path: str):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _heights(graph_obj) -> dict[str, Fraction]:
    return {v["id"]: Fraction(v["height"]) for v in graph_obj["vertices"]}


def _drawing(obj):
    """(heights, xs, edges, bends) of a drawing JSON object."""
    heights = _heights(obj["graph"])
    xs = {v: Fraction(x) for v, x in obj["x"].items()}
    edges = [tuple(e) for e in obj["graph"]["edges"]]
    bends = [[(Fraction(x), Fraction(y)) for x, y in e["bends"]] for e in obj["edges"]]
    return heights, xs, edges, bends


def _same_graph(out_graph, heights, edges) -> str | None:
    if _heights(out_graph) != {v: Fraction(h) for v, h in heights.items()}:
        return "output vertices or heights differ from the input"
    if [sorted(e) for e in out_graph["edges"]] != [sorted(e) for e in edges]:
        return "output edges differ from the input"
    return None


def _drawing_problem(obj, heights, edges) -> str | None:
    """Structural checks of a drawing of exactly the given graph."""
    problem = _same_graph(obj["graph"], heights, edges)
    if problem:
        return problem
    h, xs, out_edges, bends = _drawing(obj)
    if set(xs) != set(h):
        return "x coordinates do not cover exactly the vertices"
    if [sorted(e["endpoints"]) for e in obj["edges"]] != [sorted(e) for e in out_edges]:
        return "drawing edges do not match graph edges"
    for (a, b), eb in zip(out_edges, bends):
        ys = [min(h[a], h[b]), *(y for _, y in eb), max(h[a], h[b])]
        if any(y0 >= y1 for y0, y1 in zip(ys, ys[1:])):
            return f"edge {a}-{b} is not strictly y-monotone"
    return None


def _latency_by(cases, loop, key) -> dict:
    """Median reference-speed latency of the cases, grouped by key(case)."""
    by: dict = {}
    for case, t in zip(cases, loop.seconds()):
        by.setdefault(key(case), []).append(t)
    return {k: statistics.median(v) for k, v in by.items()}


class Workload:
    name: str
    #: Reference-speed seconds of one round of cases at the commit that
    #: defined the benchmark; a run has --seconds / round_s rounds.
    round_s: float
    #: Rounds that give at least 20 operations, so the tail sits at p50 or above.
    min_rounds: int

    def make_cases(self, rng: random.Random, work: Path, rounds: int) -> list[Case]:
        raise NotImplementedError

    def note_trace(self, cases: list[Case], tracer) -> None:
        """Take what a check needs from a traced run's spans."""

    def probe_cases(self, rng: random.Random, work: Path) -> list[Case]:
        """Inputs known to fail at the commit that defined the benchmark.

        A traced run runs them after its timed passes and reports how many
        still fail; they count in neither ``failed`` nor the timings.
        """
        return []

    def check(self, case: Case) -> str | None:
        raise NotImplementedError

    def report(self, cases: list[Case], loop) -> list[str]:
        return []


class LayoutGeneral(Workload):
    """``layout --algorithm auto --budget 200000`` on GENERAL graphs."""

    name = "layout_general"
    round_s = 0.9
    min_rounds = 5
    small, large = 1, 3  # per round

    def make_cases(self, rng, work, rounds):
        cases = []
        for i, g in enumerate(inputs.layout_cases(rng, self.small * rounds, self.large * rounds)):
            src = _write(work / f"g{i}.json", g["obj"])
            out = str(work / f"g{i}.out.json")
            cases.append(Case(f"{g['kind']}{i}", ["layout", src, "--algorithm", "auto", "--budget",
                                                  str(LAYOUT_BUDGET), "-o", out], src, [out],
                              {"kind": g["kind"]}))
        return cases

    def check(self, case):
        graph = _read(case.source)
        heights, edges = _heights(graph), [tuple(e) for e in graph["edges"]]
        obj = _read(case.outputs[0])
        problem = _drawing_problem(obj, heights, edges)
        if problem:
            return problem
        try:
            case.crossings = count_crossings(*_drawing(obj))
        except Degenerate as exc:
            return f"degenerate drawing: {exc}"
        bound = strip_lower_bound(heights, edges)
        if case.crossings < bound:
            return f"{case.crossings} crossings is below the lower bound {bound}"
        search = case.notes.get("search")
        if search is None and case.data["kind"] == "small":
            search = self.search(heights, edges)
        if search is not None and search["completed"] and case.crossings != search["count"]:
            return f"{case.crossings} crossings, but the exact minimum is {search['count']}"
        case.notes["search"] = search
        return None

    @staticmethod
    def search(heights, edges) -> dict:
        """The library's exact search on a graph, within the workload budget."""
        from reebdraw import ReebGraph
        from reebdraw.crossings import exact_rgcn
        from reebdraw.errors import BudgetExhaustedError

        try:
            return {"completed": True, "count": exact_rgcn(ReebGraph.build(heights, edges), LAYOUT_BUDGET).count}
        except BudgetExhaustedError as exc:
            return {"completed": False, "warm": exc.best}

    def note_trace(self, cases, tracer):
        # The traced run captured each operation's own search, so its exact
        # minimum (or its warm-start bound, when the budget ran out) is known
        # for every graph without searching again.
        for span in tracer.spans:
            if span.name == "crossings.exact_rgcn" and span.info:
                cases[span.op].notes["search"] = span.info

    def report(self, cases, loop):
        searched = [c.notes["search"] for c in cases if c.notes.get("search")]
        if len(searched) < len(cases):
            return [f"exact minimum matched on the {len(searched)} small graphs"]
        exhausted = [c for c in cases if not c.notes["search"]["completed"]]
        excess = [c.crossings - c.notes["search"]["warm"] for c in exhausted
                  if c.crossings is not None and c.notes["search"].get("warm") is not None
                  and c.crossings > c.notes["search"]["warm"]]
        return [
            f"search finished within budget on {len(cases) - len(exhausted)} of {len(cases)} graphs;"
            f" exhausted on {len(exhausted)}",
            f"defect: fallback drawing worse than the warm-start bound on {len(excess)} graphs,"
            f" {sum(excess)} crossings in excess",
        ]


class CrossingsHexgrid(Workload):
    """``crossings`` on canonical hexagon-stack drawings, rows 12 to 30."""

    name = "crossings_hexgrid"
    round_s = 8.5
    min_rounds = 2
    rows = range(12, 31)

    def make_cases(self, rng, work, rounds):
        cases = []
        for k in range(rounds):
            for r in self.rows:
                src = _write(work / f"hex{r}-{k}.json", inputs.hexgrid_drawing(r, rng))
                out = str(work / f"hex{r}-{k}.out.json")
                cases.append(Case(f"rows{r}-{k}", ["crossings", src, "-o", out], src, [out], {"rows": r}))
        rng.shuffle(cases)
        return cases

    def check(self, case):
        obj = _read(case.outputs[0])
        if obj != {"count": 0, "crossings": []}:
            return f"expected no crossings, got count {obj.get('count')}"
        case.crossings = 0
        return None

    def report(self, cases, loop):
        lat = _latency_by(cases, loop, lambda c: c.data["rows"])
        r = max(self.rows)
        edges = 3 * (r * r + 3 * r) // 2
        return [f"defect: counting the {edges}-edge grid (rows {r}) takes {lat[r]:.4f} s"]


class StretchCurved(Workload):
    """``stretch`` on curved crossing-free caterpillars of 40 to 150 vertices."""

    name = "stretch_curved"
    round_s = 5.7
    min_rounds = 2
    sizes = range(40, 151, 10)

    def make_cases(self, rng, work, rounds):
        cases = []
        for k in range(rounds):
            for n in self.sizes:
                src = _write(work / f"cat{n}-{k}.json", inputs.curved_drawing(rng, n))
                out = str(work / f"cat{n}-{k}.out.json")
                cases.append(Case(f"n{n}-{k}", ["stretch", src, "-o", out], src, [out], {"n": n}))
        rng.shuffle(cases)
        return cases

    def check(self, case):
        heights, xs, edges, _ = _drawing(_read(case.source))
        obj = _read(case.outputs[0])
        problem = _drawing_problem(obj, heights, edges)
        if problem:
            return problem
        h2, xs2, edges2, bends2 = _drawing(obj)
        if any(bends2):
            return "stretched drawing has bends"
        try:
            case.crossings = count_crossings(h2, xs2, edges2, bends2)
        except Degenerate as exc:
            return f"degenerate drawing: {exc}"
        if case.crossings:
            return f"stretched drawing has {case.crossings} crossings"
        if level_orders(h2, xs2) != level_orders(heights, xs):
            return "per-level vertex order changed"
        return None

    def report(self, cases, loop):
        lat = _latency_by(cases, loop, lambda c: c.data["n"])
        n = max(self.sizes)
        return [f"stretching {n} vertices takes {lat[n]:.4f} s"]


class GadgetVerify(Workload):
    """``gadget verify --svg`` on seeded namings of five small source graphs."""

    name = "gadget_verify"
    round_s = 5.3
    min_rounds = 4
    shapes = range(len(inputs.GADGET_SHAPES))

    @staticmethod
    def _case(name, obj, work):
        src = _write(work / f"{name}.json", obj)
        out, svg = str(work / f"{name}.out.json"), str(work / f"{name}.svg")
        return Case(name, ["gadget", "verify", "--graph", src, "-o", out, "--svg", svg],
                    src, [out, svg], {})

    def make_cases(self, rng, work, rounds):
        cases = [self._case(f"shape{k}-{r}", inputs.source_graph(rng, k, r), work)
                 for r in range(rounds) for k in self.shapes]
        rng.shuffle(cases)
        return cases

    def probe_cases(self, rng, work):
        # One order per run: each failing call takes 30-50 s.
        rank = rng.choice(inputs.K4_PENDANT_DEGENERATE)
        return [self._case("k4-pendant-" + "".join(map(str, rank)),
                           inputs.named_graph(rng, inputs.K4_PENDANT, rank), work)]

    def check(self, case):
        obj = _read(case.outputs[0])
        graph = _read(case.source)
        cost = inputs.arrangement_cost(graph)
        m = len(graph["edges"])
        budget = m * m * (cost - m) + m * m - 1
        if obj.get("ok") is not True:
            return "verify did not report ok"
        if obj.get("arrangement_cost") != cost:
            return f"arrangement cost {obj.get('arrangement_cost')}, brute force gives {cost}"
        if obj.get("budget") != budget:
            return f"budget {obj.get('budget')}, expected {budget}"
        if not isinstance(obj.get("crossings"), int) or not 0 <= obj["crossings"] <= budget:
            return f"{obj.get('crossings')} crossings exceeds the budget {budget}"
        try:
            root = ET.fromstring(Path(case.outputs[1]).read_bytes())
        except ET.ParseError as exc:
            return f"SVG does not parse: {exc}"
        if not root.tag.endswith("svg"):
            return "SVG output has no svg root"
        case.crossings = obj["crossings"]
        return None

    def report(self, cases, loop):
        return [f"crossings per drawing: {sorted(c.crossings for c in cases if c.crossings is not None)}"]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (LayoutGeneral(), CrossingsHexgrid(), StretchCurved(), GadgetVerify())}
