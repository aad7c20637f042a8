"""Spans and counters around reebdraw's public functions, installed from outside.

The tracer wraps the public functions of each library module (plus the
private ``crossings._warm_start``, the search's warm start) and replaces
every module attribute that refers to the original, in ``cli`` too, so calls
through names imported with ``from .crossings import ...`` are seen.  Each call
records a span (name, start, end, parent) in memory.  The two geometry
predicates are counted, not timed, attributed to the innermost open span.
Names the metrics rely on that a commit no longer has are listed as absent.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

PACKAGE = "reebdraw"

#: Modules whose public functions get spans.  ``cli`` is not among them: its
#: ``main`` is the operation itself, and the cli layer's time is what the
#: operation spends outside these spans (``cli.overhead_s``).
MODULES = ("jsonio", "core", "subdivide", "crossings", "layout", "stretch", "gadget", "svg")

#: Called per number or per height; a span each would swamp their callers.
UNTIMED = {"jsonio.format_rational", "jsonio.parse_rational", "core.as_height"}

PRIVATE = ("crossings._warm_start",)

COUNTED = ("geometry.classify_segments", "geometry.on_segment")

#: Functions the per-layer metrics are derived from.
REQUIRED = (
    "crossings.exact_rgcn", "crossings._warm_start", "crossings.barycenter_ordering",
    "crossings.realize_layered", "crossings.count_crossings_geometric",
    "layout.layout_auto", "layout.layout_heuristic", "stretch.stretch",
    "gadget.ola_brute", "gadget.ola_reduce", "gadget.arrangement_to_drawing",
    "svg.render_svg", "subdivide.subdivide", "subdivide.unsubdivide_drawing",
    "core.classify_shape", "jsonio.parse_graph", "jsonio.parse_drawing",
    "jsonio.serialize_drawing", *COUNTED,
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end, self.parent, self.op = name, start, None, parent, op
        self.info = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts: Counter = Counter()
        self.op = 0
        self.in_classify = 0
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _module(self, short: str):
        return sys.modules.get(f"{PACKAGE}.{short}")

    def _targets(self):
        for short in MODULES:
            mod = self._module(short)
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and (not attr.startswith("_") or name in PRIVATE) and name not in UNTIMED):
                    yield name, fn, self._span_wrapper(name, fn)
        for name in COUNTED:
            short, attr = name.split(".")
            fn = getattr(self._module(short), attr, None)
            if inspect.isfunction(fn):
                yield name, fn, self._count_wrapper(name, fn)

    def install(self) -> None:
        wrapped = {}
        for name, fn, wrapper in self._targets():
            wrapped[id(fn)] = (fn, wrapper)
        self.absent = [n for n in REQUIRED if not inspect.isfunction(
            getattr(self._module(n.split(".")[0]), n.split(".")[1], None))]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, self.stack[-1] if self.stack else None, self.op)
            self.spans.append(span)
            self.stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.info = self._describe(name, args, kwargs, None, exc)
                raise
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            span.info = self._describe(name, args, kwargs, result, None)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        top = self.stack
        if name == "geometry.classify_segments":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[(name, top[-1].name if top else None)] += 1
                self.in_classify += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.in_classify -= 1
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.in_classify:
                    self.counts[(name, top[-1].name if top else None)] += 1
                return fn(*args, **kwargs)
        return wrapper

    def _describe(self, name, args, kwargs, result, exc):
        """The few facts about a call that the metrics need."""
        if name == "crossings.exact_rgcn":
            if exc is None:
                return {"states": result.states, "completed": True, "count": result.count}
            if type(exc).__name__ == "BudgetExhaustedError":
                budget = args[1] if len(args) > 1 else kwargs.get(
                    "budget", getattr(self._module("crossings"), "DEFAULT_SEARCH_BUDGET", 0))
                return {"states": budget or 0, "completed": False, "warm": getattr(exc, "best", None)}
        elif name == "crossings.count_crossings_geometric" and exc is None:
            return {"segments": sum(len(b) + 1 for b in args[0].bends), "found": result.count}
        elif name == "subdivide.subdivide" and exc is None:
            return {"vertices": len(result[0].vertices)}
        elif name == "svg.render_svg" and exc is None:
            return {"bytes": len(result.encode())}
        return None


def _has_ancestor(span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def layer_metrics(tracer: Tracer, op_seconds: list[float], factors: list[float]) -> dict[str, float]:
    """Per-operation means of the per-layer metrics.

    ``op_seconds[i]`` is operation i's wall time and ``factors[i]`` the
    reference-speed factor measured around it; span times get the same factor.
    """
    ops = max(len(op_seconds), 1)
    child_time: dict[int, float] = {}
    for s in tracer.spans:
        if s.parent is not None:
            child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) + (s.end - s.start)

    self_s: Counter = Counter()
    incl_s: Counter = Counter()
    root_s = [0.0] * len(op_seconds)
    for s in tracer.spans:
        dur = (s.end - s.start) * factors[s.op]
        self_s[s.name] += dur - child_time.get(id(s), 0.0) * factors[s.op]
        if not _has_ancestor(s, s.name):
            incl_s[s.name] += dur
        if s.parent is None:
            root_s[s.op] += dur

    def named(fn_name):
        return [s for s in tracer.spans if s.name == fn_name]

    searches = [s.info for s in named("crossings.exact_rgcn") if s.info]
    counts = [s.info for s in named("crossings.count_crossings_geometric") if s.info]
    pair_tests = tracer.counts[("geometry.classify_segments", "crossings.count_crossings_geometric")]
    found = sum(c["found"] for c in counts)

    def jsonio_s(prefix, suffix):
        return sum(v for k, v in self_s.items()
                   if k.startswith("jsonio.") and (k.startswith(prefix, 7) or k.endswith(suffix)))

    total = {
        "crossings.search_s": self_s["crossings.exact_rgcn"],
        "crossings.search_states": sum(s["states"] for s in searches),
        "layout.fallbacks": sum(_has_ancestor(s, "layout.layout_auto") for s in named("layout.layout_heuristic")),
        "crossings.warm_start_s": self_s["crossings._warm_start"],
        "crossings.barycenter_s": incl_s["crossings.barycenter_ordering"],
        "layout.heuristic_s": incl_s["layout.layout_heuristic"],
        "crossings.realize_s": incl_s["crossings.realize_layered"],
        "crossings.realize_attempts": sum(_has_ancestor(s, "crossings.realize_layered")
                                          for s in named("crossings.count_crossings_geometric")),
        "crossings.geometric_s": self_s["crossings.count_crossings_geometric"],
        "crossings.geometric_calls": len(named("crossings.count_crossings_geometric")),
        "crossings.geometric_segments": sum(c["segments"] for c in counts),
        "crossings.pair_tests": pair_tests,
        "crossings.vertex_tests": tracer.counts[("geometry.on_segment", "crossings.count_crossings_geometric")],
        "crossings.crossings_found": found,
        "stretch.stretch_s": self_s["stretch.stretch"],
        "stretch.segment_tests": tracer.counts[("geometry.classify_segments", "stretch.stretch")],
        "stretch.vertex_tests": tracer.counts[("geometry.on_segment", "stretch.stretch")],
        "gadget.brute_s": self_s["gadget.ola_brute"],
        "gadget.reduce_s": self_s["gadget.ola_reduce"],
        "gadget.drawing_s": self_s["gadget.arrangement_to_drawing"],
        "gadget.drawing_attempts": sum(_has_ancestor(s, "gadget.arrangement_to_drawing")
                                       for s in named("crossings.count_crossings_geometric")),
        "svg.render_s": self_s["svg.render_svg"],
        "svg.bytes_out": sum(s.info["bytes"] for s in named("svg.render_svg") if s.info),
        "jsonio.parse_s": jsonio_s("parse_", "_from_obj"),
        "jsonio.serialize_s": jsonio_s("serialize_", "_to_obj"),
        "subdivide.subdivide_s": incl_s["subdivide.subdivide"],
        "subdivide.unsubdivide_s": incl_s["subdivide.unsubdivide_drawing"],
        "subdivide.vertices_out": sum(s.info["vertices"] for s in named("subdivide.subdivide") if s.info),
        "core.classify_s": incl_s["core.classify_shape"],
        "cli.overhead_s": sum(t * f for t, f in zip(op_seconds, factors)) - sum(root_s),
    }
    out = {k: v / ops for k, v in total.items()}
    out["crossings.search_completed_ratio"] = (
        sum(s["completed"] for s in searches) / len(searches) if searches else 0.0)
    out["crossings.hit_ratio"] = found / pair_tests if pair_tests else 0.0
    return out
