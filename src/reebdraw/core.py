"""Reeb graph data model: exact heights, levels, degrees, validation, shape classes.

A Reeb graph here is an undirected multigraph whose vertices carry heights.
Heights are exact rationals (``Fraction``) so that level ranks and all
downstream crossing predicates are bit-exact; float ties would silently
corrupt level assignment.  Parallel edges are allowed everywhere (surfaces of
positive genus need them); self-loops and edges between equal-height vertices
are rejected at construction because they cannot be drawn as strictly
y-monotone curves.

A :class:`Drawing` places each vertex at y equal to its height and a rational
x, and each edge on a strictly y-monotone polyline; it builds the exact
integer frame that the crossing counter, ``stretch``, ``subdivide_drawing``
and the SVG renderer read.  A :class:`LevelOrdering` is the left-to-right
vertex order on each level, what :func:`per_level_order` reads off a drawing.

All types are immutable values after construction and every operation is a
pure function, so everything in this module is safe to share across threads.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import chain, compress, islice
from math import lcm
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import DegeneracyError, GraphStructureError, LayoutError

HeightLike = Fraction | int | str

#: Prefix used for vertex ids generated by edge subdivision.  User graphs
#: should avoid it; generated ids are made collision-free regardless.
GENERATED_ID_PREFIX = "__sub_"

_MAX_DIGITS = 4300  # Python's default limit on the digits of an int read from or written to a string


def _parse_fraction(text: str, what: str, code: str) -> Fraction:
    """``Fraction(text)``, or a GraphStructureError with ``code`` naming the
    value ``what``.  An integer or "p/q" in ASCII digits (the numerator
    optionally signed) is built from its two ints, as ``Fraction`` builds it
    after its pattern match, with the same digit-limit and zero-denominator
    errors; any other form goes to ``Fraction``.  A decimal exponent that
    would scale the value past 4,300 digits is refused from the string,
    before the number is built."""
    try:
        num, slash, den = text.partition("/")
        digits = num[1:] if num[:1] in ("-", "+") else num
        if digits.isascii() and digits.isdigit() and (not slash or den.isascii() and den.isdigit()):
            n = -int(digits) if num[0] == "-" else int(digits)
            return Fraction(n, int(den)) if slash else Fraction(n)
        # ``Fraction`` builds m * 10**s, or m over 10**-s, from the significand m and s, the
        # exponent less the digits after the point: refuse from the string what overflows.
        head, e, exp = text.strip().replace("_", "").lower().partition("e")
        if e and exp.lstrip("+-").isdecimal():
            shift = int(exp) - len(head.partition(".")[2])
            digits = len(head.lstrip("+-0.").replace(".", ""))
            if max(digits + max(shift, 0), 1 - shift) > _MAX_DIGITS:
                raise ValueError(f"needs more than {_MAX_DIGITS} digits")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise GraphStructureError(f"cannot parse {what} {text!r}: {exc}", code=code) from None


def as_height(value: HeightLike) -> Fraction:
    """Convert an int, exact-decimal/rational string, or Fraction to a Fraction."""
    if isinstance(value, bool):
        raise GraphStructureError(f"height must be a number, got {value!r}", code="bad-height")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return _parse_fraction(value, "height", "bad-height")
    raise GraphStructureError(f"height must be int, string, or Fraction, got {type(value).__name__}", code="bad-height")


class _Value:
    """Base of the value types that validate what they are built from.

    A subclass declares its fields, in order after those it inherits, as
    class annotations, and its ``__init__`` stores them (and any derived
    private state) straight into the instance ``__dict__``.  The base gives
    it a frozen dataclass's value semantics over those fields: equality only
    with an instance of the same class, a hash of the field values,
    ``Name(field=value, ...)`` as repr, and no assignment or deletion once
    built.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ReebGraph(_Value):
    """Vertices with heights plus an edge multiset (unordered vertex-id pairs).

    Edge pairs are stored in canonical (lexicographically sorted) order but the
    position of each edge in ``edges`` is preserved: parallel edges are
    distinguished by index, and drawings refer to edges by that index.
    """

    vertices: dict[str, Fraction]
    edges: tuple[tuple[str, str], ...]

    def __init__(self, vertices: dict[str, Fraction], edges: tuple[tuple[str, str], ...]):
        verts = dict(vertices)
        # Each height's exact ratio, read once: faster to compare than
        # Fraction.__eq__, and kept (``_ratios``) for a drawing's integer frame.
        ratios = {v: h.as_integer_ratio() for v, h in verts.items()}
        get = ratios.get
        canon = []
        for a, b in edges:
            # A self-loop joins two equal ratios too, so one test passes every good edge.
            if (ra := get(a)) is None or (rb := get(b)) is None or ra == rb:
                rb = get(b)
                if ra is None or rb is None:
                    raise GraphStructureError(f"edge endpoint {a if ra is None else b!r} is not a declared vertex",
                                              code="unknown-vertex")
                if a == b:
                    raise GraphStructureError(f"self-loop at vertex {a!r}", code="self-loop")
                raise GraphStructureError(
                    f"edge ({a!r}, {b!r}) joins two vertices of equal height {verts[a]}",
                    code="horizontal-edge",
                )
            canon.append((a, b) if a <= b else (b, a))
        self.__dict__.update(vertices=verts, edges=tuple(canon), _ratios=ratios)

    @classmethod
    def build(cls, heights: Mapping[str, HeightLike], edges: Iterable[tuple[str, str]]) -> "ReebGraph":
        """Build a graph from height-like values (ints, 'p/q' or decimal strings)."""
        return cls({v: as_height(h) for v, h in heights.items()}, tuple((a, b) for a, b in edges))

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def incident_edges(self) -> dict[str, list[int]]:
        """Map each vertex to the indices of its incident edges (with multiplicity)."""
        out: dict[str, list[int]] = {v: [] for v in self.vertices}
        for i, (a, b) in enumerate(self.edges):
            out[a].append(i)
            out[b].append(i)
        return out

    def adjacency(self) -> dict[str, list[tuple[str, int]]]:
        """Map each vertex to (neighbor, edge index) pairs, with multiplicity."""
        out: dict[str, list[tuple[str, int]]] = {v: [] for v in self.vertices}
        for i, (a, b) in enumerate(self.edges):
            out[a].append((b, i))
            out[b].append((a, i))
        return out

    def lower_upper(self, edge_index: int) -> tuple[str, str]:
        """Endpoints of an edge ordered by height (lower first)."""
        a, b = self.edges[edge_index]
        return (a, b) if self.vertices[a] < self.vertices[b] else (b, a)


class DegreeProfile(NamedTuple):
    """Total, downward, and upward degree per vertex (parallel edges counted)."""

    total: dict[str, int]
    down: dict[str, int]
    up: dict[str, int]


class LevelAssignment(NamedTuple):
    """Dense integer ranks of the distinct height values, lowest = 0."""

    level: dict[str, int]
    count: int
    level_heights: tuple[Fraction, ...]

    def by_level(self) -> list[list[str]]:
        """Vertices grouped by level, ids sorted within each level."""
        groups: list[list[str]] = [[] for _ in range(self.count)]
        for v in sorted(self.level):
            groups[self.level[v]].append(v)
        return groups


class Violation(NamedTuple):
    """One broken rule, naming the vertex or edge that breaks it."""

    rule: str
    subject: str
    message: str


class ValidationReport(NamedTuple):
    is_generic: bool
    is_subdivided: bool
    is_connected: bool
    violations: tuple[Violation, ...]


class ShapeClass(enum.Enum):
    PATH = "path"
    CATERPILLAR = "caterpillar"
    SINGLE_CYCLE = "single-cycle"
    TREE = "tree"
    GENERAL = "general"


def degree_profile(g: ReebGraph) -> DegreeProfile:
    """Per-vertex total/downward/upward degrees; parallel edges count with multiplicity."""
    total = {v: 0 for v in g.vertices}
    down = {v: 0 for v in g.vertices}
    up = {v: 0 for v in g.vertices}
    for a, b in g.edges:
        total[a] += 1
        total[b] += 1
        if g.vertices[a] < g.vertices[b]:
            up[a] += 1
            down[b] += 1
        else:
            down[a] += 1
            up[b] += 1
    return DegreeProfile(total=total, down=down, up=up)


def levels(g: ReebGraph) -> LevelAssignment:
    """Dense ranks of distinct heights; equal heights share a level."""
    distinct = sorted(set(g.vertices.values()))
    rank = {h: i for i, h in enumerate(distinct)}
    return LevelAssignment(
        level={v: rank[h] for v, h in g.vertices.items()},
        count=len(distinct),
        level_heights=tuple(distinct),
    )


def _components(vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> list[set[str]]:
    """Connected components of the graph on ``vertices`` with ``edges``, as
    vertex sets, in order of their first vertex in ``vertices``."""
    adj: dict[str, list[str]] = {v: [] for v in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen: set[str] = set()
    comps: list[set[str]] = []
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def connected_components(g: ReebGraph) -> list[set[str]]:
    """Connected components as vertex-id sets, in order of their smallest id."""
    return _components(sorted(g.vertices), g.edges)


def is_connected(g: ReebGraph) -> bool:
    return len(connected_components(g)) <= 1


def validate(g: ReebGraph) -> ValidationReport:
    """Classify the graph and list every rule violation.

    ``is_generic``: all heights distinct, every degree 1 or 3, and at most two
    edges up / two down per vertex.  ``is_subdivided``: every edge spans
    consecutive levels and degrees are at most 3 with up/down at most 2.  The
    two flags are computed independently.  Violations are data, not errors.
    """
    prof = degree_profile(g)
    lev = levels(g)
    violations: list[Violation] = []

    by_height: dict[Fraction, list[str]] = {}
    for v, h in g.vertices.items():
        by_height.setdefault(h, []).append(v)
    height_clashes = {h: vs for h, vs in by_height.items() if len(vs) > 1}
    for h, vs in sorted(height_clashes.items()):
        violations.append(
            Violation("unique-heights", ",".join(map(str, sorted(vs))), f"vertices {sorted(vs)} share height {h}")
        )

    generic = not height_clashes
    for v in sorted(g.vertices):
        if prof.total[v] not in (1, 3):
            generic = False
            violations.append(Violation("degree-1-or-3", str(v), f"deg({v}) = {prof.total[v]}"))
        if prof.down[v] > 2:
            generic = False
            violations.append(Violation("down-degree", str(v), f"deg_down({v}) = {prof.down[v]} > 2"))
        if prof.up[v] > 2:
            generic = False
            violations.append(Violation("up-degree", str(v), f"deg_up({v}) = {prof.up[v]} > 2"))

    subdivided = True
    for i, (a, b) in enumerate(g.edges):
        if abs(lev.level[a] - lev.level[b]) != 1:
            subdivided = False
            violations.append(
                Violation("consecutive-levels", f"{a}-{b}",
                          f"edge {i} ({a}, {b}) spans levels {lev.level[a]} and {lev.level[b]}")
            )
    for v in sorted(g.vertices):
        if prof.total[v] > 3 or prof.down[v] > 2 or prof.up[v] > 2:
            subdivided = False
            if prof.total[v] > 3:
                violations.append(Violation("degree-at-most-3", str(v), f"deg({v}) = {prof.total[v]} > 3"))

    comps = connected_components(g)
    connected = len(comps) <= 1
    if not connected:
        violations.append(
            Violation("connected", ";".join(map(str, sorted(min(c) for c in comps))),
                      f"graph has {len(comps)} connected components")
        )

    return ValidationReport(
        is_generic=generic,
        is_subdivided=subdivided,
        is_connected=connected,
        violations=tuple(violations),
    )


def classify_shape(g: ReebGraph) -> ShapeClass:
    """First match among: path, caterpillar, single cycle, tree, general.

    A path has all degrees <= 2 and no cycle; a caterpillar is a tree whose
    non-leaf vertices form a path; a single cycle has every degree exactly 2.
    """
    if not is_connected(g):
        raise LayoutError("shape classification requires a connected graph", code="disconnected")
    prof = degree_profile(g)
    n, m = g.vertex_count, g.edge_count
    acyclic = m == n - 1 or n == 0

    if acyclic and all(d <= 2 for d in prof.total.values()):
        return ShapeClass.PATH
    if acyclic:
        # The non-leaf vertices form a path iff the walk through them covers
        # them: in a tree it then uses every edge among them.
        spine = {v for v, d in prof.total.items() if d >= 2}
        return ShapeClass.CATERPILLAR if len(_walk(spine, g.adjacency())) == len(spine) else ShapeClass.TREE
    if n >= 2 and all(d == 2 for d in prof.total.values()):
        return ShapeClass.SINGLE_CYCLE
    return ShapeClass.GENERAL


def _walk(nodes: set[str], adj: Mapping[str, list[tuple[str, int]]]) -> list[str]:
    """The path through ``nodes`` from its least end, each step to the first
    unvisited neighbor among ``nodes`` in ``adj`` (see :meth:`ReebGraph.adjacency`).
    An end has at most one such neighbor; with no end the path is empty."""
    nbrs = {v: [w for w, _ in adj[v] if w in nodes] for v in nodes}
    ends = [v for v in nodes if len(nbrs[v]) <= 1]
    if not ends:
        return []
    order = [min(ends)]
    seen = set(order)
    while (step := next((w for w in nbrs[order[-1]] if w not in seen), None)) is not None:
        order.append(step)
        seen.add(step)
    return order


def spine_and_legs(g: ReebGraph) -> tuple[list[str], dict[str, list[str]]]:
    """Ordered spine vertices of a caterpillar plus the legs per spine vertex.

    The spine is the path induced by non-leaf vertices, oriented to start at
    its lexicographically smaller end.  Raises if the graph is not a
    path/caterpillar.
    """
    shape = classify_shape(g)
    if shape not in (ShapeClass.PATH, ShapeClass.CATERPILLAR):
        raise LayoutError(f"expected a caterpillar, got {shape.value}", code="not-caterpillar")
    return _spine_and_legs(g)


def _spine_and_legs(g: ReebGraph) -> tuple[list[str], dict[str, list[str]]]:
    """:func:`spine_and_legs` of a graph already classified as a path or caterpillar."""
    adj = g.adjacency()
    # A single vertex or single edge has no non-leaf vertex: all are spine.
    spine_set = {v for v, a in adj.items() if len(a) >= 2} or set(adj)
    order = _walk(spine_set, adj)
    return order, {v: sorted(w for w, _ in adj[v] if w not in spine_set) for v in order}


Point = tuple[Fraction, Fraction]
IntPoint = tuple[int, int]


def _exact(c) -> Fraction:
    """``c`` as a Fraction, without re-wrapping one that already is."""
    return c if type(c) is Fraction else Fraction(c)


def _all_of_type(items: Iterable, cls: type) -> bool:
    """Whether every item is exactly a ``cls``, not a subclass (a C-speed scan)."""
    return set(map(type, items)) <= {cls}


def _exact_bends(bends) -> tuple[tuple[Point, ...], ...]:
    """``bends`` as a tuple of per-edge tuples of (Fraction, Fraction) points
    (``()`` for a straight edge).  Bends already in that form are kept; the
    scan only reads types, and only the bent edges' points."""
    if (type(bends) is tuple and _all_of_type(bends, tuple)
            and _all_of_type(points := list(chain.from_iterable(compress(bends, bends))), tuple)
            and set(map(len, points)) <= {2} and _all_of_type(chain.from_iterable(points), Fraction)):
        return bends
    return tuple(tuple((_exact(px), _exact(py)) for px, py in eb) if eb else () for eb in bends)


class Drawing(_Value):
    """A concrete drawing: per-vertex x coordinates plus per-edge bend points.

    The y coordinate of every vertex is forced to its height.  ``bends[i]``
    lists edge i's interior bend points ordered by strictly increasing y,
    strictly between the endpoint heights; an empty tuple means a straight
    segment.  A drawing is a value: the constructor builds its exact integer
    frame (``_scaled_polylines``) from the graph's height ratios and one
    ``as_integer_ratio`` read of each x and bend coordinate, scaling each
    axis by the lcm of its distinct denominators, and checks bend
    monotonicity and vertex coincidences on that frame; incidence
    degeneracies are caught when counting.  The frame is all a drawing holds
    beyond its fields: it keeps no lazy state.
    """

    graph: ReebGraph
    x: dict[str, Fraction]
    bends: tuple[tuple[Point, ...], ...]

    def __init__(self, graph: ReebGraph, x: dict[str, Fraction], bends: tuple[tuple[Point, ...], ...] = ()):
        heights, edges = graph.vertices, graph.edges
        xs = dict(x.items())
        if not _all_of_type(xs.values(), Fraction):
            xs = {v: _exact(c) for v, c in x.items()}
        if xs.keys() != heights.keys():
            missing = [v for v in heights if v not in xs]
            if missing:
                raise GraphStructureError(f"missing x coordinate for vertex {missing[0]!r}", code="missing-x")
            extra = [v for v in xs if v not in heights]
            raise GraphStructureError(f"x coordinate for unknown vertex {extra[0]!r}", code="unknown-vertex")
        bends = _exact_bends(bends) or ((),) * len(edges)
        if len(bends) != len(edges):
            raise GraphStructureError(
                f"bend list length {len(bends)} does not match edge count {len(edges)}",
                code="edge-mismatch",
            )

        # The integer frame: (edge polylines from the lower end up, vertex
        # points, sx, sy), each coordinate multiplied by its axis scale sx or
        # sy.  The scales cover every vertex, isolated ones included, so each
        # scaled coordinate is exact, and scaling keeps order and equality.
        # Every geometric consumer (the crossing counter, ``stretch``'s rows,
        # ``subdivide_drawing`` and the SVG renderer) reads this one frame, so
        # none may change it.  The heights' ratios are the graph's own.
        y_ratios = graph._ratios
        x_ratios = [xs[v].as_integer_ratio() for v in y_ratios]
        bend_ratios = [(px.as_integer_ratio(), py.as_integer_ratio())
                       for px, py in chain.from_iterable(compress(bends, bends))]
        x_dens = set(map(itemgetter(1), x_ratios)) | {xd for (_, xd), _ in bend_ratios}
        y_dens = set(map(itemgetter(1), y_ratios.values())) | {yd for _, (_, yd) in bend_ratios}
        sx, sy = lcm(*x_dens), lcm(*y_dens)
        fx = {d: sx // d for d in x_dens}  # each denominator's factor into its scale
        fy = {d: sy // d for d in y_dens}

        def scaled(ratio: tuple[tuple[int, int], tuple[int, int]]) -> IntPoint:
            (xn, xd), (yn, yd) = ratio
            return xn * fx[xd], yn * fy[yd]

        vertex_pt = {v: (xn * fx[xd], yn * fy[yd])
                     for v, (xn, xd), (yn, yd) in zip(y_ratios, x_ratios, y_ratios.values())}
        bend_pts = map(scaled, bend_ratios)
        polys = []
        for i, ((a, b), eb) in enumerate(zip(edges, bends)):
            lo, hi = vertex_pt[a], vertex_pt[b]
            if hi[1] < lo[1]:
                lo, hi = hi, lo
            if not eb:
                polys.append((lo, hi))
                continue
            pts = tuple(islice(bend_pts, len(eb)))
            y_prev = lo[1]
            for (_, y), (_, py) in zip(pts, eb):
                if not (y_prev < y < hi[1]):
                    raise GraphStructureError(
                        f"bend of edge {i} at y={py} breaks strict y-monotonicity", code="bad-bend"
                    )
                y_prev = y
            polys.append((lo, *pts, hi))
        if len(set(vertex_pt.values())) < len(vertex_pt):
            points = {}
            for v, p in vertex_pt.items():
                if p in points:
                    raise DegeneracyError(f"vertices {points[p]!r} and {v!r} coincide at {(xs[v], heights[v])}")
                points[p] = v
        self.__dict__.update(graph=graph, x=xs, bends=bends, _scaled_polylines=(tuple(polys), vertex_pt, sx, sy))


def per_level_order(d: Drawing) -> tuple[tuple[str, ...], ...]:
    """Left-to-right vertex order on each level of a drawing."""
    return tuple(tuple(sorted(vs, key=lambda v: (d.x[v], v))) for vs in levels(d.graph).by_level())


class LevelOrdering(NamedTuple):
    """Left-to-right vertex sequences, one per level (level 0 first)."""

    orders: tuple[tuple[str, ...], ...]

    @classmethod
    def from_lists(cls, lists: Iterable[Sequence[str]]) -> "LevelOrdering":
        return cls(tuple(tuple(lst) for lst in lists))

    def positions(self) -> dict[str, int]:
        pos: dict[str, int] = {}
        for order in self.orders:
            for i, v in enumerate(order):
                pos[v] = i
        return pos

    def mirrored(self) -> "LevelOrdering":
        return LevelOrdering(tuple(tuple(reversed(order)) for order in self.orders))
