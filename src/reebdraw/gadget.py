r"""Linear-arrangement hardness apparatus: hex grids, the reduction, and witnesses.

The reduction maps a linear-arrangement instance (plain graph G, budget k) to
a Reeb graph H built from rigid triangular hexagonal grids:

* every source vertex gets two grids (one in a top band, one in a bottom
  band) that face each other across a gap,
* |E|^2 strand edges tie each top grid to its bottom partner, so swapping two
  columns against each other costs |E|^4 crossings,
* each grid's apex carries a chain of connector copies (degree-3-friendly
  attachment slots), and
* each source edge becomes one long edge from the higher-labeled vertex's top
  chain to the lower-labeled vertex's bottom chain.

Laying the columns out in arrangement order makes each source edge cross
exactly the strand bundles of the columns it skips, which witnesses the budget
k' = |E|^2 (k - |E|) + (|E|^2 - 1).

Geometry overview of a witness drawing (heights grow upward)::

        chains          |   |            |
        top grids      /T\ /T\   ...    /T\        band [TG0, TG0+2m+1]
        gap             |X| | |  strands + diagonals
        bottom grids   \B/ \B/   ...    \B/        band [BG0, BG0+2m+1]
        chains          |   |            |

Source edges travel through the lanes between columns, so they never touch
grid interiors or foreign chains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .core import ReebGraph
from .crossings import CrossingCertificate, Drawing, count_crossings_geometric
from .errors import (
    BudgetExhaustedError,
    DegeneracyError,
    GraphStructureError,
    InternalInvariantError,
    LayoutError,
)

DEFAULT_OLA_BUDGET = 50_000


# ---------------------------------------------------------------------------
# Plain (height-free) graphs for the arrangement problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OlaGraph:
    """A plain undirected graph used as a linear-arrangement instance."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        seen = set(self.vertices)
        if len(seen) != len(self.vertices):
            raise GraphStructureError("duplicate vertex id", code="duplicate-vertex")
        canon = []
        for a, b in self.edges:
            if a not in seen or b not in seen:
                raise GraphStructureError(f"edge endpoint {a if a not in seen else b!r} undeclared",
                                          code="unknown-vertex")
            if a == b:
                raise GraphStructureError(f"self-loop at {a!r}", code="self-loop")
            canon.append((a, b) if a <= b else (b, a))
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(canon))

    def degree(self) -> dict[str, int]:
        deg = {v: 0 for v in self.vertices}
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)


@dataclass(frozen=True)
class LinearArrangement:
    """A bijection from vertices onto 1..n together with its total edge length."""

    ranks: dict[str, int]
    cost: int

    @classmethod
    def for_graph(cls, g: OlaGraph, ranks: Mapping[str, int]) -> "LinearArrangement":
        return cls(dict(ranks), ola_cost(g, ranks))


def ola_cost(g: OlaGraph, ranks: Mapping[str, int]) -> int:
    """Total arrangement length: sum of |rank(v) - rank(w)| over all edges."""
    n = len(g.vertices)
    if set(ranks) != set(g.vertices) or sorted(ranks.values()) != list(range(1, n + 1)):
        raise GraphStructureError("ranks must form a bijection onto 1..n", code="not-bijection")
    return sum(abs(ranks[a] - ranks[b]) for a, b in g.edges)


def ola_brute(g: OlaGraph, budget: int | None = DEFAULT_OLA_BUDGET) -> LinearArrangement:
    """Exhaustive minimum over all arrangements; ties go to the lexicographically
    least rank tuple over the sorted vertex ids."""
    ids = sorted(g.vertices)
    n = len(ids)
    best: LinearArrangement | None = None
    tried = 0
    for perm in itertools.permutations(range(1, n + 1)):
        tried += 1
        if budget is not None and tried > budget:
            raise BudgetExhaustedError(
                f"arrangement enumeration exceeded budget of {budget} permutations",
                best=None if best is None else best.cost,
            )
        ranks = dict(zip(ids, perm))
        cost = sum(abs(ranks[a] - ranks[b]) for a, b in g.edges)
        if best is None or cost < best.cost:
            best = LinearArrangement(ranks, cost)
    if best is None:
        return LinearArrangement({}, 0)
    return best


# ---------------------------------------------------------------------------
# Triangular hexagonal grids
# ---------------------------------------------------------------------------

Cell = tuple[int, int]  # (level, x) in patch-local coordinates


def _patch(rows: int) -> tuple[list[Cell], list[tuple[Cell, Cell]], Cell, list[Cell]]:
    """Cells, edges, apex, and bottom-row cells of a triangular hexagon stack.

    Row r (1 = single top hexagon, ``rows`` = widest bottom row) sits at base
    level 2*(rows - r) with x offset rows - r; hexagons span four levels and
    adjacent hexagons share side edges, rows share their boundary rows.
    """
    cells: list[Cell] = []
    seen_cells: set[Cell] = set()
    edges: list[tuple[Cell, Cell]] = []
    seen_edges: set[tuple[Cell, Cell]] = set()

    def add_cell(c: Cell) -> None:
        if c not in seen_cells:
            seen_cells.add(c)
            cells.append(c)

    def add_edge(a: Cell, b: Cell) -> None:
        e = (a, b) if a <= b else (b, a)
        if e not in seen_edges:
            seen_edges.add(e)
            edges.append(e)

    for r in range(rows, 0, -1):
        base = 2 * (rows - r)
        off = rows - r
        for j in range(r):
            cx = off + 2 * j + 1
            bottom = (base, cx)
            l1, r1 = (base + 1, cx - 1), (base + 1, cx + 1)
            l2, r2 = (base + 2, cx - 1), (base + 2, cx + 1)
            top = (base + 3, cx)
            for c in (bottom, l1, r1, l2, r2, top):
                add_cell(c)
            add_edge(bottom, l1)
            add_edge(bottom, r1)
            add_edge(l1, l2)
            add_edge(r1, r2)
            add_edge(l2, top)
            add_edge(r2, top)

    apex = (2 * rows + 1, rows)
    bottoms = sorted(c for c in cells if c[0] == 0)
    return cells, edges, apex, bottoms


@dataclass(frozen=True)
class TriHexGrid:
    """A triangular stack of hexagons with its canonical planar drawing.

    ``rows`` rows hold 1..rows hexagons; the graph has rows^2 + 4*rows + 1
    vertices and (3/2)(rows^2 + 3*rows) edges, all degrees at most 3.  The
    apex (topmost vertex, horizontally central) is the designated connector;
    ``bottom_row`` lists the lowest-level vertices left to right.
    """

    rows: int
    graph: ReebGraph
    drawing: Drawing
    connector: str
    bottom_row: tuple[str, ...]


def tri_hex_grid(rows: int) -> TriHexGrid:
    """Build the grid and its crossing-free canonical drawing."""
    if rows < 1:
        raise LayoutError("grid needs at least one row", code="bad-rows")
    cells, edges, apex, bottoms = _patch(rows)

    def vid(c: Cell) -> str:
        return f"n{c[0]}_{c[1]}"

    heights = {vid(c): Fraction(c[0]) for c in cells}
    graph = ReebGraph(heights, tuple((vid(a), vid(b)) for a, b in edges))
    xs = {vid(c): Fraction(c[1]) for c in cells}
    drawing = Drawing(graph=graph, x=xs)

    expected_v = rows * rows + 4 * rows + 1
    expected_e = 3 * (rows * rows + 3 * rows) // 2
    if graph.vertex_count != expected_v or graph.edge_count != expected_e:
        raise InternalInvariantError(
            f"grid size mismatch: {graph.vertex_count} vertices / {graph.edge_count} edges, "
            f"expected {expected_v} / {expected_e}"
        )
    return TriHexGrid(
        rows=rows,
        graph=graph,
        drawing=drawing,
        connector=vid(apex),
        bottom_row=tuple(vid(c) for c in bottoms),
    )


# ---------------------------------------------------------------------------
# The reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E1Route:
    """Routing data for one source edge inside the gadget."""

    edge_index: int
    top_source: str
    bottom_source: str
    lane_offset: Fraction


@dataclass(frozen=True)
class GadgetPlan:
    """Column-local geometry shared by all witness drawings of one instance."""

    strands: int          # |E| of the source graph
    column_width: int     # 2 * strands (grid patch width)
    column_pitch: int     # column_width + 6 (lane between boxes)
    bottom_grid_base: int
    bottom_grid_top: int
    top_grid_base: int
    top_grid_top: int
    local_x: dict[str, Fraction]
    owner: dict[str, str]
    top_connector: dict[str, str]
    bottom_connector: dict[str, str]
    e1_routes: tuple[E1Route, ...]
    strand_edges: tuple[tuple[int, str, int, int], ...]  # (edge index, source, slot, copy)


@dataclass(frozen=True)
class GadgetInstance:
    """The reduction output: graph H with part labels and the crossing budget."""

    graph: ReebGraph
    vertex_parts: dict[str, str]      # "V1" grid vertices, "V2" connector copies
    edge_parts: tuple[str, ...]       # "E1".."E4" aligned with graph.edges
    budget: int                       # crossing budget k'
    source: OlaGraph
    source_budget: int                # arrangement budget k
    plan: GadgetPlan


def reduction_budget(edge_count: int, k: int) -> int:
    """Crossing budget for an arrangement budget k: |E|^2 (k - |E|) + |E|^2 - 1."""
    return edge_count * edge_count * (k - edge_count) + (edge_count * edge_count - 1)


def ola_reduce(g: OlaGraph, k: int) -> GadgetInstance:
    """Build the gadget Reeb graph H and its budget from an arrangement instance."""
    if not g.is_connected():
        raise GraphStructureError("the gadget is connected only for connected inputs",
                                  code="disconnected")
    m = len(g.edges)
    if m < 1:
        raise GraphStructureError("reduction needs at least one edge", code="no-edges")
    n = len(g.vertices)
    ids = sorted(g.vertices)
    index = {v: i + 1 for i, v in enumerate(ids)}
    deg = g.degree()

    cells, patch_edges, apex, bottoms = _patch(m)
    patch_height = 2 * m + 1

    max_chain = max(deg[v] for v in ids) * n
    bg0 = max_chain + 1
    bg_top = bg0 + patch_height
    tg0 = bg_top + 5
    tg_top = tg0 + patch_height

    heights: dict[str, Fraction] = {}
    local_x: dict[str, Fraction] = {}
    owner: dict[str, str] = {}
    vertex_parts: dict[str, str] = {}
    edges: list[tuple[str, str]] = []
    edge_parts: list[str] = []
    top_connector: dict[str, str] = {}
    bottom_connector: dict[str, str] = {}
    top_chain: dict[str, list[str]] = {}
    bottom_chain: dict[str, list[str]] = {}
    strand_edges: list[tuple[int, str, int, int]] = []

    def add_vertex(name: str, level: int, lx: int | Fraction, source: str, part: str) -> None:
        heights[name] = Fraction(level)
        local_x[name] = Fraction(lx)
        owner[name] = source
        vertex_parts[name] = part

    for u in ids:
        # Two grids per source vertex: apex-up above the gap, apex-down below.
        for side, base, flip in (("T", tg0, False), ("B", bg0, True)):
            def lvl(c: Cell) -> int:
                return base + (patch_height - c[0] if flip else c[0])

            def vid(c: Cell) -> str:
                return f"{u}:{side}{c[0]}_{c[1]}"

            for c in cells:
                add_vertex(vid(c), lvl(c), c[1], u, "V1")
            for a, b in patch_edges:
                edges.append((vid(a), vid(b)))
                edge_parts.append("E4")
            if side == "T":
                top_connector[u] = vid(apex)
            else:
                bottom_connector[u] = vid(apex)

        # Connector chains off both apexes, one copy per level.
        top_chain[u] = []
        bottom_chain[u] = []
        for j in range(1, deg[u] * n + 1):
            tname = f"{u}:tc{j}"
            add_vertex(tname, tg_top + j, m, u, "V2")
            edges.append((top_chain[u][-1] if top_chain[u] else top_connector[u], tname))
            edge_parts.append("E3")
            top_chain[u].append(tname)
            bname = f"{u}:bc{j}"
            add_vertex(bname, bg0 - j, m, u, "V2")
            edges.append((bottom_chain[u][-1] if bottom_chain[u] else bottom_connector[u], bname))
            edge_parts.append("E3")
            bottom_chain[u].append(bname)

        # Strand bundle: m copies between each of the m facing bottom-row pairs.
        for slot, cell in enumerate(bottoms):
            a = f"{u}:T{cell[0]}_{cell[1]}"
            b = f"{u}:B{cell[0]}_{cell[1]}"
            for copy in range(m):
                strand_edges.append((len(edges), u, slot, copy))
                edges.append((a, b))
                edge_parts.append("E2")

    # One long edge per source edge: higher-labeled vertex's top chain down to
    # the lower-labeled vertex's bottom chain.
    top_slots = {u: 0 for u in ids}
    bottom_slots = {u: 0 for u in ids}
    e1_routes: list[E1Route] = []
    source_edges = sorted(g.edges, key=lambda e: (min(index[e[0]], index[e[1]]),
                                                  max(index[e[0]], index[e[1]])))
    for rank, (a, b) in enumerate(source_edges):
        hi, lo = (a, b) if index[a] > index[b] else (b, a)
        ts = top_slots[hi]
        bs = bottom_slots[lo]
        top_slots[hi] += 1
        bottom_slots[lo] += 1
        e1_routes.append(E1Route(
            edge_index=len(edges),
            top_source=hi,
            bottom_source=lo,
            lane_offset=Fraction(1) + Fraction(4 * rank, max(len(g.edges), 1) + 1),
        ))
        edges.append((top_chain[hi][2 * ts + 1], bottom_chain[lo][2 * bs + 1]))
        edge_parts.append("E1")

    graph = ReebGraph(heights, tuple(edges))
    plan = GadgetPlan(
        strands=m,
        column_width=2 * m,
        column_pitch=2 * m + 6,
        bottom_grid_base=bg0,
        bottom_grid_top=bg_top,
        top_grid_base=tg0,
        top_grid_top=tg_top,
        local_x=local_x,
        owner=owner,
        top_connector=top_connector,
        bottom_connector=bottom_connector,
        e1_routes=tuple(e1_routes),
        strand_edges=tuple(strand_edges),
    )
    return GadgetInstance(
        graph=graph,
        vertex_parts=vertex_parts,
        edge_parts=tuple(edge_parts),
        budget=reduction_budget(m, k),
        source=g,
        source_budget=k,
        plan=plan,
    )


# ---------------------------------------------------------------------------
# Witness drawings and their inverse
# ---------------------------------------------------------------------------

def _certified_drawing(inst: GadgetInstance, f: LinearArrangement) -> tuple[Drawing, CrossingCertificate]:
    """Draw H with columns in arrangement order.

    Grid pairs face each other, strands run straight across the gap (extra
    copies fan out slightly at mid-gap), and each source edge travels through
    the lanes between column boxes: down from its top chain, across the gap
    diagonally (crossing exactly the skipped columns' strand bundles), and up
    to its bottom chain.  The geometric crossing count is at most the budget
    whenever the arrangement cost is within its own budget.  Returns the
    drawing with its crossing certificate.
    """
    plan = inst.plan
    if set(f.ranks) != set(inst.source.vertices):
        raise GraphStructureError("arrangement does not cover the source vertices",
                                  code="arrangement-mismatch")
    m = plan.strands
    pitch = plan.column_pitch
    width = plan.column_width

    def origin(u: str) -> Fraction:
        return Fraction((f.ranks[u] - 1) * pitch)

    xs = {v: origin(plan.owner[v]) + plan.local_x[v] for v in inst.graph.vertices}

    mid_gap = Fraction(plan.bottom_grid_top + plan.top_grid_base, 2)
    gap_lo = Fraction(2 * plan.bottom_grid_top + 1, 2)   # just above the bottom grids
    gap_hi = Fraction(2 * plan.top_grid_base - 1, 2)     # just below the top grids
    band_lo = Fraction(2 * plan.bottom_grid_base - 1, 2)  # just below the bottom grids
    band_hi = Fraction(2 * plan.top_grid_top + 1, 2)      # just above the top grids

    for wobble in range(24):
        shift = Fraction(wobble, 13 * (wobble + 1)) if wobble else Fraction(0)
        bends: list[tuple[tuple[Fraction, Fraction], ...]] = [() for _ in inst.graph.edges]
        fan = Fraction(1, 2 * (m + 1) * (wobble + 1))
        for edge_index, u, slot, copy in plan.strand_edges:
            if copy == 0:
                continue
            a, _ = inst.graph.edges[edge_index]
            bends[edge_index] = ((xs[a] + copy * fan, mid_gap),)
        for route in plan.e1_routes:
            top_u, bot_u = route.top_source, route.bottom_source
            sub = route.lane_offset + shift
            going_right = f.ranks[bot_u] > f.ranks[top_u]
            lane_top = origin(top_u) + width + sub if going_right else origin(top_u) - sub
            lane_bot = origin(bot_u) - sub if going_right else origin(bot_u) + width + sub
            bends[route.edge_index] = (
                (lane_bot, band_lo),
                (lane_bot, gap_lo),
                (lane_top, gap_hi),
                (lane_top, band_hi),
            )
        d = Drawing(graph=inst.graph, x=xs, bends=tuple(bends))
        try:
            return d, count_crossings_geometric(d)
        except DegeneracyError:
            continue
    raise InternalInvariantError("gadget drawing stayed degenerate under all lane offsets")


def arrangement_to_drawing(inst: GadgetInstance, f: LinearArrangement) -> Drawing:
    """Draw H with columns in arrangement order (see :func:`_certified_drawing`)."""
    return _certified_drawing(inst, f)[0]


def extract_arrangement(d: Drawing, inst: GadgetInstance) -> tuple[LinearArrangement, LinearArrangement]:
    """Read the two arrangements off a drawing of H: top-row grid order and
    bottom-row grid order, by connector x coordinate.  Callers can compare
    them; in any drawing within budget they must be identical."""
    if d.graph != inst.graph:
        raise GraphStructureError("drawing is not a drawing of this gadget", code="map-mismatch")

    def order_of(connectors: dict[str, str]) -> dict[str, int]:
        pos = sorted(((d.x[cid], u) for u, cid in connectors.items()))
        for (x1, _), (x2, _) in zip(pos, pos[1:]):
            if x1 == x2:
                raise DegeneracyError(f"two connectors share x = {x1}; order is ambiguous")
        return {u: i + 1 for i, (_, u) in enumerate(pos)}

    f1 = LinearArrangement.for_graph(inst.source, order_of(inst.plan.top_connector))
    f2 = LinearArrangement.for_graph(inst.source, order_of(inst.plan.bottom_connector))
    return f1, f2
