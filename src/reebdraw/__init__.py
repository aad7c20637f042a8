"""Crossing-minimal drawings of Reeb graphs.

Data model, drawings and validation live in :mod:`reebdraw.core`; exact
crossing counting and the exact minimum search in :mod:`reebdraw.crossings`;
edge subdivision in :mod:`reebdraw.subdivide`; constructive layouts in
:mod:`reebdraw.layout`; drawing straightening in :mod:`reebdraw.stretch`; the
hardness gadget machinery in :mod:`reebdraw.gadget`.
"""

from .core import (
    DegreeProfile,
    Drawing,
    LevelAssignment,
    LevelOrdering,
    ReebGraph,
    ShapeClass,
    ValidationReport,
    classify_shape,
    degree_profile,
    levels,
    per_level_order,
    validate,
)
from .crossings import (
    CrossingCertificate,
    ExactResult,
    count_crossings_geometric,
    count_crossings_layered,
    exact_rgcn,
    realize_layered,
)
from .errors import (
    BudgetExhaustedError,
    DegeneracyError,
    GraphStructureError,
    InternalInvariantError,
    LayoutError,
    ReebError,
)
from .gadget import (
    GadgetInstance,
    LinearArrangement,
    OlaGraph,
    TriHexGrid,
    arrangement_to_drawing,
    extract_arrangement,
    ola_brute,
    ola_cost,
    ola_reduce,
    tri_hex_grid,
)
from .layout import (
    CycleDecomposition,
    layout_auto,
    layout_bowtie,
    layout_caterpillar,
    layout_cycle,
    layout_heuristic,
    layout_path,
    top_down_iteration_number,
)
from .stretch import stretch
from .subdivide import SubdivisionMap, subdivide, subdivide_drawing, unsubdivide_drawing
from .svg import RenderOptions, render_svg

__all__ = [
    "BudgetExhaustedError",
    "CrossingCertificate",
    "CycleDecomposition",
    "DegeneracyError",
    "DegreeProfile",
    "Drawing",
    "ExactResult",
    "GadgetInstance",
    "GraphStructureError",
    "InternalInvariantError",
    "LayoutError",
    "LevelAssignment",
    "LevelOrdering",
    "LinearArrangement",
    "OlaGraph",
    "ReebError",
    "ReebGraph",
    "RenderOptions",
    "ShapeClass",
    "SubdivisionMap",
    "TriHexGrid",
    "ValidationReport",
    "arrangement_to_drawing",
    "classify_shape",
    "count_crossings_geometric",
    "count_crossings_layered",
    "degree_profile",
    "exact_rgcn",
    "extract_arrangement",
    "layout_auto",
    "layout_bowtie",
    "layout_caterpillar",
    "layout_cycle",
    "layout_heuristic",
    "layout_path",
    "levels",
    "ola_brute",
    "ola_cost",
    "ola_reduce",
    "per_level_order",
    "realize_layered",
    "render_svg",
    "stretch",
    "subdivide",
    "subdivide_drawing",
    "top_down_iteration_number",
    "tri_hex_grid",
    "unsubdivide_drawing",
    "validate",
]

__version__ = "0.1.0"
