"""Exception types shared across the package."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # import cycle: core and subdivide raise these errors
    from .core import LevelOrdering
    from .subdivide import SubdivisionMap


class ReebError(Exception):
    """Base class for all library errors; carries a stable machine-readable code."""

    code = "error"

    def __init__(self, message: str, *, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class GraphStructureError(ReebError):
    """Malformed graph or drawing data (unknown endpoint, self-loop, horizontal edge, ...)."""

    code = "structure"


class DegeneracyError(ReebError):
    """Geometry not in general position: overlaps, tangencies, or concurrent crossings.

    Degenerate configurations are refused rather than counted, so that every
    reported crossing count is unambiguous.
    """

    code = "degenerate"


class LayoutError(ReebError):
    """Input does not satisfy a layout operation's precondition."""

    code = "layout"


class BudgetExhaustedError(ReebError):
    """A bounded search ran out of states; ``best`` holds the best bound seen so far.

    When the exact crossing search runs out, ``ordering`` is the heuristic
    ordering that attains ``best``, over the subdivided graph, and
    ``mapping`` links that graph back to the input.
    """

    code = "budget-exhausted"

    def __init__(self, message: str, *, best: int | None = None,
                 ordering: LevelOrdering | None = None,
                 mapping: SubdivisionMap | None = None):
        super().__init__(message, code="budget-exhausted")
        self.best = best
        self.ordering = ordering
        self.mapping = mapping


class InternalInvariantError(ReebError):
    """An internal invariant failed.  This signals a bug, not bad input."""

    code = "internal"
