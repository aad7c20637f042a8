"""Deterministic SVG rendering of drawings.

The drawing's bounding box is scaled linearly into the canvas and the y axis
is flipped (screen y grows downward, so the topmost height maps to the top
margin).  Identical input and options produce byte-identical output.

Coordinates come from the drawing's integer frame (``Drawing._scaled_polylines``,
shared with the crossing counter), in which each axis is multiplied by one
positive integer scale.  A screen coordinate needs only the ratio
(x - min x) / (max x - min x), which the common scale leaves unchanged, and
CPython's int / int true division is correctly rounded, so the integer ratio
gives the same float as converting the exact ``Fraction`` ratio, and the same
bytes.
"""

from __future__ import annotations

from math import isfinite
from typing import Sequence

from .core import Drawing, _Value
from .errors import GraphStructureError

#: Stroke styles per gadget edge part.
PART_STYLES = {
    "E1": ("#e07000", None),    # orange
    "E2": ("#404040", "4 3"),   # dotted
    "E3": ("#c00000", None),    # red
    "E4": ("#000000", None),    # black
}


class RenderOptions(_Value):
    """Canvas size and margin in pixels, and whether to draw level lines.
    The three sizes must be positive finite ints or floats; a bool, NaN or
    an infinity would otherwise be written into the SVG text as is.  Vertices
    are drawn with radius 3.0 and edges with stroke width 1.5."""

    width: int
    height: int
    margin: int
    show_level_lines: bool

    def __init__(self, width: int = 800, height: int = 600, margin: int = 40, show_level_lines: bool = False):
        sizes = {"width": width, "height": height, "margin": margin}
        for name, value in sizes.items():
            if not (type(value) is int or type(value) is float and isfinite(value)):
                raise GraphStructureError(f"render option {name} must be a finite int or float, "
                                          f"got {value!r}", code="bad-options")
            if value <= 0:
                raise GraphStructureError(f"render option {name} must be positive", code="bad-options")
        if 2 * margin >= min(width, height):  # it would mirror or collapse the picture
            raise GraphStructureError(f"render margin {margin} leaves no drawing area in a "
                                      f"{width}x{height} canvas", code="bad-options")
        self.__dict__.update(sizes, show_level_lines=show_level_lines)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _axis(values: set[int], margin: int, inner: int, flip: bool) -> dict[int, str]:
    """Formatted screen coordinate of each value on one axis of the integer
    frame: the values' range fills ``inner`` pixels after ``margin``, the
    greatest value first if ``flip``; a zero range lands mid-axis."""
    if not values:
        return {}
    lo, hi = min(values), max(values)
    span = hi - lo
    if span == 0:
        return {v: _fmt(margin + inner / 2) for v in values}
    return {v: _fmt(margin + ((hi - v) if flip else (v - lo)) / span * inner) for v in values}


def render_svg(
    d: Drawing,
    opts: RenderOptions = RenderOptions(),
    edge_parts: Sequence[str] | None = None,
) -> str:
    """Render a drawing to SVG text; given ``edge_parts`` (one gadget part per
    edge, as ``GadgetInstance.edge_parts``), edges are styled by part."""
    polys, vertex_pt, _, _ = d._scaled_polylines
    pts = [*vertex_pt.values(), *(p for poly in polys for p in poly[1:-1])]
    sx = _axis({p[0] for p in pts}, opts.margin, opts.width - 2 * opts.margin, flip=False)
    # Flip: the greatest height lands at the top margin.
    sy = _axis({p[1] for p in pts}, opts.margin, opts.height - 2 * opts.margin, flip=True)

    lines: list[str] = []
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{opts.width}" height="{opts.height}" '
        f'viewBox="0 0 {opts.width} {opts.height}">'
    )
    lines.append("<!-- y axis flipped: screen y = margin + (max_height - height) * scale -->")
    lines.append(f'<rect width="{opts.width}" height="{opts.height}" fill="white"/>')

    if opts.show_level_lines:
        for h in sorted({p[1] for p in vertex_pt.values()}):
            y = sy[h]
            lines.append(
                f'<line x1="{opts.margin}" y1="{y}" x2="{opts.width - opts.margin}" y2="{y}" '
                f'stroke="#d0d0d0" stroke-width="0.5"/>'
            )

    for i, poly in enumerate(polys):
        points = " ".join(f"{sx[px]},{sy[py]}" for px, py in poly)
        color, dash = "#303030", None
        if edge_parts is not None and i < len(edge_parts):
            color, dash = PART_STYLES.get(edge_parts[i], (color, None))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        lines.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash_attr}/>'
        )

    for v, (px, py) in vertex_pt.items():
        title = str(v).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        lines.append(
            f'<circle cx="{sx[px]}" cy="{sy[py]}" r="3.0" fill="#1050a0">'
            f"<title>{title}</title></circle>"
        )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
