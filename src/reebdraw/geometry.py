"""Exact rational plane geometry: orientation tests and segment intersection.

Everything here works on pairs of exact numbers (``Fraction`` or ``int``),
except :func:`crossing_point`, which takes integers; there are no epsilon
tolerances anywhere.  Callers that need speed can scale their coordinates to
integers first -- the predicates only use ring operations, so results are
identical.  ``crossings.count_crossings_geometric``, ``stretch``,
``subdivide_drawing`` and ``svg.render_svg`` read one integer frame per
drawing (``core.Drawing._scaled_polylines``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Point = tuple[Fraction, Fraction]

# Classification labels returned by classify_segments.
NONE = "none"
PROPER = "proper"
TOUCH = "touch"
OVERLAP = "overlap"


def orient(a, b, c) -> int:
    """Sign of the cross product (b-a) x (c-a): +1 left turn, -1 right turn, 0 collinear."""
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def on_segment(p, a, b) -> bool:
    """True iff p lies on the closed segment ab."""
    if orient(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def crossing_point(a, b, c, d) -> tuple[int, int, int]:
    """Where integer segments ab and cd cross properly, as (xn, yn, den) with
    den > 0 and gcd(xn, yn, den) = 1: the point (xn / den, yn / den).  Each
    point has one such triple, so it can key the point without ``Fraction``s."""
    r0, r1 = b[0] - a[0], b[1] - a[1]
    s0, s1 = d[0] - c[0], d[1] - c[1]
    den = r0 * s1 - r1 * s0
    t = (c[0] - a[0]) * s1 - (c[1] - a[1]) * s0
    xn, yn = a[0] * den + t * r0, a[1] * den + t * r1
    if den < 0:
        xn, yn, den = -xn, -yn, -den
    g = gcd(xn, yn, den)
    return xn // g, yn // g, den // g


def classify_segments(a, b, c, d) -> tuple[str, Point | None]:
    """Classify how closed segments ab and cd intersect.

    Returns one of:
      (PROPER, None)  -- transversal crossing interior to both segments; its
                         point is :func:`crossing_point`'s
      (TOUCH, p)      -- they meet at exactly one point p which is an endpoint
                         of at least one segment
      (OVERLAP, None) -- collinear with a shared sub-segment of positive length
      (NONE, None)    -- disjoint
    """
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)

    if o1 == 0 and o2 == 0:
        # All four points collinear; compare extents along the dominant axis.
        axis = 0 if max(a[0], b[0], c[0], d[0]) != min(a[0], b[0], c[0], d[0]) else 1
        lo1, hi1 = sorted((a, b), key=lambda p: p[axis])
        lo2, hi2 = sorted((c, d), key=lambda p: p[axis])
        left = max(lo1, lo2, key=lambda p: p[axis])
        right = min(hi1, hi2, key=lambda p: p[axis])
        if left[axis] > right[axis]:
            return (NONE, None)
        if left[axis] == right[axis]:
            return (TOUCH, left)
        return (OVERLAP, None)

    if o1 * o2 < 0 and o3 * o4 < 0:
        return (PROPER, None)

    # At most one endpoint can lie on the other segment (two would force
    # collinearity, handled above).
    if o1 == 0 and on_segment(c, a, b):
        return (TOUCH, c)
    if o2 == 0 and on_segment(d, a, b):
        return (TOUCH, d)
    if o3 == 0 and on_segment(a, c, d):
        return (TOUCH, a)
    if o4 == 0 and on_segment(b, c, d):
        return (TOUCH, b)
    return (NONE, None)
