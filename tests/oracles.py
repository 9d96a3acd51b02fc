"""Orientation predicates on rational points, kept as test references.

A point is an (x, y) pair of ints or ``Fraction`` values.  The package
decides every sign on the exact integer view of a point set
(:func:`tricensus.geom.integer_view`).  These predicates compute the same
signs straight from the rational coordinates, so tests compare the two.
"""

from __future__ import annotations

# point_in_triangle classifications
INSIDE = "inside"
BOUNDARY = "boundary"
OUTSIDE = "outside"


def orient(p, q, r) -> int:
    """Sign of the turn p -> q -> r: +1 counter-clockwise, -1 clockwise, 0 collinear."""
    (px, py), (qx, qy), (rx, ry) = p, q, r
    # integer-grid fast path; the general branch is exact as well, just slower
    if (px.denominator == 1 and py.denominator == 1 and qx.denominator == 1
            and qy.denominator == 1 and rx.denominator == 1 and ry.denominator == 1):
        a = ((qx.numerator - px.numerator) * (ry.numerator - py.numerator)
             - (qy.numerator - py.numerator) * (rx.numerator - px.numerator))
    else:
        a = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    if a > 0:
        return 1
    if a < 0:
        return -1
    return 0


def point_in_triangle(p, a, b, c) -> str:
    """Classify p against triangle abc as INSIDE, BOUNDARY or OUTSIDE.

    The result does not depend on the order of a, b, c.  Raises ValueError
    for a degenerate (collinear) triangle.
    """
    turn = orient(a, b, c)
    if turn == 0:
        raise ValueError("degenerate triangle: vertices are collinear")
    if turn < 0:
        b, c = c, b
    o1 = orient(a, b, p)
    o2 = orient(b, c, p)
    o3 = orient(c, a, p)
    if o1 < 0 or o2 < 0 or o3 < 0:
        return OUTSIDE
    if o1 == 0 or o2 == 0 or o3 == 0:
        return BOUNDARY
    return INSIDE


def segments_properly_cross(a, b, c, d) -> bool:
    """True iff the open segments ab and cd share exactly one interior point.

    Segments that merely touch, share an endpoint or overlap along a common
    line do not properly cross.
    """
    if a == b or c == d:
        raise ValueError("segment endpoints must be distinct")
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)
    return o1 * o2 < 0 and o3 * o4 < 0
