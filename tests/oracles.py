"""Orientation predicates on rational points, the Catalan convolution and
the region count over ``_region_splits``, kept as test references.

A point is an (x, y) pair of ints or ``Fraction`` values.  The package
decides every sign on the exact integer view of a point set
(:func:`tricensus.geom.integer_view`).  These predicates compute the same
signs straight from the rational coordinates, so tests compare the two.
:func:`catalan_by_convolution` recomputes the package's closed-form Catalan
numbers from the convolution recurrence.  :func:`count_by_splits` is the
region count written over the listing's split walk, which the package's
``_count_region`` copies inline, so tests compare the memos of the two.
"""

from __future__ import annotations

from tricensus.triangulations import _anchor_rotation, _region_splits

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


def catalan_by_convolution(n: int) -> int:
    """The n-th Catalan number by the convolution recurrence, independent of
    the closed form in :func:`tricensus.catalan.catalan`."""
    if n < 0:
        raise ValueError("catalan is defined for n >= 0")
    c = [1]
    for m in range(n):
        c.append(sum(c[i] * c[m - i] for i in range(m + 1)))
    return c[n]


def count_by_splits(t, boundary, inside, edges, required, memo) -> int:
    """``_count_region`` with its split walk left to ``_region_splits``: the
    same arguments, the same count and the same memo, filled by its own
    recursion."""
    cyc = _anchor_rotation(boundary)
    a = cyc[0]
    k = len(cyc)
    total = 0
    blockers = t.full if required else t.full ^ inside
    for v, j, inside1, edges1, inside2, edges2 in _region_splits(t, cyc, inside, edges, blockers):
        # a boundary apex leaves sub-cycles of j and k - j + 1 vertices
        c1 = c2 = 1
        if not j or inside1 or j > 3:
            c1 = memo.get(edges1)
            if c1 is None:
                c1 = count_by_splits(t, cyc[1:j + 1] if j else cyc[1:] + (a, v), inside1, edges1,
                                     required, memo)
        if j and (inside2 or j < k - 2):
            c2 = memo.get(edges2)
            if c2 is None:
                c2 = count_by_splits(t, cyc[j:] + (a,), inside2, edges2, required, memo)
        total += c1 * c2
    memo[edges] = total
    return total
