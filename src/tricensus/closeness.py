"""Close interior points, quasi-convexity and the quasi-convex vertex order.

An interior point is *close* to a hull side when every triangle formed by
that side and any other point of the set strictly contains it.  A set is
*quasi-convex* when every interior point is close to some side.  At most one
point can be close to a given side, which makes the quasi-convex polygon
order well defined: walk the hull counter-clockwise and insert each close
point between the endpoints of its side.

Every other point lies left of a ccw hull side q -> r, so interior p is
inside the triangle (q, r, a) exactly when p is left of r -> a and of a -> q:
two orientation signs per apex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geom import INSIDE, PointSet, orient, point_in_triangle


def _side_or_raise(ps: PointSet, side) -> tuple[int, int]:
    q, r = side
    hull = ps.hull
    for a, b in ((q, r), (r, q)):
        if a in hull and hull[(hull.index(a) + 1) % len(hull)] == b:
            return (a, b)
    raise ValueError(f"({q}, {r}) is not a hull side")


def find_blocking_apex(ps: PointSet, p: int, side) -> int | None:
    """First apex whose triangle over the side misses p, or None when p is close.

    Apexes range over every point of the set except p and the side's own
    endpoints; those would give degenerate or vacuous triangles.
    """
    if p not in ps.interior:
        raise ValueError(f"point {p} is not interior")
    q, r = _side_or_raise(ps, side)
    pts = ps.points
    target, qp, rp = pts[p], pts[q], pts[r]
    for apex, a in enumerate(pts):
        if apex not in (p, q, r) and (orient(rp, a, target) != 1 or orient(a, qp, target) != 1):
            return apex
    return None


def is_close(ps: PointSet, p: int, side) -> bool:
    return find_blocking_apex(ps, p, side) is None


@dataclass(frozen=True)
class QuasiConvexReport:
    is_quasi_convex: bool
    assignment: dict  # interior index -> hull side (ccw pair)
    polygon_order: tuple[int, ...] | None


def classify(ps: PointSet) -> QuasiConvexReport:
    """Assign each interior point its first close hull side and assemble the report.

    When the set is quasi-convex the report carries the quasi-convex polygon
    order; sides are tried in hull order, and the assignment is collision-free
    because no side admits two close points.
    """
    sides = ps.hull_sides()
    assignment: dict[int, tuple[int, int]] = {}
    for p in ps.interior:
        for side in sides:
            if find_blocking_apex(ps, p, side) is None:
                assignment[p] = side
                break

    by_side: dict[tuple[int, int], int] = {}
    for p, side in assignment.items():
        assert side not in by_side, f"two points close to side {side}"
        by_side[side] = p

    quasi = len(assignment) == len(ps.interior)
    order = None
    if quasi:
        seq: list[int] = []
        for side in sides:
            seq.append(side[0])
            if side in by_side:
                seq.append(by_side[side])
        order = tuple(seq)
    return QuasiConvexReport(quasi, assignment, order)


def close_via_neighbor_triangles(ps: PointSet, p: int) -> bool:
    """Closeness test for a sole interior point via the two neighbor triangles.

    For each hull side, containment in the triangles formed with the side's
    two neighboring hull vertices decides closeness; must agree with
    :func:`classify` on single-interior-point sets.
    """
    if tuple(ps.interior) != (p,):
        raise ValueError("the set must have exactly this one interior point")
    pts = ps.points
    hull = ps.hull
    h = len(hull)
    target = pts[p]
    for j in range(h):
        a = hull[j]
        b = hull[(j + 1) % h]
        succ = hull[(j + 2) % h]
        pred = hull[(j - 1) % h]
        if (point_in_triangle(target, pts[a], pts[b], pts[succ]) == INSIDE
                and point_in_triangle(target, pts[pred], pts[a], pts[b]) == INSIDE):
            return True
    return False
