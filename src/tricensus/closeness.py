"""Close interior points, quasi-convexity and the quasi-convex vertex order.

An interior point is *close* to a hull side when every triangle formed by
that side and any other point of the set strictly contains it.  A set is
*quasi-convex* when every interior point is close to some side.  At most one
point can be close to a given side, which makes the quasi-convex polygon
order well defined: walk the hull counter-clockwise and insert each close
point between the endpoints of its side.

Every other point lies left of a ccw hull side q -> r, so interior p is
inside the triangle (q, r, a) exactly when p is left of r -> a and of a -> q:
two orientation signs per apex, taken as integer cross products on the
set's exact integer view ``ps.xy``.

Since p is left of a -> q exactly when a is left of q -> p, and left of
r -> a exactly when a is left of p -> r, p is close to q -> r exactly when
every point other than q, r and p is left of q -> p and left of p -> r.
The first condition makes p the extreme point seen from q, the one whose ray
turns least from q -> r; the second makes it the extreme point seen from r,
the one whose ray turns least from r -> q.  :func:`classify` takes the
candidate of an O(n) scan from q and keeps it when the scan from r picks it
too, so a set costs at most two scans per hull side and no
:func:`find_blocking_apex` call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geom import PointSet


def _side_or_raise(ps: PointSet, side) -> tuple[int, int]:
    q, r = side
    hull = ps.hull
    for a, b in ((q, r), (r, q)):
        if a in hull and hull[(hull.index(a) + 1) % len(hull)] == b:
            return (a, b)
    raise ValueError(f"({q}, {r}) is not a hull side")


def blocking_apex(xy, p: int, q: int, r: int) -> int | None:
    """First index of the integer pairs ``xy`` whose triangle over the ccw hull
    side q -> r misses p, or None when p is close to it.  p must lie left of
    the side; p, q and r give degenerate or vacuous triangles and are skipped."""
    (px, py), (qx, qy), (rx, ry) = xy[p], xy[q], xy[r]
    ux, uy, vx, vy = px - qx, py - qy, rx - px, ry - py
    for apex, (ax, ay) in enumerate(xy):
        # a must be strictly left of q -> p and of p -> r
        if ((ux * (ay - qy) <= uy * (ax - qx) or vx * (ay - py) <= vy * (ax - px))
                and apex not in (p, q, r)):
            return apex
    return None


def find_blocking_apex(ps: PointSet, p: int, side) -> int | None:
    """:func:`blocking_apex` of ``ps.xy`` for interior p and a hull side in either order."""
    if p not in ps.interior:
        raise ValueError(f"point {p} is not interior")
    return blocking_apex(ps.xy, p, *_side_or_raise(ps, side))


@dataclass(frozen=True)
class QuasiConvexReport:
    is_quasi_convex: bool
    assignment: dict  # interior index -> hull side (ccw pair)
    polygon_order: tuple[int, ...] | None


def classify(ps: PointSet) -> QuasiConvexReport:
    """Assign each interior point its first close hull side and assemble the report.

    Sides are taken in hull order.  Each side's candidate is the point
    turning least from q -> r seen from q; while it is interior and
    unassigned, it is close exactly when no other point turns less from
    r -> q seen from r, so every point gets its first close side.  The same
    pass lays out the polygon order, each side's q followed by its close
    point, and the report carries that order when the set is quasi-convex.
    """
    hull, xy = ps.hull, ps.xy
    h = len(hull)
    inner = [(i, *xy[i]) for i in ps.interior]
    found: dict[int, tuple[int, int]] = {}
    seq: list[int] = []
    for j, q in enumerate(hull):
        r = hull[(j + 1) % h]
        seq.append(q)
        qx, qy = xy[q]
        # Seen from q the hull vertices turn ccw in hull order from r, so the
        # vertex after r is the only one that can turn less than an interior point.
        after = hull[(j + 2) % h]
        best = after
        bx, by = xy[after]
        for i, x, y in inner:
            if (bx - qx) * (y - qy) < (by - qy) * (x - qx):  # i is right of q -> best
                best, bx, by = i, x, y
        if best == after or best in found:
            continue
        # Seen from r the hull vertices turn cw in hull order from q, so the
        # vertex before q is the only one that can turn less than an interior
        # point; best is close when nothing is left of r -> best.
        rx, ry = xy[r]
        ux, uy = bx - rx, by - ry
        x, y = xy[hull[j - 1]]
        if ux * (y - ry) > uy * (x - rx):
            continue
        for _, x, y in inner:
            if ux * (y - ry) > uy * (x - rx):
                break
        else:
            found[best] = (q, r)
            seq.append(best)
    quasi = len(found) == len(inner)
    return QuasiConvexReport(quasi, dict(sorted(found.items())), tuple(seq) if quasi else None)


def close_via_neighbor_triangles(ps: PointSet, p: int) -> bool:
    """Closeness test for a sole interior point via the two neighbor triangles.

    For each hull side, strict containment in the triangles formed with the
    side's two neighboring hull vertices decides closeness; must agree with
    :func:`classify` on single-interior-point sets.
    """
    if tuple(ps.interior) != (p,):
        raise ValueError("the set must have exactly this one interior point")
    tab = ps.orient_table()
    hull = ps.hull
    h = len(hull)

    def contains_p(a: int, b: int, c: int) -> bool:
        s = tab[a][b][c]
        return tab[a][b][p] == s and tab[b][c][p] == s and tab[c][a][p] == s

    for j in range(h):
        a = hull[j]
        b = hull[(j + 1) % h]
        succ = hull[(j + 2) % h]
        pred = hull[(j - 1) % h]
        if contains_p(a, b, succ) and contains_p(pred, a, b):
            return True
    return False
