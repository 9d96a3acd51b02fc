"""Characteristic vectors of polylines in an angle and of polygons around a point.

Two related encodings live here, both decided purely by orientation signs,
which are read as integer cross products on the frame's exact
:func:`~tricensus.geom.integer_view`.

*Angle frames.*  Fix an apex and two arm points spanning an angle smaller
than a half-turn, with interior points sorted left to right by the angle
from the left arm.  A polyline is any increasing subset of the interior
points, walked from the left arm to the right arm.  Its characteristic
vector records, per interior point, whether the polyline passes above it:
for a non-vertex, above means the segment from the apex to the point crosses
the polyline chord bracketing it; for a vertex of the polyline the rule
flips, against the chord joining its two neighbors.  As the ray to the point
lies between the rays to the chord's ends, the segment crosses the chord
exactly when the point lies on the other side of it from the apex.  The two
maps are mutually inverse bijections between polylines and bit vectors;
``polyline_from_charvec`` recovers the unique vertex chain for a vector by
an exact search over consecutive vertex pairs, since a point's bit depends
only on its two bracketing chain nodes.

*Radial frames.*  Fix a center and points sorted counter-clockwise from a
deterministic reference direction parallel to no center-to-point ray.  A
*good* polygon is a vertex subset whose consecutive counter-clockwise
angular gaps at the center are all less than a half-turn.  A point's bit is
1 when the center lies strictly inside the cone spanned at the point by the
rays to its bracketing polygon vertices, flipped for a vertex.  For a chord
spanning less than a half-turn at the center this is the angle-frame rule:
the point lies on the other side of the chord from the center.  A chord
spanning more, which only a vertex's two neighbors can, has the center
inside its triangle with the vertex.  Polygon vectors are the same fold of
chord masks as polyline vectors.  The polygon-to-vector map is injective,
and its image is invariant under moving any point along its ray from the
center.

``project_to_convex_position`` implements the outward projection used to
compare a point set against a convex configuration: every interior point
except a chosen pivot is pushed along the ray from the pivot to just beyond
the hull, then the placement is verified (convex position plus general
position) and retried with smaller overshoots until it passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cmp_to_key
from itertools import chain, combinations, permutations

from .errors import ConstructionError, SizeCapError
from .geom import PointSet, general_position_violation, integer_view, turn

GOOD_POLYGON_CAP = 10
PROJECTION_ROUNDS = 64


def _frame_view(points) -> tuple[tuple[int, int], ...]:
    """The integer view of a frame's points, refused unless in general position."""
    view = integer_view(points)
    witness = general_position_violation(view)
    if witness is not None:
        raise ValueError(f"frame points not in general position: indices {witness}")
    return view


def _chord_mask(p, q, c, xy, ks) -> int:
    """Bit k, for k in ``ks``, set when ``xy[k]`` lies on the other side of
    chord p--q from ``c``."""
    side = turn(p, q, c)
    return sum(1 << k for k in ks if turn(p, q, xy[k]) != side)


def _fold(beyond, chain, n: int, shift: int = 0) -> tuple[int, ...]:
    """The n-bit vector of a chain of nodes, node e's masks being
    ``beyond[e + shift]``: a non-vertex takes its bit from the chord over it,
    an inner node the flipped bit from the chord joining its two neighbors."""
    mask = 0
    for u, v in zip(chain, chain[1:]):
        mask |= beyond[u + shift][v + shift]
    for u, k, v in zip(chain, chain[1:], chain[2:]):
        mask |= ~beyond[u + shift][v + shift] & (1 << k)
    return tuple((mask >> k) & 1 for k in range(n))


# ---------------------------------------------------------------------------
# Angle frames and polylines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngleFrame:
    """An angle with its interior points sorted left to right.

    The apex, the arms and the interior points are the (x, y) pairs the
    frame was built from, as given.  Chain node -1 is the left arm, node n
    the right arm and node k < n the interior point P_k.  For nodes u < v,
    ``beyond[u + 1][v + 1]`` has bit i set, u < i < v, when P_i lies on the
    other side of chord u--v from the apex: the ray to P_i lies between the
    rays to u and v, so that is when apex--P_i properly crosses the chord.
    :func:`build_angle_frame` builds the masks from the integer view it
    sorts on.
    """

    apex: tuple
    left_arm: tuple
    right_arm: tuple
    interior: tuple[tuple, ...]
    beyond: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)


def build_angle_frame(apex, left_arm, right_arm, pts) -> AngleFrame:
    """Validate the configuration, sort the interior points angularly and
    build the chord masks."""
    pts = list(pts)
    a, left, right, *xy = _frame_view([apex, left_arm, right_arm, *pts])
    s = turn(a, left, right)
    for (x, y), q in zip(pts, xy):
        if turn(a, left, q) != s or turn(a, right, q) != -s:
            raise ValueError(f"({x}, {y}) is not strictly inside the angle")

    # X comes before Y when the angle from the left arm at the apex is smaller
    def cmp(i: int, j: int) -> int:
        return -s * turn(a, xy[i], xy[j])

    order = sorted(range(len(pts)), key=cmp_to_key(cmp))
    inner = [xy[i] for i in order]
    nodes = (left, *inner, right)  # chain node e is nodes[e + 1]
    beyond = [[0] * len(nodes) for _ in nodes]
    for j, l in combinations(range(len(nodes)), 2):
        beyond[j][l] = _chord_mask(nodes[j], nodes[l], a, inner, range(j, l - 1))
    return AngleFrame(apex, left_arm, right_arm, tuple(pts[i] for i in order),
                      tuple(map(tuple, beyond)))


def all_polylines(frame: AngleFrame):
    """Every polyline of the frame: all increasing subsets of interior indices."""
    n = len(frame.interior)
    return chain.from_iterable(combinations(range(n), m) for m in range(n + 1))


def _validate_polyline(frame: AngleFrame, polyline) -> tuple[int, ...]:
    verts = tuple(polyline)
    n = len(frame.interior)
    if any(not 0 <= v < n for v in verts) or list(verts) != sorted(set(verts)):
        raise ValueError(f"invalid polyline {verts} for a frame of {n} points")
    return verts


def polyline_charvec(frame: AngleFrame, polyline) -> tuple[int, ...]:
    """Characteristic vector of a polyline, one bit per interior point."""
    n = len(frame.interior)
    return _fold(frame.beyond, (-1, *_validate_polyline(frame, polyline), n), n, shift=1)


def polyline_from_charvec(frame: AngleFrame, bits) -> tuple[int, ...]:
    """The unique polyline whose characteristic vector equals ``bits``.

    A point's bit is determined by its two bracketing chain nodes alone, so
    the polyline is recovered by an exact search over consecutive vertex
    pairs: extend the chain node by node, requiring every skipped point to
    match its prescribed bit against the chord just drawn and every settled
    vertex to match its flipped bit against its two neighbors.  The search
    is memoized on (previous, current) node pairs; by the bijection there is
    exactly one chain to find.
    """
    bits = tuple(bits)
    n = len(frame.interior)
    if len(bits) != n or any(b not in (0, 1) for b in bits):
        raise ValueError(f"need a 0/1 vector of length {n}")
    beyond = frame.beyond
    target = sum(b << k for k, b in enumerate(bits))

    @cache
    def extend(prev: int, cur: int) -> tuple[int, ...] | None:
        # suffix of internal vertices after cur, or None if infeasible
        if cur == n:
            return ()
        for nxt in range(cur + 1, n + 1):
            # the points the chord cur--nxt skips are bits cur+1 .. nxt-1
            if beyond[cur + 1][nxt + 1] != target & ((1 << nxt) - (1 << (cur + 1))):
                continue
            if cur >= 0 and (beyond[prev + 1][nxt + 1] >> cur) & 1 == bits[cur]:
                continue  # vertex cur takes the flipped bit
            tail = extend(cur, nxt)
            if tail is not None:
                return ((nxt,) + tail) if nxt < n else tail
        return None

    chain_suffix = extend(-1, -1)
    if chain_suffix is None:
        raise AssertionError(f"no polyline realizes {bits}; the bijection is broken")
    return chain_suffix


def frame_bijection_holds(frame: AngleFrame) -> bool:
    """Exhaustively check that polylines and bit vectors are in bijection."""
    n = len(frame.interior)
    seen = set()
    for polyline in all_polylines(frame):
        vec = polyline_charvec(frame, polyline)
        if vec in seen:
            return False
        seen.add(vec)
        if polyline_from_charvec(frame, vec) != polyline:
            return False
    return len(seen) == 2 ** n


# ---------------------------------------------------------------------------
# Radial frames and good polygons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialFrame:
    """A center with its surrounding points sorted counter-clockwise.

    The center and the points are the (x, y) pairs the frame was built from,
    as given.  The order starts at ``reference``, the first direction from
    the fixed sequence (0,-1), (1,0), (1,-1), (1,-2), ... that is parallel to
    no center-to-point ray.  ``ccw[u]`` has bit v set when P_v is less than a
    half-turn ccw from P_u.  ``beyond[u][v]`` has bit k set, for P_k strictly
    inside the ccw interval from P_u to P_v, when the center lies strictly
    inside the cone at P_k spanned by the rays to P_u and P_v.
    """

    center: tuple
    points: tuple[tuple, ...]
    reference: tuple[int, int]
    ccw: tuple[int, ...] = field(compare=False, repr=False)
    beyond: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)


def _reference_direction(center: tuple[int, int], xy) -> tuple[int, int]:
    cx, cy = center

    def parallel(d, p):
        return d[0] * (p[1] - cy) - d[1] * (p[0] - cx) == 0

    k = 0
    while True:
        d = (0, -1) if k == 0 else (1, -(k - 1))
        if not any(parallel(d, p) for p in xy):
            return d
        k += 1


def build_radial_frame(center, pts) -> RadialFrame:
    """Validate the configuration, sort the points ccw and build the masks."""
    pts = list(pts)
    c, *xy = _frame_view([center, *pts])
    ref = _reference_direction(c, xy)
    cx, cy = c

    def half(i: int) -> int:
        # 0 when the ccw angle from the reference direction is below a half-turn
        return 0 if ref[0] * (xy[i][1] - cy) - ref[1] * (xy[i][0] - cx) > 0 else 1

    def cmp(i: int, j: int) -> int:
        hi, hj = half(i), half(j)
        if hi != hj:
            return hi - hj
        return -turn(c, xy[i], xy[j])

    order = sorted(range(len(pts)), key=cmp_to_key(cmp))
    ring = [xy[i] for i in order]
    n = len(ring)
    ccw = [sum(1 << v for v in range(n) if turn(c, p, ring[v]) == 1) for p in ring]
    beyond = [[0] * n for _ in ring]
    for u, v in permutations(range(n), 2):
        if (ccw[u] >> v) & 1:  # in the cone when beyond the chord, as in an angle frame
            between = ((u + j) % n for j in range(1, (v - u) % n))
            beyond[u][v] = _chord_mask(ring[u], ring[v], c, ring, between)
        else:  # in the cone when within a half-turn of both ends: inside triangle u, k, v
            beyond[u][v] = ccw[u] & ~ccw[v]
    return RadialFrame(center, tuple(pts[i] for i in order), ref, tuple(ccw),
                       tuple(map(tuple, beyond)))


def is_good_polygon(frame: RadialFrame, vertices) -> bool:
    """Good means every consecutive ccw angular gap at the center is < half-turn."""
    verts = tuple(vertices)
    n = len(frame.points)
    if len(verts) < 3 or list(verts) != sorted(set(verts)):
        return False
    if any(not 0 <= v < n for v in verts):
        return False
    return all((frame.ccw[u] >> v) & 1 for u, v in zip(verts, verts[1:] + verts[:1]))


def check_good_polygon_cap(n: int) -> None:
    """Refuse to enumerate the good polygons of a frame of ``n`` points above
    ``GOOD_POLYGON_CAP``; callers check before building the frame."""
    if n > GOOD_POLYGON_CAP:
        raise SizeCapError(f"good-polygon enumeration refused for {n} points (cap {GOOD_POLYGON_CAP})")


def enumerate_good_polygons(frame: RadialFrame) -> list[tuple[int, ...]]:
    n = len(frame.points)
    check_good_polygon_cap(n)
    out = []
    for m in range(3, n + 1):
        for verts in combinations(range(n), m):
            if is_good_polygon(frame, verts):
                out.append(verts)
    return out


def polygon_charvec(frame: RadialFrame, vertices) -> tuple[int, ...]:
    """Characteristic vector of a good polygon, one bit per frame point.

    The angle at a point between the rays to its bracketing polygon vertices
    that contains the center is smaller than a half-turn exactly when the
    center lies strictly inside the convex cone spanned by those rays; that
    is the non-vertex "passes above" test, flipped for polygon vertices.
    """
    verts = tuple(vertices)
    if not is_good_polygon(frame, verts):
        raise ValueError(f"{verts} is not a good polygon for this frame")
    return _fold(frame.beyond, (verts[-1], *verts, verts[0]), len(frame.points))


def charvec_image(frame: RadialFrame) -> set[tuple[int, ...]]:
    """Set of characteristic vectors realized by the frame's good polygons."""
    return {polygon_charvec(frame, poly) for poly in enumerate_good_polygons(frame)}


def find_charvec_collision(frame: RadialFrame, polygons):
    """Two distinct good polygons of ``polygons`` sharing a characteristic vector, or None.

    Given every good polygon of the frame (:func:`enumerate_good_polygons`),
    None certifies that the polygon-to-vector map is injective on this frame.
    """
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for poly in polygons:
        vec = polygon_charvec(frame, poly)
        if vec in seen:
            return (seen[vec], poly)
        seen[vec] = poly
    return None


def move_along_ray(frame: RadialFrame, i: int, t) -> RadialFrame:
    """Rebuild the frame with point i moved to center + t * (point - center), t > 0."""
    if not 0 <= i < len(frame.points):
        raise ValueError(f"point index {i} is not in [0, {len(frame.points)})")
    t = Fraction(t)
    if t <= 0:
        raise ValueError("the ray parameter must be positive")
    (cx, cy), (px, py) = frame.center, frame.points[i]
    moved = (cx + t * (px - cx), cy + t * (py - cy))
    pts = list(frame.points)
    pts[i] = moved
    new = build_radial_frame(frame.center, pts)
    # same rays, same reference, hence the same angular order
    assert new.points[i] == moved and new.reference == frame.reference
    return new


def ray_move_preserves_image(frame: RadialFrame, i: int, t) -> bool:
    """True iff moving point i along its ray leaves the set of realized vectors unchanged."""
    return charvec_image(frame) == charvec_image(move_along_ray(frame, i, t))


# ---------------------------------------------------------------------------
# Outward projection to convex position
# ---------------------------------------------------------------------------

def _ray_exit(pts, sides, origin, through):
    """Where the ray origin -> through leaves the hull of ``pts``, whose
    counter-clockwise edges are ``sides``, and the profile there.

    Returns (u, h): the ray leaves at origin + u*(through - origin), at
    fraction t along hull edge e, and ray parameter u + h lies t*(1 - t)/|e|
    beyond e, on a concave arc over the edge.
    """
    (ox, oy), (px, py) = origin, through
    dx, dy = px - ox, py - oy
    for qi, ri in sides:
        (qx, qy), (rx, ry) = pts[qi], pts[ri]
        ex, ey = rx - qx, ry - qy
        den = dx * ey - dy * ex
        if den == 0:
            continue
        wx, wy = qx - ox, qy - oy
        u = (wx * ey - wy * ex) / den
        t = (wx * dy - wy * dx) / den
        if 0 < t < 1 and u > 0:
            assert u > 1, "interior point found outside its own hull"
            return u, t * (1 - t) / den
    raise AssertionError("ray from an interior configuration never left the hull")


def project_to_convex_position(ps: PointSet, pivot: int) -> PointSet:
    """Push every non-pivot interior point outward along its pivot ray.

    The result keeps hull points and the pivot fixed, replaces each other
    interior point by one beyond the hull on the same ray, and is verified
    to be in general position with the hull and projected points in convex
    position.  The points sit at heights following a concave per-edge
    profile; each retry halves the scale, so verification is guaranteed to
    succeed eventually.  Point order is preserved, so indices keep their
    meaning.
    """
    if not 0 <= pivot < len(ps.xy):
        raise ValueError(f"pivot {pivot} out of range")
    movers = [i for i in ps.interior if i != pivot]
    if not movers:
        return ps
    pts = ps.points
    ox, oy = origin = pts[pivot]
    exits = {i: _ray_exit(pts, ps.hull_sides(), origin, pts[i]) for i in movers}
    hull_set = set(ps.hull)
    expected_hull = hull_set | set(movers)
    expected_interior = {pivot} - hull_set

    for rnd in range(PROJECTION_ROUNDS):
        scale = Fraction(1, 1 << rnd)
        new_pts = list(pts)
        for i, (u, height) in exits.items():
            s = u + scale * height
            px, py = pts[i]
            new_pts[i] = (ox + s * (px - ox), oy + s * (py - oy))
        try:
            out = PointSet.from_points(new_pts)
        except ValueError:
            continue
        if set(out.hull) == expected_hull and set(out.interior) == expected_interior:
            return out
    raise ConstructionError(
        f"no valid outward placement found for pivot {pivot} within {PROJECTION_ROUNDS} rounds")
