"""Exact planar primitives over rational coordinates.

Coordinates are `fractions.Fraction` values (always stored canonically, with
positive denominator), so every predicate in this module is decision-exact:
there are no epsilons, no tolerances and no floating point anywhere.  Point
sets are validated to be in general position (pairwise distinct, no three
collinear) when built through :meth:`PointSet.from_points`; every other
module relies on that.

The module also owns the "tricensus points v1" text format::

    # tricensus points v1
    0 0
    4 0
    1/2 9/20    # rational coordinates are written p/q with q > 0

``#`` starts a comment and the order of point lines defines point indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

Coord = Fraction

POINTS_HEADER = "# tricensus points v1"

# point_in_triangle classifications
INSIDE = "inside"
BOUNDARY = "boundary"
OUTSIDE = "outside"


def _coord(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"coordinate must be int, str or Fraction, got {type(value).__name__}")


@dataclass(frozen=True)
class Point:
    """Immutable planar point with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", _coord(self.x))
        object.__setattr__(self, "y", _coord(self.y))

    def __iter__(self):
        yield self.x
        yield self.y

    def __repr__(self):
        return f"Point({self.x}, {self.y})"


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the turn p -> q -> r: +1 counter-clockwise, -1 clockwise, 0 collinear."""
    px, py, qx, qy, rx, ry = p.x, p.y, q.x, q.y, r.x, r.y
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


def point_in_triangle(p: Point, a: Point, b: Point, c: Point) -> str:
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


def segments_properly_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
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


def convex_hull(points: list[Point] | tuple[Point, ...]) -> list[int]:
    """Counter-clockwise hull cycle as indices, starting at the lexicographically smallest point.

    Only strict hull vertices are reported; points interior to a hull edge
    are dropped.  Raises ValueError on fewer than 3 points, duplicate points
    or an entirely collinear input.
    """
    if len(points) < 3:
        raise ValueError("convex hull needs at least 3 points")
    order = sorted(range(len(points)), key=lambda i: (points[i].x, points[i].y))
    for s, t in zip(order, order[1:]):
        if points[s] == points[t]:
            raise ValueError(f"duplicate point at indices {s} and {t}")

    def chain(idx_iter):
        out: list[int] = []
        for i in idx_iter:
            while len(out) >= 2 and orient(points[out[-2]], points[out[-1]], points[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    lower = chain(order)
    upper = chain(reversed(order))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise ValueError("all points are collinear")
    return hull


def in_convex_position(points: list[Point] | tuple[Point, ...]) -> bool:
    """True iff every point is a vertex of the common convex hull."""
    try:
        return len(convex_hull(points)) == len(points)
    except ValueError:
        return False


def general_position_violation(points) -> tuple[int, ...] | None:
    """Return a witness index pair (duplicate) or triple (collinear), or None if none exists."""
    seen: dict[tuple[Fraction, Fraction], int] = {}
    for i, p in enumerate(points):
        key = (p.x, p.y)
        if key in seen:
            return (seen[key], i)
        seen[key] = i
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if orient(points[i], points[j], points[k]) == 0:
                    return (i, j, k)
    return None


def is_general_position(points) -> bool:
    """True iff all points are distinct and no three are collinear."""
    return general_position_violation(points) is None


@dataclass(frozen=True)
class PointSet:
    """A labeled point set in general position with its hull/interior split.

    ``hull`` traces the convex hull counter-clockwise; ``interior`` holds the
    remaining indices in increasing order.  Build through :meth:`from_points`
    to get the general-position validation; the raw constructor trusts its
    caller.
    """

    points: tuple[Point, ...]
    hull: tuple[int, ...]
    interior: tuple[int, ...]
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @classmethod
    def from_points(cls, points) -> "PointSet":
        pts = tuple(points)
        if len(pts) < 3:
            raise ValueError("a point set needs at least 3 points")
        witness = general_position_violation(pts)
        if witness is not None:
            kind = "duplicate points" if len(witness) == 2 else "collinear points"
            raise ValueError(f"not in general position: {kind} at indices {witness}")
        hull = tuple(convex_hull(pts))
        interior = tuple(i for i in range(len(pts)) if i not in set(hull))
        return cls(pts, hull, interior)

    @classmethod
    def from_coords(cls, coords) -> "PointSet":
        return cls.from_points([Point(x, y) for x, y in coords])

    def __len__(self) -> int:
        return len(self.points)

    def hull_sides(self) -> tuple[tuple[int, int], ...]:
        """Hull edges as counter-clockwise index pairs."""
        h = self.hull
        return tuple((h[j], h[(j + 1) % len(h)]) for j in range(len(h)))

    def orient_table(self) -> list:
        """n x n x n table of orientation signs, built on first use."""
        tab = self._cache.get("orient")
        if tab is None:
            pts = self.points
            n = len(pts)
            tab = [[[0] * n for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    for k in range(j + 1, n):
                        s = orient(pts[i], pts[j], pts[k])
                        tab[i][j][k] = s
                        tab[j][k][i] = s
                        tab[k][i][j] = s
                        tab[i][k][j] = -s
                        tab[k][j][i] = -s
                        tab[j][i][k] = -s
            self._cache["orient"] = tab
        return tab

    def orient_idx(self, i: int, j: int, k: int) -> int:
        return self.orient_table()[i][j][k]


# ---------------------------------------------------------------------------
# "tricensus points v1" text format
# ---------------------------------------------------------------------------

def _parse_coord(token: str) -> Fraction:
    if "." in token:
        raise ValueError(f"decimal fractions are not allowed, use p/q: {token!r}")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad coordinate {token!r}") from exc


def parse_points_text(text: str) -> list[Point]:
    """Parse the v1 point format; the header line is mandatory."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != POINTS_HEADER:
        raise ValueError(f"missing header line {POINTS_HEADER!r}")
    points: list[Point] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'x y', got {raw!r}")
        points.append(Point(_parse_coord(fields[0]), _parse_coord(fields[1])))
    return points


def format_points(points) -> str:
    def fmt(c: Fraction) -> str:
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"

    lines = [POINTS_HEADER]
    lines.extend(f"{fmt(p.x)} {fmt(p.y)}" for p in points)
    return "\n".join(lines) + "\n"


def load_point_set(path) -> PointSet:
    return PointSet.from_points(parse_points_text(Path(path).read_text()))


def save_point_set(path, ps: PointSet | list[Point]) -> None:
    points = ps.points if isinstance(ps, PointSet) else ps
    Path(path).write_text(format_points(points))
