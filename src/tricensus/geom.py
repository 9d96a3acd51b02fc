"""Exact planar primitives over rational coordinates.

Coordinates are `fractions.Fraction` values (always stored canonically, with
positive denominator), and there are no epsilons, no tolerances and no
floating point anywhere.  Every sign is decided on one exact integer view of
the points, :func:`integer_view`: every coordinate times the lcm of all
denominators.  A positive scale keeps every orientation sign, equality and
the (x, y) order, so a cross product of integer pairs decides what the same
product of the rationals decides; integer inputs stay as they are.  Each
:class:`PointSet` carries its view as ``xy`` (O(n) memory), and
:func:`convex_hull`, :meth:`PointSet.orient_table`, closeness and counting
read it.  :func:`turn` is the three-point sign on integer pairs.

Point sets are validated to be in general position (pairwise distinct, no
three collinear) when built through :meth:`PointSet.from_points`; every
other module relies on that.  One routine, :func:`added_xy_violation`,
checks a new point against points already in general position; every check
goes through it.  It hashes the reduced integer direction from the new point
to each other point, so a whole set takes O(n^2).

The module also owns the "tricensus points v1" text format::

    # tricensus points v1
    0 0
    4 0
    1/2 9/20    # rational coordinates are written p/q with q > 0

``#`` starts a comment and the order of point lines defines point indices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

POINTS_HEADER = "# tricensus points v1"

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


def integer_view(points) -> tuple[tuple[int, int], ...]:
    """The points as integer pairs: every coordinate times the lcm of all denominators.

    The scale is positive, so orientation signs, equality and the (x, y)
    order of the points are those of the rationals.
    """
    scale = lcm(*{c.denominator for p in points for c in (p.x, p.y)})
    if scale == 1:
        return tuple((p.x.numerator, p.y.numerator) for p in points)
    return tuple((p.x.numerator * (scale // p.x.denominator),
                  p.y.numerator * (scale // p.y.denominator)) for p in points)


def turn(a: tuple[int, int], b: tuple[int, int], c: tuple[int, int]) -> int:
    """Sign of the turn a -> b -> c of integer pairs: +1 counter-clockwise,
    -1 clockwise, 0 collinear."""
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def convex_hull(points: list[Point] | tuple[Point, ...]) -> list[int]:
    """Counter-clockwise hull cycle as indices, starting at the lexicographically smallest point.

    Only strict hull vertices are reported; points interior to a hull edge
    are dropped.  Raises ValueError on fewer than 3 points, duplicate points
    or an entirely collinear input.
    """
    if len(points) < 3:
        raise ValueError("convex hull needs at least 3 points")
    xy = integer_view(points)
    order = sorted(range(len(xy)), key=xy.__getitem__)
    for s, t in zip(order, order[1:]):
        if xy[s] == xy[t]:
            raise ValueError(f"duplicate point at indices {s} and {t}")

    def chain(idx_iter):
        out: list[int] = []
        for i in idx_iter:
            x, y = xy[i]
            while len(out) >= 2:
                (ax, ay), (bx, by) = xy[out[-2]], xy[out[-1]]
                if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0:
                    break
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


def added_xy_violation(xy, new: tuple[int, int]) -> tuple[int, ...] | None:
    """For integer pairs ``xy`` in general position: ``(i,)`` if ``xy[i] == new``,
    ``(i, j)`` with i < j if both are collinear with ``new``, else None.  O(n).

    An equal point wins over a collinear pair, and of several collinear pairs
    the lexicographically smallest is returned.  Each ``xy[i]`` is keyed by
    the direction ``new -> xy[i]`` reduced by its gcd, with a fixed sign, so
    two points are collinear with ``new`` iff their keys match.
    """
    nx, ny = new
    first: dict[tuple[int, int], int] = {}
    pair = None
    for i, (x, y) in enumerate(xy):
        dx, dy = x - nx, y - ny
        g = gcd(dx, dy)
        if g == 0:
            return (i,)
        if dx < 0 or (dx == 0 and dy < 0):
            g = -g
        j = first.setdefault((dx // g, dy // g), i)
        if j != i and (pair is None or j < pair[0]):
            pair = (j, i)
    return pair


def added_point_violation(points, new: Point) -> tuple[int, ...] | None:
    """:func:`added_xy_violation` for ``Point`` values, decided on the
    :func:`integer_view` of ``points`` and ``new`` together."""
    *xy, new_xy = integer_view((*points, new))
    return added_xy_violation(xy, new_xy)


def general_position_violation(points) -> tuple[int, ...] | None:
    """Ascending duplicate pair or collinear triple ending at the first index
    that breaks general position, or None."""
    xy = integer_view(points)
    for k in range(1, len(xy)):
        witness = added_xy_violation(xy[:k], xy[k])
        if witness is not None:
            return (*witness, k)
    return None


def is_general_position(points) -> bool:
    """True iff all points are distinct and no three are collinear."""
    return general_position_violation(points) is None


@dataclass(frozen=True)
class PointSet:
    """A labeled point set in general position with its hull/interior split.

    ``hull`` traces the convex hull counter-clockwise; ``interior`` holds the
    remaining indices in increasing order; ``xy`` is the points'
    :func:`integer_view`, built with the set.  Build through
    :meth:`from_points` to get the general-position validation; the raw
    constructor trusts its caller.
    """

    points: tuple[Point, ...]
    hull: tuple[int, ...]
    interior: tuple[int, ...]
    xy: tuple[tuple[int, int], ...] = field(init=False, compare=False, repr=False)
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "xy", integer_view(self.points))

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
        interior = tuple(sorted(set(range(len(pts))) - set(hull)))
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
            xy = self.xy
            n = len(xy)
            tab = [[[0] * n for _ in range(n)] for _ in range(n)]
            for i in range(n):
                xi, yi = xy[i]
                for j in range(i + 1, n):
                    dx, dy = xy[j][0] - xi, xy[j][1] - yi
                    for k in range(j + 1, n):
                        a = dx * (xy[k][1] - yi) - dy * (xy[k][0] - xi)
                        s = (a > 0) - (a < 0)
                        tab[i][j][k] = s
                        tab[j][k][i] = s
                        tab[k][i][j] = s
                        tab[i][k][j] = -s
                        tab[k][j][i] = -s
                        tab[j][i][k] = -s
            self._cache["orient"] = tab
        return tab


# ---------------------------------------------------------------------------
# "tricensus points v1" text format
# ---------------------------------------------------------------------------

# a coordinate is an integer or p/q with q > 0, in ASCII digits
_COORD = re.compile(r"([-+]?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def _parse_coord(token: str) -> Fraction:
    match = _COORD.fullmatch(token)
    if not match:
        raise ValueError(f"bad coordinate {token!r}: expected an integer or p/q with q > 0")
    p, q = match.groups()
    return Fraction(int(p), int(q or 1))


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


def save_point_set(path, ps: PointSet) -> None:
    Path(path).write_text(format_points(ps.points))
