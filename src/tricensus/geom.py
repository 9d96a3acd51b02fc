"""Exact planar primitives on the integer view of rational points.

A point is an (x, y) pair whose coordinates are ints, or
`fractions.Fraction` values only where a file holds a ``p/q`` token or a
caller passes one; there are no epsilons, no tolerances and no floating
point anywhere.  A point set is stored once, as its integer view,
:func:`integer_view`: every coordinate times ``scale``, the lcm of all
reduced denominators.  A positive scale keeps every orientation sign,
equality and the (x, y) order, so a cross product of integer pairs decides
what the same product of the rationals decides; integer inputs stay as
they are, with scale 1.  The predicates take that view: :func:`turn`,
:func:`convex_hull`, :func:`added_xy_violation` and
:func:`general_position_violation` read integer pairs, and each collection
builds its view once, where its points enter.  A :class:`PointSet` stores
its view as ``xy`` with its ``scale`` (O(n) memory), and
:meth:`PointSet.orient_table`, closeness and counting read it; its
rational points, pairs of Fractions, are rebuilt from them only where
``points`` is read.

Point sets are validated to be in general position (pairwise distinct, no
three collinear) when built through :meth:`PointSet.from_points`; every
other module relies on that.  One rule checks a new point against points
already in general position, and :func:`added_xy_violation` and
:func:`general_position_violation` both use it.  It keys each other point
by its exact integer slope from the new point, the floor of dy * D^2 / dx
for the x-extent D of the points, with one key for vertical neighbours; two
points share a key exactly when they are collinear with the new point, so a
whole set takes O(n^2).

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
from math import lcm
from pathlib import Path

POINTS_HEADER = "# tricensus points v1"

def _checked(value):
    """``value``, if it is a coordinate: an int or a Fraction."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"coordinate must be int or Fraction, got {type(value).__name__}")


def _view(points) -> tuple[tuple[tuple[int, int], ...], int]:
    """:func:`integer_view` of ``points`` and its scale."""
    pairs = [(x, y) for x, y in points]
    scale = lcm(*{_checked(c).denominator for pair in pairs for c in pair})
    if scale == 1:
        return tuple((x.numerator, y.numerator) for x, y in pairs), 1
    return tuple((x.numerator * (scale // x.denominator),
                  y.numerator * (scale // y.denominator)) for x, y in pairs), scale


def integer_view(points) -> tuple[tuple[int, int], ...]:
    """(x, y) pairs of ints or Fractions as integer pairs:
    every coordinate times the lcm of all reduced denominators.

    The scale is positive, so orientation signs, equality and the (x, y)
    order of the points are those of the rationals.
    """
    return _view(points)[0]


def turn(a: tuple[int, int], b: tuple[int, int], c: tuple[int, int]) -> int:
    """Sign of the turn a -> b -> c of integer pairs: +1 counter-clockwise,
    -1 clockwise, 0 collinear."""
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def convex_hull(xy) -> list[int]:
    """Counter-clockwise hull cycle of integer pairs as indices, starting at the
    lexicographically smallest pair.

    Only strict hull vertices are reported; points interior to a hull edge
    are dropped.  Raises ValueError on fewer than 3 points, duplicate points
    or an entirely collinear input.
    """
    if len(xy) < 3:
        raise ValueError("convex hull needs at least 3 points")
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


def _slope_scale(xy) -> int:
    """D^2 for the x-extent D of ``xy``, or 1 when D is 0."""
    xs = [x for x, _ in xy]
    return (max(xs) - min(xs)) ** 2 or 1


def _slope_violation(xy, new: tuple[int, int], m: int) -> tuple[int, ...] | None:
    """:func:`added_xy_violation` with the slope scale ``m`` of a set that
    holds ``xy`` and ``new``."""
    nx, ny = new
    first: dict[int | None, int] = {}
    pair = None
    for i, (x, y) in enumerate(xy):
        dx = x - nx
        if dx:
            key = (y - ny) * m // dx
        elif y == ny:
            return (i,)
        else:
            key = None  # vertical
        j = first.setdefault(key, i)
        if j != i and (pair is None or j < pair[0]):
            pair = (j, i)
    return pair


def added_xy_violation(xy, new: tuple[int, int]) -> tuple[int, ...] | None:
    """For integer pairs ``xy`` in general position: ``(i,)`` if ``xy[i] == new``,
    ``(i, j)`` with i < j if both are collinear with ``new``, else None.  O(n).

    An equal point wins over a collinear pair, and of several collinear pairs
    the lexicographically smallest is returned.  Each ``xy[i]`` is keyed by
    the floor of its slope from ``new`` times m = D^2, where D is the x-extent
    of ``xy`` and ``new`` (m = 1 when D is 0); vertical neighbours share one
    key.  Equal slopes give equal keys, and two different slopes dy/dx with
    |dx| <= D differ by at least 1/D^2, so their scaled floors differ: two
    points are collinear with ``new`` iff their keys match.
    """
    return _slope_violation(xy, new, _slope_scale((*xy, new)))


def general_position_violation(xy) -> tuple[int, ...] | None:
    """Ascending duplicate pair or collinear triple of integer pairs ending at
    the first index that breaks general position, or None.  O(n^2), with one
    slope scale for the whole set."""
    if len(xy) < 2:
        return None
    m = _slope_scale(xy)
    # Collinear points always share a key, so in a set without equal points a
    # prefix whose keys are all distinct breaks nothing; only the others need
    # the witness scan.
    distinct = len(set(xy)) == len(xy)
    for k in range(1, len(xy)):
        nx, ny = xy[k]
        if distinct and len({(y - ny) * m // (x - nx) if x != nx else None for x, y in xy[:k]}) == k:
            continue
        witness = _slope_violation(xy[:k], xy[k], m)
        if witness is not None:
            return (*witness, k)
    return None


@dataclass(frozen=True)
class PointSet:
    """A labeled point set in general position with its hull/interior split.

    ``xy`` is the points' :func:`integer_view` and ``scale`` the lcm of
    their reduced denominators; ``hull`` traces the convex hull
    counter-clockwise and ``interior`` holds the remaining indices in
    increasing order.  Build through :meth:`from_points`, which builds the
    view once, validates general position and takes the hull on it; the raw
    constructor takes ``xy`` as given and trusts its caller.  ``points``
    rebuilds the rational points on each read.  ``_cache`` holds only the
    oracles' orientation table, built by :meth:`orient_table`; counts and
    listings build their own tables and keep none here.
    """

    xy: tuple[tuple[int, int], ...]
    hull: tuple[int, ...]
    interior: tuple[int, ...]
    scale: int = 1
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @classmethod
    def from_points(cls, points) -> "PointSet":
        """The point set of (x, y) pairs of ints or Fractions."""
        xy, scale = _view(points)
        if len(xy) < 3:
            raise ValueError("a point set needs at least 3 points")
        witness = general_position_violation(xy)
        if witness is not None:
            kind = "duplicate points" if len(witness) == 2 else "collinear points"
            raise ValueError(f"not in general position: {kind} at indices {witness}")
        hull = tuple(convex_hull(xy))
        interior = tuple(sorted(set(range(len(xy))) - set(hull)))
        return cls(xy, hull, interior, scale)

    @property
    def points(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The rational points as (x, y) pairs of Fractions, ``xy`` over ``scale``."""
        return tuple((Fraction(x, self.scale), Fraction(y, self.scale)) for x, y in self.xy)

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


def _parse_coord(token: str) -> int | Fraction:
    match = _COORD.fullmatch(token)
    if not match:
        raise ValueError(f"bad coordinate {token!r}: expected an integer or p/q with q > 0")
    p, q = match.groups()
    return int(p) if q is None else Fraction(int(p), int(q))


def parse_points_text(text: str) -> list[tuple[int | Fraction, int | Fraction]]:
    """The (x, y) coordinate pairs of the v1 point format; the header line is mandatory."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != POINTS_HEADER:
        raise ValueError(f"missing header line {POINTS_HEADER!r}")
    pairs = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'x y', got {raw!r}")
        pairs.append((_parse_coord(fields[0]), _parse_coord(fields[1])))
    return pairs


def format_points(points) -> str:
    """The v1 text of (x, y) pairs of ints or Fractions."""
    return "\n".join([POINTS_HEADER, *(f"{x!s} {y!s}" for x, y in points)]) + "\n"


def load_point_set(path) -> PointSet:
    return PointSet.from_points(parse_points_text(Path(path).read_text()))


def save_point_set(path, ps: PointSet) -> None:
    """Write ``ps`` in the v1 format; a set of scale 1 is written from ``xy``."""
    Path(path).write_text(format_points(ps.xy if ps.scale == 1 else ps.points))
