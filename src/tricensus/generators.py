"""Deterministic point-set generators: convex rings, double circles, quasi-convex
interpolants and seeded random sets.

Randomness comes from a self-contained splitmix-style 64-bit generator so
that corpora are bit-identical across runs and platforms.  Floating point
only sketches candidate coordinates.  Each candidate is a list of integer
pairs, checked with the exact predicates (convexity, general position,
closeness certificates); a construction redraws, shrinks or rescales until
one passes, and only that one becomes a point set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .closeness import blocking_apex
from .errors import ConstructionError
from .geom import PointSet, added_xy_violation, general_position_violation, turn
from .charvec import AngleFrame, RadialFrame, build_angle_frame, build_radial_frame

_MASK64 = (1 << 64) - 1
_FAMILY_SEED = 11  # internal seed for the deterministic (seedless) families
_FRAME_SCALE = 64  # half-width of the box the frame generators draw from


class SplitMix64:
    """splitmix64: state += golden gamma; output is the mixed state."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish value in [0, n); modulo reduction, documented and deterministic."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n


FAMILIES = ("convex", "double_circle", "quasi_convex", "random")


@dataclass(frozen=True)
class GenSpec:
    """Declarative description of one generated instance."""

    family: str  # one of FAMILIES
    n: int
    scale: int = 64
    seed: int = 0
    sides: tuple[int, ...] | None = None  # quasi_convex only

    def instance_id(self) -> str:
        tail = f"-sides{','.join(map(str, self.sides))}" if self.sides else ""
        return f"{self.family}-n{self.n}-scale{self.scale}-seed{self.seed}{tail}"


def generate(spec: GenSpec) -> PointSet:
    """The point set ``spec`` describes, with exactly ``spec.n`` points.  A bad
    spec is refused with an error that names the faulty option; ``--n`` comes
    before ``--sides``, whose index range depends on it."""
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}")
    sides = spec.sides or ()
    minimum = {"double_circle": 6, "quasi_convex": 3 + len(sides)}.get(spec.family, 3)
    if spec.n < minimum:
        family = f"quasi_convex with sides {','.join(map(str, sides))}" if sides else spec.family
        raise ValueError(f"--n: {family} needs at least {minimum} points, got {spec.n}")
    if spec.sides is not None and spec.family != "quasi_convex":
        raise ValueError("--sides needs --family quasi_convex")
    hull = spec.n - len(sides)
    for k, j in enumerate(sides):
        if not 0 <= j < hull:
            raise ValueError(f"--sides: side index {j} is not in [0, {hull})")
        if j in sides[:k]:
            raise ValueError(f"--sides: side index {j} is repeated")
    if spec.scale < 8:
        raise ValueError(f"--scale: expected at least 8, got {spec.scale}")
    if spec.family == "convex":
        return gen_convex(spec.n, spec.scale, spec.seed)
    if spec.family == "double_circle":
        if spec.n % 2:
            raise ValueError(f"--n: double_circle needs an even point count, got {spec.n}")
        return gen_double_circle(spec.n // 2, spec.scale)
    if spec.family == "quasi_convex":
        return gen_quasi_convex(hull, sides, spec.scale)
    return gen_random(spec.n, 4 * spec.scale, spec.seed)


def _check_sizes(n: int, scale: int) -> None:
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    if scale < 8:
        raise ValueError("scale must be at least 8")


def _is_strictly_convex_ring(xy) -> bool:
    n = len(xy)
    return all(turn(xy[m - 1], xy[m], xy[(m + 1) % n]) == 1 for m in range(n))


def _convex_ring(n: int, scale: int, seed: int) -> list[tuple[int, int]]:
    _check_sizes(n, scale)
    rng = SplitMix64(seed)
    radius = max(scale, n)
    for attempt in range(96):
        xy = []
        for k in range(n):
            jitter = rng.below(1 << 20) / (1 << 20)
            theta = 2.0 * math.pi * (k + 0.1 + 0.8 * jitter) / n
            xy.append((round(radius * math.cos(theta)), round(radius * math.sin(theta))))
        if _is_strictly_convex_ring(xy) and general_position_violation(xy) is None:
            return xy
        if attempt % 8 == 7:
            radius *= 2
    raise ConstructionError(f"no strictly convex {n}-gon found at scale {scale}")


def gen_convex(n: int, scale: int = 64, seed: int = 0) -> PointSet:
    """n integer points in strictly convex counter-clockwise position."""
    return PointSet.from_points(_convex_ring(n, scale, seed))


def _ring_with_close_points(m: int, sides, scale: int) -> PointSet:
    """Seedless convex m-gon plus one certified-close point on each of the
    ascending ``sides``.

    Points start near the side midpoints, offset inward; the offset shrinks,
    and then the ring's scale doubles, until every closeness certificate
    holds.  Each candidate is certified on its integer view, so the points
    are integers, and only the accepted one becomes a point set.  The
    certificates also fix the hull: each added point p lies left of its side
    q -> r, and every other point lies left of q -> p and of p -> r, so p is
    strictly inside the triangle (q, r, a) for every other ring vertex a,
    hence inside the strictly convex ring, and the ring is the hull.
    """
    for doubling in range(8):
        ring = _convex_ring(m, scale << doubling, _FAMILY_SEED)
        for shrink in range(48):
            # Numerators over 2 * half of the side midpoints moved by (r - q) / half along
            # the left normal; over their gcd g with 2 * half they are the integer view.
            half = 16 << shrink
            num = []
            for j in sides:
                (qx, qy), (rx, ry) = ring[j], ring[(j + 1) % m]
                num.append(((qx + rx) * half - 2 * (ry - qy), (qy + ry) * half + 2 * (rx - qx)))
            g = math.gcd(2 * half, *(c for pair in num for c in pair))
            k = 2 * half // g
            xy = [(x * k, y * k) for x, y in ring] + [(x // g, y // g) for x, y in num]
            if any(blocking_apex(xy, m + pos, j, (j + 1) % m) is not None
                   for pos, j in enumerate(sides)):
                continue
            try:
                return PointSet.from_points(xy)
            except ValueError:  # not in general position
                continue
    raise ConstructionError(
        f"no close points on sides {tuple(sides)} of a {m}-gon at scale {scale}")


def gen_double_circle(m: int, scale: int = 64) -> PointSet:
    """Convex m-gon plus one certified-close interior point per side (n = 2m)."""
    return _ring_with_close_points(m, range(m), scale)


def gen_quasi_convex(n_hull: int, sides, scale: int = 64) -> PointSet:
    """Convex hull plus certified-close points on the selected ring sides."""
    _check_sizes(n_hull, scale)
    sides = sorted(sides)
    for k, j in enumerate(sides):
        if not 0 <= j < n_hull:
            raise ValueError(f"side index {j} is not in [0, {n_hull})")
        if k and j == sides[k - 1]:
            raise ValueError(f"side index {j} is repeated")
    return _ring_with_close_points(n_hull, sides, scale)


def gen_random(n: int, bbox: int = 256, seed: int = 0) -> PointSet:
    """n integer points uniform in a box, resampled until general position holds."""
    if n < 3:
        raise ValueError("need at least 3 points")
    if bbox < 8:
        raise ValueError("bounding box must be at least 8")
    rng = SplitMix64(seed)
    xy: list[tuple[int, int]] = []
    misses = 0
    while len(xy) < n:
        cand = (rng.below(bbox + 1), rng.below(bbox + 1))
        if added_xy_violation(xy, cand) is None:
            xy.append(cand)
            continue
        misses += 1
        if misses > 200:
            bbox *= 2
            misses = 0
    return PointSet.from_points(xy)


def gen_angle_frame(n: int, seed: int = 0) -> AngleFrame:
    """Seeded frame: fixed arms, n random integer points strictly inside the angle."""
    rng = SplitMix64(seed)
    apex, left, right = (0, _FRAME_SCALE), (-_FRAME_SCALE, 0), (_FRAME_SCALE, 0)
    s = turn(apex, left, right)
    xy = [apex, left, right]
    while len(xy) < n + 3:
        cand = (rng.below(2 * _FRAME_SCALE - 1) - (_FRAME_SCALE - 1),
                rng.below(2 * _FRAME_SCALE) - _FRAME_SCALE + 1)
        if turn(apex, left, cand) != s or turn(apex, right, cand) != -s:
            continue
        if added_xy_violation(xy, cand) is None:
            xy.append(cand)
    return build_angle_frame(apex, left, right, xy[3:])


def gen_radial_frame(n: int, seed: int = 0) -> RadialFrame:
    """Seeded frame: center at the origin, n random integer points around it."""
    rng = SplitMix64(seed)
    xy = [(0, 0)]  # the center
    while len(xy) < n + 1:
        cand = (rng.below(2 * _FRAME_SCALE + 1) - _FRAME_SCALE,
                rng.below(2 * _FRAME_SCALE + 1) - _FRAME_SCALE)
        if added_xy_violation(xy, cand) is None:
            xy.append(cand)
    return build_radial_frame(xy[0], xy[1:])
