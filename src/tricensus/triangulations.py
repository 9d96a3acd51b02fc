"""Exact counting and enumeration of full and partial triangulations.

A *full* triangulation of a point set uses every point as a vertex; a
*partial* triangulation may skip interior points but must use every hull
vertex.  Both are counted by one anchored-edge recursion over regions (Ray
and Seidel, "A simple and less slow method for counting triangulations",
EuroCG 2004).  A region is a simple polygon, a counter-clockwise index cycle,
plus the points strictly inside it.  The anchor edge is the lexicographically
smallest boundary edge by index pair; every triangulation of the region has
exactly one triangle on that edge, so summing over the valid apexes counts
each triangulation once.  An apex at a boundary vertex splits the region in
two; an apex at an inside point merges that point into the boundary.

The recursion has two modes:

- *required*: every inside point must be used, so the anchor triangle must
  contain no point of the region.  ``count_full``, ``count_on_subset`` and
  the enumerators use it, with the chosen subset's interior points inside.
- *optional*: inside points may be skipped, so the anchor triangle must
  contain no boundary vertex, and the inside points it does contain are left
  unused.  ``count_partial`` is one optional-mode recursion with every
  interior point inside the hull.

In both modes the points inside a region follow from its boundary cycle, so
one memo per call, keyed by the rotated cycle alone, serves the whole count.

The recursion reads integers only.  Built lazily, once per point set, from
the orientation table: bitmasks of the points left of each directed pair, so
that a triangle's interior is three ANDs; per-segment masks of the edges that
properly cross it, ANDed with a region's edge mask; and, from integer (y, x)
ranks, the points whose rightward ray crosses each segment, so that the
points inside a sub-polygon are a crossing-parity XOR over its edges.
Ranking by (y, x) instead of y is a consistent symbolic tie-break (an
infinitesimal shear, which changes no orientation), so points sharing a y
coordinate need no special case.

``brute_force_count`` is a deliberately independent oracle: it counts
maximal pairwise-non-crossing edge sets by lexicographic backtracking over
the edge list, asserting that every maximal set has exactly 3i + 2h - 3
edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import SizeCapError
from .geom import PointSet

ENUMERATION_CAP = 14
BRUTE_FORCE_CAP = 10


@dataclass(frozen=True)
class Triangulation:
    """A triangulation as index triples over a vertex subset of a PointSet."""

    vertex_subset: frozenset[int]
    triangles: tuple[tuple[int, int, int], ...]

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        out = set()
        for a, b, c in self.triangles:
            out.add((a, b))
            out.add((a, c))
            out.add((b, c))
        return frozenset(out)


def _segments_cross(tab, a: int, b: int, c: int, d: int) -> bool:
    if a == c or a == d or b == c or b == d:
        return False
    return tab[a][b][c] * tab[a][b][d] < 0 and tab[c][d][a] * tab[c][d][b] < 0


def _mask(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def _bits(mask: int):
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _RegionTables:
    """The integer tables the region recursion reads, built once per point set."""

    def __init__(self, ps: PointSet):
        tab = ps.orient_table()
        pts = ps.points
        n = len(pts)
        # left[p][q]: the points strictly left of the directed line p -> q
        left = [[_mask(w for w in range(n) if tab[p][q][w] > 0) for q in range(n)]
                for p in range(n)]
        # edge_bit[u][v]: the bit of the undirected edge uv in a region's edge mask
        edge_bit = [[1 << (min(u, v) * n + max(u, v)) for v in range(n)] for u in range(n)]
        # ray[u][v]: the points whose rightward ray crosses segment uv; a point
        # is level with a segment when its (y, x) rank lies strictly between
        # the ranks of the endpoints
        order = sorted(range(n), key=lambda i: (pts[i].y, pts[i].x))
        below = [0]  # below[r]: the points of rank < r
        for i in order:
            below.append(below[-1] | 1 << i)
        rank = [0] * n
        for r, i in enumerate(order):
            rank[i] = r
        ray = [[0] * n for _ in range(n)]
        for u in range(n):
            for v in range(n):
                if rank[u] < rank[v]:
                    ray[u][v] = ray[v][u] = (below[rank[v]] ^ below[rank[u] + 1]) & left[u][v]
        self.left = left
        self.edge_bit = edge_bit
        self.ray = ray
        self._cross = [[None] * n for _ in range(n)]

    def crossing(self, p: int, q: int) -> int:
        """Edge mask of every segment that properly crosses segment pq."""
        mask = self._cross[p][q]
        if mask is None:
            left, edge_bit = self.left, self.edge_bit
            mask = 0
            for c in _bits(left[p][q]):
                for d in _bits(left[q][p]):
                    if (left[c][d] >> p ^ left[c][d] >> q) & 1:
                        mask |= edge_bit[c][d]
            self._cross[p][q] = self._cross[q][p] = mask
        return mask


def _tables(ps: PointSet) -> _RegionTables:
    tables = ps._cache.get("regions")
    if tables is None:
        tables = ps._cache["regions"] = _RegionTables(ps)
    return tables


def _anchor_rotation(boundary: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate a ccw cycle so the lexicographically smallest edge pair comes first.

    That edge joins the smallest index to the smaller of its two neighbours.
    """
    i = boundary.index(min(boundary))
    if boundary[i - 1] < boundary[(i + 1) % len(boundary)]:
        i -= 1
    return boundary[i:] + boundary[:i]


def _region_splits(t: _RegionTables, cyc: tuple[int, ...], inside: int, required: bool):
    """Yield (apex, sub1, sub2) for every valid anchor triangle of the region.

    The anchor edge is (cyc[0], cyc[1]) and ``inside`` is the mask of the
    points strictly inside the cycle.  In required mode the anchor triangle
    may contain none of them; in optional mode it may, and they are left
    unused.  Apexes come in the order cyc[2:], then inside points by
    ascending index.  Each sub-region is a (boundary, inside) pair, or None
    when the split degenerates to a bare edge.
    """
    left, ray, edge_bit = t.left, t.ray, t.edge_bit
    a, b = cyc[0], cyc[1]
    k = len(cyc)
    verts = edges = 0
    for u, w in zip(cyc, cyc[1:] + cyc[:1]):
        verts |= 1 << u
        edges |= edge_bit[u][w]
    blockers = verts | inside if required else verts
    left_ab, left_b = left[a][b], left[b]
    apexes = list(cyc[2:])
    apexes.extend(_bits(inside & left_ab))
    for v in apexes:
        if not left_ab >> v & 1:
            continue
        tri = left_ab & left_b[v] & left[v][a]
        if tri & blockers or (t.crossing(a, v) | t.crossing(b, v)) & edges:
            continue
        rest = inside & ~tri
        if inside >> v & 1:
            yield v, (cyc[1:] + (a, v), rest ^ 1 << v), None
            continue
        j = cyc.index(v)
        b1 = cyc[1:j + 1]
        b2 = cyc[j:] + (a,)
        rest1 = 0
        if rest and j > 2:
            side = ray[v][b]
            for u, w in zip(b1, b1[1:]):
                side ^= ray[u][w]
            rest1 = rest & side
        yield (v,
               (b1, rest1) if j > 2 else None,
               (b2, rest ^ rest1) if j < k - 1 else None)


def _count_region(t: _RegionTables, boundary: tuple[int, ...], inside: int,
                  required: bool, memo) -> int:
    if len(boundary) == 3 and not inside:
        return 1
    cyc = _anchor_rotation(boundary)
    cached = memo.get(cyc)
    if cached is not None:
        return cached
    total = 0
    for _, sub1, sub2 in _region_splits(t, cyc, inside, required):
        c = 1
        if sub1 is not None:
            c = _count_region(t, sub1[0], sub1[1], required, memo)
        if sub2 is not None and c:
            c *= _count_region(t, sub2[0], sub2[1], required, memo)
        total += c
    memo[cyc] = total
    return total


def _enumerate_region(t: _RegionTables, boundary: tuple[int, ...], inside: int, memo) -> tuple:
    if len(boundary) == 3 and not inside:
        return ((tuple(sorted(boundary)),),)
    cyc = _anchor_rotation(boundary)
    cached = memo.get(cyc)
    if cached is not None:
        return cached
    out = []
    for v, sub1, sub2 in _region_splits(t, cyc, inside, True):
        tri = tuple(sorted((cyc[0], cyc[1], v)))
        parts1 = _enumerate_region(t, sub1[0], sub1[1], memo) if sub1 is not None else ((),)
        parts2 = _enumerate_region(t, sub2[0], sub2[1], memo) if sub2 is not None else ((),)
        for p1 in parts1:
            for p2 in parts2:
                out.append((tri,) + p1 + p2)
    result = tuple(out)
    memo[cyc] = result
    return result


def _check_subset(ps: PointSet, vertex_subset) -> frozenset[int]:
    sub = frozenset(vertex_subset)
    if not sub <= set(range(len(ps.points))):
        raise ValueError("vertex subset contains unknown indices")
    if not set(ps.hull) <= sub:
        raise ValueError("vertex subset must contain every hull vertex")
    return sub


def count_on_subset(ps: PointSet, vertex_subset) -> int:
    """Number of triangulations of conv(M) using exactly the given vertices."""
    sub = _check_subset(ps, vertex_subset)
    return _count_region(_tables(ps), ps.hull, _mask(sub.difference(ps.hull)), True, {})


def count_full(ps: PointSet) -> int:
    """Number of full triangulations (every point used as a vertex)."""
    return count_on_subset(ps, range(len(ps.points)))


def count_partial(ps: PointSet) -> int:
    """Number of partial triangulations: one optional-mode region recursion."""
    return _count_region(_tables(ps), ps.hull, _mask(ps.interior), False, {})


def enumerate_on_subset(ps: PointSet, vertex_subset, cap: int = ENUMERATION_CAP) -> list[Triangulation]:
    sub = _check_subset(ps, vertex_subset)
    if len(sub) > cap:
        raise SizeCapError(f"enumeration refused for {len(sub)} vertices (cap {cap})")
    raw = _enumerate_region(_tables(ps), ps.hull, _mask(sub.difference(ps.hull)), {})
    return [Triangulation(sub, tuple(sorted(tris))) for tris in raw]


def enumerate_full(ps: PointSet, cap: int = ENUMERATION_CAP) -> list[Triangulation]:
    """All full triangulations; refuses instances above the size cap."""
    return enumerate_on_subset(ps, range(len(ps.points)), cap)


def enumerate_partial(ps: PointSet, cap: int = ENUMERATION_CAP) -> list[Triangulation]:
    """All partial triangulations: required-mode enumerations of the interior
    subsets, iterated in Gray-code order."""
    if len(ps.points) > cap:
        raise SizeCapError(f"enumeration refused for {len(ps.points)} points (cap {cap})")
    interior = ps.interior
    m = len(interior)
    hull = frozenset(ps.hull)
    out: list[Triangulation] = []
    for u in range(1 << m):
        g = u ^ (u >> 1)
        sub = hull | {interior[t] for t in range(m) if (g >> t) & 1}
        out.extend(enumerate_on_subset(ps, sub, cap))
    return out


def brute_force_count(ps: PointSet, vertex_subset=None, cap: int = BRUTE_FORCE_CAP) -> int:
    """Independent oracle: count maximal non-crossing edge sets on the vertices.

    Backtracks over the lexicographic edge list.  A skipped edge must be
    crossed by some chosen edge for the final set to be maximal; every
    accepted leaf is asserted to have exactly 3i + 2h - 3 edges.
    """
    if vertex_subset is None:
        vertex_subset = range(len(ps.points))
    sub = _check_subset(ps, vertex_subset)
    if len(sub) > cap:
        raise SizeCapError(f"brute force refused for {len(sub)} vertices (cap {cap})")
    verts = sorted(sub)
    h = len(ps.hull)
    target = 3 * (len(verts) - h) + 2 * h - 3
    pairs = [(a, b) for a, b in combinations(verts, 2)]
    ne = len(pairs)
    tab = ps.orient_table()
    crossing = [0] * ne
    for e1 in range(ne):
        a, b = pairs[e1]
        for e2 in range(e1 + 1, ne):
            c, d = pairs[e2]
            if _segments_cross(tab, a, b, c, d):
                crossing[e1] |= 1 << e2
                crossing[e2] |= 1 << e1
    full = (1 << ne) - 1
    suffix = [full ^ ((1 << s) - 1) for s in range(ne + 1)]

    def search(idx: int, chosen: int, avail: int, pending: int) -> int:
        future = avail & suffix[idx]
        if chosen + future.bit_count() < target:
            return 0
        rest = pending
        while rest:
            low = rest & -rest
            if not crossing[low.bit_length() - 1] & future:
                return 0
            rest ^= low
        if idx == ne:
            if pending:
                return 0
            assert chosen == target, "maximal non-crossing set with unexpected edge count"
            return 1
        bit = 1 << idx
        if avail & bit:
            blockers = crossing[idx]
            taken = search(idx + 1, chosen + 1, avail & ~blockers, pending & ~blockers)
            skipped = search(idx + 1, chosen, avail, pending | bit)
            return taken + skipped
        return search(idx + 1, chosen, avail, pending)

    return search(0, 0, full, 0)


def check_triangulation(ps: PointSet, tri: Triangulation) -> None:
    """Independent validity check; raises ValueError on the first violation.

    Verifies vertex coverage, pairwise interior-disjointness, exact area
    coverage of the hull, absence of enclosed vertices and the Euler edge
    and triangle counts.
    """
    pts = ps.points
    tab = ps.orient_table()
    sub = tri.vertex_subset
    if not set(ps.hull) <= sub:
        raise ValueError("vertex subset does not contain the hull")
    used = set()
    for t in tri.triangles:
        if len(set(t)) != 3:
            raise ValueError(f"degenerate triangle {t}")
        if not set(t) <= sub:
            raise ValueError(f"triangle {t} uses a vertex outside the subset")
        used.update(t)
    if used != sub:
        raise ValueError("vertex subset not fully used by the triangles")

    def tri_edges(t):
        a, b, c = t
        return ((a, b), (a, c), (b, c))

    for t1, t2 in combinations(tri.triangles, 2):
        if t1 == t2:
            raise ValueError(f"repeated triangle {t1}")
        for e1 in tri_edges(t1):
            for e2 in tri_edges(t2):
                if _segments_cross(tab, *e1, *e2):
                    raise ValueError(f"triangles {t1} and {t2} overlap (crossing edges)")
        for v, other in ((t1, t2), (t2, t1)):
            oa, ob, oc = other
            s = tab[oa][ob][oc]
            for w in v:
                if w in other:
                    continue
                if tab[oa][ob][w] == s and tab[ob][oc][w] == s and tab[oc][oa][w] == s:
                    raise ValueError(f"triangles {t1} and {t2} overlap (nested vertex)")

    for a, b, c in tri.triangles:
        s = tab[a][b][c]
        for w in sub:
            if w in (a, b, c):
                continue
            if tab[a][b][w] == s and tab[b][c][w] == s and tab[c][a][w] == s:
                raise ValueError(f"vertex {w} lies inside triangle {(a, b, c)}")

    def doubled_area(a, b, c):
        v = (pts[b].x - pts[a].x) * (pts[c].y - pts[a].y) \
            - (pts[b].y - pts[a].y) * (pts[c].x - pts[a].x)
        return v if v > 0 else -v

    hull_area = 0
    h = ps.hull
    for m in range(1, len(h) - 1):
        hull_area += doubled_area(h[0], h[m], h[m + 1])
    covered = sum(doubled_area(*t) for t in tri.triangles)
    if covered != hull_area:
        raise ValueError(f"area mismatch: triangles cover {covered}, hull is {hull_area}")

    i = len(sub) - len(h)
    if len(tri.edges) != 3 * i + 2 * len(h) - 3:
        raise ValueError("edge count violates the Euler relation")
    if len(tri.triangles) != 2 * i + len(h) - 2:
        raise ValueError("triangle count violates the Euler relation")
