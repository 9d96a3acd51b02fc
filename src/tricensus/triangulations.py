"""Exact counting and enumeration of full and partial triangulations.

A *full* triangulation of a point set uses every point as a vertex; a
*partial* triangulation may skip interior points but must use every hull
vertex.  Both are counted by one anchored-edge recursion over regions (Ray
and Seidel, "A simple and less slow method for counting triangulations",
EuroCG 2004).  A region is a simple polygon, a counter-clockwise cycle of
point ranks, plus the points strictly inside it.  The anchor edge is the
lexicographically smallest boundary edge by rank pair; every triangulation of
the region has exactly one triangle on that edge, so summing over the valid
apexes counts each triangulation once.  An apex at a boundary vertex splits
the region in two; an apex at an inside point merges that point into the
boundary.

Ranks come from a point order fixed when the tables are built.  The counts
use a canonical order, the interior points by (x, y) and then the hull
vertices by (x, y), so the anchors, the apex order and the memo, and with
them the work of a count, depend on the points and not on how the input
labels them.  The enumerators use the identity order, so ranks are input
indices and listings come out in input index order.

The recursion has two modes:

- *required*: every inside point must be used, so the anchor triangle must
  contain no point of the region.  ``count_full``, ``count_on_subset`` and
  the enumerators use it, with the chosen subset's interior points inside.
- *optional*: inside points may be skipped, so the anchor triangle must
  contain no boundary vertex, and the inside points it does contain are left
  unused.  ``count_partial`` is one optional-mode recursion with every
  interior point inside the hull.

In both modes the points inside a region follow from its boundary cycle, so
one memo per call serves the whole count.  Its key is the region's edge
mask, one bit per directed boundary edge: a counter-clockwise cycle is
determined by its edge set, so the mask names the cycle whatever vertex it
starts at.  Each split derives its sub-regions' masks from the parent's in
O(1) and hands them down, so a memo hit needs neither the cycle's edges nor
its anchor rotation.

The recursion reads integers only.  Built once per point set and order, from
the orientation table: bitmasks of the points left of each directed pair, so
that a triangle's interior is three ANDs; per-segment masks of the directed
edges that properly cross it, ANDed with a region's edge mask; and, from
integer (y, x) heights, the points whose rightward ray crosses each segment,
so that the points inside a sub-polygon are a crossing-parity XOR over its
edges.  Ordering heights by (y, x) instead of y is a consistent
symbolic tie-break (an infinitesimal shear, which changes no orientation), so
points sharing a y coordinate need no special case.  The point order and
the heights come from ``ps.xy``, whose positive scale keeps the (x, y) order
of the rationals.

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


class _RegionTables:
    """The integer tables the region recursion reads, built once per point set
    and point order.

    ``order[r]`` is the index of the point of rank r and ``rank[i]`` is the
    rank of point i.  Every mask, cycle and apex the recursion sees is in rank
    space, so the anchor edge, the apex order and the memo key all follow
    ``order``.
    """

    def __init__(self, ps: PointSet, order):
        tab = ps.orient_table()
        xy = ps.xy
        n = len(xy)
        rank = [0] * n
        for r, i in enumerate(order):
            rank[i] = r
        # left[p][q]: the ranks strictly left of the directed line p -> q
        bit = [1 << r for r in rank]
        left = [[sum(b for b, s in zip(bit, tab[p][q]) if s > 0) for q in order]
                for p in order]
        # edge_bit[u][w]: the bit of the directed edge u -> w in a region's edge mask
        edge_bit = [[1 << (u * n + w) for w in range(n)] for u in range(n)]
        # cross[p][q]: the directed edges (c, d) that properly cross segment pq:
        # d lies on the other side of pq than c, and left of exactly one of
        # p -> c and q -> c, so p and q lie on opposite sides of cd
        cross = [[0] * n for _ in range(n)]
        for p in range(n):
            left_p = left[p]
            for q in range(p + 1, n):
                left_q = left[q]
                left_pq, left_qp = left_p[q], left_q[p]
                mask = 0
                for c in range(n):
                    side = left_pq if left_qp >> c & 1 else left_qp if left_pq >> c & 1 else 0
                    mask |= (side & (left_p[c] ^ left_q[c])) << c * n
                cross[p][q] = cross[q][p] = mask
        # ray[u][v]: the ranks whose rightward ray crosses segment uv; a point
        # is level with a segment when its (y, x) height lies strictly between
        # the heights of the endpoints
        by_height = sorted(range(n), key=lambda r: xy[order[r]][::-1])
        below = [0]  # below[h]: the ranks of height < h
        for r in by_height:
            below.append(below[-1] | 1 << r)
        height = [0] * n
        for h, r in enumerate(by_height):
            height[r] = h
        ray = [[0] * n for _ in range(n)]
        for u in range(n):
            for v in range(n):
                if height[u] < height[v]:
                    ray[u][v] = ray[v][u] = (below[height[v]] ^ below[height[u] + 1]) & left[u][v]
        self.rank = rank
        self.left = left
        self.edge_bit = edge_bit
        self.cross = cross
        self.ray = ray

    def region(self, boundary, inside) -> tuple[tuple[int, ...], int, int]:
        """A boundary cycle and inside points, given by index, in rank space,
        with the cycle's edge mask."""
        rank = self.rank
        cyc = tuple(rank[i] for i in boundary)
        edge_bit = self.edge_bit
        edges = 0
        for u, w in zip(cyc, cyc[1:] + cyc[:1]):
            edges |= edge_bit[u][w]
        return cyc, _mask(rank[i] for i in inside), edges


def _tables(ps: PointSet, canonical: bool) -> _RegionTables:
    """The region tables of ``ps``, cached per order.

    The canonical order, for counting, ranks the interior points by (x, y) and
    then the hull vertices by (x, y), so a count's work depends on the points,
    not on their labels.  The enumerators take the identity order, so ranks
    are indices and listings keep input index order.
    """
    key = "regions" if canonical else "regions_by_index"
    tables = ps._cache.get(key)
    if tables is None:
        if canonical:
            xy = ps.xy.__getitem__
            order = sorted(ps.interior, key=xy) + sorted(ps.hull, key=xy)
        else:
            order = range(len(ps.points))
        tables = ps._cache[key] = _RegionTables(ps, order)
    return tables


def _anchor_rotation(boundary: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate a ccw cycle so the lexicographically smallest edge pair comes first.

    That edge joins the smallest rank to the smaller of its two neighbours.
    """
    i = boundary.index(min(boundary))
    if boundary[i - 1] < boundary[(i + 1) % len(boundary)]:
        i -= 1
    return boundary[i:] + boundary[:i]


def _region_splits(t: _RegionTables, cyc: tuple[int, ...], inside: int, edges: int,
                   required: bool):
    """Yield (apex, sub1, sub2) for every valid anchor triangle of the region.

    The anchor edge is (cyc[0], cyc[1]), ``inside`` is the mask of the points
    strictly inside the cycle and ``edges`` is the cycle's edge mask.  In
    required mode the anchor triangle may contain none of the inside points;
    in optional mode it may, and they are left unused.  Apexes come in the
    order cyc[2:], then inside points by ascending rank.  Each sub-region is a
    (boundary, inside, edges) triple, its edge mask derived from ``edges``, or
    None when the split degenerates to a bare edge.
    """
    left, ray, cross, edge_bit = t.left, t.ray, t.cross, t.edge_bit
    a, b = cyc[0], cyc[1]
    k = len(cyc)
    verts = 0
    for u in cyc:
        verts |= 1 << u
    blockers = verts | inside if required else verts
    left_ab, left_b, cross_a, cross_b, bit_a = left[a][b], left[b], cross[a], cross[b], edge_bit[a]
    # pre: the edges of the cycle from a up to the apex cyc[j]
    pre = bit_a[b]
    for j in range(2, k):
        v = cyc[j]
        pre |= edge_bit[cyc[j - 1]][v]
        if not left_ab >> v & 1:
            continue
        tri = left_ab & left_b[v] & left[v][a]
        if tri & blockers or (cross_a[v] | cross_b[v]) & edges:
            continue
        rest = inside & ~tri
        b1 = cyc[1:j + 1]
        rest1 = 0
        if rest and j > 2:
            side = ray[v][b]
            for u, w in zip(b1, b1[1:]):
                side ^= ray[u][w]
            rest1 = rest & side
        yield (v,
               (b1, rest1, pre ^ bit_a[b] | edge_bit[v][b]) if j > 2 else None,
               (cyc[j:] + (a,), rest ^ rest1, edges ^ pre | bit_a[v]) if j < k - 1 else None)
    around = edges ^ bit_a[b]
    todo = inside & left_ab
    while todo:
        low = todo & -todo
        todo ^= low
        v = low.bit_length() - 1
        tri = left_ab & left_b[v] & left[v][a]
        if tri & blockers or (cross_a[v] | cross_b[v]) & edges:
            continue
        yield v, (cyc[1:] + (a, v), (inside & ~tri) ^ low, around | bit_a[v] | edge_bit[v][b]), None


def _count_region(t: _RegionTables, boundary: tuple[int, ...], inside: int, edges: int,
                  required: bool, memo) -> int:
    if len(boundary) == 3 and not inside:
        return 1
    cached = memo.get(edges)
    if cached is not None:
        return cached
    total = 0
    for _, sub1, sub2 in _region_splits(t, _anchor_rotation(boundary), inside, edges, required):
        c = 1
        if sub1 is not None:
            c = _count_region(t, sub1[0], sub1[1], sub1[2], required, memo)
        if sub2 is not None and c:
            c *= _count_region(t, sub2[0], sub2[1], sub2[2], required, memo)
        total += c
    memo[edges] = total
    return total


def _enumerate_region(t: _RegionTables, boundary: tuple[int, ...], inside: int, edges: int,
                      memo) -> tuple:
    if len(boundary) == 3 and not inside:
        return ((tuple(sorted(boundary)),),)
    cached = memo.get(edges)
    if cached is not None:
        return cached
    cyc = _anchor_rotation(boundary)
    out = []
    for v, sub1, sub2 in _region_splits(t, cyc, inside, edges, True):
        tri = tuple(sorted((cyc[0], cyc[1], v)))
        parts1 = _enumerate_region(t, *sub1, memo) if sub1 is not None else ((),)
        parts2 = _enumerate_region(t, *sub2, memo) if sub2 is not None else ((),)
        for p1 in parts1:
            for p2 in parts2:
                out.append((tri,) + p1 + p2)
    result = tuple(out)
    memo[edges] = result
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
    t = _tables(ps, True)
    return _count_region(t, *t.region(ps.hull, sub.difference(ps.hull)), True, {})


def count_full(ps: PointSet) -> int:
    """Number of full triangulations (every point used as a vertex)."""
    return count_on_subset(ps, range(len(ps.points)))


def count_partial(ps: PointSet) -> int:
    """Number of partial triangulations: one optional-mode region recursion."""
    t = _tables(ps, True)
    return _count_region(t, *t.region(ps.hull, ps.interior), False, {})


def _listing(ps: PointSet, interior_sets) -> list[Triangulation]:
    """Required-mode listings of the hull plus each set of interior points, in
    turn; refused before any table is built when ``ps`` exceeds the size cap."""
    n = len(ps.points)
    if n > ENUMERATION_CAP:
        raise SizeCapError(f"enumeration refused for {n} points (cap {ENUMERATION_CAP})")
    # identity order: ranks are indices, so the listed triangles need no mapping back
    t = _tables(ps, False)
    hull = frozenset(ps.hull)
    out: list[Triangulation] = []
    for extra in interior_sets:
        sub = hull | extra
        out.extend(Triangulation(sub, tuple(sorted(tris)))
                   for tris in _enumerate_region(t, *t.region(ps.hull, extra), {}))
    return out


def enumerate_full(ps: PointSet) -> list[Triangulation]:
    """All full triangulations; refuses sets above the size cap."""
    return _listing(ps, [frozenset(ps.interior)])


def enumerate_partial(ps: PointSet) -> list[Triangulation]:
    """All partial triangulations: required-mode listings of the interior
    subsets, iterated in Gray-code order; refuses sets above the size cap."""
    interior = ps.interior
    m = len(interior)
    gray = (u ^ u >> 1 for u in range(1 << m))
    return _listing(ps, (frozenset(interior[k] for k in range(m) if g >> k & 1) for g in gray))


def brute_force_count(ps: PointSet, vertex_subset=None) -> int:
    """Independent oracle: count maximal non-crossing edge sets on the vertices.

    Backtracks over the lexicographic edge list.  A skipped edge must be
    crossed by some chosen edge for the final set to be maximal; every
    accepted leaf is asserted to have exactly 3i + 2h - 3 edges.
    """
    if vertex_subset is None:
        vertex_subset = range(len(ps.points))
    sub = _check_subset(ps, vertex_subset)
    if len(sub) > BRUTE_FORCE_CAP:
        raise SizeCapError(f"brute force refused for {len(sub)} vertices (cap {BRUTE_FORCE_CAP})")
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
