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
indices and listings come out in input index order.  In that order a
triangle's ascending ranks are the index triple a listing prints.  The
region recursion lists each triangle as its lexicographic rank among the
C(n, 3) ascending triples, an int, read from a table built once per number
of points; sorting the ranks of a triangulation orders its triangles as
sorting their triples would.  A listing stores no triangulation: each pass
over it lists the vertex sets one at a time and builds the rank tuples of
the root region as it reads them, decoding each into a ``Triangulation``
record, whose triangles are the shared triples of the table, one tuple
object per distinct triangle, or into a line of listing text.  So ``count
--enumerate`` prints as it goes, and holds the memo of one vertex set at a
time, besides the shared memo below.  The counts never build that table.

The listing text has one line per triangulation: its triangles in ascending
order, separated by single spaces, each written as its ascending index
triple "a,b,c".

The anchor triangle on a region's edge a -> b is valid at an apex v left of
a -> b when neither av nor bv crosses a boundary edge and no point of a
blocker mask lies strictly inside it.  The one rule for that mask: it holds
every boundary vertex of the region and, of the points inside the region,
exactly those the triangle may not cover; what it says of points outside the
region does not matter, because a triangle on the anchor edge that holds no
boundary vertex and whose sides cross no boundary edge lies within the
region.  The inside points a valid triangle covers are left unused.  Each
caller passes its mask:

- ``count_full`` blocks every point: all inside points are used.
- ``count_partial`` blocks every point not inside the region, one XOR of its
  inside mask, so inside points may be skipped; it is one recursion with
  every interior point inside the hull.
- A listing of the triangulations on vertex set S blocks the points of S.
  These are the full triangulations of the point set S; an interior point
  left out of S may lie inside one of its regions, and does not block.

Whatever the mask, the points inside a region follow from its boundary
cycle, so one memo per call serves the whole count, or the whole of one
vertex set's listing in one pass.  A pass over several vertex sets also
keeps one memo that all of them share, for the regions with no point of the
set inside: within such a region the blocker mask holds only the boundary
vertices, so its anchor triangles, sub-regions and listing follow from the
cycle alone.
The key of every memo is the region's edge mask, one bit per directed
boundary edge: a counter-clockwise cycle is determined by its edge set, so
the mask names the cycle whatever vertex it starts at.  Each split derives
its sub-regions' edge and inside masks from the parent's in O(1), from
running prefixes along the cycle, and hands them down.  The recursion looks
a sub-region up before it slices the sub-region's cycle, so a memo hit
builds no tuple and needs no anchor rotation.

The recursion reads integers only.  Built for each count or listing, in its
order, and dropped when it returns, from the integer coordinates ``ps.xy``
with one cross product per point triple:
bitmasks of the points left of each directed pair, so that a triangle's
interior is three ANDs; per-segment masks of the directed edges that
properly cross it, ANDed with a region's edge mask; and, from integer (y, x)
heights, the points whose rightward ray crosses each segment, so that the
points inside a sub-polygon are a crossing-parity XOR over its edges.  The
crossing masks are assembled from the left masks laid out in n-bit blocks,
one block per point, about ten big-int operations per segment and no loop
over the points.
Ordering heights by (y, x) instead of y is a consistent symbolic tie-break
(an infinitesimal shear, which changes no orientation), so points sharing a
y coordinate need no special case.  The positive scale of ``ps.xy`` keeps
the orientation signs and the (x, y) order of the rationals, so a count
builds no orientation table; the oracles and ``check_triangulation`` do.

``brute_force_count`` is a deliberately independent oracle: it counts
maximal pairwise-non-crossing edge sets by lexicographic backtracking over
the edge list, asserting that every maximal set has exactly 3i + 2h - 3
edges.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations, permutations

from .errors import SizeCapError
from .geom import PointSet

ENUMERATION_CAP = 14
BRUTE_FORCE_CAP = 10


@dataclass(frozen=True, slots=True)
class Triangulation:
    """A triangulation as index triples over a vertex subset of a PointSet."""

    vertex_subset: frozenset[int]
    triangles: tuple[tuple[int, int, int], ...]

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The undirected edges, each as (smaller index, larger index)."""
        out = set()
        for tri in self.triangles:
            a, b, c = sorted(tri)
            out.add((a, b))
            out.add((a, c))
            out.add((b, c))
        return frozenset(out)


def _segments_cross(tab, a: int, b: int, c: int, d: int) -> bool:
    if a == c or a == d or b == c or b == d:
        return False
    return tab[a][b][c] * tab[a][b][d] < 0 and tab[c][d][a] * tab[c][d][b] < 0


class _RegionTables:
    """The integer tables the region recursion reads, built for one count or
    listing in one point order; nothing keeps them once it returns.

    ``order[r]`` is the index of the point of rank r and ``rank[i]`` is the
    rank of point i.  Every mask, cycle and apex the recursion sees is in rank
    space, so the anchor edge, the apex order and the memo key all follow
    ``order``.
    """

    def __init__(self, ps: PointSet, order):
        xy = [ps.xy[i] for i in order]  # xy[r]: the integer coordinates of rank r
        n = len(xy)
        rank = [0] * n
        for r, i in enumerate(order):
            rank[i] = r
        # left[p][q]: the ranks strictly left of the directed line p -> q, by the
        # sign rule of ``PointSet.orient_table``.  One cross product per triple
        # p < q < r sets three bits: r in left[p][q], p in left[q][r] and q in
        # left[r][p] for a counter-clockwise turn, the reverses for a clockwise one
        left = [[0] * n for _ in range(n)]
        for p in range(n):
            xp, yp = xy[p]
            bit_p = 1 << p
            left_p = left[p]
            for q in range(p + 1, n):
                dx, dy = xy[q][0] - xp, xy[q][1] - yp
                bit_q = 1 << q
                left_q = left[q]
                pq = qp = 0
                for r in range(q + 1, n):
                    x, y = xy[r]
                    turn = dx * (y - yp) - dy * (x - xp)
                    if turn > 0:
                        pq |= 1 << r
                        left_q[r] |= bit_p
                        left[r][p] |= bit_q
                    elif turn < 0:
                        qp |= 1 << r
                        left[r][q] |= bit_p
                        left_p[r] |= bit_q
                left_p[q] |= pq
                left_q[p] |= qp
        # edge_bit[u][w]: the bit of the directed edge u -> w in a region's edge mask
        edge_bit = [[1 << (u * n + w) for w in range(n)] for u in range(n)]
        # cross[p][q]: the directed edges (c, d) that properly cross segment pq:
        # d lies on the other side of pq than c, and left of exactly one of
        # p -> c and q -> c, so p and q lie on opposite sides of cd.  Block c
        # (bits c*n to c*n + n - 1) of row[p] is left[p][c] and of col[p] is
        # left[c][p]; every left mask is below 2^n, so no block carries into the
        # next.  (col[q] >> p) & ones has bit c*n exactly when c is left of
        # q -> p, and multiplying by left[p][q] puts that mask in those blocks
        shifts = range(0, n * n, n)
        ones = sum(1 << s for s in shifts)
        row = [sum(m << s for m, s in zip(left_p, shifts)) for left_p in left]
        col = [sum(left_c[p] << s for left_c, s in zip(left, shifts)) for p in range(n)]
        cross = [[0] * n for _ in range(n)]
        for p in range(n):
            left_p, row_p, col_p = left[p], row[p], col[p]
            for q in range(p + 1, n):
                side = left_p[q] * (col[q] >> p & ones) | left[q][p] * (col_p >> q & ones)
                cross[p][q] = cross[q][p] = side & (row_p ^ row[q])
        # ray[u][v]: the ranks whose rightward ray crosses segment uv; a point
        # is level with a segment when its (y, x) height lies strictly between
        # the heights of the endpoints
        by_height = sorted(range(n), key=lambda r: xy[r][::-1])
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
        self.full = (1 << n) - 1
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
        return cyc, sum(1 << rank[i] for i in inside), edges


def _canonical_order(ps: PointSet) -> list[int]:
    """The canonical order the counts rank points in: the interior points by
    (x, y), then the hull vertices by (x, y)."""
    xy = ps.xy.__getitem__
    return sorted(ps.interior, key=xy) + sorted(ps.hull, key=xy)


@functools.cache
def _triangle_table(n: int) -> tuple:
    """``(rank, triangles)`` for n points.  ``triangles`` is every ascending
    triple of distinct indices below n, in lexicographic order, and
    ``rank[a][b][c]`` is the position in it of the triple of a, b and c, for
    all six orderings; cells with a repeated index are None.  Ranks therefore
    sort as their triples do."""
    triangles = tuple(combinations(range(n), 3))
    rank = [[[None] * n for _ in range(n)] for _ in range(n)]
    for r, tri in enumerate(triangles):
        for a, b, c in permutations(tri):
            rank[a][b][c] = r
    return tuple(tuple(map(tuple, plane)) for plane in rank), triangles


def _anchor_rotation(boundary: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate a ccw cycle so the lexicographically smallest edge pair comes first.

    That edge joins the smallest rank to the smaller of its two neighbours.
    """
    i = boundary.index(min(boundary))
    if boundary[i - 1] < boundary[(i + 1) % len(boundary)]:
        i -= 1
    return boundary[i:] + boundary[:i]


def _region_splits(t: _RegionTables, cyc: tuple[int, ...], inside: int, edges: int,
                   blockers: int):
    """Yield (apex, j, inside1, edges1, inside2, edges2) for every valid anchor
    triangle of the region.

    The anchor edge is (cyc[0], cyc[1]), ``inside`` is the mask of the points
    strictly inside the cycle and ``edges`` is the cycle's edge mask.  An
    apex v left of a -> b is valid when no point of ``blockers`` lies
    strictly inside the triangle and neither av nor bv properly crosses a
    cycle edge.  ``blockers`` holds every boundary vertex and, of the inside
    points, exactly those the triangle may not cover; its bits for points
    outside the region are never read, since a valid triangle lies within the
    region.  The inside points the triangle covers are left out of its
    sub-regions.  Apexes come in the order cyc[2:], then inside points by
    ascending rank.

    A boundary apex cyc[j] splits the region into sub-region 1, on the cycle
    cyc[1:j + 1], and sub-region 2, on the cycle cyc[j:] + (cyc[0],), whose
    inside and edge masks are (inside1, edges1) and (inside2, edges2).  A
    caller treats a sub-cycle of two vertices (j == 2 or j == len(cyc) - 1)
    as a bare edge, which holds no triangle.  An inside apex has j == 0 and
    only sub-region 1, on the cycle cyc[1:] + (cyc[0], apex), with masks
    (inside1, edges1).  Only the masks are built here: a caller slices a
    cycle when its state is not memoised yet.
    """
    left, ray, cross, edge_bit = t.left, t.ray, t.cross, t.edge_bit
    a, b = cyc[0], cyc[1]
    left_ab, left_b, cross_a, cross_b, bit_a = left[a][b], left[b], cross[a], cross[b], edge_bit[a]
    ray_b = ray[b]
    # pre: the edges of the cycle from a up to the apex v = cyc[j]; par: the
    # points whose rightward ray crosses the path cyc[1..j] an odd number of
    # times, so closing that path with the edge v -> b gives the points inside
    pre = bit_a[b]
    par = 0
    u = b
    for j in range(2, len(cyc)):
        v = cyc[j]
        pre |= edge_bit[u][v]
        par ^= ray[u][v]
        u = v
        if not left_ab >> v & 1:
            continue
        tri = left_ab & left_b[v] & left[v][a]
        if tri & blockers or (cross_a[v] | cross_b[v]) & edges:
            continue
        rest = inside & ~tri
        rest1 = rest & (par ^ ray_b[v])
        yield v, j, rest1, pre ^ bit_a[b] | edge_bit[v][b], rest ^ rest1, edges ^ pre | bit_a[v]
    around = edges ^ bit_a[b]
    todo = inside & left_ab
    while todo:
        low = todo & -todo
        todo ^= low
        v = low.bit_length() - 1
        tri = left_ab & left_b[v] & left[v][a]
        if tri & blockers or (cross_a[v] | cross_b[v]) & edges:
            continue
        yield v, 0, (inside & ~tri) ^ low, around | bit_a[v] | edge_bit[v][b], 0, 0


def _count_region(t: _RegionTables, boundary: tuple[int, ...], inside: int, edges: int,
                  required: bool, memo) -> int:
    """The number of triangulations of a region that is not in ``memo`` yet;
    the count is stored there under ``edges``.  With ``required`` every point
    blocks the anchor triangle, so every inside point is used; without it the
    blockers are the points not inside the region, so inside points may be
    skipped.

    A sub-region that is a bare edge or an empty triangle counts 1 and is
    never looked up, recursed into or stored as a state.  A top-level empty
    triangle counts 1 through its one split, whose two sides are bare, and
    is stored as the count's one state.
    """
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
                c1 = _count_region(t, cyc[1:j + 1] if j else cyc[1:] + (a, v), inside1, edges1,
                                   required, memo)
        if j and (inside2 or j < k - 2):
            c2 = memo.get(edges2)
            if c2 is None:
                c2 = _count_region(t, cyc[j:] + (a,), inside2, edges2, required, memo)
        total += c1 * c2
    memo[edges] = total
    return total


def _region_products(t: _RegionTables, triangle: tuple, boundary: tuple[int, ...], inside: int,
                     edges: int, keep: int, memo, empty):
    """Yield ``(anchor, parts1, parts2)`` for every valid anchor triangle of a
    region, in split order: ``anchor`` is the 1-tuple of the triangle's rank,
    and ``parts1`` and ``parts2`` are the listings of its two sub-regions, so
    the region's triangulations on that anchor are ``anchor + p1 + p2`` for
    every p1 in ``parts1`` and p2 in ``parts2``, in that order.

    A sub-region is read from its memo, or listed by ``_enumerate_region``
    and stored there.  A bare-edge side lists as ``((),)``, one triangulation
    with no triangle, and an inside apex has a bare second side.  The region
    itself is not looked up or stored, so a listing reads its root region's
    products directly and never holds the root's whole listing.
    """
    cyc = _anchor_rotation(boundary)
    a = cyc[0]
    triangle_ab = triangle[a][cyc[1]]
    k = len(cyc)
    for v, j, inside1, edges1, inside2, edges2 in _region_splits(t, cyc, inside, edges, keep):
        parts1 = parts2 = ((),)
        if j != 2:
            parts1 = (memo if inside1 else empty).get(edges1)
            if parts1 is None:
                parts1 = _enumerate_region(t, triangle, cyc[1:j + 1] if j else cyc[1:] + (a, v),
                                           inside1, edges1, keep, memo, empty)
        if 0 < j < k - 1:
            parts2 = (memo if inside2 else empty).get(edges2)
            if parts2 is None:
                parts2 = _enumerate_region(t, triangle, cyc[j:] + (a,), inside2, edges2, keep,
                                           memo, empty)
        yield (triangle_ab[v],), parts1, parts2


def _enumerate_region(t: _RegionTables, triangle: tuple, boundary: tuple[int, ...], inside: int,
                      edges: int, keep: int, memo, empty) -> tuple:
    """Every triangulation that uses all the inside points of a region that
    is not memoised yet; the listing is stored under ``edges`` in ``empty``
    when ``inside`` is 0 and in ``memo`` otherwise.

    ``keep`` is the mask of the listing's vertex set and the blocker mask of
    every split: an anchor triangle covers no point of the set, and an
    interior point left out of the set never blocks, even inside the region.
    ``inside`` is always the set's points inside the region, as no valid
    triangle covers one.  So a region with ``inside`` 0 meets ``keep`` only
    in its boundary vertices, and its splits and listing follow from its
    cycle alone: ``empty`` may serve every vertex set of a listing, while
    ``memo`` serves one.

    ``t`` is in the identity order, so point ranks are the indices a listing
    prints, and ``triangle`` is the rank table of ``_triangle_table(n)``.  Each
    triangulation is a tuple of triangle ranks read from it, the anchor
    triangle first, then the first sub-region's triangles, then the second's
    (``_region_products``), so the memos hold tuples of ints.  An empty
    triangle lists as itself and is never stored.
    """
    if len(boundary) == 3 and not inside:
        return ((triangle[boundary[0]][boundary[1]][boundary[2]],),)
    out = []
    for anchor, parts1, parts2 in _region_products(t, triangle, boundary, inside, edges, keep,
                                                   memo, empty):
        # anchor + () is the anchor itself, so a bare side builds no extra tuple
        out += [anchor + p1 + p2 for p1 in parts1 for p2 in parts2]
    result = tuple(out)
    (memo if inside else empty)[edges] = result
    return result


def _check_subset(ps: PointSet, vertex_subset) -> frozenset[int]:
    sub = frozenset(vertex_subset)
    if not sub <= set(range(len(ps.xy))):
        raise ValueError("vertex subset contains unknown indices")
    if not set(ps.hull) <= sub:
        raise ValueError("vertex subset must contain every hull vertex")
    return sub


def count_full(ps: PointSet) -> int:
    """Number of full triangulations: one region recursion in which every
    point blocks the anchor triangle."""
    t = _RegionTables(ps, _canonical_order(ps))
    return _count_region(t, *t.region(ps.hull, ps.interior), True, {})


def count_partial(ps: PointSet) -> int:
    """Number of partial triangulations: one region recursion in which only
    the points not inside a region block its anchor triangle."""
    t = _RegionTables(ps, _canonical_order(ps))
    return _count_region(t, *t.region(ps.hull, ps.interior), False, {})


class Listing:
    """A listing of triangulations: the full triangulations of the hull plus
    each set of interior points in turn, computed anew on every pass.

    A pass, whether ``len()``, iterating or ``lines()``, builds the region
    tables once and lists the vertex sets one at a time, in order.  Only the
    memo of the vertex set being listed and the memo of the regions with no
    kept point inside, which every vertex set shares, are alive at a time.
    The root region, the hull, is never listed whole: a pass reads its
    products (``_region_products``) and builds each triangulation's rank tuple
    as it goes.  So the first lines of a listing come out at once, and a pass
    holds the sub-region listings of one vertex set at a time, besides the
    shared ones.

    ``triangles`` is the triangle of each rank.  ``len()`` is the number of
    triangulations, the sum over the root products of ``len(parts1) *
    len(parts2)``, so it decodes nothing.  Iterating yields ``Triangulation``
    records, triangles ascending; ``lines()`` yields the listing text line by
    line, without building a record.
    """

    __slots__ = ("_ps", "_interior_sets", "triangles")

    def __init__(self, ps: PointSet, interior_sets):
        self._ps = ps
        self._interior_sets = interior_sets
        self.triangles = _triangle_table(len(ps.xy))[1]

    def _products(self):
        """Yield ``(vertex set, anchor, parts1, parts2)`` for every product of
        the root region of every vertex set, in listing order."""
        ps = self._ps
        n = len(ps.xy)
        # identity order: point ranks are indices, so the listed triangles need no
        # mapping back; one set of tables serves every interior set
        t = _RegionTables(ps, range(n))
        rank = _triangle_table(n)[0]
        hull = frozenset(ps.hull)
        empty = {}
        for extra in self._interior_sets:
            sub = hull | extra
            # the vertex set's mask: in the identity order a point's rank is its index
            keep = sum(1 << i for i in sub)
            root = t.region(ps.hull, extra)
            for anchor, parts1, parts2 in _region_products(t, rank, *root, keep, {}, empty):
                yield sub, anchor, parts1, parts2

    def __len__(self) -> int:
        return sum(len(parts1) * len(parts2) for _, _, parts1, parts2 in self._products())

    def __iter__(self):
        triangle = self.triangles.__getitem__
        for sub, anchor, parts1, parts2 in self._products():
            for p1 in parts1:
                head = anchor + p1
                for p2 in parts2:
                    yield Triangulation(sub, tuple(map(triangle, sorted(head + p2))))

    def lines(self):
        """Each triangulation's line of listing text, newline included."""
        # a listing repeats at most C(14, 3) = 364 triangles: format each once
        text = [",".join(map(str, tri)) for tri in self.triangles].__getitem__
        join = " ".join
        for _, anchor, parts1, parts2 in self._products():
            for p1 in parts1:
                head = anchor + p1
                for p2 in parts2:
                    yield join(map(text, sorted(head + p2))) + "\n"


def _listing(ps: PointSet, interior_sets) -> Listing:
    """The listing of the full triangulations of each vertex set, the hull
    plus each set of interior points in turn, each blocking its vertex set's
    points; refused before any table is built when ``ps`` exceeds the size
    cap.  ``interior_sets`` is read once per pass, so it must be iterable
    again.  Each vertex set has its own memo for the regions with some of its
    points inside; the regions with none inside are listed once per pass and
    shared by all the vertex sets, since their listings follow from the
    cycle."""
    n = len(ps.xy)
    if n > ENUMERATION_CAP:
        raise SizeCapError(f"enumeration refused for {n} points (cap {ENUMERATION_CAP})")
    return Listing(ps, interior_sets)


def enumerate_full(ps: PointSet) -> Listing:
    """All full triangulations; refuses sets above the size cap."""
    return _listing(ps, [frozenset(ps.interior)])


def enumerate_partial(ps: PointSet) -> Listing:
    """All partial triangulations: the listings of the hull plus each interior
    subset, in Gray-code order; refuses sets above the size cap."""
    interior = ps.interior
    m = len(interior)
    gray = (u ^ u >> 1 for u in range(1 << m))
    # a tuple, not a generator: every pass over the listing reads the subsets
    return _listing(ps, tuple(frozenset(interior[k] for k in range(m) if g >> k & 1)
                              for g in gray))


def brute_force_count(ps: PointSet, vertex_subset=None) -> int:
    """Independent oracle: count maximal non-crossing edge sets on the vertices.

    Backtracks over the lexicographic edge list.  A skipped edge must be
    crossed by some chosen edge for the final set to be maximal; every
    accepted leaf is asserted to have exactly 3i + 2h - 3 edges.
    """
    if vertex_subset is None:
        vertex_subset = range(len(ps.xy))
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
    sub = tri.vertex_subset
    outside = [v for v in sub.union(*tri.triangles) if not 0 <= v < len(pts)]
    if outside:
        raise ValueError(f"vertex index {min(outside)} is not in [0, {len(pts)})")
    tab = ps.orient_table()
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
        if set(t1) == set(t2):
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
        (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
        return abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))

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
