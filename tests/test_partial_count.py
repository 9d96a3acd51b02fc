"""``count_partial`` (one optional-interior region recursion) against
independent counts.

``subset_sum_partial`` is the per-subset engine ``count_partial`` replaced,
kept here as an oracle: for every interior subset it runs a fresh
required-interior region recursion, with its own segment-crossing test and a
point-in-polygon test on the ``Fraction`` y coordinates.  It anchors on the
smallest edge by input index, while the engine anchors in its canonical rank
order, so the two also share no anchor, apex or memo order.
"""

import random
from fractions import Fraction
from itertools import combinations, count

from hypothesis import assume, given, settings, strategies as st

from tricensus.catalan import polygon_triangulation_count
from tricensus.closeness import classify
from tricensus.generators import gen_double_circle, gen_quasi_convex, gen_random
from tricensus.geom import PointSet, general_position_violation, integer_view
from tricensus import triangulations
from tricensus.triangulations import (
    _RegionTables,
    _canonical_order,
    _region_splits,
    brute_force_count,
    count_full,
    count_partial,
)


def _segments_cross(tab, a, b, c, d):
    if a == c or a == d or b == c or b == d:
        return False
    return tab[a][b][c] * tab[a][b][d] < 0 and tab[c][d][a] * tab[c][d][b] < 0


def _point_in_cycle(pts, tab, cycle, w):
    """Half-open crossing parity of a rightward ray from w."""
    inside = False
    wy = pts[w][1]
    k = len(cycle)
    for m in range(k):
        u, v = cycle[m], cycle[(m + 1) % k]
        if pts[u][1] <= wy < pts[v][1] and tab[u][v][w] > 0:
            inside = not inside
        elif pts[v][1] <= wy < pts[u][1] and tab[u][v][w] < 0:
            inside = not inside
    return inside


def _anchor_rotation(boundary):
    k = len(boundary)
    pairs = [tuple(sorted((boundary[m], boundary[(m + 1) % k]))) for m in range(k)]
    pos = pairs.index(min(pairs))
    return boundary[pos:] + boundary[:pos]


def _count_required(ps, boundary, interior, memo):
    """Triangulations of the polygon that use every point of ``interior``."""
    if len(boundary) == 3 and not interior:
        return 1
    cyc = _anchor_rotation(boundary)
    key = (cyc, interior)
    if key in memo:
        return memo[key]
    tab, pts = ps.orient_table(), ps.points
    a, b = cyc[0], cyc[1]
    k = len(cyc)
    edges = [(cyc[m], cyc[(m + 1) % k]) for m in range(k)]
    region = list(cyc[2:]) + sorted(interior)
    total = 0
    for v in region:
        if tab[a][b][v] != 1:
            continue
        if any(tab[a][b][w] == 1 and tab[b][v][w] == 1 and tab[v][a][w] == 1
               for w in region if w != v):
            continue
        if any(_segments_cross(tab, a, v, p, q) or _segments_cross(tab, b, v, p, q)
               for p, q in edges):
            continue
        if v in interior:
            total += _count_required(ps, cyc[1:] + (a, v), interior - {v}, memo)
            continue
        j = cyc.index(v)
        b1, b2 = cyc[1:j + 1], cyc[j:] + (a,)
        i1 = frozenset(w for w in interior if len(b1) >= 3 and _point_in_cycle(pts, tab, b1, w))
        c = _count_required(ps, b1, i1, memo) if len(b1) >= 3 else 1
        if len(b2) >= 3 and c:
            c *= _count_required(ps, b2, interior - i1, memo)
        total += c
    memo[key] = total
    return total


def subset_sum_partial(ps):
    return sum(_count_required(ps, ps.hull, frozenset(sub), {})
               for r in range(len(ps.interior) + 1)
               for sub in combinations(ps.interior, r))


def brute_force_partial(ps):
    hull = frozenset(ps.hull)
    return sum(brute_force_count(ps, hull | frozenset(sub))
               for r in range(len(ps.interior) + 1)
               for sub in combinations(ps.interior, r))


def test_oracle_reproduces_known_counts():
    assert subset_sum_partial(gen_double_circle(4)) == polygon_triangulation_count(8)
    ps = gen_random(8, 32, seed=5)
    assert subset_sum_partial(ps) == brute_force_partial(ps)


def test_matches_subset_sum_oracle_on_random_sets():
    for n in range(4, 12):
        for k in range(3):
            ps = gen_random(n, (16, 40, 96)[k], seed=7000 + 10 * n + k)
            assert count_partial(ps) == subset_sum_partial(ps), (n, k)


def test_matches_brute_force_subset_sum():
    for k in range(24):
        n = 4 + k % 6
        ps = gen_random(n, 24 + 8 * (k % 4), seed=8100 + k)
        assert count_partial(ps) == brute_force_partial(ps), (n, k)


def test_double_circles_reach_the_catalan_bound():
    for m in range(3, 9):
        assert count_partial(gen_double_circle(m)) == polygon_triangulation_count(2 * m)


def test_quasi_convex_sets_reach_the_catalan_bound():
    for n_hull, sides in ((5, (0,)), (6, (1, 4)), (7, (0, 2, 5)), (8, (0, 1, 3, 6)),
                          (9, (2, 3, 4, 7, 8)), (6, (0, 1, 2, 3, 4, 5))):
        ps = gen_quasi_convex(n_hull, sides)
        n = n_hull + len(sides)
        assert len(ps.points) == n
        assert count_partial(ps) == polygon_triangulation_count(n)


def test_equality_clause_on_larger_quasi_convex_sets():
    sets = [gen_double_circle(m) for m in range(9, 13)]
    sets += [gen_quasi_convex(n_hull, sides) for n_hull, sides in (
        (16, (5,)), (15, (0, 4, 9)), (13, (0, 2, 4, 6, 8, 10)), (16, (0, 3, 7, 11)),
        (17, (1, 5, 9, 13)), (12, (0, 1, 2, 3, 5, 6, 7, 8, 9, 10)),
        (20, range(0, 20, 2)))]
    for ps in sets:
        n = len(ps.xy)
        assert count_partial(ps) == polygon_triangulation_count(n), n
        assert classify(ps).is_quasi_convex, n


def _with_point_near_centroid(ps):
    pts = ps.points
    cx, cy = sum(x for x, _ in pts) / len(pts), sum(y for _, y in pts) / len(pts)
    for k in count():
        try:
            return PointSet.from_points([*pts, (cx + Fraction(k, 101), cy + Fraction(k, 103))])
        except ValueError:  # not in general position: step further off the centroid
            continue


def test_a_point_near_the_centroid_lifts_quasi_convex_sets_above_the_bound():
    for ps in (gen_quasi_convex(16, (0, 3, 7, 11)), gen_double_circle(10), gen_double_circle(12),
               gen_quasi_convex(18, range(0, 18, 2))):
        lifted = _with_point_near_centroid(ps)
        n = len(lifted.xy)
        assert n == len(ps.xy) + 1
        assert count_partial(lifted) > polygon_triangulation_count(n), n
        assert not classify(lifted).is_quasi_convex, n


def test_lower_bound_on_larger_random_sets():
    for n in range(13, 19):
        for seed in (1, 2):
            ps = gen_random(n, 256, seed=seed)
            partial = count_partial(ps)
            assert partial >= polygon_triangulation_count(n), (n, seed)
            assert (partial == polygon_triangulation_count(n)) == classify(ps).is_quasi_convex, (n, seed)


@st.composite
def shared_y_point_sets(draw):
    """Rows of one or two points at a common y, so that many points share a
    y coordinate with another point or with a polygon vertex."""
    rows = draw(st.lists(
        st.lists(st.integers(-60, 60), min_size=1, max_size=2, unique=True),
        min_size=2, max_size=5))
    height = draw(st.integers(1, 9))
    points = [(x, height * y) for y, xs in enumerate(rows) for x in xs]
    assume(len(points) >= 4 and general_position_violation(integer_view(points)) is None)
    return PointSet.from_points(points)


@settings(max_examples=60, deadline=None)
@given(shared_y_point_sets())
def test_shared_y_coordinates(ps):
    assert count_partial(ps) == subset_sum_partial(ps)
    if len(ps.points) <= 9:
        assert count_full(ps) == brute_force_count(ps)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=4, max_size=9,
                unique=True),
       st.booleans(), st.booleans())
def test_split_masks_describe_their_sub_regions(points, required, canonical):
    """Every sub-region reachable from the hull, as ``_region_splits`` hands
    it down: its inside mask holds exactly the interior points strictly
    inside its cycle, by crossing parity on the orientation table, and its
    edge mask holds exactly the cycle's directed edges.  On a small grid many
    points share an x or a y coordinate."""
    assume(general_position_violation(integer_view(points)) is None)
    ps = PointSet.from_points(points)
    tab = ps.orient_table()
    n = len(points)
    t = _RegionTables(ps, _canonical_order(ps) if canonical else range(n))
    index = sorted(range(n), key=t.rank.__getitem__)  # index[r]: the point of rank r
    interior_ranks = [t.rank[i] for i in ps.interior]

    def check(cycle, inside, edges):
        on_cycle = set(cycle)
        want = sum(1 << r for r in interior_ranks if r not in on_cycle
                   and _point_in_cycle(ps.points, tab, [index[u] for u in cycle], index[r]))
        assert inside == want, (cycle, inside, want)
        k = len(cycle)
        assert edges == sum(1 << (cycle[m] * n + cycle[(m + 1) % k]) for m in range(k)), cycle

    walked = 0
    for cycle, inside, edges, _ in _walk_regions(t, ps, required):
        check(cycle, inside, edges)
        walked += 1
    assert walked


def _walk_regions(t, ps, required, extra=None):
    """Every region reachable from the hull, as ``_region_splits`` hands it
    down, repeats included: (cycle, inside, edges, splits).  The walk passes
    the blocker masks of ``count_full`` (``required``) or ``count_partial``,
    with every interior point inside the hull; given ``extra``, in required
    mode, it passes the mask of the listing of the hull plus ``extra``, with
    only ``extra`` inside.  The first time an edge mask is handed down, its
    cycle is anchor-rotated and ``splits`` is the list of its splits, which
    the walk follows; a repeat and an empty triangle, which is never split,
    have ``splits`` None."""
    if extra is None:
        todo = [t.region(ps.hull, ps.interior)]
        keep = t.full
    else:
        todo = [t.region(ps.hull, extra)]
        keep = sum(1 << t.rank[i] for i in (*ps.hull, *extra))
    seen = set()
    while todo:
        cycle, inside, edges = todo.pop()
        if edges in seen or (len(cycle) == 3 and not inside):
            yield cycle, inside, edges, None
            continue
        seen.add(edges)
        cyc = _anchor_rotation(cycle)
        a, k = cyc[0], len(cyc)
        blockers = keep if required else t.full ^ inside
        splits = list(_region_splits(t, cyc, inside, edges, blockers))
        yield cyc, inside, edges, splits
        for v, j, inside1, edges1, inside2, edges2 in splits:
            if not j:
                todo.append((cyc[1:] + (a, v), inside1, edges1))
                continue
            if j > 2:
                todo.append((cyc[1:j + 1], inside1, edges1))
            if j < k - 1:
                todo.append((cyc[j:] + (a,), inside2, edges2))


def _check_apexes_by_oracle(ps, order, required, extra=None):
    """Every reachable region of ``ps``, ranked by ``order``, splits at exactly
    the apexes v left of its anchor edge a -> b whose triangle (a, b, v) holds
    no blocker strictly inside and whose sides av and bv properly cross no
    cycle edge, in the order cyc[2:], then inside points by rank.  A blocker
    is a boundary vertex, or, in required mode, an inside point.  Given
    ``extra``, in required mode, the regions are those of the listing of the
    hull plus ``extra``: an interior point left out of ``extra`` is in no
    region's inside points, so it never blocks, even where it lies in the
    triangle.  The test reads the orientation table, re-indexed by rank, and
    not the engine's masks."""
    tab = ps.orient_table()
    n = len(ps.xy)
    t = _RegionTables(ps, order)
    index = sorted(range(n), key=t.rank.__getitem__)  # index[r]: the point of rank r
    rt = [[[tab[index[u]][index[v]][index[w]] for w in range(n)] for v in range(n)]
          for u in range(n)]
    walked = 0
    for cyc, inside, _, splits in _walk_regions(t, ps, required, extra):
        if splits is None:
            continue
        walked += 1
        a, b, k = cyc[0], cyc[1], len(cyc)
        inside_ranks = [r for r in range(n) if inside >> r & 1]
        cycle_edges = [(cyc[m], cyc[(m + 1) % k]) for m in range(k)]
        blockers = list(cyc) + (inside_ranks if required else [])
        want = [v for v in list(cyc[2:]) + inside_ranks
                if rt[a][b][v] > 0
                and not any(rt[a][b][w] > 0 and rt[b][v][w] > 0 and rt[v][a][w] > 0
                            for w in blockers)
                and not any(_segments_cross(rt, a, v, p, q) or _segments_cross(rt, b, v, p, q)
                            for p, q in cycle_edges)]
        assert [split[0] for split in splits] == want, (cyc, inside, required, extra)
    # only a listing of a bare hull triangle has no region to split
    assert walked or (extra == () and len(ps.hull) == 3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=4, max_size=9,
                unique=True),
       st.booleans(), st.booleans())
def test_splits_take_exactly_the_valid_apexes(points, required, canonical):
    """On a small grid many points share an x or a y coordinate."""
    assume(general_position_violation(integer_view(points)) is None)
    ps = PointSet.from_points(points)
    _check_apexes_by_oracle(ps, _canonical_order(ps) if canonical else range(len(points)), required)


def test_splits_take_exactly_the_valid_apexes_on_seeded_sets():
    sets = [gen_random(n, 256, seed=9500 + n) for n in range(4, 13)]
    sets += [gen_double_circle(6), gen_quasi_convex(8, (0, 1, 3, 6))]
    for ps in sets:
        for order in (_canonical_order(ps), range(len(ps.xy))):
            for required in (False, True):
                _check_apexes_by_oracle(ps, order, required)


def test_listing_splits_take_exactly_the_valid_apexes_on_seeded_sets():
    """Every interior subset's listing, in the identity order the listings
    use: an interior point left out of the subset may lie in an anchor
    triangle without blocking it."""
    sets = [gen_random(n, 256, seed=9600 + n) for n in range(5, 11)]
    sets += [gen_double_circle(4), gen_quasi_convex(8, (0, 1, 3, 6))]
    for ps in sets:
        for r in range(len(ps.interior) + 1):
            for extra in combinations(ps.interior, r):
                _check_apexes_by_oracle(ps, range(len(ps.xy)), True, extra)


def _states(count, ps, monkeypatch):
    """``count(ps)`` and the number of region states in its memo."""
    memos = []
    engine = triangulations._count_region

    def spy(*args):
        if not memos:
            memos.append(args[-1])
        return engine(*args)

    with monkeypatch.context() as m:
        m.setattr(triangulations, "_count_region", spy)
        total = count(ps)
    return total, len(memos[0])


def _relabelled(ps, seed):
    points = list(ps.points)
    random.Random(seed).shuffle(points)
    return PointSet.from_points(points)


def test_counts_and_work_do_not_depend_on_labels(monkeypatch):
    sets = [gen_random(n, 96, seed=9300 + n) for n in range(4, 13)]
    sets += [gen_double_circle(m) for m in range(3, 7)]
    sets += [gen_quasi_convex(7, (0, 2, 5)), gen_quasi_convex(8, (0, 1, 3, 6))]
    for k, ps in enumerate(sets):
        partial, states = _states(count_partial, ps, monkeypatch)
        full = count_full(ps)
        assert states > 0
        for seed in range(3):
            shuffled = _relabelled(ps, 100 * k + seed)
            assert shuffled.points != ps.points
            assert _states(count_partial, shuffled, monkeypatch) == (partial, states), (k, seed)
            assert count_full(shuffled) == full, (k, seed)


def test_counts_and_states_are_pinned(monkeypatch):
    """Counts and memo sizes in the canonical order: a change to the region
    engine that alters its anchors, its apexes or its set of states fails
    here even when the counts still agree."""
    pinned = {
        (14, 7): (1301888, 2554),
        (14, 8): (1311278, 1965),
        (16, 7): (40381256, 10337),
        (16, 8): (30879075, 8046),
        (18, 7): (858062367, 25108),
        (18, 8): (829065910, 29991),
    }
    for (n, seed), want in pinned.items():
        assert _states(count_partial, gen_random(n, 256, seed), monkeypatch) == want, (n, seed)
    assert _states(count_partial, gen_double_circle(6), monkeypatch) == (16796, 304)
    # 24 points, where the n-bit blocks of the crossing masks are widest
    assert _states(count_partial, gen_double_circle(12), monkeypatch) == (91482563640, 27847)
    assert _states(count_partial, gen_quasi_convex(16, range(0, 16, 2)),
                   monkeypatch) == (91482563640, 9985)
    # a bare triangle is one split with two bare sides: one state
    bare = PointSet.from_points([(0, 0), (6, 0), (0, 6)])
    assert _states(count_partial, bare, monkeypatch) == (1, 1)


def test_required_counts_and_states_are_pinned(monkeypatch):
    """Required mode's counts and memo sizes, pinned as optional mode's are
    above: ``count_full`` is one required-mode recursion with every interior
    point inside the hull."""
    pinned = {
        (14, 7): (225724, 1687),
        (14, 8): (281609, 1673),
        (16, 7): (5088447, 5834),
        (16, 8): (4515847, 5687),
        (18, 7): (71097617, 12743),
        (18, 8): (109010879, 19835),
    }
    for (n, seed), want in pinned.items():
        assert _states(count_full, gen_random(n, 256, seed), monkeypatch) == want, (n, seed)
    assert _states(count_full, gen_double_circle(6), monkeypatch) == (2236, 304)
    # 24 points, where the n-bit blocks of the masks are widest
    assert _states(count_full, gen_double_circle(12), monkeypatch) == (2239507936, 27847)
    assert _states(count_full, gen_quasi_convex(16, range(0, 16, 2)),
                   monkeypatch) == (7670791800, 9985)
