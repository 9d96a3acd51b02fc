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
from itertools import combinations

from hypothesis import assume, given, settings, strategies as st

from tricensus.catalan import polygon_triangulation_count
from tricensus.generators import gen_double_circle, gen_quasi_convex, gen_random
from tricensus.geom import Point, PointSet, is_general_position
from tricensus import triangulations
from tricensus.triangulations import brute_force_count, count_full, count_partial


def _segments_cross(tab, a, b, c, d):
    if a == c or a == d or b == c or b == d:
        return False
    return tab[a][b][c] * tab[a][b][d] < 0 and tab[c][d][a] * tab[c][d][b] < 0


def _point_in_cycle(pts, tab, cycle, w):
    """Half-open crossing parity of a rightward ray from w."""
    inside = False
    wy = pts[w].y
    k = len(cycle)
    for m in range(k):
        u, v = cycle[m], cycle[(m + 1) % k]
        if pts[u].y <= wy < pts[v].y and tab[u][v][w] > 0:
            inside = not inside
        elif pts[v].y <= wy < pts[u].y and tab[u][v][w] < 0:
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


@st.composite
def shared_y_point_sets(draw):
    """Rows of one or two points at a common y, so that many points share a
    y coordinate with another point or with a polygon vertex."""
    rows = draw(st.lists(
        st.lists(st.integers(-60, 60), min_size=1, max_size=2, unique=True),
        min_size=2, max_size=5))
    height = draw(st.integers(1, 9))
    points = [Point(x, height * y) for y, xs in enumerate(rows) for x in xs]
    assume(len(points) >= 4 and is_general_position(points))
    return PointSet.from_points(points)


@settings(max_examples=60, deadline=None)
@given(shared_y_point_sets())
def test_shared_y_coordinates(ps):
    assert count_partial(ps) == subset_sum_partial(ps)
    if len(ps.points) <= 9:
        assert count_full(ps) == brute_force_count(ps)


def _partial_states(ps, monkeypatch):
    """count_partial and the number of region states in its memo."""
    memos = []
    engine = triangulations._count_region

    def spy(*args):
        if not memos:
            memos.append(args[-1])
        return engine(*args)

    with monkeypatch.context() as m:
        m.setattr(triangulations, "_count_region", spy)
        count = count_partial(ps)
    return count, len(memos[0])


def _relabelled(ps, seed):
    points = list(ps.points)
    random.Random(seed).shuffle(points)
    return PointSet.from_points(points)


def test_counts_and_work_do_not_depend_on_labels(monkeypatch):
    sets = [gen_random(n, 96, seed=9300 + n) for n in range(4, 13)]
    sets += [gen_double_circle(m) for m in range(3, 7)]
    sets += [gen_quasi_convex(7, (0, 2, 5)), gen_quasi_convex(8, (0, 1, 3, 6))]
    for k, ps in enumerate(sets):
        partial, states = _partial_states(ps, monkeypatch)
        full = count_full(ps)
        assert states > 0
        for seed in range(3):
            shuffled = _relabelled(ps, 100 * k + seed)
            assert shuffled.points != ps.points
            assert _partial_states(shuffled, monkeypatch) == (partial, states), (k, seed)
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
        assert _partial_states(gen_random(n, 256, seed), monkeypatch) == want, (n, seed)
    assert _partial_states(gen_double_circle(6), monkeypatch) == (16796, 304)
