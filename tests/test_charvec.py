from bisect import bisect_left
from fractions import Fraction
from functools import cache, cmp_to_key
from itertools import combinations, count, permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from tricensus import charvec, geom
from tricensus.catalan import polygon_triangulation_count
from tricensus.charvec import (
    all_polylines,
    build_angle_frame,
    build_radial_frame,
    enumerate_good_polygons,
    find_charvec_collision,
    frame_bijection_holds,
    is_good_polygon,
    move_along_ray,
    polygon_charvec,
    polyline_charvec,
    polyline_from_charvec,
    project_to_convex_position,
    ray_move_preserves_image,
)
from tricensus.closeness import classify
from tricensus.errors import ConstructionError, SizeCapError
from tricensus.generators import gen_angle_frame, gen_radial_frame, gen_random
from tricensus.geom import PointSet, convex_hull, integer_view
from tricensus.triangulations import count_partial

from oracles import orient, segments_properly_cross

F = Fraction

APEX, LEFT, RIGHT = (0, 4), (-4, 0), (4, 0)


def test_build_angle_frame_sorts_left_to_right():
    frame = build_angle_frame(APEX, LEFT, RIGHT, [(1, 1), (-1, 1)])
    assert frame.interior == ((-1, 1), (1, 1))


def test_build_angle_frame_empty():
    frame = build_angle_frame(APEX, LEFT, RIGHT, [])
    assert frame.interior == ()
    assert polyline_charvec(frame, ()) == ()
    assert polyline_from_charvec(frame, ()) == ()


def test_build_angle_frame_rejects_point_outside():
    with pytest.raises(ValueError):
        build_angle_frame(APEX, LEFT, RIGHT, [(0, 5)])


def test_charvec_single_point_inside_arm_triangle():
    frame = build_angle_frame(APEX, LEFT, RIGHT, [(0, 1)])
    assert polyline_charvec(frame, ()) == (0,)
    assert polyline_charvec(frame, (0,)) == (1,)
    assert polyline_from_charvec(frame, (0,)) == ()
    assert polyline_from_charvec(frame, (1,)) == (0,)


def test_charvec_single_point_beyond_arm_chord():
    frame = build_angle_frame(APEX, LEFT, RIGHT, [(0, -2)])
    assert polyline_charvec(frame, ()) == (1,)
    assert polyline_charvec(frame, (0,)) == (0,)
    assert polyline_from_charvec(frame, (1,)) == ()
    assert polyline_from_charvec(frame, (0,)) == (0,)


def test_polyline_count_is_two_to_the_n():
    for n in list(range(8)) + [12]:
        frame = gen_angle_frame(n, seed=n)
        assert sum(1 for _ in all_polylines(frame)) == 2 ** n


def test_round_trips_on_seeded_frames():
    for k in range(12):
        frame = gen_angle_frame(k % 9, seed=60 + k)
        assert frame_bijection_holds(frame)


def test_polyline_charvec_rejects_bad_polyline():
    frame = gen_angle_frame(3, seed=4)
    with pytest.raises(ValueError):
        polyline_charvec(frame, (2, 1))
    with pytest.raises(ValueError):
        polyline_from_charvec(frame, (1, 0))


# -- radial frames ----------------------------------------------------------

def test_radial_frame_reference_skips_vertical_rays():
    frame = build_radial_frame((0, 0), [(0, -3), (2, 1)])
    assert frame.reference != (0, -1)
    assert frame.reference == (1, 0)


def test_radial_frame_singleton():
    frame = build_radial_frame((0, 0), [(3, 2)])
    assert frame.points == ((3, 2),)


def test_radial_frame_compass_order():
    # perturbed compass points, counter-clockwise from straight down
    frame = build_radial_frame((0, 0), [(1, 7), (-7, 2), (-2, -7), (7, 1)])
    assert frame.reference == (0, -1)
    assert frame.points == ((7, 1), (1, 7), (-7, 2), (-2, -7))


def test_good_polygon_needs_to_wrap_the_center():
    frame = build_radial_frame((0, 0), [(0, 1), (-1, F(1, 2)), (1, F(1, 2))])
    assert enumerate_good_polygons(frame) == []


def test_polygon_charvec_chord_between_center_and_point():
    # polygon passes above (0,1): its bracketing chord lies between it and the center
    frame = build_radial_frame((0, 0), [(0, 1), (-1, F(1, 2)), (1, F(1, 2)), (1, -3)])
    assert frame.points == ((1, F(1, 2)), (0, 1), (-1, F(1, 2)), (1, -3))
    poly = (0, 2, 3)
    assert is_good_polygon(frame, poly)
    assert polygon_charvec(frame, poly)[1] == 1


def test_polygon_charvec_chord_beyond_point():
    frame = build_radial_frame((0, 0), [(0, F(1, 2)), (-1, 1), (1, 1), (1, -3)])
    assert frame.points == ((1, 1), (0, F(1, 2)), (-1, 1), (1, -3))
    poly = (0, 2, 3)
    assert is_good_polygon(frame, poly)
    assert polygon_charvec(frame, poly)[1] == 0


def test_polygon_charvec_triangle_vertices_all_zero():
    frame = build_radial_frame((0, 0), [(2, 1), (-3, 2), (1, -3)])
    polys = enumerate_good_polygons(frame)
    assert len(polys) == 1
    assert polygon_charvec(frame, polys[0]) == (0, 0, 0)


def test_polygon_charvec_rejects_bad_polygon():
    frame = build_radial_frame((0, 0), [(2, 1), (-3, 2), (1, -3), (3, 3)])
    assert enumerate_good_polygons(frame) == [(0, 1, 3), (0, 2, 3), (0, 1, 2, 3)]
    # too few vertices, a polygon that misses the center, an index out of range
    for bad in ((0, 1), (1, 2, 3), (0, 1, 4), (-1, 0, 1)):
        assert not is_good_polygon(frame, bad)
        with pytest.raises(ValueError, match="is not a good polygon for this frame"):
            polygon_charvec(frame, bad)


def _merging(real, frame, source, target):
    """``real`` with ``source``'s vector reported as ``target``'s."""
    merged, kept = real(frame, source), real(frame, target)
    return lambda f, shape: kept if real(f, shape) == merged else real(f, shape)


@pytest.mark.parametrize("source, target", [((0,), ()), ((), (0,))], ids=["seen", "round-trip"])
def test_bijection_check_reports_merged_vectors(monkeypatch, source, target):
    # (0,) reported as () repeats a vector; () reported as (0,) decodes to (0,)
    frame = gen_angle_frame(3, seed=1)
    monkeypatch.setattr(charvec, "polyline_charvec",
                        _merging(polyline_charvec, frame, source, target))
    assert not frame_bijection_holds(frame)


def test_injectivity_check_reports_the_colliding_pair(monkeypatch):
    frame = gen_radial_frame(5, seed=2)
    polygons = enumerate_good_polygons(frame)
    first, second = polygons[0], polygons[1]
    monkeypatch.setattr(charvec, "polygon_charvec",
                        _merging(polygon_charvec, frame, second, first))
    assert find_charvec_collision(frame, polygons) == (first, second)


def test_psi_injectivity_on_seeded_frames():
    for k in range(16):
        frame = gen_radial_frame(3 + k % 6, seed=300 + k)
        assert find_charvec_collision(frame, enumerate_good_polygons(frame)) is None


def test_good_polygon_enumeration_cap():
    frame = gen_radial_frame(11, seed=1)
    with pytest.raises(SizeCapError):
        enumerate_good_polygons(frame)


def test_frames_reject_a_collinear_triple():
    with pytest.raises(ValueError) as rejected:
        build_angle_frame(APEX, LEFT, RIGHT, [(0, 1), (0, 2)])
    assert str(rejected.value) == "frame points not in general position: indices (0, 3, 4)"
    with pytest.raises(ValueError) as rejected:
        build_radial_frame((0, 0), [(1, 1), (2, 2), (-3, 1)])
    assert str(rejected.value) == "frame points not in general position: indices (0, 1, 2)"


def test_ray_move_identity():
    frame = gen_radial_frame(5, seed=8)
    assert ray_move_preserves_image(frame, 2, 1)


def test_ray_move_invariance_random_moves():
    for k in range(6):
        frame = gen_radial_frame(5, seed=500 + k)
        for i in range(5):
            for t in (F(1, 3), 2, F(7, 2)):
                try:
                    assert ray_move_preserves_image(frame, i, t)
                except ValueError:
                    pass  # the move broke general position; nothing to compare


def test_ray_move_rejects_nonpositive_parameter():
    frame = gen_radial_frame(4, seed=2)
    with pytest.raises(ValueError):
        move_along_ray(frame, 0, 0)


def test_ray_move_rejects_an_index_outside_the_frame():
    frame = gen_radial_frame(5, seed=2)
    for i in (-1, 5, 9):
        with pytest.raises(ValueError, match=rf"^point index {i} is not in \[0, 5\)$"):
            move_along_ray(frame, i, 2)


def test_ray_move_that_breaks_general_position_errors():
    # moving (1,4) to a quarter distance lands on the line through (2,1) and (6,1)
    frame = build_radial_frame((0, 0), [(2, 1), (6, 1), (1, 4)])
    with pytest.raises(ValueError):
        move_along_ray(frame, frame.points.index((1, 4)), F(1, 4))


# -- rational frames against the Fraction oracles ------------------------------

def _grid(lo, hi):
    """k/d in [lo, hi] with d in 1..3, so integer and rational coordinates mix."""
    return st.integers(1, 3).flatmap(lambda d: st.builds(F, st.integers(lo * d, hi * d), st.just(d)))


def _grid_points(lo, hi, y_lo=None, y_hi=None):
    return st.tuples(_grid(lo, hi), _grid(lo if y_lo is None else y_lo, hi if y_hi is None else y_hi))


# an angle opening downwards from above the box [-8, 8]^2, and points mostly in it
angles = st.tuples(_grid_points(-2, 2, 9, 12), _grid_points(-40, -30, -12, -9),
                   _grid_points(30, 40, -12, -9))


def _seventh(p):
    x, y = p
    return (F(x, 7), F(y, 7))


def _kept_in_general_position(points):
    kept = []
    for p in points:
        if p not in kept and all(orient(a, b, p) != 0 for a, b in combinations(kept, 2)):
            kept.append(p)
    return kept


@settings(max_examples=60, deadline=None)
@given(angles, st.lists(_grid_points(-8, 8), max_size=9))
def test_angle_frames_on_rational_grids_match_fraction_oracles(angle, points):
    apex, left, right = angle
    s = orient(apex, left, right)
    inside = [p for p in points if orient(apex, left, p) == s and orient(apex, right, p) == -s]
    kept = _kept_in_general_position([apex, left, right, *inside])
    assume(kept[:3] == [apex, left, right])
    pts = kept[3:]
    frame = build_angle_frame(apex, left, right, pts)
    n = len(pts)
    assert sorted(frame.interior, key=tuple) == sorted(pts, key=tuple)
    # left to right: each point turns from the left arm less than every later one
    assert all(orient(apex, u, v) == s for u, v in combinations(frame.interior, 2))
    nodes = (left, *frame.interior, right)  # chain node e is nodes[e + 1]

    @cache  # the polylines below ask again for crossings this loop has checked
    def crosses(i, u, v):
        """apex--P_i properly crosses the chord between chain nodes u and v."""
        return segments_properly_cross(apex, frame.interior[i], nodes[u + 1], nodes[v + 1])

    # bit i of the chord u--v mask, u < i < v, is the proper crossing of apex--P_i
    for u, v in combinations(range(-1, n + 1), 2):
        mask = frame.beyond[u + 1][v + 1]
        for i in range(u + 1, v):
            assert (mask >> i) & 1 == crosses(i, u, v)
        assert mask >> v == 0 and mask & ((1 << (u + 1)) - 1) == 0
    shrunk = build_angle_frame(_seventh(apex), _seventh(left), _seventh(right), map(_seventh, pts))
    assert shrunk.interior == tuple(map(_seventh, frame.interior))
    for polyline in all_polylines(frame):
        chain = (-1, *polyline, n)
        expected = []
        for k in range(n):
            if k in polyline:
                pos = chain.index(k)
                a, b = chain[pos - 1], chain[pos + 1]
            else:
                a, b = max(c for c in chain if c < k), min(c for c in chain if c > k)
            expected.append(int(crosses(k, a, b)) ^ (k in polyline))
        vec = polyline_charvec(frame, polyline)
        assert vec == tuple(expected) == polyline_charvec(shrunk, polyline)
        assert polyline_from_charvec(frame, vec) == polyline_from_charvec(shrunk, vec) == polyline


def _radial_frame_by_point_orient(center, pts):
    """Reference frame: reference direction and counter-clockwise sort on Fraction points."""
    cx, cy = center

    def cross(d, p):
        return d[0] * (p[1] - cy) - d[1] * (p[0] - cx)

    directions = ((0, -1) if k == 0 else (1, 1 - k) for k in count())
    ref = next(d for d in directions if all(cross(d, p) != 0 for p in pts))

    def cmp(p, q):
        return (cross(ref, q) > 0) - (cross(ref, p) > 0) or -orient(center, p, q)

    return ref, tuple(sorted(pts, key=cmp_to_key(cmp)))


@settings(max_examples=60, deadline=None)
@given(_grid_points(-2, 2), st.lists(_grid_points(-8, 8), min_size=4, max_size=8))
def test_radial_frames_on_rational_grids_match_fraction_oracles(center, points):
    center, *pts = _kept_in_general_position([center, *points])
    assume(pts)
    frame = build_radial_frame(center, pts)
    assert (frame.reference, frame.points) == _radial_frame_by_point_orient(center, pts)
    n = len(pts)
    ring = frame.points
    good = [poly for m in range(3, n + 1) for poly in combinations(range(n), m)
            if all(orient(center, ring[poly[j - 1]], ring[poly[j]]) == 1 for j in range(m))]
    assert enumerate_good_polygons(frame) == good
    shrunk = build_radial_frame(_seventh(center), map(_seventh, pts))
    assert (shrunk.reference, shrunk.points) == (frame.reference, tuple(map(_seventh, ring)))
    assert enumerate_good_polygons(shrunk) == good

    @cache  # the polygons below ask again for cones the chord loop has checked
    def in_cone(i, a, b):
        """The center lies strictly inside the cone at P_i spanned by P_a and P_b."""
        p, u, v = ring[i], ring[a], ring[b]
        s = orient(p, u, v)
        return orient(p, u, center) == s and orient(p, center, v) == s

    # of u--v and v--u one spans more than a half-turn, so every example has such chords
    for u, v in permutations(range(n), 2):
        assert (frame.ccw[u] >> v) & 1 == (orient(center, ring[u], ring[v]) == 1)
        inside = ((u + j) % n for j in range(1, (v - u) % n))
        assert frame.beyond[u][v] == sum(in_cone(k, u, v) << k for k in inside)
    for poly in good:
        m = len(poly)
        bits = []
        for i in range(n):
            if i in poly:
                pos = poly.index(i)
                a, b = poly[pos - 1], poly[(pos + 1) % m]
            else:
                pos = bisect_left(poly, i)
                a, b = poly[pos - 1], poly[pos % m]
            bits.append(int(in_cone(i, a, b) != (i in poly)))
        assert polygon_charvec(frame, poly) == tuple(bits) == polygon_charvec(shrunk, poly)


# -- outward projection -----------------------------------------------------

def test_projection_without_movers_returns_input():
    ps = PointSet.from_points([(0, 0), (8, 1), (4, 7)])
    assert project_to_convex_position(ps, 0) is ps
    one = PointSet.from_points([(0, 0), (9, 0), (5, 8), (4, 3)])
    assert project_to_convex_position(one, 3) is one
    for pivot in (-1, 4):
        with pytest.raises(ValueError, match=f"pivot {pivot} out of range"):
            project_to_convex_position(one, pivot)


def test_projection_from_hull_pivot_yields_convex_position():
    ps = PointSet.from_points(
        [(0, -10), (10, -3), (6, 9), (-6, 9), (-10, -3), (1, 2), (-2, -4)])
    assert len(ps.interior) == 2
    out = project_to_convex_position(ps, ps.hull[0])
    assert len(out.points) == 7
    assert out.interior == ()
    assert len(convex_hull(integer_view(out.points))) == len(out.points)
    # hull points kept verbatim
    for h in ps.hull:
        assert out.points[h] == ps.points[h]


def test_projection_retries_a_refused_placement_and_then_gives_up(monkeypatch):
    ps = PointSet.from_points(
        [(0, -10), (10, -3), (6, 9), (-6, 9), (-10, -3), (1, 2), (-2, -4)])
    pivot = ps.hull[0]
    first = project_to_convex_position(ps, pivot)
    real = geom.general_position_violation
    checked = []

    def refuse_first(xy):
        checked.append(xy)
        return (0, 1) if len(checked) == 1 else real(xy)

    monkeypatch.setattr(geom, "general_position_violation", refuse_first)
    out = project_to_convex_position(ps, pivot)
    # the refused first round checked the placement an unhindered run returns;
    # the second round places the same points, and only those, elsewhere
    assert checked == [first.xy, out.xy]
    assert out.interior == () and set(out.hull) == set(range(7))
    for i in range(7):
        assert (out.points[i] == first.points[i]) == (i not in ps.interior)
    monkeypatch.setattr(geom, "general_position_violation", lambda xy: checked.append(xy) or (0, 1))
    with pytest.raises(ConstructionError) as exc:
        project_to_convex_position(ps, pivot)
    assert str(exc.value) == f"no valid outward placement found for pivot {pivot} within 64 rounds"
    assert len(checked) == 2 + charvec.PROJECTION_ROUNDS


def test_projection_keeps_interior_pivot_and_non_closeness():
    ps = gen_random(8, 48, seed=0)
    rep = classify(ps)
    pivots = [p for p in ps.interior if p not in rep.assignment]
    assert pivots, "expected an interior point close to no side"
    pivot = pivots[0]
    out = project_to_convex_position(ps, pivot)
    assert out.interior == (pivot,)
    assert out.points[pivot] == ps.points[pivot]
    others = [out.points[i] for i in range(len(out.points)) if i != pivot]
    assert len(convex_hull(integer_view(others))) == len(others)
    assert pivot not in classify(out).assignment
    assert count_partial(out) <= count_partial(ps)


def test_projection_count_inequality_on_corpus():
    for k in range(12):
        ps = gen_random(3 + k % 6 + 3, 40, seed=8800 + k)
        if not ps.interior:
            continue
        pivot = ps.hull[0]
        out = project_to_convex_position(ps, pivot)
        assert len(convex_hull(integer_view(out.points))) == len(out.points)
        assert count_partial(out) <= count_partial(ps)
        assert count_partial(out) == polygon_triangulation_count(len(out.points))
