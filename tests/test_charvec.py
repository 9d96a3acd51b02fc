from fractions import Fraction

import pytest

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
from tricensus.errors import SizeCapError
from tricensus.generators import gen_angle_frame, gen_radial_frame, gen_random
from tricensus.geom import Point, PointSet, in_convex_position
from tricensus.triangulations import count_partial

P = Point
F = Fraction

APEX, LEFT, RIGHT = P(0, 4), P(-4, 0), P(4, 0)


def test_build_angle_frame_sorts_left_to_right():
    frame = build_angle_frame(APEX, LEFT, RIGHT, [P(1, 1), P(-1, 1)])
    assert frame.interior == (P(-1, 1), P(1, 1))


def test_build_angle_frame_empty():
    frame = build_angle_frame(APEX, LEFT, RIGHT, [])
    assert frame.interior == ()
    assert polyline_charvec(frame, ()) == ()
    assert polyline_from_charvec(frame, ()) == ()


def test_build_angle_frame_rejects_point_outside():
    with pytest.raises(ValueError):
        build_angle_frame(APEX, LEFT, RIGHT, [P(0, 5)])


def test_charvec_single_point_inside_arm_triangle():
    frame = build_angle_frame(APEX, LEFT, RIGHT, [P(0, 1)])
    assert polyline_charvec(frame, ()) == (0,)
    assert polyline_charvec(frame, (0,)) == (1,)
    assert polyline_from_charvec(frame, (0,)) == ()
    assert polyline_from_charvec(frame, (1,)) == (0,)


def test_charvec_single_point_beyond_arm_chord():
    frame = build_angle_frame(APEX, LEFT, RIGHT, [P(0, -2)])
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
    frame = build_radial_frame(P(0, 0), [P(0, -3), P(2, 1)])
    assert frame.reference != (0, -1)
    assert frame.reference == (1, 0)


def test_radial_frame_singleton():
    frame = build_radial_frame(P(0, 0), [P(3, 2)])
    assert frame.points == (P(3, 2),)


def test_radial_frame_compass_order():
    # perturbed compass points, counter-clockwise from straight down
    frame = build_radial_frame(P(0, 0), [P(1, 7), P(-7, 2), P(-2, -7), P(7, 1)])
    assert frame.reference == (0, -1)
    assert frame.points == (P(7, 1), P(1, 7), P(-7, 2), P(-2, -7))


def test_good_polygon_needs_to_wrap_the_center():
    frame = build_radial_frame(P(0, 0), [P(0, 1), P(-1, F(1, 2)), P(1, F(1, 2))])
    assert enumerate_good_polygons(frame) == []


def test_polygon_charvec_chord_between_center_and_point():
    # polygon passes above (0,1): its bracketing chord lies between it and the center
    frame = build_radial_frame(P(0, 0), [P(0, 1), P(-1, F(1, 2)), P(1, F(1, 2)), P(1, -3)])
    assert frame.points == (P(1, F(1, 2)), P(0, 1), P(-1, F(1, 2)), P(1, -3))
    poly = (0, 2, 3)
    assert is_good_polygon(frame, poly)
    assert polygon_charvec(frame, poly)[1] == 1


def test_polygon_charvec_chord_beyond_point():
    frame = build_radial_frame(P(0, 0), [P(0, F(1, 2)), P(-1, 1), P(1, 1), P(1, -3)])
    assert frame.points == (P(1, 1), P(0, F(1, 2)), P(-1, 1), P(1, -3))
    poly = (0, 2, 3)
    assert is_good_polygon(frame, poly)
    assert polygon_charvec(frame, poly)[1] == 0


def test_polygon_charvec_triangle_vertices_all_zero():
    frame = build_radial_frame(P(0, 0), [P(2, 1), P(-3, 2), P(1, -3)])
    polys = enumerate_good_polygons(frame)
    assert len(polys) == 1
    assert polygon_charvec(frame, polys[0]) == (0, 0, 0)


def test_polygon_charvec_rejects_bad_polygon():
    frame = build_radial_frame(P(0, 0), [P(2, 1), P(-3, 2), P(1, -3), P(3, 3)])
    with pytest.raises(ValueError):
        polygon_charvec(frame, (0, 1))
    bad = next((v for v in [(0, 1, 3)] if not is_good_polygon(frame, v)), None)
    if bad is not None:
        with pytest.raises(ValueError):
            polygon_charvec(frame, bad)


def test_psi_injectivity_on_seeded_frames():
    for k in range(16):
        frame = gen_radial_frame(3 + k % 6, seed=300 + k)
        assert find_charvec_collision(frame) is None


def test_good_polygon_enumeration_cap():
    frame = gen_radial_frame(11, seed=1)
    with pytest.raises(SizeCapError):
        enumerate_good_polygons(frame)


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


def test_ray_move_that_breaks_general_position_errors():
    # moving (1,4) to a quarter distance lands on the line through (2,1) and (6,1)
    frame = build_radial_frame(P(0, 0), [P(2, 1), P(6, 1), P(1, 4)])
    with pytest.raises(ValueError):
        move_along_ray(frame, frame.points.index(P(1, 4)), F(1, 4))


# -- outward projection -----------------------------------------------------

def test_projection_without_movers_returns_input():
    ps = PointSet.from_coords([(0, 0), (8, 1), (4, 7)])
    assert project_to_convex_position(ps, 0) is ps
    one = PointSet.from_coords([(0, 0), (9, 0), (5, 8), (4, 3)])
    assert project_to_convex_position(one, 3) is one


def test_projection_from_hull_pivot_yields_convex_position():
    ps = PointSet.from_coords(
        [(0, -10), (10, -3), (6, 9), (-6, 9), (-10, -3), (1, 2), (-2, -4)])
    assert len(ps.interior) == 2
    out = project_to_convex_position(ps, ps.hull[0])
    assert len(out.points) == 7
    assert out.interior == ()
    assert in_convex_position(out.points)
    # hull points kept verbatim
    for h in ps.hull:
        assert out.points[h] == ps.points[h]


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
    assert in_convex_position(others)
    assert pivot not in classify(out).assignment
    assert count_partial(out) <= count_partial(ps)


def test_projection_count_inequality_on_corpus():
    for k in range(12):
        ps = gen_random(3 + k % 6 + 3, 40, seed=8800 + k)
        if not ps.interior:
            continue
        pivot = ps.hull[0]
        out = project_to_convex_position(ps, pivot)
        assert in_convex_position(out.points)
        assert count_partial(out) <= count_partial(ps)
        assert count_partial(out) == polygon_triangulation_count(len(out.points))
