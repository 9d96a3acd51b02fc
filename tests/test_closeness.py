from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from tricensus import closeness
from tricensus.catalan import polygon_triangulation_count
from tricensus.closeness import (
    QuasiConvexReport,
    classify,
    close_via_neighbor_triangles,
    find_blocking_apex,
)
from tricensus.generators import gen_convex, gen_double_circle, gen_quasi_convex, gen_random
from tricensus.geom import PointSet, added_xy_violation, integer_view
from tricensus.triangulations import brute_force_count, count_partial

from oracles import INSIDE, orient, point_in_triangle

SQUARE_PLUS_LOW = [(0, 0), (1, 0), (1, 1), (0, 1), (Fraction(1, 2), Fraction(9, 20))]
PENTAGON_PLUS_CENTER = [(0, -10), (10, -3), (6, 9), (-6, 9), (-10, -3), (0, 0)]


def test_triangle_interior_point_is_close_to_every_side():
    ps = PointSet.from_points([(0, 0), (6, 0), (0, 6), (2, 2)])
    for side in ps.hull_sides():
        assert find_blocking_apex(ps, 3, side) is None


def test_square_point_close_to_bottom_not_top():
    ps = PointSet.from_points(SQUARE_PLUS_LOW)
    assert find_blocking_apex(ps, 4, (0, 1)) is None
    assert find_blocking_apex(ps, 4, (2, 3)) == 0
    # sides may be given in either orientation
    assert find_blocking_apex(ps, 4, (1, 0)) is None


def test_find_blocking_apex_validates_arguments():
    ps = PointSet.from_points(SQUARE_PLUS_LOW)
    with pytest.raises(ValueError):
        find_blocking_apex(ps, 0, (0, 1))  # not interior
    with pytest.raises(ValueError):
        find_blocking_apex(ps, 4, (0, 2))  # not a hull side


def test_classify_convex_polygon():
    rep = classify(gen_convex(6, 64, seed=9))
    assert rep.is_quasi_convex
    assert rep.assignment == {}
    assert rep.polygon_order is not None and len(rep.polygon_order) == 6


def test_classify_double_circle():
    ps = gen_double_circle(3)
    rep = classify(ps)
    assert rep.is_quasi_convex
    assert set(rep.assignment) == set(ps.interior)
    # each hull side carries exactly one close point
    assert sorted(rep.assignment.values()) == sorted(ps.hull_sides())
    # the polygon order alternates hull and interior points
    order = rep.polygon_order
    assert len(order) == 6
    hull = set(ps.hull)
    for i, v in enumerate(order):
        assert (v in hull) == (i % 2 == 0)


def test_classify_pentagon_with_center_is_not_quasi_convex():
    ps = PointSet.from_points(PENTAGON_PLUS_CENTER)
    rep = classify(ps)
    assert not rep.is_quasi_convex
    assert rep.polygon_order is None
    assert rep.assignment == {}
    for side in ps.hull_sides():
        apex = find_blocking_apex(ps, 5, side)
        assert apex is not None and apex not in (5, *side)
        corners = [ps.points[i] for i in (apex, *side)]
        assert point_in_triangle(ps.points[5], *corners) != INSIDE


def test_equality_iff_quasi_convex_on_small_corpus():
    for k in range(30):
        n = 4 + k % 6
        ps = gen_random(n, 48, seed=3100 + k)
        rep = classify(ps)
        equal = count_partial(ps) == polygon_triangulation_count(len(ps.points))
        assert equal == rep.is_quasi_convex


def _blocking_apex_by_point_in_triangle(ps, p, side):
    """Reference scan: first apex whose triangle over the side does not hold p INSIDE."""
    pts = ps.points
    for apex in range(len(pts)):
        if apex not in (p, *side) and point_in_triangle(
                pts[p], pts[apex], pts[side[0]], pts[side[1]]) != INSIDE:
            return apex
    return None


def test_at_most_one_close_point_per_side():
    for k in range(25):
        ps = gen_random(4 + k % 6, 32, seed=880 + k)
        seen = {}
        for p in ps.interior:
            for side in ps.hull_sides():
                expected = _blocking_apex_by_point_in_triangle(ps, p, side)
                assert find_blocking_apex(ps, p, side) == expected
                assert find_blocking_apex(ps, p, side[::-1]) == expected
                if expected is None:
                    assert side not in seen, (side, seen[side], p)
                    seen[side] = p


def test_close_via_neighbor_triangles_examples():
    assert close_via_neighbor_triangles(PointSet.from_points(SQUARE_PLUS_LOW), 4)
    assert not close_via_neighbor_triangles(PointSet.from_points(PENTAGON_PLUS_CENTER), 5)
    assert close_via_neighbor_triangles(
        PointSet.from_points([(0, 0), (9, 1), (2, 7), (3, 2)]), 3)


def test_close_via_neighbor_triangles_requires_single_interior():
    ps = PointSet.from_points([(0, 0), (12, 0), (12, 12), (0, 12), (5, 2), (6, 10)])
    with pytest.raises(ValueError):
        close_via_neighbor_triangles(ps, 4)


def test_neighbor_triangle_rule_agrees_with_classify():
    for k in range(40):
        ps = gen_random(4 + k % 5, 64, seed=7600 + k)
        if len(ps.interior) != 1:
            continue
        p = ps.interior[0]
        rep = classify(ps)
        assert close_via_neighbor_triangles(ps, p) == (p in rep.assignment)


def test_classify_invariant_under_positive_affine_maps():
    ps = gen_double_circle(3)
    rep = classify(ps)

    # det = 2*3 - 1*1 = 5 > 0
    mapped = PointSet.from_points([(2 * x + 1 * y + 7, 1 * x + 3 * y - 4) for x, y in ps.points])
    rep2 = classify(mapped)
    assert rep2.is_quasi_convex == rep.is_quasi_convex
    assert rep2.assignment == rep.assignment

    def rotations(seq):
        return [seq[i:] + seq[:i] for i in range(len(seq))]

    assert tuple(rep2.polygon_order) in rotations(tuple(rep.polygon_order))


# -- the per-side classify against the routines it replaced ------------------

def _blocking_apex_by_point_orient(ps, p, side):
    """Reference scan: the two orient signs per apex, on Fraction points."""
    q, r = side if side in ps.hull_sides() else side[::-1]
    pts = ps.points
    target, qp, rp = pts[p], pts[q], pts[r]
    for apex, a in enumerate(pts):
        if apex not in (p, q, r) and (orient(rp, a, target) != 1 or orient(a, qp, target) != 1):
            return apex
    return None


def _classify_every_point_and_side(ps):
    """Reference classify: each interior point tries every side in hull order."""
    sides = ps.hull_sides()
    assignment = {}
    for p in ps.interior:
        for side in sides:
            if _blocking_apex_by_point_orient(ps, p, side) is None:
                assignment[p] = side
                break
    by_side = {side: p for p, side in assignment.items()}
    assert len(by_side) == len(assignment)
    order = None
    if len(assignment) == len(ps.interior):
        order = tuple(v for side in sides for v in (side[0], by_side.get(side)) if v is not None)
    return QuasiConvexReport(order is not None, assignment, order)


def _assert_matches_references(ps):
    report = classify(ps)
    expected = _classify_every_point_and_side(ps)
    assert report == expected
    assert list(report.assignment.items()) == list(expected.assignment.items())
    for p in ps.interior:
        for side in ps.hull_sides():
            apex = _blocking_apex_by_point_orient(ps, p, side)
            assert find_blocking_apex(ps, p, side) == apex
            assert find_blocking_apex(ps, p, side[::-1]) == apex
    return report


def _in_general_position(points):
    kept = []
    for p in points:
        *xy, new = integer_view((*kept, p))
        if added_xy_violation(xy, new) is None:
            kept.append(p)
    return kept


def _point_sets(coord):
    return (st.lists(st.tuples(coord, coord), min_size=3, max_size=12)
            .map(_in_general_position).filter(lambda pts: len(pts) >= 3)
            .map(PointSet.from_points))


# integer grids, and k/d grids that mix the denominators 1, 2 and 3
integer_point_sets = _point_sets(st.integers(-12, 12))
rational_point_sets = _point_sets(st.builds(Fraction, st.integers(-30, 30), st.integers(1, 3)))


@settings(max_examples=150)
@given(st.one_of(integer_point_sets, rational_point_sets))
def test_classify_matches_references_on_grids(ps):
    _assert_matches_references(ps)


def _close_by_point_in_triangle(ps, p):
    """Reference neighbor-triangle rule: point_in_triangle on the Fraction points."""
    pts, hull = ps.points, ps.hull
    h = len(hull)
    return any(
        point_in_triangle(pts[p], pts[hull[j]], pts[hull[(j + 1) % h]], pts[hull[(j + 2) % h]]) == INSIDE
        and point_in_triangle(pts[p], pts[hull[j - 1]], pts[hull[j]], pts[hull[(j + 1) % h]]) == INSIDE
        for j in range(h))


@given(st.one_of(integer_point_sets, rational_point_sets))
def test_neighbor_triangle_rule_matches_point_in_triangle_on_grids(ps):
    assume(ps.interior)
    # the hull and its first interior point: a set with one interior point
    one = PointSet.from_points([ps.points[i] for i in ps.hull] + [ps.points[ps.interior[0]]])
    p = len(ps.hull)
    assert one.interior == (p,)
    assert close_via_neighbor_triangles(one, p) == _close_by_point_in_triangle(one, p)


def _rescaled(ps, factor, dx=0, dy=0):
    return PointSet.from_points([(factor * x + dx, factor * y + dy) for x, y in ps.points])


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 8), st.data())
def test_classify_matches_references_on_quasi_convex_sets(h, data):
    sides = data.draw(st.sets(st.integers(0, h - 1)))
    ps = gen_quasi_convex(h, sides)
    report = _assert_matches_references(ps)
    assert report.is_quasi_convex and len(report.assignment) == len(sides)
    # the same set on a k/d grid gives the same report
    d = data.draw(st.integers(1, 3))
    shifted = _rescaled(ps, Fraction(1, 7 * d), Fraction(data.draw(st.integers(-9, 9)), d))
    assert _assert_matches_references(shifted) == report


def test_classify_matches_references_on_double_circles():
    for m in range(3, 11):
        ps = gen_double_circle(m)
        report = _assert_matches_references(ps)
        assert report.is_quasi_convex and len(report.assignment) == m
        assert classify(_rescaled(ps, Fraction(1, 7))) == report


def test_triangle_point_takes_its_first_close_side():
    ps = PointSet.from_points([(0, 0), (6, 0), (0, 6), (2, 2)])
    report = _assert_matches_references(ps)
    assert report.assignment == {3: ps.hull_sides()[0]}
    assert report.polygon_order == (0, 3, 1, 2)


def test_classify_calls_no_blocking_apex_scan(monkeypatch):
    def refuse(ps, p, side):
        raise AssertionError(f"classify called find_blocking_apex({p}, {side})")

    sets = (gen_double_circle(10), gen_quasi_convex(8, (1, 4, 5)), gen_random(12, 48, seed=4),
            PointSet.from_points(PENTAGON_PLUS_CENTER))
    with monkeypatch.context() as patch:
        patch.setattr(closeness, "find_blocking_apex", refuse)
        reports = [classify(ps) for ps in sets]
    for ps, report in zip(sets, reports):
        assert report == _assert_matches_references(ps)


def _others_left_of(ps, u, v, side):
    """True when every point other than u, v and the side's endpoints is left of u -> v."""
    pts = ps.points
    return all(orient(pts[u], pts[v], pts[a]) == 1 for a in range(len(pts)) if a not in (u, v, *side))


@pytest.mark.parametrize("coords, side, p, apex, expected", [
    # 2 turns least from 0 over (0, 3) but not from 3, then is close to (3, 4)
    ([(1, 21), (1, 25), (7, 15), (2, 5), (20, 29)], (0, 3), 2, 1,
     QuasiConvexReport(True, {2: (3, 4)}, (0, 3, 2, 4, 1))),
    # 2 turns least from 1 over (1, 5) but not from 5, and is close to no side
    ([(7, 0), (1, 7), (4, 3), (5, 8), (8, 2), (1, 1)], (1, 5), 2, 3,
     QuasiConvexReport(False, {}, None)),
    # from 4 the interior point 0, not a hull vertex, turns less than 1
    ([(4, 6), (6, 7), (6, 8), (1, 4), (8, 7)], (3, 4), 1, 0,
     QuasiConvexReport(True, {0: (2, 3), 1: (4, 2)}, (3, 4, 1, 2, 0))),
])
def test_classify_rejects_a_candidate_the_scan_from_r_does_not_pick(coords, side, p, apex, expected):
    ps = PointSet.from_points(coords)
    assert side in ps.hull_sides() and p in ps.interior
    q, r = side
    # the scan from q picks p, the scan from r does not
    assert _others_left_of(ps, q, p, side)
    assert not _others_left_of(ps, p, r, side)
    assert find_blocking_apex(ps, p, side) == apex
    assert _assert_matches_references(ps) == expected


# -- both sides of the closeness boundary -------------------------------------

def _close_by_oracle(pts, p, q, r):
    """p lies strictly inside every triangle over q -> r, by point_in_triangle."""
    return all(point_in_triangle(pts[p], pts[q], pts[r], pts[a]) == INSIDE
               for a in range(len(pts)) if a not in (p, q, r))


def _closeness_boundary(ps):
    """(p, side, step, near, far) for a quasi-convex integer set ``ps``.

    p is the lowest-numbered interior point and side = (q, r) the first hull
    side it is close to.  On the set scaled by 64, p moves inward by whole
    steps, each the primitive inward normal of q -> r; ``near`` holds p at
    the last step at which it is still close, and ``far`` one step further.
    Only the rational oracle decides closeness, so the construction trusts
    none of the code under test.  The positions at which p is close are the
    intersection of the open triangles over the side, a convex set, so p
    leaves it once and a binary search finds that step.
    """
    assert ps.scale == 1
    pts = [(64 * x, 64 * y) for x, y in ps.xy]
    p = min(ps.interior)
    q, r = next(side for side in ps.hull_sides() if _close_by_oracle(pts, p, *side))
    (px, py), (qx, qy), (rx, ry) = pts[p], pts[q], pts[r]
    g = gcd(ry - qy, rx - qx)
    dx, dy = -(ry - qy) // g, (rx - qx) // g

    def moved(k):
        return [*pts[:p], (px + k * dx, py + k * dy), *pts[p + 1:]]

    lo, hi = 0, 1  # p is close at lo and, once the doubling stops, not at hi
    while _close_by_oracle(moved(hi), p, q, r):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _close_by_oracle(moved(mid), p, q, r) else (lo, mid)
    near, far = PointSet.from_points(moved(lo)), PointSet.from_points(moved(hi))
    assert near.hull == far.hull == ps.hull
    return p, (q, r), lo, near, far


@pytest.mark.parametrize("hull, sides, p, side, step, blocker, excess", [
    (12, None, 12, (0, 1), 58, 23, 11_338_026_180),
    (16, range(0, 16, 2), 16, (0, 1), 45, 15, 11_338_026_180),
    (20, range(0, 20, 2), 20, (0, 1), 43, None, 32_798_844_771_700),
    (6, (1, 4), 6, (1, 2), 2997, None, 14),
    (6, (0, 2, 5), 6, (0, 1), 207, None, 48),
    (7, (0, 3, 5), 7, (0, 1), 10039, None, 165),
], ids=["dc24", "qc24", "qc30", "qc8", "qc9", "qc10"])
def test_both_sides_of_the_closeness_boundary(hull, sides, p, side, step, blocker, excess):
    """One step apart, the close side keeps the equality and the far side
    exceeds C(n-2).  On the two 24-point sets the far side's first blocker is
    the point just before q in the polygon order: the previous side's close
    point in the double circle, the hull vertex before q in the quasi-convex
    set.  The whole table takes about 1.3 s."""
    ps = gen_double_circle(hull) if sides is None else gen_quasi_convex(hull, sides)
    catalan = polygon_triangulation_count(len(ps.xy))
    found = _closeness_boundary(ps)
    assert found[:3] == (p, side, step)
    near, far = found[3:]
    report = classify(near)
    assert report.is_quasi_convex and report.assignment[p] == side
    assert count_partial(near) == catalan
    report = classify(far)
    assert not report.is_quasi_convex and p not in report.assignment
    total = count_partial(far)
    assert total - catalan == excess
    if blocker is not None:
        assert find_blocking_apex(far, p, side) == blocker
    if len(ps.xy) <= 10:
        corners = frozenset(far.hull)
        assert total == sum(brute_force_count(far, corners | frozenset(sub))
                            for k in range(len(far.interior) + 1)
                            for sub in combinations(far.interior, k))
