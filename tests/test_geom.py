import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tricensus.geom import (
    Point,
    PointSet,
    added_point_violation,
    convex_hull,
    format_points,
    general_position_violation,
    in_convex_position,
    integer_view,
    is_general_position,
    parse_points_text,
)
from tricensus.generators import gen_double_circle, gen_random

from oracles import BOUNDARY, INSIDE, OUTSIDE, orient, point_in_triangle, segments_properly_cross

P = Point


def test_orient_canonical_triples():
    assert orient(P(0, 0), P(1, 0), P(0, 1)) == 1
    assert orient(P(0, 0), P(1, 0), P(2, 0)) == 0
    assert orient(P(0, 0), P(0, 1), P(1, 0)) == -1


def test_orient_rational_coordinates():
    assert orient(P(0, 0), P(1, Fraction(1, 3)), P(2, Fraction(2, 3))) == 0
    assert orient(P(0, 0), P(1, Fraction(1, 3)), P(2, Fraction(7, 10))) == 1


def test_point_in_triangle_examples():
    a, b, c = P(0, 0), P(3, 0), P(0, 3)
    assert point_in_triangle(P(1, 1), a, b, c) == INSIDE
    assert point_in_triangle(P(0, 0), a, b, c) == BOUNDARY
    assert point_in_triangle(P(5, 5), a, b, c) == OUTSIDE
    assert point_in_triangle(P(1, 0), a, b, c) == BOUNDARY  # on an edge


def test_point_in_triangle_degenerate_raises():
    with pytest.raises(ValueError):
        point_in_triangle(P(1, 1), P(0, 0), P(1, 0), P(2, 0))


def test_segments_properly_cross_examples():
    assert segments_properly_cross(P(0, 0), P(2, 2), P(0, 2), P(2, 0))
    assert not segments_properly_cross(P(0, 0), P(2, 0), P(2, 0), P(3, 1))
    assert not segments_properly_cross(P(0, 0), P(1, 0), P(0, 1), P(1, 1))
    # T-touching is not a proper crossing
    assert not segments_properly_cross(P(0, 0), P(2, 0), P(1, 0), P(1, 1))


def test_convex_hull_examples():
    square = [P(0, 0), P(4, 0), P(4, 4), P(0, 4), P(2, 2)]
    assert convex_hull(square) == [0, 1, 2, 3]
    assert convex_hull([P(0, 0), P(5, 0), P(0, 5)]) == [0, 1, 2]
    ring = [P(0, 0), P(4, -1), P(6, 2), P(3, 5), P(-1, 3)]
    assert convex_hull(ring) == [4, 0, 1, 2, 3]  # ccw from the lexicographic minimum


def test_convex_hull_starts_at_lexicographic_minimum():
    pts = [P(4, 4), P(0, 0), P(4, 0), P(0, 4)]
    hull = convex_hull(pts)
    assert hull[0] == 1
    assert set(hull) == {0, 1, 2, 3}


def test_convex_hull_collinear_raises():
    with pytest.raises(ValueError):
        convex_hull([P(0, 0), P(1, 1), P(2, 2), P(3, 3)])


def test_general_position_witnesses():
    assert general_position_violation([P(0, 0), P(1, 0), P(0, 1)]) is None
    assert general_position_violation([P(0, 0), P(1, 1), P(2, 2)]) == (0, 1, 2)
    assert general_position_violation([P(0, 0), P(0, 0), P(1, 0)]) == (0, 1)
    assert is_general_position([P(0, 0), P(1, 0), P(0, 1)])
    assert added_point_violation([P(0, 0), P(1, 0)], P(0, 1)) is None
    assert added_point_violation([P(0, 0), P(1, 0)], P(1, 0)) == (1,)
    assert added_point_violation([P(0, 0), P(3, 1), P(1, 1)], P(2, 2)) == (0, 2)


def test_point_set_construction():
    ps = PointSet.from_coords([(0, 0), (4, 0), (4, 4), (0, 4), (2, 1)])
    assert ps.hull == (0, 1, 2, 3)
    assert ps.interior == (4,)
    assert ps.hull_sides() == ((0, 1), (1, 2), (2, 3), (3, 0))
    with pytest.raises(ValueError):
        PointSet.from_coords([(0, 0), (1, 1), (2, 2), (5, 0)])


def test_orient_table_matches_direct():
    ps = PointSet.from_coords([(0, 0), (7, 1), (5, 6), (2, 8), (3, 3)])
    tab = ps.orient_table()
    for i in range(5):
        for j in range(5):
            for k in range(5):
                if len({i, j, k}) == 3:
                    assert tab[i][j][k] == orient(
                        ps.points[i], ps.points[j], ps.points[k])


# -- properties -------------------------------------------------------------

coords = st.fractions(min_value=-50, max_value=50, max_denominator=8)
points = st.builds(P, coords, coords)


@given(points, points, points)
def test_orient_antisymmetry_and_rotation(p, q, r):
    s = orient(p, q, r)
    assert orient(q, r, p) == s
    assert orient(r, p, q) == s
    assert orient(q, p, r) == -s
    assert orient(p, r, q) == -s


@given(points, points, points, st.fractions(min_value=Fraction(1, 4), max_value=8, max_denominator=6),
       coords, coords)
def test_orient_invariant_under_scaling_and_translation(p, q, r, scale, dx, dy):
    def move(pt):
        return P(scale * pt.x + dx, scale * pt.y + dy)

    assert orient(p, q, r) == orient(move(p), move(q), move(r))


def _triple_loop_violation(pts):
    """Reference check: one duplicate pass over the whole set, then every triple."""
    seen = {}
    for i, p in enumerate(pts):
        if p in seen:
            return (seen[p], i)
        seen[p] = i
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                if orient(pts[i], pts[j], pts[k]) == 0:
                    return (i, j, k)
    return None


# a 4 x 4 grid, so duplicates and collinear triples are common
grid_points = st.lists(st.builds(P, st.integers(0, 3), st.integers(0, 3)), max_size=9)


@given(grid_points)
def test_general_position_violation_matches_triple_loop(pts):
    witness = general_position_violation(pts)
    assert (witness is None) == (_triple_loop_violation(pts) is None)
    if witness is None:
        return
    assert list(witness) == sorted(set(witness))
    if len(witness) == 2:
        assert pts[witness[0]] == pts[witness[1]]
    else:
        assert len(witness) == 3 and orient(*(pts[i] for i in witness)) == 0
    # the witness ends at the first index that breaks general position
    assert _triple_loop_violation(pts[:witness[-1]]) is None


def _pairwise_added_violation(pts, new):
    """Reference check: an equal-point pass, then every pair of points against ``new``."""
    for i, p in enumerate(pts):
        if p == new:
            return (i,)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if orient(pts[i], pts[j], new) == 0:
                return (i, j)
    return None


# k/d with d in 1..3 on a small grid: integer and rational points mix, and
# equal points and collinear triples are common
grid_fractions = st.builds(Fraction, st.integers(0, 4), st.integers(1, 3))
rational_grid_points = st.lists(st.builds(P, grid_fractions, grid_fractions), max_size=9)


@given(st.one_of(grid_points, rational_grid_points))
def test_violation_witnesses_match_pairwise_loop(pts):
    expected = None
    for k in range(len(pts)):
        witness = _pairwise_added_violation(pts[:k], pts[k])
        assert added_point_violation(pts[:k], pts[k]) == witness
        if expected is None and witness is not None:
            expected = (*witness, k)
    assert general_position_violation(pts) == expected


def test_added_point_violation_exact_near_2_to_80():
    big = 2 ** 80
    new = P(big, big + 1)

    def at(dx, dy):
        return P(new.x + dx, new.y + dy)

    # (3 * 2^80 + 1, 5 * 2^80) and (3, 5) have equal float slopes but are not parallel
    near = at(3 * big + 1, 5 * big)
    assert added_point_violation([at(3, 5), near], new) is None
    assert added_point_violation([at(-7, 2), at(3, 5), near, at(-3 * big, -5 * big)], new) == (1, 3)
    assert general_position_violation([new, at(3, 5), near]) is None
    assert general_position_violation([at(3, 5), new, near, at(6, 10)]) == (0, 1, 3)
    assert added_point_violation([at(1, 1), new], new) == (1,)
    # rational coordinates near 2^80 stay exact once the integer view scales them by
    # the lcm of their denominators
    third = Fraction(1, 3)
    new = P(Fraction(big + 1, 3), Fraction(big, 7))
    assert added_point_violation([at(third, 1), at(big * third + third, big)], new) is None
    assert added_point_violation([at(third, 1), at(big * third, big)], new) == (0, 1)


@pytest.mark.parametrize("ps, ends, witness", [
    (gen_random(60, 256, 5), (58, 59), (31, 36, 60)),
    (gen_double_circle(38), (10, 50), (10, 50, 76)),
])
def test_large_sets_load_unchanged_and_reject_a_shared_line(ps, ends, witness):
    loaded = PointSet.from_points(ps.points)
    assert (loaded.points, loaded.hull, loaded.interior) == (ps.points, ps.hull, ps.interior)
    # the midpoint of two points is on their line, and here maybe on a lower-indexed one too
    a, b = (ps.points[i] for i in ends)
    extended = ps.points + (P((a.x + b.x) / 2, (a.y + b.y) / 2),)
    assert general_position_violation(extended) == witness
    with pytest.raises(ValueError, match=re.escape(f"collinear points at indices {witness}")):
        PointSet.from_points(extended)


@given(points, points, points, points)
def test_point_in_triangle_permutation_invariant(p, a, b, c):
    if orient(a, b, c) == 0:
        return
    base = point_in_triangle(p, a, b, c)
    assert point_in_triangle(p, b, c, a) == base
    assert point_in_triangle(p, c, b, a) == base
    assert point_in_triangle(p, b, a, c) == base


@given(points, points, points, points)
def test_segments_properly_cross_symmetries(a, b, c, d):
    if a == b or c == d:
        return
    base = segments_properly_cross(a, b, c, d)
    assert segments_properly_cross(c, d, a, b) == base
    assert segments_properly_cross(b, a, c, d) == base
    assert segments_properly_cross(a, b, d, c) == base


@given(st.lists(points, min_size=3, max_size=9, unique=True),
       st.randoms(use_true_random=False))
def test_convex_hull_permutation_invariant(pts, rnd):
    try:
        base = [pts[i] for i in convex_hull(pts)]
    except ValueError:
        return
    shuffled = list(pts)
    rnd.shuffle(shuffled)
    assert [shuffled[i] for i in convex_hull(shuffled)] == base


# -- the integer view against the Point predicates it replaced --------------

def _hull_by_point_orient(points):
    """Reference hull: the monotone chain on Fraction coordinates with orient."""
    if len(points) < 3:
        raise ValueError("convex hull needs at least 3 points")
    order = sorted(range(len(points)), key=lambda i: (points[i].x, points[i].y))
    for s, t in zip(order, order[1:]):
        if points[s] == points[t]:
            raise ValueError(f"duplicate point at indices {s} and {t}")

    def chain(idx_iter):
        out = []
        for i in idx_iter:
            while len(out) >= 2 and orient(points[out[-2]], points[out[-1]], points[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    hull = chain(order)[:-1] + chain(reversed(order))[:-1]
    if len(hull) < 3:
        raise ValueError("all points are collinear")
    return hull


def _orient_table_from_points(points):
    """Reference table: orient on every triple of Points."""
    return [[[orient(a, b, c) for c in points] for b in points] for a in points]


# wider grids than grid_points, so that hulls have interior points; the
# rational one mixes the denominators 1, 2 and 3
wide_grid_points = st.lists(st.builds(P, st.integers(-9, 9), st.integers(-9, 9)), max_size=12)
wide_fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 3))
wide_rational_points = st.lists(st.builds(P, wide_fractions, wide_fractions), max_size=12)
any_grid_points = st.one_of(grid_points, rational_grid_points, wide_grid_points, wide_rational_points)


def test_integer_view_scales_by_the_lcm_of_the_denominators():
    assert integer_view([P(3, -4), P(0, 7)]) == ((3, -4), (0, 7))
    assert integer_view([P(Fraction(1, 2), Fraction(1, 3)), P(2, Fraction(-5, 6))]) == ((3, 2), (12, -5))
    ps = PointSet.from_coords([(0, 0), (Fraction(7, 2), 0), (0, Fraction(5, 3))])
    assert ps.xy == ((0, 0), (21, 0), (0, 10)) and not ps._cache


@given(any_grid_points)
def test_convex_hull_matches_point_orient_chain(pts):
    try:
        expected = _hull_by_point_orient(pts)
    except ValueError as exc:  # too few, duplicate or collinear points: the same error
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            convex_hull(pts)
        return
    assert convex_hull(pts) == expected


@given(any_grid_points)
def test_orient_table_matches_point_built_table(pts):
    # the raw constructor, so that equal points and collinear triples reach the table
    ps = PointSet(tuple(pts), (), ())
    assert ps.orient_table() == _orient_table_from_points(pts)


def test_hull_and_table_match_on_ring_families():
    for m in range(3, 11):
        ps = gen_double_circle(m)
        assert list(ps.hull) == _hull_by_point_orient(ps.points)
        assert ps.orient_table() == _orient_table_from_points(ps.points)


# -- text format ------------------------------------------------------------

def test_parse_points_text():
    text = "# tricensus points v1\n0 0\n4 0   # a corner\n\n1/2 9/20\n-7 +3\n-6/4 012/05\n"
    pts = parse_points_text(text)
    assert pts == [P(0, 0), P(4, 0), P(Fraction(1, 2), Fraction(9, 20)), P(-7, 3),
                   P(Fraction(-3, 2), Fraction(12, 5))]
    # the v1 grammar is an integer or p/q with q > 0, in ASCII digits, and nothing else
    for token in ("1e-3", "1E3", "1_0", "0.5", "1/0", "1/00", "1/-4", "1/+4", "-1/2/3",
                  "1/", "/2", "--1", "+-1", "0x10", "inf", "nan", "\u0663", "1/2e1"):
        with pytest.raises(ValueError) as exc:
            parse_points_text(f"# tricensus points v1\n{token} 0\n")
        assert str(exc.value) == f"bad coordinate {token!r}: expected an integer or p/q with q > 0"


def test_parse_agrees_with_the_fraction_string_parser():
    for token in ("0", "+3", "-0", "+0/7", "007/0010", "-12/4", "-5/1", "10/0003",
                  "123456789012345678901234567890/98765432109876543210"):
        text = f"# tricensus points v1\n{token} 1\n"
        assert parse_points_text(text) == [P(Fraction(token), 1)], token


def test_parse_rejects_missing_header_and_bad_tokens():
    with pytest.raises(ValueError):
        parse_points_text("0 0\n1 1\n")
    with pytest.raises(ValueError):
        parse_points_text("# tricensus points v1\n0.5 1\n")
    with pytest.raises(ValueError):
        parse_points_text("# tricensus points v1\n1 2 3\n")
    with pytest.raises(ValueError):
        parse_points_text("# tricensus points v1\n1/-4 0\n")


def test_format_round_trip():
    pts = [P(0, 0), P(-3, 7), P(Fraction(1, 2), Fraction(-9, 20))]
    assert parse_points_text(format_points(pts)) == pts


def test_in_convex_position():
    assert in_convex_position([P(0, 0), P(4, -1), P(6, 2), P(3, 5), P(-1, 3)])
    assert not in_convex_position([P(0, 0), P(4, 0), P(4, 4), P(0, 4), P(2, 2)])
