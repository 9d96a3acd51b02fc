import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tricensus import charvec, closeness, generators, geom, harness, triangulations
from tricensus.closeness import classify
from tricensus.geom import (
    POINTS_HEADER,
    PointSet,
    added_xy_violation,
    convex_hull,
    format_points,
    general_position_violation,
    integer_view,
    load_point_set,
    parse_points_text,
    save_point_set,
)
from tricensus.generators import (
    gen_angle_frame,
    gen_double_circle,
    gen_quasi_convex,
    gen_radial_frame,
    gen_random,
)
from tricensus.harness import verify_instance
from tricensus.triangulations import count_partial

from oracles import BOUNDARY, INSIDE, OUTSIDE, orient, point_in_triangle, segments_properly_cross


def _added_violation(points, new):
    """added_xy_violation on the integer view of ``points`` and ``new`` together."""
    *xy, new_xy = integer_view((*points, new))
    return added_xy_violation(xy, new_xy)


def test_orient_canonical_triples():
    assert orient((0, 0), (1, 0), (0, 1)) == 1
    assert orient((0, 0), (1, 0), (2, 0)) == 0
    assert orient((0, 0), (0, 1), (1, 0)) == -1


def test_orient_rational_coordinates():
    assert orient((0, 0), (1, Fraction(1, 3)), (2, Fraction(2, 3))) == 0
    assert orient((0, 0), (1, Fraction(1, 3)), (2, Fraction(7, 10))) == 1


def test_point_in_triangle_examples():
    a, b, c = (0, 0), (3, 0), (0, 3)
    assert point_in_triangle((1, 1), a, b, c) == INSIDE
    assert point_in_triangle((0, 0), a, b, c) == BOUNDARY
    assert point_in_triangle((5, 5), a, b, c) == OUTSIDE
    assert point_in_triangle((1, 0), a, b, c) == BOUNDARY  # on an edge


def test_point_in_triangle_degenerate_raises():
    with pytest.raises(ValueError):
        point_in_triangle((1, 1), (0, 0), (1, 0), (2, 0))


def test_segments_properly_cross_examples():
    assert segments_properly_cross((0, 0), (2, 2), (0, 2), (2, 0))
    assert not segments_properly_cross((0, 0), (2, 0), (2, 0), (3, 1))
    assert not segments_properly_cross((0, 0), (1, 0), (0, 1), (1, 1))
    # T-touching is not a proper crossing
    assert not segments_properly_cross((0, 0), (2, 0), (1, 0), (1, 1))


def test_convex_hull_examples():
    square = [(0, 0), (4, 0), (4, 4), (0, 4), (2, 2)]
    assert convex_hull(integer_view(square)) == [0, 1, 2, 3]
    assert convex_hull(integer_view([(0, 0), (5, 0), (0, 5)])) == [0, 1, 2]
    ring = [(0, 0), (4, -1), (6, 2), (3, 5), (-1, 3)]
    assert convex_hull(integer_view(ring)) == [4, 0, 1, 2, 3]  # ccw from the lexicographic minimum


def test_convex_hull_starts_at_lexicographic_minimum():
    pts = [(4, 4), (0, 0), (4, 0), (0, 4)]
    hull = convex_hull(integer_view(pts))
    assert hull[0] == 1
    assert set(hull) == {0, 1, 2, 3}


def test_convex_hull_collinear_raises():
    with pytest.raises(ValueError):
        convex_hull(integer_view([(0, 0), (1, 1), (2, 2), (3, 3)]))


def test_general_position_witnesses():
    assert general_position_violation(integer_view([(0, 0), (1, 0), (0, 1)])) is None
    assert general_position_violation(integer_view([(0, 0), (1, 1), (2, 2)])) == (0, 1, 2)
    assert general_position_violation(integer_view([(0, 0), (0, 0), (1, 0)])) == (0, 1)
    assert general_position_violation(((0, 0), (1, 0), (0, 1))) is None
    assert _added_violation([(0, 0), (1, 0)], (0, 1)) is None
    assert _added_violation([(0, 0), (1, 0)], (1, 0)) == (1,)
    assert _added_violation([(0, 0), (3, 1), (1, 1)], (2, 2)) == (0, 2)


def test_point_set_construction():
    ps = PointSet.from_points([(0, 0), (4, 0), (4, 4), (0, 4), (2, 1)])
    assert ps.hull == (0, 1, 2, 3)
    assert ps.interior == (4,)
    assert ps.hull_sides() == ((0, 1), (1, 2), (2, 3), (3, 0))
    with pytest.raises(ValueError):
        PointSet.from_points([(0, 0), (1, 1), (2, 2), (5, 0)])


def test_orient_table_matches_direct():
    ps = PointSet.from_points([(0, 0), (7, 1), (5, 6), (2, 8), (3, 3)])
    tab = ps.orient_table()
    for i in range(5):
        for j in range(5):
            for k in range(5):
                if len({i, j, k}) == 3:
                    assert tab[i][j][k] == orient(
                        ps.points[i], ps.points[j], ps.points[k])


# -- properties -------------------------------------------------------------

coords = st.fractions(min_value=-50, max_value=50, max_denominator=8)
points = st.tuples(coords, coords)


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
        x, y = pt
        return (scale * x + dx, scale * y + dy)

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
grid_points = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=9)


@given(grid_points)
def test_general_position_violation_matches_triple_loop(pts):
    witness = general_position_violation(integer_view(pts))
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
rational_grid_points = st.lists(st.tuples(grid_fractions, grid_fractions), max_size=9)


def _assert_witnesses_match_pairwise_loop(pts):
    expected = None
    for k in range(len(pts)):
        witness = _pairwise_added_violation(pts[:k], pts[k])
        assert _added_violation(pts[:k], pts[k]) == witness
        if expected is None and witness is not None:
            expected = (*witness, k)
    assert general_position_violation(integer_view(pts)) == expected


@given(st.one_of(grid_points, rational_grid_points))
def test_violation_witnesses_match_pairwise_loop(pts):
    _assert_witnesses_match_pairwise_loop(pts)


# a small grid (so vertical pairs, equal points and collinear triples are
# common) stretched and moved by up to 2^64 per axis, mixed with points anywhere
# in that range
huge = st.integers(-2 ** 64, 2 ** 64)
offset_grid_points = st.builds(
    lambda ox, oy, sx, sy, cells, far: [(ox + sx * a, oy + sy * b) for a, b in cells] + far,
    huge, huge, st.integers(1, 2 ** 64), st.integers(1, 2 ** 64),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8),
    st.lists(st.tuples(huge, huge), max_size=2)).flatmap(st.permutations)


@given(offset_grid_points)
def test_violation_witnesses_match_pairwise_loop_far_from_the_origin(pts):
    _assert_witnesses_match_pairwise_loop(pts)


@pytest.mark.parametrize("d", [3, 10, 1000, 2 ** 64])
def test_slope_key_separates_slopes_closer_than_one_over_the_extent(d):
    # (d, 1) and (d - 1, 1) have slopes 1/d and 1/(d - 1) from the origin and
    # -1/d and -1/(d - 1) from (0, 2), which differ by 1/(d(d - 1)): the keys
    # need the scale d^2 from the x-extent d, since the scale d, or one from
    # the y-extent 2, gives one of these pairs a single floor
    xy = ((d, 1), (d - 1, 1), (0, 2), (0, 0))
    assert added_xy_violation(xy[:3], xy[3]) is None
    assert general_position_violation(xy) is None
    assert PointSet.from_points(xy).hull == (3, 0, 2)
    assert general_position_violation((*xy, (2 * d, 2))) == (0, 3, 4)


def test_vertical_neighbours_share_one_key():
    assert general_position_violation(((0, 0), (0, 5), (0, -3))) == (0, 1, 2)
    assert general_position_violation(((0, 0), (3, 1), (0, 5), (0, -3))) == (0, 2, 3)
    assert general_position_violation(((0, 0), (0, 5), (1, 0), (1, -7))) is None
    assert added_xy_violation(((4, 0), (4, 9)), (4, -2)) == (0, 1)
    assert added_xy_violation(((4, 0), (4, 9), (4, -2)), (4, 9)) == (1,)


def test_added_point_violation_exact_near_2_to_80():
    big = 2 ** 80
    new = (big, big + 1)

    def at(dx, dy):
        return (new[0] + dx, new[1] + dy)

    # (3 * 2^80 + 1, 5 * 2^80) and (3, 5) have equal float slopes but are not parallel
    near = at(3 * big + 1, 5 * big)
    assert _added_violation([at(3, 5), near], new) is None
    assert _added_violation([at(-7, 2), at(3, 5), near, at(-3 * big, -5 * big)], new) == (1, 3)
    assert general_position_violation(integer_view([new, at(3, 5), near])) is None
    assert general_position_violation(integer_view([at(3, 5), new, near, at(6, 10)])) == (0, 1, 3)
    assert _added_violation([at(1, 1), new], new) == (1,)
    # rational coordinates near 2^80 stay exact once the integer view scales them by
    # the lcm of their denominators
    third = Fraction(1, 3)
    new = (Fraction(big + 1, 3), Fraction(big, 7))
    assert _added_violation([at(third, 1), at(big * third + third, big)], new) is None
    assert _added_violation([at(third, 1), at(big * third, big)], new) == (0, 1)


@pytest.mark.parametrize("ps, ends, witness", [
    (gen_random(60, 256, 5), (58, 59), (31, 36, 60)),
    (gen_double_circle(38), (10, 50), (10, 50, 76)),
])
def test_large_sets_load_unchanged_and_reject_a_shared_line(ps, ends, witness):
    loaded = PointSet.from_points(ps.points)
    assert (loaded.points, loaded.hull, loaded.interior) == (ps.points, ps.hull, ps.interior)
    # the midpoint of two points is on their line, and here maybe on a lower-indexed one too
    a, b = (ps.points[i] for i in ends)
    extended = ps.points + (((a[0] + b[0]) / 2, (a[1] + b[1]) / 2),)
    assert general_position_violation(integer_view(extended)) == witness
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
        base = [pts[i] for i in convex_hull(integer_view(pts))]
    except ValueError:
        return
    shuffled = list(pts)
    rnd.shuffle(shuffled)
    assert [shuffled[i] for i in convex_hull(integer_view(shuffled))] == base


# -- the integer view against the Fraction predicates it replaced -----------

def _hull_by_point_orient(points):
    """Reference hull: the monotone chain on Fraction coordinates with orient."""
    if len(points) < 3:
        raise ValueError("convex hull needs at least 3 points")
    order = sorted(range(len(points)), key=points.__getitem__)
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
    """Reference table: orient on every triple of points."""
    return [[[orient(a, b, c) for c in points] for b in points] for a in points]


# wider grids than grid_points, so that hulls have interior points; the
# rational one mixes the denominators 1, 2 and 3
wide_grid_points = st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=12)
wide_fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 3))
wide_rational_points = st.lists(st.tuples(wide_fractions, wide_fractions), max_size=12)
any_grid_points = st.one_of(grid_points, rational_grid_points, wide_grid_points, wide_rational_points)


def test_integer_view_scales_by_the_lcm_of_the_denominators():
    assert integer_view([(3, -4), (0, 7)]) == ((3, -4), (0, 7))
    assert integer_view([(Fraction(1, 2), Fraction(1, 3)), (2, Fraction(-5, 6))]) == ((3, 2), (12, -5))
    ps = PointSet.from_points([(0, 0), (Fraction(7, 2), 0), (0, Fraction(5, 3))])
    assert ps.xy == ((0, 0), (21, 0), (0, 10)) and not ps._cache


@given(any_grid_points)
def test_convex_hull_matches_point_orient_chain(pts):
    try:
        expected = _hull_by_point_orient(pts)
    except ValueError as exc:  # too few, duplicate or collinear points: the same error
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            convex_hull(integer_view(pts))
        return
    assert convex_hull(integer_view(pts)) == expected


@given(any_grid_points)
def test_orient_table_matches_point_built_table(pts):
    # the raw constructor, so that equal points and collinear triples reach the table
    ps = PointSet(integer_view(pts), (), ())
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
    assert pts == [(0, 0), (4, 0), (Fraction(1, 2), Fraction(9, 20)), (-7, 3),
                   (Fraction(-3, 2), Fraction(12, 5))]
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
        assert parse_points_text(text) == [(Fraction(token), 1)], token


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
    pts = [(0, 0), (-3, 7), (Fraction(1, 2), Fraction(-9, 20))]
    assert parse_points_text(format_points(pts)) == pts


def test_load_point_set_reads_rational_files(tmp_path):
    unreduced = "".join(f"{2 * x}/14 {2 * y}/14\n" for x, y in gen_double_circle(5).xy)
    bodies = ("-0 +0\n004 0/3\n1/2 9/20\n-6/4 012/05\n+3 -2/7\n",
              "0/6 -0/1\n+12/6 1/3\n-4/8 +10/4\n7/1 -000/9\n007/0010 6/3\n",
              unreduced)
    scales = []
    for body in bodies:
        text = f"{POINTS_HEADER}\n{body}"
        path = tmp_path / "set.pts"
        path.write_text(text)
        ps = load_point_set(path)
        ref = PointSet.from_points(parse_points_text(text))
        assert ps.points == ref.points and ps.xy == ref.xy and ps.scale == ref.scale
        assert ps.hull == ref.hull and ps.interior == ref.interior
        save_point_set(tmp_path / "saved.pts", ps)
        assert (tmp_path / "saved.pts").read_text() == format_points(ref.points)
        scales.append(ps.scale)
    assert scales == [140, 30, 7]
    # 2x/14 is x/7, so the integer view is that of the integer set
    assert load_point_set(path).xy == gen_double_circle(5).xy


def test_in_convex_position():
    assert len(convex_hull(integer_view([(0, 0), (4, -1), (6, 2), (3, 5), (-1, 3)]))) == 5
    assert len(convex_hull(integer_view([(0, 0), (4, 0), (4, 4), (0, 4), (2, 2)]))) == 4


def test_point_coordinates_are_int_or_fraction_only():
    # the v1 file parser rejects both string forms, so the builders do too
    for x, y in (("1e-3", " 1/2 "), ("0.5", 1)):
        for build in (PointSet.from_points, integer_view):
            with pytest.raises(TypeError, match="^coordinate must be int or Fraction, got str$"):
                build([(0, 0), (1, 0), (x, y)])


def _count_views(monkeypatch):
    """Count the integer views built, whichever module asks for one."""
    calls = []
    view = geom._view

    def spy(points):
        calls.append(len(points))
        return view(points)

    monkeypatch.setattr(geom, "_view", spy)
    return calls


def test_from_points_builds_one_integer_view(monkeypatch):
    pts = gen_random(12, 64, seed=3).points
    calls = _count_views(monkeypatch)
    ps = PointSet.from_points(pts)
    assert calls == [12]
    assert ps.xy == integer_view(pts)


def test_build_radial_frame_builds_one_integer_view(monkeypatch):
    calls = _count_views(monkeypatch)
    center, *pts = (0, 0), (5, 1), (-2, 7), (-6, -3), (3, -8)
    frame = charvec.build_radial_frame(center, pts)
    assert charvec.enumerate_good_polygons(frame) == [(0, 2, 3), (1, 2, 3), (0, 1, 2, 3)]
    assert charvec.polygon_charvec(frame, (0, 2, 3)) == (0, 1, 0, 0)
    assert calls == [5]


def test_build_angle_frame_builds_one_integer_view(monkeypatch):
    calls = _count_views(monkeypatch)
    apex, left, right, *pts = (0, 9), (-9, 0), (9, 0), (2, 3), (-3, 2), (0, 5)
    frame = charvec.build_angle_frame(apex, left, right, pts)
    assert charvec.polyline_charvec(frame, (0, 2)) == (1, 0, 1)
    assert calls == [6]


def _count_fractions(monkeypatch):
    """Count the Fractions built through the package's names for the type.

    Each such name becomes a stand-in type that counts its calls and passes
    isinstance checks as Fraction does.
    """
    built = []

    class Meta(type):
        def __call__(cls, *args):
            built.append(args)
            return Fraction(*args)

        def __instancecheck__(cls, obj):
            return isinstance(obj, Fraction)

    counted = Meta("Fraction", (), {})
    for module in (geom, generators, charvec, closeness, triangulations, harness):
        if getattr(module, "Fraction", None) is Fraction:
            monkeypatch.setattr(module, "Fraction", counted)
    return built


def test_integer_paths_build_no_fraction(monkeypatch, tmp_path):
    path = tmp_path / "random.pts"
    path.write_text(format_points(gen_random(12, 64, seed=3).points))
    built = _count_fractions(monkeypatch)
    sets = [load_point_set(path), gen_random(12, 64, seed=4), gen_double_circle(6),
            gen_quasi_convex(9, (0, 2, 5))]
    for k, ps in enumerate(sets):
        count_partial(ps)
        classify(ps)
        verify_instance(ps)
        save_point_set(tmp_path / f"{k}.pts", ps)
    angle, radial = gen_angle_frame(6, seed=1), gen_radial_frame(6, seed=1)
    assert all(harness.run_suite_checks(0).values())
    assert built == []
    assert (tmp_path / "0.pts").read_text() == path.read_text()
    # the frames keep the integer pairs they were given
    frame_points = (angle.apex, angle.left_arm, angle.right_arm, *angle.interior,
                    radial.center, *radial.points)
    assert {type(c) for p in frame_points for c in p} == {int}
    # the stand-in does count: reading the points builds them
    assert len(sets[0].points) == 12
    assert len(built) == 24
