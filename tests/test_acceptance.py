"""Acceptance suite: one test per criterion, each printing a PASS line, and
a check that the outward projection's first placement verifies on the
criterion 9 corpus.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; a plain ``pytest`` run checks the same assertions.
"""

import time
from fractions import Fraction
from itertools import count, islice
from types import SimpleNamespace

from tricensus import charvec
from tricensus.catalan import (
    catalan,
    check_product_inequality,
    polygon_count_recurrence_holds,
    polygon_triangulation_count,
)
from tricensus.charvec import (
    enumerate_good_polygons,
    find_charvec_collision,
    frame_bijection_holds,
    project_to_convex_position,
    ray_move_preserves_image,
)
from tricensus.closeness import classify
from tricensus.generators import (
    SplitMix64,
    gen_angle_frame,
    gen_convex,
    gen_double_circle,
    gen_quasi_convex,
    gen_radial_frame,
    gen_random,
)
from tricensus.geom import PointSet, convex_hull, general_position_violation, integer_view
from tricensus.harness import size_lists
from tricensus.triangulations import (
    brute_force_count,
    count_full,
    count_partial,
    enumerate_full,
    enumerate_partial,
)

from oracles import catalan_by_convolution

PENTAGON_PLUS_CENTER = [(0, -10), (10, -3), (6, 9), (-6, 9), (-10, -3), (0, 0)]


def _family_instances(n_max):
    """Every deterministic family instance with at most n_max points."""
    out = []
    for n in range(3, n_max + 1):
        out.append((f"convex-{n}", gen_convex(n, 64, seed=n)))
    for m in range(3, n_max // 2 + 1):
        out.append((f"double-circle-{2 * m}", gen_double_circle(m)))
    for hull, sides in [(4, (0,)), (5, (1,)), (5, (0, 2)), (6, (2,)), (6, (0, 3)),
                        (7, (1,)), (7, (1, 4)), (8, (3,)), (7, (0, 2, 4)), (9, (4,))]:
        if hull + len(sides) <= n_max:
            out.append((f"quasi-convex-{hull}+{sides}", gen_quasi_convex(hull, sides)))
    return out


def test_criterion_01_catalan_baseline():
    start = time.perf_counter()
    assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    for n in range(31):
        assert catalan(n) == catalan_by_convolution(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: catalan baseline and convolution agreement (n<=30) in {elapsed:.2f}s")


def test_criterion_02_convex_polygon_counts():
    start = time.perf_counter()
    assert catalan_by_convolution(10) == 16796
    for n in range(3, 13):
        ps = gen_convex(n, 64, seed=n)
        expected = catalan_by_convolution(n - 2)
        assert count_full(ps) == expected
        assert count_partial(ps) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 2: convex n=3..12 full=partial=polygon count (W_12=16796) in {elapsed:.1f}s")


def test_criterion_03_oracle_equivalence():
    checked = 0
    for k in range(220):
        n = 4 + k % 6
        ps = gen_random(n, 32, seed=10_000 + k)
        assert count_full(ps) == brute_force_count(ps), f"oracle mismatch at seed {10_000 + k}"
        checked += 1
    assert checked >= 200
    print(f"PASS criterion 3: region recursion = brute force on {checked} instances (|V|<=9)")


def test_criterion_04_lower_bound():
    checked = 0
    for k in range(500):
        n = 3 + k % 7
        ps = gen_random(n, 48, seed=20_000 + k)
        assert count_partial(ps) >= polygon_triangulation_count(n), f"seed {20_000 + k}"
        checked += 1
    family = 0
    for name, ps in _family_instances(10):
        n = len(ps.points)
        assert count_partial(ps) >= polygon_triangulation_count(n), name
        family += 1
    assert checked >= 500 and family > 0
    print(f"PASS criterion 4: partial count >= convex baseline on {checked} random "
          f"+ {family} family instances, zero violations")


def test_criterion_05_equality_class():
    for name, ps in _family_instances(10):
        n = len(ps.points)
        assert count_partial(ps) == polygon_triangulation_count(n), name
        assert classify(ps).is_quasi_convex, name

    strict = 0
    ps = PointSet.from_points(PENTAGON_PLUS_CENTER)
    assert not classify(ps).is_quasi_convex
    assert count_partial(ps) > polygon_triangulation_count(6)
    strict += 1
    k = 0
    while strict < 55 and k < 400:
        n = 5 + k % 5
        cand = gen_random(n, 32, seed=30_000 + k)
        k += 1
        if not cand.interior or classify(cand).is_quasi_convex:
            continue
        assert count_partial(cand) > polygon_triangulation_count(n), f"seed {30_000 + k - 1}"
        strict += 1
    assert strict >= 50
    print(f"PASS criterion 5: family instances exactly at the baseline and quasi-convex; "
          f"{strict} certified non-quasi-convex instances strictly above it")


def _check_convex_split_identity(ps):
    """Group full triangulations of a convex set by the apex on one hull side."""
    n = len(ps.points)
    hull = ps.hull
    side = {hull[0], hull[1]}
    groups = {}
    for t in enumerate_full(ps):
        face = [tr for tr in t.triangles if side <= set(tr)]
        assert len(face) == 1
        apex = next(v for v in face[0] if v not in side)
        groups.setdefault(apex, []).append(t)
    total = 0
    for j in range(2, n):
        group = groups[hull[j]]
        expected = polygon_triangulation_count(j) * polygon_triangulation_count(n - j + 1)
        assert len(group) == expected
        total += expected
    assert total == polygon_triangulation_count(n)


def _check_interior_split_identity(ps):
    """Group partial triangulations of a quasi-convex set at one close point.

    The groups follow the vertex order of the quasi-convex polygon: the close
    point is either unused (giving the count for one fewer point) or joined
    to its two order-neighbors, with the second triangle on the near edge
    splitting the polygon into arcs of k and n-k+1 vertices.
    """
    rep = classify(ps)
    order = list(rep.polygon_order)
    n = len(order)
    p = next(v for v in order if v in set(ps.interior))
    a, b = rep.assignment[p]
    tris = enumerate_partial(ps)
    assert len(tris) == polygon_triangulation_count(n)

    isolated = [t for t in tris if p not in t.vertex_subset]
    assert len(isolated) == polygon_triangulation_count(n - 1)

    groups = {}
    for t in tris:
        if p not in t.vertex_subset:
            continue
        assert (min(a, p), max(a, p)) in t.edges
        assert (min(b, p), max(b, p)) in t.edges
        on_edge = [tr for tr in t.triangles if a in tr and p in tr]
        assert len(on_edge) == 2
        abp = tuple(sorted((a, b, p)))
        assert abp in on_edge
        other = next(tr for tr in on_edge if tr != abp)
        c = next(v for v in other if v not in (a, p))
        groups.setdefault(c, []).append(t)

    ks = []
    ai = order.index(a)
    for c, group in groups.items():
        k = (ai - order.index(c)) % n + 1
        ks.append(k)
        expected = polygon_triangulation_count(k) * polygon_triangulation_count(n - k + 1)
        assert len(group) == expected
    assert sorted(ks) == list(range(2, n - 1))
    assert len(isolated) + sum(len(g) for g in groups.values()) == polygon_triangulation_count(n)


def test_criterion_06_recurrence_algebraic_and_geometric():
    assert all(polygon_count_recurrence_holds(n) for n in range(3, 31))
    convex_checked = 0
    for n in range(4, 10):
        _check_convex_split_identity(gen_convex(n, 64, seed=2 * n))
        convex_checked += 1
    interior_checked = 0
    for name, ps in _family_instances(9):
        if ps.interior:
            _check_interior_split_identity(ps)
            interior_checked += 1
    assert interior_checked >= 5
    print(f"PASS criterion 6: split identity algebraically (n<=30) and geometrically "
          f"on {convex_checked} convex + {interior_checked} quasi-convex instances (n<=9)")


def test_criterion_07_charvec_bijection():
    start = time.perf_counter()
    frames = 0
    vectors = 0
    for k in range(110):
        n = k % 11
        frame = gen_angle_frame(n, seed=40_000 + k)
        assert frame_bijection_holds(frame), f"seed {40_000 + k}"
        frames += 1
        vectors += 2 ** n
    elapsed = time.perf_counter() - start
    assert frames >= 100 and elapsed < 120.0
    print(f"PASS criterion 7: polyline/vector bijection on {frames} frames "
          f"({vectors} vectors, both round trips) in {elapsed:.1f}s")


def test_criterion_08_polygon_charvec_suite():
    frames = 0
    for k in range(110):
        frame = gen_radial_frame(3 + k % 6, seed=50_000 + k)
        assert find_charvec_collision(frame, enumerate_good_polygons(frame)) is None, f"seed {50_000 + k}"
        frames += 1
    assert frames >= 100

    rng = SplitMix64(99)
    moved = 0
    for k in range(15):
        frame = gen_radial_frame(3 + k % 5, seed=60_000 + k)
        moves = 0
        while moves < 10:
            i = rng.below(len(frame.points))
            t = Fraction(1 + rng.below(6), 1 + rng.below(4))
            try:
                assert ray_move_preserves_image(frame, i, t)
            except ValueError:
                continue  # move broke general position; draw another
            moves += 1
        moved += moves
    print(f"PASS criterion 8: injectivity on {frames} frames; vector image preserved "
          f"under {moved} ray moves")


def _projection_corpus():
    """The first 100 seeded random sets with an interior point, each with its
    pivot: an interior point close to no side, when there is one and another
    interior point to push, or else the first hull point."""
    sets = (gen_random(5 + k % 5, 40, seed=70_000 + k) for k in count())
    for ps in islice((ps for ps in sets if ps.interior), 100):
        rep = classify(ps)
        loose = [p for p in ps.interior if p not in rep.assignment]
        yield ps, loose[0] if loose and len(ps.interior) >= 2 else ps.hull[0]


def test_criterion_09_outward_projection_suite():
    checked = 0
    interior_pivots = 0
    for ps, pivot in _projection_corpus():
        before = count_partial(ps)
        out = project_to_convex_position(ps, pivot)
        if pivot in ps.interior:
            assert out.interior == (pivot,)
            others = [out.points[i] for i in range(len(out.points)) if i != pivot]
            assert len(convex_hull(integer_view(others))) == len(others)
            assert pivot not in classify(out).assignment, "pivot became close after projection"
            interior_pivots += 1
        else:
            assert len(convex_hull(integer_view(out.points))) == len(out.points)
        assert general_position_violation(integer_view(out.points)) is None
        assert count_partial(out) <= before
        checked += 1
    assert interior_pivots >= 10
    print(f"PASS criterion 9: outward projection valid on {checked} instances "
          f"({interior_pivots} with an interior pivot), counts never increased")


def test_outward_projection_verifies_its_first_placement(monkeypatch):
    """On the criterion 9 corpus the first placement tried is the one returned."""
    placements = []

    def from_points(points):
        placements.append(points)
        return PointSet.from_points(points)

    monkeypatch.setattr(charvec, "PointSet", SimpleNamespace(from_points=from_points))
    for ps, pivot in _projection_corpus():
        placements.clear()
        out = project_to_convex_position(ps, pivot)
        assert placements == [list(out.points)]


def test_criterion_10_product_inequality_sweep():
    swept = 0
    for sizes in size_lists(24):
        assert check_product_inequality(sizes).holds, sizes
        swept += 1
    print(f"PASS criterion 10: product inequality holds for all {swept} size lists with sum <= 24")
