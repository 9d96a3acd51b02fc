import contextlib
import hashlib
import io
import os
import tempfile
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from tricensus.catalan import polygon_triangulation_count
from tricensus.cli import main
from tricensus.errors import SizeCapError
from tricensus.generators import GenSpec, gen_convex, gen_double_circle, gen_random, generate
from tricensus.geom import Point, PointSet, is_general_position, save_point_set
from tricensus.triangulations import (
    Triangulation,
    _segments_cross,
    _tables,
    brute_force_count,
    check_triangulation,
    count_full,
    count_on_subset,
    count_partial,
    enumerate_full,
    enumerate_partial,
)

HEXAGON = [(0, 0), (4, 0), (6, 3), (4, 6), (0, 6), (-2, 3)]
TRIANGLE_PLUS_ONE = [(0, 0), (6, 0), (0, 6), (1, 1)]
QUAD_PLUS_ONE = [(0, 0), (10, 0), (10, 10), (0, 10), (3, 4)]


def test_count_full_convex_hexagon():
    assert count_full(PointSet.from_coords(HEXAGON)) == 14


def test_count_full_triangle_with_interior_point():
    assert count_full(PointSet.from_coords(TRIANGLE_PLUS_ONE)) == 1


def test_count_full_quad_with_interior_point():
    # frozen from the brute-force oracle; see also the closeness tests: any
    # quadrilateral plus one interior point is quasi-convex, so the partial
    # count is exactly the convex baseline for 5 points
    ps = PointSet.from_coords(QUAD_PLUS_ONE)
    assert brute_force_count(ps) == 3
    assert count_full(ps) == 3
    assert count_partial(ps) == 5 == polygon_triangulation_count(5)


def test_count_partial_examples():
    assert count_partial(PointSet.from_coords(HEXAGON)) == 14
    assert count_partial(PointSet.from_coords(TRIANGLE_PLUS_ONE)) == 2
    assert count_partial(gen_double_circle(3)) == 14


def test_enumerate_full_examples():
    quad = PointSet.from_coords([(0, 0), (5, 1), (6, 5), (1, 6)])
    tris = enumerate_full(quad)
    assert len(tris) == 2
    assert {t.triangles for t in tris} == {
        ((0, 1, 2), (0, 2, 3)),
        ((0, 1, 3), (1, 2, 3)),
    }
    tri = PointSet.from_coords([(0, 0), (5, 0), (0, 5)])
    assert [t.triangles for t in enumerate_full(tri)] == [((0, 1, 2),)]
    pent = PointSet.from_coords([(0, 0), (6, 0), (8, 5), (3, 9), (-2, 5)])
    assert len(enumerate_full(pent)) == 5 == count_full(pent)


def test_enumerate_full_respects_cap():
    ps = gen_convex(15, 64, seed=1)
    with pytest.raises(SizeCapError):
        enumerate_full(ps)


@pytest.mark.parametrize("ps", [gen_convex(15, 64, seed=1), gen_random(15, 256, 1)],
                         ids=["convex15", "random15"])
def test_enumeration_cap_is_decided_before_any_work(ps):
    for enumerate_all in (enumerate_full, enumerate_partial):
        with pytest.raises(SizeCapError) as refused:
            enumerate_all(ps)
        assert str(refused.value) == "enumeration refused for 15 points (cap 14)"
    # neither the orientation table nor the listing's region tables were built
    assert "orient" not in ps._cache
    assert "regions_by_index" not in ps._cache


def test_cli_count_enumerate_refuses_above_the_cap(tmp_path, capsys):
    target = tmp_path / "random15.pts"
    save_point_set(target, gen_random(15, 256, 1))
    for mode in ("full", "partial"):
        assert main(["count", str(target), "--mode", mode, "--enumerate"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "tricensus: refused: enumeration refused for 15 points (cap 14)\n"
        assert captured.out == ""


def test_cli_count_has_no_cap_option(tmp_path, capsys):
    target = tmp_path / "random15.pts"
    save_point_set(target, gen_random(15, 256, 1))
    with pytest.raises(SystemExit) as exc:
        main(["count", str(target), "--mode", "partial", "--enumerate", "--cap", "20"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert "unrecognized arguments: --cap 20" in captured.err
    assert captured.out == ""


def test_brute_force_examples():
    assert brute_force_count(gen_convex(5, 64, seed=3)) == 5
    assert brute_force_count(PointSet.from_coords(TRIANGLE_PLUS_ONE)) == 1
    assert brute_force_count(gen_convex(7, 64, seed=3)) == 42


def test_brute_force_cap():
    ps = gen_convex(11, 64, seed=0)
    with pytest.raises(SizeCapError):
        brute_force_count(ps)


def test_count_on_subset_requires_hull():
    ps = PointSet.from_coords(QUAD_PLUS_ONE)
    with pytest.raises(ValueError):
        count_on_subset(ps, [0, 1, 2, 4])


def test_brute_force_on_explicit_subsets():
    ps = gen_random(8, 24, seed=321)
    hull = frozenset(ps.hull)
    for r in range(len(ps.interior) + 1):
        for sub in combinations(ps.interior, r):
            subset = hull | frozenset(sub)
            assert brute_force_count(ps, subset) == count_on_subset(ps, subset)


def test_counts_match_brute_force_on_random_instances():
    for k in range(60):
        n = 4 + k % 6
        ps = gen_random(n, 32, seed=4200 + k)
        assert count_full(ps) == brute_force_count(ps)


def test_convex_sets_match_polygon_counts():
    for n in range(3, 13):
        ps = gen_convex(n, 64, seed=n)
        full = count_full(ps)
        assert full == polygon_triangulation_count(n)
        assert count_partial(ps) == full


def test_partial_lower_bound_on_random_instances():
    for k in range(40):
        n = 3 + k % 7
        ps = gen_random(n, 48, seed=991 + k)
        assert count_partial(ps) >= polygon_triangulation_count(n)


def test_every_enumerated_triangulation_is_valid():
    for seed in range(8):
        ps = gen_random(7, 24, seed=77 + seed)
        tris = enumerate_full(ps)
        assert len(tris) == count_full(ps)
        assert len({t.triangles for t in tris}) == len(tris)
        for t in tris:
            check_triangulation(ps, t)


def test_double_circle_full_counts_match_brute_force():
    for m in (3, 4):
        ps = gen_double_circle(m)
        assert count_full(ps) == brute_force_count(ps)


def test_enumerate_partial_matches_count_and_subset_sum():
    for seed in range(6):
        ps = gen_random(7, 20, seed=55 + seed)
        tris = enumerate_partial(ps)
        assert len(tris) == count_partial(ps)
        hull = frozenset(ps.hull)
        by_subset = {}
        for t in tris:
            by_subset.setdefault(t.vertex_subset, []).append(t)
        for r in range(len(ps.interior) + 1):
            for sub in combinations(ps.interior, r):
                key = hull | frozenset(sub)
                assert len(by_subset.get(key, [])) == count_on_subset(ps, key)


def test_triangulation_edges_derived():
    t = Triangulation(frozenset({0, 1, 2, 3}), ((0, 1, 2), (0, 2, 3)))
    assert t.edges == frozenset({(0, 1), (0, 2), (1, 2), (2, 3), (0, 3)})


def test_check_triangulation_rejects_bad_cover():
    ps = PointSet.from_coords([(0, 0), (5, 1), (6, 5), (1, 6)])
    with pytest.raises(ValueError):
        check_triangulation(ps, Triangulation(frozenset({0, 1, 2, 3}), ((0, 1, 2),)))
    with pytest.raises(ValueError):
        check_triangulation(
            ps, Triangulation(frozenset({0, 1, 2, 3}), ((0, 1, 2), (0, 1, 3))))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_full_count_never_below_hull_polygon_count(seed):
    ps = gen_random(7, 32, seed=seed)
    # skipping interior points can only lose triangulations relative to partial
    assert count_partial(ps) >= count_full(ps)
    assert count_partial(ps) >= polygon_triangulation_count(len(ps.points))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=3, max_size=9,
                unique=True),
       st.booleans())
def test_crossing_table_holds_exactly_the_properly_crossing_edges(coords, canonical):
    """On a small grid many points share an x or a y coordinate."""
    points = [Point(x, y) for x, y in coords]
    assume(is_general_position(points))
    ps = PointSet.from_points(points)
    tab = ps.orient_table()
    t = _tables(ps, canonical)
    n = len(points)
    index = sorted(range(n), key=t.rank.__getitem__)  # index[r]: the point of rank r
    for p, q in combinations(range(n), 2):
        want = sum(1 << (c * n + d) for c in range(n) for d in range(n)
                   if _segments_cross(tab, index[p], index[q], index[c], index[d]))
        assert t.cross[p][q] == t.cross[q][p] == want, (p, q)


# SHA-256 of the stdout of `tricensus count <file> --mode <mode> --enumerate`
# for `tricensus gen` outputs, with the count it prints on stderr.  The
# enumerators list in input index order, so a change to the counting order or
# to the output layer must leave these listings byte-identical.
PINNED_LISTINGS = [
    (GenSpec("random", 9, seed=3), 707,
     "934ff5eccb80a23c1dc29d8e3febc2ffe422e8b07316e620151a618b0199f3f0"),
    (GenSpec("random", 11, seed=5), 12378,
     "c63e04590b322e5faf51fa2fd4ceec3e87484d966fd0d8aa979fbbc45b7c25cf"),
    (GenSpec("double_circle", 10), 1430,
     "b7ad7b3ca3d653542d53857b57a0e3d6304e7a554ad669d866ec4d0f20ab8131"),
]
PINNED_FULL_LISTINGS = [
    (GenSpec("random", 9, seed=3), 223,
     "2ea8445f1ae8f8e703e96a54ed361aa4138a835baa5b8c27529a984ac4073e6f"),
    (GenSpec("random", 11, seed=5), 4611,
     "c53a0f2e40a6d32993d51a1f0e016e99996520ddca8de48103d7e3f918a4f0a1"),
    (GenSpec("double_circle", 10), 250,
     "e6daaf5a3ed012588b17523a374219db8e975e5b537e4d9b0b7ee29561722586"),
]


def _check_pinned_listing(tmp_path, capsys, spec, mode, count, digest):
    target = tmp_path / "set.pts"
    save_point_set(target, generate(spec))
    assert main(["count", str(target), "--mode", mode, "--enumerate"]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"{count}\n"
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


@pytest.mark.parametrize("spec,count,digest", PINNED_LISTINGS,
                         ids=[spec.instance_id() for spec, _, _ in PINNED_LISTINGS])
def test_partial_listing_is_pinned(tmp_path, capsys, spec, count, digest):
    _check_pinned_listing(tmp_path, capsys, spec, "partial", count, digest)


@pytest.mark.parametrize("spec,count,digest", PINNED_FULL_LISTINGS,
                         ids=[spec.instance_id() for spec, _, _ in PINNED_FULL_LISTINGS])
def test_full_listing_is_pinned(tmp_path, capsys, spec, count, digest):
    _check_pinned_listing(tmp_path, capsys, spec, "full", count, digest)


def _oracle_lines(tris) -> list[str]:
    """The listing's lines with every triangle formatted anew on every line:
    the reference for the CLI, which formats each distinct triangle once."""
    return [" ".join(",".join(map(str, tri)) for tri in t.triangles) + "\n" for t in tris]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=4, max_value=9), seed=st.integers(min_value=0, max_value=10_000),
       mode=st.sampled_from(["full", "partial"]))
def test_cli_listing_matches_the_per_line_formatter(n, seed, mode):
    ps = gen_random(n, 32, seed=seed)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "set.pts")
        save_point_set(target, ps)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["count", target, "--mode", mode, "--enumerate"]) == 0
    tris = enumerate_full(ps) if mode == "full" else enumerate_partial(ps)
    # compared as lists of lines: a failure then names the first line that
    # differs, where a string comparison would diff the whole listing
    assert out.getvalue().splitlines(keepends=True) == _oracle_lines(tris)
    assert err.getvalue() == f"{len(tris)}\n"
