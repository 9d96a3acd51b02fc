import contextlib
import dataclasses
import hashlib
import io
import os
import random
import tempfile
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from tricensus.catalan import polygon_triangulation_count
from tricensus.cli import main
from tricensus.errors import SizeCapError
from tricensus.generators import GenSpec, gen_convex, gen_double_circle, gen_random, generate
from tricensus.geom import (
    PointSet,
    general_position_violation,
    integer_view,
    save_point_set,
)
from tricensus import triangulations
from tricensus.triangulations import (
    Triangulation,
    _RegionTables,
    _canonical_order,
    _segments_cross,
    brute_force_count,
    check_triangulation,
    count_full,
    count_partial,
    enumerate_full,
    enumerate_partial,
)

HEXAGON = [(0, 0), (4, 0), (6, 3), (4, 6), (0, 6), (-2, 3)]
TRIANGLE_PLUS_ONE = [(0, 0), (6, 0), (0, 6), (1, 1)]
QUAD_PLUS_ONE = [(0, 0), (10, 0), (10, 10), (0, 10), (3, 4)]


def test_count_full_convex_hexagon():
    assert count_full(PointSet.from_points(HEXAGON)) == 14


def test_count_full_triangle_with_interior_point():
    ps = PointSet.from_points(TRIANGLE_PLUS_ONE)
    assert count_full(ps) == 1
    bare = PointSet.from_points(TRIANGLE_PLUS_ONE[:3])
    assert count_full(bare) == count_partial(bare) == 1


def test_count_full_quad_with_interior_point():
    # frozen from the brute-force oracle; see also the closeness tests: any
    # quadrilateral plus one interior point is quasi-convex, so the partial
    # count is exactly the convex baseline for 5 points
    ps = PointSet.from_points(QUAD_PLUS_ONE)
    assert brute_force_count(ps) == 3
    assert count_full(ps) == 3
    assert count_partial(ps) == 5 == polygon_triangulation_count(5)


def test_count_partial_examples():
    assert count_partial(PointSet.from_points(HEXAGON)) == 14
    assert count_partial(PointSet.from_points(TRIANGLE_PLUS_ONE)) == 2
    assert count_partial(gen_double_circle(3)) == 14


def test_enumerate_full_examples():
    quad = PointSet.from_points([(0, 0), (5, 1), (6, 5), (1, 6)])
    tris = enumerate_full(quad)
    assert len(tris) == 2
    assert {t.triangles for t in tris} == {
        ((0, 1, 2), (0, 2, 3)),
        ((0, 1, 3), (1, 2, 3)),
    }
    tri = PointSet.from_points([(0, 0), (5, 0), (0, 5)])
    assert [t.triangles for t in enumerate_full(tri)] == [((0, 1, 2),)]
    pent = PointSet.from_points([(0, 0), (6, 0), (8, 5), (3, 9), (-2, 5)])
    assert len(enumerate_full(pent)) == 5 == count_full(pent)


def test_enumerate_full_respects_cap():
    ps = gen_convex(15, 64, seed=1)
    with pytest.raises(SizeCapError):
        enumerate_full(ps)


@pytest.mark.parametrize("ps", [gen_convex(15, 64, seed=1), gen_random(15, 256, 1)],
                         ids=["convex15", "random15"])
def test_enumeration_cap_is_decided_before_any_work(ps, monkeypatch):
    def built(*args):
        raise AssertionError("a table was built before the size cap was checked")

    # neither the listing's region tables nor the orientation table may be built
    monkeypatch.setattr(triangulations, "_RegionTables", built)
    monkeypatch.setattr(PointSet, "orient_table", built)
    for enumerate_all in (enumerate_full, enumerate_partial):
        with pytest.raises(SizeCapError) as refused:
            enumerate_all(ps)
        assert str(refused.value) == "enumeration refused for 15 points (cap 14)"


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
    assert brute_force_count(PointSet.from_points(TRIANGLE_PLUS_ONE)) == 1
    assert brute_force_count(gen_convex(7, 64, seed=3)) == 42


def test_brute_force_cap():
    ps = gen_convex(11, 64, seed=0)
    with pytest.raises(SizeCapError):
        brute_force_count(ps)


def _sub_point_set(ps, vertex_subset):
    """The point set of the given vertices, relabelled 0.. in index order: its
    full triangulations are the triangulations of conv(ps) that use exactly
    those vertices."""
    return PointSet.from_points([ps.points[i] for i in sorted(vertex_subset)])


def test_brute_force_subset_requires_hull():
    ps = PointSet.from_points(QUAD_PLUS_ONE)
    with pytest.raises(ValueError, match="vertex subset must contain every hull vertex"):
        brute_force_count(ps, [0, 1, 2, 4])
    with pytest.raises(ValueError, match="vertex subset contains unknown indices"):
        brute_force_count(ps, [0, 1, 2, 3, 5])


def test_brute_force_on_explicit_subsets():
    ps = gen_random(8, 24, seed=321)
    hull = frozenset(ps.hull)
    for r in range(len(ps.interior) + 1):
        for sub in combinations(ps.interior, r):
            subset = hull | frozenset(sub)
            assert brute_force_count(ps, subset) == count_full(_sub_point_set(ps, subset))


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
                assert len(by_subset.get(key, [])) == count_full(_sub_point_set(ps, key))


def test_triangulation_edges_derived():
    square = frozenset({(0, 1), (0, 2), (1, 2), (2, 3), (0, 3)})
    assert Triangulation(frozenset({0, 1, 2, 3}), ((0, 1, 2), (0, 2, 3))).edges == square
    assert Triangulation(frozenset({0, 1, 2, 3}), ((2, 1, 0), (0, 3, 2))).edges == square


def test_triangulation_is_a_slotted_frozen_value():
    ps = PointSet.from_points([(0, 0), (5, 1), (6, 5), (1, 6)])
    t = Triangulation(frozenset({0, 1, 2, 3}), ((0, 1, 2), (0, 2, 3)))
    assert not hasattr(t, "__dict__")
    for name, value in (("vertex_subset", frozenset()), ("triangles", ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, name, value)
    same = Triangulation(frozenset([3, 2, 1, 0]), ((0, 1, 2), (0, 2, 3)))
    assert same == t and hash(same) == hash(t) and len({t, same}) == 1
    assert t != Triangulation(t.vertex_subset, ((0, 1, 3), (1, 2, 3)))
    assert t.edges == frozenset({(0, 1), (0, 2), (1, 2), (2, 3), (0, 3)})
    check_triangulation(ps, t)


def test_check_triangulation_ignores_the_vertex_order_of_each_triangle():
    rng = random.Random(17)
    for seed in range(3):
        ps = gen_random(7, 24, seed=77 + seed)
        for t in enumerate_partial(ps):
            shuffled = tuple(tuple(rng.sample(tri, 3)) for tri in t.triangles)
            check_triangulation(ps, Triangulation(t.vertex_subset, shuffled))
    ps = PointSet.from_points([(0, 0), (5, 1), (6, 5), (1, 6)])
    check_triangulation(ps, Triangulation(frozenset({0, 1, 2, 3}), ((2, 1, 0), (0, 2, 3))))
    with pytest.raises(ValueError, match=r"repeated triangle \(0, 1, 2\)"):
        check_triangulation(
            ps, Triangulation(frozenset({0, 1, 2, 3}), ((0, 1, 2), (2, 0, 1), (0, 2, 3))))


def test_check_triangulation_rejects_bad_cover():
    ps = PointSet.from_points([(0, 0), (5, 1), (6, 5), (1, 6)])
    with pytest.raises(ValueError):
        check_triangulation(ps, Triangulation(frozenset({0, 1, 2, 3}), ((0, 1, 2),)))
    with pytest.raises(ValueError):
        check_triangulation(
            ps, Triangulation(frozenset({0, 1, 2, 3}), ((0, 1, 2), (0, 1, 3))))


def test_check_triangulation_rejects_an_index_outside_the_point_set():
    ps = PointSet.from_points([(0, 0), (5, 1), (1, 6)])
    for t in (Triangulation(frozenset({0, 1, 2, 7}), ((0, 1, 7), (0, 1, 2))),
              Triangulation(frozenset({0, 1, 2}), ((0, 1, 2), (0, 1, 7))),
              Triangulation(frozenset({-1, 0, 1, 2}), ((0, 1, 2),))):
        bad = min(t.vertex_subset.union(*t.triangles) - {0, 1, 2})
        with pytest.raises(ValueError, match=rf"^vertex index {bad} is not in \[0, 3\)$"):
            check_triangulation(ps, t)


@pytest.mark.parametrize("coords, sub, triangles, message", [
    ([(0, 0), (5, 1), (6, 5), (1, 6)], {0, 1, 2}, ((0, 1, 2),),
     "vertex subset does not contain the hull"),
    ([(0, 0), (5, 1), (6, 5), (1, 6)], {0, 1, 2, 3}, ((0, 0, 1), (0, 1, 2), (0, 2, 3)),
     "degenerate triangle (0, 0, 1)"),
    (TRIANGLE_PLUS_ONE, {0, 1, 2}, ((0, 1, 3), (1, 2, 3), (0, 3, 2)),
     "triangle (0, 1, 3) uses a vertex outside the subset"),
    ([(0, 0), (40, 0), (20, 40), (18, 10), (24, 10), (21, 16)], {0, 1, 2, 3, 4, 5},
     ((0, 1, 2), (3, 4, 5)), "triangles (0, 1, 2) and (3, 4, 5) overlap (nested vertex)"),
    ([(0, 0), (10, 0), (14, 8), (5, 14), (-4, 8)], {0, 1, 2, 3, 4}, ((0, 1, 2), (0, 3, 4)),
     "area mismatch: triangles cover 176, hull is 332"),
], ids=["hull-missing", "degenerate", "outside-subset", "nested", "area"])
def test_check_triangulation_rejections(coords, sub, triangles, message):
    ps = PointSet.from_points(coords)
    with pytest.raises(ValueError) as rejected:
        check_triangulation(ps, Triangulation(frozenset(sub), triangles))
    assert str(rejected.value) == message


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
def test_crossing_table_holds_exactly_the_properly_crossing_edges(points, canonical):
    """On a small grid many points share an x or a y coordinate."""
    assume(general_position_violation(integer_view(points)) is None)
    ps = PointSet.from_points(points)
    _check_crossing_table(ps, _canonical_order(ps) if canonical else range(len(points)))


def test_crossing_table_on_seeded_sets_of_up_to_24_points():
    """The sizes the hypothesis test above never draws, where the n-bit
    blocks the crossing masks are assembled from are widest."""
    for ps in [gen_random(n, 256, seed=n) for n in range(10, 25)] + [gen_double_circle(12)]:
        _check_crossing_table(ps, _canonical_order(ps))
        _check_crossing_table(ps, range(len(ps.xy)))


def _check_crossing_table(ps, order):
    """Each segment's crossing mask, in ``order``, holds exactly the directed
    edges that the orientation table says properly cross it."""
    tab = ps.orient_table()
    n = len(ps.xy)
    t = _RegionTables(ps, order)
    index = sorted(range(n), key=t.rank.__getitem__)  # index[r]: the point of rank r
    for p, q in combinations(range(n), 2):
        want = sum(1 << (c * n + d) for c in range(n) for d in range(n)
                   if _segments_cross(tab, index[p], index[q], index[c], index[d]))
        assert t.cross[p][q] == t.cross[q][p] == want, (n, p, q)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=3, max_size=9,
                unique=True),
       st.booleans())
def test_left_masks_follow_the_orientation_table(points, canonical):
    """The left masks, built from the integer view, hold exactly the points
    the orientation table puts strictly left of each directed line."""
    assume(general_position_violation(integer_view(points)) is None)
    ps = PointSet.from_points(points)
    n = len(points)
    t = _RegionTables(ps, _canonical_order(ps) if canonical else range(n))
    tab = ps.orient_table()
    index = sorted(range(n), key=t.rank.__getitem__)  # index[r]: the point of rank r
    for p in range(n):
        for q in range(n):
            want = sum(1 << r for r in range(n) if tab[index[p]][index[q]][index[r]] > 0)
            assert t.left[p][q] == want, (p, q)


def test_counts_build_no_orientation_table():
    for ps in (gen_random(12, 64, seed=5), gen_double_circle(5)):
        count_partial(ps)
        count_full(ps)
        assert "orient" not in ps._cache
        assert ps._cache == {}


def test_counts_and_listings_keep_nothing_on_the_point_set():
    """Each count or listing builds the tables it reads and drops them when it
    returns, so the point set carries no table afterwards."""
    for ps in (gen_random(9, 64, seed=5), gen_double_circle(4)):
        count_partial(ps)
        count_full(ps)
        enumerate_full(ps)
        enumerate_partial(ps)
        assert ps._cache == {}


def _listing_work(enumerate_all, ps, monkeypatch):
    """The length of ``enumerate_all(ps)`` and the number of region states in
    the memos of its region recursions, summed over its interior subsets (one
    memo each)."""
    memos = {}
    engine = triangulations._enumerate_region

    def spy(*args):
        memos.setdefault(id(args[-1]), args[-1])
        return engine(*args)

    with monkeypatch.context() as m:
        m.setattr(triangulations, "_enumerate_region", spy)
        listed = len(enumerate_all(ps))
    return listed, sum(map(len, memos.values()))


def test_listing_work_is_pinned(monkeypatch):
    """Listing lengths and memo sizes of both enumerators in the identity
    order: a change to how listings are built that alters the anchors, the
    apexes or the set of states fails here even when the listings agree."""
    pinned = {  # (n, seed): ((full, states), (partial, states))
        (9, 7): ((162, 88), (570, 471)),
        (9, 8): ((436, 153), (717, 280)),
        (11, 7): ((3133, 478), (13303, 5408)),
        (11, 8): ((6640, 991), (12639, 2595)),
        (12, 7): ((15959, 1382), (74640, 19595)),
        (12, 8): ((15541, 1638), (51863, 10803)),
    }
    for (n, seed), want in pinned.items():
        ps = gen_random(n, 256, seed)
        got = tuple(_listing_work(e, ps, monkeypatch) for e in (enumerate_full, enumerate_partial))
        assert got == want, (n, seed)
    ps = gen_double_circle(6)
    assert _listing_work(enumerate_full, ps, monkeypatch) == (2236, 565)
    assert _listing_work(enumerate_partial, ps, monkeypatch) == (16796, 7718)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=4, max_value=10), seed=st.integers(min_value=0, max_value=10_000),
       partial=st.booleans())
def test_listings_share_one_ascending_tuple_per_triangle(n, seed, partial):
    """Every listed triangle is an ascending index triple, every
    triangulation lists its triangles in strictly ascending order, and equal
    triangles in one listing are one tuple object, so a listing's memory
    holds each distinct triangle once."""
    ps = gen_random(n, 32, seed=seed)
    tris = enumerate_partial(ps) if partial else enumerate_full(ps)
    listed = [tri for t in tris for tri in t.triangles]
    assert all(a < b < c for a, b, c in listed)
    assert all(all(s < u for s, u in zip(t.triangles, t.triangles[1:])) for t in tris)
    assert len({id(tri) for tri in listed}) == len(set(listed))


@pytest.mark.parametrize("n", range(3, 15))
def test_triangle_ranks_sort_as_their_triples(n):
    """The listing's triangle table: ranks follow the lexicographic order of
    the ascending triples, every ordering of a triple finds its rank, and a
    repeated index finds none.  Past n = 12 the ranks pass 256, the end of
    the interpreter's cache of small ints."""
    rank, triangles = triangulations._triangle_table(n)
    assert triangles == tuple(combinations(range(n), 3))
    for r, tri in enumerate(triangles):
        for a, b, c in permutations(tri):
            assert rank[a][b][c] == r
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if len({a, b, c}) < 3:
                    assert rank[a][b][c] is None
    rng = random.Random(n)
    for _ in range(100):
        ranks = rng.sample(range(len(triangles)), rng.randint(1, min(20, len(triangles))))
        assert [triangles[r] for r in sorted(ranks)] == sorted(triangles[r] for r in ranks)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=3, max_value=10), seed=st.integers(min_value=0, max_value=10_000),
       partial=st.booleans())
def test_listing_is_sized_and_decodes_the_same_on_every_pass(n, seed, partial):
    ps = gen_random(n, 32, seed=seed)
    listing = enumerate_partial(ps) if partial else enumerate_full(ps)
    records = list(listing)
    assert list(listing) == records
    lines = list(listing.lines())
    assert list(listing.lines()) == lines
    count = count_partial(ps) if partial else count_full(ps)
    assert len(listing) == len(records) == len(lines) == count


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
    (GenSpec("quasi_convex", 13, sides=(0, 2, 5)), 58786,
     "8bb58a13b798538817a6fc3680704b8145c6003d7560b4814863f12fce6c2f8f"),
]
PINNED_FULL_LISTINGS = [
    (GenSpec("random", 9, seed=3), 223,
     "2ea8445f1ae8f8e703e96a54ed361aa4138a835baa5b8c27529a984ac4073e6f"),
    (GenSpec("random", 11, seed=5), 4611,
     "c53a0f2e40a6d32993d51a1f0e016e99996520ddca8de48103d7e3f918a4f0a1"),
    (GenSpec("double_circle", 10), 250,
     "e6daaf5a3ed012588b17523a374219db8e975e5b537e4d9b0b7ee29561722586"),
    (GenSpec("double_circle", 14), 20979,
     "06e5e7b0630fadf925a24e4ef7db1012a53bc0253518cad28fa0b0af506d6a00"),
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
    # and read back, each line gives the triangles of its record
    parsed = [tuple(tuple(map(int, tri.split(","))) for tri in line.split())
              for line in tris.lines()]
    assert parsed == [t.triangles for t in tris]
