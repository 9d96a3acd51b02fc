import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tricensus import generators
from tricensus.catalan import polygon_triangulation_count
from tricensus.closeness import classify, find_blocking_apex
from tricensus.errors import ConstructionError
from tricensus.generators import (
    FAMILIES,
    GenSpec,
    SplitMix64,
    gen_angle_frame,
    gen_convex,
    gen_double_circle,
    gen_quasi_convex,
    gen_radial_frame,
    gen_random,
    generate,
)
from tricensus.geom import (
    convex_hull,
    format_points,
    general_position_violation,
    integer_view,
)
from tricensus.triangulations import count_partial

from oracles import orient


def test_splitmix_is_deterministic():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    assert SplitMix64(42).next_u64() != SplitMix64(43).next_u64()
    with pytest.raises(ValueError, match="below\\(\\) needs a positive bound"):
        SplitMix64(0).below(0)


def test_gen_convex_counts():
    assert count_partial(gen_convex(4, 64, seed=7)) == 2
    assert count_partial(gen_convex(3, 64, seed=7)) == 1
    assert count_partial(gen_convex(8, 64, seed=7)) == 132


def test_gen_convex_output_is_strictly_convex_and_seeded():
    ps = gen_convex(9, 64, seed=5)
    assert len(convex_hull(integer_view(ps.points))) == len(ps.points)
    assert gen_convex(9, 64, seed=5).points == ps.points
    assert gen_convex(9, 64, seed=6).points != ps.points
    n = len(ps.points)
    for m in range(n):
        assert orient(ps.points[m - 1], ps.points[m], ps.points[(m + 1) % n]) == 1


def test_gen_double_circle_certified():
    for m in (3, 4):
        ps = gen_double_circle(m)
        assert len(ps.points) == 2 * m
        assert len(ps.hull) == m
        rep = classify(ps)
        assert rep.is_quasi_convex
        assert sorted(rep.assignment.values()) == sorted(ps.hull_sides())
        assert count_partial(ps) == polygon_triangulation_count(2 * m)


def test_gen_double_circle_deterministic():
    assert gen_double_circle(3).points == gen_double_circle(3).points


def test_gen_quasi_convex_empty_sides_is_convex():
    ps = gen_quasi_convex(6, [])
    assert len(ps.interior) == 0
    assert count_partial(ps) == polygon_triangulation_count(6)


def test_gen_quasi_convex_examples():
    ps = gen_quasi_convex(5, [1])
    assert len(ps.points) == 6
    assert classify(ps).is_quasi_convex
    assert find_blocking_apex(ps, 5, (1, 2)) is None
    assert count_partial(ps) == 14

    ps2 = gen_quasi_convex(4, [0, 2])
    assert len(ps2.points) == 6
    assert classify(ps2).is_quasi_convex
    assert count_partial(ps2) == 14


def test_gen_quasi_convex_validates_sides():
    with pytest.raises(ValueError):
        gen_quasi_convex(5, [5])


def test_gen_quasi_convex_refuses_repeated_sides():
    with pytest.raises(ValueError) as exc:
        gen_quasi_convex(5, [1, 1])
    assert str(exc.value) == "side index 1 is repeated"
    with pytest.raises(ValueError) as exc:
        gen_quasi_convex(7, [5, 0, 5])
    assert str(exc.value) == "side index 5 is repeated"


# sha256 of format_points for the ring families, as first generated; every
# corpus and perfbench/golden.json depends on these points staying the same.
# Double circles 19 to 38 and the 40-gon take the retry branches: their first
# candidates fail general position or closeness.
QC40_SIDES = (0, 1, 2, 3, 4, 7, 9, 11, 12, 14, 15, 18, 19, 25, 26, 27, 28, 34, 36, 39)
RING_DIGESTS = {
    (3, None): "40e7cb41d3ff4428d0d89206acf2ee60e57957f19fa4c7cb21e4a04251e9e3a1",
    (4, None): "6f6eaa49d69b131e65a62b140003ca972beedbea3b923357f5626f401f2deb6d",
    (5, None): "36f78a6af7500c80c0321234e42b8bd2bba13712a0a76698c4af0b8242ce6ad0",
    (6, None): "602c780d6f475cf73f3e144e3b62208fc744e853be465119a5fb6c84db0dba3f",
    (7, None): "82852d48920c09cb4891e8532829dcf7726a2a8feb6d26f14b6267265f7cc240",
    (8, None): "773146ff2715f922c9aa89558ac8eb33548ba1bd5038ced758022fb0ee95de3c",
    (19, None): "061fac3661a365f9a1e7201031b996898732caa392277665d64508c23f713b19",
    (30, None): "dbd9ea8e35c32ada41c58eee29e77bbad12ab75d9a54789f1a25172915cb7319",
    (38, None): "bdb4ffafa52147ab376cedbf9a8e1b55bdda8ee381485e879019531b557bc743",
    (7, (0, 2, 5)): "f495b070393700a0ab545e167748925f5af51a6e31e7a9dca2a65dedec0e4678",
    (6, ()): "5f8301875832183a00f555bd1e92d516b01bbbcbac7c814b165f948dfee62d4f",
    (40, QC40_SIDES): "4d0b69751331a055f863bf803e81332b6592922e60bb5e823c73bc6a4e3ee2b4",
}


@pytest.mark.parametrize("hull, sides", list(RING_DIGESTS), ids=str)
def test_ring_family_points_are_pinned(hull, sides):
    ps = gen_double_circle(hull) if sides is None else gen_quasi_convex(hull, sides)
    digest = hashlib.sha256(format_points(ps.points).encode()).hexdigest()
    assert digest == RING_DIGESTS[hull, sides]
    for pos, j in enumerate(range(hull) if sides is None else sides):
        assert find_blocking_apex(ps, hull + pos, (j, (j + 1) % hull)) is None
    assert classify(ps).is_quasi_convex


def test_gen_convex_grid_is_pinned():
    # gen_convex(24, 8, 0) and others redraw rings and double the radius
    digest = hashlib.sha256()
    for n in range(3, 80):
        for seed in (0, 1, 7):
            for scale in (8, 64):
                digest.update(format_points(gen_convex(n, scale, seed).points).encode())
    assert digest.hexdigest() == "5a01d3850eef9dafe4121172b39d3900d6e8fa600c211560483e1f9efb74e093"


def test_gen_convex_reports_a_failed_search(monkeypatch):
    monkeypatch.setattr(generators, "_is_strictly_convex_ring", lambda xy: False)
    with pytest.raises(ConstructionError) as exc:
        gen_convex(5, 8, seed=0)
    assert str(exc.value) == "no strictly convex 5-gon found at scale 8"


def test_ring_families_report_a_failed_search(monkeypatch):
    monkeypatch.setattr(generators, "blocking_apex", lambda xy, p, q, r: 0)
    with pytest.raises(ConstructionError) as exc:
        gen_double_circle(3, 16)
    assert str(exc.value) == "no close points on sides (0, 1, 2) of a 3-gon at scale 16"
    with pytest.raises(ConstructionError) as exc:
        gen_quasi_convex(5, [3, 1])
    assert str(exc.value) == "no close points on sides (1, 3) of a 5-gon at scale 64"


def _ring_candidate(m, sides, shrink, scale=64):
    """Integer view of a ring family's candidate, built from Fraction points:
    each side midpoint moved inward by 1 / (16 * 2**shrink) of the side."""
    ring = gen_convex(m, scale, generators._FAMILY_SEED).points
    lam = Fraction(1, 16 << shrink)
    pts = list(ring)
    for j in sides:
        (qx, qy), (rx, ry) = ring[j], ring[(j + 1) % m]
        pts.append(((qx + rx) / 2 - lam * (ry - qy), (qy + ry) / 2 + lam * (rx - qx)))
    return integer_view(pts)


def test_ring_search_skips_a_candidate_out_of_general_position(monkeypatch):
    # the 19-gon's certificates first all hold at the fourth offset
    assert gen_double_circle(19).xy == _ring_candidate(19, range(19), 3)
    # with every certificate passing, its first candidate breaks general
    # position and the search takes the next, smaller offset
    assert general_position_violation(_ring_candidate(19, range(19), 0)) is not None
    monkeypatch.setattr(generators, "blocking_apex", lambda xy, p, q, r: None)
    assert gen_double_circle(19).xy == _ring_candidate(19, range(19), 1)


def test_gen_random_general_position_and_seeding():
    ps = gen_random(9, 64, seed=11)
    assert general_position_violation(integer_view(ps.points)) is None
    assert gen_random(9, 64, seed=11).points == ps.points
    assert gen_random(9, 64, seed=12).points != ps.points


def test_gen_random_lower_bound_example():
    ps = gen_random(9, 128, seed=1)
    assert count_partial(ps) >= 429


def _gen_random_whole_set_oracle(n, bbox, seed):
    """gen_random as first written: re-validate the whole set for every candidate."""
    rng = SplitMix64(seed)
    pts = []
    misses = 0
    while len(pts) < n:
        cand = (rng.below(bbox + 1), rng.below(bbox + 1))
        if general_position_violation(integer_view(pts + [cand])) is None:
            pts.append(cand)
            continue
        misses += 1
        if misses > 200:
            bbox *= 2
            misses = 0
    return tuple(pts)


def test_gen_random_matches_whole_set_rejection():
    # bbox 8 forces collinear misses and box doublings; at bbox 8, seed 57
    # draws its first point twice
    cases = [(n, bbox, seed) for n in (3, 9, 15) for bbox in (8, 64, 256) for seed in range(4)]
    for n, bbox, seed in cases + [(3, 8, 57)]:
        assert gen_random(n, bbox, seed).points == _gen_random_whole_set_oracle(n, bbox, seed)


def test_generate_dispatch():
    assert generate(GenSpec("convex", 5, seed=3)).points == gen_convex(5, 64, 3).points
    assert generate(GenSpec("double_circle", 6)).points == gen_double_circle(3).points
    qc = generate(GenSpec("quasi_convex", 6, sides=(0, 2)))
    assert qc.points == gen_quasi_convex(4, (0, 2)).points
    with pytest.raises(ValueError):
        generate(GenSpec("double_circle", 7))
    with pytest.raises(ValueError):
        generate(GenSpec("mystery", 5))


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(FAMILIES), n=st.integers(0, 12),
       sides=st.none() | st.lists(st.integers(-1, 8), max_size=4).map(tuple),
       scale=st.integers(0, 16))
def test_generate_returns_n_points_or_names_the_faulty_option(family, n, sides, scale):
    spec = GenSpec(family, n, scale, sides=sides)
    try:
        ps = generate(spec)
    except ValueError as exc:
        assert str(exc).startswith(("--n:", "--sides", "--scale:")), str(exc)
    else:
        assert len(ps.points) == n


def test_generate_refuses_repeated_sides():
    with pytest.raises(ValueError) as exc:
        generate(GenSpec("quasi_convex", 8, sides=(1, 1)))
    assert str(exc.value) == "--sides: side index 1 is repeated"


def test_generate_refuses_scale_below_8_in_every_family():
    for family in FAMILIES:
        with pytest.raises(ValueError) as exc:
            generate(GenSpec(family, 6, 4))
        assert str(exc.value) == "--scale: expected at least 8, got 4"


def test_frame_generators_are_valid_and_seeded():
    fr = gen_angle_frame(6, seed=4)
    assert len(fr.interior) == 6
    assert gen_angle_frame(6, seed=4).interior == fr.interior
    rf = gen_radial_frame(6, seed=4)
    assert len(rf.points) == 6
    assert gen_radial_frame(6, seed=4).points == rf.points


def test_scale_validation():
    with pytest.raises(ValueError):
        gen_convex(5, scale=4)
    with pytest.raises(ValueError):
        gen_random(5, bbox=4)
    with pytest.raises(ValueError, match="need at least 3 points, got 2"):
        gen_convex(2)
    with pytest.raises(ValueError, match="need at least 3 points"):
        gen_random(2)
