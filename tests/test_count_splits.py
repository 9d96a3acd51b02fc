"""The count's inline split walk against ``_region_splits``.

``_count_region`` walks a region's anchor splits itself, a second copy of
the rule ``_region_splits`` walks for the listing.  ``count_by_splits`` in
``oracles.py`` is the same count over ``_region_splits``.  Run on one set of
tables, each with its own memo, the two must store the same states with the
same counts, in both modes.
"""

from hypothesis import assume, given, settings, strategies as st

from oracles import count_by_splits
from tricensus.generators import gen_double_circle, gen_quasi_convex, gen_random
from tricensus.geom import PointSet, general_position_violation, integer_view
from tricensus.triangulations import _RegionTables, _canonical_order, _count_region


def _assert_same_memo_as_split_count(ps):
    """The fused ``_count_region`` and ``count_by_splits``, its body over
    ``_region_splits``, store the same states with the same counts, in both
    modes, on one set of tables."""
    t = _RegionTables(ps, _canonical_order(ps))
    root = t.region(ps.hull, ps.interior)
    for required in (False, True):
        fused, by_splits = {}, {}
        count = _count_region(t, *root, required, fused)
        assert count_by_splits(t, *root, required, by_splits) == count, required
        assert fused == by_splits, required


def test_count_walks_the_same_splits_as_region_splits():
    sets = [gen_random(n, 256, seed) for n in range(6, 17) for seed in (9700 + n, 9800 + n)]
    sets += [gen_double_circle(m) for m in range(4, 9)]
    sets += [gen_quasi_convex(8, (0, 1, 3, 6)), gen_quasi_convex(10, range(0, 10, 2))]
    for ps in sets:
        _assert_same_memo_as_split_count(ps)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=4, max_size=10,
                unique=True))
def test_count_walks_the_same_splits_on_shared_coordinates(points):
    """On a small grid many points share an x or a y coordinate."""
    assume(general_position_violation(integer_view(points)) is None)
    _assert_same_memo_as_split_count(PointSet.from_points(points))
