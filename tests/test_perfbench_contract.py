"""The names the benchmark's golden regenerator reads from the package.

``perfbench/make_golden.py`` imports ``brute_force_count``,
``check_triangulation``, ``Triangulation``, ``BRUTE_FORCE_CAP`` and
``_count_region`` and runs the CLI.  No other check runs it, so moving or
renaming one of those names would break the regenerator silently.  This
test runs its three answer builders on one small double circle.
"""

import sys
from pathlib import Path

from tricensus.catalan import polygon_triangulation_count
from tricensus.generators import gen_double_circle
from tricensus.geom import save_point_set

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_make_golden_answers_on_a_double_circle(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under perfbench/
    import make_golden

    spec = {"family": "double_circle", "m": 4}
    ps = gen_double_circle(4)
    path = tmp_path / "dc8.pts"
    save_point_set(path, ps)
    counted = make_golden.count_answers(spec, ps, "dc8")
    partial = int(counted["partial"])
    assert partial == polygon_triangulation_count(8)
    assert counted["quasi_convex"] and counted["regions"] > 0
    assert make_golden.classify_answers(spec, ps, path, "dc8")["quasi_convex"]
    assert set(make_golden.listing_answers(ps, path, partial, "dc8")) == {"listing"}
