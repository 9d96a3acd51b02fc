"""Mutation smoke: each listed mutant of ``src/tricensus`` must fail its tests.

Run from anywhere with ``python tests/mutants.py``.  For each entry it copies
``src/``, ``tests/``, ``pyproject.toml`` and ``README.md`` (whose library
sketch a test runs) into a fresh temporary directory, replaces the entry's
anchor text in one file of the copy, and runs pytest there on each test file
the entry names; every one of them must fail.  The checkout is never
written, not even a cache or a hypothesis database.

Each anchor must occur exactly once in its file, so a refactor that moves
or rewrites the mutated code fails the script until the entry is re-pointed.
All anchors are checked before any mutant runs.  The script exits 0 when
every mutant is killed, and 1 when an anchor is missing or repeated, when a
mutant survives a test file, or when pytest ends a run with an error rather
than a test failure (say, a mutant that does not import).

A mutant that no test can kill because it changes no behaviour belongs in
no entry: say why it is equivalent in ``CHANGES.md`` instead.  The file name
keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str  # relative to src/tricensus
    anchor: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # test files, relative to the root, that must each fail
    reason: str


MUTANTS = (
    Mutant("closeness.py",
           "for _, x, y in inner:\n            if ux * (y - ry) > uy * (x - rx):",
           "for _, x, y in inner:\n            if ux * (y - ry) >= uy * (x - rx):",
           ("tests/test_closeness.py",),
           "classify's scan from r counts the candidate itself as turning less, "
           "so no point is ever close"),
    Mutant("closeness.py",
           "if best == after or best in found:",
           "if best == after:",
           ("tests/test_closeness.py",),
           "a point close to several sides is reassigned to its last one and "
           "repeated in the polygon order"),
    Mutant("closeness.py",
           "seq.append(best)",
           "seq.insert(-1, best)",
           ("tests/test_closeness.py",),
           "each close point lands before its side's q, not between q and r"),
    Mutant("closeness.py",
           "        x, y = xy[hull[j - 1]]\n"
           "        if ux * (y - ry) > uy * (x - rx):\n"
           "            continue\n",
           "",
           ("tests/test_closeness.py",),
           "classify's scan from r skips the hull vertex before q, so a point that "
           "vertex blocks still reads close"),
    Mutant("closeness.py",
           "if (bx - qx) * (y - qy) < (by - qy) * (x - qx):",
           "if (bx - qx) * (y - qy) > (by - qy) * (x - qx):",
           ("tests/test_closeness.py",),
           "classify's scan from q keeps the point turning most from q -> r, not least"),
    Mutant("closeness.py",
           "for _, x, y in inner:\n            if ux * (y - ry) > uy * (x - rx):",
           "for _, x, y in inner:\n            if ux * (y - ry) < uy * (x - rx):",
           ("tests/test_closeness.py",),
           "classify's scan from r rejects a candidate when an interior point lies right "
           "of r -> best, not left"),
    Mutant("harness.py",
           '"lower_bound_failures": sum(not v.lower_bound_ok for v in checked)',
           '"lower_bound_failures": sum(not v.equality_iff_ok for v in checked)',
           ("tests/test_harness.py",),
           "the summary tallies equality-clause failures as lower-bound failures"),
    Mutant("harness.py",
           "return self.suite is None or all(self.suite.values())",
           "return True",
           ("tests/test_harness.py",),
           "a run whose identity suite failed reports success"),
    Mutant("charvec.py",
           '"""Exhaustively check that polylines and bit vectors are in bijection."""\n',
           '"""Exhaustively check that polylines and bit vectors are in bijection."""\n'
           "    return True\n",
           ("tests/test_charvec.py", "tests/test_harness.py"),
           "frame_bijection_holds is always True, so a broken charvec map passes"),
    Mutant("triangulations.py",
           "blockers = t.full if required else t.full ^ inside",
           "blockers = t.full",
           ("tests/test_partial_count.py",),
           "optional mode blocks every inside point too, so no partial triangulation "
           "skips a point"),
    Mutant("triangulations.py",
           "blockers = t.full if required else t.full ^ inside",
           "blockers = t.full ^ inside",
           ("tests/test_partial_count.py",),
           "required mode lets the anchor triangle cover inside points, so full counts "
           "include triangulations that skip a point"),
    Mutant("triangulations.py",
           "_region_products(t, rank, *root, keep, {}, empty)",
           "_region_products(t, rank, *root, t.full, {}, empty)",
           ("tests/test_triangulations.py",),
           "a listing blocks the interior points left out of its vertex set, so it drops "
           "triangles that cover them"),
    Mutant("triangulations.py",
           "keep, {}, empty)",
           "keep, empty, empty)",
           ("tests/test_triangulations.py",),
           "a listing shares every region across its interior subsets by edge mask alone, "
           "so a region is reused for a subset with other kept points inside it"),
    Mutant("triangulations.py",
           "for p2 in parts2:\n                    yield join(",
           "for p2 in parts2[:1]:\n                    yield join(",
           ("tests/test_triangulations.py",),
           "a listing's lines take only the first listing of the root's second sub-region, "
           "so they drop triangulations"),
    Mutant("triangulations.py",
           "len(parts1) * len(parts2)",
           "len(parts1) + len(parts2)",
           ("tests/test_triangulations.py",),
           "a listing's len() adds the sub-listing lengths of each root split instead of "
           "multiplying them"),
    Mutant("triangulations.py",
           "rest1 = rest & (par ^ ray_b[v])",
           "rest1 = rest & par",
           ("tests/test_partial_count.py", "tests/test_triangulations.py"),
           "sub-region 1's inside mask leaves out the closing edge v -> b, so the points "
           "inside the two sub-regions are split wrongly"),
    Mutant("triangulations.py",
           "if boundary[i - 1] < boundary[(i + 1) % len(boundary)]:",
           "if boundary[i - 1] > boundary[(i + 1) % len(boundary)]:",
           ("tests/test_partial_count.py", "tests/test_triangulations.py"),
           "the anchor is the smallest rank's edge to its larger neighbour, so the "
           "anchors, the apex order and the states change"),
    Mutant("triangulations.py",
           "    if n > ENUMERATION_CAP:\n",
           "    _RegionTables(ps, range(n))\n    if n > ENUMERATION_CAP:\n",
           ("tests/test_triangulations.py",),
           "a listing builds its region tables before it checks the size cap"),
    Mutant("triangulations.py",
           "side & (row_p ^ row[q])",
           "side & (row_p | row[q])",
           ("tests/test_triangulations.py",),
           "an edge cd counts as crossing pq when p and q lie on the same side of cd"),
    Mutant("triangulations.py",
           "left_p[q] * (col[q] >> p & ones) | left[q][p] * (col_p >> q & ones)",
           "left_p[q] * (col_p >> q & ones) | left[q][p] * (col[q] >> p & ones)",
           ("tests/test_triangulations.py",),
           "the crossing test takes d from the same side of pq as c"),
    Mutant("triangulations.py",
           "low = todo & -todo\n        todo ^= low\n        v = low.bit_length() - 1",
           "v = todo.bit_length() - 1\n        low = 1 << v\n        todo ^= low",
           ("tests/test_partial_count.py",),
           "a region's inside apexes come in descending rank, so the split order changes"),
    Mutant("geom.py",
           "distinct = len(set(xy)) == len(xy)",
           "distinct = True",
           ("tests/test_geom.py",),
           "general_position_violation's fast path also skips a prefix that repeats a "
           "point, so a duplicate is reported late, as a collinear triple, or not at all"),
)


def check_anchors(mutants) -> list[str]:
    """One message per entry whose anchor does not occur exactly once."""
    problems = []
    for m in mutants:
        found = (ROOT / "src" / "tricensus" / m.file).read_text().count(m.anchor)
        if found != 1:
            problems.append(f"{m.file}: anchor found {found} times: {m.anchor!r}")
    return problems


def run_mutant(m: Mutant) -> list[str]:
    """Apply one mutant to a fresh copy and run its test files; one message per
    test file that does not fail."""
    problems = []
    with tempfile.TemporaryDirectory(prefix="tricensus-mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", work / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=ignore)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, work / name)
        target = work / "src" / "tricensus" / m.file
        target.write_text(target.read_text().replace(m.anchor, m.replacement))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import tricensus; print(tricensus.__file__)"],
                               cwd=work, env=env, capture_output=True, text=True)
        if not where.stdout.startswith(str(work)):
            return [f"{m.file}: the copy's package is not the one imported: {where.stdout.strip()}"]
        for test in m.tests:
            run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                                  test], cwd=work, env=env, capture_output=True, text=True)
            if run.returncode == 0:
                problems.append(f"{m.file}: survives {test}: {m.reason}")
            elif run.returncode != 1:  # 1 is a test failure; anything else is an error
                tail = "\n".join(run.stdout.strip().split("\n")[-5:])
                problems.append(f"{m.file}: pytest exited {run.returncode} on {test}:\n{tail}")
    return problems


def main() -> int:
    problems = check_anchors(MUTANTS)
    if problems:
        print("\n".join(problems))
        return 1
    for m in MUTANTS:
        start = time.perf_counter()
        found = run_mutant(m)
        status = "SURVIVED" if found else "killed"
        print(f"{status:8} {m.file}: {m.reason} ({time.perf_counter() - start:.1f} s)", flush=True)
        problems += found
    if problems:
        print("\n".join(problems))
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
