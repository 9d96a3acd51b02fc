"""Regenerate golden.json: the expected answers for every pool instance.

    python3 perfbench/make_golden.py

The answers come from the package itself and are cross-checked once,
independently where an oracle exists: the brute-force counter for sets of
at most 10 points, C(n-2) for quasi-convex sets and double circles, the
close-point assignment the generator certified, the listing length against
the count, and check_triangulation on listed triangulations.  Any
disagreement aborts without writing.  Takes several minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tricensus import cli, triangulations  # noqa: E402
from tricensus.catalan import polygon_triangulation_count  # noqa: E402
from tricensus.geom import save_point_set  # noqa: E402
from tricensus.harness import verify_instance  # noqa: E402
from tricensus.triangulations import Triangulation, brute_force_count, check_triangulation  # noqa: E402

import corpus  # noqa: E402


class CrossCheckError(Exception):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CrossCheckError(what)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def verify_counting_regions(ps, label: str):
    """verify_instance, and the number of region evaluations its count made."""
    calls = 0
    original = triangulations._count_region

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    triangulations._count_region = counted
    try:
        verdict = verify_instance(ps, label)
    finally:
        triangulations._count_region = original
    return verdict, calls


def brute_partial(ps) -> int:
    hull = set(ps.hull)
    return sum(brute_force_count(ps, hull | set(extra))
               for k in range(len(ps.interior) + 1)
               for extra in combinations(ps.interior, k))


def is_certified_quasi_convex(spec: dict) -> bool:
    return spec["family"] != "random"


def count_answers(spec: dict, ps, label: str) -> dict:
    verdict, regions = verify_counting_regions(ps, label)
    _require(verdict.passed, f"{label}: verify_instance did not pass")
    partial = int(verdict.partial_count)
    if is_certified_quasi_convex(spec):
        _require(partial == polygon_triangulation_count(len(ps.points)) and verdict.quasi_convex,
                 f"{label}: not C(n-2) or not quasi-convex")
    if len(ps.points) <= triangulations.BRUTE_FORCE_CAP:
        _require(brute_partial(ps) == partial, f"{label}: brute force disagrees")
    return {"partial": verdict.partial_count, "quasi_convex": verdict.quasi_convex,
            "regions": regions}


def classify_answers(spec: dict, ps, path: Path, label: str) -> dict:
    code, out, _ = run_cli(["classify", str(path), "--json"])
    _require(code == 0, f"{label}: classify failed")
    report = json.loads(out)
    if is_certified_quasi_convex(spec):
        hull = len(ps.hull)
        sides = spec["sides"] if spec["family"] == "quasi_convex" else list(range(hull))
        expected = {str(hull + pos): [j, (j + 1) % hull] for pos, j in enumerate(sides)}
        _require(report["is_quasi_convex"] and report["assignment"] == expected,
                 f"{label}: close points differ from the generator's certificate")
    return {"quasi_convex": report["is_quasi_convex"], "classify": corpus.digest(out)}


def listing_answers(ps, path: Path, partial: int, label: str) -> dict:
    code, listing, err = run_cli(["count", str(path), "--mode", "partial", "--enumerate"])
    _require(code == 0 and err == f"{partial}\n", f"{label}: enumeration failed or miscounted")
    lines = listing.splitlines()
    _require(len(lines) == partial, f"{label}: listing has {len(lines)} lines, count is {partial}")
    for line in (lines[0], lines[len(lines) // 2], lines[-1]):
        tris = tuple(tuple(int(v) for v in t.split(",")) for t in line.split())
        used = frozenset(v for t in tris for v in t) | frozenset(ps.hull)
        try:
            check_triangulation(ps, Triangulation(used, tris))
        except ValueError as exc:
            raise CrossCheckError(f"{label}: listed triangulation invalid: {exc}") from exc
    return {"listing": corpus.digest(listing)}


def build_answers(path: Path) -> dict[str, dict]:
    def pools(workload):
        return {pool for pool, _, _ in corpus.MIXES[workload]}

    counted = pools("verify_corpus") | pools("enumerate_listing")
    classified = pools("classify_large")
    answers: dict[str, dict] = {}
    for pool in sorted(counted | classified):
        for spec in corpus.POOLS[pool]:
            label = corpus.instance_id(spec)
            ps = corpus.build(spec)
            save_point_set(path, ps)
            entry = {"points": corpus.points_digest(ps), "n": len(ps.points)}
            if pool in counted:
                entry.update(count_answers(spec, ps, label))
            if pool in classified:
                entry.update(classify_answers(spec, ps, path, label))
            answers[label] = entry
        print(f"{pool}: {len(corpus.POOLS[pool])} instances", file=sys.stderr)
    listed = {corpus.instance_id(s): s for s in corpus.candidates("enumerate_listing", answers)}
    for label, spec in sorted(listed.items()):
        ps = corpus.build(spec)
        save_point_set(path, ps)
        answers[label].update(listing_answers(ps, path, int(answers[label]["partial"]), label))
    print(f"listings: {len(listed)} instances", file=sys.stderr)
    return answers


def main() -> int:
    work = Path(__file__).resolve().parent.parent / ".perfbench_run"
    work.mkdir(exist_ok=True)
    path = work / "golden-instance.pts"
    try:
        answers = build_answers(path)
    except CrossCheckError as exc:
        print(f"make_golden: cross-check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        path.unlink(missing_ok=True)
    rows = ",\n".join(f"{json.dumps(k)}: {json.dumps(answers[k], sort_keys=True)}"
                      for k in sorted(answers))
    corpus.GOLDEN_PATH.write_text('{"instances": {\n' + rows + "\n}}\n")
    print(f"wrote {len(answers)} answers to {corpus.GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
