"""Command-line interface.

Exit codes: 0 when every mathematical check passed, 2 when a check failed
(a counterexample or an implementation bug), 1 on usage or I/O errors.
"""

from __future__ import annotations

import argparse
import glob
import json
import sys

from . import charvec, harness
from .catalan import catalan, polygon_triangulation_count
from .closeness import classify
from .errors import SizeCapError
from .generators import GenSpec, generate
from .geom import load_point_set, save_point_set
from .triangulations import count_full, count_partial, enumerate_full, enumerate_partial


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="tricensus",
                description="Exact triangulation counts, quasi-convexity and "
                            "characteristic-vector checks for planar point sets.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("gen", help="generate a point set and write the v1 format")
    g.add_argument("--family", required=True,
                   choices=["convex", "double_circle", "quasi_convex", "random"])
    g.add_argument("--n", type=int, required=True, help="total number of points")
    g.add_argument("--sides", default=None,
                   help="comma-separated hull side indices (quasi_convex only)")
    g.add_argument("--scale", type=int, default=64)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", required=True)

    c = sub.add_parser("count", help="count (and optionally list) triangulations")
    c.add_argument("file")
    c.add_argument("--mode", choices=["full", "partial"], default="full")
    c.add_argument("--enumerate", action="store_true", dest="enumerate_all")
    c.add_argument("--cap", type=int, default=14, help="enumeration size cap")

    k = sub.add_parser("classify", help="quasi-convexity report for a point set")
    k.add_argument("file")
    k.add_argument("--json", action="store_true", dest="as_json")

    v = sub.add_parser("charvec", help="characteristic-vector tools")
    v.add_argument("file")
    v.add_argument("--apex", type=int, help="apex point index (angle mode)")
    v.add_argument("--arms", help="left,right arm point indices (angle mode)")
    v.add_argument("--chi", help="bit string to invert into a polyline")
    v.add_argument("--radial", action="store_true")
    v.add_argument("--center", type=int, help="center point index (radial mode)")
    v.add_argument("--check-psi", action="store_true", dest="check_psi",
                   help="check polygon-to-vector injectivity")

    t = sub.add_parser("catalan", help="print a Catalan number and the matching polygon count")
    t.add_argument("--n", type=int, required=True)

    r = sub.add_parser("verify", help="run the extremal checks over a corpus")
    r.add_argument("--family",
                   choices=["convex", "double_circle", "quasi_convex", "random"])
    r.add_argument("--input", help="glob of point files to verify instead of a family")
    r.add_argument("--n", type=int, default=8)
    r.add_argument("--trials", type=int, default=10)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--scale", type=int, default=64)
    r.add_argument("--cap", type=int, default=harness.DEFAULT_CAP)
    r.add_argument("--budget", type=float, default=harness.DEFAULT_BUDGET_S,
                   help="per-instance wall-clock budget in seconds")
    r.add_argument("--full-suite", action="store_true", dest="full_suite")
    r.add_argument("--report", help="write a JSONL report here")
    r.add_argument("--timings", action="store_true",
                   help="include real runtimes in the report (breaks byte-stable reruns)")
    r.add_argument("--jobs", type=int, default=1,
                   help="worker processes (at least 1)")
    return p


def _cmd_gen(args) -> int:
    sides = tuple(int(s) for s in args.sides.split(",")) if args.sides else None
    spec = GenSpec(args.family, args.n, args.scale, args.seed, sides)
    ps = generate(spec)
    save_point_set(args.output, ps)
    print(f"wrote {len(ps.points)} points to {args.output}")
    return 0


def _cmd_count(args) -> int:
    ps = load_point_set(args.file)
    if args.enumerate_all:
        tris = (enumerate_full(ps, args.cap) if args.mode == "full"
                else enumerate_partial(ps, args.cap))
        for t in tris:
            print(" ".join(",".join(map(str, tri)) for tri in t.triangles))
        print(len(tris), file=sys.stderr)
        return 0
    count = count_full(ps) if args.mode == "full" else count_partial(ps)
    print(count)
    return 0


def _cmd_classify(args) -> int:
    ps = load_point_set(args.file)
    report = classify(ps)
    if args.as_json:
        payload = {
            "is_quasi_convex": report.is_quasi_convex,
            "assignment": {str(p): list(side) for p, side in sorted(report.assignment.items())},
            "polygon_order": list(report.polygon_order) if report.polygon_order else None,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print("quasi-convex" if report.is_quasi_convex else "not quasi-convex")
        for p, side in sorted(report.assignment.items()):
            print(f"point {p} close to side {side[0]}-{side[1]}")
        if report.polygon_order:
            print("order: " + " ".join(map(str, report.polygon_order)))
    return 0


def _cmd_charvec(args) -> int:
    ps = load_point_set(args.file)
    pts = ps.points
    if args.radial:
        if args.center is None:
            raise ValueError("--radial needs --center")
        others = [pts[i] for i in range(len(pts)) if i != args.center]
        frame = charvec.build_radial_frame(pts[args.center], others)
        if args.check_psi:
            collision = charvec.find_charvec_collision(frame)
            if collision is None:
                print(f"injective over {len(charvec.enumerate_good_polygons(frame))} good polygons")
                return 0
            print(f"collision: {collision[0]} and {collision[1]}")
            return 2
        for poly in charvec.enumerate_good_polygons(frame):
            print(" ".join(map(str, poly)))
        return 0
    if args.apex is None or args.arms is None or args.chi is None:
        raise ValueError("angle mode needs --apex, --arms and --chi")
    left, right = (int(s) for s in args.arms.split(","))
    rest = [i for i in range(len(pts)) if i not in (args.apex, left, right)]
    frame = charvec.build_angle_frame(pts[args.apex], pts[left], pts[right],
                                      [pts[i] for i in rest])
    bits = tuple(int(b) for b in args.chi)
    polyline = charvec.polyline_from_charvec(frame, bits)
    by_point = {pts[i]: i for i in rest}
    internal = [by_point[frame.interior[k]] for k in polyline]
    print(" ".join(map(str, [left] + internal + [right])))
    return 0


def _cmd_catalan(args) -> int:
    print(f"c_{args.n} = {catalan(args.n)}")
    print(f"W_{args.n + 2} = {polygon_triangulation_count(args.n + 2)}")
    return 0


def _cmd_verify(args) -> int:
    if (args.family is None) == (args.input is None):
        raise ValueError("choose exactly one of --family or --input")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    files = tuple(sorted(glob.glob(args.input))) if args.input else ()
    if args.input and not files:
        raise ValueError(f"no files match {args.input!r}")
    cfg = harness.RunConfig(
        family=args.family, n=args.n, trials=args.trials, seed=args.seed,
        scale=args.scale, input_files=files, cap=args.cap, budget_s=args.budget,
        full_suite=args.full_suite, timings=args.timings, jobs=args.jobs)
    report = harness.run_corpus(cfg)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_jsonl(timings=args.timings))
    for v in report.verdicts:
        status = "skip" if v.skipped else ("ok" if v.passed else "FAIL")
        detail = v.skip_reason if v.skipped else f"partial={v.partial_count} bound={v.w_n} qc={v.quasi_convex}"
        print(f"{status:4} {v.instance_id}: {detail}")
    print(json.dumps(report.summary, sort_keys=True))
    return 0 if report.all_passed else 2


_COMMANDS = {
    "gen": _cmd_gen,
    "count": _cmd_count,
    "classify": _cmd_classify,
    "charvec": _cmd_charvec,
    "catalan": _cmd_catalan,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SizeCapError as exc:
        print(f"tricensus: refused: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"tricensus: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
