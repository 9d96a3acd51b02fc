"""Command-line interface.

Exit codes: 0 when every mathematical check passed, 2 when a check failed
(a counterexample or an implementation bug), 1 on usage or I/O errors.  A
``verify`` run that checked no instance writes its report, then exits 1.  When
the reader of stdout closes the pipe early, as ``| head`` does, the command
exits 1 without a message.
"""

from __future__ import annotations

import argparse
import functools
import glob
import io
import json
import os
import sys

from . import charvec, harness
from .catalan import catalan, polygon_triangulation_count
from .closeness import classify
from .errors import SizeCapError
from .generators import FAMILIES, GenSpec, generate
from .geom import load_point_set, save_point_set
from .triangulations import count_full, count_partial, enumerate_full, enumerate_partial


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # parsing leaves the parser as it was, so one serves every main() call
def _build_parser() -> _Parser:
    p = _Parser(prog="tricensus",
                description="Exact triangulation counts, quasi-convexity and "
                            "characteristic-vector checks for planar point sets.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("gen", help="generate a point set and write the v1 format")
    g.add_argument("--family", required=True, choices=FAMILIES)
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
    v.add_argument("--check-psi", action="store_true", default=None, dest="check_psi",
                   help="check polygon-to-vector injectivity")

    t = sub.add_parser("catalan", help="print a Catalan number and the matching polygon count")
    t.add_argument("--n", type=int, required=True)

    r = sub.add_parser("verify", help="run the extremal checks over a corpus")
    r.add_argument("--family", choices=FAMILIES)
    r.add_argument("--input", help="glob of point files to verify instead of a family")
    r.add_argument("--n", type=int, default=8)
    r.add_argument("--trials", type=int, default=10,
                   help="seeded instances per family (at least 1)")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--scale", type=int, default=64)
    r.add_argument("--cap", type=int, default=harness.DEFAULT_CAP,
                   help="skip instances with more points than this")
    r.add_argument("--full-suite", action="store_true", dest="full_suite")
    r.add_argument("--report", help="write a JSONL report here")
    r.add_argument("--timings", action="store_true",
                   help="include real runtimes in the report (breaks byte-stable reruns)")
    r.add_argument("--jobs", type=int, default=1,
                   help="worker processes (at least 1)")
    return p


def _cmd_gen(args) -> int:
    sides = None
    if args.sides is not None:  # an empty --sides lists no side
        sides = _int_list(args.sides, "--sides") if args.sides else ()
    spec = GenSpec(args.family, args.n, args.scale, args.seed, sides)
    ps = generate(spec)
    save_point_set(args.output, ps)
    print(f"wrote {len(ps.xy)} points to {args.output}")
    return 0


def _cmd_count(args) -> int:
    ps = load_point_set(args.file)
    if args.enumerate_all:
        listing = enumerate_full(ps) if args.mode == "full" else enumerate_partial(ps)
        # one pass: the lines are counted as they are written, not listed again
        write = sys.stdout.write
        count = 0
        for line in listing.lines():
            write(line)
            count += 1
        print(count, file=sys.stderr)
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
            "assignment": {str(p): side for p, side in report.assignment.items()},
            "polygon_order": report.polygon_order,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print("quasi-convex" if report.is_quasi_convex else "not quasi-convex")
        for p, side in report.assignment.items():
            print(f"point {p} close to side {side[0]}-{side[1]}")
        if report.polygon_order:
            print("order: " + " ".join(map(str, report.polygon_order)))
    return 0


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    """The comma-separated integers given to ``flag``."""
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ValueError(f"{flag}: expected comma-separated integers, got {text!r}") from None


def _bit_string(text: str, flag: str) -> tuple[int, ...]:
    """The 0/1 string given to ``flag``, as bits."""
    if not set(text) <= {"0", "1"}:
        raise ValueError(f"{flag}: expected a 0/1 string, got {text!r}")
    return tuple(map(int, text))


def _index(value: int, n: int, flag: str) -> int:
    if not 0 <= value < n:
        raise ValueError(f"{flag}: point index {value} is not in [0, {n})")
    return value


def _cmd_charvec(args) -> int:
    # a flag of the other mode would be ignored without a word: refuse it
    for flag in ("--apex", "--arms", "--chi") if args.radial else ("--center", "--check-psi"):
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ValueError(f"{flag} is for angle mode and does not go with --radial"
                             if args.radial else f"{flag} needs --radial")
    ps = load_point_set(args.file)
    pts = ps.points
    file_index = {p: i for i, p in enumerate(pts)}  # frames reorder their points
    if args.radial:
        if args.center is None:
            raise ValueError("--radial needs --center")
        center = _index(args.center, len(pts), "--center")
        charvec.check_good_polygon_cap(len(pts) - 1)  # refused before the O(n^3) frame masks
        frame = charvec.build_radial_frame(pts[center], pts[:center] + pts[center + 1:])

        def polygon(poly) -> tuple[int, ...]:
            return tuple(file_index[frame.points[k]] for k in poly)

        if args.check_psi:
            good = charvec.enumerate_good_polygons(frame)
            if not good:  # a check over no polygon would pass without checking anything
                raise ValueError(f"--center: no good polygon wraps point {center}, "
                                 "so --check-psi has nothing to check")
            collision = charvec.find_charvec_collision(frame, good)
            if collision is None:
                print(f"injective over {len(good)} good polygons")
                return 0
            print(f"collision: {polygon(collision[0])} and {polygon(collision[1])}")
            return 2
        for poly in charvec.enumerate_good_polygons(frame):
            print(" ".join(map(str, polygon(poly))))
        return 0
    if args.apex is None or args.arms is None or args.chi is None:
        raise ValueError("angle mode needs --apex, --arms and --chi")
    apex = _index(args.apex, len(pts), "--apex")
    arms = _int_list(args.arms, "--arms")
    if len(arms) != 2:
        raise ValueError(f"--arms: expected two point indices, got {args.arms!r}")
    left, right = (_index(i, len(pts), "--arms") for i in arms)
    for i in (left, right):
        if (apex, left, right).count(i) > 1:
            raise ValueError(f"--arms: point index {i} is repeated among --apex and --arms")
    bits = _bit_string(args.chi, "--chi")
    rest = [p for i, p in enumerate(pts) if i not in (apex, left, right)]
    frame = charvec.build_angle_frame(pts[apex], pts[left], pts[right], rest)
    n = len(frame.interior)
    if len(bits) != n:
        raise ValueError(f"--chi: expected a 0/1 string of length {n}, got {args.chi!r}")
    polyline = charvec.polyline_from_charvec(frame, bits)
    internal = [file_index[frame.interior[k]] for k in polyline]
    print(" ".join(map(str, [left] + internal + [right])))
    return 0


def _cmd_catalan(args) -> int:
    print(f"c_{args.n} = {catalan(args.n)}")
    print(f"W_{args.n + 2} = {polygon_triangulation_count(args.n + 2)}")
    return 0


def _cmd_verify(args) -> int:
    if (args.family is None) == (args.input is None):
        raise ValueError("choose exactly one of --family or --input")
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    files = tuple(sorted(glob.glob(args.input))) if args.input else ()
    if args.input and not files:
        raise ValueError(f"no files match {args.input!r}")
    cfg = harness.RunConfig(
        family=args.family, n=args.n, trials=args.trials, seed=args.seed,
        scale=args.scale, input_files=files, cap=args.cap,
        full_suite=args.full_suite, timings=args.timings, jobs=args.jobs)
    report = harness.run_corpus(cfg)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_jsonl())
    for v in report.verdicts:
        status = "skip" if v.skipped else ("ok" if v.passed else "FAIL")
        detail = v.skip_reason if v.skipped else f"partial={v.partial_count} bound={v.w_n} qc={v.quasi_convex}"
        print(f"{status:4} {v.instance_id}: {detail}")
    print(json.dumps(report.summary, sort_keys=True))
    if report.summary["checked"] == 0:
        raise ValueError(f"no instance was checked ({report.summary['skipped']} skipped)")
    return 0 if report.all_passed else 2


_COMMANDS = {
    "gen": _cmd_gen,
    "count": _cmd_count,
    "classify": _cmd_classify,
    "charvec": _cmd_charvec,
    "catalan": _cmd_catalan,
    "verify": _cmd_verify,
}


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device, so that the flush at
    interpreter shutdown has no closed pipe to fail on; a stdout without a
    file descriptor is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except io.UnsupportedOperation:
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:  # the reader of stdout went away, as `| head` does
        _discard_stdout()
        return 1
    except SizeCapError as exc:
        print(f"tricensus: refused: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"tricensus: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
