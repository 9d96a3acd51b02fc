"""tricensus benchmark: closed-loop workloads over a seeded corpus.

    python3 perfbench/run.py --workload verify_corpus --seed 1 --seconds 25 --trace 0

One client, one process: each op starts when the previous one has returned.
The workload seed picks the corpus from the pools in corpus.py; set-up
generates it with the package generators and writes its point files, several
times, reporting the median.  One untimed round warms the process up, then
whole rounds run until --seconds have passed and at least MIN_OPS ops are
done.  Every op's answer is compared with golden.json; an op that raises or
differs counts as failed.

Times are reported at reference speed: every segment of about SEGMENT_S
seconds is rescaled by the reference kernel timed around it (reference.py),
which cancels the drift in machine speed between and within runs.  The
summary line before the JSON gives the wall time and the speed factor.

--trace 0 prints the end-to-end metrics.  --trace 1 instead runs each segment
of the first half of the rounds untraced and then traced, and prints the
per-layer metrics computed from the spans (written to .perfbench_run/) and
the ratio of traced to untraced wall time.  The last line of stdout is one
JSON object; the exit code is 0 only when every op was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs at least 3 times and until it has taken 2 s in all (at most 15
# times); setup_s is the median, so a short set-up is not one noisy sample.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 15
# The speed factor is measured about every SEGMENT_S seconds of ops.
SEGMENT_S = 2.0
# Enough latency samples that op_ms.p90 has at least ten beyond it.
MIN_OPS = 100


@dataclass(frozen=True)
class Instance:
    iid: str
    path: str
    golden: dict
    points_ok: bool  # the generator reproduced the point set the answers belong to


def _import_package():
    src = ROOT / "src"
    if not (src / "tricensus" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: package source not found under {src}")
    sys.path.insert(0, str(src))
    import tricensus
    if Path(tricensus.__file__).resolve().parent != (src / "tricensus").resolve():
        raise SystemExit("perfbench: imported a tricensus other than the one under src/")


# ---------------------------------------------------------------------------
# ops: each runs one unit of work from the instance's file; its check, run
# outside the timed region, compares the result with the golden answer
# ---------------------------------------------------------------------------

def _capture(argv) -> tuple[int, str, str]:
    from tricensus import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def op_verify(inst: Instance):
    from tricensus import geom, harness
    return harness.verify_instance(geom.load_point_set(inst.path), inst.iid)


def check_verify(inst: Instance, verdict) -> bool:
    g = inst.golden
    return (verdict.passed and verdict.partial_count == g["partial"]
            and verdict.quasi_convex == g["quasi_convex"])


def op_enumerate(inst: Instance):
    return _capture(["count", inst.path, "--mode", "partial", "--enumerate"])


def check_enumerate(inst: Instance, result) -> bool:
    import corpus
    code, out, err = result
    g = inst.golden
    return code == 0 and err == g["partial"] + "\n" and corpus.digest(out) == g["listing"]


def op_classify(inst: Instance):
    return _capture(["classify", inst.path, "--json"])


def check_classify(inst: Instance, result) -> bool:
    import corpus
    code, out, _ = result
    g = inst.golden
    return (code == 0 and corpus.digest(out) == g["classify"]
            and json.loads(out)["is_quasi_convex"] == g["quasi_convex"])


# op, its check, and the name of the span that wraps one op in a traced run
OPS = {
    "verify_corpus": (op_verify, check_verify, "op.verify"),
    "enumerate_listing": (op_enumerate, check_enumerate, "cli.count"),
    "classify_large": (op_classify, check_classify, "cli.classify"),
}


class Runner:
    """Runs ops, timing each and counting the ones that fail."""

    def __init__(self, workload: str, tracer=None):
        self.op, self.check, self.span_name = OPS[workload]
        self.tracer = tracer
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0

    def run(self, inst: Instance, record: bool = True) -> None:
        ok = False
        start = time.perf_counter()
        try:  # a raising op or check is a failed op; the run goes on
            if self.tracer is None:
                result = self.op(inst)
            else:
                self.tracer.op = self.attempted
                with self.tracer.span(self.span_name):
                    result = self.op(inst)
            elapsed = time.perf_counter() - start
            ok = inst.points_ok and self.check(inst, result)
        except Exception:
            elapsed = time.perf_counter() - start
            traceback.print_exc(limit=3, file=sys.stderr)
        if not record:
            return
        self.attempted += 1
        self.latencies.append(elapsed)
        if not ok:
            self.failed += 1
            print(f"perfbench: wrong answer on {inst.iid}", file=sys.stderr)

    def run_segment(self, rows, scale) -> tuple[float, float]:
        """Run whole rounds; rescale their latencies by the speed measured around them.

        Returns the segment's wall time and its reference-speed time."""
        first = len(self.latencies)
        start = time.perf_counter()
        for row in rows:
            for inst in row:
                self.run(inst)
        wall = time.perf_counter() - start
        factor = scale.close_segment()
        self.latencies[first:] = [t * factor for t in self.latencies[first:]]
        return wall, wall * factor


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def set_up(specs, directory: Path, golden) -> tuple[float, dict[str, Instance]]:
    """Generate and write the corpus; returns the time that took and the instances."""
    import corpus
    from tricensus.geom import save_point_set
    directory.mkdir(parents=True)
    paths: dict[str, str] = {}
    start = time.perf_counter()
    for spec in specs:
        iid = corpus.instance_id(spec)
        if iid not in paths:
            paths[iid] = str(directory / f"{iid}.pts")
            save_point_set(paths[iid], corpus.build(spec))
    elapsed = time.perf_counter() - start
    instances = {}
    for iid, path in paths.items():
        with open(path) as fh:
            points_ok = corpus.digest(fh.read()) == golden[iid]["points"]
        instances[iid] = Instance(iid, path, golden[iid], points_ok)
    return elapsed, instances


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(runner: Runner, ref_s: float, setup_ref: list[float]) -> dict:
    q = statistics.quantiles(runner.latencies, n=100, method="inclusive")
    return {
        "ops_per_s": {"value": runner.attempted / ref_s, "unit": "1/s"},
        "op_ms.p50": {"value": q[49] * 1000, "unit": "ms"},
        "op_ms.p90": {"value": q[89] * 1000, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
    }


def per_layer(tracer, ops: int, op_factor: float, setup_factor: float,
              untraced_s: float, traced_s: float) -> dict:
    """Per-op layer times and counts over the traced ops; times at reference speed."""
    from spans import summarize
    timed = summarize(tracer.spans, set(range(ops)))
    setup = summarize(tracer.spans, {"setup"})
    zero = {"s": 0.0, "self_s": 0.0, "amount": 0}

    def layer(name):
        return timed.get(name, zero)

    op_s = sum(layer(name)["s"] for _, _, name in OPS.values())
    count_partial = layer("triangulations.count_partial")
    enumerate_partial = layer("triangulations.enumerate_partial")

    def ms(seconds):
        return {"value": seconds * op_factor * 1000 / ops, "unit": "ms/op"}

    def per_op(amount):
        return {"value": amount / ops, "unit": "count/op"}

    def micro_per(seconds, amount, unit):
        return {"value": seconds * op_factor * 1e6 / amount if amount else 0.0, "unit": unit}

    metrics = {
        "triangulations.count_partial.ms": ms(count_partial["s"]),
        "triangulations.count_partial.share": {"value": count_partial["s"] / op_s, "unit": "ratio"},
        "triangulations.subsets": per_op(count_partial["amount"]),
        "triangulations.count_partial.us_per_subset":
            micro_per(count_partial["s"], count_partial["amount"], "us/subset"),
        "triangulations.enumerate_partial.ms": ms(enumerate_partial["s"]),
        "triangulations.listed": per_op(enumerate_partial["amount"]),
        "triangulations.enumerate_partial.us_per_triangulation":
            micro_per(enumerate_partial["s"], enumerate_partial["amount"], "us/triangulation"),
        "closeness.find_blocking_apex.calls":
            per_op(tracer.counts["closeness.find_blocking_apex.calls"]),
        "trace.overhead_ratio": {"value": traced_s / untraced_s, "unit": "ratio"},
    }
    for name in ("geom.load_point_set", "geom.general_position_violation", "geom.convex_hull",
                 "geom.orient_table", "closeness.classify"):
        metrics[f"{name}.ms"] = ms(layer(name)["s"])
    for name in ("harness.verify_instance", "cli.count", "cli.classify"):
        metrics[f"{name}.self_ms"] = ms(layer(name)["self_s"])
    for name in ("gen_random", "gen_double_circle", "gen_quasi_convex"):
        metrics[f"generators.{name}.s"] = {
            "value": setup.get(f"generators.{name}", zero)["s"] * setup_factor, "unit": "s"}
    return metrics


# ---------------------------------------------------------------------------

def set_up_repeatedly(flat, run_dir: Path, golden, scale) -> tuple[list[float], dict]:
    """Set up several times; returns the reference-speed time of each and the instances."""
    times: list[float] = []
    wall = 0.0
    while len(times) < SETUP_MIN_REPEATS or (
            wall < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS):
        shutil.rmtree(run_dir, ignore_errors=True)
        seconds, instances = set_up(flat, run_dir, golden)
        wall += seconds
        times.append(seconds * scale.close_segment())
    return times, instances


def run_timed(runner: Runner, rounds, seconds: float, scale, per_segment: int):
    """Whole segments of rounds, cycling, until the wall time and op count suffice."""
    wall = ref = 0.0
    done = 0
    while wall < seconds or runner.attempted < MIN_OPS:
        rows = [rounds[(done + k) % len(rounds)] for k in range(per_segment)]
        w, r = runner.run_segment(rows, scale)
        wall += w
        ref += r
        done += per_segment
    return wall, ref


def run_traced(workload: str, runner: Runner, rounds, seconds: float, tracer, scale,
               per_segment: int, setup_factor: float) -> tuple[float, dict]:
    """Whole passes over the first half of the rounds, each segment run untraced and
    then traced, so that both see the same machine speed: the ratio of their wall
    times is the tracing overhead, and per-op counts repeat exactly for a seed."""
    half = rounds[:(len(rounds) + 1) // 2]
    block = half * max(1, per_segment // len(half))
    traced_runner = Runner(workload, tracer)
    tracer.counts.clear()  # set-up calls find_blocking_apex too
    wall = traced_wall = traced_ref = 0.0
    while wall == 0.0 or wall < seconds / 2:
        for k in range(0, len(block), per_segment):
            rows = block[k:k + per_segment]
            wall += runner.run_segment(rows, scale)[0]
            with tracer.installed():
                w, r = traced_runner.run_segment(rows, scale)
            traced_wall += w
            traced_ref += r
    runner.attempted += traced_runner.attempted
    runner.failed += traced_runner.failed
    return traced_wall, per_layer(tracer, traced_runner.attempted, traced_ref / traced_wall,
                                  setup_factor, wall, traced_wall)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(OPS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", help="answers file to check against (default: golden.json)")
    args = parser.parse_args(argv)

    _import_package()
    import corpus
    from reference import SpeedScale
    from spans import Tracer

    golden = corpus.load_golden(args.golden or corpus.GOLDEN_PATH)
    specs = corpus.draw(args.workload, args.seed, golden)
    flat = [spec for row in specs for spec in row]
    work = ROOT / ".perfbench_run"
    run_dir = work / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    runner = Runner(args.workload)
    scale = SpeedScale()
    try:
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                _, instances = set_up(flat, run_dir, golden)
            setup_factor = scale.close_segment()
        else:
            setup_ref, instances = set_up_repeatedly(flat, run_dir, golden, scale)
        rounds = [[instances[corpus.instance_id(s)] for s in row] for row in specs]

        start = time.perf_counter()
        for inst in rounds[0]:  # warm-up, untimed and unchecked
            runner.run(inst, record=False)
        per_segment = max(1, round(SEGMENT_S / (time.perf_counter() - start)))
        scale.close_segment()

        if args.trace:
            wall, metrics = run_traced(args.workload, runner, rounds, args.seconds, tracer,
                                       scale, per_segment, setup_factor)
            tracer.write(work / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            wall, ref = run_timed(runner, rounds, args.seconds, scale, per_segment)
            metrics = end_to_end(runner, ref, setup_ref)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {runner.attempted} ops "
          f"attempted, {runner.failed} failed, fail_ratio {runner.failed / runner.attempted:.4f}; "
          f"{wall:.1f} s of ops at a median speed factor of {statistics.median(scale.factors):.3f}")
    for name, m in metrics.items():
        print(f"  {name:55} {m['value']:14.4f} {m['unit']}")
    correct = runner.failed == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
