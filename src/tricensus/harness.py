"""Corpus-level verification: per-instance verdicts, identity suites, reports.

For every instance the harness computes the exact partial-triangulation
count, the convex-polygon baseline for the same size, and the quasi-convex
classification, then records two booleans: the count is at least the
baseline, and the count equals the baseline exactly when the set is
quasi-convex.  A failure of either would be a counterexample or an
implementation bug, and flips the process exit code to 2.

Reports are JSONL: one object per instance verdict, then a single summary
object.  Runs with the same configuration and seeds produce byte-identical
reports; to keep that true, ``runtime_ms`` is written as 0 unless timings
are explicitly requested.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from . import charvec, generators
from .catalan import (
    check_product_inequality,
    polygon_count_recurrence_holds,
    polygon_triangulation_count,
)
from .closeness import classify
from .generators import GenSpec, SplitMix64, generate
from .geom import PointSet, load_point_set
from .triangulations import count_partial

DEFAULT_CAP = 12
DEFAULT_BUDGET_S = 60.0


@dataclass(frozen=True)
class InstanceVerdict:
    instance_id: str
    n: int
    hull_size: int
    partial_count: str | None
    w_n: str | None
    quasi_convex: bool | None
    lower_bound_ok: bool | None
    equality_iff_ok: bool | None
    runtime_ms: int
    skip_reason: str | None = None

    @property
    def skipped(self) -> bool:
        return self.skip_reason is not None

    @property
    def passed(self) -> bool:
        return not self.skipped and bool(self.lower_bound_ok) and bool(self.equality_iff_ok)


def verify_instance(ps: PointSet, instance_id: str = "", cap: int = DEFAULT_CAP,
                    budget_s: float = DEFAULT_BUDGET_S) -> InstanceVerdict:
    """Count, classify and check both clauses of the extremal statement."""
    n = len(ps.points)
    h = len(ps.hull)
    if n > cap:
        return InstanceVerdict(instance_id, n, h, None, None, None, None, None, 0,
                               skip_reason=f"size {n} exceeds cap {cap}")
    start = time.perf_counter()
    partial = count_partial(ps)
    bound = polygon_triangulation_count(n)
    quasi = classify(ps).is_quasi_convex
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        return InstanceVerdict(instance_id, n, h, None, None, None, None, None,
                               int(elapsed * 1000),
                               skip_reason=f"budget exceeded ({elapsed:.1f}s > {budget_s:g}s)")
    return InstanceVerdict(
        instance_id, n, h, str(partial), str(bound), quasi,
        partial >= bound, (partial == bound) == quasi, int(elapsed * 1000))


@dataclass
class RunConfig:
    family: str | None = None
    n: int = 8
    trials: int = 10
    seed: int = 0
    scale: int = 64
    input_files: tuple[str, ...] = ()
    cap: int = DEFAULT_CAP
    budget_s: float = DEFAULT_BUDGET_S
    full_suite: bool = False
    timings: bool = False
    jobs: int = 1


@dataclass
class CorpusReport:
    config: dict
    verdicts: list[InstanceVerdict]
    summary: dict = field(default_factory=dict)

    def finalize(self, suite: dict | None) -> None:
        self.verdicts.sort(key=lambda v: v.instance_id)
        checked = [v for v in self.verdicts if not v.skipped]
        self.summary = {
            "instances": len(self.verdicts),
            "checked": len(checked),
            "skipped": len(self.verdicts) - len(checked),
            "lower_bound_failures": sum(not v.lower_bound_ok for v in checked),
            "equality_iff_failures": sum(not v.equality_iff_ok for v in checked),
            "suite": suite,
        }

    @property
    def all_passed(self) -> bool:
        if self.summary["lower_bound_failures"] or self.summary["equality_iff_failures"]:
            return False
        suite = self.summary.get("suite")
        return suite is None or all(suite.values())

    def to_jsonl(self, timings: bool = False) -> str:
        lines = []
        for v in self.verdicts:
            d = asdict(v)
            if not timings:
                d["runtime_ms"] = 0
            lines.append(json.dumps(d, sort_keys=True))
        lines.append(json.dumps({"config": self.config, "summary": self.summary}, sort_keys=True))
        return "\n".join(lines) + "\n"


def build_corpus(cfg: RunConfig) -> list[tuple[str, GenSpec]]:
    """Expand a run configuration into (instance_id, spec) pairs."""
    specs: list[GenSpec] = []
    if cfg.family == "convex":
        specs = [GenSpec("convex", cfg.n, cfg.scale, cfg.seed + t) for t in range(cfg.trials)]
    elif cfg.family == "double_circle":
        specs = [GenSpec("double_circle", cfg.n, cfg.scale)]
    elif cfg.family == "quasi_convex":
        if cfg.n < 4:
            raise ValueError("quasi_convex instances need at least 4 points")
        rng = SplitMix64(cfg.seed)
        for t in range(cfg.trials):
            k = 1 + rng.below(max(1, min(cfg.n // 2, cfg.n - 3)))
            hull = cfg.n - k
            sides = set()
            while len(sides) < k:
                sides.add(rng.below(hull))
            specs.append(GenSpec("quasi_convex", cfg.n, cfg.scale, sides=tuple(sorted(sides))))
    elif cfg.family == "random":
        specs = [GenSpec("random", cfg.n, cfg.scale, cfg.seed + t) for t in range(cfg.trials)]
    elif cfg.family is not None:
        raise ValueError(f"unknown family {cfg.family!r}")
    return [(f"{spec.instance_id()}-t{t:04d}", spec) for t, spec in enumerate(specs)]


def _verify_job(args) -> InstanceVerdict:
    instance_id, ps, cap, budget_s = args
    return verify_instance(ps, instance_id, cap, budget_s)


def run_suite_checks(seed: int) -> dict[str, bool]:
    """The identity suites: recurrences, the product inequality sweep, and
    bijection/injectivity sweeps on seeded frames."""
    recurrence = all(polygon_count_recurrence_holds(n) for n in range(3, 31))

    product = True
    for sizes in size_lists(24):
        if not check_product_inequality(sizes).holds:
            product = False
            break

    bijection = all(
        charvec.frame_bijection_holds(generators.gen_angle_frame(k % 8, 64, seed + k))
        for k in range(12))

    injective = all(
        charvec.find_charvec_collision(generators.gen_radial_frame(3 + k % 5, 64, seed + k)) is None
        for k in range(12))

    return {
        "recurrence_n_le_30": recurrence,
        "product_inequality_sum_le_24": product,
        "charvec_bijection": bijection,
        "polygon_charvec_injective": injective,
    }


def size_lists(total_cap: int):
    """All nondecreasing lists of polygon sizes >= 2 with sum <= total_cap."""
    def extend(prefix, start, budget):
        for k in range(start, budget + 1):
            cur = prefix + [k]
            yield cur
            yield from extend(cur, k, budget - k)

    yield from extend([], 2, total_cap)


def run_corpus(cfg: RunConfig) -> CorpusReport:
    instances: list[tuple[str, PointSet]] = []
    for instance_id, spec in build_corpus(cfg):
        instances.append((instance_id, generate(spec)))
    for path in cfg.input_files:
        instances.append((str(path), load_point_set(path)))

    jobs = [(iid, ps, cfg.cap, cfg.budget_s) for iid, ps in instances]
    if cfg.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            verdicts = list(pool.map(_verify_job, jobs))
    else:
        verdicts = [_verify_job(j) for j in jobs]

    suite = run_suite_checks(cfg.seed) if cfg.full_suite else None
    report = CorpusReport(config=_echo_config(cfg), verdicts=verdicts)
    report.finalize(suite)
    return report


def _echo_config(cfg: RunConfig) -> dict:
    d = asdict(cfg)
    d["input_files"] = list(d["input_files"])
    return d
