"""Corpus-level verification: per-instance verdicts, identity suites, reports.

For every instance the harness computes the exact partial-triangulation
count, the convex-polygon baseline for the same size, and the quasi-convex
classification, then records two booleans: the count is at least the
baseline, and the count equals the baseline exactly when the set is
quasi-convex.  A failure of either would be a counterexample or an
implementation bug, and flips the process exit code to 2.

The size cap, decided from the point count before any work starts, is the
only reason to skip an instance, so a verdict depends on its inputs alone.
A run that checked no instance makes the CLI exit 1.

Reports are JSONL: one object per instance verdict, then a single summary
object.  Runs with the same configuration and seeds produce byte-identical
reports; to keep that true, ``runtime_ms`` is written as 0 unless the run's
configuration asks for timings.

With ``jobs > 1`` and more than one instance, instances are verified in a
process pool; ``concurrent.futures`` and ``multiprocessing`` are imported
only when a run uses that pool, so a serial run never loads them.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import asdict, dataclass

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


def verify_instance(ps: PointSet, instance_id: str = "", cap: int = DEFAULT_CAP) -> InstanceVerdict:
    """Count, classify and check both clauses of the extremal statement; an
    instance with more than ``cap`` points is skipped before anything is built."""
    n = len(ps.xy)
    h = len(ps.hull)
    if n > cap:
        return InstanceVerdict(instance_id, n, h, None, None, None, None, None, 0,
                               skip_reason=f"size {n} exceeds cap {cap}")
    start = time.perf_counter()
    partial = count_partial(ps)
    bound = polygon_triangulation_count(n)
    quasi = classify(ps).is_quasi_convex
    elapsed = time.perf_counter() - start
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
    full_suite: bool = False
    timings: bool = False
    jobs: int = 1


@dataclass(frozen=True)
class CorpusReport:
    """The verdicts of a run, in the order given, with the identity-suite
    results when the run asked for them; ``summary`` is derived from both."""
    config: dict
    verdicts: list[InstanceVerdict]
    suite: dict | None = None

    @property
    def summary(self) -> dict:
        checked = [v for v in self.verdicts if not v.skipped]
        return {
            "instances": len(self.verdicts),
            "checked": len(checked),
            "skipped": len(self.verdicts) - len(checked),
            "lower_bound_failures": sum(not v.lower_bound_ok for v in checked),
            "equality_iff_failures": sum(not v.equality_iff_ok for v in checked),
            "suite": self.suite,
        }

    @property
    def all_passed(self) -> bool:
        summary = self.summary
        if summary["lower_bound_failures"] or summary["equality_iff_failures"]:
            return False
        return self.suite is None or all(self.suite.values())

    def to_jsonl(self) -> str:
        lines = []
        for v in self.verdicts:
            d = asdict(v)
            if not self.config["timings"]:
                d["runtime_ms"] = 0
            lines.append(json.dumps(d, sort_keys=True))
        lines.append(json.dumps({"config": self.config, "summary": self.summary}, sort_keys=True))
        return "\n".join(lines) + "\n"


def build_corpus(cfg: RunConfig) -> list[tuple[str, GenSpec]]:
    """Expand a run configuration into (instance_id, spec) pairs."""
    specs: list[GenSpec] = []
    if cfg.family in ("convex", "random"):
        specs = [GenSpec(cfg.family, cfg.n, cfg.scale, cfg.seed + t) for t in range(cfg.trials)]
    elif cfg.family == "double_circle":
        specs = [GenSpec("double_circle", cfg.n, cfg.scale)]
    elif cfg.family == "quasi_convex":
        if cfg.n < 4:
            raise ValueError(f"--n: quasi_convex needs at least 4 points, got {cfg.n}")
        rng = SplitMix64(cfg.seed)
        for t in range(cfg.trials):
            k = 1 + rng.below(max(1, min(cfg.n // 2, cfg.n - 3)))
            hull = cfg.n - k
            sides = set()
            while len(sides) < k:
                sides.add(rng.below(hull))
            specs.append(GenSpec("quasi_convex", cfg.n, cfg.scale, sides=tuple(sorted(sides))))
    elif cfg.family is not None:
        raise ValueError(f"unknown family {cfg.family!r}")
    return [(f"{spec.instance_id()}-t{t:04d}", spec) for t, spec in enumerate(specs)]


def run_suite_checks(seed: int) -> dict[str, bool]:
    """The identity suites: recurrences, the product inequality sweep, and
    bijection/injectivity sweeps on seeded frames."""
    recurrence = all(polygon_count_recurrence_holds(n) for n in range(3, 31))

    product = all(check_product_inequality(sizes).holds for sizes in size_lists(24))

    bijection = all(
        charvec.frame_bijection_holds(generators.gen_angle_frame(k % 8, seed + k))
        for k in range(12))

    radial = (generators.gen_radial_frame(3 + k % 5, seed + k) for k in range(12))
    injective = all(
        charvec.find_charvec_collision(f, charvec.enumerate_good_polygons(f)) is None
        for f in radial)

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
    corpus = build_corpus(cfg)
    ids = [iid for iid, _ in corpus] + [str(path) for path in cfg.input_files]
    point_sets = ([generate(spec) for _, spec in corpus]
                  + [load_point_set(path) for path in cfg.input_files])
    caps = itertools.repeat(cfg.cap)
    if cfg.jobs > 1 and len(ids) > 1:
        # imported here: the pool stack costs every serial run memory it never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(point_sets))) as pool:
            verdicts = list(pool.map(verify_instance, point_sets, ids, caps))
    else:
        verdicts = list(map(verify_instance, point_sets, ids, caps))

    verdicts.sort(key=lambda v: v.instance_id)
    suite = run_suite_checks(cfg.seed) if cfg.full_suite else None
    return CorpusReport(asdict(cfg), verdicts, suite)
