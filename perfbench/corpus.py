"""Instance pools, the per-workload mixes drawn from them, and golden answers.

Every instance the benchmark can run belongs to a fixed pool, and
``golden.json`` holds its expected answers, computed once by
``make_golden.py``.  A workload's mix is a list of slots; each slot names a
pool and a band of it, cut by a deterministic work measure (region states
for counting, listing size for enumeration, point count for
classification).  The workload seed picks which instances fill each slot,
so every seed runs different inputs with the same shape of work.  A round
is one instance per slot; a run cycles through its rounds.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

from tricensus import generators
from tricensus.geom import format_points

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

SCALE = 64
RANDOM_BOX = 4 * SCALE  # the box `tricensus gen --family random` uses at the default scale


POOLS: dict[str, list[dict]] = {
    "random11": [{"family": "random", "n": 11, "seed": s} for s in range(400)],
    "random12": [{"family": "random", "n": 12, "seed": s} for s in range(240)],
    "quasi_convex12_k4": [{"family": "quasi_convex", "hull": 8, "sides": list(s)}
                          for s in combinations(range(8), 4)],
    "quasi_convex12_k5": [{"family": "quasi_convex", "hull": 7, "sides": list(s)}
                          for s in combinations(range(7), 5)],
    "double_circle5": [{"family": "double_circle", "m": 5}],
    "double_circle6": [{"family": "double_circle", "m": 6}],
    "random52": [{"family": "random", "n": 52, "seed": s} for s in range(24)],
    "random60": [{"family": "random", "n": 60, "seed": s} for s in range(24)],
    "double_circle30": [{"family": "double_circle", "m": 30}],
    "double_circle38": [{"family": "double_circle", "m": 38}],
    "quasi_convex40": [{"family": "quasi_convex", "hull": 40,
                        "sides": sorted(random.Random(f"quasi_convex40/{j}").sample(range(40), 20))}
                       for j in range(24)],
}


def _bands(pool: str, count: int, lo: float = 0.0, hi: float = 1.0) -> list[tuple[str, float, float]]:
    step = (hi - lo) / count
    return [(pool, lo + k * step, lo + (k + 1) * step) for k in range(count)]


# Slot = (pool, lo, hi): the instances whose work measure ranks in the
# [lo, hi) share of the pool.  Narrow bands make two seeds cost nearly the
# same per slot.  The mixes are shaped so that op_ms.p50 and op_ms.p90 fall
# inside a populated stretch of the latency distribution, never in a gap
# between two instance classes: verify_corpus spreads 20 slots over a
# continuous range of costs; in enumerate_listing the p90 rank lands inside
# the two C(10)-sized listings (double circle m=6 and a quasi-convex 12-set)
# that top every round; classify_large has five slots, so both ranks sit in
# the middle of one slot's samples.
MIXES: dict[str, list[tuple[str, float, float]]] = {
    "verify_corpus": (_bands("random11", 8) + _bands("random12", 8, 0.0, 0.8)
                      + _bands("quasi_convex12_k4", 1) + _bands("quasi_convex12_k5", 1)
                      + _bands("double_circle5", 1) + _bands("double_circle6", 1)),
    "enumerate_listing": (_bands("random11", 10, 0.0, 0.5)
                          + _bands("quasi_convex12_k5", 1) + _bands("double_circle6", 1)),
    "classify_large": (_bands("random52", 1) + _bands("random60", 1) + _bands("quasi_convex40", 1)
                       + _bands("double_circle30", 1) + _bands("double_circle38", 1)),
}

# Distinct rounds per run; a run repeats them in order until its time is up.
ROUNDS = {"verify_corpus": 12, "enumerate_listing": 10, "classify_large": 1}

WORK_KEY = {"verify_corpus": "regions", "enumerate_listing": "partial", "classify_large": "n"}


def instance_id(spec: dict) -> str:
    if spec["family"] == "random":
        return f"random-n{spec['n']}-s{spec['seed']}"
    if spec["family"] == "double_circle":
        return f"double_circle-m{spec['m']}"
    return f"quasi_convex-h{spec['hull']}-" + ".".join(map(str, spec["sides"]))


def build(spec: dict):
    """Generate the instance with the package generators."""
    if spec["family"] == "random":
        return generators.gen_random(spec["n"], RANDOM_BOX, spec["seed"])
    if spec["family"] == "double_circle":
        return generators.gen_double_circle(spec["m"], SCALE)
    return generators.gen_quasi_convex(spec["hull"], tuple(spec["sides"]), SCALE)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def points_digest(ps) -> str:
    return digest(format_points(ps.points))


def load_golden(path=GOLDEN_PATH) -> dict[str, dict]:
    with open(path) as fh:
        return json.load(fh)["instances"]


def _band(workload: str, slot: tuple[str, float, float], golden: dict[str, dict]) -> list[dict]:
    pool, lo, hi = slot
    key = WORK_KEY[workload]
    ranked = sorted(POOLS[pool], key=lambda s: (int(golden[instance_id(s)][key]), instance_id(s)))
    first = int(lo * len(ranked))
    return ranked[first:max(int(hi * len(ranked)), first + 1)]


def candidates(workload: str, golden: dict[str, dict]) -> list[dict]:
    """Every instance some slot of the workload can draw."""
    return [spec for slot in MIXES[workload] for spec in _band(workload, slot, golden)]


def draw(workload: str, seed: int, golden: dict[str, dict]) -> list[list[dict]]:
    """The run's rounds: one spec per slot of the workload's mix, in a seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    rounds = ROUNDS[workload]
    columns = []
    for slot in MIXES[workload]:
        band = _band(workload, slot, golden)
        picks: list[dict] = []
        while len(picks) < rounds:  # distinct while the band allows
            picks.extend(rng.sample(band, min(len(band), rounds - len(picks))))
        columns.append(picks)
    out = []
    for r in range(rounds):
        row = [col[r] for col in columns]
        rng.shuffle(row)
        out.append(row)
    return out
