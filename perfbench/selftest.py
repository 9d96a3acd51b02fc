"""Self-checks for the benchmark itself.

    python3 perfbench/selftest.py

1. A smoke-size run of every workload, untraced and traced, prints every
   metric BENCHMARK.json names, with its unit, and passes.
2. With one golden answer corrupted, the run counts that instance's ops as
   failed and exits nonzero.
3. In a directory holding only BENCHMARK.json and perfbench/, the run exits
   nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_run" / "selftest"
SEED = 7
CORRUPTED_FIELD = {"verify_corpus": "partial", "enumerate_listing": "listing",
                   "classify_large": "classify"}


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> tuple[int, str]:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_smoke(spec: dict, problems: list[str]) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, out = bench(workload, trace)
            result = last_json(out)
            label = f"{workload} trace={trace}"
            if code != 0 or result is None or not result["correct"] or result["failed"]:
                problems.append(f"{label}: exit {code}, result {result}")
                continue
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{label}: metric {metric['name']} missing or in another unit")
            extra = set(result["metrics"]) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")


def check_corrupted(problems: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import corpus

    golden = corpus.load_golden()
    for workload, field in CORRUPTED_FIELD.items():
        victim = corpus.instance_id(corpus.draw(workload, SEED, golden)[0][0])
        bad = {iid: dict(entry) for iid, entry in golden.items()}
        bad[victim][field] = "1" + bad[victim][field]
        path = WORK / f"golden-{workload}.json"
        path.write_text(json.dumps({"instances": bad}))
        code, out = bench(workload, 0, "--golden", str(path))
        result = last_json(out)
        if code == 0 or result is None or result["correct"] or not result["failed"]:
            problems.append(f"{workload}: corrupted {victim}.{field} gave exit {code}, {result}")
        elif result["failed"] >= result["attempted"]:
            problems.append(f"{workload}: corrupting one answer failed every op")


def check_bare_directory(problems: list[str]) -> None:
    bare = WORK / "bare"
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, out = bench("verify_corpus", 0, cwd=bare)
    if code == 0 or last_json(out) is not None:
        problems.append(f"bare directory: exit {code}, printed {out[-200:]!r}")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "bare").mkdir(parents=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    try:
        check_bare_directory(problems)
        check_corrupted(problems)
        check_smoke(spec, problems)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("failed" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
