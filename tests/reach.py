"""Reach probe: how large a random set's exact partial count finishes in time.

Run from anywhere with ``python tests/reach.py [--against DIR] [--rows
N:SEED:COUNT ...] [--json FILE]``.  Each row is the set ``tricensus gen
--family random --n N --seed SEED`` builds, ``gen_random(N, 256, SEED)``,
generated once by this checkout's CLI.  Its count runs as ``python -m
tricensus count FILE --mode partial`` in a child process, with table building
included, under a 3 GB address-space limit set in the child only and a 120 s
timeout.  A row records the child's wall time, its peak RSS (``ru_maxrss`` of
``os.wait4``), the printed count, and the reference kernel of
``perfbench/reference.py`` timed right before and right after the child, so a
reader can tell a slow machine from slow code.  A row ends ``ok``, ``wrong``
(a count other than the committed answer), ``memory`` (MemoryError under the
limit), ``timeout`` or ``error``.

``--against DIR`` counts every row a second time with the tree at DIR (a
checkout holding ``src/tricensus``), alternately with this one and in the
same run: the first tree goes first on even rows, the second on odd rows.
A change states its speedup from these pairs.

The default grid is random n=18..24, seeds 7 and 8, each checked against
``ANSWERS``.  Rows run by size, both seeds at each size; a seed stops after
its first row above 30 s or that does not finish.  ``--rows`` replaces the
grid by the given rows and their answers.  The summary gives, for each tree,
the largest n at which every seed finished under 10 s and the largest n at
which some seed did.  ``--json FILE`` writes the Python version, every row
and the summary.

The script exits 1 when a count is wrong or a child fails other than by
running out of memory or time, and 0 otherwise.  The file name keeps pytest
from collecting it.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # loading the kernel writes nothing under perfbench/

ROOT = Path(__file__).resolve().parents[1]
ADDRESS_LIMIT = 3 << 30  # bytes of address space for each count
TIMEOUT_S = 120.0
STOP_S = 30.0  # a seed stops after its first row above this
REACH_S = 10.0  # the headline: the largest n counted in this time

# the exact partial counts of gen_random(n, 256, seed), keyed by (n, seed)
ANSWERS = {
    (18, 7): 858062367,
    (18, 8): 829065910,
    (19, 7): 5689394995,
    (19, 8): 3379245601,
    (20, 7): 40593070645,
    (20, 8): 19539101711,
    (21, 7): 225824361626,
    (21, 8): 127746706210,
    (22, 7): 904167257392,
    (22, 8): 851145747310,
    (23, 7): 5167236886655,
    (23, 8): 8765769686294,
    (24, 7): 35539794512113,
    (24, 8): 50668770272719,
}


def load_kernel():
    """``kernel_seconds`` of ``perfbench/reference.py``, which imports nothing
    of the package."""
    spec = importlib.util.spec_from_file_location("reference", ROOT / "perfbench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.kernel_seconds


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))


def generate(n: int, seed: int, path: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-m", "tricensus", "gen", "--family", "random", "--n", str(n),
                    "--seed", str(seed), "-o", str(path)], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def count_in_child(tree: Path, path: Path, workdir: Path) -> dict:
    """One ``count --mode partial`` of ``path`` by the package of ``tree``:
    its outcome fields, timed from start to reaping."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    out, err = workdir / "stdout", workdir / "stderr"
    with open(out, "w") as out_fh, open(err, "w") as err_fh:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "tricensus", "count", str(path),
                                  "--mode", "partial"], env=env, stdout=out_fh, stderr=err_fh,
                                 preexec_fn=_limit_address_space)
        timer = threading.Timer(TIMEOUT_S, os.kill, (child.pid, signal.SIGKILL))
        timer.start()
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    row = {"wall_s": round(wall, 3), "rss_mb": round(usage.ru_maxrss / 1024, 1),
           "exit": child.returncode, "count": None}
    text = out.read_text().strip()
    if child.returncode == 0 and text.isdigit():
        row["count"] = int(text)
    elif wall >= TIMEOUT_S:
        row["outcome"] = "timeout"
    elif "MemoryError" in err.read_text():
        row["outcome"] = "memory"
    else:
        row["outcome"] = "error"
    return row


def run(trees: dict[str, Path], rows: list[tuple[int, int, int]], kernel) -> list[dict]:
    """Every row, each tree in turn, printing each result as it comes."""
    stopped: set[tuple[str, int]] = set()
    results = []
    labels = list(trees)
    with tempfile.TemporaryDirectory(prefix="tricensus-reach-") as tmp:
        workdir = Path(tmp)
        for index, (n, seed, answer) in enumerate(rows):
            if any((label, seed) in stopped for label in labels):
                continue
            path = workdir / f"random{n}_{seed}.pts"
            generate(n, seed, path)
            for label in labels[index % 2:] + labels[:index % 2]:
                before = kernel()
                row = count_in_child(trees[label], path, workdir)
                after = kernel()
                row = {"tree": label, "n": n, "seed": seed, **row,
                       "kernel_before_s": round(before, 4), "kernel_after_s": round(after, 4)}
                if row["count"] is not None:
                    row["outcome"] = "ok" if row["count"] == answer else "wrong"
                if row["outcome"] != "ok" or row["wall_s"] > STOP_S:
                    stopped.add((label, seed))
                print(f"{label:8} n={n:<3} seed={seed:<3} {row['outcome']:8} {row['wall_s']:8.2f} s "
                      f"{row['rss_mb']:8.1f} MB  kernel {row['kernel_before_s']:.3f}/"
                      f"{row['kernel_after_s']:.3f} s", flush=True)
                results.append(row)
    return results


def summarise(results: list[dict], labels) -> dict:
    """For each tree: the largest n at which every seed, and the largest at
    which some seed, finished under REACH_S."""
    summary = {}
    for label in labels:
        by_n: dict[int, list[bool]] = {}
        for row in results:
            if row["tree"] == label:
                by_n.setdefault(row["n"], []).append(row["outcome"] == "ok"
                                                     and row["wall_s"] < REACH_S)
        seeds = {row["seed"] for row in results if row["tree"] == label}
        summary[label] = {
            "every_seed_under_10s": max((n for n, ok in by_n.items()
                                         if len(ok) == len(seeds) and all(ok)), default=None),
            "some_seed_under_10s": max((n for n, ok in by_n.items() if any(ok)), default=None),
        }
    return summary


def _row(text: str) -> tuple[int, int, int]:
    n, seed, answer = map(int, text.split(":"))
    return n, seed, answer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", type=Path, help="a second tree, counted alternately")
    parser.add_argument("--rows", type=_row, nargs="+", metavar="N:SEED:COUNT",
                        help="rows to count instead of the default grid, with their answers")
    parser.add_argument("--json", type=Path, help="write the rows and the summary here")
    args = parser.parse_args(argv)
    trees = {"tree": ROOT}
    if args.against:
        trees["against"] = args.against.resolve()
    rows = args.rows or [(n, seed, ANSWERS[n, seed]) for n, seed in sorted(ANSWERS)]
    results = run(trees, rows, load_kernel())
    summary = summarise(results, trees)
    for label, reach in summary.items():
        print(f"{label}: every seed under {REACH_S:.0f} s up to n={reach['every_seed_under_10s']}, "
              f"some seed up to n={reach['some_seed_under_10s']}")
    if args.json:
        args.json.write_text(json.dumps({
            "python": platform.python_version(),
            "trees": {label: str(path) for label, path in trees.items()},
            "address_limit_bytes": ADDRESS_LIMIT, "timeout_s": TIMEOUT_S,
            "rows": results, "summary": summary}, indent=1) + "\n")
    failed = [row for row in results if row["outcome"] in ("wrong", "error")]
    for row in failed:
        print(f"FAILED: {row['tree']} n={row['n']} seed={row['seed']}: {row['outcome']}, "
              f"count {row['count']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
