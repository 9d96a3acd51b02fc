"""``tests/reach.py`` on one small row: a right count passes with its
measurements recorded, and a wrong committed answer fails the probe."""

import json
import subprocess
import sys
from pathlib import Path

from tricensus.generators import gen_random
from tricensus.triangulations import count_partial

REACH = Path(__file__).resolve().parent / "reach.py"


def _probe(row: str, out: Path) -> tuple[int, dict]:
    run = subprocess.run([sys.executable, str(REACH), "--rows", row, "--json", str(out)],
                         capture_output=True, text=True, timeout=60)
    return run.returncode, json.loads(out.read_text())


def test_reach_probe_checks_its_count(tmp_path):
    answer = count_partial(gen_random(10, 256, 7))
    code, report = _probe(f"10:7:{answer}", tmp_path / "right.json")
    assert code == 0
    (row,) = report["rows"]
    assert (row["n"], row["seed"], row["outcome"], row["count"]) == (10, 7, "ok", answer)
    assert row["wall_s"] > 0 and row["rss_mb"] > 0
    assert row["kernel_before_s"] > 0 and row["kernel_after_s"] > 0
    assert report["summary"]["tree"] == {"every_seed_under_10s": 10, "some_seed_under_10s": 10}

    code, report = _probe(f"10:7:{answer + 1}", tmp_path / "wrong.json")
    assert code == 1
    assert [row["outcome"] for row in report["rows"]] == ["wrong"]
