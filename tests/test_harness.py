import concurrent.futures
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tricensus
from tricensus import charvec, harness, triangulations
from tricensus.catalan import polygon_triangulation_count
from tricensus.cli import main
from tricensus.generators import GenSpec, gen_convex, gen_double_circle, generate
from tricensus.geom import POINTS_HEADER, PointSet, save_point_set
from tricensus.harness import (
    CorpusReport,
    RunConfig,
    run_corpus,
    run_suite_checks,
    size_lists,
    verify_instance,
)

PENTAGON_PLUS_CENTER = [(0, -10), (10, -3), (6, 9), (-6, 9), (-10, -3), (0, 0)]


def test_verify_instance_convex_heptagon():
    v = verify_instance(gen_convex(7, 64, seed=2), "heptagon")
    assert v.partial_count == "42" and v.w_n == "42"
    assert v.quasi_convex and v.lower_bound_ok and v.equality_iff_ok
    assert v.passed and not v.skipped


def test_verify_instance_pentagon_with_center():
    v = verify_instance(PointSet.from_points(PENTAGON_PLUS_CENTER), "pent+center")
    assert int(v.partial_count) > 14
    assert not v.quasi_convex
    assert v.lower_bound_ok and v.equality_iff_ok


def test_verify_instance_double_circle():
    v = verify_instance(gen_double_circle(3), "dc3")
    assert v.partial_count == "14" and v.quasi_convex
    assert v.lower_bound_ok and v.equality_iff_ok


def _forbid_tables(m: pytest.MonkeyPatch) -> None:
    """Make building a region table or the orientation table fail."""
    def built(*args):
        raise AssertionError("a table was built for a skipped instance")

    m.setattr(triangulations, "_RegionTables", built)
    m.setattr(PointSet, "orient_table", built)


def test_verify_instance_cap_skips(monkeypatch):
    ps = gen_convex(13, 64, seed=0)
    # the cap is decided before any table or region mask is built
    _forbid_tables(monkeypatch)
    v = verify_instance(ps, "big", cap=12)
    assert v.skipped and "cap" in v.skip_reason
    assert v.partial_count is None


FAMILIES = st.sampled_from(["convex", "double_circle", "quasi_convex", "random"])


@settings(max_examples=40, deadline=None)
@given(family=FAMILIES, n=st.integers(4, 9), cap=st.integers(0, 12), seed=st.integers(0, 999))
def test_verify_instance_skips_exactly_above_the_cap(family, n, cap, seed):
    if family == "double_circle":
        n = max(6, n + n % 2)
    ps = generate(GenSpec(family, n, 64, seed, (0,) if family == "quasi_convex" else None))
    with pytest.MonkeyPatch.context() as m:
        if n > cap:  # a skipped instance builds neither the orientation table nor any region table
            _forbid_tables(m)
        v = verify_instance(ps, "drawn", cap)
    assert v.skipped == (n > cap)
    if v.skipped:
        assert v.skip_reason == f"size {n} exceeds cap {cap}"
        assert v.partial_count is None
    else:
        assert v.partial_count is not None and v.lower_bound_ok and v.equality_iff_ok


@settings(max_examples=6, deadline=None)
@given(family=st.sampled_from(["convex", "quasi_convex", "random"]),
       n=st.integers(4, 8), seed=st.integers(0, 10**6))
def test_parallel_report_is_byte_identical_to_serial(family, n, seed):
    # a double circle family is one instance, which never reaches the pool
    cfg = RunConfig(family=family, n=n, trials=3, seed=seed)
    serial = run_corpus(cfg).to_jsonl()
    cfg.jobs = 2
    # the config line echoes the job count; every other byte must match
    assert run_corpus(cfg).to_jsonl() == serial.replace('"jobs": 1', '"jobs": 2')


def test_run_corpus_starts_at_most_one_worker_per_instance(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # run_corpus imports the pool from concurrent.futures only when it uses it
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = RunConfig(family="random", n=6, trials=2, seed=4)
    serial = run_corpus(cfg).to_jsonl()
    for jobs, workers in ((6, 2), (2, 2)):
        cfg.jobs = jobs
        # the config line echoes the requested job count
        assert run_corpus(cfg).to_jsonl() == serial.replace('"jobs": 1', f'"jobs": {jobs}')
        assert started.pop() == workers
    cfg.trials = 3
    run_corpus(cfg)
    assert started == [2]


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    env =dict(os.environ, PYTHONPATH=str(Path(tricensus.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


_POOL_MODULES_SCRIPT = """
import contextlib, io, json, sys
import tricensus, tricensus.cli
pool_modules = ("multiprocessing", "concurrent.futures.process")
loaded = [[m in sys.modules for m in pool_modules]]
argv = ["verify", "--family", "random", "--n", "6", "--trials", "3", "--seed", "4"]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [tricensus.cli.main(argv)]
    loaded.append([m in sys.modules for m in pool_modules])
    codes.append(tricensus.cli.main([*argv, "--jobs", "2"]))
loaded.append([m in sys.modules for m in pool_modules])
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_only_a_pooled_run_loads_the_process_pool():
    """A fresh interpreter, since pytest's own process may hold multiprocessing
    already: importing the package and a serial verify load neither
    multiprocessing nor the pool; a --jobs 2 run over three instances loads
    both."""
    run = _run_fresh(_POOL_MODULES_SCRIPT)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["codes"] == [0, 0]
    assert result["loaded"] == [[False, False], [False, False], [True, True]]


def test_importing_a_module_loads_only_that_module():
    """The package imports nothing, so importing geom, which imports no other
    package module, loads exactly the package and geom."""
    run = _run_fresh("import json, sys, tricensus.geom\n"
                     "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'tricensus')))")
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == ["tricensus", "tricensus.geom"]


def test_readme_library_sketch_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sketch = readme.split("\n## Library sketch\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "import" in sketch
    run = _run_fresh(sketch)
    assert run.returncode == 0, run.stderr


def test_run_corpus_empty():
    report = run_corpus(RunConfig(family=None, input_files=()))
    assert report.summary["instances"] == 0
    assert report.all_passed


def test_run_corpus_families():
    for family, n in (("convex", 6), ("double_circle", 6), ("quasi_convex", 6), ("random", 6)):
        report = run_corpus(RunConfig(family=family, n=n, trials=3, seed=9))
        assert report.summary["lower_bound_failures"] == 0
        assert report.summary["equality_iff_failures"] == 0
        assert report.all_passed


def test_reports_byte_identical_across_reruns():
    cfg = RunConfig(family="random", n=7, trials=5, seed=123)
    assert run_corpus(cfg).to_jsonl() == run_corpus(cfg).to_jsonl()


def test_report_shape_and_summary_tallies():
    report = run_corpus(RunConfig(family="random", n=6, trials=4, seed=5))
    lines = report.to_jsonl().strip().split("\n")
    assert len(lines) == 5
    verdicts = [json.loads(line) for line in lines[:-1]]
    ids = [v["instance_id"] for v in verdicts]
    assert ids == sorted(ids)
    for v in verdicts:
        assert set(v) == {"instance_id", "n", "hull_size", "partial_count", "w_n",
                          "quasi_convex", "lower_bound_ok", "equality_iff_ok",
                          "runtime_ms", "skip_reason"}
        assert v["runtime_ms"] == 0  # zeroed for reproducibility unless timings requested
    tail = json.loads(lines[-1])
    assert tail["summary"]["instances"] == len(verdicts)
    assert tail["summary"]["checked"] + tail["summary"]["skipped"] == len(verdicts)


def test_report_runtimes_follow_the_config_timings_flag():
    verdict = verify_instance(gen_convex(5, 64, seed=1), "p5")
    verdict = dataclasses.replace(verdict, runtime_ms=7)
    for timings, runtime in ((False, 0), (True, 7)):
        report = CorpusReport(config={"timings": timings}, verdicts=[verdict])
        assert json.loads(report.to_jsonl().split("\n")[0])["runtime_ms"] == runtime


def test_report_built_by_hand_is_whole():
    """A report derives its summary and verdict from the verdicts and the
    suite it is built with, with no further call."""
    passing = verify_instance(gen_convex(5, 64, seed=1), "a")
    failing = dataclasses.replace(passing, instance_id="b", lower_bound_ok=False)
    skipped = verify_instance(gen_convex(6, 64, seed=1), "c", cap=5)
    suite = {"recurrence_n_le_30": True, "charvec_bijection": False}
    report = CorpusReport({"timings": False}, [passing, failing, skipped], suite)
    summary = {"instances": 3, "checked": 2, "skipped": 1, "lower_bound_failures": 1,
               "equality_iff_failures": 0, "suite": suite}
    assert report.summary == summary
    assert report.all_passed is False
    lines = report.to_jsonl().strip().split("\n")
    assert [json.loads(line)["instance_id"] for line in lines[:-1]] == ["a", "b", "c"]
    assert json.loads(lines[-1]) == {"config": {"timings": False}, "summary": summary}
    # a failing suite fails a run whose verdicts all pass
    assert CorpusReport({}, [passing], suite).all_passed is False
    assert CorpusReport({}, [passing], {"charvec_bijection": True}).all_passed is True


def test_run_corpus_parallel_matches_serial():
    cfg = RunConfig(family="random", n=7, trials=6, seed=77)
    serial = run_corpus(cfg)
    cfg.jobs = 2
    parallel = run_corpus(cfg)
    # runtimes differ run to run; the report serialization zeroes them
    assert parallel.to_jsonl().split("\n")[:-2] == serial.to_jsonl().split("\n")[:-2]
    assert parallel.summary == serial.summary


def test_suite_checks_pass():
    suite = run_suite_checks(seed=0)
    assert suite == {
        "recurrence_n_le_30": True,
        "product_inequality_sum_le_24": True,
        "charvec_bijection": True,
        "polygon_charvec_injective": True,
    }


def test_suite_checks_report_a_broken_bijection(monkeypatch):
    real = charvec.polyline_charvec

    def first_bit_cleared(frame, polyline):
        # merges every two vectors that differ only in the first bit
        vec = real(frame, polyline)
        return vec and (0, *vec[1:])

    monkeypatch.setattr(charvec, "polyline_charvec", first_bit_cleared)
    assert run_suite_checks(seed=0) == {
        "recurrence_n_le_30": True,
        "product_inequality_sum_le_24": True,
        "charvec_bijection": False,
        "polygon_charvec_injective": True,
    }


def test_size_lists_enumeration():
    small = [tuple(s) for s in size_lists(6)]
    assert (2,) in small and (2, 2, 2) in small and (6,) in small and (3, 3) in small
    assert all(sum(s) <= 6 and all(k >= 2 for k in s) for s in small)
    assert len(small) == len(set(small))


# -- CLI --------------------------------------------------------------------

def test_cli_catalan(capsys):
    assert main(["catalan", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "c_5 = 42" in out and "W_7 = 42" in out


def test_cli_gen_count_classify(tmp_path, capsys):
    target = tmp_path / "dc.pts"
    assert main(["gen", "--family", "double_circle", "--n", "6", "-o", str(target)]) == 0
    capsys.readouterr()
    assert main(["count", str(target), "--mode", "partial"]) == 0
    assert capsys.readouterr().out.strip() == "14"
    assert main(["count", str(target), "--mode", "full"]) == 0
    capsys.readouterr()
    assert main(["classify", str(target), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_quasi_convex"] is True
    assert len(payload["polygon_order"]) == 6


def test_cli_count_enumerate(tmp_path, capsys):
    target = tmp_path / "quad.pts"
    save_point_set(target, PointSet.from_points([(0, 0), (5, 1), (6, 5), (1, 6)]))
    assert main(["count", str(target), "--enumerate"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 2
    assert {frozenset(line.split()) for line in out} == {
        frozenset({"0,1,2", "0,2,3"}), frozenset({"0,1,3", "1,2,3"})}



class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_cli_listing_into_a_closed_pipe_exits_1_quietly(tmp_path, capsys, monkeypatch):
    target = tmp_path / "dc5.pts"
    save_point_set(target, gen_double_circle(5))
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["count", str(target), "--mode", "partial", "--enumerate"]) == 1
    assert capsys.readouterr().err == ""


def test_cli_listing_piped_into_head_exits_1_quietly(tmp_path):
    """A real pipe closed after one line, as `| head -1` closes it.  The
    listing (about 400 kB) outgrows the pipe's buffer, so the command meets
    the closed pipe while it writes, then exits through the interpreter's
    shutdown with nothing on stderr."""
    target = tmp_path / "random11.pts"
    save_point_set(target, generate(GenSpec("random", 11, seed=5)))
    env = dict(os.environ, PYTHONPATH=str(Path(tricensus.__file__).resolve().parents[1]))
    with subprocess.Popen([sys.executable, "-m", "tricensus", "count", str(target),
                           "--mode", "partial", "--enumerate"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first == b"0,2,7 0,2,8 0,3,5 0,3,8 0,7,9\n"
    assert (code, err) == (1, b"")

def test_cli_charvec_polyline(tmp_path, capsys):
    target = tmp_path / "frame.pts"
    save_point_set(target, PointSet.from_points([(0, 4), (-4, 0), (4, 0), (0, 1)]))
    assert main(["charvec", str(target), "--apex", "0", "--arms", "1,2", "--chi", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1 3 2"
    assert main(["charvec", str(target), "--apex", "0", "--arms", "1,2", "--chi", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1 2"


def test_cli_charvec_names_a_point_outside_the_angle_in_file_coordinates(tmp_path, capsys):
    target = tmp_path / "dc8.pts"
    ps = gen_double_circle(4)
    save_point_set(target, ps)
    sevenths = tmp_path / "dc8_7.pts"
    sevenths.write_text(POINTS_HEADER + "\n" + "".join(f"{x}/7 {y}/7\n" for x, y in ps.xy))
    for path, point in ((target, "(1952, -576)"), (sevenths, "(1952/7, -576/7)")):
        assert main(["charvec", str(path), "--apex", "0", "--arms", "1,2", "--chi", "01001"]) == 1
        assert capsys.readouterr() == (
            "", f"tricensus: error: {point} is not strictly inside the angle\n")


def test_cli_charvec_radial(tmp_path, capsys):
    target = tmp_path / "radial.pts"
    save_point_set(target, PointSet.from_points([(0, 0), (2, 1), (-3, 2), (1, -3)]))
    assert main(["charvec", str(target), "--radial", "--center", "0", "--check-psi"]) == 0
    assert "injective" in capsys.readouterr().out


def test_cli_charvec_radial_prints_file_indices(tmp_path, capsys, monkeypatch):
    # the frame sorts the points ccw from the reference direction (0, -1): file
    # points 4, 1, 2, 3 are frame positions 0, 1, 2, 3
    target = tmp_path / "radial.pts"
    save_point_set(target, PointSet.from_points([(0, 0), (5, 1), (-1, 6), (-6, -1), (3, -5)]))
    assert main(["charvec", str(target), "--radial", "--center", "0"]) == 0
    assert capsys.readouterr().out == "4 1 3\n4 2 3\n4 1 2 3\n"
    save_point_set(target, PointSet.from_points([(5, 1), (-1, 6), (0, 0), (-6, -1), (3, -5)]))
    assert main(["charvec", str(target), "--radial", "--center", "2"]) == 0
    assert capsys.readouterr().out == "4 0 3\n4 1 3\n4 0 1 3\n"
    # no frame has a collision, so a made-up one (in frame positions) checks the mapping
    monkeypatch.setattr(charvec, "find_charvec_collision", lambda frame, polygons: ((0, 1, 3), (0, 2, 3)))
    assert main(["charvec", str(target), "--radial", "--center", "2", "--check-psi"]) == 2
    assert capsys.readouterr().out == "collision: (4, 0, 3) and (4, 1, 3)\n"


def test_cli_charvec_check_psi_refuses_a_center_no_good_polygon_wraps(tmp_path, capsys):
    target = tmp_path / "dc8.pts"
    ps = gen_double_circle(4)
    assert 3 in ps.hull  # so no good polygon wraps point 3
    save_point_set(target, ps)
    assert main(["charvec", str(target), "--radial", "--center", "3", "--check-psi"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("tricensus: error: --center: no good polygon wraps point 3, "
                            "so --check-psi has nothing to check\n")
    # an empty listing is still an answer
    assert main(["charvec", str(target), "--radial", "--center", "3"]) == 0
    assert capsys.readouterr() == ("", "")
    assert main(["charvec", str(target), "--radial", "--center", "6", "--check-psi"]) == 0
    assert capsys.readouterr().out == "injective over 31 good polygons\n"


def test_cli_charvec_radial_refuses_above_the_cap_before_building_the_frame(
        tmp_path, capsys, monkeypatch):
    target = tmp_path / "dc30.pts"
    assert main(["gen", "--family", "double_circle", "--n", "30", "-o", str(target)]) == 0
    capsys.readouterr()

    def built(*args):
        raise AssertionError("the radial frame was built before the size cap was checked")

    monkeypatch.setattr(charvec, "build_radial_frame", built)
    for extra in ([], ["--check-psi"]):
        assert main(["charvec", str(target), "--radial", "--center", "15", *extra]) == 1
        assert capsys.readouterr() == (
            "", "tricensus: refused: good-polygon enumeration refused for 29 points (cap 10)\n")


def test_cli_charvec_check_psi_enumerates_the_good_polygons_once(tmp_path, capsys, monkeypatch):
    target = tmp_path / "dc8.pts"
    save_point_set(target, gen_double_circle(4))
    calls = []
    enumerate_good_polygons = charvec.enumerate_good_polygons

    def counted(frame):
        calls.append(frame)
        return enumerate_good_polygons(frame)

    monkeypatch.setattr(charvec, "enumerate_good_polygons", counted)
    for center, code in (("6", 0), ("3", 1)):
        calls.clear()
        assert main(["charvec", str(target), "--radial", "--center", center, "--check-psi"]) == code
        assert len(calls) == 1
    assert capsys.readouterr().out == "injective over 31 good polygons\n"


def _main_in_process(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse exits on a usage error
        return exc.code


def test_cli_main_calls_in_one_process_match_separate_runs(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
    target = tmp_path / "pentagon.pts"
    save_point_set(target, PointSet.from_points(PENTAGON_PLUS_CENTER))
    calls = (["count"], ["classify", str(target), "--json"],
             ["count", str(target), "--mode", "partial"], ["classify", "--bogus", str(target)])
    in_process = []
    for argv in calls:
        in_process.append((_main_in_process(argv), *capsys.readouterr()))
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=str(Path(tricensus.__file__).resolve().parents[1]))
    alone = []
    for argv in calls:
        run = subprocess.run([sys.executable, "-m", "tricensus", *argv],
                             capture_output=True, text=True, env=env, timeout=60)
        alone.append((run.returncode, run.stdout, run.stderr))
    assert in_process == alone
    assert [code for code, _, _ in alone] == [1, 0, 0, 1]
    assert alone[0][2].startswith("usage: tricensus count")
    assert alone[2][1] == "16\n"  # more than the 14 of a convex hexagon


def test_cli_charvec_angle_mode_rejects_radial_flags(tmp_path, capsys):
    target = tmp_path / "frame.pts"
    save_point_set(target, PointSet.from_points([(0, 4), (-4, 0), (4, 0), (0, 1)]))
    angle = ["charvec", str(target), "--apex", "0", "--arms", "1,2", "--chi", "1"]
    for extra, flag in ((["--check-psi", "--center", "3"], "--center"),
                        (["--center", "0"], "--center"),
                        (["--check-psi"], "--check-psi")):
        assert main([*angle, *extra]) == 1
        assert capsys.readouterr() == ("", f"tricensus: error: {flag} needs --radial\n")


def test_cli_charvec_radial_mode_rejects_angle_flags(tmp_path, capsys):
    target = tmp_path / "radial.pts"
    save_point_set(target, PointSet.from_points([(0, 0), (2, 1), (-3, 2), (1, -3)]))
    for extra, flag in ((["--chi", "1"], "--chi"),
                        (["--apex", "1"], "--apex"),
                        (["--apex", "0"], "--apex"),
                        (["--arms", "1,2"], "--arms"),
                        (["--check-psi", "--apex", "1", "--arms", "2,3", "--chi", "0"], "--apex")):
        assert main(["charvec", str(target), "--radial", "--center", "0", *extra]) == 1
        assert capsys.readouterr() == (
            "", f"tricensus: error: {flag} is for angle mode and does not go with --radial\n")


def test_cli_charvec_rejects_repeated_apex_or_arms(tmp_path, capsys):
    target = tmp_path / "frame.pts"
    save_point_set(target, PointSet.from_points([(0, 4), (-4, 0), (4, 0), (0, 1)]))
    for arms, repeated in (("1,1", 1), ("0,2", 0), ("2,0", 0), ("0,0", 0)):
        assert main(["charvec", str(target), "--apex", "0", "--arms", arms, "--chi", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"tricensus: error: --arms: point index {repeated} "
                                "is repeated among --apex and --arms\n")
        assert captured.out == ""


def test_cli_charvec_rejects_indices_out_of_range(tmp_path, capsys):
    target = tmp_path / "frame.pts"
    save_point_set(target, PointSet.from_points([(0, 4), (-4, 0), (4, 0), (0, 1)]))
    for flag, extra in (("--center", ["--radial", "--center", "99"]),
                        ("--center", ["--radial", "--center", "-1"]),
                        ("--apex", ["--apex", "99", "--arms", "1,2", "--chi", "1"]),
                        ("--apex", ["--apex", "-1", "--arms", "1,2", "--chi", "1"]),
                        ("--arms", ["--apex", "0", "--arms", "1,99", "--chi", "1"])):
        assert main(["charvec", str(target), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"tricensus: error: {flag}: point index ")
        assert captured.err.endswith(" is not in [0, 4)\n")
        assert captured.out == ""


def test_cli_charvec_rejects_malformed_arms(tmp_path, capsys):
    target = tmp_path / "frame.pts"
    save_point_set(target, PointSet.from_points([(0, 4), (-4, 0), (4, 0), (0, 1)]))
    for arms, problem in (("1,2,3", "expected two point indices"),
                          ("1", "expected two point indices"),
                          ("a,b", "expected comma-separated integers")):
        assert main(["charvec", str(target), "--apex", "0", "--arms", arms, "--chi", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"tricensus: error: --arms: {problem}, got {arms!r}\n"
        assert captured.out == ""


def test_cli_charvec_rejects_malformed_chi(tmp_path, capsys):
    target = tmp_path / "frame.pts"
    save_point_set(target, PointSet.from_points([(0, 4), (-4, 0), (4, 0), (0, 1)]))
    for chi, problem in (("x", "expected a 0/1 string"),
                         ("012", "expected a 0/1 string"),
                         ("01", "expected a 0/1 string of length 1"),
                         ("", "expected a 0/1 string of length 1")):
        assert main(["charvec", str(target), "--apex", "0", "--arms", "1,2", "--chi", chi]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"tricensus: error: --chi: {problem}, got {chi!r}\n"
        assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["--radial"], "--radial needs --center"),
    (["--apex", "1", "--arms", "0,2"], "angle mode needs --apex, --arms and --chi"),
])
def test_cli_charvec_rejects_a_missing_flag(tmp_path, capsys, argv, message):
    target = tmp_path / "dc8.pts"
    save_point_set(target, gen_double_circle(4))
    assert main(["charvec", str(target), *argv]) == 1
    assert capsys.readouterr() == ("", f"tricensus: error: {message}\n")


def test_cli_verify_rejects_a_glob_that_matches_no_file(tmp_path, capsys):
    pattern = str(tmp_path / "missing*.pts")
    assert main(["verify", "--input", pattern]) == 1
    assert capsys.readouterr() == ("", f"tricensus: error: no files match {pattern!r}\n")


def test_run_corpus_rejects_an_unknown_family():
    with pytest.raises(ValueError) as rejected:
        run_corpus(RunConfig(family="mystery"))
    assert str(rejected.value) == "unknown family 'mystery'"


@pytest.mark.parametrize("spec, text", [
    (["--family", "double_circle", "--n", "8"],
     "quasi-convex\n"
     "point 4 close to side 0-1\npoint 5 close to side 1-2\n"
     "point 6 close to side 2-3\npoint 7 close to side 3-0\n"
     "order: 1 5 2 6 3 7 0 4\n"),
    (["--family", "random", "--n", "9", "--seed", "3"],
     "not quasi-convex\npoint 3 close to side 6-2\n"),
], ids=["double_circle8", "random9"])
def test_cli_classify_plain_text(tmp_path, capsys, spec, text):
    target = tmp_path / "set.pts"
    assert main(["gen", *spec, "-o", str(target)]) == 0
    capsys.readouterr()
    assert main(["classify", str(target)]) == 0
    assert capsys.readouterr() == (text, "")


def test_cli_gen_rejects_out_of_range_or_repeated_sides(tmp_path, capsys):
    target = tmp_path / "out.pts"
    for sides, problem in (("99", "side index 99 is not in [0, 7)"),
                           ("0,7", "side index 7 is not in [0, 6)"),
                           ("-1", "side index -1 is not in [0, 7)"),
                           ("1,1", "side index 1 is repeated")):
        assert main(["gen", "--family", "quasi_convex", "--n", "8", f"--sides={sides}",
                     "-o", str(target)]) == 1
        assert capsys.readouterr().err == f"tricensus: error: --sides: {problem}\n"
    assert not target.exists()


def test_cli_gen_rejects_malformed_sides(tmp_path, capsys):
    target = tmp_path / "out.pts"
    for sides in ("a", "0,x", "1,,2"):
        assert main(["gen", "--family", "quasi_convex", "--n", "8", "--sides", sides,
                     "-o", str(target)]) == 1
        assert capsys.readouterr().err == (
            f"tricensus: error: --sides: expected comma-separated integers, got {sides!r}\n")
    assert not target.exists()


def test_cli_gen_sides_needs_quasi_convex(tmp_path, capsys):
    target = tmp_path / "out.pts"
    for family in ("convex", "double_circle", "random"):
        assert main(["gen", "--family", family, "--n", "6", "--sides", "0",
                     "-o", str(target)]) == 1
        assert capsys.readouterr().err == "tricensus: error: --sides needs --family quasi_convex\n"
    assert not target.exists()
    assert main(["gen", "--family", "quasi_convex", "--n", "6", "--sides", "0",
                 "-o", str(target)]) == 0


@pytest.mark.parametrize("argv,problem", [
    (["gen", "--family", "double_circle", "--n", "4"],
     "double_circle needs at least 6 points, got 4"),
    (["gen", "--family", "quasi_convex", "--n", "4", "--sides", "0,1"],
     "quasi_convex with sides 0,1 needs at least 5 points, got 4"),
    (["gen", "--family", "random", "--n", "2"], "random needs at least 3 points, got 2"),
    (["verify", "--family", "double_circle", "--n", "4"],
     "double_circle needs at least 6 points, got 4"),
    (["verify", "--family", "quasi_convex", "--n", "3"],
     "quasi_convex needs at least 4 points, got 3"),
])
def test_cli_rejects_too_few_points(tmp_path, capsys, argv, problem):
    target = tmp_path / "out.pts"
    extra = ["-o", str(target)] if argv[0] == "gen" else []
    assert main(argv + extra) == 1
    assert capsys.readouterr().err == f"tricensus: error: --n: {problem}\n"
    assert not target.exists()


def test_cli_gen_checks_n_before_sides(tmp_path, capsys):
    target = tmp_path / "out.pts"
    assert main(["gen", "--family", "quasi_convex", "--n", "4", "--sides", "0,1,2",
                 "-o", str(target)]) == 1
    assert capsys.readouterr().err == (
        "tricensus: error: --n: quasi_convex with sides 0,1,2 needs at least 6 points, got 4\n")
    assert not target.exists()


@pytest.mark.parametrize("family", ["convex", "double_circle", "quasi_convex", "random"])
@pytest.mark.parametrize("command", ["gen", "verify"])
def test_cli_refuses_scale_below_8(tmp_path, capsys, command, family):
    target = tmp_path / "out"
    extra = ["-o", str(target)] if command == "gen" else ["--report", str(target)]
    assert main([command, "--family", family, "--n", "8", "--scale", "4"] + extra) == 1
    captured = capsys.readouterr()
    assert captured.err == "tricensus: error: --scale: expected at least 8, got 4\n"
    assert captured.out == ""
    assert not target.exists()


def test_cli_verify_exit_codes(tmp_path, capsys):
    report = tmp_path / "out.jsonl"
    code = main(["verify", "--family", "convex", "--n", "6", "--trials", "2",
                 "--seed", "4", "--report", str(report)])
    assert code == 0
    assert report.exists()
    lines = report.read_text().strip().split("\n")
    assert len(lines) == 3
    capsys.readouterr()
    # usage errors exit 1
    assert main(["verify", "--n", "6"]) == 1
    assert main(["count", str(tmp_path / "missing.pts")]) == 1
    two = tmp_path / "two.pts"
    two.write_text("# tricensus points v1\n0 0\n1 0\n")
    capsys.readouterr()
    assert main(["classify", str(two)]) == 1
    assert capsys.readouterr() == ("", "tricensus: error: a point set needs at least 3 points\n")


@pytest.mark.parametrize("offset, failures", [(-1, "lower_bound_failures"),
                                               (0, "equality_iff_failures")])
def test_cli_verify_exits_2_when_a_clause_fails(offset, failures, tmp_path, capsys, monkeypatch):
    """A count below the convex baseline fails the lower bound; a count at the
    baseline on a set that is not quasi-convex fails the equality clause."""
    target = tmp_path / "pent.pts"
    save_point_set(target, PointSet.from_points(PENTAGON_PLUS_CENTER))
    inputs = (["--family", "random", "--n", "7", "--trials", "1", "--seed", "3"] if offset
              else ["--input", str(target)])
    monkeypatch.setattr(harness, "count_partial",
                        lambda ps: polygon_triangulation_count(len(ps.points)) + offset)
    report = tmp_path / "out.jsonl"
    assert main(["verify", "--report", str(report), *inputs]) == 2
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0].startswith("FAIL ")
    summary = json.loads(out[-1])
    assert summary["checked"] == summary[failures] == 1
    assert json.loads(report.read_text().strip().split("\n")[-1])["summary"] == summary


def test_cli_verify_input_glob(tmp_path, capsys):
    for k, n in enumerate((5, 6)):
        save_point_set(tmp_path / f"c{k}.pts", gen_convex(n, 64, seed=k))
    report = tmp_path / "out.jsonl"
    assert main(["verify", "--input", str(tmp_path / "*.pts"), "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "c0.pts" in out and "c1.pts" in out
    # the config line lists the matched files in sorted order, as a JSON array
    files = json.dumps([str(tmp_path / "c0.pts"), str(tmp_path / "c1.pts")])
    assert report.read_text().split("\n")[-2] == (
        '{"config": {"cap": 12, "family": null, "full_suite": false, '
        f'"input_files": {files}, "jobs": 1, "n": 8, "scale": 64, "seed": 0, '
        '"timings": false, "trials": 10}, "summary": {"checked": 2, '
        '"equality_iff_failures": 0, "instances": 2, "lower_bound_failures": 0, '
        '"skipped": 0, "suite": null}}')


def test_cli_verify_that_checks_nothing_exits_1(tmp_path, capsys):
    report = tmp_path / "out.jsonl"
    for k in range(3):
        save_point_set(tmp_path / f"c{k}.pts", gen_convex(6, 64, seed=k))
    for extra, skipped in ((["--family", "random", "--seed", "7", "--n", "14", "--trials", "2",
                             "--cap", "12"], 2),
                           (["--input", str(tmp_path / "*.pts"), "--cap", "5"], 3)):
        report.unlink(missing_ok=True)
        assert main(["verify", "--report", str(report), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"tricensus: error: no instance was checked ({skipped} skipped)\n"
        assert json.loads(captured.out.strip().split("\n")[-1])["checked"] == 0
        summary = json.loads(report.read_text().strip().split("\n")[-1])["summary"]
        assert summary["checked"] == 0 and summary["skipped"] == skipped


def test_cli_verify_rejects_budget(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "convex", "--n", "5", "--trials", "1", "--budget", "1"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --budget" in capsys.readouterr().err


def test_cli_verify_rejects_trials_below_one(capsys):
    for trials in ("0", "-2"):
        assert main(["verify", "--family", "random", "--n", "6", "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert f"--trials must be at least 1, got {trials}" in captured.err
        assert captured.out == ""


def test_cli_verify_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-3"):
        assert main(["verify", "--family", "convex", "--n", "5", "--trials", "1",
                     "--jobs", jobs]) == 1
        captured = capsys.readouterr()
        assert "--jobs must be at least 1" in captured.err
        assert captured.out == ""
