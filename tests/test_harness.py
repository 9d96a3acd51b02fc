import json

from tricensus.cli import main
from tricensus.generators import gen_convex, gen_double_circle
from tricensus.geom import PointSet, save_point_set
from tricensus.harness import (
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
    v = verify_instance(PointSet.from_coords(PENTAGON_PLUS_CENTER), "pent+center")
    assert int(v.partial_count) > 14
    assert not v.quasi_convex
    assert v.lower_bound_ok and v.equality_iff_ok


def test_verify_instance_double_circle():
    v = verify_instance(gen_double_circle(3), "dc3")
    assert v.partial_count == "14" and v.quasi_convex
    assert v.lower_bound_ok and v.equality_iff_ok


def test_verify_instance_cap_skips():
    v = verify_instance(gen_convex(13, 64, seed=0), "big", cap=12)
    assert v.skipped and "cap" in v.skip_reason
    assert v.partial_count is None


def test_verify_instance_budget_skip_names_the_budget():
    v = verify_instance(gen_convex(6, 64, seed=1), "tiny", budget_s=1e-6)
    assert v.skipped and v.partial_count is None
    assert v.skip_reason.startswith("budget exceeded (")
    assert v.skip_reason.endswith(" > 1e-06s)")
    assert verify_instance(gen_convex(6, 64, seed=1), "zero", budget_s=0.0).skip_reason.endswith(
        " > 0s)")


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
    save_point_set(target, PointSet.from_coords([(0, 0), (5, 1), (6, 5), (1, 6)]))
    assert main(["count", str(target), "--enumerate"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 2
    assert {frozenset(line.split()) for line in out} == {
        frozenset({"0,1,2", "0,2,3"}), frozenset({"0,1,3", "1,2,3"})}


def test_cli_charvec_polyline(tmp_path, capsys):
    target = tmp_path / "frame.pts"
    save_point_set(target, PointSet.from_coords([(0, 4), (-4, 0), (4, 0), (0, 1)]))
    assert main(["charvec", str(target), "--apex", "0", "--arms", "1,2", "--chi", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1 3 2"
    assert main(["charvec", str(target), "--apex", "0", "--arms", "1,2", "--chi", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1 2"


def test_cli_charvec_radial(tmp_path, capsys):
    target = tmp_path / "radial.pts"
    save_point_set(target, PointSet.from_coords([(0, 0), (2, 1), (-3, 2), (1, -3)]))
    assert main(["charvec", str(target), "--radial", "--center", "0", "--check-psi"]) == 0
    assert "injective" in capsys.readouterr().out


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


def test_cli_verify_input_glob(tmp_path, capsys):
    for k, n in enumerate((5, 6)):
        save_point_set(tmp_path / f"c{k}.pts", gen_convex(n, 64, seed=k))
    assert main(["verify", "--input", str(tmp_path / "*.pts")]) == 0
    out = capsys.readouterr().out
    assert "c0.pts" in out and "c1.pts" in out


def test_cli_verify_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-3"):
        assert main(["verify", "--family", "convex", "--n", "5", "--trials", "1",
                     "--jobs", jobs]) == 1
        captured = capsys.readouterr()
        assert "--jobs must be at least 1" in captured.err
        assert captured.out == ""
