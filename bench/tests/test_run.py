import json

import pytest

import run
from checks import density_crossing


def threshold_record(value, digest=None, ok=True):
    step = {"kind": "threshold", "name": "threshold-32", "powers": [3.0],
            "antennas": 32, "cap": 1e-3}
    outcome = {"ok": ok, "error": None if ok else "boom", "value": value}
    if digest is not None:
        outcome["digest"] = digest
    return {"steps": [step], "outcomes": [outcome], "seed": 1}


def test_score_counts_calls_and_checks():
    ops = run.Ops()
    run.score(threshold_record(density_crossing(3.0)), ops)
    assert (ops.attempted, ops.failures) == (2, [])
    run.score(threshold_record(1.0), ops)
    assert ops.attempted == 4 and len(ops.failures) == 1


def test_score_counts_a_failed_call_once():
    ops = run.Ops()
    run.score(threshold_record(None, ok=False), ops)
    assert ops.attempted == 1 and ops.failures == ["threshold-32: boom"]


def test_score_fails_a_digest_that_differs_from_the_reference():
    ops = run.Ops()
    good = density_crossing(3.0)
    run.score(threshold_record(good, "aa"), ops, reference=threshold_record(good, "aa"))
    assert ops.failures == []
    run.score(threshold_record(good, "bb"), ops, reference=threshold_record(good, "aa"))
    assert len(ops.failures) == 1 and "digest" in ops.failures[0]


def write_runs(directory, walls, rss, digest="aa"):
    directory.mkdir()
    for seed, (wall, mem) in enumerate(zip(walls, rss)):
        result = {
            "workload": "sweeps", "seed": seed, "trace": 0,
            "metrics": {
                "wall_s": {"value": wall, "unit": "s"},
                "peak_rss_mb": {"value": mem, "unit": "MB"},
            },
            "digests": {"detect": f"{digest}{seed}", "threshold-32": None},
        }
        (directory / f"sweeps-seed{seed}.json").write_text(json.dumps(result))


def test_compare_prints_a_verdict_per_workload_and_metric(tmp_path, capsys):
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    write_runs(tmp_path / "old", base, [100.0] * 10)
    write_runs(tmp_path / "new", [v * 0.7 for v in base], [130.0] * 10)
    assert run.compare(str(tmp_path / "old"), str(tmp_path / "new")) == 0
    lines = capsys.readouterr().out.splitlines()
    verdicts = {line.split()[2]: line.split()[-1] for line in lines[1:-1]}
    assert verdicts == {"wall_s": "improved", "peak_rss_mb": "regressed"}
    assert lines[-1].startswith("CSV digests: 10 compared") and lines[-1].endswith("0 differ")


def test_compare_fails_a_digest_that_differs_for_one_seed(tmp_path, capsys):
    write_runs(tmp_path / "old", [1.0, 1.0], [1.0, 1.0])
    write_runs(tmp_path / "new", [1.0, 1.0], [1.0, 1.0], digest="bb")
    traced = {"workload": "sweeps", "seed": 0, "trace": 1, "metrics": {},
              "digests": {"detect": "aa0"}}
    (tmp_path / "old" / "traced.json").write_text(json.dumps(traced))
    assert run.compare(str(tmp_path / "old"), str(tmp_path / "new")) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1].endswith("3 compared between runs of one workload "
                                                  "and seed, 2 differ")
    assert captured.err.count("FAILED sweeps seed") == 2


def test_compare_needs_results_on_both_sides(tmp_path):
    (tmp_path / "empty").mkdir()
    write_runs(tmp_path / "old", [1.0], [1.0])
    with pytest.raises(run.BenchError):
        run.compare(str(tmp_path / "old"), str(tmp_path / "empty"))
