import copy
import json
import math

import numpy as np
import pytest
from scipy.stats import t as student_t

from qzsg import rng, suite
from qzsg.suite import (
    GAP_LOG_FLOOR,
    PAPER_EXP2_SCHEDULE,
    ExperimentSpec,
    _stats,
    aggregate,
    execute_run,
    run_suite,
    suite_game_seed,
    worker_count,
)


def small_spec(**overrides):
    base = dict(
        n=1, m=1, games=2, master_seed=0, algorithms=("ommwu",), iters=60,
        outcomes=4, check_interval=30,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def mask_wall_times(report):
    masked = copy.deepcopy(report)
    for rec in masked["runs"]:
        for cp in rec.get("checkpoints") or []:
            cp["wall_time_ns"] = 0
    for agg in masked["aggregates"]:
        agg["wall_time_ns"] = {"mean": 0.0}
    return masked


# ---------------------------------------------------------------- spec


def test_paper_exp2_schedule_is_frozen():
    assert PAPER_EXP2_SCHEDULE == (1, 3, 13, 51, 189, 703, 2610, 9687, 35949, 49999)


def test_spec_validation():
    small_spec().validate()
    with pytest.raises(ValueError, match="qubit counts"):
        small_spec(n=0).validate()
    with pytest.raises(ValueError, match="games"):
        small_spec(games=0).validate()
    with pytest.raises(ValueError, match="iters"):
        small_spec(iters=0).validate()
    with pytest.raises(ValueError, match="at least one algorithm"):
        small_spec(algorithms=()).validate()
    with pytest.raises(ValueError, match="unknown solver alias"):
        small_spec(algorithms=("sgd",)).validate()
    with pytest.raises(ValueError, match="outcomes"):
        small_spec(outcomes=1).validate()
    with pytest.raises(ValueError, match="check_interval"):
        small_spec(check_interval=0).validate()


def test_suite_game_seed_is_derived():
    assert suite_game_seed(0, 0) == rng.derive_seed(0, 0)
    assert suite_game_seed(5, 3) != suite_game_seed(5, 4)


# ---------------------------------------------------------------- stats


def test_stats_singleton_has_zero_width_ci():
    s = _stats([0.25])
    assert s["mean"] == 0.25
    assert s["geomean"] == pytest.approx(0.25)
    assert s["ci95_low"] == s["ci95_high"] == s["geomean"]


def test_stats_matches_log_domain_student_t():
    values = [1e-3, 2e-3, 5e-4, 3e-3]
    s = _stats(values)
    logs = np.log(values)
    half = student_t.ppf(0.975, 3) * np.std(logs, ddof=1) / math.sqrt(4)
    assert s["mean"] == pytest.approx(np.mean(values))
    assert s["geomean"] == pytest.approx(math.exp(np.mean(logs)))
    assert s["ci95_low"] == pytest.approx(math.exp(np.mean(logs) - half))
    assert s["ci95_high"] == pytest.approx(math.exp(np.mean(logs) + half))
    assert s["ci95_low"] <= s["geomean"] <= s["ci95_high"]


def test_stats_floors_exact_zeros():
    s = _stats([0.0, 0.0])
    assert s["mean"] == 0.0
    assert s["geomean"] == pytest.approx(GAP_LOG_FLOOR)
    assert math.isfinite(s["ci95_low"]) and math.isfinite(s["ci95_high"])


def test_suite_with_non_positive_last_gap_has_finite_aggregates():
    # qzsg compare -n 1 -m 1 --games 2 --algorithms mmwu-sd,ommwu,omeg
    #     --iters 100 --schedule paper-exp2 --seed 1002
    # omeg's last-iterate gap reaches <= 0 there, next to gaps of order 1
    spec = ExperimentSpec(
        n=1, m=1, games=2, master_seed=1002,
        algorithms=("mmwu-sd", "ommwu", "omeg"), iters=100,
        checkpoints=tuple(t for t in PAPER_EXP2_SCHEDULE if t <= 100),
    )
    report = run_suite(spec, max_workers=1)
    assert report["failures"] == 0
    assert any(
        cp["gap_last"] <= 0.0
        for r in report["runs"] if r["algorithm"] == "omeg"
        for cp in r["checkpoints"]
    )
    for agg in report["aggregates"]:
        for key in ("gap_avg", "gap_last"):
            assert all(math.isfinite(v) for v in agg[key].values()), agg
    json.dumps(report, allow_nan=False)


# ---------------------------------------------------------------- execute_run


def test_execute_run_records_accounting():
    spec = small_spec(algorithms=("mmwu", "mmp-entropy", "ommwu"))
    for alias, expected in (("mmwu", 60), ("mmp-entropy", 120), ("ommwu", 61)):
        rec = execute_run(spec, 0, alias)
        assert rec["status"] == "ok"
        assert rec["gradient_calls"] == expected
        assert rec["iterations"] == 60
        assert rec["seed"] == suite_game_seed(0, 0)
        assert [cp["t"] for cp in rec["checkpoints"]] == [30, 60]
        assert rec["final_gap_avg"] == rec["checkpoints"][-1]["gap_avg"]


def test_execute_run_captures_failures():
    spec = small_spec(outcomes=1)  # invalid outcome count surfaces per-run
    rec = execute_run(spec, 0, "ommwu")
    assert rec["status"] == "error"
    assert rec["error"].startswith("ValueError:")


# ---------------------------------------------------------------- workers


def test_worker_count_sources(monkeypatch):
    assert worker_count(3) == 3
    monkeypatch.setenv(suite.THREADS_ENV_VAR, "2")
    assert worker_count() == 2
    monkeypatch.setenv(suite.THREADS_ENV_VAR, "eight")
    with pytest.raises(ValueError, match="QZSG_THREADS"):
        worker_count()
    monkeypatch.delenv(suite.THREADS_ENV_VAR)
    assert worker_count() >= 1
    with pytest.raises(ValueError, match=">= 1"):
        worker_count(0)


# ---------------------------------------------------------------- run_suite


def test_single_run_suite_aggregates_equal_the_run():
    spec = small_spec(games=1)
    report = run_suite(spec, max_workers=1)
    assert report["failures"] == 0
    (rec,) = report["runs"]
    final = [a for a in report["aggregates"] if a["t"] == 60]
    assert len(final) == 1
    assert final[0]["count"] == 1
    assert final[0]["gap_avg"]["mean"] == rec["final_gap_avg"]
    assert final[0]["gap_avg"]["geomean"] == pytest.approx(rec["final_gap_avg"])
    assert final[0]["gap_avg"]["ci95_low"] == final[0]["gap_avg"]["ci95_high"]


def test_run_suite_report_shape_and_order():
    spec = small_spec(algorithms=("ommwu", "mmwu"))
    report = run_suite(spec, max_workers=2)
    assert report["format_version"] == suite.REPORT_FORMAT_VERSION
    assert report["ci_method"] == "student-t-95-log-domain"
    assert report["experiment"]["algorithms"] == ["ommwu", "mmwu"]
    keys = [(r["game_index"], r["algorithm"]) for r in report["runs"]]
    assert keys == [(0, "ommwu"), (0, "mmwu"), (1, "ommwu"), (1, "mmwu")]
    # aggregates keep the spec's algorithm order, then ascending t
    agg_keys = [(a["algorithm"], a["t"]) for a in report["aggregates"]]
    assert agg_keys == [("ommwu", 30), ("ommwu", 60), ("mmwu", 30), ("mmwu", 60)]
    assert all(a["count"] == 2 for a in report["aggregates"])


def test_run_suite_deterministic_across_worker_counts():
    spec = small_spec(games=3, algorithms=("ommwu", "mmwu-sd"))
    serial = mask_wall_times(run_suite(spec, max_workers=1))
    pooled = mask_wall_times(run_suite(spec, max_workers=4))
    assert json.dumps(serial, sort_keys=True) == json.dumps(pooled, sort_keys=True)


def test_run_suite_records_failures_without_aborting(monkeypatch):
    spec = small_spec(games=3, algorithms=("ommwu", "mmwu"))
    poisoned = suite_game_seed(spec.master_seed, 1)
    real = suite.random_game

    def flaky(n, m, outcomes=None, seed=0):
        if seed == poisoned:
            raise RuntimeError("synthetic game failure")
        return real(n, m, outcomes, seed)

    monkeypatch.setattr(suite, "random_game", flaky)
    report = run_suite(spec, max_workers=2)
    assert report["failures"] == 2  # both algorithms on the poisoned game
    bad = [r for r in report["runs"] if r["status"] == "error"]
    assert {r["game_index"] for r in bad} == {1}
    assert all("RuntimeError: synthetic game failure" == r["error"] for r in bad)
    # aggregates cover only the surviving games
    assert all(a["count"] == 2 for a in report["aggregates"])


def test_explicit_checkpoints_flow_into_runs():
    spec = small_spec(iters=40, checkpoints=(5, 15, 99))
    report = run_suite(spec, max_workers=1)
    for rec in report["runs"]:
        assert [cp["t"] for cp in rec["checkpoints"]] == [5, 15, 40]


def test_aggregate_handles_ragged_grids():
    spec = small_spec(games=2)
    runs = run_suite(spec, max_workers=1)["runs"]
    # simulate one run stopping early: drop its final checkpoint
    runs = copy.deepcopy(runs)
    runs[0]["checkpoints"] = runs[0]["checkpoints"][:1]
    rows = aggregate(spec, runs)
    by_t = {row["t"]: row["count"] for row in rows}
    assert by_t == {30: 2, 60: 1}
