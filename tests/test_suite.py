import copy
import json
import math
import os

import numpy as np
import pytest
from scipy.stats import t as student_t

from qzsg import rng, suite
from qzsg.solvers import SolverConfig
from qzsg.suite import (
    GAP_LOG_FLOOR,
    PAPER_EXP2_SCHEDULE,
    ExperimentSpec,
    _stats,
    aggregate,
    execute_game,
    execute_run,
    run_suite,
    suite_game_seed,
    worker_count,
)


@pytest.fixture(autouse=True)
def one_worker(monkeypatch):
    # run_suite reads its pool size only from QZSG_THREADS; a test that wants
    # a pool sets it again
    monkeypatch.setenv(suite.THREADS_ENV_VAR, "1")


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
    small_spec()
    with pytest.raises(ValueError, match="qubit counts"):
        small_spec(n=0)
    with pytest.raises(ValueError, match="games"):
        small_spec(games=0)
    with pytest.raises(ValueError, match="iters"):
        small_spec(iters=0)
    with pytest.raises(ValueError, match="at least one algorithm"):
        small_spec(algorithms=())
    with pytest.raises(ValueError, match="unknown solver alias"):
        small_spec(algorithms=("sgd",))
    with pytest.raises(ValueError, match="outcomes"):
        small_spec(outcomes=1)
    with pytest.raises(ValueError, match="check_interval"):
        small_spec(check_interval=0)
    with pytest.raises(ValueError, match=r"repeated solver aliases \['ommwu'\]"):
        small_spec(algorithms=("ommwu", "mmp-frobenius", "ommwu"))
    for step in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="step_size must be positive and finite"):
            small_spec(step_size=step)


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("games", 2.0, "games must be an integer"),
        ("outcomes", 4.0, "outcomes must be an integer"),
        ("n", 1.0, "qubit counts must be integers"),
        ("m", True, "qubit counts must be integers"),
        ("master_seed", 1.5, "seed must be an integer"),
        ("master_seed", True, "seed must be an integer"),
        ("checkpoints", (2.5, 7), "checkpoints must be integers >= 1, got 2.5"),
        ("checkpoints", ("a",), "checkpoints must be integers >= 1, got 'a'"),
        ("checkpoints", (0, 7), "checkpoints must be integers >= 1, got 0"),
    ],
    ids=["games=2.0", "outcomes=4.0", "n=1.0", "m=True", "seed=1.5", "seed=True",
         "t=2.5", "t='a'", "t=0"],
)
def test_spec_refuses_ill_typed_fields_at_construction(field, value, match):
    with pytest.raises(ValueError, match=match):
        small_spec(**{field: value})


@pytest.mark.parametrize("algorithms", ["ommwu", "omeg"])
def test_spec_refuses_a_string_of_algorithms(algorithms):
    # iterated, a string is its characters: "repeated solver aliases ['m']"
    # for "ommwu" and "unknown solver alias 'o'" for "omeg"
    with pytest.raises(
        ValueError, match="^algorithms must be a sequence of solver aliases, not a string$"
    ):
        small_spec(algorithms=algorithms)


def test_spec_rejects_a_non_finite_target_gap():
    # the report would hold "target_gap": Infinity, which is not JSON
    for gap in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="target_gap must be finite and >= 0"):
            small_spec(target_gap=gap)
    small_spec(target_gap=0.0)


def test_spec_bounds_a_defaulted_outcome_count():
    with pytest.raises(ValueError, match="--outcomes"):
        small_spec(n=4, m=4, outcomes=None)
    small_spec(n=4, m=4, outcomes=64)
    small_spec(n=3, m=4, outcomes=None)


def test_spec_solver_config_carries_the_spec_settings():
    spec = small_spec(algorithms=("mmwu-sd", "omeg"), step_size=0.2, target_gap=1e-3)
    assert spec.solver_config("omeg") == SolverConfig.from_alias(
        "omeg", step_size=0.2, max_iters=60, target_gap=1e-3, gap_check_interval=30
    )


def test_run_suite_rejects_a_bad_spec_before_building_a_game(monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("a game was built")

    monkeypatch.setattr(suite, "random_game", unexpected)
    with pytest.raises(ValueError, match="repeated solver aliases"):
        run_suite(small_spec(algorithms=("ommwu", "ommwu")))
    with pytest.raises(ValueError, match="step_size"):
        run_suite(small_spec(step_size=-1.0))


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


def test_stats_interval_is_equal_to_the_scipy_stats_quantile():
    # _stats takes its quantile from scipy.special, which imports faster; the
    # interval has the bits of the scipy.stats formula at every sample size
    for n in range(2, 51):
        values = np.random.default_rng(n).lognormal(-6.0, 2.0, size=n).tolist()
        logs = np.log(values)
        log_mean = float(np.mean(logs))
        half = float(student_t.ppf(0.975, n - 1)) * float(np.std(logs, ddof=1)) / math.sqrt(n)
        s = _stats(values)
        assert s["ci95_low"].hex() == math.exp(log_mean - half).hex(), n
        assert s["ci95_high"].hex() == math.exp(log_mean + half).hex(), n


def test_stats_floors_exact_zeros():
    s = _stats([0.0, 0.0])
    assert s["mean"] == 0.0
    assert s["geomean"] == pytest.approx(GAP_LOG_FLOOR)
    assert math.isfinite(s["ci95_low"]) and math.isfinite(s["ci95_high"])


def test_suite_with_non_positive_last_gap_has_finite_aggregates():
    # qzsg compare -n 1 -m 1 --games 2 --algorithms mmwu-sd,ommwu,omeg
    #     --iters 100 --schedule paper-exp2 --seed 1005
    # omeg's last-iterate gap reaches <= 0 there, next to gaps of order 1
    spec = ExperimentSpec(
        n=1, m=1, games=2, master_seed=1005,
        algorithms=("mmwu-sd", "ommwu", "omeg"), iters=100,
        checkpoints=tuple(t for t in PAPER_EXP2_SCHEDULE if t <= 100),
    )
    report = run_suite(spec)
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
    game = suite.random_game(spec.n, spec.m, spec.outcomes, suite_game_seed(0, 0))
    for alias, expected in (("mmwu", 60), ("mmp-entropy", 120), ("ommwu", 61)):
        rec = execute_run(spec, 0, alias, game)
        assert rec["status"] == "ok"
        assert rec["gradient_calls"] == expected
        assert rec["iterations"] == 60
        assert rec["seed"] == suite_game_seed(0, 0)
        assert [cp["t"] for cp in rec["checkpoints"]] == [30, 60]
        assert rec["final_gap_avg"] == rec["checkpoints"][-1]["gap_avg"]


def test_execute_run_captures_failures(monkeypatch):
    spec = small_spec(algorithms=("ommwu", "mmwu"))
    game = suite.random_game(1, 1, 4, 0)

    def failing(*args, **kwargs):
        raise ValueError("refused")

    # a game that cannot be built fails every cell of the game
    monkeypatch.setattr(suite, "random_game", failing)
    recs = execute_game(spec, 0)
    assert [r["algorithm"] for r in recs] == ["ommwu", "mmwu"]
    assert all(r["status"] == "error" for r in recs)
    assert all(r["error"] == "ValueError: refused" for r in recs)
    assert all(r["seed"] == suite_game_seed(0, 0) for r in recs)
    # a failing solve is reported in its own cell
    monkeypatch.setattr(suite, "run", failing)
    rec = execute_run(spec, 0, "ommwu", game)
    assert rec["status"] == "error"
    assert rec["error"] == "ValueError: refused"


# ---------------------------------------------------------------- workers


def test_worker_count_sources(monkeypatch):
    monkeypatch.setenv(suite.THREADS_ENV_VAR, "3")
    assert worker_count() == 3
    monkeypatch.setenv(suite.THREADS_ENV_VAR, "eight")
    with pytest.raises(ValueError, match="QZSG_THREADS"):
        worker_count()
    monkeypatch.setenv(suite.THREADS_ENV_VAR, "0")
    with pytest.raises(ValueError, match=">= 1"):
        worker_count()
    monkeypatch.delenv(suite.THREADS_ENV_VAR)
    assert worker_count() >= 1


def test_worker_count_defaults_to_one(monkeypatch):
    # a second thread slows step-bound suites; only QZSG_THREADS asks for one
    monkeypatch.delenv(suite.THREADS_ENV_VAR)
    assert worker_count() == 1


# ---------------------------------------------------------------- run_suite


def test_single_run_suite_aggregates_equal_the_run():
    spec = small_spec(games=1)
    report = run_suite(spec)
    assert report["failures"] == 0
    (rec,) = report["runs"]
    final = [a for a in report["aggregates"] if a["t"] == 60]
    assert len(final) == 1
    assert final[0]["count"] == 1
    assert final[0]["gap_avg"]["mean"] == rec["final_gap_avg"]
    assert final[0]["gap_avg"]["geomean"] == pytest.approx(rec["final_gap_avg"])
    assert final[0]["gap_avg"]["ci95_low"] == final[0]["gap_avg"]["ci95_high"]


def test_aggregate_skips_an_alias_whose_every_run_failed():
    spec = small_spec(algorithms=("ommwu", "mmwu"))
    ok = {"algorithm": "ommwu", "status": "ok", "checkpoints": [
        {"t": 30, "gap_avg": 0.5, "gap_last": 0.25, "wall_time_ns": 10}]}
    failed = {"algorithm": "mmwu", "status": "error", "error": "ValueError: bad"}
    out = aggregate(spec, [ok, failed, dict(failed)])
    assert [(a["algorithm"], a["t"], a["count"]) for a in out] == [("ommwu", 30, 1)]


def test_run_suite_report_shape_and_order(monkeypatch):
    spec = small_spec(algorithms=("ommwu", "mmwu"))
    monkeypatch.setenv(suite.THREADS_ENV_VAR, "2")
    report = run_suite(spec)
    assert report["format_version"] == suite.REPORT_FORMAT_VERSION
    assert report["ci_method"] == "student-t-95-log-domain"
    assert report["experiment"]["algorithms"] == ["ommwu", "mmwu"]
    keys = [(r["game_index"], r["algorithm"]) for r in report["runs"]]
    assert keys == [(0, "ommwu"), (0, "mmwu"), (1, "ommwu"), (1, "mmwu")]
    # aggregates keep the spec's algorithm order, then ascending t
    agg_keys = [(a["algorithm"], a["t"]) for a in report["aggregates"]]
    assert agg_keys == [("ommwu", 30), ("ommwu", 60), ("mmwu", 30), ("mmwu", 60)]
    assert all(a["count"] == 2 for a in report["aggregates"])


def test_run_suite_deterministic_across_worker_counts(monkeypatch):
    spec = small_spec(games=3, algorithms=("ommwu", "mmwu-sd"))
    serial = mask_wall_times(run_suite(spec))
    monkeypatch.setenv(suite.THREADS_ENV_VAR, "4")
    pooled = mask_wall_times(run_suite(spec))
    assert json.dumps(serial, sort_keys=True) == json.dumps(pooled, sort_keys=True)


def test_run_suite_starts_no_more_threads_than_games_or_cpus(monkeypatch):
    spec = small_spec(games=3)
    serial = mask_wall_times(run_suite(spec))
    sizes = []

    class RecordingPool:
        # records the pool size it is asked for and runs `map` in this thread
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(suite, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setenv(suite.THREADS_ENV_VAR, "1000000")
    pooled = mask_wall_times(run_suite(spec))
    assert all(size <= min(3, os.cpu_count() or 1) for size in sizes)
    assert json.dumps(pooled, sort_keys=True) == json.dumps(serial, sort_keys=True)


def test_run_suite_records_failures_without_aborting(monkeypatch):
    spec = small_spec(games=3, algorithms=("ommwu", "mmwu"))
    poisoned = suite_game_seed(spec.master_seed, 1)
    real = suite.random_game

    def flaky(n, m, outcomes=None, seed=0):
        if seed == poisoned:
            raise RuntimeError("synthetic game failure")
        return real(n, m, outcomes, seed)

    monkeypatch.setattr(suite, "random_game", flaky)
    monkeypatch.setenv(suite.THREADS_ENV_VAR, "2")
    report = run_suite(spec)
    assert report["failures"] == 2  # both algorithms on the poisoned game
    bad = [r for r in report["runs"] if r["status"] == "error"]
    assert {r["game_index"] for r in bad} == {1}
    assert all("RuntimeError: synthetic game failure" == r["error"] for r in bad)
    # aggregates cover only the surviving games
    assert all(a["count"] == 2 for a in report["aggregates"])


@pytest.mark.parametrize("workers", [1, 2])
def test_run_suite_builds_each_game_once(monkeypatch, workers):
    spec = small_spec(games=3, algorithms=("ommwu", "mmwu", "omeg"))
    monkeypatch.setenv(suite.THREADS_ENV_VAR, str(workers))
    expected = mask_wall_times(run_suite(spec))
    seeds = []
    real = suite.random_game

    def counted(n, m, outcomes=None, seed=0):
        seeds.append(seed)
        return real(n, m, outcomes, seed)

    monkeypatch.setattr(suite, "random_game", counted)
    report = mask_wall_times(run_suite(spec))
    assert sorted(seeds) == sorted(suite_game_seed(0, g) for g in range(spec.games))
    assert json.dumps(report, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_explicit_checkpoints_flow_into_runs():
    spec = small_spec(iters=40, checkpoints=(5, 15, 99))
    report = run_suite(spec)
    for rec in report["runs"]:
        assert [cp["t"] for cp in rec["checkpoints"]] == [5, 15, 40]


def test_aggregate_handles_ragged_grids():
    spec = small_spec(games=2)
    runs = run_suite(spec)["runs"]
    # simulate one run stopping early: drop its final checkpoint
    runs = copy.deepcopy(runs)
    runs[0]["checkpoints"] = runs[0]["checkpoints"][:1]
    rows = aggregate(spec, runs)
    by_t = {row["t"]: row["count"] for row in rows}
    assert by_t == {30: 2, 60: 1}
