"""Multi-game comparison suites with deterministic scheduling.

A suite runs each named solver variant on the same set of seeded random
games.  A spec checks itself, with every variant's solver config, when it
is made, so no game is built for an invalid one.  Per-game seeds derive from
the master seed by fixed offsets.  Each game is built once and runs every
variant in turn, and results come in game order, then the spec's alias
order, so the report is identical however the worker pool interleaves the
games.  Gap statistics aggregate in the natural-log domain (gaps live on a
log scale) with Student-t 95% confidence intervals.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg, rng
from .game import default_outcomes, random_game
from .solvers import SolverConfig, checkpoint_set, run

# Checkpoint grid used by the logarithmically spaced ten-point preset.
PAPER_EXP2_SCHEDULE = (1, 3, 13, 51, 189, 703, 2610, 9687, 35949, 49999)

GAP_LOG_FLOOR = 1e-300

# exp() saturates here, so a CI spanning floored and O(1) gaps stays finite
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

REPORT_FORMAT_VERSION = 1

THREADS_ENV_VAR = "QZSG_THREADS"


@dataclass(frozen=True)
class ExperimentSpec:
    """A comparison suite: games x algorithms under one master seed.  Every
    field, and every alias's solver config, is checked at construction."""

    n: int
    m: int
    games: int
    master_seed: int
    algorithms: tuple
    iters: int
    outcomes: int | None = None
    checkpoints: tuple | None = None
    check_interval: int = SolverConfig.gap_check_interval
    step_size: float | str = SolverConfig.step_size
    target_gap: float = SolverConfig.target_gap

    def solver_config(self, alias: str) -> SolverConfig:
        """The config that runs `alias` on every game of the suite."""
        return SolverConfig.from_alias(
            alias,
            step_size=self.step_size,
            max_iters=self.iters,
            target_gap=self.target_gap,
            gap_check_interval=self.check_interval,
        )

    def __post_init__(self) -> None:
        if not linalg.is_number(self.games, numbers.Integral):
            raise ValueError("games must be an integer")
        rng.check_seed(self.master_seed)
        if self.games < 1:
            raise ValueError("games must be >= 1")
        if isinstance(self.algorithms, str):
            raise ValueError("algorithms must be a sequence of solver aliases, not a string")
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        repeated = sorted({a for a in self.algorithms if self.algorithms.count(a) > 1})
        if repeated:
            raise ValueError(f"repeated solver aliases {repeated}")
        default_outcomes(self.n, self.m, self.outcomes)
        if self.checkpoints is not None:
            checkpoint_set(self.checkpoints)
        for alias in self.algorithms:
            self.solver_config(alias)


def suite_game_seed(master_seed: int, game_index: int) -> int:
    """Seed for game `game_index`, a fixed function of the master seed."""
    return rng.derive_seed(master_seed, game_index)


def _failed(base: dict, exc: Exception) -> dict:
    return {**base, "status": "error", "error": f"{type(exc).__name__}: {exc}"}


def _cell(spec: ExperimentSpec, game_index: int, alias: str) -> dict:
    seed = suite_game_seed(spec.master_seed, game_index)
    return {"game_index": game_index, "algorithm": alias, "seed": seed}


def execute_run(spec: ExperimentSpec, game_index: int, alias: str, game) -> dict:
    """Run one (game, algorithm) cell on the suite's game `game_index`;
    exceptions are reported, not raised."""
    base = _cell(spec, game_index, alias)
    try:
        result = run(game, spec.solver_config(alias), checkpoints=spec.checkpoints)
    except Exception as exc:  # noqa: BLE001 - one bad cell must not sink the suite
        return _failed(base, exc)
    return {
        **base,
        "status": "ok",
        "error": None,
        "step_size": result.step_size,
        **result.totals(),
        "checkpoints": [row._asdict() for row in result.trace],
    }


def execute_game(spec: ExperimentSpec, game_index: int) -> list:
    """Build game `game_index` once and run every algorithm of the suite on it."""
    seed = suite_game_seed(spec.master_seed, game_index)
    try:
        game = random_game(spec.n, spec.m, spec.outcomes, seed)
    except MemoryError:
        raise  # every game of the spec has this size, so no game would fit
    except Exception as exc:  # noqa: BLE001 - every cell of this game fails alike
        return [_failed(_cell(spec, game_index, alias), exc) for alias in spec.algorithms]
    return [execute_run(spec, game_index, alias, game) for alias in spec.algorithms]


def worker_count() -> int:
    """The pool size: the QZSG_THREADS environment variable, else 1.

    Threads overlap only the work of building a game, and a worker's
    `random_game` already starts one drawing thread per game from
    `game.DRAW_AHEAD_CHUNKS` chunks on, so one worker is the default: two
    were slower than one on every suite bound by its steps (see README,
    Determinism)."""
    env = os.environ.get(THREADS_ENV_VAR, "").strip()
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from None
    if workers < 1:
        raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {env!r}")
    return workers


def _stats(values: list) -> dict:
    """Mean and log-domain Student-t 95% CI; a singleton has zero-width CI."""
    # scipy.stats.t.ppf's bits from scipy.special, a fraction of its import
    # time; only `compare` pays for it
    from scipy.special import stdtrit

    arr = np.asarray(values, dtype=float)
    logs = np.log(np.maximum(arr, GAP_LOG_FLOOR))
    log_mean = float(np.mean(logs))
    geomean = float(math.exp(log_mean))
    if arr.size == 1:
        lo = hi = geomean
    else:
        half = float(stdtrit(arr.size - 1, 0.975)) * float(
            np.std(logs, ddof=1)
        ) / math.sqrt(arr.size)
        lo = math.exp(log_mean - half)
        hi = math.exp(min(log_mean + half, _LOG_FLOAT_MAX))
    return {
        "mean": float(np.mean(arr)),
        "geomean": geomean,
        "ci95_low": lo,
        "ci95_high": hi,
    }


def aggregate(spec: ExperimentSpec, runs: list) -> list:
    """Per (algorithm, checkpoint) statistics over the successful runs.

    Runs stopped early by target_gap can have shorter checkpoint grids, so
    each checkpoint aggregates only the runs that actually reached it.
    """
    out = []
    for alias in spec.algorithms:
        ok = [r for r in runs if r["algorithm"] == alias and r["status"] == "ok"]
        if not ok:
            continue
        by_t = {}
        for r in ok:
            for cp in r["checkpoints"]:
                by_t.setdefault(cp["t"], []).append(cp)
        for t, cells in sorted(by_t.items()):
            out.append(
                {
                    "algorithm": alias,
                    "t": t,
                    "count": len(cells),
                    "gap_avg": _stats([c["gap_avg"] for c in cells]),
                    "gap_last": _stats([c["gap_last"] for c in cells]),
                    "wall_time_ns": {
                        "mean": float(np.mean([c["wall_time_ns"] for c in cells]))
                    },
                }
            )
    return out


def run_suite(spec: ExperimentSpec) -> dict:
    """Execute the full suite and assemble the comparison report, on
    `worker_count()` threads, but no more than games or CPUs: a pool starts
    a thread per game up to its size, and outputs do not depend on it.  One
    worker runs the games in this thread."""
    workers = min(worker_count(), spec.games, os.cpu_count() or 1)
    games = range(spec.games)
    if workers == 1:
        per_game = [execute_game(spec, g) for g in games]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_game = list(pool.map(lambda g: execute_game(spec, g), games))
    # pool.map keeps game order and execute_game keeps the spec's alias order
    results = [rec for recs in per_game for rec in recs]
    failures = sum(1 for r in results if r["status"] != "ok")
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "experiment": {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(spec).items()},
        "ci_method": "student-t-95-log-domain",
        "runs": results,
        "aggregates": aggregate(spec, results),
        "failures": failures,
    }
