"""The benchmark's workloads, their output checks, and their metrics.

Each workload is a closed loop in one process and one thread: it runs a
fixed plan of units (a game and its solves), each finishing before the next
starts.  The plan and every input follow from the seed, the size and
`--seconds`, so two runs with the same arguments do the same work and
report the same counts.

A pass runs the plan under a `Tracer`.  The untraced pass patches only the
set-up calls (`random_game`, `resolve_step_size`), which take microseconds
to seconds each and are called a few times per unit, so their timers cost
nothing measurable.  The traced pass also patches every layer function
listed in `LAYER_PATCHES`.  A traced run makes both passes, unit by unit,
so the tracing overhead is a difference measured in one process.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qzsg.game
import qzsg.geometry
import qzsg.linalg
import qzsg.rng
import qzsg.solvers

from tracer import Spans, Tracer

GAP_FLOOR = -1e-12
GAP_MATCH_RTOL = 1e-12
MIN_INTERVALS = 100
CRITERION_8_ALIASES = ("mmwu-sd", "ommwu", "omeg")

# Sizes.  `unit_s` is the measured cost of one unit on a 2-core Xeon VM with
# one BLAS thread; a full run makes max(min_units, round(seconds / unit_s))
# units, so it measures for about `--seconds`.  Smoke sizes run in seconds
# and exist for the benchmark's own tests.
SIZES = {
    "solve-3q": {
        "full": {"qubits": (3, 3), "target_gap": 5e-6, "interval": 20,
                 "max_iters": 200_000, "unit_s": 10.0, "min_units": 3},
        "smoke": {"qubits": (1, 1), "target_gap": 1e-4, "interval": 2,
                  "max_iters": 200_000, "unit_s": 0.0, "min_units": 2},
    },
    "solve-2q": {
        "full": {"qubits": (2, 2), "iters": 2000, "interval": 10, "unit_s": 2.0, "min_units": 3},
        "smoke": {"qubits": (1, 1), "iters": 300, "interval": 2, "unit_s": 0.0, "min_units": 2},
    },
}

SETUP_NAMES = ("game.random_game", "solvers.resolve_step_size")
UNIT_SPAN = "perfbench.unit"

# (owner, attribute, span name).  Patch where the caller looks the name up.
LAYER_PATCHES = (
    (qzsg.linalg, "assert_hermitian", "linalg.assert_hermitian"),
    (qzsg.linalg, "hermitianize", "linalg.hermitianize"),
    (qzsg.linalg, "hermitian_eig", "linalg.hermitian_eig"),
    (qzsg.rng, "complex_normal", "rng.complex_normal"),
    (qzsg.geometry, "logit_map", "geometry.logit_map"),
    (qzsg.geometry, "orth_project_spectraplex", "geometry.orth_project_spectraplex"),
    (qzsg.geometry.Regularizer, "proximal_map", "geometry.proximal_map"),
    (qzsg.game, "payoff_gradient", "game.payoff_gradient"),
    (qzsg.solvers, "payoff_gradient", "game.payoff_gradient"),
    (qzsg.solvers, "duality_gap", "game.duality_gap"),
    (qzsg.solvers, "lipschitz_estimate", "game.lipschitz_estimate"),
    (qzsg.game.QuantumGame, "from_povm", "game.from_povm"),
    (qzsg.solvers, "run", "solvers.run"),
)


def unit_seed(seed: int, k: int) -> int:
    """Input seed of unit k of a run; distinct for every (seed, k) pair."""
    return seed * 1000 + k


@dataclass
class Pass:
    """Raw observations of one pass over a plan."""

    tracer: Tracer
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    op_s: list = field(default_factory=list)  # seconds per operation
    run_s: list = field(default_factory=list)  # solve-3q: run() wall time
    iter_us: list = field(default_factory=list)
    final_gap: dict = field(default_factory=dict)  # solve-2q: alias -> [gap_avg]
    iterations: int = 0
    gradient_calls: int = 0
    povm_bytes: list = field(default_factory=list)
    log_clamps: int = 0
    spans: Spans | None = None

    def fail(self, problem: str) -> None:
        self.problems.append(problem)
        self.failed += 1

    def observe_game(self, args, kwargs, game) -> None:
        self.povm_bytes.append(sum(p.nbytes for p in game.povm))


@dataclass
class Context:
    workload: str
    seed: int
    seconds: int
    size: str
    scratch: Path

    @property
    def params(self) -> dict:
        return SIZES[self.workload][self.size]

    @property
    def units(self) -> int:
        p = self.params
        if p["unit_s"] <= 0.0:
            return p["min_units"]
        return max(p["min_units"], round(self.seconds / p["unit_s"]))


# -- solve-3q ---------------------------------------------------------------


def _solve_unit(ctx: Context, ps: Pass, k: int) -> None:
    p = ctx.params
    n, m = p["qubits"]
    s = unit_seed(ctx.seed, k)
    game = qzsg.game.random_game(n, m, seed=s)
    cfg = qzsg.solvers.SolverConfig.from_alias(
        "ommwu",
        max_iters=p["max_iters"],
        target_gap=p["target_gap"],
        gap_check_interval=p["interval"],
        seed=s,
    )
    start = time.perf_counter()
    result = qzsg.solvers.run(game, cfg)
    ps.run_s.append(time.perf_counter() - start)
    _observe_solve(ps, game, result, p["interval"], f"solve {k}", p["target_gap"])


def _observe_solve(ps: Pass, game, result, interval: int, what: str,
                   target_gap: float | None = None) -> None:
    """Record one solve's counts and per-iteration times, and check its output."""
    ps.attempted += 1
    ps.iterations += result.iterations
    ps.gradient_calls += result.gradient_calls
    rows = result.trace
    samples = [
        (b.wall_time_ns - a.wall_time_ns) / (b.t - a.t) / 1e3
        for a, b in zip(rows, rows[1:])
        if b.t - a.t == interval
    ]
    ps.iter_us.extend(samples)
    ps.op_s.extend(us / 1e6 for us in samples)
    with ps.tracer.paused():
        problem = _check_solve(game, result, target_gap, len(samples))
    if problem:
        ps.fail(f"{what}: {problem}")


def _check_solve(game, result, target_gap: float | None, intervals: int) -> str | None:
    for row in result.trace:
        for gap in (row.gap_avg, row.gap_last):
            if not (math.isfinite(gap) and gap >= GAP_FLOOR):
                return f"invalid gap {gap!r} at iteration {row.t}"
    gap = qzsg.game.duality_gap(game, result.average)
    reported = result.trace[-1].gap_avg
    if abs(gap - reported) > GAP_MATCH_RTOL * max(abs(gap), abs(reported)):
        return f"recomputed gap {gap!r} differs from the trace's {reported!r}"
    if target_gap is not None and not gap <= target_gap:
        return f"gap {gap!r} above target {target_gap!r}"
    if intervals < MIN_INTERVALS:
        return f"only {intervals} full checkpoint intervals, need {MIN_INTERVALS}"
    try:
        qzsg.game.assert_density_matrix(result.average.alice, "average alice")
        qzsg.game.assert_density_matrix(result.average.bob, "average bob")
    except ValueError as exc:
        return str(exc)
    return None


# -- solve-2q ---------------------------------------------------------------


def _solve_2q_unit(ctx: Context, ps: Pass, k: int) -> None:
    p = ctx.params
    n, m = p["qubits"]
    s = unit_seed(ctx.seed, k)
    game = qzsg.game.random_game(n, m, seed=s)
    for alias in CRITERION_8_ALIASES:
        cfg = qzsg.solvers.SolverConfig.from_alias(
            alias, max_iters=p["iters"], gap_check_interval=p["interval"], seed=s)
        result = qzsg.solvers.run(game, cfg)
        ps.final_gap.setdefault(alias, []).append(result.trace[-1].gap_avg)
        _observe_solve(ps, game, result, p["interval"], f"{alias} on game {k}")


def _check_criterion_8(ps: Pass) -> None:
    """Over the run's games, ommwu's mean final average-iterate gap is below mmwu-sd's."""
    ommwu, mmwu_sd = (float(np.mean(ps.final_gap[a])) for a in ("ommwu", "mmwu-sd"))
    if not ommwu < mmwu_sd:
        ps.fail(f"mean final gap_avg of ommwu {ommwu!r} is not below mmwu-sd's {mmwu_sd!r}")


UNITS = {"solve-3q": _solve_unit, "solve-2q": _solve_2q_unit}


def _run_unit(ctx: Context, ps: Pass, k: int, traced: bool) -> None:
    """Run unit k with its pass's patches in place only for this call."""
    tracer = ps.tracer
    tracer.patch(qzsg.game, "random_game", "game.random_game", ps.observe_game)
    tracer.patch(qzsg.solvers, "resolve_step_size", "solvers.resolve_step_size")
    if traced:
        for owner, attr, name in LAYER_PATCHES:
            tracer.patch(owner, attr, name)
    clamps = qzsg.linalg.log_clamp_counter.count
    try:
        tracer.run_id = k
        tracer.span(UNIT_SPAN, UNITS[ctx.workload], ctx, ps, k)
    finally:
        tracer.restore()
    ps.log_clamps += qzsg.linalg.log_clamp_counter.count - clamps


def run_plan(ctx: Context, traced: bool) -> tuple[Pass, Pass | None]:
    """Run every unit untraced and, when `traced`, again traced right after.

    Interleaving the two passes unit by unit keeps slow drifts of the
    machine out of the tracing overhead, their difference.
    """
    plain = Pass(Tracer())
    spanned = Pass(Tracer()) if traced else None
    for k in range(ctx.units):
        _run_unit(ctx, plain, k, traced=False)
        if spanned is not None:
            _run_unit(ctx, spanned, k, traced=True)
    for ps in (plain, spanned):
        if ps is not None:
            ps.spans = ps.tracer.spans()
            if ctx.workload == "solve-2q":
                _check_criterion_8(ps)
    return plain, spanned


# -- metrics ----------------------------------------------------------------


def _per_unit_s(ps: Pass, *names: str) -> np.ndarray:
    """Summed wall time of the spans called `names`, for each unit."""
    sp = ps.spans
    mask = np.logical_or.reduce([sp.mask(name) for name in names])
    totals = np.bincount(sp.run_id[mask], weights=sp.duration[mask], minlength=sp.calls(UNIT_SPAN))
    return totals / 1e9


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(ps: Pass) -> dict:
    """Metrics a user sees; measured on the untraced pass."""
    setups = _per_unit_s(ps, *SETUP_NAMES)
    return {
        "setup_s": (_median(setups), "s", len(setups)),
        "op_ms_p90": (_pct(ps.op_s, 90) * 1e3, "ms", len(ps.op_s)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def workload_detail(ps: Pass) -> dict:
    """Workload-specific timings from the untraced pass of a traced run."""
    resolve = _per_unit_s(ps, "solvers.resolve_step_size")
    run_minus_resolve = [r - resolve[k] for k, r in enumerate(ps.run_s)]
    return {
        "time_to_gap_s": (_median(run_minus_resolve), "s", len(run_minus_resolve)),
        "iter_us_p50": (_median(ps.iter_us), "us", len(ps.iter_us)),
        "iter_us_p90": (_pct(ps.iter_us, 90), "us", len(ps.iter_us)),
    }


COUNTED = (
    "linalg.assert_hermitian",
    "linalg.hermitianize",
    "linalg.hermitian_eig",
    "geometry.logit_map",
    "geometry.proximal_map",
    "geometry.orth_project_spectraplex",
    "game.payoff_gradient",
    "game.duality_gap",
    "game.random_game",
    "game.lipschitz_estimate",
    "solvers.run",
)
SELF_TIMED = COUNTED + (
    "game.from_povm",
    "rng.complex_normal",
    "solvers.resolve_step_size",
)


def per_layer(ctx: Context, ps: Pass) -> dict:
    """Layer metrics from the traced pass (calls, self time, counts, ratios)."""
    sp = ps.spans
    out = {}
    for name in COUNTED:
        out[f"{name}.calls"] = (sp.calls(name), "count", 1)
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (sp.self_s(name), "s", sp.calls(name))
    da, db = (2**q for q in ctx.params["qubits"])
    grad_self = sp.self_s("game.payoff_gradient")
    flops = sp.calls("game.payoff_gradient") * 2 * 8 * da**2 * db**2
    out["game.payoff_gradient.gflops"] = (flops / grad_self / 1e9 if grad_self else 0.0, "GFLOP/s", 1)
    out["game.povm_mb"] = (max(ps.povm_bytes, default=0) / 1e6, "MB", len(ps.povm_bytes))
    out["linalg.log_clamps"] = (ps.log_clamps, "count", 1)
    run_total = sp.total_s("solvers.run")
    out["solvers.gap_share"] = (sp.total_s("game.duality_gap") / run_total if run_total else 0.0,
                                "ratio", sp.calls("solvers.run"))
    out["solvers.iterations"] = (ps.iterations, "count", 1)
    out["solvers.gradient_calls"] = (ps.gradient_calls, "count", 1)
    return out
