"""Iterative equilibrium solvers over density-matrix strategies.

A solver is named by its alias in ALIASES, which fixes one of three update
rules (schemes), the regularizer and the step decay.  The rules share one
driver:

* ``mda``  -- dual averaging: play the mirror image of the accumulated
  feedback, one gradient per iteration.  With the entropy regularizer this is
  the matrix multiplicative-weights update Λ(eta W).
* ``mmp``  -- mirror prox: an extrapolation step followed by a correction
  step, two gradients per iteration.
* ``ommp`` -- optimistic mirror prox: the extrapolation reuses the previous
  gradient, so only one fresh gradient is needed per iteration after the
  first.  With the entropy regularizer this is optimistic matrix
  multiplicative weights; with the Frobenius regularizer it is optimistic
  projected gradient.

Mirror prox and its optimistic variant run on one step body (`Stepper`);
dual averaging overrides only its step (`DualAveragingStepper`).  The state
is the regularizer's (Regularizer.start/play/advance): for the entropy the
accumulated dual matrix, played through the logit map, so no logarithm of a
nearly singular iterate is taken; for Frobenius the primal point, advanced
by projection.  Both players are stepped as one (2, d, d) stack when their
dimensions agree.  The loop uses the trusted kernels, since every state and
gradient in it is exactly Hermitian; outside state is validated once, by
Regularizer.start.  Each run makes its arrays once, in its stepper and in
`run`, and every kernel of the loop writes into them.  All solvers start
from the maximally mixed profile and report the uniform average of the
played iterates, whose duality gap is the convergence certificate.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import geometry, linalg
from .game import (
    FeedbackBuffers,
    JointState,
    QuantumGame,
    StackViews,
    duality_gap,  # noqa: F401 -- kept importable here, where perfbench counts its calls
    duality_gaps_into,
    lipschitz_constant,
    lipschitz_estimate,  # noqa: F401 -- kept importable here, where perfbench counts its calls
    payoff_gradient,  # noqa: F401 -- kept importable here, where perfbench counts its calls
    payoff_gradient_into,
    players,
    profile_stacks,
    stack_views,
    uniform_state,
)

# what a kernel raises on a non-finite, overflowing or degenerate iterate
_KERNEL_ERRORS = (linalg.NumericalError, FloatingPointError)

# alias -> (scheme, regularizer, step_decay)
ALIASES = {
    "mmwu": ("mda", geometry.VN_ENTROPY, "none"),
    "mmwu-sd": ("mda", geometry.VN_ENTROPY, "inverse_sqrt"),
    "mda-frobenius": ("mda", geometry.FROBENIUS, "none"),
    "mmp-entropy": ("mmp", geometry.VN_ENTROPY, "none"),
    "mmp-frobenius": ("mmp", geometry.FROBENIUS, "none"),
    "ommwu": ("ommp", geometry.VN_ENTROPY, "none"),
    "omeg": ("ommp", geometry.FROBENIUS, "none"),
}


class TraceRow(NamedTuple):
    """One convergence checkpoint: gaps of the running average and last iterate."""

    t: int
    gap_avg: float
    gap_last: float
    wall_time_ns: int


@dataclass(frozen=True)
class SolverConfig:
    """Full specification of a solver run.

    algorithm is a solver alias, a key of ALIASES, which fixes the update
    rule, the regularizer and the step decay.  step_size is a positive float
    or "auto"; auto uses mu / (2 gamma) with gamma = ||U||_inf for the entropy
    regularizer and the exact Frobenius Lipschitz constant
    `game.lipschitz_constant` (closed form, no sampling) otherwise, and 1
    when mu / (2 gamma) is not finite (gamma = 0, or so small that the
    quotient overflows), since any step up to mu / (2 gamma) keeps the
    guarantee.  Step decay "inverse_sqrt" scales the step by 1/sqrt(t+1) at
    iteration t.  seed is recorded with the run; no solver draws from it.
    """

    algorithm: str = "ommwu"
    step_size: float | str = "auto"
    max_iters: int = 1000
    target_gap: float = 0.0
    gap_check_interval: int = 50
    seed: int = 0

    @property
    def regularizer(self) -> str:
        return ALIASES[self.algorithm][1].kind

    @property
    def step_decay(self) -> str:
        return ALIASES[self.algorithm][2]

    def validate(self) -> None:
        if not isinstance(self.algorithm, str) or self.algorithm not in ALIASES:
            raise ValueError(
                f"unknown solver alias {self.algorithm!r}; expected one of {sorted(ALIASES)}"
            )
        for key in ("max_iters", "gap_check_interval", "seed"):
            if not linalg.is_number(getattr(self, key), numbers.Integral):
                raise ValueError(f"{key} must be an integer")
        target_gap = linalg.real_number(self.target_gap, "target_gap")
        if self.step_size != "auto":
            step = linalg.real_number(self.step_size, "step_size", " or 'auto'")
            if not (step > 0.0 and math.isfinite(step)):
                raise ValueError(f"step_size must be positive and finite, got {step!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        # a finite bound: JSON has no Infinity, and run reports are JSON
        if not 0.0 <= target_gap < math.inf:
            raise ValueError(f"target_gap must be finite and >= 0, got {self.target_gap!r}")
        if self.gap_check_interval < 1:
            raise ValueError("gap_check_interval must be >= 1")

    @classmethod
    def from_alias(cls, alias: str, **overrides) -> "SolverConfig":
        """Build and validate a config for a solver alias (e.g. "ommwu", "mmwu-sd")."""
        cfg = cls(algorithm=alias, **overrides)
        cfg.validate()
        return cfg

    @classmethod
    def from_json_dict(cls, data: dict) -> "SolverConfig":
        """Parse the external config document {"algorithm": alias, ...}."""
        if not isinstance(data, dict):
            raise ValueError("solver config must be a JSON object")
        unknown = data.keys() - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown solver config keys {sorted(unknown)}")
        if "algorithm" not in data:
            raise ValueError("solver config must name an algorithm alias")
        cfg = cls(**data)
        cfg.validate()
        return cfg


def resolve_step_size(game: QuantumGame, cfg: SolverConfig) -> float:
    """Materialize cfg.step_size: auto is mu / (2 gamma) with mu = 1 for both
    regularizers, or 1 where that is not finite (see SolverConfig)."""
    if cfg.step_size != "auto":
        return float(cfg.step_size)
    entropy = ALIASES[cfg.algorithm][1] is geometry.VN_ENTROPY
    gamma = game.u_inf_norm if entropy else lipschitz_constant(game)
    step = 1.0 / (2.0 * gamma) if gamma > 0.0 else math.inf
    return step if math.isfinite(step) else 1.0


class Stepper:
    """Mirror prox (mmp), or optimistic mirror prox (ommp) when `optimistic`,
    on `game.profile_stacks`: extrapolate from the state with F(Ψ_t), or with
    the stored gradient when optimistic, then advance the state with one
    fresh gradient at the extrapolated point.

    The stepper owns its run's workspace, made here once, and every kernel
    of a step writes its result into it; only LAPACK's outputs are fresh.
    The point a step returns is a view into it, valid until the next step.
    """

    def __init__(self, game, reg, eta_fn, start: JointState, optimistic=False):
        self.game = game
        self.reg = reg
        self.eta_fn = eta_fn
        self.optimistic = optimistic
        self.stacks = profile_stacks(game)
        state = players(self.stacks)
        state.alice[...], state.bob[...] = start
        self.feedback = FeedbackBuffers(game)
        self.scaled = profile_stacks(game)  # eta G, or eta W for dual averaging
        self.point = stack_views(profile_stacks(game))
        self.scratch = [geometry.MapScratch(s.shape) for s in self.stacks]
        # whether `scaled` holds eta F of the last point, to extrapolate with
        self.stored = False

    def _scale(self, eta: float, stacks) -> None:
        for g, out in zip(stacks, self.scaled):
            np.multiply(eta, g, out=out)

    def step(self, t: int, psi: JointState) -> tuple[StackViews, int]:
        eta = self.eta_fn(t)
        calls = 1  # the fresh gradient at the extrapolated point
        if not self.stored:
            self._scale(eta, payoff_gradient_into(self.game, psi, self.feedback).stacks)
            calls += 1
        reg, point = self.reg, self.point
        for s, step, p, c in zip(self.stacks, self.scaled, point.stacks, self.scratch):
            reg.play(reg.advance(s, step, p, c), p, c)
        fresh = payoff_gradient_into(self.game, point, self.feedback)
        self._scale(eta, fresh.stacks)
        for s, step, c in zip(self.stacks, self.scaled, self.scratch):
            reg.advance(s, step, s, c)
        if not self.optimistic:
            played = zip(self.stacks, point.stacks, self.scratch)
            return stack_views([reg.play(s, p, c) for s, p, c in played]), calls
        # a non-finite gradient fails the eigendecomposition after it, but
        # ommwu adds this one to its state without one: check it here
        if not all(map(linalg.all_finite, fresh.stacks)):
            raise linalg.NumericalError("non-finite payoff gradient")
        # eta F(point) extrapolates the next step too: every ommp alias keeps eta fixed
        self.stored = True
        return point, calls


class DualAveragingStepper(Stepper):
    """Dual averaging (mda) on the same stacks: the state is the feedback sum
    W, started at zero; W += F(Ψ_t), then play mirror(eta_t W)."""

    def step(self, t: int, psi: JointState) -> tuple[StackViews, int]:
        for s, g in zip(self.stacks, payoff_gradient_into(self.game, psi, self.feedback).stacks):
            s += g
        self._scale(self.eta_fn(t), self.stacks)
        for y, out, c in zip(self.scaled, self.point.stacks, self.scratch):
            self.reg.trusted_mirror_map(y, out, c)
        return self.point, 1


def make_stepper(game: QuantumGame, cfg: SolverConfig, eta: float, psi0: JointState):
    """Instantiate the update rule of cfg's alias with a resolved step size."""
    scheme, reg, step_decay = ALIASES[cfg.algorithm]
    sqrt_decay = step_decay == "inverse_sqrt"
    eta_fn = (lambda t: eta / math.sqrt(t + 1.0)) if sqrt_decay else (lambda t: eta)
    if scheme == "mda":
        return DualAveragingStepper(game, reg, eta_fn, JointState(*map(np.zeros_like, psi0)))
    return Stepper(game, reg, eta_fn, JointState(*map(reg.start, psi0)), scheme == "ommp")


@dataclass
class RunResult:
    """Outcome of a solver run: averaged profile, trace, and accounting."""

    average: JointState
    last: JointState
    trace: list
    iterations: int
    gradient_calls: int
    step_size: float

    def totals(self) -> dict:
        """What every run report states of the run, in this order."""
        return {
            "iterations": self.iterations,
            "gradient_calls": self.gradient_calls,
            "final_gap_avg": self.trace[-1].gap_avg,
            "final_gap_last": self.trace[-1].gap_last,
        }


def run(
    game: QuantumGame,
    cfg: SolverConfig,
    checkpoints=None,
) -> RunResult:
    """Run a solver from the maximally mixed profile.

    Gaps are evaluated every cfg.gap_check_interval iterations (or at the
    explicit sorted `checkpoints`), always including the final iteration; the
    run stops early once the average-iterate gap reaches cfg.target_gap (when
    positive).  The average at checkpoint T spans the played iterates
    Ψ_0 .. Ψ_{T-1}.  Gap evaluations are diagnostics and are not counted as
    gradient calls.
    """
    cfg.validate()
    eta = resolve_step_size(game, cfg)
    psi = uniform_state(game)
    stepper = make_stepper(game, cfg, eta, psi)
    if checkpoints is not None:
        due = {int(c) for c in checkpoints}
    else:
        due = range(cfg.gap_check_interval, cfg.max_iters + 1, cfg.gap_check_interval)
    # the run's own arrays, beside the stepper's: the sum of the played
    # points, their average and the checkpoint gaps' work arrays
    sums = [np.zeros_like(s) for s in psi.stacks]
    avg, avg_scratch = stack_views(profile_stacks(game)), profile_stacks(game)
    gap_buffers = FeedbackBuffers(game, 2)
    rows: list[TraceRow] = []
    calls = done = 0
    start = time.perf_counter_ns()
    # overflow raises at once, before it can turn the state into NaN
    with np.errstate(over="raise", invalid="raise"):
        for t in range(cfg.max_iters):
            for s, x in zip(sums, psi.stacks):
                s += x
            try:
                psi, fresh = stepper.step(t, psi)
            except _KERNEL_ERRORS as exc:
                raise linalg.NumericalError(f"step failed at iteration {t + 1}: {exc}") from exc
            calls += fresh
            done = t + 1
            if done == cfg.max_iters or done in due:
                for a, s, c in zip(avg.stacks, sums, avg_scratch):
                    linalg.hermitianize_in_place(np.divide(s, done, out=a), c)
                try:
                    gap_avg, gap_last = duality_gaps_into(game, [avg, psi], gap_buffers)
                except _KERNEL_ERRORS as exc:
                    raise linalg.NumericalError(
                        f"duality gap failed at iteration {done}: {exc}"
                    ) from exc
                if not (math.isfinite(gap_avg) and math.isfinite(gap_last)):
                    raise linalg.NumericalError(f"non-finite duality gap at iteration {done}")
                rows.append(
                    TraceRow(done, gap_avg, gap_last, time.perf_counter_ns() - start)
                )
                if cfg.target_gap > 0.0 and gap_avg <= cfg.target_gap:
                    break
    # the last iteration is always a checkpoint, so avg is the final average;
    # both profiles are copied out of the run's arrays
    return RunResult(
        average=JointState(*(x.copy() for x in avg)),
        last=JointState(psi.alice.copy(), psi.bob.copy()),
        trace=rows,
        iterations=done,
        gradient_calls=calls,
        step_size=eta,
    )
