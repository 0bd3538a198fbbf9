"""Iterative equilibrium solvers over density-matrix strategies.

Three update rules share one driver:

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

Mirror prox and its optimistic variant share one step body over the
regularizer's stepper state (Regularizer.start/play/advance): the entropy
state is the accumulated dual matrix, played through the logit map, so no
logarithm of a nearly singular iterate is taken; the Frobenius state is the
primal point, advanced by projection.  The two variants differ only in the
gradient they extrapolate with and the point they play.  Every state and
gradient inside the loop is exactly Hermitian, so the steppers use the
regularizer's trusted kernels; outside state is validated once, by
Regularizer.start.  All solvers start from the maximally mixed profile and
report the uniform average of the played iterates, whose duality gap is the
convergence certificate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry, linalg
from .game import (
    JointState,
    QuantumGame,
    duality_gap,
    lipschitz_constant,
    lipschitz_estimate,  # noqa: F401 -- kept importable here, where perfbench counts its calls
    payoff_gradient,
    uniform_state,
)

ALGORITHMS = ("mda", "mmp", "ommp")
STEP_DECAYS = ("none", "inverse_sqrt")

# alias -> (algorithm, regularizer, step_decay)
ALIASES = {
    "mmwu": ("mda", geometry.VN_ENTROPY_ID, "none"),
    "mmwu-sd": ("mda", geometry.VN_ENTROPY_ID, "inverse_sqrt"),
    "mda-frobenius": ("mda", geometry.FROBENIUS_ID, "none"),
    "mmp-entropy": ("mmp", geometry.VN_ENTROPY_ID, "none"),
    "mmp-frobenius": ("mmp", geometry.FROBENIUS_ID, "none"),
    "ommwu": ("ommp", geometry.VN_ENTROPY_ID, "none"),
    "omeg": ("ommp", geometry.FROBENIUS_ID, "none"),
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

    step_size is a positive float or "auto"; auto uses mu / (2 gamma) with
    gamma = ||U||_inf for the entropy regularizer and the exact Frobenius
    Lipschitz constant `game.lipschitz_constant` (closed form, no sampling)
    otherwise.  step_decay "inverse_sqrt" scales the step by 1/sqrt(t+1) at
    iteration t.  seed is recorded with the run; no solver draws from it.
    """

    algorithm: str = "ommp"
    regularizer: str = geometry.VN_ENTROPY_ID
    step_size: float | str = "auto"
    step_decay: str = "none"
    max_iters: int = 1000
    target_gap: float = 0.0
    gap_check_interval: int = 50
    seed: int = 0

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}"
            )
        geometry.from_id(self.regularizer)
        if self.step_decay not in STEP_DECAYS:
            raise ValueError(
                f"unknown step decay {self.step_decay!r}; expected one of {STEP_DECAYS}"
            )
        if self.step_size != "auto":
            step = float(self.step_size)
            if not (step > 0.0 and math.isfinite(step)):
                raise ValueError(f"step_size must be positive and finite, got {step!r}")
        if int(self.max_iters) < 1:
            raise ValueError("max_iters must be >= 1")
        if not (float(self.target_gap) >= 0.0):
            raise ValueError("target_gap must be >= 0")
        if int(self.gap_check_interval) < 1:
            raise ValueError("gap_check_interval must be >= 1")

    @classmethod
    def from_alias(cls, alias: str, **overrides) -> "SolverConfig":
        """Build a config from a named solver variant (e.g. "ommwu", "mmwu-sd")."""
        try:
            algorithm, regularizer, step_decay = ALIASES[alias]
        except KeyError:
            raise ValueError(
                f"unknown solver alias {alias!r}; expected one of {sorted(ALIASES)}"
            ) from None
        return cls(
            algorithm=algorithm,
            regularizer=regularizer,
            step_decay=step_decay,
            **overrides,
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "SolverConfig":
        """Parse the external config document {"algorithm": alias, ...}."""
        if not isinstance(data, dict):
            raise ValueError("solver config must be a JSON object")
        allowed = {
            "algorithm",
            "step_size",
            "max_iters",
            "target_gap",
            "gap_check_interval",
            "seed",
        }
        unknown = data.keys() - allowed
        if unknown:
            raise ValueError(f"unknown solver config keys {sorted(unknown)}")
        if "algorithm" not in data:
            raise ValueError("solver config must name an algorithm alias")
        overrides = {k: data[k] for k in data.keys() - {"algorithm"}}
        for key in ("max_iters", "gap_check_interval", "seed"):
            if key in overrides and (
                isinstance(overrides[key], bool) or not isinstance(overrides[key], int)
            ):
                raise ValueError(f"{key} must be an integer")
        cfg = cls.from_alias(data["algorithm"], **overrides)
        cfg.validate()
        return cfg


def alias_of(cfg: SolverConfig) -> str | None:
    """Inverse of from_alias when the combination has a name."""
    key = (cfg.algorithm, cfg.regularizer, cfg.step_decay)
    for alias, combo in ALIASES.items():
        if combo == key:
            return alias
    return None


def default_step_size(reg: geometry.Regularizer, gamma: float) -> float:
    """Largest step with the contraction guarantee: mu / (2 gamma)."""
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError(f"Lipschitz constant must be positive, got {gamma!r}")
    return reg.strong_convexity_modulus / (2.0 * gamma)


def resolve_gamma(game: QuantumGame, reg: geometry.Regularizer) -> float:
    """Lipschitz constant for auto step sizing under the regularizer's norms."""
    if reg.kind == geometry.VN_ENTROPY_ID:
        return game.u_inf_norm
    return lipschitz_constant(game)


def resolve_step_size(game: QuantumGame, cfg: SolverConfig) -> float:
    """Materialize cfg.step_size; the zero observable admits any step, use 1."""
    if cfg.step_size != "auto":
        return float(cfg.step_size)
    reg = geometry.from_id(cfg.regularizer)
    gamma = resolve_gamma(game, reg)
    if gamma <= 0.0:
        return 1.0
    return default_step_size(reg, gamma)


class MdaStepper:
    """Dual averaging: W += F(Ψ_t); Ψ_{t+1} = mirror(eta_t W)."""

    def __init__(self, game, reg, eta_fn, psi0):
        self.game = game
        self.reg = reg
        self.eta_fn = eta_fn
        self.dual = (
            np.zeros_like(psi0.alice),
            np.zeros_like(psi0.bob),
        )

    def step(self, t: int, psi: JointState) -> tuple[JointState, int]:
        grad = payoff_gradient(self.game, psi)
        self.dual = (self.dual[0] + grad.alice, self.dual[1] + grad.bob)
        eta = self.eta_fn(t)
        nxt = JointState(
            self.reg.trusted_mirror_map(eta * self.dual[0]),
            self.reg.trusted_mirror_map(eta * self.dual[1]),
        )
        return nxt, 1


class MmpStepper:
    """Mirror prox: extrapolate from the state with F(Ψ_t), advance the state
    with the fresh gradient at the extrapolated point, and play the corrected
    point.

    The state is the regularizer's (see Regularizer.start/play/advance): the
    accumulated dual matrix for the entropy, the primal point for Frobenius.
    """

    optimistic = False

    def __init__(self, game, reg, eta_fn, psi0):
        self.game = game
        self.reg = reg
        self.eta_fn = eta_fn
        self.state = JointState(reg.start(psi0.alice), reg.start(psi0.bob))
        self.last_gradient = None

    def _play(self, state: JointState) -> JointState:
        return JointState(self.reg.play(state.alice), self.reg.play(state.bob))

    def _advance(self, g, eta: float) -> JointState:
        return JointState(
            self.reg.advance(self.state.alice, g.alice, eta),
            self.reg.advance(self.state.bob, g.bob, eta),
        )

    def step(self, t: int, psi: JointState) -> tuple[JointState, int]:
        calls = 1  # the fresh gradient at the extrapolated point
        g = self.last_gradient
        if g is None:
            g = payoff_gradient(self.game, psi)
            calls += 1
        eta = self.eta_fn(t)
        ahead = self._play(self._advance(g, eta))
        fresh = payoff_gradient(self.game, ahead)
        # checked here, not when next played, so the error names this
        # iteration: ommwu adds it to its dual state without decomposing it
        if not (np.isfinite(fresh.alice).all() and np.isfinite(fresh.bob).all()):
            raise linalg.NumericalError("non-finite payoff gradient")
        self.state = self._advance(fresh, eta)
        if self.optimistic:
            self.last_gradient = fresh
            return ahead, calls
        return self._play(self.state), calls


class OmmpStepper(MmpStepper):
    """Optimistic mirror prox: extrapolate with the stored gradient instead of
    F(Ψ_t), so each iteration after the first takes one fresh gradient, and
    play the extrapolated point.

    With the entropy this is optimistic matrix multiplicative weights; with
    Frobenius it is optimistic projected gradient.
    """

    optimistic = True


_STEPPERS = {"mda": MdaStepper, "mmp": MmpStepper, "ommp": OmmpStepper}


def make_stepper(game: QuantumGame, cfg: SolverConfig, eta: float, psi0: JointState):
    """Instantiate the update rule named by cfg with a resolved step size."""
    reg = geometry.from_id(cfg.regularizer)
    if cfg.step_decay == "inverse_sqrt":
        eta_fn = lambda t: eta / math.sqrt(t + 1.0)
    else:
        eta_fn = lambda t: eta
    return _STEPPERS[cfg.algorithm](game, reg, eta_fn, psi0)


@dataclass
class RunResult:
    """Outcome of a solver run: averaged profile, trace, and accounting."""

    average: JointState
    last: JointState
    trace: list
    iterations: int
    gradient_calls: int
    step_size: float


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
    explicit = None
    if checkpoints is not None:
        explicit = {int(c) for c in checkpoints if 1 <= int(c) <= cfg.max_iters}
    sum_a = np.zeros_like(psi.alice)
    sum_b = np.zeros_like(psi.bob)
    rows: list[TraceRow] = []
    calls = 0
    done = 0
    start = time.perf_counter_ns()
    # overflow raises at once, before it can turn the state into NaN
    with np.errstate(over="raise", invalid="raise"):
        for t in range(cfg.max_iters):
            sum_a += psi.alice
            sum_b += psi.bob
            try:
                psi, fresh = stepper.step(t, psi)
            except (
                np.linalg.LinAlgError,
                linalg.NumericalError,
                ValueError,
                FloatingPointError,
            ) as exc:
                # cfg is validated above and a game when it is built, so a
                # ValueError or FloatingPointError here is a kernel meeting a
                # non-finite, overflowing or degenerate iterate
                raise linalg.NumericalError(
                    f"step failed at iteration {t + 1}: {exc}"
                ) from exc
            calls += fresh
            done = t + 1
            at_checkpoint = (
                done == cfg.max_iters
                or (explicit is not None and done in explicit)
                or (explicit is None and done % cfg.gap_check_interval == 0)
            )
            if at_checkpoint:
                avg = JointState(
                    linalg.hermitianize(sum_a / done), linalg.hermitianize(sum_b / done)
                )
                try:
                    gap_avg = duality_gap(game, avg)
                    gap_last = duality_gap(game, psi)
                except (
                    np.linalg.LinAlgError,
                    linalg.NumericalError,
                    FloatingPointError,
                ) as exc:
                    raise linalg.NumericalError(
                        f"duality gap failed at iteration {done}: {exc}"
                    ) from exc
                if not (math.isfinite(gap_avg) and math.isfinite(gap_last)):
                    raise linalg.NumericalError(
                        f"non-finite duality gap at iteration {done}"
                    )
                rows.append(
                    TraceRow(done, gap_avg, gap_last, time.perf_counter_ns() - start)
                )
                if cfg.target_gap > 0.0 and gap_avg <= cfg.target_gap:
                    break
    average = JointState(
        linalg.hermitianize(sum_a / done), linalg.hermitianize(sum_b / done)
    )
    return RunResult(
        average=average,
        last=psi,
        trace=rows,
        iterations=done,
        gradient_calls=calls,
        step_size=eta,
    )
