"""Randomized property checks for the game's feedback operator.

Each check replays deterministic seeds and reports its worst observed
residual against a fixed threshold.  These are the ground-truth oracles the
solvers rely on: gradient consistency against finite differences, operator
monotonicity, the trace-norm Lipschitz bound and linearity of the feedback.
Every check runs on a random game.
"""

from __future__ import annotations

import numpy as np

from . import linalg, rng
from .game import (
    MAX_DEFAULTED_QUBITS,
    JointState,
    QuantumGame,
    expected_utility,
    payoff_gradient,
    random_density,
    random_direction,
    random_game,
    sampled_lipschitz_ratio,
)

MONOTONICITY_TOL = 1e-9
GRADIENT_FD_RTOL = 1e-5
GRADIENT_FD_STEP = 1e-6
LIPSCHITZ_EXCESS_TOL = 1e-9
LINEARITY_TOL = 1e-10


def _random_joint(game: QuantumGame, gen) -> JointState:
    return JointState(
        random_density(game.dim_alice, gen), random_density(game.dim_bob, gen)
    )


def check_monotonicity(game: QuantumGame, gen, samples: int) -> float:
    """Worst |<F(X) - F(Y), X - Y>| over random profile pairs (exactly zero)."""
    worst = 0.0
    for _ in range(samples):
        x = _random_joint(game, gen)
        y = _random_joint(game, gen)
        fx, fy = payoff_gradient(game, x), payoff_gradient(game, y)
        res = linalg.trace_inner(fx.alice - fy.alice, x.alice - y.alice).real
        res += linalg.trace_inner(fx.bob - fy.bob, x.bob - y.bob).real
        worst = max(worst, abs(float(res)))
    return worst


def check_gradient_fd(game: QuantumGame, gen, samples: int) -> float:
    """Worst relative error of central differences against the gradients."""
    worst = 0.0
    h = GRADIENT_FD_STEP
    for _ in range(samples):
        state = _random_joint(game, gen)
        grads = payoff_gradient(game, state)
        # Bob's payoff gradient is the descent direction of u.
        for player, dim, sign in (("alice", game.dim_alice, 1.0), ("bob", game.dim_bob, -1.0)):
            delta = random_direction(dim, gen)
            x = getattr(state, player)
            up = expected_utility(game, state._replace(**{player: x + h * delta}))
            dn = expected_utility(game, state._replace(**{player: x - h * delta}))
            analytic = linalg.trace_inner(delta, sign * getattr(grads, player)).real
            fd = (up - dn) / (2.0 * h)
            denom = max(abs(analytic), 1e-12)
            worst = max(worst, abs(fd - analytic) / denom)
    return worst


def check_lipschitz(game: QuantumGame, gen, samples: int) -> float:
    """Worst excess of the (spectral, trace)-norm ratio over ||U||_inf."""
    return sampled_lipschitz_ratio(game, gen, samples) - game.u_inf_norm


def check_linearity(game: QuantumGame, gen, samples: int) -> float:
    """Worst deviation of F on convex mixes from the mix of F values."""
    worst = 0.0
    for _ in range(samples):
        s1 = _random_joint(game, gen)
        s2 = _random_joint(game, gen)
        lam = float(gen.uniform(0.0, 1.0))
        mixed = JointState(*(lam * a + (1.0 - lam) * b for a, b in zip(s1, s2)))
        f_mixed, f1, f2 = (payoff_gradient(game, s) for s in (mixed, s1, s2))
        dev = [np.max(np.abs(fm - lam * a - (1.0 - lam) * b)) for fm, a, b in zip(f_mixed, f1, f2)]
        worst = max(worst, float(max(dev)))
    return worst


_CHECKS = {
    "monotonicity": (check_monotonicity, MONOTONICITY_TOL),
    "gradient-fd": (check_gradient_fd, GRADIENT_FD_RTOL),
    "lipschitz": (check_lipschitz, LIPSCHITZ_EXCESS_TOL),
    "linearity": (check_linearity, LINEARITY_TOL),
}

PROPERTY_NAMES = tuple(_CHECKS)


def run_properties(
    names=PROPERTY_NAMES,
    max_qubits: int = 3,
    n_seeds: int = 10,
    samples: int = 50,
) -> dict:
    """Run the named checks over (k, k)-qubit games for k up to max_qubits.

    One game per (dims, seed) is built and shared across all checks, then
    dropped, so memory stays bounded at the largest single game.
    """
    if max_qubits < 1:
        raise ValueError("max_qubits must be >= 1")
    if 2 * max_qubits > MAX_DEFAULTED_QUBITS:
        raise ValueError(
            f"--dims must be at most {MAX_DEFAULTED_QUBITS // 2}: verify's (k, k) games "
            "always take the default 4^(2k) outcomes, and verify has no --outcomes"
        )
    if n_seeds < 1 or samples < 1:
        raise ValueError("n_seeds and samples must be >= 1")
    for name in names:
        if name not in PROPERTY_NAMES:
            raise ValueError(
                f"unknown property {name!r}; expected one of {PROPERTY_NAMES}"
            )
    worsts = {name: 0.0 if name != "lipschitz" else -np.inf for name in names}
    dims = [(k, k) for k in range(1, max_qubits + 1)]
    for n, m in dims:
        for seed in range(n_seeds):
            game = random_game(n, m, seed=seed)
            for name in names:
                gen = rng.stream(seed, rng.STREAM_PROPERTIES)
                worsts[name] = max(worsts[name], _CHECKS[name][0](game, gen, samples))
    results = []
    for name in names:
        worst = float(worsts[name])
        threshold = _CHECKS[name][1]
        results.append(
            {
                "property": name,
                "worst": worst,
                "threshold": threshold,
                "passed": worst < threshold,
                "dims": [list(d) for d in dims],
                "seeds": n_seeds,
                "samples": samples,
            }
        )
    return {
        "format_version": 1,
        "properties": results,
        "all_passed": all(r["passed"] for r in results),
    }
