"""Equilibrium solvers for two-player quantum zero-sum games.

Players submit density matrices, a referee measures their product state with
a POVM, and payoffs are bounded utilities.  The package provides the game
model (payoff observables, gradients, duality gap), the regularizer geometry
(von Neumann entropy and squared Frobenius), a hierarchy of solvers (matrix
multiplicative weights, mirror prox, and their optimistic variants), and a
CLI harness for generating games, solving them, and comparing variants.
"""

from .game import (
    JointState,
    QuantumGame,
    builtin_game,
    duality_gap,
    expected_utility,
    game_from_json_dict,
    game_to_json_dict,
    linearity_check,
    lipschitz_constant,
    lipschitz_estimate,
    load_game,
    matching_pennies,
    monotonicity_residual,
    payoff_gradient,
    random_game,
    random_outcomes,
    save_game,
    uniform_state,
    zero_game,
)
from .geometry import (
    FROBENIUS,
    VN_ENTROPY,
    Regularizer,
    logit_map,
    orth_project_spectraplex,
)
from .linalg import (
    NumericalError,
    Spectrum,
    hermitian_eig,
    hermitianize,
    spectral_fn,
    trace_inner,
)
from .solvers import ALIASES, RunResult, SolverConfig, TraceRow, run
from .suite import PAPER_EXP2_SCHEDULE, ExperimentSpec, run_suite

__version__ = "0.1.0"

__all__ = [
    "ALIASES",
    "FROBENIUS",
    "JointState",
    "NumericalError",
    "PAPER_EXP2_SCHEDULE",
    "QuantumGame",
    "Regularizer",
    "RunResult",
    "SolverConfig",
    "Spectrum",
    "TraceRow",
    "VN_ENTROPY",
    "builtin_game",
    "duality_gap",
    "expected_utility",
    "ExperimentSpec",
    "game_from_json_dict",
    "game_to_json_dict",
    "hermitian_eig",
    "hermitianize",
    "linearity_check",
    "lipschitz_constant",
    "lipschitz_estimate",
    "load_game",
    "logit_map",
    "matching_pennies",
    "monotonicity_residual",
    "orth_project_spectraplex",
    "payoff_gradient",
    "random_game",
    "random_outcomes",
    "run",
    "run_suite",
    "save_game",
    "spectral_fn",
    "trace_inner",
    "uniform_state",
    "zero_game",
]
