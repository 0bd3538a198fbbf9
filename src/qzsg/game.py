"""Two-player quantum zero-sum games.

Alice plays a density matrix on n qubits, Bob one on m qubits.  A referee
measures the product state with a POVM {P_w} and pays Alice u(w) in [-1, 1];
the whole interaction is summarized by the payoff observable
U = sum_w u(w) P_w, giving expected payoff u(a, b) = tr[U† (a ⊗ b)].

The feedback operator used by every solver pairs the players' payoff
gradients: F(a, b) = (tr_B[U† (I ⊗ b)], -tr_A[U† (a ⊗ I)]).  Each component
is the gradient of that player's own payoff, so both players ascend.  The
duality gap max_a u(a, b') - min_b u(a', b) is the merit function: it is
nonnegative everywhere and zero exactly at Nash equilibria.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import linalg, rng

POVM_SUM_TOL = 1e-8
DENSITY_EIG_TOL = 1e-9
DENSITY_TRACE_TOL = 1e-9
RANK_RIDGE = 1e-6

GAME_FORMAT_VERSION = 1

BUILTIN_PREFIX = "builtin:"


class JointState(NamedTuple):
    """A strategy profile: one density matrix per player."""

    alice: np.ndarray
    bob: np.ndarray


class GradientPair(NamedTuple):
    """Per-player payoff gradients (F_alice(bob), F_bob(alice))."""

    alice: np.ndarray
    bob: np.ndarray


def assert_density_matrix(x, what: str = "state") -> np.ndarray:
    """Validate Hermitian, eigenvalues >= -1e-9, trace within 1e-9 of 1."""
    x = linalg.assert_hermitian(x, what)
    tr = float(np.trace(x).real)
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        raise ValueError(f"{what} has trace {tr!r}, expected 1")
    w = np.linalg.eigvalsh(linalg.hermitianize(x))
    if w[0] < -DENSITY_EIG_TOL:
        raise ValueError(f"{what} has negative eigenvalue {w[0]:.3e}")
    return x


def build_payoff_observable(povm, utilities) -> np.ndarray:
    """U = sum_w u(w) P_w, validated Hermitian with |u(w)| <= 1."""
    povm = [linalg.as_matrix(p) for p in povm]
    utilities = [float(u) for u in utilities]
    if len(povm) != len(utilities):
        raise ValueError(
            f"{len(povm)} POVM elements but {len(utilities)} utilities"
        )
    if not povm:
        raise ValueError("POVM must be non-empty")
    for u in utilities:
        if not np.isfinite(u) or abs(u) > 1.0:
            raise ValueError(f"utility {u!r} outside [-1, 1]")
    dim = povm[0].shape[0]
    u_obs = np.zeros((dim, dim), dtype=complex)
    for u, p in zip(utilities, povm):
        if p.shape[0] != dim:
            raise ValueError("POVM elements have inconsistent dimensions")
        u_obs += u * p
    return linalg.hermitianize(u_obs)


@dataclass(frozen=True, eq=False)
class QuantumGame:
    """An (n, m)-qubit zero-sum game with its cached payoff observable."""

    n: int
    m: int
    povm: tuple
    utilities: tuple
    payoff_observable: np.ndarray
    u_inf_norm: float
    seed: int | None = None

    @property
    def dim_alice(self) -> int:
        return 2**self.n

    @property
    def dim_bob(self) -> int:
        return 2**self.m

    @cached_property
    def _udag_blocks(self) -> np.ndarray:
        da, db = self.dim_alice, self.dim_bob
        return np.ascontiguousarray(
            self.payoff_observable.conj().T.reshape(da, db, da, db)
        )

    @classmethod
    def from_povm(cls, n, m, povm, utilities, seed=None) -> "QuantumGame":
        """Validate a POVM game and cache its payoff observable and norm."""
        if n < 1 or m < 1:
            raise ValueError("qubit counts must be >= 1")
        dim = 2 ** (n + m)
        povm = tuple(linalg.assert_hermitian(p, "POVM element") for p in povm)
        utilities = tuple(float(u) for u in utilities)
        u_obs = build_payoff_observable(povm, utilities)
        if u_obs.shape[0] != dim:
            raise ValueError(
                f"POVM dimension {povm[0].shape[0]} does not match {n}+{m} qubits"
            )
        total = np.zeros((dim, dim), dtype=complex)
        for p in povm:
            w_min = float(np.linalg.eigvalsh(linalg.hermitianize(p))[0])
            if w_min < -DENSITY_EIG_TOL:
                raise ValueError(f"POVM element has negative eigenvalue {w_min:.3e}")
            total += p
        defect = float(np.max(np.abs(total - np.eye(dim))))
        if defect > POVM_SUM_TOL:
            raise ValueError(f"POVM does not sum to identity (defect {defect:.3e})")
        u_norm = linalg.spectral_norm(u_obs)
        return cls(
            n=int(n),
            m=int(m),
            povm=povm,
            utilities=utilities,
            payoff_observable=u_obs,
            u_inf_norm=u_norm,
            seed=None if seed is None else int(seed),
        )


def uniform_state(game: QuantumGame) -> JointState:
    """Maximally mixed strategy for both players."""
    return JointState(
        np.eye(game.dim_alice, dtype=complex) / game.dim_alice,
        np.eye(game.dim_bob, dtype=complex) / game.dim_bob,
    )


def expected_utility(game: QuantumGame, state: JointState) -> float:
    """Alice's expected payoff tr[U† (a ⊗ b)]; real for Hermitian inputs."""
    a, b = state
    a = linalg.as_matrix(a)
    b = linalg.as_matrix(b)
    if a.shape[0] != game.dim_alice or b.shape[0] != game.dim_bob:
        raise ValueError(
            f"state dimensions {a.shape[0]}x{b.shape[0]} do not match the game"
        )
    val = linalg.trace_inner(game.payoff_observable, linalg.tensor_product(a, b))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expected utility has imaginary part {val.imag:.3e}")
    return float(val.real)


def payoff_gradient_alice(game: QuantumGame, bob) -> np.ndarray:
    """Gradient of Alice's payoff in Alice's strategy: tr_B[U† (I ⊗ b)]."""
    bob = linalg.as_matrix(bob)
    if bob.shape[0] != game.dim_bob:
        raise ValueError(f"Bob state dimension {bob.shape[0]} does not match the game")
    g = np.einsum("abcd,db->ac", game._udag_blocks, bob)
    return linalg.hermitianize(g)


def payoff_gradient_bob(game: QuantumGame, alice) -> np.ndarray:
    """Gradient of Bob's payoff in Bob's strategy: -tr_A[U† (a ⊗ I)]."""
    alice = linalg.as_matrix(alice)
    if alice.shape[0] != game.dim_alice:
        raise ValueError(
            f"Alice state dimension {alice.shape[0]} does not match the game"
        )
    g = np.einsum("abcd,ca->bd", game._udag_blocks, alice)
    return linalg.hermitianize(-g)


def payoff_gradient(game: QuantumGame, state: JointState) -> GradientPair:
    """Joint feedback operator F(a, b) = (F_alice(b), F_bob(a))."""
    return GradientPair(
        payoff_gradient_alice(game, state.bob),
        payoff_gradient_bob(game, state.alice),
    )


def duality_gap(game: QuantumGame, state: JointState) -> float:
    """max_a u(a, b') - min_b u(a', b); zero exactly at Nash equilibria.

    Both extremes of a linear payoff over density matrices are attained at
    eigenvectors, so the gap reduces to two extreme eigenvalues.
    """
    best_alice = np.linalg.eigvalsh(payoff_gradient_alice(game, state.bob))[-1]
    worst_bob = np.linalg.eigvalsh(-payoff_gradient_bob(game, state.alice))[0]
    return float(best_alice - worst_bob)


def random_density(dim: int, generator: np.random.Generator) -> np.ndarray:
    """Full-rank-almost-surely random density matrix G†G / tr[G†G]."""
    g = rng.complex_normal(generator, (dim, dim))
    a = g.conj().T @ g
    return linalg.hermitianize(a / np.trace(a).real)


def random_direction(dim: int, generator: np.random.Generator) -> np.ndarray:
    """Random traceless Hermitian direction with unit Frobenius norm."""
    h = linalg.hermitianize(rng.complex_normal(generator, (dim, dim)))
    h -= (np.trace(h).real / dim) * np.eye(dim)
    return h / np.linalg.norm(h)


def random_game(n: int, m: int, outcomes: int | None = None, seed: int = 0) -> QuantumGame:
    """Random full-rank POVM game, deterministic in `seed`.

    Raw elements A_w = G†G + 1e-6 I from complex Gaussians G are normalized by
    the sandwich S^(-1/2) A_w S^(-1/2) with S = sum_w A_w, which makes them sum
    to the identity while staying positive definite.  Utilities are uniform on
    [-1, 1].  Default outcome count is 4^(n+m).
    """
    if n < 1 or m < 1:
        raise ValueError("qubit counts must be >= 1")
    if outcomes is None:
        outcomes = 4 ** (n + m)
    if outcomes < 2:
        raise ValueError("outcomes must be ≥ 2")
    dim = 2 ** (n + m)
    gen_povm = rng.stream(seed, rng.STREAM_POVM)
    ridge = RANK_RIDGE * np.eye(dim)
    raw = []
    for _ in range(outcomes):
        g = rng.complex_normal(gen_povm, (dim, dim))
        raw.append(g.conj().T @ g + ridge)
    total = linalg.hermitianize(sum(raw))
    inv_sqrt = linalg.spectral_fn(total, lambda w: w**-0.5)
    # normalize in place, so each raw element is freed as it is replaced
    for i, a in enumerate(raw):
        raw[i] = linalg.hermitianize(inv_sqrt @ a @ inv_sqrt)
    gen_util = rng.stream(seed, rng.STREAM_UTILITIES)
    utilities = gen_util.uniform(-1.0, 1.0, size=outcomes)
    return QuantumGame.from_povm(n, m, raw, utilities, seed=seed)


def monotonicity_residual(game: QuantumGame, x: JointState, y: JointState) -> float:
    """<F(X) - F(Y), X - Y>; identically zero for these bilinear games."""
    fx = payoff_gradient(game, x)
    fy = payoff_gradient(game, y)
    res = linalg.trace_inner(fx.alice - fy.alice, x.alice - y.alice).real
    res += linalg.trace_inner(fx.bob - fy.bob, x.bob - y.bob).real
    return float(res)


def lipschitz_estimate(
    game: QuantumGame,
    norm_pair: str = "inf-one",
    samples: int = 100,
    seed: int = 0,
) -> float:
    """Largest sampled ratio ||F(X) - F(Y)||_dual / ||X - Y||_primal.

    norm_pair "fro-fro" pairs Frobenius with Frobenius (joint 2-norms);
    "inf-one" pairs the spectral norm (max over players) with the trace norm
    (sum over players), for which the ratio never exceeds ||U||_inf.
    """
    if norm_pair not in ("fro-fro", "inf-one"):
        raise ValueError(f"unknown norm pair {norm_pair!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    generator = rng.stream(seed, rng.STREAM_LIPSCHITZ)
    da, db = game.dim_alice, game.dim_bob
    best = 0.0
    for _ in range(samples):
        x = JointState(random_density(da, generator), random_density(db, generator))
        y = JointState(random_density(da, generator), random_density(db, generator))
        fx = payoff_gradient(game, x)
        fy = payoff_gradient(game, y)
        d_fa, d_fb = fx.alice - fy.alice, fx.bob - fy.bob
        d_a, d_b = x.alice - y.alice, x.bob - y.bob
        if norm_pair == "fro-fro":
            num = float(np.sqrt(np.linalg.norm(d_fa) ** 2 + np.linalg.norm(d_fb) ** 2))
            den = float(np.sqrt(np.linalg.norm(d_a) ** 2 + np.linalg.norm(d_b) ** 2))
        else:
            num = max(linalg.spectral_norm(d_fa), linalg.spectral_norm(d_fb))
            den = linalg.schatten1_norm(d_a) + linalg.schatten1_norm(d_b)
        if den > 1e-14:
            best = max(best, num / den)
    return best


def lipschitz_constant(game: QuantumGame) -> float:
    """Exact sup of ||F(X) - F(Y)||_F / ||X - Y||_F over profiles X != Y.

    Both gradient components are linear: M_A sends vec(b) to F_alice(b) and
    M_B sends vec(a) to F_bob(a).  Differences of density matrices are
    traceless, so each map is restricted by the projector
    P_d = I - vec(I) vec(I)ᵀ / d, and gamma = max(σ₁(M_A P_B), σ₁(M_B P_A)).
    In Pauli coefficients (U = sum c_PQ P ⊗ Q, identity first) this is
    sqrt(dA dB) max(σ₁(C[:, 1:]), σ₁(C[1:, :])), the supremum that
    `lipschitz_estimate(game, "fro-fro")` samples.
    """
    da, db = game.dim_alice, game.dim_bob
    blocks = game._udag_blocks
    m_alice = blocks.transpose(0, 2, 3, 1).reshape(da * da, db * db)
    m_bob = blocks.transpose(1, 3, 2, 0).reshape(db * db, da * da)
    return max(_traceless_input_norm(m_alice, db), _traceless_input_norm(m_bob, da))


def _traceless_input_norm(m: np.ndarray, dim: int) -> float:
    """σ₁(m P_dim): the spectral norm of m on vectorized traceless matrices."""
    unit_identity = np.eye(dim).reshape(-1) / math.sqrt(dim)
    restricted = m - np.outer(m @ unit_identity, unit_identity)
    # σ₁² is the top eigenvalue of the Gram matrix; LAPACK's SVD driver, unlike
    # eigvalsh, raises the process's peak RSS by about 0.3 MB on first use
    top = np.linalg.eigvalsh(restricted @ restricted.conj().T)[-1]
    return math.sqrt(max(float(top), 0.0))


def linearity_check(game: QuantumGame, s1: JointState, s2: JointState, lam: float) -> float:
    """Max entrywise deviation of F(lam s1 + (1-lam) s2) from the same mix of F's."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam!r}")
    mixed = JointState(
        lam * s1.alice + (1.0 - lam) * s2.alice,
        lam * s1.bob + (1.0 - lam) * s2.bob,
    )
    f_mixed = payoff_gradient(game, mixed)
    f1 = payoff_gradient(game, s1)
    f2 = payoff_gradient(game, s2)
    dev_a = np.max(np.abs(f_mixed.alice - lam * f1.alice - (1.0 - lam) * f2.alice))
    dev_b = np.max(np.abs(f_mixed.bob - lam * f1.bob - (1.0 - lam) * f2.bob))
    return float(max(dev_a, dev_b))


def matching_pennies() -> QuantumGame:
    """One qubit each, computational-basis POVM, payoff observable Z ⊗ Z."""
    povm = [np.diag(row).astype(complex) for row in np.eye(4)]
    return QuantumGame.from_povm(1, 1, povm, (1.0, -1.0, -1.0, 1.0))


def zero_game() -> QuantumGame:
    """One qubit each, computational-basis POVM, all utilities zero."""
    povm = [np.diag(row).astype(complex) for row in np.eye(4)]
    return QuantumGame.from_povm(1, 1, povm, (0.0, 0.0, 0.0, 0.0))


_BUILTINS = {"matching-pennies": matching_pennies, "zero": zero_game}


def builtin_game(name: str) -> QuantumGame:
    """Resolve a 'builtin:<name>' or bare builtin name to a game."""
    key = name[len(BUILTIN_PREFIX):] if name.startswith(BUILTIN_PREFIX) else name
    try:
        return _BUILTINS[key]()
    except KeyError:
        raise ValueError(
            f"unknown builtin game {name!r}; expected one of "
            f"{sorted(BUILTIN_PREFIX + k for k in _BUILTINS)}"
        ) from None


def game_to_json_dict(game: QuantumGame) -> dict:
    """JSON-ready dict; float round-trip is bit-exact via shortest repr."""
    return {
        "format_version": GAME_FORMAT_VERSION,
        "n": game.n,
        "m": game.m,
        "utilities": [float(u) for u in game.utilities],
        "povm": [linalg.matrix_to_jsonable(p) for p in game.povm],
        "seed": game.seed,
    }


def game_from_json_dict(data: dict) -> QuantumGame:
    """Rebuild and fully re-validate a game from its JSON dict."""
    if not isinstance(data, dict):
        raise ValueError("game document must be a JSON object")
    version = data.get("format_version")
    if version != GAME_FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}")
    required = {"n", "m", "utilities", "povm", "seed"}
    missing = required - data.keys()
    if missing:
        raise ValueError(f"game document missing keys {sorted(missing)}")
    n, m = data["n"], data["m"]
    if not isinstance(n, int) or not isinstance(m, int):
        raise ValueError("qubit counts must be integers")
    povm = [linalg.matrix_from_jsonable(p) for p in data["povm"]]
    seed = data["seed"]
    if seed is not None and not isinstance(seed, int):
        raise ValueError("seed must be an integer or null")
    game = QuantumGame.from_povm(n, m, povm, data["utilities"], seed=seed)
    return game


def save_game(game: QuantumGame, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_json_dict(game), fh)
        fh.write("\n")


def load_game(path) -> QuantumGame:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid game file: {exc}") from exc
    return game_from_json_dict(data)
