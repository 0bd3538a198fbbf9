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

A game stores U's realignment R[(a,c),(b,d)] = U[(a,b),(c,d)], a
(d_A², d_B²) matrix (Chen & Wu, QIC 2003).  Since U = U†, with vec the
row-major flattening, F_alice(b) = R vec(bᵀ), F_bob(a) = -(vec(aᵀ)ᵀ R) and
u(a, b) = vec(aᵀ)ᵀ R vec(bᵀ): each is one matrix product.

Random games are built in one pass over their raw POVM elements A_w: since
P_w = S^(-1/2) A_w S^(-1/2) with S = sum_w A_w, U is one sandwich
S^(-1/2) (sum_w u(w) A_w) S^(-1/2), and no P_w is ever made.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg, rng

POVM_SUM_TOL = 1e-8
DENSITY_TRACE_TOL = 1e-9
RANK_RIDGE = 1e-6
# the most bytes of one (k, d, d) stack of raw POVM elements, a chunk, that
# `random_game_with_bound` makes at a time
CHUNK_BYTES = 256 * 1024
# the largest n + m with a defaulted outcome count: building 4^(n+m)
# elements of side 2^(n+m) costs about 32^(n+m), seconds at 3+4 and
# minutes at 4+4
MAX_DEFAULTED_QUBITS = 7
# the largest outcome count whose utility vector, one float each, an array
# can hold: numpy refuses arrays of more than the largest intp bytes
MAX_OUTCOMES = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize

GAME_FORMAT_VERSION = 2

BUILTIN_PREFIX = "builtin:"


def side(n: int, m: int) -> int:
    """2^(n+m), the side of an n+m-qubit game's matrices; a ValueError for a
    qubit count below 1, and from n + m = 63 on, a side no array can have."""
    if n < 1 or m < 1:
        raise ValueError("qubit counts must be >= 1")
    if n + m >= 63:
        raise ValueError(f"{n}+{m} qubits need matrices of side 2^{n + m}, which no array has")
    return 2 ** (n + m)


class JointState(NamedTuple):
    """One matrix per player: a strategy profile, or its payoff gradients."""

    alice: np.ndarray
    bob: np.ndarray


def assert_density_matrix(x, what: str = "state") -> np.ndarray:
    """Validate Hermitian, eigenvalues >= -1e-9, trace within 1e-9 of 1."""
    x = linalg.assert_hermitian(x, what)
    tr = float(np.trace(x).real)
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        raise ValueError(f"{what} has trace {tr!r}, expected 1")
    w_min = linalg.trusted_hermitian_eig(linalg.hermitianize(x)).eigenvalues[-1]
    if w_min < -linalg.PSD_EIG_TOL:
        raise ValueError(f"{what} has negative eigenvalue {w_min:.3e}")
    return x


@dataclass(frozen=True, eq=False)
class QuantumGame:
    """An (n, m)-qubit zero-sum game, stored as the realignment R of its
    payoff observable U.

    Every solver, gradient and gap reads only R, so the POVM a game came from
    is not kept (a random game never makes its elements): `outcomes` records
    its size and `povm` is always empty.  R is the game's own array, the
    realignment of a U that equals U† bit for bit, so U is also read as U†.
    """

    n: int
    m: int
    realigned: np.ndarray
    u_inf_norm: float
    outcomes: int
    seed: int | None = None

    povm = ()

    @property
    def dim_alice(self) -> int:
        return 2**self.n

    @property
    def dim_bob(self) -> int:
        return 2**self.m

    @property
    def payoff_observable(self) -> np.ndarray:
        """U[(a,b),(c,d)] = R[(a,c),(b,d)], as a fresh array: the swap moves
        axes of length >= 2, so the reshape always copies."""
        da, db = self.dim_alice, self.dim_bob
        return self.realigned.reshape(da, da, db, db).transpose(0, 2, 1, 3).reshape(da * db, -1)

    @classmethod
    def from_observable(cls, n, m, u_obs, outcomes, seed=None) -> "QuantumGame":
        """The one way U enters a game: checks its size, finiteness and
        Hermiticity, then stores the realignment R of its Hermitian part,
        whose U equals its U†."""
        u_obs = linalg.assert_hermitian(u_obs, "payoff observable")
        dim = side(n, m)
        if u_obs.shape != (dim, dim):
            raise ValueError(
                f"payoff observable of shape {u_obs.shape} does not match {n}+{m} qubits"
            )
        u_obs = linalg.hermitianize(u_obs)
        da, db = 2**n, 2**m
        return cls(
            n=int(n),
            m=int(m),
            realigned=u_obs.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, -1),
            u_inf_norm=linalg.spectral_norm(u_obs),
            outcomes=int(outcomes),
            seed=None if seed is None else int(seed),
        )

    @classmethod
    def from_povm(cls, n, m, povm, utilities, seed=None) -> "QuantumGame":
        """Check a POVM game's elements and utilities and sum them, in order,
        into U = sum_w u(w) P_w; it keeps no element.

        Each element must be Hermitian, positive and of side 2^(n+m), each
        utility a number in [-1, 1], and the elements must be non-empty and
        sum to the identity.  Nothing of side 2^(n+m) is allocated before the
        first element has passed, so a document that declares more qubits
        than its elements have fails without asking for memory.
        """
        povm, utilities = list(povm), list(utilities)
        if len(povm) != len(utilities):
            raise ValueError(
                f"{len(povm)} POVM elements but {len(utilities)} utilities"
            )
        dim = side(n, m)
        for count, (u, p) in enumerate(zip(utilities, povm)):
            p = linalg.assert_hermitian(p, "POVM element")
            w_min = float(linalg.trusted_eigvalsh(linalg.hermitianize(p))[0])
            if w_min < -linalg.PSD_EIG_TOL:
                raise ValueError(f"POVM element has negative eigenvalue {w_min:.3e}")
            u = linalg.real_number(u, "utility")
            if not abs(u) <= 1.0:
                raise ValueError(f"utility {u!r} outside [-1, 1]")
            if p.shape != (dim, dim):
                raise ValueError(
                    f"POVM element of dimension {p.shape[0]} does not match {n}+{m} qubits"
                )
            if not count:
                u_obs, total = np.zeros((2, dim, dim), dtype=complex)
            u_obs += u * p
            total += p
        if not povm:
            raise ValueError("POVM must be non-empty")
        defect = float(np.max(np.abs(total - np.eye(dim))))
        if defect > POVM_SUM_TOL:
            raise ValueError(f"POVM does not sum to identity (defect {defect:.3e})")
        return cls.from_observable(n, m, u_obs, len(povm), seed)


def uniform_state(game: QuantumGame) -> StackViews:
    """Maximally mixed strategy for both players, as views into fresh
    `profile_stacks`."""
    profile = stack_views(profile_stacks(game))
    for x in profile:
        x[...] = np.eye(len(x), dtype=complex) / len(x)
    return profile


def expected_utility(game: QuantumGame, state: JointState) -> float:
    """Alice's expected payoff tr[U† (a ⊗ b)]; real for Hermitian inputs."""
    a, b = state
    a = linalg.as_matrix(a)
    b = linalg.as_matrix(b)
    if a.shape[0] != game.dim_alice or b.shape[0] != game.dim_bob:
        raise ValueError(
            f"state dimensions {a.shape[0]}x{b.shape[0]} do not match the game"
        )
    val = a.T.reshape(-1) @ game.realigned @ b.T.reshape(-1)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expected utility has imaginary part {val.imag:.3e}")
    return float(val.real)


def profile_stacks(game: QuantumGame, *lead: int) -> list[np.ndarray]:
    """An empty profile for the stack kernels: one (2, d, d) stack when d_A = d_B,
    so each kernel takes both players in one call, else one matrix per player.
    Axes `lead` make a stack of such profiles: (2, *lead, d, d), or
    (*lead, d_A, d_A) and (*lead, d_B, d_B)."""
    da, db = game.dim_alice, game.dim_bob
    if da == db:
        return [np.empty((2, *lead, da, da), dtype=complex)]
    return [np.empty((*lead, da, da), dtype=complex), np.empty((*lead, db, db), dtype=complex)]


def players(stacks) -> JointState:
    """The per-player matrices of a `profile_stacks`-shaped profile, as views."""
    return JointState(*stacks) if len(stacks) == 2 else JointState(stacks[0][0], stacks[0][1])


class StackViews(JointState):
    """A `players` pair that keeps the `profile_stacks` it views as `stacks`."""


def stack_views(stacks: list) -> StackViews:
    views = StackViews(*players(stacks))
    views.stacks = stacks
    return views


class FeedbackBuffers:
    """The work arrays of the feedback kernels, for one profile or for a stack
    of `profiles` of them, each in `profile_stacks` layout.

    `vec` holds each input matrix x as xᵀ, whose rows laid end to end are
    vec(xᵀ); `inputs` lists its slots profile by profile.  `out` receives the
    products with R, viewed per player as `views`, and `scratch` the
    conjugates of `linalg.hermitianize_in_place`.
    """

    def __init__(self, game: QuantumGame, profiles: int | None = None):
        lead = () if profiles is None else (profiles,)
        self.vec, self.out, self.scratch = (profile_stacks(game, *lead) for _ in range(3))
        if profiles is None:
            self.inputs = [self.vec]
        else:
            self.inputs = [[v[..., p, :, :] for v in self.vec] for p in range(profiles)]
        vec, out = players(self.vec), players(self.out)
        # per profile, as flat views: vec(bᵀ) and Alice's product, vec(aᵀ) and Bob's
        flat = (m.reshape(-1, m.shape[-1] ** 2) for m in (vec.bob, out.alice, vec.alice, out.bob))
        self.rows = list(zip(*flat))
        self.views = stack_views(self.out)


def _player_matrix(m, dim: int, who: str) -> np.ndarray:
    m = linalg.as_matrix(m)
    if m.shape[0] != dim:
        raise ValueError(f"{who} state dimension {m.shape[0]} does not match the game")
    return m


def _transpose_into(state: JointState, inputs: list) -> None:
    """Write aᵀ and bᵀ of a matrix pair into one profile's `inputs` slots."""
    for x, v in zip(state, players(inputs)):
        np.copyto(v, x.T)


def _realigned_products(game: QuantumGame, buf: FeedbackBuffers) -> None:
    """R vec(bᵀ) into Alice's and vec(aᵀ)ᵀ R into Bob's matrix of `buf.out`,
    for each profile of `buf.vec`: one matrix-vector product each."""
    r = game.realigned
    for vb, fa, va, fb in buf.rows:
        np.matmul(r, vb, out=fa)
        np.matmul(va, r, out=fb)


def payoff_gradient_into(game: QuantumGame, state: JointState, buf: FeedbackBuffers) -> StackViews:
    """`payoff_gradient` at a pair of matrices of the game's dimensions,
    unchecked, written into `buf` (a `FeedbackBuffers(game)`): Bob's product
    is negated and each stack replaced by its Hermitian part in place."""
    _transpose_into(state, buf.inputs[0])
    _realigned_products(game, buf)
    bob = buf.views.bob
    np.negative(bob, out=bob)
    for s, c in zip(buf.out, buf.scratch):
        linalg.hermitianize_in_place(s, c)
    return buf.views


def duality_gaps_into(game: QuantumGame, states: list, buf: FeedbackBuffers) -> list[float]:
    """`duality_gap` of each of k matrix pairs, unchecked, in one pass through
    `buf` (a `FeedbackBuffers(game, k)`): Hermitian parts of both products,
    then one `linalg.trusted_eigvalsh` per stack for all of them.  Alice's
    best reply is the top eigenvalue of F_alice(b'); Bob's is the bottom one
    of -F_bob(a'), which is the Hermitian part of vec(aᵀ)ᵀ R, since negation
    is exact."""
    for state, inputs in zip(states, buf.inputs):
        _transpose_into(state, inputs)
    _realigned_products(game, buf)
    for s, c in zip(buf.out, buf.scratch):
        linalg.hermitianize_in_place(s, c)
    w = players([linalg.trusted_eigvalsh(s) for s in buf.out])
    return (w.alice[..., -1] - w.bob[..., 0]).tolist()


def _checked(game: QuantumGame, state: JointState) -> JointState:
    return JointState(
        _player_matrix(state.alice, game.dim_alice, "Alice"),
        _player_matrix(state.bob, game.dim_bob, "Bob"),
    )


def payoff_gradient(game: QuantumGame, state: JointState) -> StackViews:
    """Joint feedback operator F(a, b) = (tr_B[U† (I ⊗ b)], -tr_A[U† (a ⊗ I)]),
    as views into fresh `profile_stacks` it keeps as `.stacks`."""
    return payoff_gradient_into(game, _checked(game, state), FeedbackBuffers(game))


def duality_gap(game: QuantumGame, state: JointState) -> float:
    """max_a u(a, b') - min_b u(a', b); zero exactly at Nash equilibria.

    Both extremes of a linear payoff over density matrices are attained at
    eigenvectors, so the gap reduces to two extreme eigenvalues, of
    F_alice(b') and of -F_bob(a') (`duality_gaps_into`).
    """
    return duality_gaps_into(game, [_checked(game, state)], FeedbackBuffers(game, 1))[0]


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


def _fold(total: np.ndarray, stack: np.ndarray) -> None:
    """total += stack[0] + ... + stack[k-1], left to right, with the bits of
    k sequential `+=`; overwrites stack[0]."""
    stack[0] += total
    np.add.reduce(stack, axis=0, out=total)


def default_outcomes(n: int, m: int, outcomes: int | None = None) -> int:
    """The outcome count of a random n+m-qubit game: `outcomes`, from 2 to
    MAX_OUTCOMES, or 4^(n+m) without one; a ValueError for counts `side`
    refuses, and for a defaulted count above MAX_DEFAULTED_QUBITS."""
    side(n, m)
    if outcomes is not None:
        if outcomes < 2:
            raise ValueError("outcomes must be ≥ 2")
        if outcomes > MAX_OUTCOMES:
            raise ValueError(
                f"outcomes must be at most {MAX_OUTCOMES}, the largest utility vector "
                f"an array can hold, got {outcomes}"
            )
        return outcomes
    if n + m > MAX_DEFAULTED_QUBITS:
        raise ValueError(
            f"the default 4^(n+m) outcomes take too long to build at {n}+{m} qubits: "
            f"without --outcomes, n + m must be at most {MAX_DEFAULTED_QUBITS}"
        )
    return 4 ** (n + m)


def random_game_with_bound(
    n: int, m: int, outcomes: int | None = None, seed: int = 0
) -> tuple[QuantumGame, float]:
    """`random_game(n, m, outcomes, seed)` and RANK_RIDGE / λ_max(S), a lower
    bound on every eigenvalue of every element of its POVM.

    Raw elements A_w = G†G + RANK_RIDGE·I from complex Gaussians G are
    normalized as P_w = S^(-1/2) A_w S^(-1/2) with S = sum_w A_w, which makes
    them sum to the identity; P_w ⪰ RANK_RIDGE·S⁻¹, so each is full rank by
    construction.  Utilities u_w are uniform on [-1, 1], from their own
    stream.  P_w is linear in A_w, so U = S^(-1/2) V S^(-1/2) with
    V = sum_w u_w A_w, and one pass over the POVM stream sums S and V, left
    to right in outcome order; no P_w is made.  The outcome count is
    `default_outcomes(n, m, outcomes)`, checked before any draw.

    The pass works on chunks, (k, d, d) stacks of at most CHUNK_BYTES.  Each
    chunk is one `standard_normal((k, 2, d, d))` draw, each outcome's real
    block before its imaginary block as in one `rng.complex_normal` draw per
    element, and each chunk folds into S and V with the bits of k sequential
    `+=`, so no bit of a game depends on the chunk size.
    """
    outcomes = default_outcomes(n, m, outcomes)
    dim = side(n, m)
    utilities = rng.stream(seed, rng.STREAM_UTILITIES).uniform(-1.0, 1.0, size=outcomes)
    gen_povm = rng.stream(seed, rng.STREAM_POVM)
    ridge = RANK_RIDGE * np.eye(dim)
    per_chunk = min(outcomes, max(1, CHUNK_BYTES // (16 * dim * dim)))
    # every chunk reuses these stacks: made fresh per chunk, stacks this large
    # go back to the system and fault in again each time.  One block of all
    # three would lift glibc's mmap threshold and leave the process's peak
    # RSS about 0.8 MB higher
    raw, g, scratch = (np.empty((per_chunk, dim, dim), dtype=complex) for _ in range(3))
    total, weighted = np.zeros((2, dim, dim), dtype=complex)
    for start in range(0, outcomes, per_chunk):
        k = min(per_chunk, outcomes - start)
        a, g_k = raw[:k], g[:k]
        # drawn into the memory of A_w, which is not written before G is built
        z = gen_povm.standard_normal(out=a.view(np.float64).reshape(k, 2, dim, dim))
        z *= 1.0 / np.sqrt(2.0)  # the bits of a complex division by sqrt(2)
        g_k.real, g_k.imag = z[:, 0], z[:, 1]
        np.matmul(np.conjugate(g_k, out=scratch[:k]).swapaxes(-1, -2), g_k, out=a)
        a += ridge
        # u_w A_w first: folding A into S overwrites a[0]
        _fold(weighted, np.multiply(utilities[start:start + k, None, None], a, out=g_k))
        _fold(total, a)
    spectrum = linalg.hermitian_eig(total)
    v = spectrum.eigenvectors
    inv_sqrt = linalg.hermitianize((v * spectrum.eigenvalues**-0.5) @ v.conj().T)
    game = QuantumGame.from_observable(n, m, inv_sqrt @ weighted @ inv_sqrt, outcomes, seed)
    return game, RANK_RIDGE / float(spectrum.eigenvalues[0])


def random_game(n: int, m: int, outcomes: int | None = None, seed: int = 0) -> QuantumGame:
    """Random full-rank POVM game, deterministic in `seed`: the game of
    `random_game_with_bound`.  Its elements are positive definite by
    construction, so unlike `from_povm` nothing decomposes them."""
    return random_game_with_bound(n, m, outcomes, seed)[0]


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
    return sampled_lipschitz_ratio(game, generator, samples, norm_pair)


def sampled_lipschitz_ratio(
    game: QuantumGame,
    generator: np.random.Generator,
    samples: int,
    norm_pair: str = "inf-one",
) -> float:
    """Largest ratio of `lipschitz_estimate` over `samples` random profile
    pairs X, Y drawn from `generator` in the order X_alice, X_bob, Y_alice,
    Y_bob; 0 when no pair is apart."""
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

    Both gradient components are linear: R sends vec(bᵀ) to F_alice(b) and
    -Rᵀ sends vec(aᵀ) to F_bob(a).  Differences of density matrices are
    traceless, so each map is restricted by the projector
    P_d = I - vec(I) vec(I)ᵀ / d, and gamma = max(σ₁(R P_B), σ₁(Rᵀ P_A)).
    The transposes do not matter: the permutation vec(x) -> vec(xᵀ) is
    orthogonal and commutes with P_d.  In Pauli coefficients
    (U = sum c_PQ P ⊗ Q, identity first) this is
    sqrt(dA dB) max(σ₁(C[:, 1:]), σ₁(C[1:, :])), the supremum that
    `lipschitz_estimate(game, "fro-fro")` samples.
    """
    r = game.realigned
    return max(_traceless_input_norm(r, game.dim_bob), _traceless_input_norm(r.T, game.dim_alice))


def _traceless_input_norm(m: np.ndarray, dim: int) -> float:
    """σ₁(m P_dim): the spectral norm of m on vectorized traceless matrices."""
    unit_identity = np.eye(dim).reshape(-1) / math.sqrt(dim)
    restricted = m - np.outer(m @ unit_identity, unit_identity)
    # σ₁² is the top eigenvalue of the Gram matrix; LAPACK's SVD driver, unlike
    # eigvalsh, raises the process's peak RSS by about 0.3 MB on first use
    top = linalg.trusted_eigvalsh(restricted @ restricted.conj().T)[-1]
    return math.sqrt(max(float(top), 0.0))


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
    """Format v2 document: U and its provenance; float round-trip is bit-exact
    via shortest repr."""
    return {
        "format_version": GAME_FORMAT_VERSION,
        "n": game.n,
        "m": game.m,
        "outcomes": game.outcomes,
        "seed": game.seed,
        "payoff_observable": linalg.matrix_to_jsonable(game.payoff_observable),
    }


_DOCUMENT_KEYS = {
    1: {"n", "m", "utilities", "povm", "seed"},
    2: {"n", "m", "outcomes", "seed", "payoff_observable"},
}


def game_from_json_dict(data: dict) -> QuantumGame:
    """Rebuild a game from a v2 document (U checked) or a v1 document (every
    POVM element checked, through `QuantumGame.from_povm`)."""
    if not isinstance(data, dict):
        raise ValueError("game document must be a JSON object")
    version = data.get("format_version")
    if version not in _DOCUMENT_KEYS:
        raise ValueError(f"unsupported format_version {version!r}")
    missing = _DOCUMENT_KEYS[version] - data.keys()
    if missing:
        raise ValueError(f"game document missing keys {sorted(missing)}")
    n, m, seed = data["n"], data["m"], data["seed"]
    if not all(linalg.is_number(k, int) for k in (n, m)):
        raise ValueError("qubit counts must be integers")
    if seed is not None and not linalg.is_number(seed, int):
        raise ValueError("seed must be an integer or null")
    if version == 1:
        if not (isinstance(data["povm"], list) and isinstance(data["utilities"], list)):
            raise ValueError("povm and utilities must be lists")
        povm = [linalg.matrix_from_jsonable(p) for p in data["povm"]]
        return QuantumGame.from_povm(n, m, povm, data["utilities"], seed=seed)
    outcomes = data["outcomes"]
    if not linalg.is_number(outcomes, int) or outcomes < 1:
        raise ValueError("outcomes must be a positive integer")
    u_obs = linalg.matrix_from_jsonable(data["payoff_observable"])
    too_large = "payoff observable has norm {} > 1; no POVM game with utilities in [-1, 1] has it"
    # -I <= U <= I for |u| <= 1; the slack covers a sum-to-identity defect of
    # POVM_SUM_TOL per entry, so every game a constructor accepts loads back
    bound = 1.0 + u_obs.shape[0] * POVM_SUM_TOL
    # |Re U_ij|, |Im U_ij| <= ||U||_inf: a larger part fails here, before
    # `from_observable`'s (U + U†)/2 can overflow
    largest = float(np.max(np.abs(u_obs.view(np.float64))))
    if largest > bound:
        raise ValueError(too_large.format(f"at least {largest!r}"))
    game = QuantumGame.from_observable(n, m, u_obs, outcomes, seed)
    if not game.u_inf_norm <= bound:
        raise ValueError(too_large.format(repr(game.u_inf_norm)))
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
