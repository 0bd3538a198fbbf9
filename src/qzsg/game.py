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

The solver loop reads a Hermitian matrix the way LAPACK's eigh does: as its
lower triangle and its real diagonal.  So each game also keeps, made on first
use, one real matrix per player that maps the float64 view of the other
player's matrix, read by that rule, to the float64 view of this player's
feedback (`feedback_maps`, built by `_lower_triangle_map`).  Its entries are
R's, gathered and summed in pairs; the transposes, Bob's negation and the
Hermitian part are folded in, and the columns of the upper triangle and of the
imaginary diagonal are zero.  The maps hold four times R's bytes: 256 KB at
3+3, 4 MB at 4+4.  `StackViews.sources` and `FeedbackBuffers` share their
layout, so a feedback kernel takes only a profile and its buffers.

Random games are built in one pass over their raw POVM elements A_w: since
P_w = S^(-1/2) A_w S^(-1/2) with S = sum_w A_w, U is one sandwich
S^(-1/2) (sum_w u(w) A_w) S^(-1/2), and no P_w is ever made.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import numbers
import os
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
# the fewest chunks for which `_povm_draws` draws each next chunk on a
# second thread while the caller sums the current one.  Over three runs of
# 200 interleaved games each (2-vCPU Xeon VM, one BLAS thread), the thread
# took 0.77-0.88 of the time at 8 chunks (2+2 with 512 outcomes; lower in
# 149-181 of 200) but 0.93-0.99 at 4 (2+2; lower in 106-136 of 200), where
# its start and wake-ups eat the overlap
DRAW_AHEAD_CHUNKS = 8
# the largest n + m with a defaulted outcome count: building 4^(n+m)
# elements of side 2^(n+m) costs about 32^(n+m), seconds at 3+4 and
# minutes at 4+4
MAX_DEFAULTED_QUBITS = 7
# the largest outcome count whose utility vector, one float each, an array
# can hold: numpy refuses arrays of more than the largest intp bytes
MAX_OUTCOMES = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize
# the byte boundary of the feedback maps: at 3+3 the feedback product took
# 3.3-3.4 µs on maps at offset 0 or 32 of it and 4.3-4.5 µs at 16 or 48
# (2-vCPU Xeon VM, one BLAS thread), and glibc's heap aligns to 16 only
MAP_ALIGN = 64

GAME_FORMAT_VERSION = 2

BUILTIN_PREFIX = "builtin:"


def side(n: int, m: int) -> int:
    """2^(n+m), the side of an n+m-qubit game's matrices; a ValueError for a
    qubit count that is not an integer (a bool is not) or is below 1, and
    from n + m = 63 on, a side no array can have."""
    if not (linalg.is_number(n, numbers.Integral) and linalg.is_number(m, numbers.Integral)):
        raise ValueError("qubit counts must be integers")
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


def _lower_triangle_map(s: np.ndarray, dim: int, out: np.ndarray) -> np.ndarray:
    """Write into `out`, a (2N, 2dim²) real array, the real matrix of
    b -> s vec(bᵀ) for a complex (N, dim²) `s`, with vec the row-major
    flattening and b Hermitian, read as LAPACK's eigh reads it: by its lower
    triangle and real diagonal.  Returns `out`.

    Both sides are float64 views: b.view(float64) flattened, and each output
    entry as its real part then its imaginary part.  With b[l, k] = x + iy
    for l > k, the upper entry b[k, l] is x - iy, so the pair adds
    (s[:, (k,l)] + s[:, (l,k)]) x + i (s[:, (k,l)] - s[:, (l,k)]) y, and the
    columns of the upper triangle and of the imaginary diagonal are zero.
    Sums and gathers only, written into `out` by unbuffered ufuncs: no
    temporary of its size.
    """
    blocks = s.reshape(-1, dim, dim)  # blocks[i, k, l] multiplies b[l, k]
    swapped = blocks.swapaxes(1, 2)  # swapped[i, l, k] multiplies b[l, k]
    m = out.reshape(-1, 2, dim, dim, 2)  # (output, re/im, l, k, x/y)
    np.add(swapped.real, blocks.real, out=m[:, 0, :, :, 0])
    np.subtract(blocks.imag, swapped.imag, out=m[:, 0, :, :, 1])
    np.add(swapped.imag, blocks.imag, out=m[:, 1, :, :, 0])
    np.subtract(swapped.real, blocks.real, out=m[:, 1, :, :, 1])
    # on the diagonal the differences are x - x = +0, the imaginary
    # diagonal's columns, and the sums twice the entry, replaced here
    diagonal = np.arange(dim)
    m[:, 0, diagonal, diagonal, 0] = blocks.real[:, diagonal, diagonal]
    m[:, 1, diagonal, diagonal, 0] = blocks.imag[:, diagonal, diagonal]
    m[:, :, ~np.tri(dim, dtype=bool)] = 0.0
    return out


@dataclass(frozen=True, eq=False)
class QuantumGame:
    """An (n, m)-qubit zero-sum game, stored as the realignment R of its
    payoff observable U.

    Every solver, gradient and gap reads only R, or the feedback maps built
    from it, so the POVM a game came from is not kept (a random game never
    makes its elements): `outcomes` records its size and `povm` is always
    empty.  R is the game's own array, the realignment of a U that equals U†
    bit for bit, so U is also read as U†.
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

    @functools.cached_property
    def feedback_maps(self) -> list:
        """The real maps (`_lower_triangle_map`) of b -> R vec(bᵀ)
        (Alice) and of a -> -(vec(aᵀ)ᵀ R) (Bob), made on first use, so a game
        that is only generated, saved or loaded makes none.  They are in
        `profile_stacks` layout: one (2, 2d², 2d²) stack when d_A = d_B, else
        Alice's (2d_A², 2d_B²) map and Bob's (2d_B², 2d_A²) one.  R is the
        realignment of an exactly Hermitian U, so r[(c,a), (l,k)] =
        conj(r[(a,c), (k,l)]) bit for bit, for Rᵀ too: the rows of output
        (c, a) repeat those of (a, c), the imaginary ones negated.  Both
        maps lie in one buffer, each at a MAP_ALIGN-byte boundary."""
        r, da, db = self.realigned, self.dim_alice, self.dim_bob
        rows, cols = 2 * da * da, 2 * db * db
        # 4 d_A² d_B² floats, a multiple of 64, so Bob's map is aligned too
        size = rows * cols
        raw = np.empty(2 * size * 8 + MAP_ALIGN, dtype=np.uint8)
        start = -raw.ctypes.data % MAP_ALIGN
        flat = raw[start:start + 2 * size * 8].view(np.float64)
        maps = [flat.reshape(2, rows, cols)] if da == db else [
            flat[:size].reshape(rows, cols), flat[size:].reshape(cols, rows)]
        alice, bob = players(maps)
        _lower_triangle_map(r, db, alice)
        np.negative(_lower_triangle_map(r.T, da, bob), out=bob)
        return maps

    @property
    def payoff_observable(self) -> np.ndarray:
        """U[(a,b),(c,d)] = R[(a,c),(b,d)], as a fresh array: the swap moves
        axes of length >= 2, so the reshape always copies."""
        da, db = self.dim_alice, self.dim_bob
        return self.realigned.reshape(da, da, db, db).transpose(0, 2, 1, 3).reshape(da * db, -1)

    @classmethod
    def from_observable(cls, n, m, u_obs, outcomes, seed=None) -> "QuantumGame":
        """The one way U enters a game: checks the outcome count (an integer
        >= 1, not a bool), U's size, finiteness and Hermiticity, and the seed
        (`rng.check_seed`), then stores the realignment R of U's Hermitian
        part, whose U equals its U†."""
        if not linalg.is_number(outcomes, numbers.Integral) or outcomes < 1:
            raise ValueError("outcomes must be a positive integer")
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
            u_inf_norm=float(np.max(np.abs(linalg.trusted_hermitian_eig(u_obs).eigenvalues))),
            outcomes=int(outcomes),
            seed=None if seed is None else int(rng.check_seed(seed)),
        )

    @classmethod
    def from_povm(cls, n, m, povm, utilities, seed=None) -> "QuantumGame":
        """Check a POVM game's elements and utilities and sum them, in order,
        into U = sum_w u(w) P_w; it keeps no element.  It serves user POVM
        lists and format-1 game files (the builtins are built from their U).

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
    """Maximally mixed strategy for both players, as `players` views into
    fresh `profile_stacks`."""
    profile = players(profile_stacks(game))
    for x in profile:
        x[...] = np.eye(len(x), dtype=complex) / len(x)
    return profile


def expected_utility(game: QuantumGame, state: JointState) -> float:
    """Alice's expected payoff tr[U† (a ⊗ b)]; real for Hermitian inputs."""
    a, b = (linalg.as_matrix(x) for x in state)
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


class StackViews(JointState):
    """A `players` pair that keeps the `profile_stacks` it views as `stacks`."""

    @functools.cached_property
    def sources(self) -> list:
        """The float64 column (`_columns`) of each matrix of `stacks`, the
        other player's first, as the feedback maps read them; made on first
        use, so a pair the solver loop keeps makes them once."""
        columns = [_columns(s) for s in self.stacks[::-1]]
        return [columns[0][::-1]] if len(columns) == 1 else columns


def players(stacks) -> StackViews:
    """The per-player matrices of a `profile_stacks`-shaped profile, as views."""
    views = StackViews(*(stacks if len(stacks) == 2 else stacks[0]))
    views.stacks = stacks
    return views


class FeedbackBuffers:
    """The output arrays of the feedback kernels, in `profile_stacks(game,
    *lead)` layout: viewed per player as `views`, and as one float64 column
    per matrix as `columns`, and the spectrum of each matrix, which
    `duality_gaps_into` writes, as `spectra`.  `maps` views the game's
    feedback maps with one broadcast axis per lead axis, so a stack of
    profiles makes one matrix-vector product per matrix, with the bits of
    one profile at a time.
    """

    def __init__(self, game: QuantumGame, *lead: int):
        self.out = profile_stacks(game, *lead)
        self.spectra = [np.empty(o.shape[:-1]) for o in self.out]
        self.views = players(self.out)
        self.columns = [_columns(o) for o in self.out]
        self.maps = [m.reshape(*m.shape[:-2], *(1,) * len(lead), *m.shape[-2:])
                     for m in game.feedback_maps]


def _columns(x: np.ndarray) -> np.ndarray:
    """The float64 view of each matrix of a stack as one (2d², 1) column."""
    return x.view(np.float64).reshape(*x.shape[:-2], -1, 1)


def payoff_gradient_into(state: StackViews, buf: FeedbackBuffers) -> StackViews:
    """F at a `players` pair, unchecked, written into `buf` (a
    `FeedbackBuffers(game)`, or a `FeedbackBuffers(game, k)` for k-profile
    stacks): one product with the feedback maps, over the (2, d, d) stack
    with its player axis reversed when d_A = d_B, else one per player.  Each
    matrix is read by its lower triangle and real diagonal, and the result
    is exactly Hermitian, as the product rounds mirrored rows of the maps
    alike (tests/test_game.py checks it under one and two BLAS threads)."""
    for m, x, y in zip(buf.maps, state.sources, buf.columns):
        np.matmul(m, x, out=y)
    return buf.views


def duality_gaps_into(state: StackViews, buf: FeedbackBuffers) -> float | list[float]:
    """`duality_gap` of a `players` pair, unchecked and read as
    `payoff_gradient_into` reads it, through `buf`: a float for one profile
    and a `FeedbackBuffers(game)`, a list for k-profile stacks and a
    `FeedbackBuffers(game, k)`.  The feedback, then one `trusted_eigvalsh`
    per stack into `buf.spectra`: Alice's best reply is the top eigenvalue
    of F_alice(b') and Bob's the top one of F_bob(a'), as
    u(a', b) = -<b, F_bob(a')>."""
    out = payoff_gradient_into(state, buf).stacks
    w = players([linalg.trusted_eigvalsh(s, w) for s, w in zip(out, buf.spectra)])
    return (w.alice[..., -1] + w.bob[..., -1]).tolist()


def hermitian_profile(game: QuantumGame, state: JointState) -> StackViews:
    """`players` views of fresh `profile_stacks(game)` holding the Hermitian
    part of each matrix of `state`, checked against the game's dimensions."""
    profile = players(profile_stacks(game))
    for x, m, who in zip(profile, state, ("Alice", "Bob")):
        m = linalg.as_matrix(m)
        if m.shape != x.shape:
            raise ValueError(f"{who} state dimension {m.shape[0]} does not match the game")
        x[...] = linalg.hermitianize(m)
    return profile


def payoff_gradient(game: QuantumGame, state: JointState) -> StackViews:
    """Joint feedback operator F(a, b) = (tr_B[U† (I ⊗ b)], -tr_A[U† (a ⊗ I)])
    at the Hermitian parts of a and b, with which F commutes, as exactly
    Hermitian views into fresh `profile_stacks`-shaped arrays it keeps as
    `.stacks`: `payoff_gradient_into`, whose result is its own Hermitian
    part."""
    return payoff_gradient_into(hermitian_profile(game, state), FeedbackBuffers(game))


def duality_gap(game: QuantumGame, state: JointState) -> float:
    """max_a u(a, b') - min_b u(a', b); zero exactly at Nash equilibria.

    Both extremes of a linear payoff over density matrices are attained at
    eigenvectors, so the gap reduces to two extreme eigenvalues, of
    F_alice(b') and of F_bob(a') at the Hermitian parts of a' and b'
    (`duality_gaps_into`).
    """
    return duality_gaps_into(hermitian_profile(game, state), FeedbackBuffers(game))


def gram_density(g: np.ndarray) -> np.ndarray:
    """G†G / tr[G†G], Hermitian-parted, for a matrix G or each one of a stack."""
    a = np.matmul(g.conj().swapaxes(-1, -2), g)
    return linalg.hermitianize(a / np.trace(a, axis1=-2, axis2=-1).real[..., None, None])


def random_density(dim: int, generator: np.random.Generator) -> np.ndarray:
    """Full-rank-almost-surely random density matrix `gram_density(G)`."""
    return gram_density(rng.complex_normal(generator, (dim, dim)))


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


def _povm_draws(generator: np.random.Generator, outcomes: int, per_chunk: int, dim: int):
    """Yield (start, a) for each chunk of a random game's POVM stream, in
    order: a is the first k elements of a (per_chunk, dim, dim) raw stack of
    this iterator's, whose float64 memory holds the chunk's
    `standard_normal((k, 2, dim, dim))` draw, and is the caller's until it
    asks for the next chunk.

    A stream of fewer than DRAW_AHEAD_CHUNKS chunks is drawn here, into one
    stack.  A longer one is drawn into two stacks in turn by a one-thread
    executor: chunk i + 1 is submitted before chunk i is waited for, into the
    stack of chunk i - 1, which the caller is done with, so the drawer draws
    back to back while the caller works on chunk i; both release the
    interpreter lock in numpy.  One generator makes every draw in stream
    order either way, so the bits are the same.  A failed draw raises here,
    in the caller, and the executor's thread ends when the iterator ends or
    is closed.
    """
    starts = range(0, outcomes, per_chunk)
    drawn_ahead = len(starts) >= DRAW_AHEAD_CHUNKS
    stacks = [np.empty((per_chunk, dim, dim), dtype=complex) for _ in range(1 + drawn_ahead)]

    def draw(i: int) -> np.ndarray:
        k = min(per_chunk, outcomes - starts[i])
        a = stacks[i % len(stacks)][:k]
        generator.standard_normal(out=a.view(np.float64).reshape(k, 2, dim, dim))
        return a

    if not drawn_ahead:
        for i, start in enumerate(starts):
            yield start, draw(i)
        return
    # concurrent.futures imports logging: only a drawn-ahead stream pays for it
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(1, thread_name_prefix="qzsg-povm-draws")
    try:
        future = pool.submit(draw, 0)
        for i, start in enumerate(starts):
            current = future
            if i + 1 < len(starts):
                future = pool.submit(draw, i + 1)
            # poll, releasing the interpreter lock and the CPU, rather than
            # block: a blocking wait idles the caller's vCPU once a chunk,
            # and on a 2-vCPU KVM guest the solver loop after a 3+3 build
            # then often ran about 1.6x slower for up to a second (its
            # first 0.4 s above 60 us an iteration in 10 of 24 interleaved
            # processes blocking, 2 of 24 polling, 2 of 24 without the thread)
            while not current.done():
                os.sched_yield()
            yield start, current.result()
    finally:
        pool.shutdown(cancel_futures=True)


def default_outcomes(n: int, m: int, outcomes: int | None = None) -> int:
    """The outcome count of a random n+m-qubit game: `outcomes`, an integer
    from 2 to MAX_OUTCOMES, or 4^(n+m) without one; a ValueError for counts
    `side` refuses, and for a defaulted count above MAX_DEFAULTED_QUBITS."""
    side(n, m)
    if outcomes is not None:
        if not linalg.is_number(outcomes, numbers.Integral):
            raise ValueError("outcomes must be an integer")
        if outcomes < 2:
            raise ValueError("outcomes must be >= 2")
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
    to right in outcome order; no P_w is made.  The seed and the outcome
    count, `default_outcomes(n, m, outcomes)`, are checked before any draw.

    The pass works on chunks, (k, d, d) stacks of at most CHUNK_BYTES.  Each
    chunk is one `standard_normal((k, 2, d, d))` draw, each outcome's real
    block before its imaginary block as in one `rng.complex_normal` draw per
    element, and each chunk folds into S and V with the bits of k sequential
    `+=`, so no bit of a game depends on the chunk size.  The chunks come
    from `_povm_draws`, which owns the raw stacks: from DRAW_AHEAD_CHUNKS
    chunks on, its one-thread executor draws the next chunk while this
    function sums the current one, with the same bits, and the thread ends
    before this function returns or raises.
    """
    outcomes = default_outcomes(n, m, outcomes)
    dim = side(n, m)
    rng.check_seed(seed)
    utilities = rng.stream(seed, rng.STREAM_UTILITIES).uniform(-1.0, 1.0, size=outcomes)
    gen_povm = rng.stream(seed, rng.STREAM_POVM)
    ridge = RANK_RIDGE * np.eye(dim)
    per_chunk = min(outcomes, max(1, CHUNK_BYTES // (16 * dim * dim)))
    # every chunk reuses these stacks and `_povm_draws`'s raw ones: made fresh
    # per chunk, stacks this large go back to the system and fault in again
    # each time.  One block of them all would lift glibc's mmap threshold and
    # leave the process's peak RSS about 0.8 MB higher
    g, scratch = (np.empty((per_chunk, dim, dim), dtype=complex) for _ in range(2))
    total, weighted = np.zeros((2, dim, dim), dtype=complex)
    with contextlib.closing(_povm_draws(gen_povm, outcomes, per_chunk, dim)) as draws:
        # each chunk is drawn into the memory of its A_w, which is not
        # written before G is built
        for start, a in draws:
            k = len(a)
            g_k = g[:k]
            z = a.view(np.float64).reshape(k, 2, dim, dim)
            z *= 1.0 / np.sqrt(2.0)  # the bits of a complex division by sqrt(2)
            g_k.real, g_k.imag = z[:, 0], z[:, 1]
            np.matmul(np.conjugate(g_k, out=scratch[:k]).swapaxes(-1, -2), g_k, out=a)
            a += ridge
            # u_w A_w first: folding A into S overwrites a[0]
            _fold(weighted, np.multiply(utilities[start:start + k, None, None], a, out=g_k))
            _fold(total, a)
    spectrum = linalg.trusted_hermitian_eig(linalg.hermitianize(total))
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
    game: QuantumGame, norm_pair: str = "inf-one", samples: int = 100, seed: int = 0
) -> float:
    """Largest sampled ratio ||F(X) - F(Y)||_dual / ||X - Y||_primal.

    norm_pair "fro-fro" pairs Frobenius with Frobenius (joint 2-norms);
    "inf-one" pairs the spectral norm (max over players) with the trace norm
    (sum over players), for which the ratio never exceeds ||U||_inf.
    """
    if norm_pair not in ("fro-fro", "inf-one"):
        raise ValueError(f"unknown norm pair {norm_pair!r}")
    if not linalg.is_number(samples, numbers.Integral) or samples < 1:
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    generator = rng.stream(seed, rng.STREAM_LIPSCHITZ)
    return sampled_lipschitz_ratio(game, generator, samples, norm_pair)


def sampled_lipschitz_ratio(
    game: QuantumGame, generator: np.random.Generator, samples: int, norm_pair: str = "inf-one"
) -> float:
    """Largest ratio of `lipschitz_estimate` over `samples` random profile
    pairs X, Y drawn from `generator` in the order X_alice, X_bob, Y_alice,
    Y_bob; 0 when no pair is apart.  They go in `profile_stacks(game, 2, k)`
    chunks of at most CHUNK_BYTES: one `gram_density` and feedback product
    per stack, and one `linalg.trusted_hermitian_eig` per stack of
    differences, whose absolute eigenvalues give both norms.  All are exactly
    Hermitian as made, so nothing is checked; inf-one ratios keep the bits of
    one pair at a time."""
    per_chunk = min(samples, max(1, CHUNK_BYTES // (32 * (game.dim_alice**2 + game.dim_bob**2))))
    best = 0.0
    for start in range(0, samples, per_chunk):
        k = min(per_chunk, samples - start)
        g = players(profile_stacks(game, 2, k))
        for i, xy, x in itertools.product(range(k), range(2), g):
            x[xy, i] = rng.complex_normal(generator, x.shape[-2:])
        pairs = players([gram_density(s) for s in g.stacks])
        feedback = payoff_gradient_into(pairs, FeedbackBuffers(game, 2, k))
        (a, b), (fa, fb) = (players([np.abs(linalg.trusted_hermitian_eig(
            s[..., 0, :, :, :] - s[..., 1, :, :, :]).eigenvalues) for s in p.stacks])
            for p in (pairs, feedback))
        if norm_pair == "fro-fro":
            num = np.sqrt(np.sum(fa * fa, axis=-1) + np.sum(fb * fb, axis=-1))
            den = np.sqrt(np.sum(a * a, axis=-1) + np.sum(b * b, axis=-1))
        else:
            num = np.maximum(np.max(fa, axis=-1), np.max(fb, axis=-1))
            den = np.sum(a, axis=-1) + np.sum(b, axis=-1)
        ratios = np.divide(num, den, out=np.zeros(k), where=den > 1e-14)
        best = max(best, float(ratios.max()))
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
    """One qubit each, 4 outcomes, payoff observable Z ⊗ Z = diag(1, -1, -1, 1)."""
    return QuantumGame.from_observable(1, 1, np.diag([1.0, -1.0, -1.0, 1.0]), 4)


def zero_game() -> QuantumGame:
    """One qubit each, 4 outcomes, payoff observable 0."""
    return QuantumGame.from_observable(1, 1, np.zeros((4, 4)), 4)


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
    if not linalg.is_number(version, int) or version not in _DOCUMENT_KEYS:
        raise ValueError(f"unsupported format_version {version!r}")
    missing = _DOCUMENT_KEYS[version] - data.keys()
    if missing:
        raise ValueError(f"game document missing keys {sorted(missing)}")
    n, m, seed = data["n"], data["m"], data["seed"]
    side(n, m)
    if seed is not None:
        rng.check_seed(seed)
    if version == 1:
        if not (isinstance(data["povm"], list) and isinstance(data["utilities"], list)):
            raise ValueError("povm and utilities must be lists")
        povm = [linalg.matrix_from_jsonable(p) for p in data["povm"]]
        return QuantumGame.from_povm(n, m, povm, data["utilities"], seed=seed)
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
    game = QuantumGame.from_observable(n, m, u_obs, data["outcomes"], seed)
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
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"invalid game file: {exc}") from exc
    return game_from_json_dict(data)
