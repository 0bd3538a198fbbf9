import functools
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference_games import one_pass_observable, reference_outcomes
from test_linalg import failing_gufunc

import qzsg
from qzsg import game as game_module
from qzsg import linalg, rng
from qzsg.properties import check_linearity, check_monotonicity
from qzsg.game import (
    CHUNK_BYTES,
    DRAW_AHEAD_CHUNKS,
    MAX_DEFAULTED_QUBITS,
    MAX_OUTCOMES,
    FeedbackBuffers,
    JointState,
    QuantumGame,
    assert_density_matrix,
    builtin_game,
    default_outcomes,
    duality_gap,
    duality_gaps_into,
    expected_utility,
    game_from_json_dict,
    game_to_json_dict,
    lipschitz_constant,
    lipschitz_estimate,
    load_game,
    matching_pennies,
    payoff_gradient,
    payoff_gradient_into,
    players,
    profile_stacks,
    random_density,
    random_game,
    random_game_with_bound,
    save_game,
    side,
    uniform_state,
    zero_game,
)

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULIS_1Q = np.array([np.eye(2), X, [[0.0, -1.0j], [1.0j, 0.0]], Z])  # I, X, Y, Z

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)


def pauli_stack(n):
    """Every n-qubit Pauli string P_1 ⊗ ... ⊗ P_n as one stack, in I, X, Y, Z order."""
    strings = itertools.product(PAULIS_1Q, repeat=n)
    return np.array([functools.reduce(np.kron, ps) for ps in strings])


def pauli_coefficients(u, n, m):
    """c[P, Q] = tr[(P ⊗ Q) U] / 2^(n+m) over n-qubit P and m-qubit Q."""
    u4 = u.reshape(2**n, 2**m, 2**n, 2**m)
    return np.einsum("pac,qbd,cdab->pq", pauli_stack(n), pauli_stack(m), u4) / 2 ** (n + m)


def partial_trace(m, dim_a, dim_b, keep):
    """tr_B[M] (keep="A") or tr_A[M] (keep="B") of an operator on C^dim_a ⊗ C^dim_b."""
    blocks = m.reshape(dim_a, dim_b, dim_a, dim_b)
    return np.einsum("abcb->ac" if keep == "A" else "abad->bd", blocks)


def random_joint(game, rng):
    return JointState(
        random_density(game.dim_alice, rng), random_density(game.dim_bob, rng)
    )


def basis_povm_game(payoff_a, payoff_b, utilities):
    # POVM from eigenprojectors of payoff_a (x) payoff_b, one outcome per cell
    wa, va = np.linalg.eigh(payoff_a)
    wb, vb = np.linalg.eigh(payoff_b)
    povm, utils = [], []
    for i in range(2):
        for j in range(2):
            pa = np.outer(va[:, i], va[:, i].conj())
            pb = np.outer(vb[:, j], vb[:, j].conj())
            povm.append(np.kron(pa, pb))
            utils.append(utilities(wa[i], wb[j]))
    return QuantumGame.from_povm(1, 1, povm, utils)


# ---------------------------------------------------------------- validation


def test_assert_density_matrix():
    assert_density_matrix(np.eye(2) / 2.0)
    with pytest.raises(ValueError, match="trace"):
        assert_density_matrix(np.eye(2))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        assert_density_matrix(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="not Hermitian"):
        assert_density_matrix(np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_build_payoff_observable_zero_utilities():
    povm = [np.diag(row).astype(complex) for row in np.eye(4)]
    assert np.array_equal(
        QuantumGame.from_povm(1, 1, povm, [0.0] * 4).payoff_observable, np.zeros((4, 4))
    )


def test_build_payoff_observable_validates():
    povm = [np.diag(row).astype(complex) for row in np.eye(4)]
    with pytest.raises(ValueError, match="POVM elements but"):
        QuantumGame.from_povm(1, 1, povm, [1.0])
    with pytest.raises(ValueError, match=r"outside \[-1, 1\]"):
        QuantumGame.from_povm(1, 1, povm, [2.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="non-empty"):
        QuantumGame.from_povm(1, 1, [], [])
    with pytest.raises(ValueError, match="does not match"):
        QuantumGame.from_povm(1, 1, [np.eye(4), np.eye(2)], [0.5, 0.5])


def test_payoff_observable_norm_bounded_by_max_utility():
    # sum P = I makes |U|_inf <= max |u|
    for seed in range(5):
        game = random_game(1, 1, seed=seed)
        utilities = [u for u, _ in reference_outcomes(1, 1, seed=seed)[1]]
        assert game.u_inf_norm <= max(abs(u) for u in utilities) + 1e-12


def test_from_povm_is_the_one_sum():
    # the reference's U is its pairs summed in order; any iterables will do
    ref_u, pairs = reference_outcomes(1, 2, 5, seed=3)
    game = QuantumGame.from_povm(1, 2, (p for _, p in pairs), (u for u, _ in pairs), seed=3)
    assert np.array_equal(game.payoff_observable, ref_u)
    assert (game.outcomes, game.seed) == (5, 3)
    basis = [np.diag(row).astype(complex) for row in np.eye(4)]
    with pytest.raises(ValueError, match="non-empty"):
        QuantumGame.from_povm(1, 1, iter(()), iter(()))
    with pytest.raises(ValueError, match="sum to identity"):
        QuantumGame.from_povm(1, 1, basis[:3], [0.5] * 3)
    with pytest.raises(ValueError, match="does not match"):
        QuantumGame.from_povm(1, 1, [np.eye(8)], [0.5])
    with pytest.raises(ValueError, match=r"outside \[-1, 1\]"):
        QuantumGame.from_povm(1, 1, basis, [float("nan")] * 4)


def test_from_observable_keeps_its_own_copy():
    ref = random_game(1, 1, seed=3)
    state = random_joint(ref, np.random.default_rng(0))
    u = ref.payoff_observable.copy()
    game = QuantumGame.from_observable(1, 1, u, 16)
    u *= 0  # the caller's array is not the game's
    game.payoff_observable[...] = 0  # nor is the array the property returns
    assert np.array_equal(game.payoff_observable, ref.payoff_observable)
    assert game.u_inf_norm == ref.u_inf_norm
    grad, ref_grad = payoff_gradient(game, state), payoff_gradient(ref, state)
    assert np.array_equal(grad.alice, ref_grad.alice)
    assert np.array_equal(grad.bob, ref_grad.bob)
    assert expected_utility(game, state) == expected_utility(ref, state) != 0.0


def test_from_observable_stores_an_exactly_hermitian_u():
    u = random_game(1, 1, seed=3).payoff_observable.copy()
    u[0, 1] += 1e-13  # Hermitian within HERMITIAN_RTOL only
    stored = QuantumGame.from_observable(1, 1, u, 16).payoff_observable
    assert np.array_equal(stored, stored.conj().T)
    assert np.max(np.abs(stored - u)) <= 1e-13
    u[0, 1] += 0.1
    with pytest.raises(ValueError, match="payoff observable is not Hermitian"):
        QuantumGame.from_observable(1, 1, u, 16)


def test_every_constructor_stores_an_exactly_hermitian_u():
    doc = json.loads(json.dumps(game_to_json_dict(random_game(2, 1, seed=4))))
    games = [random_game(1, 2, seed=3), random_game(2, 2, seed=1),
             matching_pennies(), zero_game(), game_from_json_dict(doc)]
    for game in games:
        u = game.payoff_observable
        assert np.array_equal(u, u.conj().T)
    # the realignment round trip gives back the stored Hermitian part exactly
    rng = np.random.default_rng(5)
    for n, m in ((1, 2), (2, 1), (2, 2)):
        dim = 2 ** (n + m)
        u = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u = u + u.conj().T
        u[0, 1] += 1e-13  # Hermitian within HERMITIAN_RTOL only
        stored = QuantumGame.from_observable(n, m, u, 4).payoff_observable
        assert stored.tobytes() == linalg.hermitianize(u).tobytes()


def test_from_povm_validates():
    povm = [np.diag(row).astype(complex) for row in np.eye(4)]
    with pytest.raises(ValueError, match="qubit counts"):
        QuantumGame.from_povm(0, 1, povm, [0.0] * 4)
    with pytest.raises(ValueError, match="does not match"):
        QuantumGame.from_povm(1, 2, povm, [0.0] * 4)
    with pytest.raises(ValueError, match="not Hermitian"):
        bad = [np.array([[0.0, 1.0], [0.0, 0.0]])] + [np.eye(2)]
        QuantumGame.from_povm(1, 1, [np.kron(p, np.eye(2)) / 2 for p in bad], [0.0, 0.0])
    with pytest.raises(ValueError, match="negative eigenvalue"):
        QuantumGame.from_povm(
            1, 1, [np.diag([2.0, 1.0, 1.0, 1.0]), np.diag([-1.0, 0.0, 0.0, 0.0])],
            [0.0, 0.0],
        )
    with pytest.raises(ValueError, match="sum to identity"):
        QuantumGame.from_povm(1, 1, [np.eye(4) * 0.75, np.eye(4) * 0.5], [0.0, 0.0])


def test_from_povm_eigensolver_failure_is_numerical(monkeypatch):
    # checking an element's eigenvalues goes through the one LAPACK seam, so a
    # failure there is numerical (exit 3), not a usage error
    monkeypatch.setattr(linalg, "_EIGVALSH", failing_gufunc)
    with pytest.raises(linalg.NumericalError, match="failed to converge"):
        matching_pennies()


# ---------------------------------------------------------------- payoffs


def test_matching_pennies_payoff_observable_is_zz():
    game = matching_pennies()
    assert np.array_equal(game.payoff_observable, np.kron(Z, Z))
    assert game.u_inf_norm == 1.0


def test_matching_pennies_utilities():
    game = matching_pennies()
    assert expected_utility(game, JointState(KET0, KET0)) == pytest.approx(1.0)
    assert expected_utility(game, JointState(KET0, KET1)) == pytest.approx(-1.0)
    assert expected_utility(game, uniform_state(game)) == pytest.approx(0.0)


def test_expected_utility_matches_trace_oracle():
    rng = np.random.default_rng(33)
    for n, m, seed in ((1, 1, 0), (1, 2, 1), (2, 1, 2), (2, 3, 3)):
        game = random_game(n, m, outcomes=16, seed=seed)
        s = random_joint(game, rng)
        want = np.trace(game.payoff_observable @ np.kron(s.alice, s.bob)).real
        assert abs(expected_utility(game, s) - want) < 1e-12


def test_expected_utility_dimension_check():
    game = matching_pennies()
    with pytest.raises(ValueError, match="do not match"):
        expected_utility(game, JointState(np.eye(4) / 4.0, KET0))


def test_expected_utility_rejects_stray_imaginary_part():
    game = basis_povm_game(X, Z, lambda a, b: a * b)  # payoff observable X (x) Z
    skew = np.array([[0.5, 0.2j], [0.2j, 0.5]])  # not Hermitian
    with pytest.raises(ValueError, match="imaginary"):
        expected_utility(game, JointState(skew, KET0))


def test_payoff_identity_utility_equals_gradient_pairing():
    # u(a, b) = <a, F_a(b)> = -<b, F_b(a)>
    rng = np.random.default_rng(30)
    for seed in range(3):
        game = random_game(1, 2, seed=seed)
        for _ in range(10):
            s = random_joint(game, rng)
            u = expected_utility(game, s)
            grads = payoff_gradient(game, s)
            ga = linalg.trace_inner(s.alice, grads.alice).real
            gb = linalg.trace_inner(s.bob, grads.bob).real
            assert abs(u - ga) < 1e-10
            assert abs(u + gb) < 1e-10


def test_gradients_match_partial_trace_oracle():
    rng = np.random.default_rng(31)
    shapes = ((1, 1, 0, None), (2, 1, 1, None), (1, 2, 3, None), (2, 2, 2, None),
              (2, 3, 4, 64), (3, 2, 5, 64), (3, 3, 6, 64))
    for n, m, seed, outcomes in shapes:
        game = random_game(n, m, outcomes, seed=seed)
        s = random_joint(game, rng)
        udag = game.payoff_observable.conj().T
        da, db = game.dim_alice, game.dim_bob
        ga = partial_trace(udag @ np.kron(np.eye(da), s.bob), da, db, "A")
        gb = -partial_trace(udag @ np.kron(s.alice, np.eye(db)), da, db, "B")
        grads = payoff_gradient(game, s)
        assert np.max(np.abs(grads.alice - ga)) < 1e-12
        assert np.max(np.abs(grads.bob - gb)) < 1e-12


def test_gradient_matches_pauli_expansion():
    # F_a(b) = sum_P (sum_Q conj(U^(P,Q)) 2^m b^(Q)) P on the Pauli basis
    game = random_game(1, 1, seed=7)
    rng = np.random.default_rng(32)
    beta = random_density(2, rng)
    u_hat = pauli_coefficients(game.payoff_observable, 1, 1)
    b_hat = np.einsum("qbd,db->q", pauli_stack(1), beta) / 2.0
    expect = np.einsum("p,pac->ac", u_hat.conj() @ (2.0 * b_hat), pauli_stack(1))
    grad = payoff_gradient(game, JointState(np.eye(2) / 2.0, beta)).alice
    assert np.max(np.abs(grad - expect)) < 1e-12


def test_gradient_shapes_and_dim_checks():
    game = random_game(1, 2, seed=3)
    s = uniform_state(game)
    grads = payoff_gradient(game, s)
    assert grads.alice.shape == (2, 2)
    assert grads.bob.shape == (4, 4)
    with pytest.raises(ValueError, match="Bob state dimension 2 does not match"):
        payoff_gradient(game, JointState(s.alice, np.eye(2) / 2.0))
    with pytest.raises(ValueError, match="Alice state dimension 4 does not match"):
        payoff_gradient(game, JointState(np.eye(4) / 4.0, s.bob))


def test_payoff_gradient_views_the_profile_it_keeps():
    # one (2, d, d) stack when d_A = d_B, else one matrix per player
    rng = np.random.default_rng(8)
    for n, m, shapes in ((2, 2, [(2, 4, 4)]), (1, 2, [(2, 2), (4, 4)])):
        game = random_game(n, m, seed=6)
        pair = payoff_gradient(game, random_joint(game, rng))
        assert [s.shape for s in pair.stacks] == shapes
        view = players(pair.stacks)
        assert np.shares_memory(view.alice, pair.alice)
        assert np.shares_memory(view.bob, pair.bob)


# ---------------------------------------------------------------- duality gap


def test_duality_gap_matching_pennies_nash():
    game = matching_pennies()
    assert duality_gap(game, uniform_state(game)) == 0.0


def test_duality_gap_matching_pennies_pure_profile():
    game = matching_pennies()
    assert duality_gap(game, JointState(KET0, KET0)) == pytest.approx(2.0)


def test_duality_gap_zero_observable():
    game = zero_game()
    rng = np.random.default_rng(33)
    assert duality_gap(game, random_joint(game, rng)) == 0.0


def test_duality_gap_nonnegative():
    rng = np.random.default_rng(34)
    game = random_game(1, 1, seed=5)
    for _ in range(25):
        assert duality_gap(game, random_joint(game, rng)) >= -1e-12


# ---------------------------------------------------------------- workspace kernels
# The solver loop evaluates F and the checkpoint gaps in buffers it made once,
# reading each matrix by its lower triangle and real diagonal; on the
# Hermitian part of a profile both must equal the allocating entry points
# byte for byte, and the kernels as composed with R before, within rounding.
# d_A = d_B steps one (2, d, d) stack, 1+2 and 2+3 one matrix per player.


@functools.lru_cache(maxsize=None)
def feedback_game(n, m):
    return random_game(n, m, outcomes=16, seed=40 + 10 * n + m)


def profile_member(dim):
    parts = arrays(np.float64, (dim, dim, 2), elements=st.floats(-2.0, 2.0))
    tied = st.lists(st.sampled_from([-1.0, 0.0, 0.25, 0.5]), min_size=dim, max_size=dim)
    return st.one_of(
        parts.map(lambda a: linalg.hermitianize(a[..., 0] + 1j * a[..., 1])),
        parts.map(lambda a: a[..., 0] + 1j * a[..., 1]),  # not Hermitian
        tied.map(lambda w: np.diag(w).astype(complex)),
        st.just(np.eye(dim, dtype=complex) / dim),
        st.integers(0, 2**32 - 1).map(lambda s: random_density(dim, np.random.default_rng(s))),
        st.sampled_from([math.nan, math.inf]).map(
            lambda x: np.diag(([x] + [0.0] * dim)[:dim]).astype(complex)),
    )


@st.composite
def game_and_profiles(draw):
    n, m = draw(st.sampled_from([(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)]))
    game = feedback_game(n, m)
    profile = st.tuples(profile_member(game.dim_alice), profile_member(game.dim_bob))
    return game, [JointState(*draw(profile)) for _ in range(2)]


def composed_feedback(game, state):
    # F as composed with R before the feedback maps: transposed copies, R,
    # negation and the Hermitian part
    a, b = state
    r = game.realigned
    fa = linalg.hermitianize((r @ b.T.reshape(-1)).reshape(a.shape[0], -1))
    fb = linalg.hermitianize(-(a.T.reshape(-1) @ r).reshape(b.shape[0], -1))
    return fa, fb


def composed_gap(game, state):
    fa, fb = composed_feedback(game, state)
    return float(linalg.trusted_eigvalsh(fa)[-1] - linalg.trusted_eigvalsh(-fb)[0])


def gamma(n):
    # Higham's γ_n = n u / (1 - n u), u the unit roundoff
    u = np.finfo(float).eps / 2.0
    return n * u / (1.0 - n * u)


def feedback_bounds(game, state):
    """Entrywise bounds on |payoff_gradient - composed_feedback| per player:
    Higham's γ_n |R| |v| + n η (Accuracy and Stability of Numerical
    Algorithms, §3.1, and §3.6 for complex products; η the smallest
    subnormal, for products that underflow) for products of length
    n = 2D + 4, taken four times: each entry of a feedback map sums two of
    R's, the map works on real and imaginary parts apart, and both kernels
    round.  |v| covers the profile and its Hermitian part, and the bound of
    entry (a, c) is added to that of (c, a), as both kernels' results are
    Hermitian."""
    r = np.abs(game.realigned)
    bounds = []
    for x, m in ((state.bob, r), (state.alice, r.T)):
        v = np.abs(x) + np.abs(x).T
        b = (m @ v.reshape(-1)).reshape(int(math.isqrt(m.shape[0])), -1)
        n = 2 * v.size + 4
        bounds.append(4.0 * (gamma(n) * (b + b.T) + n * np.finfo(float).smallest_subnormal))
    return bounds


def within_rounding(game, state, got):
    # each player's F within its bound where the other player's matrix, which
    # it reads, is finite, and else with NaN and inf entries in the places
    # and with the signs of the composed kernels'
    return all(
        np.all(np.abs(g - want) <= bound) if np.isfinite(x).all() else same_non_finite(g, want)
        for g, want, bound, x in zip(
            got, composed_feedback(game, state), feedback_bounds(game, state), state[::-1])
    )


def same_non_finite(got, want):
    got, want = (np.stack([x.real, x.imag]) for x in (got, want))
    return np.array_equal(np.isnan(got), np.isnan(want)) and np.array_equal(
        np.where(np.isinf(got), got, 0), np.where(np.isinf(want), want, 0))


def loop_profiles(game, profiles, part=lambda m: m):
    # k profiles as the solver loop holds them: `players` views of
    # `profile_stacks(game, k)`, each matrix replaced by `part` of it
    stacks = profile_stacks(game, len(profiles))
    for k, p in enumerate(profiles):
        for x, m in zip(players([s[..., k, :, :] for s in stacks]), p):
            x[...] = part(m)
    return players(stacks)


def loop_profile(game, state):
    # one profile as the solver loop holds it, in `profile_stacks(game)`
    profile = players(profile_stacks(game))
    for x, m in zip(profile, state):
        x[...] = m
    return profile


def hermitian_profiles(game, profiles):
    # the Hermitian parts of k profiles, as `duality_gap` reads them
    return loop_profiles(game, profiles, linalg.hermitianize)


def gap_outcome(call):
    try:
        gap = call()
    except (linalg.NumericalError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "nan" if math.isnan(gap) else np.float64(gap).tobytes()


def same_matrix(got, want):
    # NaN payloads are not part of the contract; every other bit is
    return got.tobytes() == want.tobytes() or (
        not np.isfinite(want).all() and np.array_equal(got, want, equal_nan=True))


@settings(max_examples=120, deadline=None)
@given(game_and_profiles())
@np.errstate(all="ignore")
def test_workspace_feedback_kernels_equal_the_public_ones(case):
    game, profiles = case
    grad_buf, gap_buf = FeedbackBuffers(game), FeedbackBuffers(game, 2)
    finite = [all(np.isfinite(x).all() for x in p) for p in profiles]
    for p in profiles:  # the same buffers twice: nothing carries over
        hermitian = loop_profile(game, map(linalg.hermitianize, p))
        got = payoff_gradient_into(hermitian, grad_buf)
        public = payoff_gradient(game, p)
        for g, want in zip(got, public):
            assert same_matrix(g, want)
        assert within_rounding(game, p, public)
    gaps = [gap_outcome(lambda: duality_gap(game, p)) for p in profiles]
    for p, gap, ok in zip(profiles, gaps, finite):
        if ok:  # eigenvalues move by at most the 2-norm of the change, which
            # the sum of its entries' magnitudes bounds without squaring them
            fa, fb = composed_feedback(game, p)
            bound = sum(b.sum() for b in feedback_bounds(game, p))
            norms = np.abs(fa).sum() + np.abs(fb).sum()
            bound += 8.0 * gamma(fa.shape[0] + fb.shape[0]) * norms
            assert abs(np.frombuffer(gap)[0] - composed_gap(game, p)) <= bound
        else:
            assert gap == gap_outcome(lambda: composed_gap(game, p))
    try:
        fused = duality_gaps_into(hermitian_profiles(game, profiles), gap_buf)
    except (linalg.NumericalError, ValueError) as exc:
        assert f"{type(exc).__name__}: {exc}" in gaps
    else:
        assert [gap_outcome(lambda: g) for g in fused] == gaps


ORACLE_GAMES = ((1, 1, None), (1, 2, None), (2, 2, None), (2, 3, 64), (3, 3, 64))


@pytest.mark.parametrize("n, m, outcomes", ORACLE_GAMES)
def test_feedback_maps_oracle_hermitian_bounded_and_equal_below_the_diagonal(n, m, outcomes):
    # F from the real feedback maps, against the complex product with R
    game = random_game(n, m, outcomes, seed=50 + 10 * n + m)
    gen = np.random.default_rng(51)

    def member(dim):
        g = rng.complex_normal(gen, (dim, dim))
        return [random_density(dim, gen), linalg.hermitianize(g), g]  # g is not Hermitian

    for _ in range(4):
        for kind, state in enumerate(zip(member(game.dim_alice), member(game.dim_bob))):
            state = JointState(*state)
            public = payoff_gradient(game, state)
            for g in public:
                assert np.array_equal(g, g.conj().T)
            assert within_rounding(game, state, public)
            if kind < 2:  # exactly Hermitian: the kernel reads the profile as it is
                got = payoff_gradient_into(loop_profile(game, state), FeedbackBuffers(game))
                for g, want in zip(got, public):
                    assert np.tril(g).tobytes() == np.tril(want).tobytes()


# Run in a child at a given BLAS thread count: for each size, the feedback
# kernel on Hermitian and non-Hermitian profiles, one and two at a time, of a
# game whose R is made by sums and reshapes only (random_game's R itself
# rounds apart at two threads from 3+4 up); prints each size's digest and
# whether every output equals its conjugate transpose.
KERNEL_BITS_CHILD = """
import hashlib
import numpy as np
from qzsg import game as game_module
from qzsg import linalg, rng
from qzsg.game import FeedbackBuffers, QuantumGame, payoff_gradient_into, players, profile_stacks

for n, m in SIZES:
    gen = np.random.default_rng(70 + 10 * n + m)
    side = 2 ** (n + m)
    game = QuantumGame.from_observable(
        n, m, linalg.hermitianize(rng.complex_normal(gen, (side, side))) / side, 2)
    digest, hermitian = hashlib.sha256(), True
    for lead in ((), (2,)):
        buf = FeedbackBuffers(game, *lead)
        for k in range(4):
            profile = players(profile_stacks(game, *lead))
            for x in profile:
                g = rng.complex_normal(gen, x.shape)
                x[...] = g if k % 2 else linalg.hermitianize(g)
            for f in payoff_gradient_into(profile, buf):
                digest.update(f.tobytes())
                hermitian &= np.array_equal(f, f.conj().swapaxes(-1, -2))
    print(n, m, digest.hexdigest(), hermitian)
"""


def test_feedback_kernel_is_exactly_hermitian_and_equal_at_one_and_two_blas_threads():
    # mirrored rows of a map give mirrored outputs bit for bit, so the loop's
    # F is exactly Hermitian with no pass, and no row's bits depend on how
    # OpenBLAS splits a product between threads
    sizes = [(n, m) for n, m, _ in ORACLE_GAMES] + [(3, 4), (4, 4)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(qzsg.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        code = f"SIZES = {sizes!r}\n" + KERNEL_BITS_CHILD
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split("\n")[:-1])
    assert [line.split()[:2] for line in outputs[0]] == [[str(n), str(m)] for n, m in sizes]
    assert all(line.endswith(" True") for line in outputs[0])
    assert outputs[0] == outputs[1]


# Run in a child at a given BLAS thread count: for each size, whether the
# game's feedback maps start at 64-byte boundaries, and whether the feedback
# kernel on Hermitian and non-Hermitian profiles, one and two at a time,
# gives the same bytes with copies of the maps at offsets 16, 32 and 48.
ALIGNED_MAPS_CHILD = """
import numpy as np
from qzsg import linalg, rng
from qzsg.game import FeedbackBuffers, payoff_gradient_into, players, profile_stacks, random_game


def at_offset(m, offset):
    raw = np.empty(m.nbytes + 64 + offset, dtype=np.uint8)
    start = -raw.ctypes.data % 64 + offset
    copy = raw[start:start + m.nbytes].view(np.float64).reshape(m.shape)
    copy[...] = m
    return copy


for n, m in SIZES:
    game = random_game(n, m, 64, seed=80 + 10 * n + m)
    maps = game.feedback_maps
    aligned = all(x.ctypes.data % 64 == 0 for x in maps)
    gen = np.random.default_rng(81)
    profiles = []
    for lead in ((), (2,)):
        for k in range(2):
            profile = players(profile_stacks(game, *lead))
            for x in profile:
                g = rng.complex_normal(gen, x.shape)
                x[...] = g if k else linalg.hermitianize(g)
            profiles.append((lead, profile))

    def gradients():
        return [f.tobytes() for lead, p in profiles
                for f in payoff_gradient_into(p, FeedbackBuffers(game, *lead))]

    want, equal = gradients(), True
    for offset in (16, 32, 48):
        vars(game)["feedback_maps"] = [at_offset(x, offset) for x in maps]
        equal &= gradients() == want
    print(n, m, aligned, equal)
"""


def test_feedback_maps_are_aligned_and_equal_to_unaligned_copies_at_one_and_two_blas_threads():
    # the maps' 64-byte alignment is a speed matter only: the product's bytes
    # must not depend on it, whichever way OpenBLAS splits the product
    sizes = [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (3, 4), (4, 4)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(qzsg.__file__)))
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        code = f"SIZES = {sizes!r}\n" + ALIGNED_MAPS_CHILD
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:-1] == [f"{n} {m} True True" for n, m in sizes]


@pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)])
def test_checkpoint_gaps_of_two_profiles_equal_one_profile_gaps(n, m):
    # profiles on a batch axis make one matrix-vector product each, so a
    # checkpoint's two gaps have the bits of one profile at a time
    game = random_game(n, m, 64 if n + m > 4 else None, seed=60 + 10 * n + m)
    gen = np.random.default_rng(61)
    pair, one = FeedbackBuffers(game, 2), FeedbackBuffers(game, 1)
    for _ in range(60):
        profiles = [random_joint(game, gen) for _ in range(2)]
        gaps = duality_gaps_into(hermitian_profiles(game, profiles), pair)
        products = [o.copy() for o in pair.out]
        for k, p in enumerate(profiles):
            assert gaps[k] == duality_gaps_into(hermitian_profiles(game, [p]), one)[0]
            for both, alone in zip(products, one.out):
                assert both[..., k, :, :].tobytes() == alone[..., 0, :, :].tobytes()


# ---------------------------------------------------------------- properties


def test_monotonicity_residual_is_zero():
    # the worst of 25 profile pairs X, Y, each drawn as random_joint draws it
    game = random_game(1, 1, seed=1)
    assert check_monotonicity(game, np.random.default_rng(35), 25) < 1e-12


def test_monotonicity_residual_six_qubit_game():
    game = random_game(3, 3, outcomes=16, seed=0)
    assert check_monotonicity(game, np.random.default_rng(36), 1) < 1e-9


def test_lipschitz_estimate_matching_pennies():
    game = matching_pennies()
    assert lipschitz_estimate(game, "inf-one", samples=200) <= 1.0 + 1e-12


def test_lipschitz_estimate_bounded_by_u_norm():
    for seed in range(3):
        game = random_game(1, 1, seed=seed)
        est = lipschitz_estimate(game, "inf-one", samples=100, seed=seed)
        assert est <= game.u_inf_norm + 1e-9


def test_lipschitz_estimate_deterministic_and_validated():
    game = matching_pennies()
    a = lipschitz_estimate(game, "fro-fro", samples=50, seed=9)
    b = lipschitz_estimate(game, "fro-fro", samples=50, seed=9)
    assert a == b and a > 0.0
    with pytest.raises(ValueError, match="norm pair"):
        lipschitz_estimate(game, "nuc-nuc")
    for samples in (0, 2.5, True):
        with pytest.raises(ValueError, match="samples"):
            lipschitz_estimate(game, "fro-fro", samples=samples)


def per_pair_lipschitz_ratios(game, samples, seed):
    # the sampled ratio one pair at a time, every difference checked: the
    # (inf-one, fro-fro) ratio of each pair, or None when it is not apart
    generator = rng.stream(seed, rng.STREAM_LIPSCHITZ)

    def density(dim):
        g = rng.complex_normal(generator, (dim, dim))
        a = g.conj().T @ g
        return linalg.hermitianize(a / np.trace(a).real)

    ratios = []
    for _ in range(samples):
        x, y = (JointState(density(game.dim_alice), density(game.dim_bob)) for _ in range(2))
        fx, fy = payoff_gradient(game, x), payoff_gradient(game, y)
        d_f = [np.abs(linalg.hermitian_eig(p - q).eigenvalues) for p, q in zip(fx, fy)]
        d_x = [np.abs(linalg.hermitian_eig(p - q).eigenvalues) for p, q in zip(x, y)]
        trace_den = sum(float(np.sum(w)) for w in d_x)
        if not trace_den > 1e-14:
            ratios.append(None)
            continue
        fro_num = np.sqrt(sum(np.linalg.norm(p - q) ** 2 for p, q in zip(fx, fy)))
        fro_den = np.sqrt(sum(np.linalg.norm(p - q) ** 2 for p, q in zip(x, y)))
        ratios.append((float(max(max(w[0], w[-1]) for w in d_f) / trace_den),
                       float(fro_num / fro_den)))
    return ratios


@pytest.mark.parametrize("n, m, outcomes", [
    (1, 1, None), (1, 2, None), (2, 1, None), (2, 2, None), (1, 3, None), (3, 1, None),
    (2, 3, 64), (3, 2, 64), (3, 3, None), (3, 3, 64),
])
def test_chunked_lipschitz_ratio_equals_per_pair_loop(n, m, outcomes):
    # at 3+3 a chunk holds 64 pairs, so 64 and 65 samples straddle its end;
    # the first s pairs of one stream are the pairs of an s-sample estimate
    game = random_game(n, m, outcomes, seed=70 + 10 * n + m)
    seed = 7 * n + m
    ratios = per_pair_lipschitz_ratios(game, 1000, seed)
    for samples in (1, 7, 64, 65, 1000):
        apart = [r for r in ratios[:samples] if r is not None]
        inf_one, fro_fro = (max([0.0, *(r[i] for r in apart)]) for i in range(2))
        assert lipschitz_estimate(game, "inf-one", samples, seed) == inf_one
        # eigenvalue sums of squares replace entry norms: rounding only
        got = lipschitz_estimate(game, "fro-fro", samples, seed)
        assert abs(got - fro_fro) <= 4 * np.finfo(float).eps * fro_fro


def test_lipschitz_estimate_memory_is_flat_in_samples():
    # pairs go in chunks of at most CHUNK_BYTES; one batch of 5000 pairs
    # would take over 40 MB at 3+3
    game = random_game(3, 3, 64, seed=1)
    lipschitz_estimate(game, samples=1)  # first-call allocations, the feedback maps
    tracemalloc.start()
    try:
        lipschitz_estimate(game, samples=5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def pauli_lipschitz_constant(game):
    # U = sum c_PQ P ⊗ Q with the identity first in each factor's Pauli basis
    c = pauli_coefficients(game.payoff_observable, game.n, game.m).real
    scale = np.sqrt(game.dim_alice * game.dim_bob)
    return scale * max(np.linalg.norm(c[:, 1:], 2), np.linalg.norm(c[1:, :], 2))


@pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_lipschitz_constant_matches_pauli_form(n, m):
    game = random_game(n, m, seed=10 * n + m)
    expected = pauli_lipschitz_constant(game)
    assert lipschitz_constant(game) == pytest.approx(expected, rel=1e-12)


def test_lipschitz_constant_of_builtin_games():
    # U = Z ⊗ Z: F_alice(b) = Z tr(Z b), so the constant is ||Z||_F^2
    assert lipschitz_constant(matching_pennies()) == pytest.approx(2.0, rel=1e-12)
    assert lipschitz_constant(zero_game()) == 0.0


def test_lipschitz_constant_eigensolver_failure_is_numerical(monkeypatch):
    game = random_game(1, 2, seed=3)
    monkeypatch.setattr(linalg, "_EIGVALSH", failing_gufunc)
    with pytest.raises(linalg.NumericalError, match="failed to converge"):
        lipschitz_constant(game)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
    st.integers(2, 16),
    st.integers(0, 2**31 - 1),
)
def test_lipschitz_estimate_never_exceeds_exact_constant(qubits, outcomes, seed):
    game = random_game(*qubits, outcomes=outcomes, seed=seed)
    est = lipschitz_estimate(game, "fro-fro", samples=50, seed=seed)
    assert est <= lipschitz_constant(game) + 1e-9


class _FixedMix:
    """default_rng(seed), except that every uniform draw is `lam`."""

    def __init__(self, seed, lam):
        self._gen, self._lam = np.random.default_rng(seed), lam

    def __getattr__(self, name):
        return getattr(self._gen, name)

    def uniform(self, low, high):
        return self._lam


def test_linearity_of_feedback():
    # one pair of profiles s1, s2, each drawn as random_joint draws it, mixed
    # by each lam
    game = random_game(1, 1, seed=2)
    assert check_linearity(game, _FixedMix(37, 1.0), 1) == 0.0
    assert check_linearity(game, _FixedMix(37, 0.0), 1) == 0.0
    assert check_linearity(game, _FixedMix(37, 0.3), 1) < 1e-10


# ---------------------------------------------------------------- generation


def test_random_game_is_deterministic_in_seed():
    o1 = reference_outcomes(1, 1, seed=42)[1]
    o2 = reference_outcomes(1, 1, seed=42)[1]
    assert [u for u, _ in o1] == [u for u, _ in o2]
    assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(o1, o2))
    o3 = reference_outcomes(1, 1, seed=43)[1]
    assert not np.array_equal(o1[0][1], o3[0][1])
    assert np.array_equal(
        random_game(1, 1, seed=42).payoff_observable,
        random_game(1, 1, seed=42).payoff_observable,
    )


def test_random_game_povm_well_formed():
    # sums to identity within 1e-8, every element PSD and full rank
    for seed in range(100):
        povm = [p for _, p in reference_outcomes(1, 1, seed=seed)[1]]
        total = sum(povm)
        assert np.max(np.abs(total - np.eye(4))) < 1e-8
        for p in povm:
            assert np.linalg.eigvalsh(p)[0] > 0.0


def test_random_game_shapes_and_ranges():
    game = random_game(2, 1, seed=0)
    assert game.dim_alice == 4 and game.dim_bob == 2
    outcomes = reference_outcomes(2, 1, seed=0)[1]
    assert len(outcomes) == game.outcomes == 4 ** 3
    assert all(abs(u) <= 1.0 for u, _ in outcomes)
    assert all(p.shape == (8, 8) for _, p in outcomes)
    assert game.seed == 0
    small = random_game(1, 1, outcomes=2, seed=0)
    assert small.outcomes == len(reference_outcomes(1, 1, outcomes=2, seed=0)[1]) == 2


# one chunk, full chunks, and a partial last chunk at two sizes, and at 3+3
# (4 elements a chunk) a stream long enough for the drawing thread
chunk_cases = pytest.mark.parametrize(
    "n, m, outcomes, seed, chunks",
    [(1, 1, 16, 4, "one"), (2, 2, 256, 1, "full"), (2, 3, 100, 7, "partial"),
     (3, 3, 10, 2, "partial"), (3, 3, 4 * DRAW_AHEAD_CHUNKS + 2, 3, "partial")],
    ids=["1+1-one-chunk", "2+2-full-chunks", "2+3-partial-last", "3+3-partial-last",
         "3+3-drawn-ahead-partial-last"],
)


@chunk_cases
def test_chunked_generation_matches_the_one_element_loop(n, m, outcomes, seed, chunks):
    per_chunk = CHUNK_BYTES // (16 * 4 ** (n + m))  # elements of 16 bytes per entry
    case = "one" if outcomes <= per_chunk else "partial" if outcomes % per_chunk else "full"
    assert case == chunks
    u_obs = one_pass_observable(n, m, outcomes, seed)
    assert random_game(n, m, outcomes, seed).payoff_observable.tobytes() == u_obs.tobytes()


@chunk_cases
def test_chunked_generation_is_the_two_pass_sum_to_rounding(n, m, outcomes, seed, chunks):
    # one sandwich of sum_w u_w A_w against sum_w u_w P_w over the normalized
    # elements: equal in exact arithmetic, apart by rounding only
    u_obs = reference_outcomes(n, m, outcomes, seed)[0]
    assert np.max(np.abs(random_game(n, m, outcomes, seed).payoff_observable - u_obs)) <= 1e-15


class _PovmStream:
    """A game's POVM stream that records the thread of each
    `standard_normal` draw and raises `fail` at draw `fail_at`."""

    def __init__(self, gen, fail_at=None, fail=None):
        self._gen, self.fail_at, self.fail, self.threads = gen, fail_at, fail, []

    def __getattr__(self, name):
        return getattr(self._gen, name)

    def standard_normal(self, *args, **kwargs):
        if len(self.threads) == self.fail_at:
            raise self.fail
        self.threads.append(threading.current_thread())
        return self._gen.standard_normal(*args, **kwargs)


def _patch_povm_stream(monkeypatch, **kwargs) -> list:
    """Make every game's POVM stream a `_PovmStream(**kwargs)`; returns the
    list the streams are appended to."""
    streams, stream = [], rng.stream

    def patched(seed, purpose):
        gen = stream(seed, purpose)
        if purpose == rng.STREAM_POVM:
            streams.append(_PovmStream(gen, **kwargs))
            return streams[-1]
        return gen

    monkeypatch.setattr(rng, "stream", patched)
    return streams


def test_chunked_draws_take_a_second_thread_from_draw_ahead_chunks(monkeypatch):
    # 2+2 holds 64 elements a chunk: its default 256 outcomes are 4 chunks,
    # the benchmark's small game, and stay on the calling thread
    streams = _patch_povm_stream(monkeypatch)
    before = threading.active_count()
    random_game(2, 2, seed=6)
    assert streams[-1].threads == [threading.current_thread()] * 4
    for chunks in (DRAW_AHEAD_CHUNKS - 1, DRAW_AHEAD_CHUNKS):
        random_game(2, 2, 64 * chunks, seed=6)
        threads = streams[-1].threads
        assert len(threads) == chunks
        assert {t is threading.current_thread() for t in threads} == {chunks < DRAW_AHEAD_CHUNKS}
        assert threading.active_count() == before


def test_chunked_generation_keeps_its_bits_under_concurrent_builds():
    # more builders than cores, each with its drawing thread, switching often
    workers = (os.cpu_count() or 1) + 2
    cases = [(2, 2, 64 * DRAW_AHEAD_CHUNKS + 5, seed) for seed in range(workers)]
    want = [one_pass_observable(*case).tobytes() for case in cases]
    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(workers) as pool:
            games = list(pool.map(lambda case: random_game(*case), cases, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert [game.payoff_observable.tobytes() for game in games] == want
    assert threading.active_count() == before


class _Failed(Exception):
    """Raised by a patched step of a random game's chunk loop."""


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3)], ids=["2+2-one-thread", "2+3-drawn-ahead"])
def test_chunked_generation_raises_a_failed_draw_and_leaves_no_thread(monkeypatch, n, m):
    fail = _Failed("draw 3")
    streams = _patch_povm_stream(monkeypatch, fail_at=3, fail=fail)
    before = threading.active_count()
    with pytest.raises(_Failed) as raised:
        random_game(n, m, seed=1)
    assert raised.value is fail
    assert len(streams[-1].threads) == 3
    assert threading.active_count() == before


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3)], ids=["2+2-one-thread", "2+3-drawn-ahead"])
def test_chunked_generation_raises_a_failed_fold_and_leaves_no_thread(monkeypatch, n, m):
    # two folds a chunk, V's then S's: chunk 3's first fold fails
    fold, calls, fail = game_module._fold, [], _Failed("fold of chunk 3")

    def failing_fold(total, stack):
        calls.append(None)
        if len(calls) == 2 * 3 + 1:
            raise fail
        fold(total, stack)

    monkeypatch.setattr(game_module, "_fold", failing_fold)
    before = threading.active_count()
    with pytest.raises(_Failed) as raised:
        random_game(n, m, seed=1)
    assert raised.value is fail
    assert threading.active_count() == before


# sha256 of U's bytes and ||U||_inf, as one-pass generation makes them
RANDOM_GAME_PINS = [
    ((1, 1, 11), "fbf6525604a80e7dfddafcbc9c63f8ee9ebb015fd14639786b41976e3c29e5fc",
     0.3052964451772092),
    ((2, 2, 1), "3d20ea84ecc23aeeb5ad071f5916a1b3ec26a5283946afd6be3c6606fecdc0ad",
     0.1499534962004133),
    ((2, 3, 5), "ca5d1b25764dd346cd647d085af78811ce4c35f9f6a0cfdb8b9f92bb1882c08b",
     0.03792118188708263),
]


@pytest.mark.parametrize(
    "args, digest, norm", RANDOM_GAME_PINS, ids=["1+1", "2+2", "2+3"]
)
def test_random_game_payoff_observable_is_pinned(args, digest, norm):
    n, m, seed = args
    game = random_game(n, m, seed=seed)
    assert hashlib.sha256(game.payoff_observable.tobytes()).hexdigest() == digest
    assert game.u_inf_norm == norm


def test_random_game_keeps_no_povm_element():
    # the 1024 elements of a 2+3 game take 16.8 MB; U alone takes 16 kB
    random_game(1, 1, seed=0)  # first-call allocations are not the game's
    tracemalloc.start()
    try:
        game = random_game(2, 3, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert game.povm == ()
    assert game.outcomes == 4 ** 5


def test_random_game_validates():
    with pytest.raises(ValueError, match="outcomes"):
        random_game(1, 1, outcomes=1)
    for outcomes in (4.0, True):
        with pytest.raises(ValueError, match="outcomes must be an integer"):
            random_game(1, 1, outcomes=outcomes)
    with pytest.raises(ValueError, match="qubit counts"):
        random_game(0, 1)


class _Drawn(Exception):
    """Raised by a patched `rng.stream`: a game's first draw was reached."""


def _drawn(*args):
    raise _Drawn


def test_defaulted_outcomes_are_bounded_before_any_draw(monkeypatch):
    monkeypatch.setattr(rng, "stream", _drawn)
    assert MAX_DEFAULTED_QUBITS == 7
    for n, m in [(4, 4), (1, 7), (5, 5)]:
        with pytest.raises(ValueError, match="without --outcomes, n [+] m must be at most 7"):
            random_game_with_bound(n, m)
        with pytest.raises(ValueError, match="--outcomes"):
            random_game(n, m)
    # the 3+4 default stays allowed: its draw starts
    assert default_outcomes(3, 4) == 4**7
    with pytest.raises(_Drawn):
        random_game(3, 4)


def test_explicit_outcomes_are_always_taken(monkeypatch):
    monkeypatch.setattr(rng, "stream", _drawn)
    with pytest.raises(_Drawn):
        random_game(4, 4, outcomes=64)
    with pytest.raises(_Drawn):
        random_game(1, 1, outcomes=MAX_OUTCOMES)
    with pytest.raises(ValueError, match="the largest utility vector an array can hold"):
        random_game(1, 1, outcomes=MAX_OUTCOMES + 1)


# ---------------------------------------------------------------- builtins


def test_builtin_game_resolution():
    assert builtin_game("builtin:matching-pennies").u_inf_norm == 1.0
    assert builtin_game("zero").u_inf_norm == 0.0
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_game("builtin:nope")


# ---------------------------------------------------------------- (de)serialization


def v1_document(n, m, seed):
    # the POVM file layout before format v2, built from the reference elements
    outcomes = reference_outcomes(n, m, seed=seed)[1]
    return {
        "format_version": 1,
        "n": n,
        "m": m,
        "utilities": [u for u, _ in outcomes],
        "povm": [linalg.matrix_to_jsonable(p) for _, p in outcomes],
        "seed": seed,
    }


def test_game_json_round_trip_is_bit_exact():
    game = random_game(1, 1, seed=11)
    doc = game_to_json_dict(game)
    assert doc["format_version"] == 2
    # through an actual JSON encode/decode to exercise repr round-tripping
    back = game_from_json_dict(json.loads(json.dumps(doc)))
    assert np.array_equal(back.payoff_observable, game.payoff_observable)
    assert back.u_inf_norm == game.u_inf_norm
    assert (back.n, back.m, back.outcomes, back.seed) == (1, 1, 16, 11)
    # a v1 document's utilities and elements survive JSON bit for bit
    outcomes = reference_outcomes(1, 1, seed=11)[1]
    v1_back = json.loads(json.dumps(v1_document(1, 1, 11)))
    assert v1_back["utilities"] == [u for u, _ in outcomes]
    assert all(
        np.array_equal(linalg.matrix_from_jsonable(q), p)
        for q, (_, p) in zip(v1_back["povm"], outcomes)
    )


@pytest.mark.parametrize("n, m, seed", [(1, 1, 11), (1, 2, 3), (2, 1, 4)])
def test_v1_document_loads_to_the_streamed_game(n, m, seed):
    # the reference's U, which sums the same pairs in the same order
    ref_u = reference_outcomes(n, m, seed=seed)[0]
    game = QuantumGame.from_observable(n, m, ref_u, 4 ** (n + m), seed)
    back = game_from_json_dict(json.loads(json.dumps(v1_document(n, m, seed))))
    assert np.array_equal(back.payoff_observable, game.payoff_observable)
    assert back.u_inf_norm == game.u_inf_norm
    assert (back.outcomes, back.seed) == (game.outcomes, seed)


def test_v1_document_keeps_full_validation():
    doc = v1_document(1, 1, 11)
    bad = linalg.matrix_from_jsonable(doc["povm"][0])
    bad[0, 1] += 0.5
    broken = {**doc, "povm": [linalg.matrix_to_jsonable(bad)] + doc["povm"][1:]}
    with pytest.raises(ValueError, match="not Hermitian"):
        game_from_json_dict(broken)


def test_v2_load_rejects_bad_observables():
    doc = game_to_json_dict(random_game(1, 1, seed=11))
    u = linalg.matrix_from_jsonable(doc["payoff_observable"])

    def with_u(matrix):
        return {**doc, "payoff_observable": linalg.matrix_to_jsonable(matrix)}

    skew = u.copy()
    skew[0, 1] += 0.1
    with pytest.raises(ValueError, match="not Hermitian"):
        game_from_json_dict(with_u(skew))
    nan = [row[:] for row in doc["payoff_observable"]]
    nan[0] = [[float("nan"), 0.0]] + nan[0][1:]
    with pytest.raises(ValueError, match="non-finite"):
        game_from_json_dict(json.loads(json.dumps({**doc, "payoff_observable": nan})))
    with pytest.raises(ValueError, match="does not match"):
        game_from_json_dict(with_u(np.eye(8) / 2))
    with pytest.raises(ValueError, match="square"):
        game_from_json_dict({**doc, "payoff_observable": doc["payoff_observable"][:3]})
    with pytest.raises(ValueError, match="norm"):
        game_from_json_dict(with_u(1.5 * u / np.max(np.abs(np.linalg.eigvalsh(u)))))
    # finite, but (U + U†)/2 would overflow: the entries fail the norm bound first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"has norm .* > 1"):
            game_from_json_dict(with_u(1e308 * np.eye(4)))
    with pytest.raises(ValueError, match="outcomes"):
        game_from_json_dict({**doc, "outcomes": 0})
    # the norm bound itself is accepted: matching pennies has ||U|| = 1
    game_from_json_dict(game_to_json_dict(matching_pennies()))


def test_game_json_preserves_null_seed():
    doc = game_to_json_dict(matching_pennies())
    assert doc["seed"] is None
    assert game_from_json_dict(doc).seed is None


def test_game_from_json_dict_validates():
    doc = game_to_json_dict(matching_pennies())
    for version in (99, True, 2.0):  # a bool or a float is not a version
        with pytest.raises(ValueError, match="format_version"):
            game_from_json_dict({**doc, "format_version": version})
    with pytest.raises(ValueError, match="missing keys"):
        game_from_json_dict({"format_version": 1, "n": 1})
    with pytest.raises(ValueError, match="integers"):
        game_from_json_dict({**doc, "n": 1.0})
    with pytest.raises(ValueError, match="seed"):
        game_from_json_dict({**doc, "seed": "zero"})
    with pytest.raises(ValueError, match="JSON object"):
        game_from_json_dict([1, 2, 3])
    v1 = {"format_version": 1, "n": 1, "m": 1, "seed": None}
    for utilities, povm in ((5, []), ([], 7)):
        with pytest.raises(ValueError, match="must be lists"):
            game_from_json_dict({**v1, "utilities": utilities, "povm": povm})


def test_v2_document_rejects_a_zero_qubit_count():
    doc = {"format_version": 2, "n": 0, "m": 1, "outcomes": 2, "seed": None,
           "payoff_observable": linalg.matrix_to_jsonable(np.zeros((2, 2)))}
    with pytest.raises(ValueError, match="qubit counts must be >= 1"):
        game_from_json_dict(doc)


def test_side_refuses_counts_no_array_can_hold():
    assert side(31, 31) == 2**62
    with pytest.raises(ValueError, match=r"^62\+1 qubits need matrices of side 2\^63"):
        side(62, 1)
    with pytest.raises(ValueError, match="qubit counts must be >= 1"):
        side(1, 0)


def test_v1_document_checks_element_size_before_allocating():
    # U of 10+10 qubits would take 16 TiB; the 4x4 element must fail first
    doc = {"format_version": 1, "n": 10, "m": 10, "seed": None, "utilities": [1.0],
           "povm": [linalg.matrix_to_jsonable(np.eye(4))]}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"does not match 10\+10 qubits"):
            game_from_json_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_game_documents_reject_booleans():
    # JSON true and false are ints in Python; they must not load as 1 and 0
    docs = (game_to_json_dict(matching_pennies()), v1_document(1, 1, 4))
    for doc, (key, value) in itertools.product(
        docs, [("n", True), ("m", True), ("seed", True), ("seed", False)]
    ):
        with pytest.raises(ValueError, match="qubit counts|seed"):
            game_from_json_dict({**doc, key: value})


def test_game_documents_reject_non_numeric_entries():
    # float() reads JSON true as 1.0 and "1" as 1.0; neither is a number
    doc = game_to_json_dict(matching_pennies())
    for entry in ([True, False], ["1", "0"]):
        rows = [row[:] for row in doc["payoff_observable"]]
        rows[0] = [entry] + rows[0][1:]
        with pytest.raises(ValueError, match="matrix entry must be a number"):
            game_from_json_dict({**doc, "payoff_observable": rows})
    v1 = v1_document(1, 1, 4)
    for utility in (True, "-1"):
        with pytest.raises(ValueError, match="utility must be a number"):
            game_from_json_dict({**v1, "utilities": [utility] + v1["utilities"][1:]})


def test_save_and_load_game(tmp_path):
    game = random_game(1, 1, seed=4)
    path = tmp_path / "g.json"
    save_game(game, path)
    loaded = load_game(path)
    assert np.array_equal(loaded.payoff_observable, game.payoff_observable)
    v1_path = tmp_path / "v1.json"
    v1_path.write_text(json.dumps(v1_document(1, 1, 4)), encoding="utf-8")
    ref_u = reference_outcomes(1, 1, seed=4)[0]
    assert np.array_equal(load_game(v1_path).payoff_observable, ref_u)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="invalid game file"):
        load_game(bad)
