import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qzsg import linalg
from qzsg.game import (
    JointState,
    QuantumGame,
    assert_density_matrix,
    build_payoff_observable,
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
    payoff_gradient_alice,
    payoff_gradient_bob,
    random_density,
    random_game,
    save_game,
    uniform_state,
    zero_game,
)

Z = linalg.PAULI_1Q["Z"]
X = linalg.PAULI_1Q["X"]

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)


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
        build_payoff_observable(povm, [0.0] * 4), np.zeros((4, 4))
    )


def test_build_payoff_observable_validates():
    povm = [np.diag(row).astype(complex) for row in np.eye(4)]
    with pytest.raises(ValueError, match="POVM elements but"):
        build_payoff_observable(povm, [1.0])
    with pytest.raises(ValueError, match=r"outside \[-1, 1\]"):
        build_payoff_observable(povm, [2.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="non-empty"):
        build_payoff_observable([], [])
    with pytest.raises(ValueError, match="inconsistent"):
        build_payoff_observable([np.eye(4), np.eye(2)], [0.5, 0.5])


def test_payoff_observable_norm_bounded_by_max_utility():
    # sum P = I makes |U|_inf <= max |u|
    for seed in range(5):
        game = random_game(1, 1, seed=seed)
        assert game.u_inf_norm <= max(abs(u) for u in game.utilities) + 1e-12


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
            ga = linalg.trace_inner(s.alice, payoff_gradient_alice(game, s.bob)).real
            gb = linalg.trace_inner(s.bob, payoff_gradient_bob(game, s.alice)).real
            assert abs(u - ga) < 1e-10
            assert abs(u + gb) < 1e-10


def test_gradients_match_partial_trace_oracle():
    rng = np.random.default_rng(31)
    for n, m, seed in ((1, 1, 0), (2, 1, 1), (2, 2, 2)):
        game = random_game(n, m, seed=seed)
        s = random_joint(game, rng)
        udag = game.payoff_observable.conj().T
        da, db = game.dim_alice, game.dim_bob
        ga = linalg.partial_trace(udag @ np.kron(np.eye(da), s.bob), da, db, "A")
        gb = -linalg.partial_trace(udag @ np.kron(s.alice, np.eye(db)), da, db, "B")
        assert np.max(np.abs(payoff_gradient_alice(game, s.bob) - ga)) < 1e-12
        assert np.max(np.abs(payoff_gradient_bob(game, s.alice) - gb)) < 1e-12


def test_gradient_matches_pauli_expansion():
    # F_a(b) = sum_P (sum_Q conj(U^(P,Q)) 2^m b^(Q)) P on the Pauli basis
    game = random_game(1, 1, seed=7)
    rng = np.random.default_rng(32)
    beta = random_density(2, rng)
    u_hat = linalg.pauli_decompose(game.payoff_observable, 2)
    b_hat = linalg.pauli_decompose(beta, 1)
    expect = np.zeros((2, 2), dtype=complex)
    for p in linalg.pauli_strings(1):
        coeff = sum(
            np.conj(u_hat[p + q]) * 2.0 * b_hat[q] for q in linalg.pauli_strings(1)
        )
        expect += coeff * linalg.pauli_matrix(p)
    assert np.max(np.abs(payoff_gradient_alice(game, beta) - expect)) < 1e-12


def test_gradient_shapes_and_dim_checks():
    game = random_game(1, 2, seed=3)
    s = uniform_state(game)
    grads = payoff_gradient(game, s)
    assert grads.alice.shape == (2, 2)
    assert grads.bob.shape == (4, 4)
    with pytest.raises(ValueError, match="does not match"):
        payoff_gradient_alice(game, np.eye(2) / 2.0)
    with pytest.raises(ValueError, match="does not match"):
        payoff_gradient_bob(game, np.eye(4) / 4.0)


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


# ---------------------------------------------------------------- properties


def test_monotonicity_residual_is_zero():
    rng = np.random.default_rng(35)
    game = random_game(1, 1, seed=1)
    for _ in range(25):
        x, y = random_joint(game, rng), random_joint(game, rng)
        assert abs(monotonicity_residual(game, x, y)) < 1e-12


def test_monotonicity_residual_six_qubit_game():
    game = random_game(3, 3, outcomes=16, seed=0)
    rng = np.random.default_rng(36)
    x, y = random_joint(game, rng), random_joint(game, rng)
    assert abs(monotonicity_residual(game, x, y)) < 1e-9


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
    with pytest.raises(ValueError, match="samples"):
        lipschitz_estimate(game, "fro-fro", samples=0)


def pauli_lipschitz_constant(game):
    # U = sum c_PQ P ⊗ Q with the identity first in each factor's Pauli basis
    coeffs = linalg.pauli_decompose(game.payoff_observable, game.n + game.m)
    c = np.array([
        [coeffs[p + q].real for q in linalg.pauli_strings(game.m)]
        for p in linalg.pauli_strings(game.n)
    ])
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


def test_linearity_of_feedback():
    game = random_game(1, 1, seed=2)
    rng = np.random.default_rng(37)
    s1, s2 = random_joint(game, rng), random_joint(game, rng)
    assert linearity_check(game, s1, s2, 1.0) == 0.0
    assert linearity_check(game, s1, s2, 0.0) == 0.0
    assert linearity_check(game, s1, s2, 0.3) < 1e-10
    with pytest.raises(ValueError, match="lambda"):
        linearity_check(game, s1, s2, 1.5)


# ---------------------------------------------------------------- generation


def test_random_game_is_deterministic_in_seed():
    g1 = random_game(1, 1, seed=42)
    g2 = random_game(1, 1, seed=42)
    assert g1.utilities == g2.utilities
    assert all(np.array_equal(p, q) for p, q in zip(g1.povm, g2.povm))
    g3 = random_game(1, 1, seed=43)
    assert not np.array_equal(g1.povm[0], g3.povm[0])


def test_random_game_povm_well_formed():
    # sums to identity within 1e-8, every element PSD and full rank
    for seed in range(100):
        game = random_game(1, 1, seed=seed)
        total = sum(game.povm)
        assert np.max(np.abs(total - np.eye(4))) < 1e-8
        for p in game.povm:
            assert np.linalg.eigvalsh(p)[0] > 0.0


def test_random_game_shapes_and_ranges():
    game = random_game(2, 1, seed=0)
    assert game.dim_alice == 4 and game.dim_bob == 2
    assert len(game.povm) == 4 ** 3
    assert all(abs(u) <= 1.0 for u in game.utilities)
    assert game.seed == 0
    small = random_game(1, 1, outcomes=2, seed=0)
    assert len(small.povm) == 2


def test_random_game_validates():
    with pytest.raises(ValueError, match="outcomes"):
        random_game(1, 1, outcomes=1)
    with pytest.raises(ValueError, match="qubit counts"):
        random_game(0, 1)


# ---------------------------------------------------------------- builtins


def test_builtin_game_resolution():
    assert builtin_game("builtin:matching-pennies").u_inf_norm == 1.0
    assert builtin_game("zero").u_inf_norm == 0.0
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_game("builtin:nope")


# ---------------------------------------------------------------- (de)serialization


def test_game_json_round_trip_is_bit_exact():
    game = random_game(1, 1, seed=11)
    doc = game_to_json_dict(game)
    # through an actual JSON encode/decode to exercise repr round-tripping
    back = game_from_json_dict(json.loads(json.dumps(doc)))
    assert back.utilities == game.utilities
    assert all(np.array_equal(p, q) for p, q in zip(back.povm, game.povm))
    assert np.array_equal(back.payoff_observable, game.payoff_observable)
    assert back.seed == 11


def test_game_json_preserves_null_seed():
    doc = game_to_json_dict(matching_pennies())
    assert doc["seed"] is None
    assert game_from_json_dict(doc).seed is None


def test_game_from_json_dict_validates():
    doc = game_to_json_dict(matching_pennies())
    with pytest.raises(ValueError, match="format_version"):
        game_from_json_dict({**doc, "format_version": 99})
    with pytest.raises(ValueError, match="missing keys"):
        game_from_json_dict({"format_version": 1, "n": 1})
    with pytest.raises(ValueError, match="integers"):
        game_from_json_dict({**doc, "n": 1.0})
    with pytest.raises(ValueError, match="seed"):
        game_from_json_dict({**doc, "seed": "zero"})
    with pytest.raises(ValueError, match="JSON object"):
        game_from_json_dict([1, 2, 3])


def test_save_and_load_game(tmp_path):
    game = random_game(1, 1, seed=4)
    path = tmp_path / "g.json"
    save_game(game, path)
    loaded = load_game(path)
    assert np.array_equal(loaded.payoff_observable, game.payoff_observable)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="invalid game file"):
        load_game(bad)
