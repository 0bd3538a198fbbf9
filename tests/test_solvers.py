import hashlib
import math
import sys
import threading

import numpy as np
import pytest
from test_linalg import failing_gufunc

from qzsg import geometry, linalg, solvers
from qzsg.game import (
    JointState,
    duality_gap,
    lipschitz_constant,
    matching_pennies,
    payoff_gradient,
    players,
    random_game,
    uniform_state,
    zero_game,
)
from qzsg.game import assert_density_matrix, random_density
from qzsg.solvers import (
    ALIASES,
    SolverConfig,
    make_stepper,
    resolve_step_size,
    run,
)


def skewed_start():
    return JointState(
        np.diag([0.9, 0.1]).astype(complex), np.diag([0.2, 0.8]).astype(complex)
    )


def stepper_loop(game, cfg, eta, psi, iters):
    # drive a stepper directly (run() always starts from the uniform profile)
    stepper = make_stepper(game, cfg, eta, psi)
    sum_a, sum_b = np.zeros_like(psi.alice), np.zeros_like(psi.bob)
    for t in range(iters):
        sum_a += psi.alice
        sum_b += psi.bob
        psi, _ = stepper.step(t, psi)
    return JointState(
        linalg.hermitianize(sum_a / iters), linalg.hermitianize(sum_b / iters)
    )


# ---------------------------------------------------------------- config


def test_config_validate_rejects_bad_fields():
    SolverConfig().validate()
    with pytest.raises(ValueError, match="unknown solver alias"):
        SolverConfig(algorithm="newton").validate()
    for bad in (0.0, -0.5, math.inf):
        with pytest.raises(ValueError, match="step_size"):
            SolverConfig(step_size=bad).validate()
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=0).validate()
    with pytest.raises(ValueError, match="target_gap"):
        SolverConfig(target_gap=-1.0).validate()
    with pytest.raises(ValueError, match="gap_check_interval"):
        SolverConfig(gap_check_interval=0).validate()


def test_alias_table():
    entropy, frobenius = geometry.VN_ENTROPY, geometry.FROBENIUS
    assert ALIASES["mmwu"] == ("mda", entropy, "none")
    assert ALIASES["mmwu-sd"] == ("mda", entropy, "inverse_sqrt")
    assert ALIASES["ommwu"] == ("ommp", entropy, "none")
    assert ALIASES["omeg"] == ("ommp", frobenius, "none")
    assert ALIASES["mmp-entropy"] == ("mmp", entropy, "none")
    assert ALIASES["mmp-frobenius"] == ("mmp", frobenius, "none")
    assert ALIASES["mda-frobenius"] == ("mda", frobenius, "none")


def test_from_alias_and_inverse():
    for alias in ALIASES:
        cfg = SolverConfig.from_alias(alias, max_iters=5)
        assert cfg.algorithm == alias
        assert cfg.regularizer == ALIASES[alias][1].kind
        assert cfg.step_decay == ALIASES[alias][2]
        assert cfg.max_iters == 5
    with pytest.raises(ValueError, match="unknown solver alias"):
        SolverConfig.from_alias("gradient-descent")


def test_from_json_dict():
    cfg = SolverConfig.from_json_dict(
        {"algorithm": "mmwu-sd", "step_size": 0.5, "max_iters": 100, "seed": 3}
    )
    assert cfg.algorithm == "mmwu-sd"
    assert (cfg.regularizer, cfg.step_decay) == ("vn-entropy", "inverse_sqrt")
    assert cfg.step_size == 0.5 and cfg.max_iters == 100 and cfg.seed == 3
    with pytest.raises(ValueError, match="unknown solver config keys"):
        SolverConfig.from_json_dict({"algorithm": "ommwu", "iters": 10})
    with pytest.raises(ValueError, match="name an algorithm"):
        SolverConfig.from_json_dict({"max_iters": 10})
    with pytest.raises(ValueError, match="JSON object"):
        SolverConfig.from_json_dict(["ommwu"])
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        SolverConfig.from_json_dict({"algorithm": "ommwu", "max_iters": 10.0})


# ---------------------------------------------------------------- step size


def test_resolve_step_size():
    game = matching_pennies()
    assert resolve_step_size(game, SolverConfig(step_size=0.125)) == 0.125
    # entropy auto: 1 / (2 |U|_inf)
    assert resolve_step_size(game, SolverConfig(step_size="auto")) == 0.5
    # frobenius auto: U = Z ⊗ Z, so F_alice(b) = Z tr(Z b) and the exact
    # constant is ||Z||_F^2 = 2, giving 1 / (2 * 2); no seed is drawn from
    for seed in (0, 4, 123):
        cfg = SolverConfig(algorithm="omeg", step_size="auto", seed=seed)
        assert resolve_step_size(game, cfg) == pytest.approx(0.25, rel=1e-12)
    # the zero observable admits any step
    assert resolve_step_size(zero_game(), SolverConfig(step_size="auto")) == 1.0
    frobenius_auto = SolverConfig(algorithm="omeg", step_size="auto")
    assert resolve_step_size(zero_game(), frobenius_auto) == 1.0
    # every alias's auto step is exactly 1 / (2 gamma), gamma under its own norms
    entropy_aliases = {"mmwu", "mmwu-sd", "mmp-entropy", "ommwu"}
    for game in (random_game(2, 2, seed=6), random_game(1, 2, seed=7)):
        for alias in ALIASES:
            entropy = alias in entropy_aliases
            gamma = game.u_inf_norm if entropy else lipschitz_constant(game)
            auto = SolverConfig(algorithm=alias, step_size="auto")
            assert resolve_step_size(game, auto) == 1.0 / (2.0 * gamma)


# ---------------------------------------------------------------- run protocol


def test_run_single_iteration_returns_initial_average():
    game = random_game(1, 1, seed=1)
    res = run(game, SolverConfig(max_iters=1))
    start = uniform_state(game)
    assert np.array_equal(res.average.alice, start.alice)
    assert np.array_equal(res.average.bob, start.bob)
    assert res.iterations == 1
    assert [row.t for row in res.trace] == [1]


def test_run_rejects_invalid_config_before_iterating():
    with pytest.raises(ValueError, match="max_iters"):
        run(matching_pennies(), SolverConfig(max_iters=0))


def test_zero_game_is_stationary_for_every_algorithm():
    game = zero_game()
    start = uniform_state(game)
    for alias in ALIASES:
        res = run(game, SolverConfig.from_alias(alias, max_iters=20, step_size=0.5))
        assert np.allclose(res.last.alice, start.alice, atol=1e-12)
        assert np.allclose(res.average.alice, start.alice, atol=1e-12)
        assert all(row.gap_avg == 0.0 for row in res.trace)


def test_gradient_call_accounting():
    game = random_game(1, 1, seed=2)
    iters = 7
    for alias, expected in (("mmwu", 7), ("mmp-entropy", 14), ("ommwu", 8),
                            ("mda-frobenius", 7), ("mmp-frobenius", 14), ("omeg", 8)):
        res = run(game, SolverConfig.from_alias(alias, max_iters=iters))
        assert res.gradient_calls == expected, alias
        assert res.iterations == iters


def test_trace_rows_at_interval_and_final():
    game = random_game(1, 1, seed=3)
    res = run(game, SolverConfig(max_iters=120, gap_check_interval=50))
    assert [row.t for row in res.trace] == [50, 100, 120]
    ts = [row.t for row in res.trace]
    assert ts == sorted(ts) and len(set(ts)) == len(ts)
    assert all(row.gap_avg >= -1e-9 and row.gap_last >= -1e-9 for row in res.trace)
    assert all(row.wall_time_ns >= 0 for row in res.trace)


def test_explicit_checkpoints_clip_and_include_final():
    game = random_game(1, 1, seed=3)
    res = run(game, SolverConfig(max_iters=100), checkpoints=[10, 20, 10000])
    assert [row.t for row in res.trace] == [10, 20, 100]


def test_run_is_deterministic():
    game = random_game(1, 1, seed=6)
    cfg = SolverConfig.from_alias("ommwu", max_iters=150)
    r1, r2 = run(game, cfg), run(game, cfg)
    assert np.array_equal(r1.average.alice, r2.average.alice)
    assert np.array_equal(r1.average.bob, r2.average.bob)
    assert [(r.t, r.gap_avg, r.gap_last) for r in r1.trace] == [
        (r.t, r.gap_avg, r.gap_last) for r in r2.trace
    ]


def test_target_gap_stops_early():
    # the uniform profile is already the Nash point of matching pennies
    res = run(matching_pennies(), SolverConfig(max_iters=5000, target_gap=1e-6))
    assert res.iterations == 50  # first checkpoint
    assert res.trace[-1].gap_avg <= 1e-6


def test_iterates_and_averages_are_density_matrices():
    game = random_game(1, 2, seed=8)
    for alias in ALIASES:
        res = run(game, SolverConfig.from_alias(alias, max_iters=60))
        for state in (res.average, res.last):
            assert_density_matrix(state.alice)
            assert_density_matrix(state.bob)


def test_step_size_recorded_in_result():
    game = matching_pennies()
    res = run(game, SolverConfig(max_iters=10))
    assert res.step_size == 0.5
    res = run(game, SolverConfig(max_iters=10, step_size=0.2))
    assert res.step_size == 0.2


# ---------------------------------------------------------------- mda


def test_mda_equals_logit_of_accumulated_feedback():
    # the dual-averaging iterate is exactly the closed form Lambda(eta W)
    game = random_game(1, 1, seed=9)
    cfg = SolverConfig(algorithm="mmwu", step_size=0.3)
    psi = uniform_state(game)
    stepper = make_stepper(game, cfg, 0.3, psi)
    w_a = np.zeros_like(psi.alice)
    w_b = np.zeros_like(psi.bob)
    for t in range(25):
        grad = payoff_gradient(game, psi)
        w_a, w_b = w_a + grad.alice, w_b + grad.bob
        psi, _ = stepper.step(t, psi)
        assert np.array_equal(psi.alice, geometry.logit_map(0.3 * w_a))
        assert np.array_equal(psi.bob, geometry.logit_map(0.3 * w_b))


def test_mmwu_single_step_from_uniform():
    game = random_game(1, 1, seed=10)
    psi0 = uniform_state(game)
    grad = payoff_gradient(game, psi0)
    res = run(game, SolverConfig(algorithm="mmwu", step_size=0.4, max_iters=1))
    assert np.array_equal(res.last.alice, geometry.logit_map(0.4 * grad.alice))
    assert np.array_equal(res.last.bob, geometry.logit_map(0.4 * grad.bob))


def test_mmwu_sd_decays_step_as_inverse_sqrt():
    game = random_game(1, 1, seed=11)
    cfg = SolverConfig(algorithm="mmwu-sd", step_size=0.4)
    psi = uniform_state(game)
    stepper = make_stepper(game, cfg, 0.4, psi)
    w_a = np.zeros_like(psi.alice)
    for t in range(5):
        w_a = w_a + payoff_gradient(game, psi).alice
        psi, _ = stepper.step(t, psi)
        eta_t = 0.4 / math.sqrt(t + 1.0)
        assert np.array_equal(psi.alice, geometry.logit_map(eta_t * w_a))


def test_mda_average_gap_decreases_from_skewed_start():
    # matching pennies from a non-Nash start, constant step 0.1, T = 10000
    game = matching_pennies()
    cfg = SolverConfig(algorithm="mmwu", step_size=0.1)
    avg = stepper_loop(game, cfg, 0.1, skewed_start(), 10000)
    assert duality_gap(game, avg) < 0.05


# ---------------------------------------------------------------- mmp / ommp


def test_mmp_average_gap_bound_on_pennies():
    res = run(
        matching_pennies(),
        SolverConfig(algorithm="mmp-entropy", step_size=0.25, max_iters=2000),
    )
    assert res.trace[-1].gap_avg < 0.02


def test_ommwu_rate_bound_on_pennies():
    # gap(avg) <= 2 (ln 2 + ln 2) / (eta T)
    res = run(
        matching_pennies(),
        SolverConfig(algorithm="ommwu", step_size=0.25, max_iters=5000),
    )
    assert res.trace[-1].gap_avg <= 2.0 * (2.0 * math.log(2.0)) / (0.25 * 5000)


def test_mmp_and_ommp_converge_on_random_game():
    game = random_game(1, 1, seed=12)
    for alias in ("mmp-entropy", "mmp-frobenius", "ommwu", "omeg"):
        res = run(game, SolverConfig.from_alias(alias, max_iters=400))
        assert res.trace[-1].gap_avg < res.trace[0].gap_avg
        assert res.trace[-1].gap_avg < 0.1, alias


# ---------------------------------------------------------------- transcriptions
# Bit-exact pins of each stepper against its update written out by hand, from
# a non-uniform start on a 1+2 game.


def random_start(game, seed):
    generator = np.random.default_rng(seed)
    return JointState(
        random_density(game.dim_alice, generator),
        random_density(game.dim_bob, generator),
    )


def assert_stepper_matches(alias, transcription, calls, iters=60):
    game = random_game(1, 2, seed=15)
    eta = 0.3
    psi = random_start(game, 16)
    stepper = make_stepper(game, SolverConfig.from_alias(alias), eta, psi)
    expected = transcription(game, eta, psi)
    for t in range(iters):
        psi, fresh = stepper.step(t, psi)
        want = next(expected)
        assert np.array_equal(psi.alice, want.alice), (alias, t)
        assert np.array_equal(psi.bob, want.bob), (alias, t)
        assert fresh == calls(t), (alias, t)


def test_mmp_entropy_matches_dual_transcription():
    # the dual state starts at log psi0 and advances by eta times the corrector
    def transcription(game, eta, psi):
        dual = JointState(linalg.herm_log(psi.alice), linalg.herm_log(psi.bob))
        while True:
            g1 = payoff_gradient(game, psi)
            phi = JointState(
                geometry.logit_map(dual.alice + eta * g1.alice),
                geometry.logit_map(dual.bob + eta * g1.bob),
            )
            g2 = payoff_gradient(game, phi)
            dual = JointState(dual.alice + eta * g2.alice, dual.bob + eta * g2.bob)
            psi = JointState(geometry.logit_map(dual.alice), geometry.logit_map(dual.bob))
            yield psi

    assert_stepper_matches("mmp-entropy", transcription, lambda t: 2)


def test_mmp_frobenius_matches_projected_transcription():
    def transcription(game, eta, psi):
        project = geometry.orth_project_spectraplex
        while True:
            g1 = payoff_gradient(game, psi)
            phi = JointState(
                project(psi.alice + eta * g1.alice), project(psi.bob + eta * g1.bob)
            )
            g2 = payoff_gradient(game, phi)
            psi = JointState(
                project(psi.alice + eta * g2.alice), project(psi.bob + eta * g2.bob)
            )
            yield psi

    assert_stepper_matches("mmp-frobenius", transcription, lambda t: 2)


def test_omeg_matches_projected_transcription():
    def transcription(game, eta, psi):
        project = geometry.orth_project_spectraplex
        momentum = psi
        last = payoff_gradient(game, psi)
        while True:
            nxt = JointState(
                project(momentum.alice + eta * last.alice),
                project(momentum.bob + eta * last.bob),
            )
            last = payoff_gradient(game, nxt)
            momentum = JointState(
                project(momentum.alice + eta * last.alice),
                project(momentum.bob + eta * last.bob),
            )
            yield nxt

    assert_stepper_matches("omeg", transcription, lambda t: 2 if t == 0 else 1)


def test_mda_frobenius_matches_projected_closed_form():
    def transcription(game, eta, psi):
        project = geometry.orth_project_spectraplex
        w_a, w_b = np.zeros_like(psi.alice), np.zeros_like(psi.bob)
        while True:
            grad = payoff_gradient(game, psi)
            w_a, w_b = w_a + grad.alice, w_b + grad.bob
            psi = JointState(project(eta * w_a), project(eta * w_b))
            yield psi

    assert_stepper_matches("mda-frobenius", transcription, lambda t: 1)


def test_ommwu_matches_optimistic_dual_transcription():
    # the dual state extrapolates with the stored gradient; the extrapolated point is played
    def transcription(game, eta, psi):
        dual = JointState(linalg.herm_log(psi.alice), linalg.herm_log(psi.bob))
        last = payoff_gradient(game, psi)
        while True:
            nxt = JointState(
                geometry.logit_map(dual.alice + eta * last.alice),
                geometry.logit_map(dual.bob + eta * last.bob),
            )
            last = payoff_gradient(game, nxt)
            dual = JointState(dual.alice + eta * last.alice, dual.bob + eta * last.bob)
            yield nxt

    assert_stepper_matches("ommwu", transcription, lambda t: 2 if t == 0 else 1)


def test_mmwu_matches_logit_closed_form():
    def transcription(game, eta, psi):
        w_a, w_b = np.zeros_like(psi.alice), np.zeros_like(psi.bob)
        while True:
            grad = payoff_gradient(game, psi)
            w_a, w_b = w_a + grad.alice, w_b + grad.bob
            psi = JointState(geometry.logit_map(eta * w_a), geometry.logit_map(eta * w_b))
            yield psi

    assert_stepper_matches("mmwu", transcription, lambda t: 1)


def test_ommp_momentum_is_materialized_dual_state():
    game = random_game(1, 1, seed=13)
    cfg = SolverConfig(algorithm="ommwu")
    psi = uniform_state(game)
    stepper = make_stepper(game, cfg, 0.3, psi)
    for t in range(5):
        psi, _ = stepper.step(t, psi)
    mom = JointState(*(geometry.VN_ENTROPY.play(d) for d in players(stepper.stacks)))
    assert np.array_equal(mom.alice, geometry.logit_map(players(stepper.stacks).alice))
    assert_density_matrix(mom.alice)
    assert_density_matrix(mom.bob)


def test_ommp_frobenius_keeps_primal_momentum():
    game = random_game(1, 1, seed=13)
    cfg = SolverConfig(algorithm="omeg")
    psi = uniform_state(game)
    stepper = make_stepper(game, cfg, 0.3, psi)
    psi, calls = stepper.step(0, psi)
    assert calls == 2  # warm-up evaluates the stored gradient too
    psi, calls = stepper.step(1, psi)
    assert calls == 1
    assert_density_matrix(players(stepper.stacks).alice)


@pytest.mark.parametrize("alias", ["mmp-entropy", "ommwu", "mmp-frobenius", "omeg"])
def test_mirror_prox_starts_at_a_non_uniform_psi0(alias):
    game = random_game(1, 2, seed=15)
    eta = 0.3
    psi0 = random_start(game, 17)
    stepper = make_stepper(game, SolverConfig.from_alias(alias), eta, psi0)
    reg = stepper.reg
    for played, want in zip(players(stepper.stacks), psi0):
        assert np.max(np.abs(reg.play(played) - want)) < 1e-12

    # the first step is the primal rule's proximal steps from psi0
    def prox(x, g):
        return JointState(
            reg.proximal_map(x.alice, g.alice, eta), reg.proximal_map(x.bob, g.bob, eta)
        )

    ahead = prox(psi0, payoff_gradient(game, psi0))
    want = ahead if stepper.optimistic else prox(psi0, payoff_gradient(game, ahead))
    got, _ = stepper.step(0, psi0)
    assert np.max(np.abs(got.alice - want.alice)) < 1e-10
    assert np.max(np.abs(got.bob - want.bob)) < 1e-10


def test_entropy_mirror_prox_rejects_a_rank_deficient_start():
    game = random_game(1, 1, seed=15)
    pure = JointState(np.diag([1.0, 0.0]).astype(complex), np.eye(2, dtype=complex) / 2)
    with pytest.raises(ValueError, match="full-rank"):
        make_stepper(game, SolverConfig.from_alias("ommwu"), 0.3, pure)
    make_stepper(game, SolverConfig.from_alias("omeg"), 0.3, pure)


# ---------------------------------------------------------------- pins
# sha256 prefixes of each run's trace floats, average and last states and
# gradient count.  The engine may change how it steps; these bits may not.

PINNED_TRAJECTORIES = {
    ("2+2", "mda-frobenius"): "395e6e8b32c117d5",
    ("2+2", "mmp-entropy"): "e6038c69bc3f8c6c",
    ("2+2", "mmp-frobenius"): "5f5d0331751a1819",
    ("2+2", "mmwu"): "214da2e5d0d3687a",
    ("2+2", "mmwu-sd"): "cc4f524fa985e797",
    ("2+2", "omeg"): "98097b8525e0bce6",
    ("2+2", "ommwu"): "1adcd74e26fa8222",
    ("1+2", "mda-frobenius"): "087b72d2ce9e8864",
    ("1+2", "mmp-entropy"): "8ca0daaddf69854f",
    ("1+2", "mmp-frobenius"): "5352849415e18cc1",
    ("1+2", "mmwu"): "6bb5aa59e13cdd1f",
    ("1+2", "mmwu-sd"): "472a22c4d0384801",
    ("1+2", "omeg"): "5641814c43d48506",
    ("1+2", "ommwu"): "1bbab1135db42fd4",
    ("pennies", "mda-frobenius"): "83c8b74ea3ad32cb",
    ("pennies", "mmp-entropy"): "1b13c7ffa8934c12",
    ("pennies", "mmp-frobenius"): "1b13c7ffa8934c12",
    ("pennies", "mmwu"): "83c8b74ea3ad32cb",
    ("pennies", "mmwu-sd"): "83c8b74ea3ad32cb",
    ("pennies", "omeg"): "a32410138a384b91",
    ("pennies", "ommwu"): "a32410138a384b91",
}


def trajectory_digest(game, alias):
    res = run(game, SolverConfig.from_alias(alias, max_iters=300, gap_check_interval=10))
    h = hashlib.sha256()
    h.update(np.array([(r.t, r.gap_avg, r.gap_last) for r in res.trace]).tobytes())
    for state in (res.average, res.last):
        h.update(state.alice.tobytes())
        h.update(state.bob.tobytes())
    h.update(str(res.gradient_calls).encode())
    return h.hexdigest()[:16]


def test_trajectories_are_pinned():
    # 2+2 steps both players as one stack, 1+2 as one matrix per player, and
    # matching pennies starts at exact eigenvalue ties
    games = {
        "2+2": random_game(2, 2, seed=31),
        "1+2": random_game(1, 2, seed=32),
        "pennies": matching_pennies(),
    }
    got = {
        (name, alias): trajectory_digest(game, alias)
        for name, game in games.items()
        for alias in sorted(ALIASES)
    }
    assert got == PINNED_TRAJECTORIES


def test_run_results_own_their_memory_across_sequential_and_threaded_runs():
    # every run makes its own workspace, so no result views another run's
    # arrays, or memory a later run writes
    jobs = [
        (game, SolverConfig.from_alias(alias, max_iters=200, gap_check_interval=10))
        for game in (random_game(2, 2, seed=31), random_game(1, 2, seed=32))
        for alias in ("ommwu", "omeg", "mmwu-sd")
    ]

    def snapshot(res):
        rows = [(row.t, row.gap_avg, row.gap_last) for row in res.trace]
        return [x.tobytes() for x in (*res.average, *res.last)] + rows

    sequential = [run(game, cfg) for game, cfg in jobs]
    want = [snapshot(res) for res in sequential]
    for res in sequential:
        assert all(x.flags.owndata for x in (*res.average, *res.last))

    threaded = {}

    def worker(k):
        threaded[k] = [run(game, cfg) for game, cfg in jobs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    for k in range(2):
        assert [snapshot(res) for res in threaded[k]] == want
    assert [snapshot(res) for res in sequential] == want


# ---------------------------------------------------------------- failures


def test_eigensolver_failure_is_wrapped_with_iteration(monkeypatch):
    game = random_game(1, 1, seed=14)
    real_eigh = linalg._EIGH
    calls = {"n": 0}

    def flaky(a, signature):
        calls["n"] += 1
        if calls["n"] > 3:
            return failing_gufunc(a, signature)
        return real_eigh(a, signature=signature)

    monkeypatch.setattr(linalg, "_EIGH", flaky)
    with pytest.raises(linalg.NumericalError, match="iteration"):
        run(game, SolverConfig(algorithm="mmwu", step_size=0.5, max_iters=10))


def test_projection_eigensolver_failure_is_wrapped_with_iteration(monkeypatch):
    # omeg's steps are Frobenius projections, which look the gufunc up per call
    game = random_game(1, 1, seed=14)
    real_eigh = linalg._EIGH
    calls = {"n": 0}

    def flaky(a, signature):
        calls["n"] += 1
        if calls["n"] > 3:
            return failing_gufunc(a, signature)
        return real_eigh(a, signature=signature)

    monkeypatch.setattr(linalg, "_EIGH", flaky)
    with pytest.raises(linalg.NumericalError, match=r"iteration \d+: eigensolver failed"):
        run(game, SolverConfig(algorithm="omeg", step_size=0.5, max_iters=10))


@pytest.mark.parametrize("alias", sorted(ALIASES))
def test_nan_gradient_raises_numerical_error_naming_its_iteration(monkeypatch, alias):
    # the solver loop checks no input; the NaN surfaces as a non-finite spectrum
    game = random_game(1, 1, seed=14)
    cfg = SolverConfig.from_alias(alias, step_size=0.5, max_iters=10)
    k = 4
    before = run(game, SolverConfig.from_alias(alias, step_size=0.5, max_iters=k - 1))
    real_gradient = solvers.payoff_gradient_into
    calls = {"n": 0}

    def poisoned(game, state, buf):
        g = real_gradient(game, state, buf)
        calls["n"] += 1
        if calls["n"] == before.gradient_calls + 1:  # the first gradient of iteration k
            g.alice[...] *= math.nan  # in place, so the profile the loop reads is poisoned
        return g

    monkeypatch.setattr(solvers, "payoff_gradient_into", poisoned)
    with pytest.raises(linalg.NumericalError, match=f"iteration {k}: .*non-finite"):
        run(game, cfg)


def test_gap_eigensolver_failure_names_checkpoint(monkeypatch):
    game = random_game(1, 1, seed=14)
    monkeypatch.setattr(linalg, "_EIGVALSH", failing_gufunc)
    with pytest.raises(linalg.NumericalError, match="iteration 10"):
        run(game, SolverConfig(step_size=0.5, max_iters=10))


def test_non_finite_gap_raises(monkeypatch):
    game = random_game(1, 1, seed=14)
    monkeypatch.setattr(solvers, "duality_gaps_into", lambda *_: [math.nan, math.nan])
    with pytest.raises(linalg.NumericalError, match="non-finite duality gap"):
        run(game, SolverConfig(step_size=0.5, max_iters=10))
