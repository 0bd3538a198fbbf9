import dataclasses
import functools
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
    SolverConfig()
    with pytest.raises(ValueError, match="unknown solver alias"):
        SolverConfig(algorithm="newton")
    for bad in (0.0, -0.5, math.inf):
        with pytest.raises(ValueError, match="step_size"):
            SolverConfig(step_size=bad)
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError, match="target_gap"):
        SolverConfig(target_gap=-1.0)
    with pytest.raises(ValueError, match="gap_check_interval"):
        SolverConfig(gap_check_interval=0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="below 2\\^64"):
            SolverConfig(seed=seed)
    SolverConfig(seed=2**64 - 1)
    # a replaced field is checked too
    with pytest.raises(ValueError, match="step_size"):
        dataclasses.replace(SolverConfig(), step_size=0.0)


def test_alias_table():
    entropy, frobenius = geometry.VN_ENTROPY, geometry.FROBENIUS
    assert ALIASES["mmwu"] == ("mda", entropy, "none")
    assert ALIASES["mmwu-sd"] == ("mda", entropy, "inverse_sqrt")
    assert ALIASES["ommwu"] == ("ommp", entropy, "none")
    assert ALIASES["omeg"] == ("ommp", frobenius, "none")
    assert ALIASES["mmp-entropy"] == ("mmp", entropy, "none")
    assert ALIASES["mmp-frobenius"] == ("mmp", frobenius, "none")
    assert ALIASES["mda-frobenius"] == ("mda", frobenius, "none")


# the regularizer each alias names in `solve`'s output, as literal strings
ALIAS_REGULARIZERS = {
    "mmwu": "vn-entropy",
    "mmwu-sd": "vn-entropy",
    "mda-frobenius": "frobenius",
    "mmp-entropy": "vn-entropy",
    "mmp-frobenius": "frobenius",
    "ommwu": "vn-entropy",
    "omeg": "frobenius",
}


def test_from_alias_and_inverse():
    assert sorted(ALIASES) == sorted(ALIAS_REGULARIZERS)
    for alias in ALIASES:
        cfg = SolverConfig.from_alias(alias, max_iters=5)
        assert cfg.algorithm == alias
        assert cfg.regularizer == ALIAS_REGULARIZERS[alias] == ALIASES[alias][1].kind
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


@pytest.mark.parametrize("bad", [2.5, -1, 0, True, "2"])
def test_run_refuses_a_checkpoint_that_is_not_an_integer_at_least_one(bad):
    # 2.5 was read as a checkpoint at t=2, and -1 and 0 were dropped unsaid
    game = random_game(1, 1, seed=3)
    with pytest.raises(ValueError, match=f"checkpoints must be integers >= 1, got {bad!r}"):
        run(game, SolverConfig(max_iters=10), checkpoints=[5, bad])


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


@pytest.mark.parametrize("alias", sorted(ALIASES))
@pytest.mark.parametrize("n, m", [(2, 2), (1, 2)])
def test_run_average_equals_its_hermitian_part(alias, n, m):
    # mirror prox plays points that are Hermitian only to rounding; each
    # checkpoint takes the Hermitian parts of the average and the last
    # iterate, and those are what a run returns
    game = random_game(n, m, seed=30 + n + m)
    res = run(game, SolverConfig.from_alias(alias, max_iters=60, gap_check_interval=20))
    for x in (*res.average, *res.last):
        assert x.tobytes() == linalg.hermitianize(x).tobytes()


@functools.lru_cache(maxsize=None)
def recompute_game(name):
    n, m, outcomes, seed = {"2+2": (2, 2, None, 31), "1+2": (1, 2, None, 32),
                            "3+3": (3, 3, 64, 33)}[name]
    return random_game(n, m, outcomes, seed=seed)


@pytest.mark.parametrize("alias", sorted(ALIASES))
@pytest.mark.parametrize("name", ["2+2", "1+2", "3+3"])
def test_recomputed_gap_of_the_average_equals_the_trace(alias, name):
    # the gap the last checkpoint reports is the public gap of the returned
    # average, bit for bit, and the returned profiles are exactly Hermitian
    game = recompute_game(name)
    res = run(game, SolverConfig.from_alias(alias, max_iters=300, gap_check_interval=10))
    assert duality_gap(game, res.average) == res.trace[-1].gap_avg
    assert duality_gap(game, res.last) == res.trace[-1].gap_last
    for x in (*res.average, *res.last):
        assert x.tobytes() == linalg.hermitianize(x).tobytes()


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
# Pins of each stepper against its update written out by hand with the public
# maps, from a non-uniform start on a 1+2 game.  Dual averaging plays the
# public maps' bits, so it is pinned bit for bit.  Mirror prox runs the loop's
# kernels, which read a Hermitian matrix by its lower triangle and end without
# a Hermitian pass, so its points equal the public maps' only to rounding:
# within MIRROR_PROX_ROUNDING of the transcription, which is about 400 times
# the largest difference seen over the 60 steps (2.7e-15, mmp-frobenius).

MIRROR_PROX_ROUNDING = 1e-12


def random_start(game, seed):
    generator = np.random.default_rng(seed)
    return JointState(
        random_density(game.dim_alice, generator),
        random_density(game.dim_bob, generator),
    )


def assert_stepper_matches(alias, transcription, calls, iters=60, rounding=0.0):
    game = random_game(1, 2, seed=15)
    eta = 0.3
    psi = random_start(game, 16)
    stepper = make_stepper(game, SolverConfig.from_alias(alias), eta, psi)
    expected = transcription(game, eta, psi)
    for t in range(iters):
        psi, fresh = stepper.step(t, psi)
        want = next(expected)
        for x, y in zip(psi, want):
            if rounding:
                assert np.max(np.abs(x - y)) <= rounding, (alias, t)
            else:
                assert np.array_equal(x, y), (alias, t)
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

    assert_stepper_matches(
        "mmp-entropy", transcription, lambda t: 2, rounding=MIRROR_PROX_ROUNDING
    )


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

    assert_stepper_matches(
        "mmp-frobenius", transcription, lambda t: 2, rounding=MIRROR_PROX_ROUNDING
    )


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

    assert_stepper_matches(
        "omeg", transcription, lambda t: 2 if t == 0 else 1, rounding=MIRROR_PROX_ROUNDING
    )


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

    assert_stepper_matches(
        "ommwu", transcription, lambda t: 2 if t == 0 else 1, rounding=MIRROR_PROX_ROUNDING
    )


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
    # play ends without the public map's Hermitian pass
    assert np.array_equal(
        linalg.hermitianize(mom.alice), geometry.logit_map(players(stepper.stacks).alice)
    )
    assert_density_matrix(mom.alice)
    assert_density_matrix(mom.bob)


@pytest.mark.parametrize("alias", ["mmp-entropy", "mmp-frobenius"])
def test_mirror_prox_plays_into_the_same_views_every_step(alias):
    # so the feedback kernel's columns of them are made once, not per step
    game = random_game(1, 1, seed=13)
    psi = uniform_state(game)
    stepper = make_stepper(game, SolverConfig(algorithm=alias), 0.3, psi)
    psi, _ = stepper.step(0, psi)
    sources = psi.sources
    for t in range(1, 4):
        played, _ = stepper.step(t, psi)
        assert played is psi and played.sources is sources


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
    # dual averaging starts its state at zero and Frobenius at the point
    # itself, so only a logarithm needs full rank
    game = random_game(1, 1, seed=15)
    pure = JointState(np.diag([1.0, 0.0]).astype(complex), np.eye(2, dtype=complex) / 2)
    for alias in ALIASES:
        cfg = SolverConfig.from_alias(alias)
        if alias in ("ommwu", "mmp-entropy"):
            with pytest.raises(ValueError, match="full-rank"):
                make_stepper(game, cfg, 0.3, pure)
        else:
            make_stepper(game, cfg, 0.3, pure).step(0, pure)


@pytest.mark.parametrize("alias", sorted(ALIASES))
def test_a_start_of_the_wrong_dimension_names_the_player(alias):
    game, cfg = random_game(1, 1, seed=15), SolverConfig.from_alias(alias)
    half, quarter = np.eye(2, dtype=complex) / 2, np.eye(4, dtype=complex) / 4
    with pytest.raises(ValueError, match="^Bob state dimension 4 does not match the game$"):
        make_stepper(game, cfg, 0.3, JointState(half, quarter))
    with pytest.raises(ValueError, match="^Alice state dimension 4 does not match the game$"):
        make_stepper(game, cfg, 0.3, JointState(quarter, half))


def test_entropy_start_and_bregman_check_each_matrix_once(monkeypatch):
    # a start: the density check decomposes each matrix once, the logarithm
    # once more; bregman: one check and one decomposition per argument
    calls = {"_lapack": 0, "assert_hermitian": 0}

    def counted(name):
        inner = getattr(linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    game = random_game(1, 2, seed=15)
    psi0 = random_start(game, 16)
    for name in calls:
        monkeypatch.setattr(linalg, name, counted(name))
    make_stepper(game, SolverConfig.from_alias("ommwu"), 0.3, psi0)
    assert calls == {"_lapack": 4, "assert_hermitian": 2}
    calls.update(dict.fromkeys(calls, 0))
    geometry.VN_ENTROPY.bregman(psi0.alice, np.eye(2) / 2)
    assert calls == {"_lapack": 2, "assert_hermitian": 2}


# ---------------------------------------------------------------- pins
# sha256 prefixes of each run's trace floats, average and last states and
# gradient count.  The engine may change how it steps; these bits may not.

PINNED_TRAJECTORIES = {
    ("2+2", "mda-frobenius"): "f87e374b941776a5",
    ("2+2", "mmp-entropy"): "c1d6f034477549e5",
    ("2+2", "mmp-frobenius"): "60cbe1fc9ad97ca9",
    ("2+2", "mmwu"): "d4cbf5287bac7baa",
    ("2+2", "mmwu-sd"): "1a4780a97c01dd19",
    ("2+2", "omeg"): "cb0abbfc948a9867",
    ("2+2", "ommwu"): "1f6d0d09fc6a1ff1",
    ("1+2", "mda-frobenius"): "5b737c28e360a92e",
    ("1+2", "mmp-entropy"): "4986530f744f4d4f",
    ("1+2", "mmp-frobenius"): "6459acabd5cae29c",
    ("1+2", "mmwu"): "40aab432b98f75cd",
    ("1+2", "mmwu-sd"): "0832f035dacf7eec",
    ("1+2", "omeg"): "3a30662e19c7a014",
    ("1+2", "ommwu"): "76c5be435dbc4185",
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


@pytest.mark.parametrize("n, m", [(2, 2), (1, 2)])
@pytest.mark.parametrize("alias", sorted(ALIASES))
def test_the_loop_eigensolvers_write_into_arrays_the_run_made_once(monkeypatch, alias, n, m):
    # after make_stepper, every LAPACK call writes into the stepper's map
    # scratch or the checkpoint's spectra: one set of outputs per stack each
    game = random_game(n, m, seed=33)
    outs = []
    stepping = False

    def recording(gufunc):
        def call(a, signature, out=None):
            if stepping:
                outs.append(out)
            return gufunc(a, signature=signature, **({} if out is None else {"out": out}))
        return call

    def make(*args):
        nonlocal stepping
        stepper = make_stepper(*args)
        stepping = True
        return stepper

    monkeypatch.setattr(linalg, "_EIGH", recording(linalg._EIGH))
    monkeypatch.setattr(linalg, "_EIGVALSH", recording(linalg._EIGVALSH))
    monkeypatch.setattr(solvers, "make_stepper", make)
    run(game, SolverConfig.from_alias(alias, max_iters=30, gap_check_interval=10))
    assert len(outs) > 30
    assert all(out is not None for out in outs)
    stacks = 1 if n == m else 2
    assert len({id(out) for out in outs}) == 2 * stacks


# ---------------------------------------------------------------- failures


def test_eigensolver_failure_is_wrapped_with_iteration(monkeypatch):
    game = random_game(1, 1, seed=14)
    real_eigh = linalg._EIGH
    calls = {"n": 0}

    def flaky(a, signature, out=None):
        calls["n"] += 1
        if calls["n"] > 3:
            return failing_gufunc(a, signature, out)
        return real_eigh(a, signature=signature, out=out)

    monkeypatch.setattr(linalg, "_EIGH", flaky)
    with pytest.raises(linalg.NumericalError, match="iteration"):
        run(game, SolverConfig(algorithm="mmwu", step_size=0.5, max_iters=10))


def test_projection_eigensolver_failure_is_wrapped_with_iteration(monkeypatch):
    # omeg's steps are Frobenius projections, which look the gufunc up per call
    game = random_game(1, 1, seed=14)
    real_eigh = linalg._EIGH
    calls = {"n": 0}

    def flaky(a, signature, out=None):
        calls["n"] += 1
        if calls["n"] > 3:
            return failing_gufunc(a, signature, out)
        return real_eigh(a, signature=signature, out=out)

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

    def poisoned(state, buf):
        g = real_gradient(state, buf)
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
