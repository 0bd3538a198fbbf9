"""Acceptance gate: nine end-to-end behavioural criteria, one test each.

Every test prints a single ``criterion N (...): PASS/FAIL`` line with the
measured worst case next to its pinned tolerance, so the verbose test listing
doubles as the acceptance report.  All randomness is seeded; reruns measure
identical numbers.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import qzsg
from qzsg import game as game_mod
from qzsg import geometry, linalg, rng, solvers, suite


def _verdict(num: int, label: str, passed: bool, detail: str) -> None:
    print(f"criterion {num} ({label}): {'PASS' if passed else 'FAIL'} — {detail}")


# --------------------------------------------------------------------------
# 1. The joint gradient field is monotone with identically-zero residual.


def test_criterion_1_monotonicity_identity_vanishes():
    tol = 1e-9
    worst = 0.0
    total = 0
    for (n, m), base_seed in (((1, 1), 100), ((2, 2), 150)):
        for g_idx in range(10):
            game = game_mod.random_game(n, m, seed=base_seed + g_idx)
            gen = np.random.default_rng(base_seed + g_idx)
            for _ in range(50):
                x = game_mod.JointState(
                    game_mod.random_density(game.dim_alice, gen),
                    game_mod.random_density(game.dim_bob, gen),
                )
                y = game_mod.JointState(
                    game_mod.random_density(game.dim_alice, gen),
                    game_mod.random_density(game.dim_bob, gen),
                )
                fx = game_mod.payoff_gradient(game, x)
                fy = game_mod.payoff_gradient(game, y)
                res = linalg.trace_inner(fx.alice - fy.alice, x.alice - y.alice).real
                res += linalg.trace_inner(fx.bob - fy.bob, x.bob - y.bob).real
                worst = max(worst, abs(float(res)))
                total += 1
    ok = total == 1000 and worst < tol
    _verdict(1, "monotonicity identity", ok,
             f"max |<F(X)-F(Y), X-Y>| = {worst:.3e} over {total} triples (tol {tol:.0e})")
    assert total == 1000
    assert worst < tol


# --------------------------------------------------------------------------
# 2. Payoff gradients match central finite differences of the utility.


def test_criterion_2_gradient_matches_finite_differences():
    tol = 1e-5
    step = 1e-6
    worst = 0.0
    directions = 0
    for (n, m), seed in (((1, 1), 201), ((2, 2), 202)):
        game = game_mod.random_game(n, m, seed=seed)
        gen = np.random.default_rng(seed)
        for i in range(25):
            state = game_mod.JointState(
                game_mod.random_density(game.dim_alice, gen),
                game_mod.random_density(game.dim_bob, gen),
            )
            grad = game_mod.payoff_gradient(game, state)
            if i % 2 == 0:
                h = game_mod.random_direction(game.dim_alice, gen)
                up = game_mod.expected_utility(
                    game, game_mod.JointState(state.alice + step * h, state.bob))
                dn = game_mod.expected_utility(
                    game, game_mod.JointState(state.alice - step * h, state.bob))
                analytic = linalg.trace_inner(grad.alice, h).real
            else:
                h = game_mod.random_direction(game.dim_bob, gen)
                up = game_mod.expected_utility(
                    game, game_mod.JointState(state.alice, state.bob + step * h))
                dn = game_mod.expected_utility(
                    game, game_mod.JointState(state.alice, state.bob - step * h))
                # stored bob gradient is the descent direction -dU/dbeta
                analytic = -linalg.trace_inner(grad.bob, h).real
            fd = (up - dn) / (2.0 * step)
            worst = max(worst, abs(fd - float(analytic)) / max(abs(float(analytic)), 1e-12))
            directions += 1
    ok = directions == 50 and worst < tol
    _verdict(2, "finite-difference gradients", ok,
             f"worst relative error = {worst:.3e} over {directions} directions "
             f"at step {step:.0e} (tol {tol:.0e})")
    assert directions == 50
    assert worst < tol


# --------------------------------------------------------------------------
# 3. Sampled (inf,1) Lipschitz ratios never exceed the observable norm.


def test_criterion_3_lipschitz_ratio_bounded_by_observable_norm():
    slack = 1e-9
    dims = [(1, 1), (1, 1), (1, 1), (1, 1), (1, 2), (1, 2), (2, 1), (2, 1),
            (2, 2), (2, 2), (2, 2), (2, 2), (1, 3), (1, 3), (3, 1), (2, 3),
            (2, 3), (3, 2), (3, 2), (3, 3)]
    worst_margin = -math.inf
    for i, (n, m) in enumerate(dims):
        game = game_mod.random_game(n, m, seed=300 + i)
        est = game_mod.lipschitz_estimate(game, "inf-one", samples=1000, seed=300 + i)
        worst_margin = max(worst_margin, est - game.u_inf_norm)
    ok = worst_margin <= slack
    _verdict(3, "Lipschitz ratio bound", ok,
             f"worst (estimate - |U|_inf) = {worst_margin:.3e} over "
             f"{len(dims)} games x 1000 pairs (slack {slack:.0e})")
    assert len(dims) == 20
    assert worst_margin <= slack


# --------------------------------------------------------------------------
# 4. Closed-form mirror/proximal maps satisfy their defining identities.


def test_criterion_4_closed_form_map_identities():
    tols = {"shift": 1e-10, "idem": 1e-12, "prox_vn": 1e-10,
            "prox_frob": 1e-10, "mwu": 1e-10, "three": 1e-8}
    worst = dict.fromkeys(tols, 0.0)
    gen = np.random.default_rng(400)
    for i in range(500):
        d = 2 if i % 2 == 0 else 4
        eye = np.eye(d)

        y = linalg.hermitianize(rng.complex_normal(gen, (d, d))) * gen.uniform(0.5, 5.0)
        c = gen.uniform(-100.0, 100.0)
        worst["shift"] = max(worst["shift"], float(np.max(np.abs(
            geometry.logit_map(y + c * eye) - geometry.logit_map(y)))))

        raw = linalg.hermitianize(rng.complex_normal(gen, (d, d)))
        once = geometry.orth_project_spectraplex(raw)
        twice = geometry.orth_project_spectraplex(once)
        worst["idem"] = max(worst["idem"], float(np.max(np.abs(twice - once))))

        rho = game_mod.random_density(d, gen)
        zero = np.zeros((d, d), dtype=complex)
        eta = float(gen.uniform(0.05, 2.0))
        worst["prox_vn"] = max(worst["prox_vn"], float(np.max(np.abs(
            geometry.VN_ENTROPY.proximal_map(rho, zero, eta) - rho))))
        worst["prox_frob"] = max(worst["prox_frob"], float(np.max(np.abs(
            geometry.FROBENIUS.proximal_map(rho, zero, eta) - rho))))

        x_diag = gen.uniform(0.05, 1.0, size=d)
        x_diag /= x_diag.sum()
        g_diag = gen.uniform(-1.0, 1.0, size=d)
        weights = x_diag * np.exp(eta * g_diag)
        weights /= weights.sum()
        prox = geometry.VN_ENTROPY.proximal_map(
            np.diag(x_diag).astype(complex), np.diag(g_diag).astype(complex), eta)
        worst["mwu"] = max(worst["mwu"], float(np.max(np.abs(prox - np.diag(weights)))))

        z, x, yref = (game_mod.random_density(d, gen) for _ in range(3))
        lhs = linalg.trace_inner(z - x, linalg.herm_log(x) - linalg.herm_log(yref)).real
        rhs = (geometry.VN_ENTROPY.bregman(z, yref)
               - geometry.VN_ENTROPY.bregman(x, yref)
               - geometry.VN_ENTROPY.bregman(z, x))
        worst["three"] = max(worst["three"], abs(float(lhs) - rhs))

    failed = {k: v for k, v in worst.items() if v >= tols[k]}
    detail = ", ".join(f"{k} {worst[k]:.2e} (tol {tols[k]:.0e})" for k in tols)
    _verdict(4, "closed-form maps", not failed, f"500 instances each: {detail}")
    assert not failed, failed


# --------------------------------------------------------------------------
# 5. Average-iterate duality gap obeys the 2*(log d_A + log d_B)/(eta T) envelope.


def test_criterion_5_average_iterate_rate_envelope():
    checkpoints = [100, 500, 1000, 5000]
    worst_ratio = 0.0
    for i in range(20):
        game = game_mod.random_game(1, 1, seed=500 + i)
        eta = 1.0 / (2.0 * game.u_inf_norm)
        cfg = solvers.SolverConfig(algorithm="ommwu", step_size=eta, max_iters=5000)
        result = solvers.run(game, cfg, checkpoints=checkpoints)
        traced = {row.t for row in result.trace}
        assert traced == set(checkpoints)
        for row in result.trace:
            bound = 2.0 * (math.log(2.0) + math.log(2.0)) / (eta * row.t)
            worst_ratio = max(worst_ratio, row.gap_avg / bound)
    ok = worst_ratio <= 1.0
    _verdict(5, "rate envelope", ok,
             f"worst gap_avg / bound = {worst_ratio:.3f} over 20 games x "
             f"checkpoints {checkpoints} (must be <= 1)")
    assert worst_ratio <= 1.0


# --------------------------------------------------------------------------
# 6. Matching pennies converges to its analytic equilibrium within budget.


def test_criterion_6_matching_pennies_reaches_analytic_nash():
    game = game_mod.matching_pennies()

    cfg_o = solvers.SolverConfig(algorithm="ommwu", max_iters=5000,
                                 target_gap=1e-3, gap_check_interval=50)
    res_o = solvers.run(game, cfg_o)
    cfg_sd = solvers.SolverConfig(algorithm="mmwu-sd",
                                  max_iters=50000, target_gap=1e-2,
                                  gap_check_interval=50)
    res_sd = solvers.run(game, cfg_sd)

    # The uniform start is already the equilibrium; also drive both methods
    # from a skewed start so convergence is exercised, not just detected.
    skew = game_mod.JointState(np.diag([0.9, 0.1]).astype(complex),
                               np.diag([0.2, 0.8]).astype(complex))

    def skewed_average_gap(cfg, iters):
        eta = solvers.resolve_step_size(game, cfg)
        psi = skew
        stepper = solvers.make_stepper(game, cfg, eta, psi)
        avg_a = np.zeros_like(psi.alice)
        avg_b = np.zeros_like(psi.bob)
        for t in range(iters):
            psi, _ = stepper.step(t, psi)
            avg_a += psi.alice
            avg_b += psi.bob
        avg = game_mod.JointState(avg_a / iters, avg_b / iters)
        return game_mod.duality_gap(game, avg)

    skew_o = skewed_average_gap(cfg_o, 5000)
    skew_sd = skewed_average_gap(cfg_sd, 50000)

    ok = (res_o.trace[-1].gap_avg < 1e-3 and res_o.iterations <= 5000
          and res_sd.trace[-1].gap_avg < 1e-2 and res_sd.iterations <= 50000
          and skew_o < 1e-3 and skew_sd < 1e-2)
    _verdict(6, "analytic equilibrium", ok,
             f"uniform start: OMMWU gap {res_o.trace[-1].gap_avg:.1e} @ t={res_o.iterations} "
             f"(< 1e-3/5000), MMWU-SD gap {res_sd.trace[-1].gap_avg:.1e} @ t={res_sd.iterations} "
             f"(< 1e-2/50000); skewed start: OMMWU {skew_o:.1e}, MMWU-SD {skew_sd:.1e}")
    assert res_o.trace[-1].gap_avg < 1e-3 and res_o.iterations <= 5000
    assert res_sd.trace[-1].gap_avg < 1e-2 and res_sd.iterations <= 50000
    assert skew_o < 1e-3
    assert skew_sd < 1e-2


# --------------------------------------------------------------------------
# 7. The optimistic stepper equals a direct one-fresh-gradient transcription,
#    and dual averaging equals its logit closed form bit-for-bit.


def _reference_logit(y: np.ndarray) -> np.ndarray:
    """Independent logit map: plain eigh, max-eigenvalue shift."""
    w, v = np.linalg.eigh((y + y.conj().T) / 2.0)
    e = np.exp(w - w[-1])
    rho = (v * e) @ v.conj().T / e.sum()
    return (rho + rho.conj().T) / 2.0


def _optimistic_transcription(game, eta, iters):
    """One fresh gradient per step, replayed against the stale one, all in
    the accumulated dual domain."""
    psi = game_mod.uniform_state(game)
    dual_a = np.zeros((game.dim_alice, game.dim_alice), dtype=complex)
    dual_b = np.zeros((game.dim_bob, game.dim_bob), dtype=complex)
    stored = game_mod.payoff_gradient(game, psi)
    out = []
    for _ in range(iters):
        nxt = game_mod.JointState(
            _reference_logit(dual_a + eta * stored.alice),
            _reference_logit(dual_b + eta * stored.bob),
        )
        fresh = game_mod.payoff_gradient(game, nxt)
        dual_a = dual_a + eta * fresh.alice
        dual_b = dual_b + eta * fresh.bob
        stored = fresh
        out.append(nxt)
    return out


def test_criterion_7_hierarchy_matches_direct_transcriptions():
    tol = 1e-9
    dims = [(1, 1)] * 4 + [(1, 2)] * 3 + [(2, 2)] * 3
    worst = 0.0
    for i, (n, m) in enumerate(dims):
        game = game_mod.random_game(n, m, seed=700 + i)
        eta = 1.0 / (2.0 * game.u_inf_norm)
        cfg = solvers.SolverConfig(algorithm="ommwu", step_size=eta, max_iters=100)
        psi = game_mod.uniform_state(game)
        stepper = solvers.make_stepper(game, cfg, eta, psi)
        reference = _optimistic_transcription(game, eta, 100)
        for t in range(100):
            psi, _ = stepper.step(t, psi)
            diff = max(
                float(np.max(np.abs(psi.alice - reference[t].alice))),
                float(np.max(np.abs(psi.bob - reference[t].bob))),
            )
            worst = max(worst, diff)

    game = game_mod.random_game(1, 1, seed=710)
    eta = 0.3
    cfg = solvers.SolverConfig(algorithm="mmwu", step_size=eta, max_iters=30)
    psi = game_mod.uniform_state(game)
    stepper = solvers.make_stepper(game, cfg, eta, psi)
    w_a = np.zeros_like(psi.alice)
    w_b = np.zeros_like(psi.bob)
    mda_exact = True
    for t in range(30):
        grad = game_mod.payoff_gradient(game, psi)
        w_a = w_a + grad.alice
        w_b = w_b + grad.bob
        psi, _ = stepper.step(t, psi)
        closed = game_mod.JointState(geometry.logit_map(eta * w_a),
                                     geometry.logit_map(eta * w_b))
        if not (np.array_equal(psi.alice, closed.alice)
                and np.array_equal(psi.bob, closed.bob)):
            mda_exact = False

    ok = worst < tol and mda_exact
    _verdict(7, "hierarchy equivalence", ok,
             f"optimistic stepper vs transcription: max per-iterate diff {worst:.3e} "
             f"over 10 games x 100 iters (tol {tol:.0e}); dual-averaging closed form "
             f"bit-exact = {mda_exact}")
    assert worst < tol
    assert mda_exact


# --------------------------------------------------------------------------
# 8. The optimistic method beats decayed-step dual averaging on random
#    two-qubit-per-player games: smaller final gap and a steeper log-log slope.


def test_criterion_8_optimistic_speedup_experiment_shape():
    spec = suite.ExperimentSpec(
        n=2, m=2, games=10, master_seed=800,
        algorithms=("mmwu-sd", "ommwu"), iters=20000,
        checkpoints=suite.PAPER_EXP2_SCHEDULE,
    )
    report = suite.run_suite(spec)
    assert report["failures"] == 0

    stats = {}
    for alias in ("mmwu-sd", "ommwu"):
        rows = [a for a in report["aggregates"] if a["algorithm"] == alias]
        t_final = max(r["t"] for r in rows)
        final = next(a for a in rows if a["t"] == t_final)
        ts = np.array([a["t"] for a in rows if a["t"] >= 51], dtype=float)
        gs = np.array([a["gap_avg"]["geomean"] for a in rows if a["t"] >= 51])
        slope = float(np.polyfit(np.log(ts), np.log(gs), 1)[0])
        stats[alias] = {
            "mean": final["gap_avg"]["mean"],
            "geomean": final["gap_avg"]["geomean"],
            "slope": slope,
            "t_final": t_final,
        }

    o, sd = stats["ommwu"], stats["mmwu-sd"]
    ok = (o["mean"] < sd["mean"]
          and o["geomean"] < sd["geomean"]
          and o["mean"] * 5.0 < sd["mean"]
          and o["slope"] <= sd["slope"] - 0.2
          and o["slope"] < -0.85
          and -0.65 < sd["slope"] < -0.35)
    _verdict(8, "optimistic speedup shape", ok,
             f"final t={o['t_final']}: mean gap ommwu {o['mean']:.2e} vs mmwu-sd "
             f"{sd['mean']:.2e}; log-log slopes {o['slope']:.3f} vs {sd['slope']:.3f} "
             f"(10 games, 20000 iters)")
    assert o["mean"] < sd["mean"] and o["geomean"] < sd["geomean"]
    assert o["mean"] * 5.0 < sd["mean"]
    assert o["slope"] <= sd["slope"] - 0.2
    assert o["slope"] < -0.85
    assert -0.65 < sd["slope"] < -0.35


# --------------------------------------------------------------------------
# 9. Every command is byte-reproducible; compare also under thread variation.
#    Wall-clock nanosecond fields are the one sanctioned difference and are
#    masked before comparison.


# The child processes must import the very package under test.  A relative
# PYTHONPATH (the Tier-1 command's ``src``) would resolve against the child's
# cwd, and an installed copy could answer instead, so the absolute directory
# holding this process's ``qzsg`` goes first on the child's PYTHONPATH.
_QZSG_FILE = Path(qzsg.__file__).resolve()
_SRC_DIR = str(_QZSG_FILE.parent.parent)


def _run_python(cwd, *args, threads=None, blas_threads=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC_DIR] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    if threads is not None:
        env["QZSG_THREADS"] = str(threads)
    if blas_threads is not None:
        env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=500,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    return proc.stdout


def _cli(cwd, *args, threads=None, blas_threads=None):
    return _run_python(cwd, "-m", "qzsg", *args, threads=threads, blas_threads=blas_threads)


def _mask_csv(path) -> str:
    lines = path.read_text().splitlines()
    header, rows = lines[0], lines[1:]
    assert header.split(",")[-1] == "wall_time_ns"
    return "\n".join([header] + [",".join(r.split(",")[:-1] + ["0"]) for r in rows])


def _mask_json_tree(obj):
    if isinstance(obj, dict):
        return {k: (0 if k == "wall_time_ns" else _mask_json_tree(v))
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [_mask_json_tree(v) for v in obj]
    return obj


def _masked_report(path) -> str:
    return json.dumps(_mask_json_tree(json.loads(path.read_text())), sort_keys=True)


def test_criterion_9_byte_identical_reruns(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()

    child_file = _run_python(dirs[0], "-c", "import qzsg; print(qzsg.__file__)")
    assert Path(child_file.strip()).resolve() == _QZSG_FILE

    gen_out = [_cli(d, "generate", "-n", "1", "-m", "1", "--seed", "31",
                    "-o", "game.json") for d in dirs[:2]]
    assert gen_out[0] == gen_out[1]
    assert (dirs[0] / "game.json").read_bytes() == (dirs[1] / "game.json").read_bytes()

    solve_out = [_cli(d, "solve", "--game", "game.json", "--algorithm", "ommwu",
                      "--iters", "200", "--format", "json", "-o", "run")
                 for d in dirs[:2]]
    assert solve_out[0] == solve_out[1]
    assert (dirs[0] / "run.json").read_bytes() == (dirs[1] / "run.json").read_bytes()
    assert _mask_csv(dirs[0] / "run.csv") == _mask_csv(dirs[1] / "run.csv")

    verify_out = [_cli(d, "verify", "--dims", "1", "--seeds", "2", "--samples", "20",
                       "--format", "json") for d in dirs[:2]]
    assert verify_out[0] == verify_out[1]

    cmp_args = ("compare", "-n", "1", "-m", "1", "--games", "3",
                "--algorithms", "mmwu,ommwu", "--iters", "200",
                "--seed", "42", "-o", "cmp")
    cmp_out = [
        _cli(dirs[0], *cmp_args, threads=1),
        _cli(dirs[1], *cmp_args, threads=1),
        _cli(dirs[2], *cmp_args, threads=2),
    ]
    assert cmp_out[0] == cmp_out[1] == cmp_out[2]
    reports = [_masked_report(d / "cmp" / "report.json") for d in dirs]
    assert reports[0] == reports[1] == reports[2]
    csv_names = sorted(p.name for p in (dirs[0] / "cmp" / "runs").iterdir())
    assert csv_names == [f"game{g:04d}_{a}.csv" for g in range(3)
                         for a in ("mmwu", "ommwu")]
    for d in dirs[1:]:
        assert sorted(p.name for p in (d / "cmp" / "runs").iterdir()) == csv_names
        for name in csv_names:
            assert (_mask_csv(d / "cmp" / "runs" / name)
                    == _mask_csv(dirs[0] / "cmp" / "runs" / name))

    _verdict(9, "deterministic reruns", True,
             "generate/solve/verify byte-identical across reruns; compare "
             "byte-identical across reruns and QZSG_THREADS 1 vs 2 after "
             "masking wall_time_ns")


def test_3q_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # README's Determinism section: up to 3+3, one and two BLAS threads give
    # the same bytes; from 4+4 up LAPACK's threaded eigh of S can round apart
    traces = []
    for blas in (1, 2):
        d = tmp_path / f"blas{blas}"
        d.mkdir()
        _cli(d, "generate", "-n", "3", "-m", "3", "--seed", "31", "-o", "game.json",
             blas_threads=blas)
        out = _cli(d, "solve", "--game", "game.json", "--algorithm", "omeg",
                   "--iters", "300", "--format", "csv", blas_threads=blas)
        traces.append([line.split(",")[:3] for line in out.splitlines()])
    game_bytes = [(tmp_path / f"blas{blas}" / "game.json").read_bytes() for blas in (1, 2)]
    assert game_bytes[0] == game_bytes[1]
    assert len(traces[0]) > 1 and traces[0] == traces[1]
