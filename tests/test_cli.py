import dataclasses
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest
from reference_games import reference_outcomes

import qzsg
from qzsg import cli, linalg, properties, rng, solvers, suite
from qzsg import game as game_mod
from qzsg.cli import TRACE_HEADER, main
from qzsg.game import load_game, random_game
from qzsg.linalg import NumericalError


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == TRACE_HEADER
    return [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------- generate


def test_generate_writes_valid_game(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run_cli("generate", "-n", "1", "-m", "1", "--seed", "42", "-o", str(out)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"wrote {out}"
    assert lines[1].startswith("|U|_inf = ")
    assert "all full rank" in lines[2]
    game = load_game(out)  # checks U on load
    assert game.seed == 42 and game.n == 1 and game.m == 1


def test_generate_writes_a_small_v2_file(tmp_path, capsys):
    # a 2+3 game stores one 32 x 32 U, not its 1024 POVM elements (52 MB in v1)
    out = tmp_path / "g.json"
    assert run_cli("generate", "-n", "2", "-m", "3", "--seed", "5",
                   "--format", "json", "-o", str(out)) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["outcomes"] == 1024 and summary["povm_full_rank"] is True
    assert out.stat().st_size < 1_000_000
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["format_version"] == 2 and "povm" not in doc
    assert load_game(out).u_inf_norm == summary["u_inf_norm"]


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("generate", "-n", "1", "-m", "1", "--seed", "7", "-o", str(a))
    run_cli("generate", "-n", "1", "-m", "1", "--seed", "7", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_generate_json_format(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run_cli("generate", "-n", "1", "-m", "2", "--outcomes", "5",
                   "--format", "json", "-o", str(out)) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["outcomes"] == 5
    assert summary["povm_full_rank"] is True
    assert summary["u_inf_norm"] > 0.0


@pytest.mark.parametrize(
    "n, m, outcomes", [(1, 2, 5), (2, 1, None)], ids=["1+2-outcomes-5", "2+1"]
)
def test_generate_matches_the_library(tmp_path, capsys, n, m, outcomes):
    # generate writes random_game's U and reports a certified lower bound on
    # the eigenvalues of the elements it never makes
    out = tmp_path / "g.json"
    extra = [] if outcomes is None else ["--outcomes", str(outcomes)]
    assert run_cli("generate", "-n", str(n), "-m", str(m), "--seed", "6", *extra,
                   "--format", "json", "-o", str(out)) == 0
    summary = json.loads(capsys.readouterr().out)
    ref = random_game(n, m, outcomes, seed=6)
    assert np.array_equal(load_game(out).payoff_observable, ref.payoff_observable)
    assert summary["outcomes"] == ref.outcomes
    assert 0.0 < summary["povm_min_eigenvalue"] <= min(
        float(np.linalg.eigvalsh(p)[0]) for _, p in reference_outcomes(n, m, outcomes, 6)[1]
    )


def test_generate_rejects_bad_outcomes(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run_cli("generate", "-n", "1", "-m", "1", "--outcomes", "1", "-o", str(out)) == 2
    assert "outcomes must be ≥ 2" in capsys.readouterr().err
    assert not out.exists()


def test_generate_argparse_failures(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "-n", "0", "-m", "1", "-o", str(tmp_path / "g.json"))
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "-n", "1", "-m", "1", "--seed", "-4",
                "-o", str(tmp_path / "g.json"))
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "-n", "1.5", "-m", "1", "-o", str(tmp_path / "g.json"))
    assert exc.value.code == 2
    assert "expected an integer, got '1.5'" in capsys.readouterr().err


def test_generate_unwritable_path_is_usage_error(capsys):
    assert run_cli("generate", "-n", "1", "-m", "1",
                   "-o", "/nonexistent-dir/g.json") == 2
    assert "error:" in capsys.readouterr().err


def _unexpected(*args, **kwargs):
    raise AssertionError("work started before the output path was checked")


def test_generate_rejects_a_missing_output_dir_before_any_game(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(game_mod, "random_game_with_bound", _unexpected)
    missing = tmp_path / "missing"
    assert run_cli("generate", "-n", "1", "-m", "1", "-o", str(missing / "g.json")) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write output: no directory {str(missing)!r}\n")


def test_generate_rejects_an_existing_dir_before_any_game(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(game_mod, "random_game_with_bound", _unexpected)
    assert run_cli("generate", "-n", "1", "-m", "1", "-o", str(tmp_path)) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write output: {str(tmp_path)!r} is not a file name\n")


# ---------------------------------------------------------------- solve


def test_solve_builtin_text_and_files(tmp_path, capsys):
    prefix = tmp_path / "run"
    code = run_cli("solve", "--game", "builtin:matching-pennies",
                   "--algorithm", "ommwu", "--iters", "200", "-o", str(prefix))
    assert code == 0
    out = capsys.readouterr().out
    assert "ommwu: 200 iterations" in out
    assert f"wrote {prefix}.csv and {prefix}.json" in out
    rows = read_csv(tmp_path / "run.csv")
    assert [int(r[0]) for r in rows] == [50, 100, 150, 200]
    summary = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
    assert summary["algorithm"] == "ommwu"
    assert summary["gradient_calls"] == 201
    assert summary["final_gap_avg"] == 0.0  # uniform start is the pennies Nash


def test_solve_rejects_a_missing_output_dir_before_solving(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(game_mod, "builtin_game", _unexpected)
    monkeypatch.setattr(solvers, "run", _unexpected)
    missing = tmp_path / "missing"
    code = run_cli("solve", "--game", "builtin:matching-pennies", "--iters", "20000",
                   "-o", str(missing / "run"))
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: cannot write output: no directory {str(missing)!r}\n")
    assert not missing.exists()


def test_solve_rejects_a_prefix_without_a_file_name_before_solving(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(game_mod, "builtin_game", _unexpected)
    monkeypatch.setattr(solvers, "run", _unexpected)
    prefix = str(tmp_path) + "/"
    code = run_cli("solve", "--game", "builtin:matching-pennies", "--iters", "20",
                   "-o", prefix)
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: cannot write output: {prefix!r} is not a file name\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_solve_rejects_a_prefix_naming_a_directory_before_solving(
        tmp_path, monkeypatch, capsys, suffix):
    monkeypatch.setattr(solvers, "run", _unexpected)
    (tmp_path / ("run" + suffix)).mkdir()
    prefix = str(tmp_path / "run")
    code = run_cli("solve", "--game", "builtin:matching-pennies", "--iters", "20",
                   "-o", prefix)
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: cannot write output: {prefix + suffix!r} is not a file name\n")
    assert [p.name for p in tmp_path.iterdir()] == ["run" + suffix]


def test_solve_zero_game_gap_is_zero_everywhere(tmp_path):
    prefix = tmp_path / "zero"
    assert run_cli("solve", "--game", "builtin:zero", "--algorithm", "mmwu",
                   "--iters", "120", "-o", str(prefix)) == 0
    for row in read_csv(tmp_path / "zero.csv"):
        assert float(row[1]) == 0.0 and float(row[2]) == 0.0


def test_solve_pennies_rate_example(capsys):
    assert run_cli("solve", "--game", "builtin:matching-pennies",
                   "--algorithm", "ommwu", "--iters", "5000",
                   "--format", "json") == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["final_gap_avg"] < 0.003
    assert summary["iterations"] == 5000


def test_solve_generated_game_csv_format(tmp_path, capsys):
    game_path = tmp_path / "g.json"
    run_cli("generate", "-n", "1", "-m", "1", "--seed", "3", "-o", str(game_path))
    capsys.readouterr()
    assert run_cli("solve", "--game", str(game_path), "--algorithm", "omeg",
                   "--iters", "80", "--check-interval", "40",
                   "--format", "csv") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == TRACE_HEADER
    assert [int(line.split(",")[0]) for line in lines[1:]] == [40, 80]


def test_solve_config_file_with_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algorithm": "mmwu", "max_iters": 30,
                               "step_size": 0.125}), encoding="utf-8")
    assert run_cli("solve", "--game", "builtin:matching-pennies",
                   "--config", str(cfg), "--iters", "60",
                   "--format", "json") == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["algorithm"] == "mmwu"
    assert summary["iterations"] == 60  # flag wins over the file
    assert summary["step_size"] == 0.125


def test_every_solver_setting_is_the_dest_of_one_solve_flag():
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
    dests = [a.dest for a in commands.choices["solve"]._actions if a.option_strings]
    for field in dataclasses.fields(solvers.SolverConfig):
        assert dests.count(field.name) == 1, field.name


def test_solve_shows_each_flag_in_its_summary(capsys):
    # the uniform start is the pennies Nash, so the target gap stops the run
    # at its first check, after --check-interval iterations
    assert run_cli("solve", "--game", "builtin:matching-pennies", "--algorithm", "mmwu",
                   "--iters", "30", "--target-gap", "0.5", "--seed", "9",
                   "--step-size", "0.25", "--check-interval", "7",
                   "--format", "json") == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["target_gap"] == 0.5
    assert summary["seed"] == 9
    assert summary["step_size"] == 0.25
    assert summary["max_iters"] == 30
    assert summary["iterations"] == 7
    assert list(summary) == [
        "game", "algorithm", "regularizer", "step_decay", "step_size", "max_iters",
        "target_gap", "seed", "iterations", "gradient_calls", "final_gap_avg",
        "final_gap_last",
    ]


@pytest.mark.parametrize(
    "content, message",
    [(None, "invalid solver config"), ("{", "invalid solver config"),
     ("[]", "must be a JSON object")],
    ids=["missing", "not-json", "list"],
)
def test_solve_rejects_an_unreadable_config(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content, encoding="utf-8")
    assert run_cli("solve", "--game", "builtin:zero", "--config", str(cfg)) == 2
    assert message in capsys.readouterr().err


def test_solve_rejects_bad_inputs(tmp_path, capsys):
    assert run_cli("solve", "--game", str(tmp_path / "missing.json")) == 2
    assert "does not exist" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert run_cli("solve", "--game", str(bad)) == 2
    # a non-list povm or utilities, or elements too small for the declared
    # qubits, fail validation, not with a TypeError or a 16 TiB allocation
    eye4 = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
    for n, utilities, povm in ((1, 5, []), (1, [], 7), (10, [1.0], [eye4])):
        doc = {"format_version": 1, "n": n, "m": n, "seed": None,
               "utilities": utilities, "povm": povm}
        bad.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("solve", "--game", str(bad), "--iters", "5") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algorithm": "newton"}), encoding="utf-8")
    assert run_cli("solve", "--game", "builtin:zero", "--config", str(cfg)) == 2
    cfg.write_text(json.dumps({"algorithm": "ommwu", "iters": 5}), encoding="utf-8")
    assert run_cli("solve", "--game", "builtin:zero", "--config", str(cfg)) == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--game", "builtin:zero", "--algorithm", "newton")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--game", "builtin:zero", "--step-size", "fast")
    assert exc.value.code == 2


def test_generate_bounds_a_defaulted_outcome_count_before_any_draw(
        tmp_path, monkeypatch, capsys):
    def drawn(*args):
        raise AssertionError("a draw started")

    monkeypatch.setattr(rng, "stream", drawn)
    out = tmp_path / "g.json"
    assert run_cli("generate", "-n", "4", "-m", "4", "-o", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: the default 4^(n+m) outcomes take too long to build at 4+4 qubits: "
        "without --outcomes, n + m must be at most 7\n")
    assert not out.exists()


def test_out_of_memory_is_exit_3(tmp_path, monkeypatch, capsys):
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.00 PiB for an array")

    monkeypatch.setattr(game_mod, "random_game_with_bound", too_large)
    assert run_cli("generate", "-n", "12", "-m", "12", "-o", str(tmp_path / "g.json")) == 3
    err = capsys.readouterr().err
    assert err == "out of memory: Unable to allocate 2.00 PiB for an array\n"


@pytest.mark.parametrize(
    "key, value",
    [("step_size", True), ("target_gap", True), ("target_gap", "1e-3")],
    ids=["step-size-true", "target-gap-true", "target-gap-string"],
)
def test_solve_rejects_mistyped_config_values(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algorithm": "ommwu", key: value}), encoding="utf-8")
    assert run_cli("solve", "--game", "builtin:matching-pennies", "--config", str(cfg),
                   "--iters", "10", "--format", "json") == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_solve_rejects_a_non_finite_target_gap(tmp_path, capsys, source):
    # the summary would hold "target_gap": Infinity, which is not JSON
    if source == "flag":
        extra = ["--target-gap", "inf"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"algorithm": "ommwu", "target_gap": Infinity}', encoding="utf-8")
        extra = ["--config", str(cfg), "-o", str(tmp_path / "run")]
    assert run_cli("solve", "--game", "builtin:matching-pennies", "--iters", "5",
                   *extra, "--format", "json") == 2
    out = capsys.readouterr()
    assert out.out == "" and "target_gap must be finite" in out.err
    assert not (tmp_path / "run.json").exists()


# an integer JSON reads exactly but no float holds: float() raises OverflowError
_HUGE = 10**400


def _v1_document(n, utilities):
    """A v1 game file of n+1 qubits around matching pennies' four 4x4 elements."""
    povm = [[[[float(i == j == k), 0.0] for j in range(4)] for i in range(4)]
            for k in range(4)]
    return {"format_version": 1, "n": n, "m": 1, "seed": None,
            "utilities": utilities, "povm": povm}


def _v2_document(n, entry):
    """A v2 game file of n+1 qubits whose U is I with U[0, 0] = entry."""
    u_obs = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
    u_obs[0][0][0] = entry
    return {"format_version": 2, "n": n, "m": 1, "outcomes": 2, "seed": None,
            "payoff_observable": u_obs}


@pytest.mark.parametrize(
    "kind, field",
    [("config", "step_size"), ("config", "target_gap"), ("v1", "utility"),
     ("v2", "matrix entry")],
    ids=["step-size", "target-gap", "v1-utility", "v2-entry"],
)
def test_solve_rejects_an_integer_too_large_for_a_float(tmp_path, capsys, kind, field):
    path = tmp_path / "in.json"
    if kind == "config":
        doc = {"algorithm": "ommwu", field: _HUGE}
        argv = ["--game", "builtin:matching-pennies", "--config", str(path)]
    else:
        doc = _v1_document(1, [_HUGE, -1.0, -1.0, 1.0]) if kind == "v1" else _v2_document(1, _HUGE)
        argv = ["--game", str(path)]
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("solve", *argv, "--iters", "5", "--format", "json") == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {field} is an integer too large for a float\n"


def _run_child_with_two_gib(cwd, *argv):
    """`python -m qzsg *argv` with its address space capped at 2 GiB, so a
    command that asks for far more memory fails fast instead of swapping."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = os.path.dirname(os.path.dirname(os.path.abspath(qzsg.__file__)))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-m", "qzsg", *argv], cwd=cwd, env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("kind", ["v1", "v2", "generate"])
def test_a_qubit_count_no_array_can_hold_is_usage_error(tmp_path, kind):
    n = 10**11
    if kind == "generate":
        argv = ["generate", "-n", str(n), "-m", "1", "--outcomes", "2", "-o", "g.json"]
    else:
        doc = _v1_document(n, [1.0, -1.0, -1.0, 1.0]) if kind == "v1" else _v2_document(n, 1.0)
        (tmp_path / "g.json").write_text(json.dumps(doc), encoding="utf-8")
        argv = ["solve", "--game", "g.json", "--iters", "5"]
    proc = _run_child_with_two_gib(tmp_path, *argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (f"error: {n}+1 qubits need matrices of side 2^{n + 1}, "
                           "which no array has\n")


def test_solve_numerical_failure_exit_code(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise NumericalError("eigensolver failed to converge at iteration 3")

    monkeypatch.setattr(solvers, "run", explode)
    assert run_cli("solve", "--game", "builtin:matching-pennies") == 3
    assert "iteration 3" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm,step", [
    ("ommwu", "1e308"), ("mmwu", "1e308"), ("mmp-entropy", "1e308"), ("omeg", "1e300"),
])
def test_solve_overflowing_step_is_numerical_failure(tmp_path, capsys, algorithm, step):
    # the entropy duals overflow, which raises at once instead of warning and
    # carrying NaN on; omeg's projection loses its simplex support
    game = tmp_path / "g.json"
    assert run_cli("generate", "-n", "1", "-m", "1", "--seed", "3", "-o", str(game)) == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("solve", "--game", str(game), "--algorithm", algorithm,
                       "--step-size", step, "--iters", "20")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure: step failed at iteration" in err
    assert "eigensolver" not in err


@pytest.mark.parametrize("algorithm", sorted(solvers.ALIASES))
def test_solve_tiny_game_takes_step_one(tmp_path, capsys, algorithm):
    # a valid file whose U is so small that mu / (2 gamma) overflows to inf
    # (entropy) or whose sigma_1^2 underflows to 0 (Frobenius): auto takes 1
    game = random_game(1, 1, seed=0)
    doc = game_mod.game_to_json_dict(game)
    doc["payoff_observable"] = linalg.matrix_to_jsonable(game.payoff_observable * 1e-320)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("solve", "--game", str(path), "--algorithm", algorithm,
                   "--iters", "20", "--format", "json") == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["step_size"] == 1.0 and summary["iterations"] == 20


def test_solve_config_with_a_non_string_alias_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algorithm": ["omeg"]}), encoding="utf-8")
    assert run_cli("solve", "--game", "builtin:zero", "--config", str(cfg)) == 2
    assert capsys.readouterr().err.startswith("error: unknown solver alias ['omeg']")


# ---------------------------------------------------------------- compare


def test_compare_writes_report_and_traces(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = run_cli("compare", "-n", "1", "-m", "1", "--games", "2",
                   "--algorithms", "ommwu,mmwu", "--iters", "40",
                   "--schedule", "every-20", "--seed", "5", "-o", str(out))
    assert code == 0
    assert "0 failures" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["failures"] == 0
    assert len(report["runs"]) == 4
    names = sorted(p.name for p in (out / "runs").iterdir())
    assert names == ["game0000_mmwu.csv", "game0000_ommwu.csv",
                     "game0001_mmwu.csv", "game0001_ommwu.csv"]
    rows = read_csv(out / "runs" / "game0000_ommwu.csv")
    assert [int(r[0]) for r in rows] == [20, 40]
    # gradient-call accounting surfaces per run
    by_algo = {(r["game_index"], r["algorithm"]): r for r in report["runs"]}
    assert by_algo[(0, "mmwu")]["gradient_calls"] == 40
    assert by_algo[(0, "ommwu")]["gradient_calls"] == 41
    assert list(report["runs"][0]) == [
        "game_index", "algorithm", "seed", "status", "error", "step_size",
        "iterations", "gradient_calls", "final_gap_avg", "final_gap_last",
        "checkpoints",
    ]


def test_compare_paper_schedule_filters_to_iters(tmp_path):
    out = tmp_path / "cmp"
    assert run_cli("compare", "-n", "1", "-m", "1", "--games", "1",
                   "--algorithms", "ommwu", "--iters", "100",
                   "--schedule", "paper-exp2", "-o", str(out)) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    ts = [cp["t"] for cp in report["runs"][0]["checkpoints"]]
    assert ts == [1, 3, 13, 51, 100]


def test_compare_explicit_schedule(tmp_path):
    # points past --iters are dropped, from the record as from the runs
    for iters, schedule, kept, traced in (("30", "10,20", [10, 20], [10, 20, 30]),
                                          ("20", "5,500", [5], [5, 20])):
        out = tmp_path / schedule
        assert run_cli("compare", "-n", "1", "-m", "1", "--games", "1",
                       "--algorithms", "ommwu", "--iters", iters,
                       "--schedule", schedule, "-o", str(out)) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["experiment"]["checkpoints"] == kept
        assert [cp["t"] for cp in report["runs"][0]["checkpoints"]] == traced


def test_compare_schedule_validation(tmp_path, capsys):
    out = tmp_path / "cmp"
    base = ("compare", "-n", "1", "-m", "1", "--games", "1",
            "--algorithms", "ommwu", "-o", str(out))
    assert run_cli(*base, "--iters", "30", "--schedule", "every-zero") == 2
    assert run_cli(*base, "--iters", "30", "--schedule", "every-0") == 2
    assert run_cli(*base, "--iters", "30", "--schedule", "0,5") == 2
    assert run_cli(*base, "--iters", "30", "--schedule", "ten") == 2
    capsys.readouterr()
    for schedule in ("500", "100,500"):
        assert run_cli(*base, "--iters", "30", "--schedule", schedule) == 2
        assert "schedule has no checkpoints within --iters" in capsys.readouterr().err


def test_compare_unknown_alias_is_usage_error(tmp_path, capsys):
    assert run_cli("compare", "-n", "1", "-m", "1", "--games", "1",
                   "--algorithms", "sgd", "--iters", "10",
                   "-o", str(tmp_path / "cmp")) == 2
    assert "unknown solver alias" in capsys.readouterr().err


@pytest.mark.parametrize(
    "algorithms, step, message",
    [
        ("ommwu,mmp-frobenius,ommwu", "auto", "repeated solver aliases ['ommwu']"),
        ("ommwu,mmwu", "-1", "step_size must be positive and finite"),
        ("ommwu,mmwu", "0", "step_size must be positive and finite"),
        ("ommwu,mmwu", "nan", "step_size must be positive and finite"),
    ],
    ids=["repeated-alias", "step-minus-one", "step-zero", "step-nan"],
)
def test_compare_rejects_bad_solver_settings_before_any_game(
    tmp_path, monkeypatch, capsys, algorithms, step, message
):
    def unexpected(*args, **kwargs):
        raise AssertionError("a game was built")

    monkeypatch.setattr(suite, "random_game", unexpected)
    out = tmp_path / "cmp"
    code = run_cli("compare", "-n", "1", "-m", "1", "--games", "2", "--iters", "20",
                   "--algorithms", algorithms, "--step-size", step, "-o", str(out))
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_compare_bounds_a_defaulted_outcome_count_before_any_game(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(suite, "random_game", _unexpected)
    out = tmp_path / "cmp"
    code = run_cli("compare", "-n", "4", "-m", "4", "--games", "1", "--iters", "2",
                   "--algorithms", "ommwu", "-o", str(out))
    assert code == 2
    assert "--outcomes" in capsys.readouterr().err
    assert not out.exists()


TOO_MANY_OUTCOMES = "10000000000000000000000"


@pytest.mark.parametrize("command", ["generate", "compare"])
def test_an_outcome_count_no_array_can_hold_is_usage_error(
        tmp_path, monkeypatch, capsys, command):
    monkeypatch.setattr(rng, "stream", _unexpected)
    monkeypatch.setattr(suite, "random_game", _unexpected)
    out = tmp_path / "out"
    argv = ["-n", "1", "-m", "1", "--outcomes", TOO_MANY_OUTCOMES, "-o", str(out)]
    if command == "compare":
        argv += ["--games", "1", "--iters", "5", "--algorithms", "ommwu"]
    assert run_cli(command, *argv) == 2
    assert capsys.readouterr().err == (
        f"error: outcomes must be at most {game_mod.MAX_OUTCOMES}, the largest utility "
        f"vector an array can hold, got {TOO_MANY_OUTCOMES}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "compare"])
def test_an_outcome_count_too_large_to_allocate_is_out_of_memory(tmp_path, command):
    # 10^9 utilities take 7.45 GiB, far above the child's 2 GiB address space
    argv = [command, "-n", "1", "-m", "1", "--outcomes", "1000000000", "-o", "out"]
    if command == "compare":
        argv += ["--games", "2", "--iters", "5", "--algorithms", "ommwu"]
    proc = _run_child_with_two_gib(tmp_path, *argv)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("out of memory: Unable to allocate 7.45 GiB"), proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("below", [(), ("sub",)])
def test_compare_rejects_an_output_file_before_any_game(
        tmp_path, monkeypatch, capsys, below):
    monkeypatch.setattr(suite, "random_game", _unexpected)
    blocker = tmp_path / "cmp"
    blocker.write_text("not a directory", encoding="utf-8")
    code = run_cli("compare", "-n", "1", "-m", "1", "--games", "4", "--iters", "3000",
                   "--algorithms", "mmwu,ommwu", "-o", str(blocker.joinpath(*below)))
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: cannot write output: no directory {str(blocker)!r}\n")
    assert blocker.read_text(encoding="utf-8") == "not a directory"


def test_compare_partial_failure_exit_code(tmp_path, monkeypatch, capsys):
    poisoned = suite.suite_game_seed(0, 1)
    real = suite.random_game

    def flaky(n, m, outcomes=None, seed=0):
        if seed == poisoned:
            raise RuntimeError("synthetic failure")
        return real(n, m, outcomes, seed)

    monkeypatch.setattr(suite, "random_game", flaky)
    out = tmp_path / "cmp"
    code = run_cli("compare", "-n", "1", "-m", "1", "--games", "2",
                   "--algorithms", "ommwu", "--iters", "20",
                   "--format", "json", "-o", str(out))
    assert code == 4
    assert json.loads(capsys.readouterr().out)["failures"] == 1
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["runs"][1]["status"] == "error"
    # failed cells get no trace file
    assert sorted(p.name for p in (out / "runs").iterdir()) == ["game0000_ommwu.csv"]


# ---------------------------------------------------------------- verify


def test_verify_passes_at_small_dims(tmp_path, capsys):
    out = tmp_path / "props.json"
    code = run_cli("verify", "--dims", "1", "--seeds", "2", "--samples", "5",
                   "-o", str(out))
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(properties.PROPERTY_NAMES)
    assert all(line.startswith("PASS ") for line in lines)
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["all_passed"] is True


def test_verify_rejects_a_missing_output_dir_before_any_game(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(properties, "random_game", _unexpected)
    missing = tmp_path / "missing"
    assert run_cli("verify", "--dims", "1", "-o", str(missing / "props.json")) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write output: no directory {str(missing)!r}\n")


def test_verify_rejects_an_existing_dir_before_any_game(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(properties, "random_game", _unexpected)
    assert run_cli("verify", "--dims", "1", "-o", str(tmp_path)) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write output: {str(tmp_path)!r} is not a file name\n")


def test_verify_bounds_a_defaulted_outcome_count_before_any_game(monkeypatch, capsys):
    monkeypatch.setattr(properties, "random_game", _unexpected)
    assert run_cli("verify", "--dims", "4", "--seeds", "1", "--samples", "1") == 2
    err = capsys.readouterr().err
    assert "--outcomes" in err
    # verify has no --outcomes: the message names the flag that bounds it
    assert "--dims" in err


def test_verify_single_property_json(capsys):
    code = run_cli("verify", "--property", "linearity", "--dims", "1",
                   "--seeds", "1", "--samples", "3", "--format", "json")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [r["property"] for r in report["properties"]] == ["linearity"]


def test_verify_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setitem(properties._CHECKS, "linearity", (properties.check_linearity, -1.0))
    code = run_cli("verify", "--property", "linearity", "--dims", "1",
                   "--seeds", "1", "--samples", "3")
    assert code == 1
    assert capsys.readouterr().out.startswith("FAIL linearity")


def test_verify_rejects_dims_zero():
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--dims", "0")
    assert exc.value.code == 2


# ---------------------------------------------------------------- output pins


def _cut_timing(csv_text):
    """A trace CSV without its last column, wall_time_ns."""
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in csv_text.splitlines())


def _cli_outputs(tmp_path, monkeypatch, capsys):
    """name -> text of every output of a fixed set of commands, timing cut."""
    monkeypatch.chdir(tmp_path)  # relative paths, so no output names tmp_path
    outputs = {}

    def record(name, *argv):
        assert run_cli(*argv) == 0, name
        outputs[name] = capsys.readouterr().out

    for n, m in ((1, 1), (1, 2), (2, 2)):
        for fmt in ("text", "json"):
            record(f"generate {n}+{m} {fmt}", "generate", "-n", str(n), "-m", str(m),
                   "--seed", "7", "--format", fmt, "-o", f"g{n}{m}.json")
        outputs[f"g{n}{m}.json"] = (tmp_path / f"g{n}{m}.json").read_text(encoding="utf-8")
    for game in ("g12.json", "g22.json", "builtin:matching-pennies"):
        for alias in sorted(solvers.ALIASES):
            for fmt in ("json", "csv"):
                record(f"solve {game} {alias} {fmt}", "solve", "--game", game,
                       "--algorithm", alias, "--iters", "300", "--check-interval", "10",
                       "--format", fmt)
            csv = f"solve {game} {alias} csv"
            outputs[csv] = _cut_timing(outputs[csv])
    record("compare", "compare", "-n", "1", "-m", "2", "--games", "3",
           "--algorithms", "mmwu-sd,ommwu,omeg", "--iters", "200",
           "--schedule", "paper-exp2", "-o", "cmp")
    report = (tmp_path / "cmp" / "report.json").read_text(encoding="utf-8")
    outputs["cmp/report.json"] = re.sub(
        r'("wall_time_ns": (\{\s*"mean": )?)[-+.0-9eE]+', r"\g<1>0", report)
    for path in sorted((tmp_path / "cmp" / "runs").iterdir()):
        outputs[f"cmp/runs/{path.name}"] = _cut_timing(path.read_text(encoding="utf-8"))
    record("verify", "verify", "--dims", "2", "--seeds", "2", "--samples", "10",
           "--format", "json")
    return outputs


# one sha256 per output; any change to a CLI output for fixed seeds, bar its
# timing fields, shows here
_CLI_OUTPUT_SHA256 = {
    "generate 1+1 text":
        "6772a909db9bb6154d906ad42817a58c4c4e2862164ae3371f741da24a91ecb4",
    "generate 1+1 json":
        "6e8104bcb26b5699ff515f102fba7400d7011a557e3059f181455b94edda1397",
    "g11.json":
        "a2ec6afa5232a1c9d7191d1a672350c013956c61a365c7d49136c00290683a86",
    "generate 1+2 text":
        "c76765087a25757d0766598b7456ba26fd25bd319b83843c961e8be08dc4e60b",
    "generate 1+2 json":
        "b9a1aeac60e059d2670a8685074c2285b9c5f2482b5791dded96f27742556c6f",
    "g12.json":
        "1ba5ed945e1dde1af60825eebf038ef27c283969fc3148db4b01de6ca9f3a016",
    "generate 2+2 text":
        "6c976135b22c38e2bcf8cc1989cbbb4d8f26ee72a21e87eb56aea3a43c19720c",
    "generate 2+2 json":
        "468f96523ab8de1f9362840b21406ffa07e0ce53f1de161ae4f2da6d988d2e57",
    "g22.json":
        "6112e3882d1db8389884a2c6ef7413d7dd0a3e55af1aa822a43db37edf347b47",
    "solve g12.json mda-frobenius json":
        "642dc1b85c014b5add3944ba9d6105f9528f0f7864bde52309781a47a8cb8dc4",
    "solve g12.json mda-frobenius csv":
        "b3ff525bb17fbc612d851c04663aa464efc63e3b7cae687d845906f1e4aa0fe3",
    "solve g12.json mmp-entropy json":
        "58b7db14178759dfefcd76867443a62cf3c205dd08ba30ad600d5bc499e74695",
    "solve g12.json mmp-entropy csv":
        "c8853576f9775ac2d5249e94c7e7a686857bd94a768b088a85c34a0e2cdde773",
    "solve g12.json mmp-frobenius json":
        "c89199c2fd568e3de7e75cf49ef329e67c5c23f12c106b6db0826deb32abe8fb",
    "solve g12.json mmp-frobenius csv":
        "b264009ac28fecf4e9e498f5ed0f2b5af9782620f1503b41887f2db570ecbbfd",
    "solve g12.json mmwu json":
        "74d58365fee8665e51704ce68b08456f421f6b053c67062fe2df52394a6727f2",
    "solve g12.json mmwu csv":
        "66d68f3c2a2a795660999cff9fedd9d1b136ed333f88b78be83648d314648212",
    "solve g12.json mmwu-sd json":
        "843a6660e28ccd21b80433cf587cb05cbfa3fd69a7d8b6f2da1e91a8c931af1b",
    "solve g12.json mmwu-sd csv":
        "0a3a0ee14068b1b276efecef6e73885db1685f543660dde885d9e7821a8d46e4",
    "solve g12.json omeg json":
        "541d5ae33bc1ae03e8bf96c0519f5344de7ffa66f959a0fabcddcdf901afc7b8",
    "solve g12.json omeg csv":
        "6ec33a4935bbdb9bd34a9eff23e3fba12b06ed2b0eccf851757805f47c6c8fbd",
    "solve g12.json ommwu json":
        "60f87bc5c4d953ac31bc7767f9a97e45b8fb9b2dcec35a3edc769f7209868aaf",
    "solve g12.json ommwu csv":
        "9676bb93b29566efb7cd79360e684600d094811ea89b88ae495dcee0c96f77ab",
    "solve g22.json mda-frobenius json":
        "143e70186bd41ea1efc470333853547902b9b84c31a621b800657677c234c4dc",
    "solve g22.json mda-frobenius csv":
        "848ff04cbefc9a83045a214aebbcb48906623b2964350bd226746b3cb7dce0c8",
    "solve g22.json mmp-entropy json":
        "e982934f6f4aa7af78cb6d8b217b5ff4aef086f86ad4ef5e53a83f69be3b888e",
    "solve g22.json mmp-entropy csv":
        "04a9fc8f7803e6916349b76de0b107e5b73e97dc8b677f1f3737b534c9a42520",
    "solve g22.json mmp-frobenius json":
        "78b7e82eb969257d8ab7170aeb0b73a9297896de6fcd58f35b50bf1ab61c3ec4",
    "solve g22.json mmp-frobenius csv":
        "d0364a1dae82ccf0bd26289dd7d340950107e22da640610430c3deaa89c0ea6d",
    "solve g22.json mmwu json":
        "8bc2fc88fbc35a827d92b32b2ddd42bdd703ad91e8b8bac6e7af933fec7de9fb",
    "solve g22.json mmwu csv":
        "365298e210ffb4e182c97baa432dafa5ec7ca07bc8c1552343bbc64e75d5a6f6",
    "solve g22.json mmwu-sd json":
        "3b853eb7639a121474673887f2cf9adf37e49f264e1a7e2d9ac6deefc0e6b72e",
    "solve g22.json mmwu-sd csv":
        "8d73ec49df0c3bf6f687137bd7e4fb8d34006d6b5a31c66b839f068b0a84d5a6",
    "solve g22.json omeg json":
        "a65e1ed572a526fdcb9a3ce76036a81327095349d4860f547881547572da2a40",
    "solve g22.json omeg csv":
        "ebfd08c9ba9cc229dc7ff099a89aa2d0f11ec54a8a8a1d34e8cbcf9aceadd4ac",
    "solve g22.json ommwu json":
        "fd4d112df02e2e86caabcc9fe8e473b37155c087d04652a299798608000d6b60",
    "solve g22.json ommwu csv":
        "3673adf5f3727595a47c813b976e15041fd5f4ab9de08b940ffbb441c7407896",
    "solve builtin:matching-pennies mda-frobenius json":
        "877607becd2491c8ef434532fde9e14e5f4dfee2e82262f8f2d41492471fc127",
    "solve builtin:matching-pennies mda-frobenius csv":
        "b61b0912e2aedf1a0e21bdb9a300aa1a5042dd6e828fbaa1066ea947f2ae0b96",
    "solve builtin:matching-pennies mmp-entropy json":
        "773db276250c0621a31f0f2700b0bb0842831d3a69b2d98ab9cab6e6f973229c",
    "solve builtin:matching-pennies mmp-entropy csv":
        "b61b0912e2aedf1a0e21bdb9a300aa1a5042dd6e828fbaa1066ea947f2ae0b96",
    "solve builtin:matching-pennies mmp-frobenius json":
        "9bbede0770a1a966effd7d44ec242906c5e09de12c1187c1c8a1343ddeb460ad",
    "solve builtin:matching-pennies mmp-frobenius csv":
        "b61b0912e2aedf1a0e21bdb9a300aa1a5042dd6e828fbaa1066ea947f2ae0b96",
    "solve builtin:matching-pennies mmwu json":
        "7af99ddd69bad3eb41f6c997128590f0e23c94f9b5baf6a8e24001ac8eb41aaa",
    "solve builtin:matching-pennies mmwu csv":
        "b61b0912e2aedf1a0e21bdb9a300aa1a5042dd6e828fbaa1066ea947f2ae0b96",
    "solve builtin:matching-pennies mmwu-sd json":
        "25bf96a0db6c86d1a27783009b54767483e9233d8fb2e343fc7dd14ca6c8f5df",
    "solve builtin:matching-pennies mmwu-sd csv":
        "b61b0912e2aedf1a0e21bdb9a300aa1a5042dd6e828fbaa1066ea947f2ae0b96",
    "solve builtin:matching-pennies omeg json":
        "7e571567628d2dbe53d69cddf895989e4fbd99bd92d5312d626012f4a0be0569",
    "solve builtin:matching-pennies omeg csv":
        "b61b0912e2aedf1a0e21bdb9a300aa1a5042dd6e828fbaa1066ea947f2ae0b96",
    "solve builtin:matching-pennies ommwu json":
        "d766e2b3131bb507da9f0e129c64da3fe8278afc028ddf271bedf14c5c85e083",
    "solve builtin:matching-pennies ommwu csv":
        "b61b0912e2aedf1a0e21bdb9a300aa1a5042dd6e828fbaa1066ea947f2ae0b96",
    "compare":
        "5003944840259c4988d86d2494daed59c3ee08ee6a2378907ae33e29707fa7d1",
    "cmp/report.json":
        "9f785e043f2f32e02e0081e22de128424d25ef3c9f925d980791a06d9fb646ea",
    "cmp/runs/game0000_mmwu-sd.csv":
        "ff4edb22b4a688dc7e8e1a0e94c31e7a26bdb954e37c5ba9259e2c639e4cf4ae",
    "cmp/runs/game0000_omeg.csv":
        "233eed9700cc762d4e26dff255fcd9bb801a3d554ccd63a9b8a1e82040b4c7d6",
    "cmp/runs/game0000_ommwu.csv":
        "64e55284ec81a0b7f2a378bc2f8b7be4b3737e0d7e6543c910accd7e6c51db6e",
    "cmp/runs/game0001_mmwu-sd.csv":
        "8cc451c48fa32eacdad51817d8045b051e6de87f866aa80b1cb6185c92a8d3ee",
    "cmp/runs/game0001_omeg.csv":
        "031046745808b2a1972dd1317b47a1bf6963a494331df75c5dc125d18887ded8",
    "cmp/runs/game0001_ommwu.csv":
        "ef7074930759cdf2ab672d666a70967eda32078f9fee8e4ae70ef1e5f11ac97c",
    "cmp/runs/game0002_mmwu-sd.csv":
        "cd87601a570b1a4d5d34e530a7bf673d1b1b4f982d70cd8b7f5d280ede67c072",
    "cmp/runs/game0002_omeg.csv":
        "ae21232ddf223f1587bab0e32cdda812ba01cac51d9b8e71cfe49c905a112b12",
    "cmp/runs/game0002_ommwu.csv":
        "6ae039521f5a9dfa93813706a5c96d40e5173e27612aecf9a44c6c4842a482c8",
    "verify":
        "d35f9bc5a8344c1064132d7bac7ee10c81062184ef6fc7b2ec08157772e7fb8f",
}


def test_cli_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    outputs = _cli_outputs(tmp_path, monkeypatch, capsys)
    digests = {k: hashlib.sha256(v.encode("utf-8")).hexdigest() for k, v in outputs.items()}
    assert digests == _CLI_OUTPUT_SHA256


# ---------------------------------------------------------------- plumbing


def test_main_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        run_cli()
    assert exc.value.code == 2


def test_module_entry_point():
    import qzsg.__main__  # noqa: F401 - import must not execute main
