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
    assert "outcomes must be >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_generate_argparse_failures(tmp_path, capsys):
    # a count out of range is refused by the function that owns it, with exit 2
    assert run_cli("generate", "-n", "0", "-m", "1", "-o", str(tmp_path / "g.json")) == 2
    assert capsys.readouterr().err == "error: qubit counts must be >= 1\n"
    assert run_cli("generate", "-n", "1", "-m", "1", "--seed", "-4",
                   "-o", str(tmp_path / "g.json")) == 2
    assert capsys.readouterr().err == "error: seed must be at least 0 and below 2^64, got -4\n"
    # text that is no integer is argparse's to refuse
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "-n", "1.5", "-m", "1", "-o", str(tmp_path / "g.json"))
    assert exc.value.code == 2
    assert "invalid int value: '1.5'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_generate_unwritable_path_is_usage_error(capsys):
    assert run_cli("generate", "-n", "1", "-m", "1",
                   "-o", "/nonexistent-dir/g.json") == 2
    assert "error:" in capsys.readouterr().err


def _unexpected(*args, **kwargs):
    raise AssertionError("work started before the inputs and the output path were checked")


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


# 200 000 nested arrays: deeper than the JSON decoder's recursion can go
NESTED_JSON = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize(
    "content, message",
    [(None, "invalid solver config"), ("{", "invalid solver config"),
     ("[]", "must be a JSON object"), (NESTED_JSON, "invalid solver config")],
    ids=["missing", "not-json", "list", "nested"],
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


@pytest.mark.parametrize("rows", [30_000, 200_000])
def test_a_game_file_of_empty_rows_is_usage_error_before_any_allocation(tmp_path, rows):
    # a 120 KB (800 KB) file whose n x n matrix would take 13.4 GiB (596 GiB):
    # every row is checked before the matrix is allocated
    doc = _v2_document(1, 1.0)
    doc["payoff_observable"] = [[] for _ in range(rows)]
    (tmp_path / "g.json").write_text(json.dumps(doc), encoding="utf-8")
    proc = _run_child_with_two_gib(tmp_path, "solve", "--game", "g.json", "--iters", "5")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: matrix encoding must be square\n"


def test_a_deeply_nested_game_file_is_usage_error(tmp_path, capsys):
    game = tmp_path / "g.json"
    game.write_text(NESTED_JSON, encoding="utf-8")
    assert run_cli("solve", "--game", str(game), "--iters", "5") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid game file: maximum recursion depth")
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("threads, message", [
    ("0", "QZSG_THREADS must be >= 1, got '0'"),
    ("x", "QZSG_THREADS must be an integer, got 'x'"),
])
def test_compare_rejects_a_bad_thread_count_before_any_game(
        tmp_path, monkeypatch, capsys, threads, message):
    monkeypatch.setattr(suite, "random_game", _unexpected)
    monkeypatch.setenv(suite.THREADS_ENV_VAR, threads)
    out = tmp_path / "cmp"
    code = run_cli("compare", "-n", "1", "-m", "1", "--games", "2", "--iters", "5",
                   "--algorithms", "ommwu", "-o", str(out))
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "compare", "solve"])
def test_a_seed_of_2_to_the_64_is_usage_error(tmp_path, monkeypatch, capsys, command):
    # it would replay seed 0 while recording 2^64, or, in solve, record a
    # seed no draw can use; compare fails before any game, solve before a run
    monkeypatch.setattr(suite, "random_game", _unexpected)
    monkeypatch.setattr(solvers, "run", _unexpected)
    out = tmp_path / "out"
    argv = ["--seed", str(2**64), "-o", str(out)]
    if command == "solve":
        argv += ["--game", "builtin:matching-pennies"]
    else:
        argv += ["-n", "1", "-m", "1"]
    if command == "compare":
        argv += ["--games", "1", "--iters", "5", "--algorithms", "ommwu"]
    assert run_cli(command, *argv) == 2
    assert capsys.readouterr().err == (
        f"error: seed must be at least 0 and below 2^64, got {2**64}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "kind, seed",
    [("config", -5), ("config", 2**64 + 1), ("v1", -1), ("v2", 2**64)],
    ids=["config-negative", "config-above-64-bits", "v1-negative", "v2-2-to-the-64"],
)
def test_solve_rejects_a_file_seed_outside_64_bits(tmp_path, monkeypatch, capsys, kind, seed):
    monkeypatch.setattr(solvers, "run", _unexpected)
    path = tmp_path / "in.json"
    if kind == "config":
        doc = {"algorithm": "ommwu", "seed": seed}
        argv = ["--game", "builtin:matching-pennies", "--config", str(path)]
    else:
        doc = _v1_document(1, [1.0, -1.0, -1.0, 1.0]) if kind == "v1" else _v2_document(1, 1.0)
        doc["seed"] = seed
        argv = ["--game", str(path)]
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("solve", *argv, "--iters", "5", "--format", "json") == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: seed must be at least 0 and below 2^64, got {seed}\n"
    doc["seed"] = 2**64 - 1
    path.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.undo()
    assert run_cli("solve", *argv, "--iters", "5", "--format", "json") == 0


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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_game_out_of_memory_stops_the_suite_and_compare_exits_3(
        tmp_path, monkeypatch, capsys, workers):
    # every game of a suite has one size, so the first game that does not fit
    # ends the suite instead of becoming one failed cell per alias
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.00 PiB for an array")

    monkeypatch.setattr(suite, "random_game", too_large)
    monkeypatch.setattr(solvers, "run", _unexpected)
    monkeypatch.setenv(suite.THREADS_ENV_VAR, workers)
    spec = suite.ExperimentSpec(1, 1, 2, 0, ("ommwu", "mmwu"), 5)
    with pytest.raises(MemoryError, match="2.00 PiB"):
        suite.run_suite(spec)
    out = tmp_path / "cmp"
    assert run_cli("compare", "-n", "1", "-m", "1", "--games", "2", "--iters", "5",
                   "--algorithms", "ommwu,mmwu", "-o", str(out)) == 3
    assert capsys.readouterr().err == "out of memory: Unable to allocate 2.00 PiB for an array\n"


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


def test_verify_rejects_dims_zero(monkeypatch, capsys):
    monkeypatch.setattr(properties, "random_game", _unexpected)
    assert run_cli("verify", "--dims", "0") == 2
    assert capsys.readouterr().err == "error: max_qubits must be >= 1\n"


# ---------------------------------------------------------------- input rules

SEED_MINUS_4 = "seed must be at least 0 and below 2^64, got -4"
QUBITS_BELOW_1 = "qubit counts must be >= 1"
COMPARE_1_1 = ("compare", "-n", "1", "-m", "1", "--games", "1", "--algorithms", "ommwu")
PENNIES = ("solve", "--game", "builtin:matching-pennies")


def _refuse_all_work(monkeypatch):
    """Make every function that draws, decodes a matrix, builds a game or
    runs a solver fail the test."""
    for module, name in ((rng, "stream"), (linalg, "matrix_from_jsonable"),
                         (game_mod, "builtin_game"), (suite, "random_game"),
                         (properties, "random_game"), (solvers, "run")):
        monkeypatch.setattr(module, name, _unexpected)


def _usage_error(capsys, *argv):
    """The message with which the CLI exits 2 on `argv`, printing nothing else."""
    assert run_cli(*argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1
    return out.err[len("error: "):-1]


def _value_error(fn, *args, **kwargs):
    with pytest.raises(ValueError) as exc:
        fn(*args, **kwargs)
    return str(exc.value)


def test_one_rule_gives_one_message_at_every_entrance(tmp_path, monkeypatch, capsys):
    _refuse_all_work(monkeypatch)
    out = str(tmp_path / "out")
    doc = tmp_path / "in.json"

    def from_file(kind, **fields):
        base = {"v1": _v1_document(1, [1.0, -1.0, -1.0, 1.0]),
                "v2": _v2_document(1, 1.0), "config": {"algorithm": "ommwu"}}[kind]
        doc.write_text(json.dumps({**base, **fields}), encoding="utf-8")
        if kind == "config":
            return _usage_error(capsys, *PENNIES, "--config", str(doc), "-o", out)
        return _usage_error(capsys, "solve", "--game", str(doc), "-o", out)

    seed_messages = {
        "generate --seed": _usage_error(capsys, "generate", "-n", "1", "-m", "1",
                                        "--seed", "-4", "-o", out),
        "solve --seed": _usage_error(capsys, *PENNIES, "--seed", "-4", "-o", out),
        "compare --seed": _usage_error(capsys, *COMPARE_1_1, "--iters", "5",
                                       "--seed", "-4", "-o", out),
        "config seed": from_file("config", seed=-4),
        "v1 seed": from_file("v1", seed=-4),
        "v2 seed": from_file("v2", seed=-4),
        "check_seed": _value_error(rng.check_seed, -4),
        "random_game": _value_error(random_game, 1, 1, seed=-4),
        "ExperimentSpec": _value_error(suite.ExperimentSpec, n=1, m=1, games=1, master_seed=-4,
                                       algorithms=("ommwu",), iters=5),
        "SolverConfig": _value_error(solvers.SolverConfig, seed=-4),
    }
    assert seed_messages == dict.fromkeys(seed_messages, SEED_MINUS_4)
    qubit_messages = {
        "generate -n": _usage_error(capsys, "generate", "-n", "0", "-m", "1", "-o", out),
        "compare -m": _usage_error(capsys, "compare", "-n", "1", "-m", "0", "--games", "1",
                                   "--algorithms", "ommwu", "--iters", "5", "-o", out),
        "v1 n": from_file("v1", n=0),
        "v2 n": from_file("v2", n=0),
        "ExperimentSpec": _value_error(suite.ExperimentSpec, n=0, m=1, games=1, master_seed=0,
                                       algorithms=("ommwu",), iters=5),
        "random_game": _value_error(random_game, 0, 1),
        "side": _value_error(game_mod.side, 0, 1),
    }
    assert qubit_messages == dict.fromkeys(qubit_messages, QUBITS_BELOW_1)
    assert list(tmp_path.iterdir()) == [doc]


def test_a_game_file_of_40_plus_40_qubits_fails_before_its_matrix_is_decoded(
        tmp_path, monkeypatch, capsys):
    _refuse_all_work(monkeypatch)
    doc = {**_v2_document(40, 1.0), "m": 40}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert _usage_error(capsys, "solve", "--game", str(path)) == (
        "40+40 qubits need matrices of side 2^80, which no array has")


@pytest.mark.parametrize(
    "argv, document, message",
    [
        (("generate", "-n", "0", "-m", "1"), None, QUBITS_BELOW_1),
        (("generate", "-n", "1", "-m", "1", "--seed", "-4"), None, SEED_MINUS_4),
        (("compare", "-n", "1", "-m", "1", "--games", "0", "--algorithms", "ommwu",
          "--iters", "30"), None, "games must be >= 1"),
        ((*COMPARE_1_1, "--iters", "0"), None, "max_iters must be >= 1"),
        ((*COMPARE_1_1, "--iters", "30", "--schedule", "every-0"), None,
         "gap_check_interval must be >= 1"),
        ((*COMPARE_1_1, "--iters", "30", "--schedule", "0,3"), None,
         "checkpoints must be integers >= 1, got 0"),
        ((*COMPARE_1_1, "--iters", "30", "--schedule", ","), None, "invalid schedule ','"),
        ((*PENNIES, "--iters", "0"), None, "max_iters must be >= 1"),
        ((*PENNIES, "--check-interval", "0"), None, "gap_check_interval must be >= 1"),
        (("verify", "--dims", "0"), None, "max_qubits must be >= 1"),
        (("verify", "--seeds", "0"), None, "n_seeds and samples must be >= 1"),
        (("verify", "--samples", "0"), None, "n_seeds and samples must be >= 1"),
        (("solve", "--game"), {"n": 1.5}, "qubit counts must be integers"),
        (("solve", "--game"), {"seed": 1.5}, "seed must be an integer"),
    ],
    ids=["n-0", "seed-minus-4", "games-0", "iters-0", "every-0", "checkpoint-0",
         "schedule-no-points", "solve-iters-0", "check-interval-0", "dims-0", "seeds-0",
         "samples-0", "file-n-1.5", "file-seed-1.5"],
)
def test_an_out_of_range_value_exits_2_before_any_work(
        tmp_path, monkeypatch, capsys, argv, document, message):
    _refuse_all_work(monkeypatch)
    made = []
    if document is not None:
        path = tmp_path / "in.json"
        path.write_text(json.dumps({**_v2_document(1, 1.0), **document}), encoding="utf-8")
        argv, made = (*argv, str(path)), [path]
    assert _usage_error(capsys, *argv, "-o", str(tmp_path / "out")) == message
    assert list(tmp_path.iterdir()) == made


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
        "1f702a0e79d901db864b40be14ed2bc61cce389188b353c714e144c21d053ec3",
    "solve g12.json mda-frobenius csv":
        "ce0db3375a564ababeeb87f03c92f899a03c040b91ac22ce15b11b7ebd75ee7d",
    "solve g12.json mmp-entropy json":
        "afe858c067fab4e23ad016fe4801e5b5de15c65b451d81d0e4ecc065c6fa7679",
    "solve g12.json mmp-entropy csv":
        "735dd10dfc04f1e91a8d87cfec425cb154df35fd76a439704dfde8b3353604f3",
    "solve g12.json mmp-frobenius json":
        "ae64ffc115a1ec5602aadefd288fffacc92d330afc33c3cf6ff85ae7ae64d98f",
    "solve g12.json mmp-frobenius csv":
        "1e263a5df481fd64c8fd51160584fffb7fba43c7030a3199cf558359e9db4458",
    "solve g12.json mmwu json":
        "e28d011c29b97f475a8c2132895efc10219a75e2f3ae3921b2dd4a8c8008771a",
    "solve g12.json mmwu csv":
        "96467f0c4c4dc9b38a2796ce85b3fa33fd709bb4a5fc4f4906635556962e1114",
    "solve g12.json mmwu-sd json":
        "8526cc14370b039921a44b35b6ad85a0f849bdf7f75b4933a479acded3ba1599",
    "solve g12.json mmwu-sd csv":
        "bbfc09615462f8eb0a5c655e5783d96171a8e374872e855ef5af6c7606a86191",
    "solve g12.json omeg json":
        "c3dcb967b4171a95d33e3623c0121d47d6067e4e3d2955c30965328883c55b99",
    "solve g12.json omeg csv":
        "2cd06aee42ae3fb6d1cbd361006bc4c4734195f7e9b6600a5ee42b9e1fa3c83f",
    "solve g12.json ommwu json":
        "5f93081d8fd9190a400cb6c62dbbab3a1e2c6a48a0d009a3f274ce67fe26fc10",
    "solve g12.json ommwu csv":
        "fba6d209761b788797c5a6d79e69a455ffec2aea32660c16ff18f86131be05b3",
    "solve g22.json mda-frobenius json":
        "06641a898663002c9e1cf2158c6e721caf95f544cb4f98be132ea6795f6405b3",
    "solve g22.json mda-frobenius csv":
        "2a47d20acce4c20aaae5a854c5df5bb59d9b304342dca40c45065b7b3fa8d30d",
    "solve g22.json mmp-entropy json":
        "79b4cbc751dd41df8dc5235bdf500408134fbb3db37773b676588416e44dd924",
    "solve g22.json mmp-entropy csv":
        "d62d84e69eb8ec48f156407dd14128f92a5b53564508b787b4a4342ee7c4fcfa",
    "solve g22.json mmp-frobenius json":
        "97be370d789e193ee58d41c67e40b7b20401ce58505f3eb8a6a41a4f86b93cd0",
    "solve g22.json mmp-frobenius csv":
        "601f2caa3c1b98c26fe3e3f4670fb2e28b7763476ac11b27b79c3d1266d11ab3",
    "solve g22.json mmwu json":
        "f6deb0938572b1111ce54e7eb65710cce289b5f4a9931f0975de993e9ce3198d",
    "solve g22.json mmwu csv":
        "b3a97dd907d12b38a59e8f15d50adfdaee88c9914d261f9967eedfe8a6160962",
    "solve g22.json mmwu-sd json":
        "48abdad7d24751a1ff132bfc70c833a12c75bc71916a48383332ea3228bbdab0",
    "solve g22.json mmwu-sd csv":
        "c98db67edc2e1f0a98ebaaffacf6b514ecaac9fcabc5bd33a6692028b87ed981",
    "solve g22.json omeg json":
        "a45de81a84808f51ed41ffb33e15cd0064cfba278e1bf1b47842e981d19070c3",
    "solve g22.json omeg csv":
        "3c8db99f65bf9f2deac22fb6fc7824dd9b5fca0be014575399400db3c43589ac",
    "solve g22.json ommwu json":
        "57a9af5e885337f872e456ed6cd41e2aebc4a6f200a72a947a2482d956525cce",
    "solve g22.json ommwu csv":
        "0a52a9a6aa15e0bce7a9622d5e3503fda2aab698c20eb3a8e7f8084f9daac778",
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
        "fdf9b99b7640e9096454110925b406e4a49e338e0b6ec3488802e3a5207276c7",
    "cmp/runs/game0000_mmwu-sd.csv":
        "58f1a73056476c45922d2a51da9145609534ad91b916efdc5a69b6437dca7087",
    "cmp/runs/game0000_omeg.csv":
        "9e6053a02158b251f1fd8cece81d96b77f2457598ba3dfecbe86e57ba49b9a9c",
    "cmp/runs/game0000_ommwu.csv":
        "a380569a2eaf7a207f591fdc41a044bbe10f0f4bf344545782c550b9e1ede37d",
    "cmp/runs/game0001_mmwu-sd.csv":
        "b0c3da091447158972ee47b44c22d92ef39238dcb39706f1c7e37a59f0f353db",
    "cmp/runs/game0001_omeg.csv":
        "27782ef8578b594ad32aa0d68bb44181d554c208923e3bea538249c4f24aa650",
    "cmp/runs/game0001_ommwu.csv":
        "fdfc2ddf1c409a91d15dcf11de0700aa599cb8b514f479620c121223abc39e9a",
    "cmp/runs/game0002_mmwu-sd.csv":
        "c650123567c3479027364f5725c8acc9cb50d506c89c9a0e41a11b046208abc6",
    "cmp/runs/game0002_omeg.csv":
        "a61410f258398fb5f0287fc588229c62077f041dadcc55f25dddcce1a9ed0b74",
    "cmp/runs/game0002_ommwu.csv":
        "d21991afafb99f486ea1eaa74b8ad80564292735fda7c5a9283347f1d6080f4d",
    "verify":
        "13d211a66aaea11d862c19c8a8e8f89cc459618b47631052502c431db068d25d",
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
