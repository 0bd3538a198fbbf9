import json
import warnings

import numpy as np
import pytest

from qzsg import cli, linalg, properties, solvers, suite
from qzsg import game as game_mod
from qzsg.cli import TRACE_HEADER, main
from qzsg.game import load_game, random_game, random_outcomes
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
    # generate builds U and its summary in one pass over the element stream
    out = tmp_path / "g.json"
    extra = [] if outcomes is None else ["--outcomes", str(outcomes)]
    assert run_cli("generate", "-n", str(n), "-m", str(m), "--seed", "6", *extra,
                   "--format", "json", "-o", str(out)) == 0
    summary = json.loads(capsys.readouterr().out)
    ref = random_game(n, m, outcomes, seed=6)
    assert np.array_equal(load_game(out).payoff_observable, ref.payoff_observable)
    assert summary["outcomes"] == ref.outcomes
    assert summary["povm_min_eigenvalue"] == min(
        float(np.linalg.eigvalsh(p)[0]) for _, p in random_outcomes(n, m, outcomes, 6)
    )


def test_generate_rejects_bad_outcomes(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run_cli("generate", "-n", "1", "-m", "1", "--outcomes", "1", "-o", str(out)) == 2
    assert "outcomes must be ≥ 2" in capsys.readouterr().err
    assert not out.exists()


def test_generate_argparse_failures(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "-n", "0", "-m", "1", "-o", str(tmp_path / "g.json"))
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "-n", "1", "-m", "1", "--seed", "-4",
                "-o", str(tmp_path / "g.json"))
    assert exc.value.code == 2


def test_generate_unwritable_path_is_usage_error(capsys):
    assert run_cli("generate", "-n", "1", "-m", "1",
                   "-o", "/nonexistent-dir/g.json") == 2
    assert "error:" in capsys.readouterr().err


def _unexpected(*args, **kwargs):
    raise AssertionError("work started before the output path was checked")


def test_generate_rejects_a_missing_output_dir_before_any_game(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(game_mod, "random_outcomes", _unexpected)
    missing = tmp_path / "missing"
    assert run_cli("generate", "-n", "1", "-m", "1", "-o", str(missing / "g.json")) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write output: no directory {str(missing)!r}\n")


def test_generate_rejects_an_existing_dir_before_any_game(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(game_mod, "random_outcomes", _unexpected)
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


def test_out_of_memory_is_exit_3(tmp_path, monkeypatch, capsys):
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.00 PiB for an array")

    monkeypatch.setattr(game_mod, "random_outcomes", too_large)
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


# ---------------------------------------------------------------- plumbing


def test_main_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        run_cli()
    assert exc.value.code == 2


def test_module_entry_point():
    import qzsg.__main__  # noqa: F401 - import must not execute main
