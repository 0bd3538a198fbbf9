"""Command-line harness.

Subcommands: `generate` (random game files), `solve` (one solver on one
game), `compare` (multi-game suites across solver variants), and `verify`
(randomized property checks).  All outputs are deterministic functions of the
inputs and seeds, except wall-clock timing fields.  Numeric fields are
serialized with shortest round-trip decimals (at most 17 significant digits),
so re-reading a file reproduces the exact doubles.

Integer flags are plain `int`s: the function that owns each value checks
its range, so a flag out of range exits 2 with the message that a config
file, a game file or an API call gets.

Exit codes: 0 success, 1 `verify` found a failing property, 2 usage or
validation error, 3 numerical failure or memory exhausted, 4 partial suite
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from . import game as game_mod
from . import properties, solvers, suite
from .linalg import NumericalError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_PARTIAL = 4

TRACE_HEADER = "t,gap_avg,gap_last,wall_time_ns"

OUTCOMES_HELP = (
    "POVM outcome count per game (default 4^(n+m), "
    f"only while n + m <= {game_mod.MAX_DEFAULTED_QUBITS})"
)


def _step_size(text: str):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a float or 'auto', got {text!r}"
        ) from None


def _format_float(x: float) -> str:
    return repr(float(x))


def _trace_csv(rows) -> str:
    """The trace as CSV text: TRACE_HEADER, then one line per TraceRow."""
    lines = [TRACE_HEADER] + [
        f"{row.t},{_format_float(row.gap_avg)},{_format_float(row.gap_last)},{row.wall_time_ns}"
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def _write_trace_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_trace_csv(rows))


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _check_output(path: str, command: str) -> None:
    """Exit 2 before any work when no output could be written at `path`.

    `compare` makes its report directory with its parents, so the nearest
    existing ancestor must be a directory.  Any other output is a file, or
    for `solve` a prefix of the files `<path>.csv` and `<path>.json`: each
    needs a file name that is not an existing directory (a prefix may be
    one), in a directory that exists.
    """
    directory, name = os.path.split(path)
    if command == "compare":
        directory = path
        while directory and not os.path.exists(directory):
            directory = os.path.dirname(directory)
    elif not name:
        raise ValueError(f"cannot write output: {path!r} is not a file name")
    else:
        files = (path + ".csv", path + ".json") if command == "solve" else (path,)
        for file in files:
            if os.path.isdir(file):
                raise ValueError(f"cannot write output: {file!r} is not a file name")
    if directory and not os.path.isdir(directory):
        raise ValueError(f"cannot write output: no directory {directory!r}")


def _load_game(ref: str) -> game_mod.QuantumGame:
    if ref.startswith(game_mod.BUILTIN_PREFIX):
        return game_mod.builtin_game(ref)
    if not os.path.exists(ref):
        raise ValueError(f"game file {ref!r} does not exist")
    return game_mod.load_game(ref)


def _cmd_generate(args) -> int:
    # RANK_RIDGE / λ_max(S) > 0 bounds every element's spectrum: all are full rank
    game, min_eig = game_mod.random_game_with_bound(
        args.alice_qubits, args.bob_qubits, args.outcomes, args.seed
    )
    game_mod.save_game(game, args.output)
    summary = {
        "path": args.output,
        "n": game.n,
        "m": game.m,
        "outcomes": game.outcomes,
        "seed": game.seed,
        "u_inf_norm": game.u_inf_norm,
        "povm_min_eigenvalue": min_eig,
        "povm_full_rank": min_eig > 0.0,
    }
    if args.format == "json":
        print(json.dumps(summary))
    else:
        print(f"wrote {args.output}")
        print(f"|U|_inf = {_format_float(game.u_inf_norm)}")
        print(
            f"POVM: {game.outcomes} elements, all full rank "
            f"(min eigenvalue ≥ {_format_float(summary['povm_min_eigenvalue'])})"
        )
    return EXIT_OK


def _solver_config(args) -> solvers.SolverConfig:
    base = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                base = json.load(fh)
        except (OSError, json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"invalid solver config: {exc}") from exc
        if not isinstance(base, dict):
            raise ValueError("solver config must be a JSON object")
    # each solve flag stores under its SolverConfig field, None when not given
    for name in (f.name for f in fields(solvers.SolverConfig)):
        if getattr(args, name) is not None:
            base[name] = getattr(args, name)
    base.setdefault("algorithm", solvers.SolverConfig.algorithm)
    return solvers.SolverConfig.from_json_dict(base)


def _cmd_solve(args) -> int:
    cfg = _solver_config(args)  # first, so a bad flag fails before a game file is read
    game = _load_game(args.game)
    result = solvers.run(game, cfg)
    summary = {
        "game": args.game,
        "algorithm": cfg.algorithm,
        "regularizer": cfg.regularizer,
        "step_decay": cfg.step_decay,
        "step_size": result.step_size,
        "max_iters": cfg.max_iters,
        "target_gap": cfg.target_gap,
        "seed": cfg.seed,
        **result.totals(),
    }
    if args.output:
        _write_trace_csv(args.output + ".csv", result.trace)
        _write_json(args.output + ".json", summary)
    if args.format == "json":
        print(json.dumps(summary))
    elif args.format == "csv":
        sys.stdout.write(_trace_csv(result.trace))
    else:
        print(
            f"{summary['algorithm']}: {result.iterations} iterations, "
            f"{result.gradient_calls} gradient calls, "
            f"final gap (avg) {_format_float(summary['final_gap_avg'])}"
        )
        if args.output:
            print(f"wrote {args.output}.csv and {args.output}.json")
    return EXIT_OK


def _parse_schedule(text: str, iters: int) -> dict:
    """The ExperimentSpec field that --schedule sets, if any."""
    if text is None:
        return {}
    if text.startswith("every-"):
        try:
            interval = int(text[len("every-"):])
        except ValueError:
            raise ValueError(f"invalid schedule {text!r}") from None
        return {"check_interval": interval}
    if text == "paper-exp2":
        points = suite.PAPER_EXP2_SCHEDULE
    else:
        try:
            points = sorted({int(p) for p in text.split(",") if p.strip()})
        except ValueError:
            raise ValueError(f"invalid schedule {text!r}") from None
        if not points:
            raise ValueError(f"invalid schedule {text!r}")
    points = tuple(t for t in points if t <= iters)
    if not points:
        raise ValueError("schedule has no checkpoints within --iters")
    return {"checkpoints": points}


def _cmd_compare(args) -> int:
    algorithms = tuple(a.strip() for a in args.algorithms.split(",") if a.strip())
    spec = suite.ExperimentSpec(
        n=args.alice_qubits,
        m=args.bob_qubits,
        games=args.games,
        master_seed=args.seed,
        algorithms=algorithms,
        iters=args.iters,
        outcomes=args.outcomes,
        step_size=args.step_size,
        **_parse_schedule(args.schedule, args.iters),
    )
    report = suite.run_suite(spec)
    runs_dir = os.path.join(args.output, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    report_path = os.path.join(args.output, "report.json")
    _write_json(report_path, report)
    for run_rec in report["runs"]:
        if run_rec["status"] != "ok":
            continue
        name = f"game{run_rec['game_index']:04d}_{run_rec['algorithm']}.csv"
        rows = [solvers.TraceRow(**cp) for cp in run_rec["checkpoints"]]
        _write_trace_csv(os.path.join(runs_dir, name), rows)
    failures = report["failures"]
    if args.format == "json":
        print(json.dumps({"report": report_path, "failures": failures}))
    else:
        print(f"wrote {report_path} ({len(report['runs'])} runs, {failures} failures)")
    return EXIT_PARTIAL if failures else EXIT_OK


def _cmd_verify(args) -> int:
    names = properties.PROPERTY_NAMES if args.property is None else (args.property,)
    report = properties.run_properties(
        names=names,
        max_qubits=args.dims,
        n_seeds=args.seeds,
        samples=args.samples,
    )
    if args.output:
        _write_json(args.output, report)
    if args.format == "json":
        print(json.dumps(report))
    else:
        for rec in report["properties"]:
            status = "PASS" if rec["passed"] else "FAIL"
            print(
                f"{status} {rec['property']}: worst {_format_float(rec['worst'])} "
                f"(threshold {_format_float(rec['threshold'])})"
            )
    return EXIT_OK if report["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qzsg",
        description="Equilibrium solvers for two-player quantum zero-sum games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a random game file")
    p_gen.add_argument("--alice-qubits", "-n", type=int, required=True)
    p_gen.add_argument("--bob-qubits", "-m", type=int, required=True)
    p_gen.add_argument("--outcomes", type=int, default=None, help=OUTCOMES_HELP)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", "-o", required=True)
    p_gen.add_argument("--format", choices=("text", "json"), default="text")
    p_gen.set_defaults(func=_cmd_generate)

    p_solve = sub.add_parser("solve", help="run one solver on one game")
    p_solve.add_argument("--game", required=True,
                         help="game file path or builtin:{matching-pennies,zero}")
    p_solve.add_argument("--config", default=None, help="solver config JSON file")
    p_solve.add_argument("--algorithm", choices=sorted(solvers.ALIASES), default=None)
    p_solve.add_argument("--step-size", type=_step_size, default=None)
    p_solve.add_argument("--iters", type=int, default=None, dest="max_iters")
    p_solve.add_argument("--target-gap", type=float, default=None)
    p_solve.add_argument("--check-interval", type=int, default=None,
                         dest="gap_check_interval")
    p_solve.add_argument("--seed", type=int, default=None,
                         help="recorded in the output, not used: no solver draws "
                              "random numbers")
    p_solve.add_argument("--output", "-o", default=None,
                         help="prefix for <prefix>.csv and <prefix>.json")
    p_solve.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_solve.set_defaults(func=_cmd_solve)

    p_cmp = sub.add_parser("compare", help="compare solver variants on a suite")
    p_cmp.add_argument("--alice-qubits", "-n", type=int, required=True)
    p_cmp.add_argument("--bob-qubits", "-m", type=int, required=True)
    p_cmp.add_argument("--games", type=int, required=True)
    p_cmp.add_argument("--algorithms", required=True,
                       help="comma-separated solver aliases")
    p_cmp.add_argument("--iters", type=int, required=True)
    p_cmp.add_argument("--outcomes", type=int, default=None, help=OUTCOMES_HELP)
    p_cmp.add_argument("--schedule", default=None,
                       help="'every-K', 'paper-exp2', or comma-separated checkpoints")
    p_cmp.add_argument("--step-size", type=_step_size,
                       default=solvers.SolverConfig.step_size)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--output", "-o", required=True, help="report directory")
    p_cmp.add_argument("--format", choices=("text", "json"), default="text")
    p_cmp.set_defaults(func=_cmd_compare)

    p_ver = sub.add_parser("verify", help="run randomized property checks")
    p_ver.add_argument("--property", choices=properties.PROPERTY_NAMES, default=None)
    p_ver.add_argument("--samples", type=int, default=50)
    p_ver.add_argument("--seeds", type=int, default=10)
    p_ver.add_argument("--dims", type=int, default=3,
                       help="largest per-player qubit count")
    p_ver.add_argument("--output", "-o", default=None)
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.output:
            _check_output(args.output, args.command)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
