"""Run one qzsg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve-3q --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; the package is imported from
`src/`.  With `--trace 0` the run prints the end-to-end metrics; with
`--trace 1` it runs each unit of the plan untraced and then traced, and
prints the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The full result, with the environment
record, sample counts and the untraced per-operation times, is written to
`.perfbench_out/`, and a traced run also writes its spans there.  The exit
code is 1 when an output check fails and 2 when the package cannot be found.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("solve-3q", "solve-2q")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "qzsg" / "__init__.py").is_file():
        print(f"error: no qzsg package under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]

    import envinfo
    import workloads

    env = envinfo.record()
    steal_before = envinfo.steal_ticks()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(args.workload, args.seed, args.seconds, args.size, scratch)
    started = time.perf_counter()
    try:
        plain, traced = workloads.run_plan(ctx, traced=bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    steal_after = envinfo.steal_ticks()
    env["steal_ticks_during_run"] = (
        None if steal_before is None or steal_after is None else steal_after - steal_before
    )
    env["wall_s"] = time.perf_counter() - started
    env["calibration_after"] = envinfo.calibrate_eigh()

    attempted = plain.attempted + (traced.attempted if traced else 0)
    failed = plain.failed + (traced.failed if traced else 0)
    problems = plain.problems + (traced.problems if traced else [])
    consistency = None
    if traced:
        metrics = workloads.per_layer(ctx, traced)
        metrics.update(workloads.workload_detail(plain))
        overhead = traced.spans.total_s(workloads.UNIT_SPAN) - plain.spans.total_s(
            workloads.UNIT_SPAN)
        metrics["trace.overhead_s"] = (overhead, "s", 1)
        consistency = traced.spans.consistency()
        if not consistency["ok"]:
            problems.append(f"span self times do not add up: {consistency}")
            failed += 1
    else:
        metrics = workloads.end_to_end(plain)
    correct = failed == 0

    OUT_DIR.mkdir(exist_ok=True)
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "units": ctx.units,
        "params": ctx.params,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "op_s": plain.op_s,
        "span_consistency": consistency,
        "environment": env,
    }
    with open(OUT_DIR / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=2, default=str)
        fh.write("\n")
    if traced:
        traced.spans.save(OUT_DIR / f"{tag}-spans.npz")

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit:8s} n={samples}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
