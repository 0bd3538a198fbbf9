"""Tests of the benchmark itself, at the smoke size.

    python3 -m pytest perfbench/test_perfbench.py

Each run starts `perfbench/run.py` in a child process, as the benchmark's
callers do.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_NAMES = (
    "solvers.iterations",
    "solvers.gradient_calls",
    "game.povm_mb",
    "linalg.log_clamps",
)


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    script = cwd / "perfbench" / "run.py"
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def _assert_all_printed(proc, result, listed) -> None:
    assert set(result["metrics"]) == {m["name"] for m in listed}
    lines = proc.stdout.splitlines()[:-1]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split() for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = _run(workload, trace=0)
    result = _result(proc)
    _assert_all_printed(proc, result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = _run(workload, trace=1), _run(workload, trace=1)
    a, b = _result(first), _result(second)
    _assert_all_printed(first, a, SPEC["per_layer"])
    counts = [k for k in a["metrics"] if k.endswith(".calls") or k in COUNT_NAMES]
    assert set(COUNT_NAMES) <= set(counts) and len(counts) >= len(COUNT_NAMES) + 11
    for key in counts:
        assert a["metrics"][key]["value"] == b["metrics"][key]["value"], key


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
