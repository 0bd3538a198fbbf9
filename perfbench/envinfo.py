"""Environment record written beside every benchmark result.

The calibration timing of raw `np.linalg.eigh` calls no qzsg code.  It is
taken before and after the workload to tell a slowed machine from a slowed
program, and it is never used to rescale a metric.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "QZSG_THREADS",
)


def steal_ticks() -> int | None:
    """Machine-wide steal time in clock ticks, from the `cpu` line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_version() -> str:
    try:
        config = np.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"].get("version", "unknown"))
    except (TypeError, KeyError):
        return "unknown"


def calibrate_eigh(reps: int = 15) -> dict:
    """Median µs per matrix of `np.linalg.eigh`, one call per matrix, on fixed
    Hermitian stacks at d = 4 and d = 8."""
    out = {}
    gen = np.random.default_rng(12345)
    for d in (4, 8):
        g = gen.standard_normal((64, d, d)) + 1j * gen.standard_normal((64, d, d))
        stack = g + g.conj().transpose(0, 2, 1)
        samples = []
        for _ in range(reps):
            start = time.perf_counter()
            for h in stack:
                np.linalg.eigh(h)
            samples.append((time.perf_counter() - start) / len(stack) * 1e6)
        out[f"eigh_d{d}_us"] = statistics.median(samples)
    return out


def record() -> dict:
    """Everything about the machine that a result should be read against."""
    import scipy

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas_version(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "calibration": calibrate_eigh(),
    }
