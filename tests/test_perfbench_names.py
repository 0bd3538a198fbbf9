"""Every name the benchmark in perfbench/ patches or reads still exists.

The traced benchmark patches each `LAYER_PATCHES` entry, and both passes
patch the set-up calls; a deleted name would crash the benchmark, so it
fails here first.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

import qzsg.game
import qzsg.linalg
import qzsg.solvers

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


def test_layer_patches_exist(workloads):
    for owner, attr, name in workloads.LAYER_PATCHES:
        # Tracer.patch reads a class owner's own __dict__, not its bases
        present = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        assert present, f"{name}: {owner.__name__}.{attr} is gone"


def test_setup_patches_and_reads_exist():
    assert callable(qzsg.game.random_game)
    assert callable(qzsg.solvers.resolve_step_size)
    assert isinstance(qzsg.linalg.log_clamp_counter.count, int)
    assert hasattr(qzsg.game.QuantumGame, "povm")
    # what the untraced units call, and what `_observe_solve` reads of a run
    assert callable(qzsg.solvers.SolverConfig.from_alias)
    assert callable(qzsg.game.duality_gap)
    assert callable(qzsg.game.assert_density_matrix)
    fields = {f.name for f in dataclasses.fields(qzsg.solvers.RunResult)}
    assert {"iterations", "gradient_calls", "trace", "average"} <= fields
