"""Layering: importing a lower layer loads nothing above it.

Each check runs in a fresh interpreter whose PYTHONPATH starts with the
absolute `src/` holding this process's `qzsg`, so a module loaded by an
earlier test cannot hide an import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import qzsg

_SRC_DIR = str(Path(qzsg.__file__).resolve().parent.parent)


def _loaded_after(module: str, names, then: str = "pass") -> dict:
    """Which of `names` are in sys.modules after a child imports `module`
    and runs the statement `then`."""
    code = (
        f"import json, sys, {module}; {then}; "
        f"print(json.dumps({{n: n in sys.modules for n in {list(names)!r}}}))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC_DIR] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_package_root_exports_only_the_version():
    # submodules that other tests imported are attributes of the package too
    public = {name for name, value in vars(qzsg).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set()
    assert qzsg.__version__


def test_solvers_load_neither_the_suite_nor_scipy_stats():
    assert _loaded_after("qzsg.solvers", ["qzsg.suite", "scipy.stats"]) == {
        "qzsg.suite": False, "scipy.stats": False}


def test_cli_loads_no_scipy_stats_until_compare_needs_it():
    assert _loaded_after("qzsg.cli", ["scipy.stats"]) == {"scipy.stats": False}


def test_suite_stats_load_scipy_special_and_no_scipy_stats():
    names = ["scipy.special", "scipy.stats"]
    assert _loaded_after("qzsg.suite", names, then="qzsg.suite._stats([1e-3, 2e-3])") == {
        "scipy.special": True, "scipy.stats": False}


def test_geometry_loads_neither_the_game_nor_its_random_streams():
    assert _loaded_after("qzsg.geometry", ["qzsg.game", "qzsg.rng"]) == {
        "qzsg.game": False, "qzsg.rng": False}
