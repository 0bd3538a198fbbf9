import numpy as np
import pytest

from qzsg import properties, rng
from qzsg.game import random_game
from qzsg.properties import (
    PROPERTY_NAMES,
    check_gradient_fd,
    check_linearity,
    check_lipschitz,
    check_monotonicity,
    run_properties,
)


def test_individual_checks_on_seeded_game():
    game = random_game(1, 1, seed=0)
    gen = rng.stream(0, rng.STREAM_PROPERTIES)
    assert check_monotonicity(game, gen, 20) < 1e-9
    gen = rng.stream(0, rng.STREAM_PROPERTIES)
    assert check_gradient_fd(game, gen, 10) < 1e-5
    gen = rng.stream(0, rng.STREAM_PROPERTIES)
    assert check_lipschitz(game, gen, 50) <= 1e-9
    gen = rng.stream(0, rng.STREAM_PROPERTIES)
    assert check_linearity(game, gen, 20) < 1e-10


def test_run_properties_structure():
    report = run_properties(max_qubits=1, n_seeds=2, samples=5)
    assert report["all_passed"] is True
    assert [r["property"] for r in report["properties"]] == list(PROPERTY_NAMES)
    for rec in report["properties"]:
        assert rec["passed"] and rec["worst"] < rec["threshold"]
        assert rec["dims"] == [[1, 1]]
        assert rec["seeds"] == 2 and rec["samples"] == 5


def test_run_properties_subset_and_validation():
    report = run_properties(names=("linearity",), max_qubits=1, n_seeds=1, samples=3)
    assert [r["property"] for r in report["properties"]] == ["linearity"]
    with pytest.raises(ValueError, match="unknown property"):
        run_properties(names=("entropy",), max_qubits=1, n_seeds=1, samples=1)
    # a string is refused whole, not read as the names of its letters
    with pytest.raises(ValueError, match="^names must be a sequence of property names, not a"):
        run_properties(names="linearity", max_qubits=1, n_seeds=1, samples=1)
    with pytest.raises(ValueError, match="max_qubits"):
        run_properties(max_qubits=0)
    with pytest.raises(ValueError, match="n_seeds and samples"):
        run_properties(max_qubits=1, n_seeds=0)
    # a count that is not an integer, a bool among them, is refused by name,
    # as SolverConfig and ExperimentSpec refuse theirs
    for key in ("max_qubits", "n_seeds", "samples"):
        for bad in (1.5, True):
            with pytest.raises(ValueError, match=f"^{key} must be an integer$"):
                run_properties(names=("monotonicity",), **{"max_qubits": 1, key: bad})
    with pytest.raises(ValueError, match=r"^repeated property names \['linearity'\]$"):
        run_properties(names=("linearity", "linearity"), max_qubits=1, n_seeds=1, samples=1)


def test_run_properties_bounds_dims_before_any_game(monkeypatch):
    # every (k, k) game takes the default 4^(2k) outcomes: 4+4 is over the bound
    def unexpected(*args, **kwargs):
        raise AssertionError("a game was built before the bound was checked")

    monkeypatch.setattr(properties, "random_game", unexpected)
    with pytest.raises(ValueError, match="--dims must be at most 3"):
        run_properties(max_qubits=4, n_seeds=1, samples=1)


def test_run_properties_reports_failures(monkeypatch):
    # force an impossible threshold to exercise the failure path
    monkeypatch.setitem(properties._CHECKS, "linearity", (check_linearity, -1.0))
    report = run_properties(names=("linearity",), max_qubits=1, n_seeds=1, samples=3)
    assert report["all_passed"] is False
    assert report["properties"][0]["passed"] is False


def test_checks_are_deterministic():
    game = random_game(1, 1, seed=3)
    a = check_monotonicity(game, rng.stream(3, rng.STREAM_PROPERTIES), 10)
    b = check_monotonicity(game, rng.stream(3, rng.STREAM_PROPERTIES), 10)
    assert a == b


# float.hex of each property's worst residual at max_qubits=2, n_seeds=2,
# samples=5: verify's numbers stay bit for bit what they were as the
# feedback kernels it reads change
PINNED_WORSTS = {
    "monotonicity": "0x1.8000000000000p-57",
    "gradient-fd": "0x1.c7eb724d07b03p-29",
    "lipschitz": "-0x1.e1c5e4dbbf465p-5",
    "linearity": "0x1.0000000000000p-55",
}


def test_verify_numbers_are_pinned():
    report = run_properties(max_qubits=2, n_seeds=2, samples=5)
    worsts = {r["property"]: float.hex(r["worst"]) for r in report["properties"]}
    assert worsts == PINNED_WORSTS
