import numpy as np
import pytest

from qzsg import rng
from qzsg.game import QuantumGame, lipschitz_estimate, matching_pennies, random_game
from qzsg.solvers import SolverConfig
from qzsg.suite import ExperimentSpec


def splitmix64_reference(master, index):
    mask = (1 << 64) - 1
    z = (master + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


def test_stream_replays_exactly():
    a = rng.stream(7, rng.STREAM_POVM).standard_normal(16)
    b = rng.stream(7, rng.STREAM_POVM).standard_normal(16)
    assert np.array_equal(a, b)


def test_stream_keys_are_independent():
    a = rng.stream(7, rng.STREAM_POVM).standard_normal(16)
    b = rng.stream(7, rng.STREAM_UTILITIES).standard_normal(16)
    c = rng.stream(8, rng.STREAM_POVM).standard_normal(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_uses_direct_philox_key():
    expected = np.random.Generator(
        np.random.Philox(key=(rng.STREAM_LIPSCHITZ << 64) | 5)
    ).standard_normal(8)
    assert np.array_equal(rng.stream(5, rng.STREAM_LIPSCHITZ).standard_normal(8), expected)


def test_derive_seed_matches_splitmix64():
    for master in (0, 1, 42, 2**64 - 1):
        for index in range(25):
            got = rng.derive_seed(master, index)
            assert got == splitmix64_reference(master, index)
            assert 0 <= got < 2**64
    # first output of the splitmix64 stream seeded with 0
    assert rng.derive_seed(0, 0) == 0xE220A8397B1DCDAF


def test_derive_seed_distinct_across_indexes():
    seeds = {rng.derive_seed(123, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_complex_normal_shape_and_scale():
    gen = rng.stream(0, rng.STREAM_PROPERTIES)
    z = rng.complex_normal(gen, (200, 200))
    assert z.shape == (200, 200) and np.iscomplexobj(z)
    # unit variance per entry: E|z|^2 = 1
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.02
    again = rng.complex_normal(rng.stream(0, rng.STREAM_PROPERTIES), (200, 200))
    assert np.array_equal(z, again)


def test_seeds_outside_64_bits_are_refused():
    # the key holds 64 bits: 2^64 would replay seed 0, and -1 seed 2^64 - 1
    for seed in (2**64, -1):
        with pytest.raises(ValueError, match="seed must be at least 0 and below 2\\^64"):
            rng.stream(seed, rng.STREAM_POVM)
        with pytest.raises(ValueError, match="below 2\\^64"):
            rng.derive_seed(seed, 0)
    top = np.random.Generator(np.random.Philox(key=(rng.STREAM_POVM << 64) | (2**64 - 1)))
    assert np.array_equal(rng.stream(2**64 - 1, rng.STREAM_POVM).standard_normal(4),
                          top.standard_normal(4))


@pytest.mark.parametrize(
    "seed", [1.5, True, "1", np.float64(2.0)], ids=["1.5", "True", "'1'", "float64(2.0)"]
)
def test_a_seed_that_is_not_an_integer_is_refused_everywhere(seed):
    # 1.5 was stored as seed 1 by from_observable and raised TypeError from a
    # draw; True ran as seed 1
    game = matching_pennies()
    u = game.payoff_observable
    for call in (
        lambda: rng.check_seed(seed),
        lambda: rng.stream(seed, rng.STREAM_POVM),
        lambda: rng.derive_seed(seed, 0),
        lambda: SolverConfig(seed=seed),
        lambda: ExperimentSpec(1, 1, 1, seed, ("ommwu",), 10, 4),
        lambda: QuantumGame.from_observable(1, 1, u, 4, seed),
        lambda: random_game(1, 1, seed=seed),
        lambda: lipschitz_estimate(game, seed=seed),
    ):
        with pytest.raises(ValueError, match="^seed must be an integer$"):
            call()


def test_a_numpy_integer_seed_is_stored_as_an_int():
    game = matching_pennies()
    stored = QuantumGame.from_observable(1, 1, game.payoff_observable, 4, np.uint64(3)).seed
    assert type(stored) is int and stored == 3
