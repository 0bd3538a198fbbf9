"""Deterministic random streams built on the counter-based Philox generator.

Every stochastic component draws from its own stream, keyed by a 64-bit seed
in the low word of the 128-bit Philox key and a fixed component offset in the
high word.  Distinct keys give statistically independent streams, and the key
is set directly (no entropy pool), so all draws are bit-reproducible.
"""

from __future__ import annotations

import numbers

import numpy as np

from . import linalg

_MASK64 = (1 << 64) - 1

# Component offsets (high word of the Philox key).
STREAM_POVM = 1
STREAM_UTILITIES = 2
STREAM_LIPSCHITZ = 3
STREAM_PROPERTIES = 4


def check_seed(seed: int) -> int:
    """`seed`, if an integer (not a bool) with 0 <= seed < 2^64, else a
    ValueError: any other integer would replay the draws of seed mod 2^64."""
    if not linalg.is_number(seed, numbers.Integral):
        raise ValueError("seed must be an integer")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be at least 0 and below 2^64, got {seed}")
    return seed


def stream(seed: int, component: int) -> np.random.Generator:
    """Generator for (seed, component); same arguments always replay the same draws."""
    key = ((component & _MASK64) << 64) | check_seed(seed)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(master_seed: int, index: int) -> int:
    """Stateless 64-bit child seed for item `index`, via the SplitMix64 finalizer."""
    z = (check_seed(master_seed) + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian entries, unit variance per entry."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)
