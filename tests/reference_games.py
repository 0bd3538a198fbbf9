"""Reference constructions of random games, one element at a time.

`random_game` sums S and V = sum_w u_w A_w over chunks in one pass and makes
no POVM element.  The tests compare it with these slower loops, which draw,
multiply and sum one element at a time with plain `+=`, and take S^(-1/2)
through `spectral_fn`, a real function applied to a Hermitian matrix's
eigenvalues.
"""

from typing import Callable

import numpy as np

from qzsg import linalg, rng
from qzsg.game import RANK_RIDGE
from qzsg.linalg import hermitian_eig, hermitianize


def spectral_fn(h, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a real scalar function to a Hermitian matrix through its eigenvalues."""
    spec = hermitian_eig(h)
    fw = np.asarray(f(spec.eigenvalues), dtype=float)
    if fw.shape != spec.eigenvalues.shape:
        raise ValueError("f must map the eigenvalue vector elementwise")
    if not np.all(np.isfinite(fw)):
        bad = spec.eigenvalues[~np.isfinite(fw)][0]
        raise ValueError(f"function undefined at eigenvalue {bad!r}")
    v = spec.eigenvectors
    return hermitianize((v * fw) @ v.conj().T)


def _raw_elements(n, m, outcomes, seed):
    """A_w = G†G + RANK_RIDGE·I, one `rng.complex_normal` draw per element."""
    dim = 2 ** (n + m)
    ridge = RANK_RIDGE * np.eye(dim)
    gen = rng.stream(seed, rng.STREAM_POVM)
    for _ in range(outcomes):
        g = rng.complex_normal(gen, (dim, dim))
        yield g.conj().T @ g + ridge


def _utilities(outcomes, seed):
    return rng.stream(seed, rng.STREAM_UTILITIES).uniform(-1.0, 1.0, size=outcomes)


def _inv_sqrt(total):
    return spectral_fn(linalg.hermitianize(total), lambda w: w**-0.5)


def reference_outcomes(n, m, outcomes=None, seed=0):
    """U and the (u, P_w) pairs of a random game in two passes: S = sum_w A_w,
    then P_w = herm(S^(-1/2) A_w S^(-1/2)), then U = herm(sum_w u_w P_w).

    This is the POVM the game stands for; `random_game`'s U equals this U to
    rounding, not bit for bit."""
    outcomes = 4 ** (n + m) if outcomes is None else outcomes
    dim = 2 ** (n + m)
    total = np.zeros((dim, dim), dtype=complex)
    for a in _raw_elements(n, m, outcomes, seed):
        total += a
    inv_sqrt = _inv_sqrt(total)
    pairs = [
        (float(u), linalg.hermitianize(inv_sqrt @ a @ inv_sqrt))
        for u, a in zip(_utilities(outcomes, seed), _raw_elements(n, m, outcomes, seed))
    ]
    u_obs = np.zeros((dim, dim), dtype=complex)
    for u, p in pairs:
        u_obs += u * p
    return linalg.hermitianize(u_obs), pairs


def one_pass_observable(n, m, outcomes, seed):
    """U of a random game in one pass, one element at a time: S += A_w and
    V += u_w A_w, then U = herm(S^(-1/2) V S^(-1/2)).  The chunked generator
    must equal it bit for bit."""
    dim = 2 ** (n + m)
    total = np.zeros((dim, dim), dtype=complex)
    weighted = np.zeros((dim, dim), dtype=complex)
    for u, a in zip(_utilities(outcomes, seed), _raw_elements(n, m, outcomes, seed)):
        total += a
        weighted += float(u) * a
    inv_sqrt = _inv_sqrt(total)
    return linalg.hermitianize(inv_sqrt @ weighted @ inv_sqrt)
