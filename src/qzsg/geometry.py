"""Regularizer geometry over the set of density matrices.

Two distance-generating functions are supported: the negative von Neumann
entropy tr[X log X] (1-strongly convex w.r.t. the trace norm) and the squared
Frobenius norm ||X||_F^2 / 2 (1-strongly convex w.r.t. the Frobenius norm).
The entropy mirror map is the logit map exp(Y)/tr[exp(Y)]; the Frobenius
mirror map is Euclidean projection onto the density-matrix set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import game, linalg

VN_ENTROPY_ID = "vn-entropy"
FROBENIUS_ID = "frobenius"


def _clip_spectra(w: np.ndarray) -> np.ndarray:
    """Simplex projection max(u - theta, 0) of each row u of a spectrum stack.

    Trusted kernel: each row must be finite and sorted descending, as
    `linalg.trusted_hermitian_eig` leaves a spectrum; it is not re-sorted or
    re-checked.  Sort-and-threshold rule (Duchi et al., ICML 2008; Condat,
    Math. Prog. 2016) in one pass over Python floats: with s_k the running
    sum, theta = t_k = (s_k - 1)/k at the last k with u_k > t_k.  The sum
    runs left to right as numpy's cumsum does, and -, / and > round as
    numpy's do, so the result has the bits of the vectorized rule.  Not
    max_k t_k: equal in exact arithmetic, it is an ulp off at the support
    boundary.  A clipped entry is +0.0 (u <= theta), never -0.0, as numpy's
    maximum leaves it.  Raises NumericalError when a row loses its support.
    """
    d = w.shape[-1]
    out = []
    for row in w.reshape(-1, d).tolist():
        s, theta = 0.0, None
        for k, u in enumerate(row, 1):
            s += u
            t = (s - 1.0) / k
            if u > t:
                theta = t
        if theta is None:
            # exact arithmetic always keeps u[0]; rounding at a huge spread can drop it
            raise linalg.NumericalError(
                f"simplex projection lost its support to rounding (max entry {row[0]:.3e})"
            )
        out += [u - theta if u > theta else 0.0 for u in row]
    return np.array(out).reshape(w.shape)


def _logit_spectra(spec: linalg.Spectrum) -> np.ndarray:
    w, v = spec
    e = np.exp(w - w[..., :1])
    rho = (v * e[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return linalg.hermitianize(rho / e.sum(axis=-1)[..., None, None])


def _project_spectra(spec: linalg.Spectrum) -> np.ndarray:
    w, v = spec
    lam = _clip_spectra(w)
    return linalg.hermitianize((v * lam[..., None, :]) @ v.conj().swapaxes(-1, -2))


def logit_map(y) -> np.ndarray:
    """Λ(Y) = exp(Y)/tr[exp(Y)] for Hermitian Y, stabilized by a λ_max shift.

    The shift multiplies numerator and denominator by the same scalar, so the
    output is exact while every intermediate stays in [0, 1].
    """
    return _logit_spectra(linalg.hermitian_eig(y))


def orth_project_spectraplex(y) -> np.ndarray:
    """Euclidean projection onto the density-matrix set: project the spectrum."""
    return _project_spectra(linalg.hermitian_eig(y))


@dataclass(frozen=True)
class Regularizer:
    """A distance-generating function together with its induced maps.

    Both supported kinds are 1-strongly convex (μ = 1), each w.r.t. its own
    norm: the trace norm for the entropy, the Frobenius norm otherwise.
    """

    kind: str

    def dgf_value(self, x) -> float:
        """Value of the distance-generating function at a density matrix."""
        x = linalg.assert_hermitian(x, "state")
        if self.kind == VN_ENTROPY_ID:
            w = linalg.hermitian_eig(x).eigenvalues
            w = w[w > 0.0]
            return float(np.sum(w * np.log(w)))
        return 0.5 * float(np.linalg.norm(x)) ** 2

    def bregman(self, x, y) -> float:
        """Bregman divergence D_h(X || Y) of X from the reference point Y.

        Entropy case is the quantum relative entropy tr[X (log X - log Y)]
        and requires Y full rank; Frobenius case is ||X - Y||_F^2 / 2.
        """
        x = linalg.assert_hermitian(x, "state")
        y = linalg.assert_hermitian(y, "reference state")
        if x.shape != y.shape:
            raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
        if self.kind == VN_ENTROPY_ID:
            wy = linalg.hermitian_eig(y).eigenvalues
            if wy[-1] <= linalg.LOG_EIG_FLOOR:
                raise ValueError(
                    f"reference state is singular (min eigenvalue {wy[-1]:.3e}); "
                    "entropy divergence is infinite"
                )
            cross = linalg.trace_inner(x, linalg.herm_log(y)).real
            return self.dgf_value(x) - float(cross)
        return 0.5 * float(np.linalg.norm(x - y)) ** 2

    def proximal_map(self, x, g, eta: float) -> np.ndarray:
        """Bregman proximal step from X along the ascent direction G.

        Entropy: Λ(log X + eta G).  Frobenius: project(X + eta G).
        """
        if not (eta > 0.0 and math.isfinite(eta)):
            raise ValueError(f"eta must be positive and finite, got {eta!r}")
        x = linalg.assert_hermitian(x, "state")
        g = linalg.assert_hermitian(g, "gradient")
        if x.shape != g.shape:
            raise ValueError(f"shape mismatch {x.shape} vs {g.shape}")
        if self.kind == VN_ENTROPY_ID:
            return logit_map(linalg.herm_log(x) + eta * g)
        return orth_project_spectraplex(x + eta * g)

    def trusted_mirror_map(self, y: np.ndarray) -> np.ndarray:
        """The mirror map without input checks, for the solver loop: the logit
        map for the entropy, the spectraplex projection otherwise.

        Y is a matrix or a (k, d, d) stack of them, mapped in one pass.  Each
        must be exactly Hermitian (see `linalg.trusted_hermitian_eig`): a
        `hermitianize` output, or a real-weighted sum of such outputs.  On
        such Y each result equals `logit_map` or `orth_project_spectraplex`
        of its matrix bit for bit.
        """
        spec = linalg.trusted_hermitian_eig(y)
        if self.kind == VN_ENTROPY_ID:
            return _logit_spectra(spec)
        return _project_spectra(spec)

    def start(self, x) -> np.ndarray:
        """Initial stepper state for a start at the density matrix X.

        Entropy: the dual matrix log X, which plays X, so X must be full
        rank; when X is exactly the maximally mixed state, the zero matrix,
        which plays the same point without the rounding of a logarithm.
        Frobenius: the Hermitian part of X.  X is validated here, once, as a
        density matrix (`game.assert_density_matrix`): this is the only way
        outside state enters a stepper, and play/advance trust every state
        and gradient to be exactly Hermitian.
        """
        x = linalg.hermitianize(game.assert_density_matrix(x, "state"))
        if self.kind != VN_ENTROPY_ID:
            return x
        dim = x.shape[0]
        if np.array_equal(x, np.eye(dim) / dim):
            return np.zeros_like(x)
        w_min = linalg.hermitian_eig(x).eigenvalues[-1]
        if w_min <= linalg.LOG_EIG_FLOOR:
            raise ValueError(
                f"entropy start needs a full-rank state (min eigenvalue {w_min:.3e})"
            )
        return linalg.herm_log(x)

    def play(self, state: np.ndarray) -> np.ndarray:
        """The density matrix a stepper state stands for: Λ(D), or X itself."""
        if self.kind == VN_ENTROPY_ID:
            return self.trusted_mirror_map(state)
        return state

    def advance(self, state: np.ndarray, g: np.ndarray, eta: float) -> np.ndarray:
        """Bregman proximal step of a stepper state along the ascent direction G.

        Entropy: D' = D + eta G in the dual (log) domain, so log X is never
        formed.  play(D') reproduces proximal_map(play(D), G, eta) because the
        logit map is invariant to the trace-normalization shift hiding in
        log Λ(D).  Frobenius: project(X + eta G), which is proximal_map(X, G,
        eta) without its input checks.  G must be exactly Hermitian, as
        payoff gradients are.
        """
        if not (eta > 0.0 and math.isfinite(eta)):
            raise ValueError(f"eta must be positive and finite, got {eta!r}")
        if self.kind == VN_ENTROPY_ID:
            return state + eta * g
        return self.trusted_mirror_map(state + eta * g)


VN_ENTROPY = Regularizer(VN_ENTROPY_ID)
FROBENIUS = Regularizer(FROBENIUS_ID)
