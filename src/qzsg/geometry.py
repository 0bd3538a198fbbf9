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


def _clip_spectra(w: np.ndarray) -> tuple[np.ndarray, bool]:
    """Simplex projection max(u - theta, 0) of each row u of a spectrum stack,
    and whether some row has tied entries.

    Trusted kernel: each row must be sorted descending, as LAPACK's ascending
    spectrum read backwards is; it is not re-sorted.  One pass over each row
    as Python floats checks it for finiteness, finds its ties and clips it.
    Sort-and-threshold rule (Duchi et al., ICML 2008; Condat, Math. Prog.
    2016): with s_k the running sum, theta = t_k = (s_k - 1)/k at the last k
    with u_k > t_k.  The sum runs left to right as numpy's cumsum does, and
    -, / and > round as numpy's do, so the result has the bits of the
    vectorized rule.  Not max_k t_k: equal in exact arithmetic, it is an ulp
    off at the support boundary.  A clipped entry is +0.0 (u <= theta), never
    -0.0, as numpy's maximum leaves it.  Raises NumericalError on a non-finite
    entry, and otherwise when a row loses its support.
    """
    d = w.shape[-1]
    out, tied, lost = [], False, None
    for row in w.reshape(-1, d).tolist():
        s, theta, prev = 0.0, None, None
        for k, u in enumerate(row, 1):
            if u == prev:
                tied = True
            prev = u
            s += u
            t = (s - 1.0) / k
            if u > t:
                theta = t
        # a non-finite entry leaves the sum non-finite; so can overflow alone
        if not math.isfinite(s) and not all(map(math.isfinite, row)):
            raise linalg.NumericalError("eigensolver returned a non-finite spectrum")
        if theta is None:
            # exact arithmetic always keeps u[0]; rounding at a huge spread can drop it
            lost = row[0] if lost is None else lost
            continue
        out += [u - theta if u > theta else 0.0 for u in row]
    if lost is not None:
        raise linalg.NumericalError(
            f"simplex projection lost its support to rounding (max entry {lost:.3e})"
        )
    return np.array(out).reshape(w.shape), tied


class MapScratch:
    """Work arrays of the in-place mirror maps for a matrix or a (k, d, d)
    stack of `shape`: the spectral weights and their row sums, V·diag(weights)
    and conj(V), whose memory also serves `linalg.hermitianize_in_place`."""

    def __init__(self, shape: tuple):
        self.weights = np.empty(shape[:-1])
        self.weights_desc = self.weights[..., ::-1]
        self.weight_rows = self.weights[..., None, :]
        totals = np.empty(shape[:-2])
        self.totals, self.total_blocks = totals, totals[..., None, None]
        self.scaled = np.empty(shape, dtype=complex)
        self.conj = np.empty(shape, dtype=complex)
        self.conj_t = self.conj.swapaxes(-1, -2)


def _buffers(y: np.ndarray, out, s) -> tuple[np.ndarray, MapScratch]:
    """`out` and `s`, each made fresh for Y when not given."""
    return np.empty_like(y) if out is None else out, MapScratch(y.shape) if s is None else s


def _synthesize(v: np.ndarray, weight_rows: np.ndarray, out: np.ndarray, s: MapScratch):
    """out = V diag(w) V† for descending-order eigenvectors V, which may be a
    reversed view of LAPACK's output: both operands of the product are
    written contiguously first, since numpy's complex kernels round
    differently on strides."""
    np.multiply(v, weight_rows, out=s.scaled)
    np.conjugate(v, out=s.conj)
    return np.matmul(s.scaled, s.conj_t, out=out)


def _logit(y: np.ndarray, out: np.ndarray | None = None, s: MapScratch | None = None):
    """Λ of an exactly Hermitian matrix or of each matrix in a (k, d, d) stack,
    written into `out` (which may be y) with the work arrays `s`, both fresh
    when not given; the preconditions, errors and bits of
    `linalg.trusted_hermitian_eig` followed by the shifted exponential."""
    out, s = _buffers(y, out, s)
    w, v = linalg.eigh_ascending(y)
    e = s.weights
    if linalg.spectrum_ties(w):
        order = np.argsort(-w, axis=-1, kind="stable")
        w, v = np.take_along_axis(w, order, -1), np.take_along_axis(v, order[..., None, :], -1)
        np.subtract(w, w[..., :1], out=e)
    else:
        # the descending spectrum, shifted, lands in e's order
        np.subtract(w, w[..., -1:], out=s.weights_desc)
        v = v[..., ::-1]
    np.exp(e, out=e)
    _synthesize(v, s.weight_rows, out, s)
    np.add.reduce(e, -1, None, s.totals)
    out /= s.total_blocks
    return linalg.hermitianize_in_place(out, s.conj)


def _project(y: np.ndarray, out: np.ndarray | None = None, s: MapScratch | None = None):
    """Euclidean projection onto the density-matrix set of an exactly
    Hermitian matrix or of each matrix in a (k, d, d) stack, written into
    `out` (which may be y) with the work arrays `s`, both fresh when not
    given: one LAPACK call, then one pass over each row of its spectrum
    (`_clip_spectra`).

    Trusted kernel, with the preconditions, errors and bits of
    `linalg.trusted_hermitian_eig` followed by the clip: eigenvectors of tied
    eigenvalues keep their ascending solver order.
    """
    out, s = _buffers(y, out, s)
    w, v = linalg.eigh_ascending(y)
    lam, tied = _clip_spectra(w[..., ::-1])
    if tied:
        order = np.argsort(-w, axis=-1, kind="stable")
        v = np.take_along_axis(v, order[..., None, :], -1)
    else:
        v = v[..., ::-1]
    _synthesize(v, lam[..., None, :], out, s)
    return linalg.hermitianize_in_place(out, s.conj)


def logit_map(y) -> np.ndarray:
    """Λ(Y) = exp(Y)/tr[exp(Y)] for Hermitian Y, stabilized by a λ_max shift.

    The shift multiplies numerator and denominator by the same scalar, so the
    output is exact while every intermediate stays in [0, 1].
    """
    return _logit(linalg.hermitianize(linalg.assert_hermitian(y)))


def orth_project_spectraplex(y) -> np.ndarray:
    """Euclidean projection onto the density-matrix set: project the spectrum."""
    return _project(linalg.hermitianize(linalg.assert_hermitian(y)))


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

    def trusted_mirror_map(self, y: np.ndarray, out=None, scratch=None) -> np.ndarray:
        """The mirror map without input checks, for the solver loop: the logit
        map for the entropy, the spectraplex projection otherwise.

        Y is a matrix or a (k, d, d) stack of them, mapped in one pass into
        `out` (which may be Y) with the work arrays `scratch` (a `MapScratch`
        of Y's shape), both fresh when not given.  Each matrix must be
        exactly Hermitian (see `linalg.trusted_hermitian_eig`): a
        `hermitianize` output, or a real-weighted sum of such outputs.  On
        such Y each result equals `logit_map` or `orth_project_spectraplex`
        of its matrix bit for bit.
        """
        kernel = _logit if self.kind == VN_ENTROPY_ID else _project
        return kernel(y, out, scratch)

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

    def play(self, state: np.ndarray, out=None, scratch=None) -> np.ndarray:
        """The density matrix a stepper state stands for: Λ(D), written as
        `trusted_mirror_map` writes it, or X itself."""
        if self.kind == VN_ENTROPY_ID:
            return _logit(state, out, scratch)
        return state

    def advance(self, state: np.ndarray, step: np.ndarray, out=None, scratch=None):
        """Bregman proximal step of a stepper state along the ascent direction
        G, given scaled as step = eta G, written into `out` (which may be the
        state) with the work arrays `scratch`, both fresh when not given.

        Entropy: D' = D + eta G in the dual (log) domain, so log X is never
        formed.  play(D') reproduces proximal_map(play(D), G, eta) because the
        logit map is invariant to the trace-normalization shift hiding in
        log Λ(D).  Frobenius: project(X + eta G), which is proximal_map(X, G,
        eta) without its input checks.  G must be exactly Hermitian, as payoff
        gradients are, and eta positive and finite, as `solvers.run` makes it
        from a validated config.
        """
        y = np.add(state, step, out=out)
        if self.kind == VN_ENTROPY_ID:
            return y
        return _project(y, y, scratch)


VN_ENTROPY = Regularizer(VN_ENTROPY_ID)
FROBENIUS = Regularizer(FROBENIUS_ID)
