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

from . import linalg

VN_ENTROPY_ID = "vn-entropy"
FROBENIUS_ID = "frobenius"


def _clip_spectra(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Simplex projection max(u - theta, 0) of each row u of a spectrum stack,
    written into `out`, an array of w's shape, or a fresh one.

    Trusted kernel: each row must be sorted descending, as LAPACK's ascending
    spectrum written through reversed views is; it is not re-sorted.  One
    pass over each row as Python floats checks it for finiteness and clips it.
    Sort-and-threshold rule (Duchi et al., ICML 2008; Condat, Math. Prog.
    2016): with s_k the running sum, theta = t_k = (s_k - 1)/k at the last k
    with u_k > t_k.  The sum runs left to right as numpy's cumsum does, and
    -, / and > round as numpy's do, so the result has the bits of the
    vectorized rule.  Not max_k t_k: equal in exact arithmetic, it is an ulp
    off at the support boundary.  A clipped entry is +0.0 (u <= theta), never
    -0.0, as numpy's maximum leaves it.  Raises NumericalError on a non-finite
    entry, and otherwise when a row loses its support.
    """
    clipped, lost = [], None
    for row in w.reshape(-1, w.shape[-1]).tolist():
        s, theta = 0.0, None
        for k, u in enumerate(row, 1):
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
        clipped += [u - theta if u > theta else 0.0 for u in row]
    if lost is not None:
        raise linalg.NumericalError(
            f"simplex projection lost its support to rounding (max entry {lost:.3e})"
        )
    if out is None:
        out = np.empty(w.shape)
    out.reshape(-1)[:] = clipped
    return out


class MapScratch:
    """Work arrays of the in-place mirror maps for a matrix or a (k, d, d)
    stack of `shape`: the eigenpairs, descending and contiguous (`w_desc`,
    `v_desc`), with the reversed views LAPACK writes them through (`eig`) and
    the mask of the input's finiteness test; the spectral weights (the
    shifted exponentials or the clipped spectrum) and their row sums;
    V·diag(weights) and conj(V), whose memory can also serve
    `linalg.hermitianize_in_place` after a map."""

    def __init__(self, shape: tuple):
        self.w_desc = np.empty(shape[:-1])
        self.v_desc = np.empty(shape, dtype=complex)
        self.eig = (self.w_desc[..., ::-1], self.v_desc[..., ::-1])
        self.finite = np.empty(shape, dtype=bool)
        self.weights = np.empty(shape[:-1])
        self.weight_rows = self.weights[..., None, :]
        totals = np.empty(shape[:-2])
        self.totals, self.total_blocks = totals, totals[..., None, None]
        self.scaled = np.empty(shape, dtype=complex)
        self.conj = np.empty(shape, dtype=complex)
        self.conj_t = self.conj.swapaxes(-1, -2)


def _buffers(y: np.ndarray, out, s) -> tuple[np.ndarray, MapScratch]:
    """`out` and `s`, each made fresh for Y when not given."""
    return np.empty_like(y) if out is None else out, MapScratch(y.shape) if s is None else s


def _synthesize(out: np.ndarray, s: MapScratch):
    """out = V diag(weights) V† for the descending eigenvectors `s.v_desc`
    and `s.weights`, with both operands of the product contiguous, since
    numpy's complex kernels round differently on strides."""
    np.multiply(s.v_desc, s.weight_rows, out=s.scaled)
    np.conjugate(s.v_desc, out=s.conj)
    return np.matmul(s.scaled, s.conj_t, out=out)


def _logit(y: np.ndarray, out: np.ndarray | None = None, s: MapScratch | None = None):
    """Λ of a Hermitian matrix or of each matrix in a (k, d, d) stack, read by
    its lower triangle and real diagonal, written into `out` (which may be y)
    with the work arrays `s`, both fresh when not given; the errors and bits
    of `linalg.trusted_hermitian_eig` followed by the shifted exponential,
    under the caller's error state (see `Regularizer.trusted_mirror_map`).
    The result is V diag(e) V† / sum(e) as the product rounds it, Hermitian
    to rounding; `logit_map` is its Hermitian part."""
    out, s = _buffers(y, out, s)
    linalg.eigh_ascending(y, s.eig, s.finite)
    linalg.assert_finite_spectrum(s.w_desc)
    np.subtract(s.w_desc, s.w_desc[..., :1], out=s.weights)
    np.exp(s.weights, out=s.weights)
    _synthesize(out, s)
    np.add.reduce(s.weights, -1, None, s.totals)
    out /= s.total_blocks
    return out


def _project(y: np.ndarray, out: np.ndarray | None = None, s: MapScratch | None = None):
    """Euclidean projection onto the density-matrix set of a Hermitian matrix
    or of each matrix in a (k, d, d) stack, read by its lower triangle and
    real diagonal, written into `out` (which may be y) with the work arrays
    `s`, both fresh when not given: one LAPACK call, whose ascending
    eigenpairs land descending in `s.w_desc` and `s.v_desc`, then one pass
    over each row of the spectrum into `s.weights` (`_clip_spectra`), then
    V diag(λ) V† as the product rounds it, Hermitian to rounding.  Trusted
    kernel, with the errors and bits of `linalg.trusted_hermitian_eig`
    followed by the clip, under the caller's error state;
    `orth_project_spectraplex` is its Hermitian part.
    """
    out, s = _buffers(y, out, s)
    linalg.eigh_ascending(y, s.eig, s.finite)
    _clip_spectra(s.w_desc, s.weights)
    return _synthesize(out, s)


def logit_map(y) -> np.ndarray:
    """Λ(Y) = exp(Y)/tr[exp(Y)] for Hermitian Y, stabilized by a λ_max shift.

    The shift multiplies numerator and denominator by the same scalar, so the
    output is exact while every intermediate stays in [0, 1].  The result
    is the Hermitian part of the trusted map's, made under
    `linalg.lapack_errstate`, exactly Hermitian.
    """
    y = linalg.hermitianize(linalg.assert_hermitian(y))
    with linalg.lapack_errstate():
        return linalg.hermitianize(_logit(y))


def orth_project_spectraplex(y) -> np.ndarray:
    """Euclidean projection onto the density-matrix set: project the spectrum.
    The result is the Hermitian part of the trusted map's, made under
    `linalg.lapack_errstate`, exactly Hermitian."""
    y = linalg.hermitianize(linalg.assert_hermitian(y))
    with linalg.lapack_errstate():
        return linalg.hermitianize(_project(y))


@dataclass(frozen=True)
class Regularizer:
    """A distance-generating function together with its induced maps.

    Both supported kinds are 1-strongly convex (μ = 1), each w.r.t. its own
    norm: the trace norm for the entropy, the Frobenius norm otherwise.
    """

    kind: str

    def dgf_value(self, x) -> float:
        """Value of the distance-generating function at a density matrix."""
        return self._value(linalg.assert_hermitian(x, "state"))

    def _value(self, x: np.ndarray) -> float:
        """`dgf_value` of an X that `linalg.assert_hermitian` has checked."""
        if self.kind == VN_ENTROPY_ID:
            w = linalg.trusted_hermitian_eig(linalg.hermitianize(x)).eigenvalues
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
            spec = linalg.trusted_hermitian_eig(linalg.hermitianize(y))
            if spec.eigenvalues[-1] <= linalg.LOG_EIG_FLOOR:
                raise ValueError(f"reference state is singular (min eigenvalue "
                                 f"{spec.eigenvalues[-1]:.3e}); entropy divergence is infinite")
            cross = linalg.trace_inner(x, linalg.spectral_log(spec)).real
            return self._value(x) - float(cross)
        return 0.5 * float(np.linalg.norm(x - y)) ** 2

    def proximal_map(self, x, g, eta: float) -> np.ndarray:
        """Bregman proximal step from X along the ascent direction G.

        Entropy: Λ(log X + eta G).  Frobenius: project(X + eta G).  X and G
        are checked once each, and so is the step log X + eta G or X + eta G,
        which raises a ValueError if it overflows.
        """
        if not (eta > 0.0 and math.isfinite(eta)):
            raise ValueError(f"eta must be positive and finite, got {eta!r}")
        x = linalg.assert_hermitian(x, "state")
        g = linalg.assert_hermitian(g, "gradient")
        if x.shape != g.shape:
            raise ValueError(f"shape mismatch {x.shape} vs {g.shape}")
        entropy = self.kind == VN_ENTROPY_ID
        if entropy:
            # log X from the X checked above, as herm_log would take it
            x = linalg.spectral_log(linalg.trusted_hermitian_eig(linalg.hermitianize(x)))
        try:
            with np.errstate(over="raise", invalid="raise"):
                step = x + eta * g
        except FloatingPointError:
            raise ValueError(f"the proximal step at eta {eta!r} overflows") from None
        return logit_map(step) if entropy else orth_project_spectraplex(step)

    def trusted_mirror_map(self, y: np.ndarray, out=None, scratch=None) -> np.ndarray:
        """The mirror map without input checks, for the solver loop: the logit
        map for the entropy, the spectraplex projection otherwise.

        Y is a matrix or a (k, d, d) stack of them, mapped in one pass into
        `out` (which may be Y) with the work arrays `scratch` (a `MapScratch`
        of Y's shape), both fresh when not given.  Each matrix is read as
        LAPACK's eigh reads it, by its lower triangle and real diagonal, and
        its result is Hermitian to rounding, with no Hermitian pass.  On an
        exactly Hermitian Y, the Hermitian part of each result equals
        `logit_map` or `orth_project_spectraplex` of its matrix bit for bit.
        It sets no error state: under `solvers.run`'s, a LAPACK failure
        raises NumericalError (`linalg._lapack`); under one that does not
        raise on invalid, it warns and leaves NaN.
        """
        kernel = _logit if self.kind == VN_ENTROPY_ID else _project
        return kernel(y, out, scratch)

    def start(self, x: np.ndarray) -> np.ndarray:
        """Initial stepper state at the density matrix X, trusted as
        `solvers.make_stepper` checks it and makes it exactly Hermitian.
        Entropy: the dual matrix log X, which plays X, so X must be full rank
        (a ValueError otherwise), or the zero matrix when X is exactly the
        maximally mixed state, which plays it without a logarithm's
        rounding.  Frobenius: X itself."""
        if self.kind != VN_ENTROPY_ID:
            return x
        if np.array_equal(x, np.eye(len(x)) / len(x)):
            return np.zeros_like(x)
        spec = linalg.trusted_hermitian_eig(x)
        if spec.eigenvalues[-1] <= linalg.LOG_EIG_FLOOR:
            raise ValueError("entropy start needs a full-rank state "
                             f"(min eigenvalue {spec.eigenvalues[-1]:.3e})")
        return linalg.spectral_log(spec)

    def play(self, state: np.ndarray, out=None, scratch=None) -> np.ndarray:
        """The density matrix a stepper state stands for: Λ(D), written as
        `trusted_mirror_map` writes it, under the caller's error state, or X
        itself."""
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
        eta) without its input checks and its final Hermitian pass.  The sum
        is read by its lower triangle, and eta must be positive and finite,
        as `solvers.run` makes it from a validated config.  The projection
        runs under the caller's error state, as `trusted_mirror_map` does.
        """
        y = np.add(state, step, out=out)
        if self.kind == VN_ENTROPY_ID:
            return y
        return _project(y, y, scratch)


VN_ENTROPY = Regularizer(VN_ENTROPY_ID)
FROBENIUS = Regularizer(FROBENIUS_ID)
