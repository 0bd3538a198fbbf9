"""Regularizer geometry over the set of density matrices.

Two distance-generating functions are supported, each a `Regularizer` class
with one instance: `VN_ENTROPY`, the negative von Neumann entropy tr[X log X]
(1-strongly convex w.r.t. the trace norm), whose mirror map is the logit map
exp(Y)/tr[exp(Y)], and `FROBENIUS`, the squared Frobenius norm ||X||_F^2 / 2
(1-strongly convex w.r.t. the Frobenius norm), whose mirror map is Euclidean
projection onto the density-matrix set.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg


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
    """Λ of Y, a trusted map as `Regularizer` describes them: the errors and
    bits of `linalg.trusted_hermitian_eig` followed by the shifted
    exponential, then V diag(e) V† / sum(e) as the product rounds it;
    `logit_map` is its Hermitian part."""
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
    """Euclidean projection of Y onto the density-matrix set, a trusted map
    as `Regularizer` describes them: one LAPACK call, whose ascending
    eigenpairs land descending in `s.w_desc` and `s.v_desc`, then one pass
    over each row of the spectrum into `s.weights` (`_clip_spectra`), then
    V diag(λ) V† as the product rounds it; `orth_project_spectraplex` is its
    Hermitian part."""
    out, s = _buffers(y, out, s)
    linalg.eigh_ascending(y, s.eig, s.finite)
    _clip_spectra(s.w_desc, s.weights)
    return _synthesize(out, s)


def _checked(kernel, y) -> np.ndarray:
    """The Hermitian part of a trusted map of the checked Hermitian part of
    Y, made under `linalg.lapack_errstate`: exactly Hermitian."""
    y = linalg.hermitianize(linalg.assert_hermitian(y))
    with linalg.lapack_errstate():
        return linalg.hermitianize(kernel(y))


def logit_map(y) -> np.ndarray:
    """Λ(Y) = exp(Y)/tr[exp(Y)] for Hermitian Y, stabilized by a λ_max shift,
    which multiplies numerator and denominator by the same scalar, so the
    output is exact while every intermediate stays in [0, 1] (`_checked`)."""
    return _checked(_logit, y)


def orth_project_spectraplex(y) -> np.ndarray:
    """Euclidean projection onto the density-matrix set: project the spectrum
    (`_checked`)."""
    return _checked(_project, y)


class Regularizer:
    """A distance-generating function h together with its induced maps.

    `Entropy` and `Frobenius` are its two kinds, each 1-strongly convex
    (μ = 1) w.r.t. its own norm.  This base checks the input of `dgf_value`,
    `bregman` and `proximal_map`, which a kind computes from its terms
    (`_value`, `_divergence`, `_dual`).  A kind also has its name `kind`
    and the solver loop's trusted maps, which check nothing:
    `trusted_mirror_map` of a matrix or of each matrix in a (k, d, d) stack;
    `start`, the stepper state at a density matrix X, which
    `solvers.make_stepper` checks and makes exactly Hermitian; `play`, the
    density matrix a state stands for; and `advance`, the Bregman proximal
    step of a state along the ascent direction G, given as step = eta G
    with eta positive and finite.  A trusted map reads a matrix as LAPACK's
    eigh does, by its lower triangle and real diagonal, and writes into
    `out` (which may be its input) with the work arrays `scratch` (a
    `MapScratch` of its shape), both fresh when not given.  Its output is
    Hermitian to rounding, with no Hermitian pass, and on an exactly
    Hermitian input its Hermitian part is the checked map's bit for bit.
    It sets no error state: under `solvers.run`'s, a LAPACK failure raises
    NumericalError (`linalg._lapack`); under one that does not raise on
    invalid, it warns and leaves NaN.
    """

    kind: str

    def dgf_value(self, x) -> float:
        """Value of the distance-generating function at a density matrix."""
        return self._value(linalg.assert_hermitian(x, "state"))

    def bregman(self, x, y) -> float:
        """Bregman divergence D_h(X || Y) of X from the reference point Y."""
        x = linalg.assert_hermitian(x, "state")
        y = linalg.assert_hermitian(y, "reference state")
        if x.shape != y.shape:
            raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
        return self._divergence(x, y)

    def proximal_map(self, x, g, eta: float) -> np.ndarray:
        """Bregman proximal step from X along the ascent direction G: the
        checked mirror map (`_checked`) of ∇h(X) + eta G, up to a multiple of
        I, which the map ignores.  X and G are checked once each, and so is
        the step, which raises a ValueError if it overflows.
        """
        if not (eta > 0.0 and math.isfinite(eta)):
            raise ValueError(f"eta must be positive and finite, got {eta!r}")
        x = linalg.assert_hermitian(x, "state")
        g = linalg.assert_hermitian(g, "gradient")
        if x.shape != g.shape:
            raise ValueError(f"shape mismatch {x.shape} vs {g.shape}")
        x = self._dual(x)
        try:
            with np.errstate(over="raise", invalid="raise"):
                step = x + eta * g
        except FloatingPointError:
            raise ValueError(f"the proximal step at eta {eta!r} overflows") from None
        return _checked(self.trusted_mirror_map, step)


class Entropy(Regularizer):
    """The negative von Neumann entropy tr[X log X], 1-strongly convex w.r.t.
    the trace norm.  Its mirror map is the logit map, and a stepper's state
    is the dual matrix D, which plays Λ(D), so no logarithm of a nearly
    singular iterate is taken."""

    kind = "vn-entropy"
    trusted_mirror_map = play = staticmethod(_logit)

    def _value(self, x: np.ndarray) -> float:
        w = linalg.trusted_hermitian_eig(linalg.hermitianize(x)).eigenvalues
        w = w[w > 0.0]
        return float(np.sum(w * np.log(w)))

    def _divergence(self, x: np.ndarray, y: np.ndarray) -> float:
        """The quantum relative entropy tr[X (log X - log Y)], which requires
        Y full rank."""
        spec = linalg.trusted_hermitian_eig(linalg.hermitianize(y))
        if spec.eigenvalues[-1] <= linalg.LOG_EIG_FLOOR:
            raise ValueError(f"reference state is singular (min eigenvalue "
                             f"{spec.eigenvalues[-1]:.3e}); entropy divergence is infinite")
        cross = linalg.trace_inner(x, linalg.spectral_log(spec)).real
        return self._value(x) - float(cross)

    def _dual(self, x: np.ndarray) -> np.ndarray:
        """log X, as herm_log would take the checked X."""
        return linalg.spectral_log(linalg.trusted_hermitian_eig(linalg.hermitianize(x)))

    def start(self, x: np.ndarray) -> np.ndarray:
        """log X, which plays X, so X must be full rank (a ValueError
        otherwise), or the zero matrix when X is exactly the maximally mixed
        state, which plays it without a logarithm's rounding."""
        if np.array_equal(x, np.eye(len(x)) / len(x)):
            return np.zeros_like(x)
        spec = linalg.trusted_hermitian_eig(x)
        if spec.eigenvalues[-1] <= linalg.LOG_EIG_FLOOR:
            raise ValueError("entropy start needs a full-rank state "
                             f"(min eigenvalue {spec.eigenvalues[-1]:.3e})")
        return linalg.spectral_log(spec)

    def advance(self, state: np.ndarray, step: np.ndarray, out=None, scratch=None):
        """D' = D + eta G in the dual (log) domain, so log X is never formed.
        play(D') reproduces proximal_map(play(D), G, eta) because the logit
        map is invariant to the trace-normalization shift hiding in log Λ(D).
        """
        return np.add(state, step, out=out)


class Frobenius(Regularizer):
    """The squared Frobenius norm ||X||_F^2 / 2, 1-strongly convex w.r.t. the
    Frobenius norm.  Its mirror map is the Euclidean projection onto the
    density-matrix set, and a stepper's state is the point X itself."""

    kind = "frobenius"
    trusted_mirror_map = staticmethod(_project)

    def _value(self, x: np.ndarray) -> float:
        return 0.5 * float(np.linalg.norm(x)) ** 2

    def _divergence(self, x: np.ndarray, y: np.ndarray) -> float:
        return self._value(x - y)

    def start(self, x: np.ndarray) -> np.ndarray:
        return x

    _dual = start  # ∇h is the identity

    def play(self, state: np.ndarray, out=None, scratch=None) -> np.ndarray:
        return state

    def advance(self, state: np.ndarray, step: np.ndarray, out=None, scratch=None):
        """project(X + eta G): proximal_map(X, G, eta) without its input
        checks and its final Hermitian pass."""
        y = np.add(state, step, out=out)
        return _project(y, y, scratch)


VN_ENTROPY = Entropy()
FROBENIUS = Frobenius()
