"""Dense complex linear algebra for Hermitian matrices of dimension 2^k.

All functions operate on square complex numpy arrays and return fresh arrays,
except `hermitianize_in_place`.  Results that are Hermitian in exact
arithmetic are re-symmetrized through the (A + A†)/2 guard so that downstream
tolerance checks stay sharp after long chains of floating-point arithmetic.
The solver loop's trusted kernels are the exception: they read a Hermitian
matrix as LAPACK's eigh reads it, by its lower triangle and real diagonal, so
no (A + A†)/2 pass runs inside the loop.

The trusted eigensolvers call the batched LAPACK gufuncs behind
`numpy.linalg.eigh` and `eigvalsh` directly (`_lapack`), with their bits and
without the wrappers' per-call dispatch.  Those gufuncs are private numpy
API; tests/test_linalg.py pins them to the public functions byte for byte.
Every eigensolver call of the package goes through `_lapack`, so a LAPACK
failure anywhere, set-up included, raises NumericalError.  Every descending
spectrum is LAPACK's ascending one read backwards, equal eigenvalues too.
"""

from __future__ import annotations

import math
import numbers
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

HERMITIAN_RTOL = 1e-10
PSD_EIG_TOL = 1e-9
LOG_EIG_FLOOR = 1e-15
# the largest real or imaginary part whose (A + A†)/2 cannot overflow
HERMITIAN_PART_MAX = float(np.finfo(float).max) / 2.0


class NumericalError(RuntimeError):
    """An eigensolver failed to converge or a kernel produced non-finite values."""


class Spectrum(NamedTuple):
    """Eigendecomposition with eigenvalues sorted descending, eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


# the gufuncs numpy.linalg.eigh and eigvalsh call (default UPLO="L"), which
# return eigenvalues ascending
_EIGH = _umath_linalg.eigh_lo
_EIGVALSH = _umath_linalg.eigvalsh_lo

# herm_log keeps no tally of its clamps; the benchmark harness still reads
# `.count` of this stand-in, which is always 0
log_clamp_counter = SimpleNamespace(count=0)


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of `a` is finite (without the wrapper of `.all()`)."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def assert_finite(m: np.ndarray, what: str = "matrix") -> None:
    if not all_finite(m):
        raise ValueError(f"{what} contains non-finite entries")


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (A + A†)/2 of a matrix or of each matrix in a stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def hermitianize_in_place(a: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Replace `a` by its Hermitian part, with the bits of `hermitianize`; returns `a`.

    The conjugate goes into `scratch`, an array of a's shape, or a fresh one.
    """
    a += np.conjugate(a, out=scratch).swapaxes(-1, -2)
    a /= 2.0
    return a


def assert_hermitian(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Validate M = M† within HERMITIAN_RTOL relative to the largest entry.

    A real or imaginary part above HERMITIAN_PART_MAX is rejected too, before
    anything adds M to M†: the Hermitian part (M + M†)/2 would overflow.
    """
    m = as_matrix(m)
    assert_finite(m, what)
    if not m.size:
        return m
    largest = max(float(np.max(np.abs(m.real))), float(np.max(np.abs(m.imag))))
    if largest > HERMITIAN_PART_MAX:
        raise ValueError(
            f"{what} has an entry part of magnitude {largest!r}, above half the "
            "largest float, so its Hermitian part would overflow"
        )
    scale = 1.0 + float(np.max(np.abs(m)))
    defect = float(np.max(np.abs(m - m.conj().T)))
    if defect > HERMITIAN_RTOL * scale:
        raise ValueError(f"{what} is not Hermitian (defect {defect:.3e})")
    return m


@np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")
def _lapack(gufunc, signature: str, h: np.ndarray):
    """`gufunc(h)` under the error state numpy's eigh wrapper sets: the
    gufunc flags a LAPACK failure as invalid, which raises NumericalError
    here, in or outside an outer error state, without a warning."""
    try:
        return gufunc(h, signature=signature)
    except FloatingPointError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc


def trusted_eigvalsh(h: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of a Hermitian complex matrix or of each matrix
    in a stack, read by its lower triangle and real diagonal, with the bits
    of `numpy.linalg.eigvalsh`.

    Trusted kernel: nothing is checked.  A solver failure raises
    NumericalError; non-finite input can give a non-finite spectrum.
    """
    return _lapack(_EIGVALSH, "D->d", h)


def eigh_ascending(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and eigenvectors of a Hermitian complex matrix
    or of each matrix in a stack, as the LAPACK gufunc behind
    `numpy.linalg.eigh` returns them: it reads H by its lower triangle and
    real diagonal, so H need be Hermitian only there.

    Trusted kernel: nothing of H is checked but its finiteness.
    Non-finite input, for which `eigh` can return finite eigenvalues, and a
    solver failure raise NumericalError; the spectrum is not checked.
    """
    if not all_finite(h):
        raise NumericalError("non-finite input gives a non-finite spectrum")
    return _lapack(_EIGH, "D->dD", h)


def assert_finite_spectrum(w: np.ndarray) -> None:
    """NumericalError unless every entry of a spectrum stack is finite,
    checked in one pass over its entries as Python floats."""
    flat = w.ravel().tolist()
    # the sum is finite unless an entry is not, or it overflows
    if not math.isfinite(sum(flat)) and not all(map(math.isfinite, flat)):
        raise NumericalError("eigensolver returned a non-finite spectrum")


def trusted_hermitian_eig(h: np.ndarray) -> Spectrum:
    """Eigendecomposition, eigenvalues descending, of a Hermitian complex
    matrix or of each matrix in a (k, d, d) stack: one LAPACK call
    (`eigh_ascending`) read backwards and copied, since numpy's complex
    kernels round differently on strides.

    Trusted kernel with the preconditions and errors of `eigh_ascending`; a
    non-finite spectrum raises NumericalError too (`assert_finite_spectrum`).
    """
    w, v = eigh_ascending(h)
    assert_finite_spectrum(w)
    return Spectrum(w[..., ::-1].copy(), v[..., ::-1].copy())


def hermitian_eig(h) -> Spectrum:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Validates H, then decomposes its Hermitian part with
    `trusted_hermitian_eig`.  Reconstruction V diag(w) V† matches the input
    to ~1e-10 relative error.
    """
    return trusted_hermitian_eig(hermitianize(assert_hermitian(h)))


def spectral_log(spec: Spectrum) -> np.ndarray:
    """Logarithm of a PSD matrix from its `Spectrum` (w, V), descending: the
    Hermitian part of V log(w) V†.  An eigenvalue below -PSD_EIG_TOL is
    rejected, and one in [-PSD_EIG_TOL, LOG_EIG_FLOOR) is taken as underflow
    of a positive one and clamped."""
    w, v = spec
    if w[-1] < -PSD_EIG_TOL:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w[-1]:.3e})")
    return hermitianize((v * np.log(np.maximum(w, LOG_EIG_FLOOR))) @ v.conj().T)


def herm_log(h) -> np.ndarray:
    """Matrix logarithm of a PSD matrix: `spectral_log` of `hermitian_eig`."""
    return spectral_log(hermitian_eig(h))


def trace_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product tr(A†B)."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.sum(a.conj() * b))


def matrix_to_jsonable(m) -> list:
    """Encode a complex matrix as nested rows of [re, im] pairs."""
    m = as_matrix(m)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def is_number(value, kind=numbers.Real) -> bool:
    """Whether `value` is a JSON number of the numbers ABC `kind`; a bool is not."""
    return isinstance(value, kind) and not isinstance(value, bool)


def real_number(x, what: str, hint: str = "") -> float:
    """float(x) for a real number; a bool, a string such as "1" and an
    integer too large for a float are not one."""
    if is_number(x):
        try:
            return float(x)
        except OverflowError:
            raise ValueError(f"{what} is an integer too large for a float") from None
    raise ValueError(f"{what} must be a number{hint}, got {x!r}")


def matrix_from_jsonable(rows) -> np.ndarray:
    """Decode the [re, im] row encoding produced by `matrix_to_jsonable`."""
    if not isinstance(rows, list) or not rows:
        raise ValueError("matrix encoding must be a non-empty list of rows")
    n = len(rows)
    if not all(isinstance(row, list) and len(row) == n for row in rows):
        raise ValueError("matrix encoding must be square")
    m = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValueError("matrix entries must be [re, im] pairs")
            m[i, j] = complex(*(real_number(x, "matrix entry") for x in entry))
    assert_finite(m, "decoded matrix")
    return m
