import numpy as np
import pytest

from qzsg import linalg
from qzsg.linalg import (
    NumericalError,
    assert_hermitian,
    herm_log,
    hermitian_eig,
    hermitianize,
    matrix_from_jsonable,
    matrix_to_jsonable,
    schatten1_norm,
    spectral_fn,
    spectral_norm,
    trace_inner,
)

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitianize(g)


def test_hermitianize_is_hermitian_part():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = hermitianize(a)
    assert np.array_equal(h, h.conj().T)
    # idempotent on Hermitian input
    assert np.array_equal(hermitianize(h), h)


def test_assert_hermitian_accepts_and_rejects():
    assert_hermitian(Z)
    with pytest.raises(ValueError, match="not Hermitian"):
        assert_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        assert_hermitian(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        assert_hermitian(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_assert_hermitian_tolerance_is_relative():
    # defect 1e-8 on entries of size 1e4 is within the relative gate
    big = 1e4 * np.eye(2, dtype=complex)
    big[0, 1] = 1e-8
    assert_hermitian(big)


def test_eig_pauli_z():
    spec = hermitian_eig(Z)
    assert np.array_equal(spec.eigenvalues, [1.0, -1.0])


def test_eig_sorted_descending_and_reconstructs():
    rng = np.random.default_rng(1)
    for _ in range(20):
        h = random_hermitian(8, rng)
        w, v = hermitian_eig(h)
        assert np.all(np.diff(w) <= 0)
        rec = (v * w) @ v.conj().T
        assert np.linalg.norm(rec - h) / np.linalg.norm(h) < 1e-10


def test_eig_failure_raises_numerical_error(monkeypatch):
    def broken(_):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", broken)
    with pytest.raises(NumericalError, match="failed to converge"):
        hermitian_eig(Z)


def test_trusted_eig_equals_public_on_exactly_hermitian_input():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 4, 8):
        h = random_hermitian(dim, rng)
        trusted, public = linalg.trusted_hermitian_eig(h), hermitian_eig(h)
        assert np.array_equal(trusted.eigenvalues, public.eigenvalues)
        assert np.array_equal(trusted.eigenvectors, public.eigenvectors)


def test_trusted_eig_raises_numerical_errors(monkeypatch):
    # eigh returns NaN eigenvalues for these rather than raising
    for bad in (np.diag([np.nan, 1.0]), np.diag([np.inf, 1.0]), np.full((2, 2), np.nan)):
        with pytest.raises(NumericalError, match="non-finite spectrum"):
            linalg.trusted_hermitian_eig(bad.astype(complex))

    def broken(_):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", broken)
    with pytest.raises(NumericalError, match="failed to converge"):
        linalg.trusted_hermitian_eig(Z)


def test_spectral_fn_exp_of_zero_is_identity():
    assert np.array_equal(spectral_fn(np.zeros((3, 3)), np.exp), np.eye(3))


def test_spectral_fn_rejects_undefined_values():
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="undefined at eigenvalue"):
            spectral_fn(np.diag([1.0, -1.0]), np.log)


def test_log_exp_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(10):
        h = random_hermitian(6, rng)
        back = herm_log(spectral_fn(h, np.exp))
        assert np.linalg.norm(back - h) < 1e-9


def test_herm_log_rejects_negative_and_clamps_underflow():
    with pytest.raises(ValueError, match="not PSD"):
        herm_log(np.diag([1.0, -1.0]))
    # 0 is treated as underflow of a positive value
    w = np.linalg.eigvalsh(herm_log(np.diag([1.0, 0.0])))
    assert w == pytest.approx([np.log(linalg.LOG_EIG_FLOOR), 0.0])


def test_norm_helpers_agree_with_numpy():
    rng = np.random.default_rng(4)
    h = random_hermitian(5, rng)
    w = np.linalg.eigvalsh(h)
    assert schatten1_norm(h) == pytest.approx(np.sum(np.abs(w)))
    assert spectral_norm(h) == pytest.approx(np.max(np.abs(w)))


def test_trace_inner_pauli():
    assert trace_inner(Z, Z) == 2.0
    assert trace_inner(Z, X) == 0.0
    with pytest.raises(ValueError, match="shape mismatch"):
        trace_inner(Z, np.eye(3))


def test_matrix_json_round_trip_is_bit_exact():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rec = matrix_from_jsonable(matrix_to_jsonable(m))
    assert np.array_equal(rec, m)


def test_matrix_from_jsonable_validates():
    with pytest.raises(ValueError, match="non-empty"):
        matrix_from_jsonable([])
    with pytest.raises(ValueError, match="square"):
        matrix_from_jsonable([[[1.0, 0.0]], [[1.0, 0.0]], [[0.0, 0.0]]])
    with pytest.raises(ValueError, match=r"\[re, im\]"):
        matrix_from_jsonable([[[1.0]]])
