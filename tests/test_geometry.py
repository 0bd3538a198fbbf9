import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qzsg import geometry, linalg
from qzsg.geometry import (
    FROBENIUS,
    VN_ENTROPY,
    Regularizer,
    logit_map,
    orth_project_spectraplex,
)


def random_density(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = g.conj().T @ g
    return linalg.hermitianize(a / np.trace(a).real)


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return linalg.hermitianize(g)


def simplex_project_bisection(v, tol=1e-14):
    # independent oracle: solve sum(max(v - theta, 0)) = 1 for theta by bisection
    lo, hi = np.min(v) - 1.0, np.max(v)
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if np.sum(np.maximum(v - mid, 0.0)) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return np.maximum(v - (lo + hi) / 2.0, 0.0)


# ---------------------------------------------------------------- simplex


def spectraplex_diagonal(v):
    # the projection of diag(v) is diagonal, and its diagonal is v's simplex projection
    return np.diag(orth_project_spectraplex(np.diag(v))).real


def test_simplex_project_pinned_cases():
    assert np.allclose(spectraplex_diagonal([2.0, 0.0]), [1.0, 0.0], atol=1e-15)
    assert np.allclose(spectraplex_diagonal([0.6, 0.6]), [0.5, 0.5], atol=1e-15)
    assert np.allclose(spectraplex_diagonal([-1.0, 1.0, 1.0]), [0.0, 0.5, 0.5], atol=1e-15)


def test_simplex_project_fixes_probability_vectors():
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = rng.dirichlet(np.ones(6))
        assert np.allclose(spectraplex_diagonal(p), p, atol=1e-12)


def test_simplex_project_matches_bisection_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = rng.standard_normal(rng.integers(1, 12)) * 3.0
        got = spectraplex_diagonal(v)
        assert np.all(got >= 0.0)
        assert np.isclose(np.sum(got), 1.0, atol=1e-12)
        assert np.allclose(got, simplex_project_bisection(v), atol=1e-9)


# ---------------------------------------------------------------- logit map


def test_logit_map_of_zero_is_uniform():
    for d in (2, 4, 8):
        assert np.allclose(logit_map(np.zeros((d, d))), np.eye(d) / d, atol=1e-15)


def test_logit_map_diagonal_example():
    got = logit_map(np.diag([math.log(3.0), 0.0]).astype(complex))
    assert np.allclose(got, np.diag([0.75, 0.25]), atol=1e-12)


def test_logit_map_shift_invariance():
    rng = np.random.default_rng(12)
    for _ in range(50):
        y = random_hermitian(4, rng)
        c = float(rng.uniform(-100.0, 100.0))
        shifted = logit_map(y + c * np.eye(4))
        assert np.max(np.abs(shifted - logit_map(y))) < 1e-10


def test_logit_map_matches_expm_oracle():
    rng = np.random.default_rng(13)
    for _ in range(25):
        y = random_hermitian(5, rng)
        e = scipy.linalg.expm(y)
        assert np.max(np.abs(logit_map(y) - e / np.trace(e).real)) < 1e-12


# ---------------------------------------------------------------- projection


def test_orth_project_pinned_cases():
    assert np.allclose(
        orth_project_spectraplex(np.diag([2.0, 0.0])), np.diag([1.0, 0.0]), atol=1e-15
    )
    assert np.allclose(
        orth_project_spectraplex(np.diag([0.6, 0.6])), np.diag([0.5, 0.5]), atol=1e-15
    )


def test_orth_project_idempotent_and_nonexpansive():
    rng = np.random.default_rng(14)
    for _ in range(50):
        a = random_hermitian(4, rng) * 2.0
        b = random_hermitian(4, rng) * 2.0
        pa, pb = orth_project_spectraplex(a), orth_project_spectraplex(b)
        assert np.max(np.abs(orth_project_spectraplex(pa) - pa)) < 1e-12
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12
        w = np.linalg.eigvalsh(pa)
        assert w[0] > -1e-12 and np.isclose(np.trace(pa).real, 1.0, atol=1e-12)


# ---------------------------------------------------------------- regularizers


def test_dgf_values():
    for d in (2, 4):
        assert VN_ENTROPY.dgf_value(np.eye(d) / d) == pytest.approx(-math.log(d))
        assert FROBENIUS.dgf_value(np.eye(d) / d) == pytest.approx(1.0 / (2 * d))
    pure = np.diag([1.0, 0.0]).astype(complex)
    assert VN_ENTROPY.dgf_value(pure) == 0.0


def test_bregman_of_point_with_itself_is_zero():
    rng = np.random.default_rng(15)
    x = random_density(4, rng)
    assert abs(VN_ENTROPY.bregman(x, x)) < 1e-12
    assert FROBENIUS.bregman(x, x) == 0.0


def test_entropy_bregman_matches_classical_kl():
    x = np.diag([0.7, 0.3]).astype(complex)
    y = np.diag([0.5, 0.5]).astype(complex)
    # 0.7*ln(1.4) + 0.3*ln(0.6)
    assert VN_ENTROPY.bregman(x, y) == pytest.approx(0.08228287850505178, abs=1e-12)


def test_entropy_bregman_rejects_singular_reference():
    x = np.eye(2) / 2.0
    with pytest.raises(ValueError, match="singular"):
        VN_ENTROPY.bregman(x, np.diag([1.0, 0.0]))


def test_frobenius_bregman_is_half_squared_distance():
    rng = np.random.default_rng(16)
    x, y = random_density(4, rng), random_density(4, rng)
    assert FROBENIUS.bregman(x, y) == pytest.approx(0.5 * np.linalg.norm(x - y) ** 2)


def test_entropy_bregman_pinsker_lower_bound():
    # strong convexity: D(X||Y) >= ||X - Y||_1^2 / 2 with mu = 1 in Schatten-1
    rng = np.random.default_rng(17)
    for dim in (2, 4):
        for _ in range(500):
            x, y = random_density(dim, rng), random_density(dim, rng)
            lhs = VN_ENTROPY.bregman(x, y)
            rhs = 0.5 * linalg.schatten1_norm(x - y) ** 2
            assert lhs >= rhs - 1e-10


def test_frobenius_bregman_strong_convexity_is_tight():
    rng = np.random.default_rng(18)
    for _ in range(500):
        x, y = random_density(2, rng), random_density(2, rng)
        assert FROBENIUS.bregman(x, y) == pytest.approx(
            0.5 * np.linalg.norm(x - y) ** 2, abs=1e-12
        )


def test_entropy_three_point_identity():
    rng = np.random.default_rng(19)
    for _ in range(50):
        z, x, y = (random_density(4, rng) for _ in range(3))
        lhs = linalg.trace_inner(z - x, linalg.herm_log(x) - linalg.herm_log(y)).real
        rhs = (
            VN_ENTROPY.bregman(z, y)
            - VN_ENTROPY.bregman(x, y)
            - VN_ENTROPY.bregman(z, x)
        )
        assert abs(lhs - rhs) < 1e-8


# ---------------------------------------------------------------- maps


def test_mirror_map_outputs_are_density_matrices():
    rng = np.random.default_rng(21)
    for mirror_map in (logit_map, orth_project_spectraplex):
        for _ in range(50):
            out = mirror_map(random_hermitian(4, rng) * 5.0)
            w = np.linalg.eigvalsh(out)
            assert w[0] > -1e-9
            assert np.isclose(np.trace(out).real, 1.0, atol=1e-10)
            assert linalg.hermiticity_defect(out) < 1e-12


def test_proximal_map_zero_gradient_is_identity():
    rng = np.random.default_rng(22)
    x = random_density(4, rng)
    zero = np.zeros_like(x)
    assert np.max(np.abs(VN_ENTROPY.proximal_map(x, zero, 0.7) - x)) < 1e-10
    assert np.max(np.abs(FROBENIUS.proximal_map(x, zero, 0.7) - x)) < 1e-12


def test_proximal_map_validates():
    x = np.eye(2) / 2.0
    g = np.zeros((2, 2))
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="eta"):
            VN_ENTROPY.proximal_map(x, g, bad)
    with pytest.raises(ValueError, match="shape mismatch"):
        VN_ENTROPY.proximal_map(x, np.zeros((3, 3)), 0.5)


def test_entropy_proximal_matches_classical_mwu():
    # commuting diagonals reduce to multiplicative weights x_i e^(eta g_i) / Z
    rng = np.random.default_rng(23)
    for _ in range(50):
        x = rng.dirichlet(np.ones(4))
        g = rng.uniform(-1.0, 1.0, size=4)
        eta = float(rng.uniform(0.05, 2.0))
        got = VN_ENTROPY.proximal_map(np.diag(x).astype(complex), np.diag(g), eta)
        weights = x * np.exp(eta * g)
        assert np.allclose(got, np.diag(weights / weights.sum()), atol=1e-10)


def test_dual_accumulate_consistent_with_proximal():
    # playing the advanced dual state reproduces the primal proximal step
    rng = np.random.default_rng(24)
    for _ in range(25):
        d = random_hermitian(4, rng)
        g = random_hermitian(4, rng)
        eta = float(rng.uniform(0.05, 1.0))
        via_dual = VN_ENTROPY.play(VN_ENTROPY.advance(d, g, eta))
        via_primal = VN_ENTROPY.proximal_map(VN_ENTROPY.play(d), g, eta)
        assert np.max(np.abs(via_dual - via_primal)) < 1e-9


def test_dual_accumulate_basics():
    zero = VN_ENTROPY.start(np.eye(2, dtype=complex) / 2.0)
    assert np.array_equal(zero, np.zeros((2, 2)))
    assert np.allclose(VN_ENTROPY.play(zero), np.eye(2) / 2.0, atol=1e-15)
    out = VN_ENTROPY.advance(zero, zero, 0.5)
    assert np.array_equal(out, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="eta"):
        VN_ENTROPY.advance(zero, zero, 0.0)
    with pytest.raises(ValueError):
        VN_ENTROPY.advance(zero, np.zeros((3, 3)), 0.5)


# ---------------------------------------------------------------- boundary


def exactly_hermitian(dim):
    # hermitianize outputs are Hermitian bit for bit, as every solver-loop matrix is
    parts = arrays(np.float64, (dim, dim, 2), elements=st.floats(-1e3, 1e3))
    return parts.map(lambda a: linalg.hermitianize(a[..., 0] + 1j * a[..., 1]))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 4, 8]).flatmap(
        lambda d: st.tuples(exactly_hermitian(d), exactly_hermitian(d))
    ),
    st.floats(1e-3, 10.0),
)
def test_trusted_maps_equal_public_maps_on_exactly_hermitian_input(yg, eta):
    y, g = yg
    assert np.array_equal(VN_ENTROPY.play(y), logit_map(y))
    assert np.array_equal(VN_ENTROPY.trusted_mirror_map(y), logit_map(y))
    assert np.array_equal(FROBENIUS.trusted_mirror_map(y), orth_project_spectraplex(y))
    x = orth_project_spectraplex(y)
    assert np.array_equal(
        FROBENIUS.advance(FROBENIUS.start(x), g, eta), FROBENIUS.proximal_map(x, g, eta)
    )


NOT_HERMITIAN = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
NON_FINITE = [np.diag([math.nan, 1.0]).astype(complex), np.diag([math.inf, 0.0]).astype(complex)]


@pytest.mark.parametrize(
    "bad,match",
    [(NOT_HERMITIAN, "not Hermitian")] + [(m, "non-finite") for m in NON_FINITE],
)
def test_public_maps_and_start_reject_bad_input(bad, match):
    x = np.eye(2, dtype=complex) / 2.0
    for call in (
        lambda: logit_map(bad),
        lambda: orth_project_spectraplex(bad),
        lambda: linalg.hermitian_eig(bad),
    ):
        with pytest.raises(ValueError, match=match):
            call()
    for reg in (VN_ENTROPY, FROBENIUS):
        for call in (
            lambda: reg.proximal_map(bad, x, 0.5),
            lambda: reg.proximal_map(x, bad, 0.5),
            lambda: reg.bregman(bad, x),
            lambda: reg.bregman(x, bad),
            lambda: reg.dgf_value(bad),
            lambda: reg.start(bad),
        ):
            with pytest.raises(ValueError, match=match):
                call()


# ---------------------------------------------------------------- stack kernels
# The solver loop maps (k, d, d) stacks in one call; each slice must equal the
# public 2-D map of its matrix bit for bit, ties included.

TIED_SPECTRUM = [-1.5, 0.0, 0.25, 2.0]


def hermitian_member(dim):
    tied = st.lists(st.sampled_from(TIED_SPECTRUM), min_size=dim, max_size=dim)
    return st.one_of(
        exactly_hermitian(dim), tied.map(lambda w: np.diag(w).astype(complex))
    )


def hermitian_stacks():
    return st.tuples(st.sampled_from([1, 2, 3]), st.sampled_from([2, 4, 8])).flatmap(
        lambda kd: st.lists(hermitian_member(kd[1]), min_size=kd[0], max_size=kd[0])
    ).map(np.array)


@settings(max_examples=80, deadline=None)
@given(hermitian_stacks())
def test_stack_kernels_equal_the_public_maps_slice_by_slice(y):
    spec = linalg.trusted_hermitian_eig(y)
    logits = VN_ENTROPY.trusted_mirror_map(y)
    projections = FROBENIUS.trusted_mirror_map(y)
    for i, m in enumerate(y):
        one = linalg.hermitian_eig(m)
        assert np.array_equal(spec.eigenvalues[i], one.eigenvalues)
        assert np.array_equal(spec.eigenvectors[i], one.eigenvectors)
        assert np.array_equal(logits[i], logit_map(m))
        assert np.array_equal(projections[i], orth_project_spectraplex(m))


@settings(max_examples=40, deadline=None)
@given(hermitian_stacks(), st.data())
def test_projection_stack_raises_when_one_member_loses_its_support(y, data):
    # a spectrum of equal huge entries: each u_j - (css_j - 1)/j rounds to 0
    i = data.draw(st.integers(0, len(y) - 1))
    y = y.copy()
    y[i] = 1e17 * np.eye(y.shape[1])
    with pytest.raises(linalg.NumericalError, match="lost its support"):
        FROBENIUS.trusted_mirror_map(y)
    FROBENIUS.trusted_mirror_map(np.delete(y, i, axis=0))  # the others keep theirs


@settings(max_examples=40, deadline=None)
@given(hermitian_stacks(), st.data())
def test_stack_kernels_raise_on_one_non_finite_member(y, data):
    i = data.draw(st.integers(0, len(y) - 1))
    y = y.copy()
    y[i, 0, 0] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    for kernel in (
        linalg.trusted_hermitian_eig,
        VN_ENTROPY.trusted_mirror_map,
        FROBENIUS.trusted_mirror_map,
    ):
        with pytest.raises(linalg.NumericalError):
            kernel(y)


# ---------------------------------------------------------------- registry


def test_registry_metadata():
    assert isinstance(VN_ENTROPY, Regularizer)
