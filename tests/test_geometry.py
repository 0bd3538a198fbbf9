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


def clip_oracle(u):
    # the vectorized rule that `_clip_spectra` replaced, kept as a bit oracle:
    # cumsum thresholds, the last index in the support, then fancy indexing;
    # None when some row loses its support
    rows = u.reshape(-1, u.shape[-1])
    k, d = rows.shape
    thresholds = (rows.cumsum(1) - 1.0) / np.arange(1.0, d + 1.0)
    support = rows > thresholds
    if not support.any(1).all():
        return None
    rho = d - 1 - support[:, ::-1].argmax(1)
    theta = thresholds[np.arange(k), rho].reshape(u.shape[:-1] + (1,))
    return np.maximum(u - theta, 0.0)


@st.composite
def descending_row(draw, d):
    ties = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0])
    scale = draw(st.sampled_from([1.0, 1e3, 1e17]))
    entries = st.one_of(ties, st.floats(-10.0, 10.0))
    row = sorted((scale * x for x in draw(st.lists(entries, min_size=d, max_size=d))), reverse=True)
    if d > 1 and draw(st.booleans()):
        # entry j on the running threshold t_j of the entries before it, or an ulp off
        j = draw(st.integers(1, d - 1))
        s = 0.0
        for x in row[:j]:
            s += x
        t = (s - 1.0) / j
        t = draw(st.sampled_from([math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)]))
        row[j] = min(t, row[j - 1])
        row[j + 1:] = [min(x, row[j]) for x in row[j + 1:]]
    return row


def spectrum_stacks():
    # k = 0 draws one 1-D spectrum, as the 2-D public maps clip
    shapes = st.tuples(st.sampled_from([0, 1, 2, 3]), st.integers(1, 8))
    return shapes.flatmap(
        lambda kd: st.lists(descending_row(kd[1]), min_size=max(kd[0], 1), max_size=max(kd[0], 1))
        .map(lambda rows: np.array(rows if kd[0] else rows[0]))
    )


@settings(max_examples=400, deadline=None)
@given(spectrum_stacks())
def test_clip_spectra_equals_the_vectorized_rule_pinned(w):
    want = clip_oracle(w)
    if want is None:
        with pytest.raises(linalg.NumericalError, match="lost its support"):
            geometry._clip_spectra(w)
    else:
        assert geometry._clip_spectra(w)[0].tobytes() == want.tobytes()


def test_clip_spectra_keeps_the_last_support_index_pinned():
    # t_1 = -1.963836836182 is in the support; t_2 = -1.9638368361819998 is
    # out of it but larger.  The closed form theta = max_k t_k, equal to the
    # rule in exact arithmetic, would take t_2 and give [1 - 2^-52, 0]
    u = np.array([-0.963836836182, -1.9638368361819998])
    assert geometry._clip_spectra(u)[0].tolist() == [1.0, 2.220446049250313e-16]
    assert geometry._clip_spectra(u)[0].tobytes() == clip_oracle(u).tobytes()
    # a clipped -0.0 is +0.0, as numpy's maximum leaves it
    assert not np.signbit(geometry._clip_spectra(np.array([1.0, -0.0]))[0]).any()


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


def test_bregman_rejects_mismatched_shapes():
    for reg in (VN_ENTROPY, FROBENIUS):
        with pytest.raises(ValueError, match="shape mismatch"):
            reg.bregman(np.eye(2) / 2, np.eye(4) / 4)


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
            assert np.max(np.abs(out - out.conj().T)) < 1e-12


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
        via_dual = VN_ENTROPY.play(VN_ENTROPY.advance(d, eta * g))
        via_primal = VN_ENTROPY.proximal_map(VN_ENTROPY.play(d), g, eta)
        assert np.max(np.abs(via_dual - via_primal)) < 1e-9


def test_dual_accumulate_basics():
    zero = VN_ENTROPY.start(np.eye(2, dtype=complex) / 2.0)
    assert np.array_equal(zero, np.zeros((2, 2)))
    assert np.allclose(VN_ENTROPY.play(zero), np.eye(2) / 2.0, atol=1e-15)
    out = VN_ENTROPY.advance(zero, 0.5 * zero)
    assert np.array_equal(out, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        VN_ENTROPY.advance(zero, 0.5 * np.zeros((3, 3)))


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
        FROBENIUS.advance(FROBENIUS.start(x), eta * g), FROBENIUS.proximal_map(x, g, eta)
    )


NOT_HERMITIAN = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
NON_FINITE = [np.diag([math.nan, 1.0]).astype(complex), np.diag([math.inf, 0.0]).astype(complex)]
# finite, but (A + A†)/2 would overflow
HUGE = np.diag([1.5e308, 1.5e308]).astype(complex)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "bad,match",
    [(NOT_HERMITIAN, "not Hermitian")]
    + [(m, "non-finite") for m in NON_FINITE]
    + [(HUGE, r"1\.5e\+308.*overflow")],
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


def test_start_rejects_a_state_that_is_not_a_density_matrix():
    for reg in (VN_ENTROPY, FROBENIUS):
        with pytest.raises(ValueError, match="trace"):
            reg.start(np.diag([2.0, 0.5]).astype(complex))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            reg.start(np.diag([1.5, -0.5]).astype(complex))


# ---------------------------------------------------------------- stack kernels
# The solver loop maps (k, d, d) stacks in one call; each slice must equal the
# public 2-D map of its matrix bit for bit, ties included.

TIED_SPECTRUM = [-1.5, 0.0, 0.25, 2.0]


def hermitian_member(dim):
    tied = st.lists(st.sampled_from(TIED_SPECTRUM), min_size=dim, max_size=dim)
    return st.one_of(
        exactly_hermitian(dim), tied.map(lambda w: np.diag(w).astype(complex))
    )


def hermitian_stacks(dims=(2, 4, 8), member=hermitian_member):
    return st.tuples(st.sampled_from([1, 2, 3]), st.sampled_from(dims)).flatmap(
        lambda kd: st.lists(member(kd[1]), min_size=kd[0], max_size=kd[0])
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


def projection_member(dim):
    # diag(1, -0.0, 0.0, ...) ties a signed zero with +0.0 from d = 3 on; the
    # spectrum of 1e17 I loses its simplex support to rounding; that of
    # 5e307 J (all entries equal) overflows from d = 4 on, with each entry
    # below HERMITIAN_PART_MAX; diag(8e307, 7e307, 6e307, 0, ...) has a finite
    # spectrum whose sum overflows from d = 3 on; sums of these with other
    # members overflow
    return st.one_of(
        hermitian_member(dim),
        st.just(np.diag(([1.0, -0.0] + [0.0] * dim)[:dim]).astype(complex)),
        st.just(1e17 * np.eye(dim, dtype=complex)),
        st.just(np.full((dim, dim), 5e307, dtype=complex)),
        st.just(np.diag(([8e307, 7e307, 6e307] + [0.0] * dim)[:dim]).astype(complex)),
    )


def reference_projection(spec):
    # the projection as composed before its fused kernel, from parts that
    # share no code with it: the vectorized clip of the descending spectrum,
    # then V diag(lam) V† and its Hermitian part
    w, v = spec
    lam = clip_oracle(w)
    if lam is None:
        lost = next(row[0] for row in w.reshape(-1, w.shape[-1]) if clip_oracle(row) is None)
        raise linalg.NumericalError(
            f"simplex projection lost its support to rounding (max entry {lost:.3e})"
        )
    return linalg.hermitianize_in_place((v * lam[..., None, :]) @ v.conj().swapaxes(-1, -2))


def outcome(call):
    try:
        return call().tobytes()
    except (linalg.NumericalError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=150, deadline=None)
@given(hermitian_stacks((1, 2, 4, 8), projection_member), st.floats(1e-3, 10.0))
@np.errstate(over="ignore")
def test_projection_entry_points_equal_the_composed_reference_pinned(y, eta):
    def trusted(m):
        return lambda: reference_projection(linalg.trusted_hermitian_eig(m))

    def public(m):
        return lambda: reference_projection(linalg.hermitian_eig(m))

    g = y[::-1].copy()
    assert outcome(lambda: FROBENIUS.trusted_mirror_map(y)) == outcome(trusted(y))
    assert outcome(lambda: FROBENIUS.advance(y, eta * g)) == outcome(trusted(y + eta * g))
    for x, gx in zip(y, g):
        assert outcome(lambda: orth_project_spectraplex(x)) == outcome(public(x))
        assert outcome(lambda: FROBENIUS.proximal_map(x, gx, eta)) == outcome(
            public(x + eta * gx)
        )


def reference_logit(spec):
    # the logit map as composed before its buffered kernel: the shifted
    # exponential of the contiguous descending spectrum, V diag(e) V† / sum(e),
    # and its Hermitian part
    w, v = spec
    e = np.exp(w - w[..., :1])
    rho = (v * e[..., None, :]) @ v.conj().swapaxes(-1, -2)
    rho /= e.sum(axis=-1)[..., None, None]
    return linalg.hermitianize_in_place(rho)


def buffered_member(dim):
    non_finite = st.sampled_from([math.nan, math.inf, -math.inf]).map(
        lambda x: np.diag(([x] + [0.0] * dim)[:dim]).astype(complex))
    return st.one_of(projection_member(dim), non_finite)


@settings(max_examples=150, deadline=None)
@given(hermitian_stacks((1, 2, 4, 8), buffered_member), st.floats(1e-3, 10.0))
@np.errstate(over="ignore", invalid="ignore")
def test_buffered_maps_equal_the_fresh_maps_and_the_composed_references(y, eta):
    # the solver loop maps into buffers made once, the played point in place
    out, scratch = np.empty_like(y), geometry.MapScratch(y.shape)
    composed = {VN_ENTROPY: reference_logit, FROBENIUS: reference_projection}
    for reg, reference in composed.items():
        want = outcome(lambda: reference(linalg.trusted_hermitian_eig(y)))
        assert outcome(lambda: reg.trusted_mirror_map(y)) == want
        for _ in range(2):  # nothing carries over from one call to the next
            assert outcome(lambda: reg.trusted_mirror_map(y, out, scratch)) == want
        in_place = y.copy()
        assert outcome(lambda: reg.trusted_mirror_map(in_place, in_place, scratch)) == want
    g = y[::-1].copy()
    step = eta * g
    want = outcome(lambda: reference_projection(linalg.trusted_hermitian_eig(y + step)))
    state = y.copy()
    assert outcome(lambda: FROBENIUS.advance(state, step, state, scratch)) == want
    for x in y:
        assert outcome(lambda: logit_map(x)) == outcome(
            lambda: reference_logit(linalg.hermitian_eig(x)))


# ---------------------------------------------------------------- registry


def test_registry_metadata():
    assert isinstance(VN_ENTROPY, Regularizer)
