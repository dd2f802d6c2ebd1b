"""Linear-operator tests against independently built dense oracles.

The oracles here are constructed without touching the implementation's FFT
path: circulant matrices are filled entry by entry from the kernel, the
Fourier operator is compared against an explicitly materialized unitary DFT
matrix, and inverses are checked against numpy.linalg dense solves.
"""

import tracemalloc

import numpy as np
import pytest

from ballast import (
    CircularConvolution,
    CountingOperator,
    PartialFourier,
    PixelMask,
    RealPartialFourier,
    SynthesisOperator,
    UndecimatedHaar,
    add_noise,
)
from conftest import materialize_composed, materialize_forward


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def dense_circulant(kernel, shape):
    """Entry-wise 2D circulant matrix: C[p, q] = k[(rp - rq) % H, (cp - cq) % W].

    Built directly from the (normalized, centered) kernel taps, independent of
    any FFT code path.
    """
    kernel = np.asarray(kernel, dtype=float)
    kernel = kernel / kernel.sum()
    H, W = shape
    kh, kw = kernel.shape
    n = H * W
    C = np.zeros((n, n))
    # tap (i, j) of the centered kernel acts at circular offset (i-kh//2, j-kw//2)
    for i in range(kh):
        for j in range(kw):
            di, dj = i - kh // 2, j - kw // 2
            for r in range(H):
                for c in range(W):
                    p = r * W + c
                    q = ((r - di) % H) * W + ((c - dj) % W)
                    C[p, q] += kernel[i, j]
    return C


def dense_unitary_dft(n_side):
    """Explicit unitary 2D DFT matrix for an n_side x n_side grid."""
    n = n_side * n_side
    F1 = np.array(
        [
            [np.exp(-2j * np.pi * p * q / n_side) for q in range(n_side)]
            for p in range(n_side)
        ]
    ) / np.sqrt(n_side)
    return np.kron(F1, F1).reshape(n, n)


def sample_operators(side=8, seed=7):
    rng = np.random.default_rng(seed)
    shape = (side, side)
    kernel = rng.random((3, 3)) + 0.1
    conv = CircularConvolution(kernel, shape)
    mask = np.zeros(shape, dtype=bool)
    mask.ravel()[rng.choice(side * side, size=24, replace=False)] = True
    pixel = PixelMask(mask)
    fmask = np.zeros(shape, dtype=bool)
    fmask.ravel()[rng.choice(side * side, size=20, replace=False)] = True
    fmask[0, 0] = True
    fourier = PartialFourier(fmask)
    return conv, pixel, fourier


# ---------------------------------------------------------------------------
# forward / adjoint behavior
# ---------------------------------------------------------------------------

def test_delta_kernel_convolution_is_identity(rng):
    op = CircularConvolution(np.array([[1.0]]), (6, 5))
    x = rng.standard_normal((6, 5))
    np.testing.assert_allclose(op.forward(x), x, atol=1e-14)
    np.testing.assert_allclose(op.adjoint(x), x, atol=1e-14)


def test_all_true_mask_is_identity(rng):
    op = PixelMask(np.ones((4, 7), dtype=bool))
    x = rng.standard_normal((4, 7))
    np.testing.assert_array_equal(op.forward(x), x.ravel())
    np.testing.assert_array_equal(op.adjoint(x.ravel()), x)


def test_uniform_kernel_convolution_matches_dense_circulant(rng):
    shape = (8, 8)
    kernel = np.ones((3, 3))
    op = CircularConvolution(kernel, shape)
    C = dense_circulant(kernel, shape)
    x = rng.standard_normal(shape)
    got = np.ravel(op.forward(x))
    want = C @ x.ravel()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_asymmetric_kernel_convolution_matches_dense_circulant(rng):
    shape = (8, 6)
    kernel = rng.random((3, 5)) + 0.2
    op = CircularConvolution(kernel, shape)
    C = dense_circulant(kernel, shape)
    for _ in range(3):
        x = rng.standard_normal(shape)
        np.testing.assert_allclose(
            np.ravel(op.forward(x)), C @ x.ravel(), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            np.ravel(op.adjoint(x)), C.T @ x.ravel(), rtol=0, atol=1e-12
        )


def test_partial_fourier_matches_explicit_dft_matrix(rng):
    side = 8
    _, _, fourier = sample_operators(side)
    F = dense_unitary_dft(side)
    rows = np.flatnonzero(fourier.mask.ravel())
    B = F[rows, :]
    x = rng.standard_normal((side, side))
    np.testing.assert_allclose(fourier.forward(x), B @ x.ravel(), atol=1e-12)
    r = rng.standard_normal(len(rows)) + 1j * rng.standard_normal(len(rows))
    np.testing.assert_allclose(
        np.ravel(fourier.adjoint(r)), B.conj().T @ r, atol=1e-12
    )


def test_pixel_mask_adjoint_scatters(rng):
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 2] = mask[3, 0] = True
    op = PixelMask(mask)
    out = op.adjoint(np.array([5.0, -2.0]))
    want = np.zeros((4, 4))
    want[1, 2], want[3, 0] = 5.0, -2.0
    np.testing.assert_array_equal(out, want)


def test_forward_is_linear(rng):
    for op in sample_operators():
        x1 = rng.standard_normal(op.in_shape)
        x2 = rng.standard_normal(op.in_shape)
        lhs = op.forward(2.5 * x1 - 1.25 * x2)
        rhs = 2.5 * op.forward(x1) - 1.25 * op.forward(x2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_adjoint_identity_all_families(rng):
    conv, pixel, fourier = sample_operators()
    frame = UndecimatedHaar((8, 8), levels=2)
    composed = SynthesisOperator(conv, frame)
    for op in (conv, pixel, fourier, composed):
        for _ in range(100):
            x = rng.standard_normal(op.in_shape)
            y = op.forward(x)
            r = rng.standard_normal(y.shape)
            if np.iscomplexobj(y):
                r = r + 1j * rng.standard_normal(y.shape)
            lhs = np.vdot(r, op.forward(x))
            rhs = np.vdot(op.adjoint(r), x)
            scale = (
                np.linalg.norm(np.ravel(op.forward(x))) * np.linalg.norm(np.ravel(r))
                + np.linalg.norm(np.ravel(x)) * np.linalg.norm(np.ravel(op.adjoint(r)))
            )
            assert abs(lhs - rhs) <= 1e-10 * scale


def test_selection_rows_forward_adjoint_round_trip(rng):
    _, pixel, fourier = sample_operators()
    r = rng.standard_normal(pixel.out_shape)
    np.testing.assert_allclose(pixel.forward(pixel.adjoint(r)), r, atol=1e-13)
    rc = rng.standard_normal(fourier.out_shape) + 1j * rng.standard_normal(
        fourier.out_shape
    )
    np.testing.assert_allclose(fourier.forward(fourier.adjoint(rc)), rc, atol=1e-12)


def test_shape_mismatch_raises():
    conv, pixel, fourier = sample_operators()
    bad = np.zeros((3, 3))
    for op in (conv, pixel, fourier):
        with pytest.raises(ValueError):
            op.forward(bad)
        with pytest.raises(ValueError):
            op.adjoint(np.zeros(999))


def test_real_fourier_rejects_complex_images():
    # the real-linear operator's domain is real images; a complex one is an
    # error that names that domain, not a silently dropped imaginary part
    op = RealPartialFourier(sample_operators()[2].mask)
    image = np.ones(op.in_shape) + 1j
    for apply in (op.forward, op.shifted_normal_inverse):
        with pytest.raises(ValueError, match="domain is real images"):
            apply(image)
    assert op.forward(image.real).shape == op.out_shape


def test_zero_sum_kernel_rejected():
    with pytest.raises(ValueError):
        CircularConvolution(np.array([[1.0, -1.0]]), (4, 4))


def test_convolution_keeps_only_its_response_and_inverse_filter():
    # the complex half spectrum H (1.02 images) and the real inverse filter
    # (0.51): 1.54 images held after construction at 128^2, against 3.55
    # with a stored padded kernel and conj(H)
    tracemalloc.start()
    try:
        op = CircularConvolution(np.ones((9, 9)), (128, 128))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert op.freq_response.shape == (128, 65)
    assert held <= 1.6 * 128 * 128 * 8, held / (128 * 128 * 8)


# ---------------------------------------------------------------------------
# closed-form shifted-normal inverses
# ---------------------------------------------------------------------------

def test_delta_kernel_inverse_halves(rng):
    op = CircularConvolution(np.array([[1.0]]), (5, 5))
    r = rng.standard_normal((5, 5))
    np.testing.assert_allclose(op.shifted_normal_inverse(r), r / 2.0, atol=1e-14)


def test_mask_inverse_halves_observed_pixels_only(rng):
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 1] = mask[2, 3] = True
    op = PixelMask(mask)
    r = rng.standard_normal((4, 4))
    out = op.shifted_normal_inverse(r)
    np.testing.assert_allclose(out[mask], r[mask] / 2.0, atol=1e-15)
    np.testing.assert_allclose(out[~mask], r[~mask], atol=1e-15)


def test_inverse_identity_via_forward_adjoint_only(rng):
    conv, pixel, fourier = sample_operators()
    frame = UndecimatedHaar((8, 8), levels=2)
    cases = [conv, pixel, fourier,
             SynthesisOperator(conv, frame),
             SynthesisOperator(pixel, frame),
             SynthesisOperator(fourier, frame)]
    for op in cases:
        r = rng.standard_normal(op.in_shape)
        u = op.shifted_normal_inverse(r)
        back = u + op.adjoint(op.forward(u))
        err = np.linalg.norm(np.ravel(back - r)) / np.linalg.norm(np.ravel(r))
        assert err <= 1e-8, f"{type(op).__name__}: {err}"


def test_inverse_matches_dense_solve_all_six_families(rng):
    conv, pixel, fourier = sample_operators()
    frame = UndecimatedHaar((8, 8), levels=1)
    base_cases = {"conv": conv, "mask": pixel, "fourier": fourier}
    for name, base in base_cases.items():
        A = materialize_forward(base)
        n = A.shape[1]
        M = np.eye(n) + A.conj().T @ A
        r = rng.standard_normal((8, 8))
        want = np.linalg.solve(M, r.ravel()).reshape(8, 8)
        got = base.shifted_normal_inverse(r)
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert err <= 1e-8, f"{name} direct: {err}"

        composed = SynthesisOperator(base, frame)
        Ac = materialize_composed(base, frame)
        d = Ac.shape[1]
        Mc = np.eye(d) + Ac.conj().T @ Ac
        beta = rng.standard_normal(d)
        want_c = np.linalg.solve(Mc, beta)
        got_c = composed.shifted_normal_inverse(beta)
        err_c = np.linalg.norm(got_c - want_c) / np.linalg.norm(want_c)
        assert err_c <= 1e-8, f"{name} composed: {err_c}"


def test_nested_composition_rejected(rng):
    conv, _, _ = sample_operators()
    frame = UndecimatedHaar((8, 8), levels=1)
    composed = SynthesisOperator(conv, frame)
    # a composition's domain is the coefficient vector, not the frame's image
    with pytest.raises(ValueError):
        SynthesisOperator(composed, frame)
    counted = CountingOperator(conv)
    composed_counted = SynthesisOperator(counted, frame)
    beta = rng.standard_normal(frame.coefficient_length)
    np.testing.assert_array_equal(composed_counted.forward(beta), composed.forward(beta))
    assert (counted.forward_calls, counted.adjoint_calls) == (1, 0)


# ---------------------------------------------------------------------------
# counting wrapper
# ---------------------------------------------------------------------------

def test_counting_wrapper_counts_and_delegates(rng):
    conv, _, _ = sample_operators()
    counted = CountingOperator(conv)
    x = rng.standard_normal((8, 8))
    y = counted.forward(x)
    counted.adjoint(y)
    counted.adjoint(y)
    assert (counted.forward_calls, counted.adjoint_calls) == (1, 2)
    counted.shifted_normal_inverse(x)  # closed form, not a forward/adjoint call
    assert (counted.forward_calls, counted.adjoint_calls) == (1, 2)
    np.testing.assert_array_equal(y, conv.forward(x))


def test_counting_wrapper_is_numerically_transparent(rng):
    conv, _, _ = sample_operators()
    counted = CountingOperator(conv)
    x = rng.standard_normal((8, 8))
    np.testing.assert_array_equal(counted.forward(x), conv.forward(x))
    np.testing.assert_array_equal(counted.adjoint(x), conv.adjoint(x))
    np.testing.assert_array_equal(
        counted.shifted_normal_inverse(x), conv.shifted_normal_inverse(x)
    )


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def test_add_noise_zero_sigma_copies():
    y = np.arange(5.0)
    out = add_noise(y, 0.0, seed=3)
    np.testing.assert_array_equal(out, y)
    assert out is not y


def test_add_noise_real_std_within_one_percent():
    y = np.zeros(1_000_000)
    out = add_noise(y, 1.0, seed=11)
    assert out.dtype == np.float64  # real data gets real noise
    assert abs(np.std(out) - 1.0) <= 0.01


def test_add_noise_complex_splits_variance():
    y = np.zeros(1_000_000, dtype=complex)
    out = add_noise(y, 1.0, seed=12)
    assert abs(np.var(out.real) - 0.5) <= 0.01
    assert abs(np.var(out.imag) - 0.5) <= 0.01


def test_add_noise_deterministic_and_validates():
    y = np.zeros(16)
    a = add_noise(y, 0.3, seed=5)
    b = add_noise(y, 0.3, seed=5)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        add_noise(y, -0.1, seed=0)
    with pytest.raises(ValueError):
        add_noise(y, float("nan"), seed=0)
