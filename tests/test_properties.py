"""Property-based identities on random shapes, kernels and masks.

The oracle tests elsewhere pin each operator and frame on a few fixed 8x8
or 16x16 cases; these draw odd and non-square shapes from 3 to 17, random
kernels and random non-empty masks, and check the identities the solver
relies on: adjoints, the shifted-normal inverse ``(I + A^H A) u = r``, the
Parseval round trip of both Haar frames, and the ball projection.  The
real-image Fourier operator's real adjoint and inverse are checked on masks
that are not point-symmetric, and its half-spectrum forward and adjoint
against the complex operator's full transforms.  The undecimated Haar
transforms are also pinned bit for bit to an ``np.roll`` reference, the
real-FFT convolution to a full complex-FFT reference and its adjoint to the
filter by a stored ``conj(H)``, the TV prox to the
straightforward 2-D Chambolle loop it replaced, ``IsotropicTV``'s row-band prox
to ``tv_prox`` on one whole-image dual, the flat-index sampling operators, the TV
norm and the MSE to the boolean-mask and ``np.diff`` formulas they replaced,
and the in-place real soft threshold to ``v - clip(v, -tau, tau)``.  The
record's block reductions (``l2_distance``, ``L1Norm.evaluate``) are checked
against one-array sums across block boundaries, and for the memory they
allocate.
"""

import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ballast.prox
from ballast import (
    BallConstraint,
    CircularConvolution,
    IsotropicTV,
    L1Norm,
    OrthogonalHaar,
    PartialFourier,
    PixelMask,
    RealPartialFourier,
    SynthesisOperator,
    UndecimatedHaar,
    mse,
    project_ball,
    soft_threshold,
    tv_norm,
    tv_prox,
)
from ballast.prox import BLOCK, l2_distance, l2_norm

# derandomized and without an example database: reruns draw the same cases
PROPERTY = settings(database=None, derandomize=True, deadline=None, max_examples=50)


sides = st.integers(3, 17)
seeds = st.integers(0, 2**32 - 1)
operator_kinds = st.sampled_from(["convolution", "mask", "fourier"])


def random_mask(rng, shape):
    mask = rng.random(shape) < rng.uniform(0.1, 0.9)
    mask[tuple(rng.integers(0, n) for n in shape)] = True  # never empty
    return mask


def make_operator(kind, shape, rng):
    if kind == "convolution":
        kh, kw = (int(rng.integers(1, n + 1)) for n in shape)
        return CircularConvolution(rng.uniform(0.1, 1.0, (kh, kw)), shape)
    if kind == "mask":
        return PixelMask(random_mask(rng, shape))
    return PartialFourier(random_mask(rng, shape))


@st.composite
def operators(draw):
    """A base operator, or its composition with an undecimated Haar frame."""
    shape = (draw(sides), draw(sides))
    rng = np.random.default_rng(draw(seeds))
    op = make_operator(draw(operator_kinds), shape, rng)
    levels = draw(st.integers(0, 3))
    if levels:
        op = SynthesisOperator(op, UndecimatedHaar(shape, levels=levels))
    return op, rng


@st.composite
def frames(draw):
    """Either Haar frame; the orthogonal one on shapes divisible by 2^levels."""
    levels = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return UndecimatedHaar((draw(sides), draw(sides)), levels=levels), draw(seeds)
    side = st.integers(1, 17 >> levels).map(lambda m: m << levels)
    return OrthogonalHaar((draw(side), draw(side)), levels=levels), draw(seeds)


def random_element(rng, shape, dtype=np.float64):
    x = rng.standard_normal(shape)
    if np.issubdtype(dtype, np.complexfloating):
        x = x + 1j * rng.standard_normal(shape)
    return x


def norm(a):
    return float(np.linalg.norm(np.ravel(a)))


def laid_out(rng, shape, dtype, layout):
    """A random array of ``shape``: C-ordered, a transposed view or a strided view."""
    if layout == "transposed":
        return random_element(rng, shape[::-1], dtype).T
    if layout == "strided":
        return random_element(rng, (2 * shape[0], 3 * shape[1]), dtype)[::2, ::3]
    return random_element(rng, shape, dtype)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


layouts = st.sampled_from(["contiguous", "transposed", "strided"])


@PROPERTY
@given(operators())
def test_adjoint_identity(case):
    op, rng = case
    x = random_element(rng, op.in_shape)
    r = random_element(rng, op.out_shape, op.out_dtype)
    lhs = np.vdot(op.forward(x), r)
    rhs = np.vdot(x, op.adjoint(r))
    assert abs(lhs - rhs) <= 1e-10 * norm(x) * norm(r)


@PROPERTY
@given(operators())
def test_shifted_normal_inverse_solves_the_shifted_system(case):
    op, rng = case
    r = random_element(rng, op.in_shape)
    u = op.shifted_normal_inverse(r)
    assert np.shape(u) == tuple(op.in_shape)
    assert norm(u + op.adjoint(op.forward(u)) - r) <= 1e-10 * norm(r)


@st.composite
def real_fourier_operators(draw):
    """A real-image Fourier operator whose mask is not point-symmetric about DC."""
    shape = (draw(sides), draw(sides))
    rng = np.random.default_rng(draw(seeds))
    mask = random_mask(rng, shape)
    # sample one frequency and drop its reflection; column j is never its own
    # reflection, since 0 < j < w / 2
    i, j = int(rng.integers(shape[0])), int(rng.integers(1, (shape[1] + 1) // 2))
    mask[i, j] = True
    mask[-i % shape[0], -j % shape[1]] = False
    return RealPartialFourier(mask), rng


@PROPERTY
@given(real_fourier_operators())
def test_real_fourier_adjoint_identity(case):
    # B maps R^n to C^m, so its adjoint is taken under Re<y, Bx>
    op, rng = case
    x = random_element(rng, op.in_shape)
    y = random_element(rng, op.out_shape, np.complex128)
    back = op.adjoint(y)
    assert back.dtype == np.float64
    lhs = np.vdot(y, op.forward(x)).real
    assert abs(lhs - np.vdot(back, x)) <= 1e-10 * norm(x) * norm(y)


@PROPERTY
@given(real_fourier_operators())
def test_real_fourier_matches_the_complex_operator(case):
    # the half-spectrum forward and adjoint against PartialFourier's full
    # complex transforms, on a mask that also samples DC and, on an even
    # width, a frequency of the Nyquist column
    op, rng = case
    mask = op.mask.copy()
    h, w = mask.shape
    mask[0, 0] = True
    if w % 2 == 0:
        mask[int(rng.integers(h)), w // 2] = True
    op, full = RealPartialFourier(mask), PartialFourier(mask)
    x = random_element(rng, op.in_shape)
    y = random_element(rng, op.out_shape, np.complex128)
    for got, want in [(op.forward(x), full.forward(x)),
                      (op.adjoint(y), full.adjoint(y).real)]:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert norm(got - want) <= 1e-13 * norm(want)


@PROPERTY
@given(real_fourier_operators(), st.integers(0, 3))
def test_real_fourier_inverse_solves_the_shifted_system(case, levels):
    op, rng = case
    if levels:
        op = SynthesisOperator(op, UndecimatedHaar(op.in_shape, levels=levels))
    r = random_element(rng, op.in_shape)
    u = op.shifted_normal_inverse(r)
    assert u.dtype == np.float64 and u.shape == tuple(op.in_shape)
    assert norm(u + op.adjoint(op.forward(u)) - r) <= 1e-10 * norm(r)


@PROPERTY
@given(frames())
def test_frame_round_trip_and_energy(case):
    frame, seed = case
    rng = np.random.default_rng(seed)
    x = random_element(rng, frame.image_shape)
    coefficients = frame.analysis(x)
    assert coefficients.shape == (frame.coefficient_length,)
    np.testing.assert_allclose(frame.synthesis(coefficients), x, rtol=0, atol=1e-12 * norm(x))
    assert abs(norm(coefficients) ** 2 - norm(x) ** 2) <= 1e-12 * norm(x) ** 2
    if isinstance(frame, OrthogonalHaar):  # square: synthesis is also the inverse
        c = random_element(rng, (frame.coefficient_length,))
        np.testing.assert_allclose(frame.analysis(frame.synthesis(c)), c, rtol=0,
                                   atol=1e-12 * norm(c))


def roll_haar_analysis(frame, x):
    """The undecimated Haar analysis written with ``np.roll``, as a reference."""
    a = x.astype(np.promote_types(x.dtype, np.float64))
    details = []
    for level in range(frame.levels):
        gap = 1 << level
        lo0 = (a + np.roll(a, -gap, axis=0)) / 2.0
        hi0 = (a - np.roll(a, -gap, axis=0)) / 2.0
        details.append(((lo0 - np.roll(lo0, -gap, axis=1)) / 2.0,
                        (hi0 + np.roll(hi0, -gap, axis=1)) / 2.0,
                        (hi0 - np.roll(hi0, -gap, axis=1)) / 2.0))
        a = (lo0 + np.roll(lo0, -gap, axis=1)) / 2.0
    return np.concatenate([a.ravel()] + [band.ravel() for bands in details for band in bands])


def roll_haar_synthesis(frame, coefficients):
    """The undecimated Haar synthesis written with ``np.roll``, as a reference."""
    bands = coefficients.reshape((3 * frame.levels + 1,) + frame.image_shape)
    a = bands[0]
    for level in range(frame.levels - 1, -1, -1):
        gap = 1 << level
        lh, hl, hh = bands[1 + 3 * level:4 + 3 * level]
        lo0 = (a + np.roll(a, gap, axis=1)) / 2.0 + (lh - np.roll(lh, gap, axis=1)) / 2.0
        hi0 = (hl + np.roll(hl, gap, axis=1)) / 2.0 + (hh - np.roll(hh, gap, axis=1)) / 2.0
        a = (lo0 + np.roll(lo0, gap, axis=0)) / 2.0 + (hi0 - np.roll(hi0, gap, axis=0)) / 2.0
    return a


@PROPERTY
@given(sides, sides, st.integers(1, 5), st.booleans(), st.booleans(), seeds)
@example(h=256, w=256, levels=4, is_complex=False, reverse=False, seed=0)
def test_undecimated_haar_matches_roll_reference_bitwise(h, w, levels, is_complex, reverse,
                                                         seed):
    # levels up to 5 on sides down to 3 include gaps of 2^level >= side.  Row
    # pairs run on the flattened arrays and redo the wrapped columns: the last
    # ones for shifts up to half a row (analysis at 256^2), the first ones
    # past it (synthesis at 256^2, whose shifts are negative).  Reversed
    # strides reach both transforms as negative-stride views.
    frame = UndecimatedHaar((h, w), levels=levels)
    rng = np.random.default_rng(seed)
    dtype = np.complex128 if is_complex else np.float64
    x = random_element(rng, (h, w), dtype)
    c = random_element(rng, (frame.coefficient_length,), dtype)
    if reverse:
        x, c = x[::-1, ::-1], c[::-1]
    np.testing.assert_array_equal(frame.analysis(x), roll_haar_analysis(frame, x))
    np.testing.assert_array_equal(frame.synthesis(c), roll_haar_synthesis(frame, c))


@PROPERTY
@given(sides, sides, st.booleans(), seeds)
def test_convolution_matches_full_fft_reference(h, w, is_complex, seed):
    # the operator filters with the rfft2 half spectrum; the reference uses
    # the full complex spectrum, on odd and even widths alike
    rng = np.random.default_rng(seed)
    op = make_operator("convolution", (h, w), rng)
    # the unit-sum kernel, zero-padded and rolled so its center tap is at (0, 0)
    kh, kw = op.kernel.shape
    padded = np.zeros((h, w))
    padded[:kh, :kw] = op.kernel
    response = np.fft.fft2(np.roll(padded, (-(kh // 2), -(kw // 2)), axis=(0, 1)))
    dtype = np.complex128 if is_complex else np.float64
    x = random_element(rng, (h, w), dtype)

    def reference(filter_response):
        out = np.fft.ifft2(np.fft.fft2(x) * filter_response)
        return out if is_complex else out.real

    mag2 = np.abs(response) ** 2
    for got, want in [(op.forward(x), reference(response)),
                      (op.adjoint(x), reference(np.conj(response))),
                      (op.shifted_normal_inverse(x), reference(1.0 / (1.0 + mag2)))]:
        assert np.iscomplexobj(got) == is_complex
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * norm(x))


@PROPERTY
@given(sides, sides, st.booleans(), seeds)
@example(64, 63, False, 0)
@example(63, 64, True, 1)
def test_convolution_adjoint_matches_the_conjugate_filter_bitwise(h, w, is_complex, seed):
    # the adjoint forms X conj(H) as conj(conj(X) H) in place; the spectra
    # may differ in the signs of zeros, the images do not
    rng = np.random.default_rng(seed)
    op = make_operator("convolution", (h, w), rng)
    r = random_element(rng, (h, w), np.complex128 if is_complex else np.float64)

    def reference(part):
        return np.fft.irfft2(np.fft.rfft2(part) * np.conj(op.freq_response), s=(h, w))

    want = reference(r.real) + 1j * reference(r.imag) if is_complex else reference(r)
    assert_same_bits(op.adjoint(r), want)


@PROPERTY
@given(st.integers(1, 64), st.booleans(), st.floats(0.0, 5.0), st.floats(0.01, 10.0),
       seeds)
def test_ball_projection_is_nonexpansive_and_idempotent(m, is_complex, radius, scale, seed):
    rng = np.random.default_rng(seed)
    dtype = np.complex128 if is_complex else np.float64
    ball = BallConstraint(random_element(rng, m, dtype), radius)
    a = ball.center + scale * random_element(rng, m, dtype)
    b = ball.center + scale * random_element(rng, m, dtype)
    pa, pb = project_ball(a, ball), project_ball(b, ball)
    assert norm(pa - ball.center) <= radius * (1.0 + 1e-12)
    assert norm(pa - pb) <= norm(a - b) * (1.0 + 1e-12)
    np.testing.assert_array_equal(project_ball(pa, ball), pa)


def chambolle_gradient(x):
    gx = np.zeros_like(x)
    gy = np.zeros_like(x)
    gx[:, :-1] = x[:, 1:] - x[:, :-1]
    gy[:-1, :] = x[1:, :] - x[:-1, :]
    return gx, gy


def chambolle_divergence(px, py):
    div = np.zeros_like(px)
    div[:, 0] += px[:, 0]
    div[:, 1:-1] += px[:, 1:-1] - px[:, :-2]
    div[:, -1] += -px[:, -2]
    div[0, :] += py[0, :]
    div[1:-1, :] += py[1:-1, :] - py[:-2, :]
    div[-1, :] += -py[-2, :]
    return div


def chambolle_reference(v, tau, iterations, dual_step=0.248, dual_init=None):
    """The 2-D Chambolle loop ``tv_prox`` used before its stacked-dual kernel."""
    if tau == 0:
        return v.copy(), (np.zeros_like(v), np.zeros_like(v))
    if dual_init is None:
        px = np.zeros_like(v)
        py = np.zeros_like(v)
    else:
        px = np.array(dual_init[0], dtype=np.float64, copy=True)
        py = np.array(dual_init[1], dtype=np.float64, copy=True)
    for _ in range(iterations):
        gx, gy = chambolle_gradient(chambolle_divergence(px, py) - v / tau)
        weight = 1.0 + dual_step * np.sqrt(gx * gx + gy * gy)
        px = (px + dual_step * gx) / weight
        py = (py + dual_step * gy) / weight
    return v - tau * chambolle_divergence(px, py), (px, py)


@PROPERTY
@given(st.integers(2, 33), st.integers(2, 33),
       st.one_of(st.just(0.0), st.floats(1e-3, 5.0)), st.integers(0, 12), st.booleans(),
       seeds)
def test_tv_prox_matches_chambolle_reference_bitwise(h, w, tau, iterations, warm, seed):
    rng = np.random.default_rng(seed)
    v = random_element(rng, (h, w)) * rng.uniform(0.1, 10.0)
    dual_init = None
    dual = np.zeros((2, h * w))
    if warm:  # nonzero in the last column of px and the last row of py too
        dual_init = (random_element(rng, (h, w)), random_element(rng, (h, w)))
        assert np.all(dual_init[0][:, -1] != 0) and np.all(dual_init[1][-1, :] != 0)
        dual.reshape(2, h, w)[...] = dual_init
    want, (want_x, want_y) = chambolle_reference(v, tau, iterations, dual_step=0.125,
                                                 dual_init=dual_init)
    # the in-place dual of tv_prox ends holding the reference's final field
    got = tv_prox(v, tau, iterations, dual=dual)
    got_x, got_y = dual.reshape(2, h, w)
    assert got.tobytes() == want.tobytes()
    # px[:, -1] and py[-1, :] never enter the divergence; tv_prox holds them at 0
    assert got_x[:, :-1].tobytes() == want_x[:, :-1].tobytes()
    assert got_y[:-1, :].tobytes() == want_y[:-1, :].tobytes()
    assert not got_x[:, -1].any() and not got_y[-1, :].any()


@contextlib.contextmanager
def two_cpus(band_pixels=0):
    """``IsotropicTV`` sees two usable CPUs and the band crossover at ``band_pixels``."""
    with mock.patch.object(ballast.prox, "_usable_cpus", lambda: 2), \
            mock.patch.object(ballast.prox, "BAND_PIXELS", band_pixels):
        yield


def assert_warm_calls_match_tv_prox(h, w, iterations, seed, calls=40):
    """``calls`` warm prox calls on a drifting image, a few at ``tau = 0``,
    give ``tv_prox``'s bits on one whole-image dual; returns the carry."""
    rng = np.random.default_rng(seed)
    tv = IsotropicTV(iterations)
    carry = {}
    dual = np.zeros((2, h * w))
    v = random_element(rng, (h, w))
    for call in range(calls):
        v = v + 0.3 * random_element(rng, (h, w))
        tau = 0.0 if call % 13 == 12 else float(rng.uniform(0.05, 2.0))  # 0: identity
        got = tv.prox(v, tau, carry)
        assert got.tobytes() == tv_prox(v, tau, iterations, dual=dual).tobytes()
    return carry, dual


@PROPERTY
@given(st.integers(2, 49), st.integers(2, 9), st.sampled_from([1, 3, 10]), seeds)
@example(h=4, w=2, iterations=1, seed=0)  # two own rows a band, each all ghost of the other
@example(h=23, w=3, iterations=10, seed=1)  # odd: 11 and 12 own rows, 11 ghost rows
def test_banded_tv_prox_matches_whole_image_dual_bitwise(h, w, iterations, seed):
    with two_cpus():
        carry, dual = assert_warm_calls_match_tv_prox(h, w, iterations, seed)
    ghost = iterations + 1
    banded = h // 2 >= ghost
    assert ("worker" in carry) == banded
    field = carry["tv_dual"].reshape(2, -1, w)
    if banded:
        # the upper band's own rows, its ghost rows, the lower band's ghost
        # rows, then its own rows
        cut = h // 2
        assert field.shape[1] == h + 2 * ghost
        field = np.concatenate([field[:, :cut], field[:, cut + 2 * ghost:]], axis=1)
    assert field.tobytes() == dual.tobytes()


def test_banded_tv_prox_keeps_one_band_without_room_for_ghost_rows():
    # 72,000 pixels are past the crossover, but 3 rows a half are fewer
    # than the 4 ghost rows of 3 inner steps
    assert 6 * 12_000 >= ballast.prox.BAND_PIXELS
    with two_cpus(ballast.prox.BAND_PIXELS):
        carry, _ = assert_warm_calls_match_tv_prox(6, 12_000, 3, seed=0)
    assert "worker" not in carry and carry["tv_dual"].shape == (2, 72_000)


def test_banded_tv_prox_needs_the_crossover_and_two_cpus():
    v = np.random.default_rng(0).standard_normal((256, 256))
    assert v.size == ballast.prox.BAND_PIXELS
    with two_cpus(ballast.prox.BAND_PIXELS):
        carry = {}
        IsotropicTV().prox(v, 0.3, carry)
        assert "worker" in carry and carry["tv_dual"].shape == (2, (256 + 8) * 256)
        small = {}
        IsotropicTV().prox(v[:255], 0.3, small)
        assert "worker" not in small
    with mock.patch.object(ballast.prox, "_usable_cpus", lambda: 1):
        one_cpu = {}
        IsotropicTV().prox(v, 0.3, one_cpu)
        assert "worker" not in one_cpu and one_cpu["tv_dual"].shape == (2, v.size)


@PROPERTY
@given(sides, sides, st.booleans(), layouts, seeds)
def test_sampling_operators_match_boolean_mask_formulas_bitwise(h, w, is_complex, layout,
                                                                 seed):
    rng = np.random.default_rng(seed)
    mask = random_mask(rng, (h, w))
    dtype = np.complex128 if is_complex else np.float64
    pixels, fourier = PixelMask(mask), PartialFourier(mask)
    x = laid_out(rng, (h, w), dtype, layout)
    r = random_element(rng, (int(mask.sum()),), dtype)
    assert_same_bits(pixels.forward(x), x[mask])
    grid = np.zeros((h, w), dtype=dtype)
    grid[mask] = r
    assert_same_bits(pixels.adjoint(r), grid)
    assert_same_bits(pixels.shifted_normal_inverse(x), np.where(mask, 0.5 * x, x))
    assert_same_bits(fourier.forward(x), np.fft.fft2(x, norm="ortho")[mask])
    grid = np.zeros((h, w), dtype=np.complex128)
    grid[mask] = r
    assert_same_bits(fourier.adjoint(r), np.fft.ifft2(grid, norm="ortho"))


def diff_tv_norm(x):
    """The ``np.diff`` formula ``tv_norm`` used before its in-place kernel."""
    gx = np.diff(x, axis=1, append=x[:, -1:])
    gy = np.diff(x, axis=0, append=x[-1:])
    return float(np.sum(np.sqrt(gx * gx + gy * gy)))


@PROPERTY
@given(st.integers(2, 17), st.integers(2, 17), st.sampled_from([np.float64, np.float32]),
       layouts, seeds)
def test_tv_norm_matches_diff_formula_bitwise(h, w, dtype, layout, seed):
    rng = np.random.default_rng(seed)
    # tv_norm takes flat shifted differences and zeroes the entries that wrap
    # a row end; two-row and two-column images have the most edge entries
    for shape in [(h, w), (2, w), (h, 2), (2, 2)]:
        x = laid_out(rng, shape, np.float64, layout).astype(dtype, copy=False)
        # np.diff's result sums in memory order, so a transposed view is pinned
        # to its C-ordered copy (tv_norm gives the same bits for every layout);
        # float32 input keeps float32 arithmetic on both sides
        assert tv_norm(x) == diff_tv_norm(np.ascontiguousarray(x))


def assert_close(got, want, rel=1e-12):
    assert abs(got - want) <= rel * abs(want), (got, want)


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 13 * 64**2])
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128])
def test_block_reductions_match_one_array_sums(n, dtype):
    rng = np.random.default_rng(n)
    a = random_element(rng, (n,), dtype).astype(dtype)
    b = random_element(rng, (n,), dtype).astype(dtype)
    # both reductions work in float64, so float32 input is pinned to the
    # float64 sums of the same values
    wide = np.result_type(dtype, np.float64)
    wide_a, wide_b = a.astype(wide), b.astype(wide)
    assert_close(L1Norm().evaluate(a), float(np.sum(np.abs(wide_a))))
    assert_close(l2_distance(a, b), l2_norm(wide_a - wide_b))
    assert_close(mse(a, b), float(np.mean(np.abs(wide_a - wide_b) ** 2)))
    # a real and a complex operand
    assert_close(l2_distance(wide_a.real, wide_b), l2_norm(wide_a.real - wide_b))


@pytest.mark.parametrize("layout", ["transposed", "strided"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_block_reductions_read_views(layout, dtype):
    rng = np.random.default_rng(7)
    shape = (13 * 64, 64)  # 53,248 elements: two blocks, the second partial
    a = laid_out(rng, shape, dtype, layout)
    b = random_element(rng, shape, dtype)
    assert_close(L1Norm().evaluate(a), float(np.sum(np.abs(a))))
    assert_close(l2_distance(a, b), l2_norm(a - b))
    assert_close(l2_distance(b, a), l2_norm(b - a))


def test_block_reductions_allocate_under_a_quarter_coefficient_array():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 13 * 128**2))  # UndecimatedHaar(4) at 128^2
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        for reduce in (lambda: L1Norm().evaluate(a), lambda: l2_distance(a, b),
                       lambda: mse(a, b)):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            reduce()
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak < a.nbytes / 4, peak / a.nbytes
    finally:
        if started:
            tracemalloc.stop()


@PROPERTY
@given(sides, sides, st.booleans(), layouts, seeds)
def test_mse_matches_mean_abs_square_bitwise(h, w, is_complex, layout, seed):
    rng = np.random.default_rng(seed)
    dtype = np.complex128 if is_complex else np.float64
    a = laid_out(rng, (h, w), dtype, layout)
    b = random_element(rng, (h, w), dtype)
    # at most 17 x 17 elements, one block: mse is the einsum of the squared
    # C-ordered difference, over interleaved real and imaginary parts, over n
    d = np.ravel(a - b)
    d = d.view(d.real.dtype)
    assert mse(a, b) == float(np.einsum("i,i->", d, d)) / (h * w)
    # the pairwise mean of |a - b|^2 sums other roundings in another order:
    # 1.06e-15 relative at most over 10,000 random draws of these sizes
    assert_close(mse(a, b), float(np.mean(np.abs(a - b) ** 2)), rel=2e-15)


@PROPERTY
@given(st.integers(1, 17), st.integers(1, 17),
       st.sampled_from([np.float64, np.float32, np.int64, np.int32]), layouts,
       st.sampled_from([0.0, 0.25, 1.0, 2.5, 3]), seeds)
def test_real_soft_threshold_matches_clip_formula_bitwise(h, w, dtype, layout, tau, seed):
    rng = np.random.default_rng(seed)
    x = 3.0 * laid_out(rng, (h, w), np.float64, layout)
    for special in (np.inf, -np.inf, np.nan, -0.0, 0.0, tau, -tau):
        x[rng.integers(h), rng.integers(w)] = special
    if np.issubdtype(dtype, np.integer):
        x = np.nan_to_num(np.round(x), posinf=7, neginf=-7)
    x = x.astype(dtype, copy=False)
    # the writable result of np.clip is reused for a 2-D, 1-D or 1-element
    # array; a 0-d input takes the scalar path
    for v in (x, np.ravel(x), x[:1, :1], np.array(x[0, 0])):
        got = soft_threshold(v, tau)
        want = v - np.clip(v, -tau, tau)
        assert type(got) is type(want)
        assert_same_bits(got, want)
