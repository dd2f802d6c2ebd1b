"""Property-based identities on random shapes, kernels and masks.

The oracle tests elsewhere pin each operator and frame on a few fixed 8x8
or 16x16 cases; these draw odd and non-square shapes from 3 to 17, random
kernels and random non-empty masks, and check the identities the solver
relies on: adjoints, the shifted-normal inverse ``(I + A^H A) u = r``, the
Parseval round trip of both Haar frames, and the ball projection.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ballast import (
    BallConstraint,
    CircularConvolution,
    OrthogonalHaar,
    PartialFourier,
    PixelMask,
    SynthesisOperator,
    UndecimatedHaar,
    project_ball,
)

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
