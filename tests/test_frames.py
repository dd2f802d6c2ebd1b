"""Frame transform tests: tightness, adjointness, and layout pinned by hand.

The 2x2 single-level expansions are worked out by hand at the top of the
relevant tests, so the coefficient layout is locked independently of the
implementation.
"""

import numpy as np
import pytest

from ballast import OrthogonalHaar, UndecimatedHaar


def test_orthogonal_constant_image_has_zero_details():
    frame = OrthogonalHaar((8, 8), levels=1)
    coeffs = frame.analysis(np.full((8, 8), 3.7))
    grid = coeffs.reshape(8, 8)
    assert np.allclose(grid[:4, 4:], 0.0, atol=1e-14)  # one-level detail bands
    assert np.allclose(grid[4:, :], 0.0, atol=1e-14)
    assert np.allclose(grid[:4, :4], 3.7 * 2, atol=1e-12)  # approx gains 2x per level


def test_orthogonal_two_by_two_layout_by_hand():
    # One Haar level on [[a, b], [c, d]]: the four orthonormal 2x2 atoms give
    #   ll = (a+b+c+d)/2, hl = (a-b+c-d)/2, lh = (a+b-c-d)/2, hh = (a-b-c+d)/2
    a, b, c, d = 1.0, 2.0, 4.0, 8.0
    frame = OrthogonalHaar((2, 2), levels=1)
    grid = frame.analysis(np.array([[a, b], [c, d]])).reshape(2, 2)
    assert grid[0, 0] == pytest.approx((a + b + c + d) / 2)
    assert grid[0, 1] == pytest.approx((a - b + c - d) / 2)
    assert grid[1, 0] == pytest.approx((a + b - c - d) / 2)
    assert grid[1, 1] == pytest.approx((a - b - c + d) / 2)


def test_undecimated_two_by_two_layout_by_hand():
    # One level, taps [1/2, 1/2] and [1/2, -1/2] with circular shift-by-one.
    # Band names are (row filter, column filter), so LH = row-low, column-high.
    # For x = [[a, b], [c, d]]:
    #   approx[0,0] = (a+b+c+d)/4, lh[0,0] = ((a+c)-(b+d))/4,
    #   hl[0,0] = ((a-c)+(b-d))/4, hh[0,0] = (a-b-c+d)/4
    a, b, c, d = 1.0, 2.0, 4.0, 8.0
    frame = UndecimatedHaar((2, 2), levels=1)
    coeffs = frame.analysis(np.array([[a, b], [c, d]]))
    assert coeffs.shape == (2 * 2 * 4,)
    approx = coeffs[:4].reshape(2, 2)
    lh = coeffs[4:8].reshape(2, 2)
    hl = coeffs[8:12].reshape(2, 2)
    hh = coeffs[12:16].reshape(2, 2)
    assert approx[0, 0] == pytest.approx((a + b + c + d) / 4)
    assert lh[0, 0] == pytest.approx((a - b + c - d) / 4)
    assert hl[0, 0] == pytest.approx((a + b - c - d) / 4)
    assert hh[0, 0] == pytest.approx((a - b - c + d) / 4)


def test_coefficient_lengths():
    assert OrthogonalHaar((16, 16), levels=2).coefficient_length == 256
    assert UndecimatedHaar((16, 16), levels=4).coefficient_length == 256 * 13


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
@pytest.mark.parametrize("family", [OrthogonalHaar, UndecimatedHaar])
def test_round_trip_energy_adjoint_all_levels(family, levels, rng):
    frame = family((32, 32), levels=levels)
    x = rng.standard_normal((32, 32))
    coeffs = frame.analysis(x)

    # perfect reconstruction (tight frame)
    back = frame.synthesis(coeffs)
    assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)

    # energy preservation (frame constant exactly 1)
    assert abs(np.linalg.norm(coeffs) - np.linalg.norm(x)) <= 1e-10 * np.linalg.norm(x)

    # adjoint pairing <W beta, x> = <beta, W^H x>
    beta = rng.standard_normal(frame.coefficient_length)
    lhs = np.vdot(frame.synthesis(beta), x)
    rhs = np.vdot(beta, frame.analysis(x))
    assert abs(lhs - rhs) <= 1e-10 * (np.linalg.norm(beta) * np.linalg.norm(x))


def test_orthogonal_both_compositions_are_identity(rng):
    frame = OrthogonalHaar((16, 16), levels=3)
    x = rng.standard_normal((16, 16))
    np.testing.assert_allclose(frame.synthesis(frame.analysis(x)), x, atol=1e-12)
    c = rng.standard_normal(frame.coefficient_length)
    np.testing.assert_allclose(frame.analysis(frame.synthesis(c)), c, atol=1e-12)


def test_undecimated_projector_is_idempotent_not_identity(rng):
    frame = UndecimatedHaar((32, 32), levels=4)
    c = rng.standard_normal(frame.coefficient_length)
    q1 = frame.analysis(frame.synthesis(c))
    q2 = frame.analysis(frame.synthesis(q1))
    assert np.linalg.norm(q2 - q1) <= 1e-10 * np.linalg.norm(q1)
    assert np.linalg.norm(q1 - c) > 1e-3 * np.linalg.norm(c)  # strict projection


def test_zero_coefficients_give_zero_image():
    frame = UndecimatedHaar((8, 8), levels=2)
    out = frame.synthesis(np.zeros(frame.coefficient_length))
    np.testing.assert_array_equal(out, np.zeros((8, 8)))


def test_orthogonal_divisibility_enforced():
    with pytest.raises(ValueError):
        OrthogonalHaar((30, 32), levels=4)
    with pytest.raises(ValueError):
        OrthogonalHaar((32, 32), levels=0)
    OrthogonalHaar((48, 32), levels=4)  # 48 = 16 * 3 is fine


def test_undecimated_odd_shape_still_tight(rng):
    frame = UndecimatedHaar((9, 7), levels=3)
    x = rng.standard_normal((9, 7))
    back = frame.synthesis(frame.analysis(x))
    assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)


def test_shape_validation(rng):
    for frame in (UndecimatedHaar((8, 8), levels=1), OrthogonalHaar((8, 8), levels=1)):
        with pytest.raises(ValueError, match=r"image has shape \(4, 4\), expected \(8, 8\)"):
            frame.analysis(np.zeros((4, 4)))
        with pytest.raises(ValueError, match=r"coefficient vector has shape \(17,\)"):
            frame.synthesis(np.zeros(17))
