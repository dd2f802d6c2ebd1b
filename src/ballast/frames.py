"""Parseval Haar frames: analysis/synthesis pairs with W W^H = I.

Two constructions are provided.  ``OrthogonalHaar`` is the standard decimated
separable Haar wavelet basis (square, orthonormal).  ``UndecimatedHaar`` is
the shift-invariant version: no decimation, filters upsampled with holes at
each level, normalized so that the overall frame is 1-tight in exact
floating-point arithmetic (each branch splits energy by halves).

Both transforms use periodic boundary handling, so every analysis branch is
a circulant operator and the synthesis side is its exact adjoint.
"""

import numpy as np

__all__ = ["OrthogonalHaar", "UndecimatedHaar"]


class OrthogonalHaar:
    """Decimated separable 2D Haar transform over ``levels`` scales.

    Coefficients use the in-place corner layout: after each stage the
    top-left block holds the approximation, the other three quadrants the
    details; the final array is flattened row-major.  Square and orthonormal,
    so synthesis is the inverse as well as the adjoint.
    """

    def __init__(self, image_shape, levels=4):
        h, w = image_shape
        if levels < 1:
            raise ValueError("levels must be >= 1")
        div = 1 << levels
        if h % div or w % div:
            raise ValueError(f"image shape {image_shape} not divisible by 2^{levels}")
        self.image_shape = (h, w)
        self.levels = levels
        self.coefficient_length = h * w

    def analysis(self, x):
        x = np.asarray(x)
        if x.shape != self.image_shape:
            raise ValueError(f"image has shape {x.shape}, expected {self.image_shape}")
        work = x.astype(np.promote_types(x.dtype, np.float64), copy=True)
        H, W = self.image_shape
        for s in range(self.levels):
            block = work[:H >> s, :W >> s]
            for quadrant, value in zip(_quadrants(block), _butterfly(*_cells(block))):
                quadrant[...] = value
        return work.ravel()

    def synthesis(self, coefficients):
        coefficients = np.asarray(coefficients)
        if coefficients.shape != (self.coefficient_length,):
            raise ValueError(
                f"coefficient vector has shape {coefficients.shape}, "
                f"expected ({self.coefficient_length},)"
            )
        H, W = self.image_shape
        dtype = np.promote_types(coefficients.dtype, np.float64)
        work = coefficients.astype(dtype, copy=True).reshape(H, W)
        # the 2x2 map is symmetric and its own inverse: the quadrants go back
        # to the cells through the same butterfly, coarsest level first
        for s in range(self.levels - 1, -1, -1):
            block = work[:H >> s, :W >> s]
            for cell, value in zip(_cells(block), _butterfly(*_quadrants(block))):
                cell[...] = value
        return work


def _cells(block):
    """The views of each 2x2 cell's four entries, in row-major order."""
    return block[0::2, 0::2], block[0::2, 1::2], block[1::2, 0::2], block[1::2, 1::2]


def _quadrants(block):
    """The four quadrants of ``block``: approximation, then the details."""
    h, w = block.shape[0] // 2, block.shape[1] // 2
    return block[:h, :w], block[:h, w:], block[h:, :w], block[h:, w:]


def _butterfly(a, b, c, d):
    """The orthonormal 2x2 Haar map of the cell ``[[a, b], [c, d]]``: its
    scaled sum and its differences across columns, rows and the diagonal.
    The map's matrix is symmetric and orthogonal, so it is its own inverse."""
    ab, cd = a + b, c + d
    a_b, c_d = a - b, c - d
    return (ab + cd) / 2, (a_b + c_d) / 2, (ab - cd) / 2, (a_b - c_d) / 2


class UndecimatedHaar:
    """Shift-invariant 2D Haar frame over ``levels`` scales (periodic).

    Redundancy is ``3*levels + 1``: one approximation band plus three detail
    bands per level, all at full image size.  Filters are the two-tap pairs
    ``[1/2, 1/2]`` / ``[1/2, -1/2]`` with the gap between taps doubling at
    each level, which makes the frame exactly 1-tight: each 1D stage splits
    into two branches whose squared gains sum to ``4 * (1/2)^2 = 1``.

    Coefficient layout (flattened row-major per band):
    ``[approximation, then per level from finest to coarsest: LH, HL, HH]``.
    """

    def __init__(self, image_shape, levels=4):
        h, w = image_shape
        if levels < 1:
            raise ValueError("levels must be >= 1")
        self.image_shape = (h, w)
        self.levels = levels
        self.coefficient_length = h * w * (3 * levels + 1)

    def analysis(self, x):
        x = np.asarray(x)
        if x.shape != self.image_shape:
            raise ValueError(f"image has shape {x.shape}, expected {self.image_shape}")
        a = x.astype(np.promote_types(x.dtype, np.float64), copy=False)
        bands = np.empty((3 * self.levels + 1,) + self.image_shape, dtype=a.dtype)
        lo0 = np.empty_like(bands[0])
        hi0 = np.empty_like(bands[0])
        # each level's two 1/2 stages are one 1/4 on its input, and the
        # approximation goes to band 0 at every level: each level reads it
        # only to form lo0/hi0, before overwriting it
        np.multiply(a, 0.25, out=bands[0])
        for level in range(self.levels):
            gap = 1 << level
            if level:
                bands[0] *= 0.25
            _pair(np.add, bands[0], gap, 0, lo0)
            _pair(np.subtract, bands[0], gap, 0, hi0)
            _pair(np.add, lo0, gap, 1, bands[0])
            _pair(np.subtract, lo0, gap, 1, bands[1 + 3 * level])
            _pair(np.add, hi0, gap, 1, bands[2 + 3 * level])
            _pair(np.subtract, hi0, gap, 1, bands[3 + 3 * level])
        return bands.reshape(-1)

    def synthesis(self, coefficients):
        coefficients = np.asarray(coefficients)
        if coefficients.shape != (self.coefficient_length,):
            raise ValueError(
                f"coefficient vector has shape {coefficients.shape}, "
                f"expected ({self.coefficient_length},)"
            )
        h, w = self.image_shape
        dtype = np.promote_types(coefficients.dtype, np.float64)
        bands = coefficients.astype(dtype, copy=False).reshape(3 * self.levels + 1, h, w)
        lo0, hi0, term, image = (np.empty((h, w), dtype=dtype) for _ in range(4))
        a = bands[0]
        # adjoint of each analysis branch, accumulated from the coarsest level
        # in, with the level's two 1/2 stages applied as one 1/4 on its sum
        for level in range(self.levels - 1, -1, -1):
            gap = 1 << level
            _pair(np.add, a, -gap, 1, lo0)
            _pair(np.subtract, bands[1 + 3 * level], -gap, 1, term)
            lo0 += term
            _pair(np.add, bands[2 + 3 * level], -gap, 1, hi0)
            _pair(np.subtract, bands[3 + 3 * level], -gap, 1, term)
            hi0 += term
            _pair(np.add, lo0, -gap, 0, image)
            _pair(np.subtract, hi0, -gap, 0, term)
            image += term
            image *= 0.25
            a = image
        return image


def _pair(ufunc, a, shift, axis, out):
    """``out = ufunc(a, a shifted periodically by -shift along axis)``.

    ``out[i] = a[i] +/- a[(i + shift) % n]`` along ``axis``, from slices and
    no shifted copy of ``a``; ``a`` and ``out`` must not overlap, and ``out``
    must be C-contiguous.  The Haar stages' factor 1/2 is left to the callers,
    which apply one 1/4 per level: a power-of-two scale commutes with
    rounding, so the bits are those of halving each pair, except where a value
    or a partial sum is subnormal or overflows.

    Along rows, one ufunc over the flattened arrays pairs each element with
    the one ``s`` places on (for ``s`` past half a row, the one ``n - s``
    places back), and the columns whose partner wraps round the row are then
    redone from strided slices.  NumPy would walk a transposed view one short
    row at a time, at about twice the cost.
    """
    n = a.shape[axis]
    s = shift % n
    if axis == 0:
        ufunc(a[: n - s], a[s:], out=out[: n - s])
        ufunc(a[n - s:], a[:s], out=out[n - s:])
        return
    af, of = a.reshape(-1), out.reshape(-1)
    size = af.size
    if 2 * s <= n:
        ufunc(af[: size - s], af[s:], out=of[: size - s])
        ufunc(a[:, n - s:], a[:, :s], out=out[:, n - s:])
    else:
        g = n - s
        ufunc(af[g:], af[: size - g], out=of[g:])
        ufunc(a[:, :g], a[:, s:], out=out[:, :g])
