"""Linear observation operators with fast adjoints and shifted-normal inverses.

Each operator knows three things: how to apply itself (``forward``), how to
apply its conjugate transpose (``adjoint``), and how to apply the closed-form
inverse ``(I + A^H A)^{-1}`` (``shifted_normal_inverse``) that the constrained
ADMM solver needs once per iteration.  All closed forms run in O(n log n) or
better; there is deliberately no dense fallback.
"""

import numpy as np

__all__ = [
    "LinearOperator",
    "CircularConvolution",
    "PixelMask",
    "PartialFourier",
    "RealPartialFourier",
    "SynthesisOperator",
    "CountingOperator",
    "add_noise",
]


def _check_shape(x, shape, what):
    if np.shape(x) != tuple(shape):
        raise ValueError(f"{what} has shape {np.shape(x)}, expected {tuple(shape)}")


def _check_real_image(x, shape, what):
    _check_shape(x, shape, what)
    if np.iscomplexobj(x):
        raise ValueError(f"complex {what}: RealPartialFourier's domain is real images; "
                         "use PartialFourier for complex ones")


class LinearOperator:
    """Base class; concrete operators fill in the three applications.

    Attributes:
        in_shape: shape of the domain (image shape, or ``(d,)`` for
            coefficient-domain operators).
        out_shape: shape of an observation produced by ``forward``.
        out_dtype: dtype of ``forward`` applied to real input.
        mask: boolean grid of the sampled entries; None if nothing is sampled.
    """

    in_shape = None
    out_shape = None
    out_dtype = np.float64
    mask = None

    def forward(self, x):
        raise NotImplementedError

    def adjoint(self, r):
        raise NotImplementedError

    def shifted_normal_inverse(self, r):
        """Apply ``(I + A^H A)^{-1}`` to an element of the domain."""
        raise NotImplementedError


class CircularConvolution(LinearOperator):
    """Periodic 2D convolution, diagonalized by the unitary DFT.

    The small kernel is normalized to unit sum, zero-padded to the image
    shape and circularly shifted so its center sits at the origin; under
    that registration the operator factors exactly as a frequency-domain
    multiplication.  ``freq_response`` is the ``rfft2`` half spectrum of the
    padded kernel, of shape ``(h, w // 2 + 1)``, and with the inverse's filter
    all the operator keeps.  The adjoint forms ``X conj(H)`` in place as
    ``conj(conj(X) H)``, equal up to the signs of zeros (rounding is symmetric in sign).
    """

    def __init__(self, kernel, shape):
        kernel = np.asarray(kernel, dtype=np.float64)
        if kernel.ndim != 2:
            raise ValueError("kernel must be 2D")
        h, w = shape
        if kernel.shape[0] > h or kernel.shape[1] > w:
            raise ValueError(f"kernel {kernel.shape} larger than image {shape}")
        if not np.all(np.isfinite(kernel)):
            raise ValueError("kernel contains non-finite values")
        total = kernel.sum()
        if abs(total) < 1e-15:
            raise ValueError("kernel sum is ~0; cannot normalize to unit sum")
        kernel = kernel / total

        padded = np.zeros((h, w))
        kh, kw = kernel.shape
        padded[:kh, :kw] = kernel
        # center tap to index (0, 0): periodic registration makes the
        # frequency factorization exact rather than approximate
        padded = np.roll(padded, (-(kh // 2), -(kw // 2)), axis=(0, 1))

        self.in_shape = (h, w)
        self.out_shape = (h, w)
        self.kernel = kernel
        # a real kernel's rfft2 half spectrum determines its whole response
        self.freq_response = np.fft.rfft2(padded)
        self._inverse_response = 1.0 / (np.abs(self.freq_response) ** 2 + 1.0)

    def _filter(self, x, response, conjugate=False):
        if np.iscomplexobj(x):
            return (self._filter(x.real, response, conjugate)
                    + 1j * self._filter(x.imag, response, conjugate))
        spectrum = np.fft.rfft2(x)
        if conjugate:
            np.conjugate(spectrum, out=spectrum)
        spectrum *= response
        if conjugate:
            np.conjugate(spectrum, out=spectrum)
        return np.fft.irfft2(spectrum, s=self.in_shape)

    def forward(self, x):
        _check_shape(x, self.in_shape, "image")
        return self._filter(x, self.freq_response)

    def adjoint(self, r):
        _check_shape(r, self.out_shape, "observation")
        return self._filter(r, self.freq_response, conjugate=True)

    def shifted_normal_inverse(self, r):
        _check_shape(r, self.in_shape, "input")
        return self._filter(r, self._inverse_response)


class _Sampling(LinearOperator):
    """Selection of the entries of a 2D grid where ``mask`` is True.

    ``index`` holds the kept entries' row-major flat positions, computed once;
    samples are gathered and scattered through it, in that order.  It is
    ``int32`` whenever that addresses every entry: half the memory of
    ``intp``.  Subclasses name what they sample in ``what``.
    """

    def __init__(self, mask):
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError("mask must be 2D")
        index = np.flatnonzero(mask)
        if index.size < 1:
            raise ValueError(f"mask selects no {self.what}")
        fits = mask.size <= np.iinfo(np.int32).max
        self.mask = mask
        self.index = index.astype(np.int32 if fits else np.intp)
        self.m = index.size
        self.in_shape = mask.shape
        self.out_shape = (self.m,)

    def _gather(self, grid):
        return np.ravel(grid).take(self.index)

    def _scatter(self, r, dtype):
        flat = np.zeros(self.mask.size, dtype=dtype)
        flat[self.index] = r
        return flat.reshape(self.in_shape)


class PixelMask(_Sampling):
    """Row selection: keep the pixels where ``mask`` is True.

    Observations are flat vectors in row-major mask-scan order, so the
    operator satisfies ``B B^H = I`` exactly.
    """

    what = "pixels"

    def forward(self, x):
        _check_shape(x, self.in_shape, "image")
        return self._gather(x)

    def adjoint(self, r):
        _check_shape(r, self.out_shape, "observation")
        return self._scatter(r, np.result_type(r.dtype, np.float64))

    def shifted_normal_inverse(self, r):
        # B^H B is the mask itself, so (I + B^H B)^{-1} halves the kept pixels:
        # ldexp by -1 halves each real component exactly, as 0.5 * r does
        _check_shape(r, self.in_shape, "input")
        r = np.asarray(r)
        exponent = -self.mask.view(np.int8)
        if not np.iscomplexobj(r):
            return np.ldexp(r, exponent)
        out = np.empty_like(r)
        np.ldexp(r.real, exponent, out=out.real)
        np.ldexp(r.imag, exponent, out=out.imag)
        return out


class PartialFourier(_Sampling):
    """Subsampled unitary 2D DFT: keep the frequencies where ``mask`` is True.

    The mask indexes the standard (unshifted) FFT frequency plane.  Observed
    samples come out as a flat complex vector in row-major mask-scan order;
    ``M M^H = I`` holds since rows are distinct.
    """

    out_dtype = np.complex128
    what = "frequencies"

    def forward(self, x):
        _check_shape(x, self.in_shape, "image")
        return self._gather(np.fft.fft2(x, norm="ortho"))

    def adjoint(self, r):
        _check_shape(r, self.out_shape, "observation")
        return np.fft.ifft2(self._scatter(r, np.complex128), norm="ortho")

    def shifted_normal_inverse(self, r):
        # B^H B = F^H diag(mask) F: halve the kept frequencies
        _check_shape(r, self.in_shape, "input")
        spectrum = np.fft.fft2(r, norm="ortho")
        spectrum[~self.mask] = 0.0
        return r - 0.5 * np.fft.ifft2(spectrum, norm="ortho")


class RealPartialFourier(_Sampling):
    """Partial Fourier sampling of a real image: a real-linear map ``R^n -> C^m``.

    ``forward`` gives ``PartialFourier``'s samples.  Under the real inner
    product ``Re<y, Bx>`` on ``C^m`` the adjoint is ``Re(F^H S^T r)``, so the
    solver's image stays real.  A real image has a Hermitian spectrum,
    ``X[-k] = conj(X[k])``, so every map works on the ``rfft2`` half
    spectrum (columns below ``w // 2 + 1``), through flat positions of each
    sample ``k`` and its reflection ``-k`` fixed here:

    - ``forward`` reads a ``k`` past the half spectrum as ``conj(X[-k])``;
    - ``adjoint`` puts the Hermitian part ``(z[k] + conj(z[-k])) / 2`` of
      ``z = S^T r`` on the half spectrum, which ``irfft2`` maps to
      ``Re(F^H z)``;
    - ``B^T B = F^H diag(W) F`` with ``W = (P + P~) / 2``: the mask ``P``
      averaged with its point reflection ``P~[k] = P[-k]``, the same two
      sets of positions.  ``W`` is real and point-symmetric, so
      ``(I + B^T B)^{-1}`` is a real filter, applied as
      ``CircularConvolution`` applies its own.

    The domain is real images; complex input raises ``ValueError``.
    """

    out_dtype = np.complex128
    what = "frequencies"

    def __init__(self, mask):
        super().__init__(mask)
        h, w = self.in_shape
        half = w // 2 + 1
        rows, cols = np.divmod(self.index, w)
        mirror_cols = -cols % w
        at = rows * half + cols
        mirror_at = (-rows % h) * half + mirror_cols
        # a position exists where its column is below half
        self._flip = cols >= half
        self._read = np.where(self._flip, mirror_at, at)
        self._direct = np.flatnonzero(~self._flip).astype(self.index.dtype)
        self._direct_at = at[self._direct]
        self._mirror = np.flatnonzero(mirror_cols < half).astype(self.index.dtype)
        self._mirror_at = mirror_at[self._mirror]
        weight = np.zeros(h * half)
        weight[self._direct_at] = 0.5
        weight[self._mirror_at] += 0.5
        self._inverse_response = (1.0 / (1.0 + weight)).reshape(h, half)

    def forward(self, x):
        _check_real_image(x, self.in_shape, "image")
        out = np.fft.rfft2(x, norm="ortho").ravel().take(self._read)
        return np.conjugate(out, out=out, where=self._flip)

    def adjoint(self, r):
        _check_shape(r, self.out_shape, "observation")
        r = 0.5 * np.asarray(r)
        spectrum = np.zeros(self._inverse_response.shape, dtype=np.complex128)
        flat = spectrum.reshape(-1)
        flat[self._direct_at] = r.take(self._direct)
        flat[self._mirror_at] += np.conjugate(r.take(self._mirror))
        return np.fft.irfft2(spectrum, s=self.in_shape, norm="ortho")

    def shifted_normal_inverse(self, r):
        _check_real_image(r, self.in_shape, "input")
        return np.fft.irfft2(np.fft.rfft2(r) * self._inverse_response, s=self.in_shape)


class SynthesisOperator(LinearOperator):
    """Composition ``A = B W`` of an image-domain operator with frame synthesis.

    The coefficient-domain operator of the synthesis formulation, composed
    explicitly for the validation suite and acceptance criterion 1; the
    solver takes the image-domain operator and applies ``W`` itself, once
    per iteration.  The shifted-normal inverse reuses the base operator's:
    ``(I + W^H B^H B W)^{-1} beta = beta + W^H [(I + B^H B)^{-1} - I] W beta``,
    valid because the frame is Parseval (``W W^H = I``).
    """

    def __init__(self, base, frame):
        self.base = base
        self.frame = frame
        if tuple(base.in_shape) != tuple(frame.image_shape):
            raise ValueError(
                f"operator domain {base.in_shape} != frame image shape {frame.image_shape}"
            )
        self.in_shape = (frame.coefficient_length,)
        self.out_shape = base.out_shape
        self.out_dtype = base.out_dtype

    def forward(self, beta):
        _check_shape(beta, self.in_shape, "coefficient vector")
        return self.base.forward(self.frame.synthesis(beta))

    def adjoint(self, r):
        return self.frame.analysis(self.base.adjoint(r))

    def shifted_normal_inverse(self, beta):
        _check_shape(beta, self.in_shape, "coefficient vector")
        image = self.frame.synthesis(beta)
        return beta + self.frame.analysis(self.base.shifted_normal_inverse(image) - image)


class CountingOperator(LinearOperator):
    """Transparent wrapper that counts forward/adjoint applications.

    The shifted-normal inverse is delegated untouched: its internal FFT/frame
    work is not a call to B or B^H and is not billed as one.
    """

    def __init__(self, inner):
        self.inner = inner
        self.in_shape = inner.in_shape
        self.out_shape = inner.out_shape
        self.out_dtype = inner.out_dtype
        self.forward_calls = 0
        self.adjoint_calls = 0

    def forward(self, x):
        self.forward_calls += 1
        return self.inner.forward(x)

    def adjoint(self, r):
        self.adjoint_calls += 1
        return self.inner.adjoint(r)

    def shifted_normal_inverse(self, r):
        return self.inner.shifted_normal_inverse(r)


def add_noise(y, sigma, seed):
    """Add i.i.d. Gaussian noise of standard deviation ``sigma`` to ``y``.

    The noise is complex exactly when ``y`` is; its variance then splits
    equally between real and imaginary parts, so the total per-sample
    variance is still ``sigma**2``.  Deterministic given ``seed``.
    """
    if not (sigma >= 0):
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    y = np.asarray(y)
    if sigma == 0:
        return y.copy()
    rng = np.random.default_rng(seed)
    if np.iscomplexobj(y):
        noise = (
            rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
        ) * (sigma / np.sqrt(2.0))
    else:
        noise = rng.standard_normal(y.shape) * sigma
    return y + noise
