"""Proximal maps and penalty functions: soft thresholding, isotropic total
variation via Chambolle's dual fixed point, and Euclidean ball projection;
also the norms the solver's stop rule and record read (``l2_norm`` of one
array; ``l2_distance`` and ``mse``, both from ``squared_distance``'s block
sum, of two).

Every prox here is nonexpansive and deterministic; the solver relies on both.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "soft_threshold",
    "tv_norm",
    "tv_prox",
    "BallConstraint",
    "project_ball",
    "mse",
    "L1Norm",
    "IsotropicTV",
]

# Elements per block of the blocked reductions (``squared_distance``,
# ``L1Norm.evaluate``) and of the frame step's coefficient chain: a block,
# 256 KiB for real input, stays in the L2 cache, and is under a quarter of a
# 13-band coefficient array from 128x128 up.
BLOCK = 32768

# Chambolle's dual step, 1/8: the bound of his 2004 convergence proof.
DUAL_STEP = 0.125

# Pixels from which ``IsotropicTV.prox`` runs as two row bands and the frame
# step its coefficient chain in ``BLOCK`` blocks, in two halves, on any CPU
# count; with two usable CPUs ``beside`` hands the lower ones, and the frame
# step's operator work, to the solve's worker (``carry_worker``).  Measured
# on a 2-core host (ROADMAP): at 128^2 the bands lose, since short ufunc
# calls contend for the GIL and the ghost rows are a large share of a half;
# at 256^2 and 512^2 they gain, on two threads and, run in order, on one.
# The blocked chain is faster at 128^2 as well; it stays one whole block
# below this size because its block-sized prox outputs, copied into the new
# v0, lift the 64^2 frame-solve peak over its bound of 7 coefficient arrays.
BAND_PIXELS = 256 * 256


def soft_threshold(v, tau):
    """Soft-thresholding, the prox of ``tau * ||.||_1``.

    Real entries shrink toward zero by ``tau``; complex entries shrink in
    magnitude with their phase kept, and anything at or below the threshold
    maps exactly to zero.
    """
    _check_threshold(tau)
    v = np.asarray(v)
    if not np.iscomplexobj(v):
        # at or below tau, v - v is exactly +0.0; above it, exactly v -/+ tau.
        # The difference goes into the clip array, so only one array-sized
        # result is allocated; a 0-d input clips to a scalar, which cannot
        # be an out=
        c = np.clip(v, -tau, tau)
        return v - c if np.ndim(c) == 0 else np.subtract(v, c, out=c)
    mag = np.abs(v)
    shrunk = np.maximum(mag - tau, 0.0)
    return v * (shrunk / np.where(mag > 0, mag, 1.0))


def _check_threshold(tau):
    """Raise ``ValueError`` unless the prox weight ``tau`` is finite and >= 0."""
    if not 0 <= tau < math.inf:
        raise ValueError(f"threshold must be nonnegative and finite, got {tau}")


def tv_norm(x):
    """Isotropic total variation; replicated edges zero the last differences."""
    x = _real_image(x)
    # |grad|^2 and its root are formed in place
    g = np.empty((2, x.size), dtype=x.dtype if x.dtype.kind == "f" else np.float64)
    _gradient(np.ravel(x), x.shape[1], g)
    np.multiply(g, g, out=g)
    np.add(g[0], g[1], out=g[0])
    return float(np.sum(np.sqrt(g[0], out=g[0])))


def _gradient(flat, w, g):
    """The forward differences of the row-major image ``flat``, ``w`` wide,
    into the stacked ``(2, flat.size)`` array ``g``: along rows into
    ``g[0]``, along columns into ``g[1]``, from flat shifted slices.  The
    entries that would cross a row end and the last row's are zeroed, as
    replicated edges make them."""
    n = flat.size
    np.subtract(flat[1:], flat[:-1], out=g[0, :-1])
    g[0, w - 1::w] = 0.0
    np.subtract(flat[w:], flat[:-w], out=g[1, :-w])
    g[1, n - w:] = 0.0


def _real_image(x, dtype=None):
    """``x`` as a ``dtype`` array, once it is a real 2D image, sides >= 2."""
    if np.iscomplexobj(x):
        raise ValueError("TV expects a real image; split complex input first")
    x = np.asarray(x, dtype=dtype)
    if x.ndim != 2 or min(x.shape) < 2:
        raise ValueError(f"TV needs a 2D image with both sides >= 2, got shape {x.shape}")
    return x


def _tv_input(v, tau):
    """``v`` as a float64 image, once ``tau`` and ``v`` pass the TV prox's checks."""
    _check_threshold(tau)
    return _real_image(v, np.float64)


def tv_prox(v, tau, iterations=10, dual_step=DUAL_STEP, dual=None):
    """Approximate prox of ``tau * TV`` by Chambolle's projection algorithm.

    Runs a fixed number of multiplicative dual updates and returns
    ``v - tau * div(p)``; the fixed count keeps every solver iteration equal
    in cost and reproducible.  The default step, 1/8, is the bound under
    which Chambolle (2004) proves the projection converges.  The dual is one
    stacked ``(2, h*w)`` array, updated in place by shifted-slice
    differences on the flattened image: a zero field allocated per call, or
    ``dual``, a float64 array of that shape that the call starts from and
    leaves holding the final field.  ``px[:, -1]`` and ``py[-1, :]`` never
    enter the divergence and are held at zero, so those entries of ``dual``
    are zeroed; at ``tau == 0`` the prox is the identity and all of it is.

    This is the whole-image form of the prox.  ``IsotropicTV.prox`` runs the
    same body (``_tv``) on row bands of large images, each band widened by
    ``iterations + 1`` ghost rows, and gets these bits.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    v = _tv_input(v, tau)
    return _tv(v, tau, np.zeros((2, v.size)) if dual is None else dual, iterations, dual_step)


def _tv(v, tau, dual, iterations, dual_step, ghost=0, carry=None):
    """The TV prox of the checked float64 image ``v`` from ``dual``: the
    whole image at ``ghost = 0``, else two row bands, each widened by
    ``ghost`` rows of the other.  ``dual`` is a float64 ``(2, (h + 2*ghost)
    * w)`` array, each band's field (own and ghost rows) one band after the
    other.  Each banded call first copies every band's ghost rows from the
    other band's own rows; then ``beside`` runs the lower band on the
    solve's worker (``carry_worker``), or first where there is none, and the
    upper on the calling thread, each writing its own rows of the output.
    """
    h, w = v.shape
    n = (h + 2 * ghost) * w
    if np.shape(dual) != (2, n) or getattr(dual, "dtype", None) != np.float64:
        raise ValueError(f"the TV dual needs a float64 array of shape (2, {n})")
    if tau == 0:
        dual[...] = 0.0
        return v.copy()
    if not ghost:
        return _chambolle(v, tau, dual, iterations, dual_step)
    # the upper band holds rows [0, cut + ghost), the lower [cut - ghost, h);
    # each one's ghost rows start as the other one's own rows
    cut = h // 2
    upper, lower = np.split(dual, [(cut + ghost) * w], axis=1)
    upper[:, cut * w:] = lower[:, ghost * w:2 * ghost * w]
    lower[:, :ghost * w] = upper[:, (cut - ghost) * w:cut * w]
    out = np.empty_like(v)
    beside(carry_worker(carry, h * w),
           lambda: _chambolle(v[cut - ghost:], tau, lower, iterations, dual_step,
                              out[cut:], slice(ghost, None)),
           lambda: _chambolle(v[:cut + ghost], tau, upper, iterations, dual_step,
                              out[:cut], slice(None, cut)))
    return out


def _chambolle(v, tau, p, iterations, dual_step, out=None, own=slice(None)):
    """Chambolle's loop on the image ``v`` from the dual ``p``, a ``(2,
    v.size)`` float64 array (possibly a view) left holding the final field;
    returns rows ``own`` of ``v - tau * div(p)``, written into ``out`` if
    given.  Row bands run it as if their edges were the image's.

    It calls numpy ufuncs and slice assignments only, so a worker thread
    may run it.  It holds four ``v``-sized arrays, allocated in this order:
    the stacked gradient ``g`` (``g[1]`` also takes the divergence's
    y-part, ``g[0]`` the weight), ``div``, and ``v / tau``, which takes the
    result where ``out`` is not given.  Allocated last, it keeps the freed
    work arrays below it in the heap, where freed on top they could be
    returned to the system and faulted back in on every call (on ``mri``,
    100-130 page faults per iteration against 4-9).
    """
    h, w = v.shape
    n = h * w
    p[0, w - 1::w] = p[1, n - w:] = 0.0
    g = np.empty((2, n))
    div = np.empty(n)
    vt = np.ravel(v / tau)
    for k in range(iterations + 1):
        # div = x-part + y-part; zeros held at the far edges make flat shifts exact
        div[0] = p[0, 0]
        np.subtract(p[0, 1:], p[0, :-1], out=div[1:])
        g[1, :w] = p[1, :w]
        np.subtract(p[1, w:], p[1, :-w], out=g[1, w:])
        np.add(div, g[1], out=div)
        if k == iterations:
            break
        # the step scales (div - v/tau) once, so g and the weight come out
        # scaled by it; at a power-of-two step the bits are those of scaling
        # g and |g| apart
        np.subtract(div, vt, out=div)
        np.multiply(div, dual_step, out=div)
        _gradient(div, w, g)  # g[1]'s last row was written by the divergence's y-part
        np.add(p, g, out=p)
        np.multiply(g, g, out=g)
        weight = np.add(g[0], g[1], out=g[0])
        np.sqrt(weight, out=weight)
        np.add(weight, 1.0, out=weight)
        np.divide(p, weight, out=p)
    div = div.reshape(h, w)[own]
    np.multiply(div, tau, out=div)
    if out is None:
        out = vt.reshape(h, w)[own]
    return np.subtract(v[own], div, out=out)


def l2_norm(a):
    """Euclidean norm by an einsum reduction: unlike BLAS, whose summation
    order follows its thread count, it gives the same bits on any setting.
    Complex input is summed over its interleaved real and imaginary parts."""
    a = np.ravel(a)
    a = a.view(a.real.dtype)
    return float(np.sqrt(np.einsum("i,i->", a, a)))


def squared_distance(a, b):
    """``l2_norm(a - b) ** 2`` without an array-sized temporary.

    The difference is formed ``BLOCK`` elements at a time in one reused
    float64 buffer (complex128 for complex input), and each block's squares
    are summed by an einsum reduction, over interleaved real and imaginary
    parts as in ``l2_norm``.  Up to ``BLOCK`` elements that is the sum
    ``l2_norm`` takes; past it, block sums are not one reduction, so the
    result can differ in the last digits.  Input that is not C-contiguous is
    copied by ``np.ravel``.
    """
    if np.shape(a) != np.shape(b):
        raise ValueError(f"shape mismatch: {np.shape(a)} vs {np.shape(b)}")
    a, b = np.ravel(a), np.ravel(b)
    buf = np.empty(min(a.size, BLOCK), dtype=np.result_type(a, b, np.float64))
    total = 0.0
    for i in range(0, a.size, BLOCK):
        d = np.subtract(a[i:i + BLOCK], b[i:i + BLOCK], out=buf[:min(BLOCK, a.size - i)],
                        dtype=buf.dtype)
        d = d.view(d.real.dtype)
        total += float(np.einsum("i,i->", d, d))
    return total


def l2_distance(a, b):
    """``l2_norm(a - b)`` by ``squared_distance``'s block sum."""
    return math.sqrt(squared_distance(a, b))


def mse(a, b):
    """Mean squared error, ``squared_distance(a, b) / a.size``; complex
    differences use squared magnitude."""
    return squared_distance(a, b) / np.size(a)


class BallConstraint:
    """Euclidean ball ``{s : ||s - center|| <= radius}`` in observation space."""

    def __init__(self, center, radius):
        if not (radius >= 0):
            raise ValueError(f"radius must be nonnegative, got {radius}")
        self.center = np.asarray(center)
        self.radius = float(radius)


def project_ball(s, ball):
    """Project onto the ball; the prox of its indicator function.

    Points already inside (up to a 1e-12 relative slack) are returned
    untouched, which makes the projection exactly idempotent despite the
    rounding in the radial rescale.  A point outside is projected in its
    one temporary, ``s - center``, rescaled and shifted back in place, so
    the result shares memory with neither ``s`` nor the center.
    """
    s = np.asarray(s)
    diff = s - ball.center
    nrm = l2_norm(diff)
    if nrm <= ball.radius * (1.0 + 1e-12):
        return s
    diff *= ball.radius / nrm
    diff += ball.center
    return diff


class L1Norm:
    """The l1 penalty: evaluate sums magnitudes, prox is soft thresholding."""

    kind = "l1"

    def evaluate(self, v):
        """``np.sum(np.abs(v))`` without an array-sized temporary: magnitudes
        go ``BLOCK`` at a time into one reused float64 buffer and each block
        is summed there, so the last digits can differ from one pairwise sum.
        Input that is not C-contiguous is copied by ``np.ravel``."""
        v = np.ravel(v)
        buf = np.empty(min(v.size, BLOCK))
        total = 0.0
        for i in range(0, v.size, BLOCK):
            total += float(np.sum(np.abs(v[i:i + BLOCK], out=buf[:min(BLOCK, v.size - i)])))
        return total

    def prox(self, v, tau, carry=None):
        return soft_threshold(v, tau)


class IsotropicTV:
    """Isotropic TV penalty on a real image with a fixed-iteration Chambolle prox.

    Complex input raises ``ValueError``, as ``tv_norm`` and ``tv_prox`` do.
    The prox warm-starts Chambolle's dual from the previous call: the field
    lives in the solver-owned per-solve ``carry`` dict, never on the penalty,
    and each call updates it in place.  Warm, a few inner steps per outer
    iteration suffice; without a ``carry`` every call starts cold.

    From ``BAND_PIXELS`` pixels up, where each half has at least
    ``iterations + 1`` rows, the prox runs as two row bands (``_tv``) on any
    CPU count, and ``carry["tv_dual"]`` holds both bands' fields.  After k
    inner steps an output row depends only on the rows within k + 1 of it,
    so a band that reaches ``iterations + 1`` ghost rows into the other, run
    as if its edges were the image's, gives its own rows bit for bit as the
    whole image does.
    """

    kind = "tv"

    def __init__(self, iterations=3):
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.iterations = iterations

    def evaluate(self, v):
        return tv_norm(v)

    def prox(self, v, tau, carry=None):
        carry = {} if carry is None else carry
        v = _tv_input(v, tau)
        h, w = v.shape
        ghost = self.iterations + 1 if h * w >= BAND_PIXELS and h // 2 > self.iterations else 0
        if "tv_dual" not in carry:
            carry["tv_dual"] = np.zeros((2, (h + 2 * ghost) * w))
        return _tv(v, tau, carry["tv_dual"], self.iterations, DUAL_STEP, ghost, carry)


def carry_worker(carry, pixels):
    """The solve's one-thread worker, kept in ``carry["worker"]``, or None.

    The first call for an image of at least ``BAND_PIXELS`` pixels makes it
    when the process may run on two CPUs; smaller images, and one CPU, get
    None.  It only places work that ``beside`` hands over, the TV prox's
    lower band and the frame step's pieces, so a solve's bits do not depend
    on it.  It lives as long as the carry, so it exits once the solve that
    owns the carry is dropped.
    """
    worker = carry.get("worker")
    if worker is None and pixels >= BAND_PIXELS and _usable_cpus() >= 2:
        worker = carry["worker"] = ThreadPoolExecutor(1, thread_name_prefix="ballast")
    return worker


def beside(worker, background, foreground):
    """``(background(), foreground())``: ``background`` on the ``worker``
    beside ``foreground`` on the calling thread, or without a worker the two
    in that order.  Either way it returns or raises what that order would:
    the task is joined however ``foreground`` exits, and where both raise,
    ``background``'s error is raised.  ``background`` must not call
    ``beside`` on the same worker, which would wait on its own queue.
    """
    if worker is None:
        return background(), foreground()
    task = worker.submit(background)
    try:
        front = foreground()
    finally:
        back = task.result()  # raised here, it replaces foreground's error
    return back, front


def _usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1
