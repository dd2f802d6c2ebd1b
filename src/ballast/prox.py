"""Proximal maps and penalty functions: soft thresholding, isotropic total
variation via Chambolle's dual fixed point, and Euclidean ball projection.

Every prox here is nonexpansive and deterministic; the solver relies on both.
"""

import numpy as np

__all__ = [
    "soft_threshold",
    "tv_norm",
    "tv_prox",
    "BallConstraint",
    "project_ball",
    "L1Norm",
    "IsotropicTV",
]


def soft_threshold(v, tau):
    """Soft-thresholding, the prox of ``tau * ||.||_1``.

    Real entries shrink toward zero by ``tau``; complex entries shrink in
    magnitude with their phase kept, and anything at or below the threshold
    maps exactly to zero.
    """
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    v = np.asarray(v)
    if not np.iscomplexobj(v):
        # at or below tau, v - v is exactly +0.0; above it, exactly v -/+ tau
        return v - np.clip(v, -tau, tau)
    mag = np.abs(v)
    shrunk = np.maximum(mag - tau, 0.0)
    return v * (shrunk / np.where(mag > 0, mag, 1.0))


def _gradient(x):
    # forward differences, replicate (Neumann) edges: last row/column of
    # differences is zero
    gx = np.zeros_like(x)
    gy = np.zeros_like(x)
    gx[:, :-1] = x[:, 1:] - x[:, :-1]
    gy[:-1, :] = x[1:, :] - x[:-1, :]
    return gx, gy


def _divergence(px, py):
    # exact negative adjoint of _gradient: <_gradient(x), p> == <x, -_divergence(p)>
    # (the last column of px / last row of py never enters, matching the zero
    # rows _gradient produces there)
    div = np.zeros_like(px)
    div[:, 0] += px[:, 0]
    div[:, 1:-1] += px[:, 1:-1] - px[:, :-2]
    div[:, -1] += -px[:, -2]
    div[0, :] += py[0, :]
    div[1:-1, :] += py[1:-1, :] - py[:-2, :]
    div[-1, :] += -py[-2, :]
    return div


def tv_norm(x):
    """Isotropic total variation with replicate edge handling."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ValueError("tv_norm expects a real image; split complex input first")
    if x.ndim != 2 or min(x.shape) < 2:
        raise ValueError(f"TV needs a 2D image with both sides >= 2, got shape {x.shape}")
    gx, gy = _gradient(x)
    return float(np.sum(np.sqrt(gx * gx + gy * gy)))


def tv_prox(v, tau, iterations=10, dual_step=0.248, dual_init=None, return_dual=False):
    """Approximate prox of ``tau * TV`` by Chambolle's projection algorithm.

    Runs a fixed number of multiplicative dual updates from a zero dual
    field (or ``dual_init`` for warm starts) and returns
    ``v - tau * div(p)``.  The fixed iteration count keeps every outer solver
    iteration identical in cost and perfectly reproducible.
    """
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    if np.iscomplexobj(v):
        raise ValueError("tv_prox expects a real image; split complex input first")
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or min(v.shape) < 2:
        raise ValueError(f"TV needs a 2D image with both sides >= 2, got shape {v.shape}")
    if tau == 0:
        out = v.copy()
        return (out, (np.zeros_like(v), np.zeros_like(v))) if return_dual else out
    if dual_init is None:
        px = np.zeros_like(v)
        py = np.zeros_like(v)
    else:
        px = np.array(dual_init[0], dtype=np.float64, copy=True)
        py = np.array(dual_init[1], dtype=np.float64, copy=True)
    for _ in range(iterations):
        gx, gy = _gradient(_divergence(px, py) - v / tau)
        weight = 1.0 + dual_step * np.sqrt(gx * gx + gy * gy)
        px = (px + dual_step * gx) / weight
        py = (py + dual_step * gy) / weight
    out = v - tau * _divergence(px, py)
    if return_dual:
        return out, (px, py)
    return out


class BallConstraint:
    """Euclidean ball ``{s : ||s - center|| <= radius}`` in observation space."""

    def __init__(self, center, radius):
        if radius < 0:
            raise ValueError(f"radius must be nonnegative, got {radius}")
        self.center = np.asarray(center)
        self.radius = float(radius)

    def contains(self, s, slack=1e-12):
        return float(np.linalg.norm(np.ravel(s - self.center))) <= self.radius * (1.0 + slack)


def project_ball(s, ball):
    """Project onto the ball; the prox of its indicator function.

    Points already inside (up to a 1e-12 relative slack) are returned
    untouched, which makes the projection exactly idempotent despite the
    rounding in the radial rescale.
    """
    s = np.asarray(s)
    diff = s - ball.center
    nrm = float(np.linalg.norm(np.ravel(diff)))
    if nrm <= ball.radius * (1.0 + 1e-12):
        return s
    return ball.center + diff * (ball.radius / nrm)


class L1Norm:
    """The l1 penalty: evaluate sums magnitudes, prox is soft thresholding."""

    kind = "l1"

    def evaluate(self, v):
        return float(np.sum(np.abs(v)))

    def prox(self, v, tau, carry=None):
        return soft_threshold(v, tau)


class IsotropicTV:
    """Isotropic TV penalty on a real image with a fixed-iteration Chambolle prox.

    Complex input raises ``ValueError``, as ``tv_norm`` and ``tv_prox`` do.
    With ``warm_start`` enabled the prox reuses the dual field from the
    previous call through the solver-owned ``carry`` dict; the default is a
    cold zero start every call.
    """

    kind = "tv"

    def __init__(self, iterations=10, dual_step=0.248, warm_start=False):
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.iterations = iterations
        self.dual_step = float(dual_step)
        self.warm_start = bool(warm_start)

    def evaluate(self, v):
        return tv_norm(v)

    def prox(self, v, tau, carry=None):
        warm = self.warm_start and carry is not None
        out, dual = tv_prox(
            v,
            tau,
            iterations=self.iterations,
            dual_step=self.dual_step,
            dual_init=carry.get("tv_dual") if warm else None,
            return_dual=True,
        )
        if warm:
            carry["tv_dual"] = dual
        return out
