"""Fast self-check suite: named operator/frame/prox properties on small inputs.

Runs in a few seconds and needs no data files.  The operators are built
from the public classes, so a fault in any of them shows in the checks that
rest on it.
"""

import time

import numpy as np

from .frames import OrthogonalHaar, UndecimatedHaar
from .operators import CircularConvolution, PartialFourier, PixelMask, SynthesisOperator
from .prox import BallConstraint, project_ball, soft_threshold, tv_norm, tv_prox

__all__ = ["run_suite"]


class CheckResult:
    def __init__(self, name, passed, detail=""):
        self.name = name
        self.passed = passed
        self.detail = detail

    def __repr__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}" + (f" ({self.detail})" if self.detail else "")


def _rng():
    return np.random.default_rng(20260817)


def _operators():
    rng = _rng()
    shape = (8, 8)
    conv = CircularConvolution(rng.random((3, 3)) + 0.1, shape)
    mask = rng.random(shape) < 0.6
    mask.flat[0] = True
    pixel = PixelMask(mask)
    fmask = rng.random(shape) < 0.5
    fmask[0, 0] = True
    fourier = PartialFourier(fmask)
    frame = UndecimatedHaar(shape, levels=2)
    composed = SynthesisOperator(CircularConvolution(rng.random((3, 3)) + 0.1, shape), frame)
    return {"conv": conv, "pixel": pixel, "fourier": fourier, "composed": composed}


def _rand_in(op, rng):
    return rng.standard_normal(op.in_shape)


def _rand_out(op, rng):
    r = rng.standard_normal(op.out_shape)
    if op.out_dtype == np.complex128:
        r = r + 1j * rng.standard_normal(op.out_shape)
    return r


def _check_adjoint(ops):
    rng = _rng()
    worst = 0.0
    for name, op in ops.items():
        for _ in range(25):
            x = _rand_in(op, rng)
            y = _rand_out(op, rng)
            ax = op.forward(x)
            aty = op.adjoint(y)
            lhs = np.vdot(y, ax)
            rhs = np.vdot(aty, x)
            scale = (
                np.linalg.norm(np.ravel(ax)) * np.linalg.norm(np.ravel(y))
                + np.linalg.norm(np.ravel(x)) * np.linalg.norm(np.ravel(aty))
                + 1e-300
            )
            worst = max(worst, abs(lhs - rhs) / scale)
    assert worst <= 1e-10, f"adjoint mismatch {worst:.2e}"


def _check_dft_parseval(_ops):
    rng = _rng()
    full = PartialFourier(np.ones((8, 8), dtype=bool))
    worst = 0.0
    for _ in range(25):
        x = rng.standard_normal((8, 8))
        worst = max(
            worst,
            abs(np.linalg.norm(full.forward(x)) - np.linalg.norm(x.ravel()))
            / np.linalg.norm(x.ravel()),
        )
    assert worst <= 1e-12, f"DFT energy drift {worst:.2e}"


def _check_selection_rows(ops):
    rng = _rng()
    for name in ("pixel", "fourier"):
        op = ops[name]
        r = _rand_out(op, rng)
        back = op.forward(op.adjoint(r))
        err = np.linalg.norm(back - r) / np.linalg.norm(r)
        assert err <= 1e-12, f"{name}: B B^H != I ({err:.2e})"


def _check_inverse_identity(ops):
    rng = _rng()
    for name, op in ops.items():
        r = _rand_in(op, rng)
        u = op.shifted_normal_inverse(r)
        recon = u + op.adjoint(op.forward(u))
        err = np.linalg.norm(np.ravel(recon - r)) / np.linalg.norm(np.ravel(r))
        assert err <= 1e-8, f"{name}: (I + A^H A) u != r ({err:.2e})"


def _materialize(op):
    n = int(np.prod(op.in_shape))
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cols.append(np.ravel(op.forward(e.reshape(op.in_shape))))
    return np.stack(cols, axis=1)


def _check_dense_inverse(ops):
    rng = _rng()
    for name, op in ops.items():
        A = _materialize(op)
        n = A.shape[1]
        M = np.eye(n) + A.conj().T @ A
        r = rng.standard_normal(n)
        expected = np.linalg.solve(M, r)
        got = np.ravel(op.shifted_normal_inverse(r.reshape(op.in_shape)))
        err = np.linalg.norm(got - expected) / np.linalg.norm(expected)
        assert err <= 1e-8, f"{name}: dense oracle mismatch ({err:.2e})"


def _check_frames(_ops):
    rng = _rng()
    for frame in (OrthogonalHaar((8, 8), levels=2), UndecimatedHaar((8, 8), levels=2)):
        x = rng.standard_normal((8, 8))
        # Parseval: P^H P = I and energy preserved
        err = np.linalg.norm(frame.synthesis(frame.analysis(x)) - x) / np.linalg.norm(x)
        assert err <= 1e-12, f"{type(frame).__name__}: P^H P != I ({err:.2e})"
        coeffs = frame.analysis(x)
        drift = abs(np.linalg.norm(coeffs) - np.linalg.norm(x.ravel())) / np.linalg.norm(x)
        assert drift <= 1e-12, f"{type(frame).__name__}: energy drift ({drift:.2e})"
        # P P^H is the identity on the coefficient range: applying it twice
        # must equal applying it once
        c = rng.standard_normal(frame.coefficient_length)
        once = frame.analysis(frame.synthesis(c))
        twice = frame.analysis(frame.synthesis(once))
        err = np.linalg.norm(twice - once) / (np.linalg.norm(once) + 1e-300)
        assert err <= 1e-12, f"{type(frame).__name__}: range projection not idempotent"


def _check_soft_threshold(_ops):
    grid = np.linspace(-3.0, 3.0, 4001)
    for v in (-2.3, -0.4, 0.0, 0.7, 1.9):
        for tau in (0.0, 0.3, 1.1):
            got = float(soft_threshold(np.array([v]), tau)[0])
            losses = 0.5 * (grid - v) ** 2 + tau * np.abs(grid)
            brute = grid[np.argmin(losses)]
            assert abs(got - brute) <= 2e-3, f"soft_threshold({v},{tau})={got} vs {brute}"


def _check_ball_projection(_ops):
    rng = _rng()
    y = rng.standard_normal(12)
    ball = BallConstraint(y, 0.8)
    for _ in range(50):
        s = y + rng.standard_normal(12) * 2.0
        p = project_ball(s, ball)
        assert np.linalg.norm(p - y) <= 0.8 * (1 + 1e-12)
        p2 = project_ball(p, ball)
        assert np.array_equal(p, p2), "projection not idempotent"
        # nonexpansive against a second point
        s2 = y + rng.standard_normal(12) * 2.0
        p3 = project_ball(s2, ball)
        assert np.linalg.norm(p - p3) <= np.linalg.norm(s - s2) * (1 + 1e-12)


def _check_tv_prox(_ops):
    rng = _rng()
    v = rng.standard_normal((12, 12)) * 2.0
    tau = 0.7
    out = tv_prox(v, tau, iterations=40)
    # the prox objective at the output must beat the trivial candidate v
    obj_out = 0.5 * np.sum((out - v) ** 2) + tau * tv_norm(out)
    obj_v = tau * tv_norm(v)
    assert obj_out <= obj_v + 1e-9, "TV prox worse than identity"
    # with a dual step within the convergence bound, more inner iterations
    # never increase the objective
    prev = None
    for iters in (2, 5, 10, 20, 40):
        x = tv_prox(v, tau, iterations=iters, dual_step=0.12)
        obj = 0.5 * np.sum((x - v) ** 2) + tau * tv_norm(x)
        if prev is not None:
            assert obj <= prev + 1e-9, "TV objective increased with iterations"
        prev = obj


_CHECKS = [
    ("operators/adjoint-identity", _check_adjoint),
    ("operators/dft-parseval", _check_dft_parseval),
    ("operators/selection-rows", _check_selection_rows),
    ("operators/inverse-identity", _check_inverse_identity),
    ("operators/dense-inverse-oracle", _check_dense_inverse),
    ("frames/parseval-and-energy", _check_frames),
    ("prox/soft-threshold-oracle", _check_soft_threshold),
    ("prox/ball-projection", _check_ball_projection),
    ("prox/tv-descent", _check_tv_prox),
]


def run_suite():
    """Run every named check; returns (all_passed, [CheckResult], elapsed_s)."""
    ops = _operators()
    results = []
    t0 = time.perf_counter()
    for name, fn in _CHECKS:
        try:
            fn(ops)
            results.append(CheckResult(name, True))
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc)))
    elapsed = time.perf_counter() - t0
    return all(r.passed for r in results), results, elapsed
