"""End-to-end acceptance gate for the package.

Each test prints one ``ACCEPTANCE <n>: PASS/FAIL — detail`` line before its
assertions, so the per-criterion verdicts show up directly in ``pytest -v``
output (the -rA flag in pyproject.toml echoes captured stdout for passing
tests as well).  The criteria cover: closed-form inverse correctness against
dense oracles, proximal maps against brute-force minimization, frame
identities, an analytic solver fixed point, the three reconstruction
benchmarks at full desk scale, the deblurring benchmark family's convergence
shape and cost, and the self-check suite.
"""

import time

import numpy as np
import pytest

from conftest import materialize_forward

from ballast import (
    CircularConvolution,
    L1Norm,
    OrthogonalHaar,
    PartialFourier,
    PixelMask,
    SolverConfig,
    SynthesisOperator,
    UndecimatedHaar,
    solve,
)
from ballast.harness import build_experiment, run_experiment
from ballast.prox import BallConstraint, project_ball, soft_threshold, tv_norm, tv_prox
from ballast.validate import run_suite


def _verdict(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"acceptance criterion {n} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. closed-form shifted-normal inverses match dense oracles
# ---------------------------------------------------------------------------

def test_criterion_1_inverse_oracle():
    rng = np.random.default_rng(11)
    shape = (8, 8)
    frame = UndecimatedHaar(shape, levels=2)
    mask = rng.random(shape) < 0.6
    mask.flat[0] = True
    fmask = rng.random(shape) < 0.5
    fmask[0, 0] = True
    bases = {
        "conv": CircularConvolution(rng.random((3, 3)) + 0.1, shape),
        "pixel": PixelMask(mask),
        "fourier": PartialFourier(fmask),
    }
    families = {}
    for name, op in bases.items():
        families[name] = op
        families[name + "+frame"] = SynthesisOperator(op, frame)

    t0 = time.perf_counter()
    worst = 0.0
    for name, op in families.items():
        A = materialize_forward(op)
        n = A.shape[1]
        M = np.eye(n) + A.conj().T @ A
        r = rng.standard_normal(op.in_shape)
        expected = np.linalg.solve(M, np.ravel(r))
        got = np.ravel(op.shifted_normal_inverse(r))
        err = np.linalg.norm(got - expected) / np.linalg.norm(expected)
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-8 and elapsed < 5.0
    _verdict(1, ok,
             f"six operator families vs dense (I + A^H A)^-1 oracle: "
             f"worst rel err {worst:.2e} (<= 1e-8), {elapsed:.2f}s (< 5s)")


# ---------------------------------------------------------------------------
# 2. proximal maps match brute-force minimizers
# ---------------------------------------------------------------------------

def test_criterion_2_prox_oracles():
    # scalar soft threshold vs grid search on 0.5(x-v)^2 + tau|x|
    grid = np.linspace(-4.0, 4.0, 8001)
    worst_soft = 0.0
    for v in (-2.7, -1.0, -0.2, 0.0, 0.4, 1.3, 3.1):
        for tau in (0.0, 0.25, 0.8, 1.5):
            got = float(soft_threshold(np.array([v]), tau)[0])
            brute = grid[np.argmin(0.5 * (grid - v) ** 2 + tau * np.abs(grid))]
            worst_soft = max(worst_soft, abs(got - brute))

    # 2D ball projection vs grid search over the feasible disc
    center = np.array([1.0, -0.5])
    radius = 0.75
    s = np.array([2.4, 0.9])
    axis = np.linspace(-1.0, 1.0, 1601) * radius
    xx, yy = np.meshgrid(center[0] + axis, center[1] + axis, indexing="ij")
    feasible = (xx - center[0]) ** 2 + (yy - center[1]) ** 2 <= radius**2
    dist2 = (xx - s[0]) ** 2 + (yy - s[1]) ** 2
    dist2[~feasible] = np.inf
    idx = np.unravel_index(np.argmin(dist2), dist2.shape)
    brute_point = np.array([xx[idx], yy[idx]])
    got_point = project_ball(s, BallConstraint(center, radius))
    worst_ball = float(np.max(np.abs(got_point - brute_point)))

    # 4x4 TV prox objective vs a long-run projected-gradient oracle
    rng = np.random.default_rng(7)
    v = rng.standard_normal((4, 4)) * 2.0
    tau = 0.25
    out = tv_prox(v, tau, iterations=200)

    def objective(x):
        return 0.5 * float(np.sum((x - v) ** 2)) + tau * tv_norm(x)

    oracle = tv_prox(v, tau, iterations=100_000, dual_step=0.1)
    gap = objective(out) - objective(oracle)

    ok = worst_soft <= 2e-3 and worst_ball <= 2e-3 and abs(gap) <= 1e-4
    _verdict(2, ok,
             f"soft threshold vs grid {worst_soft:.2e} (<= 2e-3), ball projection "
             f"vs grid {worst_ball:.2e} (<= 2e-3), TV prox objective gap "
             f"{gap:.2e} (|.| <= 1e-4)")


# ---------------------------------------------------------------------------
# 3. frame identities at machine precision
# ---------------------------------------------------------------------------

def test_criterion_3_frame_identities():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((32, 32))
    worst = 0.0
    for family in (OrthogonalHaar, UndecimatedHaar):
        for levels in (1, 2, 3, 4):
            frame = family((32, 32), levels=levels)
            coeffs = frame.analysis(x)
            round_trip = np.linalg.norm(frame.synthesis(coeffs) - x) / np.linalg.norm(x)
            energy = abs(np.linalg.norm(coeffs) - np.linalg.norm(x.ravel()))
            energy /= np.linalg.norm(x.ravel())
            c = rng.standard_normal(frame.coefficient_length)
            pairing = abs(np.vdot(frame.analysis(x), c) - np.vdot(x.ravel(), frame.synthesis(c).ravel()))
            pairing /= np.linalg.norm(c) * np.linalg.norm(x.ravel())
            worst = max(worst, round_trip, energy, pairing)
    ok = worst <= 1e-10
    _verdict(3, ok,
             f"both frame families, 1-4 levels, 32x32: worst of round-trip/"
             f"energy/adjoint-pairing error {worst:.2e} (<= 1e-10)")


# ---------------------------------------------------------------------------
# 4. analytic 1D instance
# ---------------------------------------------------------------------------

def test_criterion_4_analytic_instance():
    op = CircularConvolution(np.array([[1.0]]), (1, 1))
    y = np.array([[5.0]])
    worst_err = 0.0
    worst_iters = 0
    for mu in (0.1, 1.0, 10.0):
        config = SolverConfig(mu=mu, epsilon=1.0, max_iterations=200,
                              rel_tol=1e-12)
        res = solve(op, y, L1Norm(), config)
        worst_err = max(worst_err, abs(res.estimate.item() - 4.0))
        worst_iters = max(worst_iters, res.iterations)
    ok = worst_err <= 1e-6 and worst_iters <= 200
    _verdict(4, ok,
             f"min |x| s.t. |x-5| <= 1 over mu in {{0.1, 1, 10}}: worst "
             f"|x^ - 4| = {worst_err:.2e} (<= 1e-6) in <= {worst_iters} "
             f"iterations (<= 200)")


# ---------------------------------------------------------------------------
# 5.-7. reconstruction benchmarks at full desk scale
# ---------------------------------------------------------------------------

def test_criterion_5_fourier_phantom_benchmark():
    t0 = time.perf_counter()
    report = run_experiment(build_experiment("mri"))
    elapsed = time.perf_counter() - t0
    feasible = report.final_constraint_norm <= 1.01 * report.epsilon
    ok = (report.final_mse <= 1e-5 and feasible and report.iterations <= 300
          and elapsed <= 600.0)
    _verdict(5, ok,
             f"128x128 phantom, 22 radial lines: MSE {report.final_mse:.3e} "
             f"(<= 1e-5), constraint {report.final_constraint_norm:.4f} vs "
             f"1.01*eps {1.01 * report.epsilon:.4f}, {report.iterations} "
             f"iterations (<= 300), {elapsed:.0f}s (<= 600s)")


def test_criterion_6_inpainting_benchmark():
    report = run_experiment(build_experiment("inpaint"))
    feasible = report.final_constraint_norm <= 1.01 * report.epsilon
    ratio = report.degraded_mse / report.final_mse
    ok = ratio >= 10.0 and feasible and report.iterations <= 200
    _verdict(6, ok,
             f"128x128 inpainting, 40% missing: MSE improved {ratio:.1f}x over "
             f"the degraded baseline (>= 10x), feasible={feasible}, "
             f"{report.iterations} iterations (<= 200)")


def test_criterion_7_high_dynamic_range_benchmark():
    report = run_experiment(build_experiment("squares"))
    ok = report.relative_error <= 1e-2 and report.iterations <= 150
    _verdict(7, ok,
             f"128x128 squares at 40 dB, 27 radial lines: relative error "
             f"{report.relative_error:.3e} (<= 1e-2) in {report.iterations} "
             f"iterations (<= 150)")


# ---------------------------------------------------------------------------
# 8. deblurring benchmark family: convergence shape and iteration cost
# ---------------------------------------------------------------------------

# reference iteration counts for the same five blur/noise classes solved with
# the same three regularizers by the algorithm this package reimplements;
# each run must finish within 3x its reference count
_REFERENCE_ITERATIONS = {
    ("uniform", "syn"): 134, ("gauss-lo", "syn"): 136, ("gauss-hi", "syn"): 109,
    ("iq-lo", "syn"): 58, ("iq-hi", "syn"): 41,
    ("uniform", "ana"): 138, ("gauss-lo", "ana"): 109, ("gauss-hi", "ana"): 87,
    ("iq-lo", "ana"): 42, ("iq-hi", "ana"): 39,
    ("uniform", "tv"): 232, ("gauss-lo", "tv"): 150, ("gauss-hi", "tv"): 100,
    ("iq-lo", "tv"): 59, ("iq-hi", "tv"): 37,
}


def test_criterion_8_deblurring_family():
    failures = []
    lines = []
    for (blur_class, tag), reference in _REFERENCE_ITERATIONS.items():
        name = f"deblur-{blur_class}-{tag}"
        report = run_experiment(build_experiment(name))
        phi = np.array([rec.objective for rec in report.history])
        con = np.array([rec.constraint_norm for rec in report.history])
        crossed = bool(con.min() <= report.epsilon)
        tail = phi[10:]
        increases = int(np.sum(tail[1:] > tail[:-1] * (1 + 1e-12)))
        feasible = report.final_constraint_norm <= 1.01 * report.epsilon
        within_cost = report.iterations <= 3 * reference
        run_ok = (report.status == "converged" and feasible and crossed
                  and increases == 0 and within_cost)
        lines.append(
            f"{name}: k={report.iterations} (3x ref {3 * reference}), "
            f"crossed={crossed}, objective increases after 10: {increases}"
        )
        if not run_ok:
            failures.append(name)
    for line in lines:
        print("  " + line)
    ok = not failures
    _verdict(8, ok,
             "15 deblurring runs (5 classes x 3 regularizers): constraint "
             "crosses epsilon, objective monotone after iteration 10, cost "
             "within 3x of reference"
             + ("" if ok else f"; FAILING: {', '.join(failures)}"))


# ---------------------------------------------------------------------------
# 9. self-check suite
# ---------------------------------------------------------------------------

def test_criterion_9_self_check_suite():
    ok_suite, results, elapsed = run_suite()
    failed = [r.name for r in results if not r.passed]
    ok = ok_suite and elapsed <= 60.0
    _verdict(9, ok,
             f"self-check suite: {len(results)} checks "
             f"{'all passed' if ok_suite else 'FAILED: ' + ', '.join(failed)} "
             f"in {elapsed:.1f}s (<= 60s)")
