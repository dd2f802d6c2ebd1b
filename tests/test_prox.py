"""Proximal-map tests against brute-force and long-run oracles.

Oracles are independent of the implementation: scalar prox values come from
dense grid searches over the defining objectives, and the TV prox is compared
with a from-scratch projected-gradient dual solver run far past convergence.
"""

import gc
import multiprocessing
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

import ballast.prox
from ballast import (
    BallConstraint,
    DivergenceError,
    IsotropicTV,
    L1Norm,
    SolverConfig,
    UndecimatedHaar,
    inpainting_instance,
    project_ball,
    soft_threshold,
    solve,
    tv_norm,
    tv_prox,
)
from ballast.prox import l2_norm
from conftest import traced_peak


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def grid_argmin_scalar_l1(v, tau, lo=-3.0, hi=3.0, step=1e-4):
    xs = np.arange(lo, hi + step, step)
    vals = 0.5 * (xs - v) ** 2 + tau * np.abs(xs)
    return xs[np.argmin(vals)]


def oracle_tv_gradient(a):
    gx = np.zeros_like(a)
    gy = np.zeros_like(a)
    gx[:, :-1] = a[:, 1:] - a[:, :-1]
    gy[:-1, :] = a[1:, :] - a[:-1, :]
    return gx, gy


def oracle_tv_divergence(px, py):
    div = np.zeros_like(px)
    div[:, 0] = px[:, 0]
    div[:, 1:-1] = px[:, 1:-1] - px[:, :-2]
    div[:, -1] = -px[:, -2]
    div[0, :] += py[0, :]
    div[1:-1, :] += py[1:-1, :] - py[:-2, :]
    div[-1, :] += -py[-2, :]
    return div


def oracle_tv_objective(x, v, tau):
    gx, gy = oracle_tv_gradient(x)
    return 0.5 * np.sum((x - v) ** 2) + tau * np.sum(np.hypot(gx, gy))


def oracle_tv_prox(v, tau, iterations=100_000, step=0.1):
    """Long-run projected gradient on the dual of the TV prox problem."""
    px = np.zeros_like(v)
    py = np.zeros_like(v)
    for _ in range(iterations):
        gx, gy = oracle_tv_gradient(oracle_tv_divergence(px, py) - v / tau)
        px_new = px + step * gx
        py_new = py + step * gy
        mag = np.maximum(1.0, np.hypot(px_new, py_new))
        px, py = px_new / mag, py_new / mag
    return v - tau * oracle_tv_divergence(px, py)


# ---------------------------------------------------------------------------
# soft threshold
# ---------------------------------------------------------------------------

def test_soft_threshold_formula_values():
    assert soft_threshold(np.array(0.3), 0.5) == pytest.approx(0.0)
    assert soft_threshold(np.array(-2.0), 0.5) == pytest.approx(-1.5)
    assert soft_threshold(np.array(1.7), 0.0) == pytest.approx(1.7)


def test_soft_threshold_matches_grid_search():
    got = soft_threshold(np.array(1.7), 0.4)
    want = grid_argmin_scalar_l1(1.7, 0.4)
    assert abs(float(got) - want) <= 1e-3
    for v, tau in [(-2.3, 0.7), (0.05, 0.3), (2.9, 1.1)]:
        assert abs(float(soft_threshold(np.array(v), tau))
                   - grid_argmin_scalar_l1(v, tau)) <= 1e-3


def test_soft_threshold_negative_tau_raises():
    with pytest.raises(ValueError):
        soft_threshold(np.zeros(3), -0.1)


def test_soft_threshold_complex_shrinks_magnitude():
    v = np.array([3.0 + 4.0j, 0.1 + 0.1j])
    out = soft_threshold(v, 1.0)
    # magnitude 5 shrinks to 4, phase kept; magnitude below tau vanishes
    assert abs(out[0] - (2.4 + 3.2j)) <= 1e-12
    assert out[1] == 0.0


def test_l1_prox_optimality_against_perturbations(rng):
    v = rng.standard_normal(40)
    tau = 0.3
    z = soft_threshold(v, tau)
    base = 0.5 * np.sum((z - v) ** 2) + tau * np.sum(np.abs(z))
    for _ in range(100):
        delta = rng.standard_normal(40)
        delta *= 1e-3 / np.linalg.norm(delta)
        cand = z + delta
        val = 0.5 * np.sum((cand - v) ** 2) + tau * np.sum(np.abs(cand))
        assert base <= val + 1e-15


def test_soft_threshold_real_and_complex_paths_exact(rng):
    tau = 0.7
    v = np.concatenate([rng.uniform(-3.0, 3.0, 200), [tau, -tau, 0.0, -0.0]])
    out = soft_threshold(v, tau)
    inside = np.abs(v) <= tau
    # at or below the threshold: exactly +0.0, never -0.0
    assert np.all(out[inside] == 0.0) and not np.any(np.signbit(out[inside]))
    # above it: exactly v - tau * sign(v)
    np.testing.assert_array_equal(out[~inside], v[~inside] - tau * np.sign(v[~inside]))
    # complex entries shrink in magnitude with their phase kept, as before
    z = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    mag = np.abs(z)
    want = z * (np.maximum(mag - tau, 0.0) / np.where(mag > 0, mag, 1.0))
    np.testing.assert_array_equal(soft_threshold(z, tau), want)


def test_soft_threshold_nonexpansive(rng):
    for _ in range(50):
        a = rng.standard_normal(16)
        b = rng.standard_normal(16)
        lhs = np.linalg.norm(soft_threshold(a, 0.4) - soft_threshold(b, 0.4))
        assert lhs <= np.linalg.norm(a - b) + 1e-14


# ---------------------------------------------------------------------------
# ball projection
# ---------------------------------------------------------------------------

def test_project_ball_radial_scaling():
    ball = BallConstraint(center=np.zeros(2), radius=1.0)
    out = project_ball(np.array([3.0, 4.0]), ball)
    np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-14)


def test_project_ball_interior_point_unchanged(rng):
    y = rng.standard_normal(6)
    ball = BallConstraint(center=y, radius=2.0)
    s = y + 0.5 * rng.standard_normal(6) / np.sqrt(6)
    np.testing.assert_array_equal(project_ball(s, ball), s)


def test_project_ball_matches_grid_search():
    # minimize 0.5 ||x - s||^2 over the ball centered at (1, 1) with radius 0.5
    y = np.array([1.0, 1.0])
    s = np.array([2.0, 1.0])
    ball = BallConstraint(center=y, radius=0.5)
    xs = np.arange(0.4, 1.7, 1e-3)
    best, best_val = None, np.inf
    for x0 in xs:
        x1s = xs[np.hypot(x0 - 1.0, xs - 1.0) <= 0.5]
        if len(x1s) == 0:
            continue
        vals = 0.5 * ((x0 - s[0]) ** 2 + (x1s - s[1]) ** 2)
        i = np.argmin(vals)
        if vals[i] < best_val:
            best_val, best = vals[i], np.array([x0, x1s[i]])
    got = project_ball(s, ball)
    np.testing.assert_allclose(got, [1.5, 1.0], atol=1e-12)
    np.testing.assert_allclose(got, best, atol=2e-3)


def test_project_ball_idempotent_bitwise(rng):
    y = rng.standard_normal(9)
    ball = BallConstraint(center=y, radius=0.7)
    s = y + rng.standard_normal(9)
    once = project_ball(s, ball)
    twice = project_ball(once, ball)
    np.testing.assert_array_equal(once, twice)


def test_project_ball_output_feasible_and_nonexpansive(rng):
    y = rng.standard_normal(12)
    ball = BallConstraint(center=y, radius=0.9)
    for _ in range(50):
        a = y + rng.standard_normal(12)
        b = y + rng.standard_normal(12)
        pa, pb = project_ball(a, ball), project_ball(b, ball)
        assert np.linalg.norm(pa - y) <= 0.9 * (1 + 1e-12)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-14


def test_project_ball_zero_radius_returns_center(rng):
    y = rng.standard_normal(5)
    ball = BallConstraint(center=y, radius=0.0)
    np.testing.assert_allclose(project_ball(y + 3.0, ball), y, atol=1e-14)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_project_ball_projects_an_outside_point_in_one_temporary(rng, dtype):
    # outside the ball, s - center is rescaled and shifted in place: the
    # result is that one array, with the bits of the textbook formula

    def draw(shape):
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if dtype == np.complex128 else a

    for shape in [(int(rng.integers(4096, 8193)),), tuple(rng.integers(64, 97, size=2))]:
        center = draw(shape)
        s = center + 2.0 * draw(shape)
        ball = BallConstraint(center, 0.5 * l2_norm(s - center))
        got = project_ball(s, ball)
        assert not np.may_share_memory(got, s) and not np.may_share_memory(got, center)
        diff = s - center
        np.testing.assert_array_equal(got, center + diff * (ball.radius / l2_norm(diff)))
        assert got.dtype == dtype and got.shape == shape
        peak = traced_peak(lambda: project_ball(s, ball))
        assert peak <= 1.1 * s.nbytes, peak / s.nbytes


def test_ball_constraint_validates_radius():
    with pytest.raises(ValueError):
        BallConstraint(center=np.zeros(2), radius=-1.0)
    with pytest.raises(ValueError):
        BallConstraint(center=np.zeros(2), radius=float("nan"))


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------

def test_tv_norm_hand_values():
    assert tv_norm(np.full((3, 3), 2.5)) == pytest.approx(0.0)
    # [[0,1],[0,1]]: two unit horizontal jumps, zero vertical, replicate edges
    assert tv_norm(np.array([[0.0, 1.0], [0.0, 1.0]])) == pytest.approx(2.0)


def test_tv_norm_positive_homogeneity(rng):
    x = rng.standard_normal((6, 6))
    for c in (-2.0, 0.5, 3.0):
        assert tv_norm(c * x) == pytest.approx(abs(c) * tv_norm(x), rel=1e-12)


def test_tv_norm_rejects_complex():
    with pytest.raises(ValueError):
        tv_norm(np.zeros((3, 3), dtype=complex))


def test_tv_prox_tau_zero_and_constants(rng):
    v = rng.standard_normal((5, 5))
    np.testing.assert_array_equal(tv_prox(v, 0.0), v)
    const = np.full((5, 5), 1.3)
    np.testing.assert_allclose(tv_prox(const, 0.8, iterations=20), const, atol=1e-14)


def test_tv_prox_matches_long_run_oracle(rng):
    v = rng.standard_normal((4, 4))
    tau = 0.25
    got = tv_prox(v, tau, iterations=200)
    oracle = oracle_tv_prox(v, tau)
    gap = oracle_tv_objective(got, v, tau) - oracle_tv_objective(oracle, v, tau)
    assert gap <= 1e-4


def test_tv_prox_objective_monotone_at_small_step(rng):
    v = rng.standard_normal((6, 6))
    tau = 0.4
    objs = [
        oracle_tv_objective(tv_prox(v, tau, iterations=k, dual_step=0.125), v, tau)
        for k in range(1, 31)
    ]
    diffs = np.diff(objs)
    assert np.all(diffs <= 1e-10)


def test_tv_prox_deterministic(rng):
    v = rng.standard_normal((8, 8))
    a = tv_prox(v, 0.3, iterations=15)
    b = tv_prox(v, 0.3, iterations=15)
    np.testing.assert_array_equal(a, b)


def test_tv_prox_dual_carry_changes_start(rng):
    v = rng.standard_normal((6, 6))
    dual = np.zeros((2, v.size))
    first = tv_prox(v, 0.3, iterations=10, dual=dual)
    cold = tv_prox(v, 0.3, iterations=10)
    np.testing.assert_array_equal(first, cold)  # a zero dual is the cold start
    assert dual.any()  # the call left its final field in place
    resumed = tv_prox(v, 0.3, iterations=10, dual=dual)
    # resuming from the carried dual is the same as running twice as long
    long_run = tv_prox(v, 0.3, iterations=20)
    np.testing.assert_allclose(resumed, long_run, atol=1e-12)
    assert np.linalg.norm(resumed - cold) > 0


def test_tv_prox_rejects_misshapen_dual_init(rng):
    # the dual is updated in place, so anything but a float64 (2, h*w) array
    # is refused rather than broadcast or copied
    v = rng.standard_normal((5, 6))
    for bad in (np.zeros((2, 5, 6)), np.zeros((2, 31)), np.zeros((1, 30)), np.zeros(60),
                np.zeros((2, 30), dtype=np.float32), np.zeros((2, 30)).tolist(),
                (np.zeros(30), np.zeros(30))):
        with pytest.raises(ValueError, match="dual"):
            tv_prox(v, 0.3, dual=bad)


def test_tv_prox_rejects_negative_iterations(rng):
    v = rng.standard_normal((4, 4))
    with pytest.raises(ValueError, match="iterations"):
        tv_prox(v, 0.3, iterations=-1)
    # zero inner steps is the identity of the dual: v - tau * div(0) == v
    np.testing.assert_array_equal(tv_prox(v, 0.3, iterations=0), v)


def test_tv_prox_holds_four_image_arrays(rng):
    # the stacked gradient (two images), the divergence and v / tau, which
    # takes the result: 4.01 images measured for one warm call at 128^2
    v = rng.standard_normal((128, 128))
    dual = np.zeros((2, v.size))
    tv_prox(v, 0.3, iterations=10, dual=dual)
    peak = traced_peak(lambda: tv_prox(v, 0.3, iterations=10, dual=dual))
    assert peak <= 4.2 * v.nbytes, peak / v.nbytes


def test_tv_prox_row_band_holds_four_band_arrays(rng):
    # a row band writes its own rows into the caller's output, so it holds
    # the same four work arrays at the band's size and nothing else
    v = rng.standard_normal((128, 128))
    band, rows = v[:68], slice(None, 64)
    dual = np.zeros((2, band.size))
    out = np.empty((64, 128))

    def call():
        ballast.prox._chambolle(band, 0.3, dual, 3, ballast.prox.DUAL_STEP, out, rows)

    call()
    peak = traced_peak(call)
    assert peak <= 4.2 * band.nbytes, peak / band.nbytes


# ---------------------------------------------------------------------------
# penalty objects
# ---------------------------------------------------------------------------

def test_penalty_objects_evaluate_and_prox(rng):
    l1 = L1Norm()
    tv = IsotropicTV(iterations=10)
    assert l1.kind == "l1" and tv.kind == "tv"
    assert l1.evaluate(np.zeros(4)) == 0.0
    assert tv.evaluate(np.zeros((4, 4))) == 0.0
    v = rng.standard_normal(10)
    np.testing.assert_array_equal(l1.prox(v, 0.5, {}), soft_threshold(v, 0.5))
    img = rng.standard_normal((6, 6))
    np.testing.assert_array_equal(
        tv.prox(img, 0.25, {}), tv_prox(img, 0.25, iterations=10)
    )


def test_penalty_midpoint_convexity(rng):
    l1 = L1Norm()
    tv = IsotropicTV()
    for _ in range(50):
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        mid = (a + b) / 2.0
        assert l1.evaluate(mid) <= (l1.evaluate(a) + l1.evaluate(b)) / 2 + 1e-12
        assert tv.evaluate(mid) <= (tv.evaluate(a) + tv.evaluate(b)) / 2 + 1e-12


def test_tv_penalty_warm_start_uses_solver_carry(rng):
    tv = IsotropicTV(iterations=8)
    v = rng.standard_normal((6, 6))
    carry = {}
    first = tv.prox(v, 0.5, carry)
    dual = carry["tv_dual"]
    assert dual.shape == (2, 36)
    second = tv.prox(v, 0.5, carry)
    # the same array, updated in place: no copy per call
    assert carry["tv_dual"] is dual
    # second call resumes from the stored dual field: same as 16 cold steps
    np.testing.assert_allclose(second, tv_prox(v, 0.5, iterations=16), atol=1e-12)
    assert np.linalg.norm(second - first) > 0
    # without a carry every call starts cold, and the penalty keeps no state
    np.testing.assert_array_equal(tv.prox(v, 0.5), tv_prox(v, 0.5, iterations=8))
    assert vars(tv) == {"iterations": 8}


def test_tv_penalty_rejects_complex_input(rng):
    # the penalty acts on real images only, like tv_norm and tv_prox
    tv = IsotropicTV(iterations=6)
    v = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    carry = {}
    with pytest.raises(ValueError, match="real image"):
        tv.prox(v, 0.5, carry)
    with pytest.raises(ValueError, match="real image"):
        tv.evaluate(v)
    assert carry == {}


# ---------------------------------------------------------------------------
# row bands: the worker thread's lifetime
# ---------------------------------------------------------------------------

@pytest.fixture
def banded(monkeypatch):
    """Two row bands from 1024 pixels up, on any host."""
    monkeypatch.setattr(ballast.prox, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ballast.prox, "BAND_PIXELS", 32 * 32)


def eventually(condition, timeout=10.0):
    """Whether ``condition()`` holds within ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


def banded_prox_in_child(queue):
    v = np.random.default_rng(1).standard_normal((32, 32))
    carry = {}
    out = [IsotropicTV().prox(v, 0.3, carry) for _ in range(3)][-1]
    want = tv_prox(v, 0.3, iterations=9)
    queue.put(("worker" in carry, bool(np.allclose(out, want, atol=1e-12))))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_banded_prox_runs_in_a_child_forked_after_one(banded):
    # no worker outlives the carry that holds it, so a forked child never
    # inherits one whose thread did not survive the fork
    v = np.random.default_rng(0).standard_normal((32, 32))
    carry = {}
    IsotropicTV().prox(v, 0.3, carry)
    assert "worker" in carry
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=banded_prox_in_child, args=(queue,))
    child.start()
    try:
        assert queue.get(timeout=60) == (True, True)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


class ThreadRecorder:
    """A penalty whose prox returns a NaN from its third call on, if
    ``diverge``; it records the threads alive during each call."""

    def __init__(self, diverge, **kwargs):
        super().__init__(**kwargs)
        self.diverge = diverge
        self.threads = []

    def prox(self, v, tau, carry=None):
        out = super().prox(v, tau, carry)
        self.threads.append(set(threading.enumerate()))
        if self.diverge and len(self.threads) >= 3:
            out.flat[0] = np.nan
        return out


class DivergingTV(ThreadRecorder, IsotropicTV):
    pass


class DivergingL1(ThreadRecorder, L1Norm):
    pass


@pytest.mark.parametrize("diverge", [False, True])
def test_band_worker_exits_once_the_solve_is_done(banded, diverge):
    # the TV prox's row bands and the frame step's operator work share the
    # solve's one worker
    inst = inpainting_instance(size=32, seed=0)
    config = SolverConfig(mu=0.05, epsilon=inst.epsilon, max_iterations=20)
    frame = UndecimatedHaar(inst.truth.shape, levels=2)
    for formulation, penalty in [("direct", DivergingTV(diverge)),
                                 ("synthesis", DivergingL1(diverge)),
                                 ("analysis", DivergingL1(diverge))]:
        before = set(threading.enumerate())
        try:
            solve(inst.operator, inst.observation, penalty, config, formulation=formulation,
                  frame=frame)
        except DivergenceError:
            assert diverge
        else:
            assert not diverge
        gc.collect()  # the exception's traceback holds the solve's frame in a cycle
        # one worker, alive in every call of the solve, and gone after it
        workers = set.union(*penalty.threads) - before
        assert len(workers) == 1 and all(workers <= threads for threads in penalty.threads)
        assert eventually(lambda: not any(t.is_alive() for t in workers))
        assert threading.active_count() <= len(before)


# ---------------------------------------------------------------------------
# beside: the one hand-off to the solve's worker
# ---------------------------------------------------------------------------

class BackgroundError(RuntimeError):
    pass


class ForegroundError(RuntimeError):
    pass


@pytest.fixture(params=["worker", "none"])
def worker(request):
    """A real one-thread executor, or None: the two cases of ``beside``."""
    if request.param == "none":
        yield None
        return
    with ThreadPoolExecutor(1, thread_name_prefix="beside-test") as executor:
        yield executor


def test_beside_returns_background_then_foreground(worker):
    assert ballast.prox.beside(worker, lambda: "back", lambda: "front") == ("back", "front")


def test_beside_runs_background_on_the_worker_else_first(worker):
    calls = []

    def record(name):
        calls.append((name, threading.current_thread()))
        return name

    caller = threading.current_thread()
    ballast.prox.beside(worker, lambda: record("background"), lambda: record("foreground"))
    threads = dict(calls)
    assert threads["foreground"] is caller
    if worker is None:
        assert calls == [("background", caller), ("foreground", caller)]
    else:
        assert threads["background"] is not caller
        assert threads["background"].name.startswith("beside-test")


def test_beside_raises_foreground_error_once_background_is_done(worker):
    finished = []

    def background():
        time.sleep(0.05)
        finished.append(True)

    def foreground():
        raise ForegroundError("front")

    with pytest.raises(ForegroundError):
        ballast.prox.beside(worker, background, foreground)
    assert finished == [True]


def test_beside_raises_background_error_when_both_raise(worker):
    # the error the sequential order raises, which there is background's
    # alone; with a worker the foreground fails first, while it sleeps
    def background():
        time.sleep(0.05)
        raise BackgroundError("back")

    def foreground():
        raise ForegroundError("front")

    with pytest.raises(BackgroundError):
        ballast.prox.beside(worker, background, foreground)
