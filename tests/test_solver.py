"""Solver engine tests: step algebra, analytic fixed points, invariants."""

import tracemalloc
import warnings

import numpy as np
import pytest

from ballast import (
    CircularConvolution,
    DivergenceError,
    IsotropicTV,
    L1Norm,
    LinearOperator,
    OrthogonalHaar,
    PartialFourier,
    PixelMask,
    SolverConfig,
    SolverState,
    SynthesisOperator,
    UndecimatedHaar,
    check_stop,
    solve,
    step,
)
import ballast.solver
from ballast.prox import BallConstraint, l2_norm
from ballast.solver import CONTINUE, CONVERGED, EXHAUSTED, IterationRecord
from ballast.harness import (
    build_experiment,
    deblur_instance,
    fourier_phantom_instance,
    inpainting_instance,
    mse,
    run_experiment,
)


def identity_op(shape):
    return CircularConvolution(np.array([[1.0]]), shape)


def scalar_problem_config(mu, **kw):
    kw.setdefault("epsilon", 1.0)
    kw.setdefault("max_iterations", 200)
    kw.setdefault("rel_tol", 1e-12)
    return SolverConfig(mu=mu, **kw)


def zero_state(op, penalty_shape=None):
    """A state with every block at 0, for driving ``step`` by hand.

    The penalty block has ``penalty_shape``: the image shape by default, the
    coefficient shape for the synthesis and analysis formulations.
    """
    v = [np.zeros(op.in_shape if penalty_shape is None else penalty_shape),
         np.zeros(op.out_shape, dtype=op.out_dtype)]
    return SolverState(u=None, v=v, d=[np.zeros_like(vj) for vj in v])


class ZeroPenalty:
    """phi = 0: its prox is the identity."""

    def prox(self, v, tau, carry=None):
        return v


class PoisonedL1(L1Norm):
    """l1 whose prox returns a NaN from its ``poison_at``-th call on."""

    def __init__(self, poison_at):
        self.poison_at = poison_at
        self.calls = 0

    def prox(self, v, tau, carry=None):
        self.calls += 1
        out = super().prox(v, tau, carry)
        if self.calls >= self.poison_at:
            out = np.array(out, copy=True)
            out.flat[0] = np.nan
        return out


# ---------------------------------------------------------------------------
# single-step algebra
# ---------------------------------------------------------------------------

def test_single_identity_block_step_reproduces_input():
    # both blocks identity (B is a full pixel mask, so (I + B^H B)^{-1} = I/2
    # exactly) and phi = 0: the u-update averages the two blocks' inputs
    op = PixelMask(np.ones((3, 3), dtype=bool))
    ball = BallConstraint(np.zeros(9), 0.0)

    state = zero_state(op)
    step(state, op, ball, ZeroPenalty(), mu=1.0)
    np.testing.assert_array_equal(state.u, np.zeros((3, 3)))

    r = np.arange(9.0).reshape(3, 3)
    state = SolverState(u=None, v=[r.copy(), r.ravel().copy()],
                        d=[np.zeros((3, 3)), np.zeros(9)])
    step(state, op, ball, ZeroPenalty(), mu=1.0)
    np.testing.assert_array_equal(state.u, r)
    assert state.k == 1


def relaxed_prox_input(hu, v, d):
    """``(Hu - v)(alpha - 1) + Hu - d``, pass by pass as the solver forms it."""
    w = hu - v
    w *= ballast.solver.RELAXATION - 1.0
    w += hu
    w -= d
    return w


def test_dual_update_identity_recomputes_bitwise():
    # the prox input w = (Hu - v)(alpha - 1) + Hu - d uses the split variable
    # v and the dual d from before the step, and the dual update is v_new - w;
    # the synthesis formulation forms its penalty block's w from the
    # u-update's correction c = W^H (x - W s), s = v + d, as (c - d)(alpha - 1)
    # + u, which is the same point at alpha = 1.5, since u - v = d + c
    inst = deblur_instance("uniform", 0.56, size=16, seed=3)
    op = inst.operator
    ball = BallConstraint(inst.observation, inst.epsilon)
    alpha = ballast.solver.RELAXATION
    for formulation in ("direct", "synthesis"):
        frame, state = None, zero_state(op)
        if formulation == "synthesis":
            frame = UndecimatedHaar(op.in_shape, levels=2)
            state = zero_state(op, (frame.coefficient_length,))
        for _ in range(6):
            v_old = [vj.copy() for vj in state.v]
            d_old = [dj.copy() for dj in state.d]
            step(state, op, ball, L1Norm(), 0.7, formulation, frame)
            # fresh recomputation of each block's Hu and prox input
            if formulation == "synthesis":
                s = v_old[0] + d_old[0]
                ws = frame.synthesis(s)
                x = op.shifted_normal_inverse(ws + op.adjoint(v_old[1] + d_old[1]))
                correction = frame.analysis(x - ws)
                hu0 = s + correction
                w0 = correction - d_old[0]
                w0 *= alpha - 1.0
                w0 += hu0
            else:
                x = hu0 = state.u
                w0 = relaxed_prox_input(hu0, v_old[0], d_old[0])
            np.testing.assert_array_equal(state.x, x)
            hu1 = op.forward(x)
            w1 = relaxed_prox_input(hu1, v_old[1], d_old[1])
            for j, (hu, w) in enumerate([(hu0, w0), (hu1, w1)]):
                np.testing.assert_array_equal(state.hu[j], hu)
                np.testing.assert_array_equal(state.d[j], state.v[j] - w)
                # the mathematical identity d_new - d_old = v_new - H^u, with
                # H^u the relaxed point, holds to rounding even though float
                # addition is not associative
                relaxed = alpha * hu + (1.0 - alpha) * v_old[j]
                np.testing.assert_allclose(
                    state.d[j] - d_old[j], state.v[j] - relaxed, atol=1e-12
                )


class ViewPenalty:
    """A stub prox that returns its input, or a view of it, and keeps a copy
    of the input it received."""

    def __init__(self, view):
        self.view = view
        self.received = None

    def prox(self, v, tau, carry=None):
        self.received = v.copy()
        return self.view(v)


@pytest.mark.parametrize("view", [lambda v: v, lambda v: v[...], lambda v: v[::-1]],
                         ids=["itself", "view", "reversed"])
@pytest.mark.parametrize("formulation", ["direct", "synthesis"])
def test_dual_update_is_fresh_when_the_prox_returns_its_input(view, formulation):
    # the dual is written into the prox input w only when the prox output
    # shares no memory with it; otherwise v[0] would be overwritten
    inst = deblur_instance("uniform", 0.56, size=16, seed=3)
    op = inst.operator
    ball = BallConstraint(inst.observation, inst.epsilon)
    frame, state = None, zero_state(op)
    if formulation == "synthesis":
        frame = UndecimatedHaar(op.in_shape, levels=2)
        state = zero_state(op, (frame.coefficient_length,))
    penalty = ViewPenalty(view)
    for _ in range(4):
        step(state, op, ball, penalty, 0.7, formulation, frame)
        w = penalty.received
        np.testing.assert_array_equal(state.v[0], view(w))
        np.testing.assert_array_equal(state.d[0], view(w) - w)


@pytest.mark.parametrize("name", ["deblur-uniform-syn", "deblur-uniform-ana"])
def test_frame_solve_peak_memory_is_about_six_coefficient_arrays(name):
    # one step holds the last iterate's hu[0], v[0] and d[0], the new hu[0],
    # the prox input and the prox output; images and boolean finiteness
    # masks add under one more coefficient array at 64^2
    setup = build_experiment(name, size=64)  # built outside tracing
    coefficient_bytes = setup.frame.coefficient_length * 8
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_experiment(setup)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 7.25 * coefficient_bytes, peak / coefficient_bytes


def test_feasibility_block_stays_in_ball_every_iteration():
    inst = deblur_instance("gaussian", np.sqrt(2.0), size=16, seed=1)
    op = inst.operator
    y = inst.observation
    ball = BallConstraint(y, inst.epsilon)
    state = zero_state(op)
    for _ in range(40):
        step(state, op, ball, L1Norm(), mu=1.0)
        assert np.linalg.norm(state.v[1] - y) <= inst.epsilon * (1 + 1e-12)


def test_u_update_minimizes_quadratic_gradient_residual():
    inst = deblur_instance("uniform", 0.56, size=16, seed=5)
    op = inst.operator
    ball = BallConstraint(inst.observation, inst.epsilon)
    state = zero_state(op)
    for _ in range(5):
        zeta = [v + d for v, d in zip(state.v, state.d)]
        zeta_norm = np.sqrt(sum(np.linalg.norm(np.ravel(z)) ** 2 for z in zeta))
        step(state, op, ball, L1Norm(), mu=1.0)
        grad = (state.u - zeta[0]) + op.adjoint(op.forward(state.u) - zeta[1])
        assert np.linalg.norm(grad) <= 1e-8 * max(zeta_norm, 1e-30)


def test_ball_update_is_mu_invariant_v_differs_for_penalty():
    inst = deblur_instance("uniform", 0.56, size=16, seed=2)
    op = inst.operator
    ball = BallConstraint(inst.observation, inst.epsilon)

    def make_state():
        rng_local = np.random.default_rng(0)
        v0 = rng_local.standard_normal(op.in_shape)
        v1 = rng_local.standard_normal(op.out_shape)
        return SolverState(
            u=None,
            v=[v0.copy(), v1.copy()],
            d=[np.zeros(op.in_shape), np.zeros(op.out_shape)],
        )

    outs = {}
    for mu in (0.1, 1.0, 10.0):
        state = make_state()
        step(state, op, ball, L1Norm(), mu=mu)
        outs[mu] = (state.v[0].copy(), state.v[1].copy())
    np.testing.assert_array_equal(outs[0.1][1], outs[1.0][1])
    np.testing.assert_array_equal(outs[1.0][1], outs[10.0][1])
    assert np.linalg.norm(outs[0.1][0] - outs[10.0][0]) > 0


# ---------------------------------------------------------------------------
# analytic problems
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mu", [0.1, 1.0, 10.0])
def test_one_dimensional_constrained_l1(mu):
    # minimize |x| subject to |x - 5| <= 1 has the closed-form solution x = 4
    op = identity_op((1, 1))
    y = np.array([[5.0]])
    res = solve(op, y, L1Norm(), scalar_problem_config(mu))
    assert res.iterations <= 200
    assert abs(res.estimate.item() - 4.0) <= 1e-6


def test_noiseless_identity_problem_returns_observation(rng):
    y = rng.standard_normal((8, 8)) * 3.0
    op = identity_op((8, 8))
    config = SolverConfig(mu=1.0, epsilon=0.0, max_iterations=2000,
                          rel_tol=0.0)
    res = solve(op, y, L1Norm(), config)
    assert np.max(np.abs(res.estimate - y)) <= 1e-12 * np.max(np.abs(y))


def test_analysis_noiseless_identity_returns_observation(rng):
    y = rng.standard_normal((8, 8))
    op = identity_op((8, 8))
    frame = OrthogonalHaar((8, 8), levels=2)
    config = SolverConfig(mu=1.0, epsilon=0.0, max_iterations=2000,
                          rel_tol=0.0)
    res = solve(op, y, L1Norm(), config, formulation="analysis", frame=frame)
    assert np.max(np.abs(res.estimate - y)) <= 1e-11 * np.max(np.abs(y))


def test_mri_phantom_reconstruction_64():
    inst = fourier_phantom_instance(size=64, lines=22)
    config = SolverConfig(mu=150.0, epsilon=inst.epsilon, max_iterations=300)
    res = solve(
        inst.operator, inst.observation,
        IsotropicTV(iterations=10), config, truth=inst.truth,
    )
    assert res.iterations <= 300
    final = res.history[-1]
    assert final.constraint_norm <= 1.01 * inst.epsilon
    assert mse(res.estimate, inst.truth) < 1e-4


def test_orthogonal_frame_formulations_agree():
    # with an orthogonal frame the coefficient and analysis formulations are
    # the same mathematical problem; their reconstructions must agree closely
    inst = deblur_instance("uniform", 0.56, size=64, seed=0)
    frame = OrthogonalHaar(inst.truth.shape, levels=4)
    config = SolverConfig(mu=2.0, epsilon=inst.epsilon, max_iterations=500,
                          rel_tol=1e-6)
    r_syn = solve(
        inst.operator, inst.observation, L1Norm(),
        config, truth=inst.truth, formulation="synthesis", frame=frame,
    )
    r_ana = solve(
        inst.operator, inst.observation, L1Norm(), config,
        truth=inst.truth, formulation="analysis", frame=frame,
    )
    m_syn = mse(r_syn.estimate, inst.truth)
    m_ana = mse(r_ana.estimate, inst.truth)
    assert abs(m_syn - m_ana) / m_syn <= 0.05


class UnitaryFourier(LinearOperator):
    """The full unitary 2D DFT: a complex observation shaped like the image."""

    out_dtype = np.complex128

    def __init__(self, shape):
        self.in_shape = self.out_shape = tuple(shape)

    def forward(self, x):
        return np.fft.fft2(x, norm="ortho")

    def adjoint(self, r):
        return np.fft.ifft2(r, norm="ortho")

    def shifted_normal_inverse(self, r):
        return r / 2.0  # F^H F = I


def _synthesis_instance(kind):
    if kind in ("convolution", "complex-image"):
        inst = deblur_instance("uniform", 0.56, size=32, seed=0)
        if kind == "complex-image":  # a real y, complex B y: the start is B^H y
            return UnitaryFourier(inst.truth.shape), inst.observation, inst.epsilon
    elif kind == "mask":
        inst = inpainting_instance(size=32, seed=0)
    else:
        inst = fourier_phantom_instance(size=32, lines=10, seed=0)
        if kind == "fourier":  # the complex-image operator on the same samples
            return PartialFourier(inst.operator.mask), inst.observation, inst.epsilon
    return inst.operator, inst.observation, inst.epsilon


def _relative_gap(a, b):
    return np.linalg.norm(np.ravel(a - b)) / max(np.linalg.norm(np.ravel(b)), 1e-300)


@pytest.mark.parametrize("kind,start", [
    ("convolution", "observation"), ("mask", "adjoint"), ("fourier", "adjoint"),
    ("real-fourier", "adjoint"), ("complex-image", "adjoint")])
def test_synthesis_step_matches_composed_operator_arithmetic(kind, start, monkeypatch):
    # the image-domain synthesis step (one synthesis, one analysis) against
    # the direct step on the composed operator B W (three syntheses, two
    # analyses): the same iteration, up to rounding.  The complex-image
    # operator's real y starts from B^H y, so its coefficients are complex
    # from k = 0 and no step changes their dtype.
    op, y, epsilon = _synthesis_instance(kind)
    frame = UndecimatedHaar(op.in_shape, levels=2)
    mu, iterations = 1.0, 30

    composed = SynthesisOperator(op, frame)
    # the solver starts from a real image-shaped y itself where B's output
    # is real, else from B^H y
    u0 = frame.analysis(y) if start == "observation" else composed.adjoint(y)
    old = SolverState(u=u0, v=[u0, composed.forward(u0)],
                      d=[np.zeros_like(u0), np.zeros(op.out_shape, dtype=op.out_dtype)])
    ball = BallConstraint(y, epsilon)
    for _ in range(iterations):
        step(old, composed, ball, L1Norm(), mu)

    states = []
    real_step = ballast.solver.step

    def recording_step(state, *args):
        states.append(state)
        return real_step(state, *args)

    monkeypatch.setattr(ballast.solver, "step", recording_step)
    config = SolverConfig(mu=mu, epsilon=epsilon, max_iterations=iterations,
                          rel_tol=0.0)
    result = solve(op, y, L1Norm(), config, formulation="synthesis", frame=frame)
    new = states[-1]
    assert result.iterations == new.k == old.k == iterations
    assert _relative_gap(result.u, old.u) <= 1e-9
    for j in range(2):
        assert _relative_gap(new.v[j], old.v[j]) <= 1e-9
        assert _relative_gap(new.d[j], old.d[j]) <= 1e-9
    assert _relative_gap(frame.synthesis(result.u), result.estimate) <= 1e-9


def test_primal_residual_falls_three_orders():
    inst = deblur_instance("uniform", 0.56, size=64, seed=0)
    config = SolverConfig(mu=0.5, epsilon=inst.epsilon, max_iterations=300,
                          rel_tol=0.0)
    res = solve(inst.operator, inst.observation,
                IsotropicTV(iterations=10), config, truth=inst.truth)
    assert res.iterations == 300  # stopping disabled, full budget
    first, last = res.history[0], res.history[-1]
    assert last.primal_residual <= 1e-3 * first.primal_residual


def test_history_records_are_finite_and_ordered():
    inst = deblur_instance("inverse_quadratic", np.sqrt(2.0), size=32, seed=0)
    config = SolverConfig(mu=1.0, epsilon=inst.epsilon, max_iterations=30)
    penalty = IsotropicTV(iterations=5)
    res = solve(inst.operator, inst.observation, penalty, config, truth=inst.truth)
    # the records describe the iterate itself, not the over-relaxed point;
    # in the direct formulation the penalty block's H u is u
    last = res.last_record
    assert last is res.history[-1]
    assert last.constraint_norm == l2_norm(inst.operator.forward(res.estimate)
                                           - inst.observation)
    assert last.objective == penalty.evaluate(res.u)
    assert [rec.k for rec in res.history] == list(range(1, res.iterations + 1))
    for rec in res.history:
        assert np.isfinite(rec.objective)
        assert np.isfinite(rec.constraint_norm)
        assert np.isfinite(rec.primal_residual)
        assert np.isfinite(rec.wall_time)
        assert np.isfinite(rec.mse)


# ---------------------------------------------------------------------------
# stopping logic
# ---------------------------------------------------------------------------

def _rec(k, constraint, change):
    return IterationRecord(k=k, objective=10.0, constraint_norm=constraint,
                           primal_residual=0.0, wall_time=0.0, relative_change=change)


def test_check_stop_converges_on_feasible_small_change():
    config = SolverConfig(mu=1.0, epsilon=2.0, max_iterations=100)
    assert check_stop(_rec(7, 1.0, 3e-4), config) == CONVERGED
    # the constraint may sit up to 1% past epsilon
    assert check_stop(_rec(7, 2.02, 1e-5), config) == CONVERGED


def test_check_stop_exhausts_at_budget_when_infeasible():
    config = SolverConfig(mu=1.0, epsilon=2.0, max_iterations=7)
    assert check_stop(_rec(7, 5.0, 0.0), config) == EXHAUSTED
    # a still iterate that is infeasible keeps going within the budget
    assert check_stop(_rec(6, 5.0, 0.0), config) == CONTINUE


def test_check_stop_continues_while_iterate_moves():
    config = SolverConfig(mu=1.0, epsilon=2.0, max_iterations=100)
    assert check_stop(_rec(7, 1.0, 3.1e-4), config) == CONTINUE
    # the stop reads only the last record: the objective plays no part
    flat = _rec(7, 1.0, 1e-2)
    assert flat.objective == 10.0 and check_stop(flat, config) == CONTINUE


def test_check_stop_continues_before_second_iteration():
    # the change is NaN at k = 1, which never passes the tolerance
    config = SolverConfig(mu=1.0, epsilon=2.0, max_iterations=100, rel_tol=1.0)
    assert check_stop(_rec(1, 1.0, float("nan")), config) == CONTINUE


def test_solve_does_not_stop_on_the_warm_start_itself():
    # from the adjoint start B^H y, a pixel mask's first u-update returns
    # x0 exactly, and B x0 = y is feasible; the run must still iterate
    inst = inpainting_instance(size=32, seed=0)
    config = SolverConfig(mu=0.05, epsilon=inst.epsilon, max_iterations=200)
    res = solve(inst.operator, inst.observation, IsotropicTV(), config, truth=inst.truth)
    first, last = res.history[0], res.history[-1]
    assert first.k == 1 and first.constraint_norm <= inst.epsilon
    assert np.isnan(first.relative_change)
    assert all(rec.relative_change > 0 for rec in res.history[1:-1])
    assert res.status == CONVERGED and last.relative_change <= config.rel_tol
    assert res.iterations >= 10
    assert last.mse <= 0.25 * mse(inst.degraded, inst.truth)


def test_stop_rule_works_with_history_recording_disabled():
    op = identity_op((1, 1))
    y = np.array([[5.0]])
    config = SolverConfig(mu=1.0, epsilon=1.0, max_iterations=200,
                          rel_tol=1e-12, record_history=False)
    res = solve(op, y, L1Norm(), config)
    assert res.status == CONVERGED
    assert res.history == []
    assert abs(res.estimate.item() - 4.0) <= 1e-6


class CountingTV(IsotropicTV):
    """Isotropic TV that counts its ``evaluate`` calls."""

    evaluations = 0

    def evaluate(self, v):
        self.evaluations += 1
        return super().evaluate(v)


def test_history_off_evaluates_the_objective_once():
    inst = inpainting_instance(size=32, seed=0)
    results = {}
    for record_history in (True, False):
        penalty = CountingTV()
        config = SolverConfig(mu=0.2, epsilon=inst.epsilon, max_iterations=200,
                              record_history=record_history)
        results[record_history] = solve(inst.operator, inst.observation, penalty, config,
                                        truth=inst.truth), penalty.evaluations
    (on, on_calls), (off, off_calls) = results[True], results[False]
    assert on_calls == on.iterations > 1 and off_calls == 1
    assert off.iterations == on.iterations
    assert off.last_record.objective == on.last_record.objective == on.history[-1].objective
    assert off.estimate.tobytes() == on.estimate.tobytes()


# ---------------------------------------------------------------------------
# warm starts, validation, divergence
# ---------------------------------------------------------------------------

def test_warm_start_modes_initialize_as_documented():
    # a prox poisoned on its first call stops the solve at iteration 1, so
    # the error carries the untouched initial state
    def initial_state(op, y, **solve_kw):
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            with pytest.raises(DivergenceError, match=r"v\[0\] at iteration 1") as excinfo:
                solve(op, y, PoisonedL1(poison_at=1), SolverConfig(max_iterations=5),
                      **solve_kw)
        assert excinfo.value.history == []
        assert excinfo.value.state.k == 0
        state = excinfo.value.state
        assert all(np.all(dj == 0) for dj in state.d)
        return state

    # a real image-shaped observation: the start is y itself
    inst = deblur_instance("uniform", 0.56, size=16, seed=4)
    op, y = inst.operator, inst.observation
    state = initial_state(op, y)
    np.testing.assert_array_equal(state.x, y)
    np.testing.assert_array_equal(state.u, y)
    np.testing.assert_array_equal(state.v[0], y)
    np.testing.assert_array_equal(state.v[1], op.forward(y))
    # synthesis: the start is the image's frame coefficients
    frame = OrthogonalHaar(op.in_shape, levels=2)
    state = initial_state(op, y, formulation="synthesis", frame=frame)
    np.testing.assert_array_equal(state.u, frame.analysis(y))

    # a pixel mask's flat observation: the start is the adjoint B^H y
    inst = inpainting_instance(size=16, seed=4)
    mask_op, y_mask = inst.operator, inst.observation
    state = initial_state(mask_op, y_mask)
    x0 = mask_op.adjoint(y_mask)
    np.testing.assert_array_equal(state.u, x0)
    np.testing.assert_array_equal(state.v[0], x0)
    np.testing.assert_array_equal(state.v[1], mask_op.forward(x0))

    # a complex image-shaped observation starts from the adjoint too, with
    # its imaginary part kept: a float64 copy of y would drop it
    y_complex = y + 1j * y[::-1]
    state = initial_state(op, y_complex)
    x0 = op.adjoint(y_complex)
    assert np.iscomplexobj(state.x) and np.any(state.x.imag != 0)
    np.testing.assert_array_equal(state.x, x0)
    np.testing.assert_array_equal(state.v[1], op.forward(x0))

    # a real image-shaped observation of an operator with complex output
    # starts from the adjoint: the iterates are complex from k = 0, so no
    # step has to change their dtype
    fourier = UnitaryFourier(op.in_shape)
    state = initial_state(fourier, y)
    x0 = fourier.adjoint(y)
    assert np.iscomplexobj(state.x) and np.any(state.x.imag != 0)
    np.testing.assert_array_equal(state.x, x0)
    np.testing.assert_array_equal(state.v[1], fourier.forward(x0))
    state = initial_state(fourier, y, formulation="synthesis", frame=frame)
    np.testing.assert_array_equal(state.u, frame.analysis(x0))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mu=0.0)
    with pytest.raises(ValueError):
        SolverConfig(mu=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=-0.5)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=float("nan"))
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    for tol in (-1e-4, float("nan")):
        with pytest.raises(ValueError, match="rel_tol"):
            SolverConfig(rel_tol=tol)


@pytest.mark.parametrize("knob", ["mu", "epsilon", "rel_tol"])
def test_config_rejects_infinite_settings(knob):
    # at mu = inf an inpaint run reported "converged" after 2 iterations with
    # ISNR 0 dB; epsilon = inf reached summary.json as Infinity
    with pytest.raises(ValueError, match=f"{knob} must be .* finite"):
        SolverConfig(**{knob: float("inf")})


def test_divergence_error_carries_history():
    poison_after = 3
    op = PixelMask(np.ones((2, 2), dtype=bool))
    config = SolverConfig(mu=1.0, epsilon=0.0, max_iterations=50,
                          rel_tol=0.0)
    with pytest.raises(DivergenceError) as excinfo:
        solve(op, np.ones(4), PoisonedL1(poison_at=poison_after + 1), config)
    assert len(excinfo.value.history) == poison_after
    assert [rec.k for rec in excinfo.value.history] == [1, 2, 3]


class InfiniteL1(L1Norm):
    """l1 whose value is infinite: every record that evaluates it is non-finite."""

    def evaluate(self, v):
        return float("inf")


@pytest.mark.parametrize("record_history", [True, False])
def test_non_finite_objective_is_divergence_in_both_history_modes(record_history):
    # with history off the objective is evaluated for the final record only,
    # and the same check as in every history-on record runs on it
    op = PixelMask(np.ones((2, 2), dtype=bool))
    config = SolverConfig(epsilon=0.0, max_iterations=7, rel_tol=0.0,
                          record_history=record_history)
    last = 1 if record_history else config.max_iterations
    with pytest.raises(DivergenceError,
                       match=rf"non-finite instrumentation at iteration {last}$") as excinfo:
        solve(op, np.ones(4), InfiniteL1(), config)
    assert excinfo.value.state.k == last
    assert excinfo.value.history == []


@pytest.mark.parametrize("formulation", ["direct", "synthesis"])
def test_divergence_state_is_last_finite_iterate(formulation, monkeypatch):
    # the ball projection, the last of the three updates, goes non-finite on
    # its poison_at-th call; the penalty block's v[0]/d[0] of that iteration
    # must not leak into the state the error carries
    poison_at = 4
    inst = deblur_instance("uniform", 0.56, size=16, seed=6)
    op = inst.operator
    ball = BallConstraint(inst.observation, inst.epsilon)
    frame = UndecimatedHaar(op.in_shape, levels=2) if formulation == "synthesis" else None
    snapshot = ballast.solver._initial_state(op, inst.observation, formulation, frame)
    for _ in range(poison_at - 1):
        step(snapshot, op, ball, L1Norm(), 0.7, formulation, frame)

    real_project_ball = ballast.solver.project_ball
    calls = {"n": 0}

    def poisoned(s, ball):
        calls["n"] += 1
        out = real_project_ball(s, ball)
        return out * np.nan if calls["n"] == poison_at else out

    monkeypatch.setattr(ballast.solver, "project_ball", poisoned)
    config = SolverConfig(mu=0.7, epsilon=inst.epsilon, max_iterations=50)
    with pytest.raises(DivergenceError, match=rf"v\[1\] at iteration {poison_at}") as excinfo:
        solve(op, inst.observation, L1Norm(), config, formulation=formulation, frame=frame)
    state = excinfo.value.state
    assert state.k == snapshot.k == poison_at - 1
    assert len(excinfo.value.history) == poison_at - 1
    np.testing.assert_array_equal(state.u, snapshot.u)
    np.testing.assert_array_equal(state.x, snapshot.x)
    for j in range(2):
        np.testing.assert_array_equal(state.v[j], snapshot.v[j])
        np.testing.assert_array_equal(state.d[j], snapshot.d[j])


def test_solve_without_truth_records_nan_mse():
    inst = deblur_instance("uniform", 0.56, size=16, seed=0)
    config = SolverConfig(mu=1.0, epsilon=inst.epsilon, max_iterations=10)
    res = solve(inst.operator, inst.observation, L1Norm(), config)
    assert res.history and all(np.isnan(rec.mse) for rec in res.history)
    assert np.isnan(res.last_record.mse)


def test_analysis_driver_rejects_composed_operator():
    op = identity_op((8, 8))
    frame = OrthogonalHaar((8, 8), levels=1)
    composed = SynthesisOperator(op, frame)
    with pytest.raises(ValueError):
        solve(composed, np.zeros((8, 8)), L1Norm(),
              SolverConfig(mu=1.0, epsilon=0.0, max_iterations=5),
              formulation="analysis", frame=frame)


def test_synthesis_driver_rejects_composed_operator():
    # the synthesis formulation composes B W itself; handing it B W as well
    # would compose the frame twice
    op = identity_op((8, 8))
    frame = OrthogonalHaar((8, 8), levels=1)
    with pytest.raises(ValueError, match="image-domain operator"):
        solve(SynthesisOperator(op, frame), np.zeros((8, 8)), L1Norm(),
              SolverConfig(mu=1.0, epsilon=0.0, max_iterations=5),
              formulation="synthesis", frame=frame)


def test_solve_rejects_unknown_formulation_and_missing_frame():
    op = identity_op((8, 8))
    config = SolverConfig(mu=1.0, epsilon=0.0, max_iterations=5)
    with pytest.raises(ValueError):
        solve(op, np.zeros((8, 8)), L1Norm(), config, formulation="penalized")
    for formulation in ("synthesis", "analysis"):
        with pytest.raises(ValueError):
            solve(op, np.zeros((8, 8)), L1Norm(), config, formulation=formulation)
