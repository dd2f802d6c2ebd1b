"""Solver engine tests: step algebra, analytic fixed points, invariants."""

import numpy as np
import pytest

from ballast import (
    Block,
    CircularConvolution,
    DivergenceError,
    IsotropicTV,
    L1Norm,
    OrthogonalHaar,
    SolverConfig,
    SolverState,
    SplitSpec,
    SynthesisOperator,
    admm2_solve,
    admm2_step,
    check_stop,
    solve,
)
from ballast.solver import CONTINUE, CONVERGED, EXHAUSTED, IterationRecord
from ballast.harness import deblur_instance, fourier_phantom_instance, mse


def identity_op(shape):
    return CircularConvolution(np.array([[1.0]]), shape)


def scalar_problem_config(mu, **kw):
    kw.setdefault("epsilon", 1.0)
    kw.setdefault("max_iterations", 200)
    kw.setdefault("objective_rel_tol", 1e-12)
    return SolverConfig(mu=mu, **kw)


# ---------------------------------------------------------------------------
# single-step algebra
# ---------------------------------------------------------------------------

def test_single_identity_block_step_reproduces_input():
    ident = lambda x: x
    block = Block(forward=ident, adjoint=ident, prox=lambda s, mu, c: s)
    split = SplitSpec(blocks=[block], normal_inverse=ident)
    config = SolverConfig(mu=1.0, epsilon=0.0, max_iterations=5)

    state = SolverState(u=None, v=[np.zeros((3, 3))], d=[np.zeros((3, 3))],
                        scratch=[{}])
    admm2_step(state, split, config)
    np.testing.assert_array_equal(state.u, np.zeros((3, 3)))

    r = np.arange(9.0).reshape(3, 3)
    state = SolverState(u=None, v=[r.copy()], d=[np.zeros((3, 3))], scratch=[{}])
    admm2_step(state, split, config)
    np.testing.assert_array_equal(state.u, r)


def test_dual_update_identity_recomputes_bitwise(rng):
    inst = deblur_instance("uniform", 0.56, size=16, seed=3)
    config = SolverConfig(mu=0.7, epsilon=inst.epsilon, max_iterations=10)
    op = inst.operator
    from ballast.prox import BallConstraint, project_ball

    ball = BallConstraint(inst.observation, config.epsilon)
    blocks = [
        Block(forward=lambda x: x, adjoint=lambda x: x,
              prox=lambda s, mu, c: np.sign(s) * np.maximum(np.abs(s) - 1 / mu, 0.0)),
        Block(forward=op.forward, adjoint=op.adjoint,
              prox=lambda s, mu, c: project_ball(s, ball)),
    ]
    split = SplitSpec(blocks=blocks, normal_inverse=op.shifted_normal_inverse)
    state = SolverState(
        u=None,
        v=[np.zeros(op.in_shape), np.zeros(op.out_shape)],
        d=[np.zeros(op.in_shape), np.zeros(op.out_shape)],
        scratch=[{}, {}],
    )
    for _ in range(6):
        d_old = [dj.copy() for dj in state.d]
        admm2_step(state, split, config)
        for j, block in enumerate(blocks):
            hu = block.forward(state.u)  # fresh recomputation
            want = (d_old[j] - hu) + state.v[j]
            np.testing.assert_array_equal(state.d[j], want)
            # the mathematical identity d_new - d_old = v_new - H u holds to
            # rounding even though float addition is not associative
            np.testing.assert_allclose(
                state.d[j] - d_old[j], state.v[j] - hu, atol=1e-12
            )


def test_feasibility_block_stays_in_ball_every_iteration():
    inst = deblur_instance("gaussian", np.sqrt(2.0), size=16, seed=1)
    config = SolverConfig(mu=1.0, epsilon=inst.epsilon, max_iterations=40)
    # drive the steps manually to inspect v[1] after every iteration
    from ballast.prox import BallConstraint, project_ball

    op = inst.operator
    y = inst.observation
    ball = BallConstraint(y, config.epsilon)
    penalty = L1Norm()
    blocks = [
        Block(forward=lambda x: x, adjoint=lambda x: x,
              prox=lambda s, mu, c: penalty.prox(s, 1.0 / mu, c)),
        Block(forward=op.forward, adjoint=op.adjoint,
              prox=lambda s, mu, c: project_ball(s, ball)),
    ]
    split = SplitSpec(blocks=blocks, normal_inverse=op.shifted_normal_inverse)
    state = SolverState(
        u=None,
        v=[np.zeros(op.in_shape), np.zeros(op.out_shape)],
        d=[np.zeros(op.in_shape), np.zeros(op.out_shape)],
        scratch=[{}, {}],
    )
    for _ in range(40):
        admm2_step(state, split, config)
        assert np.linalg.norm(state.v[1] - y) <= inst.epsilon * (1 + 1e-12)


def test_u_update_minimizes_quadratic_gradient_residual():
    inst = deblur_instance("uniform", 0.56, size=16, seed=5)
    op = inst.operator
    config = SolverConfig(mu=1.0, epsilon=inst.epsilon, max_iterations=10)
    from ballast.prox import BallConstraint, project_ball

    ball = BallConstraint(inst.observation, config.epsilon)
    penalty = L1Norm()
    blocks = [
        Block(forward=lambda x: x, adjoint=lambda x: x,
              prox=lambda s, mu, c: penalty.prox(s, 1.0 / mu, c)),
        Block(forward=op.forward, adjoint=op.adjoint,
              prox=lambda s, mu, c: project_ball(s, ball)),
    ]
    split = SplitSpec(blocks=blocks, normal_inverse=op.shifted_normal_inverse)
    state = SolverState(
        u=None,
        v=[np.zeros(op.in_shape), np.zeros(op.out_shape)],
        d=[np.zeros(op.in_shape), np.zeros(op.out_shape)],
        scratch=[{}, {}],
    )
    for _ in range(5):
        zeta = [v + d for v, d in zip(state.v, state.d)]
        zeta_norm = np.sqrt(sum(np.linalg.norm(np.ravel(z)) ** 2 for z in zeta))
        admm2_step(state, split, config)
        grad = np.zeros_like(state.u)
        for block, z in zip(blocks, zeta):
            grad = grad + block.adjoint(block.forward(state.u) - z)
        assert np.linalg.norm(grad) <= 1e-8 * max(zeta_norm, 1e-30)


def test_ball_update_is_mu_invariant_v_differs_for_penalty():
    inst = deblur_instance("uniform", 0.56, size=16, seed=2)
    op = inst.operator
    from ballast.prox import BallConstraint, project_ball

    ball = BallConstraint(inst.observation, inst.epsilon)
    penalty = L1Norm()

    def make_state():
        rng_local = np.random.default_rng(0)
        v0 = rng_local.standard_normal(op.in_shape)
        v1 = rng_local.standard_normal(op.out_shape)
        return SolverState(
            u=None,
            v=[v0.copy(), v1.copy()],
            d=[np.zeros(op.in_shape), np.zeros(op.out_shape)],
            scratch=[{}, {}],
        )

    blocks = [
        Block(forward=lambda x: x, adjoint=lambda x: x,
              prox=lambda s, mu, c: penalty.prox(s, 1.0 / mu, c)),
        Block(forward=op.forward, adjoint=op.adjoint,
              prox=lambda s, mu, c: project_ball(s, ball)),
    ]
    split = SplitSpec(blocks=blocks, normal_inverse=op.shifted_normal_inverse)
    outs = {}
    for mu in (0.1, 1.0, 10.0):
        state = make_state()
        config = SolverConfig(mu=mu, epsilon=inst.epsilon, max_iterations=3)
        admm2_step(state, split, config)
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
                          objective_rel_tol=0.0)
    res = solve(op, y, L1Norm(), config)
    assert np.max(np.abs(res.estimate - y)) <= 1e-12 * np.max(np.abs(y))


def test_analysis_noiseless_identity_returns_observation(rng):
    y = rng.standard_normal((8, 8))
    op = identity_op((8, 8))
    frame = OrthogonalHaar((8, 8), levels=2)
    config = SolverConfig(mu=1.0, epsilon=0.0, max_iterations=2000,
                          objective_rel_tol=0.0)
    res = solve(op, y, L1Norm(), config, formulation="analysis", frame=frame)
    assert np.max(np.abs(res.estimate - y)) <= 1e-11 * np.max(np.abs(y))


def test_mri_phantom_reconstruction_64():
    inst = fourier_phantom_instance(size=64, lines=22)
    config = SolverConfig(mu=150.0, epsilon=inst.epsilon, max_iterations=300,
                          warm_start="adjoint")
    res = solve(
        inst.operator, inst.observation,
        IsotropicTV(iterations=10, warm_start=True), config, truth=inst.truth,
    )
    assert res.iterations <= 300
    final = res.history[-1]
    assert final.constraint_norm <= 1.01 * inst.epsilon
    assert mse(np.abs(res.estimate), inst.truth) < 1e-4


def test_orthogonal_frame_formulations_agree():
    # with an orthogonal frame the coefficient and analysis formulations are
    # the same mathematical problem; their reconstructions must agree closely
    inst = deblur_instance("uniform", 0.56, size=64, seed=0)
    frame = OrthogonalHaar(inst.truth.shape, levels=4)
    config = SolverConfig(mu=2.0, epsilon=inst.epsilon, max_iterations=500,
                          objective_rel_tol=1e-6, warm_start="adjoint")
    r_syn = solve(
        SynthesisOperator(inst.operator, frame), inst.observation, L1Norm(),
        config, truth=inst.truth, formulation="synthesis", frame=frame,
    )
    r_ana = solve(
        inst.operator, inst.observation, L1Norm(), config,
        truth=inst.truth, formulation="analysis", frame=frame,
    )
    m_syn = mse(r_syn.estimate, inst.truth)
    m_ana = mse(r_ana.estimate, inst.truth)
    assert abs(m_syn - m_ana) / m_syn <= 0.05


def test_primal_residual_falls_three_orders():
    inst = deblur_instance("uniform", 0.56, size=64, seed=0)
    config = SolverConfig(mu=0.5, epsilon=inst.epsilon, max_iterations=300,
                          objective_rel_tol=0.0, warm_start="observation")
    res = solve(inst.operator, inst.observation,
                IsotropicTV(iterations=10), config, truth=inst.truth)
    assert res.iterations == 300  # stopping disabled, full budget
    first, last = res.history[0], res.history[-1]
    assert last.primal_residual <= 1e-3 * first.primal_residual


def test_history_records_are_finite_and_ordered():
    inst = deblur_instance("inverse_quadratic", np.sqrt(2.0), size=32, seed=0)
    config = SolverConfig(mu=1.0, epsilon=inst.epsilon, max_iterations=30)
    res = solve(inst.operator, inst.observation,
                IsotropicTV(iterations=5), config, truth=inst.truth)
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

def _rec(k, objective, constraint):
    return IterationRecord(k=k, objective=objective, constraint_norm=constraint,
                           primal_residual=0.0, wall_time=0.0)


def test_check_stop_converges_on_feasible_flat_objective():
    config = SolverConfig(mu=1.0, epsilon=2.0, max_iterations=100)
    history = [_rec(k, 10.0, 1.0) for k in range(1, 8)]
    assert check_stop(history, config) == CONVERGED


def test_check_stop_exhausts_at_budget_when_infeasible():
    config = SolverConfig(mu=1.0, epsilon=2.0, max_iterations=7)
    history = [_rec(k, 10.0, 5.0) for k in range(1, 8)]
    assert check_stop(history, config) == EXHAUSTED


def test_check_stop_continues_while_objective_falls():
    config = SolverConfig(mu=1.0, epsilon=2.0, max_iterations=100)
    objs = [10.0 * (0.9 ** k) for k in range(7)]
    history = [_rec(k + 1, o, 1.0) for k, o in enumerate(objs)]
    assert check_stop(history, config) == CONTINUE
    assert check_stop([], config) == CONTINUE


def test_stop_rule_works_with_history_recording_disabled():
    op = identity_op((1, 1))
    y = np.array([[5.0]])
    config = SolverConfig(mu=1.0, epsilon=1.0, max_iterations=200,
                          objective_rel_tol=1e-12, record_history=False)
    res = solve(op, y, L1Norm(), config)
    assert res.status == CONVERGED
    assert res.history == []
    assert abs(res.estimate.item() - 4.0) <= 1e-6


# ---------------------------------------------------------------------------
# warm starts, validation, divergence
# ---------------------------------------------------------------------------

def test_warm_start_modes_initialize_as_documented():
    inst = deblur_instance("uniform", 0.56, size=16, seed=4)
    op = inst.operator
    y = inst.observation

    from ballast.solver import _init_state

    shapes = [(op.in_shape, np.float64), (op.out_shape, op.out_dtype)]
    forwards = [lambda x: x, op.forward]

    state = _init_state(shapes, op, y, SolverConfig(warm_start="zero"), forwards)
    assert state.u is None
    assert all(np.all(vj == 0) for vj in state.v)

    state = _init_state(shapes, op, y, SolverConfig(warm_start="adjoint"), forwards)
    np.testing.assert_array_equal(state.u, op.adjoint(y))
    np.testing.assert_array_equal(state.v[0], op.adjoint(y))
    np.testing.assert_array_equal(state.v[1], op.forward(op.adjoint(y)))

    state = _init_state(shapes, op, y, SolverConfig(warm_start="observation"),
                        forwards, observation_start=y.copy())
    np.testing.assert_array_equal(state.u, y)

    with pytest.raises(ValueError):
        _init_state(shapes, op, y, SolverConfig(warm_start="observation"), forwards)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mu=0.0)
    with pytest.raises(ValueError):
        SolverConfig(mu=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=-0.5)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(warm_start="lukewarm")


def test_divergence_error_carries_history():
    poison_after = 3
    calls = {"n": 0}

    def poisoned_prox(s, mu, carry):
        calls["n"] += 1
        if calls["n"] > poison_after:
            out = np.array(s, copy=True)
            out.flat[0] = np.nan
            return out
        return s

    ident = lambda x: x
    block = Block(forward=ident, adjoint=ident, prox=poisoned_prox)
    split = SplitSpec(blocks=[block], normal_inverse=ident)
    config = SolverConfig(mu=1.0, epsilon=0.0, max_iterations=50)
    state = SolverState(u=None, v=[np.ones(4)], d=[np.zeros(4)], scratch=[{}])

    def recorder(st):
        return IterationRecord(k=st.k, objective=0.0, constraint_norm=0.0,
                               primal_residual=0.0, wall_time=0.0)

    with pytest.raises(DivergenceError) as excinfo:
        admm2_solve(split, config, state, recorder)
    assert len(excinfo.value.history) == poison_after


def test_analysis_driver_rejects_composed_operator():
    op = identity_op((8, 8))
    frame = OrthogonalHaar((8, 8), levels=1)
    composed = SynthesisOperator(op, frame)
    with pytest.raises(ValueError):
        solve(composed, np.zeros((8, 8)), L1Norm(),
              SolverConfig(mu=1.0, epsilon=0.0, max_iterations=5),
              formulation="analysis", frame=frame)


def test_solve_rejects_unknown_formulation_and_missing_frame():
    op = identity_op((8, 8))
    config = SolverConfig(mu=1.0, epsilon=0.0, max_iterations=5)
    with pytest.raises(ValueError):
        solve(op, np.zeros((8, 8)), L1Norm(), config, formulation="penalized")
    for formulation in ("synthesis", "analysis"):
        with pytest.raises(ValueError):
            solve(op, np.zeros((8, 8)), L1Norm(), config, formulation=formulation)
