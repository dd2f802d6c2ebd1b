"""Constrained ADMM engine: C-SALSA on one fixed two-block split.

The problem solved here is

    minimize  phi(x)   subject to  ||B x - y||_2 <= epsilon,

attacked by variable splitting with two blocks: a penalty block ``P``
(identity or frame analysis) and a feasibility block (the observation
operator ``B``, whose prox is projection onto the epsilon-ball around y).
Each iteration, ``step``, solves the quadratic u-update through the
operator's closed-form shifted-normal inverse, then applies one prox and one
dual update per block.

One driver, ``solve``, covers the three formulations on the same
image-domain operator B: it splits as [identity; B] and regularizes the
unknown itself, which is the image (``"direct"``) or its frame coefficients
(``"synthesis"``, where the feasibility block is ``B W``), or it splits as
[P; B] and regularizes the analysis coefficients of the image
(``"analysis"``).
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .prox import BallConstraint, l2_distance, l2_norm, mse, project_ball

__all__ = [
    "SolverConfig",
    "SolverState",
    "IterationRecord",
    "SolveResult",
    "DivergenceError",
    "step",
    "solve",
    "check_stop",
]

CONTINUE = "continue"
CONVERGED = "converged"
EXHAUSTED = "exhausted"

# Convergence needs the constraint norm within (1 + FEASIBILITY_SLACK) *
# epsilon and an image that moved by at most rel_tol of its norm in the step.
FEASIBILITY_SLACK = 0.01

# Over-relaxation factor alpha of each step: the proxes and dual updates see
# H u + (alpha - 1)(H u - v) in place of H u.  ADMM converges for any alpha in
# (0, 2) (Eckstein & Bertsekas 1992); 1.5 cuts the catalog's iterations by
# about 18%, while 1.8 breaks the deblurring family's monotone objective.  The
# synthesis step's prox input uses an identity that holds at 1.5 only.
RELAXATION = 1.5


class DivergenceError(RuntimeError):
    """An iterate went non-finite; carries the solver state and the history.

    ``state`` is the last iterate whose ``u``, ``v[0]`` and ``v[1]`` are all
    finite: ``step`` commits an update only once all three are.  When the
    iteration's record is what goes non-finite, ``state`` is the iterate
    that record describes.
    """

    def __init__(self, message, state=None, history=None):
        super().__init__(message)
        self.state = state
        self.history = history if history is not None else []


@dataclass
class SolverConfig:
    """Knobs for one solve; validated on construction.

    ``record_history=False`` keeps no per-iteration records and skips the
    objective, the primal residual and the MSE, which the stop rule does not
    read: the iterates and the stop are those of a run with history on, and
    the three are evaluated once, for the final record.
    """

    mu: float = 1.0
    epsilon: float = 0.0
    max_iterations: int = 500
    rel_tol: float = 3e-4  # bound on ||x_k - x_{k-1}|| / ||x_k||, one for every run
    record_history: bool = True

    def __post_init__(self):
        # finite too: at mu, epsilon or rel_tol = inf a run can report
        # convergence without having solved the problem
        if not (0 < self.mu < math.inf):
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not (0 <= self.epsilon < math.inf):
            raise ValueError(f"epsilon must be nonnegative and finite, got {self.epsilon}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (0 <= self.rel_tol < math.inf):
            raise ValueError(f"rel_tol must be nonnegative and finite, got {self.rel_tol}")


@dataclass
class SolverState:
    """Mutable per-solve state; confined to a single solve call.

    ``u`` is the unknown and ``x`` the image it stands for: ``u`` itself, or
    its frame synthesis ``W u`` in the synthesis formulation.  ``v`` and
    ``d`` hold the penalty block's and the feasibility block's split
    variables and scaled duals; ``hu`` holds the two blocks' images of ``u``
    from the latest step and ``carry`` is the penalty prox's warm-start
    scratch.
    """

    u: object
    v: list
    d: list
    x: object = None
    k: int = 0
    hu: list = field(default=None, repr=False)
    carry: dict = field(default_factory=dict, repr=False)


@dataclass
class IterationRecord:
    k: int
    objective: float
    constraint_norm: float
    primal_residual: float
    wall_time: float
    mse: float = float("nan")
    relative_change: float = float("nan")  # ||x_k - x_{k-1}|| / ||x_k||; NaN before k = 2


@dataclass
class SolveResult:
    """The outcome of ``solve``.

    ``last_record`` is the final iteration's record, complete in both
    history modes: it equals the last entry of a run with history on in
    every field but ``wall_time``.
    """

    estimate: object
    u: object
    status: str
    iterations: int
    history: list
    last_record: IterationRecord


def _relaxed_prox_input(hu, v, d):
    """``Hu + (RELAXATION - 1)(Hu - v) - d`` in one array-sized temporary."""
    w = hu - v
    w *= RELAXATION - 1.0
    w += hu
    w -= d
    return w


def _dual_update(v, w):
    """``v - w``, written into the prox input ``w``, which is dead after it.

    A fresh array when the prox returned ``w`` itself or a view of it, as
    ``project_ball`` does inside the ball.
    """
    if np.may_share_memory(v, w):
        return v - w
    return np.subtract(v, w, out=w)


def step(state, op, ball, penalty, mu, formulation="direct", frame=None):
    """One C-SALSA iteration of ``formulation`` on the image-domain ``op``.

    The split is ``[I; B W]`` on the coefficients of ``frame`` for
    ``"synthesis"`` (u-update derived in ``solve``), ``[P; B]`` with ``P =
    frame.analysis`` for ``"analysis"`` and ``[I; B]`` for ``"direct"``;
    every u-update makes one ``op.shifted_normal_inverse``.  The penalty
    block's prox is ``penalty.prox(., 1/mu, state.carry)`` and the
    feasibility block's is ``project_ball(., ball)``.  Both see the
    over-relaxed point ``Hu + (RELAXATION - 1)(Hu - v)``, with ``v`` the
    split variable before the step: the prox input ``w`` is that point minus
    ``d`` and the dual update is ``v_new - w``, written into ``w`` (so a prox
    must not keep its input, and must return its input's dtype).
    ``state.hu`` keeps the unrelaxed ``Hu``.  The state is updated only once
    the image ``x``, ``v[0]`` and ``v[1]`` are all finite.

    In the synthesis and analysis formulations at most six coefficient-sized
    arrays are alive at once: the last iterate's ``hu[0]``, ``v[0]`` and
    ``d[0]``, and the new ``hu[0]``, the prox input and the prox output.  In
    the synthesis formulation the prox input lives in the array of the
    u-update's correction ``W^H (x - W s)``, which it no longer needs.
    """
    d0, d1 = state.d
    if formulation == "synthesis":
        # u = s + W^H (x - W s) with s = v0 + d0, added in place into s,
        # whose dtype the start fixed (``_initial_state``)
        u = state.v[0] + d0
        ws = frame.synthesis(u)
        x = op.shifted_normal_inverse(ws + op.adjoint(state.v[1] + d1))
        correction = frame.analysis(x - ws)
        u += correction
        hu0 = u
    elif formulation == "analysis":
        x = u = op.shifted_normal_inverse(
            frame.synthesis(state.v[0] + d0) + op.adjoint(state.v[1] + d1))
        hu0 = frame.analysis(u)
    else:
        x = u = op.shifted_normal_inverse((state.v[0] + d0) + op.adjoint(state.v[1] + d1))
        hu0 = u
    if not np.all(np.isfinite(x)):
        raise DivergenceError(f"non-finite u at iteration {state.k + 1}", state=state)
    if formulation == "synthesis":
        # the prox input u + (RELAXATION - 1)(u - v0) - d0, with u - v0 =
        # d0 + correction and RELAXATION - 2 = -(RELAXATION - 1) at 1.5, is
        # u + (RELAXATION - 1)(correction - d0): formed in the correction
        # array, which is dead by now
        w0 = np.subtract(correction, d0, out=correction)
        w0 *= RELAXATION - 1.0
        w0 += u
    else:
        w0 = _relaxed_prox_input(hu0, state.v[0], d0)
    v0 = penalty.prox(w0, 1.0 / mu, state.carry)
    if not np.all(np.isfinite(v0)):
        raise DivergenceError(f"non-finite v[0] at iteration {state.k + 1}", state=state)
    hu1 = op.forward(x)
    w1 = _relaxed_prox_input(hu1, state.v[1], d1)
    v1 = project_ball(w1, ball)
    if not np.all(np.isfinite(v1)):
        raise DivergenceError(f"non-finite v[1] at iteration {state.k + 1}", state=state)
    state.u = u
    state.x = x
    state.v = [v0, v1]
    state.d = [_dual_update(v0, w0), _dual_update(v1, w1)]
    state.hu = [hu0, hu1]
    state.k += 1
    return state


def check_stop(record, config):
    """Feasible and still => converged; out of budget => exhausted.

    Convergence needs the constraint norm within ``(1 + FEASIBILITY_SLACK) *
    epsilon`` and ``record.relative_change <= config.rel_tol``: the image
    moved by at most that share of its norm in the last step.  The test
    concerns the iterate, as ADMM's convergence theorem does, so one
    tolerance fits every run.  A NaN change (before ``k = 2``) never passes.
    """
    feasible = record.constraint_norm <= (1.0 + FEASIBILITY_SLACK) * config.epsilon
    if feasible and record.relative_change <= config.rel_tol:
        return CONVERGED
    if record.k >= config.max_iterations:
        return EXHAUSTED
    return CONTINUE


def _initial_state(op, y, formulation, frame):
    """The start's state; a function of its own, so that no local of
    ``solve`` keeps an initial array alive once the iterates replace it.

    The start fixes every iterate's dtype: ``B^H y`` is complex wherever a
    step could make the image complex, so no step changes it."""
    if (not np.iscomplexobj(y) and y.shape == tuple(op.in_shape)
            and not np.issubdtype(op.out_dtype, np.complexfloating)):
        x0 = np.array(y, dtype=np.float64, copy=True)
    else:
        x0 = op.adjoint(y)
    hx0 = x0 if formulation == "direct" else frame.analysis(x0)
    u0 = hx0 if formulation == "synthesis" else x0
    v = [hx0, op.forward(x0)]
    return SolverState(u=u0, v=v, d=[np.zeros_like(vj) for vj in v], x=x0)


def solve(op, y, penalty, config, truth=None, formulation="direct", frame=None):
    """Constrained solve with the split [H; B] for one of three formulations.

    ``op`` is always the image-domain operator B; the synthesis and analysis
    formulations check that its domain is ``frame.image_shape``.

    - ``"direct"``: ``H = I`` and the unknown is the image itself.
    - ``"synthesis"``: ``H = I`` and the unknown ``u`` is the coefficient
      vector of ``frame``, observed through ``B W``.  With ``s = v0 + d0`` and
      ``x = (I + B^H B)^{-1} (W s + B^H (v1 + d1))``, the u-update is
      ``u = s + W^H (x - W s)``: the Woodbury identity turns
      ``(I + W^H B^H B W)^{-1}`` into B's own shifted-normal inverse when the
      frame is Parseval (``W W^H = I``), which also makes ``W u = x``.  Each
      iteration thus makes one synthesis and one analysis, and ``x`` is the
      returned estimate.
    - ``"analysis"``: ``H = P``, the analysis of ``frame``; the frame must be
      Parseval so that ``P^H P = I`` lets the u-update reuse the operator's
      shifted-normal inverse unchanged.

    The start ``x0`` is ``y`` itself when ``y`` is a real image, shaped
    like the operator's domain, and ``B``'s output is real; otherwise it is
    the back-projection ``B^H y``, so that no iterate changes dtype;
    ``u0`` is ``x0`` (its frame coefficients in the synthesis formulation),
    ``v = [H u0, B x0]`` and the duals are zero.
    """
    if formulation not in ("direct", "synthesis", "analysis"):
        raise ValueError(f"unknown formulation {formulation!r}")
    if formulation != "direct":
        if frame is None:
            raise ValueError(f"the {formulation} formulation needs a frame")
        if tuple(op.in_shape) != tuple(frame.image_shape):
            raise ValueError(
                f"the {formulation} formulation needs an image-domain operator: "
                f"operator domain {tuple(op.in_shape)} != frame image shape "
                f"{tuple(frame.image_shape)}"
            )
    y = np.asarray(y)
    ball = BallConstraint(y, config.epsilon)
    state = _initial_state(op, y, formulation, frame)

    history = []
    t0 = time.perf_counter()
    while True:
        previous = state.x
        try:
            step(state, op, ball, penalty, config.mu, formulation, frame)
        except DivergenceError as err:
            err.history = history
            raise
        hu0, hu1 = state.hu
        # the first u-update may return x0 itself: no change is measured at k = 1
        change = (l2_distance(state.x, previous) / max(l2_norm(state.x), 1e-300)
                  if state.k >= 2 else float("nan"))
        record = IterationRecord(
            k=state.k,
            objective=float("nan"),
            constraint_norm=l2_distance(hu1, y),
            primal_residual=float("nan"),
            wall_time=float("nan"),
            relative_change=change,
        )
        status = check_stop(record, config)
        finite = np.isfinite(record.constraint_norm)
        # the stop rule reads neither the objective, the primal residual nor
        # the MSE: with history off they are evaluated for the final record only
        if config.record_history or status != CONTINUE:
            record.objective = penalty.evaluate(hu0)
            record.primal_residual = float(np.sqrt(l2_distance(hu0, state.v[0]) ** 2
                                                   + l2_distance(hu1, state.v[1]) ** 2))
            finite = (finite and np.isfinite(record.objective)
                      and np.isfinite(record.primal_residual))
            if truth is not None:
                record.mse = mse(state.x, truth)
        if not finite:
            raise DivergenceError(f"non-finite instrumentation at iteration {state.k}",
                                  state=state, history=history)
        record.wall_time = time.perf_counter() - t0
        if config.record_history:
            history.append(record)
        if status != CONTINUE:
            break
    return SolveResult(
        estimate=state.x,
        u=state.u,
        status=status,
        iterations=state.k,
        history=history,
        last_record=record,
    )
