"""Constrained ADMM engine.

The problem solved here is

    minimize  phi(x)   subject to  ||B x - y||_2 <= epsilon,

attacked by variable splitting with one block per term: a penalty block
(identity or frame analysis) and a feasibility block (the observation
operator, whose prox is projection onto the epsilon-ball around y).  Each
outer iteration solves the quadratic u-update through the operator's
closed-form shifted-normal inverse, then applies one prox and one dual
update per block.

One driver, ``solve``, covers the three formulations: it splits as
[identity; B] and regularizes the unknown itself, which is the image
(``"direct"``) or its frame coefficients when B is a synthesis composition
(``"synthesis"``), or it splits as [P; B] and regularizes the analysis
coefficients of the image (``"analysis"``).
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .prox import BallConstraint, project_ball

__all__ = [
    "Block",
    "SplitSpec",
    "SolverConfig",
    "SolverState",
    "IterationRecord",
    "SolveResult",
    "DivergenceError",
    "admm2_step",
    "admm2_solve",
    "solve",
    "check_stop",
]

CONTINUE = "continue"
CONVERGED = "converged"
EXHAUSTED = "exhausted"


class DivergenceError(RuntimeError):
    """An iterate went non-finite; carries the solver state and the history.

    The state is not rolled back to the last finite iterate.  When block
    ``j``'s prox goes non-finite, ``v`` and ``d`` of the blocks before ``j``
    already hold the failing iteration's update, while ``u`` and ``k`` are
    still those of the iteration before it.
    """

    def __init__(self, message, state=None, history=None):
        super().__init__(message)
        self.state = state
        self.history = history if history is not None else []


@dataclass
class Block:
    """One splitting term: a linear map, its adjoint, and the prox of its penalty.

    ``prox(s, mu, carry)`` must return the minimizer of
    ``g(v) + (mu/2)||v - s||^2``; ``carry`` is a per-block scratch dict for
    opt-in warm starts and is ignored by stateless proxes.
    """

    forward: callable
    adjoint: callable
    prox: callable


@dataclass
class SplitSpec:
    """The blocks plus the closed-form inverse of ``sum_j H_j^H H_j + ...``.

    ``normal_inverse(r)`` must apply ``(sum_j H_j^H H_j)^{-1}``; for every
    formulation of ``solve`` that matrix is ``I + B^H B`` and the inverse
    comes from the operator's Woodbury closed form.
    """

    blocks: list
    normal_inverse: callable


@dataclass
class SolverConfig:
    """Knobs for one solve; validated on construction."""

    mu: float = 1.0
    epsilon: float = 0.0
    max_iterations: int = 500
    feasibility_slack: float = 0.01
    objective_rel_tol: float = 1e-4
    objective_window: int = 5
    warm_start: str = "zero"  # "zero" | "adjoint" | "observation"
    record_history: bool = True

    def __post_init__(self):
        if not (self.mu > 0):
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.warm_start not in ("zero", "adjoint", "observation"):
            raise ValueError(f"unknown warm_start mode {self.warm_start!r}")


@dataclass
class SolverState:
    """Mutable per-solve state; confined to a single solve call."""

    u: object
    v: list
    d: list
    k: int = 0
    history: list = field(default_factory=list)
    scratch: list = field(default_factory=list)
    last_record: object = field(default=None, repr=False)
    _hu: list = field(default_factory=list, repr=False)

    def last_forward(self):
        """Block images H_j u from the most recent step (no operator calls)."""
        return self._hu


@dataclass
class IterationRecord:
    k: int
    objective: float
    constraint_norm: float
    primal_residual: float
    wall_time: float
    mse: float = float("nan")


@dataclass
class SolveResult:
    estimate: object
    u: object
    status: str
    iterations: int
    history: list
    last_record: IterationRecord  # final record, kept when history is off
    config: SolverConfig


def _l2(a):
    return float(np.linalg.norm(np.ravel(a)))


def admm2_step(state, split, config, recorder=None):
    """One outer iteration: u-update, then a prox and dual update per block.

    The dual update is written in the fixed order ``(d - Hu) + v`` so that
    reruns recompute it bitwise; cached forward applications are kept on the
    state so instrumentation never re-applies an operator.  When a
    ``recorder`` is given it is called on the stepped state and the record is
    appended to ``state.history`` (unless history recording is disabled).
    """
    zeta = [v + d for v, d in zip(state.v, state.d)]
    r = None
    for block, z in zip(split.blocks, zeta):
        term = block.adjoint(z)
        r = term if r is None else r + term
    u = split.normal_inverse(r)
    if not np.all(np.isfinite(u)):
        raise DivergenceError(f"non-finite u at iteration {state.k + 1}", state=state)
    hu_list = []
    for j, block in enumerate(split.blocks):
        hu = block.forward(u)
        s = hu - state.d[j]
        v_new = block.prox(s, config.mu, state.scratch[j])
        if not np.all(np.isfinite(v_new)):
            raise DivergenceError(
                f"non-finite v[{j}] at iteration {state.k + 1}", state=state
            )
        state.d[j] = (state.d[j] - hu) + v_new
        state.v[j] = v_new
        hu_list.append(hu)
    state.u = u
    state._hu = hu_list
    state.k += 1
    if recorder is not None:
        record = recorder(state)
        state.last_record = record
        if config.record_history:
            state.history.append(record)
    return state


def check_stop(history, config):
    """Feasible and objective-flat => converged; out of budget => exhausted.

    Convergence needs the constraint norm within ``(1 + feasibility_slack) *
    epsilon`` and the relative objective change over the last
    ``objective_window`` records below ``objective_rel_tol``.
    """
    if not history:
        return CONTINUE
    rec = history[-1]
    feasible = rec.constraint_norm <= (1.0 + config.feasibility_slack) * config.epsilon
    if feasible and len(history) > config.objective_window:
        past = history[-1 - config.objective_window].objective
        scale = max(abs(rec.objective), abs(past), 1e-30)
        if abs(rec.objective - past) / scale <= config.objective_rel_tol:
            return CONVERGED
    if rec.k >= config.max_iterations:
        return EXHAUSTED
    return CONTINUE


def admm2_solve(split, config, state, recorder):
    """Drive ``admm2_step`` until ``check_stop`` says otherwise.

    ``recorder(state)`` turns the post-step state into an IterationRecord;
    records land in ``state.history`` (unless disabled) and the history is
    returned alongside the status even when a divergence aborts the loop.
    """
    recent = []  # rolling window so the stop test works with history disabled
    while True:
        try:
            admm2_step(state, split, config, recorder)
        except DivergenceError as err:
            err.history = state.history
            raise
        recent.append(state.last_record)
        if len(recent) > config.objective_window + 1:
            recent.pop(0)
        decision = check_stop(recent, config)
        if decision == CONVERGED:
            return CONVERGED, state.history
        if decision == EXHAUSTED or state.k >= config.max_iterations:
            return EXHAUSTED, state.history


def _init_state(blocks_shapes, op, y, config, forwards, observation_start=None):
    """Initialize v and d in the block ranges.

    Modes: "zero" starts everything at 0; "adjoint" starts from the
    back-projection ``u0 = B^H y``; "observation" starts from the observed
    image itself (deconvolution-style problems where it lives in the domain).
    In the warm modes ``v_j = H_j u0`` and the duals stay zero.
    """
    if config.warm_start == "adjoint":
        u0 = op.adjoint(y)
        v = [fwd(u0) for fwd in forwards]
    elif config.warm_start == "observation":
        if observation_start is None:
            raise ValueError(
                "observation warm start needs the observation in the unknown's domain"
            )
        u0 = observation_start
        v = [fwd(u0) for fwd in forwards]
    else:
        u0 = None
        v = [np.zeros(shape, dtype=dtype) for shape, dtype in blocks_shapes]
    d = [np.zeros_like(vj) for vj in v]
    return SolverState(u=u0, v=v, d=d, scratch=[{} for _ in v])


def _make_recorder(objective_of, y, truth, image_of):
    t0 = time.perf_counter()

    def recorder(state):
        hu_penalty, hu_obs = state.last_forward()
        objective = objective_of(hu_penalty)
        constraint = _l2(hu_obs - y)
        primal = np.sqrt(
            sum(_l2(hu - v) ** 2 for hu, v in zip(state.last_forward(), state.v))
        )
        if not (np.isfinite(objective) and np.isfinite(constraint) and np.isfinite(primal)):
            raise DivergenceError(
                f"non-finite instrumentation at iteration {state.k}", state=state
            )
        mse = float("nan")
        if truth is not None:
            err = image_of(state.u) - truth
            mse = float(np.mean(np.abs(err) ** 2))
        return IterationRecord(
            k=state.k,
            objective=objective,
            constraint_norm=constraint,
            primal_residual=float(primal),
            wall_time=time.perf_counter() - t0,
            mse=mse,
        )

    return recorder


def _identity(x):
    return x


def solve(op, y, penalty, config, truth=None, formulation="direct", frame=None):
    """Constrained solve with the split [H; B] for one of three formulations.

    - ``"direct"``: ``H = I`` and the unknown is the image itself.
    - ``"synthesis"``: ``H = I`` and the unknown is the coefficient vector of
      ``frame``; ``op`` is the composition ``B W`` and the returned estimate
      is the synthesis ``W u``.
    - ``"analysis"``: ``H = P``, the analysis of ``frame``; ``op`` must be
      the plain image-domain operator, and the frame must be Parseval so
      that ``P^H P = I`` lets the u-update reuse the operator's
      shifted-normal inverse unchanged.
    """
    if formulation not in ("direct", "synthesis", "analysis"):
        raise ValueError(f"unknown formulation {formulation!r}")
    if formulation != "direct" and frame is None:
        raise ValueError(f"the {formulation} formulation needs a frame")
    y = np.asarray(y)
    ball = BallConstraint(y, config.epsilon)
    # the penalty block (H, H^H, shape of H u), then the maps between the
    # unknown and the image, both ways, and the image shape
    penalty_forward, penalty_adjoint, penalty_shape = _identity, _identity, op.in_shape
    image_of, unknown_of, image_shape = _identity, _identity, op.in_shape
    if formulation == "synthesis":
        image_of, unknown_of, image_shape = frame.synthesis, frame.analysis, frame.image_shape
    elif formulation == "analysis":
        if tuple(op.in_shape) != tuple(frame.image_shape):
            raise ValueError("analysis formulation needs an image-domain operator")
        penalty_forward, penalty_adjoint = frame.analysis, frame.synthesis
        penalty_shape = (frame.coefficient_length,)
    blocks = [
        Block(
            forward=penalty_forward,
            adjoint=penalty_adjoint,
            prox=lambda s, mu, carry: penalty.prox(s, 1.0 / mu, carry),
        ),
        Block(
            forward=op.forward,
            adjoint=op.adjoint,
            prox=lambda s, mu, carry: project_ball(s, ball),
        ),
    ]
    split = SplitSpec(blocks=blocks, normal_inverse=op.shifted_normal_inverse)
    shapes = [(penalty_shape, np.float64), (op.out_shape, op.out_dtype)]
    obs_start = None
    if config.warm_start == "observation":
        if y.shape != tuple(image_shape):
            raise ValueError("observation warm start needs an image-shaped observation")
        obs_start = unknown_of(np.array(y, dtype=np.float64, copy=True))
    state = _init_state(shapes, op, y, config, [b.forward for b in blocks], obs_start)
    recorder = _make_recorder(penalty.evaluate, y, truth, image_of)
    status, history = admm2_solve(split, config, state, recorder)
    return SolveResult(
        estimate=image_of(state.u),
        u=state.u,
        status=status,
        iterations=state.k,
        history=history,
        last_record=state.last_record,
        config=config,
    )
