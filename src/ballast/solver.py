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

from . import prox
from .prox import (BallConstraint, beside, carry_worker, l2_distance, l2_norm, mse,
                   project_ball, squared_distance)

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
# about 18%, while 1.8 breaks the deblurring family's monotone objective.
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
    from the latest step.  ``carry`` is the solve's scratch: the penalty
    prox's warm start, the solve's worker thread (``prox.carry_worker``) and,
    in the synthesis and analysis formulations, the latest step's record
    sums (``step``).
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


def _relaxed_prox_input(hu, v, d, out=None):
    """``Hu + (RELAXATION - 1)(Hu - v) - d``, written into ``out`` or into one
    array-sized temporary."""
    w = np.subtract(hu, v, out=out)
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


def step(state, op, ball, penalty, mu, formulation="direct", frame=None, record=True):
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

    The synthesis and analysis formulations run their penalty block's
    coefficient chain as one pass (``_coefficient_chain``).  From
    ``prox.BAND_PIXELS`` pixels up the pass goes ``prox.BLOCK`` coefficients
    at a time and, with ``record``, also takes the record's objective and
    penalty-block residual into ``state.carry["record"]``, which is None
    where the step took no sums; ``solve`` passes ``record_history`` as
    ``record`` and takes any sums it needs that the step did not take from
    the whole arrays.  The step is a flat sequence of ``prox.beside``
    pairs, each joined before the next starts; where the solve has a worker
    (``prox.carry_worker``) the first of each pair runs on it, beside the
    second on the calling thread: the lower and upper halves of ``v[0] +
    d[0]``; ``op.adjoint`` beside the synthesis; the shifted-normal inverse
    alone; the feasibility block beside the analysis; and, from the
    crossover up, the lower and upper halves of the chain's blocks.  Each
    half writes only its own slices of fresh arrays, and the record's block
    sums are added in block order, so the bits are those of one thread.  A
    non-finite ``v[1]`` raises from the feasibility block before the chain
    runs.

    In those two formulations at most six coefficient-sized arrays are
    alive at once: the last iterate's ``hu[0]``, ``v[0]`` and ``d[0]``, and
    the new ``hu[0]``, ``v[0]`` and ``d[0]``, with the prox input formed
    over the new ``d[0]``.  In the synthesis formulation that array is the
    u-update's correction ``W^H (x - W s)``, dead once added to ``u``.
    Below the crossover the chain is one whole-array block, and the new
    ``v[0]`` is the prox's own output.
    """
    if formulation != "direct":
        return _frame_step(state, op, ball, penalty, mu, formulation, frame, record)
    d0, d1 = state.d
    x = u = op.shifted_normal_inverse((state.v[0] + d0) + op.adjoint(state.v[1] + d1))
    _check_finite(x, "u", state)
    w0 = _relaxed_prox_input(u, state.v[0], d0)
    v0 = penalty.prox(w0, 1.0 / mu, state.carry)
    _check_finite(v0, "v[0]", state)
    feasibility = _feasibility(state, op, ball, x)
    return _commit(state, feasibility, u, x, v0, _dual_update(v0, w0), u)


def _frame_step(state, op, ball, penalty, mu, formulation, frame, record):
    """``step`` for the synthesis and analysis formulations."""
    (v0, v1), (d0, d1) = state.v, state.d
    pixels = math.prod(op.in_shape)
    worker = carry_worker(state.carry, pixels)
    synthesis = formulation == "synthesis"
    # u = s + W^H (x - W s) with s = v0 + d0 in the synthesis formulation,
    # added in place into s, whose dtype the start fixed (``_initial_state``)
    s = np.empty(v0.shape, np.result_type(v0, d0))
    _halves(worker, s.size, lambda b: np.add(v0[b], d0[b], out=s[b]))
    back, ws = beside(worker, lambda: op.adjoint(v1 + d1), lambda: frame.synthesis(s))
    if not synthesis:
        s = None  # the analysis step needs W s only
    x = op.shifted_normal_inverse(ws + back)
    del back
    _check_finite(x, "u", state)
    feasibility, a = beside(worker, lambda: _feasibility(state, op, ball, x),
                            lambda: frame.analysis(x - ws if synthesis else x))
    del ws
    # the correction a becomes the new d0 in the synthesis formulation; the
    # analysis's Hu = a needs a fresh one
    hu0, d0_new = (s, a) if synthesis else (a, np.empty_like(a))
    # below the crossover the chain is one block, and block sums there would
    # save no pass over the arrays: solve takes the record's sums after the step
    blocked = pixels >= prox.BAND_PIXELS
    v0_new, sums = _coefficient_chain(state, penalty, 1.0 / mu, hu0, d0_new, synthesis,
                                      blocked, blocked and record, worker)
    _commit(state, feasibility, hu0 if synthesis else x, x, v0_new, d0_new, hu0)
    state.carry["record"] = sums
    return state


def _halves(worker, size, fn):
    """``(fn(lower), fn(upper))`` through ``prox.beside``, for the slices of
    ``range(size)`` on either side of a ``prox.BLOCK`` boundary near its
    middle: the lower slice on the solve's worker, if there is one.  ``fn``
    must write only its own slices of shared arrays."""
    cut = -(-size // prox.BLOCK) // 2 * prox.BLOCK
    return beside(worker, lambda: fn(slice(0, cut)), lambda: fn(slice(cut, size)))


def _check_finite(a, name, state):
    """Raise ``DivergenceError`` with the last iterate unless ``a`` is finite."""
    if not np.all(np.isfinite(a)):
        raise DivergenceError(f"non-finite {name} at iteration {state.k + 1}", state=state)


def _feasibility(state, op, ball, x):
    """The feasibility block's update from the image ``x``: ``(B x, v1,
    d1)``, or ``DivergenceError`` with ``state`` where ``v1`` is not
    finite."""
    hu1 = op.forward(x)
    w1 = _relaxed_prox_input(hu1, state.v[1], state.d[1])
    v1 = project_ball(w1, ball)
    _check_finite(v1, "v[1]", state)
    return hu1, v1, _dual_update(v1, w1)


def _commit(state, feasibility, u, x, v0, d0, hu0):
    """Make a step's checked update, ``_feasibility``'s included, the state."""
    hu1, v1, d1 = feasibility
    state.u = u
    state.x = x
    state.v = [v0, v1]
    state.d = [d0, d1]
    state.hu = [hu0, hu1]
    state.k += 1
    return state


def _coefficient_chain(state, penalty, tau, hu0, d0_new, synthesis, blocked, sums, worker):
    """The penalty block's update: ``(v0_new, (objective, penalty-block
    residual))``, or ``(v0_new, None)`` without ``sums``.

    Per block: in the synthesis formulation ``u += correction``, with the
    correction held in ``d0_new``; the prox input, formed in ``d0_new``;
    ``penalty.prox``, checked finite; the dual update, written over the prox
    input; and with ``sums`` the record's ``penalty.evaluate(hu0)`` and
    ``||hu0 - v0_new||^2``.  Not ``blocked``, the whole array is one block.
    ``blocked``, the blocks are ``prox.BLOCK`` long and run in two halves
    (``_halves``), the lower on the ``worker`` if there is one: each half
    writes only its own slices of the fresh ``hu0``, ``d0_new`` and
    ``v0_new`` and returns its block sums, added here in block order, so
    the sums keep the bits of ``L1Norm.evaluate`` and ``squared_distance``
    on the whole arrays.  The last iterate stays as it was: a non-finite
    prox output raises ``DivergenceError`` with ``state``.
    """
    if not blocked:
        v0_new, pairs = _chain_blocks(state, penalty, tau, hu0, d0_new, None, synthesis,
                                      hu0.size, sums, slice(0, hu0.size))
    else:
        v0_new = np.empty_like(hu0)
        lower, upper = _halves(worker, hu0.size, lambda b: _chain_blocks(
            state, penalty, tau, hu0, d0_new, v0_new, synthesis, prox.BLOCK, sums, b)[1])
        pairs = lower + upper
    if not sums:
        return v0_new, None
    objective = squared = 0.0
    for block_objective, block_squared in pairs:
        objective += block_objective
        squared += block_squared
    return v0_new, (objective, math.sqrt(squared))


def _chain_blocks(state, penalty, tau, hu0, d0_new, v0_new, synthesis, block, sums, span):
    """``_coefficient_chain``'s blocks within the slice ``span``, which starts
    on a block boundary and ends on one or at the array's end: ``(v0_new,
    [(objective, squared residual) per block if sums])``.  ``v0_new`` is
    None for a pass that is one whole-array block, which takes the prox's
    own output as ``v0_new``."""
    v0, d0 = state.v[0], state.d[0]
    pairs = []
    for i in range(span.start, span.stop, block):
        b = slice(i, i + block)
        h, w = hu0[b], d0_new[b]
        if synthesis:
            # u + (RELAXATION - 1) correction + (RELAXATION - 2) d0, which is
            # u + (RELAXATION - 1)(u - v0) - d0 as u - v0 = d0 + correction,
            # formed with no temporary as u + (RELAXATION - 2)(k correction
            # + d0), k = (RELAXATION - 1) / (RELAXATION - 2); at 1.5, k = -1
            # makes k correction + d0 one subtraction, a pass fewer (about 3%
            # of a 128^2 synthesis step), and the point has the bits of
            # (correction - d0) / 2 + u
            h += w
            k = (RELAXATION - 1.0) / (RELAXATION - 2.0)
            if k == -1.0:
                np.subtract(d0[b], w, out=w)
            else:
                w *= k
                w += d0[b]
            w *= RELAXATION - 2.0
            w += h
        else:
            _relaxed_prox_input(h, v0[b], d0[b], out=w)
        p = penalty.prox(w, tau, state.carry)
        _check_finite(p, "v[0]", state)
        if v0_new is None:
            # the whole array: the prox's own output is the new v0
            v0_new = p if not np.may_share_memory(p, w) else np.empty_like(hu0)
        if v0_new is not p:
            v0_new[b] = p
        p = v0_new[b]
        np.subtract(p, w, out=w)
        if sums:
            pairs.append((penalty.evaluate(h), squared_distance(h, p)))
    return v0_new, pairs


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

    In the synthesis and analysis formulations the penalty acts on
    coefficients blockwise: ``step`` calls ``penalty.prox`` and
    ``penalty.evaluate`` on consecutive blocks of the coefficient vector
    (``prox.BLOCK`` long from ``prox.BAND_PIXELS`` pixels up, else the whole
    vector), so the prox must act elementwise and the objective must be a
    sum over elements.  Where the solve has a worker thread, the two may
    run on two threads at once, on disjoint blocks, so they must keep no
    state in the ``carry``.  ``L1Norm`` does all of this; ``IsotropicTV``
    cannot take coefficients.

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
            step(state, op, ball, penalty, config.mu, formulation, frame,
                 config.record_history)
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
            sums = state.carry.get("record")
            if sums is None:  # not taken in the step's pass
                sums = penalty.evaluate(hu0), l2_distance(hu0, state.v[0])
            record.objective, residual = sums
            record.primal_residual = float(np.sqrt(residual ** 2
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
