"""Spans around the calls a solve makes into each ``ballast`` layer.

Nothing in ``ballast`` is edited.  A traced solve swaps in transparent
proxies from outside the package and restores everything afterwards:

- the penalty (``prox.penalty``, ``prox.evaluate``) and the frame
  (``frames.analysis``, ``frames.synthesis``) are replaced on the
  ``RunSetup`` by proxies that keep every attribute the solver reads;
- ``ballast.harness.CountingOperator`` is rebound to ``TracedOperator``, so
  the operator ``run_experiment`` hands to the solver (the
  ``SynthesisOperator`` composition itself, for the synthesis formulation)
  is timed as ``operators.*``; like ``CountingOperator`` it exposes
  ``.inner``, through which ``solve_penalized`` detects synthesis;
- ``ballast.solver.project_ball`` is rebound to time ``prox.ball``;
- the ``numpy.fft`` transforms are rebound to time ``fft``.

The module-level rebindings are active only during the ``solver`` span, so
the transforms made while building count in ``harness.build``'s self time.

Spans live in memory.  A span's self time is its duration minus the
durations of its direct children, so the self times of a ``solver`` span
and everything under it add up to that span's duration.
"""

import contextlib
import time

import numpy as np

import ballast.harness
import ballast.solver

SPANS = (
    "harness.build",
    "solver",
    "operators.forward",
    "operators.adjoint",
    "operators.normal_inverse",
    "fft",
    "frames.analysis",
    "frames.synthesis",
    "prox.penalty",
    "prox.evaluate",
    "prox.ball",
)

FFT_TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


class Tracer:
    """Flat in-memory span log; the parent of a span is the span open when it began."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.durations = []
        self.work = {}  # counter name -> total, counted where the work happens
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.durations.append(0.0)
        self._open.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.durations[idx] = time.perf_counter() - t0
            self._open.pop()

    def count(self, counter, amount):
        self.work[counter] = self.work.get(counter, 0) + amount

    def self_times(self):
        own = list(self.durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.durations[idx]
        return own


class TracedOperator:
    """Stands in for ``CountingOperator``: counts and times B, B^H and (I + B^H B)^-1."""

    def __init__(self, inner, tracer):
        self.inner = inner
        self.tracer = tracer
        self.in_shape = inner.in_shape
        self.out_shape = inner.out_shape
        self.out_dtype = inner.out_dtype
        self.forward_calls = 0
        self.adjoint_calls = 0

    @property
    def frame(self):
        return getattr(self.inner, "frame", None)

    def forward(self, x):
        self.forward_calls += 1
        return self.tracer.call("operators.forward", self.inner.forward, x)

    def adjoint(self, r):
        self.adjoint_calls += 1
        return self.tracer.call("operators.adjoint", self.inner.adjoint, r)

    def shifted_normal_inverse(self, r):
        return self.tracer.call(
            "operators.normal_inverse", self.inner.shifted_normal_inverse, r
        )


class TracedFrame:
    """Times a frame's analysis and synthesis; other attributes pass through."""

    def __init__(self, inner, tracer):
        self.inner = inner
        self.tracer = tracer

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def analysis(self, x):
        out = self.tracer.call("frames.analysis", self.inner.analysis, x)
        self.tracer.count("frames.bytes", np.asarray(x).nbytes + out.nbytes)
        return out

    def synthesis(self, coefficients):
        out = self.tracer.call("frames.synthesis", self.inner.synthesis, coefficients)
        self.tracer.count("frames.bytes", np.asarray(coefficients).nbytes + out.nbytes)
        return out


class TracedPenalty:
    """Times a penalty's prox and evaluation; ``kind`` and the rest pass through."""

    def __init__(self, inner, tracer):
        self.inner = inner
        self.tracer = tracer

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def evaluate(self, v):
        return self.tracer.call("prox.evaluate", self.inner.evaluate, v)

    def prox(self, v, tau, carry=None):
        return self.tracer.call("prox.penalty", self.inner.prox, v, tau, carry)


def trace_setup(setup, tracer):
    """Swap the setup's penalty and frame for timed proxies (in place)."""
    setup.penalty = TracedPenalty(setup.penalty, tracer)
    if setup.frame is not None:
        setup.frame = TracedFrame(setup.frame, tracer)
    return setup


def _timed_transform(tracer, transform):
    def traced(a, *args, **kwargs):
        out = tracer.call("fft", transform, a, *args, **kwargs)
        tracer.count("fft.points", np.size(a))
        tracer.count("fft.bytes", np.asarray(a).nbytes + out.nbytes)
        return out

    return traced


@contextlib.contextmanager
def module_patches(tracer):
    """Rebind the module-level names a solve looks up at call time; always restore."""
    project_ball = ballast.solver.project_ball
    patches = [
        (ballast.harness, "CountingOperator",
         lambda inner: TracedOperator(inner, tracer)),
        (ballast.solver, "project_ball",
         lambda s, ball: tracer.call("prox.ball", project_ball, s, ball)),
    ]
    for name in FFT_TRANSFORMS:
        patches.append(
            (np.fft, name, _timed_transform(tracer, getattr(np.fft, name)))
        )
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, replacement in patches:
            setattr(module, name, replacement)
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def layer_metrics(tracer, iterations):
    """Per-layer metrics over every span recorded by ``tracer``.

    ``iterations`` is the total over the traced solves.  Shares are self time
    over total traced solve time; ``harness.build`` is set against the same
    base, so its share reads as build cost relative to one solve.  Also
    returns the sum of self times inside the solves minus their total
    duration, which is zero up to rounding.
    """
    calls = dict.fromkeys(SPANS, 0)
    self_s = dict.fromkeys(SPANS, 0.0)
    for name, own in zip(tracer.names, tracer.self_times()):
        calls[name] += 1
        self_s[name] += own
    solve_time = sum(d for name, d in zip(tracer.names, tracer.durations) if name == "solver")
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls_per_iter"] = (calls[name] / iterations, "calls/iter")
        metrics[f"{name}.self_ms_per_iter"] = (1000.0 * self_s[name] / iterations, "ms/iter")
        metrics[f"{name}.share"] = (self_s[name] / solve_time, "fraction")
    metrics["fft.points_per_iter"] = (tracer.work.get("fft.points", 0) / iterations, "points/iter")
    metrics["fft.bytes_computed_per_iter"] = (tracer.work.get("fft.bytes", 0) / iterations, "B/iter")
    metrics["frames.bytes_computed_per_iter"] = (
        tracer.work.get("frames.bytes", 0) / iterations, "B/iter")
    in_solves = sum(self_s[name] for name in SPANS if name != "harness.build")
    return metrics, in_solves - solve_time
