"""Min-of-N timings of the primitives one C-SALSA iteration is built from.

For each image side it times, on random float64 data:

- forward, adjoint and shifted-normal inverse of the three observation
  operators: a 9x9 uniform ``CircularConvolution``, a 60% ``PixelMask`` and
  a 22-line ``RealPartialFourier``;
- analysis and synthesis of ``UndecimatedHaar(levels=4)``;
- ``soft_threshold`` on that frame's coefficients, ``tv_prox`` with 10
  inner steps from a warm dual field, ``IsotropicTV().prox`` (3 inner
  steps) from a warm solver carry, the path the solver runs, in row bands
  on two threads from ``ballast.prox.BAND_PIXELS`` up, and ``project_ball``
  of an observation-sized point from outside the ball;
- the per-iteration record's own primitives: ``tv_norm`` of the image and
  ``L1Norm.evaluate`` of the frame coefficients, the objectives of the TV
  and the frame formulations, and ``l2_distance`` between two frame
  coefficient vectors, the frame runs' primal residual (``record.primal``);
- one warm ``solver.step`` of ``deblur-uniform-syn`` (``step.synthesis``)
  and of ``deblur-uniform-ana`` (``step.analysis``), with the operator's
  work on the solve's worker thread and the coefficient chain in blocks
  from ``ballast.prox.BAND_PIXELS`` up: the whole frame step, where
  ``perfbench --trace 1`` splits it into layers only roughly, since the
  worker's spans share the tracer's one span stack.

Each repeat times a batch of at least 3 calls, sized to take about
``BATCH_MS``; a primitive's time is the fastest repeat's mean per call.  One
more call, after the timed batches, is traced by ``tracemalloc``: its peak
is the KiB the call held at most beyond what was held before it.  One JSON
line per primitive gives its milliseconds (``min_ms``) and its peak
(``peak_kib``) by side, with nproc, the numpy version and the git sha of
the imported package's checkout.  An operator's lines also give the KiB the
operator keeps once built (``held_kib``), traced over its construction.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/microbench.py
    PYTHONPATH=src python3 tools/microbench.py --sizes 128 --repeat 20
"""

import argparse
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.fft  # noqa: F401  numpy loads it on first use; not inside a traced build

import ballast
from ballast import (
    BallConstraint,
    CircularConvolution,
    IsotropicTV,
    L1Norm,
    PixelMask,
    RealPartialFourier,
    UndecimatedHaar,
    make_blur_kernel,
    project_ball,
    radial_mask,
    soft_threshold,
    tv_norm,
    tv_prox,
)
from ballast.harness import build_experiment
from ballast.prox import l2_distance
from ballast.solver import _initial_state, step

BATCH_MS = 20.0  # target duration of one timed batch


def primitives(size, seed=0):
    """Name -> zero-argument callable for every primitive at ``size``, and
    operator name -> the KiB the operator keeps."""
    rng = np.random.default_rng(seed)
    shape = (size, size)
    x = rng.standard_normal(shape)
    builds = {
        "convolution": lambda: CircularConvolution(make_blur_kernel("uniform"), shape),
        "mask": lambda: PixelMask(rng.random(shape) < 0.6),
        "fourier": lambda: RealPartialFourier(radial_mask(size, 22)),
    }
    ops, held = {}, {}
    for name, build in builds.items():
        ops[name], held[name] = held_kib(build)
    calls = {}
    for name, op in ops.items():
        r = op.forward(x)
        calls[f"{name}.forward"] = lambda op=op: op.forward(x)
        calls[f"{name}.adjoint"] = lambda op=op, r=r: op.adjoint(r)
        calls[f"{name}.shifted_normal_inverse"] = lambda op=op: op.shifted_normal_inverse(x)
    frame = UndecimatedHaar(shape, levels=4)
    coefficients = frame.analysis(x)
    calls["haar.analysis"] = lambda: frame.analysis(x)
    calls["haar.synthesis"] = lambda: frame.synthesis(coefficients)
    calls["soft_threshold"] = lambda: soft_threshold(coefficients, 0.5)
    dual = np.zeros((2, x.size))  # warm after min_ms's untimed first call
    calls["tv_prox"] = lambda: tv_prox(x, 0.3, iterations=10, dual=dual)
    carry = {}  # warm, and holding its band worker, after the first call
    calls["IsotropicTV.prox"] = lambda: IsotropicTV().prox(x, 0.3, carry)
    y = ops["convolution"].forward(x)
    ball = BallConstraint(y, 0.5 * float(np.linalg.norm(y)))
    calls["project_ball"] = lambda: project_ball(2.0 * y, ball)
    calls["tv_norm"] = lambda: tv_norm(x)
    calls["l1.evaluate"] = lambda: L1Norm().evaluate(coefficients)
    other = frame.analysis(rng.standard_normal(shape))
    calls["record.primal"] = lambda: l2_distance(coefficients, other)
    calls["step.synthesis"] = frame_step(size, "deblur-uniform-syn")
    calls["step.analysis"] = frame_step(size, "deblur-uniform-ana")
    return calls, held


def frame_step(size, name):
    """One warm C-SALSA step of the catalog experiment ``name`` at ``size``;
    each call steps on from the state the last one left."""
    setup = build_experiment(name, size=size)
    inst = setup.instance
    ball = BallConstraint(inst.observation, inst.epsilon)
    state = _initial_state(inst.operator, inst.observation, setup.formulation, setup.frame)
    return lambda: step(state, inst.operator, ball, setup.penalty, setup.config.mu,
                        setup.formulation, setup.frame)


def min_ms(fn, repeat):
    """Fastest mean milliseconds per call over ``repeat`` timed batches."""
    t0 = time.perf_counter()
    fn()  # warm-up; also sizes the batch
    first = time.perf_counter() - t0
    # at least 3 calls, so a primitive slower than a batch is timed as a mean,
    # not as the fastest of single calls
    number = max(3, int(BATCH_MS / 1e3 / max(first, 1e-9)))
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - t0) / number)
    return 1e3 * best


def peak_kib(fn):
    """``tracemalloc`` peak of one call of ``fn``, in KiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def held_kib(build):
    """``build()`` and the KiB it still holds on return, traced by ``tracemalloc``."""
    tracemalloc.start()
    try:
        built = build()
        return built, tracemalloc.get_traced_memory()[0] / 1024
    finally:
        tracemalloc.stop()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=Path(ballast.__file__).resolve().parent, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[128, 256, 512],
                        help="image sides (default 128 256 512; at least 16)")
    parser.add_argument("--repeat", type=int, default=7, help="timed batches per primitive")
    args = parser.parse_args(argv)
    if args.repeat < 1 or min(args.sizes) < 16:
        parser.error("--repeat must be positive and every size >= 16")
    meta = {"nproc": os.cpu_count(), "numpy": np.__version__, "git_sha": git_sha()}
    results = {}
    for size in args.sizes:
        calls, held = primitives(size)
        for name, fn in calls.items():
            entry = results.setdefault(name, {"min_ms": {}, "peak_kib": {}})
            entry["min_ms"][str(size)] = round(min_ms(fn, args.repeat), 4)
            entry["peak_kib"][str(size)] = round(peak_kib(fn), 1)
            operator = name.split(".")[0]
            if operator in held:
                entry.setdefault("held_kib", {})[str(size)] = round(held[operator], 1)
    for name, entry in results.items():
        print(json.dumps({"primitive": name, **entry, "repeat": args.repeat, **meta}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
