"""Benchmark harness: synthetic imaging problems and a catalog of named runs.

Everything here is deterministic given the experiment name, size, and seed:
test images are procedural, sampling masks are rasterized (not drawn at
random), and noise comes from a seeded generator.  The catalog covers three
problem families, each with one factory that builds its procedural scene —
deconvolution of a piecewise-constant scene, partial Fourier reconstruction
of a head phantom and of a high-dynamic-range squares target, and inpainting
with a random pixel mask.  There is no path for a user-supplied image, and
every instance derives an image-shaped float64 ``degraded`` baseline on access.
"""

import inspect
import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .frames import UndecimatedHaar
from .operators import (
    CircularConvolution,
    CountingOperator,
    PixelMask,
    RealPartialFourier,
    add_noise,
)
from .prox import IsotropicTV, L1Norm, l2_distance, l2_norm, mse
from .solver import SolverConfig, solve

__all__ = [
    "epsilon_rule",
    "make_blur_kernel",
    "shepp_logan",
    "radial_mask",
    "random_squares",
    "cartoon",
    "relative_error",
    "isnr",
    "ProblemInstance",
    "deblur_instance",
    "fourier_phantom_instance",
    "fourier_squares_instance",
    "inpainting_instance",
    "RunSetup",
    "ExperimentReport",
    "canonical_experiment_name",
    "build_experiment",
    "run_experiment",
    "experiment_names",
]


def epsilon_rule(m, sigma):
    """Ball radius from the noise level: ``sigma * sqrt(m + 8*sqrt(m))``.

    Slightly above the expected noise norm ``sigma*sqrt(m)``, so the true
    signal is feasible with overwhelming probability.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not (sigma >= 0):
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    return float(sigma * math.sqrt(m + 8.0 * math.sqrt(m)))


def make_blur_kernel(kind):
    """Build a unit-sum blur kernel.

    Kinds: ``uniform`` (9x9 box), ``gaussian`` (9x9, variance 1 pixel^2) and
    ``inverse_quadratic`` (``1/(1+i^2+j^2)``, 15x15), each centered on its
    middle tap.
    """
    supports = {"uniform": 9, "gaussian": 9, "inverse_quadratic": 15}
    if kind not in supports:
        raise ValueError(f"unknown kernel kind {kind!r}")
    half = supports[kind] // 2
    ii, jj = np.mgrid[-half : half + 1, -half : half + 1]
    if kind == "uniform":
        kernel = np.ones(ii.shape)
    elif kind == "gaussian":
        kernel = np.exp(-(ii**2 + jj**2) / 2.0)
    else:
        kernel = 1.0 / (1.0 + ii**2 + jj**2)
    return kernel / kernel.sum()


# Standard head-phantom ellipse table (intensity, semi-axes, center, angle).
_PHANTOM_ELLIPSES = [
    (1.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.80, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.20, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.20, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.10, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.10, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.10, 0.0230, 0.0230, 0.00, -0.6060, 0.0),
    (0.10, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
]


def shepp_logan(n):
    """Piecewise-constant head phantom on an n-by-n grid, values in [0, 1]."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    axis = np.linspace(-1.0, 1.0, n)
    xx = axis[None, :]
    yy = -axis[:, None]  # top row is y = +1
    img = np.zeros((n, n))
    for amp, a, b, x0, y0, phi_deg in _PHANTOM_ELLIPSES:
        phi = math.radians(phi_deg)
        c, s = math.cos(phi), math.sin(phi)
        xr = (xx - x0) * c + (yy - y0) * s
        yr = -(xx - x0) * s + (yy - y0) * c
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += amp
    # the overlapping amplitudes sum to exactly 0 in the darkest regions on
    # paper; clamp the float residue so the range contract holds
    return np.maximum(img, 0.0)


def radial_mask(n, lines):
    """Boolean frequency mask of ``lines`` diametral lines through DC.

    Lines at angles ``pi * t / lines`` are rasterized by stepping the
    dominant axis one pixel at a time in the centered plane, then the mask is
    symmetrized under point reflection about DC (so real images keep real
    shifted-normal products) and returned in standard FFT index order.
    ``lines`` is at most ``4 * n``: from about ``3.2 * n`` lines on the mask
    holds every frequency, and the loop runs once per line.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 1 <= lines <= 4 * n:
        raise ValueError(f"lines must be between 1 and 4 * n = {4 * n}, got {lines}")
    center = n // 2
    mask = np.zeros((n, n), dtype=bool)
    offsets = np.arange(n) - center
    for t in range(lines):
        theta = math.pi * t / lines
        if abs(math.cos(theta)) >= abs(math.sin(theta)):
            slope = math.tan(theta)
            rows = (center + np.round(offsets * slope).astype(int)) % n
            mask[rows, (center + offsets) % n] = True
        else:
            slope = math.cos(theta) / math.sin(theta)
            cols = (center + np.round(offsets * slope).astype(int)) % n
            mask[(center + offsets) % n, cols] = True
    mask = np.fft.ifftshift(mask)
    mirrored = np.roll(mask[::-1, ::-1], (1, 1), axis=(0, 1))
    mask |= mirrored
    mask[0, 0] = True
    return mask


def random_squares(n, seed=0):
    """15 axis-aligned squares with log-spaced amplitudes on a zero background.

    Amplitudes span 40 dB (1 to 100); squares are painted dimmest first so
    the brightest are never fully occluded.  Sides are uniform on [4, n//4].
    """
    if n < 16:
        raise ValueError(f"n must be >= 16, got {n}")
    rng = np.random.default_rng(seed)
    amplitudes = np.geomspace(1.0, 100.0, 15)
    img = np.zeros((n, n))
    for amp in amplitudes:
        side = int(rng.integers(4, n // 4 + 1))
        top = int(rng.integers(0, n - side + 1))
        left = int(rng.integers(0, n - side + 1))
        img[top : top + side, left : left + side] = amp
    return img


def cartoon(n):
    """Procedural piecewise-constant scene in [0, 255].

    A stand-in for a natural grayscale photo: flat regions, curved and
    straight edges, small and large features, and the full intensity range.
    """
    if n < 16:
        raise ValueError(f"n must be >= 16, got {n}")
    axis = np.linspace(-1.0, 1.0, n)
    xx = axis[None, :]
    yy = axis[:, None]
    img = np.full((n, n), 0.15)
    img[(xx + 0.40) ** 2 + (yy + 0.30) ** 2 < 0.38**2] = 0.70
    img[(np.abs(xx - 0.45) < 0.30) & (np.abs(yy + 0.42) < 0.25)] = 0.95
    img[(xx - 0.05) ** 2 + (yy - 0.45) ** 2 < 0.33**2] = 0.45
    img[np.abs(0.8 * xx + 0.6 * yy - 0.15) < 0.055] = 0.30
    img[(xx + 0.42) ** 2 + (yy + 0.33) ** 2 < 0.11**2] = 0.05
    img[(np.abs(xx - 0.55) < 0.10) & (np.abs(yy - 0.60) < 0.08)] = 1.00
    img[(xx - 0.62) ** 2 + (yy + 0.55) ** 2 < 0.045**2] = 0.25
    return img * 255.0


def relative_error(estimate, truth):
    denom = l2_norm(truth)
    if denom == 0:
        raise ValueError("truth has zero norm")
    return l2_distance(estimate, truth) / denom


def isnr(degraded, estimate, truth):
    """Improvement in SNR (dB) of the estimate over the degraded image.

    Returns +inf when the estimate matches the truth exactly (saturation).
    """
    err_deg = mse(degraded, truth)
    err_est = mse(estimate, truth)
    if err_est == 0.0:
        return math.inf
    return 10.0 * math.log10(err_deg / err_est)


@dataclass
class ProblemInstance:
    """A ready-to-solve degradation: truth, operator, noisy observation.

    ``degraded``, a report's image-shaped float64 baseline, is derived on
    access and follows ``observation``: the observation where it is
    image-shaped, else ``operator.adjoint(observation)``."""

    truth: np.ndarray
    operator: object
    observation: np.ndarray
    sigma: float
    epsilon: float
    seed: int

    @property
    def degraded(self):
        y = self.observation
        return y if y.shape == self.truth.shape else self.operator.adjoint(y)


def _observed(truth, op, clean, sigma, seed, noise_seed):
    """``truth`` observed through ``op``: its image ``clean`` plus white
    Gaussian noise drawn from ``noise_seed``."""
    y = add_noise(clean, sigma, noise_seed)
    return ProblemInstance(
        truth=truth,
        operator=op,
        observation=y,
        sigma=sigma,
        epsilon=epsilon_rule(y.size, sigma),
        seed=seed,
    )


def deblur_instance(kernel, sigma, size=128, seed=0):
    """Blur the cartoon scene with a ``kernel`` kind and add white Gaussian noise."""
    truth = cartoon(size)
    op = CircularConvolution(make_blur_kernel(kernel), truth.shape)
    return _observed(truth, op, op.forward(truth), sigma, seed, seed)


def _radial_instance(truth, lines, sigma, seed, noise_seed):
    """Sample a real ``truth`` on radial Fourier lines and add complex noise."""
    op = RealPartialFourier(radial_mask(truth.shape[0], lines))
    return _observed(truth, op, op.forward(truth), sigma, seed, noise_seed)


def fourier_phantom_instance(size=128, lines=22, sigma=math.sqrt(0.5e-6), seed=0):
    """Head phantom sampled on radial Fourier lines with complex noise."""
    return _radial_instance(shepp_logan(size), lines, sigma, seed, seed)


def fourier_squares_instance(size=128, lines=27, sigma=0.1, seed=0):
    """High-dynamic-range squares sampled on radial Fourier lines."""
    return _radial_instance(random_squares(size, seed=seed), lines, sigma, seed, seed + 1)


_MISSING_FRACTION = 0.4  # share of pixels inpainting drops
_INPAINT_SNR_DB = 40.0  # default inpainting noise, in dB below the observed pixels' power


def inpainting_instance(size=128, seed=0, sigma=None):
    """Drop 40% of the pixels at random and add white Gaussian noise.

    The noise sigma is ``sigma`` when given, else 40 dB below the observed
    pixels' power.
    """
    truth = cartoon(size)
    op = PixelMask(np.random.default_rng(seed).random(truth.shape) >= _MISSING_FRACTION)
    clean = op.forward(truth)
    if sigma is None:
        sigma = math.sqrt(float(np.mean(clean**2)) * 10.0 ** (-_INPAINT_SNR_DB / 10.0))
    return _observed(truth, op, clean, sigma, seed, seed + 1)


@dataclass
class RunSetup:
    """Everything needed to launch one solve."""

    name: str
    instance: ProblemInstance
    penalty: object
    formulation: str  # "direct" | "synthesis" | "analysis"
    frame: object
    config: SolverConfig


@dataclass
class ExperimentReport:
    """Outcome of one run: setup, final metrics, call counts, history, estimate, baseline."""

    setup: RunSetup
    status: str
    iterations: int
    epsilon: float
    final_objective: float
    final_constraint_norm: float
    final_relative_change: float
    final_mse: float
    degraded_mse: float
    isnr_db: float
    relative_error: float
    forward_calls: int
    adjoint_calls: int
    history: list
    estimate: np.ndarray
    degraded: np.ndarray


# blur class -> its deblur_instance arguments: kernel kind and noise sigma
BLUR_CLASSES = {
    "uniform": {"kernel": "uniform", "sigma": 0.56},
    "gauss-lo": {"kernel": "gaussian", "sigma": math.sqrt(2.0)},
    "gauss-hi": {"kernel": "gaussian", "sigma": math.sqrt(8.0)},
    "iq-lo": {"kernel": "inverse_quadratic", "sigma": math.sqrt(2.0)},
    "iq-hi": {"kernel": "inverse_quadratic", "sigma": math.sqrt(8.0)},
}

# common shorthand for the five benchmark classes
_CLASS_ALIASES = {"1": "uniform", "2a": "gauss-lo", "2b": "gauss-hi",
                  "3a": "iq-lo", "3b": "iq-hi"}

_FORMULATION_TAG = {"direct": "tv", "synthesis": "syn", "analysis": "ana"}
_TAG_FORMULATION = {v: k for k, v in _FORMULATION_TAG.items()}

_FRAME_LEVELS = 4

# The knobs a run takes, each with its value type and a one-line description.
# ``mu``, ``iterations`` and ``epsilon`` set the solve and apply to every
# experiment; the rest are keyword parameters of the instance factories below
# and apply where an experiment's factory takes them.
RUN_KNOBS = {
    "mu": (float, "override the ADMM penalty weight"),
    "epsilon": (float, "override the constraint radius"),
    "iterations": (int, f"iteration budget (default {SolverConfig.max_iterations})"),
    "seed": (int, "noise/geometry seed (default 0, at least 0)"),
    "size": (int, "image side length (default 128, at least 16)"),
    "lines": (int, "radial sampling lines (Fourier runs)"),
    "sigma": (float, "override the noise level"),
    "kernel": (str, "override the blur kernel family (deblur runs)"),
}

# ADMM penalty weight mu of each deblurring formulation, the one solver
# setting that differs by run; mri, squares and inpaint carry their own on
# their entries.  Every run stops on SolverConfig's one rel_tol within its
# default budget.  To retune, edit a value, then run tests/test_acceptance.py:
# its criteria are the verdict.
_DEBLUR_MU = {"synthesis": 2.0, "analysis": 1.0, "direct": 0.5}


class _Experiment(NamedTuple):
    """One catalog entry; it runs to SolverConfig's default budget of 500
    iterations unless the ``iterations`` knob sets one."""

    instance: object  # factory taking size=, seed= and the entry's instance knobs
    formulation: str  # "direct" | "synthesis" | "analysis"
    penalty: object  # factory, called fresh on every build
    mu: float  # ADMM penalty weight unless the ``mu`` knob sets one


EXPERIMENTS = {
    **{
        f"deblur-{blur_class}-{tag}": _Experiment(
            partial(deblur_instance, **BLUR_CLASSES[blur_class]), formulation,
            IsotropicTV if formulation == "direct" else L1Norm, _DEBLUR_MU[formulation],
        )
        for blur_class in BLUR_CLASSES
        for formulation, tag in _FORMULATION_TAG.items()
    },
    # mri's large mu makes a small prox weight (1/150) that needs more inner
    # steps: at 3 or 5 its relative error is about 28% or 17% above that at 10
    "mri": _Experiment(fourier_phantom_instance, "direct", partial(IsotropicTV, iterations=10),
                       150.0),
    "squares": _Experiment(fourier_squares_instance, "direct", IsotropicTV, 5.0),
    "inpaint": _Experiment(inpainting_instance, "direct", IsotropicTV, 0.05),
}
# at the analysis default 1.0 the objective rises after iteration 10, which
# criterion 8 of the acceptance tests forbids: on deblur-uniform-ana at seed 0
# (63 times; 12 at 1.5), on deblur-iq-lo-ana at 10 of seeds 0-15 (none at 1.5)
EXPERIMENTS["deblur-uniform-ana"] = EXPERIMENTS["deblur-uniform-ana"]._replace(mu=2.0)
EXPERIMENTS["deblur-iq-lo-ana"] = EXPERIMENTS["deblur-iq-lo-ana"]._replace(mu=1.5)

# smallest image side any catalog run takes: the cartoon and squares scenes
# need 16 pixels, and one floor for every run keeps --size uniform
_MIN_SIZE = 16

# each entry's instance-factory parameters, read at import so that checking
# a build's knobs against them costs nothing per build
_FACTORY_PARAMETERS = {
    name: frozenset(inspect.signature(entry.instance).parameters)
    for name, entry in EXPERIMENTS.items()
}


def experiment_names():
    return sorted(EXPERIMENTS)


def canonical_experiment_name(name):
    """Resolve shorthand experiment names to their catalog entry.

    ``deblur-<class>`` (no formulation tag) defaults to the total-variation
    run, and the numeric class shorthands ``1``, ``2a``, ``2b``, ``3a``,
    ``3b`` map to the named blur classes, so e.g. ``deblur-1`` means
    ``deblur-uniform-tv``.
    """
    if name in EXPERIMENTS:
        return name
    if not name.startswith("deblur-"):
        return name
    rest = name[len("deblur-"):]
    tag = "tv"
    for candidate in _TAG_FORMULATION:
        if rest.endswith("-" + candidate):
            rest = rest[: -(len(candidate) + 1)]
            tag = candidate
            break
    blur_class = _CLASS_ALIASES.get(rest, rest)
    return f"deblur-{blur_class}-{tag}"


def build_experiment(name, **knobs):
    """Instantiate a catalog experiment, optionally overriding its knobs.

    ``knobs`` are named in ``RUN_KNOBS``; a knob left out or given as None
    keeps the experiment's default (size 128, seed 0, the entry's ``mu``,
    and SolverConfig's budget of 500 iterations).  A knob the
    experiment does not take, a size below 16 or a negative seed raises
    ``ValueError`` naming it.
    """
    name = canonical_experiment_name(name)
    if name not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(experiment_names())}"
        )
    unknown = sorted(set(knobs) - set(RUN_KNOBS))
    if unknown:
        raise TypeError(f"unknown run knob(s): {', '.join(unknown)}")
    entry = EXPERIMENTS[name]
    knobs = {knob: value for knob, value in knobs.items() if value is not None}
    if knobs.get("size", _MIN_SIZE) < _MIN_SIZE:
        raise ValueError(f"knob 'size' must be >= {_MIN_SIZE}, got {knobs['size']}")
    if knobs.get("seed", 0) < 0:
        raise ValueError(f"knob 'seed' must be >= 0, got {knobs['seed']}")
    mu = knobs.pop("mu", entry.mu)
    budget = knobs.pop("iterations", SolverConfig.max_iterations)
    epsilon = knobs.pop("epsilon", None)
    for knob in knobs:
        if knob not in _FACTORY_PARAMETERS[name]:
            raise ValueError(f"knob {knob!r} does not apply to experiment {name!r}")
    inst = entry.instance(**knobs)
    if epsilon is not None:
        inst.epsilon = float(epsilon)
    frame = None
    if entry.formulation != "direct":
        frame = UndecimatedHaar(inst.truth.shape, levels=_FRAME_LEVELS)
    config = SolverConfig(mu=mu, epsilon=inst.epsilon, max_iterations=budget)
    return RunSetup(name=name, instance=inst, penalty=entry.penalty(),
                    formulation=entry.formulation, frame=frame, config=config)


def run_experiment(setup):
    """Solve one RunSetup and assemble the report."""
    inst = setup.instance
    # looked up in this module at call time, so a profiler can rebind it
    counted = CountingOperator(inst.operator)
    result = solve(counted, inst.observation, setup.penalty, setup.config, truth=inst.truth,
                   formulation=setup.formulation, frame=setup.frame)
    estimate = result.estimate
    last = result.last_record
    degraded = inst.degraded
    return ExperimentReport(
        setup=setup,
        status=result.status,
        iterations=result.iterations,
        epsilon=inst.epsilon,
        final_objective=last.objective,
        final_constraint_norm=last.constraint_norm,
        final_relative_change=last.relative_change,
        final_mse=last.mse,
        degraded_mse=mse(degraded, inst.truth),
        isnr_db=isnr(degraded, estimate, inst.truth),
        relative_error=relative_error(estimate, inst.truth),
        forward_calls=counted.forward_calls,
        adjoint_calls=counted.adjoint_calls,
        history=result.history,
        estimate=estimate,
        degraded=degraded,
    )
