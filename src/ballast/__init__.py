"""ballast: constrained ADMM solvers for imaging inverse problems.

Solves ``min phi(x) subject to ||B x - y|| <= epsilon`` for deconvolution,
inpainting, and partial Fourier observation models, with l1 (wavelet-frame)
or isotropic-TV penalties.  Every observation model ships a closed-form
O(n log n) shifted-normal inverse, so iterations never call an inner solver.
"""

from .frames import OrthogonalHaar, UndecimatedHaar
from .harness import (
    ExperimentReport,
    ProblemInstance,
    RunSetup,
    build_experiment,
    canonical_experiment_name,
    isnr,
    cartoon,
    deblur_instance,
    epsilon_rule,
    experiment_names,
    fourier_phantom_instance,
    fourier_squares_instance,
    inpainting_instance,
    make_blur_kernel,
    radial_mask,
    random_squares,
    relative_error,
    run_experiment,
    shepp_logan,
)
from .operators import (
    CircularConvolution,
    CountingOperator,
    LinearOperator,
    PartialFourier,
    PixelMask,
    RealPartialFourier,
    SynthesisOperator,
    add_noise,
)
from .prox import (
    BallConstraint,
    IsotropicTV,
    L1Norm,
    mse,
    project_ball,
    soft_threshold,
    tv_norm,
    tv_prox,
)
from .solver import (
    DivergenceError,
    IterationRecord,
    SolveResult,
    SolverConfig,
    SolverState,
    check_stop,
    solve,
    step,
)
from .validate import run_suite

__version__ = "0.1.0"

__all__ = [
    "OrthogonalHaar",
    "UndecimatedHaar",
    "ExperimentReport",
    "ProblemInstance",
    "RunSetup",
    "build_experiment",
    "canonical_experiment_name",
    "isnr",
    "cartoon",
    "deblur_instance",
    "epsilon_rule",
    "experiment_names",
    "fourier_phantom_instance",
    "fourier_squares_instance",
    "inpainting_instance",
    "make_blur_kernel",
    "radial_mask",
    "random_squares",
    "relative_error",
    "run_experiment",
    "shepp_logan",
    "CircularConvolution",
    "CountingOperator",
    "LinearOperator",
    "PartialFourier",
    "PixelMask",
    "RealPartialFourier",
    "SynthesisOperator",
    "add_noise",
    "BallConstraint",
    "IsotropicTV",
    "L1Norm",
    "mse",
    "project_ball",
    "soft_threshold",
    "tv_norm",
    "tv_prox",
    "DivergenceError",
    "IterationRecord",
    "SolveResult",
    "SolverConfig",
    "SolverState",
    "check_stop",
    "solve",
    "step",
    "run_suite",
    "__version__",
]
