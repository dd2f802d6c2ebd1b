"""The package's public names: each module's ``__all__`` is the only list."""

import ballast
from ballast import frames, harness, operators, prox, solver, validate

PUBLIC_NAMES = [
    "BallConstraint", "CircularConvolution", "CountingOperator", "DivergenceError",
    "ExperimentReport", "IsotropicTV", "IterationRecord", "L1Norm", "LinearOperator",
    "OrthogonalHaar", "PartialFourier", "PixelMask", "ProblemInstance",
    "RealPartialFourier", "RunSetup", "SolveResult", "SolverConfig", "SolverState",
    "SynthesisOperator", "UndecimatedHaar", "__version__", "add_noise",
    "build_experiment", "canonical_experiment_name", "cartoon", "check_stop",
    "deblur_instance", "epsilon_rule", "experiment_names", "fourier_phantom_instance",
    "fourier_squares_instance", "inpainting_instance", "isnr", "make_blur_kernel",
    "mse", "project_ball", "radial_mask", "random_squares", "relative_error",
    "run_experiment", "run_suite", "shepp_logan", "soft_threshold", "solve", "step",
    "tv_norm", "tv_prox",
]


def test_public_names_are_each_modules_all():
    assert sorted(ballast.__all__) == PUBLIC_NAMES
    exported = {"__version__"}
    for module in (frames, harness, operators, prox, solver, validate):
        for name in module.__all__:
            assert getattr(ballast, name) is getattr(module, name), name
        exported.update(module.__all__)
    assert exported == set(ballast.__all__)
