"""
Reconstruction from partial Fourier samples
===========================================

Sample a head phantom on a few radial lines of the frequency plane —
a classic compressed-sensing setup — and recover it with total-variation
regularization under the ball constraint.
"""

from ballast import IsotropicTV, SolverConfig, solve
from ballast.harness import fourier_phantom_instance, mse

# --- the sampling geometry ---------------------------------------------------
# 22 diametral lines through the origin of the frequency plane.  The operator
# maps the real image to complex frequency samples; its adjoint keeps the real
# part of the back-projection, so every iterate is a real image.
inst = fourier_phantom_instance(size=64, lines=22)
mask = inst.operator.mask
print(f"frequency samples  {inst.operator.m} of {64 * 64} "
      f"({100.0 * mask.mean():.0f}% of the plane)")
print(f"noise sigma        {inst.sigma:.2e}")
print(f"ball radius eps    {inst.epsilon:.2e}")

# The naive reconstruction just back-projects the observed frequencies.
backprojection = inst.operator.adjoint(inst.observation)
print(f"back-projection MSE {mse(backprojection, inst.truth):.2e}")

# --- solve -------------------------------------------------------------------
# The unknown is the real image, so each iteration runs one TV prox, warm
# starting its inner dual variable across outer iterations.  The large mu
# (a prox weight of 1/150) calls for 10 inner steps instead of the default 3.
# The observation is a vector of frequencies, so the solver starts from the
# back-projection.
config = SolverConfig(mu=150.0, epsilon=inst.epsilon, max_iterations=300)
result = solve(
    inst.operator, inst.observation,
    IsotropicTV(iterations=10), config, truth=inst.truth,
)

final = result.history[-1]
print(f"\nstatus             {result.status} after {result.iterations} iterations")
print(f"feasible           {final.constraint_norm <= 1.01 * inst.epsilon}")
print(f"reconstruction MSE {mse(result.estimate, inst.truth):.2e} "
      f"({result.estimate.dtype} image, range "
      f"[{result.estimate.min():.3f}, {result.estimate.max():.3f}])")
