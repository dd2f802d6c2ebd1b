"""
Deblurring a piecewise-constant scene
=====================================

A start-to-finish tour of the constrained formulation: blur an image with a
9x9 box kernel, add noise, and recover it by minimizing total variation
subject to an l2 ball constraint around the observation.
"""

from ballast import IsotropicTV, SolverConfig, solve
from ballast.harness import deblur_instance, isnr, mse

# --- build the degraded observation ---------------------------------------
# The instance bundles the ground truth, the convolution operator, the noisy
# observation, and the ball radius epsilon derived from the noise level.
inst = deblur_instance("uniform", sigma=0.56, size=64, seed=0)
print(f"truth range        [{inst.truth.min():.1f}, {inst.truth.max():.1f}]")
print(f"noise sigma        {inst.sigma}")
print(f"ball radius eps    {inst.epsilon:.2f}")
print(f"degraded MSE       {mse(inst.degraded, inst.truth):.1f}")

# --- solve -----------------------------------------------------------------
# The solver splits the problem into a penalty block and a feasibility block;
# each iteration costs one FFT-based application of the operator and its
# adjoint plus one proximal map per block.  The default "direct" formulation
# puts the penalty on the image pixels; formulation="synthesis" or
# "analysis" (with a frame=) puts it on wavelet coefficients instead.  The
# observation is a real image, so the solver starts from the blurred image
# itself.
config = SolverConfig(
    mu=0.5,                   # penalty weight coupling the blocks
    epsilon=inst.epsilon,     # constraint: ||B x - y|| <= epsilon
    max_iterations=300,
)
result = solve(
    inst.operator, inst.observation, IsotropicTV(), config,
    truth=inst.truth,
)

print(f"\nstatus             {result.status} after {result.iterations} iterations")

# --- inspect convergence ----------------------------------------------------
# The recorded history shows the two quantities that matter: the objective
# falls, and the constraint norm settles onto the ball radius.
print("\n   k   objective   constraint       MSE")
marks = [1, 2, 5, 10, 20, 50, result.iterations]
for rec in result.history:
    if rec.k in marks:
        print(f"{rec.k:4d}  {rec.objective:10.1f}   {rec.constraint_norm:10.2f}"
              f"  {rec.mse:8.1f}")

final = result.history[-1]
print(f"\nfeasible           {final.constraint_norm <= 1.01 * inst.epsilon}")
print(f"restored MSE       {final.mse:.1f}")
print(f"SNR improvement    {isnr(inst.degraded, result.estimate, inst.truth):.2f} dB")
