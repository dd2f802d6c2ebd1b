"""ballast: constrained ADMM solvers for imaging inverse problems.

Solves ``min phi(x) subject to ||B x - y|| <= epsilon`` for deconvolution,
inpainting, and partial Fourier observation models, with l1 (wavelet-frame)
or isotropic-TV penalties.  Every observation model ships a closed-form
O(n log n) shifted-normal inverse, so iterations never call an inner solver.

The public names are those of each module's ``__all__``.
"""

from . import frames, harness, operators, prox, solver, validate
from .frames import *
from .harness import *
from .operators import *
from .prox import *
from .solver import *
from .validate import *

__version__ = "0.1.0"

__all__ = [*frames.__all__, *harness.__all__, *operators.__all__, *prox.__all__,
           *solver.__all__, *validate.__all__, "__version__"]
