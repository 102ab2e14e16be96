"""Gumbel limit laws at desk scale: conditioned diffusion exit times,
Gaussian extremes, and residual life times, verified by a mix of Monte
Carlo simulation and high-precision deterministic tail computation."""

import os

# No code here calls BLAS, and OpenBLAS's idle thread pool costs each process ~0.1 s of CPU.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import distributions, errors, evt, exitsim, residual, stats
from .distributions import *
from .errors import *
from .evt import *
from .exitsim import *
from .residual import *
from .stats import *

__all__ = [name for module in (distributions, errors, evt, exitsim, residual, stats) for name in module.__all__]

__version__ = "0.1.0"
