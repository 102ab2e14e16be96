"""Gumbel limit laws at desk scale: conditioned diffusion exit times,
Gaussian extremes, and residual life times, verified by a mix of Monte
Carlo simulation and high-precision deterministic tail computation."""

import os

# No code here calls BLAS, and OpenBLAS's idle thread pool costs each process ~0.1 s of CPU.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .distributions import (
    TailModel,
    exponential_tail_model,
    gaussian_cdf,
    gaussian_log_tail,
    gaussian_pdf,
    gaussian_tail,
    gaussian_tail_asymptotic,
    gaussian_tail_model,
    gumbel_cdf,
    gumbel_density,
    gumbel_identity_residual,
)
from .errors import (
    BudgetExceeded,
    ExitGumbelError,
    GuardExceeded,
    NoBracket,
    NonFiniteResult,
)
from .evt import (
    NormalizingSequence,
    gnedenko_lhs,
    max_cdf,
    sample_normalized_max,
    solve_normalizers,
)
from .exitsim import (
    ConditionedSample,
    ExitProblem,
    ExitRecord,
    NoiseRealization,
    duhamel_exit_time,
    limit_law_cdf,
    limit_law_sample,
    limit_normalized_time,
    replay_exit_from_noise,
    right_exit_probability,
    sample_conditioned_exits,
    sample_noise,
    simulate_exit_exact,
    simulate_path,
    truncated_gaussian,
)
from .residual import (
    log_residual_cdf,
    log_residual_density,
    scaled_residual,
    shifted_log_residual_cdf,
    shifted_log_residual_density,
)
from .stats import (
    EmpiricalSample,
    RngStream,
    ks_one_sample,
    ks_one_sample_critical,
    ks_two_sample,
    ks_two_sample_critical,
    read_sample_csv,
    write_sample_csv,
)

__version__ = "0.1.0"
