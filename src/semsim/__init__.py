"""Simulation and analysis toolkit for self-exciting multifractional processes.

The central object is a Volterra process whose kernel exponent is steered
by the path itself through a Hurst function ``h(t, x)``, optionally
dampened by an exponential factor.  The package provides deterministic
Brownian drivers, an Euler-Maruyama engine with bit-exact refinement
coupling, roughness/moment/autocorrelation estimators, comparison kernels
and bounds, and a batch CLI.
"""

__version__ = "0.1.0"

from .analysis import (
    AcfSeries,
    ConvergenceReport,
    DegeneratePathError,
    HolderEstimate,
    MonteCarloEstimate,
    acf_abs_increments,
    convergence_study,
    estimate_holder,
    estimate_moment,
    fit_loglog_slope,
)
from .engine import (
    Ensemble,
    PathSimulationError,
    SamplePath,
    SimulationConfig,
    interpolate_on_refinement,
    monte_carlo,
    refine_config,
    simulate_blocks,
    simulate_discrete,
)
from .kernels import (
    KernelParams,
    check_fund_ineq,
    dominating_kernel,
    kernel_values,
    lambda_gamma,
    sigma,
)
from .model import (
    DampeningFunction,
    EPSILON_FLOOR,
    HurstClipWarning,
    HurstFunction,
    ValidationReport,
    Violation,
    builtin_dampening,
    builtin_hurst,
    eval_hurst,
    validate_dampening,
    validate_hurst,
)
from .randomness import (
    QUANTUM,
    BrownianIncrements,
    Seed,
    TimeGrid,
    coarsen,
    derive_path_seed,
    make_grid,
    sample_brownian,
    sample_brownian_block,
)
from .special import MittagLefflerError, gronwall_bound, log_gamma, mittag_leffler

__all__ = [
    "__version__",
    "QUANTUM",
    "EPSILON_FLOOR",
    "TimeGrid",
    "Seed",
    "BrownianIncrements",
    "make_grid",
    "derive_path_seed",
    "sample_brownian",
    "sample_brownian_block",
    "coarsen",
    "HurstFunction",
    "DampeningFunction",
    "HurstClipWarning",
    "ValidationReport",
    "Violation",
    "builtin_hurst",
    "builtin_dampening",
    "eval_hurst",
    "validate_hurst",
    "validate_dampening",
    "KernelParams",
    "sigma",
    "kernel_values",
    "dominating_kernel",
    "lambda_gamma",
    "check_fund_ineq",
    "MittagLefflerError",
    "log_gamma",
    "mittag_leffler",
    "gronwall_bound",
    "SimulationConfig",
    "SamplePath",
    "Ensemble",
    "PathSimulationError",
    "simulate_discrete",
    "interpolate_on_refinement",
    "monte_carlo",
    "simulate_blocks",
    "refine_config",
    "MonteCarloEstimate",
    "HolderEstimate",
    "AcfSeries",
    "ConvergenceReport",
    "DegeneratePathError",
    "estimate_moment",
    "fit_loglog_slope",
    "estimate_holder",
    "acf_abs_increments",
    "convergence_study",
]
