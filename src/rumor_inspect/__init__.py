"""Numerical toolkit for a two-message (truth vs. rumor) SIS diffusion model
with message inspection: steady states, transient dynamics, and budgeted
inspection-rate planning.
"""

__version__ = "0.1.0"

from .model import (
    Allocation,
    ModelParams,
    ParameterError,
    SolverConfig,
    SolverError,
    SteadyState,
    eradication_threshold,
    full_steady_state,
    group_masses,
    no_rumor_positivity_readings,
    prevalences,
    rumor_steady_state,
    truth_steady_state,
)
from .dynamics import (
    DynState,
    IntegratorConfig,
    IntegratorError,
    StabilityReport,
    Trajectory,
    integrate,
    seed_state,
    verify_global_stability,
)
from .planner import (
    OptResult,
    Thresholds,
    compute_thresholds,
    maximize_platform,
    maximize_truth_targeted,
    maximize_truth_uniform,
    minimize_rumor,
)

__all__ = [
    "__version__",
    "Allocation",
    "DynState",
    "IntegratorConfig",
    "IntegratorError",
    "ModelParams",
    "OptResult",
    "ParameterError",
    "SolverConfig",
    "SolverError",
    "StabilityReport",
    "SteadyState",
    "Thresholds",
    "Trajectory",
    "compute_thresholds",
    "eradication_threshold",
    "full_steady_state",
    "group_masses",
    "integrate",
    "maximize_platform",
    "maximize_truth_targeted",
    "maximize_truth_uniform",
    "minimize_rumor",
    "no_rumor_positivity_readings",
    "prevalences",
    "rumor_steady_state",
    "seed_state",
    "truth_steady_state",
    "verify_global_stability",
]
