"""Numerical toolkit for a two-message (truth vs. rumor) SIS diffusion model
with message inspection: steady states, transient dynamics, and budgeted
inspection-rate planning.

The steady-state names come from ``model`` at import. The trajectory and
planner names load their module, ``dynamics`` or ``planner``, on first
access, so that a process that never plans or integrates never loads them.
"""

__version__ = "0.1.0"

from .model import (
    Allocation,
    IntegratorError,
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

# public name -> the submodule that defines it, imported on the name's first access
_LAZY = {
    **dict.fromkeys(("DynState", "IntegratorConfig", "StabilityReport", "Trajectory", "integrate", "seed_state",
                     "verify_global_stability"), "dynamics"),
    **dict.fromkeys(("OptResult", "Thresholds", "compute_thresholds", "maximize_platform", "maximize_truth_targeted",
                     "maximize_truth_uniform", "minimize_rumor"), "planner"),
}


def __getattr__(name: str):
    # PEP 562: called only for a name the module globals lack. An unknown name raises AttributeError, so that
    # `from rumor_inspect import dynamics` falls back to importing the submodule.
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = globals()[name] = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    return value


# the public names: the version, what the model import bound, and the lazy names
__all__ = ["__version__", *(name for name, value in globals().items()
                            if getattr(value, "__module__", None) == f"{__name__}.model"), *_LAZY]
