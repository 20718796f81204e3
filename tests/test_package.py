"""The package's public names: the same objects as before `dynamics` and `planner` loaded on first access.

``rumor_inspect`` imports ``model`` and resolves the trajectory and planner
names through a module ``__getattr__``, so a process that plans or
integrates nothing never loads those modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rumor_inspect
from rumor_inspect import dynamics, model, planner

SRC = Path(__file__).resolve().parent.parent / "src"

DYNAMICS = {"DynState", "IntegratorConfig", "StabilityReport", "Trajectory", "integrate", "seed_state",
            "verify_global_stability"}
PLANNER = {"OptResult", "Thresholds", "compute_thresholds", "maximize_platform", "maximize_truth_targeted",
           "maximize_truth_uniform", "minimize_rumor"}


def defining_module(name):
    return dynamics if name in DYNAMICS else planner if name in PLANNER else model


@pytest.mark.parametrize("name", [name for name in rumor_inspect.__all__ if name != "__version__"])
def test_public_name_is_the_defining_modules_object(name):
    assert getattr(rumor_inspect, name) is getattr(defining_module(name), name)


def test_public_names_are_unchanged():
    assert {*rumor_inspect.__all__} == {"__version__", "Allocation", "IntegratorError", "ModelParams",
                                        "ParameterError", "SolverConfig", "SolverError", "SteadyState",
                                        "eradication_threshold", "full_steady_state", "group_masses",
                                        "no_rumor_positivity_readings", "prevalences", "rumor_steady_state",
                                        "truth_steady_state", *DYNAMICS, *PLANNER}
    assert rumor_inspect.__version__ == "0.1.0"


def test_integrator_error_is_one_class():
    # moved to model so that the CLI catches it without loading dynamics; dynamics raises the same class
    assert rumor_inspect.IntegratorError is dynamics.IntegratorError is model.IntegratorError
    assert dynamics.DEFAULT_SEED_LEVEL is model.DEFAULT_SEED_LEVEL


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from rumor_inspect import *", namespace)
    assert {name: namespace[name] for name in rumor_inspect.__all__} == {
        name: getattr(rumor_inspect, name) for name in rumor_inspect.__all__}


def test_unknown_attribute_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'rumor_inspect' has no attribute 'no_such_name'"):
        rumor_inspect.no_such_name


LOAD_PROBE = """
import json, sys
package = lambda: sorted(m for m in sys.modules if m.partition(".")[0] == "rumor_inspect")
import rumor_inspect
steps = [package()]
rumor_inspect.compute_thresholds
steps.append(package())
steps.append("compute_thresholds" in vars(rumor_inspect))
from rumor_inspect import dynamics
steps.append(package())
namespace = {}
exec("from rumor_inspect import *", namespace)
steps.append(sorted({*rumor_inspect.__all__} - {*namespace}))
print(json.dumps(steps))
"""


def test_bare_import_loads_neither_planner_nor_dynamics():
    # a fresh interpreter: a planner name loads the planner alone and is then kept in the module globals, a
    # submodule still imports by name, and a star import there binds every public name
    proc = subprocess.run([sys.executable, "-c", LOAD_PROBE], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60, check=True)
    bare, planned, cached, both, unbound = json.loads(proc.stdout)
    assert bare == ["rumor_inspect", "rumor_inspect.model"]
    assert planned == ["rumor_inspect", "rumor_inspect.model", "rumor_inspect.planner"]
    assert cached is True
    assert both == ["rumor_inspect", "rumor_inspect.dynamics", "rumor_inspect.model", "rumor_inspect.planner"]
    assert unbound == []
