"""The public records: fixed fields in a fixed order, immutable, and validated where they hold settings.

Every record is a named tuple. It takes its fields by position or by
keyword, prints as ``Name(field=value, ...)``, and compares and hashes by
its values. ``ModelParams``, ``Allocation``, ``SolverConfig`` and
``IntegratorConfig`` check their values when they are built, also through
``_replace``.
"""

import math

import pytest

from rumor_inspect import (
    Allocation,
    DynState,
    IntegratorConfig,
    ModelParams,
    OptResult,
    ParameterError,
    SolverConfig,
    StabilityReport,
    SteadyState,
    Thresholds,
    Trajectory,
    cli,
    compute_thresholds,
    full_steady_state,
    integrate,
    maximize_truth_uniform,
    seed_state,
    verify_global_stability,
)

FIELDS = {
    ModelParams: ("nu", "k", "delta", "x"),
    Allocation: ("alpha0", "alpha1"),
    SolverConfig: ("tol",),
    IntegratorConfig: ("conv_tol",),
    SteadyState: ("theta0", "theta1", "theta", "rho_00_a", "rho_10_a", "rho_00_na", "rho_11_na"),
    DynState: ("r00a", "r00na", "r10a", "r11na", "t"),
    Trajectory: ("states", "converged", "max_rate", "n_rejected"),
    StabilityReport: ("passed", "all_converged", "max_gap", "limits", "seed_trajectory"),
    Thresholds: ("alpha_prime", "lambda_bar", "eradication_interval", "A_lower", "A_upper", "A_tilde"),
    OptResult: ("allocation", "objective", "budget_spent", "slack", "rumor_eradicated"),
}


def library_records() -> dict:
    """One record of each public type, as the library returns or builds it."""
    p, a = ModelParams.from_lambda(2.0, 0.3), Allocation.uniform(0.2)
    return {
        ModelParams: p,
        Allocation: a,
        SolverConfig: SolverConfig(),
        IntegratorConfig: IntegratorConfig(),
        SteadyState: full_steady_state(p, a),
        DynState: seed_state(p, a),
        Trajectory: integrate(seed_state(p, a), p, a),
        StabilityReport: verify_global_stability(p, a, 2),
        Thresholds: compute_thresholds(p),
        OptResult: maximize_truth_uniform(p, 0.3),
    }


RECORDS = library_records()


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_fields_in_order(cls):
    assert cls._fields == FIELDS[cls]
    assert type(RECORDS[cls]) is cls


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_positional_and_keyword_construction_and_repr(cls):
    rec = RECORDS[cls]
    assert cls(*rec) == rec
    assert cls(**dict(zip(cls._fields, rec))) == rec
    assert repr(rec) == f"{cls.__name__}({', '.join(f'{f}={getattr(rec, f)!r}' for f in cls._fields)})"


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_records_are_immutable(cls):
    rec = RECORDS[cls]
    for name in (*cls._fields, "unknown_field"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0.5)
    assert RECORDS[cls] == library_records()[cls]


def test_defaults():
    assert SolverConfig().tol == 1e-12
    assert IntegratorConfig().conv_tol == 1e-10
    assert DynState(0.1, 0.2, 0.3, 0.4).t == 0.0


def test_trajectory_properties_and_the_seed_run():
    traj = RECORDS[Trajectory]
    assert traj.n_steps == len(traj.states) - 1 > 0 and traj.final == traj.states[-1]
    assert traj.status == "converged"
    report = RECORDS[StabilityReport]
    assert report.seed_trajectory == traj and report.limits[0] == traj.final


# (type, positional arguments, the ParameterError message)
INVALID = [
    (ModelParams, (0.0, 1.0, 1.0, 0.3), "nu, k, delta must be finite and strictly positive, got (0.0, 1.0, 1.0)"),
    (ModelParams, (1.0, math.inf, 1.0, 0.3), "nu, k, delta must be finite and strictly positive, got (1.0, inf, 1.0)"),
    (ModelParams, (1.0, 1.0, 1.0, 1.5), "x must lie in [0, 1], got 1.5"),
    (ModelParams, (1.0, 1.0, 1.0, math.nan), "x must lie in [0, 1], got nan"),
    (ModelParams, (1e-200, 1e-200, 1.0, 0.3), "lam = nu * k / delta must be finite and strictly positive, got 0.0"),
    (ModelParams, (1e200, 1e200, 1.0, 0.3), "lam = nu * k / delta must be finite and strictly positive, got inf"),
    (Allocation, (-0.1, 0.2), "alpha0 must lie in [0, 1], got -0.1"),
    (Allocation, (0.2, 1.5), "alpha1 must lie in [0, 1], got 1.5"),
    (Allocation, (math.nan, math.nan), "alpha0 must lie in [0, 1], got nan"),
    (SolverConfig, (0.0,), "tol must be finite and positive, got 0.0"),
    (SolverConfig, (math.inf,), "tol must be finite and positive, got inf"),
    (IntegratorConfig, (-1e-10,), "conv_tol must be finite and positive, got -1e-10"),
    (IntegratorConfig, (math.nan,), "conv_tol must be finite and positive, got nan"),
]


@pytest.mark.parametrize("build", ["positional", "keyword", "replace"])
@pytest.mark.parametrize("cls,args,message", INVALID)
def test_validated_types_refuse_invalid_values(cls, args, message, build):
    fields = dict(zip(cls._fields, args))
    with pytest.raises(ParameterError) as exc:
        if build == "positional":
            cls(*args)
        elif build == "keyword":
            cls(**fields)
        else:
            RECORDS[cls]._replace(**fields)
    assert str(exc.value) == message


def test_allocation_hashes_and_compares_by_its_two_rates():
    a = Allocation.targeted(0.1, 0.6)
    assert a == Allocation(alpha0=0.1, alpha1=0.6) and hash(a) == hash(Allocation(0.1, 0.6))
    assert a != Allocation(0.6, 0.1) and a != Allocation(0.1, 0.7)
    assert Allocation.uniform(0.3) == Allocation.targeted(0.3, 0.3)
    known = {a: "a", Allocation.uniform(0.3): "u"}
    assert known[Allocation(0.1, 0.6)] == "a" and known[Allocation(0.3, 0.3)] == "u"
    assert len({Allocation(0.2, 0.2), Allocation.uniform(0.2), Allocation(0.2, 0.4)}) == 2


def test_run_config_sets_every_field_in_declared_order():
    cfg = cli.RunConfig("steady", x=0.3)
    assert list(vars(cfg)) == ["command", *(field for field, *_ in cli.SETTINGS.values())]
    assert cfg == cli.RunConfig(command="steady", x=0.3) and (cfg.x, cfg.steps, cfg.lam) == (0.3, 101, None)
    with pytest.raises(TypeError):
        cli.RunConfig("steady", lambda_=2.0)
