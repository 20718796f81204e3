import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import THETA0_REF, marginal_condition_uniform, oracle_rumor, oracle_truth, truth_map
from rumor_inspect import (
    Allocation,
    ModelParams,
    ParameterError,
    SolverConfig,
    SolverError,
    eradication_threshold,
    full_steady_state,
    no_rumor_positivity_readings,
    prevalences,
    rumor_steady_state,
    truth_steady_state,
)
from rumor_inspect import model
from rumor_inspect.model import (DEFAULT_SOLVER, _no_rumor_truth, _steady_truth, _truth_given_rumor, _truth_partials,
                                 _truth_slope)

lams = st.floats(0.2, 8.0)
xs = st.floats(0.0, 1.0)
rates = st.floats(0.0, 1.0)
# diffusion rates spread evenly over every decade from 1e-3 to 1e300
wide_lams = st.floats(-3.0, 300.0).map(lambda e: 10.0**e)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ParameterError):
        ModelParams.from_lambda(0.0, 0.3)
    with pytest.raises(ParameterError):
        ModelParams.from_lambda(2.0, -0.1)
    with pytest.raises(ParameterError):
        ModelParams(1.0, 1.0, 0.0, 0.3)
    with pytest.raises(ParameterError):
        Allocation.uniform(1.5)
    with pytest.raises(ParameterError):
        Allocation.targeted(-0.2, 0.5)
    with pytest.raises(ParameterError):
        SolverConfig(tol=0.0)
    with pytest.raises(ParameterError):
        SolverConfig(tol=math.inf)


@given(lam=st.floats(1e-6, 1e6))
def test_lambda_round_trips_exactly(lam):
    p = ModelParams.from_lambda(lam, 0.3)
    assert p.lam == lam


@pytest.mark.parametrize(
    "nu,k,delta,x",
    [
        (math.inf, 1.0, 0.5, 0.3),
        (math.nan, 1.0, 0.5, 0.3),
        (1.0, math.inf, 0.5, 0.3),
        (1.0, 1.0, math.inf, 0.3),
        (1.0, 1.0, 0.5, math.nan),
        (1e308, 1e308, 1e-308, 0.3),  # lam overflows to inf
        (1e-308, 1e-308, 1.0, 0.3),  # lam underflows to 0
    ],
)
def test_params_reject_non_finite(nu, k, delta, x):
    with pytest.raises(ParameterError):
        ModelParams(nu, k, delta, x)


def test_lambda_matches_rates():
    p = ModelParams(nu=1.0, k=3.0, delta=0.7, x=0.5)
    assert p.lam == 1.0 * 3.0 / 0.7


def test_allocation_modes():
    u = Allocation.uniform(0.4)
    assert u.rates() == (0.4, 0.4)
    t = Allocation.targeted(0.1, 0.6)
    assert t.rates() == (0.1, 0.6)
    assert t.inspecting_mass(0.3) == pytest.approx(0.3 * 0.1 + 0.7 * 0.6, abs=0)


def test_a_policy_is_its_two_rates():
    assert Allocation._fields == ("alpha0", "alpha1")
    assert tuple(Allocation.targeted(0.1, 0.6)) == (0.1, 0.6)


@given(a=rates, x=xs)
@example(a=0.11, x=0.02)  # x*a + (1-x)*a rounds below a here
def test_equal_rates_are_the_uniform_policy_and_spend_their_rate(a, x):
    u = Allocation.uniform(a)
    assert u == Allocation.targeted(a, a)
    assert u.inspecting_mass(x) == a
    # the array form a sweep takes gives the same spend, entry by entry
    spend = model._inspecting_mass(np.array([x, 0.5]), np.array([a, 0.2]), np.array([a, 0.6]), np)
    assert spend.tolist() == [a, Allocation.targeted(0.2, 0.6).inspecting_mass(0.5)]


# ---------------------------------------------------------------------------
# rumor prevalence and the eradication threshold
# ---------------------------------------------------------------------------

def test_rumor_steady_state_examples(ref_params):
    assert rumor_steady_state(ref_params, Allocation.uniform(0.0)) == pytest.approx(0.2, abs=1e-12)
    assert rumor_steady_state(ref_params, Allocation.uniform(2 / 7)) == 0.0
    assert rumor_steady_state(ref_params, Allocation.uniform(0.2)) == pytest.approx(0.06, abs=1e-12)


def test_eradication_threshold_examples():
    assert eradication_threshold(ModelParams.from_lambda(2.0, 0.3)) == pytest.approx(2 / 7, abs=1e-12)
    assert eradication_threshold(ModelParams.from_lambda(1.0, 0.3)) == 0.0
    assert eradication_threshold(ModelParams.from_lambda(5.0, 0.5)) == pytest.approx(0.6, abs=1e-12)
    assert eradication_threshold(ModelParams.from_lambda(4.0, 1.0)) == 0.0


@given(lam=lams, x=xs, a=rates)
@example(lam=5.0, x=0.5, a=0.5999999999995)  # tol/2 below the threshold
def test_rumor_is_zero_at_and_above_threshold(lam, x, a):
    p = ModelParams.from_lambda(lam, x)
    thr = eradication_threshold(p)
    v = rumor_steady_state(p, Allocation.uniform(a))
    if a >= thr - DEFAULT_SOLVER.tol:
        assert v == 0.0
    else:
        assert v > 0.0


def test_rumor_is_extinct_from_tol_below_the_threshold():
    # in the band [alpha' - tol, alpha') the truth solve takes the rumor as
    # extinct, and so does every reported theta1
    p = ModelParams.from_lambda(5.0, 0.5)
    a = Allocation.uniform(eradication_threshold(p) - DEFAULT_SOLVER.tol / 2)
    ss = full_steady_state(p, a)
    assert ss.theta1 == rumor_steady_state(p, a) == 0.0
    assert ss.theta == ss.theta0 == truth_steady_state(p, a) == _no_rumor_truth(p.lam, p.x, a.alpha1)
    # a tighter tolerance narrows the band and leaves the rumor endemic there
    tight = SolverConfig(tol=1e-13)
    assert full_steady_state(p, a, tight).theta1 == rumor_steady_state(p, a, tight) > 0.0


def test_rumor_linear_below_threshold():
    p = ModelParams.from_lambda(2.0, 0.3)
    thr = eradication_threshold(p)
    samples = [i * thr / 40 for i in range(40)]
    for a, b in zip(samples, samples[1:]):
        va = rumor_steady_state(p, Allocation.uniform(a))
        vb = rumor_steady_state(p, Allocation.uniform(b))
        assert (vb - va) / (b - a) == pytest.approx(-(1 - 0.3), abs=1e-9)


def test_rumor_comparative_statics_signs():
    h = 1e-6
    for lam in (1.8, 2.5, 4.0):
        for x in (0.1, 0.3, 0.5):
            for a in (0.0, 0.1):
                base = oracle_rumor(lam, x, a)
                if base <= 0.0:
                    continue
                up_x = rumor_steady_state(ModelParams.from_lambda(lam, x + h), Allocation.uniform(a))
                up_l = rumor_steady_state(ModelParams.from_lambda(lam + h, x), Allocation.uniform(a))
                here = rumor_steady_state(ModelParams.from_lambda(lam, x), Allocation.uniform(a))
                assert up_x < here
                assert up_l > here


@given(lam=lams, x=xs, a0=rates, a0_other=rates, a1=rates)
def test_rumor_ignores_type0_inspection(lam, x, a0, a0_other, a1):
    p = ModelParams.from_lambda(lam, x)
    assert rumor_steady_state(p, Allocation.targeted(a0, a1)) == rumor_steady_state(
        p, Allocation.targeted(a0_other, a1)
    )


# ---------------------------------------------------------------------------
# the truth fixed-point map
# ---------------------------------------------------------------------------

def test_truth_map_trivial_points(ref_params):
    a = Allocation.uniform(0.3)
    assert truth_map(0.0, 0.0, ref_params, a) == 0.0
    assert truth_map(0.0, 0.1, ref_params, a) > 0.0
    with pytest.raises(ParameterError):
        truth_map(-0.1, 0.0, ref_params, a)
    with pytest.raises(ParameterError):
        truth_map(0.0, 1.2, ref_params, a)


def test_truth_map_fixed_point_residual(ref_params):
    a = Allocation.uniform(0.2)
    assert abs(truth_map(0.072, 0.06, ref_params, a) - 0.072) < 1e-3


@given(lam=lams, x=xs, a0=rates, a1=rates, th1=st.floats(0.0, 0.5))
@settings(max_examples=200)
def test_truth_map_concavity(lam, x, a0, a1, th1):
    # second central differences of a strictly concave map are <= 0
    p = ModelParams.from_lambda(lam, x)
    a = Allocation.targeted(a0, a1)
    h = 1e-3
    grid = [0.05 * i for i in range(1, 19)]
    for t0 in grid:
        second = (
            truth_map(t0 + h, th1, p, a)
            - 2.0 * truth_map(t0, th1, p, a)
            + truth_map(t0 - h, th1, p, a)
        )
        assert second <= 1e-12


@given(lam=lams, x=xs, a=rates)
@settings(max_examples=150)
def test_uniform_equals_targeted(lam, x, a):
    p = ModelParams.from_lambda(lam, x)
    uni = full_steady_state(p, Allocation.uniform(a))
    tgt = full_steady_state(p, Allocation.targeted(a, a))
    for f in ("theta0", "theta1", "theta", "rho_00_a", "rho_10_a", "rho_00_na", "rho_11_na"):
        assert getattr(uni, f) == pytest.approx(getattr(tgt, f), abs=1e-12)


# ---------------------------------------------------------------------------
# truth steady state
# ---------------------------------------------------------------------------

def test_truth_steady_state_examples(ref_params):
    assert truth_steady_state(ref_params, Allocation.uniform(1.0)) == pytest.approx(0.5, abs=1e-12)
    assert truth_steady_state(ref_params, Allocation.uniform(2 / 7)) == 0.0
    assert truth_steady_state(ref_params, Allocation.uniform(0.0)) == 0.0
    assert truth_steady_state(ref_params, Allocation.uniform(0.2)) == pytest.approx(THETA0_REF, abs=1e-10)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 3.0, 5.0])
@pytest.mark.parametrize("x", [0.0, 0.3, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.2, 0.45, 0.8, 1.0])
def test_truth_steady_state_matches_oracle(lam, x, alpha):
    p = ModelParams.from_lambda(lam, x)
    v = truth_steady_state(p, Allocation.uniform(alpha))
    assert v == pytest.approx(oracle_truth(lam, x, alpha, alpha), abs=1e-10)


def test_truth_steady_state_targeted_matches_oracle():
    for lam, x, a0, a1 in [(2.0, 0.3, 0.9, 0.05), (3.0, 0.6, 0.2, 0.1), (1.7, 0.45, 0.0, 0.3)]:
        p = ModelParams.from_lambda(lam, x)
        v = truth_steady_state(p, Allocation.targeted(a0, a1))
        assert v == pytest.approx(oracle_truth(lam, x, a0, a1), abs=1e-10)


def test_truth_unique_root_when_endemic():
    # the fixed-point gap changes sign exactly once on (0, 1]
    for lam, x, a in [(2.0, 0.3, 0.2), (4.0, 0.3, 0.1), (3.0, 0.5, 0.15), (5.0, 0.1, 0.4)]:
        p = ModelParams.from_lambda(lam, x)
        alloc = Allocation.uniform(a)
        th1 = rumor_steady_state(p, alloc)
        assert th1 > 0.0 and alloc.inspecting_mass(x) > 0.0
        n = 1000
        changes = 0
        prev = 1e-6 - truth_map(1e-6, th1, p, alloc)
        for i in range(1, n + 1):
            t0 = 1e-6 + (1.0 - 1e-6) * i / n
            cur = t0 - truth_map(t0, th1, p, alloc)
            if prev * cur < 0.0:
                changes += 1
            prev = cur
        assert changes == 1


def truth_steady_state_given_rumor(p, a, theta1, cfg=DEFAULT_SOLVER):
    """Solve theta0 = truth_map(theta0; theta1) with the rumor level held fixed."""
    assert 0.0 <= theta1 <= 1.0
    return _truth_given_rumor(p.lam, p.x, a.alpha0, a.alpha1, a.inspecting_mass(p.x), theta1, 1.0, cfg)


def test_truth_increasing_in_rumor_level(ref_params):
    a = Allocation.uniform(0.2)
    levels = [0.02, 0.05, 0.1, 0.2, 0.4]
    vals = [truth_steady_state_given_rumor(ref_params, a, th1) for th1 in levels]
    assert all(v > 0.0 for v in vals)
    assert all(b > a_ for a_, b in zip(vals, vals[1:]))


# the planners' segments: (alpha0, alpha1, I) at alpha1 = u, their direction
# d(alpha0, alpha1, I)/du, and their range of u, for budget A
SEGMENTS = {
    "uniform": (lambda x, A, u: (u, u, u), lambda x: (1.0, 1.0, 1.0), lambda x, A: (0.0, min(A, 1.0))),
    "binding": (
        lambda x, A, u: ((A - (1.0 - x) * u) / x, u, A),
        lambda x: (-(1.0 - x) / x, 1.0, 0.0),
        lambda x, A: (max(0.0, (A - x) / (1.0 - x)), min(1.0, A / (1.0 - x))),
    ),
    "alpha0 = 1 edge": (
        lambda x, A, u: (1.0, u, x + (1.0 - x) * u),
        lambda x: (0.0, 1.0, 1.0 - x),
        lambda x, A: (0.0, min(1.0, (A - x) / (1.0 - x))),
    ),
}


@settings(max_examples=300, deadline=None)
@given(
    lam=st.floats(1.05, 10.0),
    x=st.floats(0.01, 0.9),
    A=st.floats(0.01, 1.0),
    kind=st.sampled_from(sorted(SEGMENTS)),
    r=st.floats(0.0, 1.0),
)
def test_truth_slope_matches_central_differences(lam, x, A, kind, r):
    # along each segment kind, on the endemic piece below the eradication
    # threshold; on the uniform line its sign is the paper's marginal condition
    policy, direction, span = SEGMENTS[kind]
    p = ModelParams.from_lambda(lam, x)
    lo, hi = span(x, A)
    hi = min(hi, eradication_threshold(p) - 1e-9)
    u = lo + r * (hi - lo)
    # the slope varies on the scale of the distance to the ends, the kink among them
    h = min(u - lo, hi - u) / 1000.0
    assume(h >= 1e-7)
    h = min(h, 1e-6)
    cfg = SolverConfig(tol=1e-15)

    def truth(u):
        a0, a1, _ = policy(x, A, u)
        return truth_steady_state(p, Allocation.targeted(a0, a1), cfg)

    a0, a1, inspecting = policy(x, A, u)
    a = Allocation.targeted(a0, a1)
    ss = full_steady_state(p, a, cfg)
    slope = _truth_slope(lam, x, a0, a.inspecting_mass(x), ss.theta1, ss.theta0, direction(x))
    assert abs(a.inspecting_mass(x) - inspecting) <= 1e-15
    assert slope == pytest.approx((truth(u + h) - truth(u - h)) / (2.0 * h), rel=1e-6, abs=1e-7)
    if kind == "uniform" and abs(slope) > 1e-9:
        assert (slope > 0.0) == marginal_condition_uniform(p, Allocation.uniform(u), full_steady_state(p, Allocation.uniform(u)))


@settings(max_examples=500)
@given(lam=wide_lams, x=xs, a0=rates, inspecting=rates, theta1=rates, t=rates,
       direction=st.tuples(*[st.floats(-2.0, 2.0)] * 3) | st.sampled_from([d(0.3) for _, d, _ in SEGMENTS.values()]))
def test_truth_slope_is_the_ratio_of_the_partials(lam, x, a0, inspecting, theta1, t, direction):
    # the slope evaluates only the first partials, and they are _truth_partials' own, bit for bit
    _, g_t, g_u, _, _, _ = _truth_partials(lam, x, a0, inspecting, theta1, t, direction)
    slope = _truth_slope(lam, x, a0, inspecting, theta1, t, direction)
    assert slope == (math.copysign(math.inf, -g_u) if g_t == 0.0 else -g_u / g_t)


def test_solver_error_carries_bracket(monkeypatch, ref_params):
    monkeypatch.setattr(model, "MAX_ITER", 3)
    with pytest.raises(SolverError) as err:
        truth_steady_state(ref_params, Allocation.uniform(0.2), SolverConfig(tol=1e-300))
    lo, hi = err.value.bracket
    assert 0.0 <= lo < hi <= 1.0


@pytest.mark.parametrize("tol", [1e-12, 1e-60, 1e-100, 1e-300, 5e-324])
def test_truth_root_at_an_underflowed_constant_is_zero(tol):
    # at alpha = 5e-324 the cubic's constant -I*theta1/lam underflows to -0.0,
    # so 0 is its exact float root; the float solve and the batch both return it
    cfg = SolverConfig(tol=tol)
    p = ModelParams.from_lambda(2.0, 0.3)
    single = full_steady_state(p, Allocation.uniform(5e-324), cfg)
    xs = np.array([0.1, 0.2, 0.3])
    batch = model._steady_fields(2.0, xs, 5e-324, 5e-324, cfg, np)
    assert single.theta0 == batch[0][-1] == 0.0 and math.copysign(1.0, single.theta0) == 1.0
    assert batch[0].tolist() == [0.0, 0.0, 0.0]
    assert single.theta1 == batch[1][-1] == rumor_steady_state(p, Allocation.uniform(5e-324), cfg) > 0.0


def _recompose_off_from_half(monkeypatch):
    """Make recomposition miss theta0 by 1e-3 from alpha0 = 0.5 on; return the message a solve at 0.5 raises."""
    real = model._recompose

    def off(x, a0, a1, r):
        theta0, theta1 = real(x, a0, a1, r)
        return theta0 + 1e-3 * (a0 >= 0.5), theta1  # a0 is a float or an array

    ss = full_steady_state(ModelParams.from_lambda(2.0, 0.3), Allocation.uniform(0.5))
    r0, r1 = real(0.3, 0.5, 0.5, (ss.rho_00_a, ss.rho_00_na, ss.rho_10_a, ss.rho_11_na))
    monkeypatch.setattr(model, "_recompose", off)
    return f"steady state failed recomposition: |{r0 + 1e-3} - {ss.theta0}|, |{r1} - {ss.theta1}| exceed 1e-09"


def test_recomposition_failure_names_the_first_failing_entry(monkeypatch):
    # the float solve and the batch report the same entry: the batch's first
    # failing one, alpha = 0.5, and not any later one
    expected = _recompose_off_from_half(monkeypatch)
    with pytest.raises(SolverError) as single:
        full_steady_state(ModelParams.from_lambda(2.0, 0.3), Allocation.uniform(0.5))
    alphas = np.linspace(0.0, 1.0, 11)
    with pytest.raises(SolverError) as batch:
        model._steady_fields(2.0, 0.3, alphas, alphas, DEFAULT_SOLVER, np)
    assert str(single.value) == str(batch.value) == expected


@pytest.mark.parametrize(
    "argv",
    [["steady", "--alpha", "0.5"], ["sweep", "--axis", "alpha", "--steps", "11"]],
    ids=["steady", "sweep"],
)
def test_recomposition_failure_exits_3(monkeypatch, capsys, argv):
    from rumor_inspect.cli import main

    expected = _recompose_off_from_half(monkeypatch)
    assert main([*argv, "--lambda", "2", "--x", "0.3"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"numerical failure: {expected}\n"


@given(lam=wide_lams, x=xs, a0=rates, a1=rates)
@settings(max_examples=300)
# the truth root lies 1.5e-18 below 1, and the float gap at 1 cancels to the wrong sign
@example(lam=10.0**18.4375, x=0.9900865630764397, a0=0.125, a1=0.9999999999999999)
def test_truth_solver_matches_oracle_over_wide_lambda(lam, x, a0, a1):
    p = ModelParams.from_lambda(lam, x)
    v = truth_steady_state(p, Allocation.targeted(a0, a1))
    assert abs(v - oracle_truth(lam, x, a0, a1)) <= 1e-12


@given(
    lam=wide_lams,
    x=xs,
    pairs=st.lists(st.tuples(rates, rates), min_size=1, max_size=20),
)
@settings(max_examples=200)
def test_grid_solver_matches_scalar(lam, x, pairs):
    p = ModelParams.from_lambda(lam, x)
    a0s = np.array([a0 for a0, _ in pairs])
    a1s = np.array([a1 for _, a1 in pairs])
    cutoff = eradication_threshold(p)
    theta0, _ = _steady_truth(p.lam, x, a0s, a1s, x * a0s + (1.0 - x) * a1s, cutoff, SolverConfig(), np)
    for (a0, a1), t0 in zip(pairs, theta0):
        assert abs(t0 - truth_steady_state(p, Allocation.targeted(a0, a1))) <= 1e-13


@given(lam=wide_lams, x=xs, a0=rates, a1=rates)
@settings(max_examples=300)
def test_steady_prevalences_stay_in_unit_interval(lam, x, a0, a1):
    ss = full_steady_state(ModelParams.from_lambda(lam, x), Allocation.targeted(a0, a1))
    for v in (ss.theta0, ss.theta1, ss.theta):
        assert 0.0 <= v <= 1.0


# ---------------------------------------------------------------------------
# full steady state and total prevalence
# ---------------------------------------------------------------------------

def total_prevalence_map(theta, p, a):
    """Self-consistency map for total prevalence, evaluated at the solved split.

    With (theta0, theta1) taken from the solved steady state, the steady
    total prevalence is a fixed point of this map.
    """
    lam = p.lam
    ss = full_steady_state(p, a)
    c_ins = a.inspecting_mass(p.x)
    c_bias = p.x * (1.0 - a.alpha0)
    return (
        c_ins * lam * theta / (1.0 + lam * theta)
        + c_bias * lam * ss.theta0 / (1.0 + lam * ss.theta0)
        + ss.theta1
    )


def test_full_steady_state_at_full_inspection(ref_params):
    ss = full_steady_state(ref_params, Allocation.uniform(1.0))
    assert ss.theta0 == pytest.approx(0.5, abs=1e-12)
    assert ss.theta1 == 0.0
    assert ss.rho_00_a == ss.rho_10_a == pytest.approx(0.5, abs=1e-12)


def test_full_steady_state_subcritical_is_zero():
    ss = full_steady_state(ModelParams.from_lambda(0.5, 0.3), Allocation.uniform(0.0))
    assert ss == type(ss)(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_full_steady_state_rumor_group_fraction(ref_params):
    ss = full_steady_state(ref_params, Allocation.uniform(0.2))
    assert ss.rho_11_na == pytest.approx(2 * 0.06 / 1.12, abs=1e-9)
    assert ss.theta == ss.theta0 + ss.theta1


@given(lam=lams, x=xs, a0=rates, a1=rates)
@settings(max_examples=150)
def test_recomposition(lam, x, a0, a1):
    p = ModelParams.from_lambda(lam, x)
    a = Allocation.targeted(a0, a1)
    ss = full_steady_state(p, a)
    t0, t1 = prevalences((ss.rho_00_a, ss.rho_00_na, ss.rho_10_a, ss.rho_11_na), p, a)
    assert t0 == pytest.approx(ss.theta0, abs=1e-9)
    assert t1 == pytest.approx(ss.theta1, abs=1e-9)


@pytest.mark.parametrize(
    "lam,x,alpha", [(2.0, 0.3, 0.2), (2.0, 0.3, 1.0), (3.0, 0.5, 0.1), (5.0, 0.1, 0.35)]
)
def test_total_prevalence_is_a_fixed_point(lam, x, alpha):
    p = ModelParams.from_lambda(lam, x)
    a = Allocation.uniform(alpha)
    ss = full_steady_state(p, a)
    assert abs(total_prevalence_map(ss.theta, p, a) - ss.theta) < 1e-9


def test_total_prevalence_full_inspection_limit():
    for lam in (2.0, 3.0, 5.0):
        p = ModelParams.from_lambda(lam, 0.3)
        ss = full_steady_state(p, Allocation.uniform(1.0))
        assert ss.theta == pytest.approx(1.0 - 1.0 / lam, abs=1e-12)


def test_total_prevalence_reference_point(ref_params):
    ss = full_steady_state(ref_params, Allocation.uniform(0.2))
    assert ss.theta == pytest.approx(THETA0_REF + 0.06, abs=1e-9)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_positivity_readings_operative_matches_closed_form():
    # the operative reading is the sign-change point of the no-rumor form
    for lam, x in [(2.0, 0.3), (1.5, 0.1), (3.0, 0.6)]:
        p = ModelParams.from_lambda(lam, x)
        reading, alt = no_rumor_positivity_readings(p)
        probe = Allocation.uniform
        eps = 1e-9
        if 0.0 < reading < 1.0:
            lo = x + (1 - x) * (reading - eps) - 1 / lam
            hi = x + (1 - x) * (reading + eps) - 1 / lam
            assert lo < 0.0 < hi
        assert alt is not None and alt != reading


def test_positivity_readings_undefined_at_x1():
    assert no_rumor_positivity_readings(ModelParams.from_lambda(2.0, 1.0)) == (None, None)


def test_positivity_alternative_undefined_where_x_is_one_over_lam():
    assert no_rumor_positivity_readings(ModelParams.from_lambda(4.0, 0.25)) == (0.0, None)
