import math
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import THETA0_REF, oracle_truth, reference_integrate
from rumor_inspect import (
    Allocation,
    DynState,
    IntegratorConfig,
    IntegratorError,
    ModelParams,
    ParameterError,
    dynamics,
    full_steady_state,
    group_masses,
    integrate,
    prevalences,
    seed_state,
    verify_global_stability,
)
from rumor_inspect.dynamics import rate_function


def analytic_state(p, a):
    ss = full_steady_state(p, a)
    masses = group_masses(p, a)
    coords = (ss.rho_00_a, ss.rho_00_na, ss.rho_10_a, ss.rho_11_na)
    return DynState(*(c if m > 0.0 else 0.0 for c, m in zip(coords, masses)), t=0.0)


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def test_zero_state_has_zero_rates(ref_params):
    rates = rate_function(ref_params, Allocation.uniform(0.2))(0.0, 0.0, 0.0, 0.0)
    assert rates == (0.0, 0.0, 0.0, 0.0)


def test_rates_vanish_at_analytic_steady_state(ref_params):
    a = Allocation.uniform(0.2)
    rates = rate_function(ref_params, a)(*analytic_state(ref_params, a)[:4])
    assert max(abs(r) for r in rates) < 1e-9


def test_hand_evaluated_rumor_rate():
    p = ModelParams(nu=1.0, k=1.0, delta=0.5, x=0.3)
    a = Allocation.uniform(0.2)
    r00a, r00na, r10a, r11na = rate_function(p, a)(0.0, 0.0, 0.0, 0.5)
    # theta1 = 0.7*0.8*0.5 = 0.28; rate = 0.5*0.28 - 0.5*0.5
    assert r11na == pytest.approx(-0.11, abs=1e-12)
    # inspecting groups see total prevalence 0.28; the non-inspecting
    # type-0 group sees only theta0 = 0
    assert r00a == r10a == pytest.approx(0.28, abs=1e-12)
    assert r00na == 0.0


def test_empty_groups_are_pinned():
    p = ModelParams.from_lambda(2.0, 0.3)
    a = Allocation.uniform(1.0)  # non-inspecting groups are empty
    r00a, r00na, r10a, r11na = rate_function(p, a)(0.2, 0.7, 0.2, 0.7)
    assert r00na == 0.0 and r11na == 0.0
    assert r00a != 0.0
    traj = integrate(DynState(0.2, 0.7, 0.2, 0.7), p, a)
    assert all(s.r00na == 0.0 and s.r11na == 0.0 for s in traj.states)


def test_derivatives_domain_check(ref_params):
    with pytest.raises(ParameterError):
        integrate(DynState(1.2, 0.0, 0.0, 0.0), ref_params, Allocation.uniform(0.2))


# Dormand-Prince 5(4), written out from the published tableau
DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)


def test_integrate_single_step_composes_derivatives(monkeypatch, ref_params):
    # one accepted step must equal the Dormand-Prince tableau assembled from
    # the shared right-hand side, at the step size the error control chose
    monkeypatch.setattr(dynamics, "FIRST_STEP", 0.05)
    monkeypatch.setattr(dynamics, "HORIZON", 0.05 * ref_params.delta)  # stop at t = 0.05
    a = Allocation.uniform(0.2)
    s0 = DynState(0.3, 0.1, 0.25, 0.4)
    traj = integrate(s0, ref_params, a)
    rates = rate_function(ref_params, a)
    h = traj.states[1].t
    assert 0.0 < h <= 0.05

    ks = []
    for row in DP_A:
        stage = [y + h * sum(c * k[i] for c, k in zip(row, ks)) for i, y in enumerate(s0[:4])]
        ks.append(rates(*stage))
    manual = [y + h * sum(b * k[i] for b, k in zip(DP_B, ks)) for i, y in enumerate(s0[:4])]
    for got, want in zip(traj.states[1][:4], manual):
        assert got == pytest.approx(want, abs=1e-15)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_analytic_steady_state_converges_immediately(ref_params):
    a = Allocation.uniform(0.2)
    traj = integrate(analytic_state(ref_params, a), ref_params, a)
    assert traj.converged and traj.n_steps <= 1


def test_zero_seed_stays_zero(ref_params):
    a = Allocation.uniform(0.2)
    traj = integrate(DynState(0.0, 0.0, 0.0, 0.0), ref_params, a)
    assert traj.converged and traj.n_steps == 0
    assert traj.final[:4] == (0.0, 0.0, 0.0, 0.0)


def test_small_seed_reaches_fixed_point(ref_params):
    a = Allocation.uniform(0.2)
    traj = integrate(seed_state(ref_params, a), ref_params, a)
    assert traj.converged
    th0, th1 = prevalences(traj.final, ref_params, a)
    assert th0 == pytest.approx(THETA0_REF, abs=1e-6)
    assert th1 == pytest.approx(0.06, abs=1e-6)


def test_large_seed_reaches_same_fixed_point(ref_params):
    a = Allocation.uniform(0.2)
    traj = integrate(DynState(0.9, 0.9, 0.9, 0.9), ref_params, a)
    th0, th1 = prevalences(traj.final, ref_params, a)
    assert traj.converged
    assert th0 == pytest.approx(THETA0_REF, abs=1e-6)
    assert th1 == pytest.approx(0.06, abs=1e-6)


def test_trajectory_stays_in_unit_box(ref_params):
    a = Allocation.uniform(0.2)
    traj = integrate(DynState(0.99, 0.99, 0.99, 0.99), ref_params, a)
    for s in traj.states:
        for c in s[:4]:
            assert -1e-12 <= c <= 1.0 + 1e-12


def test_oversized_step_is_halved_not_fatal(monkeypatch):
    monkeypatch.setattr(dynamics, "FIRST_STEP", 40.0)
    p = ModelParams.from_lambda(5.0, 0.3)
    a = Allocation.uniform(0.2)
    traj = integrate(DynState(0.999, 0.999, 0.999, 0.999), p, a)
    # the first step of 40 is rejected and retried smaller, not fatal
    assert traj.n_rejected >= 1 and traj.states[1].t < 40.0
    assert traj.converged
    th0, th1 = prevalences(traj.final, p, a)
    assert th0 == pytest.approx(oracle_truth(5.0, 0.3, 0.2, 0.2), abs=1e-6)


unit_or_edge = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
start_level = st.one_of(st.sampled_from([0.0, 1.0, dynamics.DEFAULT_SEED_LEVEL]), st.floats(0.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(
    nu=st.floats(0.05, 5.0), k=st.floats(0.5, 4.0), delta=st.floats(0.1, 2.0), x=unit_or_edge,
    alpha0=unit_or_edge, alpha1=unit_or_edge, start=st.tuples(start_level, start_level, start_level, start_level),
    conv_tol=st.sampled_from([1e-10, 1e-6]), first_step=st.sampled_from([dynamics.FIRST_STEP, 40.0]),
)
# the domain rejection: an oversized first step leaves [0, 1] and is halved
@example(nu=2.5, k=1.0, delta=0.5, x=0.3, alpha0=0.2, alpha1=0.2, start=(0.999,) * 4, conv_tol=1e-10, first_step=40.0)
# the clip: the step accepted at h = 1.25 lands r00a and r10a within _DOMAIN_SLACK below 0
@example(nu=0.2, k=1.0, delta=1.8, x=0.5, alpha0=0.06, alpha1=0.16, start=(0.0, 0.0, 1e-12, 1e-10), conv_tol=1e-10,
         first_step=40.0)
# the step factor clamped at 10: from 1e-9 the first steps' error estimates are tiny
@example(nu=1.0, k=1.0, delta=1.0, x=0.3, alpha0=0.2, alpha1=0.2, start=(1e-9,) * 4, conv_tol=1e-10, first_step=0.01)
# the step factor clamped at 0.2: the step of 40, halved into [0, 1], is far outside the error tolerance
@example(nu=2.0, k=1.0, delta=1.0, x=0.3, alpha0=0.2, alpha1=0.2, start=(0.3,) * 4, conv_tol=1e-6, first_step=40.0)
# the horizon: k*nu*(1-x)*(1-alpha1) = delta exactly, so the rumor decays as 1/t and its rate stays above conv_tol
@example(nu=2.0, k=1.0, delta=0.5, x=0.5, alpha0=0.5, alpha1=0.5, start=(0.0, 0.0, 0.0, 0.5), conv_tol=1e-10,
         first_step=dynamics.FIRST_STEP)
# the inspecting coordinates apart: type-0 inspectors are an empty group, type-1 inspectors are not
@example(nu=2.0, k=1.0, delta=1.0, x=0.3, alpha0=0.0, alpha1=0.3, start=(0.01,) * 4, conv_tol=1e-10,
         first_step=dynamics.FIRST_STEP)
# the inspecting coordinates shared while both groups are empty
@example(nu=2.0, k=1.0, delta=1.0, x=0.3, alpha0=0.0, alpha1=0.0, start=(0.01,) * 4, conv_tol=1e-10,
         first_step=dynamics.FIRST_STEP)
# the inspecting coordinates apart: at x = 0 every type-0 group is empty
@example(nu=2.0, k=1.0, delta=1.0, x=0.0, alpha0=0.2, alpha1=0.2, start=(0.01,) * 4, conv_tol=1e-10,
         first_step=dynamics.FIRST_STEP)
# the inspecting coordinates apart: both groups are non-empty but start at different levels
@example(nu=2.0, k=1.0, delta=1.0, x=0.3, alpha0=0.2, alpha1=0.2, start=(0.2, 0.4, 0.6, 0.3), conv_tol=1e-10,
         first_step=dynamics.FIRST_STEP)
# the inspecting coordinates shared from -0.0 beside 0.0, which == equates: the start keeps each sign
@example(nu=2.0, k=1.0, delta=1.0, x=0.3, alpha0=0.2, alpha1=0.2, start=(-0.0, 0.01, 0.0, 0.01), conv_tol=1e-10,
         first_step=dynamics.FIRST_STEP)
def test_integrate_matches_reference_loop(nu, k, delta, x, alpha0, alpha1, start, conv_tol, first_step):
    # integrate unrolls the step over the four coordinates; the list loop it
    # replaced must give the same trajectory bit for bit (repr tells -0.0 from 0.0)
    p = ModelParams(nu, k, delta, x)
    a = Allocation.targeted(alpha0, alpha1)
    cfg = IntegratorConfig(conv_tol)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "FIRST_STEP", first_step)
        got = integrate(DynState(*start), p, a, cfg)
        want = reference_integrate(DynState(*start), p, a, cfg)
    assert got == want and repr(got) == repr(want)


positive_unit = st.one_of(st.just(1.0), st.floats(0.01, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    nu=st.floats(0.05, 5.0), k=st.floats(0.5, 4.0), delta=st.floats(0.1, 2.0), x=st.floats(0.01, 0.99),
    alphas=st.tuples(positive_unit) | st.tuples(positive_unit, positive_unit),
    levels=st.tuples(start_level, start_level, start_level), negative_zero=st.booleans(),
    conv_tol=st.sampled_from([1e-10, 1e-6]),
)
@example(nu=2.0, k=1.0, delta=1.0, x=0.3, alphas=(0.2,), levels=(0.0, 0.01, 0.01), negative_zero=True, conv_tol=1e-10)
def test_inspecting_coordinates_stay_equal_bit_for_bit(nu, k, delta, x, alphas, levels, negative_zero, conv_tol):
    # both inspecting groups follow one law of total prevalence, so from r00a == r10a (-0.0 beside 0.0 included)
    # every accepted state has r10a equal to r00a bit for bit: integrate shares the coordinate, the reference does not
    p = ModelParams(nu, k, delta, x)
    a = Allocation.uniform(*alphas) if len(alphas) == 1 else Allocation.targeted(*alphas)
    r, r2, r4 = levels
    start = DynState(r, r2, -0.0 if negative_zero and r == 0.0 else r, r4)
    cfg = IntegratorConfig(conv_tol)
    for traj in (integrate(start, p, a, cfg), reference_integrate(start, p, a, cfg)):
        assert all(repr(s.r10a) == repr(s.r00a) for s in traj.states[1:])


def logistic_flow(r, b, g, h):
    """The exact flow of r' = b r (1 - r) - delta r = g r - b r^2 over a time h >= 0, and its derivative in r.

    Written with exp(-|g| h) <= 1 on either sign of g, so that no exponential overflows.
    """
    e = math.exp(-abs(g) * h)
    c = h if g == 0.0 else -math.expm1(-abs(g) * h) / abs(g)
    den = e + b * r * c if g >= 0.0 else 1.0 + b * r * c
    return (r if g >= 0.0 else r * e) / den, e / den ** 2


@settings(max_examples=60, deadline=None)
@given(
    nu=st.floats(0.05, 5.0), k=st.floats(0.5, 4.0), delta=st.floats(0.1, 2.0), x=unit_or_edge,
    alpha0=unit_or_edge, alpha1=unit_or_edge, start=st.tuples(start_level, start_level, start_level, start_level),
    conv_tol=st.sampled_from([1e-10, 1e-6]),
)
def test_rumor_coordinate_follows_the_logistic_closed_form(nu, k, delta, x, alpha0, alpha1, start, conv_tol):
    """r11na is its own source, so it obeys r' = b r (1 - r) - delta r with b = k nu (1-x)(1-alpha1) in closed form.

    The bound is the integrator's tolerance tol carried along the run. Accepting a step caps its error estimate
    for r11na at cap = 2 tol (1 + max(r, r_new)), the RMS rule with the other coordinates' estimates at 0. On
    the linear test equation, the kept fifth-order result's local error is at most 1.05 times that estimate over
    the method's whole real stability interval [-3.307, 0] (both are polynomials in h*lambda fixed by the
    tableau); 2 cap allows for the logistic's curvature as well. The exact flow carries an error from one
    accepted step to the next multiplied by its derivative A, so the error at each accepted step is at most
    B = A B_before + 2 cap, to first order (Hairer, Norsett & Wanner, Solving ODEs I, II.3, Lady Windermere's
    fan), plus a few ulps for evaluating the closed form.
    """
    p, a = ModelParams(nu, k, delta, x), Allocation.targeted(alpha0, alpha1)
    cfg = IntegratorConfig(conv_tol)
    b = k * nu * group_masses(p, a)[3]
    g = b - delta
    tol = 0.25 * conv_tol / (2.0 * k * nu + delta)
    states = integrate(DynState(*start), p, a, cfg).states
    r0, bound = states[0].r11na, 0.0
    if r0 == 0.0:  # a fixed point, stable or not: no rumor starts
        assert all(s.r11na == 0.0 for s in states)
        return
    for before, after in zip(states, states[1:]):
        exact, _ = logistic_flow(r0, b, g, before.t)
        _, carried = logistic_flow(exact, b, g, after.t - before.t)
        bound = carried * bound + 4.0 * tol * (1.0 + max(before.r11na, after.r11na))
        want, _ = logistic_flow(r0, b, g, after.t)
        assert abs(after.r11na - want) <= bound + 4.0 * sys.float_info.epsilon, after


def test_step_budget_caps_attempted_steps(monkeypatch, ref_params):
    a = Allocation.uniform(0.2)
    s0 = DynState(0.999, 0.999, 0.999, 0.999)
    monkeypatch.setattr(dynamics, "FIRST_STEP", 40.0)  # so that some attempts are rejected
    traj = integrate(s0, ref_params, a)
    attempts = traj.n_steps + traj.n_rejected
    assert traj.converged and traj.n_rejected >= 1
    monkeypatch.setattr(dynamics, "MAX_STEPS", attempts)  # a run that needs exactly the budget
    assert integrate(s0, ref_params, a) == traj
    monkeypatch.setattr(dynamics, "MAX_STEPS", attempts - 1)
    # the last attempt of a converged run is accepted, so the capped run stops at the state before the last
    stop = reference_integrate(s0, ref_params, a).states[-2]
    max_rate = max(map(abs, rate_function(ref_params, a)(*stop[:4])))
    with pytest.raises(IntegratorError) as exc:
        integrate(s0, ref_params, a)
    assert str(exc.value) == (f"step budget exhausted: {attempts - 1} steps attempted ({traj.n_steps - 1} accepted) "
                              f"by t={stop.t}, max|dr/dt| = {max_rate}")


def test_non_finite_proposal_is_rejected_not_stored(monkeypatch):
    # a first step of 1e300 overflows the stages to NaN; NaN fails the domain test's chained comparisons, so that
    # state is rejected like one outside [0, 1], and the halved steps converge
    monkeypatch.setattr(dynamics, "FIRST_STEP", 1e300)
    p = ModelParams(nu=0.006400080914317202, k=4.9529902591607895, delta=1.544297430468232e-262, x=0.2550690257394217)
    a = Allocation(0.49543508709194095, 0.4494910647887381)
    s0 = DynState(0.651592972722763, 0.7887233511355132, 0.0938595867742349, 0.02834747652200631)
    got = integrate(s0, p, a)
    assert not any(math.isnan(c) for state in got.states for c in state)
    assert got.converged and got.n_rejected >= 1
    want = reference_integrate(s0, p, a)
    assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("lam,x,alpha", [(3.205606, 0.300744, 0.330817), (4.824308, 0.189228, 0.616507)])
def test_converges_where_a_fixed_tolerance_stalls(lam, x, alpha):
    # With a fixed rtol = atol = 1e-9 the residual stalls above conv_tol = 1e-10 at
    # these points; the tolerance derived from conv_tol must reach it.
    p = ModelParams.from_lambda(lam, x)
    a = Allocation.uniform(alpha)
    traj = integrate(seed_state(p, a), p, a)
    assert traj.converged and traj.max_rate < 1e-10
    target = analytic_state(p, a)
    for got, want in zip(traj.final[:4], target[:4]):
        assert got == pytest.approx(want, abs=1e-6)


def test_horizon_flag_when_not_converged(monkeypatch, ref_params):
    monkeypatch.setattr(dynamics, "HORIZON", 1.0 * ref_params.delta)  # stop at t = 1
    a = Allocation.uniform(0.2)
    traj = integrate(seed_state(ref_params, a), ref_params, a)
    assert not traj.converged and traj.status == "horizon"
    assert traj.final.t == 1.0


def test_rumor_coordinate_monotone_from_below(ref_params):
    a = Allocation.uniform(0.2)
    base = analytic_state(ref_params, a)
    start = DynState(base.r00a, base.r00na, base.r10a, 0.5 * base.r11na, t=0.0)
    traj = integrate(start, ref_params, a)
    rumor_path = [s.r11na for s in traj.states]
    assert all(b >= a_ - 1e-12 for a_, b in zip(rumor_path, rumor_path[1:]))
    assert traj.converged


def test_time_scale_invariance():
    # scaling (nu, delta) together rescales time but not the limit
    slow = ModelParams(nu=1.0, k=1.0, delta=0.5, x=0.3)
    fast = ModelParams(nu=3.0, k=1.0, delta=1.5, x=0.3)
    a = Allocation.uniform(0.2)
    cfg = IntegratorConfig(conv_tol=1e-12)
    lim_slow = integrate(seed_state(slow, a), slow, a, cfg).final
    lim_fast = integrate(seed_state(fast, a), fast, a, cfg).final
    for u, v in zip(lim_slow[:4], lim_fast[:4]):
        assert u == pytest.approx(v, abs=1e-9)
    assert lim_slow.t > lim_fast.t


@pytest.mark.parametrize(
    "lam,x,alpha",
    [(2.0, 0.3, 0.2), (2.0, 0.3, 1.0), (3.0, 0.5, 0.2), (5.0, 0.7, 0.2), (2.0, 1.0, 0.5)],
)
def test_limit_matches_analytic_componentwise(lam, x, alpha):
    p = ModelParams.from_lambda(lam, x)
    a = Allocation.uniform(alpha)
    traj = integrate(seed_state(p, a), p, a)
    assert traj.converged
    target = analytic_state(p, a)
    for got, want, m in zip(traj.final[:4], target[:4], group_masses(p, a)):
        if m > 0.0:
            assert got == pytest.approx(want, abs=1e-6)
        else:
            assert got == 0.0


# ---------------------------------------------------------------------------
# global stability
# ---------------------------------------------------------------------------

def certify(p, a, level=dynamics.DEFAULT_SEED_LEVEL):
    """verify_global_stability's report on the run from seed_state(p, a, level)."""
    return verify_global_stability(integrate(seed_state(p, a, level), p, a), p, a)


def test_stability_subcritical_limits_are_zero():
    p = ModelParams.from_lambda(0.5, 0.3)
    report = certify(p, Allocation.uniform(0.5))
    assert report.passed
    for lim in report.limits:
        assert max(lim[:4]) < 1e-6


def pairwise_gap(limits):
    """Sup distance over the four coordinates, maximized over every pair of limits."""
    return max(max(abs(u - v) for u, v in zip(p[:4], q[:4])) for i, p in enumerate(limits) for q in limits[i + 1:])


def test_stability_reference_point(ref_params):
    report = certify(ref_params, Allocation.uniform(0.2))
    assert report.passed and report.all_converged
    assert report.max_gap < 1e-6
    assert report.max_gap == pairwise_gap(report.limits)


def test_stability_full_inspection(ref_params):
    report = certify(ref_params, Allocation.uniform(1.0))
    assert report.passed
    # the non-inspecting groups are empty: integrate zeroes the all-ones start there
    assert all(lim.r00na == 0.0 and lim.r11na == 0.0 for lim in report.limits)
    assert all(type(c) is float for lim in report.limits for c in lim)
    th0, th1 = prevalences(report.limits[0], ref_params, Allocation.uniform(1.0))
    assert th0 == pytest.approx(0.5, abs=1e-6)
    assert th1 == 0.0


def test_stability_integrates_the_seed_and_all_ones(monkeypatch, ref_params):
    # the corners of the box [min(start, seed), 1]^4, the lower one first; a corner equal to the run's start is
    # the run itself: from the seed and from all ones the check integrates only the other corner, from 0.5 both
    a = Allocation.uniform(0.2)
    seed, ones = seed_state(ref_params, a)[:4], (1.0,) * 4
    for start, integrated in ((seed, [ones]), (ones, [seed]), ((0.5,) * 4, [seed, ones])):
        run = integrate(DynState(*start), ref_params, a)
        runs = []
        monkeypatch.setattr(dynamics, "integrate", lambda s0, *args: runs.append(integrate(s0, *args)) or runs[-1])
        report = verify_global_stability(run, ref_params, a)
        monkeypatch.undo()
        assert [r.states[0][:4] for r in runs] == integrated
        corners = {r.states[0][:4]: r for r in (run, *runs)}
        assert report.limits == (corners[seed].final, corners[ones].final) and report.passed


def test_stability_box_starts_at_the_seed_level(ref_params):
    # the lower corner is the run's own start at 1e-10, below the default seed level: that run stops short of the
    # limit, where the rumor's rate is below conv_tol, so the two converged corners part and the check fails
    a = Allocation.uniform(0.2)
    run = integrate(seed_state(ref_params, a, 1e-10), ref_params, a)
    report = verify_global_stability(run, ref_params, a)
    assert report.limits[0] == run.final and run.states[0][:4] == (1e-10,) * 4
    assert report.all_converged and not report.passed and report.max_gap > 0.2


def test_stability_fails_a_run_that_stops_short_of_the_corner_limits():
    # at lam = 6, x = 0.4, alpha = 0.65 the truth from 0.5 settles by t = 12.5, while the rumor from 1e-10 is still
    # too small for its rate to reach conv_tol: the run stops there, about 0.21 from the limit. The lower corner's
    # truth rises from the seed level slowly enough for the rumor to grow, so the two corners agree, and only the
    # run's own final state fails the check
    p, a = ModelParams.from_lambda(6.0, 0.4), Allocation.uniform(0.65)
    run = integrate(DynState(0.5, 0.5, 0.5, 1e-10), p, a)
    report = verify_global_stability(run, p, a)
    assert run.converged and report.all_converged and pairwise_gap(report.limits) < dynamics.STABILITY_TOL
    assert not report.passed and report.max_gap == pairwise_gap([run.final, *report.limits]) > 0.2


def test_stability_reports_failure_without_crash(monkeypatch, ref_params):
    monkeypatch.setattr(dynamics, "HORIZON", 0.5 * ref_params.delta)  # stop at t = 0.5
    report = certify(ref_params, Allocation.uniform(0.2))
    assert not report.passed and not report.all_converged
    assert report.max_gap == pairwise_gap(report.limits) > 1e-3


def test_stability_reruns_deterministic(ref_params):
    a = Allocation.uniform(0.2)
    first = certify(ref_params, a)
    second = certify(ref_params, a)
    assert first.limits == second.limits
    assert first.max_gap == second.max_gap


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(0.0, 2.0).map(lambda e: 10.0 ** e), x=unit_or_edge, alpha0=unit_or_edge, alpha1=unit_or_edge,
       starts=st.lists(st.tuples(*[st.floats(0.01, 0.99)] * 4), min_size=1, max_size=4))
def test_every_start_in_the_box_ends_between_the_corner_limits(lam, x, alpha0, alpha1, starts):
    # the oracle of verify_global_stability's certificate: the system is cooperative, so a start between the
    # seed and all ones ends, coordinate by coordinate, between their limits. Each computed limit stops short of
    # the exact one wherever max|dr/dt| < conv_tol, and the check counts limits within STABILITY_TOL as one: the
    # slack is STABILITY_TOL, the resolution at which the certificate speaks
    p, a = ModelParams.from_lambda(lam, x), Allocation.targeted(alpha0, alpha1)
    report = certify(p, a)
    assume(report.all_converged)  # a run stopped at the horizon is ordered at its own time, not at its limit
    low, high = report.limits
    for start in starts:
        traj = integrate(DynState(*start), p, a)
        assert traj.converged
        for lo, got, hi in zip(low[:4], traj.final[:4], high[:4]):
            assert lo - dynamics.STABILITY_TOL <= got <= hi + dynamics.STABILITY_TOL


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(0.0, 2.0).map(lambda e: 10.0 ** e), x=unit_or_edge, alpha0=unit_or_edge, alpha1=unit_or_edge,
       start=st.tuples(*[st.one_of(st.sampled_from([1e-10, dynamics.DEFAULT_SEED_LEVEL]), unit_or_edge)] * 4))
@example(lam=6.0, x=0.4, alpha0=0.65, alpha1=0.65, start=(0.5, 0.5, 0.5, 1e-10))  # the run stops short
def test_stability_certifies_the_run_from_any_start(lam, x, alpha0, alpha1, start):
    # the lower corner starts at min(start, seed_state(p, a)) and the upper one at all ones, so the box holds the
    # run's start; when the report passes, the run ends within STABILITY_TOL of both corner limits
    p, a = ModelParams.from_lambda(lam, x), Allocation.targeted(alpha0, alpha1)
    run = integrate(DynState(*start), p, a)
    report = verify_global_stability(run, p, a)
    low = DynState(*map(min, run.states[0][:4], seed_state(p, a)[:4]))
    assert all(lo <= s <= 1.0 for lo, s in zip(low[:4], run.states[0][:4]))
    assert report.limits == (integrate(low, p, a).final, integrate(seed_state(p, a, 1.0), p, a).final)
    if report.passed:
        for lim in report.limits:
            assert max(abs(u - v) for u, v in zip(run.final[:4], lim[:4])) < dynamics.STABILITY_TOL


def test_overflowing_two_k_is_refused_at_the_rounding_floor():
    # k*nu = 1e208 is finite, but 2*k alone overflows. The error tolerance is a
    # normal float, and the rounding floor, about k*nu*eps/4, is far above
    # conv_tol: the run is refused before its first step
    with pytest.raises(IntegratorError, match=r"conv_tol=1e-10 is below the rounding floor 3\.\d+e\+191 of the rates"):
        integrate(DynState(0.5, 0.5, 0.5, 0.5), ModelParams(1e-100, 1e308, 1.0, 0.3), Allocation.uniform(0.2))


def test_error_tolerance_must_be_a_positive_normal_float(ref_params):
    # at lambda = 2 (nu = k = 1, delta = 0.5) the error tolerance is conv_tol / 10
    # a tolerance that passes meets the next check, the rounding floor of the rates
    a = Allocation.uniform(0.2)
    s0 = seed_state(ref_params, a)
    with pytest.raises(IntegratorError, match="below the rounding floor"):
        integrate(s0, ref_params, a, IntegratorConfig(10.0 * sys.float_info.min))  # tol is the smallest normal
    for conv_tol in (math.nextafter(10.0 * sys.float_info.min, 0.0), 5e-324):
        with pytest.raises(IntegratorError, match=f"derived from conv_tol={conv_tol!r} is not a positive normal float"):
            integrate(s0, ref_params, a, IntegratorConfig(conv_tol))


def test_rounding_floor_refuses_what_no_float_state_meets(monkeypatch):
    # at lambda = 1e7 (x = 0.3, alpha = 0.2) rounding a fraction to a float can
    # leave a rate of 1.55e-10, above the default conv_tol = 1e-10: the run
    # stalled there, and is now refused before the first step
    monkeypatch.setattr(dynamics, "MAX_STEPS", 0)  # a run that took a step would end at the step budget
    a = Allocation.uniform(0.2)
    p = ModelParams.from_lambda(1e7, 0.3)
    for start in (seed_state(p, a), DynState(0.0, 0.0, 0.0, 0.5)):  # the rumor sets the floor, seeded alone or not
        with pytest.raises(IntegratorError, match=r"conv_tol=1e-10 is below the rounding floor 1\.55e-10 "):
            integrate(start, p, a)
    q = ModelParams.from_lambda(2.0, 0.3)  # the rumor sustains 0.06, the truth nothing: the floor is 3.57e-19
    with pytest.raises(IntegratorError, match=r"conv_tol=1e-20 is below the rounding floor 3\.57e-19 "):
        integrate(seed_state(q, a), q, a, IntegratorConfig(1e-20))
    # with nothing seeded nothing spreads: the rates are 0, and there is no floor
    traj = integrate(DynState(0.0, 0.0, 0.0, 0.0), p, a)
    assert traj.converged and traj.n_steps == 0


def test_rounding_floor_lets_lambda_1e6_converge():
    # the floor is 1.55e-11 at lambda = 1e6: the run converges, step for step
    # the loop that has no floor check
    p, a = ModelParams.from_lambda(1e6, 0.3), Allocation.uniform(0.2)
    traj = integrate(seed_state(p, a), p, a)
    assert traj.converged and traj.n_steps == 4059
    assert traj == reference_integrate(seed_state(p, a), p, a)


@pytest.mark.parametrize("conv_tol", [math.inf, math.nan, 0.0, -1e-10])
def test_integrator_config_rejects_non_finite(conv_tol):
    with pytest.raises(ParameterError):
        IntegratorConfig(conv_tol=conv_tol)
