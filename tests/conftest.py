"""Shared fixtures, the independent steady-state oracle, and paper cross-checks: the truth map, the truth cubic of a binding budget, the marginal conditions and the diversification budget range.

The oracle deliberately avoids the package's solver: the rumor level comes
from the closed form, and the truth level from scipy's brentq applied to a
literal transcription of the fixed-point identity, or from bisecting that
identity in mpmath where float rounding hides its sign change. Frozen
expected values in the tests were computed with this oracle ahead of the
implementation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq


def oracle_rumor(lam: float, x: float, a1: float) -> float:
    thr = 0.0 if (x >= 1.0 or lam * (1.0 - x) <= 1.0) else 1.0 - 1.0 / (lam * (1.0 - x))
    if a1 >= thr:
        return 0.0
    return max(0.0, (1.0 - a1) * (1.0 - x) - 1.0 / lam)


def oracle_truth(lam: float, x: float, a0: float, a1: float) -> float:
    th1 = oracle_rumor(lam, x, a1)
    if th1 == 0.0:
        return max(0.0, x + (1.0 - x) * a1 - 1.0 / lam)
    mass = x * a0 + (1.0 - x) * a1
    if mass <= 0.0:
        return max(0.0, x - 1.0 / lam)

    def gap(t0, lam=lam, th1=th1, mass=mass, c_bias=x * (1.0 - a0)):
        th = t0 + th1
        return t0 - (mass * lam * th / (1.0 + lam * th) + c_bias * lam * t0 / (1.0 + lam * t0))

    if gap(0.0) < 0.0 < gap(1.0):
        return brentq(gap, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
    # rounding can hide the sign change: with the root within an ulp of 1 and
    # lam near 1e18, gap(1) cancels to -2.2e-16 where it is +1.5e-18. Then the
    # same identity is bisected in 60-digit arithmetic from the float inputs.
    with mpmath.workdps(60):
        lam_, x_, a0_, a1_, th1_ = map(mpmath.mpf, (lam, x, a0, a1, th1))
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(200):
            mid = (lo + hi) / 2
            if gap(mid, lam_, th1_, x_ * a0_ + (1 - x_) * a1_, x_ * (1 - a0_)) < 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def oracle_region_max(lam: float, x: float, A: float, n: int = 41) -> float:
    """Best oracle truth over an n x n scan of the feasible (alpha0, alpha1) region.

    alpha0 spans [0, min(1, A/x)]; at each alpha0, alpha1 spans what the
    budget x*alpha0 + (1-x)*alpha1 <= A leaves, capped at 1. At x = 1 every
    alpha1 is free, since no agent is rumor-biased.
    """
    best = 0.0
    for a0 in np.linspace(0.0, min(1.0, A / x) if x > 0.0 else 1.0, n):
        a1_max = 1.0 if x >= 1.0 else min(1.0, max(0.0, (A - x * a0) / (1.0 - x)))
        for a1 in np.linspace(0.0, a1_max, n):
            best = max(best, oracle_truth(lam, x, float(a0), float(a1)))
    return best


# reference point used throughout: lam=2, x=0.3, alpha=0.2 (computed with the
# oracle above before the solver was written)
THETA0_REF = 0.07195282983692097
THETA1_REF = 0.06
# interior maximum of theta0(alpha) on the same parameter slice
ALPHA_PEAK = 0.19803054261268505
THETA0_PEAK = 0.07196363004700697


@pytest.fixture
def ref_params():
    from rumor_inspect import ModelParams

    return ModelParams.from_lambda(2.0, 0.3)


def reference_allocation_error(alpha0, alpha1):
    """The message Allocation(alpha0, alpha1) raises, or None where it accepts the rates: its check as a loop over
    the two rates, each of which must lie in [0, 1], alpha0's failure named first."""
    for name, v in (("alpha0", alpha0), ("alpha1", alpha1)):
        if not 0.0 <= v <= 1.0:
            return f"{name} must lie in [0, 1], got {v}"
    return None


# ---------------------------------------------------------------------------
# the truth fixed-point map, a paper cross-check
# ---------------------------------------------------------------------------

def truth_map(theta0: float, theta1: float, p, a) -> float:
    """One application of the self-consistency map for the truth prevalence.

    Inspectors (mass x*alpha0 + (1-x)*alpha1; the rate itself when both are equal)
    convert either message into truth belief, so they respond to total
    prevalence; non-inspecting type-0 agents (mass x*(1-alpha0)) respond to
    the truth alone. The steady truth prevalence is the fixed point of this
    map at the endemic rumor level.
    """
    from rumor_inspect import ParameterError

    for name, v in (("theta0", theta0), ("theta1", theta1)):
        if not 0.0 <= v <= 1.0:
            raise ParameterError(f"{name} must lie in [0, 1], got {v}")
    lam = p.lam
    c_ins = a.inspecting_mass(p.x)
    c_bias = p.x * (1.0 - a.alpha0)
    th = theta0 + theta1
    return c_ins * lam * th / (1.0 + lam * th) + c_bias * lam * theta0 / (1.0 + lam * theta0)


# ---------------------------------------------------------------------------
# the truth cubic of a binding targeted budget, a paper cross-check
# ---------------------------------------------------------------------------

class FeasibilityError(ValueError):
    """The requested allocation cannot satisfy the budget constraint."""


@dataclass(frozen=True)
class CubicConstraint:
    """Polynomial c3*t^3 + c2*t^2 + c1*t + c0 whose positive root is theta0.

    Valid for a binding targeted budget: clearing the two denominators of the
    truth fixed-point map turns it into this cubic. With c3 = lam^2 > 0 the
    coefficient signs admit at most one sign change on the feasible set, so at
    most one positive real root exists.
    """

    c3: float
    c2: float
    c1: float
    c0: float

    def __call__(self, theta0: float) -> float:
        return ((self.c3 * theta0 + self.c2) * theta0 + self.c1) * theta0 + self.c0

    def coefficients(self) -> tuple[float, float, float, float]:
        return (self.c3, self.c2, self.c1, self.c0)

    def sign_changes(self) -> int:
        signs = [c for c in self.coefficients() if c != 0.0]
        return sum(1 for u, v in zip(signs, signs[1:]) if u * v < 0.0)


def targeted_alpha1(p, A: float, alpha0: float) -> float:
    """alpha1 that makes the budget A bind at alpha0; FeasibilityError if it leaves [0, 1]."""
    x = p.x
    if x >= 1.0:
        if abs(alpha0 - A) > 1e-12:
            raise FeasibilityError(f"x = 1 binds the whole budget to alpha0 = A, got alpha0={alpha0}")
        return 0.0
    a1 = (A - x * alpha0) / (1.0 - x)
    if not -1e-12 <= a1 <= 1.0 + 1e-12:
        raise FeasibilityError(
            f"alpha0={alpha0} with binding budget A={A} implies alpha1={a1} outside [0, 1]"
        )
    return min(1.0, max(0.0, a1))


def cubic_coefficients(p, A: float, alpha0: float) -> CubicConstraint:
    """Cubic whose positive root is theta0 for a binding targeted budget.

    alpha1 is implied by (A - x*alpha0)/(1-x), so the inspecting mass is A
    and these are the unscaled coefficients of the model's truth cubic with
    s = A + x*(1-alpha0): c3 = lam^2, c2 = lam*(2 + lam*theta1 - lam*s),
    c1 = (1 + lam*theta1)*(1 - lam*s), c0 = -A*lam*theta1.

    At the eradication boundary (theta1 = 0) the cubic factors as theta0
    times a quadratic whose positive root is the no-rumor closed form.
    """
    from rumor_inspect import Allocation, rumor_steady_state

    alpha1 = targeted_alpha1(p, A, alpha0)
    theta1 = rumor_steady_state(p, Allocation.targeted(alpha0, alpha1))
    lam, s = p.lam, A + p.x * (1.0 - alpha0)
    return CubicConstraint(
        lam * lam,
        lam * (2.0 + lam * theta1 - lam * s),
        (1.0 + lam * theta1) * (1.0 - lam * s),
        -A * lam * theta1,
    )


# ---------------------------------------------------------------------------
# the paper's marginal conditions, cross-checks of the planners' slope
# ---------------------------------------------------------------------------

def marginal_condition_uniform(p, a, ss) -> bool:
    """True iff truth prevalence is locally increasing in the uniform rate.

    Evaluates, at the solved steady state,
    (1 + lam*theta) * (theta0*(1-x)*(1 + lam*theta) + theta1)
        > alpha * (1-x) * (1 + lam*theta0).
    """
    from rumor_inspect import ParameterError

    if a.alpha0 != a.alpha1:
        raise ParameterError("the uniform marginal condition needs a single shared rate")
    lam = p.lam
    x = p.x
    grow = 1.0 + lam * ss.theta
    lhs = grow * (ss.theta0 * (1.0 - x) * grow + ss.theta1)
    rhs = a.alpha0 * (1.0 - x) * (1.0 + lam * ss.theta0)
    return lhs > rhs


def marginal_condition_targeted(p, A: float, ss) -> bool:
    """True iff shifting binding budget toward alpha1 is locally beneficial.

    Evaluates theta0 * (1 + lam*theta)^2 > A * (1 + lam*theta0) at the solved
    steady state.
    """
    lam = p.lam
    lhs = ss.theta0 * (1.0 + lam * ss.theta) ** 2
    rhs = A * (1.0 + lam * ss.theta0)
    return lhs > rhs


# ---------------------------------------------------------------------------
# the budget range where the targeted planner diversifies, a paper cross-check
# ---------------------------------------------------------------------------

DIVERSIFICATION_RESOLUTION = 1e-4  # width to which each edge of the range is bisected
DIVERSIFICATION_SCAN_POINTS = 41  # budgets scanned over (0, 1] before bisecting


def _bisect_flip(pred, lo: float, hi: float, resolution: float) -> float:
    """Midpoint of the last bracket of the point where pred(A) turns true, as A rises."""
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def diversification_budget_range(p) -> tuple[float, float] | None:
    """Empirically located budget range where the targeted planner sets alpha0 > 0.

    The range is reported, not derived: the diffusion-rate cutoff beyond
    which no such range exists is known only existentially. Budgets are
    scanned over (0, 1], since above x the planner may still keep alpha0 = 1
    and fund alpha1 with the rest, and each edge is bisected to
    DIVERSIFICATION_RESOLUTION. Budgets above 1 buy nothing more.
    """
    from rumor_inspect import maximize_truth_targeted

    if p.x <= 0.0:
        return None

    def diversifies(A: float) -> bool:
        return maximize_truth_targeted(p, A).allocation.alpha0 > 1e-9

    budgets = np.linspace(DIVERSIFICATION_RESOLUTION, 1.0, DIVERSIFICATION_SCAN_POINTS).tolist()
    flagged = [i for i, A in enumerate(budgets) if diversifies(A)]
    if not flagged:
        return None
    first, last, res = flagged[0], flagged[-1], DIVERSIFICATION_RESOLUTION
    lo = budgets[0] if first == 0 else _bisect_flip(diversifies, budgets[first - 1], budgets[first], res)
    if last + 1 == len(budgets):
        return lo, 1.0
    return lo, _bisect_flip(lambda A: not diversifies(A), budgets[last], budgets[last + 1], res)


# ---------------------------------------------------------------------------
# the Dormand-Prince loop written over lists, the bit-identity oracle of integrate
# ---------------------------------------------------------------------------

def reference_integrate(s0, p, a, cfg=None):
    """dynamics.integrate as a loop over 4-element lists, with no step budget.

    integrate writes each stage out as four scalar expressions; this loop
    does the same floating-point operations in the same order through zip
    comprehensions, so both must return equal Trajectory objects. It reads
    the tableau, FIRST_STEP and HORIZON from the dynamics module at call
    time, so a test that patches those patches both.
    """
    import math

    from rumor_inspect import ParameterError, dynamics, group_masses
    from rumor_inspect.dynamics import (
        _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62, _A63, _A64, _A65,
        _B1, _B3, _B4, _B5, _B6, _DOMAIN_SLACK, _E1, _E3, _E4, _E5, _E6, _E7,
        DynState, IntegratorError, Trajectory, rate_function,
    )

    cfg = dynamics.DEFAULT_INTEGRATOR if cfg is None else cfg
    for name, v in zip(DynState._fields, s0[:4]):
        if not 0.0 <= v <= 1.0:
            raise ParameterError(f"{name} must lie in [0, 1], got {v}")
    rhs = rate_function(p, a)
    r = tuple(v if m > 0.0 else 0.0 for v, m in zip(s0[:4], group_masses(p, a)))
    tol = 0.25 * cfg.conv_tol / (2.0 * p.k * p.nu + p.delta)
    conv_tol = cfg.conv_tol
    t_max = dynamics.HORIZON / p.delta
    lo, hi = -_DOMAIN_SLACK, 1.0 + _DOMAIN_SLACK
    h = dynamics.FIRST_STEP
    t = 0.0
    n_rejected = 0
    states = [DynState(*r, t)]
    k1 = rhs(*r)

    while True:
        max_rate = max(map(abs, k1))
        converged = max_rate < conv_tol
        if converged or t >= t_max:
            break
        if h >= t_max - t:
            h, t_next = t_max - t, t_max
        else:
            t_next = t + h
        if not t_next > t:
            raise IntegratorError(f"step size underflowed at t={t}")

        k2 = rhs(*[y + h * (_A21 * q1) for y, q1 in zip(r, k1)])
        k3 = rhs(*[y + h * (_A31 * q1 + _A32 * q2) for y, q1, q2 in zip(r, k1, k2)])
        k4 = rhs(*[y + h * (_A41 * q1 + _A42 * q2 + _A43 * q3) for y, q1, q2, q3 in zip(r, k1, k2, k3)])
        k5 = rhs(*[y + h * (_A51 * q1 + _A52 * q2 + _A53 * q3 + _A54 * q4)
                   for y, q1, q2, q3, q4 in zip(r, k1, k2, k3, k4)])
        k6 = rhs(*[y + h * (_A61 * q1 + _A62 * q2 + _A63 * q3 + _A64 * q4 + _A65 * q5)
                   for y, q1, q2, q3, q4, q5 in zip(r, k1, k2, k3, k4, k5)])
        new = [y + h * (_B1 * q1 + _B3 * q3 + _B4 * q4 + _B5 * q5 + _B6 * q6)
               for y, q1, q3, q4, q5, q6 in zip(r, k1, k3, k4, k5, k6)]
        # a chained comparison is False for NaN, so a non-finite state is rejected too
        if not all(lo <= v <= hi for v in new):
            h *= 0.5
            n_rejected += 1
            continue
        if not all(0.0 <= v <= 1.0 for v in new):
            new = [min(1.0, max(0.0, v)) for v in new]
        k7 = rhs(*new)  # first-same-as-last: the rate at the new state
        # RMS over the four coordinates (hypot / 2) of the error estimate, each
        # scaled by atol + rtol * max(|y|, |y_new|), where y and y_new lie in [0, 1]
        err = math.hypot(*[
            h * (_E1 * q1 + _E3 * q3 + _E4 * q4 + _E5 * q5 + _E6 * q6 + _E7 * q7) / (1.0 + (y if y > z else z))
            for y, z, q1, q3, q4, q5, q6, q7 in zip(r, new, k1, k3, k4, k5, k6, k7)
        ]) / (2.0 * tol)
        factor = 10.0 if err == 0.0 else min(10.0, max(0.2, 0.9 * err ** -0.2))
        h *= factor
        if err > 1.0:
            n_rejected += 1
            continue
        r, k1, t = new, k7, t_next
        states.append(DynState(*r, t))

    return Trajectory(tuple(states), converged, max_rate, n_rejected)


# ---------------------------------------------------------------------------
# the planners' search of each budget on its own, the oracle of their curve analyses
# ---------------------------------------------------------------------------

def reference_pick(scored, x):
    """The tie rule as planner._pick states it: ((allocation, objective), best objective) of the winner among the
    scored pairs. Among the pairs within TIE_TOL of the best, the cheapest spend wins, to within TIE_TOL, then the
    smallest alpha0, the first of equals."""
    from rumor_inspect.planner import TIE_TOL

    top = max(v for _, v in scored)
    near = [(a.inspecting_mass(x), a, v) for a, v in scored if v >= top - TIE_TOL]
    min_spend = min(spend for spend, _, _ in near)
    return min(((a, v) for spend, a, v in near if spend <= min_spend + TIE_TOL), key=lambda av: av[0].alpha0), top


def _reference_result(p, A, scored, cfg):
    """The OptResult of reference_pick's winner among the scored (allocation, objective) pairs at the budget A."""
    from rumor_inspect import OptResult, planner, rumor_steady_state

    (alloc, value), _ = reference_pick(scored, p.x)
    spend = alloc.inspecting_mass(p.x)
    return OptResult(
        allocation=alloc,
        objective=value,
        budget_spent=spend,
        slack=spend < min(A, 1.0) - planner.SLACK_TOL,
        rumor_eradicated=rumor_steady_state(p, alloc, cfg) == 0.0,
    )


def reference_uniform_optimum(p, A, platform, cfg=None):
    """maximize_truth_uniform, or with platform maximize_platform, searched over [0, min(A, 1)] at this budget alone.

    The planners read every budget's optimum off one analysis of their
    uniform line (planner.Planner.truth and .platform). This is the search
    they ran before at each budget, on a Planner of its own: the rates
    _segment_rates gives over [0, min(A, 1)], scored, and the tie rule.
    """
    from rumor_inspect import Allocation, planner

    cfg = planner.DEFAULT_SOLVER if cfg is None else cfg
    A = planner._total(A)
    plan = planner.Planner(p, cfg)
    peaks = functools.partial(planner._uniform_peak, plan, platform)
    rates = planner._segment_rates(plan, 0.0, min(A, 1.0), Allocation.uniform, peaks)
    return _reference_result(p, A, planner._score(plan, rates, platform), cfg)


SCAN_CELLS = 64  # cells of the grid on which slope_roots looks for sign changes


def slope_roots(p, lo, hi, alloc, direction, cfg):
    """The rates in [lo, hi] at which the truth's slope along alloc is 0: each sign change of the slope on a
    grid of SCAN_CELLS cells, refined by brentq.

    alloc(u) is the policy at alpha1 = u and direction its d(alpha0, alpha1, I)/du. The slope is
    model._truth_slope at the scalar solver's truth, the rumor kept endemic, so [lo, hi] must lie below the kink.
    """
    from rumor_inspect.model import _steady_truth, _truth_slope

    lam, x = p.lam, p.x

    def slope(u):
        a = alloc(u)
        inspecting = a.inspecting_mass(x)
        theta0, theta1 = _steady_truth(lam, x, a.alpha0, a.alpha1, inspecting, float("inf"), cfg)
        return _truth_slope(lam, x, a.alpha0, inspecting, theta1, theta0, direction)

    grid = [lo + (hi - lo) * i / SCAN_CELLS for i in range(SCAN_CELLS)] + [hi]
    values = [slope(u) for u in grid]
    roots = [u for u, g in zip(grid, values) if g == 0.0]
    for u, w, g, h in zip(grid, grid[1:], values, values[1:]):
        if g * h < 0.0:
            roots.append(brentq(slope, u, w, xtol=1e-15))
    return sorted(roots)


def reference_targeted_optimum(p, A, cfg=None):
    """maximize_truth_targeted searched at this budget alone, by a scan of its budget line and its alpha0 = 1 edge.

    It shares no search code with the planner: (0, 0), (0, 1) from A = 1-x
    on, and on the budget line and on the edge [0, min(1, (A-x)/(1-x))]
    (at x = 0 on alpha0 = 0, alpha1 in [0, min(1, A)]) each end, the kink
    and each zero of the truth's slope on the endemic piece (slope_roots),
    each scored by the scalar solver, and the tie rule (reference_pick).
    """
    from rumor_inspect import Allocation, eradication_threshold, planner, truth_steady_state

    cfg = planner.DEFAULT_SOLVER if cfg is None else cfg
    A = planner._total(A)
    x = p.x
    kink = eradication_threshold(p) - cfg.tol
    rates = [Allocation.targeted(0.0, 0.0)]
    segments = []
    if A > 0.0 and x <= 0.0:
        segments.append((0.0, min(1.0, A), lambda a1: Allocation.targeted(0.0, a1), (0.0, 1.0, 1.0)))
    elif A > 0.0 and x < 1.0:
        lo = max(0.0, (A - x) / (1.0 - x))
        hi = min(1.0, A / (1.0 - x))
        if lo <= hi:
            segments.append((lo, hi, lambda a1: Allocation.targeted(planner._binding_alpha0(A, x, a1), a1),
                             (-(1.0 - x) / x, 1.0, 0.0)))
        if A > x:
            segments.append((0.0, min(1.0, lo), lambda a1: Allocation.targeted(1.0, a1), (0.0, 1.0, 1.0 - x)))
        if A >= 1.0 - x:
            rates.append(Allocation.targeted(0.0, 1.0))
    for lo, hi, alloc, direction in segments:
        rates += map(alloc, [lo, hi] + ([kink] if lo < kink < hi else []))
        if lo < min(hi, kink):
            rates += map(alloc, slope_roots(p, lo, min(hi, kink), alloc, direction, cfg))
    scored = [(a, truth_steady_state(p, a, cfg)) for a in dict.fromkeys(rates)]
    return _reference_result(p, A, scored, cfg)
