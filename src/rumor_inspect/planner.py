"""Budgeted optimization of inspection rates.

Four problems are covered, all under the budget x*alpha0 + (1-x)*alpha1 <= A
with unit inspection cost:

  * minimize_rumor          -- drive the rumor down with a uniform rate
  * maximize_truth_uniform  -- maximize truth prevalence, one shared rate
  * maximize_truth_targeted -- maximize truth prevalence, per-type rates
  * maximize_platform       -- maximize total prevalence, one shared rate

The three maximizers share one search, _maximize, along segments of
policies on which alpha1 moves: the uniform line, the targeted budget line
and its alpha0 = 1 edge. Each segment splits at the kink where alpha1
reaches the eradication threshold. Above it the rumor is extinct and the
objective is the no-rumor closed form, nondecreasing in alpha1. Below it,
on the endemic piece, the truth cubic gives the slope in closed form
(model._truth_slope): its sign is the paper's marginal condition. On
dense profiles (30,000 random draws, lam up to 1000, any x) that sign
changed at most once on every endemic piece, so a piece peaks inside only
if the slope is positive at its lower end and not at its upper end, and a
bracketed root finder solves for that peak. The peaks, the kinks and the
segment ends are the candidates, and one tie rule picks among them: the
cheapest within 1e-10 of the best, then the smallest alpha0.

The budget thresholds of compute_thresholds call none of the optimizers:
the uniform truth and platform curves do not depend on the budget, so the
edges of the slack regions are read off one profile of each curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    DEFAULT_SOLVER,
    Allocation,
    ModelParams,
    ParameterError,
    SolverConfig,
    _steady_truth,
    _truth_slope,
    eradication_threshold,
    rumor_steady_state,
    truth_steady_state,
)

PROFILE_POINTS = 2001  # rates in compute_thresholds' profile of the uniform curves
ROOT_XTOL = 1e-12  # width in alpha1 to which _slope_root solves a peak
TIE_TOL = 1e-10
SLACK_TOL = 1e-9
EPS = float(np.finfo(float).eps)
THRESHOLD_RESOLUTION = 1e-6  # width to which compute_thresholds bisects each budget edge


def _total(budget: float) -> float:
    A = float(budget)
    if not A >= 0.0:
        raise ParameterError(f"budget must be >= 0, got {A}")
    return A


@dataclass(frozen=True)
class Thresholds:
    """Closed-form and numerically located policy thresholds.

    lambda_bar is 2 + sqrt(2 - 1/(1-x)) where defined (x <= 1/2), else None.
    eradication_interval is the lam range where, at the marginal eradication
    budget, the targeted planner prefers to let the rumor live; it is empty
    (None) iff (4-x)^2 < 12. The budget fields are filled only by
    compute_thresholds: A_lower/A_upper bound the region of budgets where the
    uniform truth planner leaves slack, A_tilde is where the platform stops
    leaving slack. None means not computed or no such region found.
    """

    alpha_prime: float
    lambda_bar: float | None
    eradication_interval: tuple[float, float] | None
    A_lower: float | None = None
    A_upper: float | None = None
    A_tilde: float | None = None


@dataclass(frozen=True)
class OptResult:
    allocation: Allocation
    objective: float
    budget_spent: float
    slack: bool
    rumor_eradicated: bool
    notes: tuple[str, ...] = ()


def closed_thresholds(p: ModelParams) -> Thresholds:
    """The cheap, closed-form part of the threshold bundle."""
    radicand = 2.0 - 1.0 / (1.0 - p.x) if p.x < 1.0 else -1.0
    lambda_bar = 2.0 + math.sqrt(radicand) if radicand >= 0.0 else None
    disc = (4.0 - p.x) ** 2 - 12.0
    if disc < 0.0:
        interval = None
    else:
        root = math.sqrt(disc)
        interval = ((4.0 - p.x - root) / 2.0, (4.0 - p.x + root) / 2.0)
    return Thresholds(
        alpha_prime=eradication_threshold(p),
        lambda_bar=lambda_bar,
        eradication_interval=interval,
    )


# ---------------------------------------------------------------------------
# the search along segments of policies
# ---------------------------------------------------------------------------

def _theta_grids(p: ModelParams, c_ins: np.ndarray, a0s: np.ndarray, a1s: np.ndarray, cfg: SolverConfig):
    """(theta0, theta1) over allocation grids, c_ins being their inspecting masses.

    The model's steady-state code runs on the arrays in one batch, the same
    code that truth_steady_state runs on floats, so every grid entry equals
    the scalar solve of its policy bit for bit. compute_thresholds flags
    its slack budgets off such a profile, and refines every edge with the
    scalar solver.
    """
    return _steady_truth(p.lam, p.x, a0s, a1s, c_ins, eradication_threshold(p), cfg, np)


def _objective(p: ModelParams, a: Allocation, platform: bool, cfg: SolverConfig) -> float:
    """theta0 at the policy a, or theta0 + theta1 for the platform, from the scalar solver."""
    truth = truth_steady_state(p, a, cfg)
    return truth + rumor_steady_state(p, a) if platform else truth


def _slope_root(slope, a: float, ga: float, b: float, gb: float) -> float:
    """A root in (a, b] of a slope with slope(a) = ga > 0 >= gb = slope(b), to ROOT_XTOL.

    Regula falsi; an end that two steps in a row keep is scaled as Anderson
    and Bjorck do, where Illinois halves it. It stops once a step is under
    ROOT_XTOL/2: 6.7-7.9 slopes per root on budget-sweep, 8.7-10.6 for Illinois.
    """
    kept = 0  # the end the last step kept: +1 for b, -1 for a
    while gb != 0.0 and b - a > ROOT_XTOL:
        c = (a * gb - b * ga) / (gb - ga)
        c = c if c == c else 0.5 * (a + b)  # nan from an infinite slope at an end (see _truth_slope): bisect
        if kept and abs(c - (a if kept == 1 else b)) <= 0.5 * ROOT_XTOL:
            return c  # the step is below ROOT_XTOL/2: converged
        c = min(max(c, a + 0.5 * ROOT_XTOL), b - 0.5 * ROOT_XTOL)  # a step next to the root crosses it
        gc = slope(c)
        if gc > 0.0:
            m = 1.0 - gc / ga if kept == 1 else 1.0
            a, ga, gb, kept = c, gc, gb * (m if m > 0.0 else 0.5), 1
        else:
            m = 1.0 - gc / gb if kept == -1 else 1.0
            b, gb, ga, kept = c, gc, ga * (m if m > 0.0 else 0.5), -1
    return b


def _segment_rates(p: ModelParams, lo: float, hi: float, alloc, direction, platform: bool, cfg: SolverConfig):
    """The rates u in [lo, hi] at which the objective on the segment alloc(u) can peak.

    alloc(u) is the policy at alpha1 = u, and direction its constant
    d(alpha0, alpha1, I)/du. Above the kink, where alpha1 reaches the
    eradication threshold (less cfg.tol, as in the solver), the objective is
    the no-rumor closed form, nondecreasing in alpha1, so it adds only the
    kink and hi. Below it, on the endemic piece, the slope changes sign at
    most once, so the piece peaks inside only when the slope is positive at
    lo and not at its upper end: _slope_root solves for that peak. These and
    lo are every place a maximum can sit.
    """
    lam, x = p.lam, p.x
    kink = eradication_threshold(p) - cfg.tol
    rates = [lo, hi] + ([kink] if lo < kink < hi else [])
    end = min(hi, kink)
    if lo < end:
        def slope(u: float) -> float:
            a = alloc(u)
            inspecting = a.inspecting_mass(x)
            theta0, theta1 = _steady_truth(lam, x, a.alpha0, u, inspecting, math.inf, cfg)
            g = _truth_slope(lam, x, a.alpha0, inspecting, theta1, theta0, direction)
            return g - (1.0 - x) * direction[1] if platform else g

        g_lo, g_end = slope(lo), slope(end)
        if g_lo > 0.0 >= g_end:
            rates.append(_slope_root(slope, lo, g_lo, end, g_end))
    return rates


def _maximize(p: ModelParams, A: float, segments, points, platform: bool, cfg: SolverConfig, notes=()) -> OptResult:
    """Shared search, and the one tie rule, of the three maximizers.

    The objective is theta0, or theta0 + theta1 for the platform. Each
    segment is a tuple (lo, hi, alloc, direction): the line of policies
    alloc(u) for alpha1 = u in [lo, hi], moving along direction; its
    _segment_rates join the fixed candidate `points`, and every candidate
    is scored with the scalar solver. Among the candidates within TIE_TOL
    of the best, the cheapest spend wins, to within TIE_TOL, then the
    smallest alpha0.
    """
    x = p.x
    candidates = list(points)
    for lo, hi, alloc, direction in segments:
        candidates += [alloc(u) for u in _segment_rates(p, lo, hi, alloc, direction, platform, cfg)]
    scored = [(a, _objective(p, a, platform, cfg)) for a in dict.fromkeys(candidates)]
    top = max(v for _, v in scored)
    near = [(a, v) for a, v in scored if v >= top - TIE_TOL]
    min_spend = min(a.inspecting_mass(x) for a, _ in near)
    near = [(a, v) for a, v in near if a.inspecting_mass(x) <= min_spend + TIE_TOL]
    alloc, vstar = min(near, key=lambda av: av[0].alpha0)
    spend = alloc.inspecting_mass(x)
    return OptResult(
        allocation=alloc,
        objective=vstar,
        budget_spent=spend,
        slack=spend < min(A, 1.0) - SLACK_TOL,
        rumor_eradicated=rumor_steady_state(p, alloc) == 0.0,
        notes=notes,
    )


UNIFORM = (1.0, 1.0, 1.0)  # d(alpha0, alpha1, I)/dalpha along the uniform line


def _uniform_search(A: float):
    """(segments, points) of _maximize for one shared rate alpha in [0, min(A, 1)]."""
    return [(0.0, min(A, 1.0), Allocation.uniform, UNIFORM)], []


# ---------------------------------------------------------------------------
# the four planning problems
# ---------------------------------------------------------------------------

def minimize_rumor(p: ModelParams, budget: float) -> OptResult:
    """Cheapest uniform rate that minimizes rumor prevalence.

    Spending beyond the eradication threshold buys nothing, so the optimum is
    min(A, alpha_prime).
    """
    A = _total(budget)
    alpha_prime = eradication_threshold(p)
    alpha = min(A, alpha_prime)
    alloc = Allocation.uniform(alpha)
    theta1 = rumor_steady_state(p, alloc)
    return OptResult(
        allocation=alloc,
        objective=theta1,
        budget_spent=alpha,
        slack=alpha < A - SLACK_TOL,
        rumor_eradicated=theta1 == 0.0,
    )


def maximize_truth_uniform(
    p: ModelParams,
    budget: float,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> OptResult:
    """argmax of truth prevalence over uniform alpha in [0, min(A, 1)]."""
    A = _total(budget)
    return _maximize(p, A, *_uniform_search(A), False, cfg)


def maximize_platform(
    p: ModelParams,
    budget: float,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> OptResult:
    """Same search as maximize_truth_uniform, but the objective is theta0 + theta1."""
    A = _total(budget)
    return _maximize(p, A, *_uniform_search(A), True, cfg)


def _binding_alpha0(A: float, x: float, a1: float) -> float:
    """alpha0 that makes the budget bind at alpha1 = a1, clipped to [0, 1].

    At the segment end a1 = A/(1-x) the remaining budget is rounding residue
    of order eps*A, which must give alpha0 = 0 exactly rather than ~1e-16.
    """
    rest = A - (1.0 - x) * a1
    if rest <= 4.0 * EPS * A:
        return 0.0
    return min(1.0, rest / x)


def maximize_truth_targeted(
    p: ModelParams,
    budget: float,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> OptResult:
    """argmax of truth prevalence over per-type rates under the budget.

    At a fixed alpha1, raising alpha0 weakly helps: it moves type-0 mass
    from the truth-only term of the fixed-point map into inspection, which
    responds to total prevalence, so the map rises pointwise. The optimum
    therefore lies on the budget-binding segment or, once A > x, on the
    alpha0 = 1 edge below it with alpha1 in [0, (A-x)/(1-x)]; both are
    searched, parametrized by alpha1. Raising alpha1 is not always good:
    it starves the inspectors that convert the rumor. Once the rumor is
    extinct alpha0 is worthless, so cheaper non-binding eradicating
    policies are added as explicit candidates. At x = 0 only alpha1 has
    mass, and the segment alpha0 = 0, alpha1 in [0, min(1, A)] is searched:
    it reaches the uniform planner's truth values. At A = 0 and at x = 1
    (where inspection buys nothing) the only candidate is (0, 0). Ties
    follow _maximize: the smallest spend, then the smallest alpha0.
    """
    A = _total(budget)
    x = p.x
    beyond_x = "budget exceeds the type-0 mass; full spend is no longer guaranteed to be optimal"
    points = [Allocation.targeted(0.0, 0.0)]
    segments = []
    if A > 0.0 and x <= 0.0:
        segments.append((0.0, min(1.0, A), lambda a1: Allocation.targeted(0.0, a1), (0.0, 1.0, 1.0)))
    elif A > 0.0 and x < 1.0:
        lo = max(0.0, (A - x) / (1.0 - x))
        hi = min(1.0, A / (1.0 - x))
        if lo <= hi:
            segments.append((lo, hi, lambda a1: Allocation.targeted(_binding_alpha0(A, x, a1), a1),
                             (-(1.0 - x) / x, 1.0, 0.0)))
        if A > x:
            segments.append((0.0, min(1.0, lo), lambda a1: Allocation.targeted(1.0, a1), (0.0, 1.0, 1.0 - x)))
        if A >= 1.0 - x:
            points.append(Allocation.targeted(0.0, 1.0))
    return _maximize(p, A, segments, points, False, cfg, (beyond_x,) if A > x else ())


# ---------------------------------------------------------------------------
# numeric threshold location
# ---------------------------------------------------------------------------

def _bisect_flip(pred, lo: float, hi: float, resolution: float) -> float:
    """Midpoint of the last bracket of the point where pred(A) turns true, as A rises."""
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _slack_edges(f, peak_rates, rates: np.ndarray, values: np.ndarray) -> tuple[float | None, float | None]:
    """Edges of the budgets A at which maximizing f over [0, A] leaves slack, or (None, None).

    values is f at the rates: rates[0] = 0, the others budgets. The edges
    bound the budgets that a cheaper rate matches within TIE_TOL. The lower
    one is the peak that the first of them falls back to, or rates[1]. The
    upper one is where f climbs TIE_TOL above the last one's peak, or 1. A
    peak is the best of peak_rates(lo, hi) over the two profile cells around
    it, ties going to the smaller rate.
    """
    best = np.maximum.accumulate(values)
    slack = np.flatnonzero(best[:-1] >= values[1:] - TIE_TOL) + 1
    if not len(slack):
        return None, None
    first, last = int(slack[0]), int(slack[-1])
    grid = rates.tolist()

    def peak(j: int) -> tuple[float, float]:
        k = int(np.argmax(values[:j]))
        value, rate = max((f(u), -u) for u in peak_rates(grid[max(k - 1, 0)], grid[k + 1]))
        return -rate, value

    lower = grid[1] if first == 1 else peak(first)[0]
    if last == len(grid) - 1:
        return lower, 1.0
    level = peak(last)[1] + TIE_TOL
    return lower, _bisect_flip(lambda A: f(A) > level, grid[last], grid[last + 1], THRESHOLD_RESOLUTION)


def compute_thresholds(p: ModelParams, cfg: SolverConfig = DEFAULT_SOLVER) -> Thresholds:
    """Closed-form thresholds plus numerically located budget boundaries.

    A_lower / A_upper bracket the budgets at which maximize_truth_uniform
    reports slack; A_tilde is the top of the analogous region for the
    platform objective. All three are None when the corresponding slack
    region is empty within [THRESHOLD_RESOLUTION, 1]; budgets above 1 buy
    nothing more.

    Both objectives are fixed curves in the uniform rate, maximized over
    [0, min(A, 1)] with ties going to the cheapest rate, so a budget leaves
    slack when a cheaper rate does as well. The edges are read off the
    curves with no optimizer call: one PROFILE_POINTS profile of both flags
    the slack budgets, and _slack_edges refines each edge with the
    optimizers' _segment_rates and the scalar solver. A slack region
    narrower than a profile cell can be missed.
    """
    rates = np.concatenate(([0.0], np.linspace(THRESHOLD_RESOLUTION, 1.0, PROFILE_POINTS)))
    theta0, theta1 = _theta_grids(p, rates, rates, rates, cfg)

    def edges(values, platform: bool):
        def f(a: float) -> float:
            return _objective(p, Allocation.uniform(a), platform, cfg)

        def peak_rates(lo: float, hi: float) -> list[float]:
            return _segment_rates(p, lo, hi, Allocation.uniform, UNIFORM, platform, cfg)

        return _slack_edges(f, peak_rates, rates, values)

    a_lower, a_upper = edges(theta0, False)
    _, a_tilde = edges(theta0 + theta1, True)
    return replace(closed_thresholds(p), A_lower=a_lower, A_upper=a_upper, A_tilde=a_tilde)
