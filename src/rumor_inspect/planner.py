"""Budgeted optimization of inspection rates.

Four problems are covered, all under the budget x*alpha0 + (1-x)*alpha1 <= A
with unit inspection cost:

  * minimize_rumor          -- drive the rumor down with a uniform rate
  * maximize_truth_uniform  -- maximize truth prevalence, one shared rate
  * maximize_truth_targeted -- maximize truth prevalence, per-type rates
  * maximize_platform       -- maximize total prevalence, one shared rate

Truth prevalence is piecewise smooth in the inspection rate with a kink at
the eradication threshold and possibly two local maxima, so derivative-based
global search is not safe here. The three maximizers share one search,
_maximize: a dense grid scan of each segment of candidate policies, golden-
section refinement of its best cell, and one tie rule that prefers the
cheapest policy within 1e-10 of the optimum, then the smallest alpha0.

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
    SteadyState,
    _steady_truth,
    eradication_threshold,
    rumor_steady_state,
    truth_steady_state,
)

GRID_POINTS = 2001
REFINE_XTOL = 1e-10
TIE_TOL = 1e-10
SLACK_TOL = 1e-9
EPS = float(np.finfo(float).eps)
THRESHOLD_RESOLUTION = 1e-6  # width to which compute_thresholds bisects each budget edge
DIVERSIFICATION_RESOLUTION = 1e-4  # the same for diversification_budget_range
DIVERSIFICATION_SCAN_POINTS = 41  # budgets it scans over (0, 1] before bisecting


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
# grid machinery
# ---------------------------------------------------------------------------

def _theta_grids(
    p: ModelParams,
    c_ins: np.ndarray,
    a0s: np.ndarray,
    a1s: np.ndarray,
    cfg: SolverConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """(theta0, theta1) over allocation grids, c_ins being their inspecting masses.

    The model's steady-state code runs on the arrays in one batch, the same
    code that truth_steady_state runs on floats, so every grid entry equals
    the scalar solve of its policy bit for bit. Only the argmax location
    comes from here; reported objectives are always recomputed with the
    scalar solver.
    """
    return _steady_truth(p.lam, p.x, a0s, a1s, c_ins, eradication_threshold(p), cfg, np)


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximizer on [lo, hi] down to REFINE_XTOL; ties resolve to the smaller x."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    seen: list[tuple[float, float]] = [(lo, f(lo)), (hi, f(hi))]
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    seen += [(x1, f1), (x2, f2)]
    while b - a > REFINE_XTOL:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
            seen.append((x1, f1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
            seen.append((x2, f2))
    # strict argmax over the probes; near ties are arbitrated by the caller,
    # where genuinely distinct maxima compete
    best = max(v for _, v in seen)
    return min(xx for xx, v in seen if v == best), best


def _maximize(p: ModelParams, A: float, segments, points, platform: bool, cfg: SolverConfig, notes=()) -> OptResult:
    """Shared grid + refine search, and the one tie rule, of the three maximizers.

    The objective is theta0, or theta0 + theta1 for the platform. Each
    segment is a tuple (a0s, a1s, mass, alloc): a GRID_POINTS line of
    policies parametrized by alpha1, their inspecting mass, and alloc(a1),
    the policy at a1. Its best grid point (ties to the smallest alpha0, then
    the smallest alpha1) is refined by golden section inside its two
    neighbouring cells. That point, the refined one, the cell ends and the
    segment ends join the fixed candidate `points`, and every candidate is
    scored with the scalar solver. Among the candidates within TIE_TOL of
    the best, the cheapest spend wins, to within TIE_TOL, then the smallest
    alpha0.
    """
    x = p.x

    def objective(a: Allocation) -> float:
        truth = truth_steady_state(p, a, cfg)
        return truth + rumor_steady_state(p, a) if platform else truth

    candidates = list(points)
    grid_best = -math.inf
    for a0s, a1s, mass, alloc in segments:
        theta0, theta1 = _theta_grids(p, mass, a0s, a1s, cfg)
        vals = theta0 + theta1 if platform else theta0
        best = float(vals.max())
        ties = np.flatnonzero(vals >= best - TIE_TOL)
        i = int(ties[np.lexsort((a1s[ties], a0s[ties]))[0]])
        cell_lo = float(a1s[max(i - 1, 0)])
        cell_hi = float(a1s[min(i + 1, len(a1s) - 1)])
        refined, _ = _golden_max(lambda a1: objective(alloc(a1)), cell_lo, cell_hi)
        candidates += [alloc(a1) for a1 in {float(a1s[i]), refined, cell_lo, cell_hi, float(a1s[0]), float(a1s[-1])}]
        grid_best = max(grid_best, best)

    scored = [(a, objective(a)) for a in candidates]
    top = max(v for _, v in scored)
    near = [(a, v) for a, v in scored if v >= top - TIE_TOL]
    min_spend = min(a.inspecting_mass(x) for a, _ in near)
    near = [(a, v) for a, v in near if a.inspecting_mass(x) <= min_spend + TIE_TOL]
    alloc, vstar = min(near, key=lambda av: av[0].alpha0)
    assert vstar >= grid_best - 2.0 * TIE_TOL, "refined optimum fell below a scanned grid value"
    spend = alloc.inspecting_mass(x)
    return OptResult(
        allocation=alloc,
        objective=vstar,
        budget_spent=spend,
        slack=spend < min(A, 1.0) - SLACK_TOL,
        rumor_eradicated=rumor_steady_state(p, alloc) == 0.0,
        notes=notes,
    )


def _uniform_search(A: float):
    """(segments, points) of _maximize for one shared rate alpha in [0, min(A, 1)]."""
    if A <= 0.0:
        return [], [Allocation.uniform(0.0)]
    alphas = np.linspace(0.0, min(A, 1.0), GRID_POINTS)
    return [(alphas, alphas, alphas, Allocation.uniform)], []


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
        a1s = np.linspace(0.0, min(1.0, A), GRID_POINTS)
        segments.append((np.zeros_like(a1s), a1s, a1s, lambda a1: Allocation.targeted(0.0, a1)))
    elif A > 0.0 and x < 1.0:
        lo = max(0.0, (A - x) / (1.0 - x))
        hi = min(1.0, A / (1.0 - x))
        if lo <= hi:
            a1s = np.linspace(lo, hi, GRID_POINTS)
            a0s = np.clip((A - (1.0 - x) * a1s) / x, 0.0, 1.0)
            segments.append((a0s, a1s, x * a0s + (1.0 - x) * a1s,
                             lambda a1: Allocation.targeted(_binding_alpha0(A, x, a1), a1)))
        if A > x:
            a1s = np.linspace(0.0, min(1.0, lo), GRID_POINTS)
            ones = np.ones_like(a1s)
            segments.append((ones, a1s, x * ones + (1.0 - x) * a1s, lambda a1: Allocation.targeted(1.0, a1)))
        if A >= 1.0 - x:
            points.append(Allocation.targeted(0.0, 1.0))
    return _maximize(p, A, segments, points, False, cfg, (beyond_x,) if A > x else ())


# ---------------------------------------------------------------------------
# marginal conditions
# ---------------------------------------------------------------------------

def marginal_condition_uniform(p: ModelParams, a: Allocation, ss: SteadyState) -> bool:
    """True iff truth prevalence is locally increasing in the uniform rate.

    Evaluates, at the solved steady state,
    (1 + lam*theta) * (theta0*(1-x)*(1 + lam*theta) + theta1)
        > alpha * (1-x) * (1 + lam*theta0).
    """
    if a.alpha0 != a.alpha1:
        raise ParameterError("the uniform marginal condition needs a single shared rate")
    lam = p.lam
    x = p.x
    grow = 1.0 + lam * ss.theta
    lhs = grow * (ss.theta0 * (1.0 - x) * grow + ss.theta1)
    rhs = a.alpha0 * (1.0 - x) * (1.0 + lam * ss.theta0)
    return lhs > rhs


def marginal_condition_targeted(p: ModelParams, budget: float, ss: SteadyState) -> bool:
    """True iff shifting binding budget toward alpha1 is locally beneficial.

    Evaluates theta0 * (1 + lam*theta)^2 > A * (1 + lam*theta0) at the solved
    steady state.
    """
    A = _total(budget)
    lam = p.lam
    lhs = ss.theta0 * (1.0 + lam * ss.theta) ** 2
    rhs = A * (1.0 + lam * ss.theta0)
    return lhs > rhs


# ---------------------------------------------------------------------------
# numeric threshold location
# ---------------------------------------------------------------------------

def _bisect_flip(pred, lo: float, hi: float, hi_value: bool, resolution: float) -> float:
    """Midpoint of the last bracket of the point where pred(A) becomes hi_value, as A rises."""
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if pred(mid) == hi_value:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _slack_edges(f, rates: np.ndarray, values: np.ndarray) -> tuple[float | None, float | None]:
    """Edges of the budgets A at which maximizing f over [0, A] leaves slack, or (None, None).

    values is f at the rates: rates[0] = 0, the others budgets. The edges
    bound the budgets that a cheaper rate matches within TIE_TOL. The lower
    one is the golden-refined peak that the first of them falls back to, or
    rates[1]. Where f gains at most TIE_TOL over the optimizers' last grid
    cell below that peak, they stop short of their budget already, so the
    edge moves down to where that starts. The upper one is where f climbs
    TIE_TOL above the last one's peak, or 1.
    """
    best = np.maximum.accumulate(values)
    slack = np.flatnonzero(best[:-1] >= values[1:] - TIE_TOL) + 1
    if not len(slack):
        return None, None
    first, last = int(slack[0]), int(slack[-1])
    grid = rates.tolist()
    k0, k1 = (int(np.argmax(values[:j])) for j in (first, last))
    peaks = {k: _golden_max(f, grid[max(k - 1, 0)], grid[k + 1]) for k in {k0, k1}}
    lower = grid[1] if first == 1 else peaks[k0][0]

    def flat(A: float) -> bool:
        return f(A) - f(A - A / (GRID_POINTS - 1)) <= TIE_TOL

    if first > 1 and flat(lower):
        i = int(np.searchsorted(rates, lower)) - 1
        while i > 0 and flat(grid[i]):
            i -= 1
        lower = _bisect_flip(flat, grid[i], min(grid[i + 1], lower), True, THRESHOLD_RESOLUTION) if i else grid[1]
    if last == len(grid) - 1:
        return lower, 1.0
    level = peaks[k1][1] + TIE_TOL
    return lower, _bisect_flip(lambda A: f(A) > level, grid[last], grid[last + 1], True, THRESHOLD_RESOLUTION)


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
    curves with no optimizer call: one GRID_POINTS profile of both flags the
    slack budgets, and _slack_edges refines each edge with the scalar
    solver. A slack region narrower than a profile cell can be missed.
    """
    rates = np.concatenate(([0.0], np.linspace(THRESHOLD_RESOLUTION, 1.0, GRID_POINTS)))
    theta0, theta1 = _theta_grids(p, rates, rates, rates, cfg)

    def truth(a: float) -> float:
        return truth_steady_state(p, Allocation.uniform(a), cfg)

    def platform(a: float) -> float:
        return truth(a) + rumor_steady_state(p, Allocation.uniform(a))

    a_lower, a_upper = _slack_edges(truth, rates, theta0)
    _, a_tilde = _slack_edges(platform, rates, theta0 + theta1)
    return replace(closed_thresholds(p), A_lower=a_lower, A_upper=a_upper, A_tilde=a_tilde)


def diversification_budget_range(p: ModelParams, cfg: SolverConfig = DEFAULT_SOLVER) -> tuple[float, float] | None:
    """Empirically located budget range where the targeted planner sets alpha0 > 0.

    The range is reported, not derived: the diffusion-rate cutoff beyond
    which no such range exists is known only existentially. Budgets are
    scanned over (0, 1], since above x the planner may still keep alpha0 = 1
    and fund alpha1 with the rest, and each edge is bisected to
    DIVERSIFICATION_RESOLUTION. Budgets above 1 buy nothing more.
    """
    if p.x <= 0.0:
        return None

    def diversifies(A: float) -> bool:
        return maximize_truth_targeted(p, A, cfg).allocation.alpha0 > 1e-9

    budgets = np.linspace(DIVERSIFICATION_RESOLUTION, 1.0, DIVERSIFICATION_SCAN_POINTS).tolist()
    flagged = [i for i, A in enumerate(budgets) if diversifies(A)]
    if not flagged:
        return None
    first, last, res = flagged[0], flagged[-1], DIVERSIFICATION_RESOLUTION
    lo = budgets[0] if first == 0 else _bisect_flip(diversifies, budgets[first - 1], budgets[first], True, res)
    hi = 1.0 if last + 1 == len(budgets) else _bisect_flip(diversifies, budgets[last], budgets[last + 1], False, res)
    return lo, hi
