"""Budgeted optimization of inspection rates.

Four problems are covered, all under the budget x*alpha0 + (1-x)*alpha1 <= A
with unit inspection cost:

  * minimize_rumor          -- drive the rumor down with a uniform rate
  * maximize_truth_uniform  -- maximize truth prevalence, one shared rate
  * maximize_truth_targeted -- maximize truth prevalence, per-type rates
  * maximize_platform       -- maximize total prevalence, one shared rate

The three maximizers search segments of policies on which alpha1 moves:
the uniform line, the targeted budget line and its alpha0 = 1 edge. Each
segment splits at the kink where alpha1 reaches the eradication threshold.
Above it the rumor is extinct and the objective is the no-rumor closed
form, nondecreasing in alpha1. Below it, on the endemic piece, the truth
cubic gives the slope in closed form (model._truth_slope): its sign is the
paper's marginal condition. On dense profiles (30,000 random draws, lam
up to 1000, any x) that sign changed at most once on every endemic piece,
so a piece peaks inside only if the slope is positive at its lower end
and not at its upper end. The peak then solves two polynomial equations
in (theta0, alpha1), the truth cubic and the marginal condition, by
Newton's method from the piece's ends; a step that leaves the bracket
gives way to one regula falsi step with a full truth solve (_peak). The
peaks, the kinks and the segment ends are the candidates, and one tie
rule picks among them: the cheapest within 1e-10 of the best, then the
smallest alpha0.

The uniform line and the alpha0 = 1 edge do not depend on the budget, so
a Planner analyses each once per point, as a Curve, on first use: the
planners read each budget's optimum off it, the targeted one with a search
of its budget line, and the thresholds read the slack regions off the
uniform curves' peaks.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple

from .model import (
    DEFAULT_SOLVER,
    Allocation,
    ModelParams,
    ParameterError,
    SolverConfig,
    _inspecting_mass,
    _no_rumor_truth,
    _steady_truth,
    _truth_partials,
    _truth_slope,
    eradication_threshold,
    rumor_steady_state,
    truth_steady_state,
)

ROOT_XTOL = 1e-12  # width in alpha1 to which _peak solves a peak: its last Newton step, or its bracket
NEWTON_STEPS = 8  # Newton iterations on a peak before _peak takes a bracketed step
TIE_TOL = 1e-10
SLACK_TOL = 1e-9
EPS = sys.float_info.epsilon
THRESHOLD_RESOLUTION = 1e-6  # narrowest slack region compute_thresholds reports, and its lowest lower edge


def _total(budget: float) -> float:
    A = float(budget)
    if not 0.0 <= A < math.inf:
        raise ParameterError(f"budget must be {'finite' if A > 0.0 else '>= 0'}, got {A}")
    return A


class Thresholds(namedtuple("Thresholds", "alpha_prime lambda_bar eradication_interval A_lower A_upper A_tilde")):
    """Closed-form policy thresholds, and the budget edges read off each curve's peak.

    alpha_prime is the eradication threshold (model.eradication_threshold).
    lambda_bar is 2 + sqrt(2 - 1/(1-x)) where defined (x <= 1/2), else None.
    eradication_interval is the lam range where, at the marginal eradication
    budget, the targeted planner prefers to let the rumor live; it is empty
    (None) iff (4-x)^2 < 12. A_lower/A_upper bound the region of budgets
    where the uniform truth planner leaves slack, A_tilde is where the
    platform stops leaving slack; each is None when there is no region at
    least THRESHOLD_RESOLUTION wide.
    """

    __slots__ = ()


OptResult = namedtuple("OptResult", "allocation objective budget_spent slack rumor_eradicated")


# ---------------------------------------------------------------------------
# the search along segments of policies
# ---------------------------------------------------------------------------

def _objective(p: ModelParams, a: Allocation, platform: bool, cfg: SolverConfig) -> float:
    """theta0 at the policy a, or theta0 + theta1 for the platform, from the scalar solver."""
    truth = truth_steady_state(p, a, cfg)
    return truth + rumor_steady_state(p, a, cfg) if platform else truth


def _peak(lam: float, x: float, slope, direction, kappa: float, lo, end) -> float:
    """The rate in [a, b] at which the slope is 0, to ROOT_XTOL, from slope's (g, u, theta0, alpha0, I) at a and at b.

    It solves G(t, u) = 0 and G_u + kappa*G_t = 0 in (t, u) = (theta0, alpha1): G is the monic truth cubic
    (model._truth_partials), kappa = (1-x)*da1 for the platform and 0 for the truth. theta1, alpha0 and I
    are affine in u, so a Newton step on the pair is float arithmetic from the last solved point; the first
    starts at the secant between the ends. A step that leaves the bracket [a, b], or the root's range
    0 < t < min(s, 1 - theta1), gives way to one bracketed step, a full slope solve at the regula falsi point
    (an end that two such steps keep is scaled as Anderson and Bjorck do), and Newton restarts there.
    """
    (ga, a, t, a0, inspecting), (gb, b, t_b, _, _) = lo, end
    (da0, _, di), v, y, tol = direction, 1.0 / lam, 1.0 - x, 0.5 * ROOT_XTOL
    u0, kept = a, 0  # u0: where alpha0 and I were solved; kept: the end the last bracketed step kept, +1 for b
    while gb != 0.0 and b - a > ROOT_XTOL:
        c = (a * gb - b * ga) / (gb - ga)
        c = c if c == c else 0.5 * (a + b)  # nan from an infinite slope at an end (see _truth_slope): bisect
        u, step = u0, math.inf
        if not kept:  # the first Newton run starts at the secant, t interpolated between the ends
            u, t = c, t + (t_b - t) * (c - a) / (b - a)
        for _ in range(NEWTON_STEPS):
            a0_u, i_u, theta1 = a0 + da0 * (u - u0), inspecting + di * (u - u0), (1.0 - u) * y - v
            if not (a <= u <= b and 0.0 < t < i_u + x * (1.0 - a0_u) and t < 1.0 - theta1):
                break
            if -tol <= step <= tol:
                return u
            g, g_t, g_u, g_tt, g_tu, g_uu = _truth_partials(lam, x, a0_u, i_u, theta1, t, direction)
            h, h_t, h_u = g_u + kappa * g_t, g_tu + kappa * g_tt, g_uu + kappa * g_tu
            det = g_t * h_u - g_u * h_t or math.nan  # a singular step leaves the bracket
            step = (g * h_t - g_t * h) / det
            t, u = t + (g_u * h - g * h_u) / det, u + step
        if kept and abs(c - (a if kept == 1 else b)) <= tol:
            return c  # the step is below ROOT_XTOL/2: converged
        c = min(max(c, a + tol), b - tol)  # a step next to the root crosses it
        gc, u0, t, a0, inspecting = slope(c)
        if gc > 0.0:
            m = 1.0 - gc / ga if kept == 1 else 1.0
            a, ga, gb, kept = c, gc, gb * (m if m > 0.0 else 0.5), 1
        else:
            m = 1.0 - gc / gb if kept == -1 else 1.0
            b, gb, ga, kept = c, gc, ga * (m if m > 0.0 else 0.5), -1
    return b


def _segment_rates(p: ModelParams, lo: float, hi: float, alloc, direction, platform: bool, cfg: SolverConfig):
    """(alloc(u), value) pairs for the rates u in [lo, hi] at which the objective on the segment alloc(u) can peak.

    alloc(u) is the policy at alpha1 = u, and direction its constant
    d(alpha0, alpha1, I)/du. Above the kink, where alpha1 reaches the
    eradication threshold (less cfg.tol, as in the solver), the objective is
    the no-rumor closed form, nondecreasing in alpha1, so it adds only the
    kink and hi. Below it, on the endemic piece, the slope changes sign at
    most once, so the piece peaks inside only when the slope is positive at
    lo and not at its upper end: _peak solves for that peak, by Newton's
    method on the truth cubic and the marginal condition from the two ends
    solved here. These and lo are every place a maximum can sit. value is
    the objective at alloc(u), bit for bit the scalar solver's: the no-rumor
    closed form from the kink on, where the solver takes the rumor as
    extinct, the value a slope solved below it, else None (the peak, which
    _score solves once).
    """
    lam, x = p.lam, p.x
    kink = eradication_threshold(p) - cfg.tol
    rates = [lo, hi] + ([kink] if lo < kink < hi else [])
    end = min(hi, kink)
    solved = {}  # u -> (alloc(u), the objective there) for each rate a slope solved
    if lo < end:
        kappa = (1.0 - x) * direction[1] if platform else 0.0

        def slope(u: float):  # (the objective's slope, u, theta0, alpha0, I) at alloc(u), from a full truth solve
            a0, a1 = a = alloc(u)
            inspecting = a.inspecting_mass(x)
            theta0, theta1 = _steady_truth(lam, x, a0, a1, inspecting, math.inf, cfg)
            solved[u] = a, theta0 + theta1 if platform else theta0
            return _truth_slope(lam, x, a0, inspecting, theta1, theta0, direction) - kappa, u, theta0, a0, inspecting

        ends = slope(lo), slope(end)
        if ends[0][0] > 0.0 >= ends[1][0]:
            rates.append(_peak(lam, x, slope, direction, kappa, *ends))
    pairs = [solved.get(u) or (alloc(u), None) for u in rates]
    return [(a, _no_rumor_truth(lam, x, a.alpha1) if a.alpha1 >= kink else v) for a, v in pairs]


def _score(p: ModelParams, candidates, platform: bool, cfg: SolverConfig) -> list:
    """(allocation, objective) once per allocation of the (allocation, value) candidates; a value of None is solved for."""
    known = {}
    for a, v in candidates:
        if known.get(a) is None:
            known[a] = v
    return [(a, _objective(p, a, platform, cfg) if v is None else v) for a, v in known.items()]


def _pick(scored, x: float):
    """The one tie rule: ((allocation, objective), best objective) of the winner among the scored pairs.

    Among the pairs within TIE_TOL of the best, the cheapest spend wins, to
    within TIE_TOL, then the smallest alpha0.
    """
    top = max(v for _, v in scored)
    near = [(a.inspecting_mass(x), a, v) for a, v in scored if v >= top - TIE_TOL]
    min_spend = min(spend for spend, _, _ in near)
    return min(((a, v) for spend, a, v in near if spend <= min_spend + TIE_TOL), key=lambda av: av[0].alpha0), top


def _result(p: ModelParams, A: float, alloc: Allocation, value: float, cfg: SolverConfig) -> OptResult:
    """The OptResult of a planner's winner alloc, of objective value, at the budget A: slack below min(A, 1)."""
    spend = alloc.inspecting_mass(p.x)
    eradicated = rumor_steady_state(p, alloc, cfg) == 0.0
    return OptResult(alloc, value, spend, slack=spend < min(A, 1.0) - SLACK_TOL, rumor_eradicated=eradicated)


class Curve:
    """The truth, or with platform the truth plus the rumor, on a segment no budget moves, analysed once.

    alloc(u) is the policy at alpha1 = u in [0, 1] and direction its d(alpha0, alpha1, I)/du, by default
    the uniform line's. rates holds, scored, the rates below 1 where _segment_rates finds that the curve
    can peak: 0, the kink (alpha' - cfg.tol) and the endemic piece's peak. peak is the alpha1 that _pick
    names among them, top its value.
    """

    def __init__(self, p: ModelParams, platform: bool, cfg: SolverConfig = DEFAULT_SOLVER,
                 alloc=Allocation.uniform, direction=(1.0, 1.0, 1.0)):
        rates = _segment_rates(p, 0.0, 1.0, alloc, direction, platform, cfg)
        self.p, self.alloc, self.platform, self.cfg = p, alloc, platform, cfg
        self.kink = eradication_threshold(p) - cfg.tol
        self.rates = _score(p, [(a, v) for a, v in rates if a.alpha1 < 1.0], platform, cfg)
        (peak, _), self.top = _pick(self.rates, p.x)
        self.peak = peak.alpha1

    def upto(self, c: float) -> list:
        """The (allocation, value) candidates over [0, c], c <= 1: 0, c where it can win, the rates up to c.

        Below the peak the curve rises, so c competes, unsolved (None); from
        the peak to the kink no rate beats the peak; above the kink, on the
        nondecreasing no-rumor line, c is in closed form. _pick breaks a tie
        in alpha0 by order, so c follows 0, as in _segment_rates.
        """
        p, scored = self.p, [(a, v) for a, v in self.rates if a.alpha1 <= c]
        if 0.0 < c < self.peak:
            scored.insert(1, (self.alloc(c), None))
        elif c > self.kink:
            scored.insert(1, (self.alloc(c), _no_rumor_truth(p.lam, p.x, c)))
        return scored

    def optimum(self, budget: float) -> OptResult:
        """argmax of the curve over [0, min(A, 1)]: _pick among upto(min(A, 1)), scored."""
        A, p = _total(budget), self.p
        return _result(p, A, *_pick(_score(p, self.upto(min(A, 1.0)), self.platform, self.cfg), p.x)[0], self.cfg)

    def slack_region(self) -> tuple[float | None, float | None]:
        """Edges of the budgets at which the curve's optimum leaves slack, or (None, None).

        Budgets from the curve's peak on, but at least THRESHOLD_RESOLUTION, leave slack until the no-rumor
        line climbs TIE_TOL above the peak's value, or up to 1. A narrower region counts as none.
        """
        p, x = self.p, self.p.x
        level = self.top + TIE_TOL
        # at x = 1 the line is flat at the value of the peak at 0, so this divides by no zero
        upper = 1.0 if _no_rumor_truth(p.lam, x, 1.0) <= level else (level - x + 1.0 / p.lam) / (1.0 - x)
        lower = max(self.peak, THRESHOLD_RESOLUTION)
        return (lower, upper) if upper - lower >= THRESHOLD_RESOLUTION else (None, None)


# ---------------------------------------------------------------------------
# the four planning problems
# ---------------------------------------------------------------------------

def minimize_rumor(p: ModelParams, budget: float, cfg: SolverConfig = DEFAULT_SOLVER) -> OptResult:
    """Cheapest uniform rate that minimizes rumor prevalence.

    The rumor counts as extinct from alpha' - cfg.tol on (alpha' the
    eradication threshold), so spending beyond that buys nothing and the
    optimum is min(A, max(0, alpha' - cfg.tol)).
    """
    A = _total(budget)
    alloc = Allocation.uniform(min(A, max(0.0, eradication_threshold(p) - cfg.tol)))
    return _result(p, A, alloc, rumor_steady_state(p, alloc, cfg), cfg)


def _binding_alpha0(A: float, x: float, a1: float) -> float:
    """alpha0 that binds the budget at alpha1 = a1: 0 or 1 exactly where the rest is 0 or x up to rounding (eps*A)."""
    rest = A - (1.0 - x) * a1
    return 0.0 if rest <= 4.0 * EPS * A else 1.0 if rest >= x - 4.0 * EPS * A else rest / x


def _fit(A: float, x: float, a0: float, a1: float) -> Allocation:
    """(a0, a1), the rate of the larger of x*a0 and (1-x)*a1 stepped down by ulps while the spend rounds above A."""
    while x * a0 + (1.0 - x) * a1 > A and _inspecting_mass(x, a0, a1) > A:  # the sum unless the rates are equal
        a0, a1 = (math.nextafter(a0, 0.0), a1) if x * a0 >= (1.0 - x) * a1 else (a0, math.nextafter(a1, 0.0))
    return Allocation(a0, a1)


class Planner:
    """The planners and the thresholds at the point p, reading what no budget moves off one analysis of it.

    truth and platform are the uniform curves, edge the targeted planner's alpha0 = 1 edge over alpha1 in [0, 1],
    corners its eradicating policies scored so far: (0, 0), and (0, 1) once a budget reaches 1 - x. Each is
    analysed on its first use, so a point analyses what its budgets and thresholds read, and nothing twice.
    """

    def __init__(self, p: ModelParams, cfg: SolverConfig = DEFAULT_SOLVER):
        self.p, self.cfg = p, cfg

    truth = functools.cached_property(lambda self: Curve(self.p, False, self.cfg))
    platform = functools.cached_property(lambda self: Curve(self.p, True, self.cfg))

    @functools.cached_property
    def edge(self) -> Curve:  # at x = 0 it runs at alpha0 = 0
        x = self.p.x
        return Curve(self.p, False, self.cfg, lambda a1: Allocation.targeted(float(x > 0.0), a1), (0.0, 1.0, 1.0 - x))

    corners = functools.cached_property(lambda self: _score(self.p, [(Allocation(0.0, 0.0), None)], False, self.cfg))

    def optimum(self, objective: str, budget: float) -> OptResult:
        """The OptResult at the budget of the objective's planner: rumor-min, truth, truth-targeted or platform.

        The targeted planner: raising alpha0 at a fixed alpha1 weakly helps,
        as it moves type-0 mass from the truth-only term of the fixed-point
        map into inspection, which responds to total prevalence. So its
        optimum lies on the budget line, searched per budget, or once A > x
        on the edge below it, alpha1 in [0, (A-x)/(1-x)]. Once the rumor is
        extinct alpha0 is worthless, so the corners (0, 0) and, from A = 1-x
        on, (0, 1) compete too; _pick chooses. At x = 0 the line is the point
        (0, A) and the edge runs at alpha0 = 0; at x = 1 only (0, 0) is left.
        """
        if objective in ("truth", "platform"):
            return getattr(self, objective).optimum(budget)
        if objective == "rumor-min":
            return minimize_rumor(self.p, budget, self.cfg)
        if objective != "truth-targeted":
            raise ParameterError(f"unknown objective {objective!r}")
        p, x, cfg, A = self.p, self.p.x, self.cfg, _total(budget)
        if x < 1.0 and A >= 1.0 - x and len(self.corners) == 1:  # (0, 1) is scored once a budget reaches it
            self.corners += _score(p, [(Allocation(0.0, 1.0), None)], False, cfg)
        candidates = self.corners[:1 + (A >= 1.0 - x)]
        if 0.0 < A and x < 1.0:
            lo, hi = max(0.0, (A - x) / (1.0 - x)), min(1.0, A / (1.0 - x))
            while lo > 0.0 and x + (1.0 - x) * lo > A and _inspecting_mass(x, 1.0, lo) > A:  # as in _fit
                lo = math.nextafter(lo, 0.0)  # so the line's start, the edge's end, spends at most A
            if lo <= hi:  # at x = 0, lo = hi: the direction is never read
                line = (-(1.0 - x) / x if x else 0.0, 1.0, 0.0)
                candidates += _segment_rates(
                    p, lo, hi, lambda a1: _fit(A, x, _binding_alpha0(A, x, a1), a1), line, False, cfg)
            if A > x:
                candidates += self.edge.upto(min(1.0, lo))
        return _result(p, A, *_pick(_score(p, candidates, False, cfg), x)[0], cfg)

    def thresholds(self) -> Thresholds:
        """The threshold bundle: alpha', lambda_bar and the eradication interval in closed form, then the slack regions.

        A_lower / A_upper bracket the budgets at which the uniform truth
        planner reports slack; A_tilde is the top of the analogous region for
        the platform objective. All three are None when the corresponding
        slack region is narrower than THRESHOLD_RESOLUTION; budgets above 1
        buy nothing more. Curve.slack_region reads the edges off each uniform
        curve's peak with no optimizer call.
        """
        x = self.p.x
        radicand = 2.0 - 1.0 / (1.0 - x) if x < 1.0 else -1.0
        disc = (4.0 - x) ** 2 - 12.0
        root = math.sqrt(disc) if disc >= 0.0 else None
        a_lower, a_upper = self.truth.slack_region()
        return Thresholds(
            alpha_prime=eradication_threshold(self.p), lambda_bar=2.0 + math.sqrt(radicand) if radicand >= 0.0 else None,
            eradication_interval=None if root is None else ((4.0 - x - root) / 2.0, (4.0 - x + root) / 2.0),
            A_lower=a_lower, A_upper=a_upper, A_tilde=self.platform.slack_region()[1])


def maximize_truth_uniform(p: ModelParams, budget: float, cfg: SolverConfig = DEFAULT_SOLVER) -> OptResult:
    """argmax of truth prevalence over uniform alpha in [0, min(A, 1)]; see Curve."""
    return Planner(p, cfg).optimum("truth", budget)


def maximize_platform(p: ModelParams, budget: float, cfg: SolverConfig = DEFAULT_SOLVER) -> OptResult:
    """Same as maximize_truth_uniform, but the objective is theta0 + theta1."""
    return Planner(p, cfg).optimum("platform", budget)


def maximize_truth_targeted(p: ModelParams, budget: float, cfg: SolverConfig = DEFAULT_SOLVER) -> OptResult:
    """argmax of truth prevalence over per-type rates under the budget; see Planner.optimum."""
    return Planner(p, cfg).optimum("truth-targeted", budget)


def compute_thresholds(p: ModelParams, cfg: SolverConfig = DEFAULT_SOLVER) -> Thresholds:
    """The threshold bundle at p; see Planner.thresholds."""
    return Planner(p, cfg).thresholds()
