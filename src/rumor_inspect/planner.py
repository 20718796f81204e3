"""Budgeted optimization of inspection rates.

Four problems are covered, all under the budget x*alpha0 + (1-x)*alpha1 <= A
with unit inspection cost:

  * minimize_rumor          -- drive the rumor down with a uniform rate
  * maximize_truth_uniform  -- maximize truth prevalence, one shared rate
  * maximize_truth_targeted -- maximize truth prevalence, per-type rates
  * maximize_platform       -- maximize total prevalence, one shared rate

The three maximizers search, by _segment_rates, segments of policies on which
alpha1 moves: the uniform line, the targeted budget line and its alpha0 = 1
edge. Each splits at the kink where alpha1 reaches the eradication threshold:
above it the rumor is extinct and the objective is the no-rumor closed form,
nondecreasing in alpha1. Below it a peak solves the truth cubic and the
paper's marginal condition in (theta0, alpha1); eliminating theta0 leaves a
polynomial in y = (1-x)(1-alpha1) (scripts/peak_algebra.py) of degree 3 for
the truth and 4 for the platform on the uniform line, 2 on the budget line and
1 on the edge. On the targeted segments every real root in the endemic piece
is scored (_polynomial_peaks). On the uniform line float roots are too
inaccurate; there the slope (model._truth_slope) changed sign at most once per
endemic piece over 30,000 random draws (lam up to 1000, any x), and Newton's
method solves the one peak (_uniform_peak); when it leaves the bracket, a slope
solve at the midpoint halves the bracket and Newton restarts there (_peak).
One tie rule picks among the candidates: the cheapest within 1e-10 of the
best, then the smallest alpha0.

No budget moves the uniform line or the edge, so a Planner analyses each
once per point, on first use; the targeted planner searches its budget line
per budget, and the thresholds read the slack regions off the uniform peaks.
A Planner holds its point's lam, x, alpha' and kink for the helpers below,
and solves the uniform line's ends, 0 and the kink, once for both its curves.
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
    _rumor_level,
    _steady_truth,
    _truth_partials,
    _truth_slope,
    eradication_threshold,
)

ROOT_XTOL = 1e-12  # width in alpha1 to which _peak solves a peak: its last Newton step, or its bracket
NEWTON_STEPS = 8  # Newton iterations on a peak before _peak halves its bracket with a full slope solve
TIE_TOL = 1e-10
SLACK_TOL = 1e-9
EPS = sys.float_info.epsilon
THRESHOLD_RESOLUTION = 1e-6  # narrowest slack region compute_thresholds reports, and its lowest lower edge


def _total(budget: float) -> float:
    A = float(budget) + 0.0  # -0.0 + 0.0 is 0.0, and any other budget is unchanged
    if not 0.0 <= A < math.inf:
        raise ParameterError(f"budget must be {'finite' if A > 0.0 else '>= 0'}, got {A}")
    return A


class Thresholds(namedtuple("Thresholds", "alpha_prime lambda_bar eradication_interval A_lower A_upper A_tilde")):
    """Closed-form policy thresholds, and the budget edges read off each curve's peak.

    alpha_prime is the eradication threshold (model.eradication_threshold). lambda_bar is 2 + sqrt(2 - 1/(1-x))
    where defined (x <= 1/2), else None. eradication_interval is the lam range where, at the marginal eradication
    budget, the targeted planner prefers to let the rumor live; it is empty (None) iff (4-x)^2 < 12. Its lower end
    never binds: interval_lo * (1-x) <= 1 wherever it exists, with equality only at x = 0, so at lam <= interval_lo
    the marginal budget 1 - x - 1/lam is not positive. A_lower/A_upper bound the region of budgets where the
    uniform truth planner leaves slack, A_tilde is where the platform stops leaving slack; each is None when there
    is no region at least THRESHOLD_RESOLUTION wide.
    """

    __slots__ = ()


OptResult = namedtuple("OptResult", "allocation objective budget_spent slack rumor_eradicated")


# ---------------------------------------------------------------------------
# the search along segments of policies
# ---------------------------------------------------------------------------

def _objective(plan: Planner, a: Allocation, platform: bool) -> float:
    """theta0 at the policy a, or theta0 + theta1 for the platform, from one scalar solve at plan's point."""
    theta0, theta1 = _steady_truth(plan._lam, plan._x, *a, _inspecting_mass(plan._x, *a), plan._cutoff, plan.cfg)
    return theta0 + theta1 if platform else theta0


def _peak(lam: float, x: float, slope, kappa: float, a: float, b: float) -> float:
    """The rate in [a, b] where the uniform line's slope is 0, to ROOT_XTOL; slope(u) is (the slope, theta0) at u.

    It solves G(t, u) = 0 and G_u + kappa*G_t = 0 in (t, u) = (theta0, alpha) by Newton's method from the secant
    between the ends: G is the monic truth cubic (model._truth_partials), kappa = 1-x for the platform and 0 for
    the truth. A step that leaves the bracket [a, b] is halved. One that still leaves it, or leaves the root's
    range 0 < t < min(s, 1 - theta1), or a run of NEWTON_STEPS that does not converge, gives way to a full slope
    solve at the bracket's midpoint, as in model._truth_given_rumor: it halves the bracket, and Newton restarts
    there. So past the ends a peak takes at most ceil(log2((b - a) / ROOT_XTOL)) full truth solves.
    """
    (ga, t), (gb, t_b) = slope(a), slope(b)
    v, y, tol = 1.0 / lam, 1.0 - x, 0.5 * ROOT_XTOL
    u = (a * gb - b * ga) / (gb - ga)
    u = u if u == u else 0.5 * (a + b)  # nan from an infinite slope at an end (see _truth_slope): bisect
    t += (t_b - t) * (u - a) / (b - a)  # the first Newton run starts at the secant, t interpolated between the ends
    while gb != 0.0 and b - a > ROOT_XTOL:
        step = math.inf
        for _ in range(NEWTON_STEPS):
            theta1 = (1.0 - u) * y - v
            if not (a <= u <= b and 0.0 < t < u + x * (1.0 - u) and t < 1.0 - theta1):
                break
            if -tol <= step <= tol:
                return u
            g, g_t, g_u, g_tt, g_tu, g_uu = _truth_partials(lam, x, u, u, theta1, t, (1.0, 1.0, 1.0))
            h, h_t, h_u = g_u + kappa * g_t, g_tu + kappa * g_tt, g_uu + kappa * g_tu
            det = g_t * h_u - g_u * h_t or math.nan  # a singular step leaves the bracket
            step = (g * h_t - g_t * h) / det
            m = 1.0 if a <= u + step <= b else 0.5  # a step past the bracket is halved, once
            t, u = t + m * (g_u * h - g * h_u) / det, u + m * step
        u = 0.5 * (a + b)
        g, t = slope(u)
        a, b, gb = (u, b, gb) if g > 0.0 else (a, u, g)
    return b


def _segment_rates(plan: Planner, lo: float, hi: float, alloc, interior):
    """(alloc(u), value) pairs for the rates u in [lo, hi] at which the objective on a segment of policies can peak.

    alloc(u) is the policy at alpha1 = u. The rates are lo, hi, plan's kink (alpha' - tol, as in the solver) and,
    if the endemic piece [lo, end], end = min(hi, kink), is not empty, the rates inside it: interior(lo, end) gives
    the piece's (u, value) pairs, lo's and end's first. value is the objective as the scalar solver gives it: the
    no-rumor closed form from the kink on, else interior's value or None, which _score solves.
    """
    lam, x, kink = plan._lam, plan._x, plan._kink
    end = min(hi, kink)
    rates = interior(lo, end) if lo < end else [(lo, None), (hi, None)]
    if lo < end < hi:  # end is the kink
        rates.insert(1, (hi, None))
    return [(a, _no_rumor_truth(lam, x, a.alpha1) if a.alpha1 >= kink else v) for u, v in rates for a in [alloc(u)]]


def _uniform_peak(plan: Planner, platform: bool, lo: float, end: float) -> list:
    """(u, value) at lo, at end and, if the uniform line's slope is positive at lo and not at end, at the peak _peak
    solves from those two ends. value is the objective from plan's shared slope solve at u, else None."""
    lam, x, cfg, solves = plan._lam, plan._x, plan.cfg, plan._solves
    kappa = 1.0 - x if platform else 0.0

    def slope(u: float):  # (the objective's slope, theta0) at alpha = u, from a full truth solve
        if u not in solves:
            theta0, theta1 = _steady_truth(lam, x, u, u, u, math.inf, cfg)
            solves[u] = theta0, theta1, _truth_slope(lam, x, u, u, theta1, theta0, (1.0, 1.0, 1.0))
        theta0, _, g = solves[u]
        return g - kappa, theta0

    (g_lo, _), (g_end, _) = slope(lo), slope(end)
    rates = [lo, end] + ([_peak(lam, x, slope, kappa, lo, end)] if g_lo > 0.0 >= g_end else [])
    return [(u, None if s is None else s[0] + s[1] if platform else s[0]) for u in rates for s in [solves.get(u)]]


def _line_polynomial(A: float, v: float):
    """(a, b, c, b^2 - 4ac) of the budget line's quadratic peak polynomial in y at the budget A, with w = 1 - v.

    The discriminant is factored, 4v(A + 2v - 1)(w^2 - 2Av)^2: where the square vanishes a peak is a double root,
    at which b^2 - 4ac can round below 0 (to -1.4e-16 at lam = 2.5, x = 0.1, A = 0.45)."""
    w = 1.0 - v
    return (w * w - 4.0 * A * v, 2.0 * v * (7.0 * A * v - A - w * w),
            v * (A * (A * v - 11.0 * v * v + 4.0 * v - 1.0) + w * w * w),
            4.0 * v * (A + 2.0 * v - 1.0) * (w * w - 2.0 * A * v) ** 2)


def _polynomial_peaks(x: float, lo: float, end: float, a: float, b: float, c: float, disc: float) -> list:
    """(u, None) for lo, end and each real root in (lo, end) of a targeted segment's peak polynomial a*y^2 + b*y + c
    in y = (1-x)(1-u), of discriminant disc: the roots q/a and c/q, with q free of cancellation."""
    if disc < 0.0:
        return [(lo, None), (end, None)]
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    roots = ([q / a] if a else []) + ([c / q] if q else [])
    return [(lo, None), (end, None)] + [(u, None) for u in (1.0 - y / (1.0 - x) for y in roots) if lo < u < end]


def _score(plan: Planner, candidates, platform: bool) -> list:
    """(allocation, objective) once per allocation of the (allocation, value) candidates; a value of None is solved for."""
    known = {}
    for a, v in candidates:
        if known.get(a) is None:
            known[a] = v
    return [(a, _objective(plan, a, platform) if v is None else v) for a, v in known.items()]


def _pick(scored, x: float):
    """The one tie rule: ((allocation, objective, spend), best objective) of the winner among the scored pairs.

    Among the pairs within TIE_TOL of the best, the cheapest spend wins, to
    within TIE_TOL, then the smallest alpha0, the first of equals.
    """
    top = max([v for _, v in scored])
    near, least = [], math.inf
    for a, v in scored:
        if v >= top - TIE_TOL:
            spend = _inspecting_mass(x, *a)
            near.append((a, v, spend))
            least = spend if spend < least else least
    cap, win = least + TIE_TOL, None
    for a, v, spend in near:
        if spend <= cap and (win is None or a.alpha0 < win[0].alpha0):
            win = a, v, spend
    return win, top


def _result(plan: Planner, A: float, alloc: Allocation, value: float, spend: float) -> OptResult:
    """The OptResult of the winner alloc, of objective value and spend, at the budget A: slack below min(A, 1)."""
    eradicated = _rumor_level(plan._lam, plan._x, alloc.alpha1, plan._cutoff, plan.cfg) == 0.0
    return OptResult(alloc, value, spend, spend < min(A, 1.0) - SLACK_TOL, eradicated)


# ---------------------------------------------------------------------------
# the four planning problems
# ---------------------------------------------------------------------------

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

    It holds the point's constants, read once: lam, x, the eradication threshold alpha' and the kink alpha' - tol.
    truth and platform are (rates, peak, top) of the uniform line below 1: the rates where _segment_rates finds that
    the objective can peak, scored, the one _pick names among them and its value. They share their slope solves,
    so the line's ends, 0 and the kink, are solved once for both. edge holds the scored rates of the alpha0 = 1
    edge over alpha1 in [0, 1]. Each is analysed on first use, so a point analyses what it reads, once.
    """

    def __init__(self, p: ModelParams, cfg: SolverConfig = DEFAULT_SOLVER):
        self.p, self.cfg, self._lam, self._x = p, cfg, p.lam, p.x
        self._cutoff = eradication_threshold(p)  # alpha', the rumor's cutoff
        self._kink = self._cutoff - cfg.tol
        self._solves = {}  # u -> (theta0, theta1, the truth's slope) on the uniform line, shared by both curves

    truth = functools.cached_property(lambda self: self._line(False))
    platform = functools.cached_property(lambda self: self._line(True))

    def _line(self, platform: bool) -> tuple:
        rates = _segment_rates(self, 0.0, 1.0, Allocation.uniform, functools.partial(_uniform_peak, self, platform))
        rates = _score(self, [(a, v) for a, v in rates if a.alpha1 < 1.0], platform)
        (peak, _, _), top = _pick(rates, self._x)
        return rates, peak.alpha1, top

    @functools.cached_property
    def edge(self) -> list:  # at x = 0 it runs at alpha0 = 0
        x, alpha0, v = self._x, float(self._x > 0.0), 1.0 / self._lam
        # its peak polynomial is linear, 4v*y + 1 - v*(4 + v), of discriminant (4v)^2
        rates = _segment_rates(self, 0.0, 1.0, lambda a1: Allocation(alpha0, a1), lambda lo, end: _polynomial_peaks(
            x, lo, end, 0.0, 4.0 * v, 1.0 - v * (4.0 + v), 16.0 * v * v))
        return _score(self, rates, False)

    def optimum(self, objective: str, budget: float) -> OptResult:
        """The OptResult at the budget of the objective's planner: rumor-min, truth, truth-targeted or platform.

        rumor-min: the rumor is extinct from the kink alpha' - cfg.tol on, so the optimum is min(A, max(0, kink)).

        A uniform planner's candidates over [0, c], c = min(A, 1), are 0, c where it can win and the line's rates
        up to c. Below the peak the line rises, so c competes, unsolved; from the peak to the kink no rate beats the
        peak; above the kink, on the no-rumor line, c is in closed form, after 0 as in _segment_rates.

        The targeted planner: raising alpha0 at a fixed alpha1 weakly helps (it moves type-0 mass from the
        truth-only term of the fixed-point map into inspection), so its optimum lies on the budget line, or once
        A > x on the edge below it, alpha1 in [0, (A-x)/(1-x)], whose end the line scores. Once the rumor is extinct
        alpha0 is worthless, so (0, 0) and, from A = 1-x on, (0, 1) compete too, in closed form: nobody inspects at
        the first, the rumor is extinct at the second. At x = 0 the line is the point (0, A) and the edge runs at
        alpha0 = 0; at x = 1 only (0, 0) is left.
        """
        lam, x, A = self._lam, self._x, _total(budget)
        if objective == "rumor-min":
            alloc = Allocation.uniform(min(A, max(0.0, self._kink)))  # a uniform rate spends itself
            return _result(self, A, alloc, _rumor_level(lam, x, alloc.alpha1, self._cutoff, self.cfg), alloc.alpha1)
        if objective in ("truth", "platform"):
            rates, peak, _ = getattr(self, objective)
            c = min(A, 1.0)
            candidates = [(a, v) for a, v in rates if a.alpha1 <= c]
            if 0.0 < c < peak:
                candidates.insert(1, (Allocation.uniform(c), None))
            elif c > self._kink:
                candidates.insert(1, (Allocation.uniform(c), _no_rumor_truth(lam, x, c)))
        elif objective == "truth-targeted":
            corners = (0.0, 1.0) if x < 1.0 and A >= 1.0 - x else (0.0,)
            candidates = [(Allocation(0.0, a1), _no_rumor_truth(lam, x, a1)) for a1 in corners]
            if 0.0 < A and x < 1.0:
                lo, hi = max(0.0, (A - x) / (1.0 - x)), min(1.0, A / (1.0 - x))
                while lo > 0.0 and x + (1.0 - x) * lo > A and _inspecting_mass(x, 1.0, lo) > A:  # as in _fit
                    lo = math.nextafter(lo, 0.0)  # so the line's start, the edge's end, spends at most A
                if lo <= hi:
                    candidates += _segment_rates(
                        self, lo, hi, lambda a1: _fit(A, x, _binding_alpha0(A, x, a1), a1),
                        lambda lo, end: _polynomial_peaks(x, lo, end, *_line_polynomial(A, 1.0 / lam)))
                if A > x:
                    candidates += [(a, v) for a, v in self.edge if a.alpha1 <= lo]
        else:
            raise ParameterError(f"unknown objective {objective!r}")
        return _result(self, A, *_pick(_score(self, candidates, objective == "platform"), x)[0])

    def slack_region(self, objective: str) -> tuple[float | None, float | None]:
        """Edges of the budgets at which the uniform objective's optimum leaves slack, or (None, None).

        Budgets from its line's peak on, but at least THRESHOLD_RESOLUTION, leave slack until the no-rumor line
        climbs TIE_TOL above the peak's value, or up to 1. A narrower region counts as none.
        """
        (_, peak, top), lam, x = getattr(self, objective), self._lam, self._x
        level = top + TIE_TOL
        # at x = 1 the line is flat at the value of the peak at 0, so this divides by no zero
        upper = 1.0 if _no_rumor_truth(lam, x, 1.0) <= level else (level - x + 1.0 / lam) / (1.0 - x)
        lower = max(peak, THRESHOLD_RESOLUTION)
        return (lower, upper) if upper - lower >= THRESHOLD_RESOLUTION else (None, None)

    def thresholds(self) -> Thresholds:
        """The Thresholds: alpha', lambda_bar and the eradication interval in closed form, then the slack regions,
        which slack_region reads off each uniform line's peak with no optimizer call."""
        x = self._x
        radicand = 2.0 - 1.0 / (1.0 - x) if x < 1.0 else -1.0
        disc = (4.0 - x) ** 2 - 12.0
        root = math.sqrt(disc) if disc >= 0.0 else None
        a_lower, a_upper = self.slack_region("truth")
        return Thresholds(
            alpha_prime=self._cutoff, lambda_bar=2.0 + math.sqrt(radicand) if radicand >= 0.0 else None,
            eradication_interval=None if root is None else ((4.0 - x - root) / 2.0, (4.0 - x + root) / 2.0),
            A_lower=a_lower, A_upper=a_upper, A_tilde=self.slack_region("platform")[1])


def minimize_rumor(p: ModelParams, budget: float, cfg: SolverConfig = DEFAULT_SOLVER) -> OptResult:
    """Cheapest uniform rate that minimizes rumor prevalence; see Planner.optimum."""
    return Planner(p, cfg).optimum("rumor-min", budget)


def maximize_truth_uniform(p: ModelParams, budget: float, cfg: SolverConfig = DEFAULT_SOLVER) -> OptResult:
    """argmax of truth prevalence over uniform alpha in [0, min(A, 1)]; see Planner.optimum."""
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
