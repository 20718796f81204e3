"""Closed forms and fixed-point solvers for the two-message contagion model.

Two contradictory messages spread by word of mouth in a well-mixed
population: message 0 (the truth) and message 1 (the rumor). A mass x of
agents is biased toward the truth, the remaining 1 - x toward the rumor.
Biased agents ignore the discordant message unless they inspect it, in
which case they learn, believe, and pass on the truth no matter which
message reached them. Believers are replaced by susceptibles at rate delta;
each agent has k meetings per period and transmits per contact at rate nu.

With the diffusion rate lam = nu * k / delta, the group-level believing
fractions at a steady state are

    rho_a    = lam * theta  / (1 + lam * theta)     inspectors, either type
    rho_0_na = lam * theta0 / (1 + lam * theta0)    non-inspecting type 0
    rho_1_na = lam * theta1 / (1 + lam * theta1)    non-inspecting type 1

where theta0 / theta1 are the population prevalences of truth / rumor and
theta = theta0 + theta1. The rumor has the closed form

    theta1 = max(0, (1 - alpha1) * (1 - x) - 1/lam)

while the truth prevalence solves the scalar fixed point

    theta0 = I * lam * theta / (1 + lam * theta) + x * (1 - alpha0) * lam * theta0 / (1 + lam * theta0)

with I the inspecting mass x*alpha0 + (1-x)*alpha1: inspectors turn either
message into truth and so respond to the total prevalence, while
non-inspecting truth-biased agents respond to the truth alone. The map is
strictly concave in theta0 and hence has a unique positive fixed point
whenever one exists. Clearing its two denominators and dividing by lam^2
turns the fixed point into a monic cubic in theta0 with a single positive
root; it is found by a safeguarded Newton iteration.

One rule says where the rumor is extinct, for every reported theta1, the
truth solve and the planners: from alpha1 = alpha' - tol on, with alpha'
the eradication threshold and tol the solver tolerance. In the band
[alpha' - tol, alpha') the closed form leaves at most (1-x)*tol of rumor,
where the truth fixed point is nearly degenerate.

The steady-state code is written once over lam, x and the rates, each a
plain float or a numpy array: with floats it solves one policy (the public
functions below), and with arrays it solves a planner's policy grid or a
whole CLI sweep along alpha, lambda or x in one batch, equal entry by entry
to the single solves, bit for bit.
"""

from __future__ import annotations

import math
from collections import namedtuple


class ParameterError(ValueError):
    """A model parameter, rate, or state left its admissible domain."""


class SolverError(RuntimeError):
    """A fixed-point solve failed; ``bracket`` holds the last sign bracket of the root."""

    def __init__(self, message: str, bracket: tuple[float, float] | None = None):
        super().__init__(message)
        self.bracket = bracket


# dynamics raises IntegratorError and seeds its runs at DEFAULT_SEED_LEVEL. Both live here, so that the CLI
# catches the error and sets its --init default without loading dynamics.
class IntegratorError(RuntimeError):
    """The error tolerance or the step size underflowed, or MAX_STEPS steps were attempted before the run ended."""


DEFAULT_SEED_LEVEL = 1e-3  # "small initial infection" in every live group


class ModelParams(namedtuple("ModelParams", "nu k delta x")):
    """Exogenous model constants.

    The diffusion rate ``lam`` is derived, never stored, so
    lam == nu * k / delta holds exactly for every instance. Build from raw
    rates with the constructor, or from a diffusion rate with
    :meth:`from_lambda` (its canonical delta = 0.5, k = 1 make the round trip
    bit-exact).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace runs the checks too

    def __new__(cls, nu: float, k: float, delta: float, x: float) -> ModelParams:
        self = tuple.__new__(cls, (nu, k, delta, x))
        if not all(0.0 < r < math.inf for r in (nu, k, delta)):
            raise ParameterError(f"nu, k, delta must be finite and strictly positive, got {(nu, k, delta)}")
        if not 0.0 <= x <= 1.0:
            raise ParameterError(f"x must lie in [0, 1], got {x}")
        if not 0.0 < self.lam < math.inf:
            raise ParameterError(f"lam = nu * k / delta must be finite and strictly positive, got {self.lam}")
        return self

    @property
    def lam(self) -> float:
        """Diffusion rate nu * k / delta."""
        return self.nu * self.k / self.delta

    @classmethod
    def from_lambda(cls, lam: float, x: float) -> ModelParams:
        if not lam > 0.0:
            raise ParameterError(f"lam must be strictly positive, got {lam}")
        return cls(nu=lam * 0.5, k=1.0, delta=0.5, x=x)


class Allocation(namedtuple("Allocation", "alpha0 alpha1")):
    """An inspection policy: one rate per type, alpha0 for truth-biased and alpha1 for rumor-biased agents.

    A uniform policy is the pair of two equal rates; it spends exactly its rate.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace runs the checks too

    def __new__(cls, alpha0: float, alpha1: float) -> Allocation:
        for name, v in (("alpha0", alpha0), ("alpha1", alpha1)):
            if not 0.0 <= v <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1], got {v}")
        return tuple.__new__(cls, (alpha0, alpha1))

    @classmethod
    def uniform(cls, alpha: float) -> Allocation:
        return cls(alpha, alpha)

    @classmethod
    def targeted(cls, alpha0: float, alpha1: float) -> Allocation:
        return cls(alpha0, alpha1)

    def rates(self) -> tuple[float, float]:
        return (self.alpha0, self.alpha1)

    def inspecting_mass(self, x: float) -> float:
        """Population mass that inspects messages (also the budget spend); see _inspecting_mass."""
        return _inspecting_mass(x, self.alpha0, self.alpha1)


MAX_ITER = 200  # Newton iterations before a truth solve raises SolverError


class SolverConfig(namedtuple("SolverConfig", "tol")):
    """Settings of the truth root solver.

    A root is accepted once the last step or the sign bracket around it is at
    most ``tol`` wide, or the bracket holds no float strictly inside; after
    MAX_ITER iterations without that, the solve raises SolverError. The
    rumor counts as extinct from ``tol`` below the eradication threshold on.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace runs the checks too

    def __new__(cls, tol: float = 1e-12) -> SolverConfig:
        if not 0.0 < tol < math.inf:
            raise ParameterError(f"tol must be finite and positive, got {tol}")
        return tuple.__new__(cls, (tol,))


DEFAULT_SOLVER = SolverConfig()


class SteadyState(namedtuple("SteadyState", "theta0 theta1 theta rho_00_a rho_10_a rho_00_na rho_11_na")):
    """Solved prevalence bundle; ``theta == theta0 + theta1`` by construction.

    rho_00_a, rho_10_a and rho_00_na are the believing-truth fractions among inspecting type-0, inspecting
    type-1 and non-inspecting type-0 agents; rho_11_na is the believing-rumor fraction among non-inspecting
    type-1 agents.
    """

    __slots__ = ()


class _FloatOps:
    """Stands in for numpy in the shared steady-state code, so that single solves stay in plain float arithmetic."""

    maximum = max
    minimum = min
    all = bool

    @staticmethod
    def where(cond, a, b):
        return a if cond else b


def _inspecting_mass(x, a0, a1, ops=_FloatOps):
    """Inspecting mass x*alpha0 + (1-x)*alpha1, and exactly the rate where alpha0 == alpha1.

    Equal rates spend their rate, with none of the rounding of the weighted sum.
    """
    return ops.where(a0 == a1, a0, x * a0 + (1.0 - x) * a1)


def _eradication_level(lam, x, ops=_FloatOps):
    """Eradication threshold max(0, 1 - 1/(lam*(1-x))), written so that x = 1 divides by no zero."""
    return 1.0 - 1.0 / ops.maximum(lam * (1.0 - x), 1.0)


def _rumor_level(lam, x, a1, cutoff, cfg: SolverConfig, ops=_FloatOps):
    """Rumor closed form max(0, (1 - alpha1)*(1 - x) - 1/lam), and 0 wherever alpha1 >= cutoff - cfg.tol."""
    return ops.where(a1 >= cutoff - cfg.tol, 0.0, ops.maximum(0.0, (1.0 - a1) * (1.0 - x) - 1.0 / lam))


def _no_rumor_truth(lam, x, a1, ops=_FloatOps):
    """Truth closed form max(0, x + (1-x)*alpha1 - 1/lam) for an extinct rumor or an empty inspecting mass."""
    return ops.maximum(0.0, x + (1.0 - x) * a1 - 1.0 / lam)


def _truth_cubic(v, theta1, inspecting, s):
    """Coefficients (c2, c1, c0) of the monic truth cubic t^3 + c2 t^2 + c1 t + c0, with v = 1/lam.

    Clearing the denominators of the truth fixed point gives, with
    inspecting mass I and s = I + x*(1-alpha0), the cubic in t = theta0

        lam^2 t^3 + lam(2 + lam*theta1 - lam*s) t^2 + (1 + lam*theta1)(1 - lam*s) t - I*lam*theta1

    with one positive root. Divided by lam^2 it is monic, so lam^2 cannot
    overflow. A root is only sought where theta1 > 0, which needs lam > 1.
    """
    return 2.0 * v + theta1 - s, (v + theta1) * (v - s), -inspecting * theta1 * v


def _truth_given_rumor(lam, x, a0, a1, inspecting, theta1, cap, cfg: SolverConfig, ops=_FloatOps):
    """theta0 at the rumor level theta1: for floats or, with ops=numpy, elementwise on arrays.

    Any of lam, x, the rates, the inspecting mass, theta1 and cap may be an
    array; they broadcast, and each entry takes the steps a float solve of it
    would take, so a batch equals its entries solved one by one, bit for bit.
    With no rumor or nobody inspecting, theta0 is the no-rumor closed form
    (an empty inspecting mass forces (1-x)*alpha1 = 0, so the no-mass root
    max(0, x - 1/lam) is the same expression). Otherwise the map stays
    below s = I + x*(1-alpha0), so the cubic's root lies in (0, min(s, cap))
    for a caller-known bound cap. Newton steps start at the upper end and
    keep a sign bracket, bisecting when a step would leave it or the slope
    is not positive. Where the constant -I*theta1/lam underflows to 0 and
    no coefficient is negative, 0 is the cubic's only root in [0, hi]: the
    solve returns it at once, since Newton steps onto 0 leave the bracket
    and bisection takes about a thousand halvings to reach it. Entries that
    are settled from the start may carry inf or nan coefficients (1/lam
    overflows at a subnormal lam); their steps are masked. A solve that
    does not settle raises SolverError for the first open entry.
    """
    closed = _no_rumor_truth(lam, x, a1, ops)
    settled = (theta1 <= 0.0) | (inspecting <= 0.0)
    if ops.all(settled):
        return closed
    where = ops.where
    s = inspecting + x * (1.0 - a0)
    c2, c1, c0 = _truth_cubic(1.0 / lam, theta1, inspecting, s)
    hi = ops.minimum(s, cap)
    lo = 0.0 * hi
    zero = (c0 == 0.0) & (c1 >= 0.0) & (c2 >= 0.0)
    t = where(zero, lo, hi)
    done = settled | zero
    tol = cfg.tol
    for _ in range(MAX_ITER):
        f = ((t + c2) * t + c1) * t + c0
        df = (3.0 * t + 2.0 * c2) * t + c1
        above = f > 0.0
        lo = where(above, lo, t)
        hi = where(above, t, hi)
        rising = df > 0.0
        mid = 0.5 * (lo + hi)
        new = t - f / where(rising, df, 1.0)
        new = where(rising & (new >= lo) & (new <= hi), new, mid)
        stop = (abs(new - t) <= tol) | (hi - lo <= tol)
        if tol < 2.0**-53:  # adjacent floats in [0, 1] lie at most 2**-53 apart; a wider tol stops first
            stop = stop | (mid <= lo) | (mid >= hi)  # no float strictly inside the bracket
            new = where(stop | ((new > lo) & (new < hi)), new, mid)  # a step onto an end could cycle between the two
        t = where(done, t, new)
        done = done | stop
        if ops.all(done):
            return where(settled, closed, t)
    import numpy as np  # reporting only; a float solve computes without numpy

    i = int(np.argmin(done))  # first entry still open; a float solve has only one
    bracket = (float(np.ravel(lo)[i]), float(np.ravel(hi)[i]))
    raise SolverError(f"truth fixed point did not reach tol={cfg.tol} within {MAX_ITER} iterations; "
                      f"last bracket [{bracket[0]}, {bracket[1]}]", bracket=bracket)


def _truth_gradient(lam, x, a0, inspecting, theta1, t, direction):
    """(G_t, G_u, terms) at (t, u): the first partials of the monic truth cubic G (_truth_cubic), and the terms
    from which _truth_partials adds G and its second partials.

    u moves the policy along direction = (da0, da1, dI) = d(alpha0, alpha1, I)/du, and on the endemic branch
    theta1 with it, dtheta1 = -(1-x) da1. So theta1, I and s are affine in u, ds = dI - x da0, and the
    cubic's coefficients are polynomials in u of degree at most 2 (c2'' = 0).
    """
    da0, da1, di = direction
    v, s = 1.0 / lam, inspecting + x * (1.0 - a0)
    c2, c1, c0 = _truth_cubic(v, theta1, inspecting, s)
    d_theta1, d_s = -(1.0 - x) * da1, di - x * da0
    d2, d1, d0 = d_theta1 - d_s, d_theta1 * (v - s) - (v + theta1) * d_s, -v * (di * theta1 + inspecting * d_theta1)
    return (3.0 * t + 2.0 * c2) * t + c1, (d2 * t + d1) * t + d0, (c2, c1, c0, d2, d1, d_theta1, d_s, v, di)


def _truth_partials(lam, x, a0, inspecting, theta1, t, direction):
    """(G, G_t, G_u, G_tt, G_tu, G_uu) at (t, u): _truth_gradient's partials, with G and the second partials."""
    g_t, g_u, (c2, c1, c0, d2, d1, d_theta1, d_s, v, di) = _truth_gradient(lam, x, a0, inspecting, theta1, t, direction)
    return (((t + c2) * t + c1) * t + c0, g_t, g_u,
            6.0 * t + 2.0 * c2, 2.0 * d2 * t + d1, -2.0 * d_theta1 * (d_s * t + v * di))


def _truth_slope(lam, x, a0, inspecting, theta1, theta0, direction):
    """dtheta0/du = -G_u / G_t at the truth root theta0 along direction (_truth_gradient).

    G_t, the slope of the Newton iteration in _truth_given_rumor, is 0 only at a double root (nobody inspects,
    x = 1/lam): the slope is then infinite. Slopes are only taken below a kink above 0, where lam*(1-x) > 1.
    """
    g_t, g_u, _ = _truth_gradient(lam, x, a0, inspecting, theta1, theta0, direction)
    return math.copysign(math.inf, -g_u) if g_t == 0.0 else -g_u / g_t


def _steady_truth(lam, x, a0, a1, inspecting, cutoff, cfg: SolverConfig, ops=_FloatOps):
    """(theta0, theta1) at the steady rumor level, the rumor taken as extinct from cutoff - cfg.tol on.

    cutoff is the eradication threshold (inf keeps the rumor endemic up to
    alpha1 = 1). In the band [cutoff - cfg.tol, cutoff) the degenerate fixed
    point is avoided: theta1 is 0 and theta0 the no-rumor closed form. At
    the steady rumor level theta0 + theta1 <= 1 - 1/lam, so 1 - theta1 caps
    the root.
    """
    theta1 = _rumor_level(lam, x, a1, cutoff, cfg, ops)
    return _truth_given_rumor(lam, x, a0, a1, inspecting, theta1, 1.0 - theta1, cfg, ops), theta1


def _recompose(x, a0, a1, r):
    """(theta0, theta1) from the group believing fractions r = (r00a, r00na, r10a, r11na)."""
    theta0 = x * (a0 * r[0] + (1.0 - a0) * r[1]) + (1.0 - x) * a1 * r[2]
    theta1 = (1.0 - x) * (1.0 - a1) * r[3]
    return theta0, theta1


def _steady_fields(lam, x, a0, a1, cfg: SolverConfig, ops=_FloatOps):
    """(theta0, theta1, theta, rho_a, rho_00_na, rho_11_na) at the steady state.

    Floats, or with ops=numpy arrays that broadcast as in _truth_given_rumor.
    (theta0, theta1) come from _steady_truth at the rates' _inspecting_mass,
    and the rho fields are the group fractions of the module docstring.
    They are verified by recomposing theta0 / theta1 from the group fractions; disagreement
    beyond solver accuracy raises SolverError for the first entry that fails.
    """
    inspecting = _inspecting_mass(x, a0, a1, ops)
    theta0, theta1 = _steady_truth(lam, x, a0, a1, inspecting, _eradication_level(lam, x, ops), cfg, ops)
    theta = theta0 + theta1
    rho_a = lam * theta / (1.0 + lam * theta)
    rho_00_na = lam * theta0 / (1.0 + lam * theta0)
    rho_11_na = lam * theta1 / (1.0 + lam * theta1)
    r0, r1 = _recompose(x, a0, a1, (rho_a, rho_00_na, rho_a, rho_11_na))
    budget = max(1e-9, 100.0 * cfg.tol)
    ok = ops.maximum(abs(r0 - theta0), abs(r1 - theta1)) <= budget
    if not ops.all(ok):
        import numpy as np  # reporting only; a float solve computes without numpy

        i = int(np.argmin(ok))
        r0, theta0, r1, theta1 = (float(np.ravel(v)[i]) for v in (r0, theta0, r1, theta1))
        raise SolverError(f"steady state failed recomposition: |{r0} - {theta0}|, |{r1} - {theta1}| exceed {budget}")
    return theta0, theta1, theta, rho_a, rho_00_na, rho_11_na


def eradication_threshold(p: ModelParams) -> float:
    """Smallest type-1 inspection rate that keeps the rumor extinct.

    Returns max(0, 1 - 1/(lam*(1-x))); zero means the rumor can never be
    endemic (in particular when x = 1 there is nobody to carry it).
    """
    return _eradication_level(p.lam, p.x)


def rumor_steady_state(p: ModelParams, a: Allocation, cfg: SolverConfig = DEFAULT_SOLVER) -> float:
    """Endemic rumor prevalence; exactly 0 from cfg.tol below the eradication threshold on.

    Only the type-1 inspection rate matters: the rumor circulates among
    non-inspecting rumor-biased agents alone.
    """
    return _rumor_level(p.lam, p.x, a.alpha1, eradication_threshold(p), cfg)


def no_rumor_positivity_readings(p: ModelParams) -> tuple[float | None, float | None]:
    """Two algebraic readings of the alpha threshold for positive no-rumor truth.

    The grouping of the published condition is ambiguous; the first reading,
    (1/lam - x)/(1-x), is the one consistent with the no-rumor closed form
    (it is exactly where x + (1-x)*alpha - 1/lam changes sign) and is the
    operative one. The second, 1/((1-x)*(1/lam - x)), is reported purely as
    a diagnostic. A reading that is undefined or not finite is None: both
    at x = 1, the alternative when 1/lam == x.
    """
    if p.x >= 1.0:
        return (None, None)
    g = 1.0 / p.lam - p.x
    alt = 1.0 / ((1.0 - p.x) * g) if g != 0.0 else math.inf
    return tuple(v if math.isfinite(v) else None for v in (g / (1.0 - p.x), alt))


def truth_steady_state(p: ModelParams, a: Allocation, cfg: SolverConfig = DEFAULT_SOLVER) -> float:
    """Steady truth prevalence under the given inspection policy; see _steady_truth."""
    cutoff = eradication_threshold(p)
    return _steady_truth(p.lam, p.x, a.alpha0, a.alpha1, a.inspecting_mass(p.x), cutoff, cfg)[0]


def group_masses(p: ModelParams, a: Allocation) -> tuple[float, float, float, float]:
    """Population masses of the four groups: inspecting and non-inspecting type 0, then type 1."""
    a0, a1 = a.rates()
    return (p.x * a0, p.x * (1.0 - a0), (1.0 - p.x) * a1, (1.0 - p.x) * (1.0 - a1))


def prevalences(r, p: ModelParams, a: Allocation) -> tuple[float, float]:
    """(theta0, theta1) recomposed from the four group believing fractions.

    r holds the fractions in group_masses order, (r00a, r00na, r10a, r11na):
    theta0 = x*(alpha0*r00a + (1-alpha0)*r00na) + (1-x)*alpha1*r10a and
    theta1 = (1-x)*(1-alpha1)*r11na.
    """
    return _recompose(p.x, a.alpha0, a.alpha1, r)


def full_steady_state(p: ModelParams, a: Allocation, cfg: SolverConfig = DEFAULT_SOLVER) -> SteadyState:
    """Solve both prevalences and fill in the four group fractions; see _steady_fields."""
    theta0, theta1, theta, rho_a, rho_00_na, rho_11_na = _steady_fields(p.lam, p.x, a.alpha0, a.alpha1, cfg)
    return SteadyState(theta0, theta1, theta, rho_a, rho_a, rho_00_na, rho_11_na)
