"""Forward integration of the four-group contagion dynamics.

Each group's believing fraction follows the per-capita law

    dr/dt = (1 - r) * k * nu * theta_src - r * delta

where theta_src is the prevalence of whatever that group can be infected
by: total prevalence for the two inspecting groups, truth prevalence for
non-inspecting type-0 agents, rumor prevalence for non-inspecting type-1
agents. The group-mass prefactors that appear on both sides of the
population-level balance equations are constant, so dividing them out
leaves the trajectories unchanged while keeping the system well defined
when a group is empty; empty groups are carried as identically-zero
coordinates.

Integration uses the adaptive Dormand-Prince 5(4) pair (Dormand & Prince,
J. Comput. Appl. Math. 6 (1980) 19-26; Hairer, Norsett & Wanner, Solving
ODEs I, II.4-II.5) with first-same-as-last stages: the last stage of an
accepted step is the rate at the new state, and it is also what the stop
rule max|dr/dt| < conv_tol reads. The trajectory holds the start and every
accepted step, so its time grid is the integrator's own step sequence; the
CLI writes one row per accepted step. A step that leaves [0, 1] is rejected
and retried at half the size. The limit of the iteration is a fixed point
of the exact dynamics, so steady-state limits do not depend on the first
step FIRST_STEP. Near criticality the system is stiff: at nu=4.0906, k=3,
delta=0.7071, x=0.8834, rates (0.856, 0.506) (rumor reproduction number
0.99966) the Jacobian's eigenvalues span -11.6 to -2.5e-4, stability holds
the step near 0.29, and the run stops at the horizon after about 50,000 steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .model import Allocation, ModelParams, ParameterError, group_masses


class DynState(NamedTuple):
    """Believing fractions of the four groups at time t."""

    r00a: float   # inspecting type-0
    r00na: float  # non-inspecting type-0
    r10a: float   # inspecting type-1
    r11na: float  # non-inspecting type-1
    t: float = 0.0


class IntegratorError(RuntimeError):
    """The step size underflowed: no step, however small, was accepted."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Dormand-Prince 5(4) settings.

    The run stops once max|dr/dt| < conv_tol, or at the horizon. The
    relative and absolute error tolerances are both derived from conv_tol
    (see integrate), so there is no separate accuracy knob.
    """

    conv_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.conv_tol < math.inf:
            raise ParameterError(f"conv_tol must be finite and positive, got {self.conv_tol}")


DEFAULT_INTEGRATOR = IntegratorConfig()

FIRST_STEP = 0.01  # the first step tried; later steps follow the error control
HORIZON = 1e4  # the run stops at t = HORIZON / delta if it has not converged
DEFAULT_SEED_LEVEL = 1e-3  # "small initial infection" in every live group
STABILITY_TOL = 1e-6  # sup distance within which multi-start limits count as one


@dataclass(frozen=True)
class Trajectory:
    """The start and every accepted step of the dynamics, plus its termination status."""

    states: tuple[DynState, ...]
    converged: bool
    max_rate: float  # residual max |dr/dt| at the final state
    n_rejected: int  # steps retried for error or for leaving [0, 1]

    @property
    def n_steps(self) -> int:
        """Accepted steps."""
        return len(self.states) - 1

    @property
    def final(self) -> DynState:
        return self.states[-1]

    @property
    def status(self) -> str:
        return "converged" if self.converged else "horizon"


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of multi-start integration toward a common limit."""

    passed: bool
    all_converged: bool
    max_gap: float
    limits: tuple[DynState, ...]


def rate_function(p: ModelParams, a: Allocation):
    """The right-hand side: (r00a, r00na, r10a, r11na) -> their four per-capita rates.

    Empty groups get a zero rate, so their coordinates never move.
    """
    w0a, w0n, w1a, w1n = group_masses(p, a)
    m1, m2, m3, m4 = (1.0 if w > 0.0 else 0.0 for w in (w0a, w0n, w1a, w1n))
    kv = p.k * p.nu
    d = p.delta

    def rates(r1: float, r2: float, r3: float, r4: float) -> tuple[float, float, float, float]:
        th0 = w0a * r1 + w0n * r2 + w1a * r3
        th1 = w1n * r4
        th = th0 + th1
        return (
            m1 * ((1.0 - r1) * kv * th - r1 * d),
            m2 * ((1.0 - r2) * kv * th0 - r2 * d),
            m3 * ((1.0 - r3) * kv * th - r3 * d),
            m4 * ((1.0 - r4) * kv * th1 - r4 * d),
        )

    return rates


def seed_state(p: ModelParams, a: Allocation, level: float = DEFAULT_SEED_LEVEL) -> DynState:
    """Initial state with `level` believers in every non-empty group."""
    if not 0.0 <= level <= 1.0:
        raise ParameterError(f"seed level must lie in [0, 1], got {level}")
    m = group_masses(p, a)
    return DynState(*(level if mi > 0.0 else 0.0 for mi in m), t=0.0)


_DOMAIN_SLACK = 1e-12  # round-off allowance before a step is rejected

# Dormand-Prince 5(4) tableau. The 5th-order weights _B are also the last
# stage's row (b2 = b7 = 0); _E holds the 5th- minus 4th-order weights (e2 = 0).
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = 71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40


def integrate(
    s0: DynState,
    p: ModelParams,
    a: Allocation,
    cfg: IntegratorConfig = DEFAULT_INTEGRATOR,
) -> Trajectory:
    """Run the dynamics from s0 until the rates vanish or t reaches HORIZON / delta.

    The first step tried is FIRST_STEP. Every accepted step is stored.
    Coordinates of empty groups are forced to zero at the start and never
    move.

    Error control uses rtol = atol = conv_tol / (4 * (2*k*nu + delta)). By
    Gershgorin, 2*k*nu + delta bounds the row sums of the Jacobian, so it
    bounds the rate that a state error of size tol leaves behind. Near the
    fixed point the steps settle at the method's stability edge and the
    residual stalls at a level set by the local error, so a tolerance tied
    to conv_tol this way lets the stop rule be met. A fixed tolerance has no
    such link: with rtol = atol = 1e-9 the residual at (lambda, x, alpha) =
    (3.21, 0.30, 0.33) stays above the default conv_tol = 1e-10 up to the
    horizon. The factor 1/4 is margin: over 300 random draws of (lambda, x,
    alpha0, alpha1, k, delta) the stalled residual reached 0.67 * conv_tol
    without it, and stays under 0.2 * conv_tol with it.
    """
    for name, v in zip(DynState._fields, s0[:4]):
        if not 0.0 <= v <= 1.0:
            raise ParameterError(f"{name} must lie in [0, 1], got {v}")
    rhs = rate_function(p, a)
    r = tuple(v if m > 0.0 else 0.0 for v, m in zip(s0[:4], group_masses(p, a)))
    tol = 0.25 * cfg.conv_tol / (2.0 * p.k * p.nu + p.delta)
    conv_tol = cfg.conv_tol
    t_max = HORIZON / p.delta
    lo, hi = -_DOMAIN_SLACK, 1.0 + _DOMAIN_SLACK
    h = FIRST_STEP
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
        least, most = min(new), max(new)
        if least < lo or most > hi:
            h *= 0.5
            n_rejected += 1
            continue
        if least < 0.0 or most > 1.0:
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


def check_stability_args(n_starts: int, seed: int) -> None:
    """Raise ParameterError unless verify_global_stability accepts n_starts and seed."""
    if n_starts < 2:
        raise ParameterError(f"n_starts must be >= 2, got {n_starts}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")


def verify_global_stability(
    p: ModelParams,
    a: Allocation,
    n_starts: int,
    cfg: IntegratorConfig = DEFAULT_INTEGRATOR,
    seed: int = 0,
) -> StabilityReport:
    """Integrate from random interior states plus the near-zero seed, one after another.

    Passes iff every trajectory converges and all limits agree to
    STABILITY_TOL in sup distance over the four coordinates. A non-converged
    trajectory yields a failing report, not an exception.
    """
    check_stability_args(n_starts, seed)
    import numpy as np  # for the random starts alone; integrate needs no numpy

    rng = np.random.default_rng(seed)
    starts = [seed_state(p, a)]
    for _ in range(n_starts):  # integrate zeroes the coordinates of empty groups
        starts.append(DynState(*rng.uniform(0.01, 0.99, size=4).tolist()))

    trajectories = [integrate(s0, p, a, cfg) for s0 in starts]
    limits = [traj.final for traj in trajectories]
    all_converged = all(traj.converged for traj in trajectories)

    # rounding is monotone, so the widest pairwise fl(|u - v|) of a coordinate is fl(max - min)
    max_gap = max(max(c) - min(c) for c in zip(*(lim[:4] for lim in limits)))
    return StabilityReport(
        passed=all_converged and max_gap < STABILITY_TOL,
        all_converged=all_converged,
        max_gap=max_gap,
        limits=tuple(limits),
    )
