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
rule max|dr/dt| < conv_tol reads. Each stage, its rates included, is written
out as scalar expressions, one per group, with no per-step lists or calls:
rate_function defines the rates, and the tests' reference loop, which calls
it, pins the inline copy bit for bit. The trajectory holds the start and
every accepted step, so its time grid is the integrator's own step sequence;
the CLI writes one row per accepted step. A step that leaves
[0, 1] is rejected and retried at half the size. The limit of the iteration
is a fixed point of the exact dynamics, so steady-state limits do not depend
on the first step FIRST_STEP. Near criticality the system is stiff: at
nu=4.0906, k=3, delta=0.7071, x=0.8834, rates (0.856, 0.506) (rumor
reproduction number 0.99966) the Jacobian's eigenvalues span -11.6 to
-2.5e-4, stability holds the step near 0.29, and the run stops at the
horizon after about 51,000 attempted steps. MAX_STEPS bounds the attempts,
accepted plus rejected, so that no run goes on for minutes; a conv_tol below
the rounding floor of the rates (lambda = 1e7, or conv_tol = 1e-22) is
refused before the first step (see integrate).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .model import DEFAULT_SEED_LEVEL, Allocation, IntegratorError, ModelParams, ParameterError, group_masses


class DynState(namedtuple("DynState", "r00a r00na r10a r11na t", defaults=(0.0,))):
    """Believing fractions of the four groups at time t.

    r00a and r00na belong to inspecting and non-inspecting type-0 agents, r10a and r11na to type-1 agents.
    """

    __slots__ = ()


class IntegratorConfig(namedtuple("IntegratorConfig", "conv_tol")):
    """Dormand-Prince 5(4) settings.

    The run stops once max|dr/dt| < conv_tol, or at the horizon. The
    relative and absolute error tolerances are both derived from conv_tol
    (see integrate), so there is no separate accuracy knob.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace runs the checks too

    def __new__(cls, conv_tol: float = 1e-10) -> IntegratorConfig:
        if not 0.0 < conv_tol < math.inf:
            raise ParameterError(f"conv_tol must be finite and positive, got {conv_tol}")
        return tuple.__new__(cls, (conv_tol,))


DEFAULT_INTEGRATOR = IntegratorConfig()

FIRST_STEP = 0.01  # the first step tried; later steps follow the error control
HORIZON = 1e4  # the run stops at t = HORIZON / delta if it has not converged
MAX_STEPS = 200_000  # attempted steps, accepted plus rejected, before integrate gives up
STABILITY_TOL = 1e-6  # sup distance within which multi-start limits count as one


class Trajectory(namedtuple("Trajectory", "states converged max_rate n_rejected")):
    """The start and every accepted step of the dynamics (states), plus its termination status.

    converged is False where the run stopped at the horizon; max_rate is the residual max |dr/dt| at the
    final state; n_rejected counts the steps retried for error or for leaving [0, 1].
    """

    __slots__ = ()

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


class StabilityReport(namedtuple("StabilityReport", "passed all_converged max_gap limits seed_trajectory")):
    """Outcome of multi-start integration toward a common limit.

    passed iff all_converged (no run stopped at the horizon) and max_gap, the widest spread of the limits
    in one coordinate, is below STABILITY_TOL. limits holds each run's final DynState; seed_trajectory is
    the run from seed_state(p, a), whose limit is limits[0].
    """

    __slots__ = ()


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


def integrate(s0: DynState, p: ModelParams, a: Allocation, cfg: IntegratorConfig = DEFAULT_INTEGRATOR) -> Trajectory:
    """Run the dynamics from s0 until the rates vanish or t reaches HORIZON / delta.

    The first step tried is FIRST_STEP. Every accepted step is stored.
    Coordinates of empty groups are forced to zero at the start and never
    move. Each step is unrolled over the four coordinates, in the same
    floating-point order as a loop over them, and each stage's rates are
    rate_function's arithmetic written inline in its float order, not called:
    test_integrate_matches_reference_loop requires the trajectory of
    conftest.reference_integrate, which calls rate_function, bit for bit.
    IntegratorError is raised before the first step when the error tolerance
    below is not a positive normal float (a subnormal conv_tol, or 2*k*nu
    beyond the float range) or conv_tol is below the rounding floor, and later
    when MAX_STEPS steps, accepted plus rejected, did not end the run, or when
    the step size underflows.

    The rounding floor: a rate (1 - r)*k*nu*s - r*delta, s the group's
    source prevalence, is 0 at r = lam*s/(1 + lam*s) and falls by at least
    k*nu*s per unit of r there. The nearest float may lie half a spacing, at
    least eps*r/4, from that root, which leaves a rate of k*nu*s*r*eps/4. A
    seeded truth reaches the mass m = x + (1-x)*alpha1 and sustains s >= m -
    1/lam, a seeded rumor s = 1 - m - 1/lam; the floor is taken at the larger
    s. At x = 0.3 and alpha = 0.2 it is 1.6e-11 at lambda = 1e6, 1.6e-10 at 1e7.

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
    w0a, w0n, w1a, w1n = masses = group_masses(p, a)  # rate_function's constants, read by the inline stages
    m1, m2, m3, m4 = (1.0 if w > 0.0 else 0.0 for w in masses)
    kv, d = p.k * p.nu, p.delta
    y1, y2, y3, y4 = (v if w > 0.0 else 0.0 for v, w in zip(s0[:4], masses))
    conv_tol = cfg.conv_tol
    tol = 0.25 * conv_tol / (2.0 * kv + d)  # k*nu first: 2*k alone may overflow
    if not tol >= sys.float_info.min:
        raise IntegratorError(f"error tolerance {tol} derived from conv_tol={conv_tol} is not a positive normal float")
    m, v = p.x + (1.0 - p.x) * a.alpha1, 1.0 / p.lam  # the mass the truth reaches, and 1/lam
    s = max([0.0, *(w - v for w, seeded in ((m, y1 + y2 + y3 > 0.0), (1.0 - m, y4 > 0.0)) if seeded)])
    floor = 0.25 * sys.float_info.epsilon * kv * s * s / (v + s)  # v > 0: lam is finite
    if conv_tol < floor:
        raise IntegratorError(f"conv_tol={conv_tol} is below the rounding floor {floor:.3g} of the rates at the fixed point")
    t_max = HORIZON / d
    lo, hi = -_DOMAIN_SLACK, 1.0 + _DOMAIN_SLACK
    max_steps = MAX_STEPS
    h = FIRST_STEP
    t = 0.0
    n_attempts = n_rejected = 0
    states = [DynState(y1, y2, y3, y4, t)]
    # y is the state; p, q, r, s, u, v, w are the seven stage rates, p at y and w at the new state n. Each stage's
    # rates are rate_function's at its state z, in its float order: th0, th1 and th are the source prevalences
    th = (th0 := w0a * y1 + w0n * y2 + w1a * y3) + (th1 := w1n * y4)
    p1, p2 = m1 * ((1.0 - y1) * kv * th - y1 * d), m2 * ((1.0 - y2) * kv * th0 - y2 * d)
    p3, p4 = m3 * ((1.0 - y3) * kv * th - y3 * d), m4 * ((1.0 - y4) * kv * th1 - y4 * d)

    while True:
        max_rate = max(abs(p1), abs(p2), abs(p3), abs(p4))
        converged = max_rate < conv_tol
        if converged or t >= t_max:
            break
        if n_attempts == max_steps:
            raise IntegratorError(
                f"step budget exhausted: {max_steps} steps attempted "
                f"({n_attempts - n_rejected} accepted) by t={t}, max|dr/dt| = {max_rate}"
            )
        n_attempts += 1
        if h >= t_max - t:
            h, t_next = t_max - t, t_max
        else:
            t_next = t + h
        if not t_next > t:
            raise IntegratorError(f"step size underflowed at t={t}")

        z1, z2 = y1 + h * (_A21 * p1), y2 + h * (_A21 * p2)
        z3, z4 = y3 + h * (_A21 * p3), y4 + h * (_A21 * p4)
        th = (th0 := w0a * z1 + w0n * z2 + w1a * z3) + (th1 := w1n * z4)
        q1, q2 = m1 * ((1.0 - z1) * kv * th - z1 * d), m2 * ((1.0 - z2) * kv * th0 - z2 * d)
        q3, q4 = m3 * ((1.0 - z3) * kv * th - z3 * d), m4 * ((1.0 - z4) * kv * th1 - z4 * d)
        z1, z2 = y1 + h * (_A31 * p1 + _A32 * q1), y2 + h * (_A31 * p2 + _A32 * q2)
        z3, z4 = y3 + h * (_A31 * p3 + _A32 * q3), y4 + h * (_A31 * p4 + _A32 * q4)
        th = (th0 := w0a * z1 + w0n * z2 + w1a * z3) + (th1 := w1n * z4)
        r1, r2 = m1 * ((1.0 - z1) * kv * th - z1 * d), m2 * ((1.0 - z2) * kv * th0 - z2 * d)
        r3, r4 = m3 * ((1.0 - z3) * kv * th - z3 * d), m4 * ((1.0 - z4) * kv * th1 - z4 * d)
        z1, z2 = y1 + h * (_A41 * p1 + _A42 * q1 + _A43 * r1), y2 + h * (_A41 * p2 + _A42 * q2 + _A43 * r2)
        z3, z4 = y3 + h * (_A41 * p3 + _A42 * q3 + _A43 * r3), y4 + h * (_A41 * p4 + _A42 * q4 + _A43 * r4)
        th = (th0 := w0a * z1 + w0n * z2 + w1a * z3) + (th1 := w1n * z4)
        s1, s2 = m1 * ((1.0 - z1) * kv * th - z1 * d), m2 * ((1.0 - z2) * kv * th0 - z2 * d)
        s3, s4 = m3 * ((1.0 - z3) * kv * th - z3 * d), m4 * ((1.0 - z4) * kv * th1 - z4 * d)
        z1 = y1 + h * (_A51 * p1 + _A52 * q1 + _A53 * r1 + _A54 * s1)
        z2 = y2 + h * (_A51 * p2 + _A52 * q2 + _A53 * r2 + _A54 * s2)
        z3 = y3 + h * (_A51 * p3 + _A52 * q3 + _A53 * r3 + _A54 * s3)
        z4 = y4 + h * (_A51 * p4 + _A52 * q4 + _A53 * r4 + _A54 * s4)
        th = (th0 := w0a * z1 + w0n * z2 + w1a * z3) + (th1 := w1n * z4)
        u1, u2 = m1 * ((1.0 - z1) * kv * th - z1 * d), m2 * ((1.0 - z2) * kv * th0 - z2 * d)
        u3, u4 = m3 * ((1.0 - z3) * kv * th - z3 * d), m4 * ((1.0 - z4) * kv * th1 - z4 * d)
        z1 = y1 + h * (_A61 * p1 + _A62 * q1 + _A63 * r1 + _A64 * s1 + _A65 * u1)
        z2 = y2 + h * (_A61 * p2 + _A62 * q2 + _A63 * r2 + _A64 * s2 + _A65 * u2)
        z3 = y3 + h * (_A61 * p3 + _A62 * q3 + _A63 * r3 + _A64 * s3 + _A65 * u3)
        z4 = y4 + h * (_A61 * p4 + _A62 * q4 + _A63 * r4 + _A64 * s4 + _A65 * u4)
        th = (th0 := w0a * z1 + w0n * z2 + w1a * z3) + (th1 := w1n * z4)
        v1, v2 = m1 * ((1.0 - z1) * kv * th - z1 * d), m2 * ((1.0 - z2) * kv * th0 - z2 * d)
        v3, v4 = m3 * ((1.0 - z3) * kv * th - z3 * d), m4 * ((1.0 - z4) * kv * th1 - z4 * d)
        n1 = y1 + h * (_B1 * p1 + _B3 * r1 + _B4 * s1 + _B5 * u1 + _B6 * v1)
        n2 = y2 + h * (_B1 * p2 + _B3 * r2 + _B4 * s2 + _B5 * u2 + _B6 * v2)
        n3 = y3 + h * (_B1 * p3 + _B3 * r3 + _B4 * s3 + _B5 * u3 + _B6 * v3)
        n4 = y4 + h * (_B1 * p4 + _B3 * r4 + _B4 * s4 + _B5 * u4 + _B6 * v4)
        least, most = min(n1, n2, n3, n4), max(n1, n2, n3, n4)
        if least < lo or most > hi:
            h *= 0.5
            n_rejected += 1
            continue
        if least < 0.0 or most > 1.0:
            n1, n2, n3, n4 = (min(1.0, max(0.0, n)) for n in (n1, n2, n3, n4))
        # first-same-as-last: w, the last stage, is the rate at the new state
        th = (th0 := w0a * n1 + w0n * n2 + w1a * n3) + (th1 := w1n * n4)
        w1, w2 = m1 * ((1.0 - n1) * kv * th - n1 * d), m2 * ((1.0 - n2) * kv * th0 - n2 * d)
        w3, w4 = m3 * ((1.0 - n3) * kv * th - n3 * d), m4 * ((1.0 - n4) * kv * th1 - n4 * d)
        # RMS over the four coordinates (hypot / 2) of the error estimate, each
        # scaled by atol + rtol * max(|y|, |y_new|), where y and y_new lie in [0, 1]
        err = math.hypot(
            h * (_E1 * p1 + _E3 * r1 + _E4 * s1 + _E5 * u1 + _E6 * v1 + _E7 * w1) / (1.0 + (y1 if y1 > n1 else n1)),
            h * (_E1 * p2 + _E3 * r2 + _E4 * s2 + _E5 * u2 + _E6 * v2 + _E7 * w2) / (1.0 + (y2 if y2 > n2 else n2)),
            h * (_E1 * p3 + _E3 * r3 + _E4 * s3 + _E5 * u3 + _E6 * v3 + _E7 * w3) / (1.0 + (y3 if y3 > n3 else n3)),
            h * (_E1 * p4 + _E3 * r4 + _E4 * s4 + _E5 * u4 + _E6 * v4 + _E7 * w4) / (1.0 + (y4 if y4 > n4 else n4)),
        ) / (2.0 * tol)
        factor = 10.0 if err == 0.0 else min(10.0, max(0.2, 0.9 * err ** -0.2))
        h *= factor
        if err > 1.0:
            n_rejected += 1
            continue
        y1, y2, y3, y4, p1, p2, p3, p4, t = n1, n2, n3, n4, w1, w2, w3, w4, t_next
        states.append(DynState(y1, y2, y3, y4, t))

    return Trajectory(tuple(states), converged, max_rate, n_rejected)


def verify_global_stability(
    p: ModelParams,
    a: Allocation,
    n_starts: int,
    cfg: IntegratorConfig = DEFAULT_INTEGRATOR,
    seed: int = 0,
) -> StabilityReport:
    """Integrate from random interior states plus the near-zero seed, one after another.

    Passes iff every trajectory converges and all limits agree to
    STABILITY_TOL in sup distance over the four coordinates. A trajectory
    that stops at the horizon yields a failing report, not an exception; one
    that exhausts MAX_STEPS raises IntegratorError, as integrate does.
    ParameterError is raised before any integration when n_starts < 2 or seed < 0.
    The report keeps the seed's trajectory: a run from the default seed need not integrate it again.
    """
    if n_starts < 2:
        raise ParameterError(f"n_starts must be >= 2, got {n_starts}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    import numpy as np  # for the random starts alone; integrate needs no numpy

    rng = np.random.default_rng(seed)
    starts = [seed_state(p, a)]
    for _ in range(n_starts):  # integrate zeroes the coordinates of empty groups
        starts.append(DynState(*rng.uniform(0.01, 0.99, size=4).tolist()))

    trajectories = [integrate(s0, p, a, cfg) for s0 in starts]
    limits = tuple(traj.final for traj in trajectories)
    all_converged = all(traj.converged for traj in trajectories)

    # rounding is monotone, so the widest pairwise fl(|u - v|) of a coordinate is fl(max - min)
    max_gap = max(max(c) - min(c) for c in zip(*(lim[:4] for lim in limits)))
    return StabilityReport(all_converged and max_gap < STABILITY_TOL, all_converged, max_gap, limits, trajectories[0])
