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
coordinates. Group i's rate is written (1 - r) * k_i * theta_src - r * d_i,
with k_i = m_i*k*nu and d_i = m_i*delta, where m_i is 1 for a non-empty group
and 0 for an empty one: multiplying by 1.0 is exact, so a non-empty group's
rate has the bits of the unmasked law, and an empty group's rate is a zero.

Integration uses the adaptive Dormand-Prince 5(4) pair (Dormand & Prince,
J. Comput. Appl. Math. 6 (1980) 19-26; Hairer, Norsett & Wanner,
Solving ODEs I, II.4-II.5) with first-same-as-last stages: the last stage of
an accepted step is the rate at the new state, and it is also what the stop
rule max|dr/dt| < conv_tol reads. Each stage is written out as scalar
expressions, one per group (see integrate); rate_function defines the rates,
and the tests' reference loop, which calls it, pins the inline copy bit for
bit. The trajectory holds the start and every accepted step, so its time grid
is the integrator's own step sequence; the CLI writes one row per accepted
step. A step outside [0, 1], NaN included, is rejected and retried at
half the size. The limit of the iteration is a fixed point of the exact
dynamics, so steady-state limits do not depend on the first step FIRST_STEP.
Near criticality the system is stiff: at nu=4.0906, k=3, delta=0.7071,
x=0.8834, rates (0.856, 0.506) (rumor reproduction number 0.99966) the
Jacobian's eigenvalues span -11.6 to -2.5e-4, stability holds the step near
0.29, and the run stops at the horizon after about 51,000 attempted steps.
MAX_STEPS bounds the attempts, accepted plus rejected, so that no run goes on
for minutes, and STALL_STEPS the accepted steps that leave the state as it
was; a conv_tol below the rounding floor of the rates (lambda = 1e7,
or conv_tol = 1e-22) is refused before the first step (see integrate).
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
STALL_STEPS = 1_000  # accepted steps that leave the state unchanged before integrate gives up
STABILITY_TOL = 1e-6  # sup distance within which the two corner runs' limits count as one


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


class StabilityReport(namedtuple("StabilityReport", "passed all_converged max_gap limits")):
    """verify_global_stability's certificate of one run, by the two corner runs of a box that holds its start.

    passed iff all_converged (no run stopped at the horizon) and max_gap, the widest gap in one coordinate between
    the final states of the run and the corner runs, is below STABILITY_TOL. limits holds the corner runs' final
    DynStates, the lower corner's first; a corner equal to the run's start is the run, not integrated again.
    """

    __slots__ = ()


def _rate_constants(p: ModelParams, a: Allocation) -> tuple:
    """(group masses, k*nu, delta, k_1..k_4, d_1..d_4), as rate_function and integrate's inline stages read them."""
    masses = group_masses(p, a)
    kv, d = p.k * p.nu, p.delta
    return (masses, kv, d, *(kv if w > 0.0 else 0.0 for w in masses), *(d if w > 0.0 else 0.0 for w in masses))


def rate_function(p: ModelParams, a: Allocation):
    """The right-hand side: (r00a, r00na, r10a, r11na) -> their four per-capita rates.

    Group i's rate is (1 - r_i) * k_i * theta_src - r_i * d_i, the masks folded into k_i and d_i (see the module
    docstring): empty groups get a zero rate, so their coordinates never move.
    """
    (w0a, w0n, w1a, w1n), _, _, k1, k2, k3, k4, d1, d2, d3, d4 = _rate_constants(p, a)

    def rates(r1: float, r2: float, r3: float, r4: float) -> tuple[float, float, float, float]:
        th0 = w0a * r1 + w0n * r2 + w1a * r3
        th1 = w1n * r4
        th = th0 + th1
        return (
            (1.0 - r1) * k1 * th - r1 * d1,
            (1.0 - r2) * k2 * th0 - r2 * d2,
            (1.0 - r3) * k3 * th - r3 * d3,
            (1.0 - r4) * k4 * th1 - r4 * d4,
        )

    return rates


def seed_state(p: ModelParams, a: Allocation, level: float = DEFAULT_SEED_LEVEL) -> DynState:
    """Initial state with `level` believers in every non-empty group; a level of -0.0 seeds 0.0."""
    if not 0.0 <= level <= 1.0:
        raise ParameterError(f"seed level must lie in [0, 1], got {level}")
    level += 0.0  # -0.0 + 0.0 is 0.0, and any other level is unchanged
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

    The first step tried is FIRST_STEP. Every accepted step is stored; a
    proposed state is rejected unless each coordinate passes the chained test
    -_DOMAIN_SLACK <= n <= 1 + _DOMAIN_SLACK, which a NaN fails. Coordinates
    of empty groups are forced to zero at the start and never move. Each step
    is unrolled over the four coordinates, in the same floating-point order as
    a loop over them, and each stage's rates are rate_function's arithmetic
    written inline in its float order, not called:
    test_integrate_matches_reference_loop requires the trajectory of
    conftest.reference_integrate, which calls rate_function, bit for bit.

    The inspecting coordinates r00a and r10a obey one law of total
    prevalence. When both groups are non-empty or both empty (k1 == k3 and
    d1 == d3) and they start level (y1 == y3), which every seed_state with
    both non-empty gives, r10a takes r00a's stage states, stage rates, new
    state and error term instead of computing them again: the same float
    operations on the same operands give the same bits. math.hypot still gets
    four terms, the shared one twice, so the error estimate is unchanged. A
    start of -0.0 beside 0.0 also counts as level, and each keeps its sign in
    the stored start: the two rates there differ at most in the sign of a
    zero, which happens only when every rate is zero and the run stops at
    its start. Otherwise each sum y + h*(...) from that start is the same
    float on both coordinates unless its increment is -0.0, which a positive
    rate does not give; test_integrate_matches_reference_loop pins this case.
    Any other start, and a run with one inspecting group empty, integrates
    r10a on its own.

    IntegratorError is raised before the first step when the error tolerance
    below is not a positive normal float (a subnormal conv_tol, or 2*k*nu
    beyond the float range) or conv_tol is below the rounding floor, and later
    when MAX_STEPS steps, accepted plus rejected, did not end the run, when
    STALL_STEPS accepted steps left every coordinate equal (==) to its old value
    while a rate is still at least conv_tol, or when the step size underflows.
    Such a stall lies between the pre-checked floor and the one the run meets:
    at lambda = 5e6, x = 0.3, alpha = 0.2 the residual sticks at 1.3e-10.

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
    (w0a, w0n, w1a, w1n), kv, d, k1, k2, k3, k4, d1, d2, d3, d4 = _rate_constants(p, a)
    y1, y2, y3, y4 = (v if w > 0.0 else 0.0 for v, w in zip(s0[:4], (w0a, w0n, w1a, w1n)))
    same = k1 == k3 and d1 == d3 and y1 == y3  # one law and one start: coordinate 3 reuses coordinate 1
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
    max_steps, stall_steps = MAX_STEPS, STALL_STEPS
    h = FIRST_STEP
    t = 0.0
    n_attempts = n_rejected = n_still = 0
    states = [DynState(y1, y2, y3, y4, t)]
    a21, a31, a32, a41, a42, a43, a51, a52, a53, a54 = _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65, b1, b3, b4, b5, b6 = _A61, _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7
    # y is the state; p, q, r, s, u, v, w are the seven stage rates, p at y and w at the new state n. Each stage's
    # rates are rate_function's at its state z, in its float order: th0, th1 and th are the source prevalences
    th = (th0 := w0a * y1 + w0n * y2 + w1a * y3) + (th1 := w1n * y4)
    p1, p2 = (1.0 - y1) * k1 * th - y1 * d1, (1.0 - y2) * k2 * th0 - y2 * d2
    p3, p4 = (1.0 - y3) * k3 * th - y3 * d3, (1.0 - y4) * k4 * th1 - y4 * d4

    while True:
        converged = (-conv_tol < p1 < conv_tol and -conv_tol < p2 < conv_tol  # max|dr/dt| < conv_tol, with no call
                     and -conv_tol < p3 < conv_tol and -conv_tol < p4 < conv_tol)
        if converged or t >= t_max:
            break
        if n_attempts == max_steps:
            raise IntegratorError(
                f"step budget exhausted: {max_steps} steps attempted ({n_attempts - n_rejected} accepted) "
                f"by t={t}, max|dr/dt| = {max(abs(p1), abs(p2), abs(p3), abs(p4))}"
            )
        n_attempts += 1
        if h >= t_max - t:
            h, t_next = t_max - t, t_max
        else:
            t_next = t + h
        if not t_next > t:
            raise IntegratorError(f"step size underflowed at t={t}")

        z1, z2 = y1 + h * (a21 * p1), y2 + h * (a21 * p2)
        z3, z4 = z1 if same else y3 + h * (a21 * p3), y4 + h * (a21 * p4)
        th = (th0 := w0a * z1 + w0n * z2 + w1a * z3) + (th1 := w1n * z4)
        q1, q2 = (1.0 - z1) * k1 * th - z1 * d1, (1.0 - z2) * k2 * th0 - z2 * d2
        q3, q4 = q1 if same else (1.0 - z3) * k3 * th - z3 * d3, (1.0 - z4) * k4 * th1 - z4 * d4
        z1, z2 = y1 + h * (a31 * p1 + a32 * q1), y2 + h * (a31 * p2 + a32 * q2)
        z3, z4 = z1 if same else y3 + h * (a31 * p3 + a32 * q3), y4 + h * (a31 * p4 + a32 * q4)
        th = (th0 := w0a * z1 + w0n * z2 + w1a * z3) + (th1 := w1n * z4)
        r1, r2 = (1.0 - z1) * k1 * th - z1 * d1, (1.0 - z2) * k2 * th0 - z2 * d2
        r3, r4 = r1 if same else (1.0 - z3) * k3 * th - z3 * d3, (1.0 - z4) * k4 * th1 - z4 * d4
        z1, z2 = y1 + h * (a41 * p1 + a42 * q1 + a43 * r1), y2 + h * (a41 * p2 + a42 * q2 + a43 * r2)
        z3, z4 = z1 if same else y3 + h * (a41 * p3 + a42 * q3 + a43 * r3), y4 + h * (a41 * p4 + a42 * q4 + a43 * r4)
        th = (th0 := w0a * z1 + w0n * z2 + w1a * z3) + (th1 := w1n * z4)
        s1, s2 = (1.0 - z1) * k1 * th - z1 * d1, (1.0 - z2) * k2 * th0 - z2 * d2
        s3, s4 = s1 if same else (1.0 - z3) * k3 * th - z3 * d3, (1.0 - z4) * k4 * th1 - z4 * d4
        z1 = y1 + h * (a51 * p1 + a52 * q1 + a53 * r1 + a54 * s1)
        z2 = y2 + h * (a51 * p2 + a52 * q2 + a53 * r2 + a54 * s2)
        z3 = z1 if same else y3 + h * (a51 * p3 + a52 * q3 + a53 * r3 + a54 * s3)
        z4 = y4 + h * (a51 * p4 + a52 * q4 + a53 * r4 + a54 * s4)
        th = (th0 := w0a * z1 + w0n * z2 + w1a * z3) + (th1 := w1n * z4)
        u1, u2 = (1.0 - z1) * k1 * th - z1 * d1, (1.0 - z2) * k2 * th0 - z2 * d2
        u3, u4 = u1 if same else (1.0 - z3) * k3 * th - z3 * d3, (1.0 - z4) * k4 * th1 - z4 * d4
        z1 = y1 + h * (a61 * p1 + a62 * q1 + a63 * r1 + a64 * s1 + a65 * u1)
        z2 = y2 + h * (a61 * p2 + a62 * q2 + a63 * r2 + a64 * s2 + a65 * u2)
        z3 = z1 if same else y3 + h * (a61 * p3 + a62 * q3 + a63 * r3 + a64 * s3 + a65 * u3)
        z4 = y4 + h * (a61 * p4 + a62 * q4 + a63 * r4 + a64 * s4 + a65 * u4)
        th = (th0 := w0a * z1 + w0n * z2 + w1a * z3) + (th1 := w1n * z4)
        v1, v2 = (1.0 - z1) * k1 * th - z1 * d1, (1.0 - z2) * k2 * th0 - z2 * d2
        v3, v4 = v1 if same else (1.0 - z3) * k3 * th - z3 * d3, (1.0 - z4) * k4 * th1 - z4 * d4
        n1 = y1 + h * (b1 * p1 + b3 * r1 + b4 * s1 + b5 * u1 + b6 * v1)
        n2 = y2 + h * (b1 * p2 + b3 * r2 + b4 * s2 + b5 * u2 + b6 * v2)
        n3 = n1 if same else y3 + h * (b1 * p3 + b3 * r3 + b4 * s3 + b5 * u3 + b6 * v3)
        n4 = y4 + h * (b1 * p4 + b3 * r4 + b4 * s4 + b5 * u4 + b6 * v4)
        # chained comparisons are False for NaN, so a non-finite state is rejected like one outside [lo, hi]
        if not (lo <= n1 <= hi and lo <= n2 <= hi and lo <= n3 <= hi and lo <= n4 <= hi):
            h *= 0.5
            n_rejected += 1
            continue
        if not (0.0 <= n1 <= 1.0 and 0.0 <= n2 <= 1.0 and 0.0 <= n3 <= 1.0 and 0.0 <= n4 <= 1.0):
            n1, n2, n3, n4 = (min(1.0, max(0.0, n)) for n in (n1, n2, n3, n4))
        # first-same-as-last: w, the last stage, is the rate at the new state
        th = (th0 := w0a * n1 + w0n * n2 + w1a * n3) + (th1 := w1n * n4)
        w1, w2 = (1.0 - n1) * k1 * th - n1 * d1, (1.0 - n2) * k2 * th0 - n2 * d2
        w3, w4 = w1 if same else (1.0 - n3) * k3 * th - n3 * d3, (1.0 - n4) * k4 * th1 - n4 * d4
        # RMS over the four coordinates (hypot / 2) of the error estimate, each
        # scaled by atol + rtol * max(|y|, |y_new|), where y and y_new lie in [0, 1]
        err1 = h * (e1 * p1 + e3 * r1 + e4 * s1 + e5 * u1 + e6 * v1 + e7 * w1) / (1.0 + (y1 if y1 > n1 else n1))
        err = math.hypot(
            err1,
            h * (e1 * p2 + e3 * r2 + e4 * s2 + e5 * u2 + e6 * v2 + e7 * w2) / (1.0 + (y2 if y2 > n2 else n2)),
            err1 if same  # the shared term twice, as the reference passes coordinate 3's equal one
            else h * (e1 * p3 + e3 * r3 + e4 * s3 + e5 * u3 + e6 * v3 + e7 * w3) / (1.0 + (y3 if y3 > n3 else n3)),
            h * (e1 * p4 + e3 * r4 + e4 * s4 + e5 * u4 + e6 * v4 + e7 * w4) / (1.0 + (y4 if y4 > n4 else n4)),
        ) / (2.0 * tol)
        factor = 10.0 if err == 0.0 else 0.9 * err ** -0.2  # clamped to [0.2, 10] as min(10, max(0.2, factor))
        h *= (factor if factor < 10.0 else 10.0) if factor > 0.2 else 0.2
        if err > 1.0:
            n_rejected += 1
            continue
        if n1 == y1 and n2 == y2 and n3 == y3 and n4 == y4:  # accepted, not converged, and the state did not move
            n_still += 1
            if n_still == stall_steps:
                raise IntegratorError(f"stalled at max|dr/dt| = {max(abs(p1), abs(p2), abs(p3), abs(p4))}: "
                                      f"{n_still} accepted steps by t={t} left the state unchanged")
        y1, y2, y3, y4, p1, p2, p3, p4, t = n1, n2, n3, n4, w1, w2, w3, w4, t_next
        states.append(tuple.__new__(DynState, (y1, y2, y3, y4, t)))  # DynState without its __new__

    max_rate = max(abs(p1), abs(p2), abs(p3), abs(p4))
    return Trajectory(tuple(states), converged, max_rate, n_rejected)


def verify_global_stability(run: Trajectory, p: ModelParams, a: Allocation,
                            cfg: IntegratorConfig = DEFAULT_INTEGRATOR) -> StabilityReport:
    """Certify run, the trajectory integrate returned from its start s0 at p, a and cfg, by two corner runs.

    The box runs from min(s0, seed_state(p, a)), coordinate by coordinate, to seed_state(p, a, 1.0), integrate's
    all-ones start; a corner equal to s0 is run itself, not integrated again. The system is cooperative: every
    off-diagonal Jacobian entry of rate_function, m_i (1 - r_i) k nu w_j, is >= 0 on [0, 1]^4. By Kamke's
    comparison theorem (H. L. Smith, Monotone Dynamical Systems, AMS Math. Surveys 41, 1995, ch. 3) ordered starts
    give ordered trajectories, so at equal times the corner runs bound, coordinate by coordinate, every run from
    the box: s0's, and one from any start in [DEFAULT_SEED_LEVEL, 1]^4, which contains [0.01, 0.99]^4. But a run
    stops once max|dr/dt| < conv_tol, which a start with a tiny rumor can meet before the rumor grows, so run's own
    final state counts too: passes iff all three runs converge and their final states agree to STABILITY_TOL in
    sup distance over the four coordinates. A run that stops at the horizon fails the report; a corner run that
    exhausts MAX_STEPS or stalls raises IntegratorError, as integrate does.
    """
    s0 = run.states[0]
    corners = DynState(*map(min, s0[:4], seed_state(p, a)[:4])), seed_state(p, a, 1.0)
    low, top = (run if corner == s0 else integrate(corner, p, a, cfg) for corner in corners)
    all_converged = run.converged and low.converged and top.converged
    max_gap = max(max(c) - min(c) for c in zip(run.final[:4], low.final[:4], top.final[:4]))
    passed = all_converged and max_gap < STABILITY_TOL
    return StabilityReport(passed, all_converged, max_gap, (low.final, top.final))
