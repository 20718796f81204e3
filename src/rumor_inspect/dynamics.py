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

Integration uses a fixed-step classical 4th-order Runge-Kutta scheme with
step halving on domain violation. The system is smooth and non-stiff at
the canonical delta = 0.5, and the limit of the iteration is a fixed point
of the exact dynamics, so steady-state limits do not depend on dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import Allocation, ModelParams, ParameterError, group_masses, prevalences


class DynState(NamedTuple):
    """Believing fractions of the four groups at time t."""

    r00a: float   # inspecting type-0
    r00na: float  # non-inspecting type-0
    r10a: float   # inspecting type-1
    r11na: float  # non-inspecting type-1
    t: float = 0.0


class Rates(NamedTuple):
    r00a: float
    r00na: float
    r10a: float
    r11na: float


class IntegratorError(RuntimeError):
    """The integrator could not keep the state inside [0, 1]; reduce dt."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings. t_max = None means 1e4 / delta."""

    dt: float = 0.01
    t_max: float | None = None
    conv_tol: float = 1e-10

    def __post_init__(self):
        for name, v in (("dt", self.dt), ("t_max", self.t_max), ("conv_tol", self.conv_tol)):
            if v is not None and not 0.0 < v < math.inf:
                raise ParameterError(f"{name} must be finite and positive, got {v}")


DEFAULT_INTEGRATOR = IntegratorConfig()

DEFAULT_SEED_LEVEL = 1e-3  # "small initial infection" in every live group
STABILITY_TOL = 1e-6  # sup distance within which multi-start limits count as one


@dataclass(frozen=True)
class Trajectory:
    """Sampled path of the dynamics plus its termination status."""

    states: tuple[DynState, ...]
    converged: bool
    max_rate: float  # residual max |dr/dt| at the final state
    n_steps: int

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
    tol: float


def derivatives(s: DynState, p: ModelParams, a: Allocation) -> Rates:
    """Per-capita rates of change; empty groups get an exact zero rate."""
    for name, v in zip(("r00a", "r00na", "r10a", "r11na"), s[:4]):
        if not 0.0 <= v <= 1.0:
            raise ParameterError(f"{name} must lie in [0, 1], got {v}")
    theta0, theta1 = prevalences(s, p, a)
    theta = theta0 + theta1
    kv = p.k * p.nu
    d = p.delta
    m = group_masses(p, a)
    return Rates(
        ((1.0 - s.r00a) * kv * theta - s.r00a * d) if m[0] > 0.0 else 0.0,
        ((1.0 - s.r00na) * kv * theta0 - s.r00na * d) if m[1] > 0.0 else 0.0,
        ((1.0 - s.r10a) * kv * theta - s.r10a * d) if m[2] > 0.0 else 0.0,
        ((1.0 - s.r11na) * kv * theta1 - s.r11na * d) if m[3] > 0.0 else 0.0,
    )


def seed_state(p: ModelParams, a: Allocation, level: float = DEFAULT_SEED_LEVEL) -> DynState:
    """Initial state with `level` believers in every non-empty group."""
    if not 0.0 <= level <= 1.0:
        raise ParameterError(f"seed level must lie in [0, 1], got {level}")
    m = group_masses(p, a)
    return DynState(*(level if mi > 0.0 else 0.0 for mi in m), t=0.0)


_DOMAIN_SLACK = 1e-12  # round-off allowance before a step is rejected
_MAX_HALVINGS = 40


def integrate(
    s0: DynState,
    p: ModelParams,
    a: Allocation,
    cfg: IntegratorConfig = DEFAULT_INTEGRATOR,
    store_every: int = 1,
) -> Trajectory:
    """Run the dynamics from s0 until the rates vanish or the horizon is hit.

    The trajectory is sampled every `store_every` accepted steps (the initial
    and final states are always stored). Coordinates of empty groups are
    forced to zero at the start and never move.
    """
    if store_every < 1:
        raise ParameterError(f"store_every must be >= 1, got {store_every}")
    for name, v in zip(("r00a", "r00na", "r10a", "r11na"), s0[:4]):
        if not 0.0 <= v <= 1.0:
            raise ParameterError(f"{name} must lie in [0, 1], got {v}")

    w0a, w0n, w1a, w1n = group_masses(p, a)
    # pin empty groups at zero (mass-weighted sums ignore them anyway)
    m1 = 1.0 if w0a > 0.0 else 0.0
    m2 = 1.0 if w0n > 0.0 else 0.0
    m3 = 1.0 if w1a > 0.0 else 0.0
    m4 = 1.0 if w1n > 0.0 else 0.0
    r1, r2, r3, r4 = m1 * s0.r00a, m2 * s0.r00na, m3 * s0.r10a, m4 * s0.r11na

    kv = p.k * p.nu
    d = p.delta
    dt = cfg.dt
    t_max = cfg.t_max if cfg.t_max is not None else 1e4 / p.delta
    conv_tol = cfg.conv_tol
    t = 0.0
    n_steps = 0
    states = [DynState(r1, r2, r3, r4, t)]
    converged = False
    max_rate = 0.0
    lo, hi = -_DOMAIN_SLACK, 1.0 + _DOMAIN_SLACK

    while True:
        th0 = w0a * r1 + w0n * r2 + w1a * r3
        th1 = w1n * r4
        th = th0 + th1
        k1a = m1 * ((1.0 - r1) * kv * th - r1 * d)
        k1b = m2 * ((1.0 - r2) * kv * th0 - r2 * d)
        k1c = m3 * ((1.0 - r3) * kv * th - r3 * d)
        k1d = m4 * ((1.0 - r4) * kv * th1 - r4 * d)
        max_rate = max(abs(k1a), abs(k1b), abs(k1c), abs(k1d))
        if max_rate < conv_tol:
            converged = True
            break
        if t >= t_max - 1e-15:
            break

        for halving in range(_MAX_HALVINGS + 1):
            h = dt
            h2 = 0.5 * h
            s1, s2, s3, s4 = r1 + h2 * k1a, r2 + h2 * k1b, r3 + h2 * k1c, r4 + h2 * k1d
            th0 = w0a * s1 + w0n * s2 + w1a * s3
            th1 = w1n * s4
            th = th0 + th1
            k2a = m1 * ((1.0 - s1) * kv * th - s1 * d)
            k2b = m2 * ((1.0 - s2) * kv * th0 - s2 * d)
            k2c = m3 * ((1.0 - s3) * kv * th - s3 * d)
            k2d = m4 * ((1.0 - s4) * kv * th1 - s4 * d)
            s1, s2, s3, s4 = r1 + h2 * k2a, r2 + h2 * k2b, r3 + h2 * k2c, r4 + h2 * k2d
            th0 = w0a * s1 + w0n * s2 + w1a * s3
            th1 = w1n * s4
            th = th0 + th1
            k3a = m1 * ((1.0 - s1) * kv * th - s1 * d)
            k3b = m2 * ((1.0 - s2) * kv * th0 - s2 * d)
            k3c = m3 * ((1.0 - s3) * kv * th - s3 * d)
            k3d = m4 * ((1.0 - s4) * kv * th1 - s4 * d)
            s1, s2, s3, s4 = r1 + h * k3a, r2 + h * k3b, r3 + h * k3c, r4 + h * k3d
            th0 = w0a * s1 + w0n * s2 + w1a * s3
            th1 = w1n * s4
            th = th0 + th1
            k4a = m1 * ((1.0 - s1) * kv * th - s1 * d)
            k4b = m2 * ((1.0 - s2) * kv * th0 - s2 * d)
            k4c = m3 * ((1.0 - s3) * kv * th - s3 * d)
            k4d = m4 * ((1.0 - s4) * kv * th1 - s4 * d)
            h6 = h / 6.0
            n1 = r1 + h6 * (k1a + 2.0 * (k2a + k3a) + k4a)
            n2 = r2 + h6 * (k1b + 2.0 * (k2b + k3b) + k4b)
            n3 = r3 + h6 * (k1c + 2.0 * (k2c + k3c) + k4c)
            n4 = r4 + h6 * (k1d + 2.0 * (k2d + k3d) + k4d)
            if lo <= n1 <= hi and lo <= n2 <= hi and lo <= n3 <= hi and lo <= n4 <= hi:
                break
            dt *= 0.5  # the reduced step persists for the rest of the run
        else:
            raise IntegratorError(
                f"state left [0, 1] at t={t} even after {_MAX_HALVINGS} step "
                f"halvings; use a smaller dt than {cfg.dt}"
            )
        r1 = min(1.0, max(0.0, n1))
        r2 = min(1.0, max(0.0, n2))
        r3 = min(1.0, max(0.0, n3))
        r4 = min(1.0, max(0.0, n4))
        t += dt
        n_steps += 1
        if n_steps % store_every == 0:
            states.append(DynState(r1, r2, r3, r4, t))

    final = DynState(r1, r2, r3, r4, t)
    if states[-1] != final:
        states.append(final)
    return Trajectory(states=tuple(states), converged=converged, max_rate=max_rate, n_steps=n_steps)


def state_distance(u: DynState, v: DynState) -> float:
    """Sup distance over the four group coordinates (time is ignored)."""
    return max(abs(ui - vi) for ui, vi in zip(u[:4], v[:4]))


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
    STABILITY_TOL in sup distance. A non-converged trajectory yields a
    failing report, not an exception.
    """
    check_stability_args(n_starts, seed)
    rng = np.random.default_rng(seed)
    masses = group_masses(p, a)
    starts = [seed_state(p, a)]
    for _ in range(n_starts):
        draw = rng.uniform(0.01, 0.99, size=4)
        starts.append(DynState(*(float(v) if m > 0.0 else 0.0 for v, m in zip(draw, masses)), t=0.0))

    trajectories = [integrate(s0, p, a, cfg, store_every=1_000_000_000) for s0 in starts]
    limits = [traj.final for traj in trajectories]
    all_converged = all(traj.converged for traj in trajectories)

    max_gap = 0.0
    for i in range(len(limits)):
        for j in range(i + 1, len(limits)):
            max_gap = max(max_gap, state_distance(limits[i], limits[j]))
    return StabilityReport(
        passed=all_converged and max_gap < STABILITY_TOL,
        all_converged=all_converged,
        max_gap=max_gap,
        limits=tuple(limits),
        tol=STABILITY_TOL,
    )
