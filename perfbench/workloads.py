"""Seeded command lists for the four benchmark workloads.

Every workload is a list of CLI argv lists, built from ``random.Random(seed)``
alone, so the same seed always yields the same commands. Points are drawn
from lambda in [1.5, 5] and x in [0.1, 0.5] by Latin-hypercube sampling: one
point per lambda stratum, with the x strata shuffled against them. The
stratification, and sweep ranges placed relative to each axis's eradication
threshold with a fixed share of endemic points, keep the work in one pass
nearly the same for every seed, so run-to-run spread comes from the machine
and the program rather than from the draw.

``small=True`` gives the tiny variants used by the smoke mode.
"""

from __future__ import annotations

import random

LAM_RANGE = (1.5, 5.0)
X_RANGE = (0.1, 0.5)

OBJECTIVES = ("rumor-min", "truth", "truth-targeted", "platform")

# Rumor reproduction number lam*(1-x)*(1-alpha) among non-inspecting
# rumor-biased agents. Fixing it fixes the rumor's growth and decay rates, so
# the RK4 step count of a run hardly depends on (lambda, x): about 10.5k
# steps at 1.5 and 81k at 1.05 with the default dt.
DYN_FAST_R = 1.5
DYN_SLOW_R = 1.05
# Points used for sweeps along alpha and for dynamics need lam*(1-x) above
# both reproduction numbers with room to spare.
MIN_LAMX = 1.6
# Share of each steady sweep that lies on the endemic side of the threshold.
ENDEMIC_SHARE = 0.6


def num(v: float) -> str:
    """Command-line spelling of a drawn value (six decimals)."""
    return repr(round(v, 6))


def latin_points(rng: random.Random, n: int, min_lamx: float = 0.0) -> list[tuple[float, float]]:
    """n (lambda, x) points, one per lambda stratum, x strata shuffled.

    With min_lamx > 0 the draw is confined to lam*(1-x) >= min_lamx: lambda
    strata start where that is reachable, and x strata span the feasible
    part of the x range at the drawn lambda.
    """
    (l0, l1), (x0, x1) = LAM_RANGE, X_RANGE
    lam_lo = max(l0, min_lamx / (1.0 - x0))
    perm = list(range(n))
    rng.shuffle(perm)
    points = []
    for i, j in enumerate(perm):
        lam = lam_lo + (l1 - lam_lo) * (i + rng.random()) / n
        x_hi = min(x1, 1.0 - min_lamx / lam)
        x = x0 + (x_hi - x0) * (j + rng.random()) / n
        points.append((round(lam, 6), round(x, 6)))
    return points


def _base(lam: float, x: float) -> list[str]:
    return ["--lambda", num(lam), "--x", num(x)]


def _alpha_at(lam: float, x: float, r: float) -> float:
    """Uniform rate that gives the rumor reproduction number r."""
    return 1.0 - r / (lam * (1.0 - x))


def plan(seed: int, small: bool = False) -> list[list[str]]:
    """thresholds and optimize for all four objectives, one command per point.

    15 points: at 0.25-0.5 s a command, three passes still fit in a 20 s run.
    """
    rng = random.Random(seed)
    if small:
        return [
            ["thresholds", "--lambda", "2", "--x", "0.3"],
            ["optimize", "--objective", "truth-targeted", "--lambda", "2", "--x", "0.3", "--A", "0.28"],
        ]
    kinds = ["thresholds", *OBJECTIVES]
    cmds = []
    for i, (lam, x) in enumerate(latin_points(rng, 15)):
        if i % len(kinds) == 0:
            rng.shuffle(kinds)
        kind = kinds[i % len(kinds)]
        if kind == "thresholds":
            cmds.append(["thresholds", *_base(lam, x)])
        else:
            A = rng.uniform(0.05, 0.5)
            cmds.append(["optimize", "--objective", kind, *_base(lam, x), "--A", num(A)])
    return cmds


def budget_sweep(seed: int, small: bool = False) -> list[list[str]]:
    """sweep --axis A for every objective: per-budget optimizer calls, no bundle.

    Many short sweeps rather than a few long ones: 25 points instead of 6
    average out more of the differences in work between seeds.
    """
    rng = random.Random(seed)
    n, steps = (1, 5) if small else (25, 11)
    cmds = []
    for lam, x in latin_points(rng, n):
        for obj in OBJECTIVES:
            cmds.append(["sweep", "--axis", "A", "--objective", obj, *_base(lam, x), "--steps", str(steps)])
    return cmds


def _sweep(axis: str, lo: float, hi: float, steps: int, rest: list[str]) -> list[str]:
    return ["sweep", "--axis", axis, "--start", num(lo), "--stop", num(hi), "--steps", str(steps), *rest]


def steady_sweep(seed: int, small: bool = False) -> list[list[str]]:
    """alpha, lambda and x sweeps across the eradication threshold, plus single steady calls.

    Each sweep puts ENDEMIC_SHARE of its points where the rumor is endemic,
    where the truth needs a root solve; the rest use the no-rumor closed form.
    Sweeps are 15% of the commands, so p90 falls among the sweeps rather than
    in the noisy tail of the single calls.
    """
    rng = random.Random(seed)
    n_sweeps, steps, n_single = (1, 21, 6) if small else (6, 2001, 100)
    share = ENDEMIC_SHARE
    cmds = []
    for lam, x in latin_points(rng, n_sweeps, MIN_LAMX):
        # alpha axis: endemic below alpha' = 1 - 1/(lam*(1-x)), which lies in [0.375, 0.8)
        crit = 1.0 - 1.0 / (lam * (1.0 - x))
        cmds.append(_sweep("alpha", crit - 0.5 * share, crit + 0.5 * (1.0 - share), steps, _base(lam, x)))
    for lam, x in latin_points(rng, n_sweeps):
        # lambda axis: endemic above 1/((1-x)(1-alpha))
        alpha = rng.uniform(0.1, 0.4)
        crit = 1.0 / ((1.0 - x) * (1.0 - alpha))
        lo = 0.5 * crit
        hi = crit + (crit - lo) * share / (1.0 - share)
        cmds.append(_sweep("lambda", lo, hi, steps, ["--x", num(x), "--alpha", num(alpha)]))
    for lam, _ in latin_points(rng, n_sweeps):
        # x axis: endemic below 1 - 1/(lam*(1-alpha)); pick alpha to place it in [0.35, 0.65]
        crit = rng.uniform(0.35, 0.65)
        while lam * (1.0 - crit) < 1.0:
            lam = rng.uniform(*LAM_RANGE)
        alpha = round(1.0 - 1.0 / (lam * (1.0 - crit)), 6)
        crit = 1.0 - 1.0 / (lam * (1.0 - alpha))
        cmds.append(_sweep("x", crit - 0.5 * share, crit + 0.5 * (1.0 - share), steps,
                           ["--lambda", num(lam), "--alpha", num(alpha)]))
    for i, (lam, x) in enumerate(latin_points(rng, n_single)):
        form = i % 5
        if form < 2:
            alloc = ["--alpha", num(rng.random())]
        else:
            alloc = ["--alpha0", num(rng.random()), "--alpha1", num(rng.random())]
        if form == 4 or (form == 1 and i % 2):
            delta = rng.uniform(0.2, 1.0)
            k = float(rng.randint(1, 10))
            params = ["--nu", num(lam * delta / k), "--k", num(k), "--delta", num(delta), "--x", num(x)]
        else:
            params = _base(lam, x)
        cmds.append(["steady", *params, *alloc])
    return cmds


def dynamics(seed: int, small: bool = False) -> list[list[str]]:
    """Fast-converging and slow-tail trajectories plus one 8-start stability check.

    The slow runs and the stability check cost about the same and make up a
    fifth of the commands, so p90 falls inside that group, not at its edge.
    """
    rng = random.Random(seed)
    n_fast, n_slow, starts = (1, 0, 2) if small else (12, 2, 8)
    cmds = []
    for lam, x in latin_points(rng, n_fast, MIN_LAMX):
        cmds.append(["dynamics", *_base(lam, x), "--alpha", num(_alpha_at(lam, x, DYN_FAST_R))])
    for lam, x in latin_points(rng, n_slow, MIN_LAMX):
        cmds.append(["dynamics", *_base(lam, x), "--alpha", num(_alpha_at(lam, x, DYN_SLOW_R))])
    (lam, x), = latin_points(rng, 1, MIN_LAMX)
    cmds.append(["dynamics", *_base(lam, x), "--alpha", num(_alpha_at(lam, x, DYN_FAST_R)),
                 "--starts", str(starts), "--seed", str(rng.randrange(2**31))])
    return cmds


WORKLOADS = {
    "plan": plan,
    "budget-sweep": budget_sweep,
    "steady-sweep": steady_sweep,
    "dynamics": dynamics,
}
