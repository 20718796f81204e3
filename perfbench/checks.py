"""Correctness checks on CLI output that do not depend on how the solvers work.

Each check takes the argv of one command and the text it printed, and returns
a list of problems (empty when the output is right). The checks use the
model's defining equations written out here, and the package's public
solvers only as a reference for recomputing a reported value or for a
brute-force scan against an optimizer.
"""

from __future__ import annotations

import math

import numpy as np

from rumor_inspect import Allocation, ModelParams, full_steady_state, rumor_steady_state, truth_steady_state
from rumor_inspect.planner import maximize_platform, maximize_truth_uniform

RESIDUAL_TOL = 1e-10   # fixed-point residual; the default solver tol is 1e-12
EXACT_TOL = 1e-12      # closed forms and recomputed values
SCAN_TOL = 1e-9        # how far a brute-force point may beat a reported optimum
DYN_TOL = 1e-6         # trajectory limit against the steady state
THRESHOLD_RESOLUTION = 1e-6  # compute_thresholds' default resolution
FLIP_STEPS = 3         # slack must flip within this many resolutions of a threshold

STEADY_FRACTIONS = ("theta0", "theta1", "theta", "rho_00_a", "rho_10_a", "rho_00_na", "rho_11_na")


def flags(argv: list[str]) -> dict[str, str]:
    """The '--name value' pairs of an argv list."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2) if argv[i].startswith("--")}


def parse_csv(text: str) -> tuple[list[dict], dict]:
    """Rows of a CSV document as dicts of strings, and its '# key: value' summary lines."""
    lines = text.splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    summary = {}
    for ln in lines[2:]:
        if ln.startswith("# ") and ": " in ln:
            key, val = ln[2:].split(": ", 1)
            summary[key] = val
    header = body[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in body[1:]], summary


def _num(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _lam(f: dict[str, str]) -> float:
    if "lambda" in f:
        return float(f["lambda"])
    return float(f["nu"]) * float(f["k"]) / float(f["delta"])


def _alphas(f: dict[str, str]) -> tuple[float, float]:
    if "alpha" in f:
        return float(f["alpha"]), float(f["alpha"])
    return float(f["alpha0"]), float(f["alpha1"])


def rumor_closed_form(lam: float, x: float, a1: float) -> float:
    return max(0.0, (1.0 - a1) * (1.0 - x) - 1.0 / lam)


def truth_map(t0: float, t1: float, lam: float, x: float, a0: float, a1: float) -> float:
    """Inspectors respond to total prevalence, non-inspecting type-0 agents to the truth alone."""
    inspecting = x * a0 + (1.0 - x) * a1
    t = t0 + t1
    return inspecting * lam * t / (1.0 + lam * t) + x * (1.0 - a0) * lam * t0 / (1.0 + lam * t0)


# ---------------------------------------------------------------------------
# steady and sweep rows
# ---------------------------------------------------------------------------

def check_steady_row(row: dict[str, str], lam: float, x: float, a0: float, a1: float) -> list[str]:
    v = {k: float(row[k]) for k in STEADY_FRACTIONS}
    bad = [f"{k}={v[k]} outside [0, 1]" for k in STEADY_FRACTIONS if not 0.0 <= v[k] <= 1.0]
    if v["theta"] != v["theta0"] + v["theta1"]:
        bad.append(f"theta {v['theta']} != theta0 + theta1")
    closed = rumor_closed_form(lam, x, a1)
    if not abs(v["theta1"] - closed) <= EXACT_TOL:
        bad.append(f"theta1 {v['theta1']} != closed form {closed}")
    residual = abs(v["theta0"] - truth_map(v["theta0"], v["theta1"], lam, x, a0, a1))
    if not residual <= RESIDUAL_TOL:
        bad.append(f"fixed-point residual {residual:.3g} above {RESIDUAL_TOL}")
    if (row["eradicated"] == "true") != (v["theta1"] == 0.0):
        bad.append(f"eradicated={row['eradicated']} but theta1={v['theta1']}")
    return bad


def check_steady(argv: list[str], text: str, notes: list[str]) -> list[str]:
    f = flags(argv)
    rows, _ = parse_csv(text)
    if len(rows) != 1:
        return [f"expected one row, got {len(rows)}"]
    return check_steady_row(rows[0], _lam(f), float(f["x"]), *_alphas(f))


def check_sweep(argv: list[str], text: str, notes: list[str]) -> list[str]:
    f = flags(argv)
    axis = f["axis"]
    rows, _ = parse_csv(text)
    if len(rows) != int(f["steps"]):
        return [f"expected {f['steps']} rows, got {len(rows)}"]
    if axis == "A":
        return check_budget_sweep(f, rows, notes)
    bad = []
    for row in rows:
        v = float(row[axis])
        lam = v if axis == "lambda" else _lam(f)
        x = v if axis == "x" else float(f["x"])
        a0, a1 = (v, v) if axis == "alpha" else _alphas(f)
        bad += [f"{axis}={v}: {b}" for b in check_steady_row(row, lam, x, a0, a1)]
    return bad


def check_budget_sweep(f: dict[str, str], rows: list[dict[str, str]], notes: list[str]) -> list[str]:
    p = ModelParams.from_lambda(_lam(f), float(f["x"]))
    bad = []
    for row in rows:
        A = float(row["A"])
        bad += [f"A={A}: {b}" for b in check_optimum(p, f["objective"], A, row, 11, notes)]
    return bad


# ---------------------------------------------------------------------------
# optimize and thresholds
# ---------------------------------------------------------------------------

def _objective_fn(p: ModelParams, objective: str):
    if objective == "rumor-min":
        return lambda a: -rumor_steady_state(p, a)
    if objective == "platform":
        return lambda a: truth_steady_state(p, a) + rumor_steady_state(p, a)
    return lambda a: truth_steady_state(p, a)


def _scan_allocations(p: ModelParams, objective: str, A: float, n: int) -> list[Allocation]:
    if objective != "truth-targeted":
        return [Allocation.uniform(float(a)) for a in np.linspace(0.0, min(A, 1.0), n)]
    x = p.x
    grid = np.linspace(0.0, 1.0, n)
    allocs = [Allocation.targeted(float(a0), float(a1)) for a0 in grid for a1 in grid
              if x * a0 + (1.0 - x) * a1 <= A]
    # the budget line itself, where the optimum usually sits
    for a1 in np.linspace(0.0, min(1.0, A / (1.0 - x)), 4 * n):
        a0 = min(1.0, max(0.0, (A - (1.0 - x) * a1) / x))
        if x * a0 + (1.0 - x) * a1 <= A:
            allocs.append(Allocation.targeted(a0, float(a1)))
    return allocs


def check_optimum(p: ModelParams, objective: str, A: float, row: dict[str, str], scan_points: int,
                  notes: list[str]) -> list[str]:
    """Recompute the objective at the reported allocation and brute-force the feasible set.

    The targeted planner guarantees an optimum only for A <= x: above the
    type-0 mass it searches the budget line alone, which the library flags as
    no longer guaranteed optimal. A scan point that beats it there is appended
    to `notes` instead of failing the check.
    """
    a0, a1 = float(row["alpha0"]), float(row["alpha1"])
    if objective == "truth-targeted":
        alloc = Allocation.targeted(a0, a1)
        spend = p.x * a0 + (1.0 - p.x) * a1
    else:
        if a0 != a1:
            return [f"uniform objective {objective} reported alpha0 {a0} != alpha1 {a1}"]
        alloc = Allocation.uniform(a0)
        spend = a0
    bad = []
    if not spend <= A + EXACT_TOL:
        bad.append(f"spend {spend} exceeds A={A}")
    if not abs(float(row["budget_spent"]) - spend) <= EXACT_TOL:
        bad.append(f"budget_spent {row['budget_spent']} != spend {spend}")
    f = _objective_fn(p, objective)
    value = f(alloc)
    reported = float(row["objective"])
    signed = -reported if objective == "rumor-min" else reported
    if not abs(value - signed) <= EXACT_TOL:
        bad.append(f"objective {reported} does not recompute ({abs(value):.17g})")
    if (row["rumor_eradicated"] == "true") != (rumor_steady_state(p, alloc) == 0.0):
        bad.append(f"rumor_eradicated={row['rumor_eradicated']} disagrees with the allocation")
    best = max(_scan_allocations(p, objective, A, scan_points), key=f)
    if f(best) > signed + SCAN_TOL:
        msg = (f"scan point ({best.alpha0}, {best.alpha1}) beats the optimum: "
               f"{abs(f(best)):.12g} vs {reported:.12g}")
        if objective == "truth-targeted" and A > p.x:
            notes.append(f"A={A} > x={p.x}, outside the targeted planner's guarantee: {msg}")
        else:
            bad.append(msg)
    return bad


def _closed_thresholds(lam: float, x: float) -> dict[str, float | None]:
    lx = lam * (1.0 - x)
    radicand = 2.0 - 1.0 / (1.0 - x)
    disc = (4.0 - x) ** 2 - 12.0
    return {
        "alpha_prime": 0.0 if lx <= 1.0 else 1.0 - 1.0 / lx,
        "lambda_bar": 2.0 + math.sqrt(radicand) if radicand >= 0.0 else None,
        "interval_lo": (4.0 - x - math.sqrt(disc)) / 2.0 if disc >= 0.0 else None,
        "interval_hi": (4.0 - x + math.sqrt(disc)) / 2.0 if disc >= 0.0 else None,
    }


def _flip(slack, at: float, before: bool, after: bool, name: str) -> list[str]:
    """slack must read `before` just below `at` and `after` just above (inside (0, 1])."""
    step = FLIP_STEPS * THRESHOLD_RESOLUTION
    bad = []
    for A, want in ((at - step, before), (at + step, after)):
        if 0.0 < A <= 1.0 and slack(A) != want:
            bad.append(f"{name}={at}: slack at A={A} is {not want}, expected {want}")
    return bad


def check_thresholds_row(p: ModelParams, row: dict[str, str]) -> list[str]:
    bad = []
    for key, want in _closed_thresholds(p.lam, p.x).items():
        got = _num(row[key])
        if (got is None) != (want is None) or (want is not None and not abs(got - want) <= EXACT_TOL):
            bad.append(f"{key} {got} != closed form {want}")

    def planner_slack(A: float) -> bool:
        return maximize_truth_uniform(p, A).slack

    def platform_slack(A: float) -> bool:
        return maximize_platform(p, A).slack

    a_lower, a_upper, a_tilde = (_num(row[k]) for k in ("A_lower", "A_upper", "A_tilde"))
    if (a_lower is None) != (a_upper is None):
        bad.append(f"A_lower {a_lower} and A_upper {a_upper} must both be set or both be empty")
    if a_lower is not None:
        bad += _flip(planner_slack, a_lower, False, True, "A_lower")
    if a_upper is not None:
        bad += _flip(planner_slack, a_upper, True, False, "A_upper")
    if a_tilde is not None:
        bad += _flip(platform_slack, a_tilde, True, False, "A_tilde")
    return bad


def check_optimize(argv: list[str], text: str, notes: list[str]) -> list[str]:
    f = flags(argv)
    rows, _ = parse_csv(text)
    if len(rows) != 1:
        return [f"expected one row, got {len(rows)}"]
    p = ModelParams.from_lambda(_lam(f), float(f["x"]))
    return check_optimum(p, f["objective"], float(f["A"]), rows[0], 41, notes) + check_thresholds_row(p, rows[0])


def check_thresholds(argv: list[str], text: str, notes: list[str]) -> list[str]:
    f = flags(argv)
    rows, _ = parse_csv(text)
    if len(rows) != 1:
        return [f"expected one row, got {len(rows)}"]
    p = ModelParams.from_lambda(_lam(f), float(f["x"]))
    row = rows[0]
    bad = check_thresholds_row(p, row)
    g = 1.0 / p.lam - p.x
    reading = float(row["positivity_alpha"])
    if not abs(reading - g / (1.0 - p.x)) <= EXACT_TOL:
        bad.append(f"positivity_alpha {reading} != (1/lam - x)/(1 - x)")
    return bad


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

DYN_COLUMNS = ("r00a", "r00na", "r10a", "r11na", "theta0", "theta1")


def check_dynamics(argv: list[str], text: str, notes: list[str]) -> list[str]:
    f = flags(argv)
    rows, summary = parse_csv(text)
    bad = []
    if summary.get("status") != "converged":
        bad.append(f"status {summary.get('status')!r}, expected 'converged'")
    if "starts" in f and summary.get("stability_passed") != "true":
        bad.append(f"stability_passed {summary.get('stability_passed')!r}")
    for row in rows:
        for key in DYN_COLUMNS:
            if not 0.0 <= float(row[key]) <= 1.0:
                bad.append(f"t={row['t']}: {key}={row[key]} outside [0, 1]")
    x = float(f["x"])
    a0, a1 = _alphas(f)
    alloc = Allocation.uniform(a0) if "alpha" in f else Allocation.targeted(a0, a1)
    ss = full_steady_state(ModelParams.from_lambda(_lam(f), x), alloc)
    want = dict(zip(DYN_COLUMNS, (ss.rho_00_a, ss.rho_00_na, ss.rho_10_a, ss.rho_11_na, ss.theta0, ss.theta1)))
    masses = dict(zip(DYN_COLUMNS, (x * a0, x * (1.0 - a0), (1.0 - x) * a1, (1.0 - x) * (1.0 - a1), 1.0, 1.0)))
    final = rows[-1]
    for key, target in want.items():
        # an empty group's coordinate is pinned at zero and has no steady value
        if masses[key] > 0.0 and not abs(float(final[key]) - target) <= DYN_TOL:
            bad.append(f"final {key}={final[key]} differs from steady state {target} by more than {DYN_TOL}")
    return bad


CHECKS = {
    "steady": check_steady,
    "sweep": check_sweep,
    "optimize": check_optimize,
    "thresholds": check_thresholds,
    "dynamics": check_dynamics,
}


def check(argv: list[str], text: str, notes: list[str]) -> list[str]:
    """Problems with the output of one successful command; empty when it is correct.

    Findings outside what the program guarantees are appended to `notes`.
    """
    try:
        return CHECKS[argv[0]](argv, text, notes)
    except (KeyError, ValueError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    except (ArithmeticError, RuntimeError) as exc:
        # the reference solve itself failed, e.g. SolverError on a broken model
        return [f"reference computation failed: {type(exc).__name__}: {exc}"]
