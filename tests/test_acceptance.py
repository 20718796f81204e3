"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. Expected
values tagged as oracle-derived were computed with the independent brentq
oracle in conftest.py before the solvers were written.
"""

import math

import numpy as np
import pytest

from conftest import cubic_coefficients, diversification_budget_range, oracle_region_max
from rumor_inspect import (
    Allocation,
    ModelParams,
    compute_thresholds,
    eradication_threshold,
    full_steady_state,
    maximize_platform,
    maximize_truth_targeted,
    maximize_truth_uniform,
    prevalences,
    rumor_steady_state,
    truth_steady_state,
    verify_global_stability,
)
from rumor_inspect.cli import RunConfig, main, sweep_records
from rumor_inspect.model import DEFAULT_SOLVER

LAM_GRID = (0.5, 1.0, 2.0, 3.0, 5.0)
X_GRID = (0.0, 0.3, 0.5, 0.7, 1.0)
ALPHA_GRID = (0.0, 0.2, 0.5, 2.0 / 7.0, 1.0)


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_c1_closed_form_grid():
    worst_rumor = 0.0
    worst_thr = 0.0
    for lam in LAM_GRID:
        for x in X_GRID:
            p = ModelParams.from_lambda(lam, x)
            expected_thr = 0.0 if (x >= 1.0 or lam * (1.0 - x) <= 1.0) else 1.0 - 1.0 / (lam * (1.0 - x))
            worst_thr = max(worst_thr, abs(eradication_threshold(p) - expected_thr))
            for alpha in ALPHA_GRID:
                got = rumor_steady_state(p, Allocation.uniform(alpha))
                expected = max(0.0, (1.0 - alpha) * (1.0 - x) - 1.0 / lam) if x < 1.0 else 0.0
                if alpha >= expected_thr:
                    expected = 0.0
                worst_rumor = max(worst_rumor, abs(got - expected))
    report(
        "closed-form grid (rumor prevalence and eradication threshold)",
        worst_rumor < 1e-12 and worst_thr < 1e-12,
        f"max rumor err {worst_rumor:.2e}, max threshold err {worst_thr:.2e}",
    )


def test_c2_fixed_point_vs_ode():
    endemic = 0
    worst_theta = 0.0
    worst_gap = 0.0
    all_ok = True
    for lam in LAM_GRID:
        for x in X_GRID:
            p = ModelParams.from_lambda(lam, x)
            for alpha in ALPHA_GRID:
                a = Allocation.uniform(alpha)
                ss = full_steady_state(p, a)
                if ss.theta <= 0.0:
                    continue
                endemic += 1
                rep = verify_global_stability(p, a, 8, seed=2024)
                all_ok = all_ok and rep.passed
                worst_gap = max(worst_gap, rep.max_gap)
                th0, th1 = prevalences(rep.limits[0], p, a)
                worst_theta = max(worst_theta, abs(th0 - ss.theta0), abs(th1 - ss.theta1))
    report(
        "fixed point vs ODE limits on the endemic grid",
        all_ok and worst_theta < 1e-6 and worst_gap < 1e-6,
        f"{endemic} endemic points, worst theta err {worst_theta:.2e}, worst seed gap {worst_gap:.2e}",
    )


def test_c3_alpha_sweep_shape():
    cfg = RunConfig(command="sweep", lam=2.0, x=0.3, axis="alpha", steps=501)
    header, cols = sweep_records(cfg, DEFAULT_SOLVER)
    rows = [dict(zip(header, r)) for r in zip(*cols)]
    alphas = [r["alpha"] for r in rows]
    vals = [r["theta0"] for r in rows]
    thr = 2.0 / 7.0
    p = ModelParams.from_lambda(2.0, 0.3)

    a_zero = vals[0] == 0.0
    interior = [
        i
        for i in range(1, len(vals) - 1)
        if 0.0 < alphas[i] < thr and vals[i] > 0.0 and vals[i] > vals[i - 1] and vals[i] > vals[i + 1]
    ]
    b_peak = bool(interior)
    c_thr = abs(truth_steady_state(p, Allocation.uniform(thr)) - 0.0) < 1e-6
    d_linear = all(
        abs(v - (0.7 * a - 0.2)) < 1e-9 for a, v in zip(alphas, vals) if a > thr
    )
    e_end = abs(vals[-1] - 0.5) < 1e-12
    report(
        "alpha sweep shape at lam=2, x=0.3",
        a_zero and b_peak and c_thr and d_linear and e_end,
        f"zero at 0: {a_zero}; interior peak at alpha={alphas[interior[0]] if interior else None}; "
        f"zero at 2/7: {c_thr}; linear tail: {d_linear}; 0.5 at 1: {e_end}",
    )


def test_c4_uniform_budget_slack_structure():
    p2 = ModelParams.from_lambda(2.0, 0.3)
    res2 = maximize_truth_uniform(p2, 2.0 / 7.0)
    low_ok = res2.slack and res2.objective > 0.0

    p4 = ModelParams.from_lambda(4.0, 0.3)
    res4 = maximize_truth_uniform(p4, 2.0 / 7.0)
    high_ok = not res4.slack and res4.allocation.alpha0 == pytest.approx(2.0 / 7.0, abs=1e-9)

    lb = compute_thresholds(p2).lambda_bar
    lb_ok = abs(lb - (2.0 + math.sqrt(2.0 - 1.0 / 0.7))) < 1e-12
    report(
        "uniform planner slack structure across diffusion rates",
        low_ok and high_ok and lb_ok,
        f"lam=2 slack with theta0={res2.objective:.6f}; lam=4 full spend; lambda_bar={lb:.12f}",
    )


def test_c5_cubic_constraint_oracle():
    rng = np.random.default_rng(8122025)
    worst_root = 0.0
    max_changes = 0
    for _ in range(100):
        lam = rng.uniform(1.5, 5.0)
        x = rng.uniform(0.1, 0.9)
        A = rng.uniform(0.0, x) * 0.999
        lo = max(0.0, (A - x) / (1.0 - x))
        hi = min(1.0, A / (1.0 - x))
        a1 = rng.uniform(lo, hi)
        a0 = (A - (1.0 - x) * a1) / x
        p = ModelParams.from_lambda(lam, x)
        cubic = cubic_coefficients(p, A, a0)
        max_changes = max(max_changes, cubic.sign_changes())
        solved = truth_steady_state(p, Allocation.targeted(a0, a1))
        pos = [
            r.real
            for r in np.roots(cubic.coefficients())
            if abs(r.imag) < 1e-9 and 0.0 < r.real <= 1.0 + 1e-9
        ]
        if pos:
            worst_root = max(worst_root, min(abs(r - solved) for r in pos))
        else:
            worst_root = max(worst_root, abs(solved))
    report(
        "cubic steady-state constraint vs bisection on 100 instances",
        max_changes <= 1 and worst_root < 1e-7,
        f"max sign changes {max_changes}, worst root gap {worst_root:.2e}",
    )


def test_c6_targeted_eradication_interval():
    p = ModelParams.from_lambda(2.0, 0.3)
    lo, hi = compute_thresholds(p).eradication_interval
    interval_ok = abs(lo - 1.2) < 1e-12 and abs(hi - 2.5) < 1e-12

    res_in = maximize_truth_targeted(p, 1.0 - 0.3 - 0.5)
    inside_ok = res_in.allocation.alpha0 > 0.0 and not res_in.rumor_eradicated

    p6 = ModelParams.from_lambda(3.0, 0.6)
    empty_ok = compute_thresholds(p6).eradication_interval is None
    A6 = 1.0 - 0.6 - 1.0 / 3.0
    res_out = maximize_truth_targeted(p6, A6)
    outside_ok = res_out.allocation.alpha0 == 0.0 and res_out.rumor_eradicated
    report(
        "targeted eradication interval and optimizer behavior",
        interval_ok and inside_ok and empty_ok and outside_ok,
        f"interval ({lo}, {hi}); inside: alpha0*={res_in.allocation.alpha0:.4f}; "
        f"outside: alpha1*={res_out.allocation.alpha1:.4f}",
    )


def test_c7_targeted_budget_endpoints():
    lam, x = 2.0, 0.3
    p = ModelParams.from_lambda(lam, x)
    res_small = maximize_truth_targeted(p, 0.01)
    small_ok = res_small.allocation.alpha0 == 0.0

    mid_budgets = np.linspace(0.06, 0.24, 10)
    mid_ok = any(maximize_truth_targeted(p, float(A)).allocation.alpha0 > 0.0 for A in mid_budgets)

    # Oracle-derived upper edge A = 0.32: above x the best live-rumor policy is
    # alpha0 = 1, alpha1 = (A - x)/(1 - x); it ties with group-1 eradication
    # (theta0 = x + A - 1/lam) at A = 0.32, where both give 0.12. Above the
    # edge pure group-1 targeting wins. For A > x the library no longer
    # guarantees its optimum, so each budget is also checked against a
    # full-region brentq-oracle scan.
    big_fail = []
    for A in np.linspace(0.32, 0.7, 43)[1:-1]:
        A = float(A)
        res = maximize_truth_targeted(p, A)
        ok = (
            res.allocation.alpha0 == 0.0
            and res.rumor_eradicated
            and abs(res.objective - (x + A - 1.0 / lam)) <= DEFAULT_SOLVER.tol
            and oracle_region_max(lam, x, A) <= res.objective + DEFAULT_SOLVER.tol
        )
        if not ok:
            big_fail.append((A, res.allocation.alpha0, res.objective))
    big_ok = not big_fail

    located = diversification_budget_range(p)
    print(
        f"[acceptance] note: alpha0* > 0 over located budget range {located}; "
        f"its upper end is the edge at 0.32, past x = {x}, where pure group-1 eradication takes over"
    )
    report(
        "targeted optimizer budget endpoints",
        small_ok and big_ok and mid_ok,
        f"A=0.01: alpha0*={res_small.allocation.alpha0}; "
        f"A in (0.32, 0.7): pure group-1 eradication {'everywhere' if big_ok else f'fails at {big_fail}'}; "
        f"intermediate diversification: {mid_ok}",
    )


def test_c8_platform_vs_planner():
    p = ModelParams.from_lambda(2.0, 0.3)
    dominated = True
    for A in np.linspace(0.05, 1.0, 20):
        planner = maximize_truth_uniform(p, float(A))
        platform = maximize_platform(p, float(A))
        dominated = dominated and platform.allocation.alpha0 <= planner.allocation.alpha0 + 1e-9

    ss_full = full_steady_state(p, Allocation.uniform(1.0))
    full_ok = abs(ss_full.theta - (1.0 - 1.0 / 2.0)) < 1e-12

    thr = compute_thresholds(p)
    order_ok = thr.A_tilde is not None and thr.A_upper is not None and thr.A_tilde > thr.A_upper
    report(
        "platform inspection never exceeds the planner's",
        dominated and full_ok and order_ok,
        f"A_tilde={thr.A_tilde:.6f} > A_upper={thr.A_upper:.6f}; theta(1)={ss_full.theta}",
    )


def test_c9_invariant_suites(tmp_path):
    # concavity of the truth map in theta0 (second central differences)
    rng = np.random.default_rng(5)
    concave = True
    h = 1e-3
    from conftest import truth_map

    for _ in range(200):
        lam = rng.uniform(0.5, 6.0)
        x = rng.uniform(0.0, 1.0)
        a = Allocation.targeted(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        th1 = rng.uniform(0.0, 0.5)
        p = ModelParams.from_lambda(lam, x)
        t0 = rng.uniform(h, 1.0 - h)
        second = (
            truth_map(t0 + h, th1, p, a) - 2.0 * truth_map(t0, th1, p, a) + truth_map(t0 - h, th1, p, a)
        )
        concave = concave and second <= 1e-12

    # recomposition of prevalences from the group fractions
    recomp = 0.0
    for _ in range(100):
        lam = rng.uniform(0.5, 6.0)
        x = rng.uniform(0.0, 1.0)
        a = Allocation.targeted(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        p = ModelParams.from_lambda(lam, x)
        ss = full_steady_state(p, a)
        t0, t1 = prevalences((ss.rho_00_a, ss.rho_00_na, ss.rho_10_a, ss.rho_11_na), p, a)
        recomp = max(recomp, abs(t0 - ss.theta0), abs(t1 - ss.theta1))

    # a uniform policy against the targeted constructor with equal rates
    mode_gap = 0.0
    for _ in range(100):
        lam = rng.uniform(0.5, 6.0)
        x = rng.uniform(0.0, 1.0)
        alpha = rng.uniform(0.0, 1.0)
        p = ModelParams.from_lambda(lam, x)
        uni = full_steady_state(p, Allocation.uniform(alpha))
        tgt = full_steady_state(p, Allocation.targeted(alpha, alpha))
        mode_gap = max(mode_gap, abs(uni.theta0 - tgt.theta0), abs(uni.theta1 - tgt.theta1))

    # CLI determinism: identical config gives byte-identical files
    f1, f2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    base = ["dynamics", "--lambda", "2", "--x", "0.3", "--alpha", "0.2", "--starts", "4", "--seed", "7"]
    ok1 = main(base + ["--out", str(f1)]) == 0
    ok2 = main(base + ["--out", str(f2)]) == 0
    deterministic = ok1 and ok2 and f1.read_bytes() == f2.read_bytes()

    report(
        "invariant suites (concavity, recomposition, mode consistency, CLI determinism)",
        concave and recomp <= 1e-9 and mode_gap == 0.0 and deterministic,
        f"recomposition {recomp:.2e}, mode gap {mode_gap:.2e}, deterministic {deterministic}",
    )
