import ast
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import rumor_inspect.planner as planner
from conftest import (
    ALPHA_PEAK,
    DIVERSIFICATION_RESOLUTION,
    THETA0_PEAK,
    FeasibilityError,
    cubic_coefficients,
    diversification_budget_range,
    marginal_condition_targeted,
    marginal_condition_uniform,
    oracle_region_max,
    oracle_rumor,
    oracle_truth,
    reference_targeted_optimum,
    reference_uniform_optimum,
)
from rumor_inspect import (
    Allocation,
    ModelParams,
    ParameterError,
    SolverConfig,
    compute_thresholds,
    eradication_threshold,
    full_steady_state,
    maximize_platform,
    maximize_truth_targeted,
    maximize_truth_uniform,
    minimize_rumor,
    no_rumor_positivity_readings,
    rumor_steady_state,
    truth_steady_state,
)
from rumor_inspect import planner
from rumor_inspect.model import DEFAULT_SOLVER, _eradication_level, _no_rumor_truth, _steady_truth, _truth_slope


def binding_alpha1(A, x, a0):
    return (A - x * a0) / (1.0 - x)


# ---------------------------------------------------------------------------
# rumor minimization
# ---------------------------------------------------------------------------

def test_minimize_rumor_generous_budget(ref_params):
    res = minimize_rumor(ref_params, 0.5)
    assert res.allocation.alpha0 == pytest.approx(2 / 7, abs=1e-12)
    assert res.rumor_eradicated and res.slack
    assert res.objective == 0.0


def test_minimize_rumor_small_budget(ref_params):
    res = minimize_rumor(ref_params, 0.1)
    assert res.allocation.alpha0 == 0.1
    assert res.objective == pytest.approx(0.9 * 0.7 - 0.5, abs=1e-12)
    assert not res.slack and not res.rumor_eradicated


def test_minimize_rumor_spends_only_what_extinction_needs():
    # the rumor counts as extinct from alpha' - tol on, so a budget of alpha' = 0.6 is not all spent
    res = minimize_rumor(ModelParams.from_lambda(5.0, 0.5), 0.6)
    assert res.budget_spent == res.allocation.alpha0 == 0.6 - 1e-12
    assert res.objective == 0.0 and res.rumor_eradicated and not res.slack


def test_minimize_rumor_spends_nothing_when_threshold_is_below_tol():
    p = ModelParams.from_lambda(1.0 + 1e-13, 0.0)
    assert 0.0 < eradication_threshold(p) < DEFAULT_SOLVER.tol
    res = minimize_rumor(p, 0.6)
    assert res.budget_spent == res.allocation.alpha0 == 0.0
    assert res.objective == 0.0 and res.rumor_eradicated and res.slack


def test_minimize_rumor_slack_is_measured_against_what_a_budget_can_buy():
    # a budget above 1 buys a rate of 1 at most, for every planner: spending
    # alpha' - tol = 1 - 1e-10 - 1e-12 of A = 2 leaves less than SLACK_TOL of it
    p = ModelParams.from_lambda(1e10, 0.0)
    res = minimize_rumor(p, 2.0)
    assert res.budget_spent == res.allocation.alpha0 == eradication_threshold(p) - DEFAULT_SOLVER.tol
    assert res.objective == 0.0 and res.rumor_eradicated and not res.slack
    assert not maximize_truth_uniform(p, 2.0).slack


def test_minimize_rumor_subcritical():
    res = minimize_rumor(ModelParams.from_lambda(1.0, 0.3), 0.4)
    assert res.allocation.alpha0 == 0.0
    assert res.rumor_eradicated and res.objective == 0.0


def test_budget_type_accepted(ref_params):
    assert minimize_rumor(ref_params, 0.5).allocation.alpha0 == pytest.approx(2 / 7)
    with pytest.raises(ParameterError):
        minimize_rumor(ref_params, -0.2)


# ---------------------------------------------------------------------------
# uniform truth maximization
# ---------------------------------------------------------------------------

def test_uniform_small_budget_full_spend(ref_params):
    res = maximize_truth_uniform(ref_params, 0.05)
    assert res.allocation.alpha0 == 0.05
    assert not res.slack
    assert res.objective == pytest.approx(oracle_truth(2.0, 0.3, 0.05, 0.05), abs=1e-9)


def test_uniform_eradication_budget_leaves_slack(ref_params):
    res = maximize_truth_uniform(ref_params, 2 / 7)
    assert res.slack
    assert res.allocation.alpha0 == pytest.approx(ALPHA_PEAK, abs=5e-4)
    assert res.objective == pytest.approx(THETA0_PEAK, abs=1e-8)
    assert res.objective > truth_steady_state(ref_params, Allocation.uniform(2 / 7))
    assert not res.rumor_eradicated


def test_uniform_large_budget_full_spend(ref_params):
    res = maximize_truth_uniform(ref_params, 0.9)
    assert res.allocation.alpha0 == 0.9
    assert not res.slack
    assert res.objective == pytest.approx(0.43, abs=1e-9)


def test_uniform_budget_above_one_caps(ref_params):
    res = maximize_truth_uniform(ref_params, 1.7)
    assert res.allocation.alpha0 == 1.0
    assert not res.slack  # the whole feasible range [0, 1] is used
    assert res.budget_spent == 1.0
    assert res.objective == pytest.approx(0.5, abs=1e-12)


def test_kink_optimum_reports_the_rumor_extinct():
    # the optimum is the kink alpha' - tol, scored with the rumor extinct, and
    # reported so
    p = ModelParams.from_lambda(5.0, 0.5)
    kink = Allocation.uniform(eradication_threshold(p) - DEFAULT_SOLVER.tol)
    res = maximize_truth_uniform(p, 0.6)
    assert res.allocation == kink
    assert res.objective == 0.5999999999995 and res.rumor_eradicated
    # the platform curve falls towards the kink, so it never peaks there; the
    # value the platform planner scores at the kink holds no rumor either
    assert planner._objective(p, kink, True, DEFAULT_SOLVER) == res.objective
    for A in (0.25, 0.6, 0.7):
        res = maximize_platform(p, A)
        assert res.rumor_eradicated == (rumor_steady_state(p, res.allocation) == 0.0)


def test_uniform_objective_recomputes(ref_params):
    for A in (0.05, 0.2, 2 / 7, 0.6, 0.9):
        res = maximize_truth_uniform(ref_params, A)
        direct = truth_steady_state(ref_params, res.allocation)
        assert res.objective == pytest.approx(direct, abs=1e-9)
        assert res.budget_spent <= A


def test_uniform_beats_grid(ref_params):
    for A in (0.15, 2 / 7, 0.5):
        res = maximize_truth_uniform(ref_params, A)
        for a in np.linspace(0.0, min(A, 1.0), 101):
            assert res.objective >= oracle_truth(2.0, 0.3, a, a) - 1e-8


# ---------------------------------------------------------------------------
# marginal conditions
# ---------------------------------------------------------------------------

def test_marginal_condition_uniform_examples(ref_params):
    a0 = Allocation.uniform(0.0)
    assert marginal_condition_uniform(ref_params, a0, full_steady_state(ref_params, a0))

    a_thr = Allocation.uniform(2 / 7)
    assert not marginal_condition_uniform(ref_params, a_thr, full_steady_state(ref_params, a_thr))

    p4 = ModelParams.from_lambda(4.0, 0.3)
    thr4 = Allocation.uniform(eradication_threshold(p4))
    assert marginal_condition_uniform(p4, thr4, full_steady_state(p4, thr4))

    with pytest.raises(ParameterError):
        marginal_condition_uniform(ref_params, Allocation.targeted(0.1, 0.3), full_steady_state(ref_params, a0))


def test_marginal_condition_targeted_examples():
    # at the marginal eradication budget the corner steady state is
    # (theta0, theta1) = (1 - 2/lam, 0)
    for lam, expected in ((2.0, False), (4.0, True)):
        p = ModelParams.from_lambda(lam, 0.3)
        A = 1.0 - 0.3 - 1.0 / lam
        a1 = A / 0.7
        ss = full_steady_state(p, Allocation.targeted(0.0, a1))
        assert marginal_condition_targeted(p, A, ss) is expected

    p = ModelParams.from_lambda(2.0, 0.3)
    ss0 = full_steady_state(p, Allocation.uniform(0.0))  # theta0 = 0
    assert not marginal_condition_targeted(p, 0.3, ss0)


def test_condition_true_everywhere_implies_full_spend():
    # lam=4 keeps truth prevalence rising through the whole feasible range
    p = ModelParams.from_lambda(4.0, 0.3)
    A = 0.2
    grid = np.linspace(0.0, A, 51)
    conds = []
    for a in grid:
        alloc = Allocation.uniform(float(a))
        conds.append(marginal_condition_uniform(p, alloc, full_steady_state(p, alloc)))
    assert all(conds)
    res = maximize_truth_uniform(p, A)
    assert res.allocation.alpha0 == pytest.approx(A, abs=1e-9)


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def test_closed_thresholds_values():
    t = compute_thresholds(ModelParams.from_lambda(2.0, 0.3))
    assert t.alpha_prime == pytest.approx(2 / 7, abs=1e-12)
    assert t.lambda_bar == pytest.approx(2.0 + (2.0 - 1.0 / 0.7) ** 0.5, abs=1e-12)
    lo, hi = t.eradication_interval
    assert lo == pytest.approx(1.2, abs=1e-12)
    assert hi == pytest.approx(2.5, abs=1e-12)

    t5 = compute_thresholds(ModelParams.from_lambda(2.0, 0.5))
    assert t5.lambda_bar == pytest.approx(2.0, abs=1e-12)

    t7 = compute_thresholds(ModelParams.from_lambda(2.0, 0.7))
    assert t7.lambda_bar is None

    t6 = compute_thresholds(ModelParams.from_lambda(3.0, 0.6))
    assert t6.eradication_interval is None  # (3.4)^2 < 12

    t1 = compute_thresholds(ModelParams.from_lambda(2.0, 1.0))
    assert t1.lambda_bar is None and t1.alpha_prime == 0.0


def test_budget_thresholds_located(ref_params):
    t = compute_thresholds(ref_params)
    assert t.A_lower == pytest.approx(0.198030, abs=1e-3)
    assert t.A_upper == pytest.approx(0.388520, abs=1e-3)
    assert t.A_tilde == pytest.approx(0.571446, abs=1e-3)
    assert t.A_lower <= t.A_upper
    assert t.A_tilde > t.A_upper


def test_budget_thresholds_empty_when_no_slack_region():
    # lam far above lambda_bar: truth rises with alpha through eradication
    t = compute_thresholds(ModelParams.from_lambda(8.0, 0.3))
    assert t.A_lower is None and t.A_upper is None


# compute_thresholds values at the parent of the single-profile rewrite,
# when every edge came from a 41-point scan of the optimizers
PRIOR_BUNDLES = {
    (2.0, 0.3): (0.19803051083259585, 0.38851951712074284, 0.5714577191921234),
    (3.0, 0.2): (None, None, 0.7767576542728425),
    (2.5, 0.1): (0.4864213357227326, 0.5766121329830171, 0.8888890423854828),
    (5.0, 0.5): (None, None, 0.6473540971530914),
}


@pytest.mark.parametrize("lam,x", sorted(PRIOR_BUNDLES))
def test_budget_thresholds_match_prior_values(lam, x):
    t = compute_thresholds(ModelParams.from_lambda(lam, x))
    for got, want in zip((t.A_lower, t.A_upper, t.A_tilde), PRIOR_BUNDLES[(lam, x)]):
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("lam,x,lower,upper,tol", [
    # a slack region of width 0.009 that a 41-point scan of budgets misses
    (2.216728, 0.47639, 0.129963, 0.139124, 1e-5),
    # one of width 3.3e-4, which a 2001-point profile of the curve (cells 5e-4 wide) missed
    (2.542720578787495, 0.412881655326256, 0.329822, 0.330153, 1e-6),
])
def test_budget_thresholds_find_narrow_slack_region(lam, x, lower, upper, tol):
    p = ModelParams.from_lambda(lam, x)
    t = compute_thresholds(p)
    assert t.A_lower == pytest.approx(lower, abs=tol)
    assert t.A_upper == pytest.approx(upper, abs=tol)
    step = 3e-6
    assert not maximize_truth_uniform(p, t.A_lower - step).slack
    assert maximize_truth_uniform(p, t.A_lower + step).slack
    assert maximize_truth_uniform(p, t.A_upper - step).slack
    assert not maximize_truth_uniform(p, t.A_upper + step).slack


def test_budget_thresholds_where_everyone_is_truth_biased():
    # at x = 1 inspection buys nothing and both curves are flat: every budget
    # leaves slack, so each region spans (0, 1]
    for lam in (0.5, 2.0):
        p = ModelParams.from_lambda(lam, 1.0)
        t = compute_thresholds(p)
        assert (t.A_lower, t.A_upper, t.A_tilde) == (planner.THRESHOLD_RESOLUTION, 1.0, 1.0)
        for A in (2e-6, 0.5, 1.0):
            assert maximize_truth_uniform(p, A).slack and maximize_platform(p, A).slack


def test_planner_does_not_import_numpy():
    # the planner computes on floats alone, which keeps numpy off the import
    # path of the commands that need no array
    tree = ast.parse(Path(planner.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "numpy" not in imported and "math" in imported


def _imported_modules(node, *, in_functions):
    """Top-level names of the absolute imports under node, leaving out function bodies unless in_functions."""
    names, stack = set(), [node]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
        elif in_functions or not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))
    return names


def test_no_module_imports_numpy_at_import_time():
    # numpy is imported inside the functions that build arrays, so importing
    # the package (and every command that builds none) does not load it
    for path in sorted(Path(planner.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert "numpy" not in _imported_modules(tree, in_functions=False), path.name
        if path.stem in ("cli", "dynamics", "model"):
            assert "numpy" in _imported_modules(tree, in_functions=True), path.name


def test_budget_thresholds_optimizer_call_count(monkeypatch):
    calls = []
    for name in ("maximize_truth_uniform", "maximize_platform"):
        fn = getattr(planner, name)

        def counted(*args, _fn=fn, **kwargs):
            calls.append(1)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(planner, name, counted)
    compute_thresholds(ModelParams.from_lambda(2.0, 0.3))
    assert len(calls) == 0


FLIP_STEP = 3 * planner.THRESHOLD_RESOLUTION


def assert_flip(slack, at, before, after):
    # mirrors perfbench/checks._flip: slack reads `before` just below the
    # edge and `after` just above it, wherever that lies inside (0, 1]
    for A, want in ((at - FLIP_STEP, before), (at + FLIP_STEP, after)):
        if 0.0 < A <= 1.0:
            assert slack(A) is want, (at, A)


@st.composite
def flat_zero_points(draw):
    # lam*(1-x) <= 1 and x < 1/lam: no rumor, and zero truth below a positive rate
    lam = draw(st.floats(0.5, 2.0, exclude_max=True))
    lo, hi = max(0.0, 1.0 - 1.0 / lam), min(1.0, 1.0 / lam)
    return lam, lo + draw(st.floats(0.0, 1.0, exclude_max=True)) * (hi - lo)


@settings(max_examples=60, deadline=None)
@given(point=st.one_of(st.tuples(st.floats(0.5, 10.0), st.floats(0.0, 0.95)), flat_zero_points()))
@example(point=(2.0, 0.3))
@example(point=(2.216728, 0.47639))  # the narrow region
@example(point=(2.0250677271448065, 0.5057277523240731))  # a platform region 4.9e-4 wide
@example(point=(1.6, 0.4))  # flat zero up to alpha = 0.375
@example(point=(8.0, 0.3))  # no truth slack region
# the approach to the peak gains less than TIE_TOL over its last 5e-4; slack starts at the peak
@example(point=(1.5744071237318549, 0.35447380863080513))
@example(point=(1.0064060635663925, 0.0028854236781108264))
def test_budget_thresholds_are_where_the_optimizers_flip_slack(point):
    p = ModelParams.from_lambda(*point)
    t = compute_thresholds(p)

    def truth_slack(A):
        return maximize_truth_uniform(p, A).slack

    def platform_slack(A):
        return maximize_platform(p, A).slack

    assert (t.A_lower is None) == (t.A_upper is None)
    for edge, slack, lower in ((t.A_lower, truth_slack, True), (t.A_tilde, platform_slack, False)):
        if edge is None:
            # no slack region: no budget of a scan leaves slack
            assert not any(slack(A) for A in np.linspace(0.0, 1.0, 41)[1:].tolist())
        elif lower:
            assert_flip(slack, t.A_lower, False, True)
            assert_flip(slack, t.A_upper, True, False)
        else:
            assert_flip(slack, t.A_tilde, True, False)


def test_no_slack_below_the_peak_of_a_tiny_flat_curve():
    # the truth curve peaks at about 3.06e-6 near A = 0.001748; below the
    # peak, full spend beats every cheaper rate, by less than TIE_TOL close to it
    p = ModelParams.from_lambda(1.0064060635663925, 0.0028854236781108264)
    peak = compute_thresholds(p).A_lower
    assert peak == pytest.approx(0.001748, abs=1e-6)
    for A in (0.0017, 0.00174, peak - 1e-8):
        res = maximize_truth_uniform(p, A)
        assert not res.slack and res.allocation.alpha0 == A
    res = maximize_truth_uniform(p, peak + 1e-8)
    assert res.slack and res.allocation.alpha0 == pytest.approx(peak, abs=1e-11)


@pytest.mark.parametrize("lam,x", [(10.0, 0.1), (5.0, 0.2), (4.0, 0.25), (2.5, 0.4)])
def test_search_where_x_is_one_over_lam(lam, x):
    # at alpha = 0 nobody inspects, and x = 1/lam makes 0 a double root of the
    # truth cubic: the slope there is infinite, and the search must step past it
    p = ModelParams.from_lambda(lam, x)
    for A in (0.05, 0.3, 1.0):
        scan = [Allocation.uniform(a) for a in np.linspace(0.0, A, 401).tolist()]
        truth = [truth_steady_state(p, a) for a in scan]
        total = [t + rumor_steady_state(p, a) for t, a in zip(truth, scan)]
        assert maximize_truth_uniform(p, A).objective >= max(truth) - planner.TIE_TOL
        assert maximize_platform(p, A).objective >= max(total) - planner.TIE_TOL
    t = compute_thresholds(p)
    assert_flip(lambda A: maximize_platform(p, A).slack, t.A_tilde, True, False)


def test_budget_thresholds_of_a_flat_zero_curve():
    # lam*(1-x) <= 1 and x < 1/lam: truth is 0 up to the positivity rate, then
    # rises, so every budget below it leaves slack, on both curves alike
    p = ModelParams.from_lambda(1.6, 0.4)
    t = compute_thresholds(p)
    alpha = no_rumor_positivity_readings(p)[0]
    assert alpha == pytest.approx(0.375, abs=1e-15)
    assert t.A_lower == planner.THRESHOLD_RESOLUTION
    assert 0.0 < t.A_upper - alpha <= planner.THRESHOLD_RESOLUTION
    assert t.A_tilde == t.A_upper


# ---------------------------------------------------------------------------
# cubic constraint
# ---------------------------------------------------------------------------

def test_cubic_residual_at_bisection_root(ref_params):
    A, a0 = 0.2, 0.1
    cubic = cubic_coefficients(ref_params, A, a0)
    a1 = binding_alpha1(A, 0.3, a0)
    root = truth_steady_state(ref_params, Allocation.targeted(a0, a1))
    assert abs(cubic(root)) / abs(cubic.c3) < 1e-8


def test_cubic_sign_pattern_and_root_match():
    rng = np.random.default_rng(20250810)
    for _ in range(100):
        lam = rng.uniform(1.5, 5.0)
        x = rng.uniform(0.1, 0.9)
        A = rng.uniform(0.0, x) * 0.999
        lo = max(0.0, (A - x) / (1 - x))
        hi = min(1.0, A / (1 - x))
        a1 = rng.uniform(lo, hi)
        a0 = (A - (1 - x) * a1) / x
        p = ModelParams.from_lambda(lam, x)
        cubic = cubic_coefficients(p, A, a0)
        assert cubic.sign_changes() <= 1
        root = truth_steady_state(p, Allocation.targeted(a0, a1))
        pos = [r.real for r in np.roots(cubic.coefficients()) if abs(r.imag) < 1e-9 and 0.0 < r.real <= 1.0 + 1e-9]
        if pos:
            assert min(abs(r - root) for r in pos) < 1e-7
        else:
            assert root == 0.0


def test_cubic_degenerates_to_no_rumor_form():
    # alpha1 exactly at the threshold: positive quadratic root equals the
    # no-rumor closed form
    p = ModelParams.from_lambda(2.0, 0.3)
    a1 = eradication_threshold(p)
    A = (1 - 0.3) * a1  # alpha0 = 0, budget binding
    cubic = cubic_coefficients(p, A, 0.0)
    assert cubic.c0 == 0.0
    closed = 0.3 + 0.7 * a1 - 0.5
    assert abs(cubic(closed)) / abs(cubic.c3) < 1e-12


def cubic_factored_gap(p, A, alpha0):
    """Max |difference| between the cubic's coefficients and an equivalent factored form.

    The factored expressions substitute the endemic rumor closed form, so
    the comparison is meaningful only while the rumor is endemic; nan
    otherwise.
    """
    alpha1 = min(1.0, max(0.0, binding_alpha1(A, p.x, alpha0)))
    if rumor_steady_state(p, Allocation.targeted(alpha0, alpha1)) <= 0.0:
        return np.nan
    cubic = cubic_coefficients(p, A, alpha0)
    lam = p.lam
    x = p.x
    b_fac = lam * (1.0 + lam - 2.0 * A * lam - 2.0 * lam * x + 2.0 * alpha0 * lam * x)
    c_fac = lam * (1.0 - A - x * (1.0 - alpha0)) * (1.0 - A * lam - lam * x + alpha0 * lam * x)
    d_fac = A * (1.0 - lam + lam * A + lam * x - alpha0 * lam * x)
    return max(abs(b_fac - cubic.c2), abs(c_fac - cubic.c1), abs(d_fac - cubic.c0))


def test_cubic_matches_factored_form(ref_params):
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(50):
        A = rng.uniform(0.01, 0.29)
        lo = max(0.0, (A - 0.3) / 0.7)
        a1 = rng.uniform(lo, min(1.0, A / 0.7))
        a0 = (A - 0.7 * a1) / 0.3
        gap = cubic_factored_gap(ref_params, A, a0)
        if not np.isnan(gap):
            assert gap < 1e-12
            checked += 1
    assert checked > 10


@given(
    lam=st.floats(0.0, 1.0, exclude_min=True),
    x=st.floats(0.0, 1.0),
    a0=st.floats(0.0, 1.0),
    a1=st.floats(0.0, 1.0),
    A=st.floats(0.0, 1.2),
)
@example(lam=5e-324, x=0.3, a0=0.2, a1=0.1, A=0.5)  # 1/lam overflows
def test_no_truth_cubic_up_to_lam_one(lam, x, a0, a1, A):
    # the rumor needs lam > 1, so up to lam = 1 every truth solve is the
    # no-rumor closed form and no planner takes a slope of the cubic
    p = ModelParams(nu=lam, k=1.0, delta=1.0, x=x)
    a = Allocation.targeted(a0, a1)
    closed = _no_rumor_truth(lam, x, a1)
    assert truth_steady_state(p, a) == full_steady_state(p, a).theta0 == closed
    # a batch next to an endemic point: the settled entry stays the closed form
    endemic = (5.0, 0.5, 0.2, 0.2)
    lams, xs, a0s, a1s = (np.array(pair) for pair in zip((lam, x, a0, a1), endemic))
    with np.errstate(all="ignore"):
        batch = _steady_truth(lams, xs, a0s, a1s, xs * a0s + (1.0 - xs) * a1s,
                              _eradication_level(lams, xs, np), DEFAULT_SOLVER, np)[0]
    endemic_truth = truth_steady_state(ModelParams.from_lambda(5.0, 0.5), Allocation.targeted(0.2, 0.2))
    assert batch.tolist() == [closed, endemic_truth]

    def no_slope(*args):
        raise AssertionError("took a slope of the truth cubic")

    with mock.patch.object(planner, "_truth_slope", no_slope):
        for maximize in (maximize_truth_uniform, maximize_truth_targeted, maximize_platform):
            maximize(p, A)
        compute_thresholds(p)


def test_cubic_infeasible_pair_raises(ref_params):
    with pytest.raises(FeasibilityError):
        cubic_coefficients(ref_params, 0.2, 0.9)  # implied alpha1 < 0


# ---------------------------------------------------------------------------
# targeted truth maximization
# ---------------------------------------------------------------------------

def test_targeted_interior_regime_diversifies(ref_params):
    # budget exactly sufficient to eradicate via group 1; diffusion rate in
    # the regime where that is not optimal
    A = 1.0 - 0.3 - 0.5
    res = maximize_truth_targeted(ref_params, A)
    assert res.allocation.alpha0 > 0.0
    assert rumor_steady_state(ref_params, res.allocation) > 0.0
    assert not res.rumor_eradicated
    assert res.budget_spent == pytest.approx(A, abs=1e-12)
    # oracle scan found the optimum at the alpha1 = 0 end of the segment
    assert res.allocation.alpha0 == pytest.approx(A / 0.3, abs=1e-6)
    assert res.objective == pytest.approx(0.08808991203977712, abs=1e-8)


def test_targeted_empty_interval_eradicates():
    p = ModelParams.from_lambda(3.0, 0.6)
    A = 1.0 - 0.6 - 1.0 / 3.0
    res = maximize_truth_targeted(p, A)
    assert res.allocation.alpha0 == 0.0
    assert res.allocation.alpha1 == pytest.approx(A / 0.4, abs=1e-9)
    assert res.rumor_eradicated
    assert res.objective == pytest.approx(1 / 3, abs=1e-9)


def test_targeted_zero_budget(ref_params):
    res = maximize_truth_targeted(ref_params, 0.0)
    assert res.allocation.rates() == (0.0, 0.0)
    assert res.objective == truth_steady_state(ref_params, Allocation.targeted(0.0, 0.0))


def test_targeted_heavy_budget_keeps_rumor(ref_params):
    # true optimum at A=0.28 diverts everything to type-0 inspection
    res = maximize_truth_targeted(ref_params, 0.28)
    assert res.allocation.alpha0 == pytest.approx(0.28 / 0.3, abs=1e-6)
    assert res.allocation.alpha1 == pytest.approx(0.0, abs=1e-6)
    assert res.objective == pytest.approx(0.111009207102281, abs=1e-7)
    assert not res.rumor_eradicated


def test_targeted_budget_above_group_mass_flagged(ref_params):
    # above the type-0 mass full spend is no longer guaranteed; slack flags a departure from it
    res = maximize_truth_targeted(ref_params, 0.5)
    assert res.budget_spent <= 0.5
    assert res.slack == (res.budget_spent < 0.5 - planner.SLACK_TOL)


def test_targeted_searches_full_type0_edge_above_group_mass():
    # for A > x the optimum can sit on the alpha0 = 1 edge below the budget
    # line; a search of the line alone reports 0.083153 here
    lam, x, A = 1.789004, 0.263299, 0.35
    res = maximize_truth_targeted(ModelParams.from_lambda(lam, x), A)
    assert res.allocation.alpha0 == 1.0
    assert res.allocation.alpha1 == pytest.approx(0.0600, abs=5e-4)
    assert res.objective == pytest.approx(0.086994, abs=1e-6)
    assert res.slack and res.budget_spent < A - planner.SLACK_TOL
    edge_hi = (A - x) / (1 - x)
    for a1 in np.linspace(0.0, edge_hi, 201):
        assert res.objective >= oracle_truth(lam, x, 1.0, a1) - 1e-9


def test_targeted_huge_budget_eradicates_without_waste(ref_params):
    res = maximize_truth_targeted(ref_params, 0.9)
    assert res.allocation.rates() == (0.0, 1.0)
    assert res.slack and res.rumor_eradicated
    assert res.objective == pytest.approx(0.5, abs=1e-12)
    assert res.budget_spent == pytest.approx(0.7, abs=1e-12)


def test_targeted_x_edges():
    res0 = maximize_truth_targeted(ModelParams.from_lambda(2.0, 0.0), 0.3)
    assert res0.allocation.alpha0 == 0.0
    assert res0.allocation.alpha1 == pytest.approx(0.3, abs=1e-12)
    res1 = maximize_truth_targeted(ModelParams.from_lambda(2.0, 1.0), 0.3)
    assert res1.objective == pytest.approx(0.5, abs=1e-12)
    assert res1.budget_spent == 0.0  # inspection buys nothing when x = 1


def _oracle_objective(lam, x, a0, a1, platform):
    return oracle_truth(lam, x, a0, a1) + (oracle_rumor(lam, x, a1) if platform else 0.0)


def _oracle_line_max(lam, x, A, platform):
    """Best oracle objective over a 201-point scan of uniform rates in [0, min(A, 1)]."""
    return max(_oracle_objective(lam, x, float(a), float(a), platform) for a in np.linspace(0.0, min(A, 1.0), 201))


ORACLE_CASES = [
    (lam, x, A)
    for lam in (1.2, 2.0, 3.5, 8.0)
    for x in (0.0, 0.1, 0.3, 0.6, 1.0)
    for A in (0.0, 0.15, 0.35, 0.8, 1.3)
]


@pytest.mark.parametrize("objective", ["truth", "platform", "truth-targeted"])
def test_maximizers_match_brute_force_oracle(objective):
    # each optimum is feasible, reports the oracle's value at its allocation,
    # and no point of an independent brentq-oracle scan beats it
    tol = DEFAULT_SOLVER.tol
    platform = objective == "platform"
    failures = []
    for lam, x, A in ORACLE_CASES:
        p = ModelParams.from_lambda(lam, x)
        if objective == "truth-targeted":
            res = maximize_truth_targeted(p, A)
            scan = oracle_region_max(lam, x, A, n=21)
        else:
            res = (maximize_platform if platform else maximize_truth_uniform)(p, A)
            scan = _oracle_line_max(lam, x, A, platform)
        value = _oracle_objective(lam, x, *res.allocation.rates(), platform)
        ok = (
            res.budget_spent <= A
            and abs(res.objective - value) <= tol
            and scan <= res.objective + tol
        )
        if not ok:
            failures.append((lam, x, A, res.allocation.rates(), res.objective, scan))
    assert not failures


def _targeted_segments(x, A, n):
    """n policies along each segment the targeted planner searches at budget A."""
    if A <= 0.0 or x >= 1.0:
        return []
    if x <= 0.0:
        return [Allocation.targeted(0.0, a1) for a1 in np.linspace(0.0, min(1.0, A), n).tolist()]
    lo, hi = max(0.0, (A - x) / (1.0 - x)), min(1.0, A / (1.0 - x))
    line = [Allocation.targeted(min(1.0, max(0.0, (A - (1.0 - x) * a1) / x)), a1)
            for a1 in np.linspace(lo, hi, n).tolist()] if lo <= hi else []
    edge = [Allocation.targeted(1.0, a1) for a1 in np.linspace(0.0, min(1.0, lo), n).tolist()] if A > x else []
    return line + edge


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(0.5, 1000.0), x=st.floats(0.0, 1.0), A=st.floats(0.0, 1.2))
@example(lam=2.0, x=0.3, A=0.3)
@example(lam=1.0064060635663925, x=0.0028854236781108264, A=0.002)
@example(lam=10.0, x=0.1, A=0.3)  # x = 1/lam: an infinite slope at alpha = 0
@example(lam=301.2403934772018, x=0.4074643667426431, A=0.5)  # lam far above 10
@example(lam=5.0, x=0.5, A=0.6)  # the optimum is the kink, 1e-12 below A
def test_maximizers_beat_a_dense_scan_of_their_segments(lam, x, A):
    # no policy of a 2001-point scan of the segments a maximizer searches beats
    # its optimum by more than the tie tolerance, and the optimum reported is
    # the scalar solver's value at its allocation, bit for bit
    p = ModelParams.from_lambda(lam, x)
    uniform = [Allocation.uniform(a) for a in np.linspace(0.0, min(A, 1.0), 2001).tolist()]
    truth = [truth_steady_state(p, a) for a in uniform]
    total = [t + rumor_steady_state(p, a) for t, a in zip(truth, uniform)]
    targeted = [truth_steady_state(p, a) for a in _targeted_segments(x, A, 2001)]
    for maximize, scan, platform in ((maximize_truth_uniform, truth, False), (maximize_platform, total, True),
                                     (maximize_truth_targeted, targeted, False)):
        res = maximize(p, A)
        assert res.objective >= max(scan, default=0.0) - planner.TIE_TOL
        a = res.allocation
        assert res.objective == truth_steady_state(p, a) + (rumor_steady_state(p, a) if platform else 0.0)


def _searched_segment(kind, x, A):
    """(lo, hi, alloc, direction) of a segment as the planners search it: the uniform line, the alpha0 = 1
    edge, or the targeted budget line at A."""
    if kind == "uniform":
        return 0.0, 1.0, Allocation.uniform, (1.0, 1.0, 1.0)
    if kind == "edge":
        return 0.0, 1.0, lambda a1: Allocation.targeted(1.0, a1), (0.0, 1.0, 1.0 - x)
    lo, hi = max(0.0, (A - x) / (1.0 - x)), min(1.0, A / (1.0 - x))
    return lo, hi, lambda a1: planner._fit(A, x, planner._binding_alpha0(A, x, a1), a1), (-(1.0 - x) / x, 1.0, 0.0)


def _peak_against_brentq(lam, x, A, kind, platform):
    """The peaks _segment_rates solves on the segment, and the full truth solves it spends, checked against
    a brentq root of the objective's slope from the scalar solver; with no sign change, no peak is solved."""
    p, cfg = ModelParams.from_lambda(lam, x), DEFAULT_SOLVER
    lo, hi, alloc, direction = _searched_segment(kind, x, A)

    def slope(u):
        a = alloc(u)
        inspecting = a.inspecting_mass(x)
        theta0, theta1 = _steady_truth(lam, x, a.alpha0, a.alpha1, inspecting, math.inf, cfg)
        return _truth_slope(lam, x, a.alpha0, inspecting, theta1, theta0, direction) - (1.0 - x) * platform

    peaks, solves, peak, steady = [], [], planner._peak, planner._steady_truth
    with mock.patch.object(planner, "_peak", lambda *args: peaks.append(peak(*args)) or peaks[-1]), \
            mock.patch.object(planner, "_steady_truth", lambda *args: solves.append(args) or steady(*args)):
        planner._segment_rates(p, lo, hi, alloc, direction, platform, cfg)
    end = min(hi, eradication_threshold(p) - cfg.tol)
    if lo < end and slope(lo) > 0.0 >= slope(end):
        root = end if slope(end) == 0.0 else brentq(slope, lo, end, xtol=1e-15)
        assert len(peaks) == 1 and abs(peaks[0] - root) <= planner.ROOT_XTOL, (peaks, root)
    else:
        assert not peaks
    return peaks, len(solves)


# theta0(0) = 0 and the slope plunges to -22.7 at the kink: Newton from the secant gives way to bracketed steps
FALLBACK = (1.967158, 0.111877)


@settings(max_examples=150, deadline=None)
@given(lam=st.floats(0.02, 3.0).map(lambda e: 10.0**e), x=st.floats(0.01, 0.99), A=st.floats(0.01, 1.0),
       kind=st.sampled_from(["uniform", "edge", "line"]), platform=st.booleans())
@example(lam=FALLBACK[0], x=FALLBACK[1], A=0.5, kind="uniform", platform=False)
@example(lam=2.0, x=0.3, A=0.5, kind="uniform", platform=False)
@example(lam=2.0, x=0.3, A=0.28, kind="line", platform=False)
@example(lam=1.789004, x=0.263299, A=0.35, kind="edge", platform=False)
def test_peak_is_a_brentq_root_of_the_slope(lam, x, A, kind, platform):
    # the joint Newton solve of a peak lands within ROOT_XTOL of the slope's
    # zero, on all three segments and for both objectives
    _peak_against_brentq(lam, x, A, kind, platform)


def test_peak_restarts_newton_from_a_bracketed_step():
    # at FALLBACK, and at lam = 2, x = 0.3 where the truth is 0 at alpha = 0
    # too, the slope is nearly flat near 0: Newton from the secant, and from
    # the first bracketed steps, leaves the bracket. Each bracketed step is one
    # full truth solve past the two ends, and Newton restarts from it
    for lam, x in (FALLBACK, (2.0, 0.3)):
        peaks, solves = _peak_against_brentq(lam, x, 0.5, "uniform", False)
        assert len(peaks) == 1 and solves > 2
    # the platform curve at lam = 2, x = 0.3, and the alpha0 = 1 edge there, peak with no bracketed step
    for kind, platform in (("uniform", True), ("edge", False)):
        peaks, solves = _peak_against_brentq(2.0, 0.3, 0.5, kind, platform)
        assert len(peaks) == 1 and solves == 2


@pytest.mark.parametrize("lam,x,kind,platform", [(*FALLBACK, "uniform", False), (2.0, 0.3, "uniform", True),
                                                  (2.0, 0.3, "edge", False), (10.0, 0.1, "uniform", True)])
def test_peak_bracketed_steps_alone_find_the_root(monkeypatch, lam, x, kind, platform):
    # with no Newton step allowed every step is the safeguard, regula falsi
    # with Anderson-Bjorck scaling, and it still solves the peak to ROOT_XTOL.
    # At x = 1/lam the slope at alpha = 0 is infinite, and the first step bisects
    monkeypatch.setattr(planner, "NEWTON_STEPS", 0)
    peaks, solves = _peak_against_brentq(lam, x, 0.5, kind, platform)
    assert len(peaks) == 1 and solves > 2


@settings(max_examples=300, deadline=None)
@given(lam=st.floats(0.5, 1000.0), x=st.floats(0.0, 1.0), A=st.floats(0.0, 1.2))
@example(lam=6.23449472148432, x=0.4643367405963297, A=0.3610393828284849)  # at alpha0 = 0, the line's end
@example(lam=1.4747036302407281, x=0.3217777163454444, A=0.12167884274651519)  # inside the line, alpha1 = 0
@example(lam=2.0, x=0.12814076264197177, A=0.3461172911312396)  # at alpha0 = 1, the edge's end
def test_no_planner_spends_past_its_budget(lam, x, A):
    # each of these examples spent one ulp past A before the budget line's
    # policies were stepped down to fit
    p = ModelParams.from_lambda(lam, x)
    for maximize in (minimize_rumor, maximize_truth_uniform, maximize_platform, maximize_truth_targeted):
        res = maximize(p, A)
        # the spend is x*alpha0 + (1-x)*alpha1, or the rate itself where the two rates are equal
        assert res.budget_spent == res.allocation.inspecting_mass(x) <= A, maximize


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0.5, 1000.0), x=st.floats(0.0, 1.0), tol=st.floats(1e-15, planner.TIE_TOL),
       drawn=st.lists(st.floats(0.0, 1.0), max_size=6))
@example(lam=2.0, x=0.3, tol=1e-12, drawn=[0.1, 0.25])
@example(lam=1.6, x=0.4, tol=1e-12, drawn=[0.3, 0.5])  # no rumor, and no truth up to 0.375: the peak is 0
@example(lam=5.0, x=0.5, tol=1e-12, drawn=[0.6])  # the truth optimum is the kink
# the peak of [0, kink] lies 9.7e-13 from the slope's sign change, that of [0, 0.8314] 5.2e-14
@example(lam=569.8007467571913, x=0.7588690462219729, tol=9.82675026939412e-10, drawn=[0.8314028652289338])
def test_uniform_curve_matches_the_search_of_each_budget(lam, x, tol, drawn):
    # the optimum read off one analysis of a curve is what a search over
    # [0, min(A, 1)] at that budget finds (conftest.reference_uniform_optimum),
    # on a grid of 0, the peak, the kink and its neighbouring floats, 1,
    # budgets above 1 and drawn ones. Both solve the same peak to ROOT_XTOL,
    # in the brackets [0, kink] and [0, A], so the rates agree within twice
    # that. A tol above TIE_TOL is not drawn: there the solver's own error can
    # exceed the tie tolerance, and the two may pick apart values that differ
    # by solver error alone (A = 5e-324 next to a peak at 0, tol = 8e-5)
    p = ModelParams.from_lambda(lam, x)
    cfg = SolverConfig(tol)
    kink = eradication_threshold(p) - tol
    for platform in (False, True):
        curve = planner.Curve(p, platform, cfg)
        budgets = [0.0, curve.peak, 1.0, 1.5, 3.0, *drawn]
        budgets += [kink, math.nextafter(kink, 0.0), math.nextafter(kink, 1.0)] if kink > 0.0 else []
        for A in budgets:
            got, want = curve.optimum(A), reference_uniform_optimum(p, A, platform, cfg)
            assert got.allocation.alpha0 == got.allocation.alpha1
            assert abs(got.allocation.alpha0 - want.allocation.alpha0) <= 2.0 * planner.ROOT_XTOL, A
            assert abs(got.objective - want.objective) <= planner.TIE_TOL, A
            assert (got.slack, got.rumor_eradicated) == (want.slack, want.rumor_eradicated), A
        assert (maximize_platform if platform else maximize_truth_uniform)(p, 0.5, cfg) == curve.optimum(0.5)


def test_uniform_optimum_scores_every_recorded_rate_above_the_kink():
    # _pick is not transitive: a rate that loses the peak to a cheaper one by
    # less than TIE_TOL can still beat the no-rumor line at c, which beats the
    # cheaper one. So above the kink the optimum scores every recorded rate, as
    # the search over [0, c] did, not the peak alone. Synthetic values around
    # the line at c = 0.9: the peak is 0, and the search picks 0.3
    p = ModelParams.from_lambda(5.0, 0.5)
    curve = planner.Curve(p, False)
    line = _no_rumor_truth(p.lam, p.x, 0.9)
    curve.rates = [(Allocation.uniform(0.0), line - 1.5e-10), (Allocation.uniform(0.3), line - 0.6e-10),
                   (Allocation.uniform(curve.kink), line - 5e-10)]
    (peak, _), curve.top = planner._pick(curve.rates, p.x)
    curve.peak = peak.alpha0
    assert curve.peak == 0.0
    assert curve.optimum(0.9).allocation == Allocation.uniform(0.3)


@pytest.mark.parametrize(
    "lam,x,A",
    [(lam, x, 0.0) for lam in (1.2, 3.5) for x in (0.0, 0.3, 0.6)]
    + [(lam, 1.0, A) for lam in (2.0, 8.0) for A in (0.15, 0.8, 1.3)],
)
def test_targeted_single_point_cases(monkeypatch, lam, x, A):
    # at A = 0, and at x = 1 where inspection buys nothing, (0, 0) is the
    # only candidate: no segment is searched, and the brute-force oracle agrees
    def no_segment(*args, **kwargs):
        raise AssertionError("searched a segment")

    monkeypatch.setattr(planner, "_segment_rates", no_segment)
    res = maximize_truth_targeted(ModelParams.from_lambda(lam, x), A)
    assert res.allocation.rates() == (0.0, 0.0)
    assert abs(res.objective - oracle_truth(lam, x, 0.0, 0.0)) <= DEFAULT_SOLVER.tol
    assert oracle_region_max(lam, x, A, n=21) <= res.objective + DEFAULT_SOLVER.tol


def test_targeted_eradication_coherence():
    rng = np.random.default_rng(99)
    for _ in range(25):
        lam = rng.uniform(1.5, 6.0)
        x = rng.uniform(0.1, 0.9)
        A = rng.uniform(0.0, 1.0)
        res = maximize_truth_targeted(ModelParams.from_lambda(lam, x), A)
        if res.rumor_eradicated:
            assert res.allocation.alpha0 == 0.0


def test_targeted_segment_end_has_no_rounding_residue():
    # at this budget the segment end alpha1 = A/(1-x) leaves rounding residue
    # in A - (1-x)*alpha1; the binding alpha0 there must be exactly 0
    res = maximize_truth_targeted(ModelParams.from_lambda(2.0, 0.3), 0.3506366834170854)
    assert res.allocation.alpha0 == 0.0
    assert res.rumor_eradicated


def test_targeted_line_starts_exactly_at_the_edge_end():
    # at alpha1 = (A-x)/(1-x) the rest A - (1-x)*alpha1 is x up to rounding: the
    # binding alpha0 there must be exactly 1, so that the budget line's first
    # point and the edge's end are one policy. With min(1, rest/x) it came out
    # 0.9999999999999998 in 1,724 of these 200,000 draws, and the tie rule
    # then reported that alpha0 at lam = 2, x = 0.1, A = 0.36
    rng = np.random.default_rng(0)
    x, A = rng.uniform(0.0, 1.0, 200_000), rng.uniform(0.0, 1.0, 200_000)
    A = x + (1.0 - x) * A
    for x, A in zip(x.tolist(), A.tolist()):
        if x < A < 1.0:
            assert planner._binding_alpha0(A, x, (A - x) / (1.0 - x)) == 1.0, (x, A)
    res = maximize_truth_targeted(ModelParams.from_lambda(2.0, 0.1), 0.36)
    assert res.allocation == Allocation.targeted(1.0, (0.36 - 0.1) / 0.9)


@settings(max_examples=80, deadline=None)
@given(lam=st.floats(0.5, 1000.0), x=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       bound=st.one_of(st.sampled_from([1.0, 1.5]), st.floats(0.0, 1.0)),
       drawn=st.lists(st.floats(0.0, 1.0), max_size=6))
@example(lam=2.0, x=0.3, bound=1.0, drawn=[0.28, 0.32])
@example(lam=1.789004, x=0.263299, bound=0.35, drawn=[0.3])  # the optimum on the edge, below the line
@example(lam=2.0, x=0.1, bound=1.5, drawn=[0.36])  # the optimum at the corner (1, (A-x)/(1-x))
@example(lam=2.0, x=0.0, bound=1.5, drawn=[0.2, 0.3])
@example(lam=10.0, x=0.1, bound=1.0, drawn=[0.3])  # x = 1/lam: an infinite slope at alpha1 = 0
def test_targeted_curve_matches_the_search_of_each_budget(lam, x, bound, drawn):
    # the targeted optimum that analyses the alpha0 = 1 edge once, up to the
    # bound, is at every budget up to it what a search of that budget's line
    # and edge finds (conftest.reference_targeted_optimum), in ascending and
    # descending order. The line is searched alike; the edge's peak is solved
    # in [0, kink] or [0, (bound-x)/(1-x)] once and in [0, (A-x)/(1-x)] by the
    # search, each to ROOT_XTOL, so the rates agree within twice that
    p = ModelParams.from_lambda(lam, x)
    optimum = planner.targeted_optimum(p, bound)
    budgets = sorted({A for A in (0.0, x, 1.0 - x, bound, *(bound * d for d in drawn)) if A <= bound})
    for A in budgets + budgets[::-1]:
        got, want = optimum(A), reference_targeted_optimum(p, A)
        for g, w in zip(got.allocation.rates(), want.allocation.rates()):
            assert abs(g - w) <= 2.0 * planner.ROOT_XTOL, A
        assert abs(got.objective - want.objective) <= planner.TIE_TOL, A
        assert (got.slack, got.rumor_eradicated) == (want.slack, want.rumor_eradicated), A
    assert maximize_truth_targeted(p, bound) == optimum(bound)
    assert optimum(bound + 0.25) == maximize_truth_targeted(p, bound + 0.25)  # past the bound: analysed anew


def test_targeted_beats_2d_grid(ref_params):
    for A in (0.1, 0.2, 0.28):
        res = maximize_truth_targeted(ref_params, A)
        for a0 in np.linspace(0.0, 1.0, 21):
            for a1 in np.linspace(0.0, 1.0, 21):
                if 0.3 * a0 + 0.7 * a1 <= A + 1e-12:
                    assert res.objective >= oracle_truth(2.0, 0.3, a0, a1) - 1e-7


def test_diversification_budget_range(ref_params):
    # the range runs past x = 0.3: up to the c7 edge at A = 0.32 the planner
    # keeps alpha0 = 1, and above it pure group-1 eradication (alpha0 = 0) wins
    rng = diversification_budget_range(ref_params)
    assert rng is not None
    lo, hi = rng
    assert lo == pytest.approx(0.0611, abs=2e-3)

    def alpha0(A):
        return maximize_truth_targeted(ref_params, A).allocation.alpha0

    # the first budget above x at which the planner returns alpha0 = 0, bisected far finer
    below, above = 0.3, 0.5
    assert alpha0(below) > 0.0 and alpha0(above) == 0.0
    while above - below > 1e-8:
        mid = 0.5 * (below + above)
        below, above = (mid, above) if alpha0(mid) > 0.0 else (below, mid)
    assert abs(hi - above) <= DIVERSIFICATION_RESOLUTION
    assert above == pytest.approx(0.32, abs=DIVERSIFICATION_RESOLUTION)


# ---------------------------------------------------------------------------
# platform objective
# ---------------------------------------------------------------------------

def test_platform_full_budget(ref_params):
    res = maximize_platform(ref_params, 1.0)
    assert res.allocation.alpha0 == 1.0
    assert res.objective == pytest.approx(0.5, abs=1e-12)


def test_platform_small_budget_stops_early(ref_params):
    # total prevalence peaks at a tiny inspection rate, then falls
    res = maximize_platform(ref_params, 0.2)
    assert res.slack
    assert res.allocation.alpha0 == pytest.approx(0.00283, abs=5e-4)
    assert res.objective > 0.2


def test_platform_never_spends_more_than_planner(ref_params):
    for A in np.linspace(0.05, 1.0, 20):
        planner = maximize_truth_uniform(ref_params, float(A))
        platform = maximize_platform(ref_params, float(A))
        assert platform.allocation.alpha0 <= planner.allocation.alpha0 + 1e-9
        # dominance in both objectives
        pl_total = platform.objective
        un_total = planner.objective + rumor_steady_state(ref_params, planner.allocation)
        assert pl_total >= un_total - 1e-9
        pl_truth = truth_steady_state(ref_params, platform.allocation)
        assert planner.objective >= pl_truth - 1e-9
