import argparse
import contextlib
import functools
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import THETA0_REF, oracle_truth
from rumor_inspect import Allocation, ModelParams, cli, dynamics, planner, prevalences, truth_steady_state
from rumor_inspect.cli import OBJECTIVES, main


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        row = {}
        for key, cell in zip(header, ln.split(",")):
            if cell in ("true", "false"):
                row[key] = cell == "true"
            elif cell == "":
                row[key] = None
            else:
                try:
                    row[key] = float(cell)
                except ValueError:
                    row[key] = cell
        rows.append(row)
    return header, rows


def comments(text):
    return [ln for ln in text.strip().splitlines() if ln.startswith("#")]


def no_constant(name):
    """json.loads' parse_constant: NaN and Infinity are not JSON."""
    raise AssertionError(f"{name} is not JSON")


# ---------------------------------------------------------------------------
# steady
# ---------------------------------------------------------------------------

def test_steady_full_inspection(capsys):
    code, out = run(capsys, "steady", "--lambda", "2", "--x", "0.3", "--alpha", "1")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["theta0"] == 0.5
    assert rows[0]["theta1"] == 0.0
    assert rows[0]["eradicated"] is True


def test_steady_subcritical(capsys):
    code, out = run(capsys, "steady", "--lambda", "0.5", "--x", "0.3", "--alpha", "0.5")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["theta0"] == 0.0 and rows[0]["theta1"] == 0.0


def test_steady_reference_point(capsys):
    code, out = run(capsys, "steady", "--lambda", "2", "--x", "0.3", "--alpha", "0.2")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["theta0"] == pytest.approx(THETA0_REF, abs=1e-6)
    assert rows[0]["theta1"] == pytest.approx(0.06, abs=1e-12)


def test_steady_rumor_extinct_just_below_the_threshold(capsys):
    # alpha' = 0.6 here; from tol below it on the rumor counts as extinct
    args = ("steady", "--lambda", "5", "--x", "0.5", "--alpha", "0.5999999999995")
    code, out = run(capsys, *args)
    assert code == 0
    row = parse_csv(out)[1][0]
    assert row["theta1"] == 0.0 and row["theta"] == row["theta0"] and row["eradicated"] is True
    code, out = run(capsys, *args, "--tol", "1e-13")
    assert code == 0
    row = parse_csv(out)[1][0]
    assert row["theta1"] > 0.0 and row["eradicated"] is False


def test_steady_roundtrip_full_precision(capsys):
    code, out = run(capsys, "steady", "--lambda", "2", "--x", "0.3", "--alpha", "0.2")
    _, rows = parse_csv(out)
    lib = truth_steady_state(ModelParams.from_lambda(2.0, 0.3), Allocation.uniform(0.2))
    assert rows[0]["theta0"] == lib  # exact, not approximate


def test_steady_rates_triple(capsys):
    code, out = run(capsys, "steady", "--nu", "1", "--k", "1", "--delta", "0.5", "--x", "0.3", "--alpha", "0.2")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["theta1"] == pytest.approx(0.06, abs=1e-12)


def test_steady_json_matches_csv_fields(capsys):
    code, out = run(capsys, "steady", "--lambda", "2", "--x", "0.3", "--alpha", "0.2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tool"] == "rumor-inspect"
    header, rows = parse_csv(run(capsys, "steady", "--lambda", "2", "--x", "0.3", "--alpha", "0.2")[1])
    assert list(doc["rows"][0].keys()) == header
    assert doc["rows"][0]["theta0"] == rows[0]["theta0"]


def test_steady_settles_on_a_bracket_of_one_float(capsys):
    # at tol = 5e-324 Newton steps here land on the two ends of a bracket that
    # holds one float, by turns; a step onto an end of the bracket is replaced
    # by its midpoint, so that float is tried and the solve settles
    code, out = run(capsys, "steady", "--lambda", "301.2403934772018", "--x", "0.4074643667426431",
                    "--alpha", "0.040491813953733025", "--tol", "5e-324")
    assert code == 0
    _, rows = parse_csv(out)
    assert 0.42831554271398753 <= rows[0]["theta0"] <= 0.42831554271398764


@pytest.mark.parametrize(
    "args",
    [["steady", "--lambda", "2", "--x", "0.3", "--alpha", "5e-324", "--tol", "1e-100"],
     ["sweep", "--axis", "x", "--start", "0.1", "--stop", "0.3", "--steps", "3", "--lambda", "2", "--alpha", "5e-324",
      "--tol", "1e-300"]],
    ids=["steady", "sweep"],
)
def test_truth_root_at_an_underflowed_constant_exits_0(capsys, args):
    # the cubic's constant underflows to -0.0, and its root 0 is reported, not a solver failure
    code, out = run(capsys, *args)
    assert code == 0
    _, rows = parse_csv(out)
    assert [row["theta0"] for row in rows] == [0.0] * len(rows)
    assert all(row["theta1"] > 0.0 for row in rows)
    assert "-0.0" not in out


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_alpha_matches_library(capsys):
    code, out = run(capsys, "sweep", "--axis", "alpha", "--lambda", "2", "--x", "0.3", "--steps", "11")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[0] == "alpha" and len(rows) == 11
    assert rows[0]["alpha"] == 0.0 and rows[-1]["alpha"] == 1.0
    p = ModelParams.from_lambda(2.0, 0.3)
    for row in rows:
        assert row["theta0"] == truth_steady_state(p, Allocation.uniform(row["alpha"]))


def test_sweep_lambda_at_full_inspection(capsys):
    code, out = run(
        capsys, "sweep", "--axis", "lambda", "--x", "0.3", "--alpha", "1",
        "--start", "1", "--stop", "5", "--steps", "9",
    )
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        assert row["theta0"] == pytest.approx(max(0.0, 1.0 - 1.0 / row["lambda"]), abs=1e-12)


def test_sweep_x_axis(capsys):
    code, out = run(
        capsys, "sweep", "--axis", "x", "--lambda", "2", "--alpha", "0.2", "--steps", "5"
    )
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        assert row["theta0"] == pytest.approx(oracle_truth(2.0, row["x"], 0.2, 0.2), abs=1e-9)


def test_sweep_budget_axis_runs_optimizer(capsys):
    code, out = run(
        capsys, "sweep", "--axis", "A", "--lambda", "2", "--x", "0.3",
        "--objective", "rumor-min", "--start", "0.1", "--stop", "0.5", "--steps", "5",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header[0] == "A"
    assert rows[0]["alpha0"] == pytest.approx(0.1, abs=1e-12)
    assert rows[-1]["alpha0"] == pytest.approx(2 / 7, abs=1e-12)
    assert rows[-1]["rumor_eradicated"] is True


# the mode column: "targeted" for the per-type planner, "uniform" for the planners with one shared rate
MODES = {"rumor-min": "uniform", "truth": "uniform", "truth-targeted": "targeted", "platform": "uniform"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("objective", OBJECTIVES)
def test_mode_column_names_the_planner(capsys, objective, fmt):
    assert set(MODES) == set(OBJECTIVES)
    for command in (["optimize", "--A", "0.3"], ["sweep", "--axis", "A", "--steps", "4"]):
        code, out = run(capsys, *command, "--objective", objective, "--lambda", "2", "--x", "0.3", "--format", fmt)
        assert code == 0
        rows = json.loads(out)["rows"] if fmt == "json" else parse_csv(out)[1]
        assert [row["mode"] for row in rows] == [MODES[objective]] * len(rows)


def test_sweep_budget_reruns_identical_output(capsys):
    args = ("sweep", "--axis", "A", "--lambda", "2", "--x", "0.3", "--objective", "truth-targeted", "--steps", "6")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    assert len(parse_csv(first)[1]) == 6


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["sweep", "--axis", "alpha", "--lambda", "2", "--x", "0.3", "--jobs", "2"], "--jobs"),
        # only dynamics reads --seed, and only optimize reads --A
        (["steady", "--lambda", "2", "--x", "0.3", "--alpha", "0.2", "--seed", "7"], "--seed"),
        (["optimize", "--objective", "truth", "--lambda", "2", "--x", "0.3", "--A", "0.2", "--seed", "7"], "--seed"),
        (["thresholds", "--lambda", "2", "--x", "0.3", "--seed", "7"], "--seed"),
        (["sweep", "--axis", "A", "--objective", "truth", "--lambda", "2", "--x", "0.3", "--seed", "7"], "--seed"),
        (["sweep", "--axis", "alpha", "--lambda", "2", "--x", "0.3", "--A", "0.4"], "--A"),
        # only the budget axis reads --objective
        (["sweep", "--axis", "alpha", "--lambda", "2", "--x", "0.3", "--objective", "truth"], "--objective"),
        (["sweep", "--axis", "lambda", "--x", "0.3", "--alpha", "0.2", "--start", "1", "--stop", "5",
          "--objective", "truth"], "--objective"),
        (["sweep", "--axis", "x", "--lambda", "2", "--alpha", "0.2", "--objective", "truth"], "--objective"),
    ],
    ids=["jobs", "steady-seed", "optimize-seed", "thresholds-seed", "sweep-seed", "sweep-A",
         "alpha-objective", "lambda-objective", "x-objective"],
)
def test_unread_flags_rejected(capsys, argv, flag):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and flag in err


# ---------------------------------------------------------------------------
# optimize / thresholds
# ---------------------------------------------------------------------------

def test_optimize_truth_slack_point(capsys):
    code, out = run(
        capsys, "optimize", "--objective", "truth", "--lambda", "2", "--x", "0.3",
        "--A", "0.2857142857",
    )
    assert code == 0
    _, rows = parse_csv(out)
    row = rows[0]
    assert row["slack"] is True
    assert row["rumor_eradicated"] is False
    assert row["objective"] > 0.0
    assert row["A_lower"] == pytest.approx(0.198, abs=1e-2)
    assert row["A_tilde"] == pytest.approx(0.5714, abs=1e-2)


@pytest.mark.parametrize("objective", ["truth", "platform"])
def test_optimize_where_x_is_one_over_lam(capsys, objective):
    # nobody inspects at alpha = 0, where x = 1/lam leaves the truth slope infinite
    code, out = run(capsys, "optimize", "--objective", objective, "--lambda", "10", "--x", "0.1", "--A", "1")
    assert code == 0
    assert parse_csv(out)[1][0]["objective"] == pytest.approx(0.9, abs=1e-12)


def test_optimize_rumor_min(capsys):
    code, out = run(
        capsys, "optimize", "--objective", "rumor-min", "--lambda", "2", "--x", "0.3", "--A", "0.5"
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["budget_spent"] == pytest.approx(2 / 7, abs=1e-12)
    assert rows[0]["rumor_eradicated"] is True


def test_optimize_rumor_min_takes_tol(capsys):
    # --tol widens the band below alpha' = 0.6 in which the rumor counts as extinct
    # and so lowers the rate that buys extinction to 0.6 - tol
    args = ("optimize", "--objective", "rumor-min", "--lambda", "5", "--x", "0.5", "--A", "0.5996")
    for extra, spent, eradicated in (((), 0.5996, False), (("--tol", "1e-3"), 0.6 - 1e-3, True)):
        code, out = run(capsys, *args, *extra)
        assert code == 0
        row = parse_csv(out)[1][0]
        assert row["budget_spent"] == spent and row["rumor_eradicated"] is eradicated
        assert (row["objective"] == 0.0) is eradicated


def test_optimize_platform_full_budget(capsys):
    code, out = run(
        capsys, "optimize", "--objective", "platform", "--lambda", "2", "--x", "0.3", "--A", "1"
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["alpha0"] == 1.0
    assert rows[0]["objective"] == 0.5


def test_optimize_targeted(capsys):
    code, out = run(
        capsys, "optimize", "--objective", "truth-targeted", "--lambda", "2", "--x", "0.3", "--A", "0.2"
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["alpha0"] > 0.0
    assert rows[0]["rumor_eradicated"] is False


def test_thresholds_command(capsys):
    code, out = run(capsys, "thresholds", "--lambda", "2", "--x", "0.3")
    assert code == 0
    _, rows = parse_csv(out)
    row = rows[0]
    assert row["alpha_prime"] == pytest.approx(2 / 7, abs=1e-12)
    assert row["interval_lo"] == pytest.approx(1.2, abs=1e-12)
    assert row["interval_hi"] == pytest.approx(2.5, abs=1e-12)
    assert row["positivity_alpha"] == pytest.approx((0.5 - 0.3) / 0.7, abs=1e-12)
    assert row["positivity_alpha_alt"] is not None


@pytest.mark.parametrize("x,empty", [("1", ["positivity_alpha", "positivity_alpha_alt"]),
                                     ("0.25", ["positivity_alpha_alt"])])
def test_thresholds_print_undefined_readings_as_empty_or_null(capsys, x, empty):
    # at x = 1 neither reading is defined; at x = 1/lam the alternative divides by zero
    code, out = run(capsys, "thresholds", "--lambda", "4", "--x", x)
    assert code == 0
    row = parse_csv(out)[1][0]
    assert [k for k in ("positivity_alpha", "positivity_alpha_alt") if row[k] is None] == empty
    code, out = run(capsys, "thresholds", "--lambda", "4", "--x", x, "--format", "json")
    assert code == 0
    row = json.loads(out, parse_constant=no_constant)["rows"][0]
    assert [k for k in ("positivity_alpha", "positivity_alpha_alt") if row[k] is None] == empty


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def test_dynamics_converges_and_reports(capsys):
    code, out = run(
        capsys, "dynamics", "--lambda", "2", "--x", "0.3", "--alpha", "0.2", "--starts", "4"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "r00a", "r00na", "r10a", "r11na", "theta0", "theta1"]
    assert rows[-1]["theta0"] == pytest.approx(THETA0_REF, abs=1e-6)
    meta = comments(out)
    assert any("status: converged" in ln for ln in meta)
    assert any("stability_passed: true" in ln for ln in meta)


def test_dynamics_full_inspection_limit(capsys):
    code, out = run(capsys, "dynamics", "--lambda", "2", "--x", "0.3", "--alpha", "1")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[-1]["theta0"] == pytest.approx(0.5, abs=1e-6)


def test_dynamics_zero_seed_stays_zero(capsys):
    code, out = run(
        capsys, "dynamics", "--lambda", "2", "--x", "0.3", "--alpha", "0.2", "--init", "0"
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1
    assert all(rows[0][k] == 0.0 for k in ("r00a", "r00na", "r10a", "r11na", "theta0", "theta1"))


def test_dynamics_negative_zero_init_seeds_like_zero(capsys):
    # a level of -0.0 passes the [0, 1] check; it seeds 0.0, so only the config echo tells the two runs apart
    args = ["dynamics", "--lambda", "2", "--x", "0.3", "--alpha", "0.2"]
    outs = [run(capsys, *args, f"--init={init}") for init in ("0", "-0.0")]
    assert [code for code, _ in outs] == [0, 0]
    zero, negative = ([ln for ln in out.splitlines() if not ln.startswith("# config")] for _, out in outs)
    assert zero == negative and "-0.0" not in "\n".join(negative)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_negative_zero_budget_optimizes_like_zero(capsys, objective):
    # a budget of -0.0 passes the >= 0 check; it plans as 0.0, so only the config echo tells the two runs apart
    args = ["optimize", "--objective", objective, "--lambda", "2", "--x", "0.3"]
    outs = [run(capsys, *args, f"--A={A}") for A in ("0", "-0.0")]
    assert [code for code, _ in outs] == [0, 0]
    zero, negative = ([ln for ln in out.splitlines() if not ln.startswith("# config")] for _, out in outs)
    assert zero == negative and "-0.0" not in "\n".join(negative)


def test_dynamics_exit_3_when_not_converged(capsys):
    # exactly critical rumor point decays algebraically; the horizon is hit
    code, out = run(
        capsys, "dynamics", "--lambda", "2", "--x", "0.5", "--alpha", "0", "--tol", "1e-10"
    )
    assert code == 3
    meta = comments(out)
    assert any("status: horizon" in ln for ln in meta)


def test_dynamics_exit_3_when_step_budget_exhausted(monkeypatch, capsys):
    monkeypatch.setattr(dynamics, "MAX_STEPS", 50)
    code = main(["dynamics", "--lambda", "2", "--x", "0.3", "--alpha", "0.2"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == "" and err.startswith("numerical failure: step budget exhausted: 50 steps attempted")


def test_stalled_dynamics_exits_3_at_once(monkeypatch, capsys):
    # at lambda = 5e6 the residual sticks at 1.314e-10, above conv_tol yet below the floor the pre-check refuses:
    # the run ends after STALL_STEPS accepted steps that left the state unchanged, not after MAX_STEPS attempts
    argv = ["dynamics", "--x", "0.3", "--alpha", "0.2", "--lambda"]
    start = time.perf_counter()
    code = main([*argv, "5e6"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and elapsed < 0.2
    assert re.fullmatch(r"numerical failure: stalled at max\|dr/dt\| = 1\.314\d*e-10: 1000 accepted steps by "
                        r"t=\S+ left the state unchanged\n", err)
    # near that floor, runs that converge write the same bytes as with the stall check out of reach
    for lam, steps in (("1e6", 4059), ("4e6", 5353)):
        assert main([*argv, lam]) == 0
        table = capsys.readouterr().out
        assert f"# steps: {steps}\n" in table
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "STALL_STEPS", dynamics.MAX_STEPS + 1)
            assert main([*argv, lam]) == 0
        assert capsys.readouterr().out == table


@pytest.mark.parametrize(
    "args,message",
    [
        # 2*k overflows to inf unless nu scales it first
        (["--nu", "1e-100", "--k", "1e308", "--delta", "1"], "numerical failure: conv_tol=1e-10 is below the rounding floor"),
        (["--lambda", "2", "--tol", "5e-324"],
         "numerical failure: error tolerance 0.0 derived from conv_tol=5e-324 is not a positive normal float\n"),
        (["--lambda", "1e7"],
         "numerical failure: conv_tol=1e-10 is below the rounding floor 1.55e-10 of the rates at the fixed point\n"),
    ],
    ids=["k_nu", "subnormal_tol", "rounding_floor"],
)
def test_dynamics_extremes_exit_3(capsys, args, message):
    code = main(["dynamics", *args, "--x", "0.3", "--alpha", "0.2"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == "" and err.startswith(message)


def test_steady_equal_rates_match_the_uniform_rate(capsys):
    # at x = 0.02, x*0.11 + (1-x)*0.11 rounds below 0.11; both policies spend 0.11
    _, uniform = run(capsys, "steady", "--lambda", "2", "--x", "0.02", "--alpha", "0.11")
    _, equal = run(capsys, "steady", "--lambda", "2", "--x", "0.02", "--alpha0", "0.11", "--alpha1", "0.11")
    assert parse_csv(equal) == parse_csv(uniform)


# ---------------------------------------------------------------------------
# contract: determinism, files, exit codes
# ---------------------------------------------------------------------------

def test_output_file_byte_identical_reruns(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["dynamics", "--lambda", "2", "--x", "0.3", "--alpha", "0.2", "--starts", "3", "--seed", "42"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    capsys.readouterr()
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2 and len(b1) > 0


def test_config_errors_exit_2(capsys):
    cases = [
        ["steady", "--lambda", "2", "--nu", "1", "--k", "1", "--delta", "0.5", "--x", "0.3", "--alpha", "0.2"],
        ["steady", "--lambda", "2", "--alpha", "0.2"],  # missing x
        ["steady", "--lambda", "2", "--x", "0.3"],  # missing allocation
        ["steady", "--lambda", "2", "--x", "0.3", "--alpha", "0.2", "--alpha0", "0.1", "--alpha1", "0.1"],
        ["steady", "--lambda", "2", "--x", "1.5", "--alpha", "0.2"],
        ["sweep", "--axis", "alpha", "--lambda", "2", "--x", "0.3", "--steps", "1"],
        ["sweep", "--axis", "lambda", "--x", "0.3", "--alpha", "0.2", "--steps", "5"],  # missing range
        ["sweep", "--axis", "A", "--lambda", "2", "--x", "0.3", "--steps", "5"],  # missing objective
        ["sweep", "--axis", "nonsense", "--lambda", "2", "--x", "0.3"],
        ["optimize", "--objective", "truth", "--lambda", "2", "--x", "0.3", "--A", "-0.5"],
        ["optimize", "--objective", "truth", "--lambda", "2", "--x", "0.3"],  # missing A
        ["steady", "--lambda", "2", "--x", "0.3", "--alpha", "0.2", "--tol", "0"],
        ["nonsense"],
    ]
    for args in cases:
        code = main(args)
        capsys.readouterr()
        assert code == 2, args


@pytest.mark.parametrize(
    "rates,message",
    [
        (["--lambda", "inf"], "nu, k, delta must be finite and strictly positive, got (inf, 1.0, 0.5)"),
        (["--nu", "1e308", "--k", "1e308", "--delta", "1e-308"],  # lam overflows
         "lam = nu * k / delta must be finite and strictly positive, got inf"),
    ],
    ids=["lambda", "overflow"],
)
def test_non_finite_model_inputs_exit_2(capsys, rates, message):
    code = main(["steady", *rates, "--x", "0.3", "--alpha", "0.2"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize(
    "args,name",
    [
        (["steady", "--alpha", "0.2"], "tol"),
        (["dynamics", "--alpha", "0.2"], "conv_tol"),
        (["optimize", "--objective", "truth", "--A", "0.2"], "tol"),
        (["thresholds"], "tol"),
    ],
    ids=["steady", "dynamics", "optimize", "thresholds"],
)
def test_infinite_tol_exit_2(capsys, args, name):
    code = main([*args, "--lambda", "2", "--x", "0.3", "--tol", "inf"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err == f"error: {name} must be finite and positive, got inf\n"


@pytest.mark.parametrize(
    "args,message",
    [
        (["steady", "--nu", "1", "--k", "1", "--delta", "0", "--x", "0.3", "--alpha", "0.2"],
         "nu, k, delta must be finite and strictly positive, got (1.0, 1.0, 0.0)"),
        (["steady", "--lambda", "2", "--x", "0.3", "--alpha", "2"], "alpha0 must lie in [0, 1], got 2.0"),
        (["steady", "--lambda", "2", "--x", "0.3", "--alpha0", "0.1", "--alpha1", "-1"],
         "alpha1 must lie in [0, 1], got -1.0"),
        (["optimize", "--objective", "truth", "--lambda", "2", "--x", "0.3", "--A", "0.2", "--tol", "0"],
         "tol must be finite and positive, got 0.0"),
        (["optimize", "--objective", "truth", "--lambda", "2", "--x", "0.3", "--A", "-1"],
         "budget must be >= 0, got -1.0"),
        (["optimize", "--objective", "truth", "--lambda", "2", "--x", "0.3", "--A", "inf", "--format", "json"],
         "budget must be finite, got inf"),
        (["sweep", "--axis", "A", "--objective", "truth", "--lambda", "2", "--x", "0.3", "--start", "-1"],
         "budget must be >= 0, got -1.0"),
        (["sweep", "--axis", "lambda", "--x", "0.3", "--alpha", "0.2", "--start", "0", "--stop", "2"],
         "lam must be strictly positive, got 0.0"),
        (["dynamics", "--lambda", "2", "--x", "0.3", "--alpha", "0.2", "--init", "2"],
         "seed level must lie in [0, 1], got 2.0"),
        (["dynamics", "--lambda", "5e-324", "--x", "0.3", "--alpha", "0.2"],
         "lam must have an exact half nu = lam / 2, got 5e-324"),
    ],
    ids=["rates", "alpha", "alpha1", "tol", "budget", "budget-inf", "budget-sweep", "lambda-sweep", "init",
         "lambda-half"],
)
def test_parameter_errors_exit_2_with_their_message(capsys, args, message):
    code = main(args)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err == f"error: {message}\n"


# np.linspace multiplies its step by steps - 1 before it pins --stop: over a span near the float maximum that
# product overflows, although every point of the grid is finite
@pytest.mark.parametrize("argv", [["--axis", "A", "--objective", "rumor-min", "--lambda", "1", "--x", "0"],
                                  ["--axis", "lambda", "--x", "0.3", "--alpha", "0.2"]], ids=["A", "lambda"])
def test_sweep_span_near_the_float_maximum_warns_nothing(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sweep", *argv, "--start", "1", "--stop", repr(sys.float_info.max), "--steps", "4"])
    out, err = capsys.readouterr()
    assert code == 0 and err == "" and not caught
    swept = [row[argv[1]] for row in parse_csv(out)[1]]
    assert swept[0] == 1.0 and swept[-1] == sys.float_info.max and all(map(math.isfinite, swept))


# 10**20 is past numpy's size limit, and at 2**63 its arange comes out empty; both are past a list's index range,
# which the budget grid meets before it computes a point, and 2**62 lists are past its memory limit: none allocates
@pytest.mark.parametrize("axis", [["alpha"], ["A", "--objective", "truth"]], ids=["alpha", "A"])
@pytest.mark.parametrize("steps", [10**20, 2**63, 2**62], ids=["1e20", "2**63", "2**62"])
def test_oversized_sweep_steps_exit_2(capsys, steps, axis):
    tracemalloc.start()
    try:
        code = main(["sweep", "--axis", *axis, "--lambda", "2", "--x", "0.3", "--steps", str(steps)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 2 and peak < 2**20
    assert out == "" and err.startswith(f"error: cannot build a sweep grid of {steps} steps: ") and err[-3:] != ": \n"


def segment(args):
    """The segment a _segment_rates call searches, by its arguments: "truth" or "platform" on the uniform line,
    "edge" at alpha0 = 1 over [0, 1], else "line", the targeted budget line."""
    plan, lo, hi, alloc, interior = args
    if alloc == Allocation.uniform:
        return "platform" if interior.args[1] else "truth"
    return "edge" if (lo, hi) == (0.0, 1.0) and alloc(0.5) == Allocation.targeted(1.0, 0.5) else "line"


@pytest.mark.parametrize("steps", [11, 101])
@pytest.mark.parametrize("objective", ["truth", "platform", "truth-targeted"])
def test_budget_sweep_analyses_its_curve_once(monkeypatch, capsys, objective, steps):
    # the uniform curve and the targeted alpha0 = 1 edge do not depend on the
    # budget, so a sweep analyses each once, however many budgets it has: at
    # lam = 2, x = 0.3 both uniform curves peak inside, the truth at 0.198 and
    # the platform below 0.29, so each solves for one peak. The targeted
    # planner searches its budget line at every budget above 0, its edge
    # once, and analyses no uniform curve
    segments, peaks = [], []
    segment_rates, peak = planner._segment_rates, planner._peak
    monkeypatch.setattr(planner, "_segment_rates", lambda *args: segments.append(segment(args)) or segment_rates(*args))
    monkeypatch.setattr(planner, "_peak", lambda *args: peaks.append(args) or peak(*args))
    code, out = run(capsys, "sweep", "--axis", "A", "--objective", objective, "--lambda", "2", "--x", "0.3",
                    "--steps", str(steps))
    assert code == 0 and len(parse_csv(out)[1]) == steps
    if objective == "truth-targeted":
        assert segments.count("edge") == 1 and segments.count("line") == steps - 1 and not peaks
    else:
        assert segments == [objective] and len(peaks) == 1


def test_targeted_budget_sweep_rows_are_single_optimizations(monkeypatch, capsys):
    # a targeted sweep analyses the alpha0 = 1 edge once, over alpha1 in
    # [0, 1]; optimize analyses the same edge when A > x, and the same budget
    # line. So each row is, bit for bit, what optimize finds at that budget alone
    edges = []
    segment_rates = planner._segment_rates
    monkeypatch.setattr(planner, "_segment_rates", lambda *args: segment(args) == "edge" and edges.append(args[1:3])
                        or segment_rates(*args))
    args = ["--objective", "truth-targeted", "--lambda", "2", "--x", "0.3"]
    code, out = run(capsys, "sweep", "--axis", "A", *args, "--start", "0.2", "--stop", "0.6", "--steps", "9")
    assert code == 0 and edges == [(0.0, 1.0)]
    rows = parse_csv(out)[1]
    assert len(rows) == 9 and rows[-1]["A"] == 0.6
    for row in rows:
        edges.clear()
        code, out = run(capsys, "optimize", *args, "--A", repr(row["A"]))
        assert code == 0 and edges == ([(0.0, 1.0)] if row["A"] > 0.3 else [])
        single = parse_csv(out)[1][0]
        assert all(row[key] == single[key] for key in row if key != "A"), row["A"]


@pytest.mark.parametrize(
    "argv,curves",
    [
        (["optimize", "--objective", "truth", "--A", "0.5"], ["truth", "platform"]),
        (["optimize", "--objective", "platform", "--A", "0.5"], ["platform", "truth"]),
        (["optimize", "--objective", "rumor-min", "--A", "0.5"], ["truth", "platform"]),
        (["optimize", "--objective", "truth-targeted", "--A", "0.2"], ["truth", "platform"]),
        (["optimize", "--objective", "truth-targeted", "--A", "0.5"], ["edge", "truth", "platform"]),
        (["optimize", "--objective", "truth-targeted", "--A", "0.8"], ["edge", "truth", "platform"]),
        (["sweep", "--axis", "A", "--objective", "truth-targeted", "--steps", "11"], ["edge"]),
        (["thresholds"], ["truth", "platform"]),
    ],
    ids=["truth", "platform", "rumor-min", "targeted-below-x", "targeted", "targeted-above-1-x", "targeted-sweep",
         "thresholds"],
)
def test_each_command_analyses_each_curve_once(monkeypatch, capsys, argv, curves):
    # a command builds one Planner of its point, and the Planner analyses each
    # curve it reads once, in the order read: the optimum's first, then the
    # thresholds'. It reads the targeted planner's edge only at budgets above
    # x, and solves its corners (0, 0) and (0, 1) at no budget: the rumor is
    # extinct or nobody inspects there, so their truth is in closed form
    built, solved = [], []
    segment_rates, objective = planner._segment_rates, planner._objective
    monkeypatch.setattr(planner, "_segment_rates", lambda *args: segment(args) != "line" and built.append(segment(args))
                        or segment_rates(*args))
    monkeypatch.setattr(planner, "_objective", lambda p, a, *args: solved.append(a) or objective(p, a, *args))
    code, out = run(capsys, *argv, "--lambda", "2", "--x", "0.3")
    assert code == 0 and out
    assert built == curves
    assert not {Allocation.targeted(0.0, 0.0), Allocation.targeted(0.0, 1.0)} & set(solved)


def test_targeted_at_x_zero_matches_uniform(capsys):
    # at x = 0 alpha0 has no mass behind it, so both planners reach the same truth
    rows = {}
    for objective in ("truth", "truth-targeted"):
        code, out = run(capsys, "optimize", "--objective", objective, "--lambda", "2", "--x", "0", "--A", "0.5")
        assert code == 0
        rows[objective] = parse_csv(out)[1][0]
    assert rows["truth"]["objective"] == pytest.approx(0.125, abs=1e-12)
    assert rows["truth-targeted"]["objective"] == pytest.approx(0.125, abs=1e-12)
    assert rows["truth-targeted"]["alpha0"] == 0.0
    assert rows["truth-targeted"]["alpha1"] == pytest.approx(rows["truth"]["alpha1"], abs=1e-8)


@pytest.mark.parametrize("flags", [["--starts", "1"], ["--starts", "2", "--seed", "-1"], ["--seed", "-5"]],
                         ids=["starts", "seed", "seed-without-starts"])
def test_stability_flags_checked_before_integrating(monkeypatch, capsys, flags):
    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before the flags were checked")

    monkeypatch.setattr(dynamics, "integrate", no_integration)  # verify_global_stability's calls included
    code = main(["dynamics", "--lambda", "2", "--x", "0.3", "--alpha", "0.2", *flags])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and "error:" in err


@pytest.mark.parametrize("flags", [["--starts", "2", "--seed", "-1"], ["--seed", "-5"]], ids=["starts", "no-starts"])
def test_negative_seed_exit_2(capsys, flags):
    code = main(["dynamics", "--lambda", "2", "--x", "0.3", "--alpha", "0.2", *flags])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and f"error: seed must be >= 0, got {flags[-1]}" in err


@pytest.mark.parametrize("init,corners", [([], [(1.0,) * 4]), (["--init", "0.2"], [(1e-3,) * 4, (1.0,) * 4]),
                                          (["--init", "1e-9"], [(1.0,) * 4]), (["--init", "1"], [(1e-3,) * 4])],
                         ids=["default-init", "init", "low-init", "all-ones-init"])
def test_dynamics_starts_integrate_the_seed_once(monkeypatch, capsys, init, corners):
    # the printed run comes first; the stability check then integrates the corners of the box [min(--init, 1e-3),
    # 1]^4, whatever N, except a corner equal to the run's start, which is the run itself
    starts = []
    integrate = dynamics.integrate

    def counted(s0, *args, **kwargs):
        starts.append(s0[:4])
        return integrate(s0, *args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate", counted)  # the CLI looks it up at call time, as the check does
    code = main(["dynamics", "--lambda", "2", "--x", "0.3", "--alpha", "0.2", "--starts", "3", *init])
    out = capsys.readouterr().out
    assert code == 0 and "# stability_passed: true" in out
    level = float(init[-1]) if init else 1e-3
    assert starts == [(level,) * 4, *corners]


@pytest.mark.parametrize("init", ["0", "1e-11", "2e-10", "3e-10"])
def test_stability_check_covers_the_printed_start(capsys, init):
    # from a start below about 8e-10 the rumor's rate is below conv_tol, and the run stops far from the limit:
    # the certificate's box [min(--init, 1e-3), 1]^4 holds that start, so its lower corner stops there too, the
    # corners' limits part by about 0.209 and the run exits 3 (from 1e-9 up the check passes, as above)
    code = main(["dynamics", "--lambda", "2", "--x", "0.3", "--alpha", "0.2", "--starts", "2", f"--init={init}"])
    meta = comments(capsys.readouterr().out)
    assert code == 3 and "# stability_passed: false" in meta
    assert float(next(ln for ln in meta if ln.startswith("# stability_max_gap:")).split()[-1]) > 0.2


def dynamics_texts(argv):
    """(the table main(argv) wrote, the same table written from per-state rows, transposed) for a dynamics line
    without --starts; None when the run failed before writing a table."""
    trajectories, texts = [], []
    integrate, emit = dynamics.integrate, cli.emit

    def kept(*args):
        trajectories.append(integrate(*args))
        return trajectories[-1]

    def emit_both(header, columns, cfg, summary=None):
        p, a = cli._params(cfg), cli._allocation(cfg)
        rows = [(s.t, s.r00a, s.r00na, s.r10a, s.r11na, *prevalences(s, p, a)) for s in trajectories[-1].states]
        texts.extend([emit(header, columns, cfg, summary), emit(header, list(zip(*rows)), cfg, summary)])

    with (mock.patch.object(dynamics, "integrate", kept), mock.patch.object(cli, "emit", emit_both),
          contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO())):
        main(argv)
    return tuple(texts) or None


EDGE_OR_UNIT = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0.2, 6.0), x=EDGE_OR_UNIT, alphas=st.tuples(EDGE_OR_UNIT) | st.tuples(EDGE_OR_UNIT, EDGE_OR_UNIT),
       init=st.sampled_from([None, 0.0, -0.0]) | st.floats(0.0, 1.0), fmt=st.sampled_from(["csv", "json"]))
@example(lam=2.0, x=0.0, alphas=(0.2,), init=-0.0, fmt="csv")  # r00a is pinned at 0.0, and -0.0 seeds r10a at 0.0
@example(lam=2.0, x=0.3, alphas=(0.0, 0.5), init=None, fmt="json")  # r00a is pinned at 0, r10a moves
def test_dynamics_columns_match_the_per_state_rows(lam, x, alphas, init, fmt):
    # run_dynamics takes its columns at once and passes r00a's column for r10a when the two are equal bit for bit
    names = ["--alpha"] if len(alphas) == 1 else ["--alpha0", "--alpha1"]
    flags = [tok for name, v in zip(names, alphas) for tok in (name, repr(v))]
    inits = [] if init is None else [f"--init={init!r}"]
    texts = dynamics_texts(["dynamics", "--lambda", repr(lam), "--x", repr(x), *flags, *inits, "--format", fmt])
    assert texts is None or texts[0] == texts[1]


def test_dynamics_keeps_the_sign_of_a_zero_r10a(monkeypatch, capsys):
    # seed_state gives no -0.0, so the start is patched: r00a is pinned at 0.0 and r10a starts, and stays, at -0.0
    monkeypatch.setattr(dynamics, "seed_state", lambda p, a, level: dynamics.DynState(0.0, -0.0, -0.0, -0.0))
    code, out = run(capsys, "dynamics", "--lambda", "2", "--x", "0", "--alpha", "0.2", "--init=-0.0")
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert code == 0 and len(lines) == 2
    cells = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert (cells["r00a"], cells["r10a"]) == ("0.0", "-0.0")


@pytest.mark.parametrize("alloc,formatted", [(["--alpha", "0.2"], 6), (["--alpha0", "0", "--alpha1", "0.5"], 7)],
                         ids=["shared", "r00a-pinned"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_dynamics_formats_the_shared_inspecting_column_once(monkeypatch, capsys, alloc, formatted, fmt):
    # both inspecting groups follow one rate law from one seed level, so r10a is r00a's column unless a group is empty
    calls = []
    fmt_column = cli._fmt_column
    monkeypatch.setattr(cli, "_fmt_column", lambda col, f: calls.append(col) or fmt_column(col, f))
    code, _ = run(capsys, "dynamics", "--lambda", "2", "--x", "0.3", *alloc, "--format", fmt)
    assert code == 0 and len(calls) == formatted


def test_unwritable_out_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "f.csv"
    code = main(["steady", "--lambda", "2", "--x", "0.3", "--alpha", "0.2", "--out", str(target)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and "error:" in err
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "argv,target",
    [
        (["optimize", "--objective", "truth", "--lambda", "2", "--x", "0.3", "--A", "0.2"], "missing/f.csv"),
        (["dynamics", "--lambda", "2", "--x", "0.3", "--alpha", "0.2", "--starts", "8"], "."),  # a directory
    ],
    ids=["missing-dir", "directory"],
)
def test_unwritable_out_checked_before_computing(monkeypatch, tmp_path, capsys, argv, target):
    def no_compute(*args, **kwargs):
        raise AssertionError("computed before --out was checked")

    for module, name in ((cli, "optimize_record"), (planner, "compute_thresholds"), (planner, "Planner"),
                         (dynamics, "integrate"), (dynamics, "verify_global_stability")):
        monkeypatch.setattr(module, name, no_compute)
    code = main([*argv, "--out", str(tmp_path / target)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and "error:" in err
    assert not any(tmp_path.iterdir())


# the config echo of a run with every optional flag left out: the defaults come from RunConfig alone
DEFAULT_ECHOES = {
    "steady --lambda 2 --x 0.3 --alpha 0.2": (
        '{"alpha": 0.2, "command": "steady", "fmt": "csv", "init": 0.001, "lam": 2.0, "seed": 0, "steps": 101, '
        '"x": 0.3}',
        '{"command": "steady", "lam": 2.0, "x": 0.3, "alpha": 0.2, "steps": 101, "init": 0.001, "seed": 0, '
        '"fmt": "json"}',
    ),
    "dynamics --lambda 2 --x 0.3 --alpha 0.2": (
        '{"alpha": 0.2, "command": "dynamics", "fmt": "csv", "init": 0.001, "lam": 2.0, "seed": 0, "steps": 101, '
        '"x": 0.3}',
        '{"command": "dynamics", "lam": 2.0, "x": 0.3, "alpha": 0.2, "steps": 101, "init": 0.001, "seed": 0, '
        '"fmt": "json"}',
    ),
    "sweep --axis alpha --lambda 2 --x 0.3": (
        '{"axis": "alpha", "command": "sweep", "fmt": "csv", "init": 0.001, "lam": 2.0, "seed": 0, "steps": 101, '
        '"x": 0.3}',
        '{"command": "sweep", "lam": 2.0, "x": 0.3, "axis": "alpha", "steps": 101, "init": 0.001, "seed": 0, '
        '"fmt": "json"}',
    ),
    "optimize --objective truth --lambda 2 --x 0.3 --A 0.2": (
        '{"A": 0.2, "command": "optimize", "fmt": "csv", "init": 0.001, "lam": 2.0, "objective": "truth", '
        '"seed": 0, "steps": 101, "x": 0.3}',
        '{"command": "optimize", "lam": 2.0, "x": 0.3, "A": 0.2, "objective": "truth", "steps": 101, '
        '"init": 0.001, "seed": 0, "fmt": "json"}',
    ),
    "thresholds --lambda 2 --x 0.3": (
        '{"command": "thresholds", "fmt": "csv", "init": 0.001, "lam": 2.0, "seed": 0, "steps": 101, "x": 0.3}',
        '{"command": "thresholds", "lam": 2.0, "x": 0.3, "steps": 101, "init": 0.001, "seed": 0, "fmt": "json"}',
    ),
}


@pytest.mark.parametrize("command", DEFAULT_ECHOES)
def test_config_echo_of_a_default_run(capsys, command):
    csv_echo, json_echo = DEFAULT_ECHOES[command]
    code, out = run(capsys, *command.split())
    assert code == 0 and comments(out)[1] == f"# config: {csv_echo}"
    code, out = run(capsys, *command.split(), "--format", "json")
    assert code == 0 and json.dumps(json.loads(out)["config"]) == json_echo  # key order included


def test_metadata_lines_present(capsys):
    _, out = run(capsys, "steady", "--lambda", "2", "--x", "0.3", "--alpha", "0.2")
    meta = comments(out)
    assert meta[0].startswith("# rumor-inspect ")
    assert meta[1].startswith("# config: ")
    json.loads(meta[1].removeprefix("# config: "))  # config echo is valid JSON


# ---------------------------------------------------------------------------
# edge property: every subcommand at finite inputs up to the float extremes
# ---------------------------------------------------------------------------

FINITE = st.floats(5e-324, sys.float_info.max)  # rates, --lambda, --A and --tol
UNIT = st.sampled_from([0.0, 1.0, 2**-53, 1 - 2**-53, 5e-324]) | st.floats(0.0, 1.0)  # x and the alphas
# the fraction, inspection-rate and prevalence fields of every subcommand's rows
UNIT_FIELDS = {
    "theta0", "theta1", "theta", "rho_00_a", "rho_10_a", "rho_00_na", "rho_11_na",  # steady and sweep
    "r00a", "r00na", "r10a", "r11na",  # dynamics
    "alpha", "x",  # sweep axes
    "alpha0", "alpha1", "objective", "budget_spent", "alpha_prime", "A_lower", "A_upper", "A_tilde",  # planners
}


@st.composite
def cli_argv(draw) -> list[str]:
    """A --format json command line of any subcommand, with each flag its command reads."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    axis = draw(st.sampled_from(cli.AXES)) if command == "sweep" else None
    argv = [command, "--format", "json"]
    if axis != "lambda":
        if draw(st.booleans()):
            argv += ["--lambda", repr(draw(FINITE))]
        else:
            argv += [tok for flag in ("--nu", "--k", "--delta") for tok in (flag, repr(draw(FINITE)))]
    if axis != "x":
        argv += ["--x", repr(draw(UNIT))]
    if command in ("steady", "dynamics") or axis in ("lambda", "x"):
        if draw(st.booleans()):
            argv += ["--alpha", repr(draw(UNIT))]
        else:
            argv += ["--alpha0", repr(draw(UNIT)), "--alpha1", repr(draw(UNIT))]
    if command == "optimize" or axis == "A":
        argv += ["--objective", draw(st.sampled_from(OBJECTIVES))]
    if command == "optimize":
        argv += ["--A", repr(draw(FINITE))]
    if axis is not None:
        ends = sorted(draw(st.lists(UNIT if axis in ("alpha", "x") else FINITE, min_size=2, max_size=2)))
        argv += ["--axis", axis, "--start", repr(ends[0]), "--stop", repr(ends[1]),
                 "--steps", str(draw(st.integers(2, 4)))]
    if command == "dynamics" and draw(st.booleans()):
        argv += ["--init", repr(draw(UNIT))]
    if command == "dynamics" and draw(st.booleans()):
        argv += ["--starts", "2", "--seed", str(draw(st.integers(0, 2**32)))]
    if draw(st.booleans()):
        argv += ["--tol", repr(draw(FINITE))]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=cli_argv())
# np.linspace overflowed inside over this span, and its RuntimeWarning failed the run
@example(argv=["sweep", "--format", "json", "--lambda", "1", "--x", "0", "--objective", "rumor-min", "--axis", "A",
               "--start", "1", "--stop", "1.7976931348623157e308", "--steps", "4"])
def test_every_run_exits_0_2_or_3_with_its_rows_in_their_domain(argv):
    out, err = io.StringIO(), io.StringIO()
    # a budget exit is exit 3 at any MAX_STEPS; a smaller one keeps each run short
    with mock.patch.object(dynamics, "MAX_STEPS", 2_000), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    if code != 0:
        return
    for row in json.loads(out.getvalue(), parse_constant=no_constant)["rows"]:
        assert all(0.0 <= v <= 1.0 for k, v in row.items() if k in UNIT_FIELDS and v is not None), row
        if "theta" in row:
            assert row["theta"] == row["theta0"] + row["theta1"], row


# ---------------------------------------------------------------------------
# start-up: numpy, the planner and the dynamics load only for the commands that run them
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"

NUMPY_PROBE = """
import sys
before = set(sys.modules)
from rumor_inspect.cli import main
import contextlib, io, json
added = sorted(set(sys.modules) - before)
package = lambda: sorted(m for m in sys.modules if m.partition(".")[0] == "rumor_inspect")
seen = [(None, "numpy" in sys.modules, package())]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append((main(argv), "numpy" in sys.modules, package()))
print(json.dumps([added, seen]))
"""
IMPORTED = ["rumor_inspect", "rumor_inspect.cli", "rumor_inspect.model"]  # all that `import rumor_inspect.cli` runs
PLANS, INTEGRATES = ["rumor_inspect.planner"], ["rumor_inspect.dynamics"]  # what a command may add to those
AT = ("--lambda", "2", "--x", "0.3")


def numpy_after(*argvs):
    """(exit code, numpy imported, the package modules the step added) after importing the CLI, then after each
    command line, in one fresh interpreter.

    The import itself must load neither dataclasses nor inspect. Only the modules it adds count, so that
    modules a site hook loads at start-up do not.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    added, seen = json.loads(proc.stdout)
    assert "rumor_inspect.cli" in added
    assert {"dataclasses", "inspect"}.isdisjoint(added), added
    steps, loaded = [], set()
    for code, numpy_loaded, package in seen:
        steps.append((code, numpy_loaded, sorted({*package} - loaded)))
        loaded.update(package)
    return steps


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    assert numpy_after() == [(None, False, IMPORTED)]


def test_cli_import_without_site_hooks_loads_no_typing_dataclasses_or_inspect():
    # python -S runs no site hook, so every module loaded is the import's own: a hook that loads typing
    # at start-up would hide it from numpy_after, which counts only the modules the import adds
    probe = "import sys, rumor_inspect.cli; print(*sorted({'typing', 'dataclasses', 'inspect'} & {*sys.modules}))"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == []


ARGPARSE_PROBE = r"""
import contextlib, io, json, sys
from rumor_inspect import cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue(), "argparse" in sys.modules

print(json.dumps([run(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_only_lines_the_tables_decline_load_argparse():
    # python -S: no site hook loads argparse first; each line runs after the ones before it, in one process
    argvs = [["steady", "--lambda", "2", "--x", "0.3", "--alpha", "0.2"],
             ["steady", "--lam=2", "--x=0.3", "--alpha", "0.2"], ["sweep", "-h"]]
    proc = subprocess.run([sys.executable, "-S", "-c", ARGPARSE_PROBE, json.dumps(argvs)],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
                          check=True)
    (fast, fast_out, fast_loaded), (slow, slow_out, slow_loaded), (help_code, help_out, _) = json.loads(proc.stdout)
    assert (fast, fast_loaded) == (0, False)
    assert (slow, slow_out, slow_loaded) == (0, fast_out, True)
    assert help_code == 0 and help_out.startswith("usage: rumor-inspect sweep")


def test_commands_without_arrays_leave_numpy_unimported():
    # a budget sweep builds its grid and its columns on floats
    seen = numpy_after(
        ["steady", "--alpha", "0.2", *AT],
        ["sweep", "--axis", "A", "--objective", "truth", "--steps", "11", *AT],
        *(["optimize", "--objective", objective, "--A", "0.3", *AT] for objective in OBJECTIVES),
        ["thresholds", *AT],
        ["dynamics", "--alpha", "0.2", *AT],
    )
    assert seen == [(None, False, IMPORTED), (0, False, []), (0, False, PLANS)] + [(0, False, [])] * 5 + [
        (0, False, INTEGRATES)]


@pytest.mark.parametrize(
    "argv,numpy_loaded,loaded",
    [(["sweep", "--axis", "alpha", "--steps", "5", *AT], True, []),
     (["dynamics", "--alpha", "0.2", "--starts", "8", "--seed", "5", *AT], False, INTEGRATES)],
    ids=["sweep", "starts"],
)
def test_only_array_commands_import_numpy(argv, numpy_loaded, loaded):
    # the probe sees numpy once a command needs it; the stability check integrates two fixed starts, on floats
    assert numpy_after(argv) == [(None, False, IMPORTED), (0, numpy_loaded, loaded)]


# a command line, and the package modules that running it adds to those the import loaded
PACKAGE_LOADS = [
    (["steady", "--alpha", "0.2", *AT], []),
    (["sweep", "--axis", "alpha", "--steps", "5", *AT], []),
    (["sweep", "--axis", "lambda", "--start", "1", "--stop", "3", "--steps", "5", "--x", "0.3", "--alpha", "0.2"], []),
    (["sweep", "--axis", "x", "--steps", "5", "--lambda", "2", "--alpha0", "0.1", "--alpha1", "0.4"], []),
    *((["optimize", "--objective", objective, "--A", "0.3", *AT], PLANS) for objective in OBJECTIVES),
    (["thresholds", *AT], PLANS),
    (["sweep", "--axis", "A", "--objective", "truth-targeted", "--steps", "3", *AT], PLANS),
    (["dynamics", "--alpha", "0.2", *AT], INTEGRATES),
]


@pytest.mark.parametrize("argv,loaded", PACKAGE_LOADS, ids=[" ".join(argv) for argv, _ in PACKAGE_LOADS])
def test_each_command_loads_only_the_package_modules_it_runs(argv, loaded):
    # a fresh interpreter per command: the import runs model alone, and each command adds only what it calls
    assert [step[::2] for step in numpy_after(argv)] == [(None, IMPORTED), (0, loaded)]


# ---------------------------------------------------------------------------
# parsing: a well-formed line skips argparse and parses as argparse parses it
# ---------------------------------------------------------------------------

def outcome(argv, fast=True):
    """(exit code, stdout, stderr, files written) of main(argv) in a fresh working directory.

    fast=False patches the fast path off, so that argparse parses every line.
    """
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(dynamics, "MAX_STEPS", 2_000), \
            mock.patch.object(cli, "_fast_parse", cli._fast_parse if fast else lambda argv: None), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.chdir(tmp)  # an --out of any drawn value writes here
        try:
            code = main(list(argv))
            files = {p.name: p.read_bytes() for p in Path(tmp).iterdir()}
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue(), files


# command lines of every kind, argparse's own forms and errors included; each parses alike on both paths
PARSE_CORPUS = [
    ["steady", "--lambda", "2", "--x", "0.3", "--alpha", "0.2"],
    ["steady", "--nu", "1", "--k", "2", "--delta", "1", "--x", "0.3", "--alpha0", "0.1", "--alpha1", "0.4"],
    ["dynamics", "--lambda", "2", "--x", "0.3", "--alpha", "0.5", "--init", "0.01", "--starts", "2", "--seed", "7"],
    ["sweep", "--axis", "alpha", "--lambda", "2", "--x", "0.3", "--steps", "5", "--format", "json"],
    ["optimize", "--objective", "truth-targeted", "--lambda", "2", "--x", "0.3", "--A", "0.25"],
    ["thresholds", "--lambda", "2", "--x", "0.3", "--tol", "1e-12", "--out", ""],
    ["steady", "--lambda", "2E+0", "--x", "3e-1", "--alpha", "2.0e-1"],
    ["steady", "--lambda", "1.7976931348623157e+308", "--x", "5e-324", "--alpha", "1"],
    ["optimize", "--objective", "truth", "--lambda", "2", "--x", "0.3", "--A", "1e999"],
    ["steady", "--lambda", "inf", "--x", "nan", "--alpha", "0.2"],
    ["steady", "--lambda", "2", "--x", "-0.3", "--alpha", "0.2"],
    ["steady", "--lambda", "-inf", "--x", "0.3", "--alpha", "0.2"],
    ["sweep", "--axis", "alpha", "--start", "-0.5", "--lambda", "2", "--x", "0.3"],
    ["dynamics", "--lambda", "2", "--x", "0.3", "--alpha", "0.2", "--starts", "2", "--seed", "-1"],
    ["optimize", "--objective", "truth", "--lambda", "2", "--x", "0.3", "--A", "-1"],
    [], ["-h"], ["--help"], ["--version"], ["steady", "-h"], ["sweep", "--help"], ["thresholds", "-h", "--x", "0.3"],
    ["steady", "--", "--lambda", "2"], ["steady", "--lambda", "2", "--x", "0.3", "--alpha", "0.2", "--"],
    ["--", "steady", "--lambda", "2", "--x", "0.3", "--alpha", "0.2"],
    [""], ["steady", "--x", ""], ["steady", "", "2"], ["steady", "--lambda", "2", "--x", "0.3", "--alpha", "0.2", ""],
    ["steady", "--lambda=2", "--x", "0.3", "--alpha", "0.2"], ["steady", "--lambda=-2", "--x=0.3", "--alpha=0.2"],
    ["steady", "--lam", "2", "--x", "0.3", "--alpha", "0.2"], ["steady", "--lambda", "2", "--x", "0.3", "--alp", "0.2"],
    ["thresholds", "--lambda", "2", "--x", "0.3", "--form", "json"],
    ["steady", "--x", "0.1", "--lambda", "2", "--x", "0.3", "--alpha", "0.2", "--lambda", "3"],
    ["thresholds", "--lambda", "2", "--x", "0.3", "--format", "xml", "--format", "json"],
    ["steady", "--lambda", "2", "--x", "0.3", "--alpha", "0.2", "--axis", "alpha"],
    ["thresholds", "--lambda", "2", "--x", "0.3", "--alpha", "0.2"], ["optimize", "--objective", "truth", "--steps", "3"],
    ["steady", "--lambda", "2", "--x", "0.3", "--alpha"], ["optimize", "--objective"], ["steady"], ["sweep"],
    ["thresholds", "--lambda", "2", "--x", "0.3", "--format", "xml"], ["sweep", "--axis", "beta", "--lambda", "2"],
    ["optimize", "--objective", "best", "--lambda", "2", "--x", "0.3", "--A", "0.2"],
    ["optimize", "--lambda", "2", "--x", "0.3", "--A", "0.2"], ["optimize", "--objective", "truth", "--A", "0.2"],
    ["sweep", "--axis", "x", "--steps", "2.5"], ["steady", "--x", "abc"], ["dynamics", "--seed", "1e3"],
    ["bogus", "--x", "0.3"], ["Steady", "--x", "0.3"], ["steady", "--X", "0.3"], ["steady", "x", "0.3"],
]


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
def test_fast_path_matches_argparse_on_the_corpus(argv):
    assert outcome(argv) == outcome(argv, fast=False)


# lines that argparse alone may read: a form only argparse knows, a value starting with '-', or a parse error
@pytest.mark.parametrize("argv", [
    ["steady", "--lambda=2", "--x", "0.3", "--alpha", "0.2"], ["steady", "--lam", "2", "--x", "0.3", "--alpha", "0.2"],
    ["steady", "--lambda", "2", "--x", "-0.3", "--alpha", "0.2"], ["steady", "-h"], ["steady", "--", "--x", "0.3"],
    ["steady", "--lambda", "2", "--x", "0.3", "--alpha"], ["thresholds", "--lambda", "2", "--x", "0.3", "--alpha", "1"],
    ["thresholds", "--x", "0.3", "--format", "xml"], ["dynamics", "--seed", "1e3"], ["optimize", "--A", "0.2"], [],
], ids=" ".join)
def test_lines_only_argparse_reads_leave_the_fast_path(argv):
    assert cli._fast_parse(argv) is None


@functools.cache
def parser_flags() -> dict[str, list[str]]:
    """subcommand -> its option strings, -h and --help included, walked from argparse's own parser: a view of the
    flags independent of SUBCOMMANDS. The walk reads argparse internals, so it runs when parse_argv draws: an
    argparse that renames them fails test_fast_path_matches_argparse alone, not the collection of this file."""
    subparsers = next(a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: sorted(sub._option_string_actions) for name, sub in subparsers.items()}


VALUES = st.sampled_from(["0.3", "2", "1e-3", "2E+2", "5e-324", "1.7976931348623157e+308", "1e999", "inf", "nan",
                          "-1", "-0.5", "-1e-3", "-inf", "abc", "", "csv", "json", "xml", "beta", "best",
                          *cli.AXES, *OBJECTIVES]) | st.floats().map(repr) | st.integers(-3, 5).map(str)


@st.composite
def parse_argv(draw) -> list[str]:
    """A well-formed line or '--flag value' pairs of one subcommand, then edited by argparse's other forms."""
    flags = parser_flags()
    command = draw(st.sampled_from(list(flags)))
    if draw(st.booleans()):
        argv = draw(cli_argv())
        command = argv[0]
    else:
        pairs = draw(st.lists(st.tuples(st.sampled_from(flags[command]), VALUES), max_size=6))
        argv = [command, *(tok for pair in pairs for tok in pair)]
    flag = st.sampled_from(flags[command])
    noise = st.one_of(
        st.sampled_from(["-h", "--help", "--", "", *(f for names in flags.values() for f in names)]),
        st.builds(lambda f, v: f"{f}={v}", flag, VALUES),
        st.builds(lambda f, n: f[:n], flag, st.integers(3, 6)),  # an abbreviation, or an unknown prefix
        VALUES,
    )
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(noise))
    if len(argv) > 1 and draw(st.booleans()):
        argv.pop()  # the last flag loses its value, or a flag its last pair
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=parse_argv())
def test_fast_path_matches_argparse(argv):
    assert outcome(argv) == outcome(argv, fast=False)


def test_benchmark_commands_never_reach_argparse(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache files next to the benchmark's workloads
    spec = importlib.util.spec_from_file_location("workloads", SRC.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argvs = [[*argv, *fmt] for seed in (1, 2, 3) for build in workloads.WORKLOADS.values() for argv in build(seed)
             for fmt in ([], ["--format", "json"])]
    expected = [list(vars(cli.build_parser().parse_args(argv, cli.RunConfig(command=""))).items()) for argv in argvs]

    calls, seen = [], []
    parse_known_args = argparse.ArgumentParser.parse_known_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        lambda *args, **kwargs: calls.append(args) or parse_known_args(*args, **kwargs))
    for name in cli.COMMANDS:  # only the parse counts here; scripts/output_digest.py checks the outputs
        monkeypatch.setitem(cli.COMMANDS, name, lambda cfg: seen.append(cfg) or 0)
    assert [main(argv) for argv in argvs] == [0] * len(argvs)
    assert calls == []
    assert [list(vars(cfg).items()) for cfg in seen] == expected  # the same fields and values, in the same order
