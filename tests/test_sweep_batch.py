"""Steady sweeps are solved as one batch; each row must equal the point solved alone.

Rows of ``sweep --axis alpha|lambda|x`` are compared with per-point
``full_steady_state`` bit for bit (floats compared by ``float.hex``), and a
sweep that fails must fail like the first failing point does. The parser is
built once per process, so repeated ``main`` calls in one process must give
the bytes that fresh interpreters give.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rumor_inspect import Allocation, ModelParams, SolverConfig, SolverError, cli, full_steady_state, model
from rumor_inspect.cli import STEADY_FIELDS, RunConfig, float_grid, main, sweep_records

SRC = Path(__file__).resolve().parent.parent / "src"

FIELDS = STEADY_FIELDS[:-1]  # all but "eradicated", a comparison
TOLS = st.sampled_from([None, 1e-6, 1e-9, 1e-14])


def per_point_rows(cfg: RunConfig, solver: SolverConfig) -> list[dict]:
    """The rows of a steady sweep, each point built and solved on its own."""
    rows = []
    for v in np.linspace(cfg.start, cfg.stop, cfg.steps).tolist():
        if cfg.axis == "alpha":
            lam, x, a = cfg.lam, cfg.x, Allocation.uniform(v)
        else:
            lam = v if cfg.axis == "lambda" else cfg.lam
            x = v if cfg.axis == "x" else cfg.x
            a = Allocation.uniform(cfg.alpha) if cfg.alpha is not None else Allocation.targeted(cfg.alpha0, cfg.alpha1)
        if lam is None:
            p = ModelParams(cfg.nu, cfg.k, cfg.delta, x)
        else:
            p = ModelParams.from_lambda(lam, x)
        ss = full_steady_state(p, a, solver)
        rows.append({cfg.axis: v, **{f: getattr(ss, f) for f in FIELDS}, "eradicated": ss.theta1 == 0.0})
    return rows


def assert_rows_equal(cfg: RunConfig) -> None:
    solver = cli._solver_config(cfg)
    header, cols = sweep_records(cfg, solver)
    assert header == [cfg.axis, *STEADY_FIELDS]
    # the batch hands emit numpy arrays; test_emit's sweeps check that they print as the floats and bools below
    assert [col.dtype for col in cols] == [np.float64] * (1 + len(FIELDS)) + [np.bool_]  # the grid, fields, eradicated
    rows = [dict(zip(header, r)) for r in zip(*(col.tolist() for col in cols))]
    expected = per_point_rows(cfg, solver)
    assert len(rows) == len(expected) == cfg.steps
    for got, want in zip(rows, expected):
        assert list(got) == header
        for key in header:
            if key == "eradicated":
                assert got[key] is want[key]
            else:
                assert float.hex(got[key]) == want[key].hex(), (key, got, want)


def rates_or_lambda(draw, lam: float) -> dict:
    """--lambda, or an equivalent --nu/--k/--delta triple."""
    if draw(st.booleans()):
        return {"lam": lam}
    delta = draw(st.floats(0.1, 2.0))
    k = float(draw(st.integers(1, 10)))
    return {"nu": lam * delta / k, "k": k, "delta": delta}


def allocation(draw) -> dict:
    if draw(st.booleans()):
        return {"alpha": draw(st.floats(0.0, 1.0))}
    return {"alpha0": draw(st.floats(0.0, 1.0)), "alpha1": draw(st.floats(0.0, 1.0))}


@st.composite
def alpha_sweeps(draw):
    lam = draw(st.floats(0.2, 8.0))
    x = draw(st.floats(0.0, 1.0))
    # a range around the eradication threshold, where one exists
    thr = max(0.0, 1.0 - 1.0 / (lam * (1.0 - x))) if x < 1.0 else 0.0
    lo = max(0.0, thr - draw(st.floats(0.0, 1.0)))
    hi = min(1.0, thr + draw(st.floats(1e-3, 1.0)))
    return RunConfig(command="sweep", axis="alpha", x=x, start=lo, stop=hi,
                     steps=draw(st.integers(2, 60)), tol=draw(TOLS), **rates_or_lambda(draw, lam))


@st.composite
def lambda_sweeps(draw):
    x = draw(st.floats(0.0, 0.95))
    alloc = allocation(draw)
    a1 = alloc.get("alpha1", alloc.get("alpha"))
    # the rumor is endemic above lam = 1/((1-x)(1-alpha1)) >= 1; the range spans it and lam below 1
    crit = 1.0 / ((1.0 - x) * (1.0 - min(a1, 0.95)))
    lo = crit * draw(st.floats(0.01, 0.99))
    hi = crit * draw(st.floats(1.01, 20.0))
    return RunConfig(command="sweep", axis="lambda", x=x, start=lo, stop=hi,
                     steps=draw(st.integers(2, 60)), tol=draw(TOLS), **alloc)


@st.composite
def x_sweeps(draw):
    lam = draw(st.floats(0.2, 8.0))
    if draw(st.booleans()):
        lo, hi = 0.0, 1.0  # both ends, and the threshold 1 - 1/(lam(1-alpha1)) wherever it lies in between
    else:
        lo, hi = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True)))
    return RunConfig(command="sweep", axis="x", start=lo, stop=hi, steps=draw(st.integers(2, 60)),
                     tol=draw(TOLS), **allocation(draw), **rates_or_lambda(draw, lam))


@settings(max_examples=60, deadline=None)
@given(cfg=alpha_sweeps())
@example(cfg=RunConfig(command="sweep", axis="alpha", lam=2.0, x=0.3, start=0.0, stop=1.0, steps=101))
def test_alpha_sweep_rows_equal_single_solves(cfg):
    assert_rows_equal(cfg)


@settings(max_examples=60, deadline=None)
@given(cfg=lambda_sweeps())
@example(cfg=RunConfig(command="sweep", axis="lambda", x=0.3, alpha0=0.2, alpha1=0.1, start=0.5, stop=6.0,
                       steps=101, tol=1e-9))
def test_lambda_sweep_rows_equal_single_solves(cfg):
    assert_rows_equal(cfg)


@settings(max_examples=60, deadline=None)
@given(cfg=x_sweeps())
@example(cfg=RunConfig(command="sweep", axis="x", nu=1.2, k=3.0, delta=0.9, alpha=0.2, start=0.0, stop=1.0,
                       steps=101))
def test_x_sweep_rows_equal_single_solves(cfg):
    assert_rows_equal(cfg)


def test_sweep_at_the_edges_of_lambda(capsys):
    # a subnormal start derives a lam unequal to the swept value, and lam up
    # to the largest float overflows nothing that per-point solves keep finite
    for start, stop in ((1e-320, 1.0), (1.0, 1.7976931348623157e308)):
        cfg = RunConfig(command="sweep", axis="lambda", x=0.3, alpha0=0.2, alpha1=0.9, start=start, stop=stop, steps=5)
        assert_rows_equal(cfg)
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# error parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "args, message",
    [
        (["--axis", "lambda", "--start", "1", "--stop", "inf", "--x", "0.3", "--alpha", "0.2", "--steps", "5"],
         "--stop must be finite, got inf"),
        (["--axis", "lambda", "--start", "5e-324", "--stop", "1", "--x", "0.3", "--alpha", "0.2", "--steps", "5"],
         "lam must have an exact half nu = lam / 2, got 5e-324"),
        (["--axis", "lambda", "--start", "1", "--stop", "2", "--lambda", "2", "--x", "0.3", "--alpha", "0.2"],
         "the swept diffusion rate cannot also be fixed on the command line"),
        (["--axis", "x", "--nu", "1", "--k", "1", "--delta", "0", "--alpha", "0.2", "--steps", "5"],
         "nu, k, delta must be finite and strictly positive, got (1.0, 1.0, 0.0)"),
        (["--axis", "x", "--nu", "1e300", "--k", "1e300", "--delta", "1", "--alpha", "0.2", "--steps", "5"],
         "lam = nu * k / delta must be finite and strictly positive, got inf"),
        (["--axis", "x", "--lambda", "2", "--alpha0", "0.2", "--steps", "5"],
         "allocation missing: give --alpha or both --alpha0 and --alpha1"),
        (["--axis", "alpha", "--lambda", "2", "--x", "0.3", "--alpha", "0.2"],
         "allocation flags are not allowed when sweeping alpha"),
        (["--axis", "A", "--stop", "inf", "--objective", "truth", "--lambda", "2", "--x", "0.3", "--steps", "5"],
         "--stop must be finite, got inf"),
        (["--axis", "alpha", "--start", "nan", "--lambda", "2", "--x", "0.3", "--steps", "5"],
         "--start must be finite, got nan"),
        # the span overflows: numpy's grid would start at nan, so the ends are checked before it is built
        (["--axis", "lambda", "--start=-1.7e308", "--stop", "1.7e308", "--x", "0.3", "--alpha", "0.2", "--steps", "5"],
         "lam must be strictly positive, got -1.7e+308"),
        (["--axis", "A", "--start=-1.7e308", "--stop", "1.7e308", "--objective", "truth", "--lambda", "2", "--x", "0.3",
          "--steps", "5"],
         "budget must be >= 0, got -1.7e+308"),
    ],
)
def test_invalid_sweep_exits_2_like_the_first_point(capsys, args, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", *args]) == 2
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


SOLVER_SWEEPS = [
    ["--axis", "lambda", "--start", "1", "--stop", "300", "--x", "0.1", "--alpha", "0.15", "--steps", "50"],
    ["--axis", "alpha", "--start", "0", "--stop", "1", "--lambda", "183.5", "--x", "0.1", "--steps", "200"],
    ["--axis", "x", "--start", "0", "--stop", "1", "--lambda", "2.5", "--alpha0", "0.5", "--alpha1", "0.5",
     "--steps", "300"],
]


@pytest.mark.parametrize("args", SOLVER_SWEEPS)
def test_solver_failure_exits_3_like_the_first_failing_point(monkeypatch, capsys, args):
    # two Newton iterations settle no endemic point
    monkeypatch.setattr(model, "MAX_ITER", 2)
    argv = ["sweep", *args]
    cfg = cli.build_parser().parse_args(argv, cli.RunConfig(command=""))
    with pytest.raises(SolverError) as first:
        per_point_rows(cfg, cli._solver_config(cfg))
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"numerical failure: {first.value}\n"


@pytest.mark.parametrize("args", SOLVER_SWEEPS)
def test_sweep_at_the_smallest_tolerance_settles(capsys, args):
    # at tol = 5e-324 Newton ends on a bracket of two adjacent floats, which
    # counts as converged
    argv = ["sweep", *args, "--tol", "5e-324"]
    assert_rows_equal(cli.build_parser().parse_args(argv, cli.RunConfig(command="")))
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# the parser, built once per process
# ---------------------------------------------------------------------------

RERUNS = [
    ["steady", "--lambda", "2", "--x", "0.3", "--alpha", "0.2"],
    ["sweep", "--axis", "x", "--nu", "1", "--k", "1", "--delta", "0", "--alpha", "0.2"],
    ["sweep", "--axis", "alpha", "--lambda", "2", "--x", "0.3", "--steps", "7"],
    ["sweep", "--axis", "wrong", "--lambda", "2", "--x", "0.3"],
    ["steady", "--lambda", "2", "--x", "0.3"],
    ["sweep", "--axis", "lambda", "--start", "0.5", "--stop", "4", "--x", "0.3", "--alpha0", "0.1",
     "--alpha1", "0.4", "--steps", "9", "--format", "json"],
    ["optimize", "--objective", "truth", "--lambda", "2", "--x", "0.3", "--A", "-1"],
    ["thresholds", "--lambda", "2", "--x", "0.3"],
    ["steady", "--lambda", "2", "--x", "0.3", "--alpha", "0.2"],
    # forms that argparse alone reads
    ["steady", "--lambda=2", "--x", "0.3", "--alpha", "0.2"],
    ["steady", "--lam", "2", "--x", "0.3", "--alpha", "0.2"],
    ["sweep", "--axis", "alpha", "--start", "-0.5", "--lambda", "2", "--x", "0.3"],
    ["steady", "-h"],
    ["steady", "--lambda", "2", "--x", "0.3", "--alpha"],
]


def test_parser_is_built_once(capsys):
    cli.build_parser.cache_clear()
    misses = []
    for argv in (RERUNS[0], RERUNS[3], RERUNS[0]):  # a well-formed line, one that argparse reads, then the first again
        main(argv)
        misses.append(cli.build_parser.cache_info().misses)
    capsys.readouterr()
    assert misses == [0, 1, 1]  # only a line that the tables decline builds the parser, and only once
    assert cli.build_parser() is cli.build_parser()


def test_repeated_main_matches_fresh_processes(monkeypatch, capsys):
    # usage lines wrap at the terminal width, so both sides get the same one
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(SRC))
    for argv in RERUNS:
        code = main(list(argv))
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "rumor_inspect.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


MAX = sys.float_info.max
# ends a few subnormals from 0, whose span over the steps underflows to a step of 0, or any finite floats
TINY = st.integers(-40, 40).map(lambda k: k * 5e-324)


@settings(max_examples=500, deadline=None)
@given(ends=st.tuples(TINY, TINY) | st.tuples(st.floats(-MAX, MAX), st.floats(-MAX, MAX)), steps=st.integers(2, 64))
@example(ends=(0.0, 5e-324), steps=3)
@example(ends=(0.0, MAX), steps=4)
@example(ends=(-MAX / 2.0, MAX / 2.0), steps=11)
def test_float_grid_matches_linspace(ends, steps):
    # a budget sweep's grid takes np.linspace's arithmetic on floats: the same points, bit for bit, at spans whose
    # step underflows to 0 and at spans up to the float maximum
    lo, hi = sorted(ends)
    assume(lo < hi and math.isfinite(hi - lo))
    with np.errstate(over="ignore"):  # as in sweep_records: near the float maximum linspace overflows inside
        want = np.linspace(lo, hi, steps).tolist()
    assert [v.hex() for v in float_grid(lo, hi, steps)] == [v.hex() for v in want]
