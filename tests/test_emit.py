"""The column-wise emitter must print the bytes of the row-wise one.

``row_wise_render`` below is the earlier renderer: one dict per row, each
cell formatted with ``cli._fmt``, the config echoed field by field in the
order ``cli.SETTINGS`` declares them. ``reference_table`` rebuilds each
command's rows the way the earlier CLI did, point by point and dict by dict,
from the library: a steady row from ``full_steady_state``, with each sweep
point's parameters built on their own. ``cli.main`` output must equal the
reference byte for byte, in CSV and in JSON.
"""

import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rumor_inspect import Allocation, IntegratorConfig, ModelParams, __version__, cli, full_steady_state
from rumor_inspect.dynamics import integrate, seed_state, verify_global_stability
from rumor_inspect.model import no_rumor_positivity_readings, prevalences
from rumor_inspect.planner import (compute_thresholds, maximize_platform, maximize_truth_targeted,
                                   maximize_truth_uniform, minimize_rumor)

# the library planner of each objective, called at each budget on its own
PLANNERS = {"rumor-min": minimize_rumor, "truth": maximize_truth_uniform, "truth-targeted": maximize_truth_targeted,
            "platform": maximize_platform}


def row_wise_render(header, rows, cfg, summary=None) -> str:
    values = {k: getattr(cfg, k) for k in ["command", *(field for field, *_ in cli.SETTINGS.values())]}
    echo = {k: v for k, v in values.items() if v is not None and k != "out"}
    if cfg.fmt == "json":
        doc = {"tool": "rumor-inspect", "version": __version__, "config": echo, "rows": rows}
        if summary is not None:
            doc["summary"] = summary
        return json.dumps(doc, indent=2, allow_nan=True) + "\n"
    lines = [f"# rumor-inspect {__version__}", "# config: " + json.dumps(echo, sort_keys=True), ",".join(header)]
    lines += [",".join(cli._fmt(row[h]) for h in header) for row in rows]
    if summary is not None:
        lines += [f"# {key}: {cli._fmt(val)}" for key, val in summary.items()]
    return "\n".join(lines) + "\n"


def steady_row(p, a, solver) -> dict:
    ss = full_steady_state(p, a, solver)
    fields = ("theta0", "theta1", "theta", "rho_00_a", "rho_10_a", "rho_00_na", "rho_11_na")
    return {**{f: getattr(ss, f) for f in fields}, "eradicated": ss.theta1 == 0.0}


def reference_table(cfg):
    """(header, rows, summary) of a command, built row by row as dicts."""
    solver = cli._solver_config(cfg)
    if cfg.command == "steady":
        row = steady_row(cli._params(cfg), cli._allocation(cfg), solver)
        return list(row), [row], None
    if cfg.command == "optimize":
        p = cli._params(cfg)
        res = PLANNERS[cfg.objective](p, cfg.A, solver)
        row = {**cli.optimize_record(res, cfg.objective), **cli._threshold_fields(compute_thresholds(p, solver))}
        return list(row), [row], None
    if cfg.command == "thresholds":
        p = cli._params(cfg)
        row = cli._threshold_fields(compute_thresholds(p, solver))
        row["positivity_alpha"], row["positivity_alpha_alt"] = no_rumor_positivity_readings(p)
        return list(row), [row], None
    if cfg.command == "dynamics":
        p, a = cli._params(cfg), cli._allocation(cfg)
        integ = IntegratorConfig(conv_tol=cfg.tol) if cfg.tol is not None else IntegratorConfig()
        traj = integrate(seed_state(p, a, cfg.init), p, a, integ)
        rows = []
        for s in traj.states:
            th0, th1 = prevalences(s, p, a)
            rows.append({"t": s.t, "r00a": s.r00a, "r00na": s.r00na, "r10a": s.r10a, "r11na": s.r11na,
                         "theta0": th0, "theta1": th1})
        summary = {"status": traj.status, "t_final": traj.final.t, "max_rate": traj.max_rate,
                   "steps": traj.n_steps, "rejected_steps": traj.n_rejected}
        if cfg.starts is not None:
            report = verify_global_stability(traj, p, a, integ)
            summary["stability_passed"] = report.passed
            summary["stability_max_gap"] = report.max_gap
        return ["t", "r00a", "r00na", "r10a", "r11na", "theta0", "theta1"], rows, summary
    # sweep
    lo = 0.0 if cfg.start is None else cfg.start
    hi = 1.0 if cfg.stop is None else cfg.stop
    values = np.linspace(lo, hi, cfg.steps).tolist()
    if cfg.axis == "A":
        p = cli._params(cfg)
        planner = PLANNERS[cfg.objective]
        rows = [{"A": v, **cli.optimize_record(planner(p, v, solver), cfg.objective)} for v in values]
        return list(rows[0]), rows, None
    rows = []
    for v in values:
        if cfg.axis == "alpha":
            p, a = cli._params(cfg), Allocation.uniform(v)
        elif cfg.axis == "lambda":
            p, a = ModelParams.from_lambda(v, cfg.x), cli._allocation(cfg)
        else:
            point = copy.copy(cfg)
            point.x = v
            p, a = cli._params(point), cli._allocation(cfg)
        rows.append({cfg.axis: v, **steady_row(p, a, solver)})
    return list(rows[0]), rows, None


COMMANDS = [
    "sweep --axis alpha --lambda 2 --x 0.3 --steps 41",
    "sweep --axis lambda --start 0.5 --stop 6 --x 0.3 --alpha0 0.2 --alpha1 0.4 --steps 41",
    "sweep --axis x --nu 0.5 --k 4 --delta 0.9 --alpha 0.25 --steps 41 --tol 1e-12",
    "sweep --axis A --lambda 2 --x 0.3 --objective truth-targeted --steps 11",
    "sweep --axis A --lambda 3 --x 0.4 --objective rumor-min --steps 11",
    "dynamics --lambda 2 --x 0.3 --alpha 0.2 --starts 3 --seed 7",
    "dynamics --lambda 4 --x 0.2 --alpha0 0.1 --alpha1 0.3 --init 0.2",
    "steady --lambda 2 --x 0.3 --alpha 0.2",
    "steady --lambda 2 --x 0.3 --alpha 1",
    "optimize --objective truth-targeted --lambda 2 --x 0.3 --A 0.28",
    "optimize --objective platform --lambda 1.2 --x 0.3 --A 0.5",
    "thresholds --lambda 2 --x 0.3",
    "thresholds --lambda 2 --x 0.5",
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", COMMANDS)
def test_main_matches_row_wise_render(command, fmt, capsys):
    argv = [*command.split(), "--format", fmt]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    cfg = cli.build_parser().parse_args(argv, cli.RunConfig(command=""))
    header, rows, summary = reference_table(cfg)
    # compared line by line, ends kept: pytest reports the first differing line quickly
    assert out.splitlines(keepends=True) == row_wise_render(header, rows, cfg, summary).splitlines(keepends=True)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_formats_mixed_columns_like_fmt(fmt, capsys):
    shared = [0.1, 1e-300, float("inf")]
    columns = [
        [None, True, "targeted", 7, 0.25],
        [np.float64(0.1), np.float64(2.5), np.float64(1e-17), np.float64(0.0), np.float64(-3.0)],
        [False, False, True, None, False],
        shared + [float("nan"), -0.0],
        shared + [float("nan"), -0.0],
        [True, False, False, True, True],
    ]
    columns[4] = columns[3]  # the same list object twice, as rho_00_a and rho_10_a are
    header = ["mixed", "np", "flag", "shared_a", "shared_b", "bools"]
    cfg = cli.RunConfig(command="steady", fmt=fmt)
    text = cli.emit(header, columns, cfg, summary={"status": "converged", "gap": np.float64(1e-9)})
    assert capsys.readouterr().out == text
    rows = [dict(zip(header, r)) for r in zip(*columns)]
    assert text == row_wise_render(header, rows, cfg, summary={"status": "converged", "gap": np.float64(1e-9)})
    if fmt == "csv":
        # np.float64 cells print as plain numbers
        assert text.splitlines()[3] == ",0.1,false,0.1,0.1,true"
        assert text.splitlines()[-1] == "# gap: 1e-09"


# a cell of any kind the CLI writes: None, bools, ints, floats with nan and +-inf, np.float64 and strings
any_cells = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20), st.floats(),
                      st.floats().map(np.float64), st.text())
# columns of floats alone and of bools alone take _fmt_column's one-pass paths; the other columns go cell by cell
column_kinds = st.sampled_from([st.floats(), st.floats(allow_nan=False, allow_infinity=False), st.booleans(),
                                any_cells])


@st.composite
def tables(draw):
    """(header, columns, summary): 1 to 5 rows, some column given twice as the same object, a summary or none.

    Cells are copied between float columns at random rows, as a rumor-free sweep row repeats theta0 and rho_00_na,
    or a zero goes in one column and the zero of the other sign in the other, as -0.0 in the row of an earlier
    column's 0.0; and a column of floats or of bools is sometimes given as a numpy array, as a steady sweep gives
    its columns.
    """
    n_rows = draw(st.sampled_from([1, 2, 3, 4, 5]))  # one row takes emit's one-pass path, more its column path
    kinds = draw(st.lists(column_kinds, min_size=1, max_size=6))
    columns = [draw(st.lists(kind, min_size=n_rows, max_size=n_rows)) for kind in kinds]
    floats = [col for col in columns if {*map(type, col)} == {float}]
    for _ in range(draw(st.integers(0, 2 * n_rows)) if len(floats) > 1 else 0):
        row, src, dst = draw(st.integers(0, n_rows - 1)), draw(st.sampled_from(floats)), draw(st.sampled_from(floats))
        if draw(st.booleans()):
            src[row] = draw(st.sampled_from([0.0, -0.0]))
            dst[row] = -src[row]
        else:
            dst[row] = src[row]
    columns = [np.array(col) if {*map(type, col)} in ({float}, {bool}) and draw(st.booleans()) else col
               for col in columns]
    if draw(st.booleans()):
        columns.append(columns[draw(st.integers(0, len(columns) - 1))])  # as rho_00_a and rho_10_a share one list
    header = [f"c{i}" for i in range(len(columns))]
    summary = draw(st.none() | st.dictionaries(st.sampled_from(["status", "gap", "steps", "passed"]), any_cells))
    return header, columns, summary


@pytest.mark.parametrize("fmt", ["csv", "json"])
@settings(max_examples=300, deadline=None)
@given(table=tables())
@example(table=(["mode", "gap", "hi", "lo", "flag"], [["targeted"], [None], [float("nan")], [float("-inf")], [True]],
                {"status": "horizon", "gap": float("inf")}))
@example(table=(["t", "x", "mode"], [[0.5, float("inf"), 1.0], [np.float64(0.1), None, 3], ["a", "", "nan"]], None))
# array columns: -0.0 in the row of an earlier column's 0.0 keeps its sign, a copied NaN, and inf (Infinity in JSON)
@example(table=(["a", "b", "c"], [np.array([0.0, 0.5, -0.0]), np.array([-0.0, 0.5, 0.0]), np.array([-0.0] * 3)], None))
@example(table=(["a", "b", "flag"], [np.array([float("nan"), 1.0]), np.array([float("nan"), 2.0]),
                                     np.array([True, False])], None))
@example(table=(["a", "b"], [np.array([1.5, float("inf")]), np.array([1.5, float("-inf")])], None))
def test_emit_matches_the_reference_on_any_table(fmt, table):
    # the one-row path and the column path both write json.dumps's document and the row-wise CSV; an array column
    # prints as its list of floats or bools (.tolist()), never as numpy scalars (_fmt(np.True_) is "True")
    header, columns, summary = table
    cfg = cli.RunConfig(command="steady", fmt=fmt)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        text = cli.emit(header, columns, cfg, summary=summary)
    assert out.getvalue() == text
    # as JSON, the reference is json.dumps(doc, indent=2, allow_nan=True) + "\n" of the document of dicts
    cells = [col.tolist() if isinstance(col, np.ndarray) else col for col in columns]
    assert text == row_wise_render(header, [dict(zip(header, row)) for row in zip(*cells)], cfg, summary)
