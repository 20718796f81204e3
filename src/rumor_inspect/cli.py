"""Command-line front end: steady states, trajectories, sweeps, optimization.

Subcommands: steady | dynamics | sweep | optimize | thresholds. Output is
delimited text (comma) with '#'-prefixed metadata lines ahead of the header,
or JSON with field names identical to the CSV columns. Every float is
emitted with full round-trip precision, and a given config (including the
seed) always produces byte-identical output.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.

Importing this module loads the package's model alone. The planner loads for optimize, thresholds and a budget
sweep, and the dynamics for dynamics, each when its command runs; only the alpha, lambda and x sweeps load numpy.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import types

from . import __version__
from .model import (
    DEFAULT_SEED_LEVEL,
    Allocation,
    IntegratorError,
    ModelParams,
    ParameterError,
    SolverConfig,
    SolverError,
    _FloatOps,
    _recompose,
    _steady_fields,
    no_rumor_positivity_readings,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# objective -> the CLI's mode column: the planners with one shared rate report "uniform". planner.Planner
# dispatches each objective to its planner at one point, and optimize reads its thresholds off the same Planner
MODES = {"rumor-min": "uniform", "truth": "uniform", "truth-targeted": "targeted", "platform": "uniform"}
OBJECTIVES = tuple(MODES)
AXES = ("alpha", "lambda", "x", "A")


class ConfigError(ValueError):
    """The command line describes an invalid or inconsistent run."""


# flag -> (its RunConfig field, its type or the tuple of its choices, its default, its help), in field order,
# which is the config echo's order
SETTINGS = {
    "--lambda": ("lam", float, None, "diffusion rate nu*k/delta"),
    "--nu": ("nu", float, None, "per-contact transmission rate"),
    "--k": ("k", float, None, "meetings per period"),
    "--delta": ("delta", float, None, "death/replacement rate"),
    "--x": ("x", float, None, "mass of truth-biased agents"),
    "--alpha": ("alpha", float, None, "uniform inspection rate"),
    "--alpha0": ("alpha0", float, None, "inspection rate of truth-biased agents"),
    "--alpha1": ("alpha1", float, None, "inspection rate of rumor-biased agents"),
    "--A": ("A", float, None, None),
    "--objective": ("objective", OBJECTIVES, None, "the planner's objective; a sweep reads it only on --axis A"),
    "--axis": ("axis", AXES, None, None),
    "--start": ("start", float, None, None),
    "--stop": ("stop", float, None, None),
    "--steps": ("steps", int, 101, None),
    "--starts": ("starts", int, None, "certify the printed run by the corners of a box that holds its start; a corner "
                 "equal to that start is the run, not integrated again (N >= 2 no longer changes it)"),
    "--init": ("init", float, DEFAULT_SEED_LEVEL, "initial believing fraction per group"),
    "--seed": ("seed", int, 0, "non-negative; no longer changes the stability check"),
    "--format": ("fmt", ("csv", "json"), "csv", None),
    "--out": ("out", str, None, None),
    "--tol": ("tol", float, None, None),
}
_COMMON = ("--lambda", "--nu", "--k", "--delta", "--x", "--format", "--out", "--tol")
_ALLOC = ("--alpha", "--alpha0", "--alpha1")
# subcommand -> (its flags in help order, its required flags)
SUBCOMMANDS = {
    "steady": (_COMMON + _ALLOC, ()),
    "dynamics": (_COMMON + _ALLOC + ("--starts", "--seed", "--init"), ()),
    "sweep": (_COMMON + _ALLOC + ("--axis", "--start", "--stop", "--steps", "--objective"), ("--axis",)),
    "optimize": (_COMMON + ("--objective", "--A"), ("--objective", "--A")),
    "thresholds": (_COMMON, ()),
}
_DEFAULTS = {"command": "", **{field: default for field, _, default, _ in SETTINGS.values()}}  # in echo order


class RunConfig(types.SimpleNamespace):
    """The parsed command line: the subcommand, then every SETTINGS field in echo order, each at its default
    unless given. command defaults to "" so that copy.copy, which calls the class bare, can rebuild one."""

    def __init__(self, command: str = "", **settings):
        if not settings.keys() <= _DEFAULTS.keys():
            raise TypeError(f"RunConfig has no field {', '.join(sorted(settings.keys() - _DEFAULTS.keys()))}")
        vars(self).update(_DEFAULTS, command=command, **settings)


@functools.cache
def build_parser():
    """argparse's parser of SETTINGS and SUBCOMMANDS, for the lines _fast_parse declines: argparse writes every
    help, usage and parse error. Built on the first call and then shared: it keeps no state between parses."""
    import argparse  # a well-formed line never loads it

    parser = argparse.ArgumentParser(
        prog="rumor-inspect",
        description="Steady states, dynamics, and budgeted inspection planning "
        "for the two-message diffusion model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (flags, required) in SUBCOMMANDS.items():
        # no flag has a default here, so a flag that was not passed leaves its RunConfig field as it is
        command = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for flag in flags:
            field, kind, _, text = SETTINGS[flag]
            command.add_argument(flag, dest=field, required=flag in required, help=text,
                                 **{"choices" if isinstance(kind, tuple) else "type": kind})
    return parser


def _fast_parse(argv: list[str]) -> RunConfig | None:
    """The RunConfig that build_parser would parse from a line of exact '--flag value' pairs of its subcommand,
    with every required flag and no value starting with '-'; None for any other line (-h, --flag=value, an
    abbreviation, a negative value, a parse error), which goes to argparse."""
    if len(argv) % 2 == 0 or argv[0] not in SUBCOMMANDS:
        return None
    (flags, required), given = SUBCOMMANDS[argv[0]], argv[1::2]
    if not {*flags}.issuperset(given) or not {*given}.issuperset(required):
        return None
    cfg = RunConfig(argv[0])
    for flag, text in zip(given, argv[2::2]):
        field, kind, _, _ = SETTINGS[flag]
        if text.startswith("-") or isinstance(kind, tuple) and text not in kind:
            return None
        try:
            setattr(cfg, field, text if isinstance(kind, tuple) else kind(text))  # the last of a repeated flag wins
        except ValueError:
            return None
    return cfg


def _solver_config(cfg: RunConfig) -> SolverConfig:
    return SolverConfig(tol=cfg.tol) if cfg.tol is not None else SolverConfig()


def _params(cfg: RunConfig) -> ModelParams:
    if cfg.x is None:
        raise ConfigError("--x is required")
    rates = (cfg.nu, cfg.k, cfg.delta)
    if cfg.lam is not None:
        if any(r is not None for r in rates):
            raise ConfigError("give either --lambda or the full --nu/--k/--delta triple, not both")
        return ModelParams.from_lambda(cfg.lam, cfg.x)
    if all(r is not None for r in rates):
        return ModelParams(cfg.nu, cfg.k, cfg.delta, cfg.x)
    raise ConfigError("model parameters missing: give --lambda or all of --nu/--k/--delta")


def _allocation(cfg: RunConfig) -> Allocation:
    if cfg.alpha is not None:
        if cfg.alpha0 is not None or cfg.alpha1 is not None:
            raise ConfigError("give either --alpha or --alpha0/--alpha1, not both")
        return Allocation.uniform(cfg.alpha)
    if cfg.alpha0 is not None and cfg.alpha1 is not None:
        return Allocation.targeted(cfg.alpha0, cfg.alpha1)
    raise ConfigError("allocation missing: give --alpha or both --alpha0 and --alpha1")


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

STEADY_FIELDS = ("theta0", "theta1", "theta", "rho_00_a", "rho_10_a", "rho_00_na", "rho_11_na", "eradicated")


def steady_columns(lam, x, a0, a1, solver: SolverConfig, ops=_FloatOps) -> list:
    """The STEADY_FIELDS columns at the diffusion rate lam, the mass x and the rates a0, a1: lists of one row of
    floats and a bool, or with numpy arrays and numpy as ops, arrays of a batch equal row by row to the float solves.

    A rumor-free row has theta1 = 0.0, so theta and rho_a carry theta0's and rho_00_na's bits: emit writes them once.
    """
    theta0, theta1, theta, rho_a, rho_00_na, rho_11_na = _steady_fields(lam, x, a0, a1, solver, ops)
    columns = [theta0, theta1, theta, rho_a, rho_a, rho_00_na, rho_11_na, theta1 == 0.0]
    return [[v] for v in columns] if ops is _FloatOps else columns


def optimize_record(res, objective: str) -> dict:
    a = res.allocation
    return {"mode": MODES[objective], "alpha0": a.alpha0, "alpha1": a.alpha1, "objective": res.objective,
            "budget_spent": res.budget_spent, "slack": res.slack, "rumor_eradicated": res.rumor_eradicated}


def float_grid(lo: float, hi: float, steps: int) -> list[float]:
    """np.linspace(lo, hi, steps), steps >= 2, on floats by its arithmetic: i*step + lo, or i/(steps-1)*(hi-lo) + lo
    where the step underflows to 0, then hi. A count past the list's limit fails before any point is computed."""
    grid, div, step = [hi] * steps, steps - 1, (hi - lo) / (steps - 1)
    grid[:div] = [i * step + lo for i in range(div)] if step else [i / div * (hi - lo) + lo for i in range(div)]
    return grid


def sweep_records(cfg: RunConfig, solver: SolverConfig) -> tuple[list[str], list]:
    """The header and the columns of a sweep: the swept values, then one column per field.

    The domain checks are monotone in the swept value along every axis, and the grid has --start and --stop as its
    exact ends, so they are checked before the grid: a failing sweep reports its first point's error. A budget sweep
    runs on floats (float_grid). Only the alpha, lambda and x sweeps load numpy, to solve their grid as one batch,
    which reports its first failing entry; emit writes a cell of those arrays that repeats +0.0 or its row once.
    """
    axis = cfg.axis
    if (cfg.objective is None) == (axis == "A"):
        raise ConfigError("--objective is required when sweeping the budget, and read by no other axis")
    lo, hi = cfg.start, cfg.stop
    if axis in ("alpha", "x", "A"):
        lo = 0.0 if lo is None else lo
        hi = 1.0 if hi is None else hi
    if lo is None or hi is None:
        raise ConfigError(f"--start and --stop are required for axis {axis!r}")
    for flag, v in (("--start", lo), ("--stop", hi)):
        if not math.isfinite(v):
            raise ConfigError(f"{flag} must be finite, got {v}")
    if cfg.steps < 2:
        raise ConfigError(f"sweep needs at least 2 steps, got {cfg.steps}")
    if not lo < hi:
        raise ConfigError(f"--start must be below --stop, got [{lo}, {hi}]")
    if axis in ("alpha", "x") and not (0.0 <= lo and hi <= 1.0):
        raise ConfigError(f"{axis} sweep range must stay inside [0, 1], got [{lo}, {hi}]")
    if axis == "lambda" and any(v is not None for v in (cfg.lam, cfg.nu, cfg.k, cfg.delta)):
        raise ConfigError("the swept diffusion rate cannot also be fixed on the command line")
    if axis == "x" and cfg.x is not None:
        raise ConfigError("the swept x cannot also be fixed on the command line")
    if axis in ("alpha", "A") and any(v is not None for v in (cfg.alpha, cfg.alpha0, cfg.alpha1)):
        swept = "alpha" if axis == "alpha" else "the budget"
        raise ConfigError(f"allocation flags are not allowed when sweeping {swept}")
    if axis == "A":
        from .planner import Planner, _total

        planner = Planner(_params(cfg), solver)
        _total(lo), _total(hi)
    else:  # the point at each end; the first one's params and allocation hold the batch's fixed values
        field = "lam" if axis == "lambda" else axis
        (p, a), _ = [(_params(end), _allocation(end)) for end in (RunConfig(**{**vars(cfg), field: v}) for v in (lo, hi))]
    try:
        if axis == "A":
            grid = float_grid(lo, hi, cfg.steps)
        else:
            import numpy as np  # the batch solve needs arrays, so a budget sweep starts without numpy
            with np.errstate(over="ignore"):  # a span near the float maximum overflows inside; the ends come back exact
                grid = np.linspace(lo, hi, cfg.steps)
    except (ValueError, MemoryError, IndexError, OverflowError) as exc:
        # a count past numpy's size limit or a list's, or one numpy cannot allocate; near 2**63 its arange is empty
        raise ConfigError(f"cannot build a sweep grid of {cfg.steps} steps: {str(exc) or 'out of memory'}") from exc

    if axis == "A":  # one optimization per budget, each read off the point's one Planner
        results = [planner.optimum(cfg.objective, v) for v in grid]
        allocations, *fields = zip(*results)  # in optimize_record's order, after its mode
        return (["A", *optimize_record(results[0], cfg.objective)],
                [grid, [MODES[cfg.objective]] * len(grid), *zip(*allocations), *fields])
    lam, x, a0, a1 = p.lam, p.x, a.alpha0, a.alpha1
    if axis == "alpha":
        a0 = a1 = grid
    elif axis == "lambda":
        lam = grid  # from_lambda gives back each value it accepts; at the subnormals it refuses every field is 0
    else:
        x = grid
    with np.errstate(all="ignore"):  # float arithmetic overflows to inf silently; so does the batch
        columns = steady_columns(lam, x, a0, a1, solver, np)
    return ([axis, *STEADY_FIELDS], [grid, *columns])


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

_encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps's spelling of a value, from one encoder for every call


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return float.__repr__(v)  # a float subclass too: np.float64(0.1) prints as 0.1
    return str(v)


def _fmt_column(col, fmt: str) -> list[str]:
    # a column of exact finite floats (no bool, None or float subclass), or of bools alone, needs no per-cell
    # dispatch and is the same in both formats; in any other, a JSON cell differs from _fmt's (null, NaN,
    # Infinity and quoted strings), and _encode writes it as json.dumps does
    kinds = {*map(type, col)}
    if kinds == {float} and (fmt == "csv" or math.isfinite(sum(col))):  # a finite sum: no nan or inf
        return list(map(float.__repr__, col))
    if kinds == {bool}:
        return ["true" if v else "false" for v in col]
    return list(map(_fmt if fmt == "csv" else _encode, col))


def _fmt_array(col, fmt: str, seen: list) -> list[str]:
    # a float64 cell whose bits (not ==, which counts -0.0 as 0.0) equal +0.0's or its row's cell's in a column of
    # seen, the (bits, texts) formatted so far, takes that text. Other arrays, and JSON's NaN or inf, go as lists
    import numpy as np  # an array column means numpy is loaded
    if col.dtype != np.float64 or fmt == "json" and not np.isfinite(col).all():
        return _fmt_column(col.tolist(), fmt)
    bits, text = col.view(np.int64), np.empty(len(col), object)
    text[bits == 0], todo = "0.0", bits != 0
    for done, written in seen:
        same = todo & (bits == done)
        text[same], todo = written[same], todo & ~same
    text[todo] = [*map(float.__repr__, col[todo].tolist())]
    seen.append((bits, text))
    return text.tolist()


def emit(header: list[str], columns: list, cfg: RunConfig, summary: dict | None = None) -> str:
    """Write the table given column by column (columns[i] holds header[i]'s cells), as CSV or JSON.

    A table of one row given as lists is formatted in one pass over its cells. Any other is formatted column by
    column, and a column that appears twice as the same object is formatted once: a list by _fmt_column, an array
    by _fmt_array, which writes a float64 cell whose bits repeat +0.0 or an earlier array's cell in its row with
    that cell's text (a steady sweep's rumor-free rows repeat theta0 and rho_00_na). Each JSON row is written
    through one %-template in the indent=2 layout of json.dumps, which writes the head and summary.
    """
    echo = {k: v for k, v in vars(cfg).items() if v is not None and k != "out"}  # in field order, defaults included
    if len(columns[0]) == 1 and not any(hasattr(col, "dtype") for col in columns):
        rows = [tuple(map(_fmt if cfg.fmt == "csv" else _encode, next(zip(*columns))))]
    else:
        seen, formatted = [], {id(col): col for col in columns}  # a column given twice, one object, is formatted once
        formatted = {key: _fmt_array(col, cfg.fmt, seen) if hasattr(col, "dtype") else _fmt_column(col, cfg.fmt)
                     for key, col in formatted.items()}
        rows = zip(*map(formatted.__getitem__, map(id, columns)))
    if cfg.fmt == "json":
        doc = {"tool": "rumor-inspect", "version": __version__, "config": echo, "rows": []}
        if summary is not None:
            doc["summary"] = summary
        template = "    {\n      " + ": %s,\n      ".join(map(_encode, header)) + ": %s\n    }"  # a %s per name
        body = ",\n".join(map(template.__mod__, rows))
        # a line that opens with two spaces and "rows" is the document's own key: no JSON string holds a newline
        text = json.dumps(doc, indent=2).replace('\n  "rows": []', f'\n  "rows": [\n{body}\n  ]', 1) + "\n"
    else:
        lines = [f"# rumor-inspect {__version__}\n# config: {_encode(echo)}\n{','.join(header)}",
                 *map(",".join, rows), *(f"# {key}: {_fmt(val)}" for key, val in (summary or {}).items())]
        text = "\n".join(lines) + "\n"

    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {cfg.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return text


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def run_steady(cfg: RunConfig) -> int:
    solver = _solver_config(cfg)
    p = _params(cfg)
    a = _allocation(cfg)
    emit(list(STEADY_FIELDS), steady_columns(p.lam, p.x, a.alpha0, a.alpha1, solver), cfg)
    return EXIT_OK


def run_sweep(cfg: RunConfig) -> int:
    solver = _solver_config(cfg)
    emit(*sweep_records(cfg, solver), cfg)
    return EXIT_OK


def run_optimize(cfg: RunConfig) -> int:
    from .planner import Planner

    solver = _solver_config(cfg)
    planner = Planner(_params(cfg), solver)  # the thresholds reuse the curves the optimum analysed
    row = {**optimize_record(planner.optimum(cfg.objective, cfg.A), cfg.objective),
           **_threshold_fields(planner.thresholds())}
    emit(list(row), [[v] for v in row.values()], cfg)
    return EXIT_OK


def _threshold_fields(thr) -> dict:
    lo, hi = thr.eradication_interval or (None, None)
    return {"alpha_prime": thr.alpha_prime, "lambda_bar": thr.lambda_bar, "interval_lo": lo, "interval_hi": hi,
            "A_lower": thr.A_lower, "A_upper": thr.A_upper, "A_tilde": thr.A_tilde}


def run_thresholds(cfg: RunConfig) -> int:
    from .planner import compute_thresholds

    solver = _solver_config(cfg)
    p = _params(cfg)
    row = _threshold_fields(compute_thresholds(p, solver))
    row["positivity_alpha"], row["positivity_alpha_alt"] = no_rumor_positivity_readings(p)
    emit(list(row), [[v] for v in row.values()], cfg)
    return EXIT_OK


def run_dynamics(cfg: RunConfig) -> int:
    from .dynamics import IntegratorConfig, integrate, seed_state, verify_global_stability

    p = _params(cfg)
    a = _allocation(cfg)
    integ = IntegratorConfig(conv_tol=cfg.tol) if cfg.tol is not None else IntegratorConfig()
    if cfg.seed < 0:  # read by no check, but refused on every line
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.starts is not None and cfg.starts < 2:
        raise ConfigError(f"starts must be >= 2, got {cfg.starts}")
    traj = integrate(seed_state(p, a, cfg.init), p, a, integ)
    report = None if cfg.starts is None else verify_global_stability(traj, p, a, integ)
    r00a, r00na, r10a, r11na, t = zip(*traj.states)
    x, a0, a1 = p.x, a.alpha0, a.alpha1
    theta0, theta1 = zip(*[_recompose(x, a0, a1, s) for s in traj.states])  # prevalences' formula, one call per state
    # both inspecting groups see total prevalence from one seed level, so while both are non-empty r10a is r00a
    # bit for bit, and emit formats the one object once; == alone counts 0.0 and -0.0 as equal, repr does not
    if r10a == r00a and (0.0 not in r00a or repr(r10a) == repr(r00a)):
        r10a = r00a
    summary = {
        "status": traj.status,
        "t_final": traj.final.t,
        "max_rate": traj.max_rate,
        "steps": traj.n_steps,
        "rejected_steps": traj.n_rejected,
    }
    ok = traj.converged
    if report is not None:
        summary["stability_passed"] = report.passed
        summary["stability_max_gap"] = report.max_gap
        ok = ok and report.passed
    emit(["t", "r00a", "r00na", "r10a", "r11na", "theta0", "theta1"], [t, r00a, r00na, r10a, r11na, theta0, theta1],
         cfg, summary=summary)
    if not ok:
        print("dynamics did not certify convergence; see summary", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


COMMANDS = {
    "steady": run_steady,
    "dynamics": run_dynamics,
    "sweep": run_sweep,
    "optimize": run_optimize,
    "thresholds": run_thresholds,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command line (sys.argv[1:] by default) and return its exit code.

    _fast_parse reads a well-formed line from SETTINGS and SUBCOMMANDS without loading argparse; build_parser's
    argparse parser reads every other line from the same tables, and so writes all help and parse errors.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = _fast_parse(argv) or build_parser().parse_args(argv, RunConfig())
    except SystemExit as exc:  # argparse already printed its message
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        # an --out that is a directory, or whose directory is missing or unwritable, fails before any computation
        if cfg.out and os.path.isdir(cfg.out):
            raise ConfigError(f"cannot write --out {cfg.out}: it is a directory")
        if cfg.out and not os.access(os.path.dirname(os.path.abspath(cfg.out)), os.W_OK):
            raise ConfigError(f"cannot write --out {cfg.out}: its directory is missing or not writable")
        return COMMANDS[cfg.command](cfg)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, IntegratorError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
