"""Command-line front end: steady states, trajectories, sweeps, optimization.

Subcommands: steady | dynamics | sweep | optimize | thresholds. Output is
delimited text (comma) with '#'-prefixed metadata lines ahead of the header,
or JSON with field names identical to the CSV columns. Every float is
emitted with full round-trip precision, and a given config (including the
seed) always produces byte-identical output.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.

Importing this module loads the package's model alone. The planner loads for optimize, thresholds and a budget
sweep, and the dynamics for dynamics: each command imports them when it runs, as the sweeps import numpy.
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
    _steady_fields,
    no_rumor_positivity_readings,
    prevalences,
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
    "--starts": ("starts", int, None, "verify stability from this many random starts"),
    "--init": ("init", float, DEFAULT_SEED_LEVEL, "initial believing fraction per group"),
    "--seed": ("seed", int, 0, "seed of the random starts"),
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


def steady_columns(lam, x, a0, a1, solver: SolverConfig, ops=_FloatOps) -> list[list]:
    """The STEADY_FIELDS columns at the diffusion rate lam, the mass x and the rates a0, a1, as floats and bools.

    With floats they hold one row; with numpy arrays and numpy as ops, a batch equal row by row to the float solves.
    """
    fields = _steady_fields(lam, x, a0, a1, solver, ops)
    theta0, theta1, theta, rho_a, rho_00_na, rho_11_na = ([f] if ops is _FloatOps else f.tolist() for f in fields)
    return [theta0, theta1, theta, rho_a, rho_a, rho_00_na, rho_11_na, [t == 0.0 for t in theta1]]


def optimize_record(res, objective: str) -> dict:
    a = res.allocation
    return {"mode": MODES[objective], "alpha0": a.alpha0, "alpha1": a.alpha1, "objective": res.objective,
            "budget_spent": res.budget_spent, "slack": res.slack, "rumor_eradicated": res.rumor_eradicated}


def sweep_records(cfg: RunConfig, solver: SolverConfig) -> tuple[list[str], list[list]]:
    """The header and the columns of a sweep: the swept values, then one column per field.

    The domain checks are monotone in the swept value along every axis, and np.linspace returns --start and
    --stop as its exact ends, so they are checked before the grid: a failing sweep reports its first point's
    error. A steady sweep is solved as one batch, which reports its first failing entry.
    """
    import numpy as np  # sweeps alone need numpy, so the other commands start without it

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

        p = _params(cfg)
        _total(lo), _total(hi)
    else:  # the point at each end; the first one's params and allocation hold the batch's fixed values
        field = "lam" if axis == "lambda" else axis
        (p, a), _ = [(_params(end), _allocation(end)) for end in (RunConfig(**{**vars(cfg), field: v}) for v in (lo, hi))]
    try:
        grid = np.linspace(lo, hi, cfg.steps)
    except (ValueError, MemoryError, IndexError) as exc:
        # numpy refuses a count past its size limit (ValueError) or one it cannot
        # allocate (MemoryError); near 2**63 its arange comes out empty (IndexError)
        raise ConfigError(f"cannot build a sweep grid of {cfg.steps} steps: {exc}") from exc
    values = grid.tolist()

    if axis == "A":  # one optimization per budget, each read off the point's one Planner
        planner = Planner(p, solver)
        records = [optimize_record(planner.optimum(cfg.objective, v), cfg.objective) for v in values]
        return (["A", *records[0]], [values, *map(list, zip(*(r.values() for r in records)))])
    lam, x, a0, a1 = p.lam, p.x, a.alpha0, a.alpha1
    if axis == "alpha":
        a0 = a1 = grid
    elif axis == "lambda":
        lam = grid  # from_lambda gives each swept value back as lam (at a subnormal one, every field is 0 either way)
    else:
        x = grid
    with np.errstate(all="ignore"):  # float arithmetic overflows to inf silently; so does the batch
        columns = steady_columns(lam, x, a0, a1, solver, np)
    return ([axis, *STEADY_FIELDS], [values, *columns])


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


def emit(header: list[str], columns: list, cfg: RunConfig, summary: dict | None = None) -> str:
    """Write the table given column by column (columns[i] holds header[i]'s cells), as CSV or JSON.

    A table of one row is formatted in one pass over its cells. A longer one is formatted column by column
    (_fmt_column), and a column that appears twice as the same object is formatted once. Each JSON row is
    written through one %-template in the indent=2 layout of json.dumps, which writes the head and summary.
    """
    echo = {k: v for k, v in vars(cfg).items() if v is not None and k != "out"}  # in field order, defaults included
    if len(columns[0]) == 1:
        rows = [tuple(map(_fmt if cfg.fmt == "csv" else _encode, next(zip(*columns))))]
    else:
        formatted = {id(col): col for col in columns}  # a column given twice, as the same object, is formatted once
        formatted = {key: _fmt_column(col, cfg.fmt) for key, col in formatted.items()}
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
    s0 = seed_state(p, a, cfg.init)
    if cfg.seed < 0:  # read only with --starts, but refused on every line
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    # the stability check goes first: it rejects --starts before it integrates
    report = None if cfg.starts is None else verify_global_stability(p, a, cfg.starts, integ, seed=cfg.seed)
    reuse = report is not None and cfg.init == DEFAULT_SEED_LEVEL  # the check has integrated this very start
    traj = report.seed_trajectory if reuse else integrate(s0, p, a, integ)
    r00a, r00na, r10a, r11na, t = zip(*traj.states)
    theta0, theta1 = zip(*[prevalences(s, p, a) for s in traj.states])
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
