"""Spans around calls into each layer of the package, recorded from outside it.

A layer is one module of the package: model, planner, dynamics or cli.
Tracer.install replaces each traced public function at every module binding
that holds it (``planner.truth_steady_state`` and ``cli.integrate`` are
bindings of their own, separate from the originals), and Tracer.uninstall
puts the originals back. Spans are kept in memory as tuples

    (name, span_id, parent_id, start, end, command_id, extra)

and aggregated into the per-layer metrics by ``layer_metrics``. Span ids are
handed out on entry, so a parent's id is always below its children's. The
benchmark is single-threaded, so one stack of open spans is enough.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

import rumor_inspect
from rumor_inspect import cli, dynamics, model, planner

MODULES = (rumor_inspect, model, planner, dynamics, cli)

TRACED = {
    model: ("truth_steady_state", "full_steady_state"),
    planner: ("maximize_truth_uniform", "maximize_platform", "maximize_truth_targeted",
              "minimize_rumor", "compute_thresholds"),
    dynamics: ("integrate", "verify_global_stability"),
    cli: ("main", "emit"),
}
OPTIMIZERS = ("planner.maximize_truth_uniform", "planner.maximize_platform",
              "planner.maximize_truth_targeted", "planner.minimize_rumor")
# The vectorized grid scan is private; it is only counted (its input size is
# the number of grid points), and only while it exists.
GRID_FN = (planner, "_theta_grids")


def _stdout_pos() -> int:
    return sys.stdout.tell()


def _emitted_bytes(before: int, result) -> int:
    # the benchmark captures stdout in a StringIO of ASCII text
    return sys.stdout.tell() - before


def _steps(before, result) -> tuple[int, bool]:
    """(steps taken, horizon hit) of a returned trajectory."""
    return getattr(result, "n_steps", 0), not getattr(result, "converged", True)


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.command = -1
        self.grid_points = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- instrumentation ----------------------------------------------------

    def _span(self, name: str, fn, extra=None):
        """Wrap fn in a span; extra(before, result) fills the span's last field."""
        tracer, spans, stack = self, self.spans, self.stack
        clock = time.perf_counter
        start = _stdout_pos if extra is _emitted_bytes else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            before = start() if start else None
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                info = extra(before, result) if extra else None
                spans[sid] = (name, sid, parent, t0, t1, tracer.command, info)

        return traced

    def _counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(p, c_ins, *args, **kwargs):
            tracer.grid_points += int(np.size(c_ins))
            return fn(p, c_ins, *args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every traced function at every binding; idempotent."""
        if self._patches:
            return
        wrappers = {}
        for mod, names in TRACED.items():
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name in names:
                fn = getattr(mod, name)
                extra = {"emit": _emitted_bytes, "integrate": _steps}.get(name)
                wrappers[id(fn)] = (fn, self._span(f"{layer}.{name}", fn, extra))
        grid_mod, grid_name = GRID_FN
        grid_fn = getattr(grid_mod, grid_name, None)
        if grid_fn is not None:
            wrappers[id(grid_fn)] = (grid_fn, self._counter(grid_fn))
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(tracer: Tracer, passes: int, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, normalized to one pass over the workload.

    Counts are per pass, so they repeat exactly between runs of one seed.
    Times are means per call, or self seconds per pass for a whole layer.
    """
    spans = tracer.spans
    n = len(spans)
    names = [s[0] for s in spans]
    parents = [s[2] for s in spans]
    dur = [s[4] - s[3] for s in spans]
    child = [0.0] * n
    for sid in range(n):
        if parents[sid] >= 0:
            child[parents[sid]] += dur[sid]

    calls = defaultdict(int)
    total = defaultdict(float)
    self_t = defaultdict(float)
    layer_self = defaultdict(float)
    for sid in range(n):
        name = names[sid]
        calls[name] += 1
        total[name] += dur[sid]
        own = dur[sid] - child[sid]
        self_t[name] += own
        layer_self[name.split(".", 1)[0]] += own

    def ancestors(sid: int):
        p = parents[sid]
        while p >= 0:
            yield p
            p = parents[p]

    # scalar solves under each optimizer / bundle, optimizer calls under each bundle
    solves_under = defaultdict(int)
    optimizers_under = defaultdict(int)
    for sid in range(n):
        if names[sid] == "model.truth_steady_state":
            for name in {names[a] for a in ancestors(sid)}:
                solves_under[name] += 1
        elif names[sid] in OPTIMIZERS:
            if any(names[a] == "planner.compute_thresholds" for a in ancestors(sid)):
                optimizers_under["planner.compute_thresholds"] += 1

    steps = horizon = 0
    emitted = 0
    for s in spans:
        if s[0] == "dynamics.integrate":
            steps += s[6][0]
            horizon += int(s[6][1])
        elif s[0] == "cli.emit":
            emitted += s[6]

    P = max(passes, 1)
    m: dict[str, tuple[float, str]] = {}

    def count(key: str, value: float) -> None:
        m[key] = (value / P, "count/pass")

    def ms_call(key: str, name: str, self_time: bool = False, scale: float = 1e3, unit: str = "ms") -> None:
        m[key] = (scale * _per((self_t if self_time else total)[name], calls[name]), unit)

    for fn in ("truth_steady_state", "full_steady_state"):
        name = f"model.{fn}"
        count(f"{name}.calls", calls[name])
        ms_call(f"{name}.us_per_call", name, scale=1e6, unit="us")
    m["model.self_s"] = (layer_self["model"] / P, "s/pass")

    for fn in ("maximize_truth_uniform", "maximize_platform", "maximize_truth_targeted"):
        name = f"planner.{fn}"
        count(f"{name}.calls", calls[name])
        ms_call(f"{name}.ms_per_call", name)
        ms_call(f"{name}.self_ms_per_call", name, self_time=True)
        m[f"{name}.scalar_solves_per_call"] = (_per(solves_under[name], calls[name]), "count")
    count("planner.minimize_rumor.calls", calls["planner.minimize_rumor"])
    count("planner.grid_points", tracer.grid_points)
    # computed, not timed: planner self time spread over the grid points scanned
    m["planner.grid_us_per_point"] = (1e6 * _per(layer_self["planner"], tracer.grid_points), "us")
    m["planner.self_s"] = (layer_self["planner"] / P, "s/pass")
    bundle = "planner.compute_thresholds"
    count(f"{bundle}.calls", calls[bundle])
    ms_call(f"{bundle}.ms_per_call", bundle)
    m[f"{bundle}.optimize_calls_per_call"] = (_per(optimizers_under[bundle], calls[bundle]), "count")
    m[f"{bundle}.scalar_solves_per_call"] = (_per(solves_under[bundle], calls[bundle]), "count")

    integ = "dynamics.integrate"
    count(f"{integ}.calls", calls[integ])
    ms_call(f"{integ}.ms_per_call", integ)
    m[f"{integ}.steps_per_call"] = (_per(steps, calls[integ]), "count")
    m[f"{integ}.us_per_step"] = (1e6 * _per(total[integ], steps), "us")
    count(f"{integ}.horizon_hits", horizon)
    stab = "dynamics.verify_global_stability"
    count(f"{stab}.calls", calls[stab])
    ms_call(f"{stab}.ms_per_call", stab)
    ms_call(f"{stab}.self_ms_per_call", stab, self_time=True)
    m["dynamics.self_s"] = (layer_self["dynamics"] / P, "s/pass")

    count("cli.main.calls", calls["cli.main"])
    ms_call("cli.main.self_ms_per_call", "cli.main", self_time=True)
    count("cli.emit.calls", calls["cli.emit"])
    ms_call("cli.emit.ms_per_call", "cli.emit")
    m["cli.emit.bytes_per_call"] = (_per(emitted, calls["cli.emit"]), "bytes")
    m["cli.self_s"] = (layer_self["cli"] / P, "s/pass")
    m["trace.overhead_frac"] = (overhead_frac, "frac")
    return m
