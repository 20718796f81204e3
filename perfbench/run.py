"""rumor-inspect benchmark: seeded CLI workloads, run in-process as a closed loop.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from its
``src`` directory. One client drives one workload's command list through
``rumor_inspect.cli.main(argv)``: each command starts when the previous one
returns. There are no threads and no ``--jobs``.

A run first times ``import rumor_inspect.cli`` in several fresh interpreters
(``setup_s``), then makes one warm-up pass whose outputs are checked by
``checks.py``; the checks run outside every timed region. Timed passes over
the command list follow until MIN_REPEATS are done and another would not fit
in ``--seconds``. A timed command counts as failed when it exits non-zero or
its output differs from the checked warm-up output: the CLI promises
byte-identical reruns.

On a shared host (a 2-vCPU Xeon virtual machine, for one) the same code runs up to
twice as slowly for minutes at a time, and neither medians nor the best of
repeats within a 20 s run get past such a spell. So every timed command is
bracketed by short fixed probes (``host_probe``, three in each gap between
commands, median taken), and its time is multiplied by PROBE_REF_S over the
mean probe time of the two gaps around it: times are reported at the host
speed at which the probe takes PROBE_REF_S. ``setup_s`` is scaled the same
way. The program does not slow down by exactly the probe's factor, so the
scaling narrows the host's effect rather than removing it; the unscaled
pass and set-up times are printed beside the result.

``pass_s`` is the median over the run's passes of a pass's scaled time, and
``cmd_ms.p50`` and ``cmd_ms.p90`` are percentiles of the scaled latency over
every command timed in the run.

With ``--trace 1`` the run alternates untraced and traced passes instead and
reports the per-layer metrics from ``tracing.py``; the tracing overhead is the
traced pass time over the untraced one, both taken as above, minus 1.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The line before it records the environment, the sample
counts, the unscaled pass and set-up times, and host_probe_ms: the median
probe time, which shows how fast the shared host was during the run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MIN_REPEATS = 3      # timed passes, at the least
SETUP_RUNS = 9       # fresh interpreters timed for setup_s
PROBE_REF_S = 1e-3   # times are reported at the host speed at which host_probe takes 1 ms
PROBES_PER_GAP = 3   # probes between two commands; their median is the gap's probe time
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import rumor_inspect.cli; "
    "print(repr(time.perf_counter() - t0))"
)


def load_package():
    """Import the package from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import rumor_inspect
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import rumor_inspect from {SRC}: {exc}")
    where = Path(rumor_inspect.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"perfbench: rumor_inspect was imported from {where}, not from {SRC}")


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def environment(traced: bool) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "traced": traced,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def host_probe() -> float:
    """Seconds for a fixed mix of interpreter and numpy work that tracks the host's speed.

    About a millisecond on an unloaded host, so it can run before and after
    every timed command without costing much of the run.
    """
    t0 = time.perf_counter()
    # an RK4-like scalar loop, then a vectorized bisection
    r0, r1 = 0.001, 0.002
    for _ in range(1000):
        k0 = (1.0 - r0) * 0.7 * (r0 + r1) - 0.5 * r0
        k1 = (1.0 - r1) * 0.7 * r1 - 0.5 * r1
        r0, r1 = min(1.0, max(0.0, r0 + 0.01 * k0)), min(1.0, max(0.0, r1 + 0.01 * k1))
    c = np.linspace(0.0, 0.5, 201)
    lo, hi = np.zeros_like(c), np.ones_like(c)
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        above = mid - c * mid / (0.5 + mid) > 0.1
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    return time.perf_counter() - t0


def gap_probe() -> float:
    """Median of PROBES_PER_GAP probes: the host's speed between two commands."""
    return statistics.median(host_probe() for _ in range(PROBES_PER_GAP))


def scaled(seconds: float, before: float, after: float) -> float:
    """A time taken between two probes, scaled to the speed at which the probe takes PROBE_REF_S."""
    return seconds * PROBE_REF_S / (0.5 * (before + after))


def measure_setup(runs: int = SETUP_RUNS) -> tuple[float, float]:
    """Median seconds a fresh interpreter takes to import rumor_inspect.cli: (scaled, raw)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, raw = [], []
    for _ in range(runs):
        before = gap_probe()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        after = gap_probe()
        raw.append(float(out.stdout.strip().splitlines()[-1]))
        times.append(scaled(raw[-1], before, after))
    return statistics.median(times), statistics.median(raw)


def run_command(main, argv: list[str]) -> tuple[int, float, str, str]:
    """(exit code, seconds, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = main(argv)
        t1 = time.perf_counter()
    return code, t1 - t0, out.getvalue(), err.getvalue()


class Workload:
    """A command list, its checked reference outputs, and timed passes over it."""

    def __init__(self, commands: list[list[str]]):
        from rumor_inspect import cli
        from checks import check

        self.cli = cli
        self.commands = commands
        self.reference: list[str | None] = []
        self.problems: list[str] = []
        self.notes: list[str] = []
        for argv in commands:
            code, _, out, err = run_command(cli.main, argv)
            notes: list[str] = []
            bad = [f"exit code {code}: {err.strip()}"] if code != 0 else check(argv, out, notes)
            self.reference.append(None if bad else out)
            self.problems += [f"{' '.join(argv)}: {b}" for b in bad[:5]]
            self.notes += [f"{' '.join(argv)}: {n}" for n in notes]

    def timed_pass(self, tracer=None) -> tuple[list[float], list[float], list[float], int]:
        """(scaled seconds, raw seconds, probe seconds, failed commands) of one pass.

        A gap probe runs before the first command and after every command;
        each command's time is scaled by the two gap probes around it.
        """
        main = self.cli.main  # looked up per pass: the tracer may have wrapped it
        raw, outputs = [], []
        gc.collect()  # every pass starts from the same collector state
        probes = [gap_probe()]
        for argv in self.commands:
            if tracer is not None:
                tracer.command += 1
            code, dt, out, _ = run_command(main, argv)
            probes.append(gap_probe())
            raw.append(dt)
            outputs.append((code, out))
        latencies = [scaled(dt, probes[i], probes[i + 1]) for i, dt in enumerate(raw)]
        failed = sum(1 for (code, out), ref in zip(outputs, self.reference) if code != 0 or out != ref)
        return latencies, raw, probes, failed


def p90(samples: list[float]) -> tuple[float, int]:
    """Exclusive-method 90th percentile and the number of samples above it."""
    q = statistics.quantiles(samples, n=10)[8]
    return q, sum(1 for s in samples if s > q)


class Deadline:
    """Passes go on while fewer than `minimum` are done or another one fits in `seconds`.

    The next pass is taken to last as long as the one before it, so a run
    ends close to `seconds` instead of one whole pass after it.
    """

    def __init__(self, seconds: float, minimum: int):
        self.end = time.perf_counter() + seconds
        self.minimum = minimum
        self.passes = 0
        self.last = 0.0
        self._t = time.perf_counter()

    def more(self) -> bool:
        now = time.perf_counter()
        if self.passes:
            self.last = now - self._t
        self._t = now
        self.passes += 1
        return self.passes <= self.minimum or now + self.last <= self.end


def run_untraced(work: Workload, seconds: float, min_repeats: int) -> tuple[dict, dict, int, int]:
    passes, raw_passes, probes = [], [], []
    failed = 0
    deadline = Deadline(seconds, min_repeats)
    while deadline.more():
        lat, raw, probe, bad = work.timed_pass()
        passes.append(lat)
        raw_passes.append(raw)
        probes += probe
        failed += bad
    latencies = [t for lat in passes for t in lat]
    hi, beyond = p90(latencies) if len(latencies) >= 10 else (max(latencies), 0)
    metrics = {
        "pass_s": (statistics.median(map(sum, passes)), "s"),
        "cmd_ms.p50": (1e3 * statistics.median(latencies), "ms"),
        "cmd_ms.p90": (1e3 * hi, "ms"),
    }
    samples = {"passes": len(passes), "commands": len(latencies), "beyond_p90": beyond,
               "raw_pass_s": statistics.median(map(sum, raw_passes)),
               "host_probe_ms": 1e3 * statistics.median(probes)}
    return metrics, samples, len(latencies), failed


def run_traced(work: Workload, seconds: float, min_pairs: int) -> tuple[dict, dict, int, int]:
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    plain, traced, probes = [], [], []
    failed = attempted = 0
    deadline = Deadline(seconds, min_pairs)
    while deadline.more():
        lat, _, probe, bad = work.timed_pass()
        plain.append(lat)
        tracer.install()
        try:
            lat_t, _, probe_t, bad_t = work.timed_pass(tracer)
        finally:
            tracer.uninstall()
        traced.append(lat_t)
        probes += probe + probe_t
        failed += bad + bad_t
        attempted += 2 * len(work.commands)
    overhead = statistics.median(map(sum, traced)) / statistics.median(map(sum, plain)) - 1.0
    metrics = layer_metrics(tracer, len(traced), overhead)
    samples = {"pairs": len(traced), "spans": len(tracer.spans), "host_probe_ms": 1e3 * statistics.median(probes)}
    return metrics, samples, attempted, failed


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    from workloads import WORKLOADS

    commands = WORKLOADS[workload](seed, small=small)
    setup_s, raw_setup_s = measure_setup(3 if small else SETUP_RUNS)
    work = Workload(commands)
    if trace:
        metrics, samples, attempted, failed = run_traced(work, seconds, min_pairs=1)
    else:
        metrics, samples, attempted, failed = run_untraced(work, seconds, 1 if small else MIN_REPEATS)
        metrics["setup_s"] = (setup_s, "s")
        samples["raw_setup_s"] = raw_setup_s
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    for problem in work.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for note in work.notes:
        print(f"outside guarantee: {note}", file=sys.stderr)
    info = {"workload": workload, "seed": seed, "commands_per_pass": len(commands),
            "outside_guarantee": len(work.notes), "samples": samples, "env": environment(trace)}
    print(json.dumps(info, sort_keys=True))
    return {
        "correct": failed == 0 and not work.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=20.0, help="measuring time (BENCHMARK.json: run_seconds); at least MIN_REPEATS passes are made")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run every workload once at a tiny size")
    args = ap.parse_args(argv)
    seed = args.seed
    if seed is None:
        seed = json.loads((BENCH_DIR / "meta.json").read_text(encoding="utf-8"))["default_seed"]
    load_package()
    if args.smoke:
        from smoke import smoke

        return smoke(run, seed)
    if args.workload is None:
        ap.error("--workload is required")
    result = run(args.workload, seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
