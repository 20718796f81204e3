"""Smoke mode: every workload once at a tiny size, untraced and traced, twice.

Asserts that every metric named in BENCHMARK.json is emitted with its unit,
that every output passes its checks, that the counts below repeat exactly
between the two traced runs, and that meta.json's layer map names only
metrics and workloads that BENCHMARK.json defines.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import WORKLOADS

REPEATABLE = (
    "model.truth_steady_state.calls",
    "dynamics.integrate.steps_per_call",
    "planner.compute_thresholds.optimize_calls_per_call",
)


def _map_problems(spec: dict, meta: dict) -> list[str]:
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = {w["name"] for w in spec["workloads"]}
    problems = []
    for entry in meta["layer_to_end_to_end"]:
        named = list(entry["metrics"])
        for side in ("moves", "no_change"):
            for workload, ends in entry[side].items():
                named += ends
                if workload not in workloads:
                    problems.append(f"layer map names unknown workload {workload}")
        problems += [f"layer map names unknown metric {m}" for m in named if m not in metrics]
    return problems


def smoke(run, seed: int) -> int:
    here = Path(__file__).resolve().parent
    spec = json.loads((here.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    meta = json.loads((here / "meta.json").read_text(encoding="utf-8"))
    problems = _map_problems(spec, meta)
    if set(WORKLOADS) != {w["name"] for w in spec["workloads"]}:
        problems.append(f"workloads {sorted(WORKLOADS)} differ from BENCHMARK.json")
    for workload in WORKLOADS:
        for trace, names in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            results = [run(workload, seed, 0.0, trace, small=True) for _ in range(2 if trace else 1)]
            for res in results:
                if not res["correct"] or res["failed"]:
                    problems.append(f"{workload}: incorrect output (failed {res['failed']} of {res['attempted']})")
                emitted = res["metrics"]
                for m in names:
                    got = emitted.get(m["name"])
                    if got is None or got["unit"] != m["unit"]:
                        problems.append(f"{workload}: metric {m['name']} [{m['unit']}] missing, got {got}")
                extra = set(emitted) - {m["name"] for m in names}
                if extra:
                    problems.append(f"{workload}: metrics not in BENCHMARK.json: {sorted(extra)}")
            if trace:
                first, second = (r["metrics"] for r in results)
                for key in REPEATABLE:
                    if first[key]["value"] != second[key]["value"]:
                        problems.append(f"{workload}: {key} differs between runs: "
                                        f"{first[key]['value']} vs {second[key]['value']}")
                print(json.dumps({"workload": workload, **{k: first[k]["value"] for k in REPEATABLE}}))
    for p in problems:
        print(f"smoke: {p}")
    print(json.dumps({"smoke": "fail" if problems else "pass", "problems": len(problems)}))
    return 1 if problems else 0
