#!/usr/bin/env python3
"""Compare the truth planner, the volume-maximizing platform and the targeted planner over budgets.

For each budget on a grid, prints the uniform truth planner's and the
platform's rates side by side, then the targeted planner's two rates, its
truth and whether its optimum eradicates the rumor, along with the located
slack-region boundaries. The platform's rate never exceeds the planner's,
and above a budget threshold the two coincide at full spend. Over a range
of budgets the targeted planner puts its budget on truth-biased inspectors
and lets the rumor live, although eradicating it is affordable. Each planner
analyses its budget-independent curve once for the whole grid.

    python scripts/budget_frontier.py --lambda 2 --x 0.3 --points 30
"""

import argparse
import sys

import numpy as np

from rumor_inspect import ModelParams, compute_thresholds
from rumor_inspect.planner import Curve, targeted_optimum


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lambda", dest="lam", type=float, default=2.0)
    ap.add_argument("--x", type=float, default=0.3)
    ap.add_argument("--points", type=int, default=30)
    ap.add_argument("--out", type=str, default=None)
    args = ap.parse_args()

    p = ModelParams.from_lambda(args.lam, args.x)
    budgets = np.linspace(0.02, 1.0, args.points).tolist()
    truth, platform, targeted = Curve(p, False).optimum, Curve(p, True).optimum, targeted_optimum(p, 1.0)
    lines = ["A,planner_alpha,planner_theta0,platform_alpha,platform_theta,"
             "targeted_alpha0,targeted_alpha1,targeted_theta0,targeted_rumor_eradicated"]
    for A in budgets:
        planner, total, tgt = truth(A), platform(A), targeted(A)
        lines.append(
            f"{A!r},{planner.allocation.alpha0!r},{planner.objective!r},"
            f"{total.allocation.alpha0!r},{total.objective!r},"
            f"{tgt.allocation.alpha0!r},{tgt.allocation.alpha1!r},{tgt.objective!r},"
            f"{'true' if tgt.rumor_eradicated else 'false'}"
        )

    thr = compute_thresholds(p)
    lines.append(f"# A_lower: {thr.A_lower!r}")
    lines.append(f"# A_upper: {thr.A_upper!r}")
    lines.append(f"# A_tilde: {thr.A_tilde!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
