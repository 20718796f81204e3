"""Shared fixtures and the independent steady-state oracle.

The oracle deliberately avoids the package's solver: the rumor level comes
from the closed form, and the truth level from scipy's brentq applied to a
literal transcription of the fixed-point identity. Frozen expected values in
the tests were computed with this oracle ahead of the implementation.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import brentq


def oracle_rumor(lam: float, x: float, a1: float) -> float:
    thr = 0.0 if (x >= 1.0 or lam * (1.0 - x) <= 1.0) else 1.0 - 1.0 / (lam * (1.0 - x))
    if a1 >= thr:
        return 0.0
    return max(0.0, (1.0 - a1) * (1.0 - x) - 1.0 / lam)


def oracle_truth(lam: float, x: float, a0: float, a1: float) -> float:
    th1 = oracle_rumor(lam, x, a1)
    if th1 == 0.0:
        return max(0.0, x + (1.0 - x) * a1 - 1.0 / lam)
    mass = x * a0 + (1.0 - x) * a1
    if mass <= 0.0:
        return max(0.0, x - 1.0 / lam)
    c_bias = x * (1.0 - a0)

    def gap(t0: float) -> float:
        th = t0 + th1
        return t0 - (mass * lam * th / (1.0 + lam * th) + c_bias * lam * t0 / (1.0 + lam * t0))

    return brentq(gap, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)


def oracle_region_max(lam: float, x: float, A: float, n: int = 41) -> float:
    """Best oracle truth over an n x n scan of the feasible (alpha0, alpha1) region.

    alpha0 spans [0, min(1, A/x)]; at each alpha0, alpha1 spans what the
    budget x*alpha0 + (1-x)*alpha1 <= A leaves, capped at 1. At x = 1 every
    alpha1 is free, since no agent is rumor-biased.
    """
    best = 0.0
    for a0 in np.linspace(0.0, min(1.0, A / x) if x > 0.0 else 1.0, n):
        a1_max = 1.0 if x >= 1.0 else min(1.0, max(0.0, (A - x * a0) / (1.0 - x)))
        for a1 in np.linspace(0.0, a1_max, n):
            best = max(best, oracle_truth(lam, x, float(a0), float(a1)))
    return best


# reference point used throughout: lam=2, x=0.3, alpha=0.2 (computed with the
# oracle above before the solver was written)
THETA0_REF = 0.07195282983692097
THETA1_REF = 0.06
# interior maximum of theta0(alpha) on the same parameter slice
ALPHA_PEAK = 0.19803054261268505
THETA0_PEAK = 0.07196363004700697


@pytest.fixture
def ref_params():
    from rumor_inspect import ModelParams

    return ModelParams.from_lambda(2.0, 0.3)
