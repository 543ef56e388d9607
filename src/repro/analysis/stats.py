"""Means and confidence intervals for multi-run experiments.

The paper's Figure 9/10 averages 14 runs and shows 90% confidence
intervals; this module provides the same aggregation.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

# Two-sided Student-t critical values for 90% confidence, by degrees of
# freedom (1..30).  Hard-coded to avoid a scipy dependency at runtime; the
# scipy-based test suite cross-checks these values.
_T90 = [
    6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
    1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
    1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
]


def t_critical_90(dof: int) -> float:
    """Two-sided 90% Student-t critical value (1.645 asymptotically)."""
    if dof < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if dof <= len(_T90):
        return _T90[dof - 1]
    return 1.645


def confidence_interval(samples: Sequence[float]) -> float:
    """Half-width of the mean's 90% confidence interval, the paper's level
    (a Student-t table keeps it dependency-free and exact for its one job).
    """
    values = np.asarray(samples, dtype=float)
    if values.size < 2:
        return 0.0
    sem = values.std(ddof=1) / math.sqrt(values.size)
    return float(t_critical_90(values.size - 1) * sem)


def mean_and_ci(samples: Sequence[float]) -> Tuple[float, float]:
    """(mean, 90% CI half-width) of a sample set."""
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        return float("nan"), 0.0
    return float(values.mean()), confidence_interval(values)


def jain_fairness_index(allocations: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 when every flow gets an equal share; ``1/n`` when one flow takes
    everything.  Complements the paper's per-flow normalized-throughput
    scatter (Figure 7) with a single-number summary.  Raises on negative
    allocations; returns 1.0 for the degenerate all-zero case (nobody got
    anything, nobody was treated unequally).
    """
    values = np.asarray(allocations, dtype=float)
    if values.size == 0:
        raise ValueError("allocations must not be empty")
    if (values < 0).any():
        raise ValueError("allocations cannot be negative")
    square_sum = float((values ** 2).sum())
    if square_sum == 0:
        return 1.0
    return float(values.sum() ** 2 / (values.size * square_sum))
