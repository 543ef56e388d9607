"""Self-similarity diagnostics for traffic aggregates.

The paper's ON/OFF background traffic is built on the Willinger et al.
(1995) result that superposed heavy-tailed ON/OFF sources produce
self-similar aggregate traffic.  This module provides the classical
**variance-time** estimator of the Hurst parameter so the traffic substrate
can be *verified* to have the property the paper relies on:

for a self-similar process, the variance of the m-aggregated series decays
as ``Var(X^(m)) ~ m^(2H - 2)``; H = 0.5 for short-range-dependent traffic
(e.g. Poisson), and 0.5 < H < 1 for the self-similar traffic that the
Pareto ON/OFF construction yields (H = (3 - alpha) / 2 for ON/OFF shape
alpha, i.e. H = 0.75 at the customary alpha = 1.5).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def aggregate_series(series: Sequence[float], m: int) -> np.ndarray:
    """Non-overlapping block means of size m (the m-aggregated process)."""
    if m < 1:
        raise ValueError("aggregation level must be >= 1")
    values = np.asarray(series, dtype=float)
    blocks = len(values) // m
    if blocks < 1:
        raise ValueError(f"series of {len(values)} too short for m={m}")
    return values[: blocks * m].reshape(blocks, m).mean(axis=1)


def variance_time_points(
    series: Sequence[float], levels: Sequence[int]
) -> List[Tuple[int, float]]:
    """(m, Var(X^(m))) pairs for the variance-time plot."""
    out = []
    for m in levels:
        aggregated = aggregate_series(series, m)
        if len(aggregated) < 2:
            continue
        out.append((m, float(aggregated.var())))
    if len(out) < 2:
        raise ValueError("need at least two usable aggregation levels")
    return out


#: the aggregation levels :func:`hurst_variance_time` fits over.
HURST_LEVELS = (1, 2, 4, 8, 16, 32, 64)


def hurst_variance_time(series: Sequence[float]) -> float:
    """Hurst parameter estimate from the variance-time slope.

    Fits ``log Var(X^(m)) = beta * log m + c``; ``H = 1 + beta / 2``.
    Returns a value clipped into [0, 1] (estimator noise can stray outside).
    """
    points = variance_time_points(series, HURST_LEVELS)
    ms = np.log([m for m, _ in points])
    variances = np.log([max(v, 1e-30) for _, v in points])
    beta = float(np.polyfit(ms, variances, 1)[0])
    hurst = 1.0 + beta / 2.0
    return float(min(1.0, max(0.0, hurst)))


def expected_hurst_for_pareto(shape: float) -> float:
    """Taqqu's formula for ON/OFF sources: H = (3 - alpha) / 2 (1 < a < 2)."""
    if not 1.0 < shape < 2.0:
        raise ValueError("formula holds for tail index in (1, 2)")
    return (3.0 - shape) / 2.0
