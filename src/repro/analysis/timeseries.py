"""Send-rate time series: paper Equation (2).

``R_{tau,F}(t) = (packets sent by F between t and t+tau) * s / tau``

We measure at the receiver (delivered bytes), matching how the paper's
figures are computed from simulator traces.  The series for flow F between
``t0`` and ``t1`` with timescale ``tau`` is the vector of R values at
``t0, t0+tau, t0+2 tau, ...``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def arrivals_to_rate_series(
    arrivals: Sequence[Tuple[float, int]],
    t0: float,
    t1: float,
    tau: float,
) -> np.ndarray:
    """Bin (time, bytes) arrival events into a bytes/second rate series.

    Args:
        arrivals: time-ordered ``(time, size_bytes)`` pairs.
        t0, t1: measurement window; bins cover [t0, t1) in steps of tau.
        tau: timescale in seconds (paper Eq. 2's tau).

    Returns:
        numpy array of length ``floor((t1-t0)/tau)`` with the average rate
        (bytes/second) in each bin.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    n_bins = int((t1 - t0) / tau)
    if n_bins == 0:
        raise ValueError("window shorter than one timescale bin")
    binned = np.zeros(n_bins)
    end, last = t0 + n_bins * tau, n_bins - 1
    for time, size in arrivals:
        if time < t0 or time >= end:
            continue
        # An ulp below ``end`` the quotient can round up to ``n_bins``.
        binned[min(int((time - t0) / tau), last)] += size
    return binned / tau


def rate_series(
    arrivals: Sequence[Tuple[float, int]],
    t0: float,
    t1: float,
    tau: float,
) -> np.ndarray:
    """Alias of :func:`arrivals_to_rate_series` named after paper Eq. (2)."""
    return arrivals_to_rate_series(arrivals, t0, t1, tau)
