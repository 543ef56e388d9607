"""Coefficient of variation: the paper's smoothness metric.

"The coefficient of variation (CoV), which is the ratio of standard
deviation to the average, of this time series can be used as a measure of
variability of the sending rate of the flow at timescale tau.  A lower value
implies a smoother flow." (section 4.1.1, citing Jain 1991)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def coefficient_of_variation(series: Sequence[float]) -> float:
    """CoV = std / mean of a rate time series.

    Returns 0 for an all-zero or empty series (a silent flow is trivially
    smooth); population standard deviation is used, matching the customary
    definition.
    """
    values = np.asarray(series, dtype=float)
    if values.size == 0:
        return 0.0
    mean = values.mean()
    if mean == 0:
        return 0.0
    return float(values.std() / mean)
