"""Equivalence ratio between two flows: paper Equation (3).

``e(t) = min( Ra(t)/Rb(t), Rb(t)/Ra(t) )`` defined when at least one rate is
non-zero; the *equivalence ratio* at timescale tau is the mean of the
defined elements over the measurement window.  A value near 1 means the
two flows received near-identical bandwidth at that timescale.  The paper
uses the mean rather than the median "to capture the impact of any
outliers" (section 4.1.1).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np


def equivalence_series(
    series_a: Sequence[float], series_b: Sequence[float]
) -> List[Optional[float]]:
    """Pointwise equivalence e(t); None where both rates are zero."""
    a = np.asarray(series_a, dtype=float)
    b = np.asarray(series_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"series length mismatch: {a.shape} vs {b.shape}")
    out: List[Optional[float]] = []
    for ra, rb in zip(a, b):
        if ra == 0 and rb == 0:
            out.append(None)  # undefined; excluded from the ratio
        elif ra == 0 or rb == 0:
            out.append(0.0)
        else:
            # min(ra/rb, rb/ra) == min/max; dividing the smaller by the
            # larger also avoids float overflow on extreme rate ratios.
            out.append(float(min(ra, rb) / max(ra, rb)))
    return out


def equivalence_ratio(
    series_a: Sequence[float], series_b: Sequence[float]
) -> float:
    """Mean of the defined pointwise equivalences (paper's metric).

    Returns ``nan`` when no element is defined (both flows silent for the
    entire window) so callers can distinguish "no data" from "unfair".
    """
    values = [e for e in equivalence_series(series_a, series_b) if e is not None]
    if not values:
        return float("nan")
    return float(np.mean(values))
