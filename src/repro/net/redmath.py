"""RED decision math, factored out of the queue for reuse by batch kernels.

:class:`~repro.net.queues.REDQueue` fuses this math into its per-packet
enqueue for speed; the batched cell kernel (``repro.sim.vector_kernel``)
needs the *same float expressions* applied across a vector of per-cell
average-queue states.  The constants and the drop-probability /
uniformization expressions are defined once here, and every ``*_vec``
helper evaluates, element-wise, exactly the float64 arithmetic of its
scalar function, in the same order (selection via ``np.where`` discards
the untaken branches' values, just as control flow does in the scalar
form).  ``tests/test_twin_congruence.py`` fuzzes each pair to bit
equality, thresholds included.

Follows Floyd & Jacobson (1993) with the ``gentle`` extension (drop
probability rising linearly from ``max_p`` to 1 between ``maxthresh`` and
``2*maxthresh``) and the ns-2 uniformization ``p_a = p_b / (1 - count*p_b)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class RedParams:
    """RED parameters plus the hoisted per-packet constants.

    The derived fields are produced by the same float expressions a
    per-packet recomputation would evaluate, so substituting them is
    bit-exact.
    """

    min_thresh: float
    max_thresh: float
    max_p: float = 0.1
    weight: float = 0.002
    gentle: bool = True
    # Hoisted constants, derived in __post_init__.
    thresh_range: float = field(init=False)
    two_max_thresh: float = field(init=False)
    one_minus_max_p: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0 < self.min_thresh < self.max_thresh:
            raise ValueError("need 0 < min_thresh < max_thresh")
        if not 0 < self.max_p <= 1:
            raise ValueError("max_p must be in (0, 1]")
        if not 0 < self.weight <= 1:
            raise ValueError("EWMA weight must be in (0, 1]")
        object.__setattr__(self, "thresh_range", self.max_thresh - self.min_thresh)
        object.__setattr__(self, "two_max_thresh", 2 * self.max_thresh)
        object.__setattr__(self, "one_minus_max_p", 1.0 - self.max_p)


def red_drop_probability(params: RedParams, avg: float) -> float:
    """Instantaneous mark probability p_b from the average queue size."""
    if avg < params.min_thresh:
        return 0.0
    if avg < params.max_thresh:
        return (avg - params.min_thresh) / params.thresh_range * params.max_p
    if params.gentle and avg < params.two_max_thresh:
        return (
            params.max_p
            + (avg - params.max_thresh) / params.max_thresh
            * params.one_minus_max_p
        )
    return 1.0


def red_drop_probability_vec(params: RedParams, avg: np.ndarray) -> np.ndarray:
    """Element-wise :func:`red_drop_probability` over a vector of averages."""
    mid = (avg - params.min_thresh) / params.thresh_range * params.max_p
    below_max = avg < params.max_thresh
    if below_max.all():
        # Common case: every average sits below maxthresh, so the gentle /
        # forced zones are never selected and need not be evaluated.
        return np.where(avg < params.min_thresh, 0.0, mid)
    if params.gentle:
        gentle_zone = (
            params.max_p
            + (avg - params.max_thresh) / params.max_thresh
            * params.one_minus_max_p
        )
        above = np.where(avg < params.two_max_thresh, gentle_zone, 1.0)
    else:
        above = np.full_like(avg, 1.0)
    return np.where(
        avg < params.min_thresh,
        0.0,
        np.where(below_max, mid, above),
    )


def red_uniformized(p_b: float, count: int) -> float:
    """Uniformize inter-drop gaps: p_a = p_b / (1 - count * p_b)."""
    denom = 1.0 - count * p_b
    return 1.0 if denom <= 0 else min(1.0, p_b / denom)


def red_uniformized_vec(p_b: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Element-wise :func:`red_uniformized` over vectors of p_b and counts."""
    denom = 1.0 - count * p_b
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = p_b / denom
    return np.where(denom <= 0.0, 1.0, np.minimum(1.0, ratio))


def red_ewma(weight: float, avg: float, qlen: float) -> float:
    """One busy-queue EWMA step: ``avg + w * (qlen - avg)``."""
    return avg + weight * (qlen - avg)


def red_ewma_vec(weight: float, avg: np.ndarray, qlen: np.ndarray) -> np.ndarray:
    """Element-wise :func:`red_ewma` over vectors of averages/occupancies."""
    return avg + weight * (qlen - avg)
