"""TCP response functions and their inversion.

Equation (1) of the paper (from Padhye, Firoiu, Towsley, Kurose 1998) gives
the steady-state TCP sending rate::

    T = s / ( R*sqrt(2p/3) + t_RTO * (3*sqrt(3p/8)) * p * (1 + 32 p^2) )

in bytes/second for packet size ``s`` (bytes), round-trip time ``R``
(seconds), loss event rate ``p``, and retransmit timeout ``t_RTO`` (seconds,
the paper's heuristic is ``t_RTO = 4R``).

The appendix analysis instead uses the simple deterministic response
function ``T = s * sqrt(1.5) / (R * sqrt(p))``.

Both are exposed here, along with a numerically robust inversion
(rate -> p) used to seed the receiver's loss history when slow start ends
(section 3.4.1), and the closed-form per-RTT increase bound of Appendix A.1.
"""

from __future__ import annotations

import math

import numpy as np

#: Appendix A.1: with the simple response function and normalized weight
#: w = 1/6 on the newest interval, the per-RTT rate increase is at most
#: ~0.12 packets/RTT; with Equation (1) the paper quotes 0.14.
DELTA_T_SIMPLE_BOUND = 0.12
DELTA_T_EQ1_BOUND = 0.14
DELTA_T_DISCOUNTED_BOUND = 0.28

#: Minimum loss event rate we evaluate the equations at.  Below this, the
#: equation rate exceeds any realistic link speed and the sender is
#: effectively unconstrained by loss.
P_MIN = 1e-8


def tcp_response_rate(packet_size: int, rtt: float, p: float, t_rto: float) -> float:
    """Allowed sending rate in bytes/second per paper Equation (1).

    Args:
        packet_size: segment size ``s`` in bytes.
        rtt: round-trip time ``R`` in seconds.
        p: loss event rate in (0, 1].
        t_rto: retransmission timeout in seconds (heuristic: ``4 * rtt``).

    Returns:
        The TCP-compatible rate ``T`` in bytes/second.  For ``p <= 0`` the
        equation diverges; callers should treat that case as "no constraint"
        before calling (we clamp to ``P_MIN`` for numerical safety).
    """
    if packet_size <= 0:
        raise ValueError("packet_size must be positive")
    if rtt <= 0:
        raise ValueError("rtt must be positive")
    if t_rto <= 0:
        raise ValueError("t_rto must be positive")
    if p > 1.0:
        raise ValueError(f"loss event rate cannot exceed 1, got {p}")
    p = max(p, P_MIN)
    term_rtt = rtt * math.sqrt(2.0 * p / 3.0)
    term_rto = t_rto * (3.0 * math.sqrt(3.0 * p / 8.0)) * p * (1.0 + 32.0 * p * p)
    return packet_size / (term_rtt + term_rto)


def simple_response_rate(packet_size: int, rtt: float, p: float) -> float:
    """The deterministic response function ``T = s*sqrt(1.5)/(R*sqrt(p))``.

    Used by the appendix analysis (and by [MF97]).  Returns bytes/second.
    """
    if packet_size <= 0 or rtt <= 0:
        raise ValueError("packet_size and rtt must be positive")
    p = max(p, P_MIN)
    return packet_size * math.sqrt(1.5) / (rtt * math.sqrt(p))


#: relative width at which :func:`invert_response` stops bisecting.
INVERT_TOLERANCE = 1e-12


def invert_response(
    packet_size: int,
    rtt: float,
    target_rate: float,
    t_rto: float,
) -> float:
    """Find the loss event rate ``p`` at which Equation (1) yields
    ``target_rate`` bytes/second.

    The response function is strictly decreasing in ``p``, so bisection on
    ``log p`` converges unconditionally.  Used by the receiver to fabricate
    a synthetic loss interval after slow start terminates: the paper sets the
    post-slow-start rate to half the rate at loss and derives "the expected
    loss interval that would be required to produce this data rate"
    (section 3.4.1).

    Returns ``p`` clamped into [P_MIN, 1], to ``INVERT_TOLERANCE``.
    """
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if tcp_response_rate(packet_size, rtt, P_MIN, t_rto) <= target_rate:
        return P_MIN
    if tcp_response_rate(packet_size, rtt, 1.0, t_rto) >= target_rate:
        return 1.0
    lo, hi = P_MIN, 1.0
    while hi - lo > INVERT_TOLERANCE * max(1.0, hi):
        mid = math.sqrt(lo * hi)  # geometric bisection: p spans many decades
        if tcp_response_rate(packet_size, rtt, mid, t_rto) > target_rate:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def tcp_response_rate_vec(
    packet_size: float,
    rtt: np.ndarray,
    p: np.ndarray,
    t_rto: np.ndarray,
) -> np.ndarray:
    """Element-wise :func:`tcp_response_rate` over vectors of cells.

    Evaluates, per element, exactly the scalar expression: only ``+ - * /``
    and ``sqrt`` appear, all of which are correctly rounded under IEEE-754,
    so each element is bit-identical to the scalar call with the same
    inputs (``np.sqrt`` and ``math.sqrt`` agree on every double).  Inputs
    are assumed pre-validated (positive sizes/times, ``p <= 1``); ``p`` is
    clamped to ``P_MIN`` exactly as the scalar form does.
    """
    p = np.maximum(p, P_MIN)
    term_rtt = rtt * np.sqrt(2.0 * p / 3.0)
    term_rto = t_rto * (3.0 * np.sqrt(3.0 * p / 8.0)) * p * (1.0 + 32.0 * p * p)
    return packet_size / (term_rtt + term_rto)


def invert_response_vec(
    packet_size: float,
    rtt: np.ndarray,
    target_rate: np.ndarray,
    t_rto: np.ndarray,
) -> np.ndarray:
    """Element-wise :func:`invert_response` over vectors of cells.

    Runs the same geometric bisection with converged/early-exit elements
    masked out of further updates; since each element's (lo, hi) sequence
    matches the scalar iteration exactly, results are bit-identical to
    per-element scalar calls.
    """
    rtt, target, t_rto = np.broadcast_arrays(
        np.asarray(rtt, dtype=np.float64),
        np.asarray(target_rate, dtype=np.float64),
        np.asarray(t_rto, dtype=np.float64),
    )
    if np.any(target <= 0):
        raise ValueError("target_rate must be positive")
    at_p_min = tcp_response_rate_vec(packet_size, rtt, np.float64(P_MIN), t_rto)
    at_one = tcp_response_rate_vec(packet_size, rtt, np.float64(1.0), t_rto)
    done_low = at_p_min <= target
    done_high = ~done_low & (at_one >= target)
    active = ~done_low & ~done_high
    lo = np.full(rtt.shape, P_MIN, dtype=np.float64)
    hi = np.ones(rtt.shape, dtype=np.float64)
    while True:
        running = active & (hi - lo > INVERT_TOLERANCE * np.maximum(1.0, hi))
        if not running.any():
            break
        mid = np.sqrt(lo * hi)  # geometric bisection: p spans many decades
        go_lo = tcp_response_rate_vec(packet_size, rtt, mid, t_rto) > target
        lo = np.where(running & go_lo, mid, lo)
        hi = np.where(running & ~go_lo, mid, hi)
    out = np.sqrt(lo * hi)
    return np.where(done_low, P_MIN, np.where(done_high, 1.0, out))


def analytic_rate_increase(average_interval: float, newest_weight: float) -> float:
    """Appendix A.1 closed form: maximum rate increase per RTT, in packets.

    With average loss interval ``A`` packets and normalized weight ``w`` on
    the newest interval, one loss-free RTT grows the allowed rate by::

        delta_T = 1.2 * ( sqrt(A + w*1.2*sqrt(A)) - sqrt(A) )

    ``w = 1/6`` without history discounting (bound ~0.12), up to ``w = 0.4``
    with maximum discounting (bound ~0.28).
    """
    if average_interval <= 0:
        raise ValueError("average_interval must be positive")
    if not 0 <= newest_weight <= 1:
        raise ValueError("newest_weight must be in [0, 1]")
    a = average_interval
    w = newest_weight
    return 1.2 * (math.sqrt(a + w * 1.2 * math.sqrt(a)) - math.sqrt(a))
