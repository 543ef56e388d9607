"""Loss fraction vs loss-event fraction under Bernoulli loss (section 3.5.1).

For a flow sending N packets per round-trip time under independent packet
loss with probability ``p_loss``, at most one loss event is charged per RTT,
so the loss-event fraction is::

    p_event = (1 - (1 - p_loss)^N) / N

Figure 5 plots ``p_event`` against ``p_loss`` for a flow whose N follows the
control equation (and for flows at twice / half that rate).  Both the
analytic mapping and a Monte-Carlo packet-level simulation are provided; the
simulation validates the closed form and exercises the estimator machinery.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.equations import tcp_response_rate


def packets_per_rtt_from_equation(
    p_event: float,
    packet_size: int = 1000,
    rtt: float = 0.1,
    rate_multiplier: float = 1.0,
) -> float:
    """N: packets per RTT for a flow obeying Eq. (1) at loss-event rate p.

    ``rate_multiplier`` scales the resulting rate (Figure 5 also evaluates
    flows sending at 2x and 0.5x the calculated rate).
    """
    if p_event <= 0:
        raise ValueError("p_event must be positive")
    rate = tcp_response_rate(packet_size, rtt, p_event, t_rto=4 * rtt)
    n = rate_multiplier * rate * rtt / packet_size
    return max(n, 1e-9)


def loss_event_fraction_analytic(p_loss: float, packets_per_rtt: float) -> float:
    """The closed form ``(1 - (1-p)^N) / N`` (section 3.5.1)."""
    if not 0 <= p_loss < 1:
        raise ValueError("p_loss must be in [0, 1)")
    if packets_per_rtt <= 0:
        raise ValueError("packets_per_rtt must be positive")
    if p_loss == 0:
        return 0.0
    n = packets_per_rtt
    return (1.0 - (1.0 - p_loss) ** n) / n


#: cap on :func:`consistent_loss_event_fraction`'s fixed-point steps.
FIXED_POINT_ITERATIONS = 100


def consistent_loss_event_fraction(
    p_loss: float,
    packet_size: int = 1000,
    rtt: float = 0.1,
    rate_multiplier: float = 1.0,
) -> float:
    """Self-consistent p_event for a flow whose *rate* depends on p_event.

    The sending rate is determined by the congestion-control equation
    evaluated at p_event, while p_event depends on the rate through N; the
    paper resolves this circularity implicitly.  Fixed-point iteration
    converges quickly because both maps are monotone.
    """
    if p_loss == 0:
        return 0.0
    p_event = p_loss  # initial guess: no coalescing
    for _ in range(FIXED_POINT_ITERATIONS):
        n = packets_per_rtt_from_equation(
            p_event, packet_size=packet_size, rtt=rtt, rate_multiplier=rate_multiplier
        )
        # A window below one packet/RTT cannot coalesce losses.
        n = max(n, 1.0)
        updated = loss_event_fraction_analytic(p_loss, n)
        if abs(updated - p_event) < 1e-12:
            p_event = updated
            break
        p_event = updated
    return p_event


def simulate_loss_event_fraction(
    p_loss: float,
    packets_per_rtt: float,
    total_packets: int = 200_000,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Monte-Carlo check: stream Bernoulli losses, charge one event per RTT.

    The stream is divided into consecutive rounds of ``packets_per_rtt``
    packets (fractional boundaries handled by accumulation); a round with at
    least one loss contributes exactly one loss event -- the windowing
    implicit in the paper's closed form ``(1 - (1-p)^N) / N``.  Returns
    events / packets.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if packets_per_rtt <= 0:
        raise ValueError("packets_per_rtt must be positive")
    losses = rng.random(total_packets) < p_loss
    events = 0
    boundary = packets_per_rtt
    loss_in_round = False
    for index in range(total_packets):
        if index >= boundary:
            boundary += packets_per_rtt * math.ceil((index - boundary) / packets_per_rtt + 1)
            loss_in_round = False
        if losses[index] and not loss_in_round:
            events += 1
            loss_in_round = True
    return events / total_packets
