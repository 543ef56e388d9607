"""Feedback suppression for multicast TFRC (paper section 6).

"There is a need to limit feedback to the multicast sender to prevent
response implosion.  This requires either hierarchical aggregation of
feedback or a mechanism that suppresses feedback except from the receivers
calculating the lowest transmission rate."

This module implements the latter: each round, every receiver draws a
feedback delay that is *biased by its calculated rate* -- receivers whose
control equation allows only a low rate draw short delays; high-rate
receivers draw long ones.  When a report is multicast (the sender echoes it
to the group), receivers cancel their pending report unless their own rate
is lower by more than a configurable factor.

The expected number of reports per round is O(log N) in the worst case and
O(1) when one receiver is clearly the bottleneck, which is the scalability
property the bench asserts.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.process import Timer


class FeedbackSuppression:
    """Per-receiver biased feedback timer.

    Args:
        sim: the event loop.
        send_report: callback invoked when this receiver wins the round and
            should transmit its report.
        rate_fn: returns the receiver's current calculated allowed rate
            (bytes/second); lower rate -> earlier timer.
        rng: random stream for the exponential timer draw.
        round_duration: length of one feedback round (the sender announces
            this; several RTTs for multicast).
    """

    RATE_SCALE = 1e6  # bytes/second whose timer sits at the end of the round
    #: how strongly the rate separates firing times: with ``b`` the
    #: deterministic component is ``T * b * u``, ``u`` in [0, 1] growing with
    #: the receiver's rate relative to ``RATE_SCALE``; ``T * (1 - b)`` is
    #: random.
    BIAS_STRENGTH = 0.8
    #: a heard report with rate ``r`` suppresses this receiver unless
    #: ``own_rate < r / SUPPRESS_FACTOR``.
    SUPPRESS_FACTOR = 1.2

    def __init__(
        self,
        sim: Simulator,
        send_report: Callable[[], None],
        rate_fn: Callable[[], float],
        rng: np.random.Generator,
        round_duration: float = 1.0,
    ) -> None:
        if round_duration <= 0:
            raise ValueError("round_duration must be positive")
        self.sim = sim
        self._send_report = send_report
        self.rate_fn = rate_fn
        self._rng = rng
        self.round_duration = round_duration
        self._timer = Timer(sim, self._fire)
        self._suppressed = False
        self.reports_sent = 0
        self.rounds_started = 0

    # ----------------------------------------------------------- round API

    def start_round(self) -> None:
        """Begin a feedback round: arm the biased timer."""
        self.rounds_started += 1
        self._suppressed = False
        self._timer.start(self._draw_delay())

    def cancel(self) -> None:
        self._timer.cancel()

    @property
    def pending(self) -> bool:
        return self._timer.pending

    def _draw_delay(self) -> float:
        """Rate-biased delay in (0, round_duration].

        The deterministic part orders receivers by rate (low rate earlier);
        a bounded uniform jitter randomizes ties so duplicate reports from
        equal-rate receivers stay limited.  Because the jitter is bounded by
        ``(1 - bias) * T``, two receivers whose deterministic components
        differ by more than that can never fire out of order.
        """
        rate = max(1.0, self.rate_fn())
        # Map rate onto [0, 1] logarithmically: 1 B/s .. RATE_SCALE.
        u = min(1.0, max(0.0, math.log1p(rate) / math.log1p(self.RATE_SCALE)))
        deterministic = self.round_duration * self.BIAS_STRENGTH * u
        random_part = self.round_duration * (1 - self.BIAS_STRENGTH)
        jitter = float(self._rng.uniform(0.0, random_part))
        return min(self.round_duration, deterministic + jitter)

    def _fire(self) -> None:
        if self._suppressed:
            return
        self.reports_sent += 1
        self._send_report()

    # ------------------------------------------------------- suppression in

    def on_heard_report(self, reported_rate: float) -> None:
        """Another receiver's report was echoed to the group.

        Cancel our pending report unless we are meaningfully worse off than
        the reporter (our rate lower by more than ``SUPPRESS_FACTOR``).
        """
        if not self._timer.pending:
            return
        own = self.rate_fn()
        if own < reported_rate / self.SUPPRESS_FACTOR:
            return  # we are the (new) bottleneck: keep our timer
        self._suppressed = True
        self._timer.cancel()
