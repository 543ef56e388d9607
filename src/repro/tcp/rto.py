"""Retransmission timeout estimation (RFC 6298-style, with clock granularity).

The paper emphasizes that "different TCPs use drastically different clock
granularities to calculate retransmit timeout values" (section 3.2) and that
this matters under high loss (section 4.3: the FreeBSD 500 ms clock is
conservative; Solaris' aggressive timer frequently retransmits
unnecessarily).  This estimator therefore exposes:

* ``granularity`` -- RTO values are rounded up to a multiple of the clock
  tick, mimicking a coarse timer wheel;
* ``min_rto`` -- the floor aggressive stacks set too low;
* ``k`` -- the RTTVAR multiplier (4 in the standard algorithm).
"""

from __future__ import annotations

import math
from typing import Optional


class RTOEstimator:
    """SRTT/RTTVAR estimator with exponential backoff."""

    MAX_RTO = 64.0
    ALPHA = 1.0 / 8.0  # SRTT gain (RFC 6298)
    BETA = 1.0 / 4.0  # RTTVAR gain (RFC 6298)
    INITIAL_RTO = 3.0  # before the first sample (RFC 2988)

    def __init__(
        self,
        granularity: float = 0.5,
        min_rto: float = 1.0,
        k: float = 4.0,
    ) -> None:
        if granularity < 0:
            raise ValueError("granularity cannot be negative")
        if min_rto <= 0:
            raise ValueError("min_rto must be positive")
        self.granularity = float(granularity)
        self.min_rto = float(min_rto)
        self.k = float(k)
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self._base_rto = self.INITIAL_RTO
        self._backoff = 1

    def sample(self, rtt: float) -> None:
        """Feed one RTT measurement (Karn-filtered by the caller)."""
        if rtt <= 0:
            raise ValueError(f"rtt must be positive, got {rtt}")
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            assert self.rttvar is not None
            self.rttvar += self.BETA * (abs(self.srtt - rtt) - self.rttvar)
            self.srtt += self.ALPHA * (rtt - self.srtt)
        self._base_rto = self.srtt + self.k * max(self.rttvar, self.granularity)
        self._backoff = 1  # a valid sample clears backoff

    def backoff(self) -> None:
        """Double the effective RTO after a retransmission timeout."""
        self._backoff = min(self._backoff * 2, 64)

    @property
    def rto(self) -> float:
        """Current retransmission timeout in seconds."""
        rto = self._base_rto * self._backoff
        if self.granularity > 0:
            rto = math.ceil(rto / self.granularity) * self.granularity
        return min(self.MAX_RTO, max(self.min_rto, rto))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<RTOEstimator srtt={self.srtt} rttvar={self.rttvar} "
            f"rto={self.rto:.3f}>"
        )
