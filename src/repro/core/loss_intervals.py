"""Loss-interval estimators.

The key design issue in equation-based congestion control is how the loss
event rate is measured (paper section 3.3).  This module implements the
method the paper adopts -- the **Average Loss Interval** method with history
discounting -- and the two alternatives the paper considers and rejects
(**EWMA Loss Interval** and **Dynamic History Window**), so the comparison
experiments can exercise all three.

All estimators consume the same event stream:

* ``on_packet()`` -- one in-order data packet arrived (extends the open
  interval s0);
* ``on_loss_event(interval_packets)`` -- a new loss event began; the interval
  just closed contained ``interval_packets`` packets.

and expose ``loss_event_rate()`` -> p (0 when no loss has been seen yet).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence


def ali_weights(n: int) -> List[float]:
    """Paper section 3.3 weights: 1 for the newest n/2 intervals, then
    linearly decaying.  For n=8: 1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2."""
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be an even integer >= 2")
    half = n // 2
    weights = []
    for i in range(1, n + 1):
        if i <= half:
            weights.append(1.0)
        else:
            weights.append(1.0 - (i - half) / (half + 1.0))
    return weights


ALI_DEFAULT_WEIGHTS = ali_weights(8)


def wali_fold_average(
    weighted: Sequence[float], values: Sequence[float]
) -> float:
    """Left-fold weighted average: sum(w*v) / sum(w), 0.0 when weightless.

    This is the scalar reference for the vector kernel's lane-parallel
    WALI fold (``_WaliLanes._fold_average``); the two must stay
    bit-identical, so both accumulate strictly left-to-right over the
    same ``weighted``/``values`` operands (``np.sum`` may reassociate and
    breaks that in the last ulp).  ``tests/test_twin_congruence.py``
    fuzzes the pair to bit equality.
    """
    total = 0.0
    total_weight = 0.0
    for w, v in zip(weighted, values):
        total += w * v
        total_weight += w
    if total_weight == 0.0:
        return 0.0
    return total / total_weight


class AverageLossIntervals:
    """The full Average Loss Interval method (paper section 3.3).

    * Weighted average over the last ``n`` closed intervals (s1..sn), weights
      ``ali_weights(n)``.
    * The open interval s0 is included only when it raises the average:
      the value used is ``max(s_hat, s_hat_new)`` where ``s_hat_new``
      averages s0..s(n-1) with the same weights.
    * History discounting: once s0 exceeds twice the (undiscounted) average,
      older intervals are discounted by ``2*avg/s0`` (floored at
      ``discount_floor``), which raises the effective normalized weight of
      the newest information up to ~0.4 -- the value Appendix A.1 uses for
      the 0.28 packets/RTT/RTT increase bound.  When the next loss event
      arrives the prevailing discount is folded permanently into the
      per-interval discount factors, as in the TFRC specification.

    The two folds that read the closed history alone -- the undiscounted
    average the discount test uses, and ``s_hat`` while no discount is in
    force -- are cached between history changes, so a report between loss
    events folds only ``s_hat_new``.  The cached values are the floats an
    uncached fold returns (``d * 1.0 == d``).
    """

    def __init__(
        self,
        n: int = 8,
        discounting: bool = True,
        discount_floor: float = 0.3,
    ) -> None:
        if not 0 < discount_floor <= 1:
            raise ValueError("discount_floor must be in (0, 1]")
        self.n = n
        self.weights = ali_weights(n)
        self.discounting = discounting
        self.discount_floor = discount_floor
        self._intervals: Deque[float] = deque(maxlen=n)  # newest first
        self._discounts: Deque[float] = deque(maxlen=n)  # parallel to above
        self._s0 = 0.0
        self.loss_events = 0
        # History-only folds, None until first read after a history change.
        self._undiscounted: Optional[float] = None
        self._s_hat: Optional[float] = None

    # ------------------------------------------------------------- updates

    def on_packet(self, count: float = 1.0) -> None:
        """Extend the open interval by ``count`` packets."""
        if count < 0:
            raise ValueError("count cannot be negative")
        self._s0 += count

    def on_loss_event(self, interval_packets: Optional[float] = None) -> None:
        """Close the open interval and start a new one.

        ``interval_packets`` overrides the internally counted s0 (useful when
        the caller measures intervals in sequence space); by default the
        packets counted via :meth:`on_packet` are used.
        """
        closed = self._s0 if interval_packets is None else float(interval_packets)
        if closed < 0:
            raise ValueError("interval length cannot be negative")
        # Fold the prevailing discount into history permanently.
        current_discount = self._current_discount()
        if current_discount < 1.0:
            self._discounts = deque(
                (d * current_discount for d in self._discounts), maxlen=self.n
            )
        self._intervals.appendleft(max(closed, 1.0))
        self._discounts.appendleft(1.0)
        self._s0 = 0.0
        self.loss_events += 1
        self._undiscounted = self._s_hat = None

    def seed(self, interval_packets: float) -> None:
        """Initialize history with one synthetic interval (slow-start exit).

        The paper (section 3.4.1): compute the loss interval that the control
        equation maps to half the rate at which slow start ended, and use it
        as the entire initial history.  Real data then displaces it.
        """
        if interval_packets <= 0:
            raise ValueError("seed interval must be positive")
        self._intervals.clear()
        self._discounts.clear()
        self._intervals.appendleft(float(interval_packets))
        self._discounts.appendleft(1.0)
        self._s0 = 0.0
        self.loss_events += 1
        self._undiscounted = self._s_hat = None

    @classmethod
    def from_state(
        cls,
        intervals: Sequence[float],
        discounts: Sequence[float],
        open_interval: float,
        loss_events: int,
        *,
        n: int = 8,
        discounting: bool = True,
        discount_floor: float = 0.3,
    ) -> "AverageLossIntervals":
        """Rebuild an estimator from a mid-run snapshot.

        ``intervals``/``discounts`` are the closed-interval history, newest
        first (the layout :attr:`history` reports).  Used by the batched
        cell kernel to hand a lane's loss history to a scalar continuation.
        """
        if len(intervals) != len(discounts):
            raise ValueError("intervals and discounts must be parallel")
        if len(intervals) > n:
            raise ValueError(f"history holds at most n={n} intervals")
        est = cls(n=n, discounting=discounting, discount_floor=discount_floor)
        est._intervals.extend(float(v) for v in intervals)
        est._discounts.extend(float(d) for d in discounts)
        est._s0 = float(open_interval)
        est.loss_events = int(loss_events)
        return est

    # ------------------------------------------------------------ averages

    @property
    def open_interval(self) -> float:
        """Current s0 (packets since the last loss event)."""
        return self._s0

    @property
    def history(self) -> List[float]:
        """Closed intervals, newest first."""
        return list(self._intervals)

    @property
    def discounts(self) -> List[float]:
        """Accumulated discount factors, parallel to :attr:`history`."""
        return list(self._discounts)

    def _weighted_average(
        self, intervals: Sequence[float], discounts: Sequence[float]
    ) -> float:
        weighted = [w * d for w, d in zip(self.weights, discounts)]
        return wali_fold_average(weighted, intervals)

    def _raw_average(self) -> float:
        """Average over closed intervals with accumulated discounts only:
        ``s_hat`` while no discount is in force (cached)."""
        s_hat = self._s_hat
        if s_hat is None:
            s_hat = self._s_hat = self._weighted_average(
                self._intervals, self._discounts
            )
        return s_hat

    def _current_discount(self) -> float:
        """Discount to apply to history while the current lull lasts."""
        if not self.discounting or not self._intervals:
            return 1.0
        raw = self._undiscounted
        if raw is None:
            raw = self._undiscounted = self._weighted_average(
                self._intervals, [1.0] * len(self._intervals)
            )
        if raw <= 0 or self._s0 <= 2.0 * raw:
            return 1.0
        return max(self.discount_floor, 2.0 * raw / self._s0)

    def average_interval(self) -> float:
        """The average loss interval max(s_hat, s_hat_new), in packets."""
        intervals = self._intervals
        if not intervals:
            return 0.0
        discount = self._current_discount()
        if discount == 1.0:
            discounts: Sequence[float] = self._discounts
            s_hat = self._raw_average()
        else:
            discounts = [d * discount for d in self._discounts]
            s_hat = self._weighted_average(intervals, discounts)
        n = self.n
        shifted_intervals = [self._s0, *intervals][:n]
        shifted_discounts = [1.0, *discounts][:n]
        s_hat_new = self._weighted_average(shifted_intervals, shifted_discounts)
        return max(s_hat, s_hat_new)

    def loss_event_rate(self) -> float:
        """p = 1 / average loss interval; 0 before any loss event."""
        avg = self.average_interval()
        if avg <= 0:
            return 0.0
        return min(1.0, 1.0 / avg)

    def newest_effective_weight(self) -> float:
        """Normalized weight of the newest information in the current average.

        Without discounting this is w1 / sum(w) = 1/6 for n=8; with maximum
        discounting it approaches 1 / (1 + floor*(sum(w)-1)) ~ 0.4.  Exposed
        for the Appendix A.1 experiments.
        """
        if not self._intervals:
            return 1.0
        discount = self._current_discount()
        discounts = [d * discount for d in self._discounts]
        shifted = [1.0] + discounts[: self.n - 1]
        weights = [w * d for w, d in zip(self.weights, shifted)]
        total = sum(weights)
        if total == 0:
            return 1.0
        return weights[0] / total


class EwmaLossIntervals:
    """EWMA of the inter-loss interval (rejected alternative, section 3.3).

    Depending on the weight this either overreacts to the newest interval or
    is too slow to react; included for the estimator-comparison experiments.
    """

    def __init__(self, weight: float = 0.25) -> None:
        if not 0 < weight <= 1:
            raise ValueError("weight must be in (0, 1]")
        self.weight = weight
        self._avg: Optional[float] = None
        self._s0 = 0.0
        self.loss_events = 0

    def on_packet(self, count: float = 1.0) -> None:
        self._s0 += count

    def on_loss_event(self, interval_packets: Optional[float] = None) -> None:
        closed = self._s0 if interval_packets is None else float(interval_packets)
        closed = max(closed, 1.0)
        if self._avg is None:
            self._avg = closed
        else:
            self._avg += self.weight * (closed - self._avg)
        self._s0 = 0.0
        self.loss_events += 1

    def average_interval(self) -> float:
        if self._avg is None:
            return 0.0
        # Mirror ALI's treatment of s0: only let a long lull raise the average.
        return max(self._avg, self._s0) if self._s0 > self._avg else self._avg

    def loss_event_rate(self) -> float:
        avg = self.average_interval()
        return 0.0 if avg <= 0 else min(1.0, 1.0 / avg)


class DynamicHistoryWindow:
    """Loss rate over a rate-scaled window of packets (rejected alternative).

    Keeps the most recent ``window_packets()`` packet outcomes and reports
    the fraction that started loss events.  Its flaw -- loss events entering
    and leaving the window modulate the measured rate even under perfectly
    periodic loss -- is demonstrated by the estimator-comparison experiment.
    """

    def __init__(self, window_packets: int = 800) -> None:
        if window_packets < 2:
            raise ValueError("window must hold at least 2 packets")
        self.window = window_packets
        self._outcomes: Deque[bool] = deque(maxlen=window_packets)
        self.loss_events = 0

    def set_window(self, window_packets: int) -> None:
        """Resize the window (rate changed); keeps the newest outcomes."""
        if window_packets < 2:
            raise ValueError("window must hold at least 2 packets")
        newest = list(self._outcomes)[-window_packets:]
        self.window = window_packets
        self._outcomes = deque(newest, maxlen=window_packets)

    def on_packet(self, count: float = 1.0) -> None:
        for _ in range(int(count)):
            self._outcomes.append(False)

    def on_loss_event(self, interval_packets: Optional[float] = None) -> None:
        self._outcomes.append(True)
        self.loss_events += 1

    def loss_event_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return sum(self._outcomes) / len(self._outcomes)

    def average_interval(self) -> float:
        p = self.loss_event_rate()
        return 0.0 if p == 0 else 1.0 / p
