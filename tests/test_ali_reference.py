"""Differential test: incremental ALI vs a direct paper-formula reference.

The Average Loss Interval estimator in ``repro.core.loss_intervals`` keeps
incremental state (deques, folded discounts).  This module re-derives the
estimate directly from the paper's section 3.3 formulas -- a plain
function of (closed interval history, open interval) -- and checks the
incremental implementation against it over randomized event sequences.
Discounting is off for the exact-equality comparison (its fold-in rule is
stateful by design) and covered separately by monotonicity properties.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_models import newest_effective_weight
from repro.core.loss_intervals import AverageLossIntervals, ali_weights


def reference_average(history_newest_first, s0, n=8):
    """Paper 3.3: s_hat over s1..sn, s_hat_new over s0..s(n-1), take max."""
    weights = ali_weights(n)
    hist = [max(1.0, h) for h in history_newest_first[:n]]

    def weighted(values):
        pairs = list(zip(values, weights))
        total_w = sum(w for _, w in pairs)
        return sum(v * w for v, w in pairs) / total_w if total_w else 0.0

    if not hist:
        return 0.0
    s_hat = weighted(hist)
    s_hat_new = weighted([s0] + hist[: n - 1])
    return max(s_hat, s_hat_new)


intervals_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    min_size=0, max_size=20,
)
s0_strategy = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


class TestAgainstReference:
    @given(intervals=intervals_strategy, s0=s0_strategy)
    def test_matches_paper_formula(self, intervals, s0):
        ali = AverageLossIntervals(n=8, discounting=False)
        for interval in intervals:
            ali.on_loss_event(interval)
        ali.on_packet(s0)
        history = [max(1.0, i) for i in reversed(intervals)]  # newest first
        expected = reference_average(history, s0)
        assert ali.average_interval() == pytest.approx(expected, rel=1e-12)

    @given(intervals=intervals_strategy, s0=s0_strategy,
           n=st.sampled_from([2, 4, 8, 16]))
    def test_matches_reference_for_other_history_sizes(self, intervals, s0, n):
        ali = AverageLossIntervals(n=n, discounting=False)
        for interval in intervals:
            ali.on_loss_event(interval)
        ali.on_packet(s0)
        history = [max(1.0, i) for i in reversed(intervals)]
        expected = reference_average(history, s0, n=n)
        assert ali.average_interval() == pytest.approx(expected, rel=1e-12)

    @given(intervals=st.lists(st.floats(1.0, 1e3), min_size=1, max_size=12))
    def test_packet_counting_equals_explicit_interval(self, intervals):
        """Feeding s0 via on_packet then closing must equal passing the
        interval length explicitly."""
        counted = AverageLossIntervals(discounting=False)
        explicit = AverageLossIntervals(discounting=False)
        for interval in intervals:
            counted.on_packet(interval)
            counted.on_loss_event()
            explicit.on_loss_event(interval)
        assert counted.average_interval() == pytest.approx(
            explicit.average_interval()
        )


class TestDiscountingProperties:
    @given(intervals=st.lists(st.floats(1.0, 500.0), min_size=2, max_size=8),
           lull=st.floats(0.0, 1e4))
    def test_discounting_never_lowers_the_estimate(self, intervals, lull):
        """During a lull, discounting shifts weight toward the newest
        information (the long s0), so it can only raise the average."""
        plain = AverageLossIntervals(discounting=False)
        discounted = AverageLossIntervals(discounting=True)
        for interval in intervals:
            plain.on_loss_event(interval)
            discounted.on_loss_event(interval)
        plain.on_packet(lull)
        discounted.on_packet(lull)
        assert discounted.average_interval() >= plain.average_interval() - 1e-9

    @given(intervals=st.lists(st.floats(1.0, 500.0), min_size=2, max_size=8))
    def test_no_discount_before_threshold(self, intervals):
        """Discounting must not engage until s0 exceeds twice the average
        (paper: 'only invoked after the most recent loss interval is
        greater than twice the average')."""
        plain = AverageLossIntervals(discounting=False)
        discounted = AverageLossIntervals(discounting=True)
        for interval in intervals:
            plain.on_loss_event(interval)
            discounted.on_loss_event(interval)
        raw = plain._weighted_average(
            plain._intervals, [1.0] * len(plain._intervals)
        )
        plain.on_packet(2.0 * raw * 0.99)
        discounted.on_packet(2.0 * raw * 0.99)
        assert discounted.average_interval() == pytest.approx(
            plain.average_interval()
        )

    @given(intervals=st.lists(st.floats(1.0, 500.0), min_size=2, max_size=8),
           lull=st.floats(0.0, 1e4))
    def test_newest_effective_weight_bounded(self, intervals, lull):
        ali = AverageLossIntervals(discounting=True)
        for interval in intervals:
            ali.on_loss_event(interval)
        ali.on_packet(lull)
        weight = newest_effective_weight(ali)
        assert 0.0 < weight <= 1.0
