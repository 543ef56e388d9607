"""Unit and property tests for the loss-interval estimators."""

import pytest
from hypothesis import given, settings, strategies as st

from reference_models import newest_effective_weight
from repro.core.loss_intervals import (
    ALI_DEFAULT_WEIGHTS,
    AverageLossIntervals,
    DynamicHistoryWindow,
    EwmaLossIntervals,
    ali_weights,
    wali_fold_average,
)


class TestWeights:
    def test_paper_n8_weights(self):
        assert ali_weights(8) == pytest.approx([1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2])

    def test_default_is_n8(self):
        assert ALI_DEFAULT_WEIGHTS == ali_weights(8)

    def test_n4(self):
        assert ali_weights(4) == pytest.approx([1, 1, 2 / 3, 1 / 3])

    def test_odd_or_small_rejected(self):
        with pytest.raises(ValueError):
            ali_weights(7)
        with pytest.raises(ValueError):
            ali_weights(0)

    @given(st.integers(min_value=1, max_value=16).map(lambda k: 2 * k))
    def test_weights_nonincreasing_positive(self, n):
        weights = ali_weights(n)
        assert all(w > 0 for w in weights)
        assert all(a >= b for a, b in zip(weights, weights[1:]))


def feed_intervals(ali, intervals):
    """Feed closed intervals (oldest first) through the estimator."""
    for interval in intervals:
        ali.on_packet(interval)
        ali.on_loss_event()


class TestAverageLossIntervals:
    def test_no_loss_means_zero_rate(self):
        ali = AverageLossIntervals()
        ali.on_packet(500)
        assert ali.loss_event_rate() == 0.0
        assert ali.average_interval() == 0.0

    def test_constant_intervals_give_exact_rate(self):
        ali = AverageLossIntervals(discounting=False)
        feed_intervals(ali, [100] * 10)
        assert ali.average_interval() == pytest.approx(100.0)
        assert ali.loss_event_rate() == pytest.approx(0.01)

    def test_stability_under_periodic_loss(self):
        """Paper: with a stable loss rate the estimate must be completely
        stable, including as s0 grows between losses."""
        ali = AverageLossIntervals(discounting=False)
        feed_intervals(ali, [100] * 8)
        estimates = []
        for _ in range(99):
            ali.on_packet(1)
            estimates.append(ali.average_interval())
        assert max(estimates) - min(estimates) < 1e-9

    def test_s0_ignored_until_it_raises_average(self):
        ali = AverageLossIntervals(discounting=False)
        feed_intervals(ali, [100] * 8)
        ali.on_packet(50)  # open interval shorter than average: ignored
        assert ali.average_interval() == pytest.approx(100.0)

    def test_long_s0_raises_average(self):
        ali = AverageLossIntervals(discounting=False)
        feed_intervals(ali, [100] * 8)
        ali.on_packet(1000)
        assert ali.average_interval() > 100.0

    def test_rate_decrease_responds_quickly(self):
        """Several short intervals must raise p strongly (paper guideline)."""
        ali = AverageLossIntervals(discounting=False)
        feed_intervals(ali, [100] * 8)
        p_before = ali.loss_event_rate()
        feed_intervals(ali, [10] * 4)
        # Newest-first history [10]*4 + [100]*4 with the n=8 weights gives
        # s_hat = (4*10 + 2*100)/6 = 40, i.e. p jumps 2.5x after four short
        # intervals.
        assert ali.loss_event_rate() > 2 * p_before

    def test_estimate_increases_only_on_new_loss_or_long_interval(self):
        """p must never increase while no loss occurs (paper guideline)."""
        ali = AverageLossIntervals()
        feed_intervals(ali, [50, 100, 80, 120, 90, 60, 100, 100])
        last_p = ali.loss_event_rate()
        for _ in range(500):
            ali.on_packet(1)
            p = ali.loss_event_rate()
            assert p <= last_p + 1e-12
            last_p = p

    def test_history_discounting_engages_after_2x(self):
        ali = AverageLossIntervals(discounting=True)
        feed_intervals(ali, [100] * 8)
        ali.on_packet(150)
        assert ali._current_discount() == 1.0
        ali.on_packet(100)  # s0 = 250 > 2*100
        assert ali._current_discount() < 1.0

    def test_discounting_raises_newest_weight_toward_04(self):
        ali = AverageLossIntervals(discounting=True, discount_floor=0.3)
        feed_intervals(ali, [100] * 8)
        assert newest_effective_weight(ali) == pytest.approx(1 / 6, rel=0.01)
        ali.on_packet(10_000)  # deep discounting
        assert newest_effective_weight(ali) == pytest.approx(0.4, abs=0.02)

    def test_discounting_speeds_up_recovery(self):
        plain = AverageLossIntervals(discounting=False)
        discounted = AverageLossIntervals(discounting=True)
        for ali in (plain, discounted):
            feed_intervals(ali, [100] * 8)
            ali.on_packet(1000)
        assert discounted.average_interval() > plain.average_interval()

    def test_discount_folded_into_history_on_loss(self):
        ali = AverageLossIntervals(discounting=True)
        feed_intervals(ali, [100] * 8)
        ali.on_packet(1000)
        discounted_avg = ali.average_interval()
        ali.on_loss_event()  # folds the discount into history
        # New average (closed intervals incl. the 1000) stays elevated
        # rather than snapping back to ~100.
        assert ali.average_interval() > 150

    def test_seed_replaces_history(self):
        ali = AverageLossIntervals()
        feed_intervals(ali, [5, 5, 5])
        ali.seed(200)
        assert ali.average_interval() == pytest.approx(200.0)
        assert ali.loss_event_rate() == pytest.approx(0.005)

    def test_minimum_interval_is_one_packet(self):
        ali = AverageLossIntervals()
        ali.on_loss_event(0)
        assert ali.average_interval() >= 1.0
        assert ali.loss_event_rate() <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AverageLossIntervals(discount_floor=0.0)
        ali = AverageLossIntervals()
        with pytest.raises(ValueError):
            ali.on_packet(-1)
        with pytest.raises(ValueError):
            ali.seed(0)

    @given(
        st.lists(st.floats(min_value=1, max_value=10_000), min_size=1, max_size=40)
    )
    @settings(max_examples=100)
    def test_average_within_interval_range(self, intervals):
        """The weighted average lies within [min, max] of the fed data."""
        ali = AverageLossIntervals(discounting=False)
        feed_intervals(ali, intervals)
        window = intervals[-8:]
        avg = ali.average_interval()
        assert min(window) - 1e-9 <= avg <= max(window) + 1e-9

    @given(st.lists(st.integers(min_value=1, max_value=1000), min_size=9, max_size=50))
    @settings(max_examples=100)
    def test_rate_in_unit_range(self, intervals):
        ali = AverageLossIntervals()
        feed_intervals(ali, intervals)
        assert 0.0 < ali.loss_event_rate() <= 1.0

    @pytest.mark.parametrize("intervals, s0, discounting, average", [
        # Weights 1, 1, 1, 1, .8, .6, .4, .2 (sum 6) over s1..s8; the open
        # interval counts, shifted in as s0, only when that raises the mean.
        ([100] * 8, 0, True, 100.0),
        ([100] * 8, 150, True, (150 + 5 * 100) / 6),
        ([100] * 8, 200, True, (200 + 5 * 100) / 6),  # 2x: not yet discounted
        # s0 = 400 discounts s1..s7 by 2 * 100 / 400 = 0.5: weights
        # 1, .5, .5, .5, .4, .3, .2, .1 (sum 3.5) over 400, 100 x 7.
        ([100] * 8, 400, True, (400 + 2.5 * 100) / 3.5),
        # s0 = 1000 would discount by 0.2; the floor holds it at 0.3.
        ([100] * 8, 1000, True, (1000 + 1.5 * 100) / 2.5),
        ([100] * 8, 1000, False, (1000 + 5 * 100) / 6),
        # Newest first: s_hat = (10 + 20 + 30 + 40 + .8*50 + .6*60 + .4*70
        # + .2*80) / 6; shifting in s0 = 0 would only lower it.
        ([10, 20, 30, 40, 50, 60, 70, 80], 0, True, 220 / 6),
        ([50, 100], 0, True, 75.0),  # a short history: the weights it has
    ])
    def test_worked_examples(self, intervals, s0, discounting, average):
        """Section 3.3's average loss interval, with history discounting,
        on histories small enough to work out by hand."""
        ali = AverageLossIntervals.from_state(
            intervals, [1.0] * len(intervals), s0, len(intervals),
            discounting=discounting,
        )
        assert ali.average_interval() == pytest.approx(average, rel=1e-12)
        assert ali.loss_event_rate() == pytest.approx(1 / average, rel=1e-12)

    def test_worked_example_of_folding_the_discount(self):
        """s0 = 400 over eight 100s closes with discount 0.5 folded into
        s2..s8: the closed-history mean is the 185.7 the lull reached, and
        the new, empty s0 cannot raise it ((400 + 2 * 100) / 4 = 150)."""
        ali = AverageLossIntervals.from_state([100] * 8, [1.0] * 8, 400, 8)
        ali.on_loss_event()
        assert ali.history == [400.0] + [100.0] * 7
        assert ali.average_interval() == pytest.approx(650 / 3.5, rel=1e-12)


class UncachedAli(AverageLossIntervals):
    """Reference: every call folds the history afresh (three folds per
    average), with nothing cached."""

    def _fold(self, values, discounts):
        weighted = [w * d for w, d in zip(self.weights, discounts)]
        return wali_fold_average(weighted, values)

    def _raw_average(self):
        return self._fold(self._intervals, self._discounts)

    def _current_discount(self):
        if not self.discounting or not self._intervals:
            return 1.0
        raw = self._fold(self._intervals, [1.0] * len(self._intervals))
        if raw <= 0 or self._s0 <= 2.0 * raw:
            return 1.0
        return max(self.discount_floor, 2.0 * raw / self._s0)

    def average_interval(self):
        if not self._intervals:
            return 0.0
        discount = self._current_discount()
        discounts = [d * discount for d in self._discounts]
        s_hat = self._fold(self._intervals, discounts)
        shifted_intervals = [self._s0] + list(self._intervals)[: self.n - 1]
        shifted_discounts = [1.0] + discounts[: self.n - 1]
        return max(s_hat, self._fold(shifted_intervals, shifted_discounts))


ALI_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("packets"), st.integers(min_value=0, max_value=900)),
        st.tuples(st.just("loss"), st.none() | st.integers(0, 300)),
        st.tuples(st.just("seed"), st.floats(min_value=0.5, max_value=500)),
        st.tuples(st.just("from_state"), st.none()),
    ),
    max_size=60,
)


def ali_snapshot(ali):
    """Everything observable, floats as hex so equal means bit-identical."""
    return (
        [v.hex() for v in ali._intervals],
        [d.hex() for d in ali._discounts],
        ali.open_interval.hex(),
        ali.loss_events,
        ali.average_interval().hex(),
        ali.loss_event_rate().hex(),
        newest_effective_weight(ali).hex(),
    )


class TestCachedFoldsAgainstUncached:
    """The cached raw average and ``s_hat`` at discount 1 must give the
    floats an uncached fold gives, after every update, with discounting on
    and off, and through ``seed`` / ``from_state`` / ``on_loss_event``."""

    @given(ALI_OPS, st.booleans(), st.sampled_from([0.3, 0.75, 1.0]),
           st.sampled_from([2, 4, 8]))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_after_every_update(self, ops, discounting, floor, n):
        kwargs = dict(n=n, discounting=discounting, discount_floor=floor)
        cached, uncached = AverageLossIntervals(**kwargs), UncachedAli(**kwargs)
        for op, arg in ops:
            if op == "from_state":
                cached, uncached = (
                    type(ali).from_state(
                        ali.history, list(ali._discounts), ali.open_interval,
                        ali.loss_events, **kwargs,
                    )
                    for ali in (cached, uncached)
                )
            else:
                for ali in (cached, uncached):
                    if op == "packets":
                        ali.on_packet(arg)
                    elif op == "loss":
                        ali.on_loss_event(arg)
                    else:
                        ali.seed(arg)
            # Twice: the second read is served from the cache.
            assert ali_snapshot(cached) == ali_snapshot(uncached)
            assert ali_snapshot(cached) == ali_snapshot(uncached)

    def test_a_lull_in_steps_crosses_into_discounting_and_back(self):
        """Between two loss events the cache serves many reports: below the
        2x threshold (the cached ``s_hat``), past it (a discounted fold),
        and after the loss event that folds the discount in."""
        cached, uncached = AverageLossIntervals(), UncachedAli()
        for ali in (cached, uncached):
            for interval in (120, 80, 100, 95, 110, 90, 105, 100):
                ali.on_packet(interval)
                ali.on_loss_event()
        for step in range(60):
            for ali in (cached, uncached):
                ali.on_packet(10)
            assert ali_snapshot(cached) == ali_snapshot(uncached)
            if step == 45:
                for ali in (cached, uncached):
                    ali.on_loss_event()
        assert cached._current_discount() == uncached._current_discount() == 1.0


class TestEwmaLossIntervals:
    def test_first_interval_sets_average(self):
        est = EwmaLossIntervals(weight=0.25)
        est.on_packet(80)
        est.on_loss_event()
        assert est.average_interval() == pytest.approx(80.0)

    def test_converges_to_constant(self):
        est = EwmaLossIntervals(weight=0.25)
        feed_intervals(est, [100] * 50)
        assert est.average_interval() == pytest.approx(100.0)

    def test_heavier_weight_reacts_faster(self):
        fast = EwmaLossIntervals(weight=0.9)
        slow = EwmaLossIntervals(weight=0.1)
        for est in (fast, slow):
            feed_intervals(est, [100] * 20)
            feed_intervals(est, [10] * 2)
        assert fast.average_interval() < slow.average_interval()

    def test_validation(self):
        with pytest.raises(ValueError):
            EwmaLossIntervals(weight=0)


class TestDynamicHistoryWindow:
    def test_rate_is_events_over_window(self):
        win = DynamicHistoryWindow(window_packets=100)
        for _ in range(99):
            win.on_packet()
        win.on_loss_event()
        assert win.loss_event_rate() == pytest.approx(0.01)

    def test_window_boundary_noise(self):
        """The paper's criticism: under perfectly periodic loss the measured
        rate fluctuates as events enter/leave the window."""
        win = DynamicHistoryWindow(window_packets=250)
        rates = []
        for _ in range(20):
            for _ in range(99):
                win.on_packet()
            win.on_loss_event()
            rates.append(win.loss_event_rate())
        assert max(rates) - min(rates) > 1e-4  # visibly noisy

    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicHistoryWindow(window_packets=1)
