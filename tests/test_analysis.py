"""Unit and property tests for the analysis layer."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.bernoulli import (
    consistent_loss_event_fraction,
    loss_event_fraction_analytic,
    packets_per_rtt_from_equation,
    simulate_loss_event_fraction,
)
from repro.analysis.cov import coefficient_of_variation
from repro.analysis.equivalence import equivalence_ratio, equivalence_series
from repro.analysis.predictor import (
    make_weights,
    predictor_errors,
    weighted_interval_predictor,
)
from repro.analysis.stats import confidence_interval, mean_and_ci, t_critical_90
from repro.net.monitor import FlowMonitor
from repro.net.packet import Packet
from repro.sim.trace import CHUNK

from reference_models import rate_series_reference


def monitor_of(arrivals, flow_id="f"):
    """A ``FlowMonitor`` fed the time-ordered ``(time, bytes)`` arrivals."""
    monitor = FlowMonitor()
    for seq, (time, size) in enumerate(arrivals):
        monitor.on_packet(time, Packet(flow_id=flow_id, seq=seq, size=size))
    return monitor


def rate_series(arrivals, t0, t1, tau):
    return monitor_of(arrivals).rate_series("f", t0, t1, tau)


@st.composite
def arrival_streams(draw):
    """A window, and arrivals on its bin edges, one ulp below them, before
    ``t0``, at or after ``t1`` and inside it, plus one an ulp below the
    window end (where the bin quotient can round up to ``n_bins``): some
    drawn one by one, the rest (up to two ``CHUNK``s, so both packed and
    buffered monitor entries count) from a seeded generator."""
    t0 = draw(st.one_of(
        st.just(0.0), st.integers(-50, 50).map(float), st.floats(-50.0, 50.0)
    ))
    tau = draw(st.one_of(
        st.sampled_from((0.1, 0.15, 0.3, 0.5, 1.0)), st.floats(1e-3, 5.0)
    ))
    n_bins = draw(st.integers(0, 300))
    t1 = t0 + n_bins * tau + draw(st.floats(0.0, 1.0)) * tau
    edges = [t0 + k * tau for k in range(n_bins + 1)]
    end = edges[-1]
    below = [math.nextafter(e, -math.inf) for e in edges]
    times = st.one_of(
        st.sampled_from(edges),
        st.sampled_from(below),
        st.just(end),
        st.just(t1),
        st.floats(t0 - 10.0, t0, exclude_max=True),
        st.floats(t1, t1 + 10.0),
        st.floats(t0, t1),
    )
    picked = draw(st.lists(
        st.tuples(times, st.integers(1, 2**31)), max_size=40
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bulk = draw(st.sampled_from((0, CHUNK - 1, CHUNK + 7, 2 * CHUNK + 3)))
    pool = np.concatenate([edges, below, [t0 - 1.0, t1, t1 + 1.0]])
    bulk_times = np.where(
        rng.random(bulk) < 0.5,
        rng.choice(pool, bulk),
        rng.uniform(t0 - tau, t1 + tau, bulk),
    )
    sizes = rng.integers(1, 2**31, bulk, endpoint=True)
    arrivals = picked + list(zip(bulk_times.tolist(), sizes.tolist()))
    arrivals.append((math.nextafter(end, -math.inf), draw(st.integers(1, 2**31))))
    return sorted(arrivals, key=lambda pair: pair[0]), t0, t1, tau


class TestRateSeries:
    def test_binning(self):
        arrivals = [(0.1, 1000), (0.9, 1000), (1.5, 2000)]
        series = rate_series(arrivals, 0.0, 2.0, 1.0)
        assert series.tolist() == [2000.0, 2000.0]

    def test_events_outside_window_ignored(self):
        arrivals = [(-1.0, 500), (0.5, 1000), (9.0, 500)]
        series = rate_series(arrivals, 0.0, 2.0, 1.0)
        assert series.tolist() == [1000.0, 0.0]

    def test_rate_units_bytes_per_second(self):
        arrivals = [(0.25, 100)]
        series = rate_series(arrivals, 0.0, 0.5, 0.5)
        assert series.tolist() == [200.0]

    def test_unknown_flow_is_all_zeros(self):
        series = FlowMonitor().rate_series("missing", 0.0, 2.0, 0.5)
        assert series.tobytes() == rate_series_reference([], 0.0, 2.0, 0.5).tobytes()

    @pytest.mark.parametrize(
        "time, t1, tau",
        [(19.799999999999997, 20.0, 0.3), (9.899999999999999, 10.0, 0.15)],
    )
    def test_arrival_one_ulp_below_the_edge_lands_in_the_last_bin(
        self, time, t1, tau
    ):
        # (time - t0) / tau rounds up to n_bins although time < n_bins * tau.
        series = rate_series([(time, 1000)], 0.0, t1, tau)
        assert len(series) == 66
        assert series[-1] == 1000 / tau and series[:-1].sum() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="tau must be positive"):
            rate_series([], 0, 1, 0)
        with pytest.raises(ValueError, match="need t1 > t0"):
            rate_series([], 1, 0, 0.1)
        with pytest.raises(ValueError, match="shorter than one timescale bin"):
            rate_series([], 0, 0.1, 1.0)

    @pytest.mark.parametrize("name, window", [
        ("t0", (-math.inf, 1.0, 0.1)),
        ("t1", (0.0, math.inf, 1.0)),
        ("t1", (0.0, math.nan, 1.0)),
        ("tau", (0.0, 1.0, math.nan)),
        ("tau", (0.0, 1.0, math.inf)),
    ], ids=["t0=-inf", "t1=inf", "t1=nan", "tau=nan", "tau=inf"])
    def test_non_finite_window_names_the_argument(self, name, window):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            rate_series([(0.5, 1000)], *window)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=9.99),
                st.integers(min_value=1, max_value=1500),
            ),
            max_size=100,
        )
    )
    @settings(max_examples=50)
    def test_total_bytes_conserved(self, arrivals):
        series = rate_series(sorted(arrivals), 0.0, 10.0, 1.0)
        assert series.sum() * 1.0 == pytest.approx(sum(b for _, b in arrivals))

    @given(arrival_streams())
    @example(([(19.799999999999997, 1000), (20.0, 7)], 0.0, 20.0, 0.3))
    @example(([(9.899999999999999, 1000), (9.9, 5)], 0.0, 10.0, 0.15))
    @settings(max_examples=60)
    def test_bit_identical_to_the_per_arrival_loop(self, stream):
        arrivals, t0, t1, tau = stream
        try:
            expected = rate_series_reference(arrivals, t0, t1, tau)
        except ValueError as error:
            with pytest.raises(ValueError, match=f"^{error}$"):
                rate_series(arrivals, t0, t1, tau)
            return
        monitor = monitor_of(arrivals)
        assert monitor.rate_series("f", t0, t1, tau).tobytes() == expected.tobytes()
        assert monitor.rate_series("other", t0, t1, tau).tobytes() == (
            rate_series_reference([], t0, t1, tau).tobytes()
        )


class TestCov:
    def test_constant_series_zero(self):
        assert coefficient_of_variation([5, 5, 5]) == 0.0

    def test_empty_and_zero_series(self):
        assert coefficient_of_variation([]) == 0.0
        assert coefficient_of_variation([0, 0]) == 0.0

    def test_known_value(self):
        # [1, 3]: mean 2, population std 1 -> CoV 0.5
        assert coefficient_of_variation([1, 3]) == pytest.approx(0.5)

    def test_scale_invariance(self):
        base = [1.0, 2.0, 4.0, 3.0]
        assert coefficient_of_variation(base) == pytest.approx(
            coefficient_of_variation([10 * v for v in base])
        )

    def test_cov_decreases_with_timescale_for_bursty_flow(self):
        """Aggregating a bursty arrival process smooths it."""
        # one packet a second, each alone in a 0.5 s bin: on/off at tau=0.5
        arrivals = [(float(t), 1000) for t in range(100)]
        covs = [
            coefficient_of_variation(rate_series(arrivals, 0, 100, tau))
            for tau in (0.5, 2.0, 10.0)
        ]
        assert covs[0] == pytest.approx(1.0)
        assert covs[0] > covs[1] == covs[2] == 0.0

    @given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=2, max_size=50))
    @settings(max_examples=50)
    def test_nonnegative(self, series):
        assert coefficient_of_variation(series) >= 0.0


class TestEquivalence:
    def test_identical_series_is_one(self):
        assert equivalence_ratio([1, 2, 3], [1, 2, 3]) == 1.0

    def test_factor_two_is_half(self):
        assert equivalence_ratio([2, 2], [4, 4]) == pytest.approx(0.5)

    def test_symmetry(self):
        a, b = [1, 5, 2], [3, 1, 2]
        assert equivalence_ratio(a, b) == pytest.approx(equivalence_ratio(b, a))

    def test_one_zero_counts_as_zero(self):
        series = equivalence_series([1, 0], [1, 1])
        assert series == [1.0, 0.0]

    def test_both_zero_excluded(self):
        series = equivalence_series([0, 1], [0, 1])
        assert series[0] is None
        assert equivalence_ratio([0, 1], [0, 1]) == 1.0

    def test_all_zero_is_nan(self):
        assert math.isnan(equivalence_ratio([0, 0], [0, 0]))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            equivalence_ratio([1], [1, 2])

    def test_pairwise(self):
        """Figure 9's per-pair samples: one ratio per flow pair, then the mean."""
        series = {"a": [1, 1], "b": [1, 1], "c": [2, 2]}
        ratios = [
            equivalence_ratio(series[x], series[y]) for x, y in [("a", "b"), ("a", "c")]
        ]
        assert ratios == [1.0, pytest.approx(0.5)]
        assert np.mean(ratios) == pytest.approx((1.0 + 0.5) / 2)

    @given(
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=30),
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=30),
    )
    @settings(max_examples=50)
    def test_bounded_zero_one(self, a, b):
        n = min(len(a), len(b))
        ratio = equivalence_ratio(a[:n], b[:n])
        assert math.isnan(ratio) or 0.0 <= ratio <= 1.0


class TestBernoulli:
    def test_zero_loss(self):
        assert loss_event_fraction_analytic(0.0, 10.0) == 0.0

    def test_n_of_one_is_identity(self):
        for p in (0.01, 0.1, 0.3):
            assert loss_event_fraction_analytic(p, 1.0) == pytest.approx(p)

    def test_event_fraction_below_loss_fraction(self):
        for p in (0.01, 0.05, 0.2):
            assert loss_event_fraction_analytic(p, 10.0) < p

    def test_monte_carlo_matches_analytic(self):
        p, n = 0.05, 6.0
        analytic = loss_event_fraction_analytic(p, n)
        simulated = simulate_loss_event_fraction(
            p, n, total_packets=400_000, rng=np.random.default_rng(1)
        )
        assert simulated == pytest.approx(analytic, rel=0.08)

    def test_consistent_fixed_point_stable(self):
        p_event = consistent_loss_event_fraction(0.05)
        n = max(1.0, packets_per_rtt_from_equation(p_event))
        assert loss_event_fraction_analytic(0.05, n) == pytest.approx(
            p_event, rel=1e-6
        )

    def test_faster_flow_has_lower_event_fraction(self):
        """Paper: 'the faster the sender transmits, the lower the
        loss-event fraction.'"""
        slow = consistent_loss_event_fraction(0.1, rate_multiplier=0.5)
        fast = consistent_loss_event_fraction(0.1, rate_multiplier=2.0)
        assert fast <= slow

    def test_validation(self):
        with pytest.raises(ValueError):
            loss_event_fraction_analytic(-0.1, 5)
        with pytest.raises(ValueError):
            loss_event_fraction_analytic(0.1, 0)


class TestPredictor:
    def test_constant_trace_predicts_exactly(self):
        mean_err, std_err = predictor_errors([100.0] * 30, history=8, decreasing=True)
        assert mean_err == pytest.approx(0.0, abs=1e-12)
        assert std_err == pytest.approx(0.0, abs=1e-12)

    def test_weights_shapes(self):
        assert make_weights(4, decreasing=False) == [1.0] * 4
        assert make_weights(8, decreasing=True) == pytest.approx(
            [1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2]
        )
        odd = make_weights(5, decreasing=True)
        assert len(odd) == 5 and odd[0] == 1.0 and odd[-1] < 1.0

    def test_weighted_predictor_is_inverse_mean(self):
        assert weighted_interval_predictor([100, 100], [1, 1]) == pytest.approx(0.01)

    def test_longer_history_smooths_alternating_trace(self):
        trace = [50.0, 150.0] * 40
        short, _ = predictor_errors(trace, history=2, decreasing=False)
        long, _ = predictor_errors(trace, history=16, decreasing=False)
        assert long <= short + 1e-9

    def test_too_short_trace_raises(self):
        with pytest.raises(ValueError):
            predictor_errors([10.0] * 4, history=8, decreasing=True)


class TestStats:
    def test_t_table_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for dof in (1, 5, 13, 29):
            expected = scipy_stats.t.ppf(0.95, dof)
            assert t_critical_90(dof) == pytest.approx(expected, abs=5e-3)

    def test_ci_zero_for_single_sample(self):
        assert confidence_interval([3.0]) == 0.0

    def test_ci_shrinks_with_samples(self):
        rng = np.random.default_rng(0)
        small = confidence_interval(rng.normal(0, 1, 4).tolist())
        large = confidence_interval(rng.normal(0, 1, 30).tolist())
        assert large < small

    def test_mean_and_ci(self):
        mean, ci = mean_and_ci([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert ci > 0

    def test_unsupported_level_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval([1, 2], level=0.95)


class TestJainFairnessIndex:
    def test_equal_allocation_is_one(self):
        from repro.analysis.stats import jain_fairness_index

        assert jain_fairness_index([3.0, 3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_hog_is_one_over_n(self):
        from repro.analysis.stats import jain_fairness_index

        assert jain_fairness_index([5.0, 0.0, 0.0, 0.0, 0.0]) == pytest.approx(0.2)

    def test_scale_invariant(self):
        from repro.analysis.stats import jain_fairness_index

        base = [1.0, 2.0, 3.0]
        assert jain_fairness_index(base) == pytest.approx(
            jain_fairness_index([x * 7.5 for x in base])
        )

    def test_all_zero_defined_as_fair(self):
        from repro.analysis.stats import jain_fairness_index

        assert jain_fairness_index([0.0, 0.0]) == 1.0

    def test_validation(self):
        from repro.analysis.stats import jain_fairness_index

        with pytest.raises(ValueError):
            jain_fairness_index([])
        with pytest.raises(ValueError):
            jain_fairness_index([1.0, -1.0])

    @given(values=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=50))
    def test_bounded_by_one_over_n_and_one(self, values):
        from repro.analysis.stats import jain_fairness_index

        index = jain_fairness_index(values)
        assert 1.0 / len(values) - 1e-9 <= index <= 1.0 + 1e-9
