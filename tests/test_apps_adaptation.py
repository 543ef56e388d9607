"""Tests for the quality-ladder adapter."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.adaptation import EncodingLevel, QualityAdapter, standard_ladder

LADDER = [
    EncodingLevel(100e3, "low"),
    EncodingLevel(500e3, "mid"),
    EncodingLevel(1e6, "high"),
]


def adapter(up_stability=2.0, headroom=1.0):
    """An adapter over ``LADDER``, its ladder and headroom set on the
    instance after construction."""
    made = QualityAdapter(up_stability=up_stability)
    made.levels = list(LADDER)
    made.HEADROOM = headroom
    return made


class TestLevelSelection:
    def test_constant_rate_picks_highest_affordable(self):
        result = adapter().replay([600e3] * 10, tau=1.0)
        assert result.choices == [1] * 10  # "mid" fits, "high" does not
        assert result.switches == 0

    def test_headroom_reserves_margin(self):
        result = adapter(headroom=0.5).replay([600e3] * 5, tau=1.0)
        # Budget is 300 kb/s: only "low" fits.
        assert result.choices == [0] * 5

    def test_default_headroom_and_ladder(self):
        made = QualityAdapter()
        assert made.HEADROOM == 0.85
        assert made.levels == standard_ladder()
        # 0.85 * 800 kb/s = 680 kb/s affords the 300 kb/s rung, not 700.
        names = [level.name for level in standard_ladder()]
        assert made.replay([800e3], tau=1.0).choices == [names.index("low")]

    def test_rate_below_all_levels(self):
        result = adapter().replay([50e3] * 4, tau=1.0)
        assert result.choices == [-1] * 4
        assert result.mean_bitrate_bps() == 0.0

    def test_downswitch_is_immediate(self):
        rates = [1.2e6] * 5 + [200e3] * 5
        result = adapter().replay(rates, tau=1.0)
        assert result.choices[4] == 2
        assert result.choices[5] == 0  # straight down, no hysteresis

    def test_upswitch_requires_stability(self):
        rates = [200e3] * 3 + [1.2e6] * 10
        result = adapter(up_stability=3.0).replay(rates, tau=1.0)
        # Starts at "low"; climbs one rung per 3 stable seconds.
        assert result.choices[3] == 0
        assert result.choices[5] == 1  # after 3 s of headroom
        assert max(result.choices) == 2

    def test_oscillating_rate_counts_switches(self):
        rates = [1.2e6, 200e3] * 10
        flappy = adapter(up_stability=0.0).replay(rates, tau=1.0)
        damped = adapter(up_stability=5.0).replay(rates, tau=1.0)
        assert flappy.switches > damped.switches


class TestResultMetrics:
    def test_time_per_level_sums_to_duration(self):
        rates = [600e3] * 4 + [1.2e6] * 6
        result = adapter(up_stability=2.0).replay(rates, tau=0.5)
        assert sum(result.time_per_level.values()) == pytest.approx(5.0)

    def test_switches_per_minute(self):
        result = adapter(up_stability=0.0).replay([1.2e6, 200e3] * 30, tau=1.0)
        assert result.switches_per_minute == pytest.approx(result.switches)

    def test_mean_bitrate_weighs_choices(self):
        result = adapter().replay([600e3] * 2 + [1.2e6] * 0, tau=1.0)
        assert result.mean_bitrate_bps() == pytest.approx(500e3)

    def test_empty_trace(self):
        result = adapter().replay([], tau=1.0)
        assert result.choices == []
        assert result.switches == 0
        assert result.switches_per_minute == 0.0


class TestValidation:
    def test_negative_stability(self):
        with pytest.raises(ValueError):
            QualityAdapter(up_stability=-1.0)

    def test_nonpositive_tau(self):
        with pytest.raises(ValueError):
            adapter().replay([1e6], tau=0.0)

    def test_level_bitrate_positive(self):
        with pytest.raises(ValueError):
            EncodingLevel(0.0, "zero")

    def test_standard_ladder_is_sorted_and_positive(self):
        ladder = standard_ladder()
        rates = [level.bitrate_bps for level in ladder]
        assert rates == sorted(rates)
        assert all(r > 0 for r in rates)


class TestInvariants:
    @given(rates=st.lists(st.floats(0, 5e6), max_size=100),
           stability=st.floats(0, 10))
    def test_choices_always_within_ladder(self, rates, stability):
        result = adapter(up_stability=stability).replay(rates, tau=1.0)
        assert all(-1 <= c < len(LADDER) for c in result.choices)
        assert len(result.choices) == len(rates)

    @given(rates=st.lists(st.floats(1e5, 5e6), min_size=2, max_size=50))
    def test_switch_count_bounds_choice_changes(self, rates):
        result = adapter(up_stability=0.0).replay(rates, tau=1.0)
        changes = sum(
            1 for a, b in zip(result.choices, result.choices[1:]) if a != b
        )
        assert result.switches == changes
