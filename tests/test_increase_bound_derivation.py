"""Appendix A.1's maximum rate increase per RTT, derived rather than quoted.

``reference_models`` derives it in exact fractions from the mechanism: the
n = 8 WALI weights give the newest interval a share of 1/6, or 2/5 once
the older ones are discounted to the 0.3 floor; one loss-free RTT moves
the average interval by that share of the packets sent in it; Eq. 1 (or
the simple response) maps the average to a rate.  These tests hold the
estimator's weights, ``tcp_response_rate`` and ``analytic_rate_increase``
to the derivation, and the constants ``core/equations.py`` quotes against
its suprema: 1/8 packet/RTT undiscounted and 3/10 at the floor.
"""

from fractions import Fraction

import pytest

from reference_models import (
    eq1_packets_per_rtt,
    increase_limit_exact,
    increase_per_rtt_exact,
    newest_effective_weight,
    newest_weight_exact,
    sqrt_fraction,
    wali_weights_exact,
)
from repro.core.equations import (
    DELTA_T_DISCOUNTED_BOUND,
    DELTA_T_EQ1_BOUND,
    DELTA_T_SIMPLE_BOUND,
    analytic_rate_increase,
    tcp_response_rate,
)
from repro.core.loss_intervals import ALI_DEFAULT_WEIGHTS, AverageLossIntervals

WEIGHTS = wali_weights_exact(8)
FLOOR = Fraction(3, 10)
NEWEST = {
    "undiscounted": newest_weight_exact(WEIGHTS),
    "floor": newest_weight_exact(WEIGHTS, FLOOR),
}
#: average loss intervals, in packets (loss event rates 1/2 .. 1e-6).
GRID = [2, 5, 10, 20, 50, 100, 1000, 10**4, 10**6]


def test_estimator_weights_are_section_3_3_rule():
    fifths = [Fraction(k, 5) for k in (4, 3, 2, 1)]
    assert WEIGHTS == [Fraction(1)] * 4 + fifths
    assert sum(WEIGHTS) == 6
    # The estimator evaluates 1 - 4/5 in floats: 0.19999999999999996.
    assert ALI_DEFAULT_WEIGHTS == pytest.approx([float(w) for w in WEIGHTS],
                                                rel=0, abs=1e-15)


@pytest.mark.parametrize("name, share", [
    ("undiscounted", Fraction(1, 6)), ("floor", Fraction(2, 5)),
])
def test_newest_interval_share(name, share):
    assert NEWEST[name] == share


@pytest.mark.parametrize("open_interval, name", [
    (150.0, "undiscounted"),  # s0 <= 2 * average: no discount in force
    (1e6, "floor"),  # a long lull: the discount bottoms out at the floor
])
def test_estimator_gives_the_newest_interval_the_derived_share(
    open_interval, name
):
    ali = AverageLossIntervals()
    assert ali.discount_floor == float(FLOOR)
    for _ in range(8):
        ali.on_packet(100.0)
        ali.on_loss_event()
    ali.on_packet(open_interval)
    assert newest_effective_weight(ali) == pytest.approx(float(NEWEST[name]))


@pytest.mark.parametrize("name, limit", [
    ("undiscounted", Fraction(1, 8)), ("floor", Fraction(3, 10)),
])
def test_supremum_is_three_quarters_of_the_newest_share(name, limit):
    assert increase_limit_exact(NEWEST[name]) == limit


def _code_increase(average_interval, share):
    """The same step through ``tcp_response_rate`` in floats."""
    def rate(p):
        return tcp_response_rate(1, 1.0, p, 4.0)

    now = rate(1 / average_interval)
    return rate(1 / (average_interval + share * now)) - now


@pytest.mark.parametrize("average_interval", GRID)
@pytest.mark.parametrize("name", NEWEST)
def test_eq1_increase_matches_the_derivation(name, average_interval):
    share = NEWEST[name]
    exact = increase_per_rtt_exact(average_interval, share)
    assert 0 < exact < increase_limit_exact(share)
    assert _code_increase(average_interval, float(share)) == pytest.approx(
        float(exact), rel=1e-9
    )


@pytest.mark.parametrize("name", NEWEST)
def test_eq1_increase_rises_toward_the_supremum(name):
    share = NEWEST[name]
    steps = [increase_per_rtt_exact(a, share) for a in GRID]
    assert steps == sorted(steps) and len(set(steps)) == len(steps)
    assert increase_limit_exact(share) - steps[-1] < Fraction(1, 10**3)


def _simple_1_2(p):
    """The appendix's simple response with sqrt(1.5) rounded to 1.2."""
    return Fraction(6, 5) * sqrt_fraction(1 / p)


@pytest.mark.parametrize("average_interval", GRID)
@pytest.mark.parametrize("name", NEWEST)
def test_analytic_rate_increase_matches_the_derivation(name, average_interval):
    share = NEWEST[name]
    exact = increase_per_rtt_exact(average_interval, share, rate=_simple_1_2)
    assert analytic_rate_increase(average_interval, float(share)) == (
        pytest.approx(float(exact), rel=1e-9)
    )


def test_quoted_undiscounted_bounds_hold():
    """0.12 is the simple response's supremum with c = 1.2 exactly; the
    0.14 quoted for Eq. 1 holds with 0.015 packet/RTT to spare."""
    share = NEWEST["undiscounted"]
    assert DELTA_T_SIMPLE_BOUND == float(
        increase_limit_exact(share, c_squared=Fraction(36, 25))
    )
    spare = Fraction(str(DELTA_T_EQ1_BOUND)) - increase_limit_exact(share)
    assert spare == Fraction(3, 200)


def test_quoted_discounted_bound_is_below_the_derivation():
    """0.28 is 0.72 * 2/5 = 0.288 cut to two places.  Eq. 1's supremum at
    the floor is 3/10, and the increase passes 0.28 by A = 100 packets,
    the loss period Figure 19 runs at."""
    share = NEWEST["floor"]
    quoted = Fraction(str(DELTA_T_DISCOUNTED_BOUND))
    assert increase_limit_exact(share, c_squared=Fraction(36, 25)) == (
        Fraction(288, 1000)
    )
    assert quoted == Fraction(28, 100) < increase_limit_exact(share)
    assert increase_per_rtt_exact(50, share) < quoted
    assert increase_per_rtt_exact(100, share) > Fraction(29, 100)


def test_eq1_reduces_to_the_simple_response_at_low_loss():
    """At p = 1e-6 Eq. 1 is within 0.01 % of sqrt(3/(2p)) packets/RTT."""
    p = Fraction(1, 10**6)
    simple = sqrt_fraction(Fraction(3, 2) / p)
    assert abs(eq1_packets_per_rtt(p) / simple - 1) < Fraction(1, 10**4)
