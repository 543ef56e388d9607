"""RED's decision math (``net/redmath.py``) against Floyd & Jacobson (1993).

The queue tests drive ``REDQueue`` and the twin tests hold the vector
forms to the scalar ones; these pin the scalar expressions themselves, and
the vector forms row by row, to values worked out by hand from the paper's
definitions, with thresholds 5 and 15 packets and ``max_p = 0.1``.
"""

import numpy as np
import pytest

from repro.net.redmath import (
    RedParams,
    red_drop_probability,
    red_drop_probability_vec,
    red_ewma,
    red_ewma_vec,
    red_uniformized,
    red_uniformized_vec,
)

GENTLE = RedParams(min_thresh=5, max_thresh=15, max_p=0.1, gentle=True)
CLIFF = RedParams(min_thresh=5, max_thresh=15, max_p=0.1, gentle=False)
RAMPS = {"gentle": GENTLE, "cliff": CLIFF}


DROP_PROBABILITY_TABLE = [
    ("gentle", 0.0, 0.0),
    ("gentle", 4.999, 0.0),
    ("gentle", 5.0, 0.0),  # min_thresh itself: the linear ramp starts at 0
    ("gentle", 7.5, 0.025),
    ("gentle", 10.0, 0.05),
    ("gentle", 14.0, 0.09),
    ("gentle", 15.0, 0.1),  # max_thresh: the gentle ramp starts at max_p
    ("gentle", 22.5, 0.55),  # 0.1 + (7.5 / 15) * 0.9
    ("gentle", 29.0, 0.94),  # 0.1 + (14 / 15) * 0.9
    ("gentle", 30.0, 1.0),  # 2 * max_thresh: every arrival dropped
    ("gentle", 100.0, 1.0),
    ("cliff", 10.0, 0.05),  # below max_thresh gentle changes nothing
    ("cliff", 14.999, 0.09999),
    ("cliff", 15.0, 1.0),  # without gentle the ramp ends in a cliff
    ("cliff", 22.5, 1.0),
]


@pytest.mark.parametrize("ramp, avg, p_b", DROP_PROBABILITY_TABLE)
def test_drop_probability(ramp, avg, p_b):
    got = red_drop_probability(RAMPS[ramp], avg)
    assert got == pytest.approx(p_b, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("ramp, avg, p_b", DROP_PROBABILITY_TABLE)
def test_drop_probability_vec(ramp, avg, p_b):
    """Each row alone (below ``max_thresh`` that takes the vector form's
    short cut) and beside an average past ``2 * max_thresh`` (the full
    selection)."""
    alone = red_drop_probability_vec(RAMPS[ramp], np.array([avg]))
    mixed = red_drop_probability_vec(RAMPS[ramp], np.array([avg, 100.0]))
    assert alone.tolist() == pytest.approx([p_b], rel=1e-12, abs=1e-15)
    assert mixed.tolist() == pytest.approx([p_b, 1.0], rel=1e-12, abs=1e-15)


UNIFORMIZED_TABLE = [
    (0.05, 0, 0.05),
    (0.05, 10, 0.1),  # 0.05 / (1 - 0.5)
    (0.1, 5, 0.2),  # 0.1 / (1 - 0.5)
    (0.05, 19, 1.0),  # 0.05 / 0.05: the last packet of the gap
    (0.05, 20, 1.0),  # denominator 0
    (0.05, 30, 1.0),  # denominator negative
    (0.0, 1000, 0.0),  # nothing to uniformize below min_thresh
]


@pytest.mark.parametrize("p_b, count, p_a", UNIFORMIZED_TABLE)
def test_uniformized_probability(p_b, count, p_a):
    assert red_uniformized(p_b, count) == pytest.approx(p_a, rel=1e-12)


@pytest.mark.parametrize("p_b, count, p_a", UNIFORMIZED_TABLE)
def test_uniformized_probability_vec(p_b, count, p_a):
    got = red_uniformized_vec(np.array([p_b]), np.array([count]))
    assert got.tolist() == pytest.approx([p_a], rel=1e-12)


@pytest.mark.parametrize("p_b", [0.5, 0.25, 0.2, 0.125, 0.1, 0.0625, 0.05])
def test_uniformized_gap_between_drops_is_uniform(p_b):
    """The point of uniformization (Floyd & Jacobson section 7): with
    ``count`` reaching n on the n-th arrival after a drop, the gap to the
    next drop is uniform on 1 .. 1/p_b - 1, each with p_b / (1 - p_b)."""
    survive, gap = 1.0, []
    for n in range(1, 1000):
        p_a = red_uniformized(p_b, n)
        gap.append(survive * p_a)
        survive *= 1.0 - p_a
        if survive <= 1e-12:
            break
    assert len(gap) == round(1 / p_b) - 1
    assert gap == pytest.approx([p_b / (1 - p_b)] * len(gap), rel=1e-9)
    assert sum(gap) == pytest.approx(1.0)


@pytest.mark.parametrize("weight, steps", [(0.002, 500), (0.02, 50), (0.5, 4)])
def test_ewma_approaches_a_constant_queue_geometrically(weight, steps):
    """From an empty average under a constant queue q, n busy steps leave
    ``q * (1 - (1 - w)**n)``; the average never overshoots q."""
    avg, qlen = 0.0, 20.0
    for _ in range(steps):
        avg = red_ewma(weight, avg, qlen)
        assert avg <= qlen
    assert avg == pytest.approx(qlen * (1 - (1 - weight) ** steps), rel=1e-9)


def test_ewma_fixed_point_is_the_queue_length():
    assert red_ewma(0.002, 12.0, 12.0) == 12.0


def test_ewma_vec_steps_each_average_toward_its_queue():
    """``avg + w (q - avg)`` per element: up, down and at the fixed point."""
    got = red_ewma_vec(0.25, np.array([0.0, 8.0, 12.0]), np.array([4.0, 0.0, 12.0]))
    assert got.tolist() == [1.0, 6.0, 12.0]


def test_params_hoist_the_constants_the_ramps_use():
    assert (GENTLE.thresh_range, GENTLE.two_max_thresh) == (10, 30)
    assert GENTLE.one_minus_max_p == pytest.approx(0.9)


@pytest.mark.parametrize("kwargs, message", [
    (dict(min_thresh=0, max_thresh=15), "min_thresh"),
    (dict(min_thresh=15, max_thresh=15), "min_thresh"),
    (dict(min_thresh=5, max_thresh=15, max_p=0.0), "max_p"),
    (dict(min_thresh=5, max_thresh=15, max_p=1.5), "max_p"),
    (dict(min_thresh=5, max_thresh=15, weight=0.0), "weight"),
    (dict(min_thresh=5, max_thresh=15, weight=1.5), "weight"),
])
def test_params_reject_an_unusable_configuration(kwargs, message):
    with pytest.raises(ValueError, match=message):
        RedParams(**kwargs)
