"""The TFRC receiver's loss event rate against ``loss_event_rate_reference``.

The reference recomputes ``p`` from the arrival stream alone and so covers
``core/loss_events.py``, ``core/loss_intervals.py`` and ``core/receiver.py``
together, with history discounting on.  The named cases pin the behaviours
a simpler receiver gets wrong: ``rtt == 0`` before the first sample, the
section 5.2 loss-time interpolation, reordering inside NDUPACK = 3, a
packet later than that (and its duplicate) staying lost, one loss event
per RTT, and the synthetic first interval.
"""

import pytest
from hypothesis import given, settings, strategies as st

from reference_models import loss_event_rate_reference
from repro.core.receiver import TfrcReceiver
from repro.core.sender import TfrcDataInfo
from repro.net.packet import Packet
from repro.sim.engine import Simulator


def receiver_p(arrivals):
    """Feed ``(seq, time, rtt)`` arrivals to a ``TfrcReceiver``; its ``p``
    and loss-event count at the end."""
    sim = Simulator()
    receiver = TfrcReceiver(sim, "f", send_feedback=lambda packet: None)
    assert receiver.intervals.discounting
    for seq, now, rtt in arrivals:
        sim.run(until=now)
        receiver.receive(Packet("f", seq, 1000, sent_at=now,
                                payload=TfrcDataInfo(rtt)))
    return receiver.loss_event_rate(), len(receiver.detector.events)


def stream(order, spacing=0.01, rtt=0.1, rtt_from=0):
    """Arrivals of ``order`` at a fixed spacing; ``rtt`` 0 before index
    ``rtt_from`` (no sample yet)."""
    return [(seq, i * spacing, rtt if i >= rtt_from else 0.0)
            for i, seq in enumerate(order)]


def assert_matches(arrivals):
    p, events = receiver_p(arrivals)
    assert p == pytest.approx(loss_event_rate_reference(arrivals), rel=1e-12)
    return p, events


@st.composite
def arrival_streams(draw):
    """Bernoulli and burst loss, adjacent swaps, packets later than three
    newer ones, duplicates, uneven spacing, a run with no RTT sample
    (``rtt == 0``), then RTTs that fall mid-run."""
    n = draw(st.integers(min_value=10, max_value=400))
    keep = draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))
    loss = draw(st.floats(0.0, 0.3))
    burst_at = draw(st.integers(0, n - 1))
    burst = range(burst_at, burst_at + draw(st.integers(0, 10)))
    order = [s for s in range(n) if keep[s] >= loss and s not in burst]
    index = st.integers(0, max(0, len(order) - 2))
    for i in draw(st.lists(index, max_size=20)):  # neighbour swaps
        if i + 1 < len(order):
            order[i], order[i + 1] = order[i + 1], order[i]
    for i in draw(st.lists(index, max_size=4)):  # later than 3 newer ones
        if order:
            order.insert(i + draw(st.integers(4, 12)), order.pop(i))
    for i in draw(st.lists(index, max_size=4)):  # duplicates
        if order:
            order.insert(i + draw(st.integers(1, 9)), order[i])
    gaps = draw(st.lists(st.floats(1e-4, 0.05), min_size=len(order), max_size=len(order)))
    # The receive-rate window (max(rtt, 50 ms)) never grows: the receiver
    # prunes arrivals at every read with the window then in force, so a
    # window that grows later cannot see the pruned ones again (the
    # reference counts them; see ROADMAP item 8).
    no_sample = draw(st.integers(0, len(order)))
    choices = [0.02, 0.05] if no_sample else [0.02, 0.05, 0.1, 0.4]
    rtts = sorted(draw(st.lists(st.sampled_from(choices), min_size=1, max_size=4)),
                  reverse=True)
    now, arrivals = 0.0, []
    for i, (seq, gap) in enumerate(zip(order, gaps)):
        now += gap
        rtt = 0.0 if i < no_sample else rtts[i * len(rtts) // len(order)]
        arrivals.append((seq, now, rtt))
    return arrivals


@given(arrival_streams())
@settings(max_examples=200, deadline=None)
def test_receiver_p_matches_reference(arrivals):
    assert_matches(arrivals)


def test_no_rtt_sample_makes_every_loss_its_own_event():
    """``rtt == 0`` before the first sample: nothing merges."""
    order = [s for s in range(200) if s not in (40, 42, 44, 100)]
    _, events = assert_matches(stream(order, rtt_from=len(order)))
    assert events == 4
    _, events = assert_matches(stream(order))
    assert events == 2  # with a 100 ms RTT, 40/42/44 are one event


def test_loss_time_is_interpolated_between_the_surrounding_arrivals():
    """Seq 20 starts an event at 0.195 s (RTT 100 ms).  Seq 28 is lost in a
    pause: 27 arrives at 0.26 s, 29 at 0.32 s.  Its interpolated loss time,
    0.29 s, falls inside the event's RTT, so it merges; its detection time,
    0.32 s, would have started a second event."""
    arrivals = [(s, s * 0.01, 0.1) for s in range(20)]
    arrivals += [(s, (s - 1) * 0.01, 0.1) for s in range(21, 28)]
    arrivals += [(s, 0.32 + (s - 29) * 0.01, 0.1) for s in range(29, 120)]
    _, events = assert_matches(arrivals)
    assert events == 1


def test_reordering_inside_ndupack_is_no_loss():
    order = list(range(100))
    for i in range(10, 90, 7):
        order[i], order[i + 1] = order[i + 1], order[i]
    p, events = assert_matches(stream(order))
    assert (p, events) == (0.0, 0)


def test_packet_later_than_ndupack_and_its_duplicate_stay_lost():
    """Seq 150 arrives ten places late, then again: both count in the
    receive rate and neither withdraws the loss, so ``p`` is what the
    stream without them gives."""
    order = [s for s in range(300) if s != 150]
    lost = assert_matches(stream(order))
    order[159:159] = [150, 150]
    assert assert_matches(stream(order)) == lost
    assert lost[1] == 1 and lost[0] > 0


def test_losses_within_one_rtt_are_one_event():
    order = [s for s in range(300) if s not in range(100, 110, 2)]
    p, events = assert_matches(stream(order))
    assert events == 1 and p > 0


def test_first_event_closes_the_synthetic_interval():
    """The first loss seeds the history with the interval that maps to half
    the receive rate (~143 packets at 50 kB/s and 100 ms), which pulls the
    average below the 200-packet interval the loss closed."""
    order = [s for s in range(400) if s != 200]
    p, events = assert_matches(stream(order))
    assert events == 1 and 1 / 200 < p < 1 / 100
