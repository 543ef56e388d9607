"""Property/fuzz tests for the loss-event detector.

A simple reference model is checked against the production detector across
randomly generated arrival patterns (losses, bursts, reordering).
"""

from hypothesis import given, settings, strategies as st

from repro.core.loss_events import LossEventDetector
from repro.core.receiver import TfrcReceiver
from repro.core.sender import TfrcDataInfo
from repro.net.packet import Packet
from repro.sim.engine import Simulator


def deliver_pattern(detector, delivered, spacing=0.01, start=0.0):
    """Feed a list of sequence numbers (in arrival order) at fixed spacing."""
    t = start
    for seq in delivered:
        detector.on_arrival(seq, t)
        t += spacing
    return t


class TestAgainstReferenceCounts:
    @given(
        st.lists(st.booleans(), min_size=20, max_size=300),
        st.floats(min_value=0.001, max_value=0.2),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_loss_counted_once(self, keep_mask, rtt):
        """Without reordering, the detector's loss count equals the number
        of dropped packets whose holes matured (3 later arrivals)."""
        detector = LossEventDetector(rtt_fn=lambda: rtt)
        delivered = [i for i, keep in enumerate(keep_mask) if keep]
        if len(delivered) < 5:
            return
        deliver_pattern(detector, delivered)
        lost = [i for i, keep in enumerate(keep_mask) if not keep]
        matured = [
            seq
            for seq in lost
            if seq < max(delivered) and sum(1 for d in delivered if d > seq) >= 3
        ]
        assert detector.packets_lost == len(matured)

    @given(st.lists(st.booleans(), min_size=20, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_events_never_exceed_losses(self, keep_mask):
        detector = LossEventDetector(rtt_fn=lambda: 0.05)
        delivered = [i for i, keep in enumerate(keep_mask) if keep]
        if len(delivered) < 5:
            return
        deliver_pattern(detector, delivered)
        assert len(detector.events) <= max(1, detector.packets_lost)

    @given(
        st.integers(min_value=2, max_value=50),
        st.floats(min_value=0.01, max_value=0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_burst_within_rtt_is_single_event(self, burst, rtt):
        """Any contiguous burst of losses (followed by arrivals within one
        RTT) collapses into one loss event."""
        detector = LossEventDetector(rtt_fn=lambda: rtt)
        delivered = list(range(10)) + list(range(10 + burst, 20 + burst))
        # Tight spacing: whole trace well inside one RTT per gap.
        deliver_pattern(detector, delivered, spacing=rtt / 100)
        assert detector.packets_lost == burst
        assert len(detector.events) == 1

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_reordering_never_creates_loss(self, data):
        """Local reordering (swap adjacent arrivals) of a complete sequence
        declares no loss inside the tolerance of 3.  A chain of swaps can
        carry a packet past it: that packet, and only that one, is lost
        once three new highest seqs arrived before it."""
        n = data.draw(st.integers(min_value=10, max_value=100))
        order = list(range(n))
        swaps = data.draw(
            st.lists(st.integers(min_value=0, max_value=n - 2), max_size=20)
        )
        for index in swaps:
            order[index], order[index + 1] = order[index + 1], order[index]
        detector = LossEventDetector(rtt_fn=lambda: 0.05)
        deliver_pattern(detector, order)
        late, raised = 0, []  # raised: seqs that moved the highest up
        for seq in order:
            late += sum(r > seq for r in raised) >= detector.REORDER_TOLERANCE
            if not raised or seq > raised[-1]:
                raised.append(seq)
        assert detector.packets_lost == late
        if not late:
            assert detector.events == []

    def test_three_position_reorder_tolerated(self):
        """A packet late by three positions still fills its hole in time."""
        detector = LossEventDetector(rtt_fn=lambda: 0.05)
        deliver_pattern(detector, [0, 2, 3, 1, 4, 5, 6, 7])
        assert detector.packets_lost == 0

    def test_four_position_reorder_stays_lost(self):
        """Beyond the tolerance a late packet is declared lost (TCP's
        3-dupACK behaviour); its arrival, and a duplicate of it, count as
        received and withdraw nothing."""
        detector = LossEventDetector(rtt_fn=lambda: 0.05)
        t = deliver_pattern(detector, [0, 2, 3, 4, 5])
        events = list(detector.events)
        assert detector.packets_lost == 1 and len(events) == 1
        for received in (6, 7):
            t = deliver_pattern(detector, [1], start=t)
            assert detector.packets_received == received
            assert detector.packets_lost == 1
            assert detector.events == events


class TestIntervalAccounting:
    @given(
        st.lists(st.integers(min_value=5, max_value=200), min_size=2, max_size=20)
    )
    @settings(max_examples=50, deadline=None)
    def test_closed_intervals_match_gap_structure(self, interval_lengths):
        """Drop exactly one packet every `length` packets (far apart in
        time): each closed interval equals the sequence distance between
        consecutive dropped packets."""
        detector = LossEventDetector(rtt_fn=lambda: 0.0001)
        detector.REORDER_TOLERANCE = 1
        seq = 0
        t = 0.0
        drop_seqs = []
        for length in interval_lengths:
            for _ in range(length - 1):
                detector.on_arrival(seq, t)
                seq += 1
                t += 1.0  # long spacing: every loss is its own event
            drop_seqs.append(seq)
            seq += 1  # dropped
        # flush with trailing arrivals
        for _ in range(3):
            detector.on_arrival(seq, t)
            seq += 1
            t += 1.0
        closed = [e.closed_interval for e in detector.events[1:]]
        expected = [b - a for a, b in zip(drop_seqs, drop_seqs[1:])]
        assert closed == expected


# ------------------------------------------------- in-order path vs general

DETECTOR_STATE = (
    "events", "packets_lost", "packets_received", "_next_expected",
    "_pending_holes", "_holes_followers", "_last_arrival_seq",
    "_last_arrival_time", "_event_start_seq", "_event_start_time",
)


def assert_indistinguishable(fast, general):
    for name in DETECTOR_STATE:
        assert getattr(fast, name) == getattr(general, name), name
    assert fast.open_interval_packets() == general.open_interval_packets()


@st.composite
def arrival_streams(draw):
    """Sequence numbers in arrival order: Bernoulli loss, one burst,
    adjacent swaps, displacements deeper than any tolerance drawn below
    (declared lost, then late), and duplicates."""
    n = draw(st.integers(min_value=20, max_value=160))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    burst_at = draw(st.integers(min_value=0, max_value=n - 1))
    burst = range(burst_at, burst_at + draw(st.integers(0, 12)))
    order = [s for s in range(n) if (keep[s] or s % 3 == 0) and s not in burst]
    index = st.integers(min_value=0, max_value=max(0, len(order) - 2))
    for i in draw(st.lists(index, max_size=12)):
        if i + 1 < len(order):
            order[i], order[i + 1] = order[i + 1], order[i]
    for i in draw(st.lists(index, max_size=6)):
        if order:
            order.insert(i + draw(st.integers(4, 12)), order.pop(i))
    for i in draw(st.lists(index, max_size=6)):
        if order:
            order.insert(i + draw(st.integers(0, 9)), order[i])
    return order


class TestInOrderPathAgainstGeneralBody:
    """``on_arrival`` short-circuits the in-order, nothing-pending arrival;
    ``_on_arrival_general`` is the body every other arrival runs.  Feeding
    one stream to both must leave the two detectors indistinguishable after
    *every* arrival -- widening the short-circuit (say, dropping its
    ``_holes_followers`` term) stops holes maturing and fails here."""

    @given(
        arrival_streams(),
        st.floats(min_value=0.0, max_value=0.2),
        st.floats(min_value=1e-4, max_value=0.05),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_state_equal_after_every_arrival(self, stream, rtt, spacing, tolerance):
        fast, general = (LossEventDetector(rtt_fn=lambda: rtt) for _ in range(2))
        fast.REORDER_TOLERANCE = general.REORDER_TOLERANCE = tolerance
        for i, seq in enumerate(stream):
            now = i * spacing
            assert fast.on_arrival(seq, now) == (
                general._on_arrival_general(seq, now)
            )
            assert_indistinguishable(fast, general)


class TestReceiverAgainstGeneralBody:
    """Same shape one layer up: a ``TfrcReceiver`` whose detector is pinned
    to the general body (and so takes the receiver's two-measurement
    open-interval accounting on every packet) must report what the
    shipped one reports."""

    @staticmethod
    def _receiver(pinned):
        sim, reports = Simulator(), []
        receiver = TfrcReceiver(sim, "f", send_feedback=reports.append)
        if pinned:
            detector = receiver.detector
            detector.on_arrival = detector._on_arrival_general
            detector.arrive_in_order = lambda seq, now: False
        return sim, receiver, reports

    @given(
        arrival_streams(),
        st.floats(min_value=1e-4, max_value=0.02),
        st.lists(st.floats(min_value=0.01, max_value=0.3), min_size=1, max_size=4),
    )
    @settings(max_examples=120, deadline=None)
    def test_open_interval_rate_and_feedback_equal(self, stream, spacing, rtts):
        shipped, pinned = self._receiver(False), self._receiver(True)
        for i, seq in enumerate(stream):
            outcome = []
            for sim, receiver, reports in (shipped, pinned):
                sim.run(until=i * spacing)
                packet = Packet(
                    "f", seq, 1000, sent_at=sim.now,
                    payload=TfrcDataInfo(rtts[i * len(rtts) // len(stream)]),
                )
                receiver.receive(packet)
                outcome.append((
                    receiver.intervals.open_interval,
                    receiver.intervals.history,
                    receiver.loss_event_rate(),
                    receiver.feedback_sent,
                    [(r.seq, r.payload.p, r.payload.recv_rate, r.payload.expedited)
                     for r in reports],
                ))
            assert outcome[0] == outcome[1]


class TestFusedInOrderArrival:
    """``arrive_in_order`` either runs an in-order arrival whole or leaves
    the detector untouched; with ``on_arrival`` as its fallback it must
    track the general body state for state."""

    @given(arrival_streams(), st.floats(min_value=0.0, max_value=0.2),
           st.integers(min_value=0, max_value=4))
    @settings(max_examples=150, deadline=None)
    def test_fused_call_then_fallback_equals_general_body(self, stream, rtt, tolerance):
        fused, general = (LossEventDetector(rtt_fn=lambda: rtt) for _ in range(2))
        fused.REORDER_TOLERANCE = general.REORDER_TOLERANCE = tolerance
        for i, seq in enumerate(stream):
            now = i * 0.003
            expected = seq == fused._next_expected and not fused._holes_followers
            before = {name: repr(getattr(fused, name)) for name in DETECTOR_STATE}
            took = fused.arrive_in_order(seq, now)
            assert took is expected
            if not took:
                after = {name: repr(getattr(fused, name)) for name in DETECTOR_STATE}
                assert after == before  # a refusal changes nothing
                fused.on_arrival(seq, now)
            general._on_arrival_general(seq, now)
            assert_indistinguishable(fused, general)


class TestDeclaredLossStands:
    """A packet that arrives after its hole was declared lost, and a
    duplicate of it, each count as received and change nothing else: the
    loss, its event and the receiver's ``p`` stand."""

    def test_late_packet_and_its_duplicate_withdraw_nothing(self):
        sim = Simulator()
        receiver = TfrcReceiver(sim, "f", send_feedback=lambda packet: None)
        detector = receiver.detector

        def deliver(seq, now):
            sim.run(until=now)
            receiver.receive(Packet("f", seq, 1000, sent_at=now,
                                    payload=TfrcDataInfo(0.1)))

        for i, seq in enumerate(s for s in range(200) if s != 150):
            deliver(seq, i * 0.01)
        declared = (list(detector.events), detector.packets_lost,
                    receiver.loss_event_rate())
        assert declared[1] == 1 and len(declared[0]) == 1 and declared[2] > 0
        for step, now in enumerate((2.0, 2.01), start=1):
            deliver(150, now)  # the late packet, then its duplicate
            assert detector.packets_received == 199 + step
            assert (list(detector.events), detector.packets_lost,
                    receiver.loss_event_rate()) == declared
